"""Serialization round trips, renderings, and command-line behavior."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latcoh import (
    GradedRoot,
    InputError,
    NumericalSemigroup,
    TowerModule,
    ValidationError,
    from_generators,
    from_members,
    hilbert_from_parametrization,
    module_from_root,
    root_from_weight,
    weight_sequence,
)
import latcoh.cli
import latcoh.graded
import latcoh.reconstruct
import latcoh.semigroup
from latcoh import formats
from latcoh.cli import _parser, cmd_curve, cmd_root_iso, cmd_semigroup, main, parse_args
from fixtures import (
    FOUR_BRANCH,
    ORACLE_SEED,
    SPRIME_CONDUCTOR,
    SPRIME_MEMBERS,
    by_point,
    curve,
    example_root_pair,
    monomial_branch,
    pair_family,
    random_space_curves,
)
from oracles import hironaka_delta, zariski_generators

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# JSON round trips

def test_semigroup_round_trip():
    S = from_generators([6, 10, 31])
    d = json.loads(formats.to_json(formats.semigroup_to_dict(S)))
    assert formats.semigroup_from_dict(d) == S


def test_unclosed_set_round_trip():
    T = from_members(SPRIME_MEMBERS, SPRIME_CONDUCTOR, verify_closed=False)
    d = json.loads(formats.to_json(formats.semigroup_to_dict(T)))
    assert d["verify_closed"] is False
    assert formats.semigroup_from_dict(d) == T


def test_semigroup_dict_errors():
    with pytest.raises(InputError):
        formats.semigroup_from_dict({})
    with pytest.raises(InputError):
        formats.semigroup_from_dict({"generators": []})
    with pytest.raises(InputError):
        formats.semigroup_from_dict({"generators": [2, "x"]})
    with pytest.raises(InputError):
        formats.semigroup_from_dict({"members_below": [0, 2]})  # conductor missing
    with pytest.raises(InputError):
        formats.semigroup_from_dict({"members_below": [0], "conductor": 2, "verify_closed": "no"})
    with pytest.raises(InputError):
        formats.semigroup_from_dict([1, 2, 3])


def test_root_round_trip_and_degree_fallback():
    R, _ = example_root_pair()
    d = formats.root_to_dict(R)
    assert formats.root_from_dict(d) == R
    # readers accept the doubled "degree" spelling when "chi" is absent
    for v in d["vertices"]:
        del v["chi"]
    assert formats.root_from_dict(d) == R
    d["vertices"][0]["degree"] = -3
    with pytest.raises(InputError):
        formats.root_from_dict(d)


@st.composite
def _graded_roots(draw):
    """A valid graded root as a reader returns it: one vertex at a top level
    from -4 to 3, up to four more levels below it with up to three vertices
    each, every vertex below the top hung from one a level up, and ids any
    distinct ints, not only 0..V-1."""
    top = draw(st.integers(-4, 3))
    levels = [[top]]
    for n in range(top - 1, top - 1 - draw(st.integers(0, 4)), -1):
        levels.append([n] * draw(st.integers(1, 3)))
    count = sum(map(len, levels))
    ids = draw(
        st.lists(st.integers(-50, 50) | st.integers(-(2**70), 2**70), min_size=count, max_size=count, unique=True)
    )
    named, edges, start = [], [], 0
    for level in levels:
        here = ids[start : start + len(level)]
        if named:
            above = named[-1]
            edges.extend((v, above[draw(st.integers(0, len(above) - 1))]) for v in here)
        named.append(here)
        start += len(level)
    vertices = [(v, n) for level, here in zip(levels, named) for v, n in zip(here, level)]
    return GradedRoot(tuple(sorted(vertices)), tuple(sorted(edges)), top)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_graded_roots())
def test_root_writer_matches_the_stdlib_encoder_and_reads_back(R):
    R.validate()
    d = {
        "edges": [[lo, hi] for lo, hi in R.edges],
        "truncation_level": R.truncation_level,
        "vertices": [{"id": v, "chi": n, "degree": 2 * n} for v, n in R.vertices],
    }
    text = formats.to_json(R)
    assert text == json.dumps(d, indent=2, sort_keys=True) + "\n"
    assert formats.root_to_dict(R) == d
    report = {"r": 1, "root": R, "module": {"base": -2, "towers": [[0, 2]]}, "notes": [R]}
    expected = dict(report, root=d, notes=[d])
    assert formats.to_json(report) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "root.json"
        path.write_text(text, encoding="utf-8")
        assert formats.read_root_file(str(path)) == R


def test_root_dict_errors():
    R, _ = example_root_pair()
    d = formats.root_to_dict(R)
    bad = {k: v for k, v in d.items() if k != "vertices"}
    with pytest.raises(InputError, match="^root: missing field 'vertices'$"):
        formats.root_from_dict(bad)
    bad = json.loads(formats.to_json(d))
    bad["edges"].append([0, 7])  # level jump
    with pytest.raises(InputError, match=r"^edge \(0, 7\) does not span consecutive levels$"):
        formats.root_from_dict(bad)
    bad = json.loads(formats.to_json(d))
    bad["truncation_level"] = 9
    with pytest.raises(InputError, match="^truncation_level disagrees with the top level$"):
        formats.root_from_dict(bad)


def _example_root_dict(**fields):
    """example_root_pair()[0] as a fresh JSON object, with fields replaced."""
    chis = [-2, -2, -2, -2, -1, -1, 0, 1]
    d = {
        "vertices": [{"id": v, "chi": n, "degree": 2 * n} for v, n in enumerate(chis)],
        "edges": [[0, 4], [1, 4], [2, 4], [3, 5], [4, 6], [5, 6], [6, 7]],
        "truncation_level": 1,
    }
    d.update(fields)
    return d


def _vertices_with(*changes):
    """The example's vertex list with (index, entry) replacements; an entry of
    None drops that vertex, and an index past the end appends."""
    vertices = _example_root_dict()["vertices"]
    for i, entry in sorted(changes, reverse=True):
        if entry is None:
            del vertices[i]
        elif i < len(vertices):
            vertices[i] = entry
        else:
            vertices.append(entry)
    return vertices


def _edges_with(*extra, without=()):
    edges = [e for e in _example_root_dict()["edges"] if e not in [list(x) for x in without]]
    return edges + [list(e) for e in extra]


# Each malformed root with the exact message of root_from_dict; several have
# more than one defect, and the order of the checks decides the message.
ROOT_READER_MESSAGES = {
    # the entries of the vertex list, first bad entry first
    "duplicate-id": (_example_root_dict(vertices=_vertices_with((1, {"id": 0, "chi": -2}))), "duplicate vertex id"),
    "duplicate-id-other-level": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 3, "chi": 0}))), "duplicate vertex id",
    ),
    "missing-id": (_example_root_dict(vertices=_vertices_with((2, {"chi": -2}))), "root.vertices[2]: missing field 'id'"),
    "string-id": (
        _example_root_dict(vertices=_vertices_with((2, {"id": "2", "chi": -2}))),
        "root.vertices[2].id: expected an integer, got '2'",
    ),
    "bool-id": (
        _example_root_dict(vertices=_vertices_with((7, {"id": True, "chi": 1}))),
        "root.vertices[7].id: expected an integer, got True",
    ),
    "missing-chi-and-degree": (
        _example_root_dict(vertices=_vertices_with((3, {"id": 3}))), "root.vertices[3]: missing field 'degree'",
    ),
    "float-chi": (
        _example_root_dict(vertices=_vertices_with((3, {"id": 3, "chi": -2.0, "degree": -4}))),
        "root.vertices[3].chi: expected an integer, got -2.0",
    ),
    "odd-degree": (
        _example_root_dict(vertices=_vertices_with((3, {"id": 3, "degree": -3}))),
        "root.vertices[3].degree: doubled degree -3 is odd",
    ),
    "degree-only-then-a-bad-vertex": (
        _example_root_dict(vertices=_vertices_with((3, {"id": 3, "degree": -4}), (5, {"id": 5, "chi": None}))),
        "root.vertices[5].chi: expected an integer, got None",
    ),
    "first-of-two-bad-vertices": (
        _example_root_dict(vertices=_vertices_with((6, {"chi": 0}), (2, {"id": 2, "chi": "x"}))),
        "root.vertices[2].chi: expected an integer, got 'x'",
    ),
    "bad-vertex-before-bad-edges": (
        _example_root_dict(vertices=_vertices_with((4, [4, -1])), edges=None),
        "root.vertices[4]: expected an object, got list",
    ),
    "bad-vertex-before-duplicate-id": (
        _example_root_dict(vertices=_vertices_with((0, {"id": 1, "chi": -2}), (6, {"id": 6}))),
        "root.vertices[6]: missing field 'degree'",
    ),
    # the edge list
    "edges-not-a-list": (_example_root_dict(edges={"0": 4}), "root.edges: expected a list"),
    "edges-null": (_example_root_dict(edges=None), "root.edges: expected a list"),
    "edge-of-three": (_example_root_dict(edges=_edges_with([3, 5, 6])), "root.edges[7]: expected a pair"),
    "edge-not-a-list": (_example_root_dict(edges=_edges_with() + [35]), "root.edges[7]: expected a list"),
    "edge-with-a-bool": (
        _example_root_dict(edges=_edges_with([True, 4])), "root.edges[7][0]: expected an integer, got True",
    ),
    "first-of-two-bad-edges": (
        _example_root_dict(edges=[[0, 4], [1], [2, 4, 9]]), "root.edges[1]: expected a pair",
    ),
    "bad-edge-before-missing-truncation-level": (
        {"vertices": _vertices_with(), "edges": [[0, "4"]]}, "root.edges[0][1]: expected an integer, got '4'",
    ),
    "missing-truncation-level-before-duplicate-id": (
        {"vertices": _vertices_with((1, {"id": 0, "chi": -2})), "edges": []},
        "root: missing field 'truncation_level'",
    ),
    "string-truncation-level": (
        _example_root_dict(truncation_level="1"), "root.truncation_level: expected an integer, got '1'",
    ),
    # the tree, edges in sorted order
    "edge-to-a-missing-vertex": (_example_root_dict(edges=_edges_with([6, 9])), "edge endpoint (6, 9) is not a vertex"),
    "edge-from-a-missing-vertex": (
        _example_root_dict(edges=_edges_with([9, 7])), "edge endpoint (9, 7) is not a vertex",
    ),
    "edge-from-a-negative-id": (
        _example_root_dict(edges=_edges_with([-1, 0])), "edge endpoint (-1, 0) is not a vertex",
    ),
    "edge-to-a-negative-id": (
        _example_root_dict(edges=_edges_with([6, -1])), "edge endpoint (6, -1) is not a vertex",
    ),
    "level-jump": (_example_root_dict(edges=_edges_with([0, 7])), "edge (0, 7) does not span consecutive levels"),
    "edge-goes-downward": (
        _example_root_dict(edges=_edges_with([7, 6], without=[(6, 7)])), "edge (7, 6) does not span consecutive levels",
    ),
    "two-parents": (_example_root_dict(edges=_edges_with([0, 5])), "vertex 0 has two upward neighbors"),
    "two-parents-listed-first": (
        _example_root_dict(edges=[[3, 4]] + _edges_with()), "vertex 3 has two upward neighbors",
    ),
    "first-edge-in-sorted-order": (
        _example_root_dict(edges=_edges_with([5, 9], [0, 7])), "edge (0, 7) does not span consecutive levels",
    ),
    "missing-vertex-before-two-parents": (
        _example_root_dict(edges=_edges_with([0, 9], [0, 5])), "vertex 0 has two upward neighbors",
    ),
    "duplicate-id-before-bad-edge": (
        _example_root_dict(vertices=_vertices_with((1, {"id": 0, "chi": -2})), edges=_edges_with([0, 7])),
        "duplicate vertex id",
    ),
    "non-contiguous-levels": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": 5}))), "levels are not contiguous",
    ),
    "bad-edge-before-non-contiguous-levels": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": 5})), edges=_edges_with([8, 7])),
        "edge (8, 7) does not span consecutive levels",
    ),
    "wrong-truncation-level": (
        _example_root_dict(truncation_level=2), "truncation_level disagrees with the top level",
    ),
    "non-contiguous-levels-before-truncation": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": -4})), truncation_level=5),
        "levels are not contiguous",
    ),
    "two-top-vertices": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": 1}))), "top level must hold a single vertex",
    ),
    "truncation-before-two-top-vertices": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": 1})), truncation_level=0),
        "truncation_level disagrees with the top level",
    ),
    "orphan": (_example_root_dict(edges=_edges_with(without=[(3, 5)])), "vertex 3 has no upward neighbor"),
    "first-orphan-by-id": (
        _example_root_dict(edges=_edges_with(without=[(5, 6), (1, 4)])), "vertex 1 has no upward neighbor",
    ),
    "orphans-listed-out-of-order": (
        _example_root_dict(
            vertices=list(reversed(_vertices_with())), edges=_edges_with(without=[(4, 6), (2, 4)]),
        ),
        "vertex 2 has no upward neighbor",
    ),
    "two-top-vertices-before-orphan": (
        _example_root_dict(vertices=_vertices_with((8, {"id": 8, "chi": 1})), edges=_edges_with(without=[(0, 4)])),
        "top level must hold a single vertex",
    ),
    "orphan-with-ids-not-from-zero": (
        {
            "vertices": [{"id": 10, "chi": -1}, {"id": 12, "chi": -1}, {"id": 11, "chi": 0}],
            "edges": [[10, 11]],
            "truncation_level": 0,
        },
        "vertex 12 has no upward neighbor",
    ),
    "level-jump-with-ids-not-from-zero": (
        {
            "vertices": [{"id": 5, "chi": -1}, {"id": 3, "chi": 0}, {"id": -2, "chi": 1}],
            "edges": [[5, 3], [5, -2]],
            "truncation_level": 1,
        },
        "edge (5, -2) does not span consecutive levels",
    ),
}


@pytest.mark.parametrize("name", sorted(ROOT_READER_MESSAGES))
def test_root_reader_messages(name):
    d, message = ROOT_READER_MESSAGES[name]
    with pytest.raises(InputError) as raised:
        formats.root_from_dict(json.loads(json.dumps(d)))
    assert str(raised.value) == message


def test_module_round_trip_prefers_weight_fields():
    M = TowerModule(-5, ((-5, -4), (-4, -4), (0, 0)))
    d = json.loads(formats.to_json(formats.module_to_dict(M)))
    assert d["base"] == -10 and d["base_weight"] == -5
    assert formats.module_from_dict(d) == M
    # doubled-only spelling
    halved = {"base": d["base"], "towers": d["towers"]}
    assert formats.module_from_dict(halved) == M
    with pytest.raises(InputError):
        formats.module_from_dict({"base": -3, "towers": []})  # odd degree
    with pytest.raises(InputError):
        formats.module_from_dict({"base_weight": 0, "towers_weight": [[-1, 0]]})


def test_curve_round_trip():
    P = curve(
        [
            [[(1, 1), (3, 5)], []],
            [[], [(1, 1)]],
        ]
    )
    doc = (
        '{"branches": [{"coords": [[{"c": [1, 1], "e": 1}, {"c": [3, 1], "e": 5}], []]},'
        ' {"coords": [[], [{"c": [1, 1], "e": 1}]]}]}'
    )
    assert formats.curve_from_dict(json.loads(doc)) == P


def test_curve_fraction_coefficients():
    d = {
        "branches": [
            {"coords": [[{"c": [3, 2], "e": 2}], [{"c": 5, "e": 3}]]},
        ]
    }
    P = formats.curve_from_dict(d)
    from fractions import Fraction

    assert P.branches[0][0] == ((Fraction(3, 2), 2),)
    assert P.branches[0][1] == ((Fraction(5), 3),)
    back = '{"branches": [{"coords": [[{"c": [3, 2], "e": 2}], [{"c": [5, 1], "e": 3}]]}]}'
    assert formats.curve_from_dict(json.loads(back)) == P


def test_curve_dict_errors():
    with pytest.raises(InputError):
        formats.curve_from_dict({"branches": []})
    with pytest.raises(InputError):
        formats.curve_from_dict({"branches": [{"coords": [[{"c": [1, 0], "e": 2}]]}]})
    with pytest.raises(InputError):
        formats.curve_from_dict({"branches": [{"coords": [[{"e": 2}]]}]})
    with pytest.raises(InputError):
        formats.curve_from_dict({"branches": [{"coords": [[{"c": "x", "e": 2}]]}]})


# Leaves and containers of every kind the canonical writer takes; the
# standard library's encoder is its oracle.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.text()
    | st.sampled_from(['"', "\\", "\n", 'a"b\\c\nd\t', "\x00\x1f", "é ü", "日本語", "\u2028", "\ud800", "😀"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=6) | st.dictionaries(st.text(), kids, max_size=6),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_the_stdlib_encoder(x):
    assert formats.to_json(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


# Subclasses of the writer's types, which it rejects
class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


_RECORD_KEYS = st.text(max_size=4) | st.sampled_from(
    ["%", "%d", "%%s", '"', 'a"%b', "\\", "é", "日本", "😀", "\ud800"]
)
_RECORD_INTS = st.integers() | st.integers(min_value=-(2**100), max_value=2**100)
_NOT_RECORD_INTS = (
    st.booleans()
    | st.text(max_size=3)
    | st.none()
    | st.lists(st.integers(), max_size=2)
)


@st.composite
def _near_miss(draw, item):
    """item with one change that takes its list off the record template."""
    item = item.copy()
    keys = list(item) if isinstance(item, dict) else list(range(len(item)))
    kind = draw(st.sampled_from(["value", "missing", "extra", "empty", "nested"]))
    if kind == "value":
        item[draw(st.sampled_from(keys))] = draw(_NOT_RECORD_INTS)
    elif kind == "missing":
        item.pop(draw(st.sampled_from(keys)))
    elif kind == "extra" and isinstance(item, dict):
        item[draw(st.text(max_size=3).filter(lambda k: k not in item))] = draw(_RECORD_INTS)
    elif kind == "extra":
        item.append(draw(_RECORD_INTS))
    elif kind == "empty":
        item = type(item)()
    else:
        item = [item]
    return item


@st.composite
def _integer_records(draw):
    """A list of dicts sharing str keys, or of int lists of one length, all
    values exact ints; sometimes one item is a near miss."""
    if draw(st.booleans()):
        keys = draw(st.lists(_RECORD_KEYS, min_size=1, max_size=4, unique=True))
        record = st.fixed_dictionaries({k: _RECORD_INTS for k in keys})
    else:
        n = draw(st.integers(min_value=1, max_value=4))
        record = st.lists(_RECORD_INTS, min_size=n, max_size=n)
    items = draw(st.lists(record, min_size=1, max_size=8))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(items) - 1))
        items[i] = draw(_near_miss(items[i]))
    return items


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _integer_records(),
        _integer_records().map(lambda r: {"records": r, "n": len(r)}),
        _integer_records().map(lambda r: [[r], r]),
    )
)
def test_json_writer_matches_the_stdlib_encoder_on_integer_records(x):
    assert formats.to_json(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


def _writable(x) -> bool:
    """Whether x holds only exact ints, bools, None, strs, lists and
    str-keyed dicts, the values the canonical writer takes."""
    if type(x) is list:
        return all(map(_writable, x))
    if type(x) is dict:
        return all(type(k) is str and _writable(v) for k, v in x.items())
    return type(x) in (int, bool, str, type(None))


@pytest.mark.parametrize(
    "records,template",
    [
        ([{"id": 0, "chi": -1, "degree": -2}, {"id": 1, "chi": 2, "degree": 4}], False),  # dicts
        ([[0, 1], [1, 2], [2, -3]], True),
        ([{"%d": 1, 'a"%%s': 2, "é": 3}, {"%d": 4, 'a"%%s': 5, "é": 6}], False),  # dicts
        ([[10**40]], True),
        ([{"a": 1}, {"a": True}], False),  # bool
        ([[1, 2], [1.5, 2]], False),  # float, rejected
        ([{"a": 1}, {"a": "1"}], False),  # str
        ([[1], [_Int(2)]], False),  # int subclass, rejected
        ([{"a": 1}, {"a": None}], False),  # null
        ([{"a": 1, "b": 2}, {"a": 1}], False),  # missing key
        ([{"a": 1, "b": 2}, {"a": 1, "c": 2}], False),  # a key swapped for another
        ([{"a": 1}, {"a": 1, "b": 2}], False),  # extra key
        ([[1, 2], [1]], False),  # shorter list
        ([[1], []], False),  # empty item
        ([{}, {}], False),  # empty dicts
        ([[], []], False),  # empty lists
        ([(1, 2), (3, 4)], False),  # tuples, rejected
        ([[1, 2], (3, 4)], False),  # a tuple among lists, rejected
        ([[1, [2]], [3, [4]]], False),  # nested lists
        ([{1: 2}, {1: 3}], False),  # non-str key, rejected
        ([{"a": 1}, [1]], False),  # a dict and a list
    ],
)
def test_json_writer_record_template_and_its_near_misses(records, template):
    assert (formats._records(records, "\n  ") is not None) == template
    for x in (records, {"r": records}):
        if _writable(x):
            assert formats.to_json(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"
        else:
            with pytest.raises(TypeError):
                formats.to_json(x)


def test_json_writer_rejects_values_reports_never_hold():
    # json.dumps writes all but the last two; latcoh's reports hold none of them
    bad_values = [
        1.5,
        float("nan"),
        (1, 2),
        _Int(3),
        _Str("a"),
        OrderedDict(a=1),
        _List([1]),
        {1: 2},
        {"a": 1, 2: 3},
        object(),
        {1, 2},
    ]
    for bad in bad_values:
        assert not _writable(bad)
        for x in (bad, [0, bad], {"a": bad}):
            with pytest.raises(TypeError):
                formats.to_json(x)


def test_json_writer_is_canonical():
    d = {"b": 1, "a": [3, 2]}
    text = formats.to_json(d)
    assert text == formats.to_json(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# ---------------------------------------------------------------------------
# weight tables

def test_weight_tsv_one_branch():
    W = weight_sequence(from_generators([2, 3]))
    text = formats.weights_tsv(W)
    lines = text.strip().split("\n")
    assert lines[0] == "position\tmember\tw0"
    assert lines[1:] == ["0\t1\t0", "1\t0\t1", "2\t1\t0"]


def test_weight_tsv_grid_one_branch_matches_sequence():
    W = hilbert_from_parametrization(monomial_branch([2, 3]))
    assert formats.weights_tsv(W) == formats.weights_tsv(weight_sequence(from_generators([2, 3])))


def test_weight_tsv_two_branch_orientation():
    # the second curve has conductor (3, 9), so a transposed table shows
    for P in (curve([[[(1, 1)], []], [[], [(1, 1)]]]), pair_family(2)[1]):
        W = hilbert_from_parametrization(P)
        text = formats.weights_tsv(W)
        lines = [l.split("\t") for l in text.strip().split("\n")]
        assert lines[0][0] == "l2\\l1"
        cols = [int(x) for x in lines[0][1:]]
        assert cols == list(range(W.box[0] + 1))
        # rows descend in the second coordinate; entries match the grid
        w0 = by_point(W, W.w0)
        for row in lines[1:]:
            l2 = int(row[0])
            for l1, cell in zip(cols, row[1:]):
                assert int(cell) == w0[(l1, l2)]
        assert [int(r[0]) for r in lines[1:]] == list(range(W.box[1], -1, -1))


def test_weight_tsv_three_branch_long_format():
    axes3 = [
        [[(1, 1)], [], []],
        [[], [(1, 1)], []],
        [[], [], [(1, 1)]],
    ]
    W = hilbert_from_parametrization(curve(axes3))
    lines = formats.weights_tsv(W).strip().split("\n")
    assert lines[0] == "l1\tl2\tl3\tw0"
    assert len(lines) - 1 == len(W.w0)
    parsed = {}
    for row in lines[1:]:
        *point, value = (int(x) for x in row.split("\t"))
        parsed[tuple(point)] = value
    assert parsed == by_point(W, W.w0)


# ---------------------------------------------------------------------------
# root renderings

def test_root_ascii_layout():
    R, _ = example_root_pair()
    text = formats.root_ascii(R)
    lines = text.strip().split("\n")
    assert lines[0].startswith("chi") and lines[0].endswith("7")
    assert lines[-1].startswith("edges:")
    # levels descending, one row per level
    assert len(lines) == len(R.levels()) + 1
    assert "0 1 2 3" in lines[3]


def test_root_dot_is_valid_enough():
    R, _ = example_root_pair()
    dot = formats.root_dot(R)
    assert dot.startswith("graph ")
    assert dot.count("rank=same") == len(R.levels())
    for n in {c for _v, c in R.vertices}:
        ids = sorted(v for v, c in R.vertices if c == n)
        assert "  { rank=same; %s; }\n" % "; ".join("n%d" % v for v in ids) in dot, n
    for a, b in R.edges:
        assert "n%d -- n%d;" % (a, b) in dot
    assert dot.rstrip().endswith("}")


# ---------------------------------------------------------------------------
# command line

def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_semigroup_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        ["semigroup", "--gens", "6,10,31", "--out", str(out)], capsys
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["E"] == [0, 6, 10, 12, 16, 18, 20, 22]
    assert report["e"] == -8
    assert report["delta"] == 23
    assert report["conductor"] == 46
    assert report["plane_branch"] is True
    assert report["smooth"] is False
    assert report["gcd_chain"]["l"] == [6, 2, 1]
    assert out.read_text() == stdout


def test_cli_semigroup_smooth(capsys):
    code, stdout, _ = run_cli(["semigroup", "--gens", "1"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["smooth"] is True
    assert report["E"] == [0]


def test_cli_semigroup_artifacts(tmp_path, capsys):
    root_dot = tmp_path / "root.dot"
    root_txt = tmp_path / "root.txt"
    root_json = tmp_path / "root.json"
    weights = tmp_path / "w.tsv"
    module = tmp_path / "m.json"
    for root_file in (root_dot, root_txt, root_json):
        code, _, _ = run_cli(
            [
                "semigroup", "--gens", "4,11",
                "--root", str(root_file),
                "--weights", str(weights),
                "--module", str(module),
            ],
            capsys,
        )
        assert code == 0
    assert root_dot.read_text().startswith("graph ")
    assert root_txt.read_text().startswith("chi ")
    S = from_generators([4, 11])
    R = root_from_weight(weight_sequence(S))
    assert formats.read_root_file(str(root_json)) == R
    assert formats.read_module_file(str(module)) == module_from_root(R)
    lines = weights.read_text().strip().split("\n")
    assert lines[0] == "position\tmember\tw0"
    assert len(lines) == S.conductor + 2


def test_cli_semigroup_builds_a_root_only_for_root_output(tmp_path, monkeypatch, capsys):
    # the report's truncation level is read off the walk, not off a root
    real = latcoh.cli.root_from_weight
    calls = []

    def counting(W):
        calls.append(W)
        return real(W)

    monkeypatch.setattr(latcoh.cli, "root_from_weight", counting)
    code, stdout, _ = run_cli(["semigroup", "--gens", "6,10,31"], capsys)
    assert (code, calls) == (0, [])
    assert stdout == (DATA / "semigroup_6_10_31.json").read_text()
    root = tmp_path / "root.json"
    code, with_root, _ = run_cli(["semigroup", "--gens", "6,10,31", "--root", str(root)], capsys)
    assert (code, with_root, len(calls)) == (0, stdout, 1)
    assert root.read_text() == (DATA / "root_6_10_31.json").read_text()


def test_cli_semigroup_members_input(tmp_path, capsys):
    f = tmp_path / "sprime.json"
    f.write_text(
        json.dumps(
            {
                "members_below": SPRIME_MEMBERS,
                "conductor": SPRIME_CONDUCTOR,
                "verify_closed": False,
            }
        )
    )
    code, stdout, _ = run_cli(["semigroup", "--in", str(f)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["generators"] is None
    assert report["plane_branch"] is False
    assert report["E"] == [0, 4]
    assert report["e"] == -3
    assert report["delta"] == 15


def test_cli_semigroup_members_input_not_closed(tmp_path, capsys):
    # 1 + 1 = 2 is a gap: the set is no semigroup, and the report says why it
    # has no initial part
    f = tmp_path / "open.json"
    f.write_text(json.dumps({"members_below": [0, 1, 5, 7, 8, 10], "conductor": 12, "verify_closed": False}))
    code, stdout, _ = run_cli(["semigroup", "--in", str(f)], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["E"] is None
    assert report["generators"] is None
    assert report["gcd_chain"] is None
    assert report["notes"] == ["initial part undefined: inconsistent module: positive initial level"]


@pytest.mark.parametrize(
    "args",
    [["--gens", "10007,10009"], ["--in", "members.json"]],
    ids=["generators", "members"],
)
def test_cli_semigroup_above_the_conductor_ceiling_is_malformed_input(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "members.json").write_text(json.dumps({"members_below": [0], "conductor": 10**8}))
    code, stdout, stderr = run_cli(["semigroup"] + args, capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: conductor 10") and stderr.endswith(" is above the ceiling of 2000000\n")


def test_cli_reconstruct_round_trip(tmp_path, capsys):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    code, _, _ = run_cli(
        ["semigroup", "--gens", "6,15,31", "--module", str(m)], capsys
    )
    assert code == 0
    code, stdout, _ = run_cli(
        ["reconstruct", "--module", str(m), "--out", str(s)], capsys
    )
    assert code == 0
    assert "generators: 6, 15, 31" in stdout
    assert "e: -12" in stdout
    assert formats.read_semigroup_file(str(s)) == from_generators([6, 15, 31])


def test_cli_reconstruct_reads_the_initial_part_once(monkeypatch, capsys):
    real = latcoh.reconstruct.initial_part
    calls = []

    def counting(M):
        calls.append(M)
        return real(M)

    for module in (latcoh.reconstruct, latcoh.cli):
        monkeypatch.setattr(module, "initial_part", counting)
    code, stdout, _ = run_cli(["reconstruct", "--module", str(DATA / "module_6_10_31.json")], capsys)
    assert code == 0
    assert stdout == (DATA / "reconstruct_6_10_31.txt").read_text()
    assert len(calls) == 1


def test_cli_semigroup_members_input_of_a_large_semigroup(tmp_path, capsys):
    # <163, 173> has c = 27,864: closure is checked on the Apery set of 163,
    # not over every pair of the 13,932 members below c
    S = from_generators([163, 173])
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"members_below": S.members_below_conductor(), "conductor": S.conductor}))
    start = time.monotonic()
    code, stdout, _ = run_cli(["semigroup", "--in", str(f)], capsys)
    assert time.monotonic() - start < 1.0
    assert code == 0
    assert stdout == run_cli(["semigroup", "--gens", "163,173"], capsys)[1]


def test_cli_reconstruct_module_below_the_conductor_ceiling_is_malformed_input(tmp_path, capsys):
    m = tmp_path / "deep.json"
    m.write_text('{"base_weight": -10000000, "towers_weight": []}')
    start = time.monotonic()
    code, stdout, stderr = run_cli(["reconstruct", "--module", str(m)], capsys)
    assert time.monotonic() - start < 0.5
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: module base level -10000000 is below -2000000")
    assert stderr.count("\n") == 1


def test_cli_roundtrip_builds_each_module_once(monkeypatch, capsys):
    # the candidate equal to S implies the closing rebuild, so only S's own
    # module is built: 160 semigroups, serial below the pool's threshold
    real = latcoh.reconstruct.module_from_weight
    calls = []

    def counting(W):
        calls.append(W.source.min_gens)
        return real(W)

    for module in (latcoh.reconstruct, latcoh.cli):
        monkeypatch.setattr(module, "module_from_weight", counting)
    code, stdout, _ = run_cli(["roundtrip", "--max-conductor", "60"], capsys)
    assert (code, stdout) == (0, "tested 160 passed 160\n")
    assert calls == list(latcoh.semigroup.plane_branch_chains(60))


def test_reconstruct_keeps_the_closing_module_check(monkeypatch, capsys):
    M = formats.read_module_file(str(DATA / "module_6_10_31.json"))
    assert latcoh.reconstruct.reconstruct_semigroup(M) == from_generators([6, 10, 31])
    monkeypatch.setattr(latcoh.reconstruct, "module_from_weight", lambda W: TowerModule(0, ()))
    with pytest.raises(ValidationError, match="module mismatch after round trip"):
        latcoh.reconstruct.reconstruct_semigroup(M)
    code, stdout, stderr = run_cli(["reconstruct", "--module", str(DATA / "module_6_10_31.json")], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "violation: validation failed: module mismatch after round trip\n"


def test_cli_reconstruct_rejects_alien_module(tmp_path, capsys):
    m = tmp_path / "bad.json"
    m.write_text(json.dumps({"base_weight": -1, "towers_weight": [[0, 0]]}))
    code, _, stderr = run_cli(["reconstruct", "--module", str(m)], capsys)
    assert code == 1
    assert "violation" in stderr


def test_cli_curve_full_run(tmp_path, capsys):
    c = tmp_path / "curve.json"
    c.write_text(
        json.dumps(
            {
                "branches": [
                    {"coords": [[{"c": [1, 1], "e": 6}], [{"c": [1, 1], "e": 15}, {"c": [1, 1], "e": 16}]]},
                ]
            }
        )
    )
    weights = tmp_path / "w.tsv"
    coh = tmp_path / "h.json"
    code, stdout, _ = run_cli(
        ["curve", "--in", str(c), "--weights", str(weights), "--cohomology", str(coh)],
        capsys,
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["generators"] == [6, 15, 31]
    assert report["conductor"] == [72]
    assert report["delta"] == 36
    assert report["min_w0"] == -14
    assert report["euler"]["equal"] is True
    section = json.loads(coh.read_text())
    assert section["module"] == report["module"]
    assert formats.module_from_dict(section["module"]) == module_from_root(
        root_from_weight(weight_sequence(from_generators([6, 15, 31])))
    )


SIX_COORD_IN = DATA / "curve_six_coord_in.json"  # fixtures.CURVE_SIX_COORD
THREE_BRANCH = random_space_curves(ORACLE_SEED, 20)[19]
THREE_BRANCH_IN = DATA / "curve_three_branch_in.json"  # THREE_BRANCH
TWO_BRANCH_H1_IN = DATA / "curve_two_branch_h1_in.json"
PAIR_6_IN = DATA / "curve_pair_6_in.json"  # fixtures.pair_family(6)[0]
FOUR_BRANCH_IN = DATA / "curve_four_branch_in.json"  # fixtures.FOUR_BRANCH


def test_three_branch_input_file_holds_the_fixture_terms():
    # the installed console script is diffed on this file, the tests on THREE_BRANCH
    coords = [[[{"c": k, "e": e} for k, e in coord] for coord in br] for br in THREE_BRANCH]
    assert json.loads(THREE_BRANCH_IN.read_text()) == {"branches": [{"coords": cs} for cs in coords]}


def test_four_branch_input_file_holds_the_fixture_terms():
    coords = [[[{"c": k, "e": e} for k, e in coord] for coord in br] for br in FOUR_BRANCH]
    assert json.loads(FOUR_BRANCH_IN.read_text()) == {"branches": [{"coords": cs} for cs in coords]}


def _curve_file(source, tmp_path):
    """A stored curve file as it is, or branch terms written to a new one."""
    if isinstance(source, Path):
        return source
    c = tmp_path / "curve.json"
    coords = [[[{"c": k, "e": e} for k, e in coord] for coord in br] for br in source]
    c.write_text(json.dumps({"branches": [{"coords": cs} for cs in coords]}))
    return c


@pytest.mark.parametrize(
    "source,extra,expected",
    [
        # two branches, 36 box points, 100 cubes and no degree-1 tower
        (SIX_COORD_IN, [], "curve_six_coord.json"),
        (SIX_COORD_IN, ["--bound", "16"], "curve_six_coord.json"),
        (SIX_COORD_IN, ["--conductor", "4,4"], "curve_six_coord.json"),
        # three branches, conductor (8, 12, 6), with degree-1 towers
        (THREE_BRANCH, [], "curve_three_branch.json"),
        (THREE_BRANCH, ["--bound", "40"], "curve_three_branch.json"),
        (THREE_BRANCH, ["--conductor", "8,12,6"], "curve_three_branch.json"),
        # two branches with degree-1 towers, read off the dual sweep
        (TWO_BRANCH_H1_IN, [], "curve_two_branch_h1.json"),
        # pair_family(6), first member, as the grid-pair benchmark writes it:
        # 4624 box points and 104 root vertices
        (PAIR_6_IN, [], "curve_pair_6.json"),
        # four branches, 16 axis masks, towers in degrees 0, 1 and 2
        (FOUR_BRANCH_IN, [], "curve_four_branch.json"),
    ],
    ids=[
        "two-branch", "two-branch-bound", "two-branch-conductor",
        "three-branch", "three-branch-bound", "three-branch-conductor",
        "two-branch-h1", "pair-6", "four-branch",
    ],
)
def test_cli_curve_report_bytes(source, extra, expected, tmp_path, capsys):
    c = _curve_file(source, tmp_path)
    code, stdout, _ = run_cli(["curve", "--in", str(c)] + extra, capsys)
    assert code == 0
    assert stdout == (DATA / expected).read_text()


_PRIMITIVE = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda xy: gcd(*xy) == 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_PRIMITIVE, _PRIMITIVE, st.booleans())
def test_cli_curve_delta_matches_hironakas_formula(first, second, swap):
    # two monomial plane branches, the second one tangent to the other axis
    # when swapped: delta and the graded Euler characteristic of the report
    # both equal a closed formula that shares nothing with the library
    second = second[::-1] if swap else second
    assume(first[0] * second[1] != first[1] * second[0])
    coords = [[[{"c": 1, "e": x}], [{"c": 1, "e": y}]] for x, y in (first, second)]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        path.write_text(json.dumps({"branches": [{"coords": cs} for cs in coords]}))
        with contextlib.redirect_stdout(out):
            assert main(["curve", "--in", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert report["delta"] == report["euler"]["euler"] == hironaka_delta(first, second)


def _cli(argv) -> str:
    """stdout of one latcoh command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


@st.composite
def _puiseux_branches(draw):
    """n and {k: a_k} of a plane branch (t^n, sum a_k t^k): up to three
    exponents k in (n, 3n), gcd(n, k...) = 1.  One is a multiple of a
    divisor d of n drawn first, so that branches with one, two and three
    characteristic exponents all occur."""
    n = draw(st.sampled_from([4, 6, 8, 9]))
    d = draw(st.sampled_from([d for d in range(1, n) if n % d == 0]))
    first = d * draw(st.integers(n // d + 1, (3 * n - 1) // d))
    exponents = {first, *draw(st.lists(st.integers(n + 1, 3 * n - 1), max_size=2))}
    assume(gcd(n, *exponents) == 1)
    coeffs = st.integers(-3, 3).filter(bool)
    return n, {k: draw(coeffs) for k in sorted(exponents)}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_puiseux_branches())
@example((8, {12: 1, 14: -1, 15: 2}))  # three characteristic exponents: <8, 12, 26, 53>
def test_cli_curve_semigroup_and_reconstruction_agree_with_zariski(branch):
    # The paper's theorem on one branch: the curve route (parametrization,
    # Hilbert grid, lattice cohomology), the semigroup route on Zariski's
    # generators and the reconstruction from the curve's module give the
    # same semigroup, module and graded root.
    n, terms = branch
    gens = zariski_generators(n, terms)
    coords = [[{"c": 1, "e": n}], [{"c": a, "e": k} for k, a in terms.items()]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "curve.json").write_text(json.dumps({"branches": [{"coords": coords}]}))
        curve_report = json.loads(
            _cli(["curve", "--in", str(tmp / "curve.json"), "--root", str(tmp / "curve_root.json")])
        )
        (tmp / "module.json").write_text(json.dumps(curve_report["module"]))
        rebuilt = _cli(["reconstruct", "--module", str(tmp / "module.json")])
        semigroup_report = json.loads(
            _cli(["semigroup", "--gens", ",".join(map(str, gens)), "--root", str(tmp / "root.json")])
        )
        verdict = _cli(["root-iso", str(tmp / "curve_root.json"), str(tmp / "root.json")])
    assert curve_report["generators"] == semigroup_report["generators"] == gens
    assert rebuilt.startswith("generators: %s\n" % ", ".join(map(str, gens)))
    assert json.loads(rebuilt[rebuilt.index("{"):])["generators"] == gens
    assert curve_report["conductor"] == [semigroup_report["conductor"]]
    assert curve_report["delta"] == semigroup_report["delta"]
    assert curve_report["min_w0"] == semigroup_report["min_w0"]
    assert curve_report["module"] == semigroup_report["module"]
    assert verdict == "isomorphic\n"


@pytest.mark.parametrize(
    "source,expected",
    [
        (SIX_COORD_IN, "curve_six_coord_weights.tsv"),  # r = 2: the matrix table
        (THREE_BRANCH_IN, "curve_three_branch_weights.tsv"),  # r = 3: the long table
    ],
    ids=["two-branch", "three-branch"],
)
def test_weight_tables_match_the_stored_tables(source, expected):
    # the stored tables were written by `latcoh curve --weights`; CI diffs them too
    W = hilbert_from_parametrization(formats.read_curve_file(str(source)))
    assert formats.weights_tsv(W) == (DATA / expected).read_text()


@pytest.mark.parametrize(
    "source,extra,message",
    [
        (SIX_COORD_IN, ["--bound", "5"], "truncation not stabilized"),
        (SIX_COORD_IN, ["--conductor", "5,4"], "conductor not minimal on branch 0"),
        (
            THREE_BRANCH,
            ["--conductor", "8,11,6"],
            "conductor not confirmed within the truncation window on branch 1",
        ),
    ],
    ids=["short-window", "hint-too-high", "hint-too-low"],
)
def test_cli_curve_wrong_window(source, extra, message, tmp_path, capsys):
    c = _curve_file(source, tmp_path)
    code, stdout, stderr = run_cli(["curve", "--in", str(c)] + extra, capsys)
    assert code == 1
    assert not stdout
    assert stderr == "violation: %s\n" % message


@pytest.mark.parametrize(
    "argv,out_flag,expected",
    [
        (["semigroup", "--gens", "6,10,31"], None, "semigroup_6_10_31.json"),
        (["semigroup", "--gens", "6,10,31"], "--root", "root_6_10_31.json"),
        # module_6_10_31.json is the --module file of the semigroup run above
        (["reconstruct", "--module", str(DATA / "module_6_10_31.json")], None, "reconstruct_6_10_31.txt"),
        (["roundtrip", "--max-conductor", "30"], "--out", "roundtrip_30.json"),
        (["conjecture-sweep", "--max-conductor", "30"], "--out", "conjecture_sweep_30.json"),
    ],
    ids=["semigroup", "semigroup-root", "reconstruct", "roundtrip", "conjecture-sweep"],
)
def test_cli_report_bytes(argv, out_flag, expected, tmp_path, capsys):
    # stdout, or the file named by out_flag, byte for byte as stored in tests/data
    out = tmp_path / "out.json"
    if out_flag:
        argv = argv + [out_flag, str(out)]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert (out.read_text() if out_flag else stdout) == (DATA / expected).read_text()


_UNWRITABLE = (
    [(["semigroup", "--gens", "2,3"], f) for f in ("--out", "--root", "--weights", "--module")]
    + [
        (["curve", "--in", str(SIX_COORD_IN)], f)
        for f in ("--out", "--root", "--weights", "--cohomology")
    ]
    + [
        (["roundtrip", "--max-conductor", "0"], "--out"),
        (["conjecture-sweep", "--max-conductor", "0"], "--out"),
        (["reconstruct", "--module", str(DATA / "module_6_10_31.json")], "--out"),
    ]
)


@pytest.mark.parametrize(
    "argv,flag", _UNWRITABLE, ids=["%s-%s" % (a[0], f[2:]) for a, f in _UNWRITABLE]
)
def test_cli_unwritable_artifact_is_malformed_input(argv, flag, tmp_path, capsys):
    # a path below a regular file cannot be created, not even by root
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = str(blocker / "x.json")
    code, stdout, stderr = run_cli(argv + [flag, target], capsys)
    assert code == 2
    assert stderr == "error: %s: Not a directory\n" % target
    assert stdout == ""  # every file is written before the report is printed


@pytest.mark.parametrize("window", [["--bound", "1" + "0" * 20], ["--conductor", "1" + "0" * 20 + ",4"]])
def test_cli_curve_window_above_the_ceiling_is_malformed_input(window, capsys):
    code, stdout, stderr = run_cli(["curve", "--in", str(SIX_COORD_IN)] + window, capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: truncation window of ") and stderr.count("\n") == 1


def test_cli_curve_conductor_flag_mismatch(tmp_path, capsys):
    c = tmp_path / "curve.json"
    c.write_text(
        json.dumps({"branches": [{"coords": [[{"c": [1, 1], "e": 2}], [{"c": [1, 1], "e": 3}]]}]})
    )
    code, _, stderr = run_cli(["curve", "--in", str(c), "--conductor", "2,2"], capsys)
    assert code == 2
    assert "--conductor" in stderr


def test_cli_curve_rejects_a_repeated_branch(tmp_path, capsys):
    # (t^2, t^3) twice is not a reduced germ: malformed input, exit 2 at once
    # (it used to grow the window for about 2 s and exit 1)
    c = tmp_path / "twice.json"
    cusp = {"coords": [[{"c": 1, "e": 2}], [{"c": 1, "e": 3}]]}
    c.write_text(json.dumps({"branches": [cusp, cusp]}))
    start = time.monotonic()
    code, stdout, stderr = run_cli(["curve", "--in", str(c)], capsys)
    assert code == 2
    assert "same branch" in stderr and not stdout
    assert time.monotonic() - start < 0.5


def test_cli_curve_rejects_a_branch_repeated_under_t_to_2t(tmp_path, capsys):
    # (t^2, t^3) and (4t^2, 8t^3): exit 2 at once (it used to run the window
    # loop out for about 1.1 s and exit 1)
    c = tmp_path / "rescaled.json"
    cusp = {"coords": [[{"c": 1, "e": 2}], [{"c": 1, "e": 3}]]}
    rescaled = {"coords": [[{"c": 4, "e": 2}], [{"c": 8, "e": 3}]]}
    c.write_text(json.dumps({"branches": [cusp, rescaled]}))
    start = time.monotonic()
    code, stdout, stderr = run_cli(["curve", "--in", str(c)], capsys)
    assert time.monotonic() - start < 0.5
    assert (code, stdout) == (2, "")
    assert stderr == "error: branches 0 and 1 are the same branch (up to t -> 2*t)\n"


@pytest.mark.parametrize(
    "branches, message",
    [
        (
            [
                {"coords": [[{"c": 2, "e": 5}, {"c": [-1, 1], "e": 7}], []]},
                {"coords": [[{"c": 1, "e": 5}, {"c": [3, 2], "e": 6}], []]},
            ],
            "branch 0 covers the coordinate-0 axis 5 times",
        ),
        (
            [
                {"coords": [[{"c": 1, "e": 1}], []]},
                {"coords": [[{"c": 1, "e": 1}, {"c": 1, "e": 2}], []]},
            ],
            "branches 0 and 1 are the same branch (the coordinate-0 axis)",
        ),
    ],
)
def test_cli_curve_rejects_a_branch_on_a_coordinate_axis(branches, message, tmp_path, capsys):
    # (2t^5 - t^7, 0) covers the x-axis five times, and (t, 0) with
    # (t + t^2, 0) is one line twice: exit 2 at once (they used to run the
    # window loop out for about 16 s and 2 s)
    c = tmp_path / "axis.json"
    c.write_text(json.dumps({"branches": branches}))
    start = time.monotonic()
    code, stdout, stderr = run_cli(["curve", "--in", str(c)], capsys)
    assert time.monotonic() - start < 0.5
    assert (code, stdout) == (2, "")
    assert stderr == "error: %s\n" % message


def test_cli_curve_automatic_window_giving_up_is_malformed_input(tmp_path, capsys):
    # (t^2, t^4) covers a branch twice and (t^2, t^1000000001) has conductor
    # 10^9: the automatic loop runs out of rounds, which is no property
    # violation, so it exits 2 (it used to exit 1).  (t^2, t^2001) has
    # conductor 2000, past the loop's last window but within a pinned one
    c = tmp_path / "curve.json"
    for e in (4, 1000000001, 2001):
        c.write_text(json.dumps({"branches": [{"coords": [[{"c": 1, "e": 2}], [{"c": 1, "e": e}]]}]}))
        code, stdout, stderr = run_cli(["curve", "--in", str(c)], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: no conductor certified up to the truncation window [1065]: ")
        assert stderr.count("\n") == 1
    code, stdout, _ = run_cli(["curve", "--in", str(c), "--bound", "2010"], capsys)
    report = json.loads(stdout)
    assert (code, report["conductor"], report["generators"]) == (0, [2000], [2, 2001])


def test_cli_curve_bad_file(tmp_path, capsys):
    c = tmp_path / "broken.json"
    c.write_text('{"branches": [')
    code, _, stderr = run_cli(["curve", "--in", str(c)], capsys)
    assert code == 2
    assert "line" in stderr


_UNREADABLE = {
    "utf16-bom": (b"\xff\xfe{\x00}\x00", "not UTF-8 text: invalid start byte at byte 0"),
    "deep-nesting": (b"[" * 100_000, "JSON nested too deeply"),
}


@pytest.mark.parametrize("content", sorted(_UNREADABLE))
@pytest.mark.parametrize(
    "command", [["semigroup", "--in"], ["reconstruct", "--module"], ["curve", "--in"], ["root-iso"]]
)
def test_cli_unreadable_json_is_malformed_input(command, content, tmp_path, capsys):
    data, message = _UNREADABLE[content]
    f = tmp_path / "in.json"
    f.write_bytes(data)
    argv = command + [str(f)] * (2 if command == ["root-iso"] else 1)
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: %s: %s\n" % (f, message)


_HUGE = "1" + "0" * 4999  # above the 4300 digits that int() parses by default
_HUGE_INTEGER_FILES = {
    "reconstruct": (["reconstruct", "--module"], '{"base_weight": %s, "towers_weight": []}' % _HUGE),
    "root-iso": (["root-iso"], '{"vertices": [{"id": 0, "chi": %s}], "edges": []}' % _HUGE),
    "curve": (["curve", "--in"], '{"branches": [{"coords": [[{"c": 1, "e": %s}]]}]}' % _HUGE[:4400]),
    "semigroup": (["semigroup", "--in"], '{"members_below": [0], "conductor": %s}' % _HUGE),
}


@pytest.mark.parametrize("reader", sorted(_HUGE_INTEGER_FILES))
def test_cli_integer_above_the_digit_limit_is_malformed_input(reader, tmp_path, capsys):
    # json.load raises a plain ValueError here, not a JSONDecodeError
    command, document = _HUGE_INTEGER_FILES[reader]
    f = tmp_path / "huge.json"
    f.write_text(document)
    argv = command + [str(f)] * (2 if reader == "root-iso" else 1)
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: %s: Exceeds the limit (4300 digits)" % f), stderr
    assert stderr.count("\n") == 1


def test_cli_root_iso(tmp_path, capsys):
    R1, R2 = example_root_pair()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(formats.to_json(R1))
    b.write_text(formats.to_json(R2))
    code, stdout, _ = run_cli(["root-iso", str(a), str(b)], capsys)
    assert code == 3
    assert stdout.strip() == "not isomorphic"
    code, stdout, _ = run_cli(["root-iso", str(a), str(a)], capsys)
    assert code == 0
    assert stdout.strip() == "isomorphic"
    code, _, _ = run_cli(["root-iso", str(a), str(tmp_path / "missing.json")], capsys)
    assert code == 2


def test_cli_root_iso_rejects_a_vertex_with_two_parents(tmp_path, capsys):
    # malformed input (exit 2), not a property violation (exit 1)
    bad = tmp_path / "bad.json"
    bad.write_text(
        formats.to_json(
            {
                "vertices": [{"id": 0, "chi": 0}, {"id": 1, "chi": 1}, {"id": 2, "chi": 1}, {"id": 3, "chi": 2}],
                "edges": [[0, 1], [0, 2], [1, 3], [2, 3]],
                "truncation_level": 2,
            }
        )
    )
    code, stdout, stderr = run_cli(["root-iso", str(bad), str(bad)], capsys)
    assert code == 2
    assert stdout == ""
    assert "two upward neighbors" in stderr


_V0 = {"id": 0, "chi": 0}
_V1 = {"id": 1, "chi": 1}


def _root(vertices=(_V0, _V1), **fields):
    d = {"vertices": list(vertices), "edges": [[0, 1]], "truncation_level": 1}
    d.update(fields)
    return d


# {f} stands for the file's path.  The readers take well-formed entries in
# one pass, so each message and the order of the checks are pinned here.
MALFORMED_ROOTS = {
    "not-an-object": ([_root()], "{f}: expected an object, got list"),
    "no-vertices": ({"edges": [], "truncation_level": 0}, "{f}: missing field 'vertices'"),
    "empty-vertices": (_root(vertices=[]), "{f}.vertices: expected a non-empty list"),
    "vertices-not-a-list": (_root(vertices={}), "{f}.vertices: expected a non-empty list"),
    "vertex-not-an-object": (_root(vertices=[_V0, [1, 1]]), "{f}.vertices[1]: expected an object, got list"),
    "vertex-without-id": (_root(vertices=[_V0, {"chi": 1}]), "{f}.vertices[1]: missing field 'id'"),
    "bool-id": (_root(vertices=[{"id": False, "chi": 0}, _V1]), "{f}.vertices[0].id: expected an integer, got False"),
    "float-id": (_root(vertices=[_V0, {"id": 1.0, "chi": 1}]), "{f}.vertices[1].id: expected an integer, got 1.0"),
    "string-id": (_root(vertices=[_V0, {"id": "1", "chi": 1}]), "{f}.vertices[1].id: expected an integer, got '1'"),
    "bool-chi": (_root(vertices=[_V0, {"id": 1, "chi": True}]), "{f}.vertices[1].chi: expected an integer, got True"),
    "float-chi": (_root(vertices=[_V0, {"id": 1, "chi": 0.5}]), "{f}.vertices[1].chi: expected an integer, got 0.5"),
    "string-chi": (_root(vertices=[{"id": 0, "chi": "0"}, _V1]), "{f}.vertices[0].chi: expected an integer, got '0'"),
    "null-chi": (_root(vertices=[_V0, {"id": 1, "chi": None, "degree": 2}]), "{f}.vertices[1].chi: expected an integer, got None"),
    "odd-degree": (_root(vertices=[_V0, {"id": 1, "degree": 3}]), "{f}.vertices[1].degree: doubled degree 3 is odd"),
    "no-chi-or-degree": (_root(vertices=[_V0, {"id": 1}]), "{f}.vertices[1]: missing field 'degree'"),
    "first-bad-vertex-wins": (
        {"vertices": [_V0, {"id": 1, "chi": "x"}, [2]]},
        "{f}.vertices[1].chi: expected an integer, got 'x'",
    ),
    "no-edges": ({"vertices": [_V0], "truncation_level": 0}, "{f}: missing field 'edges'"),
    "edges-not-a-list": (_root(edges={"0": 1}), "{f}.edges: expected a list"),
    "edge-not-a-list": (_root(edges=[[0, 1], 7]), "{f}.edges[1]: expected a list"),
    "edge-of-three": (_root(edges=[[0, 1, 1]]), "{f}.edges[0]: expected a pair"),
    "edge-of-one": (_root(edges=[[0]]), "{f}.edges[0]: expected a pair"),
    "edge-with-a-string": (_root(edges=[[0, "1"]]), "{f}.edges[0][1]: expected an integer, got '1'"),
    # every entry is checked before the length
    "edge-of-three-with-a-float": (_root(edges=[[0, 1.0, 5]]), "{f}.edges[0][1]: expected an integer, got 1.0"),
    "no-truncation-level": (
        {"vertices": [_V0, _V1], "edges": [[0, 1]]}, "{f}: missing field 'truncation_level'",
    ),
    "bool-truncation-level": (_root(truncation_level=True), "{f}.truncation_level: expected an integer, got True"),
    "wrong-truncation-level": (_root(truncation_level=2), "truncation_level disagrees with the top level"),
}

MALFORMED_MODULES = {
    "not-an-object": ([], "{f}: expected an object"),
    "no-base": ({"towers": []}, "{f}: missing field 'base'"),
    "bool-base-weight": ({"base_weight": True, "towers_weight": []}, "{f}.base_weight: expected an integer, got True"),
    "float-base-weight": ({"base_weight": -1.0, "towers_weight": []}, "{f}.base_weight: expected an integer, got -1.0"),
    "base-weight-without-towers": ({"base_weight": 0, "towers": []}, "{f}: missing field 'towers_weight'"),
    "odd-base": ({"base": -3, "towers": []}, "{f}.base: doubled degree -3 is odd"),
    "string-base": ({"base": "-2", "towers": []}, "{f}.base: expected an integer, got '-2'"),
    "base-without-towers": ({"base": -2, "towers_weight": []}, "{f}: missing field 'towers'"),
    "towers-not-a-list": ({"base_weight": 0, "towers_weight": 5}, "{f}.towers: expected a list"),
    "tower-not-a-list": ({"base_weight": 0, "towers_weight": [[0, 0], 1]}, "{f}.towers[1]: expected a list"),
    "tower-of-one": ({"base_weight": 0, "towers_weight": [[0]]}, "{f}.towers[0]: expected a [start, end] pair"),
    "tower-with-a-bool": ({"base_weight": 0, "towers_weight": [[0, False]]}, "{f}.towers[0][1]: expected an integer, got False"),
    "tower-below-the-base": (
        {"base_weight": 0, "towers_weight": [[0, 0], [-1, 0]]},
        "{f}.towers[1]: tower [-1, 0] is not above the base 0",
    ),
    "tower-ends-below-its-start": (
        {"base_weight": 0, "towers_weight": [[2, 1]]}, "{f}.towers[0]: tower [2, 1] is not above the base 0",
    ),
    "doubled-tower-below-the-base": (
        {"base": 0, "towers": [[-2, 0]]}, "{f}.towers[0]: tower [-1, 0] is not above the base 0",
    ),
    "odd-doubled-tower-start": ({"base": 0, "towers": [[1, 2]]}, "{f}.towers[0]: doubled degree 1 is odd"),
    "odd-doubled-tower-end": ({"base": 0, "towers": [[0, 2], [2, 3]]}, "{f}.towers[1]: doubled degree 3 is odd"),
}


@pytest.mark.parametrize(
    "command,content,message",
    [("root-iso", *case) for case in MALFORMED_ROOTS.values()]
    + [("reconstruct", *case) for case in MALFORMED_MODULES.values()],
    ids=["root-" + k for k in MALFORMED_ROOTS] + ["module-" + k for k in MALFORMED_MODULES],
)
def test_cli_malformed_file_messages(command, content, message, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(content))
    argv = ["root-iso", str(f), str(f)] if command == "root-iso" else ["reconstruct", "--module", str(f)]
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert stderr == "error: %s\n" % message.replace("{f}", str(f))


def test_cli_root_iso_on_a_deep_root(tmp_path, capsys):
    # 961 levels: deeper than the interpreter's recursion limit
    R = root_from_weight(weight_sequence(from_generators([61, 67])))
    assert len(R.levels()) > 900
    r = tmp_path / "r.json"
    r.write_text(formats.to_json(R))
    code, stdout, _ = run_cli(["root-iso", str(r), str(r)], capsys)
    assert code == 0
    assert stdout.strip() == "isomorphic"


def test_cli_roundtrip(capsys):
    code, stdout, _ = run_cli(["roundtrip", "--max-conductor", "0"], capsys)
    assert code == 0
    assert stdout.strip() == "tested 1 passed 1"
    code, stdout, _ = run_cli(["roundtrip", "--max-conductor", "30"], capsys)
    assert code == 0
    assert stdout.strip() == "tested 43 passed 43"


# Past the pool's break-even: 757 semigroups.  Both routes must print and
# write the same bytes; the pooled one runs only where it can fork and more
# than one CPU is usable.
ROUNDTRIP_120 = ["roundtrip", "--max-conductor", "120"]
POOLED = hasattr(os, "fork") and len(
    os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
) > 1


def _spy_pool(monkeypatch) -> list:
    """Patch the process pool to record the worker count of every pool started."""
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            started.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


def _both_routes(argv, tmp_path, capsys, monkeypatch):
    """(exit code, stdout, stderr, --out bytes) with the usable CPUs, then with one."""
    runs = []
    for route in ("pooled", "serial"):
        if route == "serial":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out = tmp_path / ("%s.json" % route)
        code, stdout, stderr = run_cli(argv + ["--out", str(out)], capsys)
        runs.append((code, stdout, stderr, out.read_bytes() if out.exists() else None))
    return runs


def test_cli_roundtrip_routes_give_the_same_bytes(tmp_path, capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    pooled, serial = _both_routes(ROUNDTRIP_120, tmp_path, capsys, monkeypatch)
    assert pooled == serial
    assert pooled[:3] == (0, "tested 757 passed 757\n", "")
    if POOLED:
        assert len(started) == 1 and started[0] >= 2
    assert len(started) == int(POOLED)  # none with one CPU


def test_cli_roundtrip_small_sweep_stays_serial(capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    code, stdout, _ = run_cli(["roundtrip", "--max-conductor", "80"], capsys)  # 294 semigroups
    assert (code, stdout) == (0, "tested 294 passed 294\n")
    assert started == []


def test_cli_roundtrip_with_another_thread_alive_stays_serial(capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        code, stdout, _ = run_cli(ROUNDTRIP_120, capsys)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert (code, stdout) == (0, "tested 757 passed 757\n")
    assert started == []


def test_cli_roundtrip_failures_in_order_on_both_routes(tmp_path, capsys, monkeypatch):
    chains = latcoh.semigroup.plane_branch_chains(120)
    chosen = {chains[100], chains[600]}
    real = latcoh.cli._candidate

    def forged(M):
        found = real(M)
        if found[0].min_gens in chosen:
            raise ValidationError("forged")
        return found

    monkeypatch.setattr(latcoh.cli, "_candidate", forged)  # workers fork with it
    pooled, serial = _both_routes(ROUNDTRIP_120, tmp_path, capsys, monkeypatch)
    assert pooled == serial
    lines = ["failed: %s\n" % ",".join(map(str, chains[k])) for k in (100, 600)]
    assert pooled[:3] == (1, "".join(lines) + "tested 757 passed 755\n", "")
    assert json.loads(pooled[3])["failures"] == [list(chains[100]), list(chains[600])]


def test_cli_roundtrip_worker_error_keeps_its_type(tmp_path, capsys, monkeypatch):
    chosen = latcoh.semigroup.plane_branch_chains(120)[700]
    real = latcoh.cli._candidate

    def forged(M):
        found = real(M)
        if found[0].min_gens == chosen:
            raise InputError("forged")
        return found

    monkeypatch.setattr(latcoh.cli, "_candidate", forged)
    pooled, serial = _both_routes(ROUNDTRIP_120, tmp_path, capsys, monkeypatch)
    assert pooled == serial == (2, "", "error: forged\n", None)


@pytest.mark.skipif(not POOLED, reason="the pool needs fork and two usable CPUs")
def test_cli_roundtrip_dead_worker_breaks_the_pool(capsys, monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    chosen = latcoh.semigroup.plane_branch_chains(120)[700]
    parent = os.getpid()
    real = latcoh.cli._candidate

    def forged(M):
        found = real(M)
        if found[0].min_gens == chosen and os.getpid() != parent:
            os._exit(3)
        return found

    monkeypatch.setattr(latcoh.cli, "_candidate", forged)
    start = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        main(ROUNDTRIP_120)
    assert time.monotonic() - start < 30
    assert capsys.readouterr().out == ""


def _sweep_report(max_c: int, tested: int) -> str:
    # every module below conductor 200 is its own class
    return (
        "max conductor %d\ntested %d\nmodule classes %d\nshared module groups 0\n"
        "pairs checked 0\nfindings 0\n" % (max_c, tested, tested)
    )


@pytest.mark.parametrize("max_c, tested", [(120, 757), (200, 2778)])
def test_cli_conjecture_sweep_routes_give_the_same_bytes(max_c, tested, tmp_path, capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    argv = ["conjecture-sweep", "--max-conductor", str(max_c)]
    pooled, serial = _both_routes(argv, tmp_path, capsys, monkeypatch)
    assert pooled == serial
    assert pooled[:3] == (0, _sweep_report(max_c, tested), "")
    assert json.loads(pooled[3])["module_classes"] == tested
    if POOLED:
        assert len(started) == 1 and started[0] >= 2
    assert len(started) == int(POOLED)  # none with one CPU


def test_cli_conjecture_sweep_small_sweep_stays_serial(capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    code, stdout, _ = run_cli(["conjecture-sweep", "--max-conductor", "80"], capsys)
    assert (code, stdout) == (0, _sweep_report(80, 294))
    assert started == []


def test_cli_conjecture_sweep_with_another_thread_alive_stays_serial(capsys, monkeypatch):
    started = _spy_pool(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        code, stdout, _ = run_cli(["conjecture-sweep", "--max-conductor", "120"], capsys)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert (code, stdout) == (0, _sweep_report(120, 757))
    assert started == []


def test_cli_conjecture_sweep_worker_error_keeps_its_type(tmp_path, capsys, monkeypatch):
    chosen = latcoh.semigroup.plane_branch_chains(120)[700]
    real = latcoh.graded.module_from_weight

    def forged(W):
        if W.source.min_gens == chosen:
            raise InputError("forged")
        return real(W)

    monkeypatch.setattr(latcoh.graded, "module_from_weight", forged)  # workers fork with it
    argv = ["conjecture-sweep", "--max-conductor", "120"]
    pooled, serial = _both_routes(argv, tmp_path, capsys, monkeypatch)
    assert pooled == serial == (2, "", "error: forged\n", None)


def test_cli_import_leaves_the_pool_modules_out():
    probe = "import sys, latcoh, latcoh.cli; print(sorted(set(sys.modules) & {'multiprocessing', 'concurrent.futures'}))"
    src = str(Path(latcoh.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", ["roundtrip", "conjecture-sweep"])
def test_cli_sweep_above_the_enumeration_ceiling_is_malformed_input(command, capsys):
    start = time.monotonic()
    code, stdout, stderr = run_cli([command, "--max-conductor", "2000"], capsys)
    assert time.monotonic() - start < 0.5
    assert code == 2
    assert stdout == ""
    assert stderr == "error: max_conductor 2000 is above the enumeration ceiling of 1000\n"


@pytest.mark.parametrize("command", ["roundtrip", "conjecture-sweep"])
@pytest.mark.parametrize(
    "value,message",
    [
        ("-1", "--max-conductor must be non-negative"),
        ("1001", "max_conductor 1001 is above the enumeration ceiling of 1000"),
    ],
)
def test_cli_sweep_just_outside_its_range_is_malformed_input(command, value, message, capsys):
    code, stdout, stderr = run_cli([command, "--max-conductor", value], capsys)
    assert (code, stdout, stderr) == (2, "", "error: %s\n" % message)


def test_cli_conjecture_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, stdout, _ = run_cli(
        ["conjecture-sweep", "--max-conductor", "24", "--out", str(out)], capsys
    )
    assert code == 0
    assert "findings 0" in stdout
    data = json.loads(out.read_text())
    assert data["findings"] == []
    assert data["tested"] > 0


def test_cli_bad_gens(capsys):
    code, _, stderr = run_cli(["semigroup", "--gens", "6,,31"], capsys)
    assert code == 2
    assert "--gens" in stderr


def test_cli_empty_int_lists_are_malformed(tmp_path, capsys):
    code, stdout, stderr = run_cli(["semigroup", "--gens", ""], capsys)
    assert (code, stdout) == (2, "")
    assert "--gens" in stderr
    code, stdout, stderr = run_cli(["curve", "--in", str(tmp_path / "c.json"), "--conductor", ""], capsys)
    assert (code, stdout) == (2, "")
    assert "--conductor" in stderr


def test_cli_outputs_are_deterministic(tmp_path, capsys):
    run1 = run_cli(["semigroup", "--gens", "11,14"], capsys)
    run2 = run_cli(["semigroup", "--gens", "11,14"], capsys)
    assert run1 == run2
    c = tmp_path / "curve.json"
    c.write_text(
        json.dumps(
            {
                "branches": [
                    {"coords": [[{"c": [1, 1], "e": 2}], [{"c": [-1, 1], "e": 3}]]},
                    {"coords": [[{"c": [1, 1], "e": 3}], [{"c": [1, 1], "e": 4}]]},
                ]
            }
        )
    )
    run_a = run_cli(["curve", "--in", str(c)], capsys)
    run_b = run_cli(["curve", "--in", str(c)], capsys)
    assert run_a == run_b
    assert run_a[0] == 0


def test_parse_args_shapes():
    ns = parse_args(["semigroup", "--gens", "6,10,31", "--out", "r.json"])
    assert ns.func is cmd_semigroup
    assert ns.gens == (6, 10, 31)
    assert ns.out == "r.json"
    ns = parse_args(["curve", "--in", "c.json", "--bound", "32", "--conductor", "4,4"])
    assert ns.func is cmd_curve
    assert ns.infile == "c.json"
    assert ns.bound == 32
    assert ns.conductor == (4, 4)
    ns = parse_args(["root-iso", "a.json", "b.json"])
    assert ns.func is cmd_root_iso
    assert ns.roots == ["a.json", "b.json"]
    with pytest.raises(SystemExit) as exc:
        parse_args(["unknown-command"])
    assert exc.value.code == 2


_NAMESPACE_KEYS = {
    "semigroup": {"gens", "infile", "out", "root_out", "weights_out", "module_out"},
    "curve": {"infile", "bound", "conductor", "out", "root_out", "weights_out", "cohomology_out"},
    "reconstruct": {"infile", "out"},
}


def _bad_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--in", "c.json", "--bound", "x"])
    return exc.value.code, capsys.readouterr()


def test_one_parser_serves_every_command_of_a_process(capsys):
    _parser.cache_clear()
    fresh = _bad_bound(capsys)
    assert fresh[0] == 2 and fresh[1].out == "" and "usage: latcoh curve" in fresh[1].err
    runs = [
        (["semigroup", "--gens", "6,10,31"], "semigroup_6_10_31.json"),
        (["curve", "--in", str(SIX_COORD_IN)], "curve_six_coord.json"),
        (["reconstruct", "--module", str(DATA / "module_6_10_31.json")], "reconstruct_6_10_31.txt"),
    ]
    for argv, expected in runs:
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0
        assert stdout == (DATA / expected).read_text()
        ns = parse_args(argv)
        assert set(vars(ns)) == _NAMESPACE_KEYS[argv[0]] | {"command", "func"}
    assert _parser() is _parser()
    assert _bad_bound(capsys) == fresh
