"""File formats: JSON readers/writers, weight-table TSV, root DOT and ASCII.

All writers return strings and are deterministic (sorted keys, fixed field
order), so identical inputs give byte-identical files.  All readers raise
InputError with a field diagnostic on malformed input; every JSON writer's
output parses back through its own reader.

JSON text comes from one canonical writer, ``to_json``, which takes only
what the reports hold (exact ints, bools, None, strs, lists and str-keyed
dicts) and writes the bytes that the standard library's ``json.dumps``
writes with sorted keys and an indent of two, and a newline, without the
pure-Python encoder that ``json.dumps`` falls back to whenever it indents.
A list of integer lists of one length (tower pairs, rank pairs) is written
through one %-template built from that length and its indent, in a single
formatting call.  A ``GradedRoot`` is a value of its own: its vertex and
edge tuples fill one record template each at whatever indent the root
sits, in a file of its own or nested in a report, and no dict is built per
vertex.

The root and module readers check each list in one pass that takes a
well-formed entry as it is and sends any other to a checking helper, so
the message names the first bad entry, and a field's location string is
built only for the error raised.  (Whole-list passes, ``set(map(type,
...))`` and ``map(itemgetter(...))``, were slower than this loop on the
benchmark's roots: 0.76 + 0.65 against 0.53 + 0.45 ms for the vertices
and edges of the 3610-vertex root of <83,89>.)

Graded objects are stored with both conventions: the internal level n (key
"chi" / "*_weight") and the doubled degree 2n (key "degree" / plain "base",
"towers").  Readers prefer the level fields and fall back to halving the
doubled ones.
"""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter

from .errors import InputError, as_int as _as_int
from .graded import GradedRoot, TowerModule
from .multibranch import BranchParametrization, WeightGrid, make_parametrization
from .multibranch.hilbert import box_point
from .semigroup import CofiniteSet, NumericalSemigroup, from_generators, from_members
from .weight1d import WeightSequence


# ---------------------------------------------------------------------------
# JSON plumbing

_ESCAPE = json.encoder.encode_basestring_ascii

# The JSON text of a leaf, keyed by its exact type.
_LEAF = {
    str: _ESCAPE,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(x, nl: str) -> str:
    """x as canonical JSON text; nl is a newline plus the indent of x's line."""
    leaf = _LEAF.get(type(x))
    if leaf is not None:
        return leaf(x)
    inner = nl + "  "
    if type(x) is dict:
        if not x:
            return "{}"
        # _ESCAPE raises TypeError on a key that is not a str
        parts = [_ESCAPE(k) + ": " + _encode(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if type(x) is list:
        if not x:
            return "[]"
        try:  # every item a leaf
            body = ("," + inner).join([_LEAF[type(v)](v) for v in x])
        except KeyError:
            text = _records(x, nl)
            if text is not None:
                return text
            body = ("," + inner).join([_encode(v, inner) for v in x])
        return "[" + inner + body + nl + "]"
    if type(x) is GradedRoot:
        return _root(x, nl)
    raise TypeError("Object of type %s is not JSON serializable" % type(x).__name__)


def _uniform(opening: str, fields: list[str], closing: str, count: int, values: tuple, nl: str) -> str:
    """A JSON list, at the indent of nl, of count records alike.

    Each record is opening, its fields one to a line, and closing; fields
    are %-templates, and one formatting call fills all count records from
    the flat tuple values.
    """
    if not count:
        return "[]"
    inner = nl + "  "
    deeper = inner + "  "
    template = opening + deeper + ("," + deeper).join(fields) + inner + closing
    return "[" + inner + ("," + inner).join([template] * count) % values + nl + "]"


def _records(x, nl: str) -> str | None:
    """A list of integer records as JSON text, or None.

    The records are lists of the first item's nonzero length, and every
    value is an exact int (not a bool).  They are written through
    ``_uniform`` with one "%d" field per entry; any other list gives None.
    """
    first = x[0]
    if type(first) is not list or not first:
        return None
    if set(map(type, x)) != {list} or set(map(len, x)) != {len(first)}:
        return None
    values = tuple(chain.from_iterable(x))
    if set(map(type, values)) != {int}:
        return None
    return _uniform("[", ["%d"] * len(first), "]", len(x), values, nl)


def _root(R: GradedRoot, nl: str) -> str:
    """R's root object, at the indent of nl, straight from its tuples.

    The keys are "edges" (id pairs), "truncation_level" and "vertices"
    ({"chi", "degree", "id"} records, the degree being 2 * chi); each list
    is one ``_uniform`` call, so no dict is built per vertex.
    """
    inner = nl + "  "
    ids = list(map(itemgetter(0), R.vertices))
    chis = list(map(itemgetter(1), R.vertices))
    vertices = tuple(chain.from_iterable(zip(chis, map(add, chis, chis), ids)))
    edges = tuple(chain.from_iterable(R.edges))
    return '{%s"edges": %s,%s"truncation_level": %d,%s"vertices": %s%s}' % (
        inner,
        _uniform("[", ["%d", "%d"], "]", len(R.edges), edges, inner),
        inner,
        R.truncation_level,
        inner,
        _uniform("{", ['"chi": %d', '"degree": %d', '"id": %d'], "}", len(ids), vertices, inner),
        nl,
    )


def to_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    obj holds what latcoh's reports hold: exact ``int``, ``bool``, ``None``
    and ``str`` leaves, exact ``list``s, exact ``dict``s with str keys, and
    ``GradedRoot``s, each written as the object of its root file (see
    ``_root``); anything else (a float, a tuple, a subclass, a key that is
    not a str) raises TypeError.  The bytes are those of ``json.dumps`` with
    ``sort_keys`` and an indent of 2, plus a newline (the tests hold it to
    that, a root to the dict of those three keys), written without the
    standard library's pure-Python indenting encoder: leaves are converted by
    ``int.__repr__`` and the C string escaper, a list of leaves is joined in
    one pass, and a list of lists of one nonzero length, every value an
    exact int, through one template (see ``_records``).
    """
    return _encode(obj, "\n") + "\n"


def read_json(path: str):
    """The JSON document in a UTF-8 file; anything unreadable is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc)) from exc
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8 text: %s at byte %d" % (path, exc.reason, exc.start)) from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputError("%s: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise InputError("%s: JSON nested too deeply" % path) from exc


def _require(d, key, where):
    if not isinstance(d, dict):
        raise InputError("%s: expected an object, got %s" % (where, type(d).__name__))
    if key not in d:
        raise InputError("%s: missing field %r" % (where, key))
    return d[key]


def _as_int_list(x, where):
    if not isinstance(x, list):
        raise InputError("%s: expected a list" % where)
    return [_as_int(v, "%s[%d]" % (where, i)) for i, v in enumerate(x)]


def _halve(x, where):
    x = _as_int(x, where)
    if x % 2 != 0:
        raise InputError("%s: doubled degree %d is odd" % (where, x))
    return x // 2


# ---------------------------------------------------------------------------
# Semigroups / cofinite sets

def semigroup_to_dict(S: CofiniteSet) -> dict:
    d = {
        "conductor": S.conductor,
        "delta": S.delta,
        "members_below": S.members_below_conductor(),
    }
    if isinstance(S, NumericalSemigroup):
        d["generators"] = list(S.min_gens)
        d["multiplicity"] = S.multiplicity
    else:
        d["verify_closed"] = False
    return d


def semigroup_from_dict(d, where: str = "semigroup") -> CofiniteSet:
    if not isinstance(d, dict):
        raise InputError("%s: expected an object" % where)
    if "generators" in d:
        gens = _as_int_list(d["generators"], "%s.generators" % where)
        if not gens:
            raise InputError("%s.generators: empty" % where)
        return from_generators(gens)
    if "members_below" in d:
        members = _as_int_list(d["members_below"], "%s.members_below" % where)
        conductor = _as_int(_require(d, "conductor", where), "%s.conductor" % where)
        verify = d.get("verify_closed", True)
        if not isinstance(verify, bool):
            raise InputError("%s.verify_closed: expected a boolean" % where)
        return from_members(members, conductor, verify_closed=verify)
    raise InputError("%s: need either 'generators' or 'members_below'" % where)


def read_semigroup_file(path: str) -> CofiniteSet:
    return semigroup_from_dict(read_json(path), where=path)


# ---------------------------------------------------------------------------
# Graded roots and tower modules

def root_to_dict(R: GradedRoot) -> dict:
    """R as the JSON object that its root file holds (``to_json(R)`` parsed back)."""
    return json.loads(to_json(R))


def _pair(e, here, shape):
    """The two integers of a list entry, or InputError naming here."""
    pair = _as_int_list(e, here)
    if len(pair) != 2:
        raise InputError("%s: %s" % (here, shape))
    return pair[0], pair[1]


def _vertex(v, here):
    """(id, chi) of a vertex entry, read from "chi" or else the doubled "degree"."""
    vid = _as_int(_require(v, "id", here), "%s.id" % here)
    if "chi" in v:
        return vid, _as_int(v["chi"], "%s.chi" % here)
    return vid, _halve(_require(v, "degree", here), "%s.degree" % here)


def root_from_dict(d, where: str = "root") -> GradedRoot:
    # Each list is read in one pass that takes well-formed entries as they
    # are; any other entry goes to the checking helper, which reads it (a
    # degree-only vertex, say) or raises, naming its location only then.
    raw = _require(d, "vertices", where)
    if not isinstance(raw, list) or not raw:
        raise InputError("%s.vertices: expected a non-empty list" % where)
    verts = []
    for i, v in enumerate(raw):
        if type(v) is dict:
            vid, chi = v.get("id"), v.get("chi")
            if type(vid) is int and type(chi) is int:
                verts.append((vid, chi))
                continue
        verts.append(_vertex(v, "%s.vertices[%d]" % (where, i)))
    raw_edges = _require(d, "edges", where)
    if not isinstance(raw_edges, list):
        raise InputError("%s.edges: expected a list" % where)
    edges = []
    for i, e in enumerate(raw_edges):
        if type(e) is list and len(e) == 2:
            lo, hi = e
            if type(lo) is int and type(hi) is int:
                edges.append((lo, hi))
                continue
        edges.append(_pair(e, "%s.edges[%d]" % (where, i), "expected a pair"))
    trunc = _as_int(_require(d, "truncation_level", where), "%s.truncation_level" % where)
    R = GradedRoot(tuple(sorted(verts)), tuple(sorted(edges)), trunc)
    R.validate()
    return R


def read_root_file(path: str) -> GradedRoot:
    return root_from_dict(read_json(path), where=path)


def module_to_dict(M: TowerModule) -> dict:
    return {
        "base": 2 * M.base,
        "base_weight": M.base,
        "towers": [[2 * m, 2 * t] for m, t in M.towers],
        "towers_weight": [[m, t] for m, t in M.towers],
    }


def _tower(e, here, base, halved):
    m, t = _pair(e, here, "expected a [start, end] pair")
    if halved:
        m, t = _halve(m, here), _halve(t, here)
    if not base <= m <= t:
        raise InputError("%s: tower [%d, %d] is not above the base %d" % (here, m, t, base))
    return m, t


def module_from_dict(d, where: str = "module") -> TowerModule:
    if not isinstance(d, dict):
        raise InputError("%s: expected an object" % where)
    if "base_weight" in d:
        base = _as_int(d["base_weight"], "%s.base_weight" % where)
        raw = _require(d, "towers_weight", where)
        halved = False
    else:
        base = _halve(_require(d, "base", where), "%s.base" % where)
        raw = _require(d, "towers", where)
        halved = True
    if not isinstance(raw, list):
        raise InputError("%s.towers: expected a list" % where)
    towers = []
    for i, e in enumerate(raw):
        # one pass, as in root_from_dict
        if type(e) is list and len(e) == 2:
            m, t = e
            if type(m) is int and type(t) is int and not (halved and (m % 2 or t % 2)):
                if halved:
                    m, t = m // 2, t // 2
                if base <= m <= t:
                    towers.append((m, t))
                    continue
        towers.append(_tower(e, "%s.towers[%d]" % (where, i), base, halved))
    return TowerModule(base, tuple(sorted(towers)))


def read_module_file(path: str) -> TowerModule:
    return module_from_dict(read_json(path), where=path)


# ---------------------------------------------------------------------------
# Parametrized curves

def _fraction_from_json(c, where):
    if isinstance(c, bool):
        raise InputError("%s: expected a number" % where)
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, list) and len(c) == 2:
        num = _as_int(c[0], "%s[0]" % where)
        den = _as_int(c[1], "%s[1]" % where)
        if den == 0:
            raise InputError("%s: zero denominator" % where)
        return Fraction(num, den)
    raise InputError("%s: expected an integer or a [numerator, denominator] pair" % where)


def curve_from_dict(d, where: str = "curve") -> BranchParametrization:
    raw = _require(d, "branches", where)
    if not isinstance(raw, list) or not raw:
        raise InputError("%s.branches: expected a non-empty list" % where)
    branches = []
    for j, bd in enumerate(raw):
        here = "%s.branches[%d]" % (where, j)
        coords_raw = _require(bd, "coords", here)
        if not isinstance(coords_raw, list):
            raise InputError("%s.coords: expected a list" % here)
        coords = []
        for k, series_raw in enumerate(coords_raw):
            sw = "%s.coords[%d]" % (here, k)
            if not isinstance(series_raw, list):
                raise InputError("%s: expected a list of terms" % sw)
            terms = []
            for i, term in enumerate(series_raw):
                tw = "%s[%d]" % (sw, i)
                coeff = _fraction_from_json(_require(term, "c", tw), "%s.c" % tw)
                exp = _as_int(_require(term, "e", tw), "%s.e" % tw)
                terms.append((coeff, exp))
            coords.append(terms)
        branches.append(coords)
    return make_parametrization(branches)


def read_curve_file(path: str) -> BranchParametrization:
    return curve_from_dict(read_json(path), where=path)


# ---------------------------------------------------------------------------
# Weight tables

def weight_sequence_tsv(W: WeightSequence) -> str:
    lines = ["position\tmember\tw0"]
    for l, w in enumerate(W.values):
        lines.append("%d\t%d\t%d" % (l, 1 if l in W.source else 0, w))
    return "\n".join(lines) + "\n"


def _grid_tsv_matrix(W: WeightGrid) -> str:
    b1, b2 = W.box
    lines = ["l2\\l1\t" + "\t".join(str(l1) for l1 in range(b1 + 1))]
    for l2 in range(b2, -1, -1):  # the row of l2 lists l1 = 0 .. b1, one stride apart
        lines.append("\t".join(map(str, [l2] + W.w0[l2 :: W.strides[0]])))
    return "\n".join(lines) + "\n"


def _grid_tsv_long(W: WeightGrid) -> str:
    lines = ["\t".join("l%d" % (j + 1) for j in range(W.r)) + "\tw0"]
    for i, w in enumerate(W.w0):
        lines.append("\t".join(map(str, box_point(i, W.strides) + (w,))))
    return "\n".join(lines) + "\n"


def weights_tsv(W) -> str:
    """Weight table of a WeightSequence or a WeightGrid.

    One branch: position / member / w0 rows.  Two branches: a matrix in the
    usual plane orientation (first index left to right, second index bottom
    to top).  More branches: long format, one lattice point per row.
    """
    if isinstance(W, WeightSequence):
        return weight_sequence_tsv(W)
    if isinstance(W, WeightGrid):
        if W.r == 1:
            return weight_sequence_tsv(W.to_weight_sequence())
        if W.r == 2:
            return _grid_tsv_matrix(W)
        return _grid_tsv_long(W)
    raise InputError("cannot tabulate %s" % type(W).__name__)


# ---------------------------------------------------------------------------
# Root renderings

def root_dot(R: GradedRoot) -> str:
    lines = ["graph gradedroot {", "  rankdir=BT;", '  node [shape=circle, fontsize=10];']
    for v, n in R.vertices:
        lines.append('  n%d [label="%d"];' % (v, n))
    by = R.levels()
    for n in sorted(by):
        ids = "; ".join("n%d" % v for v in by[n])
        lines.append("  { rank=same; %s; }" % ids)
    for a, b in R.edges:
        lines.append("  n%d -- n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def root_ascii(R: GradedRoot) -> str:
    """One text row per level, top level first, then the edge list."""
    by = R.levels()
    width = max(len(str(n)) for n in by)
    lines = []
    for n in sorted(by, reverse=True):
        ids = " ".join(str(v) for v in by[n])
        lines.append("chi %s: %s" % (str(n).rjust(width), ids))
    lines.append("edges: " + " ".join("%d-%d" % (a, b) for a, b in R.edges))
    return "\n".join(lines) + "\n"
