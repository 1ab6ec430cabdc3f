"""Command-line interface.

Subcommands:

  semigroup        invariants, weights, root, and module of one semigroup
  reconstruct      semigroup back out of a tower-module file
  curve            full multibranch pipeline from a parametrization file
  roundtrip        semigroup -> module -> semigroup sweep up to a conductor
  root-iso         compare two root files up to isomorphism
  conjecture-sweep look for module-equal, non-isomorphic-root pairs

Exit codes: 0 success (and "isomorphic" verdicts), 1 property violation,
2 malformed input, 3 negative verdict from a comparison.

Reports go to stdout as canonical JSON; the same bytes land in ``--out``
when given.  Every file is written before anything goes to stdout, so a
command that cannot write one prints nothing.  Side artifacts (weight
tables, roots, modules) are chosen by flag, with root renderings picked by
file extension (.dot, .json, or ASCII for anything else).

``roundtrip`` and ``conjecture-sweep`` map one check over the plane-branch
generator chains through ``_pool.sweep``: in this process, or, where it can
fork and runs no other thread, in a pool with one worker per usable CPU once
each worker gets ``_pool.MIN_PER_WORKER`` semigroups.  A roundtrip worker
sends back one bool per semigroup, a conjecture-sweep worker one module
digest.  Results come back in enumeration order, so both routes print and
write the same bytes.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import formats
from ._pool import sweep
from .errors import InputError, ValidationError
from .graded import (
    GradedRoot,
    conjecture_sweep,
    module_from_weight,
    root_from_weight,
    roots_isomorphic,
)
from .multibranch import (
    euler_delta_check,
    hilbert_from_parametrization,
    lattice_cohomology,
    series,
)
from .reconstruct import (
    _candidate,
    _check_round_trip,
    compute_e,
    detect_lg1_equals_2,
    initial_part,
)
from .semigroup import (
    NumericalSemigroup,
    from_generators,
    is_plane_branch,
    plane_branch_chains,
)
from .weight1d import min_w0, weight_sequence


def _int_tuple(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError("%s: expected comma-separated integers, got %r" % (what, text))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    argparse gives each parse a new namespace, and a subcommand's parse
    copies only its own options into it, so one parser serves every call.
    """
    ap = argparse.ArgumentParser(
        prog="latcoh",
        description="analytic lattice cohomology of curve singularities",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="invariants of a numerical semigroup")
    p.set_defaults(func=cmd_semigroup)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gens", help="comma-separated generators, e.g. 6,10,31")
    src.add_argument("--in", dest="infile", help="semigroup JSON file")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--root", dest="root_out", help="write the graded root (.dot/.json/ASCII)")
    p.add_argument("--weights", dest="weights_out", help="write the weight table TSV")
    p.add_argument("--module", dest="module_out", help="write the tower module JSON")

    p = sub.add_parser("reconstruct", help="semigroup from a tower-module file")
    p.set_defaults(func=cmd_reconstruct)
    p.add_argument("--module", dest="infile", required=True, help="module JSON file")
    p.add_argument("--out", help="write the semigroup JSON here")

    p = sub.add_parser("curve", help="lattice cohomology of a parametrized curve")
    p.set_defaults(func=cmd_curve)
    p.add_argument("--in", dest="infile", required=True, help="curve JSON file")
    p.add_argument("--bound", type=int, help="truncation degree for the series algebra")
    p.add_argument("--conductor", help="known conductor, comma-separated per branch")
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("--root", dest="root_out", help="write the graded root (.dot/.json/ASCII)")
    p.add_argument("--weights", dest="weights_out", help="write the weight table TSV")
    p.add_argument("--cohomology", dest="cohomology_out", help="write the cohomology JSON")

    p = sub.add_parser("roundtrip", help="reconstruction sweep over plane branches")
    p.set_defaults(func=cmd_roundtrip)
    p.add_argument("--max-conductor", type=int, required=True)
    p.add_argument("--out", help="write the sweep report JSON here")

    p = sub.add_parser("root-iso", help="decide isomorphism of two root files")
    p.set_defaults(func=cmd_root_iso)
    p.add_argument("roots", nargs=2, metavar="ROOT_JSON")

    p = sub.add_parser("conjecture-sweep", help="hunt for equal-module non-isomorphic roots")
    p.set_defaults(func=cmd_conjecture_sweep)
    p.add_argument("--max-conductor", type=int, required=True)
    p.add_argument("--out", help="write the sweep report JSON here")
    return ap


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line; ``ns.func(ns)`` runs the chosen command."""
    ns = _parser().parse_args(argv)
    if getattr(ns, "gens", None) is not None:
        ns.gens = _int_tuple(ns.gens, "--gens")
    if getattr(ns, "conductor", None) is not None:
        ns.conductor = _int_tuple(ns.conductor, "--conductor")
    return ns


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError("%s: %s" % (path, exc.strerror or exc)) from exc


def _write_root(path: str, R: GradedRoot) -> None:
    if path.endswith(".dot"):
        _write(path, formats.root_dot(R))
    elif path.endswith(".json"):
        _write(path, formats.to_json(R))
    else:
        _write(path, formats.root_ascii(R))


def _emit_report(report: dict, out: str | None) -> None:
    text = formats.to_json(report)
    if out:
        _write(out, text)
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# semigroup

def cmd_semigroup(ns: argparse.Namespace) -> int:
    if ns.gens is not None:
        S = from_generators(ns.gens)
    else:
        S = formats.read_semigroup_file(ns.infile)
    W = weight_sequence(S)
    M = module_from_weight(W)

    plane, chain = (False, None)
    if isinstance(S, NumericalSemigroup):
        plane, chain = is_plane_branch(S)
    notes = []
    try:
        E = list(initial_part(M).elements)
    except ValidationError as exc:
        E = None
        notes.append("initial part undefined: %s" % exc)

    report = {
        "generators": list(S.min_gens) if isinstance(S, NumericalSemigroup) else None,
        "smooth": S.conductor == 0,
        "conductor": S.conductor,
        "delta": S.delta,
        "multiplicity": S.multiplicity,
        "plane_branch": plane,
        "gcd_chain": (
            {
                "l": list(chain.l),
                "n": list(chain.n),
                "partial_conductors": list(chain.partial_conductors),
            }
            if chain is not None
            else None
        ),
        "min_w0": min_w0(W),
        "truncation_level": max(1, max(W.values)),  # the root's, built only for --root
        "module": formats.module_to_dict(M),
        "e": compute_e(M),
        "E": E,
        "lg1_equals_2": detect_lg1_equals_2(M),
    }
    if notes:
        report["notes"] = notes
    if ns.weights_out:
        _write(ns.weights_out, formats.weights_tsv(W))
    if ns.root_out:
        _write_root(ns.root_out, root_from_weight(W))
    if ns.module_out:
        _write(ns.module_out, formats.to_json(formats.module_to_dict(M)))
    _emit_report(report, ns.out)
    return 0


# ---------------------------------------------------------------------------
# reconstruct

def cmd_reconstruct(ns: argparse.Namespace) -> int:
    M = formats.read_module_file(ns.infile)
    S, ip, chain = _candidate(M)
    _check_round_trip(S, M)
    lines = [
        "generators: " + ", ".join(str(g) for g in S.min_gens),
        "conductor: %d" % S.conductor,
        "delta: %d" % S.delta,
        "multiplicity: %d" % S.multiplicity,
        "g: %d" % (len(S.min_gens) - 1),
        "l chain: " + ", ".join(str(l) for l in chain.l),
        "E: " + ", ".join(str(x) for x in ip.elements),
        "e: %d" % ip.e,
        "lg1_equals_2: %s" % ("true" if detect_lg1_equals_2(M) else "false"),
    ]
    text = formats.to_json(formats.semigroup_to_dict(S))
    if ns.out:
        _write(ns.out, text)
        text = ""
    sys.stdout.write("\n".join(lines) + "\n" + text)
    return 0


# ---------------------------------------------------------------------------
# curve

def cmd_curve(ns: argparse.Namespace) -> int:
    P = formats.read_curve_file(ns.infile)
    if ns.conductor is not None and len(ns.conductor) != P.r:
        raise InputError(
            "--conductor: expected %d entries for %d branches" % (P.r, P.r)
        )
    bound = ns.bound if ns.bound is not None else "auto"
    W = hilbert_from_parametrization(P, degree_bound=bound, conductor=ns.conductor)
    H = lattice_cohomology(W)
    sd = series(W)
    ed = euler_delta_check(W, P)

    report = {
        "r": W.r,
        "conductor": list(W.conductor),
        "box": list(W.box),
        "delta": W.delta,
        "min_w0": W.min_w0,
        "module": formats.module_to_dict(H.module),
        "root": H.root,
        "series": {
            "tail": sd.tail,
            "coefficients": [
                [list(pt), sd.coefficients[pt]] for pt in sorted(sd.coefficients)
            ],
        },
        "euler": {
            "equal": ed.equal,
            "euler": ed.euler,
            "delta": ed.delta,
            "conclusive": True,
        },
        "cohomology": [
            {
                "q": qc.q,
                "fit": "exact",
                "towers": [[m, t] for m, t in qc.towers],
                "ranks": [[n, qc.ranks[n]] for n in sorted(qc.ranks)],
                "u_ranks": [[n, qc.u_ranks[n]] for n in sorted(qc.u_ranks)],
            }
            for qc in H.per_q
        ],
        "torsion": [
            [q, n, list(H.torsion[(q, n)])] for q, n in sorted(H.torsion)
        ],
    }
    if W.r == 1:
        report["generators"] = list(W.to_weight_sequence().source.min_gens)
    if ns.weights_out:
        _write(ns.weights_out, formats.weights_tsv(W))
    if ns.root_out:
        _write_root(ns.root_out, H.root)
    if ns.cohomology_out:
        section = {
            "min_w0": H.min_w0,
            "module": report["module"],
            "cohomology": report["cohomology"],
            "torsion": report["torsion"],
        }
        _write(ns.cohomology_out, formats.to_json(section))
    _emit_report(report, ns.out)
    return 0


# ---------------------------------------------------------------------------
# roundtrip

def _roundtrip_one(gens: tuple[int, ...]) -> bool:
    """True when the semigroup on gens comes back from its module unchanged.

    Only the candidate that ``_candidate`` reads off the module M of S is
    compared with S; the closing rebuild of ``reconstruct_semigroup``, which
    checks that the candidate's module is M, is left out, and the answer is
    the same.  A candidate that raises ValidationError is a failure either
    way.  A candidate other than S fails the comparison, as it failed the old
    check whatever its module.  A candidate equal to S has module M, so the
    closing rebuild could not have failed.
    """
    S = from_generators(gens)
    M = module_from_weight(weight_sequence(S))
    try:
        return _candidate(M)[0] == S
    except ValidationError:
        return False


def cmd_roundtrip(ns: argparse.Namespace) -> int:
    if ns.max_conductor < 0:
        raise InputError("--max-conductor must be non-negative")
    chains = plane_branch_chains(ns.max_conductor)
    results = list(zip(chains, sweep(_roundtrip_one, chains)))
    failures = [gens for gens, ok in results if not ok]
    if ns.out:
        _write(
            ns.out,
            formats.to_json(
                {
                    "max_conductor": ns.max_conductor,
                    "tested": len(results),
                    "passed": len(results) - len(failures),
                    "failures": [list(g) for g in failures],
                }
            ),
        )
    for gens in failures:
        sys.stdout.write("failed: %s\n" % ",".join(str(g) for g in gens))
    sys.stdout.write("tested %d passed %d\n" % (len(results), len(results) - len(failures)))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# root-iso

def cmd_root_iso(ns: argparse.Namespace) -> int:
    R1, R2 = (formats.read_root_file(path) for path in ns.roots)
    if roots_isomorphic(R1, R2):
        sys.stdout.write("isomorphic\n")
        return 0
    sys.stdout.write("not isomorphic\n")
    return 3


# ---------------------------------------------------------------------------
# conjecture-sweep

def cmd_conjecture_sweep(ns: argparse.Namespace) -> int:
    if ns.max_conductor < 0:
        raise InputError("--max-conductor must be non-negative")
    rep = conjecture_sweep(ns.max_conductor)
    lines = [
        "max conductor %d" % rep.max_conductor,
        "tested %d" % rep.tested,
        "module classes %d" % rep.module_classes,
        "shared module groups %d" % rep.shared_module_groups,
        "pairs checked %d" % rep.pairs_checked,
        "findings %d" % len(rep.hits),
    ]
    for a, b in rep.hits:
        lines.append(
            "finding: equal modules, non-isomorphic roots: %s vs %s"
            % (",".join(str(x) for x in a), ",".join(str(x) for x in b))
        )
    if ns.out:
        _write(
            ns.out,
            formats.to_json(
                {
                    "max_conductor": rep.max_conductor,
                    "tested": rep.tested,
                    "module_classes": rep.module_classes,
                    "shared_module_groups": rep.shared_module_groups,
                    "pairs_checked": rep.pairs_checked,
                    "findings": [[list(a), list(b)] for a, b in rep.hits],
                }
            ),
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        ns = parse_args(argv)
        return ns.func(ns)
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ValidationError as exc:
        sys.stderr.write("violation: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
