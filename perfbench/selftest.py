"""Self-test of the benchmark at the smallest size of every workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark emits, with their units; that every workload passes its output
checks untraced and traced; that the traced run sees two lattice_cohomology
calls per curve operation; and that a corrupted expected value is counted
as a failed operation.  Exits 1 and lists the problems if any check fails.
"""
from __future__ import annotations

import functools
import json
import sys

import run

def small_run(cli, builder, name: str, trace: int) -> dict:
    """One pass (one untraced and one traced, with trace 1) at the smallest size."""
    workload, setup_s = run.set_up(functools.partial(builder, small=True), 1, run.WORK / "selftest" / name)
    return run.measure(cli, workload, setup_s, 0.0, trace, run.WORK / "selftest" / ("%s.jsonl" % name))


def main() -> int:
    _threads, cli = run.prepare()
    import tracer
    import workloads

    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect([w["name"] for w in bench["workloads"]] == list(workloads.BUILDERS), "BENCHMARK.json workloads differ from the builders")
    expect(per_layer == dict(tracer.metric_names(tracer.load_layers())), "BENCHMARK.json per_layer differs from layers.json")

    for name, builder in workloads.BUILDERS.items():
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            record = small_run(cli, builder, name, trace)
            result = record["result"]
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(emitted == wanted, "%s trace %d: metrics or units differ from BENCHMARK.json" % (name, trace))
            expect(result["correct"] and result["failed"] == 0, "%s trace %d: %s" % (name, trace, record["failures"]))
            if trace == 1 and name in ("grid-pair", "space-curves"):
                calls = result["metrics"]["complexes.lattice_cohomology.calls"]["value"]
                expect(calls == 2 * record["operations_per_pass"], "%s: lattice_cohomology is not run twice per curve" % name)

    # A corrupted expected value: the sweep count at the smallest size is 43.
    saved = dict(workloads.PLANE_BRANCH_COUNT)
    workloads.PLANE_BRANCH_COUNT[30] += 1
    try:
        result = small_run(cli, workloads.build_plane_sweep, "plane-sweep-corrupted", 0)["result"]
    finally:
        workloads.PLANE_BRANCH_COUNT.update(saved)
    expect(result["failed"] == 2 and not result["correct"], "a corrupted expected count was not counted as two failed operations")

    for p in problems:
        print("FAIL: %s" % p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
