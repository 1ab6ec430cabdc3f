"""Benchmark of the latcoh command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: latcoh is imported from its ``src/``.  The process sets
up the workload's inputs (several times, for set-up time), then runs whole
passes over the workload's operations as a closed loop with one caller, for
as many passes as fit in S seconds (at least one).  Each operation is one in-process call of
``latcoh.cli.main(argv)`` with stdout captured and checked.  LATCOH_THREADS is
unset and numeric libraries are held to one thread.

On a shared host the speed a process gets shifts by up to 60%, from one
second to the next and for tens of seconds at a time, and CPU time shifts with
it.  So a fixed reference kernel, pure Python and independent of latcoh, is
timed between operations (at least every CALIBRATE_EVERY seconds and at the
end of each pass), and each operation's time is scaled by REF_SECONDS over the
mean kernel time of the calibrations that bracket it: every time reported is
what the host would give if the kernel ran in REF_SECONDS.  The raw times and the kernel's median go to the record too.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
half the time runs untraced and half traced, and the spans give each layer's
calls, self time and counts per pass (see layers.json), plus the tracing
overhead.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  A full record, with the environment, goes to
``.perfbench-work/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REF_SECONDS = 0.006
CALIBRATE_EVERY = 0.2
HOST_NOTE = (
    "shared host: its speed shifts by up to 60%% from second to second and for"
    " tens of seconds at a time, CPU time tracking wall time, so raw times of"
    " back-to-back runs differ by that much; reported times are scaled to a reference kernel time of"
    " %g s, raw times are kept in the record; bounds come from the measured"
    " spread of the scaled times, not from a guess" % REF_SECONDS
)
IMPORT_PROBE = "import time; t = time.perf_counter(); import latcoh; print(time.perf_counter() - t)"


def load_latcoh():
    """Import latcoh from this checkout's src/ and nowhere else."""
    if not (SRC / "latcoh" / "__init__.py").is_file():
        raise ImportError("no latcoh sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import latcoh
    import latcoh.cli

    if Path(latcoh.__file__).resolve().parent != SRC / "latcoh":
        raise ImportError("latcoh was imported from %s, not from %s" % (latcoh.__file__, SRC))
    return latcoh.cli


def environment(latcoh_threads: str | None) -> dict:
    numpy = sys.modules.get("numpy")
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "LATCOH_THREADS_at_start": latcoh_threads,
        "LATCOH_THREADS_in_run": "unset",
        "note": HOST_NOTE,
    }


def reference_kernel() -> float:
    """Time one run of a fixed pure-Python kernel that does not touch latcoh.

    Small-int arithmetic plus dict, list and sort traffic.  When a shared
    host slows down, the first slows by less and the second by more than
    latcoh's operations; on a 2-core shared VM their sum tracked those
    operations within a few per cent while raw times moved by 50%.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    counts: dict[int, int] = {}
    pairs = []
    for i in range(10000):
        counts[i % 997] = counts.get(i % 997, 0) + i
        pairs.append((i, i & 15))
    pairs.sort(key=lambda t: t[1])
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Import time of latcoh (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip())


def set_up(builder, seed: int, work: Path):
    """Build the workload SETUP_REPEATS times; return it and the median set-up time.

    Each repeat is scaled by the reference kernel timed before and after it.
    """
    times, workload = [], None
    ref = reference_kernel()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t_import = import_seconds()
        t0 = time.perf_counter()
        work.mkdir(parents=True)
        workload = builder(work, seed)
        raw = t_import + time.perf_counter() - t0
        ref_after = reference_kernel()
        times.append(raw * REF_SECONDS / ((ref + ref_after) / 2))
        ref = ref_after
    return workload, statistics.median(times)


class Runner:
    """Runs passes over a workload's operations and keeps their outcomes.

    ``latencies`` are scaled to the reference kernel time, ``raw_latencies``
    are as measured, and ``refs`` are the kernel times seen.
    """

    def __init__(self, cli, ops, mismatch) -> None:
        self.cli, self.ops, self.mismatch = cli, ops, mismatch
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        for _ in range(3):  # warm the kernel before its times count
            reference_kernel()
        self.refs = [reference_kernel()]
        self.ref_at = time.perf_counter()
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}
        self.digests: set[str] = set()
        self.first_digest: str | None = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures[what] = self.failures.get(what, 0) + 1

    def _calibrate(self, pending: list[int]) -> None:
        """Time the kernel and scale the operations run since the last calibration."""
        ref = reference_kernel()
        scale = REF_SECONDS / ((self.refs[-1] + ref) / 2)
        for k in pending:
            self.latencies[k] = self.raw_latencies[k] * scale
        pending.clear()
        self.refs.append(ref)
        self.ref_at = time.perf_counter()

    def one_pass(self, tracer=None) -> tuple[float, float]:
        """Run every operation once; return the pass's scaled and raw wall times.

        A pass's wall time is the sum of its operations' times.
        """
        digest = hashlib.sha256()
        first = len(self.latencies)
        pending: list[int] = []
        for i, op in enumerate(self.ops):
            if time.perf_counter() - self.ref_at >= CALIBRATE_EVERY:
                self._calibrate(pending)
            out = io.StringIO()
            if tracer is not None:
                tracer.op = i
            exc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(op.argv)
            except (Exception, SystemExit) as e:  # an operation that raises is a failed operation
                rc, exc = None, e
            dt = time.perf_counter() - t0
            pending.append(len(self.latencies))
            self.latencies.append(dt)
            self.raw_latencies.append(dt)
            self.attempted += 1
            text = out.getvalue()
            digest.update(("%d\0%r\0%s\0%s\0" % (i, rc, type(exc).__name__ if exc else "", text)).encode())
            if exc is not None:
                self._fail("%s: raised %s: %s" % (op.label, type(exc).__name__, exc))
                continue
            try:
                self.items += op.check(rc, text)
            except self.mismatch as m:
                self.wrong += 1
                self._fail("%s: %s" % (op.label, m))
        self._calibrate(pending)
        self.digests.add(digest.hexdigest())
        self.first_digest = self.first_digest or digest.hexdigest()
        return sum(self.latencies[first:]), sum(self.raw_latencies[first:])

    def passes(self, budget: float, tracer=None) -> tuple[list[float], list[float]]:
        """Closed loop of whole passes, at least one, while a median pass still fits the budget.

        Returns the scaled and the raw wall time of each pass.
        """
        walls: list[float] = []
        raw: list[float] = []
        t0 = time.perf_counter()
        while not raw or time.perf_counter() - t0 + statistics.median(raw) <= budget:
            wall, raw_wall = self.one_pass(tracer)
            walls.append(wall)
            raw.append(raw_wall)
        return walls, raw

    def op_wall(self, first: int, count: int) -> float:
        """Wall time of one pass, robust to a shift of host speed within a pass.

        The sum, over operations, of each one's median scaled time over
        passes first .. first + count - 1.
        """
        n = len(self.ops)
        return sum(statistics.median(self.latencies[(first + k) * n + i] for k in range(count)) for i in range(n))


def prepare():
    """Unset LATCOH_THREADS, hold numeric libraries to one thread, import latcoh.

    Returns the value LATCOH_THREADS had, and latcoh.cli.
    """
    latcoh_threads = os.environ.pop("LATCOH_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return latcoh_threads, load_latcoh()


def measure(cli, workload, setup_s: float, seconds: float, trace: int, spans: Path) -> dict:
    """Run passes over the workload; return the record of the run.

    The record's "result" is the object the benchmark prints last.
    """
    import tracer as tracing
    from workloads import Mismatch

    runner = Runner(cli, workload.ops, Mismatch)
    record: dict = {"inputs": workload.inputs, "operations_per_pass": len(workload.ops)}
    if trace == 0:
        walls, raw_walls = runner.passes(seconds)
        wall = runner.op_wall(0, len(walls))
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (runner.items / len(walls) / wall, "1/s"),
            "op_p50_ms": (1000 * statistics.median(runner.latencies), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        }
        record["pass_walls_s"], record["raw_pass_walls_s"] = walls, raw_walls
        record["raw_wall_s"] = statistics.median(raw_walls)
        record["raw_op_p50_ms"] = 1000 * statistics.median(runner.raw_latencies)
        record["op_samples"] = len(runner.latencies)
        if len(runner.latencies) >= 100:  # at least ten samples lie beyond the 90th percentile
            record["op_p90_ms"] = 1000 * statistics.quantiles(runner.latencies, n=10)[-1]
    else:
        layers = tracing.load_layers()
        untraced, _raw = runner.passes(seconds / 2)
        tracer = tracing.Tracer(layers)
        refs_before = len(runner.refs)
        tracer.install()
        try:
            traced, _raw = runner.passes(seconds / 2, tracer)
        finally:
            tracer.uninstall()
        units = dict(tracing.metric_names(layers))
        # self times are scaled by the kernel's median over the traced passes
        values = tracer.per_layer(len(traced), REF_SECONDS / statistics.median(runner.refs[refs_before - 1 :]))
        values["trace_overhead"] = runner.op_wall(len(untraced), len(traced)) / runner.op_wall(0, len(untraced)) - 1
        metrics = {name: (values[name], units[name]) for name in units}
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["pass_walls_s"], record["traced_pass_walls_s"] = untraced, traced

    identical = len(runner.digests) == 1
    record.update(
        {
            "reference_kernel_median_s": statistics.median(runner.refs),
            "reference_kernel_nominal_s": REF_SECONDS,
            "stdout_sha256": runner.first_digest,
            "stdout_identical_across_passes": identical,
            "failed_ratio": runner.failed / runner.attempted,
            "failures": runner.failures,
            "result": {
                "correct": runner.wrong == 0 and identical,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }
    )
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        latcoh_threads, cli = prepare()
    except ImportError as exc:
        print("perfbench: cannot import latcoh: %s" % exc, file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.BUILDERS:
        print("perfbench: unknown workload %r; known: %s" % (args.workload, ", ".join(workloads.BUILDERS)), file=sys.stderr)
        return 2

    workload, setup_s = set_up(workloads.BUILDERS[args.workload], args.seed, WORK / args.workload)
    tag = "%s-seed%d" % (args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(latcoh_threads),
    }
    record.update(measure(cli, workload, setup_s, args.seconds, args.trace, WORK / "spans" / (tag + ".jsonl")))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-trace%d.json" % (tag, args.trace))).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    seed_note = "" if workload.seeded else " (fixed inputs: the seed is recorded but not used)"
    print("workload %s seed %d%s" % (args.workload, args.seed, seed_note))
    print("inputs: %s; %d operations per pass" % (workload.inputs, len(workload.ops)))
    print("environment: %s" % json.dumps(record["environment"]))
    print("stdout sha256 %s (identical across passes: %s)" % (record["stdout_sha256"], record["stdout_identical_across_passes"]))
    for what, n in record["failures"].items():
        print("failed x%d: %s" % (n, what))
    result = record["result"]
    print("failed_ratio %.6f (%d of %d)" % (record["failed_ratio"], result["failed"], result["attempted"]))
    if "op_samples" in record:
        print("op latency samples %d over %d passes" % (record["op_samples"], len(record["pass_walls_s"])))
    if "op_p90_ms" in record:
        print("op_p90_ms %.4f ms" % record["op_p90_ms"])
    print(
        "reference kernel median %.4f ms (times scaled to %g ms)"
        % (1000 * record["reference_kernel_median_s"], 1000 * REF_SECONDS)
    )
    if "raw_wall_s" in record:
        print("raw wall_s %.4f s, raw op_p50_ms %.4f ms" % (record["raw_wall_s"], record["raw_op_p50_ms"]))
    for name, m in result["metrics"].items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
