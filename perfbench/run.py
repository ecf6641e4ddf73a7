"""qrindex benchmark: one workload per process, one thread, one client.

    python3 perfbench/run.py --workload codec-2048 --seed 1 --seconds 10 --trace 0

Each op starts only when the previous one has returned (a closed loop
with one client).  ``--trace 0`` times the workload untraced and reports
the end-to-end metrics; ``--trace 1`` replays a fixed number of ops
untraced and then traced, and reports the per-layer metrics.  Every op
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every op was correct.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from spans import SETUP_SPAN, Tracer, metric_units  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_DIGESTS, WORKLOADS, Digest  # noqa: E402

MAX_ERRORS_SHOWN = 5
MIN_TIMED_OPS = 20

# Calibration.  Other tenants of a shared machine slow every kernel of
# this process alike, for seconds to minutes at a time.  Each timed op
# is therefore also reported scaled by NOMINAL_REF_NS over the time of a
# fixed reference kernel measured around it: "time on a machine where
# the reference kernel takes NOMINAL_REF_NS".  The raw times are in the
# report line as well.
NOMINAL_REF_NS = 300_000
CAL_INTERVAL_S = 0.1
CAL_WINDOW = 5

# Runs in a fresh interpreter: what a command-line user pays before the
# first decode, sample or certification.
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qrindex
t1 = time.perf_counter()
for text in sys.argv[2:]:
    qrindex.parse_factorization(text)
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "parse_ms": (t2 - t1) * 1e3, "file": qrindex.__file__}))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "cal_ops_per_s": "1/s",
    "cal_op_p50_us": "us",
    "cal_op_p90_us": "us",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, wrong import)."""


def import_library() -> tuple[SimpleNamespace, float]:
    """Import qrindex from this checkout's ``src``; return modules and ms."""
    if not (SRC / "qrindex" / "__init__.py").is_file():
        raise SetupError(f"no qrindex source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qrindex
    from qrindex import bruteforce, indexing, mixedradix, numbertheory, sampling

    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if Path(qrindex.__file__).resolve().parent != SRC / "qrindex":
        raise SetupError(f"imported qrindex from {qrindex.__file__}, not from {SRC}")
    qr = SimpleNamespace(
        package=qrindex, indexing=indexing, mixedradix=mixedradix,
        numbertheory=numbertheory, sampling=sampling, bruteforce=bruteforce,
    )
    return qr, elapsed_ms


def measure_setup(workload, repeats: int) -> list[dict]:
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *workload.factor_strings()],
            capture_output=True, text=True, timeout=150,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed:\n{proc.stderr.strip()}")
        child = json.loads(proc.stdout.splitlines()[-1])
        if Path(child["file"]).resolve().parent != SRC / "qrindex":
            raise SetupError(f"set-up process imported {child['file']}")
        runs.append({"wall_s": wall, "import_ms": child["import_ms"], "parse_ms": child["parse_ms"]})
    return runs


class Tally:
    """Failures, the output digest and the latency samples of a run.

    Timed samples go to preallocated arrays, so memory does not grow with
    throughput and a faster program does not read as a bigger one in
    peak_rss_mb; a run ends early if they fill up.  Each sample also
    records the reference-kernel measurement that preceded it.  Figures
    are medians over whole blocks of ``block_ops`` ops, so a burst of
    contention spoils one block, not the run.
    """

    def __init__(self, workload, capacity: int, block_ops: int):
        self.workload = workload
        self.capacity = capacity
        self.block_ops = block_ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = Digest(workload.digest_ops)
        self.timed_ops = 0
        self.lat = {s: array("f", bytes(4 * capacity)) for s in workload.stages}
        self.units = array("I", bytes(4 * capacity))
        self.ref_at = array("H", bytes(2 * capacity))
        self.refs: list[float] = []

    def run(self, x, timed: bool, tracer=None):
        w = self.workload
        self.attempted += 1
        try:
            if tracer is None:
                lat, out, units = w.op(x)
            else:
                lat, out, units = tracer.run_op(self.attempted, w.op, x)
        except Exception as exc:  # every failure is counted, none stops the run
            self.fail(f"{type(exc).__name__}: {exc}")
            self.digest.add("raised")
            return
        problem = w.check(x, out)
        if problem:
            self.fail(problem)
        self.digest.add(w.digest_line(x, out))
        if timed:
            i = self.timed_ops
            for stage, ns in zip(w.stages, lat):
                self.lat[stage][i] = ns / units
            self.units[i] = units
            self.ref_at[i] = len(self.refs) - 1
            self.timed_ops += 1

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)

    def calibrate(self):
        self.refs.append(reference_ns())

    def scales(self) -> list[float]:
        """Per reference point: NOMINAL_REF_NS over the local reference time
        (median of the points up to CAL_WINDOW on either side)."""
        refs = self.refs
        return [
            NOMINAL_REF_NS / statistics.median(refs[max(k - CAL_WINDOW, 0): k + CAL_WINDOW + 1])
            for k in range(len(refs))
        ]

    def _blocks(self, stages, calibrated: bool) -> list[tuple[list[float], array]]:
        """Per-unit ns of each timed op, summed over ``stages``, with the
        ops' units, cut into whole blocks of ``block_ops`` ops."""
        n = self.timed_ops
        values = map(sum, zip(*(self.lat[s][:n] for s in stages)))
        if calibrated:
            scale = self.scales()
            values = (v * scale[k] for v, k in zip(values, self.ref_at[:n]))
        values = list(values)
        size = self.block_ops
        blocks = [(values[i : i + size], self.units[i : i + size]) for i in range(0, n - size + 1, size)]
        return blocks or [(values, self.units[:n])]

    def quantile(self, stage: str | None, q: float, calibrated: bool) -> float:
        """Median over blocks of each block's q-quantile of per-unit ns, for
        one stage or, if None, whole ops."""
        stages = [stage] if stage else self.workload.stages
        return statistics.median(percentile(sorted(v), q) for v, _ in self._blocks(stages, calibrated))

    def ops_per_s(self, calibrated: bool = False) -> float:
        """Median over blocks of units per second of library time."""
        rates = []
        for values, units in self._blocks(self.workload.stages, calibrated):
            ns = sum(v * u for v, u in zip(values, units))
            rates.append(sum(units) / (ns / 1e9) if ns else 0.0)
        return statistics.median(rates)


_REF_MODULUS = (1 << 521) - 1


def reference_ns() -> float:
    """Geometric mean of three fixed kernels' times, the three kinds of
    work the workloads do: a small-int interpreter loop, a 521-bit modular
    exponentiation, and building and sorting a small dict.  About 1.2 ms."""
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(2000):
        s = (s + i * i) % 1000003
    t1 = time.perf_counter_ns()
    pow(3, _REF_MODULUS - 2, _REF_MODULUS)
    t2 = time.perf_counter_ns()
    d = {}
    for i in range(400):
        d[i * 7919 % 10007] = (i, i + 1)
    sorted(d.items())
    t3 = time.perf_counter_ns()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of already sorted values; 0 when there are
    none, which only happens when every op failed."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def run_untraced(workload, seconds: float) -> Tally:
    """Timed ops until ``seconds`` have passed and the last block is whole,
    with the reference kernel timed every CAL_INTERVAL_S in between
    (outside any op's time)."""
    tally = Tally(workload, workload.capacity, workload.block_ops)
    inputs = workload.inputs()
    for _ in range(workload.warmup):
        tally.run(next(inputs), timed=False)
    min_timed = max(workload.digest_ops - workload.warmup, MIN_TIMED_OPS)
    deadline = time.perf_counter() + seconds
    next_ref = 0.0
    while tally.timed_ops < tally.capacity:
        now = time.perf_counter()
        n = tally.attempted - workload.warmup  # failed ops count too
        if now >= deadline and n >= min_timed and n % workload.block_ops == 0:
            break
        if now >= next_ref:
            tally.calibrate()
            next_ref = time.perf_counter() + CAL_INTERVAL_S
        tally.run(next(inputs), timed=True)
    tally.calibrate()
    return tally


def run_passes(workload, tracer) -> tuple[Tally, Tally]:
    """The warm-up ops, then the same ``trace_ops`` ops untraced and traced."""
    passes = []
    for traced in (False, True):
        workload.reset()
        inputs = workload.inputs()
        tally = Tally(workload, workload.trace_ops, workload.trace_ops)
        for _ in range(workload.warmup):
            tally.run(next(inputs), timed=False)
        tally.calibrate()  # one reference point; traced figures stay raw
        if traced:
            tracer.install()
        try:
            for _ in range(workload.trace_ops):
                tally.run(next(inputs), timed=True, tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        passes.append(tally)
    return passes[0], passes[1]


def context(args, workload, tally) -> dict:
    ctx = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loop": "closed, 1 client, 1 thread",
        "op": workload.unit_name,
        "warmup_ops": workload.warmup,
        "timed_ops": tally.timed_ops,
        "block_ops": tally.block_ops,
        "blocks": max(tally.timed_ops // tally.block_ops, 1),
        "reference_points": len(tally.refs),
        "reference_median_ns": statistics.median(tally.refs) if tally.refs else None,
        "nominal_reference_ns": NOMINAL_REF_NS,
    }
    ctx.update(workload.context())
    return ctx


def digest_verdict(workload, tally, seed: int) -> dict:
    got = tally.digest.hexdigest()
    pinned = PINNED_DIGESTS.get(workload.name) if seed == DEFAULT_SEED else None
    return {"ops": workload.digest_ops, "sha256": got, "pinned": pinned, "ok": pinned is None or got == pinned}


def untraced_metrics(args, workload) -> tuple[dict, dict, Tally]:
    qr, _ = import_library()
    setups = measure_setup(workload, workload.setup_repeats)
    workload.prepare(qr)
    tally = run_untraced(workload, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = tally.timed_ops
    report = {
        "setup_s": (statistics.median(s["wall_s"] for s in setups), "s", len(setups)),
        "setup_import_ms": (statistics.median(s["import_ms"] for s in setups), "ms", len(setups)),
        "setup_parse_ms": (statistics.median(s["parse_ms"] for s in setups), "ms", len(setups)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "error_ratio": (tally.failed / tally.attempted, "1", tally.attempted),
    }
    for calibrated, prefix in ((True, "cal_"), (False, "")):
        report[f"{prefix}ops_per_s"] = (tally.ops_per_s(calibrated), "1/s", n)
        for stage in (None, *workload.stages):
            name = f"{prefix}{stage or 'op'}"
            report[f"{name}_p50_us"] = (tally.quantile(stage, 0.5, calibrated) / 1e3, "us", n)
            report[f"{name}_p90_us"] = (tally.quantile(stage, 0.9, calibrated) / 1e3, "us", n)
    if workload.stages == ("draw",):
        # Exact: each draw's ledger was checked against the replayed stream.
        report["bits_per_draw"] = (workload.ledger_bits / workload.ledger_draws, "bits", workload.ledger_draws)
        report["bits_floor_log2_qr"] = (workload.context()["log2_qr"], "bits", 1)
    metrics = {k: report[k][0] for k in END_TO_END_UNITS}
    return metrics, report, tally


def traced_metrics(args, workload) -> tuple[dict, dict, Tally]:
    qr, import_ms = import_library()
    tracer = Tracer(qr)
    tracer.install()
    try:
        tracer.run_op(-1, workload.prepare, qr, root=SETUP_SPAN)
    finally:
        tracer.uninstall()
    plain, traced = run_passes(workload, tracer)
    selfs = tracer.self_times()
    metrics = {"import.qrindex.ms": import_ms, **tracer.layer_metrics(selfs)}
    metrics.update({
        "trace.ops_per_s": traced.ops_per_s(),
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.overhead_ratio": traced.ops_per_s() / plain.ops_per_s(),
    })
    unaccounted = tracer.unaccounted_ns(selfs)
    if unaccounted:
        traced.fail(f"self times miss {unaccounted} ns of traced op time")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.csv.gz"
    tracer.write(spans_path)
    # Both passes count towards the verdict; the digest is the first pass's.
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.errors += traced.errors
    units = metric_units()
    report = {k: (v, units[k], None) for k, v in metrics.items()}
    report["error_ratio"] = (plain.failed / plain.attempted, "1", plain.attempted)
    report["spans_file"] = (str(spans_path.relative_to(ROOT)), None, None)
    return metrics, report, plain


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or 'all' to run each in turn in its own process",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2**64)")  # SeededBitSource's range
    return args


def run_all(args) -> int:
    """Run every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        measure = traced_metrics if args.trace else untraced_metrics
        metrics, report, tally = measure(args, workload)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digest = digest_verdict(workload, tally, args.seed)
    if not digest["ok"]:
        tally.fail(f"output digest {digest['sha256']} differs from the pinned {digest['pinned']}")
    units = metric_units() if args.trace else END_TO_END_UNITS
    correct = tally.failed == 0

    for name, (value, unit, n) in report.items():
        print(f"{workload.name:14} {name:44} {value!s:>24} {unit or '':6} {'' if n is None else f'n={n}'}")
    for message in tally.errors:
        print(f"{workload.name:14} error: {message}")
    print(json.dumps({
        "report": {
            "context": context(args, workload, tally),
            "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()},
            "digest": digest,
            "errors": tally.errors,
        }
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
