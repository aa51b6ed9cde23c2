"""ghzsense benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload fisher-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The first form prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics of the
traced run plus the tracing overhead.  ``--workload all`` runs each workload
in its own process and prints every end-to-end metric in one table.

Load is one client in a closed loop: one operation at a time, no think time.
A run repeats whole cycles of its workload until the operations' summed
latency reaches ``--seconds``.  Output checks run between operations and are
not timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cli-readme", "fisher-scale", "saturation", "wide-ring")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
TAGS = (8, 16, 64, 128, 256)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Per-layer metrics reported per operation at each ring size in TAGS (0 where
# a workload runs no operation at that size).
KERNEL_METRICS = {
    "ghz_state.self_s": "s/op",
    "ghz_state.calls": "count/op",
    "ghz_state.inner_product.calls": "count/op",
    "ghz_state.directional_state_derivative.calls": "count/op",
    "qfim.qfim_pure.self_s": "s/op",
    "qfim.qfim_pure.calls": "count/op",
    "qfim.rank_and_nullspace.self_s": "s/op",
    "measurement.self_s": "s/op",
    "measurement.outcome_distribution.calls": "count/op",
    "reparam.build_mc.calls": "count/op",
    "reparam.build_mc.self_s": "s/op",
    "reparam.build_mc.per_fit": "ratio",
    "reparam.pushforward_fisher.self_s": "s/op",
    "bounds.self_s": "s/op",
    "bounds.exact_crb.calls": "count/op",
    "montecarlo.sample_counts.self_s": "s/op",
    "montecarlo.mle_estimate.self_s": "s/op",
    "montecarlo.minimize_s": "s/op",
    "montecarlo.mle_estimate.calls": "count/op",
    "montecarlo.fit_iterations": "count/op",
    "montecarlo.fit_failed": "count/op",
    "montecarlo.fit_ok_ratio": "ratio",
}
OTHER_LAYER_METRICS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.interpreter_s": "s",
    "cli.main.self_s": "s/op",
    "cli.main.calls": "count/op",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.d{d}": unit for name, unit in KERNEL_METRICS.items() for d in TAGS}
    units.update(OTHER_LAYER_METRICS)
    return units


def cap_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def timed_child(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:])} exited with status {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-500:]}"
        )
    return elapsed, proc


class Record:
    """One operation: ring-size tag, latency, and ``(kind, message)`` if it failed."""

    __slots__ = ("tag", "latency", "failure", "expected")

    def __init__(self, tag, latency, failure, expected):
        self.tag = tag
        self.latency = latency
        self.failure = failure
        self.expected = expected


def run_phase(workload, seconds: float, tracer=None) -> tuple[list[Record], float]:
    """Closed loop over whole cycles until the summed latency reaches ``seconds``."""
    from workloads import EXPECTED_FAILURES, CheckFailed

    records: list[Record] = []
    busy = 0.0
    cycle = len(workload.cycle)
    i = 0
    while True:
        inputs = workload.inputs(i)
        output = failure = None
        expected = False
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            output = workload.run(inputs)
        except EXPECTED_FAILURES as exc:
            failure, expected = exc, True
        except Exception as exc:  # any other error fails this operation only
            failure = exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if failure is None:
            try:
                workload.check(inputs, output)
            except CheckFailed as exc:
                failure = exc
        if failure is not None:
            # Keep no exception object: its traceback would pin the frames' arrays.
            failure = (type(failure).__name__, str(failure))
        records.append(Record(workload.tag(i), latency, failure, expected))
        busy += latency
        i += 1
        if i % cycle == 0 and busy >= seconds:
            return records, busy


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, if above the median."""
    n = len(latencies)
    rank = n - TAIL_BEYOND
    if rank <= n / 2:
        return None
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def import_metrics(env: dict) -> dict[str, float]:
    python = sys.executable
    interpreter = [timed_child([python, "-c", "pass"], env)[0] for _ in range(IMPORT_REPEATS)]
    total = []
    script = "import time; t = time.perf_counter(); import ghzsense; print(time.perf_counter() - t)"
    for _ in range(IMPORT_REPEATS):
        total.append(float(timed_child([python, "-c", script], env)[1].stdout))
    scipy = []
    for _ in range(IMPORT_REPEATS):
        _, proc = timed_child([python, "-X", "importtime", "-c", "import ghzsense"], env)
        micros = 0
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                if parts[2].strip().split(".")[0] == "scipy":
                    micros += int(parts[0].split(":")[1])
        scipy.append(micros / 1e6)
    return {
        "import.total_s": statistics.median(total),
        "import.scipy_s": statistics.median(scipy),
        "import.interpreter_s": statistics.median(interpreter),
    }


def _sum(rows: dict, column: int, name: str = "", layer: str = "") -> float:
    """Sum one span-total column over the span ``name`` or every span of ``layer``."""
    return sum(row[column] for key, row in rows.items() if key == name or (layer and key.startswith(layer + ".")))


def layer_metrics(spans, records: list[Record]) -> dict[str, float]:
    """Per-layer metrics of a traced phase: per operation at each ring size, plus the CLI's."""
    from tracer import CALLS, FAILURES, ITERATIONS, MINIMIZE, SELF, TOTAL, span_totals

    tags = [r.tag for r in records]
    by_tag: dict[object, dict[str, list]] = {}
    for (op, name), row in span_totals(spans).items():
        total = by_tag.setdefault(tags[op], {}).setdefault(name, [0] * len(row))
        for column, value in enumerate(row):
            total[column] += value
    out: dict[str, float] = {}
    for d in TAGS:
        ops = tags.count(d)
        rows = by_tag.get(d, {})
        fits = _sum(rows, CALLS, "montecarlo.mle_estimate")
        failed = _sum(rows, FAILURES, "montecarlo.mle_estimate")
        per_op = {
            "ghz_state.self_s": _sum(rows, SELF, layer="ghz_state"),
            "ghz_state.calls": _sum(rows, CALLS, layer="ghz_state"),
            "ghz_state.inner_product.calls": _sum(rows, CALLS, "ghz_state.inner_product"),
            "ghz_state.directional_state_derivative.calls": _sum(rows, CALLS, "ghz_state.directional_state_derivative"),
            "qfim.qfim_pure.self_s": _sum(rows, SELF, "qfim.qfim_pure"),
            "qfim.qfim_pure.calls": _sum(rows, CALLS, "qfim.qfim_pure"),
            "qfim.rank_and_nullspace.self_s": _sum(rows, SELF, "qfim.rank_and_nullspace"),
            "measurement.self_s": _sum(rows, SELF, layer="measurement"),
            "measurement.outcome_distribution.calls": _sum(rows, CALLS, "measurement.outcome_distribution"),
            "reparam.build_mc.calls": _sum(rows, CALLS, "reparam.build_mc"),
            "reparam.build_mc.self_s": _sum(rows, SELF, "reparam.build_mc"),
            "reparam.pushforward_fisher.self_s": _sum(rows, SELF, "reparam.pushforward_fisher"),
            "bounds.self_s": _sum(rows, SELF, layer="bounds"),
            "bounds.exact_crb.calls": _sum(rows, CALLS, "bounds.exact_crb"),
            "montecarlo.sample_counts.self_s": _sum(rows, SELF, "montecarlo.sample_counts"),
            "montecarlo.mle_estimate.self_s": _sum(rows, SELF, "montecarlo.mle_estimate"),
            "montecarlo.minimize_s": _sum(rows, TOTAL, MINIMIZE),
            "montecarlo.mle_estimate.calls": fits,
            "montecarlo.fit_iterations": _sum(rows, ITERATIONS, "montecarlo.mle_estimate"),
            "montecarlo.fit_failed": failed,
        }
        for name, value in per_op.items():
            out[f"{name}.d{d}"] = value / ops if ops else 0.0
        out[f"reparam.build_mc.per_fit.d{d}"] = _sum(rows, CALLS, "reparam.build_mc") / fits if fits else 0.0
        out[f"montecarlo.fit_ok_ratio.d{d}"] = (fits - failed) / fits if fits else 0.0
    commands = tags.count(None)
    rows = by_tag.get(None, {})
    out["cli.main.self_s"] = _sum(rows, SELF, layer="cli") / commands if commands else 0.0
    out["cli.main.calls"] = _sum(rows, CALLS, "cli.main") / commands if commands else 0.0
    return out


def provenance(args) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() == "Unified":
                caches[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": NPROC,
        "cpu": cpu,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "blas_threads": NPROC,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object plus a full report."""
    from tracer import Tracer
    from workloads import WORKLOADS, child_env

    env = child_env(workdir)
    probe = [sys.executable, str(HERE / "probe.py"), workload_name, str(seed), str(workdir)]
    setup = [timed_child(probe, env)[0] for _ in range(SETUP_REPEATS)]

    workload = WORKLOADS[workload_name](seed, workdir)
    workload.warm_up()
    records, busy = run_phase(workload, seconds)
    traced: list[Record] = []
    report = {"setup_s": statistics.median(setup), "setup_runs_s": setup}
    if trace:
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install()
        try:
            traced, traced_busy = run_phase(workload, seconds, tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        spans_path = WORK / f"spans-{workload_name}-seed{seed}.csv.gz"
        tracer.write(spans_path)
        layers = layer_metrics(tracer.spans, traced)
        layers.update(import_metrics(env))
        layers["trace.ops_per_s_untraced"] = len(records) / busy
        layers["trace.ops_per_s_traced"] = len(traced) / traced_busy
        layers["trace.overhead"] = layers["trace.ops_per_s_untraced"] / layers["trace.ops_per_s_traced"]
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["spans"] = len(tracer.spans)

    failures = [r for r in records + traced if r.failure is not None]
    unexpected = [": ".join(r.failure) for r in failures if not r.expected]
    try:
        workload.final_check()
    except Exception as exc:  # reported as an incorrect run, not a crash
        unexpected.append(f"final check: {exc}")

    latencies = [r.latency for r in records]
    n = len(records)
    failed = sum(1 for r in records if r.failure is not None)
    report.update(
        ops=n,
        timed_s=busy,
        ops_per_s=n / busy,
        op_p50_s=statistics.median(latencies),
        fail_frac=failed / n,
        ok_frac=(n - failed) / n,
        peak_rss_mb=workload.peak_rss_kb() / 1024.0,
        expected_failures=sorted({r.failure[0] for r in failures if r.expected}),
        unexpected_failures=unexpected[:5],
    )
    tail_point = tail(latencies)
    if tail_point is not None:
        report["op_tail_s"] = tail_point[1]
        report["op_tail_percentile"] = tail_point[0]
    if trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": not unexpected,
        "attempted": len(records) + len(traced),
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"result": result, "report": report}


def print_report(name: str, report: dict) -> None:
    print(f"{name}: {report['ops']} operations in {report['timed_s']:.3f} s of timed work")
    for metric, unit in END_TO_END.items():
        print(f"  {metric:<12} {report[metric]:.6g} {unit}")
    print(f"  {'op_p50_s':<12} {report['op_p50_s']:.6g} s")
    if "op_tail_s" in report:
        print(f"  {'op_tail_s':<12} {report['op_tail_s']:.6g} s at p{report['op_tail_percentile']:.1f} (n={report['ops']})")
    else:
        print(f"  {'op_tail_s':<12} omitted: with n={report['ops']} no percentile above the median has {TAIL_BEYOND} samples beyond it")
    print(f"  {'fail_frac':<12} {report['fail_frac']:.6g} ({', '.join(report['expected_failures']) or 'no expected failures'})")
    for failure in report["unexpected_failures"]:
        print(f"  UNEXPECTED   {failure}")


def run_all(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
            return 1
        line = next(l for l in proc.stdout.splitlines() if l.startswith("report: "))
        rows.append((name, json.loads(line[len("report: "):])))
    for name, report in rows:
        print_report(name, report)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.seed >= 0 and math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "ghzsense" / "__init__.py").is_file():
        print(f"error: no ghzsense package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = outcome["report"]
    print(f"provenance: {json.dumps(provenance(args), sort_keys=True)}")
    print_report(args.workload, report)
    print(f"report: {json.dumps(report, sort_keys=True)}")
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
