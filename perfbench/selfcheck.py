"""Self-check of the benchmark: output checks, workload isolation, exact repeat of counts.

Run from the repository root:

    python3 perfbench/selfcheck.py

It exits 0 when every check holds and 1 otherwise, after about two minutes.
"""

from __future__ import annotations

import shutil
import sys
import types

import numpy as np

import run as bench

bench.cap_blas_threads()
sys.path.insert(0, str(bench.SRC))

from ghzsense.errors import ConvergenceError  # noqa: E402

import workloads as wl  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        PROBLEMS.append(what)


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except wl.CheckFailed:
        return True
    return False


def check_the_checks(workdir) -> None:
    fisher = wl.FisherScale(1, workdir)
    inputs = fisher.inputs(0)
    output = fisher.run(inputs)
    expect(not rejects(fisher.check, inputs, output), "fisher-scale check accepts a true pipeline")
    output[1].entries[0, 0] *= 1 + 1e-9
    expect(rejects(fisher.check, inputs, output), "fisher-scale check rejects a QFIM off by 1e-9")

    saturation = wl.Saturation(1, workdir)
    bound = 1.0 / (saturation.photons**2 * saturation.shots)
    for ratio, accepted in ((1.0, True), (2.0, False), (0.3, False)):
        report = types.SimpleNamespace(estimates=np.zeros((50, 7)), bound=bound, ratio=ratio, var_theta1=ratio * bound)
        verdict = not rejects(saturation.check, (8, 0), report)
        expect(verdict == accepted, f"saturation check {'accepts' if accepted else 'rejects'} ratio {ratio}")
    report = types.SimpleNamespace(estimates=np.full((50, 7), np.nan), bound=bound, ratio=1.0, var_theta1=bound)
    expect(rejects(saturation.check, (8, 0), report), "saturation check rejects non-finite estimates")

    wide = wl.WideRing(1, workdir)
    fit = types.SimpleNamespace(theta=np.array([0.1, np.inf]))
    expect(rejects(wide.check, (128, 0), fit), "wide-ring check rejects a non-finite theta")

    cli = wl.CliReadme(1, workdir)
    argv = cli.inputs(0)
    cli.check(argv, b"first")
    expect(rejects(cli.check, argv, b"second"), "cli-readme check rejects output that differs from the first call")


class Stub(wl.Workload):
    """Two operations per cycle: one raises a documented error, one fails its check."""

    cycle = (1, 2)

    def run(self, d):
        if d == 1:
            raise ConvergenceError("documented non-convergence")
        return d

    def check(self, d, output):
        raise wl.CheckFailed("wrong output")


def check_failure_accounting(workdir) -> None:
    records, _ = bench.run_phase(Stub(0, workdir), 0.0)
    expect(len(records) == 2, "run_phase stops after one whole cycle once the time is spent")
    expect(records[0].failure[0] == "ConvergenceError" and records[0].expected,
           "a documented ConvergenceError counts as an expected failure")
    expect(records[1].failure[0] == "CheckFailed" and not records[1].expected,
           "a failed output check counts as an unexpected failure")


def traced(name: str, workdir) -> dict:
    outcome = bench.measure(name, 7, 0.001, True, workdir)
    expect(outcome["result"]["correct"], f"{name}: traced run is correct")
    return {k: v["value"] for k, v in outcome["result"]["metrics"].items()}


def total(metrics: dict, prefix: str) -> float:
    return sum(metrics[f"{prefix}.d{d}"] for d in bench.TAGS)


def check_traced_runs(workdir) -> None:
    units = bench.per_layer_units()
    exact = [k for k, unit in units.items() if unit in ("count/op", "ratio") and not k.startswith("trace.")]
    for name in ("fisher-scale", "saturation", "wide-ring"):
        first, second = traced(name, workdir), traced(name, workdir)
        expect(set(first) == set(units), f"{name}: reports every per-layer metric")
        differing = [k for k in exact if first[k] != second[k]]
        expect(not differing, f"{name}: counts repeat exactly from run to run {differing[:3]}")
        if name == "fisher-scale":
            expect(total(first, "montecarlo.mle_estimate.calls") == 0, f"{name}: montecarlo.mle_estimate is never called")
            expect(first["qfim.qfim_pure.calls.d256"] == 3, f"{name}: three qfim_pure calls per d=256 pipeline")
        else:
            expect(total(first, "qfim.qfim_pure.calls") == 0, f"{name}: qfim.qfim_pure is never called")
            expect(total(first, "montecarlo.mle_estimate.calls") > 0, f"{name}: fits are traced")
    cli = traced("cli-readme", workdir)
    expect(cli["cli.main.calls"] == 1.0, "cli-readme: one cli.main call per command")
    expect(cli["cli.main.self_s"] > 0, "cli-readme: cli.main self time is measured")


def main() -> int:
    bench.WORK.mkdir(exist_ok=True)
    workdir = bench.WORK / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        check_the_checks(workdir)
        check_failure_accounting(workdir)
        check_traced_runs(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "all self-checks hold")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
