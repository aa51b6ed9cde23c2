"""The four benchmark workloads: inputs from the seed, one timed operation, output checks.

Each workload runs a fixed cycle of operations (ring sizes or README commands)
in a closed loop with one client.  ``inputs(i)`` derives operation ``i``'s
inputs from the workload seed outside the timed region, ``run`` is the timed
operation, and ``check`` verifies its output afterwards, also untimed.  A
workload's ``tag(i)`` is the ring size that per-layer metrics are filed under
(``None`` for the CLI commands, which mix sizes).
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from ghzsense import bounds, cli, measurement, montecarlo, qfim, reparam
from ghzsense.errors import ConvergenceError

import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Documented outcomes of the program that count as failed operations but do
# not make the run's outputs incorrect.
EXPECTED_FAILURES = (ConvergenceError,)


class CheckFailed(Exception):
    """An operation's output did not match the benchmark's independent check."""


class OpFailed(Exception):
    """An operation ended without an output, e.g. a nonzero exit status."""


def child_env(workdir: Path) -> dict:
    """Environment for ghzsense child processes: the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["GHZSENSE_OUTPUT_DIR"] = str(workdir / "out")
    return env


class Workload:
    name = ""
    cycle: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.workdir = workdir
        self.tracer: tracing.Tracer | None = None

    def tag(self, i: int):
        return self.cycle[i % len(self.cycle)]

    def inputs(self, i: int):
        return self.tag(i)

    def run(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> None:
        pass

    def warm_up(self) -> None:
        """One untimed operation of the cheapest kind, as a user's first call."""
        self.run(self.inputs(0))

    def final_check(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _close(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    err = float(np.max(np.abs(got - want), initial=0.0)) / scale
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.3e} exceeds {tol:.0e}")


def gram_forms(directions: np.ndarray, photons: int) -> tuple[np.ndarray, np.ndarray]:
    """QFIM and CFIM from the pair-sum gradient matrix G of a chart.

    Row j of G is the gradient of phi_j + phi_{j+1}; with s the sum of G's
    rows, QFIM = (N^2/2d) G^T G - (N^2/4d^2) s s^T and CFIM = (N^2/4d) G^T G.
    """
    d = directions.shape[0]
    g = directions + np.roll(directions, -1, axis=0)
    s = g.sum(axis=0)
    gram = g.T @ g
    quantum = photons**2 / (2.0 * d) * gram - photons**2 / (4.0 * d * d) * np.outer(s, s)
    classical = photons**2 / (4.0 * d) * gram
    return quantum, classical


class FisherScale(Workload):
    """Fisher and bound pipelines cycling through ring sizes, N = 4."""

    name = "fisher-scale"
    cycle = (16, 64, 256)
    photons = 4
    tol = 1e-12

    def inputs(self, i):
        d = self.tag(i)
        return d, self.rng.uniform(-0.2, 0.2, d)

    def run(self, inputs):
        d, phi = inputs
        n = self.photons
        rep = reparam.build_mc(d)
        chart = rep.chart(True)
        q_original = qfim.qfim_pure(n, d, phi)
        q_reduced = qfim.qfim_pure(n, d, phi, chart)
        c_original = measurement.cfim(n, d, phi)
        c_reduced = reparam.pushforward_fisher(c_original, rep, True)
        rank = qfim.rank_and_nullspace(q_original)
        average = np.zeros(d - 1)
        average[0] = 1.0
        report = bounds.bound_report(q_reduced, average)
        sweep = bounds.heisenberg_sweep([n], [d])
        return chart, q_original, q_reduced, c_original, c_reduced, rank, report, sweep

    def check(self, inputs, output):
        d, _ = inputs
        n = self.photons
        chart, q_original, q_reduced, c_original, c_reduced, rank, report, sweep = output
        q_want, c_want = gram_forms(np.eye(d), n)
        _close(f"qfim original d={d}", q_original.entries, q_want, self.tol)
        _close(f"cfim original d={d}", c_original.entries, c_want, self.tol)
        q_want, c_want = gram_forms(chart.directions, n)
        _close(f"qfim mc d={d}", q_reduced.entries, q_want, self.tol)
        _close(f"cfim mc d={d}", c_reduced.entries, c_want, self.tol)
        if (rank.rank, rank.nullity) != (d - 1, 1):
            raise CheckFailed(f"rank d={d}: {rank.rank} with nullity {rank.nullity}")
        if report.exact_bound is None:
            raise CheckFailed(f"bound d={d}: exact bound unavailable")
        _close(f"average-phase bound d={d}", report.exact_bound, 1.0 / n**2, 1e-9)
        if len(sweep) != 1:
            raise CheckFailed(f"sweep d={d}: {len(sweep)} rows")
        _close(f"sweep d={d}", [sweep[0].qcrb, sweep[0].ccrb], [1.0 / n, 1.0 / n], 1e-9)


# (R - 1) * Var / bound follows chi2(R - 1) for an efficient estimator; the
# band is chi2(199) at 1e-9 and 1 - 1e-9, divided by 199, so that thousands
# of checks raise no false alarm.
SATURATION_BAND = (0.5104718273599903, 1.7228330321438805)


class Saturation(Workload):
    """crb_saturation_experiment alternating d = 8 and d = 64."""

    name = "saturation"
    cycle = (8, 64)
    photons = 2
    shots = 100_000
    replicates = 200
    phase = 0.1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first = None

    def inputs(self, i):
        return self.tag(i), int(self.rng.integers(0, 2**63))

    def run(self, inputs):
        d, seed = inputs
        return montecarlo.crb_saturation_experiment(
            self.photons, d, np.full(d, self.phase), self.shots, self.replicates, seed
        )

    def check(self, inputs, output):
        d, _ = inputs
        if self.first is None:
            self.first = (inputs, output.var_theta1)
        if not np.all(np.isfinite(output.estimates)):
            raise CheckFailed(f"saturation d={d}: non-finite estimates")
        _close(f"saturation bound d={d}", output.bound, 1.0 / (self.photons**2 * self.shots), 1e-9)
        low, high = SATURATION_BAND
        if not low <= output.ratio <= high:
            raise CheckFailed(f"saturation d={d}: ratio {output.ratio:.6g} outside [{low:.4g}, {high:.4g}]")

    def final_check(self):
        """Rerun the first experiment (d = 8, the cheap one) with its seed."""
        if self.first is None:
            return
        inputs, var_theta1 = self.first
        again = self.run(inputs).var_theta1
        if again != var_theta1:
            raise CheckFailed(f"saturation d={inputs[0]}: rerun gave Var {again!r}, first {var_theta1!r}")


class WideRing(Workload):
    """Single-replicate fits alternating d = 128 and d = 256."""

    name = "wide-ring"
    cycle = (128, 256)
    photons = 2
    shots = 100_000
    phase = 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.truth = {}
        for d in self.cycle:
            phi = np.full(d, self.phase)
            theta = reparam.build_mc(d).apply(phi)[1:]
            self.truth[d] = (measurement.outcome_distribution(self.photons, d, phi), theta)

    def inputs(self, i):
        d = self.tag(i)
        root = int(self.rng.integers(0, 2**63))
        child = np.random.SeedSequence(root).generate_state(1, dtype=np.uint64)[0]
        return d, int(child)

    def run(self, inputs):
        d, seed = inputs
        dist, theta = self.truth[d]
        table = montecarlo.sample_counts(dist, self.shots, seed)
        return montecarlo.mle_estimate(table, theta)

    def check(self, inputs, output):
        if not np.all(np.isfinite(output.theta)):
            raise CheckFailed(f"fit d={inputs[0]}: non-finite theta")


class CliReadme(Workload):
    """The seven README commands, each a fresh ``python -m ghzsense.cli`` process."""

    name = "cli-readme"
    commands = (
        "state --N 2 --d 4 --phases 0.1,0.2,0.3,0.4 --output state.json",
        "qfim --N 2 --d 4 --phases uniform:0 --chart original",
        "cfim --N 4 --d 6 --chart mc --output cfim.csv --format csv",
        "transform --d 4 --chart d4-orthogonal --output rep.json",
        "bounds --N 2 --d 4 --chart original --alpha avg",
        "sweep --N 2,4,6 --d 4,6,8 --output sweep.csv --format csv",
        "simulate --N 2 --d 4 --shots 100000 --replicates 200 --seed {seed} --output run.json",
    )
    timeout_s = 120.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        simulate_seed = int(self.rng.integers(0, 2**31))
        self.cycle = tuple(c.format(seed=simulate_seed).split() for c in self.commands)
        self.env = child_env(workdir)
        self.first: dict[str, bytes] = {}
        self.peak_kb = 0

    def tag(self, i):
        return None

    def inputs(self, i):
        return self.cycle[i % len(self.cycle)]

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["transform", "--d", "4"])
        if status != 0:
            raise OpFailed(f"warm-up: exit status {status}")

    def run(self, argv):
        out_dir = self.workdir / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.iterdir():
            stale.unlink()
        stdout_path = self.workdir / "stdout"
        stderr_path = self.workdir / "stderr"
        spans_path = self.workdir / "spans.csv.gz"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ghzsense.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            watchdog = threading.Timer(self.timeout_s, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.tracer is not None and spans_path.exists():
            self._adopt_spans(spans_path)
        if proc.returncode != 0:
            tail = stderr_path.read_bytes()[-300:].decode(errors="replace")
            raise OpFailed(f"{argv[0]}: exit status {proc.returncode}: {tail}")
        blobs = [stdout_path.read_bytes()]
        for path in sorted(out_dir.iterdir()):
            blobs.append(path.name.encode() + b"\0" + path.read_bytes())
        return b"\0\0".join(blobs)

    def _adopt_spans(self, path: Path) -> None:
        offset = len(self.tracer.spans)
        for name, start, end, parent, _, extra in tracing.read_spans(path):
            parent = parent + offset if parent >= 0 else -1
            self.tracer.spans.append((name, start, end, parent, self.tracer.op, extra))
        path.unlink()

    def check(self, argv, output):
        reference = self.first.setdefault(argv[0], output)
        if output != reference:
            raise CheckFailed(f"{argv[0]}: output differs from the first call")

    def peak_rss_kb(self):
        return self.peak_kb


WORKLOADS = {w.name: w for w in (CliReadme, FisherScale, Saturation, WideRing)}
