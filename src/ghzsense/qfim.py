"""Quantum Fisher information matrices for the ring-pair entangled states.

For a pure state |psi(p)> with derivative states |d_m psi> taken along the
directions of a parameter chart, the information matrix is

    F[m, n] = 4 * Re( <d_m psi|d_n psi> - <d_m psi|psi><psi|d_n psi> ).

For the imprinted ring state every one of the 2d amplitudes is 1/sqrt(2d),
and differentiating along chart direction m scales the vertical ket of pair j
by i*(N/2)*G[j, m], where G is the pair-sum gradient matrix (row j is the
gradient of x_j = phi_j + phi_{j+1}).  So <d_m psi|d_n psi> = (N^2/8d) (G^T G)
and <d_m psi|psi> = -i (N/4d) s_m with s the sum of the rows of G, giving the
Gram form

    F = (N^2 / 2d) * G^T G - (N^2 / 4d^2) * s s^T.

It holds in every linear chart and is independent of the phases at which it
is evaluated; the evaluation point is still recorded on the result for
provenance.  The closed form and the finite-difference oracle below are
computed independently of G, as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ghz_state import (
    _check_counts,
    apply_phases,
    build_input_state,
    ket_labels,
    phase_vector,
)

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9


@dataclass(eq=False)
class Chart:
    """Parameter chart: named directions in phase space.

    ``directions`` has shape (d, k); column m is the phase-space velocity
    d(phi)/d(param_m).  The original chart uses the standard basis.  Charts
    for transformed parameter sets are produced by reparametrizations (see
    :mod:`ghzsense.reparam`), whose inverse-matrix columns supply the
    directions.
    """

    name: str
    labels: tuple[str, ...]
    directions: np.ndarray

    def __post_init__(self):
        self.labels = tuple(str(s) for s in self.labels)
        self.directions = np.asarray(self.directions, dtype=float)
        if self.directions.ndim != 2:
            raise ValidationError("chart directions must be a 2-D array")
        d, k = self.directions.shape
        if k != len(self.labels) or k < 1:
            raise ValidationError(
                f"chart has {len(self.labels)} labels but {k} direction columns"
            )
        if not np.all(np.isfinite(self.directions)):
            raise ValidationError("chart directions must be finite")
        if np.linalg.matrix_rank(self.directions) != k:
            raise ValidationError(
                "chart directions must be linearly independent columns"
            )

    @property
    def nodes(self) -> int:
        return self.directions.shape[0]

    @property
    def size(self) -> int:
        return self.directions.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "directions": [[float(x) for x in row] for row in self.directions],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "Chart":
        return cls(doc["name"], tuple(doc["labels"]), np.array(doc["directions"]))


def original_chart(d: int) -> Chart:
    """Standard per-node phase chart phi_1..phi_d."""
    labels = tuple(f"phi_{i}" for i in range(1, d + 1))
    return Chart("original", labels, np.eye(d))


@dataclass(eq=False)
class FisherMatrix:
    """Symmetric positive-semidefinite information matrix tied to a chart."""

    entries: np.ndarray
    kind: str
    chart: Chart
    photons: int
    nodes: int
    phases: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ValidationError(f"kind must be 'quantum' or 'classical', got {self.kind!r}")
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValidationError("Fisher matrix entries must be square")
        if self.entries.shape[0] != self.chart.size:
            raise ValidationError(
                f"matrix dimension {self.entries.shape[0]} does not match "
                f"chart parameter count {self.chart.size}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValidationError("Fisher matrix entries must be finite")
        asym = float(np.max(np.abs(self.entries - self.entries.T), initial=0.0))
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"Fisher matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        smallest = float(np.linalg.eigvalsh(self.entries)[0])
        if smallest < -PSD_TOL:
            raise ValidationError(
                f"Fisher matrix has negative eigenvalue {smallest:.3e} < -{PSD_TOL}"
            )
        if self.phases is not None:
            self.phases = phase_vector(self.phases, self.nodes)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass
class RankReport:
    """Numerical rank and an orthonormal null-space basis (columns)."""

    rank: int
    null_basis: np.ndarray
    tolerance: float

    @property
    def nullity(self) -> int:
        return self.null_basis.shape[1]


def _entries_of(matrix) -> np.ndarray:
    if isinstance(matrix, FisherMatrix):
        return matrix.entries
    return np.asarray(matrix, dtype=float)


def _directions_for(d: int, chart: Chart | None) -> tuple[Chart, np.ndarray]:
    chart = chart if chart is not None else original_chart(d)
    if chart.nodes != d:
        raise ValidationError(
            f"chart is over {chart.nodes} nodes but the state has {d}"
        )
    return chart, chart.directions


def pair_sum_gradients(d: int, chart: Chart | None = None) -> np.ndarray:
    """Rows are grad of x_j = phi_j + phi_{j+1} with respect to chart params."""
    chart, directions = _directions_for(d, chart)
    return directions + np.roll(directions, -1, axis=0)


def qfim_pure(photons: int, nodes: int, phases, chart: Chart | None = None) -> FisherMatrix:
    """Quantum Fisher information of the imprinted state in a given chart.

    Evaluates the Gram form (N^2/2d) G^T G - (N^2/4d^2) s s^T, where G is
    :func:`pair_sum_gradients` of the chart and s is the sum of its rows
    (see the module docstring for the derivation).
    """
    phi = phase_vector(phases, nodes)
    chart, _ = _directions_for(nodes, chart)
    _check_counts(photons, nodes)
    grads = pair_sum_gradients(nodes, chart)
    sums = grads.sum(axis=0)
    entries = (photons**2 / (2.0 * nodes)) * (grads.T @ grads) - (
        photons**2 / (4.0 * nodes**2)
    ) * np.outer(sums, sums)
    return FisherMatrix(entries, "quantum", chart, photons, nodes, phi)


def qfim_closed_form_original(photons: int, nodes: int) -> FisherMatrix:
    """Closed-form original-chart quantum Fisher matrix.

    Entrywise, in units of N^2/d^2: diagonal d-1, cyclically adjacent
    d/2 - 1, all remaining entries -1.  Valid for any d >= 3 (for d = 3 every
    off-diagonal pair is cyclically adjacent).  Independent of the phases.
    """
    _check_counts(photons, nodes)
    d = nodes
    scale = photons**2 / d**2
    offset = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    distance = np.minimum(offset, d - offset)
    units = np.where(distance == 0, d - 1, np.where(distance == 1, d / 2 - 1, -1.0))
    return FisherMatrix(scale * units, "quantum", original_chart(d), photons, nodes, None)


def rank_and_nullspace(matrix, tol: float = 1e-9) -> RankReport:
    """Numerical rank and orthonormal null basis of a symmetric matrix via SVD."""
    m = _entries_of(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("rank analysis requires a square matrix")
    scale = float(np.max(np.abs(m), initial=0.0))
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-10 * max(1.0, scale):
        raise ValidationError("rank analysis requires a symmetric matrix")
    _, singular, vt = np.linalg.svd(m)
    if singular.size == 0 or singular[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(singular > tol * singular[0]))
    return RankReport(rank, vt[rank:].T.copy(), float(tol))


def _dense(state, labels) -> np.ndarray:
    return np.array([state.amplitude(label) for label in labels], dtype=complex)


def qfim_finite_difference_oracle(
    photons: int, nodes: int, phases, chart: Chart | None = None, step: float = 1e-6
) -> FisherMatrix:
    """Independent cross-check: derivative states by central differences.

    Never calls the analytic derivative; each chart direction is probed by
    re-imprinting the input state at phases +/- step along the direction.
    """
    if not 0 < step < 1e-2:
        raise ValidationError(f"finite-difference step must be in (0, 1e-2), got {step}")
    phi = phase_vector(phases, nodes)
    chart, directions = _directions_for(nodes, chart)
    labels = ket_labels(nodes)
    base = build_input_state(photons, nodes)
    psi = _dense(apply_phases(base, phi), labels)
    derivs = []
    for m in range(chart.size):
        shift = step * directions[:, m]
        plus = _dense(apply_phases(base, phi + shift), labels)
        minus = _dense(apply_phases(base, phi - shift), labels)
        derivs.append((plus - minus) / (2.0 * step))
    k = chart.size
    entries = np.empty((k, k))
    for m in range(k):
        for n in range(m, k):
            gram = np.vdot(derivs[m], derivs[n])
            overlap_m = np.vdot(derivs[m], psi)
            overlap_n = np.vdot(psi, derivs[n])
            value = 4.0 * (gram - overlap_m * overlap_n).real
            entries[m, n] = value
            entries[n, m] = value
    return FisherMatrix(entries, "quantum", chart, photons, nodes, phi)


def matrix_to_csv(matrix) -> str:
    """Row-major CSV with 17 significant digits per entry."""
    m = _entries_of(matrix)
    lines = [",".join(f"{x:.17g}" for x in row) for row in m]
    return "\n".join(lines) + "\n"


def matrix_to_json_dict(matrix: FisherMatrix) -> dict:
    return {
        "kind": matrix.kind,
        "N": int(matrix.photons),
        "d": int(matrix.nodes),
        "phases": None if matrix.phases is None else [float(x) for x in matrix.phases],
        "chart": matrix.chart.to_json_dict(),
        "entries": [[float(x) for x in row] for row in matrix.entries],
    }


def matrix_from_json_dict(doc) -> FisherMatrix:
    try:
        chart = Chart.from_json_dict(doc["chart"])
        phases = doc["phases"]
        return FisherMatrix(
            np.array(doc["entries"], dtype=float),
            str(doc["kind"]),
            chart,
            int(doc["N"]),
            int(doc["d"]),
            None if phases is None else np.array(phases, dtype=float),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed matrix document: {exc}") from exc
