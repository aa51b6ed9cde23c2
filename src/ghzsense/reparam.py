"""Linear reparametrizations that isolate the average phase.

The original per-node chart is degenerate for ring-pair states: the
alternating direction (+1, -1, ..., +1, -1) on an even ring changes no pair
sum, so every Fisher matrix in that chart is singular.  The constructions
here move that direction into a single coordinate which can then be dropped,
leaving an invertible problem whose second coordinate is exactly the average
phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .ghz_state import _check_nodes, _float_array
from .qfim import Chart, FisherMatrix, _check_fisher, _read_only, _ring_memo

IDENTITY_TOL = 1e-10


@dataclass(eq=False, frozen=True)
class Reparametrization:
    """Invertible linear change of phase coordinates theta = forward @ phi.

    ``labels`` name the new coordinates with the irrelevant one first, the
    one a reduced chart drops.  Both matrices must be finite and (d, d), d
    the number of labels.  The ``inverse`` field, checked against
    ``forward`` to ``IDENTITY_TOL``, is the one used everywhere in the
    toolkit; for ``mc`` it is the exact integer inverse.  A
    reparametrization is frozen and stores its own read-only copies of both
    matrices, so it and the charts built from it stay valid when shared.
    """

    forward: np.ndarray
    inverse: np.ndarray
    labels: tuple[str, ...]
    name: str
    _charts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        d = len(self.labels)
        if d < 1:
            raise ValidationError("reparametrization needs at least one label")
        for name in ("forward", "inverse"):
            matrix = _float_array(getattr(self, name), f"{name} matrix", (d, d))
            object.__setattr__(self, name, _read_only(matrix))
        residual = float(np.max(np.abs(self.forward @ self.inverse - np.eye(d))))
        if residual > IDENTITY_TOL:
            raise ValidationError(
                f"forward @ inverse deviates from identity by {residual:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.forward.shape[0]

    def apply(self, phases) -> np.ndarray:
        """Map original phases to the new coordinates."""
        return self.forward @ _float_array(phases, "phase vector", (self.dim,))

    def chart(self, drop_irrelevant: bool = False) -> Chart:
        """Chart whose directions are the columns of the inverse matrix.

        With ``drop_irrelevant`` the first column and label are left out.
        Built and validated on first use, then the same object is returned.
        """
        drop = bool(drop_irrelevant)
        chart = self._charts.get(drop)
        if chart is None:
            first = 1 if drop else 0
            chart = Chart(self.name, self.labels[first:], self.inverse[:, first:])
            chart = self._charts.setdefault(drop, chart)
        return chart

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "d": int(self.dim),
            "labels": list(self.labels),
            "kept_indices": list(range(1, self.dim)),
            "forward": [[float(x) for x in row] for row in self.forward],
            "inverse": [[float(x) for x in row] for row in self.inverse],
        }


def build_mc(d: int) -> Reparametrization:
    """Average-phase-first cyclic-difference coordinates for an even ring.

    Row 0 (theta_0, the irrelevant coordinate) is the alternating pattern
    (-1, +1, ..., -1, +1)/d; row 1 (theta_1) is the average (1, ..., 1)/d;
    row i for i >= 2 is the scaled difference (phi_{i-1} - phi_{i+1})/d.
    The transform is not orthogonal.  Its inverse is the exact integer
    matrix: column 0 alternates (-1, +1, ...), column 1 is all ones, and
    column c >= 2, with m = c // 2, is nonzero only on the rows of c's
    parity, holding d - 2m on the first m of them and -2m on the rest.  Its
    column sums are (0, d, 0, ..., 0), which is what decouples theta_1 from
    the remaining coordinates in any Fisher matrix of this chart.  Both
    matrices come from the O(d) maps :func:`_mc_coordinates` and
    :func:`_mc_phases`, so the geometry is stated once.  The result is
    frozen and shared: rings up to ``qfim.RING_MEMO_MAX_NODES`` are built
    once per size.
    """
    _check_nodes(d, 4, even=True)
    return _mc(d)


def _build_mc(d: int) -> Reparametrization:
    alternating = (-1.0) ** np.arange(1, d + 1)
    forward = np.vstack((alternating / d, _mc_coordinates(np.eye(d)).T))
    inverse = np.column_stack((alternating, _mc_phases(np.eye(d - 1)).T))
    return Reparametrization(forward, inverse, _mc_labels(d), "mc")


_mc = _ring_memo(_build_mc)


def _mc_labels(d: int) -> tuple[str, ...]:
    """The names theta_0..theta_{d-1} of the ``mc`` coordinates."""
    return tuple(f"theta_{i}" for i in range(d))


# The maps between phases and the kept mc coordinates theta_1..theta_{d-1}
# (theta_0 = 0), in O(d) per row: the fitter maps one row per table, and
# _build_mc maps the unit vectors to form both matrices.


def _mc_coordinates(phases: np.ndarray) -> np.ndarray:
    """``phases @ build_mc(d).forward[1:].T``.

    theta_1 is the mean phase and theta_r = (phi_{r-2} - phi_r)/d for r >= 2.
    """
    d = phases.shape[1]
    theta = np.empty((phases.shape[0], d - 1))
    theta[:, 0] = phases.sum(axis=1) / d
    theta[:, 1:] = (phases[:, :-2] - phases[:, 2:]) / d
    return theta


def _mc_coordinates_adjoint(alpha: np.ndarray) -> np.ndarray:
    """``d * alpha @ build_mc(d).forward[1:]``: d times the adjoint of :func:`_mc_coordinates`.

    ``alpha`` is one weight on theta_1..theta_{d-1}.  Entry k (node phi_k)
    is the weight of theta_1, the mean, plus that of theta_{k+2} and minus
    that of theta_k, the scaled differences phi_k enters, where they exist;
    the factor d keeps integer weights exact.
    """
    d = alpha.shape[0] + 1
    u = np.full(d, float(alpha[0]))
    u[:-2] += alpha[1:]
    u[2:] -= alpha[1:]
    return u


def _mc_phases(theta: np.ndarray) -> np.ndarray:
    """``theta @ build_mc(d).inverse[:, 1:].T``: the phases with theta_0 = 0.

    Each parity class of nodes is a chain phi_r = phi_{r-2} - d theta_r, a
    cumulative sum; theta_0 = 0 and theta_1 put the mean of both chains at
    theta_1.  Axis 2 of ``chains`` is the parity.  With S a chain's sum,
    d (S/(d/2) - c) is written 2 S - d c, which is exact on integer input.
    """
    rows, d = theta.shape[0], theta.shape[1] + 1
    chains = np.zeros((rows, d // 2, 2))
    theta[:, 1:].reshape(rows, -1, 2).cumsum(axis=1, out=chains[:, 1:])
    chains = 2.0 * chains.sum(axis=1, keepdims=True) - d * chains
    return (theta[:, :1, None] + chains).reshape(rows, d)


def _mc_pair_pullback(pair_grad: np.ndarray) -> np.ndarray:
    """``pair_grad @ G``, G the pair-sum gradients of J = ``build_mc(d).inverse[:, 1:]``.

    The transpose of the pair sums of :func:`_mc_phases`: each node collects
    the gradients of its two pairs, and each parity chain's adjoint is a
    reverse cumulative sum of its centred node gradients.
    """
    rows, d = pair_grad.shape
    node_grad = pair_grad + np.concatenate((pair_grad[:, -1:], pair_grad[:, :-1]), axis=1)
    chains = node_grad.reshape(rows, d // 2, 2)
    centred = chains - chains.sum(axis=1, keepdims=True) / (d // 2)
    grad = np.empty((rows, d - 1))
    grad[:, 0] = node_grad.sum(axis=1)
    grad[:, 1:] = (-d * centred[:, :0:-1].cumsum(axis=1)[:, ::-1]).reshape(rows, d - 2)
    return grad


def build_orthogonal_d4() -> Reparametrization:
    """Orthogonal 4-node chart (phi_0, phi_a, phi_b, phi_c).

    phi_a is the sum of all four phases over 2, so the average phase is
    phi_a / 2; phi_0 carries the alternating direction.  The matrix is its
    own transpose-inverse.
    """
    forward = 0.5 * np.array(
        [
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    labels = ("phi_0", "phi_a", "phi_b", "phi_c")
    return Reparametrization(forward, forward.T.copy(), labels, "d4-orthogonal")


@dataclass
class InverseCheckReport:
    """The literal closed-form inverse against the exact one, ``build_mc(d).inverse``.

    ``numerical`` is that read-only inverse itself, not a copy.  A column
    matches when it is within 1e-12 of the exact one in every entry.
    """

    closed_form: np.ndarray
    numerical: np.ndarray

    @property
    def nodes(self) -> int:
        return self.numerical.shape[0]

    @property
    def _column_gap(self) -> np.ndarray:
        return np.abs(self.closed_form - self.numerical).max(axis=0)

    @property
    def max_abs_discrepancy(self) -> float:
        return float(self._column_gap.max())

    @property
    def matching_columns(self) -> tuple[int, ...]:
        return tuple(int(col) for col in np.flatnonzero(self._column_gap <= 1e-12))


def closed_form_inverse_check(d: int) -> InverseCheckReport:
    """Evaluate the published-style closed-form inverse and report deviations.

    The closed form uses a modified step function H with H(x) = 1 for x >= 0,
    which makes both step terms fire on the diagonal of the difference block;
    it is evaluated literally here and compared against the exact integer
    inverse of :func:`build_mc`, which is authoritative throughout the toolkit.

    With nodes i, j = 1..d, column 1 is (-1)^i, column 2 is all ones, and
    column j >= 3 is zero off j's parity; on it, with
    offset = j - 2 + [i even], the entry is
    d * (H(j - i) (1 - offset/d) - H(i - j) offset/d).  Each parity block
    is formed at once: above its diagonal only the head term fires, below
    it only the tail term, on it both.
    """
    return _closed_form_inverse_check(build_mc(d))


def _closed_form_inverse_check(rep: Reparametrization) -> InverseCheckReport:
    """:func:`closed_form_inverse_check` against ``rep``, an already built ``mc``."""
    d = rep.dim
    closed = np.zeros((d, d))
    above = np.triu(np.ones((d // 2, d // 2), dtype=bool), 1)
    for first in (0, 1):  # the block of odd nodes, then of even nodes
        offset = np.arange(first + 1, d + 1, 2) - 2 + first
        head, tail = 1.0 - offset / d, offset / d
        block = np.where(above, d * head, -d * tail)
        np.fill_diagonal(block, d * (head - tail))
        closed[first::2, first::2] = block
    closed[:, 0] = (-1.0) ** np.arange(1, d + 1)
    closed[:, 1] = 1.0
    return InverseCheckReport(closed, rep.inverse)


def pushforward_fisher(
    matrix: FisherMatrix, rep: Reparametrization, drop_irrelevant: bool = False
) -> FisherMatrix:
    """Re-express a Fisher matrix in the coordinates of ``rep``.

    With J the directions of ``rep.chart(drop_irrelevant)``, the columns of
    the inverse matrix that the chart keeps, the pushed matrix is
    0.5 * (P + P^T) with P = (J^T F) J, so it is exactly symmetric.  Only
    the kept block is formed: dropping the irrelevant coordinate removes its
    (identically zero) row and column before the product, not after.  That
    block equals the corresponding block of the full product up to the
    summation order of the matrix products, a few units in the last place.
    The CLI and the sweep form reduced matrices in ``rep.chart(True)``
    itself; this route stays as a library function and an independent check.
    ``matrix`` must be over a node chart: its chart's directions must equal
    the d x d identity, compared by value.
    """
    _check_fisher(matrix)
    if not isinstance(rep, Reparametrization):
        raise ValidationError(f"rep must be a Reparametrization, got {type(rep).__name__}")
    if not matrix.chart._is_node_chart:
        raise ValidationError(
            "matrix must be over the node chart, whose directions are the identity; "
            f"got chart {matrix.chart.name!r}"
        )
    if matrix.dim != rep.dim:
        raise ValidationError(
            f"matrix dimension {matrix.dim} does not match reparametrization "
            f"dimension {rep.dim}"
        )
    chart = rep.chart(drop_irrelevant)
    jac = chart.directions
    pushed = jac.T @ matrix.entries @ jac
    np.add(pushed, pushed.T, out=pushed)
    pushed *= 0.5
    return FisherMatrix(pushed, matrix.kind, chart, matrix.photons)
