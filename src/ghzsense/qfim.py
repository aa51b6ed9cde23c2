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
is evaluated, so a matrix holds no phases.  Each chart therefore keeps the
validated matrices of the most recent photon number it was asked for, and a
repeated (chart, N) call forms and validates nothing; it only copies the
kept entries.  The closed form and the finite-difference oracle below are
computed independently of G, as cross-checks.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .ghz_state import (
    _check_counts, _check_nodes, _float_array, _pair_sums, apply_phases, build_input_state,
    phase_vector,
)

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-9
# The one singularity rule: an eigenvalue at most RANK_RTOL times the largest
# counts as zero, in rank_and_nullspace and in ghzsense.bounds.exact_crb alike.
RANK_RTOL = 1e-9
_ORACLE_STEP = 1e-6  # central-difference step of both finite-difference oracles

# Ring geometry (charts and reparametrizations) is a pure function of the
# ring size.  Rings up to RING_MEMO_MAX_NODES are built once and shared,
# keeping the RING_MEMO_SIZES most recently used sizes: about 10 MiB per ring
# at d = 512, and up to 12 MiB more once each of its three charts holds a
# quantum and a classical Fisher matrix.  Larger rings are built on every call.
RING_MEMO_MAX_NODES = 512
RING_MEMO_SIZES = 4
_RING_MEMOS = []


def _ring_memo(build):
    """Memoize ``build(d)`` for an already validated ring size ``d``."""
    cached = functools.lru_cache(maxsize=RING_MEMO_SIZES)(build)
    _RING_MEMOS.append(cached)

    def lookup(d):
        d = int(d)
        return cached(d) if d <= RING_MEMO_MAX_NODES else build(d)

    return lookup


def _clear_ring_memos() -> None:
    for cached in _RING_MEMOS:
        cached.cache_clear()


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(eq=False, frozen=True)
class Chart:
    """Parameter chart: named directions in phase space.

    ``directions`` has shape (d, k); column m is the phase-space velocity
    d(phi)/d(param_m).  The original chart uses the standard basis.  Charts
    for transformed parameter sets are produced by reparametrizations (see
    :mod:`ghzsense.reparam`), whose inverse-matrix columns supply the
    directions.  Charts are shared between matrices and callers, so a chart
    is frozen and ``directions`` is its own read-only copy of the array
    passed in.  The chart keeps the validated matrices of
    :func:`qfim_pure` and :func:`ghzsense.measurement.cfim` for the most
    recent photon number in one slot, which a new photon number replaces.
    """

    name: str
    labels: tuple[str, ...]
    directions: np.ndarray
    _fisher_slot: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        k = len(self.labels)
        directions = _float_array(self.directions, "chart direction matrix", (None, k))
        object.__setattr__(self, "directions", _read_only(directions))
        if k < 1:
            raise ValidationError("chart needs at least one label")
        if np.linalg.matrix_rank(directions) != k:
            raise ValidationError(
                "chart directions must be linearly independent columns"
            )

    def _fisher_matrix(self, photons: int, kind: str) -> "FisherMatrix":
        """Fisher matrix of ``kind`` for ``photons``, the same at every phase.

        On a slot miss the entries are formed from G = :func:`pair_sum_gradients`
        and validated: QFIM = (N^2/2d) G^T G - (N^2/4d^2) s s^T, s the sum of
        G's rows (see the module docstring), and CFIM = (N^2/4d) G^T G (see
        :mod:`ghzsense.measurement`); numpy forms ``grads.T @ grads`` as a
        symmetric rank-k update, so G^T G is exactly symmetric.  The slot
        keeps that matrix, its entries read-only, until a call with another
        photon number replaces it.  Each call returns a shallow copy with its
        own copy of those entries, so a write to a result never reaches the
        slot.
        """
        photons = int(photons)
        slot_photons, matrices = self._fisher_slot
        if slot_photons != photons:
            matrices = {}
            object.__setattr__(self, "_fisher_slot", (photons, matrices))
        matrix = matrices.get(kind)
        if matrix is None:
            d = self.nodes
            grads = pair_sum_gradients(d, self)
            gram = grads.T @ grads
            if kind == "quantum":
                sums = grads.sum(axis=0)
                entries = (photons**2 / (2.0 * d)) * gram - (
                    photons**2 / (4.0 * d**2)
                ) * np.outer(sums, sums)
            else:
                entries = (photons**2 / (4.0 * d)) * gram
            matrix = FisherMatrix(entries, kind, self, photons)
            matrix.entries.flags.writeable = False
            matrix = matrices.setdefault(kind, matrix)
        result = copy.copy(matrix)
        object.__setattr__(result, "entries", matrix.entries.copy())
        return result

    @property
    def nodes(self) -> int:
        return self.directions.shape[0]

    @property
    def size(self) -> int:
        return self.directions.shape[1]

    @functools.cached_property
    def _is_node_chart(self) -> bool:
        """Whether the directions equal the d x d identity, compared by value."""
        return np.array_equal(self.directions, np.eye(self.nodes))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "directions": [[float(x) for x in row] for row in self.directions],
        }


def _build_original_chart(d: int) -> Chart:
    labels = tuple(f"phi_{i}" for i in range(1, d + 1))
    return Chart("original", labels, np.eye(d))


_original_chart = _ring_memo(_build_original_chart)


def original_chart(d: int) -> Chart:
    """Standard per-node phase chart phi_1..phi_d, shared per ring size.

    ``d`` follows the state's rule, an integer from 3 to ``MAX_NODES``, so
    every Fisher matrix over the chart is accepted.
    """
    _check_nodes(d)
    return _original_chart(d)


@dataclass(eq=False, frozen=True)
class FisherMatrix:
    """Symmetric positive-semidefinite information matrix tied to a chart.

    ``chart`` must be a :class:`Chart`, and ``photons`` and the chart's
    node count, the matrix's ``nodes``, must pass the state's count checks.
    ``entries`` must be a finite (k, k) array, k the chart's parameter
    count, symmetric by the rule of :func:`_symmetric_part`.  The matrix is
    frozen, and ``entries`` is its own copy of the symmetric part, so
    changing the array passed in later changes nothing.  The PSD test is
    :func:`_shifted_cholesky` with the shift tol = PSD_TOL * max(1, b), b
    the largest absolute row sum, so the tolerance grows with the matrix as
    its rounding does.  It succeeds
    exactly when the smallest eigenvalue exceeds -tol up to rounding; a
    failed factorization is confirmed with ``eigvalsh`` before the matrix
    is rejected.  It holds no phases: the information matrices of the ring
    state are the same at every phase.
    """

    entries: np.ndarray
    kind: str
    chart: Chart
    photons: int

    def __post_init__(self):
        if self.kind not in ("quantum", "classical"):
            raise ValidationError(f"kind must be 'quantum' or 'classical', got {self.kind!r}")
        if not isinstance(self.chart, Chart):
            raise ValidationError(f"chart must be a Chart, got {type(self.chart).__name__}")
        _check_counts(self.photons, self.chart.nodes)
        entries = _float_array(self.entries, "Fisher matrix", (self.chart.size,) * 2)
        object.__setattr__(self, "entries", _symmetric_part(entries, "Fisher matrix"))
        certified, tol = _shifted_cholesky(self.entries, PSD_TOL, 1.0)
        if not certified:
            smallest = float(np.linalg.eigvalsh(self.entries)[0])
            if smallest < -tol:
                raise ValidationError(
                    f"Fisher matrix has negative eigenvalue {smallest:.3e} < -{tol:.3e}"
                )

    @property
    def nodes(self) -> int:
        return self.chart.nodes

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _check_fisher(matrix) -> FisherMatrix:
    """``matrix`` if it is a :class:`FisherMatrix`; any other object raises ValidationError."""
    if not isinstance(matrix, FisherMatrix):
        raise ValidationError(f"matrix must be a FisherMatrix, got {type(matrix).__name__}")
    return matrix


@dataclass
class RankReport:
    """Numerical rank and an orthonormal null-space basis (columns).

    Singular values at most ``RANK_RTOL`` times the largest count as zero.
    """

    rank: int
    null_basis: np.ndarray

    @property
    def nullity(self) -> int:
        return self.null_basis.shape[1]


def _symmetric_part(entries: np.ndarray, what: str) -> np.ndarray:
    """``entries`` itself when exactly symmetric, else its symmetric part.

    This is the one symmetry rule: an asymmetry max |entries - entries^T|
    above ``SYMMETRY_TOL`` * max(1, largest |entry|) raises ValidationError.
    The exactly symmetric case, that of every matrix the toolkit forms, is
    decided by one entrywise comparison and forms no float array.  Otherwise
    the asymmetry is measured in one scratch array, which then receives
    0.5 * (entries + entries^T) and is returned; the scale is read only then,
    as max(max F, -min F), which forms no array.
    """
    if (entries == entries.T).all():
        return entries
    scratch = np.subtract(entries, entries.T)
    asym = float(np.abs(scratch, out=scratch).max())
    tol = SYMMETRY_TOL * max(1.0, float(entries.max()), -float(entries.min()))
    if asym > tol:
        raise ValidationError(f"{what} asymmetry {asym:.3e} exceeds {tol:.3g}")
    np.add(entries, entries.T, out=scratch)
    scratch *= 0.5
    return scratch


def _shifted_cholesky(entries: np.ndarray, rtol: float, floor: float = 0.0) -> tuple[bool, float]:
    """Whether a Cholesky factorization of ``entries + shift * I`` succeeds, and the shift.

    The shift is rtol * max(floor, b), where b, the largest absolute row sum
    of the symmetric ``entries``, bounds the modulus of every eigenvalue.
    Success proves that the smallest eigenvalue exceeds -shift up to
    rounding.  This is the one certificate of the toolkit: the
    :class:`FisherMatrix` PSD test shifts up by PSD_TOL * max(1, b), and
    :func:`ghzsense.bounds.exact_crb` shifts down by ``RANK_RTOL`` * b.
    """
    shifted = np.abs(entries)
    shift = rtol * max(floor, float(np.max(shifted.sum(axis=1), initial=0.0)))
    np.copyto(shifted, entries)  # the absolute values are summed; reuse their buffer
    shifted.flat[:: shifted.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False, shift
    return True, shift


def _entries_of(matrix) -> np.ndarray:
    """Entries of a FisherMatrix, or a raw array read as a finite square matrix.

    A raw array must also pass the symmetry rule of :func:`_symmetric_part`,
    and its symmetric part is returned; so every matrix read here is exactly
    symmetric.
    """
    if isinstance(matrix, FisherMatrix):
        return matrix.entries
    entries = _float_array(matrix, "matrix", (None, None))
    if entries.shape[0] != entries.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {entries.shape}")
    return _symmetric_part(entries, "matrix")


def _directions_for(d: int, chart: Chart | None) -> tuple[Chart, np.ndarray]:
    if chart is None:
        chart = original_chart(d)
    elif not isinstance(chart, Chart):
        raise ValidationError(f"chart must be a Chart or None, got {type(chart).__name__}")
    if chart.nodes != d:
        raise ValidationError(
            f"chart is over {chart.nodes} nodes but the state has {d}"
        )
    return chart, chart.directions


def pair_sum_gradients(d: int, chart: Chart | None = None) -> np.ndarray:
    """Rows are grad of x_j = phi_j + phi_{j+1} with respect to chart params."""
    chart, directions = _directions_for(d, chart)
    return _pair_sums(directions.T).T


def _slot_matrix(photons: int, nodes: int, phases, chart: Chart | None, kind: str) -> FisherMatrix:
    """The chart's matrix of ``kind`` after the count, phase and chart checks.

    This is the one entry of :func:`qfim_pure` and
    :func:`ghzsense.measurement.cfim`.
    """
    _check_counts(photons, nodes)
    phase_vector(phases, nodes)
    chart, _ = _directions_for(nodes, chart)
    return chart._fisher_matrix(photons, kind)


def qfim_pure(photons: int, nodes: int, phases, chart: Chart | None = None) -> FisherMatrix:
    """Quantum Fisher information of the imprinted state in a given chart.

    Evaluates the Gram form (N^2/2d) G^T G - (N^2/4d^2) s s^T, where G is
    :func:`pair_sum_gradients` of the chart and s is the sum of its rows
    (see the module docstring for the derivation), from the chart's cached
    Gram.  Calls with the same chart and photon number copy the entries of
    one matrix, formed and validated on the first of them.  The phases are
    read by the phase rule only: the matrix is the same at every phase.
    """
    return _slot_matrix(photons, nodes, phases, chart, "quantum")


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
    return FisherMatrix(scale * units, "quantum", original_chart(d), photons)


def rank_and_nullspace(matrix) -> RankReport:
    """Numerical rank and orthonormal null basis of a symmetric matrix.

    The matrix is read by :func:`_entries_of`, so it is exactly symmetric,
    and its singular values below ``RANK_RTOL`` = 1e-9 times the largest
    count as zero (all of them for the zero matrix).  Two paths apply that
    rule:

    - An exactly circulant matrix, ``m[i, j] == m[0, (j - i) % d]`` for
      every entry, as the original-chart QFIM and CFIM of a ring are, is
      diagonalized by the discrete Fourier transform.  Its singular values
      are the moduli of the FFT of its first row, and its null basis is made
      of orthonormal real Fourier modes: 1/sqrt(d) for k = 0, (-1)^j/sqrt(d)
      for k = d/2, and sqrt(2/d) cos and sin for each pair of modes
      (k, d - k).  This agrees with the general path up to rounding; the
      basis vectors may differ from it by signs or a rotation within the
      null space.
    - Every other matrix (reduced or pushed-forward charts, user arrays) is
      decomposed with the eigh-based Hermitian SVD.
    """
    m = _entries_of(matrix)
    row = _circulant_first_row(m)
    if row is None:
        return _hermitian_rank_and_nullspace(m)
    return _circulant_rank_and_nullspace(row)


def _hermitian_rank_and_nullspace(m: np.ndarray) -> RankReport:
    """The general path of :func:`rank_and_nullspace`, by eigh-based SVD."""
    _, singular, vt = np.linalg.svd(m, hermitian=True)
    if singular.size == 0 or singular[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(singular > RANK_RTOL * singular[0]))
    return RankReport(rank, vt[rank:].T.copy())


def _circulant_first_row(m: np.ndarray) -> np.ndarray | None:
    """First row of the square ``m`` if ``m[i, j] == m[0, (j - i) % d]`` exactly.

    With c the first row, row i of a circulant is c rotated right by i:
    entry (i, j) is entry d - 1 - i + j of the doubled row (c[1:], c).
    ``m`` is compared with a read-only strided view of the doubled row that
    steps back one entry per row, so no d x d index array is formed; every
    offset it reads lies in 0..2d - 2.  Returns None for any other matrix,
    and for the empty one.
    """
    d = m.shape[0]
    if d == 0:
        return None
    row = m[0]
    doubled = np.concatenate((row[1:], row))
    step = doubled.itemsize
    rotations = np.lib.stride_tricks.as_strided(
        doubled[d - 1 :], shape=(d, d), strides=(-step, step), writeable=False
    )
    return row if np.array_equal(m, rotations) else None


def _circulant_rank_and_nullspace(row: np.ndarray) -> RankReport:
    """The circulant path of :func:`rank_and_nullspace`, from the first ``row``.

    The matrix is symmetric, so its first row c is an even sequence,
    c[l] = c[(d - l) % d], and its eigenvalues are the real FFT of c, equal
    on modes k and d - k.  Only the modes k = 0..d//2 are formed; each k
    other than 0 and d/2 stands for two singular values and two null vectors.
    """
    d = row.size
    singular = np.abs(np.fft.rfft(row).real)
    modes = np.arange(singular.size)
    paired = (modes != 0) & (2 * modes != d)
    kept = singular > RANK_RTOL * singular.max()
    rank = int(np.count_nonzero(kept) + np.count_nonzero(kept & paired))
    null, null_paired = modes[~kept], paired[~kept]
    angles = (np.outer(np.arange(d), null) % d) * (2.0 * np.pi / d)
    cosines = np.cos(angles) * np.where(null_paired, math.sqrt(2.0 / d), math.sqrt(1.0 / d))
    sines = np.sin(angles[:, null_paired]) * math.sqrt(2.0 / d)
    return RankReport(rank, np.concatenate((cosines, sines), axis=1))


def _central_differences(probe, phi: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(probe(phi + h v) - probe(phi - h v)) / 2h for each chart direction v, as columns.

    h is ``_ORACLE_STEP`` = 1e-6.  Both finite-difference oracles take their
    derivatives here, independently of G.
    """
    return np.stack(
        [probe(phi + shift) - probe(phi - shift) for shift in (_ORACLE_STEP * directions).T],
        axis=1,
    ) / (2.0 * _ORACLE_STEP)


def qfim_finite_difference_oracle(
    photons: int, nodes: int, phases, chart: Chart | None = None
) -> FisherMatrix:
    """Independent cross-check: derivative states by central differences.

    Never calls the analytic derivative; each chart direction is probed by
    re-imprinting the input state at phases +/- ``_ORACLE_STEP`` = 1e-6
    along the direction.  With D the (2d, k) stack of those differences and
    o = D^H psi, the matrix is 4 Re(D^H D - o o^H).
    """
    _check_counts(photons, nodes)
    phi = phase_vector(phases, nodes)
    chart, directions = _directions_for(nodes, chart)
    base = build_input_state(photons, nodes)

    def amplitudes(p):
        return apply_phases(base, p).amplitudes.ravel()

    psi = amplitudes(phi)
    derivs = _central_differences(amplitudes, phi, directions)
    # Re(D^H D) as one product over the stacked real and imaginary parts
    parts = np.concatenate((derivs.real, derivs.imag))
    overlaps = derivs.conj().T @ psi
    entries = 4.0 * (parts.T @ parts - np.outer(overlaps, overlaps.conj()).real)
    return FisherMatrix(entries, "quantum", chart, photons)


def matrix_to_csv(matrix: FisherMatrix) -> str:
    """Row-major CSV of a Fisher matrix's entries, 17 significant digits each."""
    lines = [",".join(f"{x:.17g}" for x in row) for row in _check_fisher(matrix).entries]
    return "\n".join(lines) + "\n"


def matrix_to_json_dict(matrix: FisherMatrix) -> dict:
    """JSON form of a Fisher matrix: its kind, N, d, chart and entries."""
    _check_fisher(matrix)
    return {
        "kind": matrix.kind,
        "N": int(matrix.photons),
        "d": int(matrix.nodes),
        "chart": matrix.chart.to_json_dict(),
        "entries": [[float(x) for x in row] for row in matrix.entries],
    }
