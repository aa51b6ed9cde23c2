"""Physics invariants of the information matrices, checked as properties.

Both matrices are Gram forms of the pair-sum gradient matrix G:
CFIM = (N^2/4d) G^T G and QFIM - CFIM = (N^2/4d) G^T (I - 11^T/d) G, so the
quantum matrix dominates the classical one and the two agree along the
average phase.  The rank analysis that exposes their null space is checked
on random PSD matrices of known rank, its Fourier path for circulant
matrices against its eigh path, and the Cholesky certificate of the exact
bound against the eigenvalue rule it stands in for.  The phase imprint is
checked bit for bit against a per-ket reference, and the state's JSON form
as an exact round trip.  The O(d) maps between phases and the kept mc
coordinates, which also build the mc matrices, are checked against dense
products with a transform filled entry by entry and its numerical inverse.
The exact bound of any weight in the reduced mc chart, read off the ring
spectrum, is checked against the factorized reduced matrices, and both kinds
from one FFT bit for bit against each kind summed on its own.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzsense.bounds import RANK_RTOL, _mc_spectral_bounds, exact_crb, heisenberg_sweep
from ghzsense.errors import SingularMatrixError
from ghzsense.ghz_state import apply_phases, build_input_state
from ghzsense.measurement import cfim
from ghzsense import qfim
from ghzsense.qfim import Chart, qfim_pure, rank_and_nullspace
from ghzsense.reparam import _mc_coordinates, _mc_pair_pullback, _mc_phases, build_mc

even_rings = st.integers(2, 32).map(lambda half: 2 * half)
photon_numbers = st.sampled_from([2, 4, 6, 8])
seeds = st.integers(0, 2**32 - 1)


@st.composite
def imprints(draw):
    """(N, d, phi): even N up to 2**20, d from 3 to 64, phi in [-pi, pi]^d."""
    photons = 2 * draw(st.integers(1, 2**19))
    nodes = draw(st.integers(3, 64))
    phases = st.floats(-math.pi, math.pi, allow_subnormal=False)
    phi = draw(st.lists(phases, min_size=nodes, max_size=nodes))
    return photons, nodes, np.array(phi)


def random_chart(nodes: int, rng: np.random.Generator) -> Chart:
    size = int(rng.integers(1, nodes + 1))
    return Chart("random", tuple(f"c{i}" for i in range(size)), rng.normal(size=(nodes, size)))


@settings(deadline=None)
@given(nodes=even_rings, photons=photon_numbers, seed=seeds)
def test_classical_matrix_never_exceeds_quantum(nodes, photons, seed):
    rng = np.random.default_rng(seed)
    chart = random_chart(nodes, rng)
    phi = rng.uniform(-np.pi, np.pi, nodes)
    quantum = qfim_pure(photons, nodes, phi, chart).entries
    classical = cfim(photons, nodes, phi, chart).entries
    smallest = np.linalg.eigvalsh(quantum - classical)[0]
    assert smallest >= -1e-9 * np.linalg.norm(quantum, 2)


@settings(deadline=None)
@given(nodes=even_rings, photons=photon_numbers, seed=seeds)
def test_paired_measurement_is_optimal_along_the_average_phase(nodes, photons, seed):
    phi = np.random.default_rng(seed).uniform(-np.pi, np.pi, nodes)
    quantum = qfim_pure(photons, nodes, phi).entries
    gap = quantum - cfim(photons, nodes, phi).entries
    residual = np.max(np.abs(gap @ np.ones(nodes)))
    assert residual <= 1e-12 * np.max(np.abs(quantum))


@settings(deadline=None)
@given(nodes=even_rings, photons=photon_numbers, seed=seeds)
def test_average_phase_decouples_in_the_reduced_mc_chart(nodes, photons, seed):
    phi = np.random.default_rng(seed).uniform(-np.pi, np.pi, nodes)
    quantum = qfim_pure(photons, nodes, phi, build_mc(nodes).chart(True)).entries
    coupling = max(np.max(np.abs(quantum[0, 1:])), np.max(np.abs(quantum[1:, 0])))
    assert coupling <= 1e-12 * np.max(np.abs(quantum))


@settings(deadline=None)
@given(size=st.integers(1, 40), data=st.data(), seed=seeds)
def test_rank_and_nullspace_on_psd_matrices_of_known_rank(size, data, seed):
    rank = data.draw(st.integers(0, size), label="rank")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
    spectrum = np.zeros(size)
    spectrum[:rank] = rng.uniform(1.0, 10.0, rank)
    matrix = basis @ np.diag(spectrum) @ basis.T
    report = rank_and_nullspace(matrix)
    singular = np.linalg.svd(matrix, compute_uv=False)
    general_rank = int(np.sum(singular > 1e-9 * singular[0])) if singular[0] > 0 else 0
    assert report.rank == rank == general_rank
    null = report.null_basis
    assert null.shape == (size, size - rank)
    np.testing.assert_allclose(null.T @ null, np.eye(size - rank), atol=1e-12)
    assert np.linalg.norm(matrix @ null) <= 1e-9 * np.linalg.norm(matrix)


@settings(deadline=None)
@given(
    nodes=st.integers(1, 64),
    planted=st.sets(st.integers(0, 32)),
    zero=st.booleans(),
    tilt=st.booleans(),
    seed=seeds,
)
@example(nodes=8, planted={0}, zero=False, tilt=False, seed=1)
@example(nodes=8, planted={4}, zero=False, tilt=False, seed=2)
@example(nodes=9, planted={2}, zero=False, tilt=False, seed=3)
@example(nodes=12, planted={0, 3, 6}, zero=False, tilt=True, seed=4)
@example(nodes=7, planted=set(), zero=True, tilt=True, seed=5)
def test_circulant_rank_analysis_matches_the_eigh_path(nodes, planted, zero, tilt, seed):
    # A symmetric circulant with eigenvalue spectrum[k] on Fourier modes k
    # and d - k; planted modes are null, all others have |eigenvalue| >= 0.5.
    rng = np.random.default_rng(seed)
    modes = nodes // 2 + 1
    spectrum = rng.uniform(0.5, 10.0, modes) * rng.choice([-1.0, 1.0], modes)
    null = [k for k in planted if k < modes]
    spectrum[null] = 0.0
    if zero:
        spectrum[:] = 0.0
    row = np.fft.irfft(spectrum, n=nodes)
    if tilt:
        # an odd first row adds an antisymmetric part, well inside the
        # symmetry tolerance, that the matrix reader's symmetrizing removes
        noise = rng.normal(size=nodes)
        row = row + 1e-12 * (noise - np.concatenate((noise[:1], noise[:0:-1])))
    offsets = (np.arange(nodes)[None, :] - np.arange(nodes)[:, None]) % nodes
    matrix = row[offsets]
    assert qfim._circulant_first_row(matrix) is not None

    report = rank_and_nullspace(matrix)
    # the general path of the symmetric part that rank_and_nullspace reads
    reference = qfim._hermitian_rank_and_nullspace(qfim._entries_of(matrix))
    nullity = nodes if zero else sum(1 if 2 * k in (0, nodes) else 2 for k in null)
    assert report.rank == reference.rank == nodes - nullity
    basis = report.null_basis
    assert basis.shape == (nodes, nullity)
    np.testing.assert_allclose(basis.T @ basis, np.eye(nullity), rtol=0, atol=1e-12)
    projector = reference.null_basis @ reference.null_basis.T
    np.testing.assert_allclose(basis @ basis.T, projector, rtol=0, atol=1e-10)


@settings(deadline=None)
@given(
    size=st.integers(1, 30),
    log_margin=st.floats(-1.0, 1.0),
    log_scale=st.floats(-3.0, 3.0),
    seed=seeds,
)
def test_exact_bound_verdict_matches_the_eigenvalue_rule(size, log_margin, log_scale, seed):
    # lambda_min / lambda_max = RANK_RTOL * 10**log_margin, at least 1% off the threshold
    assume(abs(10.0**log_margin - 1.0) >= 0.01)
    ratio = RANK_RTOL * 10.0**log_margin
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
    largest = 10.0**log_scale
    spectrum = rng.uniform(ratio * largest, largest, size)
    spectrum[0] = ratio * largest
    spectrum[-1] = largest
    matrix = basis @ np.diag(spectrum) @ basis.T
    matrix = 0.5 * (matrix + matrix.T)
    eigs = np.linalg.eigvalsh(matrix)
    alpha = np.ones(size)
    if eigs[0] > RANK_RTOL * eigs[-1]:
        assert np.isfinite(exact_crb(matrix, alpha))
    else:
        with pytest.raises(SingularMatrixError):
            exact_crb(matrix, alpha)


@settings(deadline=None)
@given(imprint=imprints())
def test_imprint_is_bit_identical_to_the_per_ket_reference(imprint):
    photons, nodes, phi = imprint
    amp = complex(1.0 / math.sqrt(2 * nodes))
    half = photons / 2.0
    expected = [
        [amp, amp * cmath.exp(1j * half * (phi[j - 1] + phi[j % nodes]))]
        for j in range(1, nodes + 1)
    ]
    state = apply_phases(build_input_state(photons, nodes), phi)
    assert np.array_equal(state.amplitudes, np.array(expected))


@settings(deadline=None)
@given(imprint=imprints())
def test_state_json_round_trip_is_an_identity(imprint):
    photons, nodes, phi = imprint
    state = apply_phases(build_input_state(photons, nodes), phi)
    text = json.dumps(state.to_json_dict(), indent=2, sort_keys=True)
    terms = json.loads(text)["terms"]
    read = np.array([complex(row["re"], row["im"]) for row in terms])
    assert np.array_equal(read.view(np.int64), state.amplitudes.ravel().view(np.int64))


def dense_mc_forward(nodes: int) -> np.ndarray:
    """The mc transform filled entry by entry from its definition, as a dense reference."""
    forward = np.zeros((nodes, nodes))
    forward[0] = [(-1.0) ** j / nodes for j in range(1, nodes + 1)]
    forward[1] = 1.0 / nodes
    for row in range(2, nodes):
        forward[row, row - 2] += 1.0 / nodes
        forward[row, row] -= 1.0 / nodes
    return forward


@settings(deadline=None)
@given(
    nodes=st.one_of(even_rings, st.sampled_from([128, 256, 512])),
    rows=st.integers(1, 3),
    seed=seeds,
)
def test_structured_mc_maps_match_the_dense_products(nodes, rows, seed):
    forward = dense_mc_forward(nodes)
    jac = np.linalg.inv(forward)[:, 1:]
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-np.pi, np.pi, (rows, nodes))
    theta = rng.normal(size=(rows, nodes - 1))
    pair_grad = rng.normal(size=(rows, nodes))
    for got, want in (
        (_mc_coordinates(phases), phases @ forward[1:].T),
        (_mc_phases(theta), theta @ jac.T),
        (_mc_pair_pullback(pair_grad), pair_grad @ (jac + np.roll(jac, -1, axis=0))),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(deadline=None, max_examples=60)
@given(
    nodes=st.integers(2, 64).map(lambda half: 2 * half),
    photons=st.sampled_from([2, 4, 6]),
    kind=st.sampled_from(["quantum", "classical"]),
    seed=seeds,
)
@example(nodes=4, photons=2, kind="quantum", seed=0)
@example(nodes=128, photons=6, kind="classical", seed=1)
def test_spectral_bound_matches_the_factorized_reduced_matrix(nodes, photons, kind, seed):
    alpha = np.random.default_rng(seed).normal(size=nodes - 1)
    information = qfim_pure if kind == "quantum" else cfim
    reduced = information(photons, nodes, np.zeros(nodes), build_mc(nodes).chart(True))
    expected = exact_crb(reduced, alpha)
    quantum, classical = _mc_spectral_bounds(photons, nodes, alpha)
    spectral = quantum if kind == "quantum" else classical
    assert abs(spectral - expected) <= 1e-12 * expected


def _one_kind_spectral_bound(photons, nodes, alpha, kind):
    """Reference: the spectral bound of one kind, summed over its own eigenvalues."""
    d = nodes
    u = np.full(d, float(alpha[0]))
    u[:-2] += alpha[1:]
    u[2:] -= alpha[1:]
    spectrum = np.fft.rfft(u)[1 : d // 2]
    modes = np.cos((np.pi / d) * np.arange(1, d // 2)) ** 2
    if kind == "quantum":
        modes *= 2.0
    rest = 2.0 * float(np.sum((spectrum.real**2 + spectrum.imag**2) / modes))
    return (float(alpha[0]) ** 2 + rest / d**2) / float(photons) ** 2


@settings(deadline=None, max_examples=80)
@given(
    nodes=st.integers(2, 2048).map(lambda half: 2 * half),
    photons=st.integers(1, 49).map(lambda half: 2 * half),
    seed=seeds,
)
@example(nodes=4, photons=2, seed=0)
@example(nodes=4096, photons=98, seed=1)
def test_both_spectral_kinds_from_one_fft_are_each_kind_bit_for_bit(nodes, photons, seed):
    kinds = ("quantum", "classical")
    (row,) = heisenberg_sweep([photons], [nodes])
    average = np.eye(1, nodes - 1)[0]
    assert (row.qcrb, row.ccrb) == tuple(
        math.sqrt(_one_kind_spectral_bound(photons, nodes, average, kind)) for kind in kinds
    )
    alpha = np.random.default_rng(seed).normal(size=nodes - 1)
    assert _mc_spectral_bounds(photons, nodes, alpha) == tuple(
        _one_kind_spectral_bound(photons, nodes, alpha, kind) for kind in kinds
    )
