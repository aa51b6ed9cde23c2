import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from ghzsense import qfim
from ghzsense.errors import ValidationError
from ghzsense.ghz_state import MAX_NODES, apply_phases, build_input_state
from ghzsense.measurement import cfim
from ghzsense.qfim import (
    Chart,
    FisherMatrix,
    matrix_to_csv,
    matrix_to_json_dict,
    original_chart,
    pair_sum_gradients,
    qfim_closed_form_original,
    qfim_finite_difference_oracle,
    qfim_pure,
    rank_and_nullspace,
)
from ghzsense.reparam import build_mc, build_orthogonal_d4, pushforward_fisher

RNG = np.random.default_rng(20210407)

# diag 3/4, ring-adjacent 1/4, opposite -1/4 for two photons on four nodes
TWO_PHOTON_FOUR_NODE = np.array(
    [
        [0.75, 0.25, -0.25, 0.25],
        [0.25, 0.75, 0.25, -0.25],
        [-0.25, 0.25, 0.75, 0.25],
        [0.25, -0.25, 0.25, 0.75],
    ]
)


def test_two_photon_four_node_matrix_is_the_frozen_closed_form():
    matrix = qfim_pure(2, 4, np.zeros(4))
    np.testing.assert_allclose(matrix.entries, TWO_PHOTON_FOUR_NODE, atol=1e-10)


def test_closed_form_helper_agrees_with_frozen_matrix():
    matrix = qfim_closed_form_original(2, 4)
    np.testing.assert_allclose(matrix.entries, TWO_PHOTON_FOUR_NODE, atol=1e-15)


@pytest.mark.parametrize("photons", [2, 4, 6])
@pytest.mark.parametrize("nodes", [4, 6, 8])
def test_analytic_matrix_matches_general_closed_form(photons, nodes):
    computed = qfim_pure(photons, nodes, np.zeros(nodes))
    closed = qfim_closed_form_original(photons, nodes)
    np.testing.assert_allclose(computed.entries, closed.entries, atol=1e-10)


def test_frozen_spot_values_for_larger_rings():
    four_six = qfim_pure(4, 6, np.zeros(6)).entries
    assert four_six[0, 0] == pytest.approx(20.0 / 9.0, abs=1e-12)
    assert four_six[0, 1] == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert four_six[0, 3] == pytest.approx(-4.0 / 9.0, abs=1e-12)
    six_eight = qfim_pure(6, 8, np.zeros(8)).entries
    assert six_eight[2, 2] == pytest.approx(63.0 / 16.0, abs=1e-12)


@pytest.mark.parametrize("photons,nodes", [(2, 4), (4, 6), (6, 8)])
def test_matrix_is_independent_of_the_phase_point(photons, nodes):
    # Constant-modulus amplitudes: only the phases move, so the information
    # matrix is the same everywhere.
    at_zero = qfim_pure(photons, nodes, np.zeros(nodes)).entries
    at_random = qfim_pure(photons, nodes, RNG.uniform(-2.0, 2.0, nodes)).entries
    np.testing.assert_allclose(at_random, at_zero, atol=1e-10)


@pytest.mark.parametrize("nodes", [4, 6, 8])
def test_rank_deficiency_on_even_rings(nodes):
    matrix = qfim_pure(2, nodes, np.zeros(nodes))
    report = rank_and_nullspace(matrix)
    assert report.rank == nodes - 1
    assert report.nullity == 1
    alternating = np.array([(-1.0) ** j for j in range(nodes)])
    assert np.linalg.norm(matrix.entries @ alternating) <= 1e-10
    # the reported null vector is the alternating one up to normalization
    null = report.null_basis[:, 0]
    overlap = abs(null @ alternating) / np.linalg.norm(alternating)
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_odd_ring_matrix_is_nonsingular():
    matrix = qfim_pure(2, 5, np.zeros(5))
    assert rank_and_nullspace(matrix).rank == 5


def test_rank_of_zero_matrix_is_zero():
    chart = original_chart(4)
    zero = FisherMatrix(np.zeros((4, 4)), "quantum", chart, 2)
    report = rank_and_nullspace(zero)
    assert report.rank == 0
    assert report.null_basis.shape == (4, 4)


def test_the_empty_matrix_has_rank_zero_and_an_empty_null_basis():
    # it has no first row, so the circulant path does not take it
    report = rank_and_nullspace(np.zeros((0, 0)))
    assert report.rank == 0
    assert report.null_basis.shape == (0, 0)


@pytest.mark.parametrize("photons", [2, 4, 8])
@pytest.mark.parametrize("nodes", [3, 4, 5, 6, 15, 16, 63, 64, 255, 256])
def test_original_chart_spectra_are_the_closed_form_circulant_spectra(photons, nodes):
    # G^T G = 2I + P + P^T is circulant with eigenvalues 4 cos^2(pi k/d);
    # the QFIM subtracts the uniform mode's share, leaving N^2/d there.
    modes = np.arange(nodes)
    cos2 = np.cos(np.pi * modes / nodes) ** 2
    quantum = np.where(modes == 0, photons**2 / nodes, (2.0 * photons**2 / nodes) * cos2)
    classical = (photons**2 / nodes) * cos2
    for information, spectrum in ((qfim_pure, quantum), (cfim, classical)):
        matrix = information(photons, nodes, np.zeros(nodes))
        eigenvalues = np.linalg.eigvalsh(matrix.entries)
        scale = spectrum.max()
        assert np.max(np.abs(eigenvalues - np.sort(spectrum))) <= 1e-13 * scale
        # only the alternating mode k = d/2 of an even ring is null
        assert rank_and_nullspace(matrix).rank == (nodes - 1 if nodes % 2 == 0 else nodes)


@pytest.mark.parametrize("photons", [2, 4])
@pytest.mark.parametrize("nodes", [3, 4, 16, 256, 512])
def test_original_chart_matrices_are_exactly_circulant(photons, nodes):
    # rank_and_nullspace takes its Fourier path only on exactly circulant input
    offsets = (np.arange(nodes)[None, :] - np.arange(nodes)[:, None]) % nodes
    for information in (qfim_pure, cfim):
        entries = information(photons, nodes, np.zeros(nodes)).entries
        np.testing.assert_array_equal(entries, entries[0][offsets])


@pytest.mark.parametrize(
    "reduced, factorizations", [(False, 0), (True, 1)], ids=["circulant", "eigh"]
)
def test_rank_is_a_python_int_on_both_paths(reduced, factorizations, linalg_calls):
    chart = build_mc(8).chart(True) if reduced else None
    matrix = qfim_pure(2, 8, np.zeros(8), chart)
    calls = linalg_calls("eigh", "svd")
    report = rank_and_nullspace(matrix)
    assert sum(calls.values()) == factorizations
    assert type(report.rank) is int
    assert report.rank == 7


def test_rank_analysis_factorizes_only_matrices_that_are_not_circulant(linalg_calls):
    original = qfim_pure(4, 256, np.zeros(256))
    reduced = qfim_pure(4, 256, np.zeros(256), build_mc(256).chart(True))
    calls = linalg_calls("eigh", "svd")
    assert rank_and_nullspace(original).rank == 255
    assert calls == {}
    assert rank_and_nullspace(reduced).rank == 255
    assert sum(calls.values()) == 1


@pytest.mark.parametrize("nodes", [3, 5, 8])
def test_a_toeplitz_matrix_whose_corner_breaks_the_ring_is_not_circulant(nodes, linalg_calls):
    # a symmetric Toeplitz matrix t[|i - j|] with t[k] = t[d - k] is circulant;
    # changing t[d - 1] moves only its two corner entries off the ring
    first = np.linspace(4.0, 1.0, nodes)
    first[1:] = np.minimum(first[1:], first[:0:-1])
    offsets = np.abs(np.arange(nodes)[None, :] - np.arange(nodes)[:, None])
    assert qfim._circulant_first_row(first[offsets]) is not None
    first[-1] = first[1] + 0.5
    toeplitz = first[offsets]
    assert qfim._circulant_first_row(toeplitz) is None
    calls = linalg_calls("eigh", "svd")
    rank_and_nullspace(toeplitz)
    assert sum(calls.values()) == 1


def test_rank_analysis_refuses_a_matrix_containing_inf():
    with pytest.raises(ValidationError):
        rank_and_nullspace(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_matrix_csv_refuses_a_non_square_array():
    with pytest.raises(ValidationError, match="^matrix must be a FisherMatrix, got ndarray$"):
        matrix_to_csv(np.ones((2, 3)))


def test_oracle_agrees_with_analytic_matrix_on_random_charts():
    for _ in range(20):
        nodes = int(RNG.integers(3, 7))
        photons = int(RNG.choice([2, 4, 6]))
        phi = RNG.uniform(-1.0, 1.0, nodes)
        size = int(RNG.integers(2, nodes + 1))
        directions = RNG.normal(size=(nodes, size))
        chart = Chart("random", tuple(f"c{i}" for i in range(size)), directions)
        analytic = qfim_pure(photons, nodes, phi, chart)
        numeric = qfim_finite_difference_oracle(photons, nodes, phi, chart)
        np.testing.assert_allclose(analytic.entries, numeric.entries, atol=1e-6)


def state_derivative(photons, nodes, phi, direction):
    """Dense derivative of the imprinted state along ``direction``, in ket order.

    The vertical amplitude of pair j is scaled by i(N/2)(v_j + v_{j+1}); the
    horizontal amplitudes carry no phase, so their derivative is zero.
    """
    vertical = apply_phases(build_input_state(photons, nodes), phi).amplitudes[:, 1]
    scale = 1j * (photons / 2.0) * (direction + np.roll(direction, -1))
    return np.stack([np.zeros(nodes, dtype=complex), scale * vertical], axis=1).ravel()


def per_entry_qfim(photons, nodes, phi, directions):
    """Reference: one inner product per matrix entry, from test-local derivatives."""
    state = apply_phases(build_input_state(photons, nodes), phi).amplitudes.ravel()
    derivs = [
        state_derivative(photons, nodes, phi, directions[:, m])
        for m in range(directions.shape[1])
    ]
    overlaps = [np.vdot(dm, state) for dm in derivs]
    pairs = list(zip(derivs, overlaps))
    return np.array(
        [
            [4.0 * (np.vdot(dm, dn) - om * on.conjugate()).real for dn, on in pairs]
            for dm, om in pairs
        ]
    )


def test_reference_derivative_matches_finite_differences():
    photons, nodes = 4, 6
    state = build_input_state(photons, nodes)
    phi = RNG.uniform(-0.5, 0.5, nodes)
    direction = RNG.normal(size=nodes)
    step = 1e-6
    plus = apply_phases(state, phi + step * direction).amplitudes.ravel()
    minus = apply_phases(state, phi - step * direction).amplitudes.ravel()
    np.testing.assert_allclose(
        state_derivative(photons, nodes, phi, direction), (plus - minus) / (2 * step), atol=1e-8
    )


def test_reference_derivative_vanishes_along_the_alternating_direction_of_even_rings():
    # Alternating signs cancel on every neighbor pair of an even ring: the
    # state is exactly constant along this direction.
    for nodes in (4, 6, 8):
        phi = RNG.uniform(-1.0, 1.0, nodes)
        alternating = np.array([(-1.0) ** j for j in range(nodes)])
        assert not np.any(state_derivative(2, nodes, phi, alternating))


def test_alternating_direction_still_moves_odd_rings():
    alternating = np.array([(-1.0) ** j for j in range(5)])
    assert np.linalg.norm(state_derivative(2, 5, np.zeros(5), alternating)) > 0.1


@pytest.mark.parametrize("photons", [2, 4, 6])
@pytest.mark.parametrize("nodes", [3, 5, 8, 32])
@pytest.mark.parametrize("shape", ["square", "rectangular"])
def test_gram_form_matches_per_entry_inner_products(photons, nodes, shape):
    rng = np.random.default_rng(1000 * nodes + photons)
    size = nodes if shape == "square" else max(1, nodes // 2)
    directions = rng.normal(size=(nodes, size))
    chart = Chart("random", tuple(f"c{i}" for i in range(size)), directions)
    phi = rng.uniform(-2.0, 2.0, nodes)
    reference = per_entry_qfim(photons, nodes, phi, directions)
    computed = qfim_pure(photons, nodes, phi, chart).entries
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(computed - reference)) <= 1e-12 * scale


def test_oracle_agrees_with_analytic_matrix_on_a_wide_reduced_chart():
    nodes = 64
    chart = build_mc(nodes).chart(True)
    phi = RNG.uniform(-1.0, 1.0, nodes)
    analytic = qfim_pure(4, nodes, phi, chart)
    numeric = qfim_finite_difference_oracle(4, nodes, phi, chart)
    np.testing.assert_allclose(analytic.entries, numeric.entries, atol=1e-6)


def test_matrix_validation_rejects_asymmetry_and_nan():
    chart = original_chart(3)
    bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValidationError):
        FisherMatrix(bad, "quantum", chart, 2)
    nan = np.full((3, 3), np.nan)
    with pytest.raises(ValidationError):
        FisherMatrix(nan, "quantum", chart, 2)


def test_matrix_kind_must_be_known():
    chart = original_chart(3)
    with pytest.raises(ValidationError):
        FisherMatrix(np.eye(3), "bayesian", chart, 2)


def test_chart_requires_full_column_rank():
    directions = np.zeros((4, 2))
    directions[:, 0] = 1.0
    directions[:, 1] = 2.0  # linearly dependent columns
    with pytest.raises(ValidationError):
        Chart("bad", ("a", "b"), directions)


def test_chart_refuses_an_empty_label_list():
    with pytest.raises(ValidationError, match="^chart needs at least one label$"):
        Chart("empty", (), np.zeros((4, 0)))


def test_matrix_refuses_a_chart_over_another_node_count():
    chart = build_mc(4).chart(True)
    with pytest.raises(ValidationError, match="^chart is over 4 nodes but the state has 6$"):
        qfim_pure(2, 6, np.zeros(6), chart)


def test_csv_rendering_is_high_precision():
    matrix = qfim_pure(4, 6, np.zeros(6))
    text = matrix_to_csv(matrix)
    rows = text.strip().split("\n")
    assert len(rows) == 6
    first = float(rows[0].split(",")[0])
    assert first == matrix.entries[0, 0]  # 17 significant digits round-trip


def test_json_round_trip_is_byte_identical():
    matrix = qfim_pure(4, 6, RNG.uniform(-1.0, 1.0, 6))
    text = json.dumps(matrix_to_json_dict(matrix), indent=2, sort_keys=True)
    doc = json.loads(text)
    assert json.dumps(doc, indent=2, sort_keys=True) == text
    assert "phases" not in doc  # the matrix is the same at every phase
    for read, exact in (
        (doc["entries"], matrix.entries),
        (doc["chart"]["directions"], matrix.chart.directions),
    ):
        assert np.array_equal(np.array(read).view(np.int64), exact.view(np.int64))


def rotated_spectrum(eigenvalues, seed=7):
    """Symmetric matrix with the given eigenvalues in a random orthonormal basis."""
    k = len(eigenvalues)
    basis, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(k, k)))
    matrix = basis @ np.diag(eigenvalues) @ basis.T
    return 0.5 * (matrix + matrix.T)


def test_psd_check_rejects_an_eigenvalue_just_below_the_tolerance():
    entries = rotated_spectrum([-1e-8, 0.5, 1.0, 2.0])
    # b, the largest absolute row sum, is 2.385 here: the tolerance is 1e-9 * b
    with pytest.raises(ValidationError, match=r"negative eigenvalue -1\.000e-08 < -2\.385e-09$"):
        FisherMatrix(entries, "quantum", original_chart(4), 2)


def test_psd_check_accepts_an_eigenvalue_just_above_the_tolerance():
    entries = rotated_spectrum([-1e-10, 0.5, 1.0, 2.0])
    matrix = FisherMatrix(entries, "quantum", original_chart(4), 2)
    assert np.array_equal(matrix.entries, entries)


def test_psd_check_accepts_the_exactly_singular_wide_ring_matrix():
    entries = qfim_pure(4, 256, np.zeros(256)).entries
    assert rank_and_nullspace(entries).nullity == 1
    FisherMatrix(entries, "quantum", original_chart(256), 4)


@pytest.mark.parametrize("nodes", [4, 6, 16, 256])
def test_node_chart_matrices_validate_for_every_power_of_two_photon_number(nodes):
    # singular matrices whose entries grow as N^2: their rounding grows with
    # them, and so does the PSD tolerance
    for exponent in range(1, 54):
        for information in (qfim_pure, cfim):
            matrix = information(2**exponent, nodes, np.zeros(nodes))
            assert matrix.entries[0, 0] > 0.0


def test_chart_directions_are_a_read_only_copy():
    directions = np.eye(3)
    chart = Chart("copy", ("a", "b", "c"), directions)
    with pytest.raises(ValueError):
        chart.directions[0, 0] = 2.0
    directions[0, 0] = 2.0  # the caller's array stays writable
    assert chart.directions[0, 0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        chart.labels = ("x", "y", "z")


def test_a_fisher_matrix_is_frozen():
    # a bound report reads the kind, chart and photon number off its matrix
    matrix = cfim(2, 4, np.zeros(4))
    for name, value in (("kind", "quantum"), ("chart", build_mc(4).chart(True)), ("photons", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(matrix, name, value)


def test_original_chart_is_shared_per_ring_size():
    chart = original_chart(16)
    assert original_chart(16) is chart
    assert original_chart(np.int64(16)) is chart
    assert original_chart(8) is not chart


@pytest.mark.parametrize("nodes", [0, -4, 4.0, True, [4], np.array(4), MAX_NODES + 1])
def test_original_chart_rejects_invalid_ring_sizes(nodes):
    with pytest.raises(ValidationError):
        original_chart(nodes)


def test_original_chart_applies_the_state_s_smallest_ring():
    # every Fisher matrix needs d >= 3, so a smaller chart could hold none
    for nodes in (1, 2):
        with pytest.raises(ValidationError, match=f"must be an integer >= 3, got {nodes}$"):
            original_chart(nodes)
    assert original_chart(3).size == 3
    assert qfim_pure(2, 3, np.zeros(3)).chart is original_chart(3)


def test_ring_size_cap_is_checked_before_the_chart_is_built():
    # the phases are never looked at: the count check comes first
    with pytest.raises(ValidationError, match="exceeds the cap"):
        qfim_pure(2, MAX_NODES + 1, None)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        qfim_finite_difference_oracle(2, MAX_NODES + 1, None)


@pytest.mark.parametrize("photons", [2, 4, 6])
@pytest.mark.parametrize("nodes", [4, 16, 256])
def test_cached_gram_is_bit_identical_to_the_explicit_g_formula(photons, nodes):
    phi = RNG.uniform(-0.2, 0.2, nodes)
    for chart in (original_chart(nodes), build_mc(nodes).chart(True)):
        grads = chart.directions + np.roll(chart.directions, -1, axis=0)
        sums = grads.sum(axis=0)
        explicit = (photons**2 / (2.0 * nodes)) * (grads.T @ grads) - (
            photons**2 / (4.0 * nodes**2)
        ) * np.outer(sums, sums)
        np.testing.assert_array_equal(qfim_pure(photons, nodes, phi, chart).entries, explicit)
    # in the original chart G^T G holds small integers, so scaling it is exact
    grads = pair_sum_gradients(nodes, original_chart(nodes))
    explicit = (photons**2 / (4.0 * nodes)) * grads.T @ grads
    np.testing.assert_array_equal(cfim(photons, nodes, phi).entries, explicit)


def test_g_is_formed_once_per_slot_fill(monkeypatch):
    formed = []

    def counting(d, chart=None):
        formed.append(chart)
        return pair_sum_gradients(d, chart)

    monkeypatch.setattr(qfim, "pair_sum_gradients", counting)
    chart = build_mc(16).chart(True)
    for _ in range(3):
        qfim_pure(4, 16, np.zeros(16), chart)
        cfim(4, 16, np.zeros(16), chart)
    # one G for each matrix the slot keeps: the quantum and the classical one
    assert formed == [chart, chart]
    # cfim scales G^T G without symmetrizing it
    entries = cfim(4, 16, np.zeros(16), chart).entries
    np.testing.assert_array_equal(entries, entries.T)


@pytest.mark.parametrize("nodes", [4, 6, 16])
def test_a_fisher_matrix_is_over_the_nodes_of_its_chart(nodes):
    phi = RNG.uniform(-0.3, 0.3, nodes)
    rep = build_mc(nodes)
    matrices = [
        information(2, nodes, phi, chart)
        for information in (qfim_pure, cfim)
        for chart in (None, rep.chart(False), rep.chart(True))
    ]
    reps = [rep, build_orthogonal_d4()] if nodes == 4 else [rep]
    matrices += [pushforward_fisher(matrices[0], r, drop) for r in reps for drop in (False, True)]
    for matrix in matrices:
        assert matrix.nodes == matrix.chart.nodes == nodes


def test_fisher_matrix_keeps_its_own_entries():
    entries = np.eye(3)
    matrix = FisherMatrix(entries, "classical", original_chart(3), 2)
    entries[0, 1] = 5.0
    entries[2, 2] = -7.0
    np.testing.assert_array_equal(matrix.entries, np.eye(3))


@pytest.mark.parametrize("information", [qfim_pure, cfim])
def test_a_write_to_a_result_never_reaches_the_chart_slot(information):
    first = information(4, 16, np.zeros(16))
    kept = first.entries.copy()
    first.entries[0, 0] *= 1 + 1e-9  # the result is the caller's to change
    assert first.entries[0, 0] != kept[0, 0]
    np.testing.assert_array_equal(information(4, 16, np.zeros(16)).entries, kept)


def test_a_shared_chart_slot_survives_concurrent_photon_numbers():
    # Threads alternate photon numbers on one chart, more threads than cores
    # and with frequent switches, so lookups race with slot replacements.
    chart = build_mc(8).chart(True)
    expected = {
        (information, n): information(n, 8, np.zeros(8), chart).entries.copy()
        for information in (qfim_pure, cfim)
        for n in (2, 4, 6)
    }
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                photons = (2, 4, 6)[(i + offset) % 3]
                for information in (qfim_pure, cfim):
                    matrix = information(photons, 8, np.zeros(8), chart)
                    assert matrix.photons == photons
                    np.testing.assert_array_equal(matrix.entries, expected[information, photons])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
