import json

import numpy as np
import pytest

from ghzsense.errors import ValidationError
from ghzsense.ghz_state import (
    apply_phases,
    build_input_state,
    directional_state_derivative,
    inner_product,
)
from ghzsense.qfim import (
    Chart,
    FisherMatrix,
    matrix_from_json_dict,
    matrix_to_csv,
    matrix_to_json_dict,
    original_chart,
    qfim_closed_form_original,
    qfim_finite_difference_oracle,
    qfim_pure,
    rank_and_nullspace,
)
from ghzsense.reparam import build_mc

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
    zero = FisherMatrix(np.zeros((4, 4)), "quantum", chart, 2, 4, None)
    report = rank_and_nullspace(zero)
    assert report.rank == 0
    assert report.null_basis.shape == (4, 4)


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


def per_entry_qfim(photons, nodes, phi, directions):
    """Reference: one sparse-ket inner product per matrix entry."""
    state = apply_phases(build_input_state(photons, nodes), phi)
    derivs = [
        directional_state_derivative(photons, nodes, phi, directions[:, m])
        for m in range(directions.shape[1])
    ]
    overlaps = [inner_product(dm, state) for dm in derivs]
    pairs = list(zip(derivs, overlaps))
    return np.array(
        [
            [4.0 * (inner_product(dm, dn) - om * on.conjugate()).real for dn, on in pairs]
            for dm, om in pairs
        ]
    )


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
        FisherMatrix(bad, "quantum", chart, 2, 3, None)
    nan = np.full((3, 3), np.nan)
    with pytest.raises(ValidationError):
        FisherMatrix(nan, "quantum", chart, 2, 3, None)


def test_matrix_kind_must_be_known():
    chart = original_chart(3)
    with pytest.raises(ValidationError):
        FisherMatrix(np.eye(3), "bayesian", chart, 2, 3, None)


def test_chart_requires_full_column_rank():
    directions = np.zeros((4, 2))
    directions[:, 0] = 1.0
    directions[:, 1] = 2.0  # linearly dependent columns
    with pytest.raises(ValidationError):
        Chart("bad", ("a", "b"), directions)


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
    back = matrix_from_json_dict(json.loads(text))
    assert json.dumps(matrix_to_json_dict(back), indent=2, sort_keys=True) == text
    assert np.array_equal(back.entries, matrix.entries)
