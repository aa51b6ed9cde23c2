import json
import math

import numpy as np
import pytest

from ghzsense.errors import ValidationError
from ghzsense.ghz_state import (
    MAX_PHOTONS,
    RingState,
    apply_phases,
    build_input_state,
    node_pair,
    phase_vector,
)
from ghzsense.measurement import cfim, outcome_distribution
from ghzsense.montecarlo import crb_saturation_experiment
from ghzsense.qfim import qfim_pure


def test_node_pair_wraps_around_the_ring():
    assert node_pair(1, 4) == (1, 2)
    assert node_pair(3, 4) == (3, 4)
    assert node_pair(4, 4) == (4, 1)
    assert node_pair(6, 6) == (6, 1)


def test_amplitude_rows_hold_each_pairs_h_and_v_kets_in_canonical_order():
    state = apply_phases(build_input_state(2, 4), phase_vector([0.3, -0.1, 0.7, 0.2], 4))
    assert state.amplitudes.shape == (4, 2)
    rows = [(row["pair"], row["pol"]) for row in state.to_json_dict()["terms"]]
    assert rows == [(list(node_pair(j, 4)), pol) for j in range(1, 5) for pol in "HV"]
    flat = [complex(row["re"], row["im"]) for row in state.to_json_dict()["terms"]]
    assert np.array_equal(state.amplitudes.ravel(), flat)


def test_input_state_has_2d_terms_with_uniform_amplitude():
    state = build_input_state(2, 4)
    assert np.count_nonzero(state.amplitudes) == 8
    expected = 1.0 / math.sqrt(8.0)
    assert expected == 0.35355339059327373  # frozen
    np.testing.assert_array_equal(state.amplitudes.real, expected)
    np.testing.assert_array_equal(state.amplitudes.imag, 0.0)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("photons,nodes", [(2, 3), (2, 4), (4, 6), (6, 8)])
def test_input_state_norm_is_one(photons, nodes):
    state = build_input_state(photons, nodes)
    assert np.count_nonzero(state.amplitudes) == 2 * nodes
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("photons", [1, 3, 0, -2])
def test_odd_or_nonpositive_photon_number_rejected(photons):
    with pytest.raises(ValidationError):
        build_input_state(photons, 4)


@pytest.mark.parametrize("photons", [2 * 10**21, 2 * 10**400], ids=["22-digit", "401-digit"])
def test_photon_number_above_the_cap_is_refused(photons):
    for build in (
        build_input_state,
        lambda n, d: qfim_pure(n, d, np.zeros(d)),
        lambda n, d: cfim(n, d, np.zeros(d)),
    ):
        with pytest.raises(ValidationError, match=f"exceeds the cap of {MAX_PHOTONS}"):
            build(photons, 4)


def test_photon_cap_is_the_last_power_of_two_whose_window_float64_resolves():
    # the window 2*pi/N spans the float64 spacing of phases up to pi at the
    # cap and no longer at twice the cap
    assert 2.0 * math.pi / MAX_PHOTONS > np.spacing(math.pi) > math.pi / MAX_PHOTONS
    assert float(MAX_PHOTONS) == MAX_PHOTONS
    assert build_input_state(MAX_PHOTONS, 4).photons == MAX_PHOTONS
    with pytest.raises(ValidationError, match="exceeds the cap"):
        build_input_state(MAX_PHOTONS + 2, 4)


def test_too_few_nodes_rejected():
    with pytest.raises(ValidationError):
        build_input_state(2, 2)


def test_phase_imprint_only_touches_v_terms():
    state = build_input_state(2, 4)
    phi = phase_vector([0.3, -0.1, 0.7, 0.2], 4)
    out = apply_phases(state, phi)
    np.testing.assert_array_equal(out.amplitudes[:, 0], state.amplitudes[:, 0])
    for j in range(1, 5):
        k = j % 4 + 1
        expected = state.amplitudes[j - 1, 1] * np.exp(1j * (phi[j - 1] + phi[k - 1]))
        assert out.amplitudes[j - 1, 1] == pytest.approx(expected, abs=1e-15)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_overlap_with_pi_kick_on_one_node_is_one_half():
    # phi = (pi, 0, 0, 0): the two V terms touching node 1 flip sign and
    # cancel against the two untouched ones, leaving only the H half.
    state = build_input_state(2, 4)
    out = apply_phases(state, phase_vector([math.pi, 0.0, 0.0, 0.0], 4))
    overlap = np.vdot(state.amplitudes, out.amplitudes)
    assert overlap.real == pytest.approx(0.5, abs=1e-12)
    assert overlap.imag == pytest.approx(0.0, abs=1e-12)


def test_phase_imprint_scales_with_photon_number():
    phi = phase_vector([0.2, 0.0, 0.0, 0.0, 0.0, 0.0], 6)
    for photons in (2, 4, 6):
        out = apply_phases(build_input_state(photons, 6), phi)
        angle = np.angle(out.amplitudes[0, 1])
        assert angle == pytest.approx((photons / 2) * 0.2, abs=1e-12)


def test_amplitudes_are_a_read_only_copy():
    amplitudes = np.full((4, 2), 0.5 + 0j)
    state = RingState(amplitudes, 2)
    amplitudes[0, 0] = 7.0
    assert state.amplitudes[0, 0] == 0.5
    with pytest.raises(ValueError):
        state.amplitudes[0, 0] = 1.0
    with pytest.raises(ValidationError, match="shape"):
        RingState(np.ones(8), 2)


@pytest.mark.parametrize("nodes", [3, 4, 9, 64])
def test_a_ring_state_is_over_its_amplitude_rows(nodes):
    state = build_input_state(4, nodes)
    for ring in (state, apply_phases(state, np.linspace(-0.2, 0.2, nodes))):
        assert ring.nodes == ring.amplitudes.shape[0] == nodes


def test_the_amplitude_rows_pass_the_node_count_rule():
    with pytest.raises(ValidationError, match="^node count must be an integer >= 3, got 2$"):
        RingState(np.full((2, 2), 0.5), 2)
    with pytest.raises(ValidationError, match="^node count 4097 exceeds the cap of 4096$"):
        RingState(np.zeros((4097, 2)), 2)


def test_phase_vector_validates_shape_and_finiteness():
    with pytest.raises(ValidationError):
        phase_vector([0.1, 0.2], 4)
    with pytest.raises(ValidationError):
        phase_vector([0.1, np.nan, 0.0, 0.0], 4)


PHASE_READERS = {
    "phase_vector": lambda phi: phase_vector(phi, 4),
    "apply_phases": lambda phi: apply_phases(build_input_state(2, 4), phi),
    "outcome_distribution": lambda phi: outcome_distribution(2, 4, phi),
    "qfim_pure": lambda phi: qfim_pure(2, 4, phi),
    "cfim": lambda phi: cfim(2, 4, phi),
    "crb_saturation_experiment": lambda phi: crb_saturation_experiment(2, 4, phi, 1000, 50, 0),
}


@pytest.mark.parametrize("reader", sorted(PHASE_READERS))
def test_phases_whose_pair_sum_overflows_are_refused_by_name(reader):
    # the ring-closing pair phi_4 + phi_1 overflows; a warning on the way
    # would fail the test as well, since warnings are errors here
    with pytest.raises(
        ValidationError,
        match=r"^phase vector pair sum phi_4 \+ phi_1 = 1e\+308 \+ 1e\+308 overflows the "
        "float64 range$",
    ):
        PHASE_READERS[reader](np.array([1e308, 0.0, 0.0, 1e308]))


IMPRINTERS = {
    "apply_phases": lambda photons, phi: apply_phases(build_input_state(photons, 4), phi),
    "outcome_distribution": lambda photons, phi: outcome_distribution(photons, 4, phi),
}


@pytest.mark.parametrize("imprint", sorted(IMPRINTERS))
def test_an_imprinted_phase_that_overflows_is_refused_by_name(imprint):
    # the pair sum phi_2 + phi_3 = 1e308 is finite, and so is its imprinted
    # phase at N = 2, but not at N = 4; no warning is raised on the way
    phi = np.array([0.0, 5e307, 5e307, 0.0])
    IMPRINTERS[imprint](2, phi)
    with pytest.raises(
        ValidationError,
        match=r"^imprinted phase \(N/2\)\(phi_2 \+ phi_3\) of pair 2 at N = 4, "
        r"phi_2 = 5e\+307 and phi_3 = 5e\+307, overflows the float64 range$",
    ):
        IMPRINTERS[imprint](4, phi)


def test_the_imprinted_phase_is_half_n_times_the_pair_sum():
    phi = np.random.default_rng(3).uniform(-3.0, 3.0, 7)
    sums = phi + np.roll(phi, -1)
    state = apply_phases(build_input_state(6, 7), phi)
    expected = np.full(7, 1.0 / math.sqrt(14), dtype=complex) * np.exp(1j * 3.0 * sums)
    assert state.amplitudes[:, 1].tobytes() == expected.tobytes()
    probabilities = outcome_distribution(6, 7, phi).array
    assert probabilities[0::4].tobytes() == ((1.0 + np.cos(3.0 * sums)) / 28.0).tobytes()


def test_phases_of_any_size_with_finite_pair_sums_are_accepted():
    alternating = np.array([1e308, -1e308, 1e308, -1e308])
    np.testing.assert_array_equal(phase_vector(alternating, 4), alternating)
    assert apply_phases(build_input_state(2, 4), alternating).norm() == pytest.approx(1.0)


def test_state_json_round_trip_preserves_amplitudes_exactly():
    out = apply_phases(
        build_input_state(4, 6),
        phase_vector([0.3, -0.2, 0.7, 0.1, -0.4, 0.25], 6),
    )
    terms = json.loads(json.dumps(out.to_json_dict(), indent=2, sort_keys=True))["terms"]
    read = np.array([complex(row["re"], row["im"]) for row in terms])
    assert np.array_equal(read.view(np.int64), out.amplitudes.ravel().view(np.int64))


@pytest.mark.parametrize(
    "pair, pol, value, message",
    [
        (2, 1, complex(0.0, math.inf), "pair 2 polarization V is not finite"),
        (3, 0, complex(math.nan, 0.0), "pair 3 polarization H is not finite"),
    ],
    ids=["infinite", "nan"],
)
def test_ring_state_names_a_non_finite_amplitude(pair, pol, value, message):
    amplitudes = np.full((4, 2), 0.5 + 0j)
    amplitudes[pair - 1, pol] = value
    with pytest.raises(ValidationError, match=message):
        RingState(amplitudes, 2)
