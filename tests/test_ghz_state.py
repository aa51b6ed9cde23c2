import math

import numpy as np
import pytest

from ghzsense.errors import ValidationError
from ghzsense.ghz_state import (
    MAX_PHOTONS,
    KetLabel,
    SparseKetState,
    apply_phases,
    build_input_state,
    directional_state_derivative,
    inner_product,
    ket_labels,
    node_pair,
    phase_vector,
)
from ghzsense.measurement import cfim
from ghzsense.qfim import qfim_pure

RNG = np.random.default_rng(91101)


def test_node_pair_wraps_around_the_ring():
    assert node_pair(1, 4) == (1, 2)
    assert node_pair(3, 4) == (3, 4)
    assert node_pair(4, 4) == (4, 1)
    assert node_pair(6, 6) == (6, 1)


def test_ket_labels_enumerates_both_polarizations_per_pair():
    labels = ket_labels(4)
    assert len(labels) == 8
    assert KetLabel(1, "H") in labels
    assert KetLabel(4, "V") in labels
    assert len(set(labels)) == 8


def test_input_state_has_2d_terms_with_uniform_amplitude():
    state = build_input_state(2, 4)
    assert len(state.terms) == 8
    expected = 1.0 / math.sqrt(8.0)
    assert expected == 0.35355339059327373  # frozen
    for label in ket_labels(4):
        amp = state.amplitude(label)
        assert amp.real == pytest.approx(expected, abs=1e-15)
        assert amp.imag == 0.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("photons,nodes", [(2, 3), (2, 4), (4, 6), (6, 8)])
def test_input_state_norm_is_one(photons, nodes):
    state = build_input_state(photons, nodes)
    assert len(state.terms) == 2 * nodes
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
    for j in range(1, 5):
        assert out.amplitude(KetLabel(j, "H")) == state.amplitude(KetLabel(j, "H"))
        k = j % 4 + 1
        expected = state.amplitude(KetLabel(j, "V")) * np.exp(
            1j * (phi[j - 1] + phi[k - 1])
        )
        assert out.amplitude(KetLabel(j, "V")) == pytest.approx(expected, abs=1e-15)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_overlap_with_pi_kick_on_one_node_is_one_half():
    # phi = (pi, 0, 0, 0): the two V terms touching node 1 flip sign and
    # cancel against the two untouched ones, leaving only the H half.
    state = build_input_state(2, 4)
    out = apply_phases(state, phase_vector([math.pi, 0.0, 0.0, 0.0], 4))
    overlap = inner_product(state, out)
    assert overlap.real == pytest.approx(0.5, abs=1e-12)
    assert overlap.imag == pytest.approx(0.0, abs=1e-12)


def test_phase_imprint_scales_with_photon_number():
    phi = phase_vector([0.2, 0.0, 0.0, 0.0, 0.0, 0.0], 6)
    for photons in (2, 4, 6):
        out = apply_phases(build_input_state(photons, 6), phi)
        amp = out.amplitude(KetLabel(1, "V"))
        angle = np.angle(amp)
        assert angle == pytest.approx((photons / 2) * 0.2, abs=1e-12)


def test_directional_derivative_matches_finite_differences():
    photons, nodes = 4, 6
    state = build_input_state(photons, nodes)
    phi = RNG.uniform(-0.5, 0.5, nodes)
    direction = RNG.normal(size=nodes)
    step = 1e-6
    deriv = directional_state_derivative(photons, nodes, phi, direction)
    plus = apply_phases(state, phi + step * direction)
    minus = apply_phases(state, phi - step * direction)
    for label in ket_labels(nodes):
        numeric = (plus.amplitude(label) - minus.amplitude(label)) / (2 * step)
        assert deriv.amplitude(label) == pytest.approx(numeric, abs=1e-8)


def test_derivative_along_alternating_direction_is_the_zero_state():
    # Alternating signs cancel on every neighbor pair of an even ring: the
    # state is exactly constant along this direction.
    for nodes in (4, 6, 8):
        phi = RNG.uniform(-1.0, 1.0, nodes)
        alternating = np.array([(-1.0) ** j for j in range(nodes)])
        deriv = directional_state_derivative(2, nodes, phi, alternating)
        assert deriv.terms == {}
        assert deriv.norm() == 0.0


def test_alternating_direction_still_moves_odd_rings():
    alternating = np.array([(-1.0) ** j for j in range(5)])
    deriv = directional_state_derivative(2, 5, np.zeros(5), alternating)
    assert deriv.norm() > 0.1


def test_zero_direction_rejected():
    with pytest.raises(ValidationError):
        directional_state_derivative(2, 4, np.zeros(4), np.zeros(4))


def test_phase_vector_validates_shape_and_finiteness():
    with pytest.raises(ValidationError):
        phase_vector([0.1, 0.2], 4)
    with pytest.raises(ValidationError):
        phase_vector([0.1, np.nan, 0.0, 0.0], 4)


def test_inner_product_conjugates_the_first_argument():
    state = build_input_state(2, 4)
    out = apply_phases(state, phase_vector([0.4, 0.1, -0.2, 0.3], 4))
    forward = inner_product(state, out)
    backward = inner_product(out, state)
    assert forward == pytest.approx(np.conj(backward), abs=1e-15)


def test_state_json_round_trip_preserves_amplitudes_exactly():
    out = apply_phases(
        build_input_state(4, 6),
        phase_vector([0.3, -0.2, 0.7, 0.1, -0.4, 0.25], 6),
    )
    doc = out.to_json_dict()
    back = SparseKetState.from_json_dict(doc)
    assert back.terms == out.terms
    assert back.to_json_dict() == doc


def test_from_json_rejects_mismatched_pair_links():
    doc = build_input_state(2, 4).to_json_dict()
    doc["terms"][0]["pair"] = [1, 3]  # not ring-adjacent
    with pytest.raises(ValidationError):
        SparseKetState.from_json_dict(doc)
