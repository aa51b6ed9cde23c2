"""The one reader of caller-supplied number arrays, and the one Cholesky certificate.

Every vector and matrix a caller hands the library goes through
``ghz_state._float_array``: strings, ragged lists, None, complex values,
non-finite entries and wrong shapes raise ValidationError, and a raw matrix
must also be symmetric.  The outcome tables keep their own conversion, whose refusals
name the outcome label, under the same rule.  Every matrix certificate is ``qfim._shifted_cholesky``, checked
here against the eigenvalue rule it stands in for.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghzsense import qfim
from ghzsense.bounds import RANK_RTOL, bound_report, exact_crb, weak_crb, weak_vs_exact_check
from ghzsense.errors import ValidationError
from ghzsense.ghz_state import apply_phases, build_input_state, phase_vector
from ghzsense.measurement import OutcomeDistribution, outcome_distribution
from ghzsense.montecarlo import CountTable, mle_estimate, sample_counts
from ghzsense.qfim import (
    PSD_TOL,
    Chart,
    FisherMatrix,
    original_chart,
    qfim_pure,
    rank_and_nullspace,
)
from ghzsense.reparam import Reparametrization, build_mc, pushforward_fisher

PHOTONS, NODES = 2, 4
PHI = np.full(NODES, 0.01)
E1 = np.array([1.0, 0.0, 0.0])


def reduced_qfim() -> FisherMatrix:
    return qfim_pure(PHOTONS, NODES, PHI, build_mc(NODES).chart(True))


def count_table():
    return sample_counts(outcome_distribution(PHOTONS, NODES, PHI), 10_000, 1)


# --- the holes the reader closes -------------------------------------------


def test_exact_and_weak_bounds_refuse_an_asymmetric_array():
    # its symmetric part has the bound 1.254 on e2; the array used to give 1.0
    asymmetric = [[1.0, 0.9], [0.0, 1.0]]
    e2 = np.array([0.0, 1.0])
    assert exact_crb(0.5 * (np.array(asymmetric) + np.array(asymmetric).T), e2) == (
        pytest.approx(1.0 / (1.0 - 0.45**2))
    )
    for bound in (exact_crb, weak_crb):
        with pytest.raises(ValidationError, match="matrix asymmetry 9.000e-01 exceeds 1e-10"):
            bound(asymmetric, e2)


@pytest.mark.parametrize("field", ["forward", "inverse"])
def test_reparametrization_refuses_a_nan_matrix(field):
    rep = build_mc(NODES)
    matrices = {"forward": rep.forward.copy(), "inverse": rep.inverse.copy()}
    matrices[field][2, 1] = np.nan
    with pytest.raises(ValidationError, match=f"{field} matrix entries must be finite"):
        Reparametrization(**matrices, labels=rep.labels, kept_indices=(1, 2, 3), name="mc")


def test_outcome_tables_and_the_fit_box_name_a_value_that_is_not_a_number():
    text = ["a"] * (4 * NODES)
    with pytest.raises(
        ValidationError,
        match=r"^count for OutcomeLabel\(pair=1, pattern='\+\+'\) must be a number, got 'a'$",
    ):
        CountTable(text, 100, 1, PHOTONS, NODES, PHI)
    with pytest.raises(
        ValidationError,
        match=r"^probability for OutcomeLabel\(pair=1, pattern='\+\+'\) must be a number",
    ):
        OutcomeDistribution(text, PHOTONS, NODES, PHI)
    with pytest.raises(ValidationError, match="^box half-width must be a positive number, got 'x'$"):
        mle_estimate(count_table(), np.zeros(NODES - 1), "x")


def test_fisher_matrices_refuse_inconsistent_counts_and_charts():
    chart = original_chart(NODES)
    calls = {
        "photon count must be an even integer": lambda: FisherMatrix(
            np.eye(NODES), "quantum", chart, 3, 7, np.zeros(7)
        ),
        "chart is over 4 nodes but the matrix has 7": lambda: FisherMatrix(
            np.eye(NODES), "quantum", chart, PHOTONS, 7, np.zeros(7)
        ),
        "photon count must be an integer, got 2.5": lambda: FisherMatrix(
            np.eye(NODES), "quantum", chart, 2.5, NODES
        ),
        "photon count must be an even integer >= 2, got -5": lambda: FisherMatrix(
            reduced_qfim().entries, "quantum", build_mc(NODES).chart(True), -5, 9
        ),
        "chart must be a Chart, got ndarray": lambda: FisherMatrix(
            np.eye(NODES), "quantum", np.eye(NODES), PHOTONS, NODES
        ),
    }
    for message, call in calls.items():
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()


def test_matrix_and_chart_arguments_refuse_other_types():
    calls = {
        "matrix must be a FisherMatrix, got ndarray": [
            lambda: bound_report(np.eye(3), E1),
            lambda: pushforward_fisher(np.eye(NODES), build_mc(NODES)),
        ],
        "rep must be a Reparametrization, got ndarray": [
            lambda: pushforward_fisher(qfim_pure(PHOTONS, NODES, np.zeros(NODES)), np.eye(NODES)),
        ],
        "dist must be an OutcomeDistribution, got ndarray": [
            lambda: sample_counts(np.full(4 * NODES, 1 / (4 * NODES)), 100, 1),
        ],
        "chart must be a Chart or None, got ndarray": [
            lambda: qfim_pure(PHOTONS, NODES, PHI, chart=np.eye(NODES)),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                call()


def test_complex_and_overflowing_values_are_refused_not_truncated():
    table, dist = count_table(), outcome_distribution(PHOTONS, NODES, PHI)
    calls = {
        "phase vector must be real": [
            lambda: phase_vector(np.full(NODES, 0.1 + 2j), NODES),
            lambda: phase_vector([np.complex128(0.1)] * NODES, NODES),
        ],
        "count entries must be real": [
            lambda: CountTable(np.full(4 * NODES, 6.0 + 1j), 96, 1, PHOTONS, NODES, PHI),
        ],
        "probability entries must be real": [
            lambda: OutcomeDistribution(dist.array + 0j, PHOTONS, NODES, PHI),
        ],
        "Fisher matrix must be real": [
            lambda: FisherMatrix(
                reduced_qfim().entries + 0j, "quantum", build_mc(NODES).chart(True),
                PHOTONS, NODES,
            ),
        ],
        "phase vector must be an array of numbers": [
            lambda: phase_vector([10**400] * NODES, NODES),
        ],
        "count for .* must be a number": [
            lambda: CountTable([10**400] * (4 * NODES), table.shots, 1, PHOTONS, NODES, PHI),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValidationError, match=f"^{message}"):
                call()


def test_fit_refuses_a_nan_guess():
    with pytest.raises(ValidationError, match="initial guess entries must be finite"):
        mle_estimate(count_table(), np.full(NODES - 1, np.nan))


@pytest.mark.parametrize("bad", ["abc", [[1.0, 2.0], [3.0]]], ids=["string", "ragged"])
def test_strings_and_ragged_lists_are_validation_errors(bad):
    fisher = reduced_qfim()
    rep = build_mc(NODES)
    calls = [
        lambda: phase_vector(bad, NODES),
        lambda: exact_crb(np.eye(2), bad),
        lambda: weak_crb(np.eye(2), bad),
        lambda: rank_and_nullspace(bad),
        lambda: FisherMatrix(bad, "quantum", fisher.chart, PHOTONS, NODES),
        lambda: Chart("c", ("a", "b"), bad),
        lambda: Reparametrization(bad, rep.inverse, rep.labels, rep.kept_indices, "mc"),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_fisher_matrix_stores_the_symmetric_part_of_a_tolerated_asymmetry():
    fisher = reduced_qfim()
    entries = fisher.entries.copy()
    entries[0, 1] += 4e-11
    stored = FisherMatrix(entries, "quantum", fisher.chart, PHOTONS, NODES).entries
    assert np.array_equal(stored, stored.T)
    assert np.array_equal(stored, 0.5 * (entries + entries.T))
    # an exactly symmetric matrix is stored as it is
    assert np.array_equal(
        FisherMatrix(fisher.entries, "quantum", fisher.chart, PHOTONS, NODES).entries,
        fisher.entries,
    )


def test_raw_matrices_are_read_as_their_symmetric_part():
    matrix = np.diag([2.0, 1.0, 0.5])
    matrix[2, 0] += 1e-11
    read = qfim._entries_of(matrix)
    assert np.array_equal(read, read.T)
    # the CSV writer still prints any finite square array as given
    assert qfim.matrix_to_csv([[1.0, 2.0], [3.0, 4.0]]) == "1,2\n3,4\n"
    with pytest.raises(ValidationError, match="expected a square matrix"):
        qfim.matrix_to_csv(np.ones((2, 3)))


# --- the library reader contract -------------------------------------------

finite_floats = st.floats(-10.0, 10.0)


def _refused_by(convert):
    """Whether ``convert`` (float or int) raises ValueError on a text."""

    def refused(text: str) -> bool:
        try:
            convert(text)
        except ValueError:
            return True
        return False

    return refused


non_numeric_text = st.text(max_size=6).filter(_refused_by(float))
ragged = st.lists(st.lists(finite_floats, max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(row) for row in rows}) > 1
)
bad_scalars = st.one_of(
    st.text(max_size=6).filter(_refused_by(int)),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.lists(st.integers(0, 3), max_size=2),
)


def wrong_types(*stand_ins):
    """A value of another type for an object argument: text, None, a number or a stand-in."""
    return st.one_of(
        st.text(max_size=6), st.none(), finite_floats, st.sampled_from(stand_ins)
    )


@st.composite
def bad_arrays(draw, valid, accepts=None, symmetric=False, none_ok=False):
    """An invalid stand-in for the valid array ``valid`` in one argument position.

    ``accepts(shape)`` tells which shapes the position takes (by default
    only the shape of ``valid``); ``symmetric``: the position needs a
    symmetric matrix, so an asymmetric one is invalid too; ``none_ok``: None
    is a valid value there.
    """
    valid = np.asarray(valid, dtype=float)
    accepts = accepts or (lambda shape: shape == valid.shape)
    kinds = ["text", "ragged", "text entry", "non-finite entry", "complex", "wrong shape"]
    kinds += [] if none_ok else ["none"]
    kind = draw(st.sampled_from(kinds + (["asymmetric"] if symmetric else [])))
    if kind == "text":
        return draw(st.text(max_size=6))
    if kind == "none":
        return None
    if kind == "ragged":
        return draw(ragged)
    index = draw(st.integers(0, valid.size - 1))
    if kind == "text entry":
        entries = valid.astype(object)
        entries.flat[index] = draw(non_numeric_text)
        return entries.tolist()
    if kind == "complex":
        return valid + 1j * draw(st.floats(-1.0, 1.0))
    if kind == "non-finite entry":
        entries = valid.copy()
        entries.flat[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return draw(st.sampled_from([entries, entries.tolist()]))
    if kind == "asymmetric":
        entries = valid.copy()
        scale = max(1.0, float(np.max(np.abs(entries))))
        entries[0, -1] += draw(st.floats(1e-8, 1.0)) * scale
        return entries
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    assume(not accepts(shape))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(finite_floats, min_size=size, max_size=size))).reshape(shape)


def _square(shape):
    return len(shape) == 2 and shape[0] == shape[1]


def _reader_targets() -> dict:
    """Name -> (strategy of invalid values, call that reads one)."""
    fisher = reduced_qfim()
    entries, chart = fisher.entries, fisher.chart
    rep = build_mc(NODES)
    table = count_table()
    guess = rep.apply(PHI)[1:]
    state = build_input_state(PHOTONS, NODES)

    def chart_shapes(shape):
        return len(shape) == 2 and shape[1] == chart.size

    def count_shapes(shape):
        return len(shape) == 2 and shape[0] >= 1 and shape[1] == 4 * NODES

    bad_widths = st.one_of(bad_scalars, st.floats(max_value=0.0), st.booleans())
    dist = outcome_distribution(PHOTONS, NODES, PHI)
    symmetric = bad_arrays(entries, symmetric=True)
    return {
        "phase_vector": (bad_arrays(PHI), lambda v: phase_vector(v, NODES)),
        "apply_phases": (bad_arrays(PHI), lambda v: apply_phases(state, v)),
        "qfim_pure phases": (bad_arrays(PHI), lambda v: qfim_pure(PHOTONS, NODES, v)),
        "exact_crb matrix": (symmetric, lambda v: exact_crb(v, E1)),
        "exact_crb alpha": (bad_arrays(E1), lambda v: exact_crb(entries, v)),
        "weak_crb matrix": (symmetric, lambda v: weak_crb(v, E1)),
        "weak_crb alpha": (bad_arrays(E1), lambda v: weak_crb(entries, v)),
        "bound_report alpha": (bad_arrays(E1), lambda v: bound_report(fisher, v)),
        "rank_and_nullspace": (
            bad_arrays(entries, accepts=_square, symmetric=True), rank_and_nullspace
        ),
        "weak_vs_exact_check matrix": (symmetric, lambda v: weak_vs_exact_check(v, E1)),
        "weak_vs_exact_check alpha": (bad_arrays(E1), lambda v: weak_vs_exact_check(entries, v)),
        "FisherMatrix entries": (
            symmetric, lambda v: FisherMatrix(v, "quantum", chart, PHOTONS, NODES)
        ),
        "FisherMatrix phases": (
            bad_arrays(PHI, none_ok=True),
            lambda v: FisherMatrix(entries, "quantum", chart, PHOTONS, NODES, v),
        ),
        "Chart directions": (
            bad_arrays(chart.directions, accepts=chart_shapes),
            lambda v: Chart("c", chart.labels, v),
        ),
        "Reparametrization forward": (
            bad_arrays(rep.forward),
            lambda v: Reparametrization(v, rep.inverse, rep.labels, rep.kept_indices, "mc"),
        ),
        "Reparametrization inverse": (
            bad_arrays(rep.inverse),
            lambda v: Reparametrization(rep.forward, v, rep.labels, rep.kept_indices, "mc"),
        ),
        "Reparametrization.apply": (bad_arrays(PHI), rep.apply),
        "pushforward_fisher rep": (
            wrong_types(rep.inverse, rep.inverse.tolist(), rep.to_json_dict(), rep.chart(False)),
            lambda v: pushforward_fisher(qfim_pure(PHOTONS, NODES, PHI), v),
        ),
        "sample_counts dist": (
            wrong_types(dist.array, dist.array.tolist(), dist.probabilities, table),
            lambda v: sample_counts(v, 100, 1),
        ),
        "Reparametrization.to_phases": (bad_arrays(rep.apply(PHI)), rep.to_phases),
        "mle_estimate guess": (bad_arrays(guess), lambda v: mle_estimate(table, v)),
        "mle_estimate box_half_width": (bad_widths, lambda v: mle_estimate(table, guess, v)),
        "CountTable array": (
            bad_arrays(table.array), lambda v: CountTable(v, 10_000, 1, PHOTONS, NODES, PHI)
        ),
        "OutcomeDistribution array": (
            bad_arrays(dist.array), lambda v: OutcomeDistribution(v, PHOTONS, NODES, PHI)
        ),
        "mle_estimate counts": (
            bad_arrays(table.array[None, :], accepts=count_shapes),
            lambda v: mle_estimate(
                np.array(v, dtype=object), guess, photons=PHOTONS, nodes=NODES
            ),
        ),
    }


READER_TARGETS = _reader_targets()


@pytest.mark.parametrize("name", sorted(READER_TARGETS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_library_readers_raise_only_validation_errors(name, data):
    strategy, call = READER_TARGETS[name]
    value = data.draw(strategy, label="value")
    with pytest.raises(ValidationError):
        call(value)


# --- the one Cholesky certificate ------------------------------------------


@settings(deadline=None)
@given(
    size=st.integers(1, 30),
    log_margin=st.floats(-1.0, 1.5),
    log_scale=st.floats(-3.0, 3.0),
    negative=st.booleans(),
    psd_test=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_cholesky_agrees_with_the_eigenvalue_rule(
    size, log_margin, log_scale, negative, psd_test, seed
):
    # the PSD test shifts up by PSD_TOL * max(1, b), the exact bound down by
    # RANK_RTOL * b; the smallest eigenvalue is planted near either threshold
    rtol, floor = (PSD_TOL, 1.0) if psd_test else (-RANK_RTOL, 0.0)
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size, size)))
    largest = 10.0**log_scale
    smallest = (-1.0 if negative else 1.0) * 1e-9 * 10.0**log_margin * largest
    spectrum = rng.uniform(abs(smallest), largest, size)
    spectrum[-1] = largest
    spectrum[0] = smallest
    matrix = basis @ np.diag(spectrum) @ basis.T
    matrix = 0.5 * (matrix + matrix.T)
    certified, shift = qfim._shifted_cholesky(matrix, rtol, floor)
    bound = float(np.max(np.abs(matrix).sum(axis=1)))
    assert shift == rtol * max(floor, bound)
    # (lambda_min + shift) / |shift|, at least 1% off the threshold
    margin = (np.linalg.eigvalsh(matrix)[0] + shift) / abs(shift)
    assume(abs(margin) >= 0.01)
    assert certified == (margin > 0)
