"""Physics invariants of the information matrices, checked as properties.

Both matrices are Gram forms of the pair-sum gradient matrix G:
CFIM = (N^2/4d) G^T G and QFIM - CFIM = (N^2/4d) G^T (I - 11^T/d) G, so the
quantum matrix dominates the classical one and the two agree along the
average phase.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsense.measurement import cfim
from ghzsense.qfim import Chart, qfim_pure
from ghzsense.reparam import build_mc

even_rings = st.integers(2, 32).map(lambda half: 2 * half)
photon_numbers = st.sampled_from([2, 4, 6, 8])
seeds = st.integers(0, 2**32 - 1)


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
