import math

import numpy as np
import pytest

from tvd import (
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    VIOLATION,
    ClassificationError,
    MisuseError,
    SymmetryTransform,
    amplitude_pair,
    conjugation,
    kabir_check,
    kaon_oscillation_model,
    mat_exp,
    normalize,
    probability_asymmetry,
    random_unitary,
    t_symmetric_smatrix,
    transition_probability,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
ASYMMETRIC_S = np.array([[0.0, 1.0j], [1.0, 0.0]], dtype=complex)


def test_frozen_asymmetry_for_phase_skewed_swap():
    # forward <e1, S e0> = 1, reversed <K e0, S K e1> = i
    pair = amplitude_pair(ASYMMETRIC_S, conjugation(2), E0, E1)
    assert pair.forward == pytest.approx(1.0)
    assert pair.reversed == pytest.approx(1.0j)
    assert abs(pair.asymmetry - math.sqrt(2)) <= 1e-12


def test_check_reports_violation_with_witness():
    verdict = kabir_check(ASYMMETRIC_S, conjugation(2, label="T"), E0, E1)
    assert verdict.outcome == VIOLATION
    assert verdict.violated_symmetry == "T on S"
    assert abs(verdict.margin - math.sqrt(2)) <= 1e-12
    assert verdict.witness["forward"] == pytest.approx(1.0)
    assert verdict.witness["reversed"] == pytest.approx(1.0j)


def test_linear_transform_is_rejected():
    linear = SymmetryTransform(np.eye(2, dtype=complex), antilinear=False, label="P")
    with pytest.raises(MisuseError):
        kabir_check(ASYMMETRIC_S, linear, E0, E1)


def test_non_unitary_smatrix_is_rejected():
    with pytest.raises(ClassificationError, match="smatrix is not unitary"):
        kabir_check(2.0 * ASYMMETRIC_S, conjugation(2), E0, E1)


def test_symmetric_smatrix_never_trips():
    for dim, seed in [(dim, 14 + dim) for dim in (2, 3, 4, 5)] + [(2 + i % 5, 4_000 + i) for i in range(60)]:
        s = t_symmetric_smatrix(dim, seed=seed)
        t = conjugation(dim)
        for i in range(dim):
            for j in range(dim):
                e_i = np.zeros(dim, dtype=complex)
                e_i[i] = 1.0
                e_j = np.zeros(dim, dtype=complex)
                e_j[j] = 1.0
                verdict = kabir_check(s, t, e_i, e_j)
                assert verdict.outcome == NO_CONCLUSION
                assert verdict.reason == REASON_BELOW_THRESHOLD
                assert verdict.margin <= 1e-10


def test_oscillation_with_complex_coupling_violates():
    for coupling in (1.0j, 0.3j):
        model = kaon_oscillation_model(0.5, 0.7, coupling)
        smatrix = mat_exp(model.hamiltonian, -1.0j)
        verdict = kabir_check(smatrix, model.time_reversal, E0, E1)
        assert verdict.outcome == VIOLATION
        assert verdict.margin > 1e-3


def test_oscillation_with_real_coupling_does_not():
    model = kaon_oscillation_model(0.5, 0.7, 0.3)
    smatrix = mat_exp(model.hamiltonian, -1.0j)
    verdict = kabir_check(smatrix, model.time_reversal, E0, E1)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.margin <= 1e-10


def test_transition_probability_half():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
    quarter_turn = mat_exp(np.array([[0, 1], [1, 0]], dtype=complex), -1j * math.pi / 4)
    for u in (hadamard, quarter_turn):
        assert transition_probability(u, E0, E1) == pytest.approx(0.5, abs=1e-12)


def test_transition_probability_lies_in_the_unit_interval():
    for i in range(50):
        dim = 2 + i % 4
        rng = np.random.default_rng(6_000 + i)
        psi, phi = (normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) for _ in range(2))
        assert 0.0 <= transition_probability(random_unitary(dim, seed=i), psi, phi) <= 1.0 + 1e-12


def test_probability_asymmetry_vanishes_in_two_channels():
    # |S_ab| = |S_ba| for every 2x2 unitary, so probabilities cannot differ
    unitaries = [random_unitary(2, seed) for seed in range(5_000, 5_200)] + [random_unitary(2, 7)]
    for i in range(40):
        rng = np.random.default_rng(61_000 + i)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (g + g.conj().T) / 2
        unitaries.append(mat_exp(h, -1.0j))
    for s in unitaries:
        assert abs(abs(s[0, 1]) - abs(s[1, 0])) <= 1e-12
        assert probability_asymmetry(s, E0, E1) <= 1e-12


def test_probability_asymmetry_golden_three_channel():
    g = np.array([[0, 1j, 1], [-1j, 0, 1], [1, 1, 0]], dtype=complex)
    s = mat_exp(g, -1.0j)
    e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert probability_asymmetry(s, e0, e1) == pytest.approx(0.881806485572118, abs=1e-12)
