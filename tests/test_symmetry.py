import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    COMMUTANT,
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    TIME_REVERSAL_SMATRIX,
    VIOLATION,
    ClassificationError,
    InvarianceMargin,
    MisuseError,
    SymmetryTransform,
    Tolerances,
    apply,
    compose,
    conjugate_operator,
    conjugation,
    cpt_link_inference,
    frobenius_norm,
    identity_transform,
    invariance_margin,
    inverse,
    random_hermitian,
    random_unitary,
    smatrix_reversal_margin,
    t_symmetric_smatrix,
    time_reversal_consistency,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SPIN_HALF_T = SymmetryTransform(1j * SIGMA_Y, antilinear=True, label="T")


def _random_transform(seed):
    return SymmetryTransform(
        random_unitary(2 + seed % 4, seed=seed),
        antilinear=bool(seed % 2),
        label="g",
    )


def test_rejects_non_unitary_part():
    with pytest.raises(ClassificationError):
        SymmetryTransform(np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex), antilinear=False)


def test_apply_conjugation():
    psi = np.array([1.0, 1j], dtype=complex) / math.sqrt(2)
    out = apply(conjugation(2), psi)
    assert np.allclose(out, np.array([1.0, -1j]) / math.sqrt(2))


def test_compose_conjugation_squares_to_identity():
    k = conjugation(2)
    kk = compose(k, k)
    assert not kk.antilinear
    assert frobenius_norm(kk.unitary_part - np.eye(2)) <= 1e-15


def test_compose_spin_half_reversal_squares_to_minus_identity():
    sq = compose(SPIN_HALF_T, SPIN_HALF_T)
    assert not sq.antilinear
    assert frobenius_norm(sq.unitary_part + np.eye(2)) <= 1e-15


def test_compose_linear_with_identity():
    u = SymmetryTransform(random_unitary(3, seed=5), antilinear=False)
    got = compose(u, identity_transform(3))
    assert not got.antilinear
    assert frobenius_norm(got.unitary_part - u.unitary_part) <= 1e-15


@given(st.integers(0, 2_000))
def test_compose_matches_sequential_application(seed):
    g = _random_transform(seed)
    h = SymmetryTransform(
        random_unitary(g.dim, seed=seed + 7),
        antilinear=bool((seed // 2) % 2),
    )
    rng = np.random.default_rng(seed + 13)
    psi = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    lhs = apply(compose(g, h), psi)
    rhs = apply(g, apply(h, psi))
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(psi))


@given(st.integers(0, 2_000))
def test_inverse_round_trips_states(seed):
    g = _random_transform(seed)
    rng = np.random.default_rng(seed + 3)
    psi = rng.standard_normal(g.dim) + 1j * rng.standard_normal(g.dim)
    back = apply(inverse(g), apply(g, psi))
    assert np.linalg.norm(back - psi) <= 1e-12 * max(1.0, np.linalg.norm(psi))
    round_trip = compose(g, inverse(g))
    assert not round_trip.antilinear
    assert frobenius_norm(round_trip.unitary_part - np.eye(g.dim)) <= 1e-12


def test_antilinear_apply_conjugates_inner_products():
    g = SymmetryTransform(random_unitary(4, seed=21), antilinear=True)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = complex(np.vdot(apply(g, psi), apply(g, phi)))
    assert abs(lhs - np.conj(np.vdot(psi, phi))) <= 1e-12


def test_conjugate_operator_is_a_morphism():
    g = SymmetryTransform(random_unitary(3, seed=2), antilinear=True)
    a = random_hermitian(3, seed=3)
    b = random_hermitian(3, seed=4)
    lhs = conjugate_operator(g, a @ b)
    rhs = conjugate_operator(g, a) @ conjugate_operator(g, b)
    assert frobenius_norm(lhs - rhs) <= 1e-10


def test_invariance_margin_spin_half_reversal_on_sigma_z():
    margin = invariance_margin(SPIN_HALF_T, SIGMA_Z)
    assert margin.comparison_kind == COMMUTANT
    assert abs(margin.value - 2.0) <= 1e-12


def test_invariance_margin_zero_for_commuting_pair():
    h = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert invariance_margin(conjugation(2), h).value <= 1e-15


def test_time_reversal_consistency_requires_antilinear():
    with pytest.raises(MisuseError):
        time_reversal_consistency(identity_transform(2), SIGMA_Z, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_time_reversal_consistency_rejects_an_overflowing_propagator():
    h = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ClassificationError, match="exp\\(scale \\* a\\) overflows"):
        time_reversal_consistency(conjugation(2), h, 2.5)


def test_time_reversal_consistency_vanishes_iff_invariant():
    h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
    for t in (-2.0, 0.5, 3.7):
        assert time_reversal_consistency(conjugation(2), h, t).value <= 1e-12
    # sigma_y anticommutes with conjugation, the defect shows at generic times
    assert time_reversal_consistency(conjugation(2), SIGMA_Y, 1.0).value > 1e-6


def test_smatrix_reversal_margin_zero_for_balanced_s():
    s = t_symmetric_smatrix(4, seed=14)
    margin = smatrix_reversal_margin(conjugation(4), s)
    assert margin.comparison_kind == TIME_REVERSAL_SMATRIX
    assert margin.value <= 1e-12


def test_smatrix_reversal_margin_positive_for_loop_coupling():
    s = np.array([[0.0, 1j], [1.0, 0.0]], dtype=complex)
    assert smatrix_reversal_margin(conjugation(2), s).value > 1e-6


def test_cpt_link_gates():
    tol = Tolerances()
    fired = cpt_link_inference(InvarianceMargin(0.0, COMMUTANT), InvarianceMargin(0.5, COMMUTANT))
    assert fired.outcome == VIOLATION
    assert fired.violated_symmetry == "T"
    assert fired.margin == 0.5

    premise = cpt_link_inference(InvarianceMargin(0.1, COMMUTANT), InvarianceMargin(0.5, COMMUTANT))
    assert premise.outcome == NO_CONCLUSION
    assert premise.reason == REASON_PREMISE_UNMET

    below = cpt_link_inference(InvarianceMargin(0.0, COMMUTANT), InvarianceMargin(0.0, COMMUTANT))
    assert below.reason == REASON_BELOW_THRESHOLD

    band = cpt_link_inference(
        InvarianceMargin(0.0, COMMUTANT),
        InvarianceMargin((tol.tau_zero + tol.tau_violation) / 2, COMMUTANT),
    )
    assert band.reason == REASON_INDETERMINATE


def test_cpt_link_rejects_wrong_margin_kind():
    with pytest.raises(MisuseError):
        cpt_link_inference(
            InvarianceMargin(0.0, TIME_REVERSAL_SMATRIX),
            InvarianceMargin(0.5, COMMUTANT),
        )
