import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    VIOLATION,
    ClassificationError,
    DimensionMismatchError,
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
    invariance_margin,
    inverse,
    mat_exp,
    random_hermitian,
    random_unitary,
)
from tvd.symmetry import require_transform

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
    # building checks form; unitarity is judged at the tolerance of the call
    with pytest.raises(DimensionMismatchError):
        SymmetryTransform(np.ones((2, 3), dtype=complex), antilinear=True)
    with pytest.raises(ClassificationError, match="^unitary_part of T has non-finite entries$"):
        SymmetryTransform(np.diag([np.nan, 1.0]), antilinear=True, label="T")
    doubled = SymmetryTransform(np.diag([2.0, 1.0]), antilinear=True, label="T")
    loose = Tolerances(tau_zero=3.0, tau_violation=4.0)
    require_transform(doubled, True, loose)
    require_transform(doubled, None, loose)
    with pytest.raises(ClassificationError, match=r"^unitary_part of T is not unitary \(deviation 3\.000e\+00\)$"):
        require_transform(doubled, None, Tolerances())
    with pytest.raises(MisuseError, match="^wrong kind$"):
        require_transform(doubled, False, loose, "wrong kind")


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
    got = compose(u, SymmetryTransform(np.eye(3), antilinear=False))
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
    assert abs(np.linalg.norm(apply(g, psi)) - np.linalg.norm(psi)) <= 1e-12 * max(1.0, np.linalg.norm(psi))
    back = apply(inverse(g), apply(g, psi))
    assert np.linalg.norm(back - psi) <= 1e-12 * max(1.0, np.linalg.norm(psi))
    round_trip = compose(g, inverse(g))
    assert not round_trip.antilinear
    assert frobenius_norm(round_trip.unitary_part - np.eye(g.dim)) <= 1e-12


@given(st.integers(0, 2_000))
def test_antilinear_apply_conjugates_inner_products(seed):
    dim = 2 + seed % 5
    g = SymmetryTransform(random_unitary(dim, seed=seed), antilinear=True)
    rng = np.random.default_rng(seed + 1)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lhs = complex(np.vdot(apply(g, psi), apply(g, phi)))
    assert abs(lhs - np.conj(np.vdot(psi, phi))) <= 1e-12


@given(st.integers(0, 2_000))
def test_conjugate_operator_is_a_morphism(seed):
    g = _random_transform(seed)
    a = random_hermitian(g.dim, seed=seed + 3)
    b = random_hermitian(g.dim, seed=seed + 4)
    lhs = conjugate_operator(g, a @ b)
    rhs = conjugate_operator(g, a) @ conjugate_operator(g, b)
    assert frobenius_norm(lhs - rhs) <= 1e-10


def test_invariance_margin_spin_half_reversal_on_sigma_z():
    assert abs(invariance_margin(SPIN_HALF_T, SIGMA_Z).value - 2.0) <= 1e-12


def test_invariance_margin_zero_for_commuting_pair():
    h = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert invariance_margin(conjugation(2), h).value <= 1e-15


@pytest.mark.parametrize("t", [-2.0, 0.5, 3.7])
def test_reversal_maps_the_propagator_to_its_inverse_iff_invariant(t):
    # K exp(-iHt) K^-1 = exp(iHt) when K commutes with H
    h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
    reversed_ = conjugate_operator(conjugation(2), mat_exp(h, -1.0j * t))
    assert frobenius_norm(reversed_ - mat_exp(h, 1.0j * t)) <= 1e-12
    # sigma_y anticommutes with K: exp(-i sigma_y t) is real, so K leaves it as it is
    reversed_ = conjugate_operator(conjugation(2), mat_exp(SIGMA_Y, -1.0j * t))
    assert frobenius_norm(reversed_ - mat_exp(SIGMA_Y, 1.0j * t)) > 1e-6


def test_cpt_link_gates():
    tol = Tolerances()
    fired = cpt_link_inference(InvarianceMargin(0.0), InvarianceMargin(0.5))
    assert fired.outcome == VIOLATION
    assert fired.violated_symmetry == "T"
    assert fired.margin == 0.5

    premise = cpt_link_inference(InvarianceMargin(0.1), InvarianceMargin(0.5))
    assert premise.outcome == NO_CONCLUSION
    assert premise.reason == REASON_PREMISE_UNMET

    below = cpt_link_inference(InvarianceMargin(0.0), InvarianceMargin(0.0))
    assert below.reason == REASON_BELOW_THRESHOLD

    band = cpt_link_inference(
        InvarianceMargin(0.0),
        InvarianceMargin((tol.tau_zero + tol.tau_violation) / 2),
    )
    assert band.reason == REASON_INDETERMINATE
