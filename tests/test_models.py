import math

import numpy as np
import pytest

from tvd import (
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    ClassificationError,
    ParameterError,
    PremiseError,
    SymmetryTransform,
    Tolerances,
    apply,
    build_s_matrix,
    conjugate_operator,
    conjugation,
    edm_model,
    frobenius_norm,
    invariance_margin,
    kaon_decay_scattering_model,
    kaon_oscillation_model,
    kramers_square,
    mat_exp,
    random_hermitian,
    random_unitary,
    spin_operators,
    symmetrize_invariant,
    t_symmetric_smatrix,
    wigner_eckart_chain,
)
from tvd._draws import half_spin_reversal

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_spin_half_matches_pauli_over_two():
    spin = spin_operators(0.5)
    assert np.allclose(spin.jx, SIGMA_X / 2, atol=1e-15)
    assert np.allclose(spin.jy, SIGMA_Y / 2, atol=1e-15)
    assert np.allclose(spin.jz, SIGMA_Z / 2, atol=1e-15)
    assert spin.dim == 2


def test_spin_algebra_relations():
    for j in (0.0, 0.5, 1.0, 1.5, 2.0):
        spin = spin_operators(j)
        for a, b, c in ((spin.jx, spin.jy, spin.jz), (spin.jy, spin.jz, spin.jx), (spin.jz, spin.jx, spin.jy)):
            assert np.allclose(a @ b - b @ a, 1j * c, atol=1e-12)
        casimir = spin.jx @ spin.jx + spin.jy @ spin.jy + spin.jz @ spin.jz
        assert np.allclose(casimir, j * (j + 1) * np.eye(spin.dim), atol=1e-12)
        # the reversal flips J
        for comp in (spin.jx, spin.jy, spin.jz):
            assert frobenius_norm(conjugate_operator(spin.time_reversal, comp) + comp) <= 1e-10


def test_spin_reversal_parity_alternates():
    assert kramers_square(spin_operators(0.5).time_reversal).classification == MINUS_IDENTITY
    assert kramers_square(spin_operators(1.0).time_reversal).classification == PLUS_IDENTITY
    assert kramers_square(spin_operators(1.5).time_reversal).classification == MINUS_IDENTITY


def test_spin_rejects_non_half_integers():
    with pytest.raises(ParameterError):
        spin_operators(0.3)
    with pytest.raises(ParameterError):
        spin_operators(-0.5)


def test_edm_model_parameter_validation():
    with pytest.raises(ParameterError):
        edm_model(0.5, 1.0, 1.0, (0.0, 0.0, 0.0), 0.1)
    with pytest.raises(ParameterError):
        edm_model(0.5, 1.0, 1.0, (0.0, 0.0, 1.0), 0.0)
    with pytest.raises(ParameterError):
        edm_model(0.5, 1.0, 1.0, (0.0, 0.0, 1.0), -0.1)


def test_edm_dipole_is_odd_under_reversal():
    for model in (edm_model(0.5, 1.0, 1.0, (0.0, 0.0, 1.0), 0.1), edm_model(1.0, 0.0, 1.0, (0.0, 0.0, 1.0), 0.7)):
        t = model.spin.time_reversal
        assert np.allclose(conjugate_operator(t, model.dipole), -model.dipole, atol=1e-12)


def test_edm_chain_spin_half_along_z():
    model = edm_model(0.5, 1.0, 1.0, (0.0, 0.0, 1.0), 0.1)
    records = wigner_eckart_chain(model)
    assert len(records) == 2
    for record in records:
        assert record.coupling == pytest.approx(0.1, abs=1e-12)
        assert record.dipole_eq_residual <= 1e-10
        assert record.transport_residual <= 1e-10
        assert record.reversed_eq_residual <= 1e-10
        # each Jz eigenstate flips to the orthogonal one under T
        assert record.displacement == pytest.approx(1.0, abs=1e-12)


def test_edm_chain_skips_degenerate_levels():
    # no dipole term g = 0 collapses everything onto one cluster
    model = edm_model(1.0, 2.0, 0.0, (0.0, 0.0, 1.0), 0.1)
    assert wigner_eckart_chain(model) == ()


def test_edm_chain_handles_tilted_axis():
    model = edm_model(1.5, 0.5, 0.7, (1.0, 1.0, 0.0), 0.2)
    records = wigner_eckart_chain(model)
    assert len(records) == 4
    for record in records:
        assert record.coupling == pytest.approx(0.2, abs=1e-10)
        assert record.dipole_eq_residual <= 1e-10
        assert record.reversed_eq_residual <= 1e-10


def test_kaon_oscillation_structure():
    model = kaon_oscillation_model(0.5, 0.7, 0.2 + 0.3j)
    expected = np.array([[0.5, 0.2 + 0.3j], [0.2 - 0.3j, 0.7]])
    assert np.array_equal(model.hamiltonian, expected)
    assert model.time_reversal.antilinear
    assert np.vdot(model.k1, model.k2) == pytest.approx(0.0)
    # the flavor states are real, so conjugation fixes them
    for flavor in (model.k0, model.k0bar):
        assert np.linalg.norm(apply(model.time_reversal, flavor) - flavor) <= 1e-15
    with pytest.raises(ParameterError):
        kaon_oscillation_model(0.5 + 1j, 0.7, 0.2)


def test_kaon_decay_commutator_norm_frozen():
    model = kaon_decay_scattering_model(0.2)
    cp = model.cp.unitary_part
    comm = cp @ model.smatrix - model.smatrix @ cp
    assert np.linalg.norm(comm) == pytest.approx(0.56568542494923812, abs=1e-12)
    assert np.linalg.norm(comm) == pytest.approx(2.0 * math.sqrt(2.0) * 0.2, abs=1e-15)
    # S is unitary, and its commutator with CP grows as 2 sqrt(2) eps, over the whole range of eps
    for eps in np.arange(100) / 101.0:
        model = kaon_decay_scattering_model(eps)
        s = model.smatrix
        assert frobenius_norm(s.conj().T @ s - np.eye(2)) <= 1e-12
        comm = model.cp.unitary_part @ s - s @ model.cp.unitary_part
        assert abs(frobenius_norm(comm) - 2.0 * math.sqrt(2.0) * eps) <= 1e-12


def test_kaon_decay_epsilon_validation():
    with pytest.raises(ParameterError):
        kaon_decay_scattering_model(1.0)
    with pytest.raises(ParameterError):
        kaon_decay_scattering_model(-0.1)


def test_symmetrize_is_idempotent_and_commuting():
    linear = SymmetryTransform(np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex), antilinear=False, label="R")
    antilinear = [make(dim) for dim in (2, 4, 6) for make in (conjugation, half_spin_reversal)]
    for r in [linear, *antilinear]:
        for seed in range(71, 81):
            projected = symmetrize_invariant(random_hermitian(r.dim, seed=seed), r)
            assert np.linalg.norm(projected - projected.conj().T) <= 1e-12
            assert np.allclose(symmetrize_invariant(projected, r), projected, atol=1e-12)
            assert frobenius_norm(conjugate_operator(r, projected) - projected) <= 1e-12


def test_symmetrize_accepts_an_involution_near_the_unitarity_bound():
    # ||R^dag R - I||_F = ||R^2 - I||_F = 6e-10, both within tau_zero, while
    # R^2 is 1.2e-9 from unitary
    v = random_unitary(4, seed=5)
    r = SymmetryTransform((v * [1.0, 1.0, -1.0, -1.0]) @ v.conj().T * math.sqrt(1.0 + 3e-10), antilinear=False)
    h = symmetrize_invariant(random_hermitian(4, seed=6), r)
    assert invariance_margin(r, h).value <= 1e-9


def test_symmetrize_rejects_a_non_unitary_involution_at_its_tau_zero():
    # U^2 = I, but U is not unitary, so U H U^dag is no symmetry image of H
    stretched = SymmetryTransform(np.array([[0.0, 2.0], [0.5, 0.0]]), antilinear=False, label="U")
    h = np.diag([1.0, 2.0])
    with pytest.raises(ClassificationError, match=r"^unitary_part of U is not unitary \(deviation 3\.092e\+00\)$"):
        symmetrize_invariant(h, stretched)
    assert symmetrize_invariant(h, stretched, tol=Tolerances(tau_zero=4.0, tau_violation=5.0)).shape == (2, 2)


def test_symmetrize_rejects_non_involutive_square():
    h = np.eye(2, dtype=complex)
    third_root = SymmetryTransform(np.diag([1.0, np.exp(2j * math.pi / 3)]), antilinear=False)
    with pytest.raises(PremiseError):
        symmetrize_invariant(h, third_root)


def test_t_symmetric_smatrix_is_symmetric_unitary():
    # symmetric, so conjugation sends it to its inverse
    for dim, seed in [(2, 3), (3, 14), (5, 99)] + [(2 + i % 5, 13_000 + i) for i in range(30)]:
        s = t_symmetric_smatrix(dim, seed)
        assert np.allclose(s, s.T, atol=1e-12)
        assert np.allclose(s.conj().T @ s, np.eye(dim), atol=1e-12)
    with pytest.raises(ParameterError):
        t_symmetric_smatrix(0, 1)


def test_build_s_matrix_identities():
    h0 = np.diag([1.0, 2.0]).astype(complex)
    zero = np.zeros((2, 2), dtype=complex)
    assert np.allclose(build_s_matrix(h0, zero, -1.0, 1.0), np.eye(2), atol=1e-12)
    # commuting interaction contributes only its own phase
    v = np.diag([0.5, 0.5]).astype(complex)
    s = build_s_matrix(h0, v, -1.0, 2.0)
    assert np.allclose(s, np.exp(-1.5j) * np.eye(2), atol=1e-12)
    for i in range(20):
        rng = np.random.default_rng(14_000 + i)
        dim = 2 + i % 4
        h0, v = random_hermitian(dim, seed=2 * i), random_hermitian(dim, seed=2 * i + 1)
        ti, tf = sorted(rng.uniform(-3, 3, 2))
        s = build_s_matrix(h0, v, ti, tf)
        assert frobenius_norm(s.conj().T @ s - np.eye(dim)) <= 1e-10
        assert frobenius_norm(build_s_matrix(h0, np.zeros((dim, dim)), ti, tf) - np.eye(dim)) <= 1e-12
        diag, diag_v = (np.diag(rng.standard_normal(dim)).astype(complex) for _ in range(2))
        expected = mat_exp(diag_v, -1j * (tf - ti))
        assert frobenius_norm(build_s_matrix(diag, diag_v, ti, tf) - expected) <= 1e-10


def test_build_s_matrix_validation():
    h0 = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(ParameterError):
        build_s_matrix(h0, np.zeros((3, 3)), 0.0, 1.0)
    with pytest.raises(ParameterError):
        build_s_matrix(h0, np.zeros((2, 2)), 1.0, 0.0)


def test_build_s_matrix_first_order_window():
    # weak coupling: S - 1 matches the leading interaction-picture integral
    cases = [(np.diag([1.0, 2.0]).astype(complex), 1e-3 * SIGMA_X, -0.5, 0.5)]
    for i in range(5):
        v = random_hermitian(3, seed=15_000 + 2 * i)
        cases.append((random_hermitian(3, seed=15_001 + 2 * i), 1e-3 * v / frobenius_norm(v), -1.0, 1.5))
    for h0, v, ti, tf in cases:
        s = build_s_matrix(h0, v, ti, tf)
        levels, basis = np.linalg.eigh(h0)
        times = np.linspace(ti, tf, 2001)
        # exp(i H0 t) V exp(-i H0 t) at each time, from H0's eigenbasis
        phases = np.exp(1j * np.multiply.outer(times, levels))
        coupling = basis.conj().T @ v @ basis
        integrand = basis @ (phases[:, :, None] * coupling * phases.conj()[:, None, :]) @ basis.conj().T
        first_order = -1j * np.trapezoid(integrand, times, axis=0)
        assert np.linalg.norm((s - np.eye(len(h0))) - first_order) <= 1e-5
