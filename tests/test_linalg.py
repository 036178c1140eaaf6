import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    ClassificationError,
    DimensionMismatchError,
    PremiseError,
    commutator,
    dagger,
    frobenius_norm,
    herm_eig,
    is_hermitian,
    is_unitary,
    mat_exp,
    normalize,
    random_hermitian,
    random_unitary,
)
from tvd import runner
from tvd.linalg import _SPECTRA

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def test_mat_exp_diagonal():
    got = mat_exp(np.diag([1.0, 2.0, -3.0]).astype(complex))
    want = np.diag(np.exp([1.0, 2.0, -3.0]))
    assert frobenius_norm(got - want) <= 1e-12 * frobenius_norm(want)


def test_mat_exp_pauli_rotation():
    # exp(-i (pi/2) sigma_x) = -i sigma_x
    got = mat_exp(SIGMA_X, -1j * math.pi / 2)
    assert frobenius_norm(got - (-1j) * SIGMA_X) <= 1e-12


def test_mat_exp_nilpotent():
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert frobenius_norm(mat_exp(n) - (np.eye(2) + n)) <= 1e-14


def test_mat_exp_matches_scipy_on_random_complex():
    # includes norms far above the Pade-13 threshold to force squaring
    for i in range(40):
        rng = np.random.default_rng(900 + i)
        dim = 2 + i % 5
        scale = (0.1, 1.0, 10.0)[i % 3]
        a = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        got = mat_exp(a)
        want = scipy.linalg.expm(a)
        assert frobenius_norm(got - want) <= 1e-11 * max(1.0, frobenius_norm(want))


def test_mat_exp_group_law_and_unitarity():
    for i in range(25):
        h = random_hermitian(2 + i % 5, seed=100 + i)
        s, t = 0.7 + i * 0.13, -1.9 + i * 0.21
        lhs = mat_exp(h, -1j * (s + t))
        rhs = mat_exp(h, -1j * s) @ mat_exp(h, -1j * t)
        assert frobenius_norm(lhs - rhs) <= 1e-10
        u = mat_exp(h, -1j * t)
        assert frobenius_norm(dagger(u) @ u - np.eye(h.shape[0])) <= 1e-12


def test_mat_exp_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        mat_exp(np.zeros((2, 3), dtype=complex))


def test_mat_exp_rejects_non_finite():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ClassificationError):
        mat_exp(bad)


def test_herm_eig_reconstruction_and_order():
    for i in range(20):
        h = random_hermitian(2 + i % 5, seed=200 + i)
        decomp = herm_eig(h)
        assert np.all(np.diff(decomp.eigenvalues) >= -1e-14)
        v = decomp.eigenvectors
        assert frobenius_norm(dagger(v) @ v - np.eye(h.shape[0])) <= 1e-12
        recon = (v * decomp.eigenvalues) @ dagger(v)
        assert frobenius_norm(recon - h) <= 1e-10 * max(1.0, frobenius_norm(h))


def test_herm_eig_is_deterministic():
    h = random_hermitian(5, seed=33)
    first = herm_eig(h)
    _SPECTRA.clear()
    second = herm_eig(h.copy())
    assert second is not first
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_herm_eig_phase_convention():
    # largest-magnitude component of every eigenvector is real positive
    decomp = herm_eig(random_hermitian(6, seed=4))
    for k in range(6):
        vec = decomp.vector(k)
        lead = vec[int(np.argmax(np.abs(vec)))]
        assert abs(lead.imag) <= 1e-12
        assert lead.real > 0


def test_herm_eig_degenerate_block_is_orthonormal():
    # eigh's columns are orthonormal as they come, degenerate clusters included,
    # so herm_eig needs no re-orthonormalization of its own
    u64 = random_unitary(64, seed=3)
    u6 = random_unitary(6, seed=4)
    split = [1.0, 1.0 + 3e-9, 1.0 + 6e-9, 2.0, 2.0 + 5e-9, 3.0]  # gaps below tau_eig
    cases = [
        np.diag([1.0, 1.0, 2.0]).astype(complex),
        u64 @ np.diag(np.full(64, 2.5)) @ dagger(u64),
        u6 @ np.diag(split) @ dagger(u6),
    ]
    for h in cases:
        decomp = herm_eig(h)
        v = decomp.eigenvectors
        assert frobenius_norm(dagger(v) @ v - np.eye(len(h))) <= 1e-12
        assert frobenius_norm((v * decomp.eigenvalues) @ dagger(v) - h) <= 1e-12 * frobenius_norm(h)
    assert np.allclose(herm_eig(cases[0]).eigenvalues, [1.0, 1.0, 2.0])


def test_random_unitary_is_unitary_and_seeded():
    for dim in (2, 3, 5):
        u = random_unitary(dim, seed=11)
        assert is_unitary(u, tol=1e-12)
        assert np.array_equal(u, random_unitary(dim, seed=11))
    assert not np.array_equal(random_unitary(3, seed=1), random_unitary(3, seed=2))


def test_random_hermitian_is_hermitian_and_seeded():
    h = random_hermitian(4, seed=9)
    assert is_hermitian(h, tol=0.0)
    assert np.array_equal(h, random_hermitian(4, seed=9))


def test_commutator_pauli_algebra():
    assert frobenius_norm(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z) <= 1e-14
    assert frobenius_norm(commutator(SIGMA_Y, SIGMA_Z) - 2j * SIGMA_X) <= 1e-14


@given(st.integers(0, 10_000))
def test_commutator_antisymmetry(seed):
    dim = 2 + seed % 5
    a = random_hermitian(dim, seed=seed)
    b = random_hermitian(dim, seed=seed + 1)
    assert frobenius_norm(commutator(a, b) + commutator(b, a)) <= 1e-15


def test_normalize_and_zero_vector():
    v = normalize(np.array([3.0, 4.0], dtype=complex))
    assert abs(float(np.linalg.norm(v)) - 1.0) <= 1e-15
    with pytest.raises(PremiseError):
        normalize(np.zeros(3, dtype=complex))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_hermitian_part_has_no_spectrum():
    # (H + H^dag) / 2 overflows to inf, where eigh returns NaN
    h = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ClassificationError, match="spectrum is not finite"):
        herm_eig(h)
    with pytest.raises(ClassificationError, match="oracle spectrum is not finite"):
        runner._spectrum(h)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.5, -2.5j, 1e308, complex("nan")], ids=["real", "imaginary", "huge", "nan"])
def test_mat_exp_rejects_a_scaled_matrix_without_a_finite_norm(scale):
    # the 1-norm of scale * a is inf (or nan), so no squaring count exists
    a = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ClassificationError) as info:
        mat_exp(a, scale)
    assert str(info.value) == "exp(scale * a) overflows: the 1-norm of scale * a is not finite"

