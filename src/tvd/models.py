"""Concrete finite-dimensional toy models and instance builders.

Conventions for spin operators: the basis is ordered by descending
magnetic quantum number, ``Jz = diag(j, j-1, ..., -j)``, ladder matrix
elements are ``sqrt(j(j+1) - m(m+1))``, and the reversal transform is
``exp(-i pi Jy)`` composed with componentwise conjugation. That choice
flips all three angular momentum components and squares to ``(-1)^{2j}``
times the identity.

Kaon flavor conventions: the oscillation basis is (K0, K0bar) with
strangeness (+1, -1), both flavor states fixed by plain conjugation.
The decay toy uses the basis (long-lived neutral kaon, two-pion state)
with parities (-1, +1) under CP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ParameterError, PremiseError
from .linalg import frobenius_norm, herm_eig, mat_exp, require_hermitian
from .symmetry import SymmetryTransform, apply, compose, conjugate_operator, conjugation, require_transform
from .wigner import ray_displacement, spectrum_clusters


@dataclass(frozen=True)
class SpinAlgebra:
    """Angular momentum matrices for one spin-j irreducible block."""

    j: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    time_reversal: SymmetryTransform

    @property
    def dim(self) -> int:
        return self.jz.shape[0]


def _check_spin(j: float) -> float:
    two_j = 2.0 * float(j)
    if two_j < 0 or abs(two_j - round(two_j)) > 1e-12:
        raise ParameterError(f"j must be a non-negative half-integer, got {j}")
    return round(two_j) / 2.0


def spin_operators(j: float) -> SpinAlgebra:
    """Ladder construction of Jx, Jy, Jz and the conventional reversal."""
    j = _check_spin(j)
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        raising[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    lowering = raising.conj().T
    jx = (raising + lowering) / 2.0
    jy = (raising - lowering) / 2j
    reversal = SymmetryTransform(mat_exp(jy, -1j * math.pi), antilinear=True, label="T")
    return SpinAlgebra(j=j, jx=jx, jy=jy, jz=jz, time_reversal=reversal)


@dataclass(frozen=True)
class EdmModel:
    """Spin in a static field with an on-axis dipole observable.

    ``hamiltonian = h0 * I + g * (J . E)`` and ``dipole = d * (J . n)``
    with n the unit vector along the field. Restricted to one irreducible
    block every vector observable is proportional to J, so the dipole is
    odd under the reversal transform, exactly like J itself.
    """

    spin: SpinAlgebra
    h0: float
    g: float
    e_field: tuple[float, float, float]
    d: float
    hamiltonian: np.ndarray
    dipole: np.ndarray
    axis: tuple[float, float, float]


def edm_model(j: float, h0: float, g: float, e_field: tuple[float, float, float], d: float) -> EdmModel:
    spin = spin_operators(j)
    field = np.asarray(e_field, dtype=float).reshape(-1)
    if field.size != 3 or not np.all(np.isfinite(field)):
        raise ParameterError(f"e_field must be a finite 3-vector, got {e_field!r}")
    strength = float(np.linalg.norm(field))
    if strength == 0.0:
        raise ParameterError("e_field must be nonzero; the dipole axis is undefined otherwise")
    if not float(d) > 0.0:
        raise ParameterError(f"d must be positive, got {d}")
    axis = field / strength
    coupling = field[0] * spin.jx + field[1] * spin.jy + field[2] * spin.jz
    hamiltonian = float(h0) * np.eye(spin.dim, dtype=complex) + float(g) * coupling
    dipole = float(d) * (axis[0] * spin.jx + axis[1] * spin.jy + axis[2] * spin.jz)
    return EdmModel(
        spin=spin,
        h0=float(h0),
        g=float(g),
        e_field=tuple(float(x) for x in field),
        d=float(d),
        hamiltonian=hamiltonian,
        dipole=dipole,
        axis=tuple(float(x) for x in axis),
    )


@dataclass(frozen=True)
class ChainRecord:
    """Per-eigenvector bookkeeping for the dipole proportionality chain."""

    level_index: int
    eigenvalue: float
    angmom_expectation: float
    dipole_expectation: float
    coupling: float
    dipole_eq_residual: float
    transport_residual: float
    reversed_eq_residual: float
    displacement: float


def wigner_eckart_chain(model: EdmModel, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[ChainRecord, ...]:
    """Verify the dipole proportionality and its motion-reversed form.

    For each non-degenerate eigenvector psi of the model Hamiltonian:
    ``<psi, D psi> = c <psi, J_n psi>`` with one constant c read off
    numerically, the antiunitary transport identity
    ``<T psi, T(D psi)> = conj(<psi, D psi>)`` holds, and the reversed
    equation ``<T psi, (T D T^-1)(T psi)> = -c <T psi, J_n (T psi)>``
    follows because J_n is odd under T. Degenerate clusters are skipped.
    """
    t = model.spin.time_reversal
    axis_j = (
        model.axis[0] * model.spin.jx
        + model.axis[1] * model.spin.jy
        + model.axis[2] * model.spin.jz
    )
    decomp = herm_eig(model.hamiltonian, tol=tol)
    clusters = spectrum_clusters(decomp.eigenvalues, tol.gap_tol)
    simple = [c.indices[0] for c in clusters.clusters if c.multiplicity == 1]
    if not simple:
        return ()

    expectations = []
    for k in simple:
        psi = decomp.vector(k)
        expectations.append(
            (
                k,
                float(np.real(np.vdot(psi, axis_j @ psi))),
                float(np.real(np.vdot(psi, model.dipole @ psi))),
            )
        )
    denom = sum(a * a for _, a, _ in expectations)
    coupling = sum(a * dd for _, a, dd in expectations) / denom if denom else 0.0

    reversed_dipole = conjugate_operator(t, model.dipole)
    records = []
    for (k, angmom, dip) in expectations:
        psi = decomp.vector(k)
        t_psi = apply(t, psi)
        transported = complex(np.vdot(t_psi, apply(t, model.dipole @ psi)))
        reversed_lhs = complex(np.vdot(t_psi, reversed_dipole @ t_psi))
        reversed_rhs = -coupling * complex(np.vdot(t_psi, axis_j @ t_psi))
        records.append(
            ChainRecord(
                level_index=k,
                eigenvalue=float(decomp.eigenvalues[k]),
                angmom_expectation=angmom,
                dipole_expectation=dip,
                coupling=coupling,
                dipole_eq_residual=abs(dip - coupling * angmom),
                transport_residual=abs(transported - np.conj(np.vdot(psi, model.dipole @ psi))),
                reversed_eq_residual=abs(reversed_lhs - reversed_rhs),
                displacement=ray_displacement(t, psi, tol=tol),
            )
        )
    return tuple(records)


@dataclass(frozen=True)
class KaonModel:
    """Two-flavor oscillation toy."""

    hamiltonian: np.ndarray
    time_reversal: SymmetryTransform
    labels: tuple[str, str]
    strangeness: tuple[int, int]
    k0: np.ndarray
    k0bar: np.ndarray
    k1: np.ndarray
    k2: np.ndarray


def kaon_oscillation_model(m1: float, m2: float, w: complex) -> KaonModel:
    """Flavor Hamiltonian ``[[m1, w], [conj(w), m2]]`` with reversal K."""
    h = np.array([[complex(m1), complex(w)], [np.conj(complex(w)), complex(m2)]])
    if abs(complex(m1).imag) > 0 or abs(complex(m2).imag) > 0:
        raise ParameterError("diagonal masses must be real")
    root2 = math.sqrt(2.0)
    return KaonModel(
        hamiltonian=h,
        time_reversal=conjugation(2, label="T"),
        labels=("K0", "K0bar"),
        strangeness=(1, -1),
        k0=np.array([1.0, 0.0], dtype=complex),
        k0bar=np.array([0.0, 1.0], dtype=complex),
        k1=np.array([1.0, 1.0], dtype=complex) / root2,
        k2=np.array([1.0, -1.0], dtype=complex) / root2,
    )


class KaonDecayModel(NamedTuple):
    """Decay toy: basis (long-lived kaon, two-pion state)."""

    smatrix: np.ndarray
    cp: SymmetryTransform
    psi_in: np.ndarray
    psi_out: np.ndarray


def kaon_decay_scattering_model(epsilon: float) -> KaonDecayModel:
    """Rotation-style S-matrix leaking the CP-odd state into CP-even.

    ``S = [[sqrt(1 - eps^2), eps], [-eps, sqrt(1 - eps^2)]]`` with
    ``CP = diag(-1, +1)``; eps is the leakage amplitude.
    """
    eps = float(epsilon)
    if not (0.0 <= eps < 1.0):
        raise ParameterError(f"epsilon must satisfy 0 <= epsilon < 1, got {epsilon}")
    c = math.sqrt(1.0 - eps * eps)
    smatrix = np.array([[c, eps], [-eps, c]], dtype=complex)
    cp = SymmetryTransform(np.diag([-1.0, 1.0]).astype(complex), antilinear=False, label="CP")
    return KaonDecayModel(
        smatrix=smatrix,
        cp=cp,
        psi_in=np.array([1.0, 0.0], dtype=complex),
        psi_out=np.array([0.0, 1.0], dtype=complex),
    )


def symmetrize_invariant(h: np.ndarray, g: SymmetryTransform, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Project H onto the g-commuting part: ``(H + g H g^-1) / 2``.

    Idempotent only when g squares to plus or minus the identity, so
    other squares are rejected, as is a g that is not unitary within ``tol.tau_zero``.
    """
    arr = require_hermitian(h, tol=tol.tau_zero, name="hamiltonian")
    require_transform(g, None, tol)
    square = compose(g, g).unitary_part
    eye = np.eye(g.dim)
    if min(frobenius_norm(square - eye), frobenius_norm(square + eye)) > tol.tau_zero:
        raise PremiseError("symmetrization needs a transform squaring to plus or minus identity")
    return (arr + conjugate_operator(g, arr)) / 2.0


def t_symmetric_smatrix(dim: int, seed: int) -> np.ndarray:
    """Unitary ``exp(-iG)`` for a seeded real symmetric G.

    Such a matrix is symmetric, so conjugation sends it to its inverse
    and every amplitude comparison against plain K balances exactly.
    """
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    g = (g + g.T) / 2.0
    return mat_exp(g.astype(complex), -1j)


def build_s_matrix(
    h0: np.ndarray,
    v: np.ndarray,
    t_initial: float,
    t_final: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Finite-window interaction-picture scattering operator.

    ``S = exp(+i H0 tf) exp(-i (H0 + V)(tf - ti)) exp(-i H0 ti)``. The
    exact propagator replaces a time-ordered expansion; to first order in
    V the two agree.
    """
    h0m = require_hermitian(h0, tol=tol.tau_zero, name="h0")
    vm = require_hermitian(v, tol=tol.tau_zero, name="v")
    if h0m.shape != vm.shape:
        raise ParameterError(f"shape mismatch {h0m.shape} vs {vm.shape}")
    ti = float(t_initial)
    tf = float(t_final)
    if ti > tf:
        raise ParameterError(f"need t_initial <= t_final, got {ti} > {tf}")
    return mat_exp(h0m, 1j * tf) @ mat_exp(h0m + vm, -1j * (tf - ti)) @ mat_exp(h0m, -1j * ti)
