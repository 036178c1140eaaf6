"""Seeded scenario draws, keyed by detector, regime, dim and seed (``draw``).

In ``SYMMETRIC`` the request's symmetry holds by construction; in ``BROKEN``
it is broken at a drawn strength (``unitary_curie``: by a Gaussian H); in
``GENERIC`` nothing is built in, so a premise may fail; ``MAXIMAL`` is the
dim-2 draw on which the deciding quantity takes its largest value. The
``*_draws`` series are what ``tvd selftest`` judges.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

import numpy as np

from .linalg import _gaussian_hermitian, _haar_unitary, mat_exp, normalize
from .models import symmetrize_invariant, t_symmetric_smatrix
from .scenario import Request, Scenario
from .symmetry import SymmetryTransform, conjugation

SYMMETRIC, BROKEN, GENERIC, MAXIMAL = "symmetric", "broken", "generic", "maximal"
BASE_SEED = 20240811
DRAWS = 500  # per series
_FACT1_REGIMES = (BROKEN, SYMMETRIC, GENERIC)
_BY_FOUR = (SYMMETRIC, BROKEN, SYMMETRIC, GENERIC)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def involution(v: np.ndarray, signs: np.ndarray, label: str = "R") -> SymmetryTransform:
    """The linear R = V diag(signs) V^dag, for V unitary and each sign +1 or -1."""
    return SymmetryTransform((v * signs) @ v.conj().T, antilinear=False, label=label)


def commuting_unitary(v: np.ndarray, signs: np.ndarray, block: Callable[[int], np.ndarray]) -> np.ndarray:
    """V C V^dag, which commutes with ``involution(v, signs)``: C is block diagonal
    on the sign sectors, each block an n x n unitary ``block(n)``, the +1 sector first."""
    c = np.zeros(v.shape, dtype=complex)
    for sector in (signs == 1, signs == -1):
        c[np.ix_(sector, sector)] = block(np.count_nonzero(sector))
    return v @ c @ v.conj().T


def signed_involution(rng: np.random.Generator, dim: int) -> tuple[SymmetryTransform, np.ndarray, np.ndarray]:
    """A Haar V and random signs, not all -1, with the ``involution`` they give."""
    v = _haar_unitary(rng, dim)
    signs = rng.integers(0, 2, dim) * 2 - 1
    if np.all(signs == -1):
        signs[0] = 1
    return involution(v, signs), v, signs


def _both_signs(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.concatenate(([1, -1], rng.integers(0, 2, dim - 2) * 2 - 1))


def fixed_state(rng: np.random.Generator, v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    cols = np.flatnonzero(signs == 1)
    coeffs = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    return normalize(v[:, cols] @ coeffs)


def half_spin_reversal(dim: int) -> SymmetryTransform:
    """T = (i sigma_y (x) 1) K, squaring to minus identity; dim must be even."""
    u = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(dim // 2)).astype(complex)
    return SymmetryTransform(u, antilinear=True, label="T")


def reversal(w: np.ndarray, kramers: bool = False) -> SymmetryTransform:
    """T = W J W^T K, for W unitary and J the identity, or with ``kramers`` the
    ``half_spin_reversal`` J (T^2 = -1; even dims)."""
    j = half_spin_reversal(w.shape[0]).unitary_part if kramers else np.eye(w.shape[0])
    return SymmetryTransform(w @ j @ w.T, antilinear=True, label="T")


def strength(rng: np.random.Generator) -> float:
    """A breaking strength, log-uniform from weak to maximal."""
    return float(10.0 ** rng.uniform(-3.0, 0.0))


def assemble(matrices: dict, symmetries: dict, states: dict, *requests: tuple[str, dict], **fields) -> Scenario:
    dim = next(iter(matrices.values())).shape[0]
    return Scenario(dim, matrices, symmetries, states, tuple(Request(*request) for request in requests), **fields)


def maximal(*detectors: str) -> Scenario:
    """A dim-2 draw on which each detector's deciding quantity takes its largest value.

    H = sigma_x and S = -i sigma_y map R = diag(1, -1)'s even state onto its odd one,
    S is antisymmetric, H is real, and R K moves both eigenrays of H onto each other.
    """
    r = np.diag([1.0, -1.0]).astype(complex)
    requests = {
        "unitary_curie": {"symmetry": "R", "state": "even", "time": math.pi / 2},
        "scattering_curie": {"symmetry": "R", "state_in": "even", "state_out": "odd"},
        "s_matrix_inference": {"symmetry": "R"},
        "kabir": {"symmetry": "K", "state_in": "even", "state_out": "odd"},
        "cpt_link": {"cpt_symmetry": "K", "cp_symmetry": "R"},
        "wigner": {"symmetry": "RK"},
    }
    return assemble(
        {"hamiltonian": np.array([[0.0, 1.0], [1.0, 0.0]]), "h0": np.diag([1.0, 2.0]),
         "smatrix": np.array([[0.0, -1.0], [1.0, 0.0]])},
        {"R": SymmetryTransform(r, False, "R"), "K": conjugation(2), "RK": SymmetryTransform(r, True, "RK")},
        {"even": np.array([1.0, 0.0j]), "odd": np.array([0.0, 1.0j])},
        *((name, requests[name]) for name in detectors),
    )


def _fact1(regime: str, dim: int, rng: np.random.Generator) -> tuple:
    """(H, R, psi, t): H Gaussian, symmetrized when symmetric; psi fixed by R but when generic."""
    r, v, signs = signed_involution(rng, dim)
    h = _gaussian_hermitian(rng, dim)
    if regime == SYMMETRIC:
        h = symmetrize_invariant(h, r)
    psi = random_state(rng, dim) if regime == GENERIC else fixed_state(rng, v, signs)
    return h, r, psi, float(rng.uniform(-5, 5))


def _unitary_curie(regime: str, dim: int, rng: np.random.Generator) -> Scenario:
    h, r, psi, t = _fact1(regime, dim, rng)
    return assemble({"hamiltonian": h}, {"R": r}, {"psi": psi},
                    ("unitary_curie", {"symmetry": "R", "state": "psi", "time": t}))


def _scattering(regime: str, dim: int, rng: np.random.Generator, reverse: bool = False) -> Scenario:
    """S commuting with R, times exp(-i eps K) at a drawn eps but when symmetric; h0
    commuting with R but when generic; from R's even state to its odd one, or back."""
    v = _haar_unitary(rng, dim)
    signs = _both_signs(rng, dim)
    r = involution(v, signs)
    s = commuting_unitary(v, signs, lambda n: _haar_unitary(rng, n)) @ mat_exp(
        _gaussian_hermitian(rng, dim), -1j * (regime != SYMMETRIC) * strength(rng))
    h0 = _gaussian_hermitian(rng, dim)
    if regime != GENERIC:
        h0 = symmetrize_invariant(h0, r)
    flow = {"state_in": "odd", "state_out": "even"} if reverse else {"state_in": "even", "state_out": "odd"}
    return assemble({"h0": h0, "smatrix": s}, {"R": r}, {"even": v[:, 0], "odd": v[:, 1]},
                    ("scattering_curie", {"symmetry": "R", **flow}), ("s_matrix_inference", {"symmetry": "R"}))


def _kabir(regime: str, dim: int, rng: np.random.Generator) -> Scenario:
    """S symmetric and T = K; else S and T's unitary part Haar."""
    if regime == SYMMETRIC:
        s, t = t_symmetric_smatrix(dim, int(rng.integers(2**32))), conjugation(dim, label="T")
    else:
        s, t = _haar_unitary(rng, dim), SymmetryTransform(_haar_unitary(rng, dim), antilinear=True, label="T")
    states = {"in": random_state(rng, dim), "out": random_state(rng, dim)}
    return assemble({"smatrix": s}, {"T": t}, states, ("kabir", {"symmetry": "T", "state_in": "in", "state_out": "out"}))


def _cpt_link(regime: str, dim: int, rng: np.random.Generator) -> Scenario:
    """CP a real involution and CPT = K; H real with CP broken at a drawn strength but
    when symmetric, or complex when generic."""
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    cp = (q * _both_signs(rng, dim)) @ q.T
    g = rng.standard_normal((dim, dim))
    h = g + g.T + (1.0 - (regime != SYMMETRIC) * strength(rng)) * cp @ (g + g.T) @ cp
    if regime == GENERIC:
        h = _gaussian_hermitian(rng, dim)
    return assemble({"hamiltonian": h}, {"CP": SymmetryTransform(cp, False, "CP"), "CPT": conjugation(dim, "CPT")},
                    {}, ("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}))


def _wigner(regime: str, dim: int, rng: np.random.Generator, kramers: bool = False) -> Scenario:
    """T a ``reversal`` by a Haar W; H Gaussian, the part T reverses scaled by zero
    when symmetric, else by a drawn strength."""
    t = reversal(_haar_unitary(rng, dim), kramers)
    h = _gaussian_hermitian(rng, dim)
    invariant = symmetrize_invariant(h, t)
    h = invariant + (regime != SYMMETRIC) * strength(rng) * (h - invariant)
    return assemble({"hamiltonian": h}, {"T": t}, {}, ("wigner", {"symmetry": "T"}))


_DRAWERS = {"unitary_curie": _unitary_curie, "scattering_curie": _scattering, "s_matrix_inference": _scattering,
            "kabir": _kabir, "cpt_link": _cpt_link, "wigner": _wigner}


def draw(detector: str, regime: str, dim: int, seed: int, **variant: bool) -> Scenario:
    """A scenario with a ``detector`` request in ``regime``; ``variant`` is ``reverse``
    for the scattering pair, ``kramers`` for ``wigner``."""
    if regime == MAXIMAL:
        return maximal(detector)
    return _DRAWERS[detector](regime, dim, np.random.default_rng(seed), **variant)


def fact1_instances(count: int, base_seed: int = BASE_SEED + 300) -> Iterator[tuple]:
    """Seeded (H, R, psi, t) instances with a mix of regimes."""
    for i in range(count):
        yield _fact1(_FACT1_REGIMES[i % 3], 2 + i % 5, np.random.default_rng(base_seed + i))


def cpt_link_draws() -> Iterator[Scenario]:
    for i in range(DRAWS):
        yield draw("cpt_link", _BY_FOUR[i % 4], 2 + i % 5, BASE_SEED + 5000 + i)
    yield maximal("cpt_link")


def curie_draws() -> Iterator[Scenario]:
    for i in range(DRAWS):
        yield draw("unitary_curie", _FACT1_REGIMES[i % 3], 2 + i % 5, BASE_SEED + 300 + i)
    for i in range(DRAWS):
        yield draw("scattering_curie", _BY_FOUR[i % 4], 2 + i % 5, BASE_SEED + 2000 + i, reverse=i % 3 == 0)
    yield maximal("unitary_curie", "scattering_curie", "s_matrix_inference")


def kabir_draws() -> Iterator[Scenario]:
    for i in range(DRAWS):
        yield draw("kabir", GENERIC if i % 3 else SYMMETRIC, 2 + i % 5, BASE_SEED + 3000 + i)
    yield maximal("kabir")


def wigner_draws() -> Iterator[Scenario]:
    for i in range(DRAWS):
        dim = 2 + i % 5
        yield draw("wigner", (SYMMETRIC, BROKEN)[i % 2], dim, BASE_SEED + 8000 + i, kramers=dim % 2 == 0 and i % 4 > 1)
    yield maximal("wigner")


def generated_scenario(seed: int) -> Scenario:
    """Five detectors' requests on generic matrices, for the ``scenario_io`` suite."""
    rng = np.random.default_rng(seed)
    dim = (2, 3, 4)[seed % 3]
    h, h0 = _gaussian_hermitian(rng, dim), np.diag(rng.standard_normal(dim)).astype(complex)
    s = _haar_unitary(rng, dim)
    r, v, signs = signed_involution(rng, dim)
    states = {"ground": random_state(rng, dim), "excited": random_state(rng, dim),
              "even": normalize(v[:, np.flatnonzero(signs == 1)[0]])}
    return assemble(
        {"hamiltonian": h, "h0": h0, "smatrix": s}, {"T": conjugation(dim, label="T"), "R": r}, states,
        ("unitary_curie", {"symmetry": "R", "state": "ground", "time": float(rng.uniform(-2, 2))}),
        ("kabir", {"symmetry": "T", "state_in": "ground", "state_out": "excited"}),
        ("wigner", {"symmetry": "T"}),
        ("s_matrix_inference", {"symmetry": "R"}),
        ("cpt_link", {"cpt_symmetry": "T", "cp_symmetry": "R"}),
        tolerance_overrides={"tau_zero": 1e-9, "tau_violation": 2e-6} if seed % 2 else None,
        seed=seed if seed % 3 else None,
    )
