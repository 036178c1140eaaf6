"""Invariant suites for every module, runnable without pytest.

``tvd selftest`` checks what no module test can: that at the tolerances a
user sets (``--tol-zero`` / ``--tol-violation``) each detector's verdicts
are sound. Each detector's suite draws seeded scenarios in two regimes,
symmetric by construction and broken, the broken ones with a maximal-breaking
member, and runs them as ``tvd oracle`` does: through ``run_scenario`` and
``oracle_compare`` at the user's tolerances. The draws are unsound when an
oracle record disagrees, and each detector must find a Violation. The other
checks read the run's tolerances too; checks with fixed bounds live in the
module tests under ``tests/``. No suite judges the library's random
constructors, so the suites draw with them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ClassificationError, PremiseError, ScenarioError
from .linalg import _gaussian_hermitian, _haar_unitary, dagger, frobenius_norm, herm_eig, mat_exp, normalize
from .models import (
    edm_model,
    kaon_oscillation_model,
    spin_operators,
    symmetrize_invariant,
    t_symmetric_smatrix,
    wigner_eckart_chain,
)
from .runner import oracle_compare, run_scenario
from .scenario import Request, Scenario, parse_scenario, serialize_report, serialize_scenario
from .symmetry import SymmetryTransform, apply, conjugation, invariance_margin
from .wigner import (
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    kramers_square,
    ray_displacement,
    spectrum_clusters,
)

_BASE_SEED = 20240811
_DRAWS = 500


@dataclass
class SuiteResult:
    name: str
    passed: int
    failed: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0


class _Checker:
    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(label)

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(name=name, passed=self.passed, failed=len(self.failures), failures=self.failures)


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _signed_involution(rng: np.random.Generator, dim: int) -> tuple[SymmetryTransform, np.ndarray, np.ndarray]:
    """Linear unitary R = V diag(signs) V^dag together with V and signs."""
    v = _haar_unitary(rng, dim)
    signs = rng.integers(0, 2, dim) * 2 - 1
    if np.all(signs == -1):
        signs[0] = 1
    u = (v * signs) @ v.conj().T
    return SymmetryTransform(u, antilinear=False, label="R"), v, signs


def _fixed_state(rng: np.random.Generator, v: np.ndarray, signs: np.ndarray) -> np.ndarray:
    cols = np.flatnonzero(signs == 1)
    coeffs = rng.standard_normal(cols.size) + 1j * rng.standard_normal(cols.size)
    return normalize(v[:, cols] @ coeffs)


def _half_spin_reversal(dim: int) -> SymmetryTransform:
    """Antilinear transform squaring to minus identity; dim must be even."""
    sigma_y_block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = np.kron(sigma_y_block, np.eye(dim // 2)).astype(complex)
    return SymmetryTransform(u, antilinear=True, label="T")


def _judge(c: _Checker, draws: Iterable[Scenario], tol: Tolerances) -> None:
    """Run each draw as ``tvd oracle`` does, at ``tol``. Per detector, its requests
    are sound when no oracle record disagrees, and one must be a Violation."""
    draws = list(draws)
    requests = Counter(request.detector for scenario in draws for request in scenario.requests)
    unsound, violations = Counter(), Counter()
    for scenario in draws:
        try:
            report = run_scenario(scenario, tol)
            oracle_records = oracle_compare(scenario, report, tol)
        except ScenarioError as exc:
            if isinstance(exc.__cause__, PremiseError):
                continue  # an H within tau_zero of zero gives no verdict
            # a draw whose inputs fail their checks at tol (the validity pass, or a
            # detector's class check of a matrix or evolved state) is a failed check
            if not (exc.path.startswith(("symmetries[", "states.")) or isinstance(exc.__cause__, ClassificationError)):
                raise
            c.check(f"draw passes the input checks: {exc}", False)
            continue
        for record, judged in zip(report.records, oracle_records):
            unsound[record.detector] += not judged.agreed
            violations[record.detector] += record.verdict.is_violation
    for detector, count in requests.items():
        c.check(f"{detector} soundness over {count} requests", not unsound[detector])
        c.check(f"{detector} violations occur", violations[detector] > 0)


def _draw(matrices: dict, symmetries: dict, states: dict, *requests: tuple[str, dict]) -> Scenario:
    dim = next(iter(matrices.values())).shape[0]
    return Scenario(dim, matrices, symmetries, states, tuple(Request(name, fields) for name, fields in requests))


def _maximal(*detectors: str) -> Scenario:
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
    return _draw(
        {"hamiltonian": np.array([[0.0, 1.0], [1.0, 0.0]]), "h0": np.diag([1.0, 2.0]),
         "smatrix": np.array([[0.0, -1.0], [1.0, 0.0]])},
        {"R": SymmetryTransform(r, False, "R"), "K": conjugation(2), "RK": SymmetryTransform(r, True, "RK")},
        {"even": np.array([1.0, 0.0j]), "odd": np.array([0.0, 1.0j])},
        *((name, requests[name]) for name in detectors),
    )


def _strength(rng: np.random.Generator) -> float:
    """A breaking strength, log-uniform from weak to maximal."""
    return float(10.0 ** rng.uniform(-3.0, 0.0))


# ---------------------------------------------------------------------------
# suites


def linalg_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    for i in range(40):
        rng = np.random.default_rng(_BASE_SEED + i)
        dim = 2 + i % 5
        h = _gaussian_hermitian(rng, dim)
        decomp = herm_eig(h, tol=tol)
        recon = (decomp.eigenvectors * decomp.eigenvalues) @ dagger(decomp.eigenvectors)
        c.check(f"eig reconstruction {i}", frobenius_norm(recon - h) <= tol.tau_eig * max(1.0, frobenius_norm(h)))
        gram = dagger(decomp.eigenvectors) @ decomp.eigenvectors
        c.check(f"eig orthonormal {i}", frobenius_norm(gram - np.eye(dim)) <= tol.tau_zero)
    return c.result("linalg")


def _cpt_link_draws():
    """CP a real involution and CPT = K; H real and CP-symmetric, real with CP broken
    by a drawn strength, or complex."""
    for i in range(_DRAWS):
        rng = np.random.default_rng(_BASE_SEED + 5000 + i)
        dim = 2 + i % 5
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        cp = (q * np.concatenate(([1, -1], rng.integers(0, 2, dim - 2) * 2 - 1))) @ q.T
        g = rng.standard_normal((dim, dim))
        h = g + g.T + (1.0 - (i % 2) * _strength(rng)) * cp @ (g + g.T) @ cp
        if i % 4 == 3:
            h = _gaussian_hermitian(rng, dim)
        yield _draw({"hamiltonian": h}, {"CP": SymmetryTransform(cp, False, "CP"), "CPT": conjugation(dim, "CPT")},
                    {}, ("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}))
    yield _maximal("cpt_link")


def symmetry_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    _judge(c, _cpt_link_draws(), tol)
    return c.result("symmetry")


def fact1_instances(count: int, base_seed: int = _BASE_SEED + 300):
    """Seeded (H, R, psi, t) instances with a mix of regimes."""
    for i in range(count):
        rng = np.random.default_rng(base_seed + i)
        dim = 2 + i % 5
        r, v, signs = _signed_involution(rng, dim)
        kind = i % 3
        h = _gaussian_hermitian(rng, dim)
        if kind == 1:
            h = symmetrize_invariant(h, r)
        if kind == 2:
            psi = _random_state(rng, dim)
        else:
            psi = _fixed_state(rng, v, signs)
        t = float(rng.uniform(-5, 5))
        yield h, r, psi, t


def _curie_draws():
    """``fact1_instances``; then R with both parities, S commuting with it, on every
    other draw times exp(-i eps K) with a drawn strength eps, and h0 commuting with it
    but on every fourth draw."""
    for h, r, psi, t in fact1_instances(_DRAWS):
        yield _draw({"hamiltonian": h}, {"R": r}, {"psi": psi},
                    ("unitary_curie", {"symmetry": "R", "state": "psi", "time": t}))
    for i in range(_DRAWS):
        rng = np.random.default_rng(_BASE_SEED + 2000 + i)
        dim = 2 + i % 5
        v = _haar_unitary(rng, dim)
        signs = np.concatenate(([1, -1], rng.integers(0, 2, dim - 2) * 2 - 1))
        r = SymmetryTransform((v * signs) @ v.conj().T, False, "R")
        blocks = np.zeros((dim, dim), dtype=complex)
        for sector in (signs == 1, signs == -1):
            blocks[np.ix_(sector, sector)] = _haar_unitary(rng, np.count_nonzero(sector))
        s = v @ blocks @ v.conj().T @ mat_exp(_gaussian_hermitian(rng, dim), -1j * (i % 2) * _strength(rng))
        h0 = _gaussian_hermitian(rng, dim)
        if i % 4 != 3:
            h0 = symmetrize_invariant(h0, r)
        states = {"even": v[:, 0], "odd": v[:, 1]}
        flow = {"state_in": "even", "state_out": "odd"} if i % 3 else {"state_in": "odd", "state_out": "even"}
        yield _draw({"h0": h0, "smatrix": s}, {"R": r}, states,
                    ("scattering_curie", {"symmetry": "R", **flow}), ("s_matrix_inference", {"symmetry": "R"}))
    yield _maximal("unitary_curie", "scattering_curie", "s_matrix_inference")


def curie_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    _judge(c, _curie_draws(), tol)
    return c.result("curie")


def _kabir_draws():
    """Every third S reversal-symmetric under K; the others Haar, with a Haar antilinear T."""
    for i in range(_DRAWS):
        rng = np.random.default_rng(_BASE_SEED + 3000 + i)
        dim = 2 + i % 5
        if i % 3 == 0:
            s = t_symmetric_smatrix(dim, _BASE_SEED + i)
            t = conjugation(dim, label="T")
        else:
            s = _haar_unitary(rng, dim)
            t = SymmetryTransform(_haar_unitary(rng, dim), antilinear=True, label="T")
        states = {"in": _random_state(rng, dim), "out": _random_state(rng, dim)}
        yield _draw({"smatrix": s}, {"T": t}, states,
                    ("kabir", {"symmetry": "T", "state_in": "in", "state_out": "out"}))
    yield _maximal("kabir")


def kabir_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    _judge(c, _kabir_draws(), tol)
    return c.result("kabir")


def _wigner_draws():
    """T = W J W^T K with W Haar and J = 1, or the half-spin J in even dims; H
    Gaussian, its part that T reverses scaled by zero on every other draw, else by a drawn strength."""
    for i in range(_DRAWS):
        rng = np.random.default_rng(_BASE_SEED + 8000 + i)
        dim = 2 + i % 5
        w = _haar_unitary(rng, dim)
        j = _half_spin_reversal(dim).unitary_part if dim % 2 == 0 and i % 4 > 1 else np.eye(dim)
        t = SymmetryTransform(w @ j @ w.T, antilinear=True, label="T")
        h = _gaussian_hermitian(rng, dim)
        invariant = symmetrize_invariant(h, t)
        h = invariant + (i % 2) * _strength(rng) * (h - invariant)
        yield _draw({"hamiltonian": h}, {"T": t}, {}, ("wigner", {"symmetry": "T"}))
    yield _maximal("wigner")


def wigner_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    corollary = True
    for i in range(200):
        rng = np.random.default_rng(_BASE_SEED + 7000 + i)
        dim = (2, 4, 6)[i % 3]
        t = _half_spin_reversal(dim)
        h = _gaussian_hermitian(rng, dim)
        decomp = herm_eig(h, tol=tol)
        clusters = spectrum_clusters(decomp.eigenvalues, tol.gap_tol)
        if 1 in clusters.multiplicities and invariance_margin(t, h).value <= tol.tau_zero:
            corollary = False
    c.check("simple level forbids commuting minus-identity reversal", corollary)
    _judge(c, _wigner_draws(), tol)
    return c.result("wigner")


def models_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    try:
        _model_checks(c, tol)
    except ClassificationError as exc:  # a spin T unitary only to rounding above tau_zero
        c.check(f"models checks run at tau_zero: {exc}", False)
    return c.result("models")


def _model_checks(c: _Checker, tol: Tolerances) -> None:
    for j in (0.0, 0.5, 1.0, 1.5, 2.0):
        square = kramers_square(spin_operators(j).time_reversal, tol=tol)
        expected = MINUS_IDENTITY if (round(2 * j) % 2 == 1) else PLUS_IDENTITY
        c.check(f"square class j={j}", square.classification == expected)

    chain_ok = True
    perm_ok = True
    for j in (0.5, 1.0, 1.5):
        for g in (0.1, 1.0):
            for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
                model = edm_model(j, h0=1.0, g=g, e_field=axis, d=0.7)
                records = wigner_eckart_chain(model, tol=tol)
                if not records:
                    chain_ok = False
                    continue
                for rec in records:
                    if rec.dipole_eq_residual > 1e-10 or rec.reversed_eq_residual > 1e-10:
                        chain_ok = False
                    if rec.transport_residual > 1e-10:
                        chain_ok = False
                    if rec.displacement <= tol.tau_zero and abs(rec.dipole_expectation) > 1e-9:
                        perm_ok = False
    c.check("dipole proportionality chain", chain_ok)
    c.check("fixed rays have zero dipole expectation", perm_ok)

    # T-fixed superpositions in an integer irrep carry no dipole expectation
    fixed_ok = True
    for i in range(20):
        rng = np.random.default_rng(_BASE_SEED + 11000 + i)
        model = edm_model(1.0, h0=0.0, g=1.0, e_field=(0.0, 0.0, 1.0), d=1.0)
        t = model.spin.time_reversal
        psi = _random_state(rng, model.spin.dim)
        candidate = psi + apply(t, psi)
        if np.linalg.norm(candidate) < 1e-6:
            continue
        candidate = normalize(candidate)
        if ray_displacement(t, candidate, tol=tol) <= tol.tau_zero:
            if abs(complex(np.vdot(candidate, model.dipole @ candidate))) > 1e-9:
                fixed_ok = False
    c.check("constructed fixed rays have zero dipole", fixed_ok)

    osc = kaon_oscillation_model(0.5, 0.7, 0.1)
    c.check("real mixing commutes with conjugation",
            invariance_margin(osc.time_reversal, osc.hamiltonian).value <= tol.tau_zero)


def _generated_scenario(seed: int) -> Scenario:
    rng = np.random.default_rng(seed)
    dim = (2, 3, 4)[seed % 3]
    h = _gaussian_hermitian(rng, dim)
    h0 = np.diag(rng.standard_normal(dim)).astype(complex)
    s = _haar_unitary(rng, dim)
    t = conjugation(dim, label="T")
    r, v, signs = _signed_involution(rng, dim)
    states = {
        "ground": _random_state(rng, dim),
        "excited": _random_state(rng, dim),
        "even": normalize(v[:, np.flatnonzero(signs == 1)[0]]),
    }
    requests = [
        Request("unitary_curie", {"symmetry": "R", "state": "ground", "time": float(rng.uniform(-2, 2))}),
        Request("kabir", {"symmetry": "T", "state_in": "ground", "state_out": "excited"}),
        Request("wigner", {"symmetry": "T"}),
        Request("s_matrix_inference", {"symmetry": "R"}),
        Request("cpt_link", {"cpt_symmetry": "T", "cp_symmetry": "R"}),
    ]
    overrides = {"tau_zero": 1e-9, "tau_violation": 2e-6} if seed % 2 else None
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": h, "h0": h0, "smatrix": s},
        symmetries={"T": t, "R": r},
        states=states,
        requests=tuple(requests),
        tolerance_overrides=overrides,
        seed=seed if seed % 3 else None,
    )


def scenario_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    round_trip = True
    deterministic = True
    for i in range(50):
        scenario = _generated_scenario(_BASE_SEED + 16000 + i)
        blob = serialize_scenario(scenario)
        parsed = parse_scenario(blob)
        if serialize_scenario(parsed) != blob:
            round_trip = False
        first = serialize_report(run_scenario(parsed))
        second = serialize_report(run_scenario(parse_scenario(blob)))
        if first != second:
            deterministic = False
    c.check("parse serialize round trip over 50 documents", round_trip)
    c.check("reports are byte deterministic", deterministic)
    return c.result("scenario_io")


SUITES = {
    "linalg": linalg_suite,
    "symmetry": symmetry_suite,
    "curie": curie_suite,
    "kabir": kabir_suite,
    "wigner": wigner_suite,
    "models": models_suite,
    "scenario_io": scenario_suite,
}
