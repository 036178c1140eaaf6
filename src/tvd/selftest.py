"""Invariant suites for every module, runnable without pytest.

Each suite replays the documented invariants of one module with fixed
seeds and reports pass counts. A suite keeps only the checks that no
module test under ``tests/`` restates: invariants over many seeded draws,
and checks that read the run's tolerances, so ``tvd selftest`` under
``--tol-zero`` / ``--tol-violation`` judges the thresholds a user sets.
Fixed examples and decision tables live in the module tests. No suite
judges the library's random constructors, so the suites draw with them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .curie import scattering_curie_check, unitary_curie_check
from .detectors import DETECTORS
from .errors import PremiseError
from .kabir import amplitude_pair, probability_asymmetry, transition_probability
from .linalg import (
    _gaussian_hermitian,
    _haar_unitary,
    commutator,
    dagger,
    frobenius_norm,
    herm_eig,
    mat_exp,
    normalize,
    random_unitary,
)
from .models import (
    build_s_matrix,
    edm_model,
    kaon_decay_scattering_model,
    kaon_oscillation_model,
    spin_operators,
    symmetrize_invariant,
    t_symmetric_smatrix,
    wigner_eckart_chain,
)
from .runner import run_scenario
from .scenario import Request, Scenario, parse_scenario, serialize_report, serialize_scenario
from .symmetry import (
    SymmetryTransform,
    apply,
    conjugate_operator,
    conjugation,
    invariance_margin,
    time_reversal_consistency,
)
from .verdict import NO_CONCLUSION, REASON_BELOW_THRESHOLD, VIOLATION
from .wigner import (
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    kramers_degeneracy_verify,
    kramers_square,
    ray_displacement,
    spectrum_clusters,
    wigner_principle_check,
)

_BASE_SEED = 20240811


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


def _check_soundness(c: _Checker, label: str, detector: str, draws: Iterable[dict], tol: Tolerances) -> None:
    """Run each draw as ``tvd check`` does; a draw is unsound when its oracle rule returns a note."""
    record = DETECTORS[detector]
    judged = [(args, record.run(args, tol).outcome) for args in draws]
    c.check(label, not any(record.oracle(args, outcome, tol)[1] for args, outcome in judged))
    c.check("violations actually occur", any(outcome == VIOLATION for _, outcome in judged))


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
        c.check(f"eig ascending {i}", bool(np.all(np.diff(decomp.eigenvalues) >= -1e-14)))
    return c.result("linalg")


def symmetry_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    for i in range(30):
        rng = np.random.default_rng(_BASE_SEED + 100 + i)
        dim = 2 + i % 5
        g = SymmetryTransform(_haar_unitary(rng, dim), antilinear=bool(i % 2), label="g")
        psi = _random_state(rng, dim)
        phi = _random_state(rng, dim)
        c.check(f"norm preserved {i}", abs(float(np.linalg.norm(apply(g, psi))) - 1.0) <= 1e-12)
        if g.antilinear:
            lhs = complex(np.vdot(apply(g, psi), apply(g, phi)))
            c.check(f"antiunitarity {i}", abs(lhs - np.conj(np.vdot(psi, phi))) <= 1e-12)

    for i in range(20):
        rng = np.random.default_rng(_BASE_SEED + 200 + i)
        dim = 2 if i % 2 else 4
        t = _half_spin_reversal(dim) if i % 3 == 0 else conjugation(dim)
        h = _gaussian_hermitian(rng, dim)
        if i % 2 == 0:
            h = symmetrize_invariant(h, t, tol=tol)
        margin_zero = invariance_margin(t, h).value <= tol.tau_zero
        times = rng.uniform(-5, 5, 10)
        consistent = all(time_reversal_consistency(t, h, tt, tol=tol).value <= tol.tau_zero for tt in times)
        c.check(f"margin consistency equivalence {i}", margin_zero == consistent)
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


def curie_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    draws = ({"hamiltonian": h, "symmetry": r, "state": psi, "time": t} for h, r, psi, t in fact1_instances(500))
    _check_soundness(c, "unitary soundness over 500 instances", "unitary_curie", draws, tol)

    clean = True
    for i in range(1000):
        rng = np.random.default_rng(_BASE_SEED + 900 + i)
        dim = 2 + i % 5
        r, v, signs = _signed_involution(rng, dim)
        h = symmetrize_invariant(_gaussian_hermitian(rng, dim), r)
        psi = _fixed_state(rng, v, signs) if i % 2 else _random_state(rng, dim)
        verdict = unitary_curie_check(h, r, psi, float(rng.uniform(-5, 5)), tol=tol)
        if verdict.outcome == VIOLATION:
            clean = False
    c.check("no violation on symmetrized dynamics over 1000 instances", clean)

    contrapositive = True
    for i in range(100):
        rng = np.random.default_rng(_BASE_SEED + 2000 + i)
        dim = 2 + i % 5
        r, v, signs = _signed_involution(rng, dim)
        plus = np.flatnonzero(signs == 1)
        minus = np.flatnonzero(signs == -1)
        if plus.size == 0 or minus.size == 0:
            continue
        # S block diagonal in R's eigenbasis commutes with R
        blocks = np.zeros((dim, dim), dtype=complex)
        blocks[np.ix_(plus, plus)] = _haar_unitary(rng, plus.size)
        blocks[np.ix_(minus, minus)] = _haar_unitary(rng, minus.size)
        s = v @ blocks @ v.conj().T
        even = v[:, plus[0]]
        odd = v[:, minus[0]]
        if abs(np.vdot(odd, s @ even)) > 1e-10:
            contrapositive = False
        verdict = scattering_curie_check(s, r, even, odd, tol=tol)
        if verdict.outcome != NO_CONCLUSION or verdict.reason != REASON_BELOW_THRESHOLD:
            contrapositive = False
    c.check("commuting S has no cross-parity amplitude", contrapositive)
    return c.result("curie")


def _kabir_instances(count: int):
    """Seeded kabir request arguments; every third S is reversal-symmetric."""
    for i in range(count):
        rng = np.random.default_rng(_BASE_SEED + 3000 + i)
        dim = 2 + i % 5
        if i % 3 == 0:
            s = t_symmetric_smatrix(dim, _BASE_SEED + i)
            t = conjugation(dim, label="T")
        else:
            s = _haar_unitary(rng, dim)
            t = SymmetryTransform(_haar_unitary(rng, dim), antilinear=True, label="T")
        yield {"smatrix": s, "symmetry": t, "state_in": _random_state(rng, dim), "state_out": _random_state(rng, dim)}


def kabir_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    _check_soundness(c, "amplitude soundness over 500 instances", "kabir", _kabir_instances(500), tol)

    balanced = True
    for i in range(60):
        dim = 2 + i % 5
        s = t_symmetric_smatrix(dim, _BASE_SEED + 4000 + i)
        t = conjugation(dim)
        eye = np.eye(dim, dtype=complex)
        worst = max(
            amplitude_pair(s, t, eye[:, a], eye[:, b], tol=tol).asymmetry
            for a in range(dim)
            for b in range(dim)
        )
        if worst > 1e-10:
            balanced = False
    c.check("reversal-symmetric S balances all basis amplitudes", balanced)

    two_by_two = True
    for i in range(200):
        u = random_unitary(2, _BASE_SEED + 5000 + i)
        if abs(abs(u[0, 1]) - abs(u[1, 0])) > 1e-12:
            two_by_two = False
    c.check("2x2 unitarity forces balanced probabilities", two_by_two)

    u = mat_exp(np.array([[0, 1], [1, 0]], dtype=complex), -1j * math.pi / 4)
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    c.check("probability example", abs(transition_probability(u, e1, e2) - 0.5) <= 1e-12)
    in_range = True
    for i in range(50):
        rng = np.random.default_rng(_BASE_SEED + 6000 + i)
        dim = 2 + i % 4
        val = transition_probability(_haar_unitary(rng, dim), _random_state(rng, dim), _random_state(rng, dim))
        if not (0.0 <= val <= 1.0 + 1e-12):
            in_range = False
    c.check("probabilities in unit interval", in_range)
    c.check("probability asymmetry identity dim2",
            probability_asymmetry(random_unitary(2, 7), e1, e2) <= 1e-12)
    return c.result("kabir")


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

    contrapositive = True
    for i in range(100):
        rng = np.random.default_rng(_BASE_SEED + 8000 + i)
        dim = 2 + i % 5
        t = conjugation(dim)
        h = symmetrize_invariant(_gaussian_hermitian(rng, dim), t, tol=tol)
        decomp = herm_eig(h, tol=tol)
        clusters = spectrum_clusters(decomp.eigenvalues, tol.gap_tol)
        for cluster in clusters.clusters:
            if cluster.multiplicity == 1:
                delta = ray_displacement(t, decomp.vector(cluster.indices[0]), tol=tol)
                if delta > 1e-8:
                    contrapositive = False
        try:
            if wigner_principle_check(h, t, tol=tol).outcome == VIOLATION:
                contrapositive = False
        except PremiseError:
            pass  # an H within tau_zero of zero gives no verdict
    c.check("commuting reversal leaves simple rays fixed", contrapositive)

    phase_ok = True
    sum_ok = True
    for i in range(50):
        rng = np.random.default_rng(_BASE_SEED + 9000 + i)
        dim = 2 + i % 5
        t = SymmetryTransform(_haar_unitary(rng, dim), antilinear=True)
        psi = _random_state(rng, dim)
        theta = float(rng.uniform(0, 2 * math.pi))
        d1 = ray_displacement(t, psi, tol=tol)
        d2 = ray_displacement(t, np.exp(1j * theta) * psi, tol=tol)
        if abs(d1 - d2) > 1e-12:
            phase_ok = False
        h = _gaussian_hermitian(rng, dim)
        clusters = spectrum_clusters(np.linalg.eigvalsh(h), tol.gap_tol)
        if sum(clusters.multiplicities) != dim:
            sum_ok = False
    c.check("ray displacement is phase invariant", phase_ok)
    c.check("cluster multiplicities cover the spectrum", sum_ok)

    kramers_ok = True
    for i in range(100):
        rng = np.random.default_rng(_BASE_SEED + 10000 + i)
        dim = (2, 4, 6)[i % 3]
        t = _half_spin_reversal(dim)
        h = symmetrize_invariant(_gaussian_hermitian(rng, dim), t, tol=tol)
        report = kramers_degeneracy_verify(h, t, tol=tol)
        if not (report.applicable and report.passed):
            kramers_ok = False
    c.check("forced even degeneracy holds on invariant dynamics", kramers_ok)
    report = kramers_degeneracy_verify(np.diag([1.0, 2.0]).astype(complex), conjugation(2), tol=tol)
    c.check("plus-identity square is not applicable", not report.applicable)
    report = kramers_degeneracy_verify(np.diag([1.0, 2.0]).astype(complex), _half_spin_reversal(2), tol=tol)
    c.check("non-commuting reversal is not applicable", not report.applicable)
    return c.result("wigner")


def models_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    for j in (0.0, 0.5, 1.0, 1.5, 2.0):
        spin = spin_operators(j)
        flips = all(
            frobenius_norm(conjugate_operator(spin.time_reversal, comp) + comp) <= 1e-10
            for comp in (spin.jx, spin.jy, spin.jz)
        )
        c.check(f"reversal flips J j={j}", flips)
        square = kramers_square(spin.time_reversal, tol=tol)
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

    # dipole is odd under the spin reversal, matching J itself
    model = edm_model(1.0, h0=0.0, g=1.0, e_field=(0.0, 0.0, 1.0), d=0.7)
    t = model.spin.time_reversal
    c.check("dipole reversal parity",
            frobenius_norm(conjugate_operator(t, model.dipole) + model.dipole) <= 1e-10)

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
    c.check("flavor states fixed by conjugation",
            float(np.linalg.norm(apply(osc.time_reversal, osc.k0) - osc.k0)) <= 1e-15
            and float(np.linalg.norm(apply(osc.time_reversal, osc.k0bar) - osc.k0bar)) <= 1e-15)

    decay_ok = True
    for i in range(100):
        eps = i / 101.0
        model = kaon_decay_scattering_model(eps)
        s = model.smatrix
        if frobenius_norm(dagger(s) @ s - np.eye(2)) > 1e-12:
            decay_ok = False
        comm = frobenius_norm(commutator(model.cp.unitary_part, s))
        if abs(comm - 2.0 * math.sqrt(2.0) * eps) > 1e-12:
            decay_ok = False
    c.check("decay toy unitarity and commutator law", decay_ok)

    rev_ok = True
    for i in range(30):
        dim = 2 + i % 5
        s = t_symmetric_smatrix(dim, _BASE_SEED + 13000 + i)
        if frobenius_norm(s.conj() - dagger(s)) > 1e-12:
            rev_ok = False
        if frobenius_norm(dagger(s) @ s - np.eye(dim)) > 1e-12:
            rev_ok = False
    c.check("seeded symmetric S conjugates to its inverse", rev_ok)

    s_ok = True
    for i in range(20):
        rng = np.random.default_rng(_BASE_SEED + 14000 + i)
        dim = 2 + i % 4
        h0 = _gaussian_hermitian(rng, dim)
        v = _gaussian_hermitian(rng, dim)
        ti, tf = sorted(rng.uniform(-3, 3, 2))
        s = build_s_matrix(h0, v, ti, tf, tol=tol)
        if frobenius_norm(dagger(s) @ s - np.eye(dim)) > 1e-10:
            s_ok = False
        if frobenius_norm(build_s_matrix(h0, np.zeros((dim, dim)), ti, tf, tol=tol) - np.eye(dim)) > 1e-12:
            s_ok = False
        diag = np.diag(rng.standard_normal(dim)).astype(complex)
        diag_v = np.diag(rng.standard_normal(dim)).astype(complex)
        expected = mat_exp(diag_v, -1j * (tf - ti))
        if frobenius_norm(build_s_matrix(diag, diag_v, ti, tf, tol=tol) - expected) > 1e-10:
            s_ok = False
    c.check("interaction window propagator", s_ok)

    # first order in V the window propagator matches the time-ordered series
    dyson_ok = True
    for i in range(5):
        rng = np.random.default_rng(_BASE_SEED + 15000 + i)
        dim = 3
        h0 = _gaussian_hermitian(rng, dim)
        v = _gaussian_hermitian(rng, dim)
        v *= 1e-3 / frobenius_norm(v)
        ti, tf = -1.0, 1.5
        s = build_s_matrix(h0, v, ti, tf, tol=tol)
        times, weight = np.linspace(ti, tf, 2001, retstep=True)
        acc = np.zeros((dim, dim), dtype=complex)
        for k, tt in enumerate(times):
            w = weight * (0.5 if k in (0, len(times) - 1) else 1.0)
            u0 = mat_exp(h0, 1j * tt)
            acc += w * (u0 @ v @ u0.conj().T)
        first_order = np.eye(dim) - 1j * acc
        if frobenius_norm(s - first_order) > 1e-5:
            dyson_ok = False
    c.check("first order agreement with the time-ordered series", dyson_ok)
    return c.result("models")


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
