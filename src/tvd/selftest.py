"""Invariant suites for every module, runnable without pytest.

``tvd selftest`` checks what no module test can: that at the tolerances a
user sets (``--tol-zero`` / ``--tol-violation``) each detector's verdicts
are sound. Each detector's suite judges a series of seeded draws from
``_draws`` (symmetric by construction, broken, generic, and one maximal
draw) and runs them as ``tvd oracle`` does: through ``run_scenario`` and
``oracle_compare`` at the user's tolerances. The draws are unsound when an
oracle record disagrees, and each detector must find a Violation. The other
checks read the run's tolerances too; checks with fixed bounds live in the
module tests under ``tests/``. No suite judges the library's random
constructors, so the suites draw with them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import _draws
from ._draws import BASE_SEED, half_spin_reversal, random_state
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ClassificationError, PremiseError, ScenarioError
from .linalg import _gaussian_hermitian, dagger, frobenius_norm, herm_eig, normalize
from .models import edm_model, kaon_oscillation_model, spin_operators, wigner_eckart_chain
from .runner import oracle_compare, run_scenario
from .scenario import Scenario, parse_scenario, serialize_report, serialize_scenario
from .symmetry import apply, invariance_margin
from .wigner import (
    MINUS_IDENTITY,
    PLUS_IDENTITY,
    kramers_square,
    ray_displacement,
    spectrum_clusters,
)

# the acceptance tests read the Fact 1 draws from here
fact1_instances = _draws.fact1_instances


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


def _failed_input(c: _Checker, exc: ScenarioError) -> None:
    """Judge a draw whose run raised ``exc``; an error that is neither case below is raised again."""
    if isinstance(exc.__cause__, PremiseError):
        return  # an H within tau_zero of zero gives no verdict
    # a draw whose inputs fail their checks at tol (the validity pass, or a
    # detector's class check of a matrix or evolved state) is a failed check
    if not (exc.path.startswith(("symmetries[", "states.")) or isinstance(exc.__cause__, ClassificationError)):
        raise exc
    c.check(f"draw passes the input checks: {exc}", False)


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
            _failed_input(c, exc)
            continue
        for record, judged in zip(report.records, oracle_records):
            unsound[record.detector] += not judged.agreed
            violations[record.detector] += record.verdict.is_violation
    for detector, count in requests.items():
        c.check(f"{detector} soundness over {count} requests", not unsound[detector])
        c.check(f"{detector} violations occur", violations[detector] > 0)


def _judged(name: str, draws: Callable[[], Iterable[Scenario]]) -> Callable[[Tolerances], SuiteResult]:
    """The suite ``name`` that judges ``draws()`` alone."""

    def suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
        c = _Checker()
        _judge(c, draws(), tol)
        return c.result(name)

    return suite


# ---------------------------------------------------------------------------
# suites


def linalg_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    for i in range(40):
        rng = np.random.default_rng(BASE_SEED + i)
        dim = 2 + i % 5
        h = _gaussian_hermitian(rng, dim)
        decomp = herm_eig(h, tol=tol)
        recon = (decomp.eigenvectors * decomp.eigenvalues) @ dagger(decomp.eigenvectors)
        c.check(f"eig reconstruction {i}", frobenius_norm(recon - h) <= tol.tau_eig * max(1.0, frobenius_norm(h)))
        gram = dagger(decomp.eigenvectors) @ decomp.eigenvectors
        c.check(f"eig orthonormal {i}", frobenius_norm(gram - np.eye(dim)) <= tol.tau_zero)
    return c.result("linalg")


def wigner_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    corollary = True
    for i in range(200):
        rng = np.random.default_rng(BASE_SEED + 7000 + i)
        dim = (2, 4, 6)[i % 3]
        t = half_spin_reversal(dim)
        h = _gaussian_hermitian(rng, dim)
        decomp = herm_eig(h, tol=tol)
        clusters = spectrum_clusters(decomp.eigenvalues, tol.gap_tol)
        if 1 in clusters.multiplicities and invariance_margin(t, h).value <= tol.tau_zero:
            corollary = False
    c.check("simple level forbids commuting minus-identity reversal", corollary)
    _judge(c, _draws.wigner_draws(), tol)
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
        rng = np.random.default_rng(BASE_SEED + 11000 + i)
        model = edm_model(1.0, h0=0.0, g=1.0, e_field=(0.0, 0.0, 1.0), d=1.0)
        t = model.spin.time_reversal
        psi = random_state(rng, model.spin.dim)
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


def scenario_suite(tol: Tolerances = DEFAULT_TOLERANCES) -> SuiteResult:
    c = _Checker()
    round_trip = True
    deterministic = True
    for i in range(50):
        scenario = _draws.generated_scenario(BASE_SEED + 16000 + i)
        blob = serialize_scenario(scenario)
        parsed = parse_scenario(blob)
        if serialize_scenario(parsed) != blob:
            round_trip = False
        try:
            first = serialize_report(run_scenario(parsed, tol))
            second = serialize_report(run_scenario(parse_scenario(blob), tol))
        except ScenarioError as exc:
            _failed_input(c, exc)
            continue
        if first != second:
            deterministic = False
    c.check("parse serialize round trip over 50 documents", round_trip)
    c.check("reports are byte deterministic", deterministic)
    return c.result("scenario_io")


SUITES = {
    "linalg": linalg_suite,
    "symmetry": _judged("symmetry", _draws.cpt_link_draws),
    "curie": _judged("curie", _draws.curie_draws),
    "kabir": _judged("kabir", _draws.kabir_draws),
    "wigner": wigner_suite,
    "models": models_suite,
    "scenario_io": scenario_suite,
}
