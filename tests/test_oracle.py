"""The oracle must accept every sound verdict and flag every unsound one.

These pin sound Violations whose deciding quantity sits at a band edge
and that an earlier oracle rule reported as disagreements.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    DEFAULT_TOLERANCES,
    DETECTORS,
    REASON_INDETERMINATE,
    VIOLATION,
    PremiseError,
    Provenance,
    Report,
    Request,
    Scenario,
    ScenarioError,
    SymmetryTransform,
    Tolerances,
    Verdict,
    VerdictRecord,
    build_s_matrix,
    conjugation,
    dagger,
    invariance_margin,
    mat_exp,
    normalize,
    oracle_compare,
    frobenius_norm,
    parse_scenario,
    random_hermitian,
    random_unitary,
    run_scenario,
    serialize_report,
    serialize_scenario,
    shipped_scenario_paths,
    symmetrize_invariant,
)
from tvd import linalg, oracle, runner
from tvd.detectors import REFERENCES
from tvd.scenario import MATRIX_NAMES
from tvd.symmetry import compose, inverse
from tvd.cli import main
from tvd._draws import (
    BASE_SEED,
    BROKEN,
    GENERIC,
    MAXIMAL,
    SYMMETRIC,
    assemble,
    commuting_unitary,
    draw as draw_scenario,
    fact1_instances,
    generated_scenario,
    involution,
    reversal,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# real symmetric and swap-symmetric, so S = exp(-iG) commutes with the swap
# and is symmetric, which is what T = K asks of a reversal-invariant S
G = np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex)
S_EXACT = mat_exp(G, -1j)
EVEN_ODD = {
    "even": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "odd": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def weak_curie_scenario(h: np.ndarray, time: float) -> Scenario:
    """A swap-symmetric state evolved under H; swap symmetry is broken only by H."""
    return assemble({"hamiltonian": h}, {"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
                    {"plus": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)},
                    ("unitary_curie", {"symmetry": "R", "state": "plus", "time": time}))


def cpt_edge_scenario(seed: int) -> Scenario:
    """Real symmetric H with CPT = K and CP = exp(i eps A), eps bisected to the
    smallest float for which the CP margin exceeds the default tau_violation."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    h = ((g + g.T) / 2.0).astype(complex)
    a = ((b + b.T) / 2.0).astype(complex)

    def cp(eps: float) -> SymmetryTransform:
        return SymmetryTransform(mat_exp(a, 1j * eps), antilinear=False, label="CP")

    def above(eps: float) -> bool:
        return invariance_margin(cp(eps), h).value > DEFAULT_TOLERANCES.tau_violation

    lo, hi = 0.0, 1.0
    while not above(hi):
        hi *= 2.0
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return assemble({"hamiltonian": h}, {"CPT": conjugation(3, label="CPT"), "CP": cp(hi)}, {},
                    ("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}))


def oracle_on(scenario: Scenario, tol: Tolerances = DEFAULT_TOLERANCES):
    report = run_scenario(scenario, tol)
    (record,) = oracle_compare(scenario, report, tol)
    return report.records[0].verdict, record


@pytest.mark.parametrize("time", [100.0, 1000.0])
def test_weak_breaking_at_long_time_is_a_sound_violation(time):
    verdict, record = oracle_on(weak_curie_scenario(np.diag([1.0, 1.0 + 2e-7]).astype(complex), time))
    assert verdict.outcome == VIOLATION
    # the commutant lies inside the hysteresis band, yet is clearly nonzero
    assert DEFAULT_TOLERANCES.tau_zero < record.truths["commutant_margin"] <= DEFAULT_TOLERANCES.tau_violation
    assert record.agreed, record.note


# the commutant is below tau_zero; only the time it acts for makes the move clear
@pytest.mark.parametrize("eps, time", [(1e-10, 1e5), (1e-10, 1e4), (5e-10, 1e4)])
def test_weaker_breaking_at_longer_time_is_a_sound_violation(eps, time):
    verdict, record = oracle_on(weak_curie_scenario(np.diag([1.0, 1.0 + eps]).astype(complex), time))
    assert verdict.outcome == VIOLATION
    assert record.truths["commutant_margin"] <= DEFAULT_TOLERANCES.tau_zero
    assert record.agreed, record.note


@given(
    st.floats(-12.0, -8.0),
    st.floats(float(np.log10(2e-6)), -2.0),
    st.floats(0.5, 2.0),
)
def test_weak_breaking_violations_always_agree(log_eps, log_eps_time, level):
    assert_weak_breaking_agrees(log_eps, log_eps_time, level)


def assert_weak_breaking_agrees(log_eps: float, log_eps_time: float, level: float) -> None:
    eps = 10.0**log_eps
    h = np.diag([level, level + eps]).astype(complex)
    verdict, record = oracle_on(weak_curie_scenario(h, 10.0**log_eps_time / eps))
    assert verdict.outcome == VIOLATION
    assert record.agreed, record.truths


# Points of the property's domain where the Pade propagator at t ||H|| = 1e10
# drifts off unit norm by more than tau_violation, so the run raises instead
# of giving a Violation; 1.2460000000000007 is np.arange(0.5, 2.0005, 0.001)[746],
# the one failing level of that grid. The drift depends on the BLAS kernel, so
# another CPU may pass here; propagating through the eigendecomposition mends it.
@pytest.mark.xfail(raises=ScenarioError, strict=False, reason="Pade exp(-itH) is not unitary to 1e-6 at t ||H|| = 1e10")
@pytest.mark.parametrize("level", [1.3075, 1.2460000000000007])
def test_weak_breaking_violation_at_a_pinned_long_time_point(level):
    assert_weak_breaking_agrees(-12.0, -2.0, level)


@pytest.mark.parametrize(
    "margin, dev_f, time, accepted",
    [
        (1e-10, 1e-5, 1e5, True),
        # the move exceeds what the commutator can do in that time
        (1e-10, 1e-5, 1e4, False),
        # the move itself is consistent with zero
        (1e-10, 5e-10, 1e5, False),
        # a rounding-level commutator, however long it acts
        (1e-15, 1e-5, 1e12, False),
    ],
)
def test_weak_breaking_rule_needs_a_move_a_commutator_and_the_duhamel_bound(margin, dev_f, time, accepted):
    h = np.diag([1.0, 1.0 + margin]).astype(complex)
    assert oracle._weak_breaking_moves(margin, h, 0.0, dev_f, time, DEFAULT_TOLERANCES) is accepted


def test_oracle_cli_accepts_weak_breaking_violation(tmp_path, capsysbinary):
    target = tmp_path / "weak.json"
    target.write_bytes(serialize_scenario(weak_curie_scenario(np.diag([1.0, 1.0 + 2e-7]).astype(complex), 100.0)))
    code = main(["oracle", "--scenario", str(target)])
    out = capsysbinary.readouterr().out
    assert code == 0, out
    assert b"DISAGREES" not in out


def test_oracle_accepts_a_move_below_tau_zero_when_the_band_is_narrow(tmp_path, capsysbinary):
    # selftest's fact1 draw 233 at 0.9 / 0.99: the deviation moves by 0.566,
    # above tau_violation - tau_zero but below tau_zero, and the commutant
    # margin 0.815 is below tau_zero too
    h, r, psi, time = next(itertools.islice(fact1_instances(500), 233, None))
    scenario = assemble({"hamiltonian": h}, {"R": r}, {"psi": psi},
                        ("unitary_curie", {"symmetry": "R", "state": "psi", "time": time}),
                        tolerance_overrides={"tau_zero": 0.9, "tau_violation": 0.99})
    tol = scenario.effective_tolerances()
    (verdict,) = [record.verdict for record in run_scenario(scenario).records]
    assert verdict.outcome == VIOLATION
    assert invariance_margin(r, h).value <= tol.tau_zero
    move = abs(verdict.witness["final_deviation"] - verdict.witness["initial_deviation"])
    assert tol.tau_violation - tol.tau_zero < move <= tol.tau_zero
    target = tmp_path / "narrow_band.json"
    target.write_bytes(serialize_scenario(scenario))
    code = main(["oracle", "--scenario", str(target)])
    out = capsysbinary.readouterr().out
    assert code == 0, out
    assert b"DISAGREES" not in out


# seeds whose derived reversal margin rounds to exactly tau_violation
@pytest.mark.parametrize("seed", [0, 1, 10])
def test_cpt_link_violation_at_the_band_edge_is_sound(seed):
    verdict, record = oracle_on(cpt_edge_scenario(seed))
    assert verdict.outcome == VIOLATION
    assert record.truths["t_margin"] == DEFAULT_TOLERANCES.tau_violation
    assert record.agreed, record.note


@given(st.integers(0, 2**32 - 1))
def test_cpt_link_band_edge_violations_always_agree(seed):
    verdict, record = oracle_on(cpt_edge_scenario(seed))
    assert verdict.outcome == VIOLATION
    assert record.agreed, record.truths


def _dim2_wigner(off_diagonal: complex, diagonal: tuple[float, float]) -> Scenario:
    h = np.array([[diagonal[0], off_diagonal], [np.conj(off_diagonal), diagonal[1]]], dtype=complex)
    return assemble({"hamiltonian": h}, {"T": conjugation(2, label="T")}, {}, ("wigner", {"symmetry": "T"}))


def _narrow_scattering() -> Scenario:
    # states 0.05 off R's parity rays lift the cross-parity amplitude to 0.148
    # on a commutant margin of 0.098
    c = np.sqrt(1.0 - 0.049**2)
    return assemble(
        {"smatrix": np.array([[c, -0.049], [0.049, c]], dtype=complex)},
        {"R": SymmetryTransform(np.diag([1.0, -1.0]), antilinear=False, label="R")},
        {"in": normalize(np.array([1.0, 0.0499], dtype=complex)), "out": normalize(np.array([0.0499, 1.0], dtype=complex))},
        ("scattering_curie", {"symmetry": "R", "state_in": "in", "state_out": "out"}),
    )


def _generated_cpt_link() -> Scenario:
    # CPT margin 0.878, CP margin 1.129: the derived reversal's 0.716 is at least their difference
    scenario = generated_scenario(BASE_SEED + 16021)
    (request,) = [r for r in scenario.requests if r.detector == "cpt_link"]
    return dataclasses.replace(scenario, requests=(request,), tolerance_overrides=None)


# Sound Violations whose commutant margin is at or below tau_zero, which an oracle
# reading the margin alone flagged: (scenario, tolerances, the margin's truth key).
# The wigner Hamiltonians are the perfbench/workloads draws default_rng([7, 91]) and
# [7, 196] (time first, dim 2, regime r_symmetric) made exactly Hermitian.
CERTIFIED = {
    "scattering_curie": (_narrow_scattering(), (0.1, 0.12), "commutant_margin"),
    "wigner [7, 91]": (
        _dim2_wigner(-0.019224604040148585 + 0.08564291098025537j, (-0.6136265723798218, -0.5550487002108879)),
        (0.5, 0.6),
        "commutant_margin",
    ),
    "wigner [7, 196]": (
        _dim2_wigner(0.009864057660646186 + 0.19309940099253942j, (-1.2635963906209757, -1.378387319486199)),
        (0.5, 0.6),
        "commutant_margin",
    ),
    "cpt_link": (_generated_cpt_link(), (0.9, 0.99), "t_margin"),
}


@pytest.mark.parametrize("case", sorted(CERTIFIED))
def test_violation_certified_by_its_effect_agrees_below_tau_zero(case, tmp_path, capsysbinary):
    scenario, (tau_zero, tau_violation), truth = CERTIFIED[case]
    tol = Tolerances(tau_zero=tau_zero, tau_violation=tau_violation)
    verdict, record = oracle_on(scenario, tol)
    assert verdict.outcome == VIOLATION
    assert record.truths[truth] <= tau_zero
    assert record.agreed, record.note
    target = tmp_path / "certified.json"
    target.write_bytes(serialize_scenario(scenario))
    code = main(["oracle", "--scenario", str(target), "--tol-zero", str(tau_zero),
                 "--tol-violation", str(tau_violation)])
    out = capsysbinary.readouterr().out
    assert code == 0, out
    assert b"DISAGREES" not in out


@pytest.mark.parametrize(
    "margin, bound, accepted",
    [
        (0.1, 0.2, True),
        # the commutator cannot account for the bound
        (0.1, 0.21, False),
        # a rounding-level bound, or a rounding-level commutator
        (0.1, 1e-15, False),
        (1e-15, 1e-15, False),
    ],
)
def test_certificate_needs_a_bound_a_commutator_and_the_factor_two(margin, bound, accepted):
    # ||a||_F = 1, so the margin is the commutator and the floor 64 eps
    assert oracle._certified(margin, bound, np.diag([1.0, 0.0])) is accepted


@st.composite
def parity_draws(draw) -> dict:
    """Random tolerances, an involution R, a nearly R-commuting S and R's parity states.

    R = V diag(+-1) V^dag with both signs, S = C exp(-i eps K) with C unitary and
    block diagonal in R's eigenbasis, eps from 1e-14 to 1, and h0 an R-commuting
    Hermitian matrix plus eps_h0 K, with eps_h0 drawn alike. The even and odd states
    are nudged off their parity by up to tau_zero. T is plain conjugation or has a
    Haar unitary part; C C^T is symmetric, so conjugation sends it to its inverse.

    Nudged states can lift a cross-parity amplitude to about tau_zero (1 + sqrt(dim) / 2)
    on a commutant margin at or below tau_zero; the ``scattering_curie`` rule accepts
    such a Violation on the bound that the amplitude puts on the commutator.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 6))
    eps, eps_h0 = (10.0 ** draw(st.floats(-14.0, 0.0)) for _ in range(2))
    tau_zero = 10.0 ** draw(st.floats(-12.0, float(np.log10(0.9))))
    ratio = 10.0 ** draw(st.floats(float(np.log10(1.01)), 3.0))
    nudge = tau_zero * draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(dim) < 0.5, 1.0, -1.0)
    signs[:2] = (1.0, -1.0)
    v = random_unitary(dim, seed)
    block_seeds = itertools.count(seed + 1)
    commuting = commuting_unitary(v, signs, lambda n: random_unitary(n, next(block_seeds)))
    k = random_hermitian(dim, seed + 3)
    breaking = mat_exp(k, -1j * eps)
    r = involution(v, signs)

    def nudged(state: np.ndarray) -> np.ndarray:
        return normalize(state + nudge * normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))

    states = [nudged(v[:, 0]), nudged(v[:, 1])]
    if draw(st.booleans()):
        states.reverse()
    unitary_part = random_unitary(dim, seed + 4) if draw(st.booleans()) else np.eye(dim, dtype=complex)
    return {
        "tol": Tolerances(tau_zero=tau_zero, tau_violation=min(ratio * tau_zero, 0.99)),
        "r": r,
        "t": SymmetryTransform(unitary_part, antilinear=True, label="T"),
        "s": commuting @ breaking,
        "s_symmetric": commuting @ commuting.T @ breaking,
        "h0": symmetrize_invariant(random_hermitian(dim, seed + 5), r) + eps_h0 * k,
        "state_in": states[0],
        "state_out": states[1],
    }


def oracle_note(detector: str, args: dict, tol: Tolerances) -> str:
    """The note of the detector's oracle rule on the detector's own verdict."""
    record = DETECTORS[detector]
    return record.oracle(args, record.run(args, tol).outcome, tol)[1]


@given(parity_draws())
def test_scattering_curie_oracle_agrees_over_random_draws(d):
    args = {"smatrix": d["s"], "symmetry": d["r"], "state_in": d["state_in"], "state_out": d["state_out"]}
    assert oracle_note("scattering_curie", args, d["tol"]) == ""


@given(parity_draws())
def test_s_matrix_inference_oracle_agrees_over_random_draws(d):
    args = {"h0": d["h0"], "smatrix": d["s"], "symmetry": d["r"]}
    assert oracle_note("s_matrix_inference", args, d["tol"]) == ""


@given(parity_draws())
def test_kabir_oracle_agrees_over_random_draws(d):
    args = {"smatrix": d["s_symmetric"], "symmetry": d["t"], "state_in": d["state_in"], "state_out": d["state_out"]}
    assert oracle_note("kabir", args, d["tol"]) == ""


@st.composite
def wigner_draws(draw) -> tuple[dict, Tolerances]:
    """Random tolerances, an antiunitary T, H an invariant part plus eps K, and a gap_tol.

    T = W J K W^dag with W Haar and J the identity (T^2 = 1) or, in even dims,
    i sigma_y (x) 1 (T^2 = -1, so the invariant part has Kramers pairs that eps
    splits). Half the drawn bands have tau_violation below 2 tau_zero. gap_tol is
    the default, or puts the cluster limit or the detector's confident limit
    within a factor two of one of H's gaps. A gap_tol at 1e-12 or below is left
    out: there the detector resolves gaps that are rounding, so on an H that
    commutes with a T^2 = -1 reversal it splits a Kramers pair and reports an
    unsound Violation, which the oracle rightly flags (CHANGES.md, FOUND).
    """
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 6))
    eps = 10.0 ** draw(st.floats(-14.0, 0.0))
    tau_zero = 10.0 ** draw(st.floats(-12.0, float(np.log10(0.9))))
    ratio = 10.0 ** draw(st.floats(float(np.log10(1.01)), float(np.log10(4.0))))
    tol = Tolerances(tau_zero=tau_zero, tau_violation=min(ratio * tau_zero, 0.99))
    t = reversal(random_unitary(dim, seed), dim % 2 == 0 and draw(st.booleans()))
    h = symmetrize_invariant(random_hermitian(dim, seed + 1), t) + eps * random_hermitian(dim, seed + 2)
    args = {"hamiltonian": h, "symmetry": t}
    target = draw(st.sampled_from(["default", "cluster limit", "confident limit"]))
    if target != "default":
        values = np.linalg.eigvalsh(h)
        gap = np.diff(values)[draw(st.integers(0, dim - 2))] / max(1.0, values[-1] - values[0])
        gap_tol = gap * 2.0 ** draw(st.floats(-1.0, 1.0))
        if target == "confident limit":
            gap_tol *= tol.tau_zero / tol.tau_violation
        if gap_tol > 1e-12:
            args["gap_tol"] = float(gap_tol)
    return args, tol


@given(wigner_draws())
def test_wigner_oracle_agrees_over_random_draws(case):
    args, tol = case
    try:
        assert oracle_note("wigner", args, tol) == ""
    except PremiseError:
        pass  # an H within tau_zero of zero gives no verdict


@given(st.sampled_from(list(DETECTORS)), st.sampled_from([SYMMETRIC, BROKEN, GENERIC, MAXIMAL]),
       st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_keyed_draws_are_sound_and_their_regimes_hold(detector, regime, dim, seed):
    scenario = draw_scenario(detector, regime, dim, seed)
    report = run_scenario(scenario, DEFAULT_TOLERANCES)
    assert all(record.agreed for record in oracle_compare(scenario, report, DEFAULT_TOLERANCES))
    if regime in (SYMMETRIC, MAXIMAL):
        assert {record.verdict.is_violation for record in report.records} == {regime == MAXIMAL}


# ROADMAP item 18: at a gap_tol far below rounding, a Kramers pair split only by rounding counts as
# two simple levels, each of which T moves wholly, so the detector reports an unsound Violation
@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: the wigner cluster limit has no rounding floor")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kramers_pairs_split_by_rounding_give_no_violation(seed):
    scenario = draw_scenario("wigner", SYMMETRIC, 4, seed, kramers=True)
    (request,) = scenario.requests
    request = dataclasses.replace(request, params={**request.params, "gap_tol": 1e-20})
    verdict, record = oracle_on(dataclasses.replace(scenario, requests=(request,)))
    assert not verdict.is_violation and record.agreed, record.note


# for each detector, a scenario whose symmetry commutes exactly
COMMUTING = {
    # H commutes with the swap exactly
    "unitary_curie": weak_curie_scenario(np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex), 100.0),
    # S commutes with the swap exactly
    "scattering_curie": assemble({"smatrix": S_EXACT}, {"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
                                 EVEN_ODD, ("scattering_curie", {"symmetry": "R", "state_in": "even", "state_out": "odd"})),
    # H0 and S both commute with the swap exactly
    "s_matrix_inference": assemble({"h0": G, "smatrix": S_EXACT}, {"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
                                   {}, ("s_matrix_inference", {"symmetry": "R"})),
    # symmetric S: K sends it to its inverse
    "kabir": assemble({"smatrix": S_EXACT}, {"T": conjugation(2, label="T")}, EVEN_ODD,
                      ("kabir", {"symmetry": "T", "state_in": "even", "state_out": "odd"})),
    # real H: CPT = K and CP = 1 both commute exactly
    "cpt_link": assemble(
        {"hamiltonian": np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)},
        {"CPT": conjugation(2, label="CPT"), "CP": SymmetryTransform(np.eye(2, dtype=complex), antilinear=False, label="CP")},
        {},
        ("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}),
    ),
    # real H commutes with K
    "wigner": _dim2_wigner(0.3, (1.0, -1.0)),
}


@pytest.mark.parametrize("detector", list(COMMUTING))
def test_forged_violation_against_a_commuting_symmetry_is_flagged(detector):
    assert not forged_violation(COMMUTING[detector]).agreed


def forged_record(scenario: Scenario, verdict: Verdict):
    """The oracle's record for ``verdict`` in place of the detector's."""
    forged = Report(
        records=(VerdictRecord(scenario.requests[0].detector, verdict),),
        provenance=run_scenario(scenario, DEFAULT_TOLERANCES).provenance,
    )
    (record,) = oracle_compare(scenario, forged, DEFAULT_TOLERANCES)
    return record


def forged_violation(scenario: Scenario):
    return forged_record(scenario, Verdict.violation("T", margin=1.0, witness={"forged": True}))


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def parity_curie_scenario(h: np.ndarray, state: np.ndarray, time: float) -> Scenario:
    return assemble({"hamiltonian": h},
                    {"R": SymmetryTransform(np.diag([1.0, -1.0]).astype(complex), antilinear=False, label="R")},
                    {"psi": state.astype(complex)}, ("unitary_curie", {"symmetry": "R", "state": "psi", "time": time}))


@pytest.mark.parametrize(
    "h, state, time",
    [
        # R fixes (1, 0); sigma_x turns it towards (0, 1), which R flips
        (SIGMA_X, np.array([1.0, 0.0]), 1.0),
        # sigma_y rotates (1, 1)/sqrt(2), which R moves, onto (1, 0), which R fixes
        (SIGMA_Y, np.array([1.0, 1.0]) / np.sqrt(2.0), -np.pi / 4.0),
    ],
    ids=["initial-fixed", "final-fixed"],
)
def test_forged_no_conclusion_on_a_fixed_state_that_clearly_moves_is_flagged(h, state, time):
    scenario = parity_curie_scenario(h, state, time)
    verdict, sound = oracle_on(scenario)
    assert verdict.outcome == VIOLATION
    assert sound.agreed
    record = forged_record(scenario, Verdict.no_conclusion("below-threshold"))
    assert not record.agreed
    assert record.note == "no-conclusion verdict but a fixed state clearly moved"


def test_no_conclusion_on_a_state_that_stays_fixed_agrees():
    verdict, record = oracle_on(parity_curie_scenario(np.diag([1.0, 2.0]).astype(complex), np.array([1.0, 0.0]), 1.0))
    assert verdict.reason == "premise-unmet"
    assert record.agreed


def test_s_matrix_inference_oracle_records_the_full_hamiltonian_margin():
    h0 = np.diag([0.5, 2.0]).astype(complex)
    v = 0.3 * SIGMA_X
    cp = SymmetryTransform(np.diag([-1.0, 1.0]).astype(complex), antilinear=False, label="CP")
    built = assemble({"h0": h0, "v": v, "smatrix": build_s_matrix(h0, v, 0.0, 1.0)}, {"CP": cp}, {},
                     ("s_matrix_inference", {"symmetry": "CP"}))
    scenario = parse_scenario(serialize_scenario(built))
    verdict, record = oracle_on(scenario)
    assert verdict.outcome == VIOLATION
    assert record.agreed
    margin = record.truths["full_hamiltonian_margin"]
    full = scenario.matrices["h0"] + scenario.matrices["v"]
    assert margin == oracle._commutant_margin(cp.unitary_part, cp.antilinear, full)
    assert margin > DEFAULT_TOLERANCES.tau_violation
    without_v = dataclasses.replace(built, matrices={k: m for k, m in built.matrices.items() if k != "v"})
    assert "full_hamiltonian_margin" not in oracle_on(without_v)[1].truths


@pytest.mark.parametrize("time", [1.0, 1e3, 1e6])
def test_forged_violation_against_an_exact_commutant_is_flagged_at_any_time(time):
    record = forged_violation(weak_curie_scenario(np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex), time))
    assert not record.agreed


@pytest.mark.parametrize("seed", range(4))
def test_forged_violation_against_a_rounding_level_commutant_is_flagged(seed):
    """R and H commute exactly before rounding, and share a level across R's
    two sectors, so rounding alone moves the even state at long times."""
    u = random_unitary(4, seed)
    r = (u * np.array([1.0, 1.0, -1.0, -1.0])) @ u.conj().T
    a, b = np.random.default_rng(seed).standard_normal(2)
    h = (u * np.array([a, b, a, b])) @ u.conj().T
    scenario = assemble({"hamiltonian": (h + h.conj().T) / 2.0}, {"R": SymmetryTransform(r, antilinear=False, label="R")},
                        {"even": u[:, 0].copy()}, ("unitary_curie", {"symmetry": "R", "state": "even", "time": 1e8}))
    record = forged_violation(scenario)
    # the oracle's own propagation shows a move that the long time would cover
    assert abs(record.truths["final_deviation"] - record.truths["initial_deviation"]) > DEFAULT_TOLERANCES.tau_zero
    assert not record.agreed


def test_each_detector_record_is_well_formed():
    # a new detector cannot skip the forged-violation test
    assert list(COMMUTING) == list(DETECTORS)
    for record in DETECTORS.values():
        assert set(record.matrices) <= set(MATRIX_NAMES)
        assert not set(record.required) & set(record.optional)
        assert callable(record.run) and callable(record.oracle)
    fields = {name for record in DETECTORS.values() for name in record.required + record.optional}
    # every request field names a symmetry or a state, or is a number
    assert fields - set(REFERENCES) == {"time", "gap_tol"}


UNKNOWN = Scenario(dim=1, requests=(Request("nope", {}),))


def test_run_scenario_rejects_an_unknown_detector_built_in_process():
    with pytest.raises(ScenarioError) as err:
        run_scenario(UNKNOWN, DEFAULT_TOLERANCES)
    assert str(err.value) == "requests[0].detector: unknown detector 'nope'"


def test_oracle_compare_rejects_an_unknown_detector_built_in_process():
    report = Report(
        records=(VerdictRecord("nope", Verdict.violation("T", margin=1.0, witness={"forged": True})),),
        provenance=Provenance(tolerances=DEFAULT_TOLERANCES, seed=None),
    )
    with pytest.raises(ScenarioError) as err:
        oracle_compare(UNKNOWN, report, DEFAULT_TOLERANCES)
    assert str(err.value) == "requests[0].detector: unknown detector 'nope'"


# requests built in process, in a scenario without matrices, that lack a
# field or a matrix their detector needs; a missing field is named first
INCOMPLETE = {
    "field": (Request("unitary_curie", {"symmetry": "R", "time": 1.0}), "missing field 'state'"),
    "matrix": (Request("wigner", {"symmetry": "R"}), "detector 'wigner' needs matrix 'hamiltonian'"),
}


@pytest.mark.parametrize("missing", sorted(INCOMPLETE))
def test_incomplete_request_built_in_process_gets_the_parsers_message(missing):
    request, message = INCOMPLETE[missing]
    scenario = Scenario(
        dim=2,
        symmetries={"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
        requests=(request,),
    )
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, DEFAULT_TOLERANCES)
    assert str(err.value) == f"requests[0]: {message}"


# requests built in process that name a symmetry or a state the scenario lacks
MISSING_REFERENCES = {
    "symmetry": (Request("wigner", {"symmetry": "nope"}), "unknown symmetry 'nope'"),
    "state": (Request("unitary_curie", {"symmetry": "R", "state": "zz", "time": 1.0}), "unknown state 'zz'"),
}


@pytest.mark.parametrize("reference", sorted(MISSING_REFERENCES))
def test_unknown_reference_built_in_process_gets_the_parsers_message(reference):
    request, message = MISSING_REFERENCES[reference]
    scenario = Scenario(
        dim=2,
        matrices={"hamiltonian": G},
        symmetries={"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
        states={"even": EVEN_ODD["even"]},
        requests=(request,),
    )
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, DEFAULT_TOLERANCES)
    assert str(err.value) == f"requests[0]: {message}"
    forged = Verdict.violation("T", margin=1.0, witness={"forged": True})
    report = Report(
        records=(VerdictRecord(request.detector, forged),),
        provenance=Provenance(tolerances=DEFAULT_TOLERANCES, seed=None),
    )
    with pytest.raises(ScenarioError) as err:
        oracle_compare(scenario, report, DEFAULT_TOLERANCES)
    assert str(err.value) == f"requests[0]: {message}"


@pytest.mark.parametrize(
    "state, message",
    [([1.0, 1e-4], "state is not normalized (deviation 5.000e-09)"), ([np.nan, 0.0], "state has non-finite entries")],
    ids=["norm", "finite"],
)
def test_states_built_in_process_are_judged_before_the_first_request(state, message):
    # no request names the state, and the run judges it all the same
    scenario = assemble({"hamiltonian": G}, {"R": SymmetryTransform(SWAP, antilinear=False, label="R")},
                        {"even": EVEN_ODD["even"], "off": np.array(state, dtype=complex)},
                        ("unitary_curie", {"symmetry": "R", "state": "even", "time": 1.0}))
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, DEFAULT_TOLERANCES)
    assert str(err.value) == f"states.off: {message}"


# H = U·diag(0, 1e-6, 5)·U†: the gap of 1e-6 is isolated under the default
# gap_tol, so K moves a simple level (a Violation), and crowded under 0.5
MISSPELLED_GAP = Scenario(
    dim=3,
    matrices={"hamiltonian": (random_unitary(3, 4) * [0.0, 1e-6, 5.0]) @ random_unitary(3, 4).conj().T},
    symmetries={"K": conjugation(3)},
)


def test_unknown_field_built_in_process_is_rejected_not_ignored():
    # ignoring the misspelled field would give the default gap_tol's Violation
    requests = (Request("wigner", {"symmetry": "K"}), Request("wigner", {"symmetry": "K", "gap_tol": 0.5}))
    default, spelled = run_scenario(dataclasses.replace(MISSPELLED_GAP, requests=requests), DEFAULT_TOLERANCES).records
    assert default.verdict.outcome == VIOLATION and default.verdict.margin == pytest.approx(0.25, abs=1e-3)
    assert spelled.verdict.reason == REASON_INDETERMINATE
    request = Request("wigner", {"symmetry": "K", "gap_tl": 0.5})
    misspelled = dataclasses.replace(MISSPELLED_GAP, requests=(request,))
    with pytest.raises(ScenarioError) as err:
        run_scenario(misspelled, DEFAULT_TOLERANCES)
    assert str(err.value) == "requests[0]: unknown field 'gap_tl'"
    forged = Verdict.violation("K", margin=1.0, witness={"forged": True})
    report = Report(
        records=(VerdictRecord("wigner", forged),),
        provenance=Provenance(tolerances=DEFAULT_TOLERANCES, seed=None),
    )
    with pytest.raises(ScenarioError) as err:
        oracle_compare(misspelled, report, DEFAULT_TOLERANCES)
    assert str(err.value) == "requests[0]: unknown field 'gap_tl'"


def test_each_named_symmetry_is_held_to_the_runs_tau_zero_once(monkeypatch):
    nearly = SymmetryTransform(np.diag([1.0 - 4e-10, 1.0]), antilinear=True, label="T")
    scenario = assemble({"hamiltonian": np.diag([1.0, 2.0])}, {"K": conjugation(2), "T": nearly}, {},
                        *[("wigner", {"symmetry": "K"})] * 2, *[("wigner", {"symmetry": "T"})] * 2)
    checked = []
    monkeypatch.setattr(runner, "require_transform", lambda g, antilinear, tol: checked.append((g.label, antilinear)))
    run_scenario(scenario, DEFAULT_TOLERANCES)
    assert checked == [("K", None), ("T", None)]
    monkeypatch.undo()
    assert run_scenario(scenario, DEFAULT_TOLERANCES).records[3].verdict.outcome != VIOLATION
    message = r"^symmetries\[1\]\.unitary_part: unitary_part of T is not unitary \(deviation 8\.000e-10\)$"
    with pytest.raises(ScenarioError, match=message):
        run_scenario(scenario, dataclasses.replace(DEFAULT_TOLERANCES, tau_zero=1e-13, tau_violation=1e-10))


def near_bound_cpt_scenario() -> Scenario:
    """A Haar CP and a Haar antilinear CPT, each scaled by sqrt(1 + 3e-10), and a random H."""
    scale = np.sqrt(1.0 + 3e-10)
    return assemble(
        {"hamiltonian": random_hermitian(4, seed=21)},
        {"CP": SymmetryTransform(random_unitary(4, seed=22) * scale, antilinear=False, label="CP"),
         "CPT": SymmetryTransform(random_unitary(4, seed=23) * scale, antilinear=True, label="CPT")},
        {},
        ("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}),
    )


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_cpt_link_inputs_near_the_unitarity_bound_are_not_rechecked_as_a_product(tmp_path, capsysbinary, command):
    # each input is 6e-10 from unitary, within tau_zero, while CP^-1 CPT is
    # 1.2e-9 away: the oracle derives the reversal as an array, never as input
    scenario = parse_scenario(serialize_scenario(near_bound_cpt_scenario()))
    for g in scenario.symmetries.values():
        deviation = frobenius_norm(dagger(g.unitary_part) @ g.unitary_part - np.eye(4))
        assert 5e-10 < deviation <= DEFAULT_TOLERANCES.tau_zero
    _, record = oracle_on(scenario)
    assert record.agreed, record.note
    target = tmp_path / "near_bound.json"
    target.write_bytes(serialize_scenario(scenario))
    code = main([command, "--scenario", str(target)])
    captured = capsysbinary.readouterr()
    assert (code, captured.err) == (0, b"")


@pytest.mark.parametrize("cp_antilinear, cpt_antilinear", itertools.product([False, True], repeat=2))
def test_derived_reversal_has_the_bytes_of_the_composed_transform(cp_antilinear, cpt_antilinear):
    for seed in range(5):
        cp = SymmetryTransform(random_unitary(5, seed), antilinear=cp_antilinear)
        cpt = SymmetryTransform(random_unitary(5, seed + 5), antilinear=cpt_antilinear)
        parts = (cp.unitary_part, cp.antilinear, cpt.unitary_part, cpt.antilinear)
        unitary_part, antilinear = oracle._derived_reversal(*parts)
        composed = compose(inverse(cp), cpt)
        assert (unitary_part.tobytes(), antilinear) == (composed.unitary_part.tobytes(), composed.antilinear)


@pytest.mark.parametrize("name", sorted(shipped_scenario_paths()))
def test_run_request_gives_the_verdicts_of_run_scenario(name):
    scenario = parse_scenario(shipped_scenario_paths()[name].read_bytes())
    tol = scenario.effective_tolerances()
    report = run_scenario(scenario, tol)
    records = tuple(VerdictRecord(r.detector, runner.run_request(scenario, r, tol)) for r in scenario.requests)
    assert serialize_report(dataclasses.replace(report, records=records)) == serialize_report(report)


# a dim-2 scenario whose S is Haar and R = diag(1, -1): with a state of norm
# two, scattering_curie would find Violation(R on S), amplitude 1.405, from
# the norm alone; R = diag(1, -1.5) would feed invariance_margin a non-unitary map
def invalid_scenario(case: str) -> Scenario:
    states = {"even": np.array([2.0 if case == "state" else 1.0, 0.0]), "odd": np.array([0.0, 1.0])}
    return assemble(
        {"hamiltonian": G, "h0": np.diag([1.0, 2.0]), "smatrix": random_unitary(2, 3)},
        {"R": SymmetryTransform(np.diag([1.0, -1.5 if case == "symmetry" else -1.0]), False, "R"), "K": conjugation(2)},
        states,
        ("scattering_curie", {"symmetry": "R", "state_in": "even", "state_out": "odd"}),
        ("kabir", {"symmetry": "K", "state_in": "even", "state_out": "odd"}),
        ("s_matrix_inference", {"symmetry": "R"}),
        ("cpt_link", {"cpt_symmetry": "K", "cp_symmetry": "R"}),
    )


INVALID = {
    "state": "states.even: state is not normalized (deviation 1.000e+00)",
    "symmetry": "symmetries[1].unitary_part: unitary_part of R is not unitary (deviation 1.250e+00)",
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_every_entry_point_judges_the_scenario_with_the_same_text(case):
    scenario = parse_scenario(serialize_scenario(invalid_scenario(case)))
    with pytest.raises(ScenarioError) as err:
        run_scenario(scenario, DEFAULT_TOLERANCES)
    assert str(err.value) == INVALID[case]
    for request in scenario.requests:
        with pytest.raises(ScenarioError) as err:
            runner.run_request(scenario, request, DEFAULT_TOLERANCES)
        assert str(err.value) == INVALID[case]
    # a forged report meets the oracle's own check, which reads no detector memo
    forged = Verdict.violation("R", margin=1.0, witness={"forged": True})
    report = Report(
        records=tuple(VerdictRecord(r.detector, forged) for r in scenario.requests),
        provenance=Provenance(tolerances=DEFAULT_TOLERANCES, seed=None),
    )
    linalg._deviation.clear()
    with pytest.raises(ScenarioError) as err:
        oracle_compare(scenario, report, DEFAULT_TOLERANCES)
    assert str(err.value) == INVALID[case]
    assert not linalg._deviation.table


def test_run_request_judges_states_the_request_does_not_name():
    valid = invalid_scenario("none")
    assert len(run_scenario(valid, DEFAULT_TOLERANCES).records) == 4
    scenario = dataclasses.replace(invalid_scenario("state"), requests=())
    with pytest.raises(ScenarioError, match=r"^states\.even: "):
        runner.run_request(scenario, Request("s_matrix_inference", {"symmetry": "R"}), DEFAULT_TOLERANCES)


def test_a_symmetry_built_in_process_is_indexed_in_its_tables_order():
    # the message names the label either way; the index follows Scenario.symmetries,
    # which serialize_scenario writes sorted by label
    bad = SymmetryTransform(np.diag([1.0, 1.5]), antilinear=True, label="T")
    scenario = Scenario(dim=2, symmetries={"T": bad, "K": conjugation(2)})
    text = "unitary_part of T is not unitary (deviation 1.250e+00)"
    for built, index in ((scenario, 0), (parse_scenario(serialize_scenario(scenario)), 1)):
        with pytest.raises(ScenarioError) as err:
            run_scenario(built, DEFAULT_TOLERANCES)
        assert str(err.value) == f"symmetries[{index}].unitary_part: {text}"


def test_oracle_compare_rejects_a_report_of_another_length():
    scenario = parse_scenario(shipped_scenario_paths()["kaon_decay"].read_bytes())
    report = run_scenario(scenario, DEFAULT_TOLERANCES)
    short = dataclasses.replace(report, records=report.records[:-1])
    with pytest.raises(ScenarioError, match="^report does not match the scenario request list$"):
        oracle_compare(scenario, short, DEFAULT_TOLERANCES)


def test_oracle_compare_rejects_the_report_of_another_scenario():
    paths = shipped_scenario_paths()
    scenario = parse_scenario(paths["cpt_link_toy"].read_bytes())
    other = run_scenario(parse_scenario(paths["edm_spin_half"].read_bytes()), DEFAULT_TOLERANCES)
    # one record each, but a wigner verdict cannot be judged as a cpt_link one
    assert len(other.records) == len(scenario.requests)
    with pytest.raises(ScenarioError, match="^report does not match the scenario request list$"):
        oracle_compare(scenario, other, DEFAULT_TOLERANCES)
