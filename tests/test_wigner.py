import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvd import (
    DEFAULT_TOLERANCES,
    MINUS_IDENTITY,
    NO_CONCLUSION,
    OTHER,
    PLUS_IDENTITY,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    VIOLATION,
    ClassificationError,
    MisuseError,
    PremiseError,
    Report,
    Request,
    Scenario,
    SymmetryTransform,
    Tolerances,
    Verdict,
    VerdictRecord,
    conjugation,
    herm_eig,
    kaon_oscillation_model,
    kramers_square,
    oracle_compare,
    random_hermitian,
    random_unitary,
    ray_displacement,
    run_scenario,
    spectrum_clusters,
    wigner_principle_check,
)
from tvd.runner import oracle_record

SIGMA_Y_FLIP = SymmetryTransform(
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex), antilinear=True, label="T"
)


def test_spectrum_clusters_groups_by_relative_gap():
    grouping = spectrum_clusters(np.array([1.0, 1.0, 2.0]))
    assert grouping.multiplicities == (2, 1)
    assert grouping.spectral_range == pytest.approx(1.0)


def test_spectrum_clusters_boundary_gap_joins():
    # gap exactly at gap_tol * max(1, range) still joins the cluster
    grouping = spectrum_clusters(np.array([0.0, 1e-8, 1.0]))
    assert grouping.multiplicities == (2, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spectra spanning -1e308..1e308 overflow
def test_spectrum_cluster_values_are_the_bits_of_np_mean():
    rng = np.random.default_rng(3)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.0, 1.0 + 2.0**-52, 1e308, -1e308]
    spectra = [np.array([-0.0]), np.array([-0.0, -0.0, 1.0]), np.array([-1.0, -0.0, 1.0])]
    for n in range(1, 40):
        spectra.append(np.sort(rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0)))
        spectra.append(np.sort(rng.choice(specials, n)))
        spectra.append(np.sort(np.round(rng.standard_normal(n), 1)))
    for values in spectra:
        for gap_tol in (1e-16, 1e-8, 0.05, 1.0):
            grouping = spectrum_clusters(values, gap_tol)
            assert sum(grouping.multiplicities) == values.size
            for c in grouping.clusters:
                mean = float(np.mean(values[c.indices[0] : c.indices[-1] + 1]))
                assert math.copysign(1.0, c.value) == math.copysign(1.0, mean)
                assert c.value == mean or (math.isnan(c.value) and math.isnan(mean))


def test_spectrum_clusters_split_at_a_nan_gap():
    grouping = spectrum_clusters(np.array([0.0, np.nan, 0.0]))
    assert grouping.multiplicities == (1, 1, 1)


def test_spectrum_clusters_rejects_bad_input():
    with pytest.raises(PremiseError):
        spectrum_clusters(np.array([2.0, 1.0]))
    with pytest.raises(PremiseError):
        spectrum_clusters(np.array([]))
    with pytest.raises(PremiseError):
        spectrum_clusters(np.array([1.0]), gap_tol=0.0)


def test_nan_gap_tol_raises_instead_of_convicting():
    # T commutes with H = I; a NaN gap_tol would split the degenerate level
    # into two simple ones, each moved off its ray by T
    assert wigner_principle_check(np.eye(2), SIGMA_Y_FLIP).reason == REASON_PREMISE_UNMET
    with pytest.raises(PremiseError, match="gap_tol must be positive, got nan"):
        wigner_principle_check(np.eye(2), SIGMA_Y_FLIP, gap_tol=math.nan)


def test_kramers_square_three_classes():
    assert kramers_square(conjugation(2)).classification == PLUS_IDENTITY
    assert kramers_square(SIGMA_Y_FLIP).classification == MINUS_IDENTITY
    skew = SymmetryTransform(np.array([[0.0, 1.0], [1.0j, 0.0]], dtype=complex), antilinear=True)
    result = kramers_square(skew)
    assert result.classification == OTHER
    assert result.deviation == pytest.approx(2.0)
    with pytest.raises(MisuseError):
        kramers_square(SymmetryTransform(np.eye(2, dtype=complex), antilinear=False))


def test_ray_displacement_frozen_values():
    t = conjugation(2)
    assert ray_displacement(t, np.array([1.0, 0.0], dtype=complex)) == 0.0
    circular = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
    assert ray_displacement(t, circular) == pytest.approx(1.0)
    with pytest.raises(PremiseError):
        ray_displacement(t, np.array([2.0, 0.0], dtype=complex))


@given(st.integers(0, 2_000), st.floats(0.0, 2.0 * math.pi))
def test_ray_displacement_is_phase_invariant(seed, theta):
    dim = 2 + seed % 5
    t = SymmetryTransform(random_unitary(dim, seed), antilinear=True)
    rng = np.random.default_rng(seed + 1)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    assert abs(ray_displacement(t, psi) - ray_displacement(t, np.exp(1j * theta) * psi)) <= 1e-12


def test_real_hamiltonian_stays_on_rays():
    verdict = wigner_principle_check(np.diag([1.0, 2.0]).astype(complex), conjugation(2))
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_BELOW_THRESHOLD


def test_complex_coupling_moves_an_eigenray():
    model = kaon_oscillation_model(0.5, 0.7, 1.0j)
    verdict = wigner_principle_check(model.hamiltonian, model.time_reversal)
    assert verdict.outcome == VIOLATION
    assert verdict.violated_symmetry == model.time_reversal.label
    assert verdict.margin > 1e-6
    assert "eigenvalue" in verdict.witness
    assert verdict.witness["multiplicities"] == [1, 1]


def test_fully_degenerate_spectrum_is_premise_unmet():
    h = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
    verdict = wigner_principle_check(h, conjugation(4))
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_PREMISE_UNMET
    assert verdict.witness["multiplicities"] == [2, 2]


def test_near_degenerate_gap_lands_in_hysteresis_band():
    # clusters split (gap 3e-8 > gap_tol) but are too close to trust
    h = np.diag([1.0, 1.0 + 3e-8]).astype(complex)
    verdict = wigner_principle_check(h, SIGMA_Y_FLIP)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_INDETERMINATE


def test_check_is_invariant_under_transform_phase():
    model = kaon_oscillation_model(0.5, 0.7, 1.0j)
    t = model.time_reversal
    rotated = SymmetryTransform(
        np.exp(0.7j) * t.unitary_part, antilinear=True, label=t.label
    )
    first = wigner_principle_check(model.hamiltonian, t)
    second = wigner_principle_check(model.hamiltonian, rotated)
    assert first.outcome == second.outcome == VIOLATION
    assert first.margin == pytest.approx(second.margin, abs=1e-12)


def test_check_rejects_linear_transform_and_zero_h():
    with pytest.raises(MisuseError):
        wigner_principle_check(np.diag([1.0, 2.0]), SymmetryTransform(np.eye(2, dtype=complex), antilinear=False))
    with pytest.raises(PremiseError):
        wigner_principle_check(np.zeros((2, 2)), conjugation(2))
    with pytest.raises(MisuseError, match="^dimension mismatch 3 vs 2$"):
        wigner_principle_check(np.diag([1.0, 2.0, 3.0]), conjugation(2))


def test_check_judges_the_transform_at_its_own_tau_zero():
    # T = diag(1 - 4e-10, 1)·K commutes with H = diag(1, 2); under a tau_zero
    # below its norm loss, that loss alone would read as a Violation
    nearly = SymmetryTransform(np.diag([1.0 - 4e-10, 1.0]), antilinear=True, label="T")
    h = np.diag([1.0, 2.0])
    assert wigner_principle_check(h, nearly).reason == REASON_BELOW_THRESHOLD
    strict = Tolerances(tau_zero=1e-13, tau_violation=1e-10)
    with pytest.raises(ClassificationError, match=r"^unitary_part of T is not unitary \(deviation 8\.000e-10\)$"):
        wigner_principle_check(h, nearly, tol=strict)


def test_kramers_cases_under_a_minus_identity_reversal():
    # kron(I, i sigma_y)·K squares to minus one and commutes with two doubled
    # levels: no level is simple, so the check has no premise
    u = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    t = SymmetryTransform(u.astype(complex), antilinear=True, label="T")
    verdict = wigner_principle_check(np.diag([1.0, 1.0, 3.0, 3.0]).astype(complex), t)
    assert (verdict.outcome, verdict.reason) == (NO_CONCLUSION, REASON_PREMISE_UNMET)
    assert verdict.witness["multiplicities"] == [2, 2]
    # a split spectrum has simple levels, each moved to an orthogonal state
    verdict = wigner_principle_check(0.1 * np.diag([1.0, -1.0]).astype(complex), SIGMA_Y_FLIP)
    assert verdict.outcome == VIOLATION
    assert verdict.witness["ray_displacement"] == 1.0


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_commuting_minus_identity_reversal_leaves_no_level_simple(dim):
    # averaging A with J conj(A) J^dag gives an H that J·K commutes with; as
    # (J·K)^2 = -1, every level is a Kramers pair
    j = np.kron(np.eye(dim // 2), np.array([[0.0, 1.0], [-1.0, 0.0]])).astype(complex)
    t = SymmetryTransform(j, antilinear=True, label="T")
    a = random_hermitian(dim, seed=dim)
    h = (a + j @ a.conj() @ j.conj().T) / 2
    assert kramers_square(t).classification == MINUS_IDENTITY
    verdict = wigner_principle_check(h, t)
    assert (verdict.outcome, verdict.reason) == (NO_CONCLUSION, REASON_PREMISE_UNMET)
    assert verdict.witness["multiplicities"] == [2] * (dim // 2)


def test_orthogonal_displacement_convicts_only_above_tau_violation():
    # a displacement of one, equal to tau_violation, is in the band; below it, a Violation
    h = np.diag([1.0, -1.0]).astype(complex)
    at_edge = wigner_principle_check(h, SIGMA_Y_FLIP, tol=Tolerances(tau_zero=0.5, tau_violation=1.0))
    assert (at_edge.outcome, at_edge.reason) == (NO_CONCLUSION, REASON_INDETERMINATE)
    above = wigner_principle_check(h, SIGMA_Y_FLIP, tol=Tolerances(tau_zero=0.5, tau_violation=0.9))
    assert above.outcome == VIOLATION
    assert above.witness["multiplicities"] == [1, 1]


def test_first_simple_level_off_the_unit_sphere_fails_first():
    # tau_zero below the rounding of eigh's norms: level 2 is the first off the
    # unit sphere, but it shares a cluster with level 1, so the first simple
    # level to fail is level 4 (level 5 would fail too)
    h = random_hermitian(6, seed=6)
    tol = Tolerances(tau_zero=2e-16)
    assert spectrum_clusters(herm_eig(h).eigenvalues, 0.1003).multiplicities == (1, 2, 1, 1, 1)
    for _ in range(2):
        with pytest.raises(PremiseError) as info:
            wigner_principle_check(h, conjugation(6), gap_tol=0.1003, tol=tol)
        assert str(info.value) == "state is not normalized (deviation 5.551e-16)"
    # the rays this pair memoised do not change a verdict under the default tolerances
    assert wigner_principle_check(h, conjugation(6), gap_tol=0.1003).reason == REASON_INDETERMINATE


# Isolation edges: diagonal H, and T = U K with U a permutation, so each
# eigenvector is a basis vector and T moves the levels U swaps by exactly 1.
# In the edge cases the swapped partner sits in a degenerate pair, which the
# rule never reads.


def _confident_limit(gap_tol: float, spread: float) -> float:
    tol = DEFAULT_TOLERANCES
    return gap_tol * (tol.tau_violation / tol.tau_zero) * max(1.0, spread)


def _swap_reversal(dim: int, i: int, j: int) -> SymmetryTransform:
    u = np.eye(dim, dtype=complex)
    u[[i, j]] = u[[j, i]]
    return SymmetryTransform(u, antilinear=True, label="T")


def _edge_case(side: str, gap_tol: float):
    """(H, T, level under test): the level's gap to one neighbour is
    ``_confident_limit(gap_tol, spread)`` exactly, its other gap is wide."""
    c = _confident_limit(gap_tol, 4.0 if side in ("below", "above") else 1.0)
    values, level, partner, edge_gap = {
        "below": ([0.0, c, 4.0, 4.0], 1, 2, 0),
        "above": ([-4.0, -4.0, -c, 0.0], 2, 1, 2),
        "bottom end": ([0.0, c, c], 0, 1, 0),
        "top end": ([-c, -c, 0.0], 2, 1, 1),
    }[side]
    assert np.diff(values)[edge_gap] == c
    return np.diag(values).astype(complex), _swap_reversal(len(values), level, partner), level


def _oracle_on_forged_below_threshold(scenario: Scenario, tol: Tolerances):
    forged = Report(
        records=(VerdictRecord("wigner", Verdict.no_conclusion(REASON_BELOW_THRESHOLD)),),
        provenance=run_scenario(scenario, tol).provenance,
    )
    (record,) = oracle_compare(scenario, forged, tol)
    return record


EDGE_SIDES = ["below", "above", "bottom end", "top end"]
EDGE_GAP_TOLS = {"below": 2.5e-4, "above": 2.5e-4, "bottom end": 1e-4, "top end": 1e-4}


@pytest.mark.parametrize("side", EDGE_SIDES)
def test_gap_equal_to_the_confident_limit_is_indeterminate(side):
    gap_tol = EDGE_GAP_TOLS[side]
    h, t, _ = _edge_case(side, gap_tol)
    verdict = wigner_principle_check(h, t, gap_tol=gap_tol)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_INDETERMINATE


@pytest.mark.parametrize("side", EDGE_SIDES)
def test_gap_one_float_above_the_confident_limit_is_a_violation(side):
    gap_tol = EDGE_GAP_TOLS[side]
    h, t, level = _edge_case(side, gap_tol)
    below = float(np.nextafter(gap_tol, 0.0))
    spread = float(h[-1, -1].real - h[0, 0].real)
    assert _confident_limit(below, spread) < _confident_limit(gap_tol, spread)
    verdict = wigner_principle_check(h, t, gap_tol=below)
    assert verdict.outcome == VIOLATION
    assert verdict.witness["level_index"] == level
    assert verdict.witness["eigenvalue"] == h[level, level].real
    assert verdict.margin == verdict.witness["ray_displacement"] == 1.0


def test_equal_displacements_name_the_lower_level():
    verdict = wigner_principle_check(np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), _swap_reversal(4, 1, 3))
    assert verdict.outcome == VIOLATION
    assert verdict.witness["level_index"] == 1
    assert verdict.witness["eigenvalue"] == 1.0
    assert verdict.witness["ray_displacement"] == 1.0


@pytest.mark.parametrize("side", EDGE_SIDES)
@pytest.mark.parametrize("clear", [False, True], ids=["at-twice-the-limit", "above-twice-the-limit"])
def test_oracle_wants_both_gaps_above_twice_the_confident_limit(side, clear):
    # at half the detector's gap_tol, twice the oracle's limit is the same gap
    gap_tol = EDGE_GAP_TOLS[side] / 2.0
    if clear:
        gap_tol = float(np.nextafter(gap_tol, 0.0))
    h, t, _ = _edge_case(side, EDGE_GAP_TOLS[side])
    scenario = Scenario(
        dim=h.shape[0],
        matrices={"hamiltonian": h},
        symmetries={"T": t},
        requests=(Request("wigner", {"symmetry": "T", "gap_tol": gap_tol}),),
    )
    record = _oracle_on_forged_below_threshold(scenario, DEFAULT_TOLERANCES)
    assert record.agreed is not clear
    if clear:
        assert record.note == "no-conclusion verdict but an isolated eigenray clearly moves"


# The oracle finds simple levels with a gap rule of its own. It must count the
# multiplicity-1 clusters of spectrum_clusters, also where a gap sits at
# gap_tol * max(1, spread) or one float either side of it.


@st.composite
def spectra_with_a_gap_at_the_cluster_limit(draw):
    """(ascending diagonal, gap_tol): the gap up from level 0.0 is the cluster limit, or one float either side of it."""
    gap_tol = draw(st.floats(1e-12, 0.2))
    shape = draw(st.sampled_from(["dim 1", "dim 2", "end", "interior"]))
    if shape == "dim 1":
        return [draw(st.floats(-10.0, 10.0))], gap_tol
    if shape == "dim 2":
        # the spread is the gap, below 1, so the limit is gap_tol itself
        below, limit, above = [0.0], gap_tol, []
    elif shape == "end":
        hi = draw(st.floats(0.5, 100.0))
        below, limit, above = [0.0], gap_tol * max(1.0, hi), [hi]
    else:
        spread = draw(st.floats(0.6, 100.0))
        lo = -spread * draw(st.floats(0.1, 0.5))
        hi = lo + spread
        below, limit, above = [lo, 0.0], gap_tol * max(1.0, hi - lo), [hi]
    level = float(np.nextafter(limit, draw(st.sampled_from([-np.inf, limit, np.inf]))))
    values = [*below, level, *above]
    if draw(st.booleans()):
        # the mirror image has the same float gaps and moves an end gap to the top end
        values = [-v + 0.0 for v in reversed(values)]
    return values, gap_tol


def _wigner_oracle_record(h: np.ndarray, t: SymmetryTransform, gap_tol: float, verdict: Verdict):
    scenario = Scenario(
        dim=h.shape[0],
        matrices={"hamiltonian": h},
        symmetries={"T": t},
        requests=(Request("wigner", {"symmetry": "T", "gap_tol": gap_tol}),),
    )
    return oracle_record(scenario, scenario.requests[0], verdict, DEFAULT_TOLERANCES)


@given(spectra_with_a_gap_at_the_cluster_limit())
def test_oracle_counts_the_simple_clusters_of_spectrum_clusters(case):
    values, gap_tol = case
    h = np.diag(values).astype(complex)
    record = _wigner_oracle_record(h, conjugation(len(values)), gap_tol, Verdict.no_conclusion(REASON_BELOW_THRESHOLD))
    simple = spectrum_clusters(np.linalg.eigh(h)[0], gap_tol).multiplicities.count(1)
    assert record.truths["non_degenerate_levels"] == simple


@pytest.mark.parametrize("clustered", [True, False], ids=["gap-at-the-limit", "gap-one-float-over"])
def test_oracle_accepts_a_violation_only_with_a_simple_level(clustered):
    gap_tol = 1e-3
    gap = gap_tol if clustered else float(np.nextafter(gap_tol, 1.0))
    forged = Verdict.violation("T", 1.0, {"level_index": 0})
    record = _wigner_oracle_record(np.diag([0.0, gap]).astype(complex), _swap_reversal(2, 0, 1), gap_tol, forged)
    assert record.truths["commutant_margin"] > DEFAULT_TOLERANCES.tau_zero
    assert record.truths["non_degenerate_levels"] == (0.0 if clustered else 2.0)
    assert record.agreed is not clustered
