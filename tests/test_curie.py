import math

import numpy as np
import pytest

from tvd import (
    COMMUTANT,
    NO_CONCLUSION,
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    TIME_REVERSAL_SMATRIX,
    VIOLATION,
    ClassificationError,
    InvarianceMargin,
    MisuseError,
    PremiseError,
    SymmetryTransform,
    conjugation,
    invariance_margin,
    kaon_decay_scattering_model,
    s_matrix_inference,
    scattering_curie_check,
    symmetrize_invariant,
    unitary_curie_check,
)
from tvd.selftest import fact1_instances

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z_R = SymmetryTransform(np.diag([1.0, -1.0]).astype(complex), antilinear=False, label="R")
E0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def test_violation_when_fixed_state_moves():
    # sigma_x breaks the sigma_z parity; a quarter turn maps e0 to e1
    verdict = unitary_curie_check(SIGMA_X, SIGMA_Z_R, E0, math.pi / 2)
    assert verdict.outcome == VIOLATION
    assert verdict.violated_symmetry == "R"
    assert verdict.margin > 1e-6
    assert verdict.witness["branch"] == "initial-fixed-final-moved"
    assert invariance_margin(SIGMA_Z_R, SIGMA_X).value > 1e-6


def test_no_conclusion_when_both_states_fixed():
    h = np.diag([1.0, 2.0]).astype(complex)
    verdict = unitary_curie_check(h, SIGMA_Z_R, E0, 1.3)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_PREMISE_UNMET


def test_no_conclusion_when_neither_state_fixed():
    h = np.diag([1.0, 2.0]).astype(complex)
    verdict = unitary_curie_check(h, SIGMA_Z_R, PLUS, 1.3)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_PREMISE_UNMET


def test_hysteresis_band_is_indeterminate():
    # deviation ~2e-8 sits between the zero and violation thresholds
    h = 1e-8 * SIGMA_X
    verdict = unitary_curie_check(h, SIGMA_Z_R, E0, 1.0)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_INDETERMINATE
    assert 1e-9 < verdict.margin <= 1e-6


def test_mirror_branch_initial_moved_final_fixed():
    # psi_i = exp(+i sigma_x pi/2) e0 = i e1 evolves back onto the fixed ray
    psi_i = np.array([0.0, 1.0j], dtype=complex)
    verdict = unitary_curie_check(SIGMA_X, SIGMA_Z_R, psi_i, math.pi / 2)
    assert verdict.outcome == VIOLATION
    assert verdict.witness["branch"] == "final-fixed-initial-moved"


def test_misuse_and_premise_errors():
    with pytest.raises(MisuseError):
        unitary_curie_check(SIGMA_X, conjugation(2), E0, 1.0)
    with pytest.raises(PremiseError):
        unitary_curie_check(SIGMA_X, SIGMA_Z_R, 2.0 * E0, 1.0)
    with pytest.raises(ClassificationError):
        unitary_curie_check(np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z_R, E0, 1.0)


def test_soundness_on_seeded_instances():
    violations = 0
    for h, r, psi, t in fact1_instances(150, base_seed=52_000):
        verdict = unitary_curie_check(h, r, psi, t)
        if verdict.outcome == VIOLATION:
            violations += 1
            assert invariance_margin(r, h).value > 1e-6
    assert violations > 10


def test_completeness_on_symmetrized_instances():
    for i in range(150):
        rng = np.random.default_rng(53_000 + i)
        dim = 2 + i % 5
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        signs = np.diag(np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)).astype(complex)
        r = SymmetryTransform(signs, antilinear=False, label="R")
        h = symmetrize_invariant(h, r)
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        verdict = unitary_curie_check(h, r, psi, float(rng.uniform(-5, 5)))
        assert verdict.outcome != VIOLATION


def test_scattering_kaon_decay_violation():
    model = kaon_decay_scattering_model(0.2)
    verdict = scattering_curie_check(model.smatrix, model.cp, model.psi_in, model.psi_out)
    assert verdict.outcome == VIOLATION
    assert verdict.violated_symmetry == "CP on S"
    assert abs(verdict.margin - 0.2) <= 1e-12
    assert verdict.witness["branch"] == "in-odd-out-even"


def test_scattering_zero_leakage_is_below_threshold():
    model = kaon_decay_scattering_model(0.0)
    verdict = scattering_curie_check(model.smatrix, model.cp, model.psi_in, model.psi_out)
    assert verdict.outcome == NO_CONCLUSION
    assert verdict.reason == REASON_BELOW_THRESHOLD
    assert verdict.margin <= 1e-12


def test_scattering_premise_needs_opposite_parities():
    model = kaon_decay_scattering_model(0.2)
    verdict = scattering_curie_check(model.smatrix, model.cp, model.psi_in, model.psi_in)
    assert verdict.reason == REASON_PREMISE_UNMET
    mixed = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    verdict = scattering_curie_check(model.smatrix, model.cp, mixed, model.psi_out)
    assert verdict.reason == REASON_PREMISE_UNMET


def test_scattering_requires_unitary_s_and_linear_r():
    model = kaon_decay_scattering_model(0.2)
    with pytest.raises(ClassificationError):
        scattering_curie_check(2.0 * model.smatrix, model.cp, model.psi_in, model.psi_out)
    with pytest.raises(MisuseError):
        scattering_curie_check(model.smatrix, conjugation(2), model.psi_in, model.psi_out)


def test_inference_decision_table():
    fired = s_matrix_inference(InvarianceMargin(0.0, COMMUTANT), InvarianceMargin(0.4, COMMUTANT), label="CP")
    assert fired.outcome == VIOLATION
    assert fired.violated_symmetry == "CP on H"
    assert fired.margin == 0.4

    premise = s_matrix_inference(InvarianceMargin(0.3, COMMUTANT), InvarianceMargin(0.4, COMMUTANT))
    assert premise.reason == REASON_PREMISE_UNMET

    below = s_matrix_inference(InvarianceMargin(0.0, COMMUTANT), InvarianceMargin(0.0, COMMUTANT))
    assert below.reason == REASON_BELOW_THRESHOLD

    band = s_matrix_inference(InvarianceMargin(0.0, COMMUTANT), InvarianceMargin(5e-8, COMMUTANT))
    assert band.reason == REASON_INDETERMINATE


def test_inference_rejects_wrong_margin_kind():
    with pytest.raises(MisuseError):
        s_matrix_inference(
            InvarianceMargin(0.0, TIME_REVERSAL_SMATRIX),
            InvarianceMargin(0.4, COMMUTANT),
        )


def test_verdicts_are_deterministic():
    model = kaon_decay_scattering_model(0.2)
    first = scattering_curie_check(model.smatrix, model.cp, model.psi_in, model.psi_out)
    second = scattering_curie_check(model.smatrix, model.cp, model.psi_in, model.psi_out)
    assert first == second


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_propagator_names_the_final_state():
    swap = SymmetryTransform(SIGMA_X, antilinear=False, label="R")
    h = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ClassificationError) as info:
        unitary_curie_check(h, swap, E0, 0.5)
    assert str(info.value) == "final state at time 0.5 is not finite: the propagator exp(-itH) overflows"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagator_whose_norm_overflows_names_the_final_state():
    # at t = 2.5 the 1-norm of tH is already inf, before any Pade step
    swap = SymmetryTransform(SIGMA_X, antilinear=False, label="R")
    h = np.diag([1e308, -1e308]).astype(complex)
    with pytest.raises(ClassificationError) as info:
        unitary_curie_check(h, swap, E0, 2.5)
    assert str(info.value) == "final state at time 2.5 is not finite: the propagator exp(-itH) overflows"
