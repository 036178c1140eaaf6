import math

import numpy as np
import pytest

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
    MisuseError,
    PremiseError,
    SymmetryTransform,
    Tolerances,
    conjugation,
    herm_eig,
    kaon_oscillation_model,
    kramers_degeneracy_verify,
    kramers_square,
    random_hermitian,
    ray_displacement,
    spectrum_clusters,
    wigner_principle_check,
)

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
            for c in spectrum_clusters(values, gap_tol).clusters:
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


def test_kramers_verify_forces_even_multiplicities():
    # sigma_y flip on two doubled levels commutes and squares to minus one
    h = np.diag([1.0, 1.0, 3.0, 3.0]).astype(complex)
    u = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    # interleave so each pair (2k, 2k+1) shares an eigenvalue
    t = SymmetryTransform(u.astype(complex), antilinear=True, label="T")
    report = kramers_degeneracy_verify(h, t)
    assert report.applicable
    assert report.passed
    assert report.parities == ("even", "even")
    assert report.failing_cluster is None


def test_kramers_verify_not_applicable_for_plus_square():
    report = kramers_degeneracy_verify(np.diag([1.0, 2.0]).astype(complex), conjugation(2))
    assert not report.applicable
    assert report.passed is None
    assert "not minus identity" in report.reason


def test_kramers_verify_not_applicable_without_commutation():
    h = np.diag([1.0, 2.0]).astype(complex)
    report = kramers_degeneracy_verify(h, SIGMA_Y_FLIP)
    assert not report.applicable
    assert "does not commute" in report.reason
    assert report.invariance.value > 1e-6


def test_kramers_verify_negative_control_flags_odd_cluster():
    # loosened thresholds force the premises through on a split spectrum
    h = 0.1 * np.diag([1.0, -1.0]).astype(complex)
    loose = DEFAULT_TOLERANCES.replace(tau_zero=0.5, tau_violation=1.0)
    report = kramers_degeneracy_verify(h, SIGMA_Y_FLIP, tol=loose)
    assert report.applicable
    assert report.passed is False
    assert report.failing_cluster is not None
    assert report.failing_cluster.multiplicity == 1
    assert "odd multiplicity" in report.reason


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
