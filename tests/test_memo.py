"""Memo tables for eigendecompositions, margins, eigenrays and input checks.

A memoised call must return exactly what a cold call returns, for the
current content of its inputs, and every table must stay within its bound.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvd import (
    ClassificationError,
    Request,
    Scenario,
    SymmetryTransform,
    Tolerances,
    conjugation,
    herm_eig,
    identity_transform,
    invariance_margin,
    kabir_check,
    mat_exp,
    normalize,
    oracle_compare,
    random_hermitian,
    random_unitary,
    run_scenario,
    serialize_report,
    symmetrize_invariant,
)
from tvd import linalg, runner, symmetry, wigner
from tvd.linalg import _DEVIATIONS, _MEMOS, _SPECTRA
from tvd.symmetry import compose, inverse

from conftest import clear_memos

DETECTOR_MEMOS = (_SPECTRA, symmetry._MARGINS, wigner._RAYS)
ORACLE_MEMOS = (
    runner._ORACLE_SPECTRA,
    runner._ORACLE_MARGINS,
    runner._ORACLE_REVERSALS,
    runner._ORACLE_S_COMMUTANTS,
    runner._ORACLE_S_DEFECTS,
)
# the Hermitian and unitary input checks, which both sides run: building a
# SymmetryTransform runs one, also for the reversal the oracle derives; the
# table decides only whether input is rejected, never a verdict or a truth
CHECK_MEMOS = (_DEVIATIONS,)
SWAP = SymmetryTransform(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), antilinear=False, label="R")
FLIP = SymmetryTransform(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex), antilinear=True, label="T")


def eigenrays(t: SymmetryTransform, h: np.ndarray) -> tuple:
    return wigner._eigenrays(h, t, herm_eig(h))


# one call per memo table: (inputs built from a seed, the memoised call);
# the last input is the array that an in-place change alters
CALLS = {
    "herm_eig": (lambda seed: (random_hermitian(2, seed),), herm_eig),
    "invariance_margin": (lambda seed: (SWAP, random_hermitian(2, seed)), invariance_margin),
    "hermitian_deviation": (lambda seed: (random_unitary(2, seed),), linalg._hermitian_deviation),
    "unitary_deviation": (lambda seed: (random_unitary(2, seed),), linalg._unitary_deviation),
    "eigenrays": (lambda seed: (FLIP, random_hermitian(2, seed)), eigenrays),
    "oracle_spectrum": (lambda seed: (random_hermitian(2, seed),), runner._spectrum),
    "oracle_margin": (lambda seed: (SWAP, random_hermitian(2, seed)), runner._commutant_margin),
    "oracle_s_commutant": (lambda seed: (SWAP, random_unitary(2, seed)), runner._s_commutant),
    "oracle_reversal_defect": (lambda seed: (FLIP, random_unitary(2, seed)), runner._reversal_defect),
}


def as_bytes(value) -> bytes:
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return b"|".join(as_bytes(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return repr(value).encode()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_repeat_call_returns_the_memoised_object_with_cold_bytes(name):
    make, call = CALLS[name]
    first = call(*make(7))
    again = call(*(x.copy() if isinstance(x, np.ndarray) else x for x in make(7)))
    assert again is first
    clear_memos()
    cold = call(*make(7))
    assert cold is not first
    assert as_bytes(cold) == as_bytes(first)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_in_place_mutation_misses_the_memo(name):
    make, call = CALLS[name]
    args = make(8)
    first = call(*args)
    # a scaled diagonal entry keeps a Hermitian input Hermitian, and moves the
    # imaginary part that a Hermitian deviation sees
    args[-1][0, 0] *= 1.25
    changed = call(*args)
    clear_memos()
    assert as_bytes(changed) == as_bytes(call(*args))
    assert as_bytes(changed) != as_bytes(first)


def test_hermitian_check_runs_on_every_call():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for _ in range(2):
        with pytest.raises(ClassificationError):
            herm_eig(bad)
    # a matrix accepted under a loose tau_zero is memoised, and must still be
    # rejected under a stricter one
    nearly = np.array([[1.0, 1.0 + 1e-11], [1.0, 2.0]], dtype=complex)
    herm_eig(nearly, tol=Tolerances())
    for _ in range(2):
        with pytest.raises(ClassificationError):
            herm_eig(nearly, tol=Tolerances(tau_zero=1e-13))


def test_unitary_check_runs_on_every_call():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for _ in range(2):
        with pytest.raises(ClassificationError, match="is not unitary"):
            linalg.require_unitary(bad)
    # an S-matrix accepted under the default tau_zero is memoised, and must
    # still be rejected under a stricter one, by the detector as by the check
    nearly = random_unitary(2, seed=4) * (1.0 + 1e-11)
    psi = np.array([1.0, 0.0], dtype=complex)
    strict = Tolerances(tau_zero=1e-13)
    assert linalg.require_unitary(nearly) is nearly
    kabir_check(nearly, FLIP, psi, psi)
    for _ in range(2):
        with pytest.raises(ClassificationError, match="smatrix is not unitary"):
            kabir_check(nearly, FLIP, psi, psi, tol=strict)
        with pytest.raises(ClassificationError, match="is not unitary"):
            linalg.require_unitary(nearly, tol=strict.tau_zero)
    assert linalg.require_unitary(nearly) is nearly
    assert len(_DEVIATIONS.table) == 2


def test_every_scalar_input_is_part_of_the_key():
    h = random_hermitian(3, seed=5)
    # tau_eig does not change a decomposition, so it is no part of the key
    assert herm_eig(h, tol=Tolerances(tau_eig=1e-8)) is herm_eig(h, tol=Tolerances(tau_eig=1e-6))
    # same unitary part, linear against antilinear
    one, k = identity_transform(3), conjugation(3)
    assert invariance_margin(one, h).value == 0.0 < invariance_margin(k, h).value
    assert runner._commutant_margin(one, h) == 0.0 < runner._commutant_margin(k, h)
    # one content, checked for Hermiticity and for unitarity
    twice = 2.0 * np.eye(3, dtype=complex)
    assert linalg._hermitian_deviation(twice) == 0.0 < linalg._unitary_deviation(twice)


def cp_transform(seed: int) -> SymmetryTransform:
    return SymmetryTransform(random_unitary(2, seed), antilinear=False, label="CP")


def test_tables_stay_within_bounds_and_evict_the_oldest_first():
    calls = {**CALLS, "derived_reversal": (lambda seed: (cp_transform(seed), conjugation(2)), runner._derived_reversal)}
    # one table at a time, since some tables serve several calls
    for name, (make, call) in calls.items():
        results = [call(*make(seed)) for seed in range(20)]
        assert call(*make(19)) is results[19], name
        assert call(*make(0)) is not results[0], name
    for memo in _MEMOS:
        assert len(memo.table) == memo.size


def test_threads_sharing_the_tables_get_cold_results():
    cold = {name: [as_bytes(call(*make(seed))) for seed in range(12)] for name, (make, call) in CALLS.items()}
    clear_memos()
    errors = []

    def worker(offset: int) -> None:
        try:
            for i in range(300):
                seed = (i * 5 + offset) % 12
                for name, (make, call) in CALLS.items():
                    if as_bytes(call(*make(seed))) != cold[name][seed]:
                        errors.append((name, seed))
        except Exception as exc:  # reported by the assertion below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(len(memo.table) <= memo.size for memo in _MEMOS)


def test_memoised_arrays_are_read_only():
    decomp = herm_eig(random_hermitian(3, seed=2))
    values, vectors = runner._spectrum(random_hermitian(3, seed=2))
    for arr in (decomp.eigenvalues, decomp.eigenvectors, values, vectors):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def repeating_scenario(seed: int, rounds: int = 3) -> Scenario:
    """Every detector, several times over, against one H, one h0 and one S."""
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 5
    v = random_unitary(dim, seed)
    signs = np.where(np.arange(dim) < (dim + 1) // 2, 1.0, -1.0)
    r = SymmetryTransform((v * signs) @ v.conj().T, antilinear=False, label="R")
    h = random_hermitian(dim, seed)
    if seed % 2:
        h = h.real.astype(complex)
    states = {
        "even": v[:, 0].copy(),
        "odd": v[:, -1].copy(),
        "rand": normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)),
    }
    requests = []
    for _ in range(rounds):
        time = float(10.0 ** rng.uniform(-1.0, 3.0))
        requests += [
            Request("unitary_curie", {"symmetry": "R", "state": "even", "time": time}),
            Request("scattering_curie", {"symmetry": "R", "state_in": "even", "state_out": "odd"}),
            Request("s_matrix_inference", {"symmetry": "R"}),
            Request("kabir", {"symmetry": "T", "state_in": "rand", "state_out": "even"}),
            Request("cpt_link", {"cpt_symmetry": "T", "cp_symmetry": "R"}),
            Request("wigner", {"symmetry": "T", "gap_tol": float(10.0 ** rng.uniform(-12.0, -2.0))}),
            Request("wigner", {"symmetry": "T"}),
        ]
    return Scenario(
        dim=dim,
        matrices={
            "hamiltonian": h,
            "h0": np.diag(rng.standard_normal(dim)).astype(complex),
            "smatrix": random_unitary(dim, seed + 1),
        },
        symmetries={"R": r, "T": conjugation(dim, label="T")},
        states=states,
        requests=tuple(requests),
    )


def checked_and_oracled(scenario: Scenario) -> bytes:
    tol = scenario.effective_tolerances()
    report = run_scenario(scenario, tol)
    return serialize_report(dataclasses.replace(report, oracle=oracle_compare(scenario, report, tol)))


@given(st.integers(0, 10_000))
def test_report_bytes_are_the_same_with_cold_and_warm_tables(seed):
    scenario = repeating_scenario(seed)
    clear_memos()
    cold = checked_and_oracled(scenario)
    assert checked_and_oracled(scenario) == cold
    # and again after another scenario has passed through the tables
    checked_and_oracled(repeating_scenario(seed + 1))
    assert checked_and_oracled(scenario) == cold


def test_oracle_never_reads_the_detector_tables():
    tables = DETECTOR_MEMOS + ORACLE_MEMOS + CHECK_MEMOS
    assert len({id(m) for m in tables}) == 9
    assert set(map(id, tables)) == set(map(id, _MEMOS))
    scenario = repeating_scenario(3)
    report = run_scenario(scenario, scenario.effective_tolerances())
    assert all(m.table for m in DETECTOR_MEMOS + CHECK_MEMOS)
    assert not any(m.table for m in ORACLE_MEMOS)
    detector_keys = [list(m.table) for m in DETECTOR_MEMOS]
    oracle_compare(scenario, report, scenario.effective_tolerances())
    assert all(m.table for m in ORACLE_MEMOS)
    assert [list(m.table) for m in DETECTOR_MEMOS] == detector_keys


def test_derived_reversal_table_is_the_oracles_own_and_cold_memos_clears_it():
    reversals = runner._ORACLE_REVERSALS
    assert reversals in _MEMOS
    assert all(reversals is not m for m in DETECTOR_MEMOS)
    scenario = repeating_scenario(3)
    tol = scenario.effective_tolerances()
    report = run_scenario(scenario, tol)
    assert not reversals.table
    oracle_compare(scenario, report, tol)
    # three cpt_link requests on one (CP, CPT) pair build one reversal
    (reversal,) = reversals.table.values()
    cp, cpt = scenario.symmetries["R"], scenario.symmetries["T"]
    assert as_bytes(reversal) == as_bytes(compose(inverse(cp), cpt, label="T"))
    assert all(reversal is not v for m in DETECTOR_MEMOS for v in m.table.values())
    clear_memos()
    assert not reversals.table


def edge(holds, estimate: float) -> float:
    """The smallest float near ``estimate`` at which ``holds`` turns true."""
    g = estimate
    for _ in range(64):
        if holds(g):
            break
        g = float(np.nextafter(g, np.inf))
    for _ in range(64):
        below = float(np.nextafter(g, 0.0))
        if not holds(below):
            break
        g = below
    assert holds(g) and not holds(float(np.nextafter(g, 0.0)))
    return g


def table_scenario(seed: int) -> Scenario:
    """wigner, kabir and scattering_curie requests against one generic, near-degenerate or Kramers H.

    The wigner requests put ``gap_tol`` on both sides of the point where a
    small gap joins its cluster, and of the point where it stops counting as
    isolated.
    """
    rng = np.random.default_rng(seed)
    dim = 6
    kind = ("generic", "near_degenerate", "kramers")[seed % 3]
    v = random_unitary(dim, seed)
    t = SymmetryTransform(np.kron(FLIP.unitary_part, np.eye(dim // 2)), antilinear=True, label="T")
    if kind == "generic":
        h = random_hermitian(dim, seed)
        if seed % 2:
            h = h.real.astype(complex)
    elif kind == "near_degenerate":
        levels = np.sort(rng.standard_normal(dim // 2))
        split = 10.0 ** rng.uniform(-12.0, -6.0, size=dim // 2)
        h = (v * np.concatenate([levels, levels + split])) @ v.conj().T
        h = (h + h.conj().T) / 2.0
    else:
        h = symmetrize_invariant(random_hermitian(dim, seed), t)
    tol = Tolerances()
    values = herm_eig(h).eigenvalues
    scale = max(1.0, float(values[-1] - values[0]))
    ratio = tol.tau_violation / tol.tau_zero
    gap_tols = [None]
    gaps = np.diff(values)
    for gap in np.sort(gaps[gaps > 0.0])[:3].tolist():
        joins = edge(lambda g: gap <= g * scale, gap / scale)
        shadowed = edge(lambda g: gap <= g * ratio * scale, gap / (ratio * scale))
        gap_tols += [g for x in (joins, shadowed) for g in (x, float(np.nextafter(x, 0.0)))]
    signs = np.where(np.arange(dim) < dim // 2, 1.0, -1.0)
    r = SymmetryTransform((v * signs) @ v.conj().T, antilinear=False, label="R")
    # a second involution, for a second (R, S) pair
    r2 = SymmetryTransform((v * np.roll(signs, 1)) @ v.conj().T, antilinear=False, label="R2")
    states = {"even": v[:, 0].copy(), "odd": v[:, -1].copy()}
    for k in range(3):
        states[f"rand_{k}"] = normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    requests = []
    for name in ("K", "T"):
        requests += [Request("wigner", {"symmetry": name} | ({} if g is None else {"gap_tol": g})) for g in gap_tols]
        requests += [
            Request("kabir", {"symmetry": name, "state_in": a, "state_out": b})
            for a, b in (("rand_0", "rand_1"), ("even", "rand_2"), ("odd", "odd"))
        ]
    requests += [
        Request("scattering_curie", {"symmetry": name, "state_in": a, "state_out": b})
        for name in ("R", "R2")
        for a, b in (("even", "odd"), ("odd", "even"), ("even", "rand_0"))
    ]
    smatrix = mat_exp(h, -1j) if seed % 2 else random_unitary(dim, seed + 1)
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": h, "smatrix": smatrix},
        symmetries={"K": conjugation(dim, label="K"), "T": t, "R": r, "R2": r2},
        states=states,
        requests=tuple(requests),
    )


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_each_request_reads_from_warm_tables_what_a_cold_run_computes(seed):
    scenario = table_scenario(seed)
    tol = scenario.effective_tolerances()
    clear_memos()
    warm = run_scenario(scenario, tol)
    warm = dataclasses.replace(warm, oracle=oracle_compare(scenario, warm, tol))
    records, oracle = [], []
    for request in scenario.requests:
        clear_memos()
        single = dataclasses.replace(scenario, requests=(request,))
        report = run_scenario(single, tol)
        records += report.records
        oracle += oracle_compare(single, report, tol)
    cold = dataclasses.replace(warm, records=tuple(records), oracle=tuple(oracle))
    assert serialize_report(cold) == serialize_report(warm)


def test_one_table_entry_per_operator_pair(monkeypatch):
    scenario = table_scenario(0)
    tol = scenario.effective_tolerances()
    computed = []
    displacement = wigner._displacement
    monkeypatch.setattr(wigner, "_displacement", lambda t, vec: computed.append(t.label) or displacement(t, vec))
    report = run_scenario(scenario, tol)
    oracle_compare(scenario, report, tol)
    # every eigenvector once against K and once against T, however many requests
    assert sorted(computed) == ["K"] * scenario.dim + ["T"] * scenario.dim
    assert len(wigner._RAYS.table) == 2
    assert len(runner._ORACLE_S_DEFECTS.table) == 2
    assert len(runner._ORACLE_S_COMMUTANTS.table) == 2
