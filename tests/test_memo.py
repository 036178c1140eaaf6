"""Memo tables for eigendecompositions and commutant margins.

A memoised call must return exactly what a cold call returns, for the
current content of its inputs, and every table must stay within its bound.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
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
    normalize,
    oracle_compare,
    random_hermitian,
    random_unitary,
    run_scenario,
    serialize_report,
)
from tvd import runner, symmetry
from tvd.linalg import _MEMOS, _SPECTRA
from tvd.symmetry import compose, inverse

from conftest import clear_memos

DETECTOR_MEMOS = (_SPECTRA, symmetry._MARGINS)
ORACLE_MEMOS = (runner._ORACLE_SPECTRA, runner._ORACLE_MARGINS, runner._ORACLE_REVERSALS)
SWAP = SymmetryTransform(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), antilinear=False, label="R")


# one call per memo table: (inputs built from a seed, the memoised call)
CALLS = {
    "herm_eig": (lambda seed: (random_hermitian(2, seed),), herm_eig),
    "invariance_margin": (lambda seed: (SWAP, random_hermitian(2, seed)), invariance_margin),
    "oracle_spectrum": (lambda seed: (random_hermitian(2, seed),), runner._spectrum),
    "oracle_margin": (lambda seed: (SWAP, random_hermitian(2, seed)), runner._commutant_margin),
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
    args[-1][0, 0] += 0.25
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
    # rejected under a stricter one that keeps the same tau_eig
    nearly = np.array([[1.0, 1.0 + 1e-11], [1.0, 2.0]], dtype=complex)
    herm_eig(nearly, tol=Tolerances())
    for _ in range(2):
        with pytest.raises(ClassificationError):
            herm_eig(nearly, tol=Tolerances(tau_zero=1e-13))


def test_every_scalar_input_is_part_of_the_key():
    h = random_hermitian(3, seed=5)
    assert herm_eig(h, tol=Tolerances(tau_eig=1e-8)) is not herm_eig(h, tol=Tolerances(tau_eig=1e-6))
    # same unitary part, linear against antilinear
    one, k = identity_transform(3), conjugation(3)
    assert invariance_margin(one, h).value == 0.0 < invariance_margin(k, h).value
    assert runner._commutant_margin(one, h) == 0.0 < runner._commutant_margin(k, h)


def cp_transform(seed: int) -> SymmetryTransform:
    return SymmetryTransform(random_unitary(2, seed), antilinear=False, label="CP")


def test_tables_stay_within_bounds_and_evict_the_oldest_first():
    results = {name: [call(*make(seed)) for seed in range(20)] for name, (make, call) in CALLS.items()}
    reversals = [runner._derived_reversal(cp_transform(seed), conjugation(2)) for seed in range(20)]
    for memo in _MEMOS:
        assert len(memo.table) == memo.size
    for name, (make, call) in CALLS.items():
        assert call(*make(19)) is results[name][19], name
        assert call(*make(0)) is not results[name][0], name
    assert runner._derived_reversal(cp_transform(19), conjugation(2)) is reversals[19]
    assert runner._derived_reversal(cp_transform(0), conjugation(2)) is not reversals[0]
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
    assert len({id(m) for m in DETECTOR_MEMOS + ORACLE_MEMOS}) == 5
    assert set(map(id, DETECTOR_MEMOS + ORACLE_MEMOS)) == set(map(id, _MEMOS))
    scenario = repeating_scenario(3)
    report = run_scenario(scenario, scenario.effective_tolerances())
    assert all(m.table for m in DETECTOR_MEMOS)
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
