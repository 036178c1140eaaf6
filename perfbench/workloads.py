"""Seeded scenario generators for the three benchmark workloads.

Every workload is a pure function of ``(seed, size)``: each scenario
draws from its own ``numpy`` stream keyed by ``[seed, index]`` and no
draw is ever rejected or repeated, so an oracle disagreement on some
seed shows up as a failure instead of being filtered away. The seed
changes matrix entries, states and request parameters, never the count
of files, their dims or the detector mix, so work per run stays level
across seeds.

Outcomes are set by construction, through a per-scenario regime:

* ``generic``: nothing commutes, so most detectors find a violation;
* ``r_symmetric``: H, h0 and S commute with the linear involution R;
* ``t_symmetric``: H is real symmetric and S is symmetric, so plain
  conjugation K commutes with H and sends S to its inverse;
* ``wide_band``: generic matrices with ``tau_violation`` raised to 4, so
  every nonzero deciding quantity lands in the hysteresis band.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tvd import (
    Request,
    Scenario,
    SymmetryTransform,
    conjugation,
    mat_exp,
    normalize,
    oracle_compare,
    parse_scenario,
    run_scenario,
    serialize_report,
    shipped_scenario_paths,
    symmetrize_invariant,
)

WORKLOADS = ("small_batch", "dense_io", "sweep")
DEFAULT_SEED = 0
JOBS = 2
REGIMES = ("generic", "r_symmetric", "t_symmetric", "wide_band")


@dataclass(frozen=True)
class Workload:
    """Scenario files for one run: generated documents plus shipped ones."""

    name: str
    generated: dict[str, Scenario]
    shipped: dict[str, Path]
    oracle_stems: tuple[str, ...]
    jobs: int = JOBS
    # single-file writes per round of the end-to-end loop; more than one
    # per file gives a short write more samples to take the fastest of
    writes_per_round: int | None = None

    @property
    def request_count(self) -> int:
        shipped = sum(len(parse_scenario(p.read_bytes()).requests) for p in self.shipped.values())
        return shipped + sum(len(s.requests) for s in self.generated.values())

    @property
    def dims(self) -> list[int]:
        return sorted({s.dim for s in self.generated.values()})


def _hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def _involution(rng: np.random.Generator, dim: int) -> tuple[SymmetryTransform, np.ndarray, int]:
    """``R = V diag(+1.., -1..) V^dag``; the first ``plus`` columns of V are R-even."""
    v = _haar(rng, dim)
    plus = (dim + 1) // 2
    signs = np.where(np.arange(dim) < plus, 1.0, -1.0)
    return SymmetryTransform((v * signs) @ v.conj().T, antilinear=False, label="R"), v, plus


def _r_commuting_unitary(rng: np.random.Generator, v: np.ndarray, plus: int) -> np.ndarray:
    dim = v.shape[0]
    block = np.zeros((dim, dim), dtype=complex)
    block[:plus, :plus] = _haar(rng, plus)
    if dim > plus:
        block[plus:, plus:] = _haar(rng, dim - plus)
    return v @ block @ v.conj().T


def _symmetric_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    return mat_exp(((g + g.T) / 2.0).astype(complex), -1j)


def _kramers_reversal(dim: int) -> SymmetryTransform:
    """Antilinear ``T = (i sigma_y (x) 1) K`` with ``T^2 = -1``; dim is even."""
    u = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(dim // 2)).astype(complex)
    return SymmetryTransform(u, antilinear=True, label="T")


def mixed_scenario(rng: np.random.Generator, dim: int, regime: str, time: float) -> Scenario:
    """One request per detector on matrices whose symmetry is set by ``regime``."""
    r, v, plus = _involution(rng, dim)
    h = _hermitian(rng, dim)
    h0 = np.diag(rng.standard_normal(dim)).astype(complex)
    s = _haar(rng, dim)
    if regime == "r_symmetric":
        h = symmetrize_invariant(h, r)
        h0 = symmetrize_invariant(h0, r)
        s = _r_commuting_unitary(rng, v, plus)
    elif regime == "t_symmetric":
        h = h.real.astype(complex)
        s = _symmetric_unitary(rng, dim)
    states = {
        "even": v[:, 0].copy(),
        "odd": v[:, -1].copy(),
        "ground": _state(rng, dim),
        "excited": _state(rng, dim),
    }
    requests = (
        Request("unitary_curie", {"symmetry": "R", "state": "even", "time": time}),
        Request("scattering_curie", {"symmetry": "R", "state_in": "even", "state_out": "odd"}),
        Request("s_matrix_inference", {"symmetry": "R"}),
        Request("kabir", {"symmetry": "T", "state_in": "ground", "state_out": "excited"}),
        Request("cpt_link", {"cpt_symmetry": "T", "cp_symmetry": "R"}),
        Request("wigner", {"symmetry": "T"}),
    )
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": h, "h0": h0, "smatrix": s},
        symmetries={"T": conjugation(dim, label="T"), "R": r},
        states=states,
        requests=requests,
        tolerance_overrides={"tau_violation": 4.0} if regime == "wide_band" else None,
    )


def small_batch(seed: int, tiny: bool = False) -> Workload:
    """Hundreds of dim 2-8 scenarios in every regime, plus the six shipped files."""
    count = 12 if tiny else 320
    generated = {}
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        scenario = mixed_scenario(rng, 2 + i % 7, REGIMES[i % len(REGIMES)], float(rng.uniform(-2.0, 2.0)))
        if i % 2:
            scenario = dataclasses.replace(scenario, seed=i)
        generated[f"sb_{i:04d}"] = scenario
    shipped = shipped_scenario_paths()
    oracle = tuple(sorted(shipped)) + tuple(sorted(generated)[:2])
    return Workload("small_batch", generated, shipped, oracle)


def dense_io(seed: int, tiny: bool = False) -> Workload:
    """Two dim-256 documents: the per-entry JSON walk dominates."""
    dim = 16 if tiny else 256
    generated = {}
    # between them the two regimes give every outcome
    for i, regime in enumerate(("r_symmetric", "wide_band")):
        rng = np.random.default_rng([seed, i])
        generated[f"dense_{i}"] = mixed_scenario(rng, dim, regime, float(rng.uniform(-2.0, 2.0)))
    return Workload("dense_io", generated, {}, ("dense_0",), writes_per_round=2 * len(generated))


def _sweep_requests(rng: np.random.Generator, per_detector: int, reversal: str, n_states: int) -> tuple[Request, ...]:
    even = [f"even_{k}" for k in range(n_states)]
    odd = [f"odd_{k}" for k in range(n_states)]
    rand = [f"rand_{k}" for k in range(n_states)]
    every = even + odd + rand
    reversals = ("K", reversal)

    def pick(names: list[str]) -> str:
        return names[int(rng.integers(len(names)))]

    requests = []
    for k in range(per_detector):
        # long times force many squarings in the Pade exponential
        time = float(10.0 ** rng.uniform(-1.0, 3.0))
        requests.append(Request("unitary_curie", {"symmetry": "R", "state": pick(even if k % 3 else rand), "time": time}))
        params: dict[str, object] = {"symmetry": reversals[k % 2]}
        if k % 4:
            params["gap_tol"] = float(10.0 ** rng.uniform(-13.0, -3.0))
        requests.append(Request("wigner", params))
        requests.append(Request("kabir", {"symmetry": reversals[k % 2], "state_in": pick(every), "state_out": pick(every)}))
        requests.append(Request("scattering_curie", {"symmetry": "R", "state_in": pick(even), "state_out": pick(odd if k % 3 else rand)}))
        requests.append(Request("s_matrix_inference", {"symmetry": "R"}))
        requests.append(Request("cpt_link", {"cpt_symmetry": reversals[k % 2], "cp_symmetry": "R"}))
    return tuple(requests)


def sweep_scenario(rng: np.random.Generator, dim: int, kramers: bool, per_detector: int) -> Scenario:
    """Many requests against one H and one S, which every request decomposes again."""
    n_states = 4
    r, v, plus = _involution(rng, dim)
    h = _hermitian(rng, dim)
    symmetries = {"K": conjugation(dim, label="K"), "R": r}
    if kramers:
        t = _kramers_reversal(dim)
        h = symmetrize_invariant(h, t)
        symmetries["T"] = t
        h0 = np.diag(rng.standard_normal(dim)).astype(complex)
        s = mat_exp(h, -1j)
    else:
        h0 = symmetrize_invariant(np.diag(rng.standard_normal(dim)).astype(complex), r)
        s = _haar(rng, dim)
    states = {}
    for k in range(n_states):
        states[f"even_{k}"] = v[:, k].copy()
        states[f"odd_{k}"] = v[:, plus + k].copy()
        states[f"rand_{k}"] = _state(rng, dim)
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": h, "h0": h0, "smatrix": s},
        symmetries=symmetries,
        states=states,
        requests=_sweep_requests(rng, per_detector, "T" if kramers else "K", n_states),
    )


def sweep(seed: int, tiny: bool = False) -> Workload:
    """Two dim-128 scenarios, one generic and one Kramers-degenerate."""
    dim, per_detector = (16, 4) if tiny else (128, 20)
    generated = {
        "sweep_generic": sweep_scenario(np.random.default_rng([seed, 0]), dim, False, per_detector),
        "sweep_kramers": sweep_scenario(np.random.default_rng([seed, 1]), dim, True, per_detector),
    }
    return Workload("sweep", generated, {}, tuple(sorted(generated)), writes_per_round=4 * len(generated))


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    return {"small_batch": small_batch, "dense_io": dense_io, "sweep": sweep}[name](seed, tiny)


@dataclass(frozen=True)
class Reference:
    """Expected CLI output, built in process from the scenario objects."""

    check: dict[str, bytes]
    oracle: dict[str, bytes]

    def digest(self) -> str:
        h = hashlib.sha256()
        for kind, table in (("check", self.check), ("oracle", self.oracle)):
            for stem in sorted(table):
                h.update(f"{kind}:{stem}:{len(table[stem])}\n".encode())
                h.update(table[stem])
        return h.hexdigest()


def reference(workload: Workload) -> Reference:
    scenarios = dict(workload.generated)
    for stem, path in workload.shipped.items():
        scenarios[stem] = parse_scenario(path.read_bytes())
    check = {}
    oracle = {}
    for stem, scenario in scenarios.items():
        tol = scenario.effective_tolerances()
        report = run_scenario(scenario, tolerances=tol, seed=scenario.seed)
        check[stem] = serialize_report(report)
        if stem in workload.oracle_stems:
            records = oracle_compare(scenario, report, tol)
            oracle[stem] = serialize_report(dataclasses.replace(report, oracle=records))
    return Reference(check, oracle)


if __name__ == "__main__":
    from run import machine_facts

    digests = {name: reference(generate(name, DEFAULT_SEED)).digest() for name in WORKLOADS}
    print(json.dumps({"machine": machine_facts(), "digests": digests}, indent=2))
