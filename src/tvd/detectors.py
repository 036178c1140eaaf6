"""The detectors a scenario request may name: one record each, holding the
request schema, the run and the oracle rule. Both callables receive the
scenario's matrices plus the request's fields, each symmetry or state name
replaced by the object it names.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping
from dataclasses import dataclass

from . import oracle
from .config import Tolerances
from .curie import s_matrix_inference, scattering_curie_check, unitary_curie_check
from .errors import ScenarioError
from .kabir import kabir_check
from .symmetry import cpt_link_inference, invariance_margin
from .verdict import Verdict
from .wigner import wigner_principle_check


@dataclass(frozen=True)
class Detector:
    required: tuple[str, ...]
    matrices: tuple[str, ...]
    run: Callable[[dict, Tolerances], Verdict]
    oracle: Callable[[dict, str, Tolerances], tuple[dict[str, float], str]]
    optional: tuple[str, ...] = ()


DETECTORS: dict[str, Detector] = {
    "unitary_curie": Detector(
        required=("symmetry", "state", "time"), matrices=("hamiltonian",),
        run=lambda a, tol: unitary_curie_check(a["hamiltonian"], a["symmetry"], a["state"], a["time"], tol=tol),
        oracle=oracle.unitary_curie,
    ),
    "scattering_curie": Detector(
        required=("symmetry", "state_in", "state_out"), matrices=("smatrix",),
        run=lambda a, tol: scattering_curie_check(a["smatrix"], a["symmetry"], a["state_in"], a["state_out"], tol=tol),
        oracle=oracle.scattering_curie,
    ),
    "s_matrix_inference": Detector(
        required=("symmetry",), matrices=("h0", "smatrix"),
        run=lambda a, tol: s_matrix_inference(
            invariance_margin(a["symmetry"], a["h0"]),
            invariance_margin(a["symmetry"], a["smatrix"]),
            label=a["symmetry"].label,
            tol=tol,
        ),
        oracle=oracle.s_matrix_inference,
    ),
    "kabir": Detector(
        required=("symmetry", "state_in", "state_out"), matrices=("smatrix",),
        run=lambda a, tol: kabir_check(a["smatrix"], a["symmetry"], a["state_in"], a["state_out"], tol=tol),
        oracle=oracle.kabir,
    ),
    "cpt_link": Detector(
        required=("cpt_symmetry", "cp_symmetry"), matrices=("hamiltonian",),
        run=lambda a, tol: cpt_link_inference(
            invariance_margin(a["cpt_symmetry"], a["hamiltonian"]),
            invariance_margin(a["cp_symmetry"], a["hamiltonian"]),
            tol=tol,
        ),
        oracle=oracle.cpt_link,
    ),
    "wigner": Detector(
        required=("symmetry",), optional=("gap_tol",), matrices=("hamiltonian",),
        run=lambda a, tol: wigner_principle_check(a["hamiltonian"], a["symmetry"], gap_tol=a.get("gap_tol"), tol=tol),
        oracle=oracle.wigner,
    ),
}

# request field -> (the Scenario table whose entry it names, that entry's noun);
# every other field is a number
REFERENCES: dict[str, tuple[str, str]] = {
    **dict.fromkeys(("symmetry", "cpt_symmetry", "cp_symmetry"), ("symmetries", "symmetry")),
    **dict.fromkeys(("state", "state_in", "state_out"), ("states", "state")),
}


def request_params(
    detector: object, fields: Mapping[str, object], matrices: Collection[str], value: Callable, path: str
) -> dict[str, object]:
    """The request's ``fields``, each passed through ``value(name, field)``.

    An unknown detector (under ``path.detector``), unknown or missing field
    (checked before any value) or missing matrix raises the parser's message.
    """
    if not isinstance(detector, str) or detector not in DETECTORS:
        raise ScenarioError(f"unknown detector {detector!r}", path and f"{path}.detector")
    record = DETECTORS[detector]
    names = record.required + record.optional
    for name in fields:
        if name not in names:
            raise ScenarioError(f"unknown field {name!r}", path)
    for name in record.required:
        if name not in fields:
            raise ScenarioError(f"missing field {name!r}", path)
    params = {name: value(name, fields[name]) for name in names if name in fields}
    for name in record.matrices:
        if name not in matrices:
            raise ScenarioError(f"detector {detector!r} needs matrix {name!r}", path)
    return params
