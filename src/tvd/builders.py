"""Named scenario builders for the command line.

Each builder turns a small parameter dictionary (string values are
accepted, as supplied by ``--param key=value``) into a ready-to-run
scenario document.
"""

from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ParameterError
from .linalg import mat_exp, normalize
from .models import edm_model, kaon_decay_scattering_model, kaon_oscillation_model, t_symmetric_smatrix
from .scenario import Request, Scenario
from .symmetry import SymmetryTransform, conjugation


def _to_float(value: object) -> float:
    """Accept plain numbers and fraction notation such as '1/2'."""
    if isinstance(value, str) and "/" in value:
        out = float(Fraction(value.strip()))
    else:
        out = float(value)  # type: ignore[arg-type]
    if not math.isfinite(out):
        raise ParameterError(f"expected a finite number, got {value!r}")
    return out


def _to_int(value: object) -> int:
    if isinstance(value, bool):
        raise ParameterError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    return int(str(value), 10)


def _to_complex(value: object) -> complex:
    """Accept 'i' notation ('0.3i', '1+2i') alongside Python's 'j'."""
    if isinstance(value, complex):
        out = value
    else:
        out = complex(str(value).strip().replace("i", "j"))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ParameterError(f"expected a finite complex number, got {value!r}")
    return out


_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def _to_triple(value: object) -> tuple[float, float, float]:
    """Accept an axis letter ('z') or three comma-separated components."""
    if isinstance(value, str) and value.strip().lower() in _AXES:
        return _AXES[value.strip().lower()]
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
    else:
        parts = list(value)  # type: ignore[arg-type]
    if len(parts) != 3:
        raise ParameterError(f"expected an axis letter or three comma-separated components, got {value!r}")
    return (_to_float(parts[0]), _to_float(parts[1]), _to_float(parts[2]))


def _kaon_decay(epsilon: float) -> Scenario:
    model = kaon_decay_scattering_model(epsilon)
    return Scenario(
        dim=2,
        matrices={
            "h0": np.diag([0.5, 2.0]).astype(complex),
            "smatrix": model.smatrix,
        },
        symmetries={"CP": model.cp},
        states={"kaon_long": model.psi_in, "two_pion": model.psi_out},
        requests=(
            Request("scattering_curie", {"symmetry": "CP", "state_in": "kaon_long", "state_out": "two_pion"}),
            Request("s_matrix_inference", {"symmetry": "CP"}),
        ),
    )


def _kaon_oscillation(m1: float, m2: float, w: complex, t: float) -> Scenario:
    model = kaon_oscillation_model(m1, m2, w)
    return Scenario(
        dim=2,
        matrices={
            "hamiltonian": model.hamiltonian,
            "smatrix": mat_exp(model.hamiltonian, -1j * t),
        },
        symmetries={"T": model.time_reversal},
        states={
            "k0": model.k0,
            "k0bar": model.k0bar,
            "cp_even": model.k1,
            "cp_odd": model.k2,
        },
        requests=(
            Request("kabir", {"symmetry": "T", "state_in": "k0", "state_out": "k0bar"}),
            Request("wigner", {"symmetry": "T"}),
        ),
    )


def _edm(j: float, h0: float, g: float, e: tuple[float, float, float], d: float) -> Scenario:
    model = edm_model(j, h0=h0, g=g, e_field=e, d=d)
    dim = model.spin.dim
    up = np.zeros(dim, dtype=complex)
    up[0] = 1.0
    return Scenario(
        dim=dim,
        matrices={"hamiltonian": model.hamiltonian},
        symmetries={"T": model.spin.time_reversal},
        states={"stretched": normalize(up)},
        requests=(Request("wigner", {"symmetry": "T"}),),
    )


def _t_symmetric_s(dim: int, seed: int) -> Scenario:
    if dim < 2:
        raise ParameterError(f"dim must be at least 2, got {dim}")
    smatrix = t_symmetric_smatrix(dim, seed)
    eye = np.eye(dim, dtype=complex)
    return Scenario(
        dim=dim,
        matrices={"smatrix": smatrix},
        symmetries={"T": conjugation(dim, label="T")},
        states={"channel_0": eye[:, 0].copy(), "channel_1": eye[:, 1].copy()},
        requests=(Request("kabir", {"symmetry": "T", "state_in": "channel_0", "state_out": "channel_1"}),),
        seed=seed,
    )


def _three_channel_loop() -> Scenario:
    # three channels coupled in a cycle with one complex leg; the loop
    # phase cannot be removed by rephasing, so amplitudes are unbalanced
    g = np.array([[0.0, 1j, 1.0], [-1j, 0.0, 1.0], [1.0, 1.0, 0.0]], dtype=complex)
    eye = np.eye(3, dtype=complex)
    return Scenario(
        dim=3,
        matrices={"smatrix": mat_exp(g, -1j)},
        symmetries={"T": conjugation(3, label="T")},
        states={"channel_0": eye[:, 0].copy(), "channel_1": eye[:, 1].copy(), "channel_2": eye[:, 2].copy()},
        requests=(Request("kabir", {"symmetry": "T", "state_in": "channel_0", "state_out": "channel_1"}),),
    )


def _cpt_link() -> Scenario:
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    hamiltonian = np.array([[1.0, 1j], [-1j, 1.0]], dtype=complex)
    return Scenario(
        dim=2,
        matrices={"hamiltonian": hamiltonian},
        symmetries={
            "CPT": SymmetryTransform(sigma_x, antilinear=True, label="CPT"),
            "CP": SymmetryTransform(sigma_x, antilinear=False, label="CP"),
        },
        states={},
        requests=(Request("cpt_link", {"cpt_symmetry": "CPT", "cp_symmetry": "CP"}),),
    )


# model name -> (builder, {parameter: (parse, default)})
_MODELS: dict[str, tuple[Callable[..., Scenario], dict[str, tuple[Callable[[object], object], object]]]] = {
    "kaon-decay": (_kaon_decay, {"epsilon": (_to_float, 0.2)}),
    "kaon-oscillation": (
        _kaon_oscillation,
        {
            "m1": (_to_float, 0.5),
            "m2": (_to_float, 0.7),
            "w": (_to_complex, 1j),
            "t": (_to_float, 1.0),
        },
    ),
    "edm": (
        _edm,
        {
            "j": (_to_float, 0.5),
            "h0": (_to_float, 1.0),
            "g": (_to_float, 1.0),
            "e": (_to_triple, (0.0, 0.0, 1.0)),
            "d": (_to_float, 0.1),
        },
    ),
    "t-symmetric-s": (_t_symmetric_s, {"dim": (_to_int, 3), "seed": (_to_int, 7)}),
    "three-channel-loop": (_three_channel_loop, {}),
    "cpt-link": (_cpt_link, {}),
}

MODEL_NAMES = tuple(sorted(_MODELS))


def shipped_scenario_paths() -> dict[str, Path]:
    """Scenario files installed with the package, keyed by stem."""
    root = resources.files("tvd") / "data" / "scenarios"
    out: dict[str, Path] = {}
    for entry in root.iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = Path(str(entry))
    return dict(sorted(out.items()))


def build_model_scenario(name: str, raw_params: dict[str, object] | None = None) -> Scenario:
    """Build one named scenario, applying defaults for missing parameters."""
    if name not in _MODELS:
        raise ParameterError(f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    builder, spec = _MODELS[name]
    raw = dict(raw_params or {})
    for key in raw:
        if key not in spec:
            expected = ", ".join(sorted(spec)) or "none"
            raise ParameterError(f"unknown parameter {key!r} for model {name!r}; expected: {expected}")
    params: dict[str, object] = {}
    for key, (parse, default) in spec.items():
        if key in raw:
            try:
                params[key] = parse(raw[key])
            except ParameterError:
                raise
            except Exception as exc:
                raise ParameterError(f"bad value for parameter {key!r}: {raw[key]!r} ({exc})") from None
        else:
            params[key] = default
    return builder(**params)
