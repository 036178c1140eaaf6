"""Unitary and antiunitary transforms and their invariance margins.

An antiunitary transform is stored as a pair ``(U, antilinear=True)``
and acts as ``psi -> U @ conj(psi)``, i.e. componentwise conjugation in
the computational basis followed by a unitary. Linear transforms act as
``psi -> U @ psi``. Building a transform checks only the form of its unitary
part; whether it is unitary is judged at the tolerance of the call that relies
on it (``require_transform``, the runner). Non-unitary maps are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError, MisuseError
from .linalg import (
    as_square_matrix,
    as_state_vector,
    dagger,
    frobenius_norm,
    frozen,
    memoised,
    require_unitary,
)
from .verdict import REASON_PREMISE_UNMET, Verdict, classify, require_finite


@dataclass(frozen=True)
class SymmetryTransform:
    unitary_part: np.ndarray
    antilinear: bool
    label: str = ""

    def __post_init__(self) -> None:
        # frozen, so that memo keys hold this transform's own buffer
        arr = frozen(as_square_matrix(self.unitary_part, name=f"unitary_part of {self.label or 'transform'}"))
        object.__setattr__(self, "unitary_part", arr)
        object.__setattr__(self, "antilinear", bool(self.antilinear))

    def __reduce__(self) -> tuple:
        # through the constructor, so a pickled or deep-copied transform's array is frozen again
        return (SymmetryTransform, (self.unitary_part, self.antilinear, self.label))

    @property
    def dim(self) -> int:
        return self.unitary_part.shape[0]


def require_transform(g: SymmetryTransform, antilinear: bool | None, tol: Tolerances, what: str = "") -> None:
    """Check g unitary within ``tol.tau_zero``, after raising ``MisuseError(what)``
    if its kind is not ``antilinear`` (None takes either kind).
    """
    if antilinear is not None and g.antilinear != antilinear:
        raise MisuseError(what)
    require_unitary(g.unitary_part, tol=tol.tau_zero, name=f"unitary_part of {g.label or 'transform'}")


def conjugation(dim: int, label: str = "K") -> SymmetryTransform:
    """Componentwise complex conjugation in the computational basis."""
    return SymmetryTransform(np.eye(dim, dtype=complex), antilinear=True, label=label)


def apply(g: SymmetryTransform, psi: np.ndarray) -> np.ndarray:
    vec = as_state_vector(psi, dim=g.dim)
    if g.antilinear:
        return g.unitary_part @ vec.conj()
    return g.unitary_part @ vec


def compose(g: SymmetryTransform, h: SymmetryTransform, label: str = "") -> SymmetryTransform:
    """The transform ``g after h``.

    Pulling h's unitary part through g's conjugation gives
    ``U = U_g @ conj(U_h)`` when g is antilinear and ``U_g @ U_h``
    otherwise; the antilinear flags combine by exclusive or.
    """
    if g.dim != h.dim:
        raise DimensionMismatchError(f"dimension mismatch {g.dim} vs {h.dim}")
    right = h.unitary_part.conj() if g.antilinear else h.unitary_part
    return SymmetryTransform(
        g.unitary_part @ right,
        antilinear=g.antilinear != h.antilinear,
        label=label or f"{g.label}{h.label}",
    )


def inverse(g: SymmetryTransform, label: str = "") -> SymmetryTransform:
    unit = g.unitary_part.T if g.antilinear else dagger(g.unitary_part)
    return SymmetryTransform(unit, antilinear=g.antilinear, label=label or f"{g.label}^-1")


def conjugate_operator(g: SymmetryTransform, a: np.ndarray) -> np.ndarray:
    """The linear operator ``g A g^-1``."""
    arr = as_square_matrix(a)
    if arr.shape[0] != g.dim:
        raise DimensionMismatchError(f"operator dim {arr.shape[0]} vs transform dim {g.dim}")
    middle = arr.conj() if g.antilinear else arr
    return g.unitary_part @ middle @ dagger(g.unitary_part)


@dataclass(frozen=True)
class InvarianceMargin:
    """A scalar distance from exact invariance, as ``invariance_margin`` computes it."""

    value: float


def invariance_margin(g: SymmetryTransform, a: np.ndarray) -> InvarianceMargin:
    """``||g A g^-1 - A||_F / max(1, ||A||_F)``.

    Memoised by the exact content of g's unitary part, its antilinear
    flag and A.
    """
    return _margin(g.unitary_part, g.antilinear, as_square_matrix(a), g=g)


@memoised(8)
def _margin(u: np.ndarray, antilinear: bool, arr: np.ndarray, *, g: SymmetryTransform) -> InvarianceMargin:
    """The margin of A under g, whose unitary part ``u`` and ``antilinear`` flag key it."""
    value = frobenius_norm(conjugate_operator(g, arr) - arr) / max(1.0, frobenius_norm(arr))
    return InvarianceMargin(value=value)


def commutant_inference(
    premise: InvarianceMargin,
    deciding: InvarianceMargin,
    symmetry: str,
    tol: Tolerances,
    keys: tuple[str, str],
    notes: tuple[str, str, str, str],
) -> Verdict:
    """A Violation of ``symmetry`` when ``premise`` commutes and ``deciding`` does not.

    Both margins must be finite; ``keys`` are their witness keys. The premise
    holds at or below ``tau_zero``; ``classify`` then decides on the other
    margin. ``notes`` are the witness notes for premise unmet, violation, band
    and zero, in that order.
    """
    for margin, key in zip((premise, deciding), keys):
        require_finite(margin.value, key)
    witness = dict(zip(keys, (premise.value, deciding.value)))
    unmet, violation, band, zero = ({"note": note} for note in notes)
    if premise.value > tol.tau_zero:
        return Verdict.no_conclusion(REASON_PREMISE_UNMET, margin=deciding.value, witness={**witness, **unmet})
    return classify(witness, keys[1], symmetry, tol, violation, band, zero)


def cpt_link_inference(
    cpt_margin: InvarianceMargin,
    cp_margin: InvarianceMargin,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Indirect time reversal test through the combined CPT transform.

    When the composite CPT transform commutes with the dynamics while CP
    alone does not, time reversal invariance must fail as well. Both
    margins must be taken against the same Hamiltonian.
    """
    notes = (
        "composite CPT transform does not commute with the dynamics",
        "CPT invariant while CP is violated",
        "CP margin falls in the hysteresis band",
        "CP margin is consistent with zero",
    )
    keys = ("cpt_margin", "cp_margin")
    return commutant_inference(cpt_margin, cp_margin, "T", tol, keys, notes)
