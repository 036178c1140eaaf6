"""Verdict record returned by every detector.

A detector either establishes a violation or it does not; there is no
"invariance confirmed" outcome. A ``Violation`` always carries a margin
above the violation threshold and a non-empty witness explaining what
was observed. A ``NoConclusion`` carries one of three reason codes:

* ``premise-unmet``: the check's hypotheses do not hold for this input.
* ``below-threshold``: the hypotheses hold but the measured quantity is
  consistent with zero.
* ``indeterminate``: the measured quantity falls in the hysteresis band
  between ``tau_zero`` and ``tau_violation``.

``classify`` is that ladder, shared by every detector that decides on
one scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .config import Tolerances
from .errors import PremiseError, TvdError

VIOLATION = "Violation"
NO_CONCLUSION = "NoConclusion"

REASON_PREMISE_UNMET = "premise-unmet"
REASON_BELOW_THRESHOLD = "below-threshold"
REASON_INDETERMINATE = "indeterminate"

_REASONS = (REASON_PREMISE_UNMET, REASON_BELOW_THRESHOLD, REASON_INDETERMINATE)


@dataclass(frozen=True)
class Verdict:
    outcome: str
    violated_symmetry: str = ""
    margin: float = 0.0
    reason: str = ""
    witness: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_violation(self) -> bool:
        return self.outcome == VIOLATION

    @classmethod
    def violation(cls, symmetry: str, margin: float, witness: Mapping[str, Any]) -> "Verdict":
        if not witness:
            raise TvdError("a Violation verdict requires a non-empty witness")
        if not math.isfinite(margin):
            raise TvdError(f"a Violation verdict requires a finite margin, got {margin}")
        if not symmetry:
            raise TvdError("a Violation verdict requires a symmetry label")
        return cls(
            outcome=VIOLATION,
            violated_symmetry=symmetry,
            margin=float(margin),
            witness=dict(witness),
        )

    @classmethod
    def no_conclusion(
        cls,
        reason: str,
        margin: float = 0.0,
        witness: Mapping[str, Any] | None = None,
    ) -> "Verdict":
        if reason not in _REASONS:
            raise TvdError(f"unknown reason code {reason!r}")
        return cls(
            outcome=NO_CONCLUSION,
            margin=float(margin),
            reason=reason,
            witness=dict(witness or {}),
        )


def require_finite(value: float, quantity: str) -> float:
    """``value``, unless it is a NaN or an infinity, which no threshold can place."""
    if not math.isfinite(value):
        raise PremiseError(f"{quantity} is not finite ({value})")
    return value


def classify(
    witness: Mapping[str, Any],
    quantity: str,
    symmetry: str,
    tol: Tolerances,
    violation: Mapping[str, Any] | None = None,
    band: Mapping[str, Any] | None = None,
    zero: Mapping[str, Any] | None = None,
) -> Verdict:
    """The one-sided ladder on the deciding quantity ``witness[quantity]``.

    Above ``tol.tau_violation`` it is a Violation of ``symmetry``, above
    ``tol.tau_zero`` indeterminate, otherwise below threshold; the margin is
    the quantity, and each outcome's witness adds the entries of
    ``violation``, ``band`` or ``zero``. A non-finite quantity is a PremiseError.
    """
    value = require_finite(witness[quantity], quantity)
    if value > tol.tau_violation:
        return Verdict.violation(symmetry, margin=value, witness={**witness, **(violation or {})})
    reason, extra = (REASON_INDETERMINATE, band) if value > tol.tau_zero else (REASON_BELOW_THRESHOLD, zero)
    return Verdict.no_conclusion(reason, margin=value, witness={**witness, **(extra or {})})
