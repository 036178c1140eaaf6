"""Tolerance configuration used by every detector.

Two thresholds with a deliberate gap between them drive all verdicts:
``tau_zero`` decides when a quantity counts as exactly zero and
``tau_violation`` decides when it counts as a established violation.
Values falling between the two land in a hysteresis band and never
produce a Violation verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    tau_zero: float = 1e-9
    tau_violation: float = 1e-6
    tau_eig: float = 1e-8
    gap_tol: float = 1e-8

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int, and an infinite tau_violation could never be reached
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0.0 < value < math.inf):
                raise ConfigError(f"{f.name} must be a positive finite number, got {value!r}")
        if self.tau_zero >= self.tau_violation:
            raise ConfigError(
                f"tau_zero ({self.tau_zero}) must be below tau_violation "
                f"({self.tau_violation})"
            )


DEFAULT_TOLERANCES = Tolerances()
