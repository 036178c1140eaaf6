"""Direct amplitude comparison between a process and its reverse.

For a unitary S-matrix and an antiunitary candidate reversal T, compare
the amplitude for ``psi_in -> psi_out`` with the amplitude for the
motion-reversed process ``T psi_out -> T psi_in``. A reversal that
conjugates S into its inverse makes the two amplitudes equal, so any
gap between them certifies that no such relation holds for this T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .linalg import as_square_matrix, as_state_vector, require_unitary
from .symmetry import SymmetryTransform, apply, require_transform
from .verdict import Verdict, classify


@dataclass(frozen=True)
class AmplitudePair:
    """Forward and reversed amplitudes and their absolute difference."""

    forward: complex
    reversed: complex
    asymmetry: float


def amplitude_pair(
    s: np.ndarray,
    t: SymmetryTransform,
    psi_in: np.ndarray,
    psi_out: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AmplitudePair:
    """``<psi_out, S psi_in>`` against ``<T psi_in, S T psi_out>``."""
    require_transform(t, True, tol, "the amplitude comparison requires an antilinear transform")
    smat = require_unitary(s, tol=tol.tau_zero, name="smatrix")
    v_in = as_state_vector(psi_in, dim=smat.shape[0], name="psi_in")
    v_out = as_state_vector(psi_out, dim=smat.shape[0], name="psi_out")
    forward = complex(np.vdot(v_out, smat @ v_in))
    backward = complex(np.vdot(apply(t, v_in), smat @ apply(t, v_out)))
    return AmplitudePair(forward=forward, reversed=backward, asymmetry=abs(forward - backward))


def kabir_check(
    s: np.ndarray,
    t: SymmetryTransform,
    psi_in: np.ndarray,
    psi_out: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Verdict form of the amplitude comparison."""
    pair = amplitude_pair(s, t, psi_in, psi_out, tol)
    witness = {"forward": pair.forward, "reversed": pair.reversed, "asymmetry": pair.asymmetry}
    band = {"note": "asymmetry falls in the hysteresis band"}
    zero = {"note": "forward and reversed amplitudes agree"}
    return classify(witness, "asymmetry", f"{t.label or 'T'} on S", tol, band=band, zero=zero)


def transition_probability(m: np.ndarray, psi_in: np.ndarray, psi_out: np.ndarray) -> float:
    """``|<psi_out, M psi_in>|^2``."""
    mat = as_square_matrix(m, "m")
    v_in = as_state_vector(psi_in, dim=mat.shape[0], name="psi_in")
    v_out = as_state_vector(psi_out, dim=mat.shape[0], name="psi_out")
    return float(abs(np.vdot(v_out, mat @ v_in)) ** 2)


def probability_asymmetry(m: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """``|P(a -> b) - P(b -> a)|``.

    For 2x2 unitaries this vanishes identically; three or more channels
    are needed for a probability-level asymmetry.
    """
    return abs(transition_probability(m, psi_a, psi_b) - transition_probability(m, psi_b, psi_a))
