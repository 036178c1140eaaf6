"""Eigenstate ray displacement and degeneracy structure.

An antiunitary transform commuting with H maps each eigenspace of H to
itself. A non-degenerate eigenvector must therefore stay on its own ray;
if it visibly moves, the transform cannot commute with H. When the
transform squares to minus the identity, it moves every state to an
orthogonal one (Kramers): a commuting such T leaves no level simple,
and any simple level is displaced by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MisuseError, PremiseError
from .linalg import (
    EigenDecomposition,
    frobenius_norm,
    herm_eig,
    memoised,
    norm_deviation,
    require_hermitian,
    require_normalized,
)
from .symmetry import SymmetryTransform, apply, require_transform
from .verdict import (
    REASON_BELOW_THRESHOLD,
    REASON_INDETERMINATE,
    REASON_PREMISE_UNMET,
    Verdict,
)

PLUS_IDENTITY = "PlusIdentity"
MINUS_IDENTITY = "MinusIdentity"
OTHER = "Other"


@dataclass(frozen=True)
class Cluster:
    """One near-degenerate group of eigenvalues."""

    value: float
    multiplicity: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class SpectrumClusters:
    clusters: tuple[Cluster, ...]
    spectral_range: float
    gap_tol: float

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.clusters)


def spectrum_clusters(eigenvalues: np.ndarray, gap_tol: float = DEFAULT_TOLERANCES.gap_tol) -> SpectrumClusters:
    """Group an ascending spectrum by relative gap.

    Adjacent eigenvalues join the same cluster when their gap does not
    exceed ``gap_tol * max(1, spectral_range)``.
    """
    values = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if values.size == 0:
        raise PremiseError("empty spectrum")
    if np.any(np.diff(values) < 0.0):
        raise PremiseError("eigenvalues must be ascending")
    if not gap_tol > 0.0:
        raise PremiseError(f"gap_tol must be positive, got {gap_tol}")
    spectral_range = float(values[-1] - values[0])
    limit = gap_tol * max(1.0, spectral_range)
    # a cluster ends wherever a gap is not within the limit (a NaN gap included)
    edges = [0, *(np.flatnonzero(~(np.diff(values) <= limit)) + 1).tolist(), values.size]
    # np.mean of one value is 0.0 + value: the same bits, except -0.0 becomes 0.0
    singles = (values + 0.0).tolist()
    clusters = tuple(
        Cluster(
            value=singles[start] if stop - start == 1 else float(np.mean(values[start:stop])),
            multiplicity=stop - start,
            indices=tuple(range(start, stop)),
        )
        for start, stop in zip(edges, edges[1:])
    )
    return SpectrumClusters(clusters=clusters, spectral_range=spectral_range, gap_tol=float(gap_tol))


@dataclass(frozen=True)
class TSquareClass:
    """Classification of ``T^2 = U conj(U)`` against plus or minus identity."""

    classification: str
    deviation: float


def kramers_square(t: SymmetryTransform, tol: Tolerances = DEFAULT_TOLERANCES) -> TSquareClass:
    require_transform(t, True, tol, "the square classification applies to antilinear transforms")
    square = t.unitary_part @ t.unitary_part.conj()
    eye = np.eye(t.dim)
    dev_plus = frobenius_norm(square - eye)
    dev_minus = frobenius_norm(square + eye)
    if dev_plus <= tol.tau_zero:
        return TSquareClass(classification=PLUS_IDENTITY, deviation=dev_plus)
    if dev_minus <= tol.tau_zero:
        return TSquareClass(classification=MINUS_IDENTITY, deviation=dev_minus)
    return TSquareClass(classification=OTHER, deviation=min(dev_plus, dev_minus))


def ray_displacement(t: SymmetryTransform, psi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """``1 - |<T psi, psi>|`` for a normalized state.

    Zero means T fixes the ray of psi; one means T moves psi to an
    orthogonal state.
    """
    require_transform(t, True, tol, "ray displacement applies to antilinear transforms")
    return _displacement(t, require_normalized(psi, dim=t.dim, tol=tol.tau_zero))


def _displacement(t: SymmetryTransform, vec: np.ndarray) -> float:
    return max(0.0, 1.0 - abs(complex(np.vdot(apply(t, vec), vec))))


@memoised(4)
def _eigenrays(
    arr: np.ndarray, u: np.ndarray, antilinear: bool, *, t: SymmetryTransform, decomp: EigenDecomposition
) -> tuple[tuple[float, float], ...]:
    """``(norm deviation, ray displacement)`` under t of every column of ``decomp = herm_eig(arr)``.

    Memoised by the content of ``arr`` and of t's unitary part ``u`` and
    ``antilinear`` flag, so all requests against one (H, T) pair share one table.
    """
    vectors = (decomp.vector(k) for k in range(decomp.eigenvalues.size))
    return tuple((norm_deviation(vec), _displacement(t, vec)) for vec in vectors)


def wigner_principle_check(
    h: np.ndarray,
    t: SymmetryTransform,
    gap_tol: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Verdict:
    """Detect ``[T, H] != 0`` from a displaced non-degenerate eigenray.

    Returns a Violation when some eigenvector in a multiplicity-1
    cluster is moved off its ray by T. Spectra with no non-degenerate
    level give no conclusion, as do displacements or cluster gaps inside
    the hysteresis band.
    """
    require_transform(t, True, tol, "this check requires an antilinear transform")
    arr = require_hermitian(h, tol=tol.tau_zero, name="hamiltonian")
    if frobenius_norm(arr) <= tol.tau_zero:
        raise PremiseError("zero Hamiltonian has no spectral structure to test")
    if arr.shape[0] != t.dim:
        raise MisuseError(f"dimension mismatch {arr.shape[0]} vs {t.dim}")
    effective_gap = tol.gap_tol if gap_tol is None else float(gap_tol)

    decomp = herm_eig(arr, tol=tol)
    values = decomp.eigenvalues
    clusters = spectrum_clusters(values, effective_gap)
    multiplicities = list(clusters.multiplicities)
    simple = [c.indices[0] for c in clusters.clusters if c.multiplicity == 1]
    if not simple:
        return Verdict.no_conclusion(
            REASON_PREMISE_UNMET,
            witness={"note": "every eigenvalue cluster is degenerate", "multiplicities": multiplicities},
        )

    confident_limit = effective_gap * (tol.tau_violation / tol.tau_zero) * max(1.0, clusters.spectral_range)
    # A simple level supports a Violation only when neither gap beside it is
    # within the widened (hysteresis) limit. The gap an end level lacks is
    # NaN, which is within no limit, not even an overflowed one.
    crowded = np.diff(values, prepend=np.nan, append=np.nan) <= confident_limit
    rays = _eigenrays(arr, t.unitary_part, t.antilinear, t=t, decomp=decomp)
    best, best_delta, band_hit = -1, -1.0, False
    for i in simple:
        norm_dev, delta = rays[i]
        if norm_dev > tol.tau_zero:
            # the first simple level off the unit sphere fails as a cold check would
            require_normalized(decomp.vector(i), dim=t.dim, tol=tol.tau_zero)
        if delta > tol.tau_violation and not (crowded[i] or crowded[i + 1]) and delta > best_delta:
            best, best_delta = i, delta
        elif delta > tol.tau_zero:
            band_hit = True

    if best >= 0:
        return Verdict.violation(
            t.label or "T",
            margin=best_delta,
            witness={
                # a simple cluster's value: the level itself, with -0.0 as 0.0
                "eigenvalue": float(values[best] + 0.0),
                "level_index": best,
                "ray_displacement": best_delta,
                "multiplicities": multiplicities,
            },
        )
    reason, note = (
        (REASON_INDETERMINATE, "displacements or cluster gaps fall in the hysteresis band")
        if band_hit
        else (REASON_BELOW_THRESHOLD, "every non-degenerate eigenvector stays on its ray")
    )
    return Verdict.no_conclusion(reason, witness={"note": note, "multiplicities": multiplicities})
