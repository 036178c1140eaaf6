"""Eigenstate ray displacement and degeneracy structure.

An antiunitary transform commuting with H maps each eigenspace of H to
itself. A non-degenerate eigenvector must therefore stay on its own ray;
if it visibly moves, the transform cannot commute with H. When the
transform squares to minus the identity, commuting with H additionally
forces every eigenvalue to be degenerate with even multiplicity, which
gives an independent structural check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MisuseError, PremiseError
from .linalg import (
    EigenDecomposition,
    _content_key,
    _Memo,
    frobenius_norm,
    herm_eig,
    norm_deviation,
    require_hermitian,
    require_normalized,
)
from .symmetry import InvarianceMargin, SymmetryTransform, apply, invariance_margin
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
    if gap_tol <= 0.0:
        raise PremiseError(f"gap_tol must be positive, got {gap_tol}")
    spectral_range = float(values[-1] - values[0])
    limit = gap_tol * max(1.0, spectral_range)
    # a cluster ends wherever a gap is not within the limit (a NaN gap included)
    bounds = [0, *(np.flatnonzero(~(np.diff(values) <= limit)) + 1).tolist(), values.size]
    # np.mean of one value is 0.0 + value: the same bits, except -0.0 becomes 0.0
    singles = (values + 0.0).tolist()
    clusters = tuple(
        Cluster(
            value=singles[start] if stop - start == 1 else float(np.mean(values[start:stop])),
            multiplicity=stop - start,
            indices=tuple(range(start, stop)),
        )
        for start, stop in zip(bounds, bounds[1:])
    )
    return SpectrumClusters(clusters=clusters, spectral_range=spectral_range, gap_tol=float(gap_tol))


@dataclass(frozen=True)
class TSquareClass:
    """Classification of ``T^2 = U conj(U)`` against plus or minus identity."""

    classification: str
    deviation: float


def kramers_square(t: SymmetryTransform, tol: Tolerances = DEFAULT_TOLERANCES) -> TSquareClass:
    if not t.antilinear:
        raise MisuseError("the square classification applies to antilinear transforms")
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
    if not t.antilinear:
        raise MisuseError("ray displacement applies to antilinear transforms")
    return _displacement(t, require_normalized(psi, dim=t.dim, tol=tol.tau_zero))


def _displacement(t: SymmetryTransform, vec: np.ndarray) -> float:
    return max(0.0, 1.0 - abs(complex(np.vdot(apply(t, vec), vec))))


_RAYS = _Memo(4)


def _eigenrays(arr: np.ndarray, t: SymmetryTransform, decomp: EigenDecomposition) -> tuple[tuple[float, float], ...]:
    """``(norm deviation, ray displacement)`` under t of every column of ``decomp = herm_eig(arr)``.

    Memoised by the content of ``arr``, t's unitary part and its antilinear
    flag, so all requests against one (H, T) pair share one table.
    """

    def compute() -> tuple[tuple[float, float], ...]:
        vectors = (decomp.vector(k) for k in range(decomp.eigenvalues.size))
        return tuple((norm_deviation(vec), _displacement(t, vec)) for vec in vectors)

    return _RAYS(_content_key(arr, t.unitary_part, t.antilinear), compute)


def _isolated(clusters: SpectrumClusters, k: int, eigenvalues: np.ndarray, confident_limit: float) -> bool:
    # A multiplicity-1 cluster only supports a Violation when its gaps to
    # both neighbours clear the widened (hysteresis) gap threshold.
    cluster = clusters.clusters[k]
    lo = cluster.indices[0]
    hi = cluster.indices[-1]
    if k > 0:
        below = eigenvalues[lo] - eigenvalues[clusters.clusters[k - 1].indices[-1]]
        if below <= confident_limit:
            return False
    if k < len(clusters.clusters) - 1:
        above = eigenvalues[clusters.clusters[k + 1].indices[0]] - eigenvalues[hi]
        if above <= confident_limit:
            return False
    return True


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
    if not t.antilinear:
        raise MisuseError("this check requires an antilinear transform")
    arr = require_hermitian(h, tol=tol.tau_zero, name="hamiltonian")
    if frobenius_norm(arr) <= tol.tau_zero:
        raise PremiseError("zero Hamiltonian has no spectral structure to test")
    if arr.shape[0] != t.dim:
        raise MisuseError(f"dimension mismatch {arr.shape[0]} vs {t.dim}")
    effective_gap = tol.gap_tol if gap_tol is None else float(gap_tol)

    decomp = herm_eig(arr, tol=tol)
    clusters = spectrum_clusters(decomp.eigenvalues, effective_gap)
    confident_limit = (
        effective_gap * (tol.tau_violation / tol.tau_zero) * max(1.0, clusters.spectral_range)
    )

    simple = [k for k, c in enumerate(clusters.clusters) if c.multiplicity == 1]
    if not simple:
        return Verdict.no_conclusion(
            REASON_PREMISE_UNMET,
            witness={
                "note": "every eigenvalue cluster is degenerate",
                "multiplicities": list(clusters.multiplicities),
            },
        )

    rays = _eigenrays(arr, t, decomp)
    best_k = -1
    best_delta = -1.0
    band_hit = False
    for k in simple:
        index = clusters.clusters[k].indices[0]
        norm_dev, delta = rays[index]
        if norm_dev > tol.tau_zero:
            # the first simple level off the unit sphere fails as a cold check would
            require_normalized(decomp.vector(index), dim=t.dim, tol=tol.tau_zero)
        confident = _isolated(clusters, k, decomp.eigenvalues, confident_limit)
        if delta > tol.tau_violation and confident and delta > best_delta:
            best_k = k
            best_delta = delta
        elif delta > tol.tau_zero:
            band_hit = True

    if best_k >= 0:
        cluster = clusters.clusters[best_k]
        index = cluster.indices[0]
        return Verdict.violation(
            t.label or "T",
            margin=best_delta,
            witness={
                "eigenvalue": cluster.value,
                "level_index": index,
                "ray_displacement": best_delta,
                "multiplicities": list(clusters.multiplicities),
            },
        )
    if band_hit:
        return Verdict.no_conclusion(
            REASON_INDETERMINATE,
            witness={
                "note": "displacements or cluster gaps fall in the hysteresis band",
                "multiplicities": list(clusters.multiplicities),
            },
        )
    return Verdict.no_conclusion(
        REASON_BELOW_THRESHOLD,
        witness={
            "note": "every non-degenerate eigenvector stays on its ray",
            "multiplicities": list(clusters.multiplicities),
        },
    )


@dataclass(frozen=True)
class KramersReport:
    """Outcome of the even-multiplicity consistency check."""

    applicable: bool
    passed: bool | None
    reason: str
    t_square: TSquareClass
    invariance: InvarianceMargin
    clusters: SpectrumClusters | None
    parities: tuple[str, ...]
    failing_cluster: Cluster | None


def kramers_degeneracy_verify(
    h: np.ndarray,
    t: SymmetryTransform,
    gap_tol: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KramersReport:
    """Check forced even degeneracy for ``T^2 = -1`` and ``[T, H] = 0``.

    Not applicable unless both premises hold; when applicable, every
    eigenvalue cluster must have even multiplicity and the first
    offending cluster is reported otherwise.
    """
    arr = require_hermitian(h, tol=tol.tau_zero, name="hamiltonian")
    square = kramers_square(t, tol=tol)
    margin = invariance_margin(t, arr)
    effective_gap = tol.gap_tol if gap_tol is None else float(gap_tol)

    if square.classification != MINUS_IDENTITY:
        return KramersReport(
            applicable=False,
            passed=None,
            reason=f"transform squares to {square.classification}, not minus identity",
            t_square=square,
            invariance=margin,
            clusters=None,
            parities=(),
            failing_cluster=None,
        )
    if margin.value > tol.tau_zero:
        return KramersReport(
            applicable=False,
            passed=None,
            reason=f"transform does not commute with the Hamiltonian (margin {margin.value:.3e})",
            t_square=square,
            invariance=margin,
            clusters=None,
            parities=(),
            failing_cluster=None,
        )

    decomp = herm_eig(arr, tol=tol)
    clusters = spectrum_clusters(decomp.eigenvalues, effective_gap)
    parities = tuple("even" if c.multiplicity % 2 == 0 else "odd" for c in clusters.clusters)
    failing = next((c for c in clusters.clusters if c.multiplicity % 2 != 0), None)
    return KramersReport(
        applicable=True,
        passed=failing is None,
        reason="" if failing is None else f"cluster at {failing.value:.6g} has odd multiplicity {failing.multiplicity}",
        t_square=square,
        invariance=margin,
        clusters=clusters,
        parities=parities,
        failing_cluster=failing,
    )
