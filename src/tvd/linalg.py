"""Dense complex linear algebra helpers.

Everything operates on plain ``numpy`` arrays. Matrices are square
``complex128`` arrays, states are one dimensional ``complex128`` arrays
with unit norm. Inner products are conjugate linear in the first slot:
``<a, b> = sum(conj(a) * b)``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ClassificationError, DimensionMismatchError, PremiseError


def as_square_matrix(a: np.ndarray | list, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ClassificationError(f"{name} has non-finite entries")
    return arr


def as_state_vector(v: np.ndarray | list, dim: int | None = None, name: str = "state") -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} is empty")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"{name} has length {arr.size}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ClassificationError(f"{name} has non-finite entries")
    return arr


def normalize(v: np.ndarray | list) -> np.ndarray:
    """Return ``v / ||v||``; a zero vector is rejected."""
    arr = as_state_vector(v)
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise PremiseError("cannot normalize the zero vector")
    return arr / norm


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def _hermitian_deviation(arr: np.ndarray) -> float:
    """``||A - A^dag||_F`` of a square matrix, memoised by content."""
    return _DEVIATIONS(_content_key("hermitian", arr), lambda: frobenius_norm(arr - dagger(arr)))


def _unitary_deviation(arr: np.ndarray) -> float:
    """``||A^dag A - I||_F`` of a square matrix, memoised by content."""
    return _DEVIATIONS(_content_key("unitary", arr), lambda: frobenius_norm(dagger(arr) @ arr - np.eye(len(arr))))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOLERANCES.tau_zero) -> bool:
    return _hermitian_deviation(as_square_matrix(a)) <= tol


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOLERANCES.tau_zero) -> bool:
    return _unitary_deviation(as_square_matrix(a)) <= tol


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOLERANCES.tau_zero, name: str = "matrix") -> np.ndarray:
    arr = as_square_matrix(a, name)
    dev = _hermitian_deviation(arr)
    if dev > tol:
        raise ClassificationError(f"{name} is not Hermitian (deviation {dev:.3e})")
    return arr


def require_unitary(a: np.ndarray, tol: float = DEFAULT_TOLERANCES.tau_zero, name: str = "matrix") -> np.ndarray:
    arr = as_square_matrix(a, name)
    dev = _unitary_deviation(arr)
    # an overflowing product can leave a NaN deviation, which proves nothing
    if not dev <= tol:
        raise ClassificationError(f"{name} is not unitary (deviation {dev:.3e})")
    return arr


def norm_deviation(v: np.ndarray) -> float:
    """``| ||v|| - 1 |``, the quantity ``require_normalized`` bounds."""
    return abs(float(np.linalg.norm(v)) - 1.0)


def require_normalized(
    v: np.ndarray | list, dim: int | None = None, tol: float = DEFAULT_TOLERANCES.tau_zero, name: str = "state"
) -> np.ndarray:
    arr = as_state_vector(v, dim=dim, name=name)
    dev = norm_deviation(arr)
    if dev > tol:
        raise PremiseError(f"{name} is not normalized (deviation {dev:.3e})")
    return arr


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A @ B - B @ A."""
    am = as_square_matrix(a, "a")
    bm = as_square_matrix(b, "b")
    if am.shape != bm.shape:
        raise DimensionMismatchError(f"shape mismatch {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


# Order 13 diagonal Pade approximant of exp, combined with scaling and
# squaring. Coefficients and the scaling threshold follow the standard
# fixed-order recipe; accuracy is far below 1e-10 relative error for
# ||A||_F up to 100.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def mat_exp(a: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(scale * a)``."""
    m = as_square_matrix(a) * complex(scale)
    dim = m.shape[0]
    eye = np.eye(dim, dtype=complex)
    norm = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm):
        raise ClassificationError("exp(scale * a) overflows: the 1-norm of scale * a is not finite")
    squarings = 0
    if norm > _PADE13_THETA:
        squarings = int(math.ceil(math.log2(norm / _PADE13_THETA)))
        m = m / (2.0**squarings)
    b = _PADE13
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (
        m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
        + b[7] * m6
        + b[5] * m4
        + b[3] * m2
        + b[1] * eye
    )
    v = (
        m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
        + b[6] * m6
        + b[4] * m4
        + b[2] * m2
        + b[0] * eye
    )
    f = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        f = f @ f
    return f


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` is real and ascending. Column ``k`` of
    ``eigenvectors`` is the eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def vector(self, k: int) -> np.ndarray:
        return self.eigenvectors[:, k]


def _phase_fix(v: np.ndarray) -> np.ndarray:
    # Rotate the largest-magnitude component to the positive real axis;
    # ties resolve to the smallest index via argmax.
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    mag = abs(pivot)
    if mag == 0.0:
        return v
    return v * (pivot.conjugate() / mag)


_T = TypeVar("_T")
_MEMOS: list[_Memo] = []


class _Memo:
    """A small table of results keyed by exact input content, oldest evicted first.

    Every caller with an equal key gets the same object, so values must be
    immutable: read-only arrays, frozen dataclasses, floats. Each access is
    one dict operation or one copy of the keys, so threads sharing a table
    at worst compute one value twice. Tables live in process memory only.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.table: dict[tuple, object] = {}
        _MEMOS.append(self)

    def __call__(self, key: tuple, compute: Callable[[], _T]) -> _T:
        value = self.table.get(key)
        if value is None:
            value = compute()
            self.table[key] = value
            # list() copies the keys, oldest first, without running bytecode,
            # so no other thread can change the table during the copy
            for old in list(self.table)[: -self.size]:
                self.table.pop(old, None)
        return value

    def clear(self) -> None:
        self.table.clear()


def _frozen_bytes(a: np.ndarray) -> bytes | None:
    """The immutable ``bytes`` object that ``a`` views whole in C order, or None."""
    base = a.base
    if type(base) is bytes and a.flags.c_contiguous and a.nbytes == len(base):
        return base
    return None


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only view over an immutable ``bytes`` copy of its content.

    No view of such an array can be made writable, so memo keys reuse its
    buffer instead of copying it. An array that already is one comes back
    as it is.
    """
    if _frozen_bytes(a) is not None:
        return a
    return np.ndarray(a.shape, a.dtype, buffer=a.tobytes())


def _content_key(*parts: object) -> tuple:
    """A memo key holding each array's shape, dtype and C-order bytes; other parts as given.

    The bytes of a ``frozen`` array are its own buffer: hashed once, then
    matched by identity. Any other array is copied, so that a later in-place
    change to it misses.
    """
    return tuple(
        (p.shape, p.dtype.str, _frozen_bytes(p) or p.tobytes()) if isinstance(p, np.ndarray) else p for p in parts
    )


# Each caller compares a memoised deviation with its own tolerance.
_DEVIATIONS = _Memo(8)
_SPECTRA = _Memo(4)


def herm_eig(a: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> EigenDecomposition:
    """Eigendecomposition with a deterministic choice of eigenvectors.

    The vectors are ``eigh``'s orthonormal columns, each given a canonical
    phase. Repeated calls on equal inputs give identical output.

    Results are memoised by exact content: a matrix with the same shape
    and bytes as a recent one gets that call's read-only result object
    back. The Hermitian check runs on every call, before the lookup.
    """
    arr = require_hermitian(a, tol=tol.tau_zero)
    return _SPECTRA(_content_key(arr), lambda: _decompose(arr))


def _decompose(arr: np.ndarray) -> EigenDecomposition:
    eigenvalues, vectors = np.linalg.eigh((arr + dagger(arr)) / 2.0)
    # entries near the float limit overflow the Hermitian part, and eigh
    # then returns NaN, which no detector may read as a spectrum
    if not np.all(np.isfinite(eigenvalues)):
        raise ClassificationError("the spectrum is not finite: the Hermitian part overflows")
    for k in range(eigenvalues.size):
        vectors[:, k] = _phase_fix(vectors[:, k])
    vectors.setflags(write=False)
    eigenvalues.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-style unitary from a seeded complex Gaussian matrix.

    QR with the R diagonal rotated positive gives the canonical factor,
    so the result depends only on ``(dim, seed)``.
    """
    if dim < 1:
        raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded Hermitian matrix ``(G + G^dag) / 2`` with Gaussian G."""
    if dim < 1:
        raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2.0
