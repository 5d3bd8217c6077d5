"""Rank decisions and small shared linear-algebra helpers.

Every rank decision in the laboratory is made here, by :func:`rank`,
:func:`kernel_with_complement` (and :func:`nullspace`, which reads its
kernel) or :func:`orthonormalize`, against the one relative singular-value
threshold :data:`RANK_RTOL`.  No function takes a threshold of its own, so
the threshold is set in exactly one place, and so are the two truncation
levels of every stabilised count, by :func:`truncation_levels`.

:func:`nullspace` and :func:`orthonormalize` return orthonormal column
bases, :func:`kernel_with_complement` returns a kernel and its orthogonal
complement from one SVD, and :func:`complement_within` takes such a basis
for the subspace it projects off: each frame is orthonormalised once, where
it is made, and never again downstream.
"""

from __future__ import annotations

import numpy as np

# Relative singular-value threshold of every rank decision: a singular value
# counts when it exceeds RANK_RTOL times the largest one.
RANK_RTOL = 1e-8

# Two-level rule: a count on sequence space is believed only when it agrees
# at two truncation levels, LEVEL_MARGIN coordinates beyond the support bound
# of the objects decided on and LEVEL_STEP more.
LEVEL_MARGIN = 8
LEVEL_STEP = 5


def truncation_levels(bound: int, floor: int = 0) -> tuple[int, int]:
    """The two levels for objects supported below ``bound``, the first raised to ``floor``."""
    lo = max(floor, bound + LEVEL_MARGIN)
    return lo, lo + LEVEL_STEP


def _rank_of(s: np.ndarray) -> int:
    """Rank of a nonempty matrix from its descending singular values ``s``:
    how many exceed RANK_RTOL times the largest, so 0 for a zero matrix."""
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def rank(a: np.ndarray) -> int:
    """Numerical rank via SVD with a relative threshold."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    return _rank_of(np.linalg.svd(a, compute_uv=False))


def kernel_with_complement(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the kernel of ``a`` and of its
    orthogonal complement, the row space of ``a``, from one SVD: the right
    singular vectors below and above the rank.  Together they are one
    orthogonal matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.eye(a.shape[1]), np.zeros((a.shape[1], 0))
    _, s, vh = np.linalg.svd(a)
    r = _rank_of(s)
    return vh[r:].T, vh[:r].T


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``a``."""
    return kernel_with_complement(a)[0]


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``vectors``."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.size == 0:
        return v.reshape(v.shape[0], 0)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return u[:, : _rank_of(s)]


def complement_within(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(inner) inside
    span(outer).

    ``inner`` must be an orthonormal column basis, such as an output of
    :func:`nullspace` or :func:`orthonormalize`: only then is
    ``inner @ inner.T`` the orthogonal projector onto span(inner), and a
    caller holding a raw span orthonormalises it once first.  ``outer`` may
    be any columns spanning the outer space in the same ambient space.
    Projecting ``outer`` off ``inner`` leaves columns spanning the
    complement, and one SVD orthonormalises them."""
    if inner.size == 0:
        return orthonormalize(outer)
    return orthonormalize(outer - inner @ (inner.T @ outer))


def min_norm_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b``."""
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x); y entries clipped away
    from zero so exact-zero residual sequences fit harmlessly."""
    x = np.asarray(x, dtype=float)
    y = np.maximum(np.asarray(y, dtype=float), 1e-300)
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def pad_to(v: np.ndarray, n: int) -> np.ndarray:
    """Zero-pad a 1-d vector to length ``n`` (or truncate exact zeros)."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size >= n:
        if np.any(v[n:] != 0.0):
            raise ValueError("cannot truncate nonzero coordinates")
        return v[:n].copy()
    out = np.zeros(n)
    out[: v.size] = v
    return out


def trim(v: np.ndarray) -> np.ndarray:
    """Drop the trailing zero coordinates of a 1-d vector."""
    v = np.asarray(v, dtype=float).ravel()
    nz = np.nonzero(v)[0]
    return v[: nz[-1] + 1].copy() if nz.size else np.zeros(0)
