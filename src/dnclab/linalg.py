"""Rank decisions and small shared linear-algebra helpers.

Every rank decision in the laboratory is made here, by :func:`rank`,
:func:`rank_modulo`, :func:`kernel_with_complement` (and :func:`nullspace`,
which reads its kernel) or :func:`orthonormalize`, against the one relative
singular-value threshold :data:`RANK_RTOL`.  Two of them decide without an
SVD where they can: :func:`rank`, where one Cholesky factorisation of the
Gram matrix of the matrix itself, shifted by ``CERTIFY_RTOL²`` times its
trace ``‖a‖_F²``, proves the rank full (its smallest singular value then
sits about two decades above the threshold, by Higham's backward error
bound for Cholesky) whenever that trace lies in a normal range where no
Gram entry overflows and underflow stays below the rounding, and
:func:`rank_modulo`, which ranks through :func:`rank`.  No function takes a
threshold of its own, so the threshold is set in exactly one place, and so
are the two truncation levels of every stabilised count, by
:func:`truncation_levels`.  Every SVD of the laboratory is taken in this
module too, and so is every Cholesky factorisation: a caller that needs
singular values themselves, such as the norms of a stack of blocks, reads
them from :func:`singular_values`.

:func:`nullspace` and :func:`orthonormalize` return orthonormal column
bases, :func:`kernel_with_complement` returns a kernel and its orthogonal
complement from one SVD, and :func:`complement_within` takes such a basis
for the subspace it projects off: each frame is orthonormalised once, where
it is made, and never again downstream.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RANK_RTOL", "CERTIFY_RTOL", "LEVEL_MARGIN", "LEVEL_STEP", "truncation_levels", "singular_values", "rank",
    "rank_modulo", "kernel_with_complement", "nullspace", "orthonormalize", "complement_within",
    "min_norm_lstsq", "loglog_slope", "pad_to", "trim",
]

# Relative singular-value threshold of every rank decision: a singular value
# counts when it exceeds RANK_RTOL times the largest one.
RANK_RTOL = 1e-8

# Singular-value ratio that rank's full-rank certificate proves, up to the
# rounding of its Cholesky test: two decades above RANK_RTOL.
CERTIFY_RTOL = 100 * RANK_RTOL

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
    how many exceed RANK_RTOL times the largest, so 0 for a zero matrix.
    The SVD of an infinite entry returns NaNs, which count as nothing, so a
    non-finite largest value raises the LinAlgError the SVD of a NaN raises."""
    if not math.isfinite(s[0]):
        raise np.linalg.LinAlgError("SVD did not converge")
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a nonempty matrix, or of each matrix of
    a stack of shape ``(..., m, n)``, from one batched values-only SVD."""
    return np.linalg.svd(a, compute_uv=False)


def rank(a: np.ndarray) -> int:
    """Numerical rank: how many singular values exceed RANK_RTOL times the
    largest, from a values-only SVD unless a Cholesky certificate proves
    the rank full first.

    The certificate, for ``a`` with ``p = min(a.shape)`` and
    ``q = max(a.shape)``: take ``t = ‖a‖_F²`` from one ``np.vdot``; when
    ``1e-290 < t < 1e290``, form the Gram matrix ``G = a aᵀ`` or ``aᵀa``
    (``p x p``, from the smaller side) of ``a`` itself, shift its diagonal
    down by ``δ = c²·t``, with ``c = CERTIFY_RTOL``; if
    ``np.linalg.cholesky`` completes, the rank is ``p``.

    The guard.  Every entry of ``G``, and every partial sum forming it, is
    at most ``t`` in size, so below ``1e290`` nothing overflows or warns.
    Above ``1e-290`` gradual underflow in forming ``G`` adds at most
    ``pq·2⁻¹⁰⁷⁴`` in norm, far below ``u·t``.  The zero matrix, a
    non-finite ``a`` (whose ``t`` is infinite or NaN) and a matrix of
    extreme scale fail the guard and take the SVD.

    Why this is sound.  With the unit roundoff ``u = 2⁻⁵³`` and
    ``γₖ = ku/(1 − ku)``, a Cholesky factorisation that completes in
    floating point gives ``RᵀR = G − δI + ΔG`` with
    ``|ΔG| <= γₚ₊₁|Rᵀ||R|``, so ``‖ΔG‖₂ <= γₚ₊₁‖R‖_F² ≈ γₚ₊₁·t``
    (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, Thm 10.3; J. W. Demmel, *On floating point errors in
    Cholesky*, LAPACK Working Note 14, 1989).  Forming ``G`` adds an error
    of at most ``γ_q·t`` in norm, underflow at most ``u·t``, and the shift
    and the rounding of ``t`` a few ``u·t`` more.  ``RᵀR`` is positive
    semidefinite, so the exact Gram matrix of ``a`` has
    ``σ_min(a)² >= (c² − (p + q + 4)u)·t``, and ``t >= σ_max(a)²``.  Hence

        σ_min(a)/σ_max(a) >= c·√(1 − (p + q + 4)u/c²),

    which is at least 0.88c, 1.94 decades above RANK_RTOL, while
    ``p + q <= 2048`` (a square truncation at ``MAX_TRUNCATION`` = 1024),
    and stays above RANK_RTOL while ``p + q`` is below about 9,000.  At the
    default truncations no matrix the laboratory ranks has ``p + q`` above
    about 200.  LAPACK's singular values of ``a`` are accurate to a few
    ``q·u·σ_max(a)``, so the SVD rule would count all ``p`` of them: a
    certified verdict equals the SVD's by proof.  A matrix the certificate
    misses, whether rank-deficient or merely ill-conditioned, takes the SVD
    as before, and so does every matrix outside the guard; a non-finite
    ``a`` then raises ``np.linalg.LinAlgError`` (see :func:`_rank_of`)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    t = float(np.vdot(a, a))
    if 1e-290 < t < 1e290:
        g = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
        g.ravel()[:: g.shape[0] + 1] -= CERTIFY_RTOL**2 * t
        try:
            np.linalg.cholesky(g)
            return min(a.shape)
        except np.linalg.LinAlgError:
            pass
    return _rank_of(np.linalg.svd(a, compute_uv=False))


def rank_modulo(a: np.ndarray, normal: np.ndarray) -> int:
    """Rank of ``a`` modulo a subspace, ``rank([a B]) - dim B``, for the
    orthonormal basis ``B`` of a subspace whose orthogonal complement has
    the orthonormal basis ``normal`` (columns), from one values-only SVD.

    ``[a B]`` and ``[N Nᵀa, B]`` (``N = normal``) span the same space, and
    the singular values of the latter are those of ``Nᵀa`` beside ``dim B``
    ones.  They are counted at the scale of the stack, not of ``Nᵀa``: when
    ``a`` maps into the subspace, ``Nᵀa`` holds only rounding noise of the
    size ``ε‖a‖``, which a threshold relative to itself would count.  So
    :func:`rank` is taken of ``Nᵀa`` with one more singular value set
    beside it, ``c = hypot(1, ‖a‖_F)``, an upper bound of
    ``σ_max([a B]) <= hypot(1, σ_max(a))`` and of ``σ_max(Nᵀa)``, which
    puts the threshold at ``RANK_RTOL·c``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    cut = normal.T @ a
    if cut.size == 0:
        return 0
    scaled = np.zeros((cut.shape[0] + 1, cut.shape[1] + 1))
    scaled[:-1, :-1] = cut
    scaled[-1, -1] = np.hypot(1.0, np.linalg.norm(a))
    return rank(scaled) - 1


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
