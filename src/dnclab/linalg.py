"""Rank decisions and small shared linear-algebra helpers.

Every rank decision in the laboratory is made here, by :func:`rank`,
:func:`is_nonsingular`, :func:`rank_modulo`, :func:`kernel_with_complement`
(and :func:`nullspace`, which reads its kernel) or :func:`orthonormalize`,
against the one relative singular-value threshold :data:`RANK_RTOL`;
:func:`is_nonsingular` skips the SVD only where a Gram bound proves that
:func:`rank` would say the same, and :func:`rank` itself skips it where one
Cholesky factorisation of the scaled Gram matrix, shifted by
``CERTIFY_RTOL²`` times its trace, proves the rank full: its smallest
singular value then sits about two decades above the threshold, by
Higham's backward error bound for Cholesky (see :func:`rank`).  No
function takes a threshold of its own,
so the threshold is set in exactly one place, and so are the
two truncation levels of every stabilised count, by
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

import numpy as np

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
    how many exceed RANK_RTOL times the largest, so 0 for a zero matrix."""
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a nonempty matrix, or of each matrix of
    a stack of shape ``(..., m, n)``, from one batched values-only SVD."""
    return np.linalg.svd(a, compute_uv=False)


def rank(a: np.ndarray) -> int:
    """Numerical rank: how many singular values exceed RANK_RTOL times the
    largest, from a values-only SVD unless a Cholesky certificate proves
    the rank full first.

    The certificate, for a finite nonzero ``a`` with ``p = min(a.shape)``
    and ``q = max(a.shape)``: scale by ``s = max|aᵢⱼ|``, so ``b = a/s`` has
    entries of size at most 1 and the Gram matrix ``G = b bᵀ`` or ``bᵀb``
    (``p x p``, from the smaller side) can neither overflow nor warn; shift
    its diagonal down by ``δ = c²·tr(G)``, with ``c = CERTIFY_RTOL`` and
    ``tr(G) = ‖b‖_F²``; if ``np.linalg.cholesky`` completes, the rank is
    ``p``.

    Why this is sound.  With the unit roundoff ``u = 2⁻⁵³`` and
    ``γₖ = ku/(1 − ku)``, a Cholesky factorisation that completes in
    floating point gives ``RᵀR = G − δI + ΔG`` with
    ``|ΔG| <= γₚ₊₁|Rᵀ||R|``, so ``‖ΔG‖₂ <= γₚ₊₁‖R‖_F² ≈ γₚ₊₁·tr(G)``
    (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    SIAM 2002, Thm 10.3; J. W. Demmel, *On floating point errors in
    Cholesky*, LAPACK Working Note 14, 1989).  Forming ``G`` adds an error
    of at most ``γ_q·tr(G)`` in norm, and the shift and the scaling a few
    ``u·tr(G)`` more.  ``RᵀR`` is positive semidefinite, so the exact Gram
    matrix of ``b`` has ``σ_min(b)² >= (c² − (p + q + 4)u)·tr(G)``, and
    ``tr(G) = ‖b‖_F² >= σ_max(b)²``.  Hence

        σ_min(a)/σ_max(a) >= c·√(1 − (p + q + 4)u/c²),

    which is at least 0.88c, 1.94 decades above RANK_RTOL, while
    ``p + q <= 2048`` (a square truncation at ``MAX_TRUNCATION`` = 1024),
    and stays above RANK_RTOL while ``p + q`` is below about 9,000.  At the
    default truncations no matrix the laboratory ranks has ``p + q`` above
    about 200.  LAPACK's singular values of ``a`` are accurate to a few
    ``q·u·σ_max(a)``, so the SVD rule would count all ``p`` of them: a
    certified verdict equals the SVD's by proof.  A matrix the certificate
    misses, whether rank-deficient or merely ill-conditioned, takes the SVD
    as before, and so do the zero matrix and a non-finite ``a``, neither of
    which has a finite nonzero scale."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = float(np.abs(a).max())
    if 0.0 < s < np.inf:
        b = a / s
        g = b @ b.T if a.shape[0] <= a.shape[1] else b.T @ b
        g.ravel()[:: g.shape[0] + 1] -= CERTIFY_RTOL**2 * np.vdot(b, b)
        try:
            np.linalg.cholesky(g)
            return min(a.shape)
        except np.linalg.LinAlgError:
            pass
    return _rank_of(np.linalg.svd(a, compute_uv=False))


def is_nonsingular(g: np.ndarray) -> bool:
    """``rank(g) == n`` for a square ``n x n`` matrix ``g``, without an SVD
    when ``g`` is nearly orthonormal: ``‖gᵀg − I‖_F <= 1/2``.

    The eigenvalues of ``gᵀg`` are the ``σᵢ(g)²``, and by Weyl's inequality
    (H. Weyl, *Das asymptotische Verteilungsgesetz der Eigenwerte linearer
    partieller Differentialgleichungen*, Math. Ann. 71, 1912) each lies
    within ``‖gᵀg − I‖_2 <= ‖gᵀg − I‖_F <= 1/2`` of 1.  So
    ``σ_min/σ_max >= 1/√3``, far above RANK_RTOL, and :func:`rank` would
    count all ``n``.  Any other ``g`` takes that rank."""
    n = g.shape[1]
    return bool(np.linalg.norm(g.T @ g - np.eye(n)) <= 0.5) or rank(g) == n


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
