"""Structured operators on one-sided sequence space.

The model class is "scaled coordinate shift outside a finite window, plus
an explicit matrix on the window": T e_i = c * e_(i+s) for i >= window,
and T e_i = block[:, i] for i < window.  Compact perturbations are modeled
exactly as finite-rank, which makes structure-group membership a decidable
predicate.

:meth:`SequenceOperator.to_dense` is the one layout of an operator as a
matrix (the window block, then the scaled tail): canonicalisation,
composition, sums, comparison and every rank decision work on
its truncations, and the lower triangular block [[F, 0], [P, F2]] is
assembled from them in one place (``BlockOperator._dense``).  The straight-line
retraction grid reuses that one layout: ``retraction_stack`` lays ``b`` out
once and scales its P block per grid point into one stacked array, ready for
a batched SVD, and ``retraction_ratio_bound`` bounds the whole path from the
four square blocks of that layout.  Two-level rule: a
kernel/cokernel count or a transversality rank verdict is believed only when
the two truncation levels of ``linalg.truncation_levels`` give the same
answer; otherwise StabilizationFailure is raised rather than the disagreement
being resolved silently.

``is_transversal`` is the one transversality decision: the surjectivity rank
test im(T) + V = codomain, stabilised over two truncation levels.
``preimage_with_complement`` makes that decision and then builds its
certificate, T^-1(V) with a verified complement: one SVD of (I - P_V) T
gives the preimage as its kernel and the complement as its row space.

Coordinates are 0-based internally; e_i is the i-th standard basis vector.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    ComplementFailure,
    DomainError,
    NotGLK,
    NotRepresentable,
    NotTransversal,
    StabilizationFailure,
)
from .subspaces import ComplementedSubspace, SubspaceBasis, _interleave_basis, _side_by_side

__all__ = [
    "SequenceOperator",
    "BlockOperator",
    "identity",
    "shift_op",
    "rank_one",
    "finite_rank",
    "block_lower_triangular",
    "fredholm_index",
    "is_glk",
    "is_glk_tilde",
    "glk_inverse",
    "retraction_path",
    "retraction_paths",
    "retraction_stack",
    "retraction_ratio_bound",
    "is_transversal",
    "block_is_transversal",
    "transversality_witness",
    "block_transversality_witness",
    "preimage_with_complement",
    "block_preimage_with_complement",
]


class SequenceOperator:
    """Shift-plus-finite-window operator on one-sided sequence space.

    Parameters
    ----------
    shift:
        Tail shift s; for i >= window, T e_i = tail_scale * e_(i+s).
    window:
        Number of leading coordinates whose action is given by ``block``.
    block:
        Matrix of shape (rows, window); column i is T e_i.
    tail_scale:
        Scalar applied to the tail action.  0 means the tail annihilates
        (a finite-rank operator; such operators are not Fredholm and index
        computations on them fail stabilization by construction).
    """

    __slots__ = ("shift", "window", "block", "tail_scale")

    def __init__(self, shift: int, window: int, block, tail_scale: float = 1.0):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.size == 0:
            block = block.reshape(0, window)
        if block.shape[1] != window:
            raise ValueError(f"block has {block.shape[1]} columns, window is {window}")
        if tail_scale == 0.0:
            shift = 0
        elif window < max(0, -shift):
            raise ValueError("window must cover negative shifts (window >= -shift)")
        self.shift = int(shift)
        self.window = int(window)
        self.block = block
        self.tail_scale = float(tail_scale)
        self._canonicalize()

    # -- construction and canonical form ---------------------------------

    def _canonicalize(self) -> None:
        """Shrink the window to the minimal one: every column at or beyond it
        is the pure (scaled) tail action, and the block's row support stays
        within window + |shift|."""
        s, w, height = self.shift, self.window, self.block.shape[0]
        live = self.tail_scale != 0.0
        w_tail = max(0, -s) if live else 0
        # one truncation tall enough to hold every column's tail entry (so a
        # column that kills e_i is not mistaken for a tail beyond the block)
        # and big enough to hold the canonical block
        if live:
            a = self.to_dense(max(height, w + abs(s)), max(w, height - abs(s)))
        else:
            a = self.to_dense(height, w)
        nonzero = a != 0.0
        counts = nonzero[:, w_tail:].sum(axis=0)
        if live:  # a tail column holds tail_scale at a[i + s, i] and nothing else
            is_tail = (counts == 1) & (np.diagonal(a, -s) == self.tail_scale)
        else:
            is_tail = counts == 0
        explicit = np.flatnonzero(~is_tail)
        n = w_tail + (int(explicit[-1]) + 1 if explicit.size else 0)
        used = np.nonzero(nonzero[:, :n])[0]  # row-major: the last is the lowest row
        support = int(used[-1]) + 1 if used.size else 0
        rows = support
        if live:
            n = max(n, support - abs(s))
            rows = max(support, n + abs(s))
        self.block = a[:rows, :n].copy()
        self.window = n

    # -- actions ----------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Exact action on a finite-support vector."""
        x = np.asarray(x, dtype=float).ravel()
        w, s, c = self.window, self.shift, self.tail_scale
        out_len = max(self.block.shape[0], (x.size + max(s, 0)) if c != 0.0 else 0, 1)
        y = np.zeros(out_len)
        if w and x.size:
            head = np.zeros(w)
            head[: min(w, x.size)] = x[: min(w, x.size)]
            y[: self.block.shape[0]] += self.block @ head
        if c != 0.0 and x.size > w:
            tail = x[w:]
            y[w + s : w + s + tail.size] += c * tail
        return linalg.trim(y)

    def compose(self, other: "SequenceOperator") -> "SequenceOperator":
        """self after other (matrix product self @ other): one product of two
        truncations deep enough to hold the image of every column below the
        composite's window."""
        scale = self.tail_scale * other.tail_scale
        shift = self.shift + other.shift if scale != 0.0 else 0
        if other.tail_scale == 0.0:
            w = other.window
        elif self.tail_scale == 0.0:
            w = max(other.window, self.window - other.shift, 0)
        else:
            w = max(other.window, self.window - other.shift, 0, -shift)
        mid = other.output_rows(w)
        a = self.to_dense(self.output_rows(mid), mid) @ other.to_dense(mid, w)
        return SequenceOperator(shift, w, a, scale)

    def __add__(self, other: "SequenceOperator") -> "SequenceOperator":
        if self.tail_scale != 0.0 and other.tail_scale != 0.0 and self.shift != other.shift:
            raise NotRepresentable("sum of two different tail shifts leaves the model class")
        if self.tail_scale != 0.0 and other.tail_scale != 0.0:
            shift, scale = self.shift, self.tail_scale + other.tail_scale
        elif self.tail_scale != 0.0:
            shift, scale = self.shift, self.tail_scale
        else:
            shift, scale = other.shift, other.tail_scale
        w = max(self.window, other.window, -shift if scale != 0.0 else 0, 0)
        rows = max(self.output_rows(w), other.output_rows(w))
        return SequenceOperator(shift, w, self.to_dense(rows, w) + other.to_dense(rows, w), scale)

    def scale(self, c: float) -> "SequenceOperator":
        return SequenceOperator(self.shift, self.window, c * self.block, c * self.tail_scale)

    def to_dense(self, rows: int, cols: int) -> np.ndarray:
        """Truncation oracle: the rows x cols matrix of T between coordinate
        truncations (output coordinates beyond ``rows`` are projected away).
        This is the one place the window block and the scaled tail are laid
        out as a matrix."""
        a = np.zeros((rows, cols))
        head = self.block[:rows, :cols]
        a[: head.shape[0], : head.shape[1]] = head
        w, s = self.window, self.shift
        stop = min(cols, rows - s)
        if self.tail_scale != 0.0 and stop > w:
            # entries (i + s, i) for w <= i < stop, every (cols + 1)-th of the
            # flattened matrix; i >= w >= -s keeps i + s >= 0
            a.reshape(-1)[(w + s) * cols + w : (stop + s) * cols + stop : cols + 1] = self.tail_scale
        return a

    def output_rows(self, cols: int) -> int:
        """Smallest codomain truncation capturing the full image of the
        domain truncated at ``cols`` coordinates."""
        r = self.block.shape[0]
        if self.tail_scale != 0.0 and cols > self.window:
            r = max(r, cols + self.shift)
        return max(r, 0)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceOperator):
            return NotImplemented
        return (
            self.shift == other.shift
            and self.window == other.window
            and self.tail_scale == other.tail_scale
            and self.block.shape == other.block.shape
            and np.array_equal(self.block, other.block)
        )

    def approx_equal(self, other: "SequenceOperator", tol: float = 1e-10) -> bool:
        if self.tail_scale != other.tail_scale or (
            self.tail_scale != 0.0 and self.shift != other.shift
        ):
            return False
        w = max(self.window, other.window)
        rows = max(self.output_rows(w), other.output_rows(w))
        return bool(np.max(np.abs(self.to_dense(rows, w) - other.to_dense(rows, w)), initial=0.0) <= tol)

    def __repr__(self) -> str:
        return (
            f"SequenceOperator(shift={self.shift}, window={self.window}, "
            f"tail_scale={self.tail_scale})"
        )


# -- statutory constructors ------------------------------------------------


def identity() -> SequenceOperator:
    return SequenceOperator(0, 0, np.zeros((0, 0)))


def shift_op(s: int) -> SequenceOperator:
    """Pure coordinate shift e_i -> e_(i+s) (coordinates below 0 are killed)."""
    w = max(0, -s)
    return SequenceOperator(s, w, np.zeros((max(w + abs(s), 1), w)) if w else np.zeros((0, 0)))


def rank_one(i: int, j: int, c: float = 1.0) -> SequenceOperator:
    """The finite-rank operator c * e_i <x, e_j> (output index i, input j)."""
    block = np.zeros((i + 1, j + 1))
    block[i, j] = c
    return SequenceOperator(0, j + 1, block, tail_scale=0.0)


def finite_rank(matrix) -> SequenceOperator:
    """Finite-rank operator given by a dense matrix on leading coordinates."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    return SequenceOperator(0, m.shape[1], m, tail_scale=0.0)


# -- Fredholm index ----------------------------------------------------------


def _bound(op: SequenceOperator, *seen: ComplementedSubspace) -> int:
    """Largest support bound of ``op`` (window + 2|shift|) and of each
    subspace in ``seen`` seen through ``op`` (its support + |shift|)."""
    s = abs(op.shift)
    return max([op.window + 2 * s] + [h.support_bound() + s for v in seen for h in (v.space, v.complement)])


def _stable(bound: int, floor: int, decide, what: str):
    """The value of ``decide`` at the two truncation levels
    ``linalg.truncation_levels(bound, floor)``, believed only when the two
    agree; a disagreement raises StabilizationFailure."""
    lo, hi = linalg.truncation_levels(bound, floor)
    first, second = decide(lo), decide(hi)
    if first != second:
        raise StabilizationFailure(f"{what} {first} at level {lo} vs {second} at level {hi}")
    return first


def _kernel_cokernel(a: np.ndarray) -> tuple[int, int]:
    r = linalg.rank(a)
    return a.shape[1] - r, a.shape[0] - r


def fredholm_index(op: SequenceOperator, level: int | None = None) -> int:
    """dim ker - dim coker, by finite linear algebra at two truncation levels.

    Counts must agree across the levels and, for a genuine shift tail, match
    the structural value -shift; any disagreement raises StabilizationFailure
    rather than being silently resolved.
    """
    k, c = _stable(
        _bound(op), level or 0, lambda L: _kernel_cokernel(op.to_dense(op.output_rows(L), L)), "kernel/cokernel counts"
    )
    idx = k - c
    if op.tail_scale != 0.0 and idx != -op.shift:
        raise StabilizationFailure(
            f"linear-algebra index {idx} contradicts structural index {-op.shift}"
        )
    return idx


# -- structure group --------------------------------------------------------


def is_glk(op: SequenceOperator) -> bool:
    """Invertible identity-plus-finite-rank test: unit tail with zero shift,
    and an invertible window block."""
    if op.tail_scale != 1.0 or op.shift != 0:
        return False
    w = op.window
    return w == 0 or linalg.rank(op.to_dense(w, w)) == w


def glk_inverse(op: SequenceOperator) -> SequenceOperator:
    """Inverse of a structure-group element (exact finite solve)."""
    if not is_glk(op):
        raise NotGLK("operator is not an invertible identity-plus-finite-rank")
    return SequenceOperator(0, op.window, np.linalg.inv(op.to_dense(op.window, op.window)))


class BlockOperator:
    """Lower block triangular operator on the external direct sum of two
    sequence spaces: (x1, x2) -> (F x1, P x1 + F2 x2)."""

    __slots__ = ("F", "P", "F2")

    def __init__(self, F: SequenceOperator, P: SequenceOperator, F2: SequenceOperator):
        self.F = F
        self.P = P
        self.F2 = F2

    def apply(self, x1, x2) -> tuple[np.ndarray, np.ndarray]:
        y1 = self.F.apply(x1)
        a, b = self.P.apply(x1), self.F2.apply(x2)
        n = max(a.size, b.size)
        return y1, linalg.pad_to(a, n) + linalg.pad_to(b, n)

    def compose(self, other: "BlockOperator") -> "BlockOperator":
        return BlockOperator(
            self.F.compose(other.F),
            self.P.compose(other.F) + self.F2.compose(other.P),
            self.F2.compose(other.F2),
        )

    def stacked_dense(self, level: int) -> tuple[np.ndarray, int, int]:
        """Dense matrix [[F, 0], [P, F2]] on compatible truncations: factor
        domains are deep enough that every codomain row reachable from the
        truncated domain is also reachable by the included tail columns (no
        partially captured columns).  Returns (matrix, rows1, rows2)."""
        cols1 = level
        rows1 = self.F.output_rows(cols1)
        reach_p = self.P.output_rows(cols1)
        cols2 = level
        if self.F2.tail_scale != 0.0:
            cols2 = max(level, reach_p - self.F2.shift)
        rows2 = max(reach_p, self.F2.output_rows(cols2))
        return self._dense(rows1, cols1, rows2, cols2), rows1, rows2

    def _dense(self, rows1: int, cols1: int, rows2: int, cols2: int) -> np.ndarray:
        """[[F, 0], [P, F2]] from the domain truncations (cols1, cols2) to the
        codomain truncations (rows1, rows2): the one block layout."""
        a = np.zeros((rows1 + rows2, cols1 + cols2))
        a[:rows1, :cols1] = self.F.to_dense(rows1, cols1)
        a[rows1:, :cols1] = self.P.to_dense(rows2, cols1)
        a[rows1:, cols1:] = self.F2.to_dense(rows2, cols2)
        return a

    def fredholm_index(self, level: int | None = None) -> int:
        """Index of the stacked operator via kernel/cokernel counts at two
        truncation levels (no structural shortcut: this is the oracle side)."""
        k, c = _stable(
            max(_bound(op) for op in (self.F, self.P, self.F2)), level or 0,
            lambda L: _kernel_cokernel(self.stacked_dense(L)[0]), "block kernel/cokernel counts",
        )
        return k - c

    def __repr__(self) -> str:
        return f"BlockOperator(F={self.F!r}, P={self.P!r}, F2={self.F2!r})"


def block_lower_triangular(F: SequenceOperator, P: SequenceOperator, F2: SequenceOperator) -> BlockOperator:
    return BlockOperator(F, P, F2)


def is_glk_tilde(b: BlockOperator) -> bool:
    """Structure-group test for the lower triangular group: both diagonal
    blocks in the structure group, with invertibility asserted through an
    explicit witness inverse (back-substitution) rather than assumed, whose
    product with ``b`` must be the identity to 1e-9."""
    if not (is_glk(b.F) and is_glk(b.F2)):
        return False
    inv = block_inverse(b)
    prod = b.compose(inv)
    return (
        prod.F.approx_equal(identity(), 1e-9)
        and prod.F2.approx_equal(identity(), 1e-9)
        and prod.P.approx_equal(identity().scale(0.0), 1e-9)
    )


def block_inverse(b: BlockOperator) -> BlockOperator:
    """Witness inverse [[F^-1, 0], [-F2^-1 P F^-1, F2^-1]]."""
    f_inv = glk_inverse(b.F)
    f2_inv = glk_inverse(b.F2)
    return BlockOperator(f_inv, (f2_inv.compose(b.P).compose(f_inv)).scale(-1.0), f2_inv)


def _retraction_parameters(b: BlockOperator, ts) -> np.ndarray:
    """``ts`` as a flat array, after the checks every retraction makes:
    each t in [0, 1] (DomainError) and both diagonals of ``b`` in the
    structure group, decided once (NotGLK)."""
    ts = np.asarray(ts, dtype=float).ravel()
    inside = (ts >= 0.0) & (ts <= 1.0)
    if not inside.all():
        raise DomainError(f"retraction parameters {ts[~inside]} outside [0, 1]")
    if not (is_glk(b.F) and is_glk(b.F2)):
        raise NotGLK("retraction defined on the lower triangular structure group")
    return ts


def retraction_path(b: BlockOperator, t: float) -> BlockOperator:
    """Straight-line retraction onto the block diagonal: P scaled by (1 - t)."""
    return retraction_paths(b, [t])[0]


def retraction_paths(b: BlockOperator, ts) -> list[BlockOperator]:
    """``retraction_path(b, t)`` for every t in ``ts``, with the diagonals
    of ``b`` decided once for all of them."""
    return [BlockOperator(b.F, b.P.scale(1.0 - t), b.F2) for t in _retraction_parameters(b, ts)]


def retraction_stack(b: BlockOperator, ts, level: int) -> tuple[np.ndarray, int, int]:
    """The matrices of ``retraction_path(b, t).stacked_dense(level)`` for
    every t in ``ts``, stacked along a leading axis: one layout of ``b`` on
    its truncations, with the P block scaled by (1 - t) per entry (the IEEE
    products ``P.scale(1 - t)`` makes).  Returns (stack, rows1, rows2).

    Moving t only rescales P, so the truncations stay those of t = 0 as long
    as P's image fits inside ``level`` rows (as it does whenever the
    truncation is square, rows1 + rows2 == 2 * level); then every
    ``stack[k]`` equals ``retraction_path(b, ts[k]).stacked_dense(level)[0]``.
    """
    ts = _retraction_parameters(b, ts)
    a, rows1, rows2 = b.stacked_dense(level)
    stack = np.repeat(a[None], ts.size, axis=0)
    stack[:, rows1:, :level] = (1.0 - ts)[:, None, None] * a[rows1:, :level]
    stack[ts == 1.0, rows1:, :level] = 0.0  # P.scale(0) is the zero operator: no -0.0 entries
    return stack, rows1, rows2


def retraction_ratio_bound(bs, level: int) -> np.ndarray:
    """For each b, a lower bound on sigma_min / sigma_max of
    ``retraction_path(b, t).stacked_dense(level)[0]`` over the whole of
    t in [0, 1], not only on a grid.

    On a square truncation B(t) = [[F, 0], [(1 - t) P, F2]] with inverse
    [[F^-1, 0], [-(1 - t) F2^-1 P F^-1, F2^-1]], so
    ||B(t)|| <= max(||F||, ||F2||) + ||P|| and
    ||B(t)^-1|| <= max(||F^-1||, ||F2^-1||) + ||F2^-1 P F^-1||,
    and the bound is the reciprocal of their product.  A non-square
    truncation gets 0.  One batched SVD takes the norms of every b's four
    level x level blocks.  The diagonal truncations must be invertible, as
    they are on the structure group; NotGLK otherwise."""
    blocks = np.zeros((len(bs), 4, level, level))  # F, F2, P, then F2^-1 P F^-1
    square = np.zeros(len(bs), dtype=bool)
    for k, b in enumerate(bs):
        a, rows1, rows2 = b.stacked_dense(level)
        square[k] = rows1 == rows2 == level and a.shape[1] == 2 * level
        if square[k]:
            blocks[k, :3] = a[:level, :level], a[level:, level:], a[level:, :level]
        else:
            blocks[k, :2] = np.eye(level)  # a stand-in whose bound is discarded
    try:
        inv = np.linalg.inv(blocks[:, :2])
    except np.linalg.LinAlgError as exc:
        raise NotGLK("retraction bound needs invertible diagonal truncations") from exc
    blocks[:, 3] = inv[:, 1] @ blocks[:, 2] @ inv[:, 0]
    s = linalg.singular_values(blocks)
    norm_b = np.maximum(s[:, 0, 0], s[:, 1, 0]) + s[:, 2, 0]
    norm_inv = 1.0 / np.minimum(s[:, 0, -1], s[:, 1, -1]) + s[:, 3, 0]
    return np.where(square, 1.0 / (norm_b * norm_inv), 0.0)


# -- transversality to complemented subspaces --------------------------------


def _surjectivity_rank_ok(op: SequenceOperator, v: ComplementedSubspace, rows: int) -> bool:
    cols = rows + abs(op.shift) + op.window  # enough domain coordinates to hit every row
    a = op.to_dense(rows, cols)
    vb = v.space.basis_matrix(rows)
    return linalg.rank(np.hstack([a, vb])) == rows


def _preimage_head(op: SequenceOperator, v: ComplementedSubspace) -> tuple[int, bool]:
    """(head length, tail-free?) for the preimage computation: beyond the
    head, domain coordinates map into V (preimage cofinite) or the preimage
    forces them to vanish (preimage finite)."""
    s, w = op.shift, op.window
    v_tail = v.space.tail_start
    if op.tail_scale == 0.0:
        return max(w, 1), True  # annihilating tail maps into every subspace
    if v_tail is not None:
        return max(w, v_tail - s, 0), True
    # a tail column is forced to vanish once its image row is below V and every block row
    used = np.flatnonzero(op.block.any(axis=1))
    reach = int(used[-1]) + 1 if used.size else 0
    return max(w, v.space.support_bound() + abs(s), reach - s, 0) + 1, False


def _off_subspace(a: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """(I - P_V) A for V = span(vb), whose kernel is the preimage: x in the
    head span with A x in V  <=>  (I - P_V) A x = 0."""
    q = linalg.orthonormalize(vb)
    return (np.eye(a.shape[0]) - q @ q.T) @ a


def is_transversal(op: SequenceOperator, v: ComplementedSubspace) -> bool:
    """im(T) + V = codomain, by the rank test stabilized over two truncation
    levels."""
    return _stable(_bound(op, v), 0, lambda L: _surjectivity_rank_ok(op, v, L), "transversality rank test")


def preimage_with_complement(
    op: SequenceOperator, v: ComplementedSubspace
) -> ComplementedSubspace:
    """T^-1(V) together with a verified complement, the orthogonal
    complement of its head kernel; NotTransversal when T is not transversal
    to V, ComplementFailure when the complement fails to verify."""
    if not is_transversal(op, v):
        raise NotTransversal("operator is not transversal to the subspace")
    head, has_tail = _preimage_head(op, v)
    rows = max(op.output_rows(head), v.space.support_bound(), 1)
    off = _off_subspace(op.to_dense(rows, head), v.space.basis_matrix(rows))
    kernel, w_basis = linalg.kernel_with_complement(off)  # the complement is the row space of ``off``
    result = ComplementedSubspace(
        SubspaceBasis(head if has_tail else None, kernel),
        SubspaceBasis(None if has_tail else head, w_basis),
    )
    if not result.verify():
        raise ComplementFailure("the preimage complement does not verify")
    return result


def transversality_witness(
    op: SequenceOperator, v: ComplementedSubspace, e_prime
) -> tuple[np.ndarray, np.ndarray]:
    """Split e' = T e + v constructively.

    e solves the equation projected off V by minimum-norm least squares; the
    remainder is projected back onto V.  The returned pair is checked against
    the exact operator action; NotTransversal if the defining equation cannot
    be met to 1e-10.
    """
    e_prime = np.asarray(e_prime, dtype=float).ravel()
    rows, _ = linalg.truncation_levels(max(_bound(op, v), e_prime.size + _bound(op)))
    cols = rows - op.shift  # image of the domain truncation stays inside rows
    a = op.to_dense(rows, cols)
    vb = v.space.basis_matrix(rows)
    q = linalg.orthonormalize(vb)
    proj_off = np.eye(rows) - q @ q.T
    target = linalg.pad_to(e_prime, rows)
    e = linalg.min_norm_lstsq(proj_off @ a, proj_off @ target)
    remainder = target - a @ e
    vvec = q @ (q.T @ remainder)
    actual = op.apply(e)
    n = max(rows, actual.size)
    resid = linalg.pad_to(target, n) - linalg.pad_to(actual, n) - linalg.pad_to(vvec, n)
    if np.linalg.norm(resid) > 1e-10:
        raise NotTransversal("witness equation e' = T e + v not satisfiable")
    return linalg.trim(e), linalg.trim(vvec)


def block_transversality_witness(
    b: BlockOperator,
    v1: ComplementedSubspace,
    v2: ComplementedSubspace,
    e1_prime,
    e2_prime,
):
    """Constructive split for the lower triangular operator against V1 (+) V2,
    mirroring the two-step argument: solve per factor, then correct the
    second factor for the coupling term P e1."""
    e1, w1 = transversality_witness(b.F, v1, e1_prime)
    e2, w2 = transversality_witness(b.F2, v2, e2_prime)
    coupling = b.P.apply(e1)
    e_corr, v_corr = transversality_witness(b.F2, v2, coupling)
    n2 = max(e2.size, e_corr.size)
    m2 = max(w2.size, v_corr.size)
    return (
        (e1, linalg.pad_to(e2, n2) - linalg.pad_to(e_corr, n2)),
        (w1, linalg.pad_to(w2, m2) - linalg.pad_to(v_corr, m2)),
    )


def block_is_transversal(
    b: BlockOperator,
    v1: ComplementedSubspace,
    v2: ComplementedSubspace,
) -> bool:
    """Rank test for the lower triangular operator against V1 (+) V2,
    stabilized over two truncation levels past the bounds of both factors
    and of the coupling."""

    def surjective(lv: int) -> bool:
        rows1 = max(b.F.output_rows(lv + abs(b.F.shift) + b.F.window), lv)
        rows2 = max(
            b.F2.output_rows(lv + abs(b.F2.shift) + b.F2.window),
            b.P.output_rows(lv),
            lv,
        )
        cols1 = rows1 + abs(b.F.shift) + b.F.window
        cols2 = rows2 + abs(b.F2.shift) + b.F2.window
        a = np.hstack([b._dense(rows1, cols1, rows2, cols2), _sum_basis(v1, v2, rows1, rows2)])
        return linalg.rank(a) == rows1 + rows2

    bound = max(_bound(b.F, v1), _bound(b.F2, v2), _bound(b.P))
    return _stable(bound, 0, surjective, "block transversality rank test")


def _sum_basis(v1: ComplementedSubspace, v2: ComplementedSubspace, rows1: int, rows2: int) -> np.ndarray:
    """Block-diagonal columns spanning V1 (+) V2 at truncations (rows1, rows2)."""
    vb1 = v1.space.basis_matrix(rows1)
    vb2 = v2.space.basis_matrix(rows2)
    vb = np.zeros((rows1 + rows2, vb1.shape[1] + vb2.shape[1]))
    vb[:rows1, : vb1.shape[1]] = vb1
    vb[rows1:, vb1.shape[1] :] = vb2
    return vb


def block_preimage_with_complement(
    b: BlockOperator,
    v1: ComplementedSubspace,
    v2: ComplementedSubspace,
) -> ComplementedSubspace:
    """Preimage of V1 (+) V2 under the lower triangular operator, realized on
    the interleaved single sequence space, with the complement taken as the
    interleaved product of the factor complements (which the two-step
    correction argument shows is a complement).

    Makes both factor decisions, then the block decision, once each, so a
    caller needs no decision of its own first.  NotTransversal when any of
    them fails; ComplementFailure when a factor's complement, or the
    interleaved factor complements, fail to complement their preimage."""
    p1 = preimage_with_complement(b.F, v1)
    p2 = preimage_with_complement(b.F2, v2)
    if not block_is_transversal(b, v1, v2):
        raise NotTransversal("block operator is not transversal to V1 (+) V2")
    # joint head kernel: (x1, x2) with F x1 in V1 and P x1 + F2 x2 in V2
    h1, free1 = _preimage_head(b.F, v1)
    h2, free2 = _preimage_head(b.F2, v2)
    cofinite = free1 and free2
    h1 = max(h1, b.P.window)
    if cofinite:
        # factor-1 tail coordinates must also land in V2 through the coupling
        if b.P.tail_scale != 0.0:
            t2 = v2.space.tail_start
            if t2 is None:
                raise NotRepresentable(
                    "coupling with a live tail into a finite subspace leaves the model"
                )
            h1 = max(h1, t2 - b.P.shift)
    else:
        if free1 != free2:
            raise NotRepresentable(
                "preimage with one free factor tail is not an interleaved subspace"
            )
        # the second factor must absorb whatever the coupling reaches
        h2 = max(h2, b.P.output_rows(h1) + abs(b.F2.shift) + 1)
    rows1 = max(b.F.output_rows(h1), v1.space.support_bound(), 1)
    rows2 = max(b.F2.output_rows(h2), b.P.output_rows(h1), v2.space.support_bound(), 1)
    off = _off_subspace(b._dense(rows1, h1, rows2, h2), _sum_basis(v1, v2, rows1, rows2))
    kernel = linalg.nullspace(off)
    joint = np.zeros((2 * max(h1, h2), kernel.shape[1]))  # (x1, x2) -> x1 at 2i, x2 at 2i + 1
    joint[0 : 2 * h1 : 2], joint[1 : 2 * h2 : 2] = kernel[:h1], kernel[h1:]
    if cofinite:  # the joint tail's stragglers, then the head kernel
        tail = _interleave_basis(SubspaceBasis(h1, []), SubspaceBasis(h2, []))
        space = SubspaceBasis(tail.tail_start, _side_by_side(tail.block, joint))
    else:
        space = SubspaceBasis(None, joint)
    result = ComplementedSubspace(space, _interleave_basis(p1.complement, p2.complement))
    if not result.verify():
        raise ComplementFailure("factor complements do not complement the block preimage")
    return result
