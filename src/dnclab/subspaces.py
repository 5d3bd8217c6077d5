"""Complemented subspaces of one-sided sequence space.

A subspace is either the span of finitely many finite-support vectors, or
cofinite: all coordinates beyond ``tail_start`` together with a finite list
of correction vectors.  The finite vectors are held as one trimmed column
block (support x count), so a truncation's basis matrix is that block beside
the tail's unit columns.  Every subspace is stored with a complement, and
the pair is checked by rank tests at the two levels of
``linalg.truncation_levels``.

When the two sides together have at most ``level`` columns at a level, one
rank of the stacked columns decides the direct sum there: singular values
interlace under deleting columns, so a full-rank stack leaves each side full
rank under the same threshold, ``linalg.RANK_RTOL`` (see
:meth:`ComplementedSubspace.verify`).  ``linalg.rank`` decides a
well-conditioned stack without an SVD, such as the orthonormal stacks of
preimage certificates and coordinate spans; only more columns need the
three ranks.
"""

from __future__ import annotations

import numpy as np

from . import linalg

__all__ = [
    "SubspaceBasis",
    "ComplementedSubspace",
    "coordinate_span",
    "interleave_subspaces",
    "subspace_image",
    "prepend_coordinate",
    "drop_first_coordinate",
]


class SubspaceBasis:
    """Half of a complemented pair: a finite span, or a coordinate tail
    plus finite corrections.

    The finite part is one column block: each column is a vector on the
    leading coordinates.  Construction trims it once, dropping its zero
    columns and its trailing zero rows, so its height is the support bound
    of the finite part."""

    __slots__ = ("tail_start", "block")

    def __init__(self, tail_start: int | None, block):
        self.tail_start = tail_start
        block = np.asarray(block, dtype=float)
        if block.size == 0:
            block = np.zeros((0, 0))
        nonzero = block != 0.0
        rows = np.flatnonzero(nonzero.any(axis=1))
        self.block = block[: rows[-1] + 1 if rows.size else 0, nonzero.any(axis=0)]

    def support_bound(self) -> int:
        return max(self.block.shape[0], self.tail_start or 0)

    def basis_matrix(self, level: int) -> np.ndarray:
        """Columns spanning the subspace's trace at truncation ``level``."""
        h, k = self.block.shape
        if h > level:  # the block is trimmed, so its last row holds a nonzero entry
            raise ValueError("cannot truncate nonzero coordinates")
        tail = np.arange(level if self.tail_start is None else self.tail_start, level)
        m = np.zeros((level, k + tail.size))
        m[:h, :k] = self.block
        m[tail, k + np.arange(tail.size)] = 1.0  # the coordinate tail e_i, i >= tail_start
        return m

    def dim_at(self, level: int) -> int:
        return linalg.rank(self.basis_matrix(level))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        """Containment at both levels of ``linalg.truncation_levels`` of the
        larger support bound: adding the other's columns leaves the rank
        unchanged.  A disagreement between the levels is no containment."""
        for level in linalg.truncation_levels(max(self.support_bound(), other.support_bound())):
            mine = self.basis_matrix(level)
            if linalg.rank(np.hstack([mine, other.basis_matrix(level)])) != linalg.rank(mine):
                return False
        return True

    def __repr__(self) -> str:
        return f"SubspaceBasis(tail_start={self.tail_start}, n_vectors={self.block.shape[1]})"


class ComplementedSubspace:
    """A subspace stored together with a complement; the defining property
    (direct sum at every truncation level) is rank-verifiable."""

    __slots__ = ("space", "complement")

    def __init__(self, space: SubspaceBasis, complement: SubspaceBasis):
        self.space = space
        self.complement = complement

    def verify(self) -> bool:
        """Span + trivial intersection at the two truncation levels
        ``linalg.truncation_levels`` of the larger support bound of the two.

        At each level the test is ``rank(a) + rank(b) == level`` and
        ``rank([a b]) == level``, where ``a`` and ``b`` hold the columns of
        the space and of the complement.  With ``k`` columns in ``[a b]``:

        - ``k <= level``: the single test ``rank([a b]) == level`` decides.
          It fails when ``k < level``, since the rank is at most ``k``.
          When ``k == level``, singular values interlace when columns are
          deleted (R. C. Thompson, *Principal submatrices IX*, Linear
          Algebra Appl. 5, 1972), so a passing stack has
          ``σ_min(a) >= σ_min([a b]) > τ·σ_max([a b]) >= τ·σ_max(a)`` with
          ``τ = linalg.RANK_RTOL``, and the same for ``b``: both have full
          column rank, and ``rank(a) + rank(b) == level`` follows;
        - ``k > level``: the three ranks are taken.

        :func:`linalg.rank` certifies a full column rank without an SVD
        whenever the stack is well conditioned.  A stack with
        ``‖GᵀG − I‖_F <= 1/2``, such as an orthonormal preimage certificate
        or coordinate span, has ``σ_min/σ_max >= 1/√3``, far above
        ``linalg.CERTIFY_RTOL``, so its level takes no SVD.
        """
        for level in linalg.truncation_levels(max(self.space.support_bound(), self.complement.support_bound())):
            a = self.space.basis_matrix(level)
            b = self.complement.basis_matrix(level)
            ab = np.hstack([a, b])
            if linalg.rank(ab) != level:
                return False
            if ab.shape[1] > level and linalg.rank(a) + linalg.rank(b) != level:
                return False
        return True

    def __repr__(self) -> str:
        return f"ComplementedSubspace({self.space!r}, {self.complement!r})"


def _side_by_side(*blocks: np.ndarray) -> np.ndarray:
    """The columns of every block in turn, each zero-padded to the tallest."""
    m = np.zeros((max(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    j = 0
    for b in blocks:
        m[: b.shape[0], j : j + b.shape[1]] = b
        j += b.shape[1]
    return m


def coordinate_span(n: int) -> ComplementedSubspace:
    """span{e_0, ..., e_(n-1)} with the coordinate tail as complement."""
    return ComplementedSubspace(SubspaceBasis(None, np.eye(n)), SubspaceBasis(n, []))


def _interleave_basis(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Factor-a rows at the even coordinates, factor-b rows at the odd ones."""
    if (a.tail_start is None) != (b.tail_start is None):
        # an every-other-coordinate tail is not expressible in this model
        raise ValueError("cannot interleave a finite subspace with a cofinite one")
    spread = []
    for basis, parity in ((a, 0), (b, 1)):
        m = np.zeros((2 * basis.block.shape[0] + parity, basis.block.shape[1]))
        m[parity::2] = basis.block
        spread.append(m)
    if a.tail_start is None:
        return SubspaceBasis(None, _side_by_side(*spread))
    # global tail where both factor tails are live; stragglers become corrections
    ka, kb = a.tail_start, b.tail_start
    start = max(2 * ka, 2 * kb + 1)
    stragglers = [*range(2 * ka, start, 2), *range(2 * kb + 1, start, 2)]  # even, then odd
    return SubspaceBasis(start, _side_by_side(*spread, np.eye(start)[:, stragglers]))


def interleave_subspaces(v1: ComplementedSubspace, v2: ComplementedSubspace) -> ComplementedSubspace:
    """External direct sum realized on one sequence space: factor-1
    coordinate i sits at 2i, factor-2 coordinate j at 2j+1."""
    return ComplementedSubspace(
        _interleave_basis(v1.space, v2.space),
        _interleave_basis(v1.complement, v2.complement),
    )


def subspace_image(g, v: ComplementedSubspace) -> ComplementedSubspace:
    """Image of a complemented subspace under a structure-group operator
    (identity beyond its window, so cofinite tails stay coordinate-aligned)."""
    if g.tail_scale != 1.0 or g.shift != 0:
        raise ValueError("subspace_image requires an identity-tail operator")

    def push(basis: SubspaceBasis) -> SubspaceBasis:
        columns = basis.block
        start = None
        if basis.tail_start is not None:  # tail coordinates inside the window become corrections
            start = max(basis.tail_start, g.window)
            columns = _side_by_side(columns, np.eye(start)[:, basis.tail_start :])
        n = columns.shape[0]
        return SubspaceBasis(start, g.to_dense(g.output_rows(n), n) @ columns)

    return ComplementedSubspace(push(v.space), push(v.complement))


def prepend_coordinate(v: ComplementedSubspace) -> ComplementedSubspace:
    """Shift every coordinate up by one and adjoin the distinguished new
    coordinate e_0 to the subspace."""

    def shift(basis: SubspaceBasis, adjoin: bool) -> SubspaceBasis:
        block = np.pad(basis.block, ((1, 0), (0, int(adjoin))))
        if adjoin:
            block[0, -1] = 1.0
        start = None if basis.tail_start is None else basis.tail_start + 1
        return SubspaceBasis(start, block)

    return ComplementedSubspace(shift(v.space, True), shift(v.complement, False))


def drop_first_coordinate(v: ComplementedSubspace) -> ComplementedSubspace:
    """The inverse of :func:`prepend_coordinate`: the quotient by e_0, which
    the subspace must contain.  Every coordinate moves down by one and e_0,
    now empty, drops out of the basis."""

    def shift(basis: SubspaceBasis) -> SubspaceBasis:
        start = None if basis.tail_start is None else basis.tail_start - 1
        return SubspaceBasis(start, basis.block[1:])

    return ComplementedSubspace(shift(v.space), shift(v.complement))
