"""Complemented subspaces of one-sided sequence space.

A subspace is either the span of finitely many finite-support vectors, or
cofinite: all coordinates beyond ``tail_start`` together with a finite list
of correction vectors.  Every subspace is stored with a complement, and the
pair is checked by rank tests at the two levels of ``linalg.truncation_levels``.

When the two sides together have exactly ``level`` columns at a level, one
rank test of the stacked columns decides the direct sum there: singular
values interlace under deleting columns, so a full-rank stack leaves each
side full rank under the same threshold, ``linalg.RANK_RTOL`` (see
:meth:`ComplementedSubspace.verify`).  Fewer columns fail without an SVD;
only more columns need the three ranks.
"""

from __future__ import annotations

import json

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
    plus finite corrections."""

    __slots__ = ("tail_start", "vectors")

    def __init__(self, tail_start: int | None, vectors):
        self.tail_start = tail_start
        vs = []
        for v in vectors:
            v = linalg.trim(np.asarray(v, dtype=float))
            if v.size:
                vs.append(v)
        self.vectors = vs

    def support_bound(self) -> int:
        b = max([v.size for v in self.vectors] + [0])
        if self.tail_start is not None:
            b = max(b, self.tail_start)
        return b

    def basis_matrix(self, level: int) -> np.ndarray:
        """Columns spanning the subspace's trace at truncation ``level``."""
        tail = np.arange(level if self.tail_start is None else self.tail_start, level)
        m = np.zeros((level, len(self.vectors) + tail.size))
        for j, v in enumerate(self.vectors):
            if v.size > level:  # stored vectors are trimmed, so the cut-off entry is nonzero
                raise ValueError("cannot truncate nonzero coordinates")
            m[: v.size, j] = v
        m[tail, len(self.vectors) + np.arange(tail.size)] = 1.0  # the coordinate tail e_i, i >= tail_start
        return m

    def dim_at(self, level: int) -> int:
        return linalg.rank(self.basis_matrix(level))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        level = max(self.support_bound(), x.size, 1)
        q = linalg.orthonormalize(self.basis_matrix(level))
        xx = linalg.pad_to(x, level)
        resid = xx - q @ (q.T @ xx) if q.size else xx
        return float(np.linalg.norm(resid)) <= tol

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        """Containment at both levels of ``linalg.truncation_levels`` of the
        larger support bound: adding the other's columns leaves the rank
        unchanged.  A disagreement between the levels is no containment."""
        for level in linalg.truncation_levels(max(self.support_bound(), other.support_bound())):
            mine = self.basis_matrix(level)
            if linalg.rank(np.hstack([mine, other.basis_matrix(level)])) != linalg.rank(mine):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "tail_start": self.tail_start,
            "vectors": [list(v) for v in self.vectors],
        }

    @staticmethod
    def from_json(obj: dict) -> "SubspaceBasis":
        return SubspaceBasis(obj["tail_start"], obj["vectors"])

    def __repr__(self) -> str:
        return f"SubspaceBasis(tail_start={self.tail_start}, n_vectors={len(self.vectors)})"


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

        - ``k < level``: the rank is at most ``k``, so the level fails
          without an SVD;
        - ``k == level``: the single test ``rank([a b]) == level`` decides.
          Singular values interlace when columns are deleted (R. C. Thompson,
          *Principal submatrices IX*, Linear Algebra Appl. 5, 1972), so
          ``σ_min(a) >= σ_min([a b]) > τ·σ_max([a b]) >= τ·σ_max(a)`` with
          ``τ = linalg.RANK_RTOL``,
          and the same for ``b``: both have full column rank, and
          ``rank(a) + rank(b) == level`` follows;
        - ``k > level``: the three ranks are taken.
        """
        for level in linalg.truncation_levels(max(self.space.support_bound(), self.complement.support_bound())):
            a = self.space.basis_matrix(level)
            b = self.complement.basis_matrix(level)
            ab = np.hstack([a, b])
            k = ab.shape[1]
            if k < level or linalg.rank(ab) != level:
                return False
            if k > level and linalg.rank(a) + linalg.rank(b) != level:
                return False
        return True

    def to_json(self) -> dict:
        return {"basis": self.space.to_json(), "complement": self.complement.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "ComplementedSubspace":
        return ComplementedSubspace(
            SubspaceBasis.from_json(obj["basis"]),
            SubspaceBasis.from_json(obj["complement"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self) -> str:
        return f"ComplementedSubspace({self.space!r}, {self.complement!r})"


def coordinate_span(n: int) -> ComplementedSubspace:
    """span{e_0, ..., e_(n-1)} with the coordinate tail as complement."""
    vs = []
    for i in range(n):
        e = np.zeros(i + 1)
        e[i] = 1.0
        vs.append(e)
    return ComplementedSubspace(
        SubspaceBasis(None, vs), SubspaceBasis(n, [])
    )


def _interleave(v: np.ndarray, parity: int) -> np.ndarray:
    out = np.zeros(2 * v.size)
    out[parity : 2 * v.size + parity : 2] = v
    return linalg.trim(out)


def _interleave_basis(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    vectors = [_interleave(v, 0) for v in a.vectors] + [_interleave(v, 1) for v in b.vectors]
    if a.tail_start is None and b.tail_start is None:
        return SubspaceBasis(None, vectors)
    # global tail where both factor tails are live; stragglers become corrections
    ka = a.tail_start if a.tail_start is not None else None
    kb = b.tail_start if b.tail_start is not None else None
    if ka is None or kb is None:
        # an every-other-coordinate tail is not expressible in this model
        raise ValueError("cannot interleave a finite subspace with a cofinite one")
    start = max(2 * ka, 2 * kb + 1)
    for g in range(2 * ka, start, 2):  # even stragglers below the joint tail
        e = np.zeros(g + 1)
        e[g] = 1.0
        vectors.append(e)
    for g in range(2 * kb + 1, start, 2):  # odd stragglers
        e = np.zeros(g + 1)
        e[g] = 1.0
        vectors.append(e)
    return SubspaceBasis(start, vectors)


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
        vectors = [g.apply(v_) for v_ in basis.vectors]
        if basis.tail_start is None:
            return SubspaceBasis(None, vectors)
        start = max(basis.tail_start, g.window)
        for i in range(basis.tail_start, start):
            e = np.zeros(i + 1)
            e[i] = 1.0
            vectors.append(g.apply(e))
        return SubspaceBasis(start, vectors)

    return ComplementedSubspace(push(v.space), push(v.complement))


def prepend_coordinate(v: ComplementedSubspace) -> ComplementedSubspace:
    """Shift every coordinate up by one and adjoin the distinguished new
    coordinate e_0 to the subspace."""

    def shift(basis: SubspaceBasis, adjoin: bool) -> SubspaceBasis:
        vectors = [np.concatenate([[0.0], v_]) for v_ in basis.vectors]
        if adjoin:
            vectors.append(np.array([1.0]))
        start = None if basis.tail_start is None else basis.tail_start + 1
        return SubspaceBasis(start, vectors)

    return ComplementedSubspace(shift(v.space, True), shift(v.complement, False))


def drop_first_coordinate(v: ComplementedSubspace) -> ComplementedSubspace:
    """The inverse of :func:`prepend_coordinate`: the quotient by e_0, which
    the subspace must contain.  Every coordinate moves down by one and e_0,
    now empty, drops out of the basis."""

    def shift(basis: SubspaceBasis) -> SubspaceBasis:
        start = None if basis.tail_start is None else basis.tail_start - 1
        return SubspaceBasis(start, [v_[1:] for v_ in basis.vectors])

    return ComplementedSubspace(shift(v.space), shift(v.complement))
