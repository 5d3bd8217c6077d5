"""Nested complemented subspaces with prescribed dimension jumps, and the
derived constructions (subsequences, products, groupoid ambients).

A depth-d flag stores levels E_1 subset ... subset E_d with dim E_n equal to
the n-th entry of the dimension sequence, each level complemented by a
decreasing coordinate tail.  "For all n" statements are verified up to the
stored depth; density of the union is true by construction in the coordinate
model and is recorded rather than tested.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from . import linalg
from .errors import DepthMismatch, NotGLK
from .report import ConditionReport, condition
from .subspaces import (
    ComplementedSubspace,
    coordinate_span,
    interleave_subspaces,
    prepend_coordinate,
    subspace_image,
)

__all__ = [
    "DimensionSequence",
    "Flag",
    "standard_flag",
    "rotated_flag",
    "verify_flag",
    "flag_subsequence",
    "flag_product",
    "flag_groupoid",
]


class DimensionSequence:
    """Strictly increasing finite sequence of naturals delta(1) < ... < delta(depth)."""

    __slots__ = ("delta",)

    def __init__(self, delta):
        delta = tuple(delta)
        if any(isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in delta):
            raise ValueError(f"dimension entries must be integers: {delta!r}")
        delta = tuple(int(d) for d in delta)
        if not delta:
            raise ValueError("dimension sequence must be nonempty")
        if any(d < 1 for d in delta):
            raise ValueError("dimension entries must be >= 1")
        if any(b <= a for a, b in zip(delta, delta[1:])):
            raise ValueError(f"dimension sequence must be strictly increasing: {delta}")
        self.delta = delta

    @property
    def depth(self) -> int:
        return len(self.delta)

    def __getitem__(self, n: int) -> int:
        """1-based level access: self[n] = delta(n)."""
        if not 1 <= n <= self.depth:
            raise IndexError(f"level {n} outside 1..{self.depth}")
        return self.delta[n - 1]

    def __iter__(self):
        return iter(self.delta)

    def __eq__(self, other):
        return isinstance(other, DimensionSequence) and self.delta == other.delta

    def __repr__(self):
        return f"DimensionSequence{self.delta}"

    def subsequence(self, indices) -> "DimensionSequence":
        indices = list(indices)
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise IndexError(f"indices must be strictly increasing: {indices}")
        return DimensionSequence([self[i] for i in indices])

    def __add__(self, other: "DimensionSequence") -> "DimensionSequence":
        if self.depth != other.depth:
            raise DepthMismatch(f"depths {self.depth} and {other.depth} differ")
        return DimensionSequence([a + b for a, b in zip(self.delta, other.delta)])


@dataclass
class Flag:
    """A finite-depth flag: the dimension sequence and the levels E_n, each
    a complemented subspace."""

    delta: DimensionSequence
    subspaces: list[ComplementedSubspace]

    @property
    def depth(self) -> int:
        return self.delta.depth

    def level(self, n: int) -> ComplementedSubspace:
        """1-based access to E_n."""
        if not 1 <= n <= self.depth:
            raise IndexError(f"level {n} outside 1..{self.depth}")
        return self.subspaces[n - 1]

    def to_json(self) -> dict:
        return {
            "delta": list(self.delta),
            "levels": [s.to_json() for s in self.subspaces],
        }


def standard_flag(delta) -> Flag:
    """Coordinate flag: E_n is the span of the leading delta(n) coordinates,
    complemented by the remaining coordinate tail."""
    delta = delta if isinstance(delta, DimensionSequence) else DimensionSequence(delta)
    return Flag(delta, [coordinate_span(d) for d in delta])


def rotated_flag(delta, g) -> Flag:
    """Image of the coordinate flag under a structure-group operator."""
    from .operators import is_glk

    if not is_glk(g):
        raise NotGLK("flag rotation must be an invertible identity-plus-finite-rank")
    base = standard_flag(delta)
    return Flag(base.delta, [subspace_image(g, s) for s in base.subspaces])


def verify_flag(flag: Flag) -> ConditionReport:
    """Condition-by-condition check with numeric evidence.

    (a) level dimensions, (b) nesting, (d) complements span, (e) complements
    decrease; density of the union (c) holds by construction in the
    coordinate model and is recorded, not tested.  Dimensions are counted,
    and containments decided, at the two levels of
    ``linalg.truncation_levels``: counts that differ between the levels fail
    (a), with both as evidence, and a containment holds only at both.
    """
    report = ConditionReport()
    level_bound = max(
        max(s.space.support_bound(), s.complement.support_bound()) for s in flag.subspaces
    )
    lo, hi = linalg.truncation_levels(level_bound)
    dims = [s.space.dim_at(lo) for s in flag.subspaces]
    dims_hi = [s.space.dim_at(hi) for s in flag.subspaces]
    evidence = {"measured": dims, "expected": list(flag.delta)}
    if dims_hi != dims:
        evidence["measured_next_level"] = dims_hi
    report.conditions["a_dimensions"] = condition(dims == dims_hi == list(flag.delta), evidence)

    nesting = [
        flag.subspaces[i + 1].space.contains_subspace(flag.subspaces[i].space)
        for i in range(flag.depth - 1)
    ]
    report.conditions["b_nesting"] = condition(all(nesting), {"containments": nesting})

    report.conditions["c_density"] = {
        "status": "by_construction",
        "evidence": {"note": "union of levels exhausts the coordinate model"},
    }

    sums = [s.verify() for s in flag.subspaces]
    report.conditions["d_complemented"] = condition(all(sums), {"direct_sums": sums})

    dec = [
        flag.subspaces[i].complement.contains_subspace(flag.subspaces[i + 1].complement)
        for i in range(flag.depth - 1)
    ]
    report.conditions["e_decreasing_complements"] = condition(all(dec), {"containments": dec})
    return report


def flag_subsequence(flag: Flag, indices) -> Flag:
    """Flag obtained by keeping the 1-based levels in ``indices``."""
    indices = list(indices)
    delta = flag.delta.subsequence(indices)
    return Flag(delta, [flag.level(i) for i in indices])


def flag_product(fa: Flag, fb: Flag) -> Flag:
    """Levelwise product realized on the interleaved sum space."""
    if fa.depth != fb.depth:
        raise DepthMismatch(f"depths {fa.depth} and {fb.depth} differ")
    delta = fa.delta + fb.delta
    levels = [interleave_subspaces(a, b) for a, b in zip(fa.subspaces, fb.subspaces)]
    return Flag(delta, levels)


def flag_groupoid(flag: Flag) -> Flag:
    """Levelwise E_n x E_n x R: the interleaved square with one distinguished
    extra coordinate (coordinate 0 of the new ambient is the scalar fiber)."""
    squared = flag_product(flag, flag)
    delta = DimensionSequence([2 * d + 1 for d in flag.delta])
    levels = [prepend_coordinate(s) for s in squared.subspaces]
    return Flag(delta, levels)
