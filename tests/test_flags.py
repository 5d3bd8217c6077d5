"""Flags: construction, verification, and the derived dimension laws."""

import sys

import numpy as np
import pytest

from dnclab import flags as fl
from dnclab import linalg
from dnclab import operators as ops
from dnclab import subspaces as sub
from dnclab.errors import DepthMismatch, NotGLK
from test_operators import columns, same_basis


class TestDimensionSequence:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            fl.DimensionSequence([3, 3, 4])
        with pytest.raises(ValueError):
            fl.DimensionSequence([0, 1])

    @pytest.mark.parametrize("delta", ["24", [2.5, 4], [True, 4], [2, "4"]])
    def test_entries_must_be_integers(self, delta):
        # int() would read these as (2, 4), (2, 4), (1, 4) and (2, 4)
        with pytest.raises(ValueError):
            fl.DimensionSequence(delta)

    def test_numpy_integers_are_read_as_ints(self):
        d = fl.DimensionSequence(np.array([2, 4]))
        assert d.delta == (2, 4) and all(type(k) is int for k in d)

    def test_one_based_access(self):
        d = fl.DimensionSequence([2, 4, 8])
        assert d[1] == 2 and d[3] == 8
        with pytest.raises(IndexError):
            d[0]

    def test_subsequence_checks_order(self):
        d = fl.DimensionSequence([1, 2, 3, 4])
        assert list(d.subsequence([2, 4])) == [2, 4]
        with pytest.raises(IndexError):
            d.subsequence([3, 1])


class TestStandardFlag:
    def test_classical_prefix(self):
        f = fl.standard_flag([1, 2, 3])
        rep = fl.verify_flag(f)
        assert rep.passed
        assert rep.conditions["c_density"]["status"] == "by_construction"

    def test_dimensions_by_rank(self):
        f = fl.standard_flag([2, 4, 8])
        # oracle: rank of the stored bases at a fixed truncation
        for n, d in zip(range(1, 4), (2, 4, 8)):
            basis = f.level(n).space.basis_matrix(13)
            assert np.linalg.matrix_rank(basis) == d


class TestRotatedFlag:
    def test_identity_rotation_is_standard(self):
        f = fl.rotated_flag([1, 2], ops.identity())
        std = fl.standard_flag([1, 2])
        for a, b in zip(f.subspaces, std.subspaces):
            assert a.space.contains_subspace(b.space)
            assert b.space.contains_subspace(a.space)

    def test_skewed_flag_passes(self):
        g = ops.identity() + ops.rank_one(0, 1, 1.0)
        f = fl.rotated_flag([2, 4, 8], g)
        assert fl.verify_flag(f).passed

    def test_shift_rotation_rejected(self):
        with pytest.raises(NotGLK):
            fl.rotated_flag([1, 2], ops.shift_op(1))


class TestVerifyFlag:
    def test_broken_nesting_detected(self):
        broken = fl.Flag(
            fl.DimensionSequence([1, 2]),
            [
                sub.coordinate_span(1),
                sub.ComplementedSubspace(
                    sub.SubspaceBasis(None, columns([0.0, 1.0], [0.0, 0.0, 1.0])),
                    sub.SubspaceBasis(3, columns([1.0])),
                ),
            ],
        )
        rep = fl.verify_flag(broken)
        assert rep.conditions["b_nesting"]["status"] == "fail"
        assert not rep.passed

    def test_counts_and_containments_take_the_two_levels(self, monkeypatch):
        real, callers = linalg.truncation_levels, []

        def recorder(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(linalg, "truncation_levels", recorder)
        assert fl.verify_flag(fl.standard_flag([1, 2, 4])).passed
        assert {"verify_flag", "contains_subspace"} <= set(callers)

    def test_levels_that_disagree_fail_the_dimensions(self, monkeypatch):
        f = fl.standard_flag([1, 2, 4])
        _, hi = linalg.truncation_levels(4)
        real = sub.SubspaceBasis.dim_at
        monkeypatch.setattr(sub.SubspaceBasis, "dim_at", lambda b, level: real(b, level) + (level == hi))
        cond = fl.verify_flag(f).conditions["a_dimensions"]
        assert cond["status"] == "fail"
        assert cond["evidence"]["measured"] == [1, 2, 4]
        assert cond["evidence"]["measured_next_level"] == [2, 3, 5]


class TestDerivedFlags:
    def test_subsequence(self):
        f = fl.flag_subsequence(fl.standard_flag([1, 2, 3, 4]), (2, 4))
        assert list(f.delta) == [2, 4]
        assert fl.verify_flag(f).passed

    def test_full_subsequence_identity(self):
        base = fl.standard_flag([2, 4])
        f = fl.flag_subsequence(base, (1, 2))
        assert list(f.delta) == list(base.delta)

    def test_subsequence_composes(self):
        base = fl.standard_flag([1, 2, 3, 4])
        once = fl.flag_subsequence(base, (1, 3, 4))
        twice = fl.flag_subsequence(once, (2, 3))
        assert list(twice.delta) == [3, 4]

    def test_product_dimensions_add(self):
        p = fl.flag_product(fl.standard_flag([1, 2]), fl.standard_flag([2, 3]))
        assert list(p.delta) == [3, 5]
        assert fl.verify_flag(p).passed

    def test_square_doubles(self):
        f = fl.standard_flag([2, 4])
        p = fl.flag_product(f, f)
        assert list(p.delta) == [4, 8]

    def test_depth_mismatch(self):
        with pytest.raises(DepthMismatch):
            fl.flag_product(fl.standard_flag([1, 2]), fl.standard_flag([1, 2, 3]))

    def test_groupoid_dimensions(self):
        g = fl.flag_groupoid(fl.standard_flag([2, 4]))
        assert list(g.delta) == [5, 9]
        assert fl.verify_flag(g).passed

    @pytest.mark.parametrize(
        "base",
        [fl.standard_flag([1, 3]), fl.rotated_flag([2, 4, 8], ops.identity() + ops.rank_one(0, 1, 1.0))],
        ids=["standard", "skewed"],
    )
    def test_groupoid_without_fiber_is_the_square(self, base):
        # dropping e_0 from E_n x E_n x R gives back E_n x E_n, vector for vector
        square = fl.flag_product(base, base)
        for a, b in zip(fl.flag_groupoid(base).subspaces, square.subspaces):
            assert same_basis(sub.drop_first_coordinate(a), b)

    def test_groupoid_of_depth_one(self):
        g = fl.flag_groupoid(fl.standard_flag([1]))
        assert list(g.delta) == [3]
        assert fl.verify_flag(g).passed

    def test_closure_property(self):
        # every constructor output passes verification
        base = fl.standard_flag([2, 4, 6])
        for derived in (
            fl.flag_subsequence(base, (1, 3)),
            fl.flag_product(base, base),
            fl.flag_groupoid(base),
        ):
            assert fl.verify_flag(derived).passed
