"""Operator core: exact actions, index stabilization, structure groups,
transversality with witnesses and preimage complements.

Expected values for the derived cases are computed by independent dense
oracles built inside the tests (plain numpy truncation matrices), never
through the code paths under test.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnclab import linalg
from dnclab import operators as ops
from dnclab import subspaces as sub
from dnclab.errors import DomainError, NotGLK, NotRepresentable, NotTransversal, StabilizationFailure


def e(i, n=None):
    v = np.zeros((n or i + 1))
    v[i] = 1.0
    return v


def dense_shift(s, rows, cols):
    """Independent oracle: dense truncation of the pure coordinate shift."""
    a = np.zeros((rows, cols))
    for i in range(cols):
        if 0 <= i + s < rows:
            a[i + s, i] = 1.0
    return a


class TestApply:
    def test_identity(self):
        assert np.array_equal(ops.identity().apply([1, 2, 3]), [1, 2, 3])

    def test_pure_shift_moves_basis(self):
        assert np.array_equal(ops.shift_op(1).apply(e(0)), e(1))

    def test_rank_one_perturbation(self):
        t = ops.identity() + ops.rank_one(0, 0, 1.0)
        assert np.array_equal(t.apply(e(0)), [2.0])

    def test_backward_shift_kills_first(self):
        s = ops.shift_op(-1)
        assert s.apply(e(0)).size == 0
        assert np.array_equal(s.apply(e(3)), e(2))

    def test_support_bound(self):
        t = ops.shift_op(2) + ops.rank_one(4, 1, 3.0)
        y = t.apply([1.0, 1.0, 1.0])
        assert y.size <= 3 + 2 + t.window

    def test_zero_column_not_confused_with_far_tail(self):
        # window column that kills e_0 must survive canonicalization even
        # though the stored block is too short to show the tail entry
        t = ops.SequenceOperator(5, 1, np.zeros((1, 1)))
        assert t.window == 1
        assert t.apply(e(0)).size == 0
        assert np.array_equal(t.apply(e(1)), e(6))


class TestCompose:
    def test_shift_cancellation_against_dense_oracle(self):
        L = 30
        composed = ops.shift_op(1).compose(ops.shift_op(-1))
        oracle = dense_shift(1, L, L) @ dense_shift(-1, L, L)
        assert np.array_equal(composed.to_dense(L, L), oracle)
        # identity with a defect at the first coordinate
        assert composed.shift == 0
        assert np.array_equal(composed.apply([1, 2, 3]), [0, 2, 3])

    def test_identity_law(self):
        t = ops.shift_op(2) + ops.rank_one(1, 3, -0.5)
        assert ops.identity().compose(t) == t
        assert t.compose(ops.identity()) == t

    def test_finite_rank_algebra(self):
        k1 = ops.rank_one(0, 1, 2.0)
        k2 = ops.rank_one(1, 0, 3.0)
        lhs = (ops.identity() + k1).compose(ops.identity() + k2)
        rhs = ops.identity() + (k1 + k2 + k1.compose(k2))
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(
        s1=st.integers(-2, 2),
        s2=st.integers(-2, 2),
        i=st.integers(0, 3),
        j=st.integers(0, 3),
        c=st.floats(-2, 2, allow_nan=False),
    )
    def test_compose_matches_dense_oracle(self, s1, s2, i, j, c):
        t = ops.shift_op(s1) + ops.rank_one(i, j, c)
        s = ops.shift_op(s2) + ops.rank_one(j, i, -c)
        composed = t.compose(s)
        L = 25
        rows = L + 10
        oracle = t.to_dense(rows + 5, rows) @ s.to_dense(rows, L)
        assert np.allclose(composed.to_dense(rows + 5, L), oracle[:, :L], atol=1e-12)


# Dyadic entries: every product of two and every short sum is exact, so the
# algebra can be held to exact equality with the oracle.
ENTRIES = [0.0, 0.0, 1.0, -0.5, 0.25, 3.0, -0.75]
C_SCALE = -0.75  # the non-unit tail scale c


def oracle(raw, rows, cols):
    """Independent truncation of T = (shift, window, block, scale): block
    columns below the window, the scaled coordinate shift beyond it."""
    shift, window, block, scale = raw
    a = np.zeros((rows, cols))
    for i in range(cols):
        if i < window:
            for j in range(min(rows, block.shape[0])):
                a[j, i] = block[j, i]
        elif scale != 0.0 and 0 <= i + shift < rows:
            a[i + shift, i] = scale
    return a


@st.composite
def raw_operators(draw, shift=None, scale=None):
    """(shift, window, block, scale) with shift in -3..3, scale in {0, 1, c}
    and some block columns set to exact tail columns."""
    scale = draw(st.sampled_from([0.0, 1.0, C_SCALE])) if scale is None else scale
    shift = draw(st.integers(-3, 3)) if shift is None else shift
    window = draw(st.integers(max(0, -shift) if scale else 0, 5))
    rows = draw(st.integers(0, 8))
    cells = draw(st.lists(st.sampled_from(ENTRIES), min_size=rows * window, max_size=rows * window))
    block = np.array(cells, dtype=float).reshape(rows, window)
    for i in range(window):
        if draw(st.booleans()) and scale != 0.0 and 0 <= i + shift < rows:
            block[:, i] = 0.0
            block[i + shift, i] = scale
    return shift, window, block, scale


R, M, C = 24, 24, 14  # oracle truncations: rows, middle coordinates, columns


class TestDenseOracle:
    @settings(max_examples=80, deadline=None)
    @given(raw=raw_operators(), extra=st.integers(0, 4))
    def test_explicit_tail_columns_canonicalise_to_minimal_window(self, raw, extra):
        shift, window, block, scale = raw
        t = ops.SequenceOperator(*raw)
        full = oracle(raw, R, C)
        assert np.array_equal(t.to_dense(R, C), full)
        # the same operator with `extra` tail columns written out explicitly
        w = window + extra
        longer = ops.SequenceOperator(shift, w, oracle(raw, max(block.shape[0], w + max(shift, 0)), w), scale)
        assert longer == t
        # minimal window: the tail agrees from n0 on, widened to hold the
        # block's rows within window + |shift| when the tail is live
        tail = oracle((shift, 0, np.zeros((0, 0)), scale), R, C)
        n0 = C
        while n0 > (max(0, -shift) if scale else 0) and np.array_equal(full[:, n0 - 1], tail[:, n0 - 1]):
            n0 -= 1
        support = max([j + 1 for j in range(R) if np.any(full[j, :n0])] + [0])
        if scale:
            n = max(n0, support - abs(shift))
            assert (t.window, t.block.shape) == (n, (max(support, n + abs(shift)), n))
        else:
            assert (t.window, t.block.shape) == (n0, (support, n0))

    @settings(max_examples=80, deadline=None)
    @given(a=raw_operators(), b=raw_operators())
    def test_sum_is_exact(self, a, b):
        s, t = ops.SequenceOperator(*a), ops.SequenceOperator(*b)
        if a[3] and b[3] and a[0] != b[0]:
            with pytest.raises(NotRepresentable):
                s + t
            return
        assert np.array_equal((s + t).to_dense(R, C), oracle(a, R, C) + oracle(b, R, C))

    @settings(max_examples=80, deadline=None)
    @given(a=raw_operators(), b=raw_operators())
    def test_compose_with_scaled_and_zero_tails(self, a, b):
        composed = ops.SequenceOperator(*a).compose(ops.SequenceOperator(*b))
        assert composed.tail_scale == a[3] * b[3]
        assert np.array_equal(composed.to_dense(R, C), oracle(a, R, M) @ oracle(b, M, C))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), live=st.booleans())
    def test_flatten_matches_interleaved_oracle(self, data, live):
        f = data.draw(raw_operators(scale=C_SCALE if live else 0.0))
        f2 = data.draw(raw_operators(shift=f[0], scale=f[3]))
        p = data.draw(raw_operators(scale=0.0))
        flat = ops.block_lower_triangular(*(ops.SequenceOperator(*r) for r in (f, p, f2))).flatten()
        want = np.zeros((2 * R, 2 * C))  # factor-1 coordinate i at 2i, factor-2 at 2i + 1
        want[0::2, 0::2] = oracle(f, R, C)
        want[1::2, 0::2] = oracle(p, R, C)
        want[1::2, 1::2] = oracle(f2, R, C)
        assert np.array_equal(flat.to_dense(2 * R, 2 * C), want)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    def test_approx_equal_is_the_oracle_max_difference(self, data, tol):
        a = data.draw(raw_operators())
        b = data.draw(raw_operators(shift=a[0], scale=a[3]))
        got = ops.SequenceOperator(*a).approx_equal(ops.SequenceOperator(*b), tol)
        assert got == (np.max(np.abs(oracle(a, R, C) - oracle(b, R, C))) <= tol)
        c = data.draw(raw_operators())
        if (c[3], c[0] if c[3] else 0) != (a[3], a[0] if a[3] else 0):
            assert not ops.SequenceOperator(*a).approx_equal(ops.SequenceOperator(*c), np.inf)


class TestFredholmIndex:
    def test_identity_zero(self):
        assert ops.fredholm_index(ops.identity()) == 0

    def test_unilateral_shift_against_brute_force(self):
        # independent oracle: kernel/cokernel dimensions of the dense
        # truncation at two levels
        for L in (20, 40):
            a = dense_shift(1, L + 1, L)
            rank = np.linalg.matrix_rank(a)
            k, c = L - rank, (L + 1) - rank
            assert (k, c) == (0, 1)
        assert ops.fredholm_index(ops.shift_op(1)) == -1

    def test_backward_shift(self):
        assert ops.fredholm_index(ops.shift_op(-1)) == 1

    def test_block_glk_diagonal_index_zero(self):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, ops.rank_one(0, 0, 5.0), ops.identity())
        assert b.fredholm_index() == 0

    def test_annihilating_tail_fails_stabilization(self):
        with pytest.raises(StabilizationFailure):
            ops.fredholm_index(ops.rank_one(0, 0, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(s1=st.integers(-2, 2), s2=st.integers(-2, 2), c=st.floats(-3, 3, allow_nan=False))
    def test_index_additive_under_composition(self, s1, s2, c):
        t = ops.shift_op(s1) + ops.rank_one(1, 0, c)
        s = ops.shift_op(s2) + ops.rank_one(0, 2, -c)
        assert ops.fredholm_index(t.compose(s)) == ops.fredholm_index(t) + ops.fredholm_index(s)


class TestStructureGroup:
    def test_identity_in_group(self):
        assert ops.is_glk(ops.identity())

    def test_diagonal_perturbation(self):
        assert ops.is_glk(ops.identity() + ops.rank_one(0, 0, 1.0))

    def test_shift_not_in_group(self):
        assert not ops.is_glk(ops.shift_op(1))

    def test_singular_perturbation_rejected(self):
        assert not ops.is_glk(ops.identity() + ops.rank_one(0, 0, -1.0))

    def test_inverse_witness(self):
        g = ops.identity() + ops.rank_one(0, 1, 0.7) + ops.rank_one(1, 1, 0.3)
        inv = ops.glk_inverse(g)
        assert g.compose(inv).approx_equal(ops.identity(), 1e-12)
        with pytest.raises(NotGLK):
            ops.glk_inverse(ops.shift_op(1))


class TestBlockStructureGroup:
    def test_identity_block(self):
        b = ops.block_lower_triangular(ops.identity(), ops.identity().scale(0.0), ops.identity())
        assert ops.is_glk_tilde(b)

    def test_explicit_inverse_by_back_substitution(self):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        p = ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, p, ops.identity())
        assert ops.is_glk_tilde(b)
        # independent oracle: the inverse assembled by hand
        f_inv = ops.identity() + ops.rank_one(0, 0, -0.5)  # (I + e0 e0)^-1 = I - e0 e0 / 2
        p_inv = p.compose(f_inv).scale(-1.0)
        by_hand = ops.block_lower_triangular(f_inv, p_inv, ops.identity())
        prod = b.compose(by_hand)
        assert prod.F.approx_equal(ops.identity(), 1e-12)
        assert prod.F2.approx_equal(ops.identity(), 1e-12)
        assert prod.P.approx_equal(ops.identity().scale(0.0), 1e-12)

    def test_shift_diagonal_rejected(self):
        b = ops.block_lower_triangular(ops.shift_op(1), ops.identity().scale(0.0), ops.identity())
        assert not ops.is_glk_tilde(b)


class TestRetraction:
    def _sample(self):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        return ops.block_lower_triangular(f, ops.rank_one(0, 0, 3.0), ops.identity())

    def test_endpoint_zero_is_identity_on_input(self):
        b = self._sample()
        b0 = ops.retraction_path(b, 0.0)
        assert b0.F == b.F and b0.F2 == b.F2 and b0.P == b.P

    def test_endpoint_one_is_diagonal(self):
        b1 = ops.retraction_path(self._sample(), 1.0)
        assert b1.P.approx_equal(ops.identity().scale(0.0), 0.0)

    def test_invertible_along_grid_by_determinant(self):
        b = self._sample()
        level = 8
        for t in np.linspace(0, 1, 5):
            bt = ops.retraction_path(b, float(t))
            a, r1, r2 = bt.stacked_dense(level)
            assert abs(np.linalg.det(a)) > 1e-8

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ops.retraction_path(self._sample(), 1.5)
        with pytest.raises(DomainError):
            ops.retraction_path(self._sample(), -0.1)


class TestTransversality:
    def test_identity_always_transversal(self):
        assert ops.is_transversal(ops.identity(), sub.coordinate_span(2))

    def test_killing_operator_not_transversal(self):
        # T kills the first two coordinates; the span of e0 cannot restore e1
        t = ops.SequenceOperator(0, 2, np.zeros((2, 2)))
        v = sub.coordinate_span(1)
        # oracle: the stacked column space misses e1 at any window
        rows = 12
        a = np.zeros((rows, rows))
        for i in range(2, rows):
            a[i, i] = 1.0
        stacked = np.hstack([a, v.space.basis_matrix(rows)])
        assert np.linalg.matrix_rank(stacked) < rows
        assert not ops.is_transversal(t, v)

    def test_witness_surjective_case(self):
        eo, v = ops.transversality_witness(ops.identity(), sub.coordinate_span(2), e(2))
        assert np.array_equal(eo, e(2)) and v.size == 0

    def test_witness_tie_breaks_to_subspace(self):
        eo, v = ops.transversality_witness(ops.identity(), sub.coordinate_span(2), e(0))
        assert eo.size == 0 and np.array_equal(v, e(0))

    def test_block_witness_residual(self):
        f = ops.identity() + ops.rank_one(1, 1, 0.5)
        b = ops.block_lower_triangular(ops.identity(), ops.rank_one(0, 0, 2.0), f)
        v1, v2 = sub.coordinate_span(2), sub.coordinate_span(1)
        (x1, x2), (w1, w2) = ops.block_transversality_witness(b, v1, v2, e(2), e(1))
        y1, y2 = b.apply(x1, x2)
        n1 = max(3, y1.size, w1.size)
        n2 = max(2, y2.size, w2.size)
        r1 = linalg.pad_to(e(2), n1) - linalg.pad_to(y1, n1) - linalg.pad_to(w1, n1)
        r2 = linalg.pad_to(e(1), n2) - linalg.pad_to(y2, n2) - linalg.pad_to(w2, n2)
        assert np.linalg.norm(r1) <= 1e-10 and np.linalg.norm(r2) <= 1e-10

    def test_witness_requires_transversality(self):
        t = ops.SequenceOperator(0, 2, np.zeros((2, 2)))
        with pytest.raises(NotTransversal):
            ops.transversality_witness(t, sub.coordinate_span(1), e(1))

    def test_block_from_transversal_pairs_any_coupling(self):
        # factor transversality passes to the block sum whatever P is
        t1, v1 = ops.shift_op(-1), sub.coordinate_span(2)
        t2, v2 = ops.identity() + ops.rank_one(0, 0, 2.0), sub.coordinate_span(1)
        assert ops.is_transversal(t1, v1) and ops.is_transversal(t2, v2)
        for p in (ops.identity().scale(0.0), ops.rank_one(2, 0, 7.0), ops.shift_op(1).scale(0.3)):
            b = ops.block_lower_triangular(t1, p, t2)
            assert ops.block_is_transversal(b, v1, v2)


class TestPreimage:
    def test_identity_pullback_is_the_subspace(self):
        p = ops.preimage_with_complement(ops.identity(), sub.coordinate_span(2))
        level = 8
        got = linalg.orthonormalize(p.space.basis_matrix(level))
        want = linalg.orthonormalize(sub.coordinate_span(2).space.basis_matrix(level))
        assert np.allclose(got @ got.T, want @ want.T, atol=1e-12)
        comp = linalg.orthonormalize(p.complement.basis_matrix(level))
        want_c = linalg.orthonormalize(sub.coordinate_span(2).complement.basis_matrix(level))
        assert np.allclose(comp @ comp.T, want_c @ want_c.T, atol=1e-12)

    def test_rotated_pullback_by_finite_solve(self):
        g = ops.identity() + ops.rank_one(0, 1, 1.0)
        v = sub.coordinate_span(2)
        p = ops.preimage_with_complement(g, v)
        # oracle: g^-1(E_2) = span of solutions g x = e_i, finite solve
        level = 8
        gd = g.to_dense(level, level)
        want = np.linalg.solve(gd, v.space.basis_matrix(level))
        qw = linalg.orthonormalize(want)
        qp = linalg.orthonormalize(p.space.basis_matrix(level))
        assert np.allclose(qp @ qp.T, qw @ qw.T, atol=1e-10)
        assert p.verify()

    def test_block_preimage_spans(self):
        b = ops.block_lower_triangular(
            ops.identity() + ops.rank_one(0, 1, 0.4),
            ops.rank_one(0, 0, 1.5),
            ops.identity(),
        )
        pre = ops.block_preimage_with_complement(b, sub.coordinate_span(2), sub.coordinate_span(1))
        assert pre.verify()

    def test_not_transversal_raises(self):
        t = ops.SequenceOperator(0, 2, np.zeros((2, 2)))
        with pytest.raises(NotTransversal):
            ops.preimage_with_complement(t, sub.coordinate_span(1))


class TestCompositionTransversality:
    def test_iff_on_fixture(self):
        t2 = ops.shift_op(-1)  # surjective
        v = sub.coordinate_span(2)
        w = ops.preimage_with_complement(t2, v)
        t1 = ops.shift_op(1)
        assert ops.is_transversal(t1, w) == ops.is_transversal(t2.compose(t1), v)

    def test_negative_direction(self):
        # T2 transversal to V, but T1 misses the preimage badly
        t2 = ops.identity()
        v = sub.coordinate_span(1)
        w = ops.preimage_with_complement(t2, v)
        t1 = ops.SequenceOperator(0, 2, np.zeros((2, 2)))
        assert ops.is_transversal(t1, w) == ops.is_transversal(t2.compose(t1), v)


class TestSerialization:
    def test_operator_roundtrip(self):
        t = ops.shift_op(2) + ops.rank_one(1, 3, -0.5)
        back = ops.SequenceOperator.from_json(t.to_json())
        assert back == t

    def test_window_widened_to_hold_the_block_serialises(self):
        # the block's third row lies beyond window + |shift|, so the window grows to 3
        t = ops.SequenceOperator(0, 1, [[1.0], [0.0], [2.0]])
        assert t.window == 3
        assert ops.SequenceOperator.from_json(json.loads(t.dumps())) == t

    def test_subspace_roundtrip(self):
        v = sub.coordinate_span(3)
        back = sub.ComplementedSubspace.from_json(v.to_json())
        assert back.verify()
        assert back.space.contains_subspace(v.space)
        assert v.space.contains_subspace(back.space)


class TestInterleaving:
    def test_flatten_matches_stacked_rank_data(self):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, ops.rank_one(0, 0, 2.0), ops.identity())
        flat = b.flatten()
        assert ops.fredholm_index(flat) == b.fredholm_index() == 0

    def test_flatten_equal_shifts(self):
        b = ops.block_lower_triangular(ops.shift_op(1), ops.rank_one(0, 0, 1.0), ops.shift_op(1))
        flat = b.flatten()
        assert flat.shift == 2
        assert ops.fredholm_index(flat) == -2

    def test_interleave_subspaces_roundtrip(self):
        v = sub.interleave_subspaces(sub.coordinate_span(2), sub.coordinate_span(3))
        assert v.verify()
        assert v.space.dim_at(12) == 5
