"""Operator core: exact actions, index stabilization, structure groups,
transversality with witnesses and preimage complements.

Expected values for the derived cases are computed by independent dense
oracles built inside the tests (plain numpy truncation matrices), never
through the code paths under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnclab import linalg
from dnclab import operators as ops
from dnclab import subspaces as sub
from dnclab import suites
from dnclab.errors import (
    ComplementFailure,
    DomainError,
    NotGLK,
    NotRepresentable,
    NotTransversal,
    StabilizationFailure,
)
from dnclab.report import SuiteConfig, rng_for


def e(i, n=None):
    v = np.zeros((n or i + 1))
    v[i] = 1.0
    return v


def columns(*vectors) -> np.ndarray:
    """The vectors, each zero-padded to the longest, as one column block."""
    m = np.zeros((max([len(v) for v in vectors] + [0]), len(vectors)))
    for j, v in enumerate(vectors):
        m[: len(v), j] = v
    return m


def count_svds(monkeypatch) -> list:
    """Spy on ``np.linalg.svd``: the returned list gets each call's
    ``compute_uv``."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


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
    def test_window_widened_to_hold_the_block(self):
        # the block's third row lies beyond window + |shift|, so the window grows to 3
        t = ops.SequenceOperator(0, 1, [[1.0], [0.0], [2.0]])
        assert t.window == 3

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


class TestTruncationLevels:
    """Every stabilised decision truncates at ``linalg.truncation_levels``:
    the support bound of its objects plus LEVEL_MARGIN, and LEVEL_STEP more."""

    @staticmethod
    def record(monkeypatch, owner, name, pick):
        """Replace ``owner.name`` by a wrapper that records ``pick(args)``."""
        fn, seen = getattr(owner, name), []

        def wrapper(*args):
            seen.append(pick(args))
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)
        return seen

    def test_block_index_starts_at_the_given_level(self, monkeypatch):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, ops.rank_one(0, 0, 5.0), ops.identity())
        op = ops.shift_op(1)
        block_levels = self.record(monkeypatch, ops.BlockOperator, "stacked_dense", lambda a: a[1])
        cols = self.record(monkeypatch, ops.SequenceOperator, "to_dense", lambda a: a[2])
        assert b.fredholm_index(level=24) == 0
        assert block_levels == [24, 29]
        cols.clear()
        assert ops.fredholm_index(op, level=24) == -1
        assert cols == [24, 29]

    def test_block_transversality_levels_are_one_step_apart(self, monkeypatch):
        b = ops.block_lower_triangular(ops.identity(), ops.rank_one(0, 0, 2.0), ops.identity())
        rows1 = self.record(monkeypatch, ops, "_sum_basis", lambda a: a[2])  # the level, for identity F
        assert ops.block_is_transversal(b, sub.coordinate_span(2), sub.coordinate_span(1))
        assert rows1 == [2 + 8, 2 + 8 + 5]

    def test_every_decision_reads_the_patched_levels(self, monkeypatch):
        m, s = 11, 3
        monkeypatch.setattr(linalg, "LEVEL_MARGIN", m)
        monkeypatch.setattr(linalg, "LEVEL_STEP", s)
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, ops.rank_one(0, 0, 5.0), ops.identity())  # bound 1
        b2 = ops.block_lower_triangular(ops.identity(), ops.rank_one(0, 0, 2.0), ops.identity())
        op, ident = ops.shift_op(1), ops.identity()  # bounds 2 and 0
        v1, v2, v3 = sub.coordinate_span(2), sub.coordinate_span(1), sub.coordinate_span(3)

        cols = self.record(monkeypatch, ops.SequenceOperator, "to_dense", lambda a: a[1:])
        assert ops.fredholm_index(op) == -1
        assert [c for _, c in cols] == [2 + m, 2 + m + s]
        cols.clear()
        ops.transversality_witness(ident, v1, e(0))  # bound max(2, 1 + 0)
        assert [r for r, _ in cols] == [2 + m]

        levels = self.record(monkeypatch, ops.BlockOperator, "stacked_dense", lambda a: a[1])
        assert b.fredholm_index() == 0
        assert levels == [1 + m, 1 + m + s]

        rows = self.record(monkeypatch, ops, "_surjectivity_rank_ok", lambda a: a[2])
        assert ops.is_transversal(ident, v1)
        assert rows == [2 + m, 2 + m + s]

        rows1 = self.record(monkeypatch, ops, "_sum_basis", lambda a: a[2])
        assert ops.block_is_transversal(b2, v1, v2)
        assert rows1 == [2 + m, 2 + m + s]

        basis = self.record(monkeypatch, sub.SubspaceBasis, "basis_matrix", lambda a: a[1])
        assert v3.verify()
        assert basis == [3 + m] * 2 + [3 + m + s] * 2


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

    @staticmethod
    def _random_instance(rng):
        """The retraction suite's instance: GL_K diagonals, coupling 3 x finite rank."""
        return ops.block_lower_triangular(
            suites._random_glk(rng), suites._random_finite_rank(rng).scale(3.0), suites._random_glk(rng)
        )

    def test_stack_matches_path_at_every_t(self):
        ts = np.linspace(0.0, 1.0, 11)
        for level in (8, 12):
            rng = np.random.default_rng(5)
            for b in [self._sample()] + [self._random_instance(rng) for _ in range(12)]:
                stack, r1, r2 = ops.retraction_stack(b, ts, level)
                assert stack.shape[0] == ts.size
                for k, t in enumerate(ts):
                    a, s1, s2 = ops.retraction_path(b, float(t)).stacked_dense(level)
                    assert (s1, s2) == (r1, r2)
                    assert np.array_equal(stack[k], a)
                    assert stack[k].tobytes() == a.tobytes()  # signed zeros too

    def test_stack_domain_error(self):
        for ts in ([0.0, 1.5], [-0.1], [0.5, np.nan]):
            with pytest.raises(DomainError):
                ops.retraction_stack(self._sample(), ts, 8)

    def test_stack_needs_glk_diagonals(self):
        singular = ops.SequenceOperator(0, 1, np.zeros((1, 1)))
        for b in (
            ops.block_lower_triangular(singular, ops.rank_one(0, 0, 1.0), ops.identity()),
            ops.block_lower_triangular(ops.identity(), ops.rank_one(0, 0, 1.0), ops.shift_op(1)),
        ):
            with pytest.raises(NotGLK):
                ops.retraction_stack(b, [0.0, 1.0], 8)

    @staticmethod
    def _grid_min(b):
        """Independent oracle: min sigma_min / sigma_max over the 101 path matrices."""
        want = np.inf
        for t in np.linspace(0.0, 1.0, 101):
            a, _, _ = ops.retraction_path(b, float(t)).stacked_dense(12)
            s = np.linalg.svd(a, compute_uv=False)
            want = min(want, float(s[-1] / s[0]))
        return want

    @pytest.mark.parametrize(
        "seed, samples",
        [
            pytest.param(42, 8, id="42"),
            pytest.param(7, 8, id="7"),
            pytest.param(42, 256, id="42-256"),
            pytest.param(31337, 256, id="31337-256"),
        ],
    )
    def test_suite_matches_per_t_loop(self, seed, samples):
        config = SuiteConfig("retraction", seed=seed, samples=samples)
        got = suites.run_suite(config).checks[0].residuals["min_singular_ratio"]
        rng = rng_for(config, 0)
        assert got == min(self._grid_min(self._random_instance(rng)) for _ in range(config.samples))

    @staticmethod
    def _squeezed(f, det):
        """The GL_K diagonal ``f``, its window rescaled along its weakest
        singular direction to |det| = ``det`` when one is given."""
        if det is None:
            return f
        u, s, vh = np.linalg.svd(f.block)
        s[-1] *= det / np.prod(s)
        return ops.SequenceOperator(0, f.window, (u * s) @ vh)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.none(), st.floats(-3.0, 0.0)),
        st.one_of(st.none(), st.floats(-3.0, 0.0)),
    )
    def test_bound_below_ratio_at_every_grid_point(self, seed, log_det1, log_det2):
        rng = np.random.default_rng(seed)
        f = self._squeezed(suites._random_glk(rng), None if log_det1 is None else 10.0**log_det1)
        p = suites._random_finite_rank(rng).scale(3.0)
        f2 = self._squeezed(suites._random_glk(rng), None if log_det2 is None else 10.0**log_det2)
        b = ops.block_lower_triangular(f, p, f2)
        (bound,) = ops.retraction_ratio_bound([b], 12)
        stack, _, _ = ops.retraction_stack(b, np.linspace(0.0, 1.0, 101), 12)
        s = np.linalg.svd(stack, compute_uv=False)
        assert 0.0 < bound <= np.min(s[:, -1] / s[:, 0])

    def test_bound_of_a_non_square_truncation_is_zero(self):
        shifted = ops.block_lower_triangular(ops.shift_op(1), ops.rank_one(0, 0, 1.0), ops.identity())
        bounds = ops.retraction_ratio_bound([self._sample(), shifted], 12)
        assert bounds[0] > 0.0 and bounds[1] == 0.0

    def test_bound_needs_invertible_diagonals(self):
        singular = ops.SequenceOperator(0, 1, np.zeros((1, 1)))
        with pytest.raises(NotGLK):
            ops.retraction_ratio_bound([ops.block_lower_triangular(singular, ops.rank_one(0, 0, 1.0), ops.identity())], 12)

    def test_suite_decides_each_diagonal_once_per_instance(self, monkeypatch):
        ranks, grids = [], []
        rank, stack = linalg.rank, ops.retraction_stack
        monkeypatch.setattr(linalg, "rank", lambda a: ranks.append(a.shape) or rank(a))
        monkeypatch.setattr(ops, "retraction_stack", lambda *a: grids.append(a) or stack(*a))
        config = SuiteConfig("retraction", seed=42, samples=64)
        assert suites.run_suite(config).checks[0].status == "pass"
        # one is_glk rank per diagonal for both endpoints, and again per grid built
        assert len(ranks) == 2 * (config.samples + len(grids))

    def test_paths_decide_once_and_keep_the_domain_checks(self, monkeypatch):
        b = self._sample()
        glk, seen = ops.is_glk, []
        monkeypatch.setattr(ops, "is_glk", lambda op: seen.append(op) or glk(op))
        paths = ops.retraction_paths(b, (0.0, 0.5, 1.0))
        assert len(seen) == 2
        for t, bt in zip((0.0, 0.5, 1.0), paths):
            want = ops.retraction_path(b, t)
            assert bt.F == want.F and bt.P == want.P and bt.F2 == want.F2
        with pytest.raises(DomainError):
            ops.retraction_paths(b, (0.0, 1.5))
        shifted = ops.block_lower_triangular(ops.shift_op(1), ops.rank_one(0, 0, 1.0), ops.identity())
        with pytest.raises(NotGLK):
            ops.retraction_paths(shifted, (0.0,))

    def test_suite_builds_few_grids(self, monkeypatch):
        calls = []
        stack = ops.retraction_stack
        monkeypatch.setattr(ops, "retraction_stack", lambda *a: calls.append(a) or stack(*a))
        check = suites.run_suite(SuiteConfig("retraction", seed=42, samples=256)).checks[0]
        assert check.status == "pass"
        assert 1 <= len(calls) <= 8

    def test_minimiser_drawn_last_is_not_skipped(self, monkeypatch):
        """The last instance drawn gets a nearly singular F2 and sets the
        minimum, which pruning must still reach."""
        config = SuiteConfig("retraction", seed=42, samples=16)
        draws = []
        glk = suites._random_glk

        def planted(rng):
            draws.append(None)
            return self._squeezed(glk(rng), 1e-3 if len(draws) == 2 * config.samples else None)

        monkeypatch.setattr(suites, "_random_glk", planted)
        got = suites.run_suite(config).checks[0].residuals["min_singular_ratio"]
        monkeypatch.setattr(suites, "_random_glk", glk)
        rng = rng_for(config, 0)
        minima = []
        for k in range(config.samples):
            f = suites._random_glk(rng)
            p = suites._random_finite_rank(rng).scale(3.0)
            f2 = self._squeezed(suites._random_glk(rng), 1e-3 if k == config.samples - 1 else None)
            minima.append(self._grid_min(ops.block_lower_triangular(f, p, f2)))
        assert got == minima[-1] < min(minima[:-1])


class TestRandomInstances:
    @pytest.mark.parametrize("shift", [-3, -1, 0, 2, 3])
    def test_shifted_instance_is_one_construction_of_the_sum(self, shift, monkeypatch):
        built = []
        init = ops.SequenceOperator.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        rng = np.random.default_rng(5)
        with monkeypatch.context() as m:
            m.setattr(ops.SequenceOperator, "__init__", counted)
            got = [suites._random_shifted(rng, shift) for _ in range(40)]
        assert len(built) == len(got)
        # the same draws, summed by the operator algebra: bit for bit the same canonical form
        rng = np.random.default_rng(5)
        for t in got:
            block = suites._random_block(rng, int(rng.integers(0, 4)) + 1)
            assert t == ops.shift_op(shift) + ops.finite_rank(block)

    def test_bounded_instance_is_one_construction_of_the_scaled_sum(self, monkeypatch):
        built = []
        init = ops.SequenceOperator.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        rng = np.random.default_rng(11)
        got = []
        with monkeypatch.context() as m:
            m.setattr(ops.SequenceOperator, "__init__", counted)
            for _ in range(60):
                before = len(built)
                got.append(suites._random_bounded(rng))
                assert len(built) == before + 1
        # the same draws, scaled after they are built: bit for bit the same canonical form
        rng = np.random.default_rng(11)
        kinds = set()
        for t in got:
            kind = int(rng.integers(0, 3))
            kinds.add(kind)
            if kind == 0:
                want = suites._random_finite_rank(rng)
            elif kind == 1:
                shift = int(rng.integers(-2, 3))
                want = suites._random_shifted(rng, shift).scale(float(rng.uniform(0.2, 2.0)))
            else:
                want = suites._random_glk(rng)
            assert t == want
        assert kinds == {0, 1, 2}


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

    def test_decision_builds_no_certificate(self, monkeypatch):
        # the verdict is the rank test alone: no preimage is built or verified
        def refuse(self):
            raise AssertionError("is_transversal verified a complement")

        monkeypatch.setattr(sub.ComplementedSubspace, "verify", refuse)
        assert ops.is_transversal(ops.shift_op(-1), sub.coordinate_span(2))
        assert not ops.is_transversal(ops.SequenceOperator(0, 2, np.zeros((2, 2))), sub.coordinate_span(1))

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


def assert_spans_kernel(a, u):
    """The columns of ``u`` lie in ker(a) and span all of it."""
    assert np.max(np.abs(a @ u), initial=0.0) <= 1e-9
    assert np.linalg.matrix_rank(u) == a.shape[1] - np.linalg.matrix_rank(a)


@st.composite
def transversality_instances(draw):
    """(raw, T, n, V = E_n) in the style of ``suites._transversal_instance``:
    T drawn by ``raw_operators`` and n from 0 to window + max(shift, 0) + 3,
    so V may be too small to close the gap T leaves, and a zero tail is never
    transversal to a finite span."""
    raw = draw(raw_operators())
    t = ops.SequenceOperator(*raw)
    n = draw(st.integers(0, t.window + max(t.shift, 0) + 3))
    return raw, t, n, sub.coordinate_span(n)


class TestTransversalityDecision:
    """One decision behind is_transversal, preimage_with_complement and the
    block preimage: each returns its verified preimage exactly when the
    decision says yes."""

    @settings(max_examples=120, deadline=None)
    @given(inst=transversality_instances())
    def test_preimage_returns_exactly_when_transversal(self, inst):
        raw, t, n, v = inst
        decided = ops.is_transversal(t, v)
        try:
            pre = ops.preimage_with_complement(t, v)
        except NotTransversal:
            assert not decided
            return
        assert decided and pre.verify()
        # oracle: T^-1(E_n) is the kernel of the rows of T from n on, at a
        # truncation deep enough to hold every preimage vector
        level = 24
        assert_spans_kernel(oracle(raw, level + 11, level)[n:], pre.space.basis_matrix(level))

    @settings(max_examples=60, deadline=None)
    @given(f=transversality_instances(), f2=transversality_instances(), p=raw_operators())
    def test_block_preimage_raises_exactly_when_a_decision_fails(self, f, f2, p):
        (raw1, t1, n1, v1), (raw2, t2, n2, v2) = f, f2
        b = ops.block_lower_triangular(t1, ops.SequenceOperator(*p), t2)
        decided = (
            ops.block_is_transversal(b, v1, v2)
            and ops.is_transversal(t1, v1)
            and ops.is_transversal(t2, v2)
        )
        try:
            pre = ops.block_preimage_with_complement(b, v1, v2)
        except NotTransversal:
            assert not decided
            return
        assert decided and pre.verify()
        # oracle: the preimage of E_n1 (+) E_n2 is the kernel of the rows of
        # [[F, 0], [P, F2]] outside the two spans; factor-1 coordinate i sits
        # at 2i of the interleaved space, factor-2 coordinate i at 2i + 1
        level, rows = 32, 43
        a = np.zeros((2 * rows, 2 * level))
        a[:rows, :level] = oracle(raw1, rows, level)
        a[rows:, :level] = oracle(p, rows, level)
        a[rows:, level:] = oracle(raw2, rows, level)
        a = np.delete(a, [*range(n1), *range(rows, rows + n2)], axis=0)
        u = pre.space.basis_matrix(2 * level)
        assert_spans_kernel(a, np.vstack([u[0::2], u[1::2]]))


def preimage_matrix(t, v):
    """The head matrix (I - P_V) T whose kernel ``preimage_with_complement``
    takes, at the truncations it uses."""
    head, _ = ops._preimage_head(t, v)
    rows = max(t.output_rows(head), v.space.support_bound(), 1)
    return ops._off_subspace(t.to_dense(rows, head), v.space.basis_matrix(rows)), head


class TestOneFactorisation:
    """The preimage's kernel and its complement come from one SVD."""

    @settings(max_examples=120, deadline=None)
    @given(inst=transversality_instances())
    def test_complement_is_the_kernels_orthogonal_complement(self, inst):
        _, t, _, v = inst
        off, head = preimage_matrix(t, v)
        kernel, comp = linalg.kernel_with_complement(off)
        # reference: the complement as a second SVD takes it
        ref = linalg.nullspace(kernel.T if kernel.size else np.zeros((0, head)))
        assert np.allclose(comp @ comp.T, ref @ ref.T, rtol=0.0, atol=1e-10)
        q = np.hstack([kernel, comp])
        assert q.shape == (head, head)
        assert np.allclose(q.T @ q, np.eye(head), rtol=0.0, atol=1e-12)
        try:
            pre = ops.preimage_with_complement(t, v)
        except NotTransversal:
            return
        stored = linalg.orthonormalize(pre.complement.basis_matrix(head))
        assert np.allclose(stored @ stored.T, ref @ ref.T, rtol=0.0, atol=1e-10)

    def test_empty_matrix(self):
        kernel, comp = linalg.kernel_with_complement(np.zeros((0, 3)))
        assert np.array_equal(kernel, np.eye(3)) and comp.shape == (3, 0)
        assert np.array_equal(linalg.nullspace(np.zeros((0, 3))), kernel)

    @staticmethod
    def _instances():
        yield ops.identity() + ops.rank_one(0, 1, 1.0), sub.coordinate_span(2)
        yield ops.shift_op(-1), sub.coordinate_span(2)
        rng = np.random.default_rng(3)
        for _ in range(12):
            yield suites._transversal_instance(rng)

    def test_preimage_makes_one_svd_past_its_decision_and_verification(self, monkeypatch):
        calls = count_svds(monkeypatch)
        seen = 0
        for t, v in self._instances():
            del calls[:]
            decided = ops.is_transversal(t, v)
            n_decide = len(calls)
            if not decided:
                continue
            del calls[:]
            pre = ops.preimage_with_complement(t, v)
            n_pre = len(calls)
            del calls[:]
            assert pre.verify()
            n_verify = len(calls)
            # the decision, one orthonormal basis of V, one SVD for the kernel
            # and its complement, and the verification
            assert n_pre == n_decide + 1 + 1 + n_verify
            seen += 1
        assert seen >= 8


class TestBlockTransversalitySuite:
    CONFIG = SuiteConfig("block-transversality", samples=8)

    def test_each_decision_once_per_instance(self, monkeypatch):
        calls = {"factor": 0, "block": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ops, "preimage_with_complement", counted("factor", ops.preimage_with_complement))
        monkeypatch.setattr(ops, "block_is_transversal", counted("block", ops.block_is_transversal))
        (check,) = suites.suite_block_transversality(self.CONFIG)
        assert check.passed  # all 8 instances transversal
        assert calls == {"factor": 2 * 8, "block": 8}

    def test_a_complement_that_fails_to_verify_is_reported(self, monkeypatch):
        monkeypatch.setattr(sub.ComplementedSubspace, "verify", lambda self: False)
        with pytest.raises(ComplementFailure):
            ops.preimage_with_complement(ops.identity(), sub.coordinate_span(2))
        (check,) = suites.suite_block_transversality(self.CONFIG)
        assert not check.passed
        assert check.residuals["complements_verified"] is False
        assert check.residuals["failures"] == 0

    def test_one_bad_witness_is_one_failure(self, monkeypatch):
        witness = ops.block_transversality_witness
        seen = [0]

        def spoil_first(*args, **kwargs):
            (x1, x2), (w1, w2) = witness(*args, **kwargs)
            seen[0] += 1
            if seen[0] == 1:
                w1 = linalg.pad_to(w1, max(w1.size, 1)) + 1.0
            return (x1, x2), (w1, w2)

        monkeypatch.setattr(ops, "block_transversality_witness", spoil_first)
        (check,) = suites.suite_block_transversality(self.CONFIG)
        assert not check.passed
        assert check.residuals["failures"] == 1
        assert check.residuals["max_witness_residual"] >= 1.0


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


class TestBasisMatrix:
    @staticmethod
    def oracle(basis, level):
        """Column by column: each column of the block zero-padded, then e_i
        for every tail coordinate below the level."""
        cols = []
        for v in basis.block.T:
            col = np.zeros(level)
            col[: v.size] = v
            cols.append(col)
        for i in range(basis.tail_start if basis.tail_start is not None else level, level):
            cols.append(e(i, level))
        return np.column_stack(cols) if cols else np.zeros((level, 0))

    @pytest.mark.parametrize(
        "basis",
        [
            sub.SubspaceBasis(None, columns([1.0, 2.0], [0.0, 0.0, 3.0], [0.5])),
            sub.SubspaceBasis(None, []),
            sub.SubspaceBasis(4, columns([1.0, 0.0, -1.0])),
            sub.SubspaceBasis(0, []),
            sub.SubspaceBasis(9, columns([0.0, 2.0])),
            sub.SubspaceBasis(6, []),
        ],
    )
    def test_matches_loop_oracle(self, basis):
        for level in (3, 6, 8):
            got = basis.basis_matrix(level)
            want = self.oracle(basis, level)
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_overlong_vector_is_a_value_error(self):
        with pytest.raises(ValueError):
            sub.SubspaceBasis(2, columns([0.0, 0.0, 0.0, 1.0])).basis_matrix(3)

    def test_trailing_zeros_and_zero_vectors_are_trimmed(self):
        # [1, 0, 2, 0, 0] keeps three rows, the zero vector goes, order stays
        basis = sub.SubspaceBasis(None, columns([0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0, 0.0], [0.0, -1.0]))
        assert basis.support_bound() == 3
        assert np.array_equal(basis.basis_matrix(3), [[1.0, 0.0], [0.0, -1.0], [2.0, 0.0]])
        assert np.array_equal(basis.basis_matrix(5), self.oracle(basis, 5))
        with pytest.raises(ValueError):  # the third coordinate is nonzero
            basis.basis_matrix(2)
        assert sub.SubspaceBasis(4, columns([0.0, 0.0])).support_bound() == 4
        assert sub.SubspaceBasis(None, np.zeros((6, 3))).basis_matrix(2).shape == (2, 0)

    def test_svd_column_block(self):
        a = np.array([[1.0, -2.0, 0.5, 0.0], [0.0, 1.0, 1.0, 3.0]])
        kernel, rows = linalg.kernel_with_complement(a)
        basis = sub.SubspaceBasis(4, kernel)
        assert basis.support_bound() == 4
        got = basis.basis_matrix(7)
        assert np.array_equal(got[:4, :2], kernel) and np.array_equal(got[4:, 2:], np.eye(3))
        assert not got[4:, :2].any() and not got[:4, 2:].any()
        assert np.allclose(a @ got[:4, :2], 0.0, atol=1e-12)
        assert np.array_equal(sub.SubspaceBasis(None, rows).basis_matrix(6), self.oracle(sub.SubspaceBasis(None, rows), 6))

    def test_tail_start_beyond_the_level(self):
        basis = sub.SubspaceBasis(10, columns([0.0, 1.0], [1.0, 1.0, 1.0]))
        got = basis.basis_matrix(5)  # no tail column below the level
        assert np.array_equal(got, columns([0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0]))
        assert basis.support_bound() == 10
        with pytest.raises(ValueError):
            basis.basis_matrix(2)


def same_basis(got: sub.ComplementedSubspace, want: sub.ComplementedSubspace) -> bool:
    """Equal tail starts and equal basis matrices one coordinate beyond
    every support bound, for both halves: the same basis, vector for vector."""
    halves = ((got.space, want.space), (got.complement, want.complement))
    level = 1 + max(h.support_bound() for pair in halves for h in pair)
    return all(
        g.tail_start == w.tail_start and np.array_equal(g.basis_matrix(level), w.basis_matrix(level))
        for g, w in halves
    )


class TestSubspaceMaps:
    """The maps of complemented subspaces against bases written out by hand."""

    def test_interleave(self):
        v = sub.ComplementedSubspace(sub.SubspaceBasis(None, columns([1.0, 2.0])), sub.SubspaceBasis(1, []))
        w = sub.coordinate_span(2)
        got = sub.interleave_subspaces(v, w)
        # v at the even coordinates, w at the odd; the complements' tails
        # start at 2 * 1 and 2 * 2 + 1, so the joint tail starts at 5 and the
        # even coordinates 2 and 4 below it are stragglers
        want = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0, 0.0, 2.0], [0.0, 1.0], [0.0, 0.0, 0.0, 1.0])),
            sub.SubspaceBasis(5, columns([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0])),
        )
        assert same_basis(got, want)
        assert got.verify()

    def test_prepend_then_drop(self):
        # span{e_0 + 3 e_2} against span{e_1} + the tail from 2
        v = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0, 0.0, 3.0])), sub.SubspaceBasis(2, columns([0.0, 1.0]))
        )
        got = sub.prepend_coordinate(v)
        want = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([0.0, 1.0, 0.0, 3.0], [1.0])),
            sub.SubspaceBasis(3, columns([0.0, 0.0, 1.0])),
        )
        assert same_basis(got, want)
        assert v.verify() and got.verify()
        assert same_basis(sub.drop_first_coordinate(got), v)

    def test_image(self):
        # g = I + 2 e_0 e_1^T - e_3 e_0^T on the window of 4 coordinates
        g = ops.identity() + ops.rank_one(0, 1, 2.0) + ops.rank_one(3, 0, -1.0)
        got = sub.subspace_image(g, sub.coordinate_span(2))
        want = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0, 0.0, 0.0, -1.0], [2.0, 1.0])),
            # the tail from 2 inside the window: e_2, e_3 pushed, the tail from 4
            sub.SubspaceBasis(4, columns([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])),
        )
        assert same_basis(got, want)
        assert got.verify()


class TestInterleaving:
    def test_flatten_matches_stacked_rank_data(self):
        f = ops.identity() + ops.rank_one(0, 0, 1.0)
        b = ops.block_lower_triangular(f, ops.rank_one(0, 0, 2.0), ops.identity())
        assert b.fredholm_index() == 0

    def test_flatten_equal_shifts(self):
        b = ops.block_lower_triangular(ops.shift_op(1), ops.rank_one(0, 0, 1.0), ops.shift_op(1))
        assert b.fredholm_index() == -2

    def test_interleave_subspaces_roundtrip(self):
        v = sub.interleave_subspaces(sub.coordinate_span(2), sub.coordinate_span(3))
        assert v.verify()
        assert v.space.dim_at(12) == 5
