"""Every float rank decision against an exact rank oracle.

Every finite float is a dyadic rational, so a float matrix scaled by the
largest denominator among its entries is an integer matrix of the same
rank, and fraction-free Bareiss elimination on Python ints decides that
rank exactly (Bareiss, Math. Comp. 22, 1968).

The differential tests draw dyadic instances, the way ``suites._dyadic`` and
``test_operators.raw_operators`` draw them, whose float decisions should be
exact: the nonzero singular values stay well clear of the ``RANK_RTOL``
threshold.  They cover ``linalg.rank``, both branches of
``ComplementedSubspace.verify`` on Gram-certified stacks too, both ``fredholm_index``es, ``is_glk``,
``is_transversal`` and ``block_is_transversal``, and they compare each
certified preimage with the exact dense kernel.  The exact side lays
operators out with the test's own truncation ``test_operators.oracle``;
subspace columns come from ``SubspaceBasis.basis_matrix``, which
``test_operators.TestBasisMatrix`` checks against a loop.

Families with a planted rank deficiency perturbed by 2^-k show where the
float threshold parts from the exact answer: where the smallest nonzero
singular value falls below ``RANK_RTOL = 1e-8`` of the largest, at k = 27
when the two are 2^-k apart.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_operators import C_SCALE, columns, count_svds, oracle, raw_operators

from dnclab import linalg
from dnclab import operators as ops
from dnclab import subspaces as sub
from dnclab.errors import NotTransversal, StabilizationFailure


def integer_matrix(a) -> list[list[int]]:
    """``a`` times the largest denominator among its entries, as Python ints."""
    ratios = [[x.as_integer_ratio() for x in row] for row in np.atleast_2d(np.asarray(a, dtype=float)).tolist()]
    den = max((d for row in ratios for _, d in row), default=1)
    return [[n * (den // d) for n, d in row] for row in ratios]


def exact_rank(a) -> int:
    """Rank of the float matrix ``a`` in exact arithmetic: Bareiss
    elimination, every division exact, a column without a pivot skipped."""
    m = integer_matrix(a)
    rows = len(m)
    r, prev = 0, 1
    for c in range(len(m[0]) if rows else 0):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p, top = m[r][c], m[r]
        for i in range(r + 1, rows):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev, r = p, r + 1
        if r == rows:
            break
    return r


def fraction_rank(a) -> int:
    """Gaussian elimination over the rationals: the oracle's own oracle."""
    m = [[Fraction(x) for x in row] for row in np.atleast_2d(np.asarray(a, dtype=float)).tolist()]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def hadamard(p: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(p):
        h = np.block([[h, h], [h, -h]])
    return h


@st.composite
def signed_permutation(draw, n: int) -> np.ndarray:
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return np.eye(n)[list(perm)] * np.array(signs)


@st.composite
def sandwiched(draw, d_values):
    """(A, d): A = S1 H_m diag(d) H_n S2 with Hadamard H and signed
    permutations S; the products are exact in floats, and the singular
    values of A are exactly sqrt(m n) |d_i| and zeros."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(0, 3))
    m, n = 2**p, 2**q
    d = draw(st.lists(st.sampled_from(d_values), min_size=min(m, n), max_size=min(m, n)))
    core = np.zeros((m, n))
    core[range(len(d)), range(len(d))] = d
    a = draw(signed_permutation(m)) @ hadamard(p) @ core @ hadamard(q) @ draw(signed_permutation(n))
    return a, np.array(d)


# Nonzero values at least 2^-20 / 3 relative to the largest: 30 times the threshold.
CLEAR = [0.0, 0.0, 1.0, -1.0, 2.0, 3.0, -0.5, 2.0**-10, -(2.0**-20)]


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7))
    def test_bareiss_matches_rational_elimination(self, data, rows, cols):
        entries = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 3.0, -0.25, 2.0**-30])
        a = np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        assert exact_rank(a) == fraction_rank(a)

    def test_scaling_keeps_tiny_entries(self):
        # 2^-60 is below any float threshold but not zero
        assert exact_rank(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])) == 2
        assert exact_rank(np.array([[2.0**-60]])) == 1
        assert exact_rank(np.zeros((3, 2))) == 0


class TestRank:
    @settings(max_examples=60, deadline=None)
    @given(inst=sandwiched(CLEAR))
    def test_float_rank_is_exact_when_clear_of_the_threshold(self, inst):
        a, d = inst
        assert linalg.rank(a) == exact_rank(a) == np.count_nonzero(d)

    @pytest.mark.parametrize("p, q, r", [(1, 1, 1), (1, 3, 1), (2, 2, 3), (3, 1, 1), (3, 3, 5)])
    def test_planted_deficiency_parts_at_two_to_minus_27(self, p, q, r):
        # H_m diag(1, ..., 1, 2^-k, 0, ...) H_n with r ones: exactly rank
        # r + 1 for every k; the float rank drops back to r once 2^-k falls
        # below RANK_RTOL = 1e-8, that is from k = 27 on
        for k in (1, 8, 20, 26, 27, 30, 45):
            core = np.zeros((2**p, 2**q))
            core[range(r + 1), range(r + 1)] = [1.0] * r + [2.0**-k]
            a = hadamard(p) @ core @ hadamard(q)
            assert exact_rank(a) == r + 1
            assert linalg.rank(a) == (r + 1 if k <= 26 else r)


def rank_and_svds(a) -> tuple[int, int]:
    """``linalg.rank(a)`` and the number of SVDs it took."""
    with pytest.MonkeyPatch.context() as m:
        calls = count_svds(m)
        return linalg.rank(a), len(calls)


def outcome(rank, a):
    """``rank(a)``, or the class and message of the LinAlgError it raises."""
    try:
        return rank(a)
    except np.linalg.LinAlgError as exc:
        return type(exc), str(exc)


def svd_rule(a) -> int:
    """The rank the SVD alone decides, as ``linalg.rank`` did before its
    certificate."""
    return linalg._rank_of(linalg.singular_values(a))


@st.composite
def deficient(draw, kind: str, wide: bool) -> np.ndarray:
    """A dyadic matrix whose exact rank is below ``min(shape)``: a tall one
    with a duplicated column, a zero column or a factorisation through
    fewer columns, transposed when ``wide`` (a duplicated or zero row)."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n + (1 if wide else 0), 7))
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0, -0.25, 2.0**-10])

    def cells(r: int, c: int) -> np.ndarray:
        return np.array(draw(st.lists(entries, min_size=r * c, max_size=r * c))).reshape(r, c)

    if kind == "product":
        k = draw(st.integers(1, n - 1))
        a = cells(m, k) @ cells(k, n)
    else:
        a = cells(m, n)
        i, j = draw(st.permutations(range(n)))[:2]
        a[:, j] = a[:, i] if kind == "duplicate" else 0.0
    return a.T if wide else a


@st.composite
def planted_ratio(draw):
    """``(at, r)``: ``at(t)`` is S1 H_m diag(1, ..., 1, t) H_n S2 with
    r = min(m, n) >= 2 diagonal entries, exact in floats for t = 2^-k; its
    singular values are sqrt(m n), r - 1 times, and sqrt(m n) t, so
    σ_min/σ_max = t."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    left, right = draw(signed_permutation(2**p)), draw(signed_permutation(2**q))

    def at(t: float) -> np.ndarray:
        core = np.zeros((2**p, 2**q))
        n = min(2**p, 2**q)
        core[range(n), range(n)] = [1.0] * (n - 1) + [t]
        return left @ hadamard(p) @ core @ hadamard(q) @ right

    return at, min(2**p, 2**q)


class TestFullRankCertificate:
    """``linalg.rank`` returns ``min(shape)`` without an SVD when one
    Cholesky factorisation of the scaled Gram matrix, shifted down by
    ``CERTIFY_RTOL²`` times its trace, completes; that needs
    σ_min > CERTIFY_RTOL·‖a‖_F up to rounding, and any other matrix takes
    exactly one SVD."""

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("kind", ["duplicate", "zero", "product"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_never_certifies_a_deficient_matrix(self, kind, wide, data):
        a = data.draw(deficient(kind, wide))
        assert exact_rank(a) < min(a.shape)
        r, svds = rank_and_svds(a)
        assert r == svd_rule(a) < min(a.shape)
        assert svds == 1

    @settings(max_examples=30, deadline=None)
    @given(inst=planted_ratio())
    def test_certified_ranks_equal_the_svd_rule(self, inst):
        # t = 2^-k for k = 10 .. 32 crosses CERTIFY_RTOL = 1e-6 (about
        # 2^-20 against ‖a‖_F) and RANK_RTOL = 1e-8 (between 2^-27 and
        # 2^-26 against σ_max); only a ratio clear of the first skips the SVD
        at, n = inst
        c = linalg.CERTIFY_RTOL
        for k in range(10, 33):
            a = at(2.0**-k)
            r, svds = rank_and_svds(a)
            assert exact_rank(a) == n
            assert r == svd_rule(a) == (n if k <= 26 else n - 1)
            ratio = 2.0**-k / np.sqrt(n - 1 + 4.0**-k)  # σ_min / ‖a‖_F
            if ratio >= 2 * c:
                assert svds == 0
            elif ratio <= c / 2:
                assert svds == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 2)])
    def test_non_finite_entries_take_the_svd(self, bad, cell):
        # the scale max|a| is not finite, so no Gram matrix is formed (the
        # Cholesky factorisation of a NaN Gram matrix need not raise); the
        # SVD raises on a NaN, and the rank rule on the NaNs an infinity gives
        a = np.eye(3, 4)
        a[cell] = bad
        assert outcome(linalg.rank, a) == outcome(svd_rule, a)

    @pytest.mark.parametrize("decide", [linalg.rank, linalg.nullspace, linalg.orthonormalize, linalg.kernel_with_complement])
    @pytest.mark.parametrize("a", [np.array([[np.inf, 0.0], [0.0, 1.0]]), np.full((2, 3), -np.inf)], ids=["one", "all"])
    def test_infinite_entries_raise(self, decide, a):
        # the SVD of an infinity returns NaNs, which no threshold counts: a
        # rank, kernel or basis read from them would be silently empty
        with pytest.raises(np.linalg.LinAlgError):
            decide(a)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_give_the_svd_rank(self, scale):
        # the Gram matrix is formed after scaling by max|a|, so it neither
        # overflows nor underflows into a RuntimeWarning (filterwarnings =
        # error would fail the test)
        full = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]])
        duplicated = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        for a in (full, full.T, duplicated, np.diag([1.0, 2.0**-10, 3.0])):
            assert linalg.rank(scale * a) == svd_rule(scale * a) == exact_rank(a)
        mixed = np.diag([1e200, 1e-200])
        assert linalg.rank(mixed) == svd_rule(mixed) == 1

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5)])
    def test_zero_matrix_has_rank_zero(self, shape):
        # no scale to divide by: the SVD decides it
        assert rank_and_svds(np.zeros(shape)) == (0, 1)


def clear_of_threshold(a: np.ndarray, scale: float | None = None) -> bool:
    """No nonzero singular value of ``a`` within three decades of the
    threshold ``RANK_RTOL * scale`` (by default ``σ_max``), where a float
    decision could part from the exact one."""
    if a.size == 0:
        return True
    s = linalg.singular_values(a)
    s = s[s > 0]
    scale = s[0] if scale is None and s.size else scale
    return s.size == 0 or bool(np.all(np.abs(np.log10(s / (linalg.RANK_RTOL * scale))) > 3))


def unit_triangular(draw, n: int, upper: bool) -> np.ndarray:
    """A dyadic unit triangular matrix, invertible in exact arithmetic."""
    entries = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0])
    t = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            t[(i, j) if upper else (j, i)] = draw(entries)
    return t


class TestFredholmCutRank:
    """``filtration._check_level_samples`` decides transversality to a flag
    level with orthonormal basis B from ``linalg.rank_modulo(a, N)``, the
    rank of Nᵀa with N spanning the complement of B:
    rank([a B]) = dim B + rank(Nᵀa).
    Against a coordinate level, Nᵀa is exactly the rows of ``a`` below
    dim B, up to a rotation; against a rotated level, a map into the level
    leaves rounding noise in Nᵀa."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 7), cols=st.integers(1, 7))
    def test_cut_rank_decides_transversality(self, data, rows, cols):
        entries = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 3.0, -0.25])
        a = np.array(data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        k = data.draw(st.integers(0, rows))
        b = sub.coordinate_span(k).space.basis_matrix(rows)
        assert exact_rank(np.hstack([a, b])) == k + exact_rank(a[k:])
        basis = linalg.orthonormalize(b)
        normal = linalg.nullspace(basis.T)
        cut, stack = normal.T @ a, np.hstack([a, basis])
        assume(clear_of_threshold(cut, np.hypot(1.0, np.linalg.norm(a))) and clear_of_threshold(stack))
        r = linalg.rank_modulo(a, normal)
        assert r == exact_rank(a[k:])
        transverse = exact_rank(np.hstack([a, b])) == rows
        assert (r == normal.shape[1]) == (linalg.rank(stack) == rows) == transverse

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(2, 7), cols=st.integers(1, 7))
    def test_map_into_a_rotated_level_is_not_transverse(self, data, rows, cols):
        # B spans the first k columns of a dyadic invertible L U, and a = B c
        # maps into span B, so exactly rank([a B]) = k < rows; N^T a is
        # rounding noise alone, which rank_modulo must count as nothing
        k = data.draw(st.integers(1, rows - 1))
        g = unit_triangular(data.draw, rows, upper=False) @ unit_triangular(data.draw, rows, upper=True)
        entries = st.sampled_from([1.0, -1.0, 0.5, 3.0, -0.25])
        c = np.array(data.draw(st.lists(entries, min_size=k * cols, max_size=k * cols))).reshape(k, cols)
        b = g[:, :k]
        a = b @ c
        assert exact_rank(np.hstack([a, b])) == k
        basis = linalg.orthonormalize(b)
        normal = linalg.nullspace(basis.T)
        assert normal.shape[1] == rows - k
        assert linalg.rank_modulo(a, normal) == 0
        assert linalg.rank(np.hstack([a, basis])) == k


def three_rank_verify(cs: sub.ComplementedSubspace, exact: bool, margin: int = 5) -> bool:
    """The direct-sum test with all three ranks at both levels."""
    rank = exact_rank if exact else linalg.rank
    bound = max(cs.space.support_bound(), cs.complement.support_bound(), 1)
    for level in (bound + margin, bound + 2 * margin):
        a, b = cs.space.basis_matrix(level), cs.complement.basis_matrix(level)
        if rank(a) + rank(b) != level or rank(np.hstack([a, b])) != level:
            return False
    return True


# Entries in (1/2)Z of size at most 2 on at most 4 head coordinates: a
# nonzero r x r minor is at least 2^-r, which keeps the nonzero singular
# values of a head block above 2^-4 / 8^3 against a largest of at most 8.
HEAD = [0.0, 0.0, 1.0, -1.0, 0.5, -0.5, 2.0]


@st.composite
def dyadic_pairs(draw, w_max: int = 4, entries=st.sampled_from(HEAD)):
    """Complemented pairs on at most ``w_max`` head coordinates: a finite
    span with a coordinate-tail complement (or the reverse), each side with
    dyadic vectors.  Columns may be too few, exactly the level, or more."""
    w = draw(st.integers(1, w_max))
    count = draw(st.integers(0, w + 2))
    vecs = [np.array(draw(st.lists(entries, min_size=w, max_size=w))) for _ in range(count)]
    split = draw(st.integers(0, count))
    tail = draw(st.integers(max(0, w - 1), w + 1))
    finite, cofinite = sub.SubspaceBasis(None, columns(*vecs[:split])), sub.SubspaceBasis(tail, columns(*vecs[split:]))
    if draw(st.booleans()):
        return sub.ComplementedSubspace(finite, cofinite)
    return sub.ComplementedSubspace(cofinite, finite)


# the entries of suites._dyadic, and zeros
SUITE_ENTRIES = st.one_of(st.just(0.0), st.integers(-(2**16), 2**16 - 1).map(lambda i: i / 2.0**8))


def columns_at_levels(cs: sub.ComplementedSubspace) -> set[str]:
    bound = max(cs.space.support_bound(), cs.complement.support_bound(), 1)
    kinds = set()
    for level in (bound + 5, bound + 10):
        k = cs.space.basis_matrix(level).shape[1] + cs.complement.basis_matrix(level).shape[1]
        kinds.add("few" if k < level else "square" if k == level else "many")
    return kinds


@pytest.fixture
def rank_calls(monkeypatch):
    """The number of linalg.rank calls made so far, as a one-element list."""
    calls = [0]
    rank = linalg.rank

    def counted(*args, **kwargs):
        calls[0] += 1
        return rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "rank", counted)
    return calls


class TestVerify:
    """``verify`` makes one rank test per level when the columns are at most
    the level, and three when they are more; a well-conditioned stack, such
    as an orthonormal one, takes no SVD."""

    @settings(max_examples=80, deadline=None)
    @given(cs=dyadic_pairs())
    def test_verify_is_exact(self, cs):
        assert cs.verify() == three_rank_verify(cs, exact=True)

    @settings(max_examples=80, deadline=None)
    @given(cs=st.one_of(dyadic_pairs(), dyadic_pairs(8, SUITE_ENTRIES)))
    def test_verify_equals_three_rank_reference(self, cs):
        assert cs.verify() == three_rank_verify(cs, exact=False)

    def test_drawn_pairs_reach_every_branch(self):
        seen: set[str] = set()

        @settings(max_examples=60, deadline=None)
        @given(cs=dyadic_pairs())
        def collect(cs):
            seen.update(columns_at_levels(cs))

        collect()
        assert seen == {"few", "square", "many"}

    def test_too_few_columns_fail_without_an_svd(self, monkeypatch):
        # span{e0} against the tail from 3 misses e1 and e2; the stack has
        # full column rank, which the certificate decides
        cs = sub.ComplementedSubspace(sub.SubspaceBasis(None, columns([1.0])), sub.SubspaceBasis(3, []))
        assert columns_at_levels(cs) == {"few"}
        svds = count_svds(monkeypatch)
        assert not cs.verify()
        assert svds == []
        assert not three_rank_verify(cs, exact=True)

    def test_square_pair_meeting_its_complement(self, rank_calls):
        # span{e0} against span{e0 + e2} + tail from 2: e0 in both, e1 in neither
        cs = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0])), sub.SubspaceBasis(2, columns([1.0, 0.0, 1.0]))
        )
        assert columns_at_levels(cs) == {"square"}
        assert not cs.verify()
        assert rank_calls[0] == 1
        assert not three_rank_verify(cs, exact=True)

    def test_square_pair_takes_one_rank_per_level(self, rank_calls, monkeypatch):
        # the stack is the identity at each level: the one rank of each
        # level is certified without an SVD
        cs = sub.coordinate_span(3)
        assert columns_at_levels(cs) == {"square"}
        svds = count_svds(monkeypatch)
        assert cs.verify()
        assert rank_calls[0] == 2
        assert svds == []

    def test_duplicated_vector_takes_the_three_rank_path(self, rank_calls):
        # span{e0, e0} against the tail from 1: a direct sum with one column
        # too many at each level
        cs = sub.ComplementedSubspace(sub.SubspaceBasis(None, columns([1.0], [1.0])), sub.SubspaceBasis(1, []))
        assert columns_at_levels(cs) == {"many"}
        assert cs.verify()
        assert rank_calls[0] == 6
        assert three_rank_verify(cs, exact=True)

    def test_overlap_with_a_spanning_sum_needs_three_ranks(self, rank_calls):
        # span{e0, e0 + e1} against the tail from 1: together they span, so
        # rank([a b]) == level alone would pass, but they meet in e1
        cs = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0], [1.0, 1.0])), sub.SubspaceBasis(1, [])
        )
        assert columns_at_levels(cs) == {"many"}
        assert not cs.verify()
        assert rank_calls[0] == 3
        assert not three_rank_verify(cs, exact=True)

    @pytest.mark.parametrize("k", [1, 10, 20, 25, 26, 40])
    def test_near_degenerate_square_pair(self, k):
        # span{e0 + 2^-k e1} against span{e0} + tail from 2: exactly a direct
        # sum for every k; the smallest singular value is about 2^-k / 2 of
        # the largest, so the float verdict flips below RANK_RTOL from k = 26
        cs = sub.ComplementedSubspace(
            sub.SubspaceBasis(None, columns([1.0, 2.0**-k])), sub.SubspaceBasis(2, columns([1.0]))
        )
        assert columns_at_levels(cs) == {"square"}
        assert three_rank_verify(cs, exact=True)
        assert cs.verify() == three_rank_verify(cs, exact=False) == (k <= 25)


# A signed permutation plus a perturbation in (1/4)Z of size at most 1/2,
# mostly zero: every entry lies in (1/4)Z with size at most 3/2, so on at
# most 5 coordinates a nonzero determinant is at least 4^-5 and the smallest
# nonzero singular value at least 4^-5 / 7.5^4, 4e-8 of the largest.
PERTURBATION = [0.0] * 6 + [0.25, -0.25, 0.5, -0.5]


@st.composite
def perturbed_orthonormal(draw, n_max: int = 5) -> np.ndarray:
    """A perturbed signed permutation; a quarter of them repeat a column,
    which makes them singular and sets their Gram defect past 1/2."""
    n = draw(st.integers(1, n_max))
    e = draw(st.lists(st.sampled_from(PERTURBATION), min_size=n * n, max_size=n * n))
    g = draw(signed_permutation(n)) + np.array(e).reshape(n, n)
    if n > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        g[:, j] = g[:, i]
    return g


def certified(g: np.ndarray) -> bool:
    """``‖gᵀg − I‖_F <= 1/2``, in exact arithmetic."""
    q = [[Fraction(x) for x in row] for row in g.tolist()]
    n = len(q)
    gram = [[sum(q[k][i] * q[k][j] for k in range(n)) - (i == j) for j in range(n)] for i in range(n)]
    return sum(x * x for row in gram for x in row) <= Fraction(1, 4)


def count_ranks(fn):
    """``fn()`` and the number of ``linalg.rank`` calls it made."""
    calls = [0]
    rank = linalg.rank

    def counted(*args, **kwargs):
        calls[0] += 1
        return rank(*args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "rank", counted)
        return fn(), calls[0]


class TestGramCertificate:
    """A square stack whose Gram defect is at most 1/2 has σ_min/σ_max at
    least 1/√3, so the rank certificate passes it without an SVD, and only
    where the exact rank passes it too; every square stack takes one rank a
    level."""

    @settings(max_examples=150, deadline=None)
    @given(g=perturbed_orthonormal(), data=st.data())
    def test_certified_levels_pass_the_exact_three_rank_rule(self, g, data):
        # the space takes the first j columns of g, the complement the rest
        # and the tail beyond g: each level's stack is g (+) I, of g's defect
        n = g.shape[0]
        j = data.draw(st.integers(0, n))
        cs = sub.ComplementedSubspace(sub.SubspaceBasis(None, g[:, :j]), sub.SubspaceBasis(n, g[:, j:]))
        assert columns_at_levels(cs) == {"square"}
        with pytest.MonkeyPatch.context() as m:
            svds = count_svds(m)
            verdict, calls = count_ranks(cs.verify)
        assert verdict == three_rank_verify(cs, exact=True)
        assert calls == (2 if verdict else 1)  # one rank a level; a failing first level ends the test
        if certified(g):
            assert verdict and svds == []

    def test_drawn_stacks_reach_every_side_of_the_bound(self):
        seen: set[str] = set()

        @settings(max_examples=150, deadline=None)
        @given(g=perturbed_orthonormal())
        def collect(g):
            if certified(g):
                seen.add("certified")
            else:
                seen.add("nonsingular" if exact_rank(g) == g.shape[0] else "singular")

        collect()
        assert seen == {"certified", "nonsingular", "singular"}


# -- index and structure group -----------------------------------------------------


def exact_counts(a_kernel: np.ndarray, a_cokernel: np.ndarray) -> tuple[int, int]:
    """(dim ker, dim coker): the kernel from a truncation with rows to hold
    every image, the cokernel from one with columns to reach every row."""
    return (
        a_kernel.shape[1] - exact_rank(a_kernel),
        a_cokernel.shape[0] - exact_rank(a_cokernel),
    )


def operator_counts(raw, depth: int) -> tuple[int, int]:
    return exact_counts(oracle(raw, depth + 11, depth), oracle(raw, depth, depth + 8))


def block_truncation(f, p, f2, rows: int, cols: int) -> np.ndarray:
    a = np.zeros((2 * rows, 2 * cols))
    a[:rows, :cols] = oracle(f, rows, cols)
    a[rows:, :cols] = oracle(p, rows, cols)
    a[rows:, cols:] = oracle(f2, rows, cols)
    return a


LIVE_TAIL = st.sampled_from([1.0, C_SCALE]).flatmap(lambda c: raw_operators(scale=c))


class TestIndex:
    @settings(max_examples=60, deadline=None)
    @given(raw=raw_operators())
    def test_fredholm_index_is_exact(self, raw):
        t = ops.SequenceOperator(*raw)
        (k, c), (k_deep, c_deep) = operator_counts(raw, 16), operator_counts(raw, 21)
        if t.tail_scale == 0.0:  # not Fredholm: the kernel grows with the truncation
            assert k_deep == k + 5
            with pytest.raises(StabilizationFailure):
                ops.fredholm_index(t)
            return
        assert (k, c) == (k_deep, c_deep)
        assert ops.fredholm_index(t) == k - c == -raw[0]

    @settings(max_examples=20, deadline=None)
    @given(f=LIVE_TAIL, p=raw_operators(), f2=LIVE_TAIL)
    def test_block_fredholm_index_is_exact(self, f, p, f2):
        b = ops.block_lower_triangular(*(ops.SequenceOperator(*raw) for raw in (f, p, f2)))
        indices = set()
        for depth in (16, 21):
            k, c = exact_counts(block_truncation(f, p, f2, depth + 11, depth), block_truncation(f, p, f2, depth, depth + 8))
            indices.add(k - c)
        assert indices == {-f[0] - f2[0]}
        assert b.fredholm_index() == -f[0] - f2[0]

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_operators())
    def test_is_glk_is_exact(self, raw):
        # identity tail and an invertible head, decided on a square truncation
        # deep enough that the block's rows below the window sit in the tail
        shift, _, _, scale = raw
        exact = shift == 0 and scale == 1.0 and exact_rank(oracle(raw, 12, 12)) == 12
        assert ops.is_glk(ops.SequenceOperator(*raw)) == exact

    @pytest.mark.parametrize("k", [1, 12, 26, 27, 40])
    def test_planted_singular_window(self, k):
        # H diag(1, 1, 1, 2^-k) H: invertible for every k, singular values
        # 4 and 4 * 2^-k, so the float test holds up to k = 26
        h = hadamard(2)
        raw = (0, 4, h @ np.diag([1.0, 1.0, 1.0, 2.0**-k]) @ h, 1.0)
        assert exact_rank(oracle(raw, 12, 12)) == 12
        assert ops.is_glk(ops.SequenceOperator(*raw)) == (k <= 26)


# -- transversality ----------------------------------------------------------------


def unipotent(cells, w: int) -> ops.SequenceOperator:
    """I + N with N strictly lower triangular on the first w coordinates:
    invertible, identity tail, dyadic entries."""
    n = np.zeros((w, w))
    n[np.tril_indices(w, -1)] = cells[: w * (w - 1) // 2]
    return ops.SequenceOperator(0, w, np.eye(w) + n)


@st.composite
def dyadic_targets(draw, n_max: int):
    """V = g(E_n) for a dyadic unipotent g, complemented by g of the tail."""
    n = draw(st.integers(0, n_max))
    w = draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -0.5, 0.25]), min_size=10, max_size=10))
    return sub.subspace_image(unipotent(cells, w), sub.coordinate_span(n))


def exact_surjective(a: np.ndarray, vb: np.ndarray) -> bool:
    return exact_rank(np.hstack([a, vb])) == a.shape[0]


def exact_transversal(raw, v: sub.ComplementedSubspace) -> bool:
    """im(T) + V is everything, decided exactly on the independent
    truncation at two depths (which must agree)."""
    verdicts = {exact_surjective(oracle(raw, rows, rows + 8), v.space.basis_matrix(rows)) for rows in (24, 31)}
    assert len(verdicts) == 1
    return verdicts.pop()


def preimage_dimension(raw, v: sub.ComplementedSubspace, level: int) -> int:
    """dim {x in the first ``level`` coordinates : T x in V}, exactly:
    nullity [A | V] - nullity V at a row count that holds every T x."""
    a = oracle(raw, level + 11, level)
    vb = v.space.basis_matrix(level + 11)
    return level - exact_rank(np.hstack([a, vb])) + exact_rank(vb)


class TestTransversality:
    @settings(max_examples=60, deadline=None)
    @given(raw=raw_operators(), v=dyadic_targets(7))
    def test_is_transversal_is_exact(self, raw, v):
        assert ops.is_transversal(ops.SequenceOperator(*raw), v) == exact_transversal(raw, v)

    @settings(max_examples=60, deadline=None)
    @given(raw=raw_operators(), v=dyadic_targets(7))
    def test_preimage_is_the_exact_kernel(self, raw, v):
        # the verified certificate is all of T^-1(V), not only a direct sum
        t = ops.SequenceOperator(*raw)
        try:
            pre = ops.preimage_with_complement(t, v)
        except NotTransversal:
            assert not exact_transversal(raw, v)
            return
        level = 24
        u = pre.space.basis_matrix(level)
        q = linalg.orthonormalize(v.space.basis_matrix(level + 11))
        image = oracle(raw, level + 11, level) @ u
        assert np.max(np.abs(image - q @ (q.T @ image)), initial=0.0) <= 1e-9
        assert linalg.rank(u) == u.shape[1] == preimage_dimension(raw, v, level)

    @settings(max_examples=40, deadline=None)
    @given(raw=raw_operators(), v=dyadic_targets(7))
    def test_preimage_certificate_verifies_without_an_svd(self, raw, v):
        # [kernel | complement | unit tail] is orthonormal by construction
        try:
            pre = ops.preimage_with_complement(ops.SequenceOperator(*raw), v)
        except NotTransversal:
            return
        with pytest.MonkeyPatch.context() as m:
            svds = count_svds(m)
            assert pre.verify()
        assert svds == []

    @settings(max_examples=30, deadline=None)
    @given(f=raw_operators(), f2=raw_operators(), p=raw_operators(), v1=dyadic_targets(6), v2=dyadic_targets(6))
    def test_block_is_transversal_is_exact(self, f, f2, p, v1, v2):
        b = ops.block_lower_triangular(*(ops.SequenceOperator(*raw) for raw in (f, p, f2)))
        verdicts = set()
        for rows in (18, 23):
            a = block_truncation(f, p, f2, rows, rows + 8)
            vb1, vb2 = v1.space.basis_matrix(rows), v2.space.basis_matrix(rows)
            vb = np.zeros((2 * rows, vb1.shape[1] + vb2.shape[1]))
            vb[:rows, : vb1.shape[1]], vb[rows:, vb1.shape[1] :] = vb1, vb2
            verdicts.add(exact_surjective(a, vb))
        assert len(verdicts) == 1
        assert ops.block_is_transversal(b, v1, v2) == verdicts.pop()

    @pytest.mark.parametrize("k", [1, 12, 26, 27, 40])
    def test_planted_near_singular_operator(self, k):
        # T = M (+) I with M = H diag(1, 1, 1, 2^-k) H on four coordinates,
        # V = 0 finite: exactly transversal (M invertible) for every k; the
        # float decision sees M's smallest singular value, 4 * 2^-k against
        # 4, fall below RANK_RTOL from k = 27 on
        h = hadamard(2)
        m = h @ np.diag([1.0, 1.0, 1.0, 2.0**-k]) @ h
        raw = (0, 4, m, 1.0)
        v = sub.coordinate_span(0)
        assert exact_transversal(raw, v)
        assert ops.is_transversal(ops.SequenceOperator(*raw), v) == (k <= 26)
