"""Filtrations: constructors for the worked examples, functorial towers,
pullbacks, and the condition-by-condition verifier."""

import numpy as np
import pytest

from dnclab import catalog, filtration as filt, flags as fl, geometry as geo
from dnclab.errors import (
    ConfigError,
    DepthMismatch,
    DimensionTooSmall,
    EmptyFirstLevel,
    MissingWitness,
    NotCovering,
    NotTransverse,
)


@pytest.fixture(scope="module")
def flag248():
    return fl.standard_flag([2, 4, 8])


@pytest.fixture(scope="module")
def sphere_filtration(flag248):
    return filt.make_filtration_sphere(flag248)


class TestLinear:
    def test_all_conditions(self, flag248):
        f = filt.make_filtration_linear(flag248)
        rep = filt.verify_filtration(f)
        assert rep.passed
        assert list(f.delta) == [2, 4, 8]

    def test_density_is_truncation_distance(self, flag248):
        # oracle: distance to a coordinate subspace is the norm of the
        # discarded coordinates
        f = filt.make_filtration_linear(flag248)
        rng = np.random.Generator(np.random.Philox(key=77))
        x = f.ambient_sampler(rng, 1)[0]
        for n in range(1, 4):
            d = fl.DimensionSequence([2, 4, 8])[n]
            assert abs(f.level(n).distance_to(x) - np.linalg.norm(x[d:])) <= 1e-12

    def test_nesting_exact(self, flag248):
        f = filt.make_filtration_linear(flag248)
        for n in (1, 2):
            for s in f.level(n).samples:
                assert f.level(n + 1).constraint_norm(s) == 0.0


class TestOpenSubset:
    def test_ball_trace_passes(self):
        f = filt.make_filtration_open_subset(
            lambda x: float(np.linalg.norm(x)) < 1.0, fl.standard_flag([1, 2])
        )
        rep = filt.verify_filtration(f)
        assert rep.passed

    def test_missing_first_level_rejected(self):
        # an open set far from the first level
        with pytest.raises(EmptyFirstLevel):
            filt.make_filtration_open_subset(
                lambda x: float(np.linalg.norm(x - 100.0)) < 0.5, fl.standard_flag([1, 2])
            )

    def test_witness_frames_pass_rank_tests(self):
        f = filt.make_filtration_open_subset(
            lambda x: float(np.linalg.norm(x)) < 2.0, fl.standard_flag([1, 2])
        )
        rep = filt.verify_filtration(f)
        assert rep.conditions["d_normality"]["status"] == "pass"


class TestSphere:
    def test_dimension_shift(self, sphere_filtration):
        assert list(sphere_filtration.delta) == [1, 3, 7]
        rep = filt.verify_filtration(sphere_filtration)
        assert rep.passed

    def test_small_first_dimension_rejected(self):
        with pytest.raises(DimensionTooSmall):
            filt.make_filtration_sphere(fl.standard_flag([1, 2]))

    def test_sphere_nesting(self, sphere_filtration):
        for n in (1, 2):
            for s in sphere_filtration.level(n).samples:
                assert sphere_filtration.level(n + 1).constraint_norm(s) <= 1e-12

    def test_density_profile_decreasing_by_projection_oracle(self, sphere_filtration):
        # oracle: distance from a unit vector to the sphere of a coordinate
        # subspace is |x - head/|head||; strictly decreasing in the level
        rng = np.random.Generator(np.random.Philox(key=123))
        x = sphere_filtration.ambient_sampler(rng, 1)[0]
        dists = []
        for n, d in zip(range(1, 4), (2, 4, 8)):
            head = np.zeros_like(x)
            head[:d] = x[:d]
            head = head / np.linalg.norm(head)
            want = float(np.linalg.norm(x - head))
            got = sphere_filtration.level(n).distance_to(x)
            assert abs(got - want) <= 1e-12
            dists.append(got)
        assert dists[0] > dists[1] > dists[2]


class TestProductAndPairGroupoid:
    def test_product_dims_add(self, flag248, sphere_filtration):
        # margin picked so both factors share one model truncation
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]), margin=10)
        prod = filt.make_filtration_product(lin, sphere_filtration)
        assert list(prod.delta) == [2, 5, 10]
        rep = filt.verify_filtration(prod, n_samples=8)
        assert rep.passed
        assert rep.conditions["fredholm"]["status"] == "pass"

    def test_dense_claim_conjunction(self, sphere_filtration):
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]), margin=10)
        prod = filt.make_filtration_product(lin, sphere_filtration)
        assert prod.claimed_dense is True

    def test_mismatched_models_drop_fredholm_claim(self, sphere_filtration):
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]))  # level 8 vs 13
        prod = filt.make_filtration_product(lin, sphere_filtration)
        assert prod.fredholm is None and not prod.claimed_fredholm

    def test_depth_mismatch(self, sphere_filtration):
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2]))
        with pytest.raises(DepthMismatch):
            filt.make_filtration_product(lin, sphere_filtration)

    def test_pair_groupoid_dims(self, sphere_filtration):
        pg = filt.pair_groupoid_filtration(sphere_filtration)
        assert list(pg.delta) == [2, 6, 14]
        rep = filt.verify_filtration(pg, n_samples=8)
        assert rep.conditions["a_dimensions"]["status"] == "pass"
        assert rep.conditions["b_nesting"]["status"] == "pass"

    def test_constructor_shape_takes_single_filtration(self):
        import inspect

        # interleaved mixed towers cannot be expressed: one input only
        assert list(inspect.signature(filt.pair_groupoid_filtration).parameters) == ["f"]


class TestTangentTowers:
    def test_tangent_dims(self, sphere_filtration):
        tf = filt.tangent_filtration(sphere_filtration)
        assert list(tf.delta) == [2, 6, 14]
        rep = filt.verify_filtration(tf, n_samples=8)
        assert rep.passed

    def test_tangent_requires_witnesses(self, sphere_filtration):
        bare = filt.Filtration(
            sphere_filtration.delta, sphere_filtration.levels, sphere_filtration.total
        )
        with pytest.raises(MissingWitness):
            filt.tangent_filtration(bare)

    def test_tangent_nesting_sampled(self, sphere_filtration):
        tf = filt.tangent_filtration(sphere_filtration)
        for n in (1, 2):
            for s in tf.level(n).samples:
                assert tf.level(n + 1).constraint_norm(s) <= 1e-8

    def test_tangent_groupoid_dims_and_slices(self, sphere_filtration):
        tg = filt.tangent_groupoid_filtration(sphere_filtration)
        assert list(tg.delta) == [3, 7, 15]
        d = sphere_filtration.total.ambient_dim
        for n in range(1, 4):
            base = sphere_filtration.level(n)
            for z in tg.level(n).samples:
                x, w, lam = z[:d], z[d : 2 * d], z[2 * d]
                if lam != 0.0:
                    assert base.constraint_norm(x) <= 1e-8
                    assert base.constraint_norm(x - lam * w) <= 1e-8
                else:
                    assert base.constraint_norm(x) <= 1e-8
                    assert np.max(np.abs(base.constraints.jacobian(x) @ w)) <= 1e-6

    def test_functor_compatibility_with_subsequence(self, sphere_filtration):
        # tangent of a subsequence = subsequence of the tangent, level by level
        idx = [1, 3]
        a = filt.tangent_filtration(filt.subsequence_filtration(sphere_filtration, idx))
        b = filt.subsequence_filtration(filt.tangent_filtration(sphere_filtration), idx)
        assert list(a.delta) == list(b.delta)
        for la, lb in zip(a.levels, b.levels):
            for s in la.samples:
                assert lb.constraint_norm(s) <= 1e-10
            for s in lb.samples:
                assert la.constraint_norm(s) <= 1e-10


class TestExactLiftJacobians:
    """The lifted constraint and cutting maps carry chain-rule Jacobians;
    each is checked against Richardson central differences."""

    TOWERS = {
        "pair-groupoid": filt.pair_groupoid_filtration,
        "tangent": filt.tangent_filtration,
        "tangent-groupoid": filt.tangent_groupoid_filtration,
    }

    @pytest.fixture(scope="class")
    def depth5(self):
        return filt.make_filtration_sphere(fl.standard_flag([2, 4, 8, 16, 32]))

    @staticmethod
    def check_points(lvl, groupoid):
        # first samples of each kind: for groupoid levels lam = 0.5 and
        # lam = 0, plus a lam = 0.5 point moved to lam = 1e-3
        points = lvl.samples[:2]
        if groupoid:
            small = points[0].copy()
            small[-1] = 1e-3
            points = points + [small]
        return points

    @pytest.mark.parametrize("kind", sorted(TOWERS))
    def test_every_map_has_jac(self, depth5, kind):
        f = self.TOWERS[kind](depth5)
        for m in [lvl.constraints for lvl in f.levels] + [f.total.constraints, f.fredholm.map]:
            assert m.jac is not None, m.name

    @pytest.mark.parametrize("kind", sorted(TOWERS))
    def test_jacobians_match_finite_differences(self, depth5, kind):
        f = self.TOWERS[kind](depth5)
        groupoid = kind == "tangent-groupoid"
        for lvl in f.levels + [f.total]:
            for z in self.check_points(lvl, groupoid):
                lvl.constraints.jacobian(z, check=True)
                f.fredholm.map.jacobian(z, check=True)

    def test_tangent_of_product_is_exact(self, sphere_filtration):
        # the second derivative travels through restrictions, stacks and
        # interleavings
        f = filt.tangent_filtration(filt.pair_groupoid_filtration(sphere_filtration))
        maps = [(lvl.constraints, lvl.samples[0]) for lvl in f.levels]
        maps.append((f.fredholm.map, f.levels[0].samples[0]))
        for m, z in maps:
            assert m.jac is not None, m.name
            m.jacobian(z, check=True)

    def test_groupoid_samples_cover_both_fiber_kinds(self, depth5):
        f = filt.tangent_groupoid_filtration(depth5)
        lams = {float(z[-1]) for z in self.check_points(f.level(1), True)}
        assert lams == {0.0, 0.5, 1e-3}

    def test_divided_difference_branches_meet(self, depth5):
        # the lam = 0 branch is the limit of the quotient branch to first
        # order in lam, for the value and for the Jacobian (a wrong sign or
        # factor in either branch shows as an O(1) gap)
        dd = filt._divided_difference(depth5.total.constraints, depth5.total.ambient_dim)
        z = filt.tangent_groupoid_filtration(depth5).total.samples[0].copy()
        z[-1] = 0.0
        for lam in (1e-3, 1e-5):
            near = z.copy()
            near[-1] = lam
            assert np.max(np.abs(dd(near) - dd(z) - lam * dd.jac(z)[:, -1])) <= 1e-8
            assert np.max(np.abs(dd.jac(near) - dd.jac(z))) <= 1e2 * lam


class TestSubsequence:
    def test_reindexing(self, sphere_filtration):
        ss = filt.subsequence_filtration(sphere_filtration, (1, 3))
        assert list(ss.delta) == [1, 7]
        rep = filt.verify_filtration(ss, n_samples=8)
        assert rep.passed

    def test_full_index_identity(self, sphere_filtration):
        ss = filt.subsequence_filtration(sphere_filtration, (1, 2, 3))
        assert list(ss.delta) == list(sphere_filtration.delta)

    def test_stacked_frames_pass(self, sphere_filtration):
        ss = filt.subsequence_filtration(sphere_filtration, (1, 3))
        rep = filt.verify_filtration(ss, n_samples=8)
        assert rep.conditions["d_normality"]["status"] == "pass"


class TestCoveringPullback:
    def test_antipodal_lift_membership(self):
        rp1 = catalog.projective_space(1, big_n=3, seed=41)
        rp2 = catalog.projective_space(2, big_n=3, seed=42)
        rpf = filt.Filtration(fl.DimensionSequence([1, 2]), [rp1, rp2], rp2)
        cov = catalog.antipodal_cover(2, big_n=3)
        pulled = filt.pullback_filtration_covering(cov, rpf)
        assert list(pulled.delta) == [1, 2]
        # oracle: lifted samples of the first level sit on the sphere of the
        # leading two coordinates (antipodal pairs)
        s1 = catalog.sphere(1, ambient=3)
        for z in pulled.levels[0].samples:
            assert s1.constraint_norm(z) <= 1e-9
        assert filt.verify_filtration(pulled, n_samples=4).passed

    def test_both_sheets_lifted(self):
        cov = catalog.antipodal_cover(2, big_n=3)
        for q in cov.base.samples:
            lifts = cov.lift(q)
            assert len(lifts) == 2
            assert np.allclose(lifts[0], -lifts[1])

    def test_identity_covering(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d = lin.total.ambient_dim
        cov = filt.CoveringMap(
            total=lin.total,
            base=lin.total,
            projection=geo.SmoothMap(d, d, lambda z: np.asarray(z, float), lambda z: np.eye(d)),
            lift=lambda q: [np.asarray(q, float)],
        )
        same = filt.pullback_filtration_covering(cov, lin)
        assert list(same.delta) == [2, 4]
        assert filt.verify_filtration(same, n_samples=8).passed

    def test_fold_rejected(self):
        line = filt._full_space(1, [np.array([1.0]), np.array([0.0])])
        fold = filt.CoveringMap(
            total=line,
            base=line,
            projection=geo.SmoothMap(1, 1, lambda z: np.array([z[0] ** 2])),
            lift=lambda q: [
                np.array([np.sqrt(max(q[0], 0.0))]),
                np.array([-np.sqrt(max(q[0], 0.0))]),
            ],
        )
        with pytest.raises(NotCovering):
            filt.pullback_filtration_covering(
                fold, filt.Filtration(fl.DimensionSequence([1]), [line], line)
            )


class TestFredholmPullback:
    def test_projection_shifts_dimensions(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d, p = lin.total.ambient_dim, 2
        g = geo.SmoothMap(d + p, d, lambda z: z[:d], lambda z: np.hstack([np.eye(d), np.zeros((d, p))]))
        rng = np.random.Generator(np.random.Philox(key=55))
        ntot = filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)])
        pulled = filt.pullback_filtration_fredholm(g, ntot, p, lin, seeds=[rng.normal(size=d + p) for _ in range(6)])
        assert list(pulled.delta) == [4, 6]
        rep = filt.verify_filtration(pulled, n_samples=8)
        assert rep.conditions["a_dimensions"]["status"] == "pass"
        assert rep.conditions["fredholm"]["status"] == "pass"

    def test_identity_preserves(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d = lin.total.ambient_dim
        rng = np.random.Generator(np.random.Philox(key=56))
        g0 = geo.SmoothMap(d, d, lambda z: np.asarray(z, float), lambda z: np.eye(d))
        same = filt.pullback_filtration_fredholm(
            g0, filt._full_space(d, [rng.normal(size=d) for _ in range(4)]), 0, lin
        )
        assert list(same.delta) == [2, 4]

    def test_non_transverse_rejected(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d = lin.total.ambient_dim
        bad = geo.SmoothMap(d, d, lambda z: np.concatenate([[z[0]], np.zeros(d - 1)]))
        rng = np.random.Generator(np.random.Philox(key=57))
        with pytest.raises(NotTransverse):
            filt.pullback_filtration_fredholm(
                bad, filt._full_space(d, [rng.normal(size=d) for _ in range(4)]), 0, lin
            )


class TestNegativeExamples:
    def test_zero_section_product_fails_density(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        ev = filt.example_v_filtration(lin, k=2)
        rep = filt.verify_filtration(ev, n_samples=16)
        assert rep.conditions["density"]["status"] == "fail"
        assert rep.conditions["fredholm"]["status"] == "not_claimed"
        # the failure is the extra-coordinate floor
        deepest = rep.conditions["density"]["evidence"]["deepest_distance"]
        assert deepest >= 0.5

    def test_normality_still_witnessed(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        ev = filt.example_v_filtration(lin, k=2)
        rep = filt.verify_filtration(ev, n_samples=8)
        assert rep.conditions["d_normality"]["status"] == "pass"

    def test_mixed_product_unverified(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        growth = [catalog.sphere(1, ambient=4, seed=31), catalog.sphere(2, ambient=4, seed=32)]
        mx = filt.mixed_product_filtration(lin, growth, [1, 2])
        rep = filt.verify_filtration(mx, n_samples=4)
        assert rep.conditions["d_normality"]["status"] == "unverified"
        assert rep.passed  # unverified is not a failure


class TestJsonSurface:
    def test_sphere_spec(self):
        f = filt.filtration_from_spec({"kind": "sphere", "delta": [2, 4, 8], "depth": 3})
        assert list(f.delta) == [1, 3, 7]

    def test_depth_truncates(self):
        f = filt.filtration_from_spec({"kind": "linear", "delta": [2, 4, 8], "depth": 2})
        assert list(f.delta) == [2, 4]

    def test_nested_spec(self):
        f = filt.filtration_from_spec(
            {"kind": "pair-groupoid", "base": {"kind": "sphere", "delta": [2, 4], "depth": 2}}
        )
        assert list(f.delta) == [2, 6]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            filt.filtration_from_spec({"kind": "nope", "delta": [1, 2]})

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "linear", "delta": [2, 2]},
            {"kind": "sphere", "delta": [2, 4], "depth": 0},
            {"kind": "linear"},
            {"delta": [2, 4]},
            {"kind": "sphere", "delta": [1, 2]},
            {"kind": "sphere", "delta": [2, 4], "depth": 9},
            {"kind": "sphere", "delta": [2, 4], "depth": "x"},
            {"kind": "tangent"},
            {"kind": "product", "first": {"kind": "linear", "delta": [2, 4]}},
            ["sphere", [2, 4]],
        ],
    )
    def test_bad_spec_is_a_config_error(self, spec):
        with pytest.raises(ConfigError):
            filt.filtration_from_spec(spec)

    def test_report_json_shape(self, sphere_filtration):
        rep = filt.verify_filtration(sphere_filtration, n_samples=4)
        obj = rep.to_json()
        assert set(obj) == {"conditions", "passed"}
        assert obj["conditions"]["c_limit_inclusion"]["status"] == "out_of_scope"
