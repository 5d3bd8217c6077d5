"""Filtrations: constructors for the worked examples, functorial towers,
pullbacks, and the condition-by-condition verifier."""

import dataclasses

import numpy as np
import pytest

from dnclab import catalog, filtration as filt, flags as fl, geometry as geo, linalg
from dnclab.errors import (
    ConfigError,
    DepthMismatch,
    DimensionTooSmall,
    DomainError,
    EmptyFirstLevel,
    MissingWitness,
    NotCovering,
    NotTransversal,
    OffManifold,
)
from test_operators import same_basis


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

    def test_distance_never_undercuts_the_level(self):
        # oracle: U ∩ E_1 = {t e_0 : t > 0.5}, so x = (0.2, 0.4, 0, ...) is
        # 0.5 from it, while its linear foot point (0.2, 0, ...) leaves U
        f = filt.make_filtration_open_subset(lambda x: x[0] + x[1] > 0.5, fl.standard_flag([1, 2]))
        x = np.zeros(f.total.ambient_dim)
        x[:2] = [0.2, 0.4]
        assert f.level(1).distance_to(x) >= 0.5 - 1e-12
        # the TF and 𝕋F levels project through the base level's map
        zero = np.zeros_like(x)
        assert filt.tangent_filtration(f).level(1).distance_to(np.concatenate([x, zero])) >= 0.5 - 1e-12
        z = np.concatenate([x, zero, [0.0]])
        assert filt.tangent_groupoid_filtration(f).level(1).distance_to(z) >= 0.5 - 1e-12


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


@pytest.mark.parametrize(
    "make",
    [
        filt.make_filtration_linear,
        filt.make_filtration_sphere,
        lambda flag, margin: filt.make_filtration_open_subset(lambda x: True, flag, margin),
    ],
    ids=["linear", "sphere", "open-subset"],
)
def test_negative_margin_is_a_domain_error(flag248, make):
    with pytest.raises(DomainError, match="margin"):
        make(flag248, margin=-1)


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
        assert prod.fredholm is None
        rep = filt.verify_filtration(prod, n_samples=4)
        assert rep.conditions["fredholm"]["status"] == "not_claimed"

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

    @staticmethod
    def recorded_groupoid(cap):
        """𝕋F of the linear (2, 4) filtration over a base sampler that keeps
        what it is asked for and what it returns, and returns at most ``cap``
        points."""
        base = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        asked, drawn = [], []

        def recording(rng, count):
            asked.append(count)
            drawn.extend(base.ambient_sampler(rng, min(count, cap)))
            return drawn[-min(count, cap) :]

        tg = filt.tangent_groupoid_filtration(dataclasses.replace(base, ambient_sampler=recording))
        return tg, base.total.ambient_dim, asked, drawn

    def test_groupoid_sampler_uses_each_base_point_once(self):
        tg, d, asked, drawn = self.recorded_groupoid(cap=100)
        zs = tg.ambient_sampler(np.random.default_rng(0), 7)
        assert asked == [7 + 7 // 2] and len(zs) == 7
        used = []  # the base points of each sample: x, and y = x - lam w off the zero fibre
        for z in zs:
            x, w, lam = z[:d], z[d : 2 * d], z[2 * d]
            used += [x] if lam == 0.0 else [x, x - lam * w]
        match = np.array([[np.allclose(u, p, rtol=0.0, atol=1e-12) for p in drawn] for u in used])
        assert match.shape == (10, 10)
        assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()

    def test_groupoid_sampler_fills_the_zero_fibre_first(self):
        # a base that returns fewer points than asked, as an open subset may
        tg, d, asked, _ = self.recorded_groupoid(cap=3)
        zs = tg.ambient_sampler(np.random.default_rng(0), 7)
        assert asked == [10] and [z[2 * d] for z in zs] == [0.0] * 3

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


class TestZeroFiber:
    """TF is the lam = 0 fibre of 𝕋F; the tangent lift (x, v) -> (g(x), Dg(x) v)
    written out here is the oracle it must reproduce."""

    @pytest.fixture(scope="class")
    def depth5(self):
        return filt.make_filtration_sphere(fl.standard_flag([2, 4, 8, 16, 32]))

    @staticmethod
    def tangent_lift(g, d):
        """Value and Jacobian [[Dg(x), 0], [D^2g(x) v, Dg(x)]] at z = (x, v)."""

        def at(z):
            x, v = z[:d], z[d:]
            j = np.atleast_2d(g.jac(x))
            value = np.concatenate([g(x), j @ v])
            jac = np.block([[j, np.zeros_like(j)], [np.atleast_2d(g.hvp(x, v)), j]])
            return value, jac

        return at

    def test_samples_are_velocities_then_units(self, depth5):
        tf = filt.tangent_filtration(depth5)
        d = depth5.total.ambient_dim
        for base, lvl in zip(depth5.levels + [depth5.total], tf.levels + [tf.total]):
            assert len(lvl.samples) == 2 * len(base.samples)
            for x, moving, unit in zip(base.samples, lvl.samples[::2], lvl.samples[1::2]):
                tb = base.tangent_basis(x)
                v = tb @ (np.arange(1, tb.shape[1] + 1) / (tb.shape[1] + 1.0))
                assert np.array_equal(moving, np.concatenate([x, v]))
                assert np.array_equal(unit, np.concatenate([x, np.zeros(d)]))

    def test_constraints_are_the_tangent_lift(self, depth5):
        # np.array_equal compares with ==, so -0.0 and 0.0 agree and nothing else may differ
        tf = filt.tangent_filtration(depth5)
        d = depth5.total.ambient_dim
        for base, lvl in zip(depth5.levels + [depth5.total], tf.levels + [tf.total]):
            reference = self.tangent_lift(base.constraints, d)
            for z in lvl.samples:
                value, jac = reference(z)
                assert np.array_equal(lvl.constraints(z), value)
                assert np.array_equal(lvl.constraints.jacobian(z), jac)

    def test_cutting_map_is_df_against_the_squared_flag(self, depth5):
        tf = filt.tangent_filtration(depth5)
        fm, flag = depth5.fredholm.map, depth5.fredholm.flag
        square = fl.flag_product(flag, flag)
        assert len(tf.fredholm.flag.subspaces) == len(square.subspaces)
        assert all(same_basis(a, b) for a, b in zip(tf.fredholm.flag.subspaces, square.subspaces))
        assert tf.fredholm.flag.delta == square.delta
        d = depth5.total.ambient_dim
        for z in tf.level(1).samples:
            x, v = z[:d], z[d:]
            interleaved = np.ravel(np.column_stack([fm(x), np.atleast_2d(fm.jac(x)) @ v]))
            assert np.array_equal(tf.fredholm.map(z), interleaved)


BASES = {
    "linear": lambda: filt.make_filtration_linear(fl.standard_flag([2, 4])),
    "open": lambda: filt.make_filtration_open_subset(
        lambda x: float(np.linalg.norm(x)) < 1.0, fl.standard_flag([2, 4])
    ),
    "sphere": lambda: filt.make_filtration_sphere(fl.standard_flag([2, 4])),
    "product": lambda: filt.make_filtration_product(BASES["linear"](), BASES["sphere"]()),
    "shifted-product": lambda: filt.example_v_filtration(BASES["sphere"]()),
}
LIFTS = {
    "pair-groupoid": filt.pair_groupoid_filtration,
    "tangent": filt.tangent_filtration,
    "tangent-groupoid": filt.tangent_groupoid_filtration,
}


@pytest.mark.parametrize("lift", sorted(LIFTS))
@pytest.mark.parametrize("base", sorted(BASES))
def test_every_lift_of_every_base_verifies(base, lift):
    # the shifted product inherits a density claim that verification
    # falsifies, and its pair groupoid, a product, keeps the claim; the
    # tangent lifts claim no density.  Every other case passes; none raises
    rep = filt.verify_filtration(LIFTS[lift](BASES[base]()), n_samples=4)
    if (base, lift) == ("shifted-product", "pair-groupoid"):
        failed = {k for k, c in rep.conditions.items() if c["status"] == "fail"}
        assert failed == {"density"}
    else:
        assert rep.passed


def _sphere_tower(depth: int) -> filt.Filtration:
    return filt.make_filtration_sphere(fl.standard_flag([2**n for n in range(1, depth + 1)]))


def _counting_newton(monkeypatch) -> list:
    """Wrap ``geometry.newton_project``, which ``distance_to`` calls, and
    return the list its calls are appended to."""
    calls, real = [], geo.newton_project

    def counted(manifold, x0):
        calls.append(manifold.name)
        return real(manifold, x0)

    monkeypatch.setattr(geo, "newton_project", counted)
    return calls


class TestLiftedProjectors:
    """TF and 𝕋F levels of a base with projectors map onto themselves in
    closed form, built from the base level's projector and tangent basis;
    a lift of a base without projectors keeps Gauss-Newton."""

    @pytest.mark.parametrize("lift", ["tangent", "tangent-groupoid"])
    @pytest.mark.parametrize("seed", [42, 31337])
    @pytest.mark.parametrize("depth", [4, 5])
    def test_images_lie_on_their_levels_and_fix_level_samples(self, depth, seed, lift):
        f = LIFTS[lift](_sphere_tower(depth))
        samples = f.ambient_sampler(np.random.Generator(np.random.Philox(key=seed)), 32)
        for lvl in f.levels + [f.total]:
            assert lvl.projector is not None
            for x in samples:
                assert lvl.contains(lvl.projector(x))
            for s in lvl.samples:
                assert np.max(np.abs(lvl.projector(s) - s)) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-10, -5e-10])
    def test_groupoid_point_below_fiber_eps_maps_to_the_zero_fiber(self, lam):
        base = _sphere_tower(4)
        tg = filt.tangent_groupoid_filtration(base)
        d = base.total.ambient_dim
        rng = np.random.Generator(np.random.Philox(key=5))
        for lvl, m in zip(tg.levels, base.levels):
            z = np.concatenate([rng.normal(size=d), rng.normal(size=d), [lam]])
            y = lvl.projector(z)
            assert y[2 * d] == 0.0 and lvl.contains(y)
            px = m.projector(z[:d])
            tb = m.tangent_basis(px)
            assert np.array_equal(y[:d], px)
            assert np.allclose(y[d : 2 * d], tb @ (tb.T @ z[d : 2 * d]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("lift", ["tangent", "tangent-groupoid"])
    def test_density_of_a_depth5_lift_takes_no_gauss_newton_step(self, lift, monkeypatch):
        f = LIFTS[lift](_sphere_tower(5))
        samples = f.ambient_sampler(np.random.Generator(np.random.Philox(key=42)), 8)
        calls = _counting_newton(monkeypatch)
        assert filt._check_density(f, f.depth, samples)["status"] == "measured"
        assert calls == []

    @pytest.mark.parametrize("lift", ["tangent", "tangent-groupoid"])
    def test_lift_of_a_base_without_projectors_keeps_gauss_newton(self, lift, monkeypatch):
        # the identity covering's pullback cuts its levels out by _preimage_manifold: no projector
        sph = _sphere_tower(2)
        d = sph.total.ambient_dim
        ident = filt.CoveringMap(sph.total, sph.total, geo.linear_map(np.eye(d), "id"), lambda q: [q])
        pulled = filt.pullback_filtration_covering(ident, sph)
        assert all(m.projector is None for m in pulled.levels)
        f = LIFTS[lift](pulled)
        assert all(lvl.projector is None for lvl in f.levels)
        samples = f.ambient_sampler(np.random.Generator(np.random.Philox(key=42)), 8)
        calls = _counting_newton(monkeypatch)
        assert filt._check_density(f, f.depth, samples)["status"] == "measured"
        assert len(calls) == f.depth * len(samples)
        x, lvl = samples[0], f.level(1)
        assert lvl.distance_to(x) == np.linalg.norm(x - geo.newton_project(lvl, x))


class TestExactLiftJacobians:
    """The lifted constraint and cutting maps carry chain-rule Jacobians;
    each is checked by ``geometry.verify_analytic_jacobian``."""

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
                assert geo.verify_analytic_jacobian(lvl.constraints, z), lvl.name
                assert geo.verify_analytic_jacobian(f.fredholm.map, z), lvl.name

    def test_rounding_is_judged_at_the_best_step(self, depth5):
        # at lam = 0 the 𝕋S^3 constraints are quadratic: the finite-difference
        # error is rounding alone and grows as the step halves (1.5e-14 to
        # 3.7e-9), so a slope fit over the steps rejects the right Jacobian
        lvl = filt.tangent_groupoid_filtration(depth5).level(2)
        g, z = lvl.constraints, lvl.samples[1]
        assert z[-1] == 0.0
        hs = 0.1 * 0.5 ** np.arange(10)
        errs = [np.max(np.abs(geo.numeric_jacobian(g.fn, z, h) - g.jac(z))) for h in hs]
        assert errs[0] < 1e-13 and errs[-1] > 1e-9
        assert linalg.loglog_slope(hs, errs) < 0
        assert geo.verify_analytic_jacobian(g, z)

    def test_tangent_of_product_is_exact(self, sphere_filtration):
        # the second derivative travels through restrictions, stacks and
        # interleavings
        f = filt.tangent_filtration(filt.pair_groupoid_filtration(sphere_filtration))
        maps = [(lvl.constraints, lvl.samples[0]) for lvl in f.levels]
        maps.append((f.fredholm.map, f.levels[0].samples[0]))
        for m, z in maps:
            assert m.jac is not None, m.name
            assert geo.verify_analytic_jacobian(m, z), m.name

    @pytest.mark.parametrize("drop", ["jac", "hvp"])
    def test_lift_without_second_derivative_is_refused(self, sphere_filtration, drop):
        # without both, the lift's Jacobian would difference a difference quotient
        g = sphere_filtration.total.constraints
        bare = dataclasses.replace(g, name="bare-sphere", **{drop: None})
        total = dataclasses.replace(sphere_filtration.total, constraints=bare)
        with pytest.raises(DomainError, match="bare-sphere"):
            filt.tangent_groupoid_filtration(dataclasses.replace(sphere_filtration, total=total))

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


    def test_divided_difference_lam_column_near_zero(self):
        # oracle: for the quadratic |x|^2 - 1 and the linear trailing rows of
        # sphere(4, 8), the lam column of (g(x) - g(x - lam w)) / lam is
        # exactly (-|w|^2, 0, ...) at every lam; the quotient form of that
        # column cancels catastrophically as lam shrinks
        s = catalog.sphere(4, 8)
        g = s.constraints
        dd = filt._divided_difference(g, 8)
        x, w = s.samples[0], np.linspace(-5.0, 5.0, 8)
        ww = float(w @ w)
        want = np.zeros(g.codomain_dim)
        want[0] = -ww
        for lam in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
            col = dd.jac(np.concatenate([x, w, [lam]]))[:, -1]
            assert np.max(np.abs(col - want)) <= 1e-6 * ww, lam
        # away from zero the column is the quotient form, bit for bit
        lam = 1e-3
        y = x - lam * w
        quotient = (g.jac(y) @ w) / lam - (g(x) - g(y)) / lam**2
        assert np.array_equal(dd.jac(np.concatenate([x, w, [lam]]))[:, -1], quotient)

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

    def test_cut_dimension_is_counted_by_rank(self, monkeypatch):
        """Each level sample's cut dimension is read from one rank: the only
        SVDs with singular vectors are the flag level's orthonormal basis
        and its normal space, and the one decomposition of the level's
        constraint Jacobian at each sample."""
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d, p = lin.total.ambient_dim, 2
        g = geo.SmoothMap(d + p, d, lambda z: z[:d], lambda z: np.hstack([np.eye(d), np.zeros((d, p))]))
        rng = np.random.Generator(np.random.Philox(key=55))
        ntot = filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)])
        pulled = filt.pullback_filtration_fredholm(g, ntot, p, lin, seeds=[rng.normal(size=d + p) for _ in range(6)])
        calls, ranks = [], []
        svd, rank = np.linalg.svd, linalg.rank
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(kw.get("compute_uv", True)) or svd(a, **kw))
        monkeypatch.setattr(linalg, "rank", lambda a: ranks.append(a) or rank(a))
        got = filt._check_level_samples(dataclasses.replace(pulled, witnesses=None), pulled.depth)["fredholm"]
        assert got["status"] == "pass"
        records = got["evidence"]["samples"]
        assert [r["preimage_tangent_dim"] for r in records] == [pulled.delta[r["level"]] for r in records]
        assert calls.count(True) == 2 * pulled.depth + len(records)
        assert len(ranks) == len(records)  # one rank decides transversality and the cut
        assert calls.count(False) == 0  # and each transverse stack is certified without an SVD

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
        with pytest.raises(NotTransversal):
            filt.pullback_filtration_fredholm(
                bad, filt._full_space(d, [rng.normal(size=d) for _ in range(4)]), 0, lin
            )


def _bent_projection(d: int, p: int) -> geo.SmoothMap:
    """(x, y) -> P(x + 0.3 (y0², y0 y1, 0, ...)) from R^(d+p) to R^d, with P
    the projection off u = (e0 + e2 + e_{d-1}) / √3: transverse to the
    standard flag levels, since e0 leaves u^⊥, but Dg lands in u^⊥, so it is
    not onto the tangent space."""
    u = np.zeros(d)
    u[[0, 2, d - 1]] = 1.0 / np.sqrt(3.0)
    proj = np.eye(d) - np.outer(u, u)

    def fn(z):
        q = np.zeros(d)
        q[:2] = [z[d] ** 2, z[d] * z[d + 1]]
        return proj @ (z[:d] + 0.3 * q)

    def jac(z):
        jq = np.zeros((d, p))
        jq[0, 0], jq[1, 0], jq[1, 1] = 2.0 * z[d], z[d + 1], z[d]
        return proj @ np.hstack([np.eye(d), 0.3 * jq])

    return geo.SmoothMap(d + p, d, fn, jac, "bent")


class TestPullbackLifts:
    """The one pullback lifts witness frames modulo the level and lifts the cover."""

    @pytest.fixture(scope="class")
    def bent(self):
        return self._bent()

    @staticmethod
    def _bent():
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        d, p = lin.total.ambient_dim, 2
        g = _bent_projection(d, p)
        rng = np.random.Generator(np.random.Philox(key=58))
        ntot = filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)])
        pulled = filt.pullback_filtration_fredholm(g, ntot, p, lin, seeds=[rng.normal(size=d + p) for _ in range(6)])
        return lin, g, ntot, pulled

    def test_bent_map_is_exact_and_not_onto(self, bent):
        lin, g, ntot, _ = bent
        z = ntot.samples[0]
        assert geo.verify_analytic_jacobian(g, z)
        assert linalg.rank(g.jacobian(z)) == lin.total.dim - 1

    def test_lift_modulo_the_level_is_normal(self, bent):
        _, _, _, pulled = bent
        rep = filt.verify_filtration(pulled, n_samples=8)
        for key in ("a_dimensions", "d_normality", "fredholm"):
            assert rep.conditions[key]["status"] == "pass", key

    def test_plain_min_norm_lift_is_not_tangent(self, bent):
        # the lift the covering used to make: the min-norm preimage through Dg
        # alone, which needs Dg onto T M; here Dg misses u, so Dg of the lifted
        # frame in the next level keeps -u (u . frame) off it, a third in e_{d-1}
        lin, g, ntot, pulled = bent

        def plain(fr, n):
            def frame(z):
                tb = ntot.tangent_basis(z)
                return tb @ linalg.min_norm_lstsq(g.jacobian(z) @ tb, np.atleast_2d(fr(g(z))))

            return frame

        old = dataclasses.replace(pulled, witnesses=filt._lift_witnesses(lin.witnesses, plain))
        normality = filt.verify_filtration(old, n_samples=8).conditions["d_normality"]
        assert normality["status"] == "fail"
        worst = max(t["tangency_residual"] for t in normality["evidence"]["rank_tests"])
        assert worst == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_frames_of_a_sample_share_one_system(self, monkeypatch):
        lin, g, ntot, pulled = self._bent()
        calls = []
        real = ntot.tangent_basis
        monkeypatch.setattr(ntot, "tangent_basis", lambda z: calls.append(z) or real(z))
        w, zs = pulled.witnesses[0], pulled.level(1).samples
        frames = [(w.frame_in_next(z), w.frame_in_big(z)) for z in zs]
        assert len(calls) == len(zs) > 1

        def direct(fr, z):  # the lift of one frame, solved afresh
            tn = real(z)
            a = np.hstack([g.jacobian(z) @ tn, lin.level(1).tangent_basis(g(z))])
            return tn @ linalg.min_norm_lstsq(a, np.atleast_2d(fr(g(z))))[: tn.shape[1]]

        base = lin.witnesses[0]
        for z, (nxt, big) in zip(zs, frames):
            assert nxt.tobytes() == direct(base.frame_in_next, z).tobytes()
            assert big.tobytes() == direct(base.frame_in_big, z).tobytes()
        for z in (zs[1], zs[0], zs[1]):  # each asked for right after another sample's
            assert w.frame_in_big(z).tobytes() == direct(base.frame_in_big, z).tobytes()

    def test_identity_covering_lifts_the_cover(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        ident = geo.linear_map(np.eye(lin.total.ambient_dim), "id")
        cov = filt.CoveringMap(lin.total, lin.total, ident, lambda q: [np.asarray(q, float)])
        same = filt.pullback_filtration_covering(cov, lin)
        assert filt.verify_filtration(same, n_samples=8).conditions["e_cover"]["status"] == "pass"

    def test_positive_index_cover_without_samples_is_unverified(self, bent):
        _, _, _, pulled = bent
        assert pulled.cover is not None and pulled.ambient_sampler is None
        cover = filt.verify_filtration(pulled, n_samples=8).conditions["e_cover"]
        assert cover["status"] == "unverified"


def _tanh_pullback(seed: int) -> filt.Filtration:
    """The linear tower (2, 4, 8) pulled back along the submersion
    g(z) = z[:d] + A tanh(B z[d:]) from R^(d+2), A = 0.3 N(d x 2) and
    B = N(2 x 2) drawn from Philox(seed), with exact ``jac`` and ``hvp``:
    the pulled-back levels are curved, so their witness frames vary along
    each level."""
    lin = filt.make_filtration_linear(fl.standard_flag([2, 4, 8]))
    d, p = lin.total.ambient_dim, 2
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = 0.3 * rng.normal(size=(d, p)), rng.normal(size=(p, p))

    def jac(z):
        return np.hstack([np.eye(d), (a * (1.0 - np.tanh(b @ z[d:]) ** 2)) @ b])

    def hvp(z, v):
        t = np.tanh(b @ z[d:])
        h = np.zeros((d, d + p))
        h[:, d:] = (a * (-2.0 * t * (1.0 - t**2) * (b @ v[d:]))) @ b
        return h

    g = geo.SmoothMap(d + p, d, lambda z: z[:d] + a @ np.tanh(b @ z[d:]), jac, "tanh", hvp)
    return filt.pullback_filtration_fredholm(g, filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)]), p, lin)


class TestTransportedFrames:
    """𝕋F's vertical witness lifts at lam != 0 are the frame at the second
    point x - lam w, so 𝕋F of a curved tower stays normal."""

    @pytest.mark.parametrize("seed", [42, 31337])
    def test_tangent_groupoid_of_a_curved_pullback_is_normal(self, seed):
        pulled = _tanh_pullback(seed)
        g, (z, v) = pulled.fredholm.map, pulled.total.samples[:2]
        assert geo.verify_analytic_jacobian(g, z)
        dg_v = geo.SmoothMap(g.domain_dim, g.codomain_dim, lambda x: g.jacobian(x) @ v, lambda x: g.hvp(x, v))
        assert geo.verify_analytic_jacobian(dg_v, z)
        for f in (pulled, filt.tangent_filtration(pulled), filt.tangent_groupoid_filtration(pulled)):
            rep = filt.verify_filtration(f, n_samples=4)
            for key in ("a_dimensions", "b_nesting", "d_normality", "fredholm"):
                assert rep.conditions[key]["status"] == "pass", (f.total.name, key)

    def test_vertical_lifts_sit_at_the_second_point(self):
        fr = lambda x: np.array([[np.cos(x[0])], [np.sin(x[0])]])
        x, w, lam = np.array([0.3, 0.0]), np.array([1.0, 0.5]), 0.5
        out = filt._transported_frame(fr, x, w, lam, 5)
        assert np.array_equal(out[2:4, 1:], fr(x - lam * w))
        assert np.allclose(out[2:4, :1], (fr(x) - fr(x - lam * w)) / lam)
        assert np.array_equal(filt._transported_frame(fr, x, w, 0.0, 5)[2:4, 1:], fr(x))


class TestCoverNeedsSamples:
    def test_cover_without_ambient_samples_is_unverified(self):
        lin = dataclasses.replace(filt.make_filtration_linear(fl.standard_flag([2, 4])), ambient_sampler=None)
        assert lin.cover is not None
        cover = filt.verify_filtration(lin, n_samples=8).conditions["e_cover"]
        assert cover["status"] == "unverified"
        assert "coverage_fraction" not in cover["evidence"]

    def test_cover_with_samples_is_checked(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        cover = filt.verify_filtration(lin, n_samples=8).conditions["e_cover"]
        assert cover["status"] == "pass" and cover["evidence"]["coverage_fraction"] == 1.0


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
        mx = filt.mixed_product_filtration(lin, growth)
        assert list(mx.delta) == [3, 6]  # growth dimensions 1 and 2 added
        rep = filt.verify_filtration(mx, n_samples=4)
        assert rep.conditions["d_normality"]["status"] == "unverified"
        assert rep.passed  # unverified is not a failure


class TestShiftedProduct:
    """Example V is the product of every level with the origin of R^k and of
    the total with R^k, so its maps and frames are the written-out blocks."""

    K = 2

    @pytest.fixture(params=["linear", "sphere"])
    def pair(self, request):
        make = {"linear": filt.make_filtration_linear, "sphere": filt.make_filtration_sphere}[request.param]
        base = make(fl.standard_flag([2, 4]))
        return base, filt.example_v_filtration(base, k=self.K)

    def test_constraints_are_the_written_out_blocks(self, pair):
        base, ev = pair
        d, k = base.total.ambient_dim, self.K
        rng = np.random.Generator(np.random.Philox(key=7))
        for m, lvl in zip(base.levels, ev.levels):
            g = m.constraints
            for z in [rng.normal(size=d + k) for _ in range(3)]:
                assert np.array_equal(lvl.constraints(z), np.concatenate([g(z[:d]), z[d:]]))
                jac = g.jacobian(z[:d])
                blocks = np.block([[jac, np.zeros((len(jac), k))], [np.zeros((k, d)), np.eye(k)]])
                assert np.array_equal(lvl.constraints.jacobian(z), blocks)
        z = rng.normal(size=d + k)
        assert np.array_equal(ev.total.constraints(z), base.total.constraints(z[:d]))

    def test_witness_frames_are_block_diagonal(self, pair):
        base, ev = pair
        d, k = base.total.ambient_dim, self.K
        for n, (w, w_base) in enumerate(zip(ev.witnesses, base.witnesses), start=1):
            for z in ev.level(n).samples:
                big = w_base.frame_in_big(z[:d])
                expected = np.block([[big, np.zeros((d, k))], [np.zeros((k, big.shape[1])), np.eye(k)]])
                assert np.array_equal(w.frame_in_big(z), expected)
                if n == ev.depth:
                    assert w.frame_in_next is None
                else:
                    nxt = w_base.frame_in_next(z[:d])
                    assert np.array_equal(w.frame_in_next(z), np.vstack([nxt, np.zeros((k, nxt.shape[1]))]))

    @pytest.mark.parametrize("k, density", [(0, "pass"), (2, "fail")])
    def test_spec_verdicts(self, k, density):
        # R^0 adds no coordinate, so the inherited density claim holds at
        # k = 0 and fails at every k > 0; normality holds at both
        ev = filt.example_v_filtration(filt.make_filtration_linear(fl.standard_flag([2, 4])), k)
        rep = filt.verify_filtration(ev, n_samples=8)
        statuses = {name: c["status"] for name, c in rep.conditions.items()}
        assert statuses["density"] == density
        assert statuses["d_normality"] == statuses["a_dimensions"] == statuses["b_nesting"] == "pass"

    def test_mixed_product_refuses_a_tower_that_does_not_grow(self):
        lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
        flat = [catalog.sphere(2, ambient=4, seed=31), catalog.sphere(2, ambient=4, seed=32)]
        with pytest.raises(ValueError, match="strictly increasing"):
            filt.mixed_product_filtration(lin, flat)


class TestDirectlyBuilt:
    """The verifier reads each claim from the data a filtration supplies, so
    a filtration built without a constructor is checked the same way."""

    def test_supplied_cutting_map_is_the_claim(self):
        # a directly built filtration claims the Fredholm condition by
        # supplying the cutting map alone, and the verifier checks it
        flag = fl.standard_flag([1, 2, 3])
        lin = filt.make_filtration_linear(flag)
        ident = geo.linear_map(np.eye(lin.total.ambient_dim), "id")
        direct = filt.Filtration(lin.delta, lin.levels, lin.total, fredholm=filt.FredholmData(ident, flag))
        rep = filt.verify_filtration(direct, n_samples=4)
        assert rep.conditions["fredholm"]["status"] == "pass"
        assert rep.conditions["d_normality"]["status"] == "unverified"
        assert rep.conditions["density"]["status"] == "not_claimed"  # no sampler

    def test_cutting_map_missing_one_flag_level(self):
        # the projection killing e_1 has an image without e_1, as has
        # V_1 = span(e_0), so it misses V_1; V_2 and V_3 hold e_1 and are met
        flag = fl.standard_flag([1, 2, 3])
        lin = filt.make_filtration_linear(flag)
        d = lin.total.ambient_dim
        proj = np.eye(d)
        proj[1, 1] = 0.0
        fredholm = filt.FredholmData(geo.linear_map(proj, "kill e_1"), flag)
        direct = filt.Filtration(lin.delta, lin.levels, lin.total, fredholm=fredholm)
        got = filt.verify_filtration(direct, n_samples=4).conditions["fredholm"]
        assert got["status"] == "fail"
        records = got["evidence"]["samples"]
        samples = [s for n in range(1, 4) for s in lin.level(n).samples]
        assert [r["level"] for r in records] == [n for n in range(1, 4) for _ in lin.level(n).samples]
        for r, s in zip(records, samples):
            assert r["transverse"] == (r["level"] != 1)
            assert r["membership_residual"] <= 1e-12
            assert r["preimage_tangent_dim"] == (2 if r["level"] == 1 else flag.delta[r["level"]])
            # the rule the cut rank replaced: [a B] spans the codomain
            basis = linalg.orthonormalize(flag.level(r["level"]).space.basis_matrix(d))
            a = proj @ lin.total.tangent_basis(s)
            assert r["transverse"] == (linalg.rank(np.hstack([a, basis])) == d)

    def test_cutting_map_into_a_rotated_level_is_not_transverse(self):
        # the map B_2 C lands in V_2 of a rotated flag, which is not all of
        # R^5, so it is transverse to no level; against the orthonormal basis
        # of the rotated V_2, N^T a is rounding noise of about 1e-16, which
        # must not count as the one normal direction V_2 lacks
        from dnclab import operators as ops

        flag = fl.rotated_flag([2, 4], ops.identity() + ops.rank_one(0, 3, 1.0) + ops.rank_one(4, 1, -0.5))
        lin = filt.make_filtration_linear(flag, margin=0)
        d = lin.total.ambient_dim
        b2 = flag.level(2).space.basis_matrix(d)
        m = b2 @ np.random.Generator(np.random.Philox(key=7)).normal(size=(b2.shape[1], d))
        direct = filt.Filtration(lin.delta, lin.levels, lin.total, fredholm=filt.FredholmData(geo.linear_map(m, "into V_2"), flag))
        got = filt.verify_filtration(direct, n_samples=4).conditions["fredholm"]
        assert got["status"] == "fail"
        samples = [s for n in range(1, 3) for s in lin.level(n).samples]
        for r, s in zip(got["evidence"]["samples"], samples):
            basis = linalg.orthonormalize(flag.level(r["level"]).space.basis_matrix(d))
            a = m @ lin.total.tangent_basis(s)
            assert not r["transverse"]
            assert r["transverse"] == (linalg.rank(np.hstack([a, basis])) == d)
            if r["level"] == 2:
                assert r["membership_residual"] <= 1e-12
                assert r["preimage_tangent_dim"] == d  # N^T a counts as zero

    def test_witness_list_must_match_the_levels(self):
        # witness n belongs to level n: too few leave levels unchecked, too
        # many name levels that do not exist, and both fail normality
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]))
        for witnesses in ([], lin.witnesses[:1], lin.witnesses + lin.witnesses[:1]):
            direct = filt.Filtration(lin.delta, lin.levels, lin.total, witnesses=witnesses)
            rep = filt.verify_filtration(direct, n_samples=4)
            assert rep.conditions["d_normality"]["status"] == "fail"
            assert rep.conditions["d_normality"]["evidence"] == {"witnesses": len(witnesses), "levels": 3}


def three_rank_normality(f: filt.Filtration) -> list[dict]:
    """The normality records with every rank taken: the frame's own rank,
    then the rank and column count of the stack [T M_n, frame]."""
    records = []
    for n, w in enumerate(f.witnesses, start=1):
        lvl = f.level(n)
        for s in lvl.samples:
            t_cur = lvl.tangent_basis(s)
            for tag, fr, target in (
                ("next", w.frame_in_next, f.level(n + 1) if n < f.depth else None),
                ("big", w.frame_in_big, f.total),
            ):
                if fr is None or target is None:
                    continue
                frame = np.atleast_2d(fr(s))
                stack = np.hstack([t_cur, frame])
                records.append(
                    {
                        "level": n,
                        "in": tag,
                        "independent": linalg.rank(frame) == frame.shape[1],
                        "tangency_residual": float(np.max(np.abs(target.constraints.jacobian(s) @ frame), initial=0.0)),
                        "complements_tangent": linalg.rank(stack) == target.dim == stack.shape[1],
                    }
                )
    return records


class TestNormalityRanks:
    """Completeness of a frame F at a sample of M_n is one values-only rank,
    ``rank_modulo(F, N_n)`` of shape (codim_n + 1, cols + 1), and a complete
    frame is independent, so its own rank is taken only when completeness
    fails.  The verdicts are those of the three-rank rule."""

    def test_complete_witness_takes_one_rank_per_frame(self, monkeypatch):
        lin = dataclasses.replace(filt.make_filtration_linear(fl.standard_flag([1, 3, 4])), fredholm=None)
        shapes = []
        real = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda a: shapes.append(np.shape(a)) or real(a))
        got = filt._check_level_samples(lin, lin.depth)["d_normality"]
        taken = list(shapes)
        assert got["status"] == "pass"
        records = got["evidence"]["rank_tests"]
        # one rank per frame, of N_n^T F beside one scale value: codim_n + 1 rows, cols + 1 columns
        d = lin.total.ambient_dim
        targets = [lin.delta[r["level"] + 1] if r["in"] == "next" else lin.total.dim for r in records]
        want = [(d - lin.delta[r["level"]] + 1, t - lin.delta[r["level"]] + 1) for r, t in zip(records, targets)]
        assert taken == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda: filt.make_filtration_linear(fl.standard_flag([1, 3, 4])),
            lambda: filt.make_filtration_sphere(fl.standard_flag([2, 4, 8])),
            lambda: filt.tangent_groupoid_filtration(filt.make_filtration_sphere(fl.standard_flag([2, 4, 8, 16]))),
        ],
        ids=["linear", "sphere", "tangent-groupoid-depth-4"],
    )
    def test_verdicts_are_the_three_rank_verdicts(self, make):
        f = make()
        got = filt.verify_filtration(f, n_samples=4).conditions["d_normality"]
        assert got["status"] == "pass"
        assert got["evidence"] == {"rank_tests": three_rank_normality(f)}

    def test_repeated_column_is_neither_independent_nor_complementing(self):
        # level 1's frame in level 2 repeats its first column in place of its
        # second (the column count still matches), and its frame in the total
        # has its first column appended (one column too many)
        lin = filt.make_filtration_linear(fl.standard_flag([1, 3, 4]))
        w = lin.witnesses[0]
        doubled = filt.NormalityWitness(
            lambda m: w.frame_in_next(m)[:, [0, 0]],
            lambda m: np.hstack([w.frame_in_big(m), w.frame_in_big(m)[:, :1]]),
        )
        bad = dataclasses.replace(lin, witnesses=[doubled] + lin.witnesses[1:])
        got = filt._check_level_samples(bad, bad.depth)["d_normality"]
        assert got["status"] == "fail"
        records = got["evidence"]["rank_tests"]
        for r in records:
            assert r["independent"] == r["complements_tangent"] == (r["level"] != 1)
        assert got["evidence"] == {"rank_tests": three_rank_normality(bad)}

    def test_frame_inside_a_rotated_tangent_space_does_not_complement_it(self):
        # level 1 of a rotated flag is spanned by B_1, and the frame B_1 C in
        # level 2 lies in T M_1 with the column count of a complement; against
        # the level's normal space N_1, N_1^T B_1 C is rounding noise of about
        # 1e-16, which must not count as the two directions the frame lacks
        from dnclab import operators as ops

        flag = fl.rotated_flag([2, 4], ops.identity() + ops.rank_one(0, 3, 1.0) + ops.rank_one(4, 1, -0.5))
        lin = filt.make_filtration_linear(flag, margin=0)
        inside = flag.level(1).space.basis_matrix(lin.total.ambient_dim) @ np.array([[1.0, 2.0], [-0.5, 3.0]])
        trap = filt.NormalityWitness(lambda m: inside, lin.witnesses[0].frame_in_big)
        f = dataclasses.replace(lin, witnesses=[trap] + lin.witnesses[1:])
        for s in f.level(1).samples:
            _, normal = linalg.kernel_with_complement(f.level(1).constraints.jacobian(s))
            assert linalg.rank(normal.T @ inside) > 0  # the noise counts against its own scale
        got = filt.verify_filtration(f, n_samples=4).conditions["d_normality"]
        assert got["status"] == "fail"
        records = got["evidence"]["rank_tests"]
        assert records == three_rank_normality(f)
        trapped = [r for r in records if r["level"] == 1 and r["in"] == "next"]
        assert len(trapped) == len(f.level(1).samples)
        for r in trapped:
            assert r["independent"] and not r["complements_tangent"]
            assert r["tangency_residual"] <= 1e-12
        assert all(r["complements_tangent"] for r in records if r not in trapped)


def _degenerate(lvl: geo.ImplicitManifold) -> geo.ImplicitManifold:
    """The same level cut out with its last constraint squared: the same
    zero set, whose constraint Jacobian drops one rank on it."""
    g = lvl.constraints

    def fn(x):
        y = g(x)
        return np.concatenate([y[:-1], y[-1:] ** 2])

    def jac(x):
        y, j = g(x), g.jacobian(x)
        return np.vstack([j[:-1], 2.0 * y[-1] * j[-1:]])

    return dataclasses.replace(lvl, constraints=geo.SmoothMap(g.domain_dim, g.codomain_dim, fn, jac, "squared"))


class TestOnePass:
    """Conditions (a), (d) and Fredholm come from one pass over the level
    samples: one evaluation and one decomposition of each level's constraint
    Jacobian at each of its samples, and one of the total's."""

    def test_each_jacobian_is_evaluated_and_decomposed_once_per_sample(self, sphere_filtration, monkeypatch):
        f = sphere_filtration
        assert f.witnesses is not None and f.fredholm is not None
        evaluated, decomposed, ranked = [], [], []
        jacobian = geo.SmoothMap.jacobian

        def spy_jacobian(self, x):
            j = jacobian(self, x).copy()  # a fresh array per call, to follow it by identity
            evaluated.append((self, np.asarray(x, float).tobytes(), j))
            return j

        kernel_with_complement, rank = linalg.kernel_with_complement, linalg.rank
        monkeypatch.setattr(geo.SmoothMap, "jacobian", spy_jacobian)
        monkeypatch.setattr(linalg, "kernel_with_complement", lambda a: decomposed.append(a) or kernel_with_complement(a))
        monkeypatch.setattr(linalg, "rank", lambda a: ranked.append(a) or rank(a))
        assert filt.verify_filtration(f, n_samples=4).passed
        for n in range(1, f.depth + 1):
            for s in f.level(n).samples:
                for g in (f.level(n).constraints, f.total.constraints):
                    (j,) = [j for m, x, j in evaluated if m is g and x == s.tobytes()]
                    assert sum(a is j for a in decomposed) == 1
                    assert not any(a is j for a in ranked)

    def test_off_level_sample_raises_where_frames_are_checked(self):
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]))
        lvl = lin.level(2)
        off = lvl.samples[0] + lin.witnesses[1].frame_in_big(lvl.samples[0])[:, 0]  # a unit normal step
        f = dataclasses.replace(lin, levels=[lin.level(1), dataclasses.replace(lvl, samples=[off] + lvl.samples[1:]), lin.level(3)])
        with pytest.raises(OffManifold, match="point not on"):
            filt.verify_filtration(f, n_samples=4)
        # without witnesses or a cutting map nothing raises, and the level's
        # Jacobian, constant on a linear level, still has its rank
        bare = filt.verify_filtration(dataclasses.replace(f, witnesses=None, fredholm=None), n_samples=4)
        assert bare.conditions["a_dimensions"]["status"] == "pass"
        assert bare.conditions["d_normality"]["status"] == "unverified"
        # a cutting map alone finds the sample off the flag level
        cut = filt.verify_filtration(dataclasses.replace(f, witnesses=None), n_samples=4).conditions["fredholm"]
        assert cut["status"] == "fail"
        missed = [r["membership_residual"] > filt.MEMBER_TOL for r in cut["evidence"]["samples"]]
        assert missed.count(True) == 1 and missed[len(lin.level(1).samples)]

    def test_degenerate_jacobian_raises_where_frames_are_checked(self):
        lin = filt.make_filtration_linear(fl.standard_flag([1, 2, 3]))
        f = dataclasses.replace(lin, levels=[lin.level(1), _degenerate(lin.level(2)), lin.level(3)])
        with pytest.raises(OffManifold, match="degenerate Jacobian"):
            filt.verify_filtration(f, n_samples=4)
        for claims in ({"fredholm": None}, {}):
            rep = filt.verify_filtration(dataclasses.replace(f, witnesses=None, **claims), n_samples=4)
            got = rep.conditions["a_dimensions"]
            assert got["status"] == "fail"
            assert got["evidence"]["measured"] == [[1], [3], [3]]
            assert rep.conditions["b_nesting"]["status"] == "pass"
            assert rep.conditions["fredholm"]["status"] == ("not_claimed" if claims else "pass")


class TestJsonSurface:
    def test_sphere_spec(self):
        f = filt.filtration_from_spec({"kind": "sphere", "delta": [2, 4, 8], "depth": 3})
        assert list(f.delta) == [1, 3, 7]

    def test_depth_truncates(self):
        f = filt.filtration_from_spec({"kind": "sphere", "delta": [2, 4, 8], "depth": 2})
        assert list(f.delta) == [1, 3]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            filt.filtration_from_spec({"kind": "nope", "delta": [1, 2]})

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "sphere", "delta": [2, 2]},
            {"kind": "sphere", "delta": [2, 4], "depth": 0},
            {"kind": "sphere"},
            {"delta": [2, 4]},
            {"kind": "sphere", "delta": [1, 2]},
            {"kind": "sphere", "delta": [2, 4], "depth": 9},
            {"kind": "sphere", "delta": [2, 4], "depth": "x"},
            ["sphere", [2, 4]],
            {"kind": "sphere", "delta": [2, 4, 8], "depth": 2.7},
            {"kind": "sphere", "delta": [2, 4, 8], "depth": True},
            {"kind": "sphere", "delta": "24"},
            {"kind": "sphere", "delta": [2.5, 4]},
            {"kind": "sphere", "delta": [True, 4]},
            # a key other than kind, delta and depth
            {"kind": "sphere", "delta": [2, 4], "margin": 5},
            # every kind but the sphere
            {"kind": "linear", "delta": [2, 4]},
            {"kind": "open", "delta": [2, 4]},
            {
                "kind": "product",
                "first": {"kind": "sphere", "delta": [2, 4]},
                "second": {"kind": "sphere", "delta": [2, 4]},
            },
            {"kind": "pair-groupoid", "base": {"kind": "sphere", "delta": [2, 4]}},
            {"kind": "tangent", "base": {"kind": "sphere", "delta": [2, 4]}},
            {"kind": "tangent-groupoid", "base": {"kind": "sphere", "delta": [2, 4]}},
            {"kind": "shifted-product", "base": {"kind": "sphere", "delta": [2, 4]}, "k": 2},
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
