"""Deformation-space points, charts, functor, groupoid algebra, the
remainder probe, and transversality through the functor."""

import collections
import dataclasses

import numpy as np
import pytest

from dnclab import catalog, dnc, geometry as geo, linalg, suites
from dnclab.errors import (
    DomainError,
    FiberMismatch,
    NotComposable,
    OutsideChart,
    PreconditionFailed,
    RadiusExceeded,
)
from dnclab.report import SuiteConfig
from dnclab.suites import run_suite


@pytest.fixture()
def axis_pair():
    return catalog.linear_pair(2, 1)


@pytest.fixture()
def flat(axis_pair):
    return catalog.flat_tubular(axis_pair)


class TestChart:
    def test_interior_point(self, flat):
        p = dnc.dnc_chart(flat, [2.0, 0.0], [0.0, 1.0], 0.25)
        assert p.kind == "interior" and p.lam == 0.25
        assert np.allclose(p.point, [2.0, 0.25])

    def test_boundary_point(self, flat):
        p = dnc.dnc_chart(flat, [2.0, 0.0], [0.0, 1.0], 0.0)
        assert p.kind == "boundary"
        assert np.allclose(p.point, [2.0, 0.0]) and np.allclose(p.normal, [0.0, 1.0])

    def test_roundtrip_newton_inversion(self, flat):
        m0, x0, t0 = np.array([2.0, 0.0]), np.array([0.0, 1.0]), 0.25
        p = dnc.dnc_chart(flat, m0, x0, t0)
        m, x, t = dnc.dnc_chart_inverse(flat, p)
        assert t == t0
        assert np.max(np.abs(m - m0)) <= 1e-9
        assert np.max(np.abs(x - x0)) <= 1e-9

    def test_radius_guard(self, axis_pair):
        small = catalog.flat_tubular(axis_pair, 0.1)
        with pytest.raises(RadiusExceeded):
            dnc.dnc_chart(small, [0.0, 0.0], [0.0, 1.0], 0.5)

    def test_outside_chart(self, axis_pair):
        small = catalog.flat_tubular(axis_pair, 0.5)
        p = dnc.DncPoint.interior(np.array([0.0, 5.0]), 0.01)
        with pytest.raises(OutsideChart):
            dnc.dnc_chart_inverse(small, p)

    def test_sphere_chart_roundtrip(self):
        pair = catalog.sphere_equator_pair(2)
        tub = catalog.sphere_tubular(pair)
        m0 = np.array([1.0, 0.0, 0.0])
        x0 = np.array([0.0, 0.0, 0.8])
        p = dnc.dnc_chart(tub, m0, x0, 0.5)
        m, x, t = dnc.dnc_chart_inverse(tub, p)
        assert t == 0.5
        assert np.max(np.abs(m - m0)) <= 1e-8
        assert np.max(np.abs(x - x0)) <= 1e-8


CLOSED_FORM_CHARTS = [
    catalog.flat_tubular(catalog.linear_pair(2, 1)),
    catalog.flat_tubular(catalog.linear_pair(4, 2)),
    catalog.sphere_tubular(catalog.sphere_equator_pair(2)),
    catalog.sphere_tubular(catalog.sphere_equator_pair(2, ambient=4)),
    catalog.sphere_tubular(catalog.sphere_equator_pair(3)),
]


def _wrong_inverse(tub, wrong):
    """``tub`` with its inverse replaced by wrong(q, base, y) of the true one."""
    return geo.TubularMap(tub.pair, tub.phi, lambda q: wrong(q, *tub.inverse(q)), tub.valid_radius)


class TestChartNewton:
    """Every chart is inverted in closed form, with no Newton step and no
    finite difference, and every inversion checks its own result."""

    @pytest.mark.parametrize("tub", CLOSED_FORM_CHARTS)
    def test_closed_form_round_trips(self, tub):
        for m in tub.pair.small.samples:
            _, nu = tub.pair.adapted_frame(m)
            for frac in (0.25, 0.5, 0.9):
                for i in range(nu.shape[1]):
                    x = frac * tub.valid_radius * nu[:, i]
                    q = tub(m, x)
                    base, y = tub.inverse(q)  # inverse after chart
                    assert np.max(np.abs(base - m)) <= 1e-12
                    assert np.max(np.abs(y - x)) <= 1e-12
                    assert np.max(np.abs(tub(base, y) - q)) <= 1e-12  # chart after inverse
                    base, v, t = dnc.dnc_chart_inverse(tub, dnc.DncPoint.interior(q, 0.5))
                    assert t == 0.5 and np.max(np.abs(base - m)) <= 1e-12
                    assert np.max(np.abs(0.5 * v - x)) <= 1e-12

    def test_base_moved_along_the_axis_is_rejected(self):
        # y = q - base keeps the chart residual at rounding level: only the fibre check sees it
        tub = _wrong_inverse(CLOSED_FORM_CHARTS[0], lambda q, p, y: (p + [0.1, 0.0], y - [0.1, 0.0]))
        base, y = tub.inverse(np.array([0.3, 0.7]))
        assert np.max(np.abs(tub(base, y) - [0.3, 0.7])) <= 1e-15 and tub.pair.contains(base)
        with pytest.raises(OutsideChart, match="normal fibre"):
            dnc.dnc_chart_inverse(tub, dnc.DncPoint.interior([0.3, 0.7], 0.5))

    def test_base_off_the_submanifold_is_rejected(self):
        tub = _wrong_inverse(CLOSED_FORM_CHARTS[0], lambda q, p, y: (p + [0.0, 0.1], y - [0.0, 0.1]))
        with pytest.raises(OutsideChart, match="base point off"):
            dnc.dnc_chart_inverse(tub, dnc.DncPoint.interior([0.3, 0.7], 0.5))

    def test_normal_vector_off_the_chart_point_is_rejected(self):
        # on the pair, in the fibre and within the radius, but phi(base, y) != q
        tub = _wrong_inverse(CLOSED_FORM_CHARTS[0], lambda q, p, y: (p, 0.5 * y))
        with pytest.raises(OutsideChart, match="residual"):
            dnc.dnc_chart_inverse(tub, dnc.DncPoint.interior([0.3, 0.7], 0.5))

    @pytest.mark.parametrize("tub", [CLOSED_FORM_CHARTS[0], CLOSED_FORM_CHARTS[2]])
    def test_normal_vector_beyond_the_radius_is_rejected(self, tub):
        m = tub.pair.small.samples[0]
        q = tub(m, 0.5 * tub.valid_radius * tub.pair.adapted_frame(m)[1][:, 0])
        bad = _wrong_inverse(tub, lambda q, p, y: (p, 3.0 * y))
        with pytest.raises(OutsideChart, match="radius"):
            dnc.dnc_chart_inverse(bad, dnc.DncPoint.interior(q, 0.5))

    @pytest.mark.parametrize("q", [[0.0, 0.0, 1.0], [0.0, 0.0, -0.5]])
    def test_sphere_pole_is_outside_the_chart(self, q):
        with pytest.raises(OutsideChart, match="no component"):
            dnc.dnc_chart_inverse(CLOSED_FORM_CHARTS[2], dnc.DncPoint.interior(q, 0.5))

    def test_flat_chart_needs_a_projector(self):
        big = catalog.linear_subspace(2, 2)
        small = geo.ImplicitManifold("axis", 2, 1, geo.linear_map(np.array([[0.0, 1.0]]), "no-projector"))
        with pytest.raises(DomainError, match="axis has no projector"):
            catalog.flat_tubular(geo.ManifoldPair(big, small))

    def test_no_finite_differences(self, monkeypatch):
        calls, projections = [], []
        real, real_project = geo.numeric_jacobian, geo.newton_project
        counted = lambda *a, **k: calls.append(a) or real(*a, **k)
        monkeypatch.setattr(geo, "numeric_jacobian", counted)
        monkeypatch.setattr(dnc, "numeric_jacobian", counted, raising=False)
        project = lambda *a: projections.append(a) or real_project(*a)
        monkeypatch.setattr(geo, "newton_project", project)
        monkeypatch.setattr(dnc, "newton_project", project, raising=False)
        flat = catalog.flat_tubular(catalog.linear_pair(2, 1))
        sph = catalog.sphere_tubular(catalog.sphere_equator_pair(2))
        p, y = dnc._tubular_inverse(flat, [0.3, 0.7])
        assert np.allclose(p, [0.3, 0.0]) and np.allclose(y, [0.0, 0.7])
        p, y = dnc._tubular_inverse(sph, [0.8, 0.0, 0.6])
        assert np.max(np.abs(sph(p, y) - [0.8, 0.0, 0.6])) <= 1e-11
        assert calls == [] and projections == []
        assert run_suite(SuiteConfig("dnc-functoriality", samples=10)).passed
        assert calls == []


class TestFunctor:
    def test_fixture_jacobians_are_exact(self, axis_pair):
        rng = np.random.Generator(np.random.Philox(key=8))
        for fp in (suites._poly_pair_map(axis_pair), suites._quadratic_pair_map(axis_pair)):
            for _ in range(3):
                assert geo.verify_analytic_jacobian(fp.f, rng.normal(size=2))
        for v in catalog.sphere(2).samples[:3]:
            assert geo.verify_analytic_jacobian(suites._sphere_stretch_map(), v)

    def test_identity_map(self, axis_pair):
        fp = geo.PairMap(geo.SmoothMap(2, 2, lambda z: z.copy(), lambda z: np.eye(2)), axis_pair, axis_pair)
        p = dnc.DncPoint.boundary([1.0, 0.0], [0.0, 0.5])
        q = dnc.dnc_map(fp, p)
        assert np.allclose(q.point, p.point) and np.allclose(q.normal, p.normal, atol=1e-12)

    def test_stretch_on_boundary(self, axis_pair):
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]), lambda z: np.diag([1.0, 2.0]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        q = dnc.dnc_map(fp, dnc.DncPoint.boundary([1.0, 0.0], [0.0, 1.0]))
        assert np.allclose(q.point, [1.0, 0.0]) and np.allclose(q.normal, [0.0, 2.0])

    def test_fiber_preserved(self, axis_pair):
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0] + z[1] ** 2, z[1]]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        p = dnc.DncPoint.interior([0.3, 0.4], -0.7)
        assert dnc.dnc_map(fp, p).lam == -0.7

    def test_composition_chain_rule_on_random_points(self, axis_pair):
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0] + z[1] ** 2, z[1] * (1 + z[0] ** 2)]))
        g = geo.SmoothMap(2, 2, lambda z: np.array([2 * z[0] + z[1] ** 2, z[1] * (1 + z[1])]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        gp = geo.PairMap(g, axis_pair, axis_pair)
        comp = geo.PairMap(geo.compose_maps(g, f), axis_pair, axis_pair)
        rng = np.random.Generator(np.random.Philox(key=17))
        for i in range(50):
            if i % 2:
                p = dnc.DncPoint.interior(rng.normal(size=2), float(rng.uniform(0.1, 2)))
            else:
                p = dnc.DncPoint.boundary(
                    np.array([float(rng.uniform(-1, 1)), 0.0]),
                    np.array([0.0, float(rng.uniform(-1, 1))]),
                )
            lhs = dnc.dnc_map(comp, p)
            rhs = dnc.dnc_map(gp, dnc.dnc_map(fp, p))
            assert lhs.lam == rhs.lam
            assert np.max(np.abs(lhs.point - rhs.point)) <= 1e-8
            if p.kind == "boundary":
                assert np.max(np.abs(lhs.normal - rhs.normal)) <= 1e-8


class TestVectorSpaceIso:
    def test_rescaling_formula(self):
        p = dnc.DncPoint.interior(np.array([1.0, 2.0, 3.0 * 0.5, 0.0]), 0.5)
        w, t = dnc.dnc_vspace_iso(2, p)
        assert t == 0.5
        assert np.allclose(w, [1.0, 2.0, 3.0, 0.0])

    def test_unit_fiber_unchanged(self):
        p = dnc.DncPoint.interior(np.array([1.0, 2.0, 3.0]), 1.0)
        w, _ = dnc.dnc_vspace_iso(2, p)
        assert np.array_equal(w, p.point)

    def test_roundtrip_exact(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for i in range(100):
            if i % 4 == 0:
                base = rng.normal(size=5)
                base[2:] = 0.0
                x = rng.normal(size=5)
                x[:2] = 0.0
                p = dnc.DncPoint.boundary(base, x)
            else:
                p = dnc.DncPoint.interior(rng.normal(size=5), float(rng.uniform(0.1, 3)))
            w, t = dnc.dnc_vspace_iso(2, p)
            back = dnc.dnc_vspace_iso_inverse(2, w, t)
            assert back.lam == p.lam
            assert np.max(np.abs(back.point - p.point)) <= 1e-12
            if p.kind == "boundary":
                assert np.max(np.abs(back.normal - p.normal)) <= 1e-12

    def test_nonlinear_data_rejected(self):
        p = dnc.DncPoint.boundary(np.array([1.0, 2.0, 0.5]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            dnc.dnc_vspace_iso(2, p)  # base point leaves the subspace

    def test_intertwines_linear_pair_maps(self, axis_pair):
        # lower triangular linear map preserving the axis
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        fp = geo.PairMap(geo.SmoothMap(2, 2, lambda z, a=a: a @ z, lambda z, a=a: a), axis_pair, axis_pair)
        rng = np.random.Generator(np.random.Philox(key=9))
        for _ in range(20):
            p = dnc.DncPoint.interior(rng.normal(size=2), float(rng.uniform(0.2, 2)))
            w, t = dnc.dnc_vspace_iso(1, p)
            q = dnc.dnc_map(fp, p)
            wq, tq = dnc.dnc_vspace_iso(1, q)
            assert tq == t
            assert np.max(np.abs(wq - a @ w)) <= 1e-9


class TestProductSplit:
    def test_interior_split(self):
        p = dnc.DncPoint.interior(np.array([1.0, 2.0, 3.0]), 0.5)
        pa, pb = dnc.dnc_product_split(p, 2)
        assert pa.lam == pb.lam == 0.5
        assert np.array_equal(pa.point, [1.0, 2.0]) and np.array_equal(pb.point, [3.0])

    def test_boundary_split_normal_components(self):
        p = dnc.DncPoint.boundary(np.array([1.0, 0.0, 2.0, 0.0]), np.array([0.0, 3.0, 0.0, 4.0]))
        pa, pb = dnc.dnc_product_split(p, 2)
        assert np.array_equal(pa.normal, [0.0, 3.0]) and np.array_equal(pb.normal, [0.0, 4.0])

    def test_join_exact_inverse(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(50):
            p = dnc.DncPoint.interior(rng.normal(size=7), float(rng.uniform(0.1, 2)))
            pa, pb = dnc.dnc_product_split(p, 3)
            back = dnc.dnc_product_join(pa, pb)
            assert np.array_equal(back.point, p.point) and back.lam == p.lam

    def test_join_fiber_mismatch(self):
        with pytest.raises(FiberMismatch):
            dnc.dnc_product_join(
                dnc.DncPoint.interior(np.zeros(2), 1.0), dnc.DncPoint.interior(np.zeros(2), 2.0)
            )

    def test_suite_counts_only_fiber_mismatch_as_rejection(self, monkeypatch):
        # an unrelated error on the mismatched join must not read as a pass
        real = dnc.dnc_product_join

        def join(pa, pb):
            if pa.lam != pb.lam:
                raise ValueError("unrelated failure")
            return real(pa, pb)

        monkeypatch.setattr(dnc, "dnc_product_join", join)
        with pytest.raises(ValueError):
            run_suite(SuiteConfig("dnc-product", samples=8))

    def test_suite_fails_when_mismatch_is_accepted(self, monkeypatch):
        real = dnc.dnc_product_join

        def join(pa, pb):
            if pa.lam != pb.lam:
                pb = dnc.DncPoint.interior(pb.point, pa.lam)
            return real(pa, pb)

        monkeypatch.setattr(dnc, "dnc_product_join", join)
        rep = run_suite(SuiteConfig("dnc-product", samples=8))
        assert rep.checks[0].status == "fail"


class TestGroupoid:
    def test_pair_composition(self):
        a = dnc.TangentGroupoidElement.pair([1.0], [2.0], 1.0)
        b = dnc.TangentGroupoidElement.pair([2.0], [3.0], 1.0)
        c = dnc.tg_compose(a, b)
        assert np.array_equal(c.a, [1.0]) and np.array_equal(c.b, [3.0])

    def test_tangent_addition(self):
        a = dnc.TangentGroupoidElement.tangent([1.0, 0.0], [0.5, 0.0])
        b = dnc.TangentGroupoidElement.tangent([1.0, 0.0], [0.25, 1.0])
        assert np.array_equal(dnc.tg_compose(a, b).b, [0.75, 1.0])

    def test_fiber_mismatch(self):
        a = dnc.TangentGroupoidElement.pair([1.0], [2.0], 1.0)
        b = dnc.TangentGroupoidElement.pair([2.0], [3.0], 2.0)
        with pytest.raises(FiberMismatch):
            dnc.tg_compose(a, b)

    def test_not_composable(self):
        a = dnc.TangentGroupoidElement.pair([1.0], [2.0], 1.0)
        b = dnc.TangentGroupoidElement.pair([5.0], [3.0], 1.0)
        with pytest.raises(NotComposable):
            dnc.tg_compose(a, b)

    def test_inverses(self):
        a = dnc.TangentGroupoidElement.pair([1.0], [2.0], 2.0)
        inv = dnc.tg_inverse(a)
        assert np.array_equal(inv.a, [2.0]) and np.array_equal(inv.b, [1.0])
        t = dnc.TangentGroupoidElement.tangent([1.0], [0.5])
        assert np.array_equal(dnc.tg_inverse(t).b, [-0.5])
        unit = dnc.tg_compose(a, inv)
        assert np.array_equal(unit.a, unit.b)

    def test_map_linear(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        f = geo.SmoothMap(2, 2, lambda z: a @ z, lambda z: a)
        el = dnc.TangentGroupoidElement.tangent([1.0, 0.0], [0.0, 1.0])
        out = dnc.tg_map(f, el)
        assert np.allclose(out.a, a @ np.array([1.0, 0.0]))
        assert np.allclose(out.b, a @ np.array([0.0, 1.0]))

    def test_map_identity(self):
        f = geo.SmoothMap(2, 2, lambda z: z.copy(), lambda z: np.eye(2))
        el = dnc.TangentGroupoidElement.pair([1.0, 2.0], [3.0, 4.0], 0.5)
        out = dnc.tg_map(f, el)
        assert np.array_equal(out.a, el.a) and np.array_equal(out.b, el.b)


class TestTrivialBundle:
    def test_pair_split_formula(self):
        el = dnc.TangentGroupoidElement.pair([1.0, 0.0, 5.0, 6.0], [0.0, 1.0, 7.0, 8.0], 2.0)
        base, (u, w) = dnc.trivial_bundle_split(el, 2)
        assert np.array_equal(base.a, [1.0, 0.0]) and np.array_equal(base.b, [0.0, 1.0])
        assert np.array_equal(u, [5.0, 6.0])
        assert np.array_equal(w, (np.array([5.0, 6.0]) - np.array([7.0, 8.0])) / 2.0)

    def test_tangent_split(self):
        el = dnc.TangentGroupoidElement.tangent([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        base, (u, w) = dnc.trivial_bundle_split(el, 1)
        assert np.array_equal(base.a, [1.0, 2.0]) and np.array_equal(base.b, [0.1, 0.2])
        assert np.array_equal(u, [3.0]) and np.array_equal(w, [0.3])

    def test_roundtrip(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for i in range(50):
            if i % 3 == 0:
                el = dnc.TangentGroupoidElement.tangent(rng.normal(size=5), rng.normal(size=5))
            else:
                el = dnc.TangentGroupoidElement.pair(
                    rng.normal(size=5), rng.normal(size=5), float(rng.uniform(0.1, 2))
                )
            base, vecs = dnc.trivial_bundle_split(el, 2)
            back = dnc.trivial_bundle_join(base, vecs, 2)
            assert np.max(np.abs(back.a - el.a)) <= 1e-12
            assert np.max(np.abs(back.b - el.b)) <= 1e-12


    def test_zero_fiber_roundtrip(self):
        for el in (
            dnc.TangentGroupoidElement.pair([1.0, 2.0], [3.0, 4.0], 0.5),
            dnc.TangentGroupoidElement.tangent([1.0, 2.0], [0.1, 0.2]),
        ):
            base, (u, w) = dnc.trivial_bundle_split(el, 0)
            assert np.array_equal(base.a, el.a) and np.array_equal(base.b, el.b)
            assert u.size == 0 and w.size == 0
            back = dnc.trivial_bundle_join(base, (u, w), 0)
            assert np.array_equal(back.a, el.a) and np.array_equal(back.b, el.b)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_fiber_dimension_out_of_range(self, k):
        el = dnc.TangentGroupoidElement.pair([1.0, 2.0], [3.0, 4.0], 0.5)
        with pytest.raises(DomainError):
            dnc.trivial_bundle_split(el, k)


class TestTaylorProbe:
    def test_linear_zero_remainder(self, axis_pair, flat):
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]), lambda z: np.diag([1.0, 2.0]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        rs = dnc.taylor_probe(fp, flat, flat, [0.0, 0.0], [0.0, 1.0], [0.5, 0.25, 0.125])
        assert max(rs) <= 1e-10

    def test_quadratic_closed_form(self, axis_pair, flat):
        # f = (x, y + y^2): the rescaled fiber is c + t c^2, remainder t c^2
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], z[1] + z[1] ** 2]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        ts = [2.0 ** (-k) for k in range(1, 11)]
        rs = dnc.taylor_probe(fp, flat, flat, [0.0, 0.0], [0.0, 1.0], ts)
        for t, r in zip(ts, rs):
            assert abs(r - t) <= 1e-8  # c = 1
        slope = linalg.loglog_slope(np.asarray(ts), np.asarray(rs))
        assert slope >= 0.9

    def test_suite_linear_remainder_at_rounding_level(self):
        rep = run_suite(SuiteConfig("taylor-remainder"))
        (check,) = [c for c in rep.checks if c.name == "linear-map-zero-remainder"]
        assert check.passed and check.residuals["max_remainder"] <= 1e-14

    def test_radius_guard(self, axis_pair):
        small = catalog.flat_tubular(axis_pair, 0.2)
        f = geo.SmoothMap(2, 2, lambda z: z.copy())
        fp = geo.PairMap(f, axis_pair, axis_pair)
        with pytest.raises(RadiusExceeded):
            dnc.taylor_probe(fp, small, small, [0.0, 0.0], [0.0, 1.0], [0.5])

    def test_recovered_normal_beyond_the_target_radius(self, axis_pair, flat):
        # f doubles the normal vector: (0.3, t) maps to (0.3, 2t), whose normal
        # vector 2t lies beyond the target chart's radius of 1e-3
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]), lambda z: np.diag([1.0, 2.0]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        narrow = dataclasses.replace(flat, valid_radius=1e-3)
        with pytest.raises(OutsideChart):
            dnc.taylor_probe(fp, flat, narrow, [0.3, 0.0], [0.0, 1.0], [0.5, 0.25])


class TestTransversalityCheck:
    def _fixture(self, axis_pair):
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]), lambda z: np.diag([1.0, 2.0]))
        fp = geo.PairMap(f, axis_pair, axis_pair)
        z = geo.ImplicitManifold(
            "diag",
            2,
            1,
            geo.SmoothMap(2, 1, lambda p: np.array([p[1] - p[0]]), lambda p: np.array([[-1.0, 1.0]])),
            samples=[np.array([0.0, 0.0]), np.array([1.0, 1.0])],
        )
        z0 = geo.ImplicitManifold(
            "origin",
            2,
            0,
            geo.SmoothMap(2, 2, lambda p: p.copy(), lambda p: np.eye(2)),
            samples=[np.array([0.0, 0.0])],
        )
        return fp, geo.ManifoldPair(z, z0)

    def test_identity_style_pass(self, axis_pair):
        fp, zpair = self._fixture(axis_pair)
        samples = [
            dnc.DncPoint.interior([2.0, 1.0], 1.0),  # image on the diagonal
            dnc.DncPoint.interior([1.0, 0.7], 1.0),
            dnc.DncPoint.boundary([0.0, 0.0], [0.0, 0.3]),
        ]
        rep = dnc.dnc_transversality_check(fp, zpair, samples)
        assert rep["passed"]
        names = [c["name"] for c in rep["checks"]]
        assert any(n.startswith("membership_equivalence") for n in names)
        assert any(n.startswith("boundary_block_transversality") for n in names)

    def test_membership_bidirectional(self, axis_pair):
        fp, zpair = self._fixture(axis_pair)
        onto = dnc.DncPoint.interior([2.0, 1.0], 1.0)
        away = dnc.DncPoint.interior([2.0, 0.9], 1.0)
        assert dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, onto))
        assert dnc.preimage_membership(fp, zpair, onto)
        assert not dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, away))
        assert not dnc.preimage_membership(fp, zpair, away)

    def test_boundary_membership_reads_the_z_frame(self, axis_pair):
        # T Z at the origin is the diagonal, whose normal part spans the y axis
        fp, zpair = self._fixture(axis_pair)
        onto = dnc.DncPoint.boundary([0.0, 0.0], [0.0, 0.3])
        off_z0 = dnc.DncPoint.boundary([0.5, 0.0], [0.0, 0.3])
        assert dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, onto))
        assert dnc.preimage_membership(fp, zpair, onto)
        assert not dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, off_z0))
        assert not dnc.preimage_membership(fp, zpair, off_z0)

    def test_base_point_between_the_tolerances_gets_a_verdict(self, axis_pair):
        # inside the membership tolerance 1e-7 of Z0 but not where the adapted
        # frame of (Z, Z0) exists, within 1e-8 of Z0 and of Z: not a member
        fp, zpair = self._fixture(axis_pair)
        p = dnc.DncPoint.boundary([5e-8, 0.0], [0.0, 0.3])  # 5e-8 off Z0
        assert not dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, p))
        assert not dnc.preimage_membership(fp, zpair, p)
        rep = dnc.dnc_transversality_check(fp, zpair, [p])
        assert rep["passed"]
        (member,) = [c for c in rep["checks"] if c["name"].startswith("membership_equivalence")]
        assert member["evidence"] == {"image_side": False, "preimage_side": False}
        on_z0_off_z = dnc.DncPoint.boundary([-6e-9, 6e-9], [0.0, 0.3])  # 6e-9 off Z0, 1.2e-8 off Z
        assert not dnc.dnc_membership(fp.target, zpair, on_z0_off_z)

    def test_accepted_base_point_is_projected_before_it_is_mapped(self, axis_pair):
        # 6e-9 off the axis, so accepted onto the source pair; mapped as it
        # stands, diag(1, 2) would put its image 1.2e-8 off the target axis
        fp, zpair = self._fixture(axis_pair)
        p = dnc.DncPoint.boundary([-6e-9, 6e-9], [0.0, 0.3])
        image = dnc.dnc_map(fp, p)
        assert fp.target.small.constraint_norm(image.point) <= 1e-10
        rep = dnc.dnc_transversality_check(fp, zpair, [p])
        assert rep["passed"]
        names = [c["name"] for c in rep["checks"]]
        assert names == ["boundary_block_transversality[0]", "membership_equivalence[0]"]
        assert rep["checks"][1]["evidence"] == {"image_side": True, "preimage_side": True}

    def test_interior_image_between_the_tolerances_gets_a_verdict(self, axis_pair):
        # the stretch sends this point 5e-8 off Z: inside 1e-7, outside the
        # 1e-8 at which Z's tangent space is taken, so no member on either side
        fp, zpair = self._fixture(axis_pair)
        p = dnc.DncPoint.interior([1.0, (1.0 + 5e-8) / 2.0], 0.5)
        assert zpair.big.constraint_norm(dnc.dnc_map(fp, p).point) > 1e-8
        rep = dnc.dnc_transversality_check(fp, zpair, [p])
        assert rep["passed"]
        (member,) = rep["checks"]
        assert member["evidence"] == {"image_side": False, "preimage_side": False}
        assert dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, p)) == dnc.preimage_membership(fp, zpair, p)

    def test_repeated_boundary_points_cost_no_new_decision(self, monkeypatch):
        # every membership decision on Z, Z0 and the source pair's members,
        # counted on fresh pairs, so no memo is shared between the two runs
        def decisions(n):
            fp, zpair = self._fixture(catalog.linear_pair(2, 1))
            calls = []
            for member in (zpair.big, zpair.small, fp.source.big, fp.source.small):
                monkeypatch.setattr(member, "contains", lambda x, real=member.contains: calls.append(x) or real(x))
            boundary = [dnc.DncPoint.boundary([0.0, 0.0], [0.0, c]) for c in (0.3, -0.5, 0.0, 0.9)[:n]]
            assert dnc.dnc_transversality_check(fp, zpair, boundary)["passed"]
            return len(calls)

        one = decisions(1)
        assert one > 0
        assert decisions(4) == one

    def test_interior_samples_are_mapped_and_decided_once(self, axis_pair, monkeypatch):
        # evaluations of f and decisions on Z beyond the hypotheses, for
        # interior samples whose images land on Z and get the rank test
        fp, zpair = self._fixture(axis_pair)
        evals, decisions = [], []
        monkeypatch.setattr(fp.f, "fn", lambda x, real=fp.f.fn: evals.append(x) or real(x))
        monkeypatch.setattr(zpair.big, "contains", lambda x, real=zpair.big.contains: decisions.append(x) or real(x))
        dnc.dnc_transversality_check(fp, zpair, [])
        hypotheses = len(evals), len(decisions)
        del evals[:], decisions[:]
        samples = [dnc.DncPoint.interior([2.0 * c, c], 1.0) for c in (1.0, -0.5, 0.3)]
        rep = dnc.dnc_transversality_check(fp, zpair, samples)
        assert rep["passed"]
        assert sum(c["name"].startswith("interior_transversality") for c in rep["checks"]) == len(samples)
        assert (len(evals), len(decisions)) == (hypotheses[0] + len(samples), hypotheses[1] + len(samples))

    def test_one_z_tangent_basis_per_boundary_sample(self, axis_pair, monkeypatch):
        fp, zpair = self._fixture(axis_pair)
        z = zpair.big
        calls = []
        real = z._kernel_basis  # every Z tangent basis, gated or not, is this nullspace
        monkeypatch.setattr(z, "_kernel_basis", lambda x: calls.append(x) or real(x))
        dnc.dnc_transversality_check(fp, zpair, [])
        hypotheses = len(calls)
        boundary = [dnc.DncPoint.boundary([0.0, 0.0], [0.0, c]) for c in (0.3, -0.5, 0.0, 0.9)]
        del calls[:]
        rep = dnc.dnc_transversality_check(fp, zpair, boundary)
        assert rep["passed"]
        assert sum(c["name"].startswith("membership_equivalence") for c in rep["checks"]) == len(boundary)
        assert len(calls) == hypotheses + 1  # one adapted frame of (Z, Z0) at the shared base point

    def test_each_base_point_is_decided_once(self, monkeypatch):
        # with k boundary samples over the origin, the work that depends on
        # the base point alone (the SVDs of both fibres, of the frames there and
        # of the block rank, and the Jacobians of f beyond the one dnc_map
        # takes per sample) is done once; counted on fresh pairs, less the
        # hypotheses' own work
        svds = []
        for name in ("nullspace", "orthonormalize", "rank"):
            real = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda a, name=name, real=real: svds.append(name) or real(a))

        def per_base(k):
            fp, zpair = self._fixture(catalog.linear_pair(2, 1))
            jacobians = []
            monkeypatch.setattr(fp.f, "jacobian", lambda x, real=fp.f.jacobian: jacobians.append(x) or real(x))
            counts = []
            boundary = [dnc.DncPoint.boundary([0.0, 0.0], [0.0, c]) for c in (0.3, -0.5, 0.0, 0.9)[:k]]
            for samples in ([], boundary):
                del svds[:], jacobians[:]
                assert dnc.dnc_transversality_check(fp, zpair, samples)["passed"]
                counts.append((collections.Counter(svds), len(jacobians)))
            (svds0, jacobians0), (svds1, jacobians1) = counts
            return svds1 - svds0, jacobians1 - jacobians0 - k

        one = per_base(1)
        assert one[0]["rank"] == 1 and one[1] == 2  # the block rank; Df in the preimage fibre and the block
        assert per_base(4) == one

    def test_fibres_are_keyed_on_the_base_point_only(self):
        # Z = {z = x^2} touches the target's x-axis at the origin, so Z0 is the
        # origin alone and carries no sample (Z is not transverse to the axis
        # there); the fibre over it is the y-axis of the yz normal plane, so
        # normal vectors at the one base point read both ways
        pair = catalog.linear_pair(3, 1)
        fp = geo.PairMap(geo.linear_map(np.diag([1.0, 2.0, 3.0])), pair, pair)
        z = geo.ImplicitManifold(
            "z=x^2",
            3,
            2,
            geo.SmoothMap(3, 1, lambda p: np.array([p[2] - p[0] ** 2]), lambda p: np.array([[-2.0 * p[0], 0.0, 1.0]])),
        )
        zpair = geo.ManifoldPair(z, geo.ImplicitManifold("origin", 3, 0, geo.linear_map(np.eye(3))))
        normals = [[0.0, 0.3, 0.0], [0.0, 0.0, 0.3], [0.0, -0.5, 0.0], [0.0, 0.3, 0.3]]
        samples = [dnc.DncPoint.boundary(np.zeros(3), x) for x in normals]
        rep = dnc.dnc_transversality_check(fp, zpair, samples)
        assert rep["passed"]
        evidence = [c["evidence"] for c in rep["checks"] if c["name"].startswith("membership_equivalence")]
        assert [e["image_side"] for e in evidence] == [True, False, True, False]
        for p, e in zip(samples, evidence):
            assert e == {
                "image_side": dnc.dnc_membership(fp.target, zpair, dnc.dnc_map(fp, p)),
                "preimage_side": dnc.preimage_membership(fp, zpair, p),
            }

    def test_precondition_named(self, axis_pair):
        fp, zpair = self._fixture(axis_pair)
        bad_z = geo.ImplicitManifold(
            "axis-copy",
            2,
            1,
            geo.SmoothMap(2, 1, lambda p: np.array([p[1]]), lambda p: np.array([[0.0, 1.0]])),
            samples=[np.array([0.0, 0.0])],
        )
        with pytest.raises(PreconditionFailed, match="z_transverse_to_target_submanifold"):
            dnc.dnc_transversality_check(fp, geo.ManifoldPair(bad_z, zpair.small), [])


class TestSampleFloors:
    """A suite that cycles through several kinds of sample draws at least
    one of each, however small ``--samples`` is."""

    FLOORS = {
        "dnc-vspace-iso": (2, {"boundary", "interior"}),
        "dnc-product": (2, {"boundary", "interior"}),
        "trivial-bundle": (2, {"tangent", "pair"}),
        "groupoid-axioms": (2, {"tangent", "pair"}),
        "dnc-transversality": (3, {"boundary", "interior"}),
    }

    @pytest.mark.parametrize("suite", sorted(FLOORS))
    def test_one_sample_draws_every_kind(self, suite, monkeypatch):
        floor, kinds = self.FLOORS[suite]
        seen = set()
        point, element = dnc.DncPoint, dnc.TangentGroupoidElement
        for cls, kind in ((point, "boundary"), (point, "interior"), (element, "tangent"), (element, "pair")):
            spy = lambda *args, _real=getattr(cls, kind), _kind=kind: seen.add(_kind) or _real(*args)
            monkeypatch.setattr(cls, kind, staticmethod(spy))
        one = run_suite(SuiteConfig(suite, samples=1))
        assert seen == kinds
        at_floor = run_suite(SuiteConfig(suite, samples=floor))
        assert [c.to_json() for c in one.checks] == [c.to_json() for c in at_floor.checks]
        assert one.passed
