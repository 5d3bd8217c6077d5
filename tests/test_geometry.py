"""Geometry layer: numerical differentiation contracts, implicit manifolds,
pairs, tubular maps, pushforwards and the triangularity defect."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from dnclab import catalog, geometry as geo, linalg, operators as ops
from dnclab.errors import NoConvergence, OffManifold


def valid_at_samples(m: geo.ImplicitManifold) -> bool:
    """The manifold invariant at every stored sample: the constraints vanish
    to 1e-9 and the constraint Jacobian has full rank ambient_dim - dim."""
    codim = m.ambient_dim - m.dim
    return all(
        m.constraint_norm(s) <= 1e-9 and linalg.rank(m.constraints.jacobian(s)) == codim
        for s in m.samples
    )


class TestJacobian:
    def test_square_function(self):
        j = geo.numeric_jacobian(lambda x: np.array([x[0] ** 2]), [3.0])
        assert abs(j[0, 0] - 6.0) <= 1e-8

    def test_linear_map_exact(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])
        j = geo.numeric_jacobian(lambda x: a @ x, [0.3, -0.2])
        assert np.max(np.abs(j - a)) <= 1e-10

    def test_analytic_jacobian_accepted(self):
        f = geo.SmoothMap(
            1, 1, lambda x: np.array([np.sin(x[0])]), lambda x: np.array([[np.cos(x[0])]])
        )
        assert geo.verify_analytic_jacobian(f, [0.7])

    def test_injected_bug_detected(self):
        f = geo.SmoothMap(
            1, 1, lambda x: np.array([np.sin(x[0])]), lambda x: np.array([[np.cos(x[0]) + 0.01]])
        )
        assert not geo.verify_analytic_jacobian(f, [0.7])

    def test_missing_jacobian_is_a_domain_error(self):
        with pytest.raises(geo.DomainError, match="no analytic jacobian"):
            geo.verify_analytic_jacobian(geo.SmoothMap(1, 1, lambda x: x**2), [0.7])


def jac_along(f, x, v, h=1e-6):
    """Central difference of the Jacobian along v: the reference for hvp."""
    return (f.jac(x + h * v) - f.jac(x - h * v)) / (2 * h)


class TestSecondDerivative:
    @pytest.mark.parametrize(
        "manifold",
        [catalog.sphere(3, ambient=6), catalog.sphere(2), catalog.linear_subspace(5, 2)],
        ids=lambda m: m.name,
    )
    def test_catalog_hvp_matches_jacobian_difference(self, manifold):
        rng = np.random.Generator(np.random.Philox(key=3))
        g = manifold.constraints
        for x in manifold.samples[:3]:
            v = rng.normal(size=x.size)
            assert np.max(np.abs(g.hvp(x, v) - jac_along(g, x, v))) <= 1e-8

    def test_compose_propagates_hvp_by_chain_rule(self):
        inner = geo.SmoothMap(
            2,
            3,
            lambda x: np.array([x[0] ** 2, x[0] * x[1], np.sin(x[1])]),
            lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]], [0.0, np.cos(x[1])]]),
            "inner",
            lambda x, v: np.array([[2 * v[0], 0.0], [v[1], v[0]], [0.0, -np.sin(x[1]) * v[1]]]),
        )
        h = geo.compose_maps(catalog.sphere(2).constraints, inner)
        x, v = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        assert h.hvp is not None
        assert geo.verify_analytic_jacobian(h, x)
        assert np.max(np.abs(h.hvp(x, v) - jac_along(h, x, v))) <= 1e-8

    def test_compose_without_second_derivative_has_none(self):
        bare = geo.SmoothMap(2, 2, lambda x: x**2, lambda x: np.diag(2 * x), "bare")
        h = geo.compose_maps(catalog.sphere(1).constraints, bare)
        assert h.jac is not None and h.hvp is None

    def test_linear_outer_map_never_evaluates_the_inner_map(self):
        calls = []

        def fn(x):
            calls.append(x)
            return np.array([x[0] ** 2, x[0] * x[1], np.sin(x[1])])

        inner = geo.SmoothMap(
            2,
            3,
            fn,
            lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]], [0.0, np.cos(x[1])]]),
            "inner",
            lambda x, v: np.array([[2 * v[0], 0.0], [v[1], v[0]], [0.0, -np.sin(x[1]) * v[1]]]),
        )
        a = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])
        h = geo.compose_maps(geo.linear_map(a, "a"), inner)
        x, v = np.array([0.3, -0.7]), np.array([1.1, 0.4])
        jac, hvp = h.jacobian(x), h.hvp(x, v)
        assert calls == []
        assert np.array_equal(jac, a @ inner.jac(x))
        assert np.array_equal(hvp, a @ inner.hvp(x, v))
        assert geo.verify_analytic_jacobian(h, x)

    def test_only_linear_map_carries_a_matrix(self):
        a = np.array([[1.0, 2.0], [0.0, -1.0]])
        assert np.array_equal(geo.linear_map(a).matrix, a)
        assert geo.SmoothMap(2, 2, lambda x: a @ x, lambda x: a).matrix is None
        # a composition is not marked linear, even of two linear maps
        assert geo.compose_maps(geo.linear_map(a), geo.linear_map(a)).matrix is None

    def test_linear_map(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 3.0]])
        f = geo.linear_map(a, "a")
        x = np.array([0.5, 1.0, -2.0])
        assert np.array_equal(f(x), a @ x)
        assert np.array_equal(f.jacobian(x), a)
        assert geo.verify_analytic_jacobian(f, x)
        assert not np.any(f.hvp(x, x))


class TestRankThreshold:
    def test_every_decision_reads_rank_rtol(self, monkeypatch):
        a = np.diag([1.0, 1e-12])
        op = ops.SequenceOperator(0, 2, a)  # window block diag(1, 1e-12), unit tail
        assert linalg.rank(a) == 1 and not ops.is_glk(op)
        monkeypatch.setattr(linalg, "RANK_RTOL", 0.0)
        assert linalg.rank(a) == 2
        assert linalg.nullspace(a).shape[1] == 0
        assert linalg.orthonormalize(a).shape[1] == 2
        assert ops.is_glk(op)

    def test_threshold_is_decided_in_linalg_alone(self):
        # no function takes a threshold of its own, and only linalg reads
        # RANK_RTOL or the constants of the two truncation levels
        src = Path(linalg.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                    assert "rtol" not in names, f"{path.name}:{node.lineno} takes rtol"
                if path.name != "linalg.py" and isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    assert name not in ("RANK_RTOL", "LEVEL_MARGIN", "LEVEL_STEP"), f"{path.name}:{node.lineno} reads {name}"

    def test_every_svd_is_taken_in_linalg(self):
        # the one rank threshold is applied to singular values from linalg,
        # and a caller needing the values themselves reads linalg.singular_values;
        # rank's full-rank certificate is the one Cholesky factorisation, so
        # every factorisation stays in the module that owns the threshold
        src = Path(linalg.__file__).parent
        for path in sorted(src.glob("*.py")):
            if path.name == "linalg.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                for name in ("svd", "cholesky"):
                    if isinstance(node, ast.Attribute):
                        assert node.attr != name, f"{path.name}:{node.lineno} calls {name}"
                    if isinstance(node, ast.ImportFrom):
                        assert name not in [a.name for a in node.names], f"{path.name}:{node.lineno} imports {name}"


class TestOneDifferentiationPath:
    SRC = Path(geo.__file__).parent

    def test_no_function_takes_a_scheme_switch(self):
        for path in sorted(self.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    a = node.args
                    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                    assert not names & {"check", "richardson"}, f"{path.name}:{node.lineno}"

    def test_steps_outside_geometry_are_the_default(self):
        # outside geometry, a finite difference takes no step or default_step(...)
        for path in sorted(self.SRC.glob("*.py")):
            if path.name == "geometry.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name not in ("central_difference", "numeric_jacobian"):
                    continue
                steps = node.args[3:] if name == "central_difference" else node.args[2:]
                steps += [k.value for k in node.keywords if k.arg == "h"]
                for step in steps:
                    called = step.func if isinstance(step, ast.Call) else None
                    callee = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
                    assert callee == "default_step", f"{path.name}:{node.lineno} chooses its own step"


class TestImplicitManifolds:
    def test_circle_tangent(self):
        t = catalog.sphere(1).tangent_basis([1.0, 0.0])
        assert np.allclose(np.abs(t.ravel()), [0.0, 1.0])

    def test_sphere_tangent_north_pole(self):
        t = catalog.sphere(2).tangent_basis([0.0, 0.0, 1.0])
        assert np.allclose(t[2, :], 0.0)
        assert np.linalg.matrix_rank(t) == 2

    def test_graph_tangent_kernel_oracle(self):
        # oracle: the kernel of [-2x, 1] at x = 1 is spanned by (1, 2)/sqrt(5)
        g = catalog.graph_manifold(lambda u: np.array([u[0] ** 2]), 1, 1, [np.array([1.0])])
        t = g.tangent_basis([1.0, 1.0]).ravel()
        want = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(np.abs(t), np.abs(want), atol=1e-10)

    def test_validation_at_samples(self):
        for m in (catalog.sphere(1), catalog.sphere(3), catalog.projective_space(2)):
            assert valid_at_samples(m)

    def test_off_manifold_rejected(self):
        with pytest.raises(OffManifold):
            catalog.sphere(1).tangent_basis([2.0, 0.0])

    @pytest.mark.parametrize("k, big_n", [(1, None), (2, None), (1, 3), (2, 3), (2, 4)])
    def test_projective_jacobians_are_exact(self, k, big_n):
        rp = catalog.projective_space(k, big_n=big_n)
        cover = catalog.sym_embed_map(k, ambient_in=big_n)
        rng = np.random.Generator(np.random.Philox(key=k))
        for s in rp.samples[:3]:
            assert geo.verify_analytic_jacobian(rp.constraints, s)
            assert geo.verify_analytic_jacobian(rp.constraints, s + 0.1 * rng.normal(size=s.size))
        for _ in range(3):
            assert geo.verify_analytic_jacobian(cover, rng.normal(size=cover.domain_dim))


class TestNewtonProject:
    def test_circle_radial(self):
        assert np.allclose(geo.newton_project(catalog.sphere(1), [2.0, 0.0]), [1.0, 0.0])

    def test_sphere_vertical(self):
        assert np.allclose(
            geo.newton_project(catalog.sphere(2), [0.0, 0.0, 0.5]), [0.0, 0.0, 1.0], atol=1e-10
        )

    def test_no_convergence_from_singular_start(self):
        with pytest.raises(NoConvergence):
            geo.newton_project(catalog.sphere(1), [0.0, 0.0])


class TestPairsAndTubulars:
    def test_axis_normal_frame(self):
        pair = catalog.linear_pair(2, 1)
        nu = geo.normal_frame(pair, [2.0, 0.0])
        assert np.allclose(np.abs(nu.ravel()), [0.0, 1.0])

    def test_equator_vertical_direction(self):
        pair = catalog.sphere_equator_pair(2)
        nu = geo.normal_frame(pair, [1.0, 0.0, 0.0])
        assert np.allclose(np.abs(nu.ravel()), [0.0, 0.0, 1.0], atol=1e-12)

    def test_rank_nullity(self):
        pair = catalog.sphere_equator_pair(3)
        for m in pair.small.samples:
            nu = geo.normal_frame(pair, m)
            assert nu.shape[1] == pair.big.dim - pair.small.dim

    def test_sphere_tubular_contract(self):
        pair = catalog.sphere_equator_pair(2)
        assert catalog.sphere_tubular(pair).verify()["passed"]

    @pytest.mark.parametrize("k", [3, 4])
    def test_sphere_tubular_fixes_zero_section_to_rounding(self, k):
        # m / |m| moves some samples m by an ulp
        assert catalog.sphere_tubular(catalog.sphere_equator_pair(k)).verify()["passed"]

    def test_moved_zero_section_fails_verify(self):
        tub = catalog.flat_tubular(catalog.linear_pair(3, 1))
        moved = geo.TubularMap(tub.pair, lambda m, x: m + x + 1e-9, tub.dphi, tub.valid_radius)
        rep = moved.verify()
        assert not rep["passed"]
        assert all(r["zero_fix"] == pytest.approx(1e-9) for r in rep["samples"])

    def test_flat_tubular_contract(self):
        pair = catalog.linear_pair(3, 1)
        assert catalog.flat_tubular(pair).verify()["passed"]

    @pytest.mark.parametrize(
        "tub",
        [
            catalog.flat_tubular(catalog.linear_pair(3, 1)),
            catalog.sphere_tubular(catalog.sphere_equator_pair(2)),
        ],
    )
    def test_wrong_dphi_fails_verify(self, tub):
        def scaled(which):
            def dphi(m, x):
                parts = list(tub.dphi(m, x))
                parts[which] = 1.01 * np.asarray(parts[which])
                return tuple(parts)

            return dphi

        for which in (0, 1):
            bad = geo.TubularMap(tub.pair, tub.phi, scaled(which), tub.valid_radius)
            rep = bad.verify()
            assert not rep["passed"]
            assert all(r["dphi"] > 1e-3 for r in rep["samples"])
            assert all(r["normal_differential"] <= 1e-6 for r in rep["samples"])


def _reference_complement(inner, outer):
    """The three-SVD complement: orthonormalise both bases, project, and
    orthonormalise again."""
    q_out = linalg.orthonormalize(outer)
    if inner.size == 0:
        return q_out
    q_in = linalg.orthonormalize(inner)
    return linalg.orthonormalize(q_out - q_in @ (q_in.T @ q_out))


def _assert_orthonormal(q):
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12


class TestOrthonormalFrames:
    """linalg.complement_within takes orthonormal bases; every basis the
    frames are built from is orthonormal where it is made."""

    PAIRS = {
        "sphere-equator": lambda: catalog.sphere_equator_pair(2),
        "parabola": lambda: catalog.parabola_pair(),
        "linear": lambda: catalog.linear_pair(3, 1),
    }

    @pytest.mark.parametrize(
        "manifold",
        [catalog.sphere(1), catalog.sphere(2)] + [m for f in PAIRS.values() for p in [f()] for m in (p.big, p.small)],
        ids=lambda m: m.name,
    )
    def test_bases_are_orthonormal(self, manifold):
        rng = np.random.default_rng(0)
        for x in manifold.samples:
            t = manifold.tangent_basis(x)
            _assert_orthonormal(t)
            _assert_orthonormal(linalg.nullspace(manifold.constraints.jacobian(x)))
            # a raw span of the tangent space, mixed by an invertible matrix
            raw = t @ (np.eye(t.shape[1]) + 0.5 * rng.standard_normal((t.shape[1], t.shape[1])))
            _assert_orthonormal(linalg.orthonormalize(raw))

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_single_svd_complement_matches_reference(self, name):
        pair = self.PAIRS[name]()
        for m in pair.small.samples:
            t_small, t_big = pair.small.tangent_basis(m), pair.big.tangent_basis(m)
            nu = linalg.complement_within(t_small, t_big)
            _assert_orthonormal(nu)
            ref = _reference_complement(t_small, t_big)
            assert nu.shape == ref.shape
            assert np.max(np.abs(nu @ nu.T - ref @ ref.T)) <= 1e-12
            assert np.max(np.abs(t_small.T @ nu), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_outer_may_be_any_spanning_columns(self, name):
        # only `inner` must be orthonormal; a raw span of the big tangent
        # space gives the same complement as its orthonormal basis
        pair = self.PAIRS[name]()
        rng = np.random.default_rng(1)
        for m in pair.small.samples:
            t_small, t_big = pair.small.tangent_basis(m), pair.big.tangent_basis(m)
            k = t_big.shape[1]
            raw = t_big @ (np.eye(k) + 0.5 * rng.standard_normal((k, k)))
            nu = linalg.complement_within(t_small, raw)
            _assert_orthonormal(nu)
            ref = _reference_complement(t_small, t_big)
            assert np.max(np.abs(nu @ nu.T - ref @ ref.T)) <= 1e-12

    def test_empty_inner_orthonormalises_outer(self):
        outer = np.array([[1.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
        q = linalg.complement_within(np.zeros((3, 0)), outer)
        _assert_orthonormal(q)
        assert q.shape == (3, 2)
        assert np.max(np.abs(q @ q.T - np.diag([1.0, 1.0, 0.0]))) <= 1e-12


class TestAdaptedFrameMemo:
    def test_repeat_is_bitwise_a_fresh_result(self):
        pair = catalog.parabola_pair()
        m = pair.small.samples[0]
        first = pair.adapted_frame(m)
        again = pair.adapted_frame(m)
        fresh = catalog.parabola_pair().adapted_frame(m)
        for a, b, c in zip(first, again, fresh):
            assert a is b  # served from the memo
            assert a.shape == c.shape and a.tobytes() == c.tobytes()

    def test_each_point_is_computed_once(self):
        pair = catalog.sphere_equator_pair(2)
        calls = []
        inner = pair.small._kernel_basis  # every tangent basis, gated or not, is this nullspace
        pair.small._kernel_basis = lambda x: calls.append(1) or inner(x)
        for _ in range(3):
            for m in pair.small.samples:
                pair.adapted_frame(m)
                geo.normal_frame(pair, list(m))
        assert len(calls) == len(pair.small.samples)

    def test_returned_arrays_are_read_only(self):
        pair = catalog.sphere_equator_pair(2)
        m = pair.small.samples[0]
        t, nu = pair.adapted_frame(m)
        for a in (t, nu):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_off_manifold_point_raises_every_time(self):
        pair = catalog.sphere_equator_pair(2)
        for _ in range(2):
            with pytest.raises(OffManifold):
                pair.adapted_frame([2.0, 0.0, 0.0])

    def test_a_decided_point_is_not_decided_again(self, monkeypatch):
        pair = catalog.parabola_pair()
        calls = []
        for member in (pair.big, pair.small):
            monkeypatch.setattr(member, "contains", lambda x, real=member.contains: calls.append(x) or real(x))
        m = pair.small.samples[0]
        assert pair.contains(m)
        decided = len(calls)
        pair.adapted_frame(m)
        assert decided == 2 and len(calls) == decided

    def test_off_pair_message_names_the_member_that_misses(self):
        pair = catalog.sphere_equator_pair(2)
        with pytest.raises(OffManifold, match=re.escape(f"not on {pair.small.name} ")):
            pair.adapted_frame([0.0, 0.0, 1.0])  # on the sphere, off the equator
        plane, line = catalog.linear_subspace(3, 2), catalog.linear_subspace(3, 1)
        on_both = line.samples[0]
        plane.region = lambda x: False  # the big member now misses every point
        with pytest.raises(OffManifold, match=re.escape(f"not on {plane.name} ")):
            geo.ManifoldPair(plane, line).adapted_frame(on_both)


class TestAcceptMemo:
    """``ManifoldPair.accept`` projects each point onto the submanifold once
    and keeps the foot point, read-only, as :meth:`adapted_frame` keeps
    frames; a point off the pair is never kept."""

    def test_repeat_returns_the_kept_read_only_foot(self, monkeypatch):
        pair = catalog.parabola_pair()
        projections = []
        real = geo.newton_project
        monkeypatch.setattr(geo, "newton_project", lambda man, x: projections.append(x) or real(man, x))
        m = pair.small.samples[0] + np.array([0.0, 5e-9])  # accepted, and moved by the projection
        first = pair.accept(m)
        again = pair.accept(list(m))
        fresh = real(catalog.parabola_pair().small, m)
        assert again is first and len(projections) == 1
        assert first.tobytes() == fresh.tobytes() and first.tobytes() != m.tobytes()
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert m.flags.writeable  # the caller's array is not the foot point

    def test_off_pair_point_raises_the_missing_members_error(self):
        pair = catalog.linear_pair(3, 1)
        on_pair = pair.small.samples[0]
        foot = pair.accept(on_pair)
        for _ in range(2):
            with pytest.raises(OffManifold, match=re.escape(f"not on {pair.small.name} ")):
                pair.accept([0.0, 1.0, 0.0])
        pair.big.region = lambda x: x[0] < 10.0
        for _ in range(2):
            with pytest.raises(OffManifold, match=re.escape(f"not on {pair.big.name} ")):
                pair.accept([20.0, 0.0, 0.0])
        assert list(pair._feet) == [on_pair.tobytes()]
        assert pair.accept(on_pair) is foot


@pytest.fixture()
def nullspaces(monkeypatch):
    """The inputs of every ``linalg.nullspace`` call, in order."""
    calls, real = [], linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda a: calls.append(a) or real(a))
    return calls


@pytest.fixture()
def complements(monkeypatch):
    """One entry per ``linalg.complement_within`` call."""
    calls, real = [], linalg.complement_within
    monkeypatch.setattr(linalg, "complement_within", lambda i, o: calls.append(1) or real(i, o))
    return calls


class TestLinearManifoldsDecomposeOnce:
    """A constraint map with a constant Jacobian (``linear_map``) has one
    tangent space: it is decomposed once per manifold, and a pair of two
    such members has one adapted frame.  Membership is still decided at
    every point."""

    def test_one_nullspace_serves_every_point(self, nullspaces, monkeypatch):
        plane = catalog.linear_subspace(4, 2)
        monkeypatch.setattr(plane.constraints, "jac", None)  # the constant matrix is read instead
        bases = [plane.tangent_basis(s) for s in plane.samples]
        assert len(nullspaces) == 1 and nullspaces[0] is plane.constraints.matrix
        assert all(b is bases[0] for b in bases)
        assert bases[0].shape == (4, 2) and np.array_equal(bases[0][2:], np.zeros((2, 2)))
        with pytest.raises(ValueError):
            bases[0][0, 0] = 1.0

    def test_off_point_raises_on_every_call(self, nullspaces):
        plane = catalog.linear_subspace(3, 2)
        basis = plane.tangent_basis(plane.samples[0])
        for _ in range(2):
            with pytest.raises(OffManifold, match=re.escape(f"not on {plane.name} ")):
                plane.tangent_basis([0.0, 0.0, 1.0])
        assert plane.tangent_basis(plane.samples[1]) is basis and len(nullspaces) == 1

    def test_degenerate_kernel_raises_on_every_call_and_is_not_kept(self, nullspaces):
        a = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]  # rank 1: a 2-dimensional kernel
        line = geo.ImplicitManifold("line", 3, 1, geo.linear_map(a), samples=[np.zeros(3)])
        for _ in range(2):
            with pytest.raises(OffManifold, match="degenerate"):
                line.tangent_basis(np.zeros(3))
        assert len(nullspaces) == 2 and line._linear_basis is None

    def test_constant_jacobian_is_a_read_only_copy(self):
        a = np.eye(3)[1:]
        f = geo.linear_map(a)
        a[0, 0] = 5.0  # the caller's array is not the map's
        assert np.array_equal(f.matrix, np.eye(3)[1:]) and f.jacobian(np.zeros(3)) is f.matrix
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 1.0
        assert geo.linear_map(a.T).matrix.flags.f_contiguous  # the copy keeps the layout

    def test_linear_pair_has_one_frame(self, complements):
        pair = catalog.linear_pair(4, 2)
        first, second = (pair.adapted_frame(m) for m in pair.small.samples[:2])
        assert first is second and len(complements) == 1
        t, nu = first
        assert t is pair.small.tangent_basis(pair.small.samples[0])
        assert nu.shape == (4, 2) and np.allclose(np.abs(nu[2:]), np.eye(2))

    def test_off_pair_point_raises_the_missing_members_error(self):
        pair = catalog.linear_pair(3, 1)
        frame = pair.adapted_frame(pair.small.samples[0])
        for _ in range(2):
            with pytest.raises(OffManifold, match=re.escape(f"not on {pair.small.name} ")):
                pair.adapted_frame([0.0, 1.0, 0.0])
        pair.big.region = lambda x: x[0] < 10.0
        for _ in range(2):
            with pytest.raises(OffManifold, match=re.escape(f"not on {pair.big.name} ")):
                pair.adapted_frame([20.0, 0.0, 0.0])
        assert pair.adapted_frame(pair.small.samples[1]) is frame

    def test_wrong_dimension_complement_raises_on_every_call(self, complements):
        plane = catalog.linear_subspace(3, 2)  # the xy-plane
        z_axis = geo.ImplicitManifold("z-axis", 3, 1, geo.linear_map(np.eye(3)[:2]), samples=[np.zeros(3)])
        pair = geo.ManifoldPair(plane, z_axis)
        for _ in range(2):
            with pytest.raises(OffManifold, match="wrong dimension"):
                pair.adapted_frame(np.zeros(3))
        assert len(complements) == 2

    def test_curved_member_is_still_decomposed_at_each_point(self, nullspaces):
        pair = catalog.parabola_pair()
        frames = [pair.adapted_frame(m) for m in pair.small.samples]
        flat = [a for a in nullspaces if a is pair.big.constraints.matrix]
        assert len(flat) == 1 and len(nullspaces) == 1 + len(pair.small.samples)
        assert len({id(t) for t, _ in frames}) == len(frames)
        for m, (t, nu) in zip(pair.small.samples, frames):
            tangent = np.array([1.0, 2.0 * m[0]]) / np.hypot(1.0, 2.0 * m[0])
            assert abs(abs(tangent @ t[:, 0]) - 1.0) <= 1e-9 and abs(tangent @ nu[:, 0]) <= 1e-9


class TestPushforward:
    def test_linear_stretch(self):
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]), lambda z: np.diag([1.0, 2.0]))
        fp = geo.PairMap(f, pair, pair)
        q, v = geo.normal_map_pushforward(fp, [1.0, 0.0], [0.0, 1.0])
        assert np.allclose(q, [1.0, 0.0]) and np.allclose(v, [0.0, 2.0])

    def test_identity_on_fibers(self):
        pair = catalog.linear_pair(2, 1)
        fp = geo.PairMap(geo.SmoothMap(2, 2, lambda z: z.copy(), lambda z: np.eye(2)), pair, pair)
        _, v = geo.normal_map_pushforward(fp, [0.3, 0.0], [0.0, 0.7])
        assert np.allclose(v, [0.0, 0.7], atol=1e-12)

    def test_fiber_action_from_jacobian(self):
        # f = (x + y^2, y (1 + x^2)) acts on fibers over (a, 0) by scaling 1 + a^2
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0] + z[1] ** 2, z[1] * (1 + z[0] ** 2)]))
        fp = geo.PairMap(f, pair, pair)
        a = 1.0
        _, v = geo.normal_map_pushforward(fp, [a, 0.0], [0.0, 1.0])
        assert np.allclose(v, [0.0, 1 + a * a], atol=1e-8)

    def test_functorial_on_samples(self):
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0] + z[1] ** 2, z[1] * (1 + z[0] ** 2)]))
        g = geo.SmoothMap(2, 2, lambda z: np.array([2 * z[0] + z[1] ** 2, z[1] * (1 + z[1])]))
        fp = geo.PairMap(f, pair, pair)
        gp = geo.PairMap(g, pair, pair)
        comp = geo.PairMap(geo.compose_maps(g, f), pair, pair)
        rng = np.random.Generator(np.random.Philox(key=3))
        for _ in range(10):
            m = np.array([float(rng.uniform(-1, 1)), 0.0])
            x = np.array([0.0, float(rng.uniform(-1, 1))])
            q1, v1 = geo.normal_map_pushforward(comp, m, x)
            qm, vm = geo.normal_map_pushforward(fp, m, x)
            q2, v2 = geo.normal_map_pushforward(gp, qm, vm)
            assert np.allclose(q1, q2, atol=1e-9)
            assert np.allclose(v1, v2, atol=1e-6)


class TestBlockStructure:
    def test_linear_map_residual_at_rounding(self):
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], 2.0 * z[1]]))
        fp = geo.PairMap(f, pair, pair)
        assert geo.check_block_structure(fp, [1.0, 0.0]) <= 1e-10

    def test_polynomial_fixture_within_tolerance(self):
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0] + z[1] ** 2, z[1] * (1 + z[0] ** 2)]))
        fp = geo.PairMap(f, pair, pair)
        assert geo.check_block_structure(fp, [1.0, 0.0]) <= 1e-6

    def test_curved_fixture_second_order(self):
        pp = catalog.parabola_pair()

        def curved(z):
            x, y = z
            return np.array([x, x * x + (y - x * x) * (1.0 + x + y)])

        fp = geo.PairMap(geo.SmoothMap(2, 2, curved), pp, pp)
        m = pp.small.samples[0]
        r1 = geo.check_block_structure(fp, m, h=1e-3)
        r2 = geo.check_block_structure(fp, m, h=5e-4)
        assert r1 > 0 and 3.0 <= r1 / r2 <= 5.0  # halving the step quarters the defect

    def test_non_pair_map_rejected(self):
        pair = catalog.linear_pair(2, 1)
        f = geo.SmoothMap(2, 2, lambda z: np.array([z[0], z[1] + 1.0]))  # axis misses axis
        fp = geo.PairMap(f, pair, pair)
        with pytest.raises(OffManifold):
            geo.check_block_structure(fp, [0.0, 0.0])


class TestNonlinearTransversality:
    def test_identity_always(self):
        plane = catalog.linear_subspace(2, 2)
        z = catalog.linear_subspace(2, 1)
        f = geo.SmoothMap(2, 2, lambda z_: z_.copy(), lambda z_: np.eye(2))
        assert geo.is_transversal_nonlinear(f, plane, z, [0.5, 0.0])

    def test_collapse_fails(self):
        plane = catalog.linear_subspace(2, 2)
        z = catalog.linear_subspace(2, 1)
        f = geo.SmoothMap(2, 2, lambda p: np.array([p[0], 0.0]))
        assert not geo.is_transversal_nonlinear(f, plane, z, [0.0, 0.0])

    def test_projection_generic(self):
        space = catalog.linear_subspace(3, 3)
        line = catalog.linear_subspace(2, 1)
        f = geo.SmoothMap(3, 2, lambda p: p[:2].copy())
        assert geo.is_transversal_nonlinear(f, space, line, [0.5, 0.0, 0.3])
