"""Generalized filtrations of desk-scale manifolds by nested finite
submanifolds, their functorial constructions, pullbacks, and a
condition-by-condition verifier.

A filtration stores its levels as implicit manifolds in one ambient model,
optional normality witnesses (global normal-bundle frames), an optional
tubular cover (membership predicates), and claim flags.  The verifier checks
exactly what is claimed and reports the rest as unverified or out of scope;
triviality of a normal bundle is never inferred from samples, and the
homotopy condition on the union is reported out of scope rather than
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DepthMismatch,
    DimensionTooSmall,
    EmptyFirstLevel,
    MissingWitness,
    NoConvergence,
    NotCovering,
    NotTransverse,
)
from .flags import DimensionSequence, Flag, flag_groupoid, flag_product, flag_subsequence
from .geometry import (
    ImplicitManifold,
    SmoothMap,
    central_difference,
    compose_maps,
    linear_map,
    newton_project,
)

__all__ = [
    "NormalityWitness",
    "TubularCover",
    "FredholmData",
    "Filtration",
    "CoveringMap",
    "make_filtration_linear",
    "make_filtration_open_subset",
    "make_filtration_sphere",
    "make_filtration_product",
    "pair_groupoid_filtration",
    "tangent_filtration",
    "tangent_groupoid_filtration",
    "subsequence_filtration",
    "pullback_filtration_covering",
    "pullback_filtration_fredholm",
    "example_v_filtration",
    "mixed_product_filtration",
    "verify_filtration",
    "filtration_from_spec",
]

NEST_TOL = 1e-8
MEMBER_TOL = 1e-7
# |lam| below which a divided difference is its lam = 0 limit, the derivative
FIBER_EPS = 1e-9


@dataclass
class NormalityWitness:
    """Global frames for the normal bundle of level n in level n+1 and in
    the total manifold; ``frame_*`` maps a level-n point to a matrix whose
    columns are the frame vectors."""

    level: int
    frame_in_next: Callable | None
    frame_in_big: Callable | None


@dataclass
class TubularCover:
    """Per-level membership predicates for tubular images V_n and the open
    sets U_n inside them."""

    v_contains: list[Callable]
    u_contains: list[Callable]


@dataclass
class FredholmData:
    """An index-zero map into a flag model space, transverse to the flag,
    cutting out the levels as preimages."""

    map: SmoothMap
    flag: Flag
    level_dim: int  # truncation of the flag model space the map lands in


@dataclass
class Filtration:
    delta: DimensionSequence
    levels: list[ImplicitManifold]
    total: ImplicitManifold
    witnesses: list[NormalityWitness] | None = None
    cover: TubularCover | None = None
    fredholm: FredholmData | None = None
    claimed_dense: bool | None = None  # None: measured without a claim
    claimed_normal: bool = False
    claimed_fredholm: bool = False
    ambient_sampler: Callable | None = None  # (rng, count) -> points of the total manifold

    @property
    def depth(self) -> int:
        return self.delta.depth

    def level(self, n: int) -> ImplicitManifold:
        return self.levels[n - 1]


# -- small helpers -------------------------------------------------------------


def _stack_maps(a: SmoothMap, b: SmoothMap, name: str) -> SmoothMap:
    jac = hvp = None
    if a.jac is not None and b.jac is not None:
        jac = lambda x: np.vstack([np.atleast_2d(a.jac(x)), np.atleast_2d(b.jac(x))])
        if a.hvp is not None and b.hvp is not None:
            hvp = lambda x, v: np.vstack([np.atleast_2d(a.hvp(x, v)), np.atleast_2d(b.hvp(x, v))])
    return SmoothMap(
        a.domain_dim,
        a.codomain_dim + b.codomain_dim,
        lambda x: np.concatenate([a(x), b(x)]),
        jac,
        name,
        hvp,
    )


def _restrict(g: SmoothMap, start: int, total: int, name: str = "") -> SmoothMap:
    """z -> g(z[start : start + g.domain_dim]) on a total-coordinate space."""
    pick = linear_map(np.eye(total)[start : start + g.domain_dim], "coords")
    return compose_maps(g, pick, name or g.name)


def _subspace_manifold(basis: np.ndarray, ambient: int, name: str, samples, region=None) -> ImplicitManifold:
    """Linear submanifold spanned by the (orthonormalized) columns of basis."""
    q = linalg.orthonormalize(basis)
    normal = linalg.nullspace(q.T)

    def projector(x):
        return q @ (q.T @ x)

    return ImplicitManifold(
        name,
        ambient,
        q.shape[1],
        linear_map(normal.T, name),
        samples,
        region=region,
        projector=projector,
    )


def _full_space(ambient: int, samples, region=None) -> ImplicitManifold:
    return ImplicitManifold(
        f"R^{ambient}",
        ambient,
        ambient,
        linear_map(np.zeros((0, ambient)), "free"),
        samples,
        region=region,
        projector=lambda x: np.asarray(x, dtype=float),
    )


def _truncation_sampler(support: int, ambient: int, normalize: bool = False) -> Callable:
    """Deterministic sampler of ambient model points supported on the leading
    coordinates reachable by the deepest level."""

    def sample(rng, count):
        out = []
        for _ in range(count):
            x = np.zeros(ambient)
            v = rng.normal(size=support)
            if normalize:
                v = v / np.linalg.norm(v)
            x[:support] = v
            out.append(x)
        return out

    return sample


# -- constructors ----------------------------------------------------------------


def make_filtration_linear(flag: Flag, margin: int = 5) -> Filtration:
    """Flag levels as linear submanifolds of the truncated model space;
    dense, normal, and cut out by the identity map against the flag."""
    ambient = max(s.space.support_bound() for s in flag.subspaces) + margin
    levels = []
    for n, sub in enumerate(flag.subspaces, start=1):
        basis = sub.space.basis_matrix(ambient)
        rng = np.random.Generator(np.random.Philox(key=100 + n))
        samples = [basis @ rng.normal(size=basis.shape[1]) for _ in range(6)]
        levels.append(_subspace_manifold(basis, ambient, f"E_{flag.delta[n]}", samples))
    total_rng = np.random.Generator(np.random.Philox(key=99))
    total = _full_space(ambient, [total_rng.normal(size=ambient) for _ in range(6)])

    witnesses = []
    for n in range(1, flag.depth):
        nxt = linalg.orthonormalize(flag.subspaces[n].space.basis_matrix(ambient))
        cur = linalg.orthonormalize(flag.subspaces[n - 1].space.basis_matrix(ambient))
        frame_next = linalg.complement_within(cur, nxt)
        frame_big = linalg.complement_within(cur, np.eye(ambient))
        witnesses.append(
            NormalityWitness(n, (lambda m, fr=frame_next: fr), (lambda m, fr=frame_big: fr))
        )
    top = linalg.orthonormalize(flag.subspaces[-1].space.basis_matrix(ambient))
    witnesses.append(
        NormalityWitness(
            flag.depth, None, (lambda m, fr=linalg.complement_within(top, np.eye(ambient)): fr)
        )
    )

    cover = TubularCover(
        v_contains=[(lambda x: True) for _ in range(flag.depth)],
        u_contains=[(lambda x: True) for _ in range(flag.depth)],
    )
    ident = linear_map(np.eye(ambient), "id")
    return Filtration(
        delta=flag.delta,
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=cover,
        fredholm=FredholmData(ident, flag, ambient),
        claimed_dense=True,
        claimed_normal=True,
        claimed_fredholm=True,
        ambient_sampler=_truncation_sampler(flag.delta[flag.depth], ambient),
    )


def make_filtration_open_subset(u_region: Callable, flag: Flag, margin: int = 5) -> Filtration:
    """Trace of the linear filtration on an open subset; requires the subset
    to meet the first level (witnessed by an actual sample)."""
    base = make_filtration_linear(flag, margin)
    ambient = base.total.ambient_dim
    first = base.levels[0]
    witness_points = [s for s in first.samples if u_region(s)]
    if not witness_points:
        # search a deterministic net of candidates on the first level
        basis = linalg.orthonormalize(
            flag.subspaces[0].space.basis_matrix(ambient)
        )
        rng = np.random.Generator(np.random.Philox(key=4242))
        for _ in range(512):
            c = basis @ rng.normal(size=basis.shape[1])
            if u_region(c):
                witness_points.append(c)
                break
    if not witness_points:
        raise EmptyFirstLevel("open subset does not meet the first level")

    levels = []
    for lvl in base.levels:
        inside = [s for s in lvl.samples if u_region(s)] or [
            s * 0.0 for s in lvl.samples if u_region(s * 0.0)
        ]
        levels.append(
            ImplicitManifold(
                f"U∩{lvl.name}",
                ambient,
                lvl.dim,
                lvl.constraints,
                inside or witness_points,
                region=u_region,
                projector=lvl.projector,
            )
        )
    total_samples = [s for s in base.total.samples if u_region(s)] or witness_points
    total = _full_space(ambient, total_samples, region=u_region)

    def sampler(rng, count):
        raw = base.ambient_sampler(rng, 4 * count)
        picked = [x for x in raw if u_region(x)]
        return picked[:count] if picked else witness_points

    return Filtration(
        delta=base.delta,
        levels=levels,
        total=total,
        witnesses=base.witnesses,
        cover=TubularCover(
            v_contains=[u_region for _ in range(flag.depth)],
            u_contains=[u_region for _ in range(flag.depth)],
        ),
        fredholm=base.fredholm,
        claimed_dense=True,
        claimed_normal=True,
        claimed_fredholm=True,
        ambient_sampler=sampler,
    )


def make_filtration_sphere(flag: Flag, margin: int = 5) -> Filtration:
    """Unit spheres of the flag levels: a filtration of the ambient unit
    sphere with dimension sequence shifted down by one."""
    from . import catalog

    if flag.delta[1] < 2:
        raise DimensionTooSmall("first flag dimension must be >= 2 for sphere levels")
    ambient = flag.delta[flag.depth] + margin
    delta = DimensionSequence([d - 1 for d in flag.delta])
    levels = [
        catalog.sphere(flag.delta[n] - 1, ambient=ambient, seed=20 + n)
        for n in range(1, flag.depth + 1)
    ]
    total = catalog.sphere(ambient - 1, ambient=ambient, seed=19)

    def coord_frame(lo: int, hi: int) -> np.ndarray:
        fr = np.zeros((ambient, hi - lo))
        for j in range(lo, hi):
            fr[j, j - lo] = 1.0
        return fr

    witnesses = []
    for n in range(1, flag.depth):
        witnesses.append(
            NormalityWitness(
                n,
                (lambda m, fr=coord_frame(flag.delta[n], flag.delta[n + 1]): fr),
                (lambda m, fr=coord_frame(flag.delta[n], ambient): fr),
            )
        )
    witnesses.append(
        NormalityWitness(
            flag.depth, None, (lambda m, fr=coord_frame(flag.delta[flag.depth], ambient): fr)
        )
    )

    def v_pred(n):
        d = flag.delta[n]
        return lambda x: float(np.linalg.norm(x[:d])) > 1e-9

    def u_pred(n):
        d = flag.delta[n]
        return lambda x: float(np.linalg.norm(x[:d])) >= 1e-6

    ident = linear_map(np.eye(ambient), "incl")
    return Filtration(
        delta=delta,
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=TubularCover(
            v_contains=[v_pred(n) for n in range(1, flag.depth + 1)],
            u_contains=[u_pred(n) for n in range(1, flag.depth + 1)],
        ),
        fredholm=FredholmData(ident, flag, ambient),
        claimed_dense=True,
        claimed_normal=True,
        claimed_fredholm=True,
        ambient_sampler=_truncation_sampler(flag.delta[flag.depth], ambient, normalize=True),
    )


def _product_manifold(a: ImplicitManifold, b: ImplicitManifold, name: str) -> ImplicitManifold:
    da = a.ambient_dim
    n = da + b.ambient_dim
    constraints = _stack_maps(_restrict(a.constraints, 0, n), _restrict(b.constraints, da, n), name)
    samples = [np.concatenate([x, y]) for x, y in zip(a.samples, b.samples)]
    region = None
    if a.region is not None or b.region is not None:
        ra = a.region or (lambda x: True)
        rb = b.region or (lambda x: True)
        region = lambda z: ra(z[:da]) and rb(z[da:])
    projector = None
    if a.projector is not None and b.projector is not None:
        projector = lambda z: np.concatenate([a.projector(z[:da]), b.projector(z[da:])])
    return ImplicitManifold(name, n, a.dim + b.dim, constraints, samples, region=region, projector=projector)


def _interleave(x: np.ndarray, y: np.ndarray, total: int) -> np.ndarray:
    """Rows of x at even and rows of y at odd positions, zero-padded to
    ``total`` rows: the coordinate order of the interleaved flag models."""
    out = np.zeros((total,) + x.shape[1:])
    out[0 : 2 * len(x) : 2] = x
    out[1 : 2 * len(y) + 1 : 2] = y
    return out


def _interleave_maps(a: SmoothMap, b: SmoothMap, total: int, name: str) -> SmoothMap:
    jac = hvp = None
    if a.jac is not None and b.jac is not None:
        jac = lambda z: _interleave(np.atleast_2d(a.jac(z)), np.atleast_2d(b.jac(z)), total)
        if a.hvp is not None and b.hvp is not None:
            hvp = lambda z, v: _interleave(np.atleast_2d(a.hvp(z, v)), np.atleast_2d(b.hvp(z, v)), total)
    return SmoothMap(a.domain_dim, total, lambda z: _interleave(a(z), b(z), total), jac, name, hvp)


def make_filtration_product(fa: Filtration, fb: Filtration) -> Filtration:
    """Levelwise products in the concatenated ambient model; claims are
    inherited conjunctively, covers and witnesses are product data."""
    if fa.depth != fb.depth:
        raise DepthMismatch(f"depths {fa.depth} and {fb.depth} differ")
    da = fa.total.ambient_dim
    levels = [
        _product_manifold(a, b, f"{a.name}×{b.name}") for a, b in zip(fa.levels, fb.levels)
    ]
    total = _product_manifold(fa.total, fb.total, f"{fa.total.name}×{fb.total.name}")

    witnesses = None
    if fa.witnesses is not None and fb.witnesses is not None:
        witnesses = []
        for wa, wb in zip(fa.witnesses, fb.witnesses):

            def _stack(fr_a, fr_b, n=wa.level):
                if fr_a is None or fr_b is None:
                    return None

                def frame(z):
                    ma = np.atleast_2d(fr_a(z[:da]))
                    mb = np.atleast_2d(fr_b(z[da:]))
                    out = np.zeros((da + fb.total.ambient_dim, ma.shape[1] + mb.shape[1]))
                    out[:da, : ma.shape[1]] = ma
                    out[da:, ma.shape[1] :] = mb
                    return out

                return frame

            witnesses.append(
                NormalityWitness(wa.level, _stack(wa.frame_in_next, wb.frame_in_next), _stack(wa.frame_in_big, wb.frame_in_big))
            )

    cover = None
    if fa.cover is not None and fb.cover is not None:
        cover = TubularCover(
            v_contains=[
                (lambda z, p=pa, q=pb: p(z[:da]) and q(z[da:]))
                for pa, pb in zip(fa.cover.v_contains, fb.cover.v_contains)
            ],
            u_contains=[
                (lambda z, p=pa, q=pb: p(z[:da]) and q(z[da:]))
                for pa, pb in zip(fa.cover.u_contains, fb.cover.u_contains)
            ],
        )

    fredholm = None
    claimed_fredholm = False
    if (
        fa.fredholm is not None
        and fb.fredholm is not None
        and fa.fredholm.level_dim == fb.fredholm.level_dim
    ):
        # combining cutting maps needs one shared model truncation; callers
        # align the flag margins when they want the combined claim
        lvl = 2 * fa.fredholm.level_dim
        n = total.ambient_dim
        fredholm = FredholmData(
            _interleave_maps(
                _restrict(fa.fredholm.map, 0, n), _restrict(fb.fredholm.map, da, n), lvl, "f×f'"
            ),
            flag_product(fa.fredholm.flag, fb.fredholm.flag),
            lvl,
        )
        claimed_fredholm = fa.claimed_fredholm and fb.claimed_fredholm

    def sampler(rng, count):
        if fa.ambient_sampler is None or fb.ambient_sampler is None:
            return []
        xs = fa.ambient_sampler(rng, count)
        ys = fb.ambient_sampler(rng, count)
        return [np.concatenate([x, y]) for x, y in zip(xs, ys)]

    dense = None
    if fa.claimed_dense is not None and fb.claimed_dense is not None:
        dense = fa.claimed_dense and fb.claimed_dense
    return Filtration(
        delta=fa.delta + fb.delta,
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=cover,
        fredholm=fredholm,
        claimed_dense=dense,
        claimed_normal=fa.claimed_normal and fb.claimed_normal and witnesses is not None,
        claimed_fredholm=claimed_fredholm,
        ambient_sampler=sampler,
    )


def pair_groupoid_filtration(f: Filtration) -> Filtration:
    """Levelwise squares M_n x M_n: the filtration of the pair groupoid.

    The constructor shape admits only one input filtration, so interleaved
    towers mixing levels (which are not groupoid filtrations) cannot be
    expressed here.
    """
    return make_filtration_product(f, f)


def _differential(g: SmoothMap, ambient: int) -> SmoothMap:
    """(x, v) -> Dg(x) v, with Jacobian [hvp(x, v), Dg(x)]."""

    def fn(z):
        return g.jacobian(z[:ambient]) @ z[ambient:]

    jac = None
    if g.jac is not None and g.hvp is not None:

        def jac(z):
            x, v = z[:ambient], z[ambient:]
            return np.hstack([np.atleast_2d(g.hvp(x, v)), np.atleast_2d(g.jac(x))])

    return SmoothMap(2 * ambient, g.codomain_dim, fn, jac, f"D{g.name}")


def _divided_difference(g: SmoothMap, ambient: int, eps: float = FIBER_EPS) -> SmoothMap:
    """(x, w, lam) -> (g(x) - g(x - lam w)) / lam, smoothly extended across
    lam = 0 by the directional derivative.  The value and its Jacobian take
    the same branch at every lam."""

    def split(z):
        return z[:ambient], z[ambient : 2 * ambient], z[2 * ambient]

    def dd(z):
        x, w, lam = split(z)
        if abs(lam) < eps:
            return g.jacobian(x) @ w
        return (g(x) - g(x - lam * w)) / lam

    jac = None
    if g.jac is not None and g.hvp is not None:

        def jac(z):
            x, w, lam = split(z)
            if abs(lam) < eps:
                h = np.atleast_2d(g.hvp(x, w))
                return np.hstack([h, np.atleast_2d(g.jac(x)), (-0.5 * (h @ w))[:, None]])
            y = x - lam * w
            j_x, j_y = np.atleast_2d(g.jac(x)), np.atleast_2d(g.jac(y))
            d_lam = (j_y @ w) / lam - (g(x) - g(y)) / lam**2
            return np.hstack([(j_x - j_y) / lam, j_y, d_lam[:, None]])

    return SmoothMap(2 * ambient + 1, g.codomain_dim, dd, jac, f"Δ{g.name}")


def tangent_filtration(f: Filtration) -> Filtration:
    """Tangent-bundle levels realized as (point, velocity) pairs; witnesses
    are the horizontal/vertical lifts of the supplied frames."""
    if f.witnesses is None:
        raise MissingWitness("tangent filtration needs normality witnesses")
    d = f.total.ambient_dim

    def lift_manifold(m: ImplicitManifold, name: str) -> ImplicitManifold:
        g = m.constraints
        constraints = _stack_maps(_restrict(g, 0, 2 * d), _differential(g, d), name)
        samples = []
        for x in m.samples:
            tb = m.tangent_basis(x)
            v = tb @ (np.arange(1, tb.shape[1] + 1) / (tb.shape[1] + 1.0))
            samples.append(np.concatenate([x, v]))
            samples.append(np.concatenate([x, np.zeros(d)]))
        region = None
        if m.region is not None:
            region = lambda z: m.region(z[:d])
        return ImplicitManifold(name, 2 * d, 2 * m.dim, constraints, samples, region=region)

    levels = [lift_manifold(m, f"T{m.name}") for m in f.levels]
    total = lift_manifold(f.total, f"T{f.total.name}")

    def lift_frame(fr):
        if fr is None:
            return None

        def frame(z):
            x, v = z[:d], z[d:]
            base = np.atleast_2d(fr(x))
            h = 1e-6 * (1.0 + float(np.linalg.norm(v)))
            dbase = np.atleast_2d(central_difference(fr, x, v, h))
            k = base.shape[1]
            out = np.zeros((2 * d, 2 * k))
            out[:d, :k] = base  # horizontal lifts
            out[d:, :k] = dbase
            out[d:, k:] = base  # vertical lifts
            return out

        return frame

    witnesses = [
        NormalityWitness(w.level, lift_frame(w.frame_in_next), lift_frame(w.frame_in_big))
        for w in f.witnesses
    ]

    fredholm = None
    if f.fredholm is not None:
        fm, lvl = f.fredholm.map, f.fredholm.level_dim
        fredholm = FredholmData(
            _interleave_maps(_restrict(fm, 0, 2 * d), _differential(fm, d), 2 * lvl, "Df"),
            flag_product(f.fredholm.flag, f.fredholm.flag),
            2 * lvl,
        )

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        out = []
        for x in f.ambient_sampler(rng, count):
            tb = f.total.tangent_basis(newton_project(f.total, x))
            out.append(np.concatenate([x, tb @ rng.normal(size=tb.shape[1])]))
        return out

    return Filtration(
        delta=DimensionSequence([2 * dd_ for dd_ in f.delta]),
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=None,
        fredholm=fredholm,
        claimed_dense=None,  # density is measured, not claimed, for tangent levels
        claimed_normal=f.claimed_normal,
        claimed_fredholm=f.claimed_fredholm and fredholm is not None,
        ambient_sampler=sampler,
    )


def tangent_groupoid_filtration(f: Filtration) -> Filtration:
    """Deformation-space levels in coordinates (point, difference quotient,
    fiber): nonzero-fiber slices are pairs of level points, the zero-fiber
    slice is the tangent level; the gluing is the divided-difference
    constraint, smooth across the fiber."""
    if f.witnesses is None:
        raise MissingWitness("tangent groupoid filtration needs normality witnesses")
    d = f.total.ambient_dim

    def glue_manifold(m: ImplicitManifold, name: str) -> ImplicitManifold:
        g = m.constraints
        constraints = _stack_maps(_restrict(g, 0, 2 * d + 1), _divided_difference(g, d), name)
        samples = []
        for i, x in enumerate(m.samples):
            y = m.samples[(i + 1) % len(m.samples)]
            lam = 0.5
            samples.append(np.concatenate([x, (x - y) / lam, [lam]]))
            tb = m.tangent_basis(x)
            v = tb @ (np.arange(1, tb.shape[1] + 1) / (tb.shape[1] + 1.0))
            samples.append(np.concatenate([x, v, [0.0]]))
        region = None
        if m.region is not None:
            region = lambda z, r=m.region: r(z[:d]) and r(z[:d] - z[2 * d] * z[d : 2 * d])
        return ImplicitManifold(name, 2 * d + 1, 2 * m.dim + 1, constraints, samples, region=region)

    levels = [glue_manifold(m, f"𝕋{m.name}") for m in f.levels]
    total = glue_manifold(f.total, f"𝕋{f.total.name}")

    def glue_frame(fr):
        if fr is None:
            return None

        def frame(z):
            x, w, lam = z[:d], z[d : 2 * d], z[2 * d]
            cur = np.atleast_2d(fr(x))
            k = cur.shape[1]
            if abs(lam) < FIBER_EPS:
                h = 1e-6 * (1.0 + float(np.linalg.norm(w)))
                dcur = np.atleast_2d(central_difference(fr, x, w, h))
            else:
                dcur = (cur - np.atleast_2d(fr(x - lam * w))) / lam
            out = np.zeros((2 * d + 1, 2 * k))
            out[:d, :k] = cur  # horizontal lifts with transported second slot
            out[d : 2 * d, :k] = dcur
            out[d : 2 * d, k:] = cur  # vertical lifts
            return out

        return frame

    witnesses = [
        NormalityWitness(w.level, glue_frame(w.frame_in_next), glue_frame(w.frame_in_big))
        for w in f.witnesses
    ]

    fredholm = None
    if f.fredholm is not None:
        fm, lvl = f.fredholm.map, f.fredholm.level_dim
        fiber = linear_map(np.eye(2 * d + 1)[2 * d :], "λ")
        pairs = _interleave_maps(_restrict(fm, 0, 2 * d + 1), _divided_difference(fm, d), 2 * lvl, "𝔻f")
        fredholm = FredholmData(
            _stack_maps(fiber, pairs, "𝔻f"),
            flag_groupoid(f.fredholm.flag),
            2 * lvl + 1,
        )

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        out = []
        pts = f.ambient_sampler(rng, 2 * count)
        for i in range(0, 2 * (count // 2), 2):
            x, y = pts[i], pts[i + 1]
            lam = float(rng.uniform(0.2, 1.0))
            out.append(np.concatenate([x, (x - y) / lam, [lam]]))
        for x in pts[: count - len(out)]:
            p = newton_project(f.total, x)
            tb = f.total.tangent_basis(p)
            out.append(np.concatenate([p, tb @ rng.normal(size=tb.shape[1]), [0.0]]))
        return out

    return Filtration(
        delta=DimensionSequence([2 * dd_ + 1 for dd_ in f.delta]),
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=None,
        fredholm=fredholm,
        claimed_dense=None,
        claimed_normal=f.claimed_normal,
        claimed_fredholm=f.claimed_fredholm and fredholm is not None,
        ambient_sampler=sampler,
    )


def subsequence_filtration(f: Filtration, indices) -> Filtration:
    """Keep the 1-based levels in ``indices``; witness frames between kept
    levels are stacked through the skipped intermediate steps (cofinality:
    normal bundles add)."""
    indices = list(indices)
    delta = f.delta.subsequence(indices)
    levels = [f.level(i) for i in indices]

    witnesses = None
    if f.witnesses is not None:
        witnesses = []
        for k, i in enumerate(indices):
            nxt = indices[k + 1] if k + 1 < len(indices) else None
            if nxt is None:
                witnesses.append(NormalityWitness(k + 1, None, f.witnesses[i - 1].frame_in_big))
                continue
            frames = [f.witnesses[j - 1].frame_in_next for j in range(i, nxt)]
            if any(fr is None for fr in frames):
                witnesses.append(NormalityWitness(k + 1, None, f.witnesses[i - 1].frame_in_big))
                continue

            def stacked(m, frs=tuple(frames)):
                return np.hstack([np.atleast_2d(fr(m)) for fr in frs])

            witnesses.append(NormalityWitness(k + 1, stacked, f.witnesses[i - 1].frame_in_big))

    cover = None
    if f.cover is not None:
        cover = TubularCover(
            v_contains=[f.cover.v_contains[i - 1] for i in indices],
            u_contains=[f.cover.u_contains[i - 1] for i in indices],
        )
    fredholm = None
    if f.fredholm is not None:
        fredholm = FredholmData(
            f.fredholm.map, flag_subsequence(f.fredholm.flag, indices), f.fredholm.level_dim
        )
    return Filtration(
        delta=delta,
        levels=levels,
        total=f.total,
        witnesses=witnesses,
        cover=cover,
        fredholm=fredholm,
        claimed_dense=f.claimed_dense,
        claimed_normal=f.claimed_normal and witnesses is not None,
        claimed_fredholm=f.claimed_fredholm and fredholm is not None,
        ambient_sampler=f.ambient_sampler,
    )


@dataclass
class CoveringMap:
    """A finite smooth covering: total space, base space, the projection,
    and a lift procedure returning all preimages of a base point."""

    total: ImplicitManifold
    base: ImplicitManifold
    projection: SmoothMap
    lift: Callable  # base point -> list of total-space points


def pullback_filtration_covering(cov: CoveringMap, f: Filtration, rtol: float | None = None) -> Filtration:
    """Pull a filtration back through a covering; dimensions are preserved
    and samples are lifted through every sheet."""
    if f.total.ambient_dim != cov.base.ambient_dim:
        raise NotCovering("covering base does not match the filtration ambient")
    fibers = set()
    for s in f.total.samples:
        lifts = cov.lift(s)
        fibers.add(len(lifts))
        for z in lifts:
            jz = cov.projection.jacobian(z) @ cov.total.tangent_basis(z, rtol)
            tb = cov.base.tangent_basis(s, rtol)
            a = tb.T @ jz
            if a.shape[0] != a.shape[1] or linalg.rank(a, rtol) != a.shape[0]:
                raise NotCovering("projection is not a local diffeomorphism at a lifted sample")
    if len(fibers) != 1:
        raise NotCovering(f"fiber cardinality not constant on samples: {sorted(fibers)}")

    def pull_manifold(m: ImplicitManifold, name: str) -> ImplicitManifold:
        stacked = _stack_maps(cov.total.constraints, compose_maps(m.constraints, cov.projection, name), name)
        samples = [z for s in m.samples for z in cov.lift(s)]
        return ImplicitManifold(name, cov.total.ambient_dim, m.dim, stacked, samples)

    levels = [pull_manifold(m, f"p⁻¹{m.name}") for m in f.levels]

    witnesses = None
    if f.witnesses is not None:
        witnesses = []
        for w in f.witnesses:

            def lift_frame(fr):
                if fr is None:
                    return None

                def frame(z):
                    base_frame = np.atleast_2d(fr(cov.projection(z)))
                    tb = cov.total.tangent_basis(z)
                    a = cov.projection.jacobian(z) @ tb
                    return tb @ linalg.min_norm_lstsq(a, base_frame)

                return frame

            witnesses.append(NormalityWitness(w.level, lift_frame(w.frame_in_next), lift_frame(w.frame_in_big)))

    fredholm = None
    if f.fredholm is not None:
        fredholm = FredholmData(
            compose_maps(f.fredholm.map, cov.projection, "f∘p"),
            f.fredholm.flag,
            f.fredholm.level_dim,
        )

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        out = []
        for s in f.ambient_sampler(rng, count):
            try:
                q = newton_project(f.total, s)
            except NoConvergence:
                continue
            out.extend(cov.lift(q))
        return out[:count]

    return Filtration(
        delta=f.delta,
        levels=levels,
        total=cov.total,
        witnesses=witnesses,
        cover=None,
        fredholm=fredholm,
        claimed_dense=f.claimed_dense,
        claimed_normal=f.claimed_normal and witnesses is not None,
        claimed_fredholm=f.claimed_fredholm and fredholm is not None,
        ambient_sampler=sampler,
    )


def pullback_filtration_fredholm(
    g: SmoothMap,
    n_total: ImplicitManifold,
    index_p: int,
    f: Filtration,
    seeds: list | None = None,
    rtol: float | None = None,
) -> Filtration:
    """Preimage filtration along a positive-index map transverse to every
    level; level dimensions shift up by the index."""
    if g.domain_dim != n_total.ambient_dim or g.codomain_dim != f.total.ambient_dim:
        raise NotTransverse("map dimensions do not match the ambient models")
    if n_total.dim - f.total.dim != index_p:
        raise NotTransverse(
            f"index mismatch: dim N - dim M = {n_total.dim - f.total.dim}, stated {index_p}"
        )

    def pre_manifold(m: ImplicitManifold, name: str) -> ImplicitManifold:
        stacked = _stack_maps(n_total.constraints, compose_maps(m.constraints, g, name), name)
        return ImplicitManifold(name, n_total.ambient_dim, index_p + m.dim, stacked, [])

    levels = []
    start_points = seeds if seeds is not None else n_total.samples
    for n, m in enumerate(f.levels, start=1):
        lvl = pre_manifold(m, f"g⁻¹{m.name}")
        found = []
        for s in start_points:
            try:
                x = newton_project(lvl, s)
            except NoConvergence:
                continue
            found.append(x)
        if not found:
            raise NoConvergence(f"no on-level samples found for g⁻¹{m.name}")
        lvl.samples = found
        # Smale transversality hypothesis at the samples
        for x in found:
            a = g.jacobian(x) @ n_total.tangent_basis(x, rtol)
            b = m.tangent_basis(g(x), rtol)
            if linalg.rank(np.hstack([a, b]), rtol) != f.total.dim:
                raise NotTransverse(f"map not transverse to {m.name} at a sample")
        levels.append(lvl)

    fredholm = None
    if f.fredholm is not None:
        fredholm = FredholmData(
            compose_maps(f.fredholm.map, g, "f∘g"),
            f.fredholm.flag,
            f.fredholm.level_dim,
        )
    return Filtration(
        delta=DimensionSequence([index_p + d for d in f.delta]),
        levels=levels,
        total=n_total,
        witnesses=None,
        cover=None,
        fredholm=fredholm,
        claimed_dense=None,
        claimed_normal=False,
        claimed_fredholm=f.claimed_fredholm and fredholm is not None,
        ambient_sampler=None,
    )


def example_v_filtration(f: Filtration, k: int = 2) -> Filtration:
    """Levels M_n x {0} inside M x R^k.

    The construction deliberately carries the dense claim of its input so the
    verifier can falsify it: distances from ambient samples are bounded below
    by the extra-factor coordinates.  No cutting map exists, so the Fredholm
    claim is dropped.
    """
    d = f.total.ambient_dim

    def shift_manifold(m: ImplicitManifold, name: str) -> ImplicitManifold:
        stacked = _stack_maps(_restrict(m.constraints, 0, d + k), linear_map(np.eye(d + k)[d:], name), name)
        samples = [np.concatenate([s, np.zeros(k)]) for s in m.samples]
        projector = None
        if m.projector is not None:
            projector = lambda z: np.concatenate([m.projector(z[:d]), np.zeros(k)])
        return ImplicitManifold(name, d + k, m.dim, stacked, samples, projector=projector)

    levels = [shift_manifold(m, f"{m.name}×0") for m in f.levels]
    total = ImplicitManifold(
        f"{f.total.name}×R^{k}",
        d + k,
        f.total.dim + k,
        _restrict(f.total.constraints, 0, d + k, "total"),
        [np.concatenate([s, 0.5 + 0.1 * np.arange(k)]) for s in f.total.samples],
    )

    witnesses = None
    if f.witnesses is not None:
        witnesses = []
        for w in f.witnesses:

            def shift_frame(fr, extend: bool):
                if fr is None:
                    return None

                def frame(z):
                    base = np.atleast_2d(fr(z[:d]))
                    cols = base.shape[1] + (k if extend else 0)
                    out = np.zeros((d + k, cols))
                    out[:d, : base.shape[1]] = base
                    if extend:
                        out[d:, base.shape[1] :] = np.eye(k)
                    return out

                return frame

            witnesses.append(
                NormalityWitness(w.level, shift_frame(w.frame_in_next, False), shift_frame(w.frame_in_big, True))
            )

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        out = []
        for x in f.ambient_sampler(rng, count):
            u = rng.uniform(0.5, 1.5, size=k) * np.sign(rng.normal(size=k))
            out.append(np.concatenate([x, u]))
        return out

    return Filtration(
        delta=f.delta,
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=None,
        fredholm=None,
        claimed_dense=f.claimed_dense,  # deliberately inherited; verification falsifies it
        claimed_normal=f.claimed_normal and witnesses is not None,
        claimed_fredholm=False,
        ambient_sampler=sampler,
    )


def mixed_product_filtration(f: Filtration, growth: list[ImplicitManifold], growth_dims: list[int]) -> Filtration:
    """Levels M_n x P_n with a growing second factor supplied directly and no
    witness data: the verifier reports normality unverified."""
    if len(growth) != f.depth:
        raise DepthMismatch("second-factor tower must match the filtration depth")
    levels = [
        _product_manifold(a, b, f"{a.name}×{b.name}") for a, b in zip(f.levels, growth)
    ]
    total = _product_manifold(f.total, growth[-1], "mixed_total")
    return Filtration(
        delta=DimensionSequence([d + g for d, g in zip(f.delta, growth_dims)]),
        levels=levels,
        total=total,
        witnesses=None,
        cover=None,
        fredholm=None,
        claimed_dense=None,
        claimed_normal=False,
        claimed_fredholm=False,
        ambient_sampler=None,
    )


# -- verification -----------------------------------------------------------------


def _check_dimensions(f: Filtration, depth: int, rtol) -> dict:
    measured = []
    for n in range(1, depth + 1):
        lvl = f.level(n)
        ranks = [linalg.rank(lvl.constraints.jacobian(s), rtol) for s in lvl.samples]
        dims = sorted({lvl.ambient_dim - r for r in ranks})
        measured.append(dims)
    ok = all(dims == [f.delta[n]] for n, dims in enumerate(measured, start=1))
    return {
        "status": "pass" if ok else "fail",
        "evidence": {"measured": measured, "expected": list(f.delta)[:depth]},
    }


def _check_nesting(f: Filtration, depth: int) -> dict:
    worst = 0.0
    for n in range(1, depth):
        nxt = f.level(n + 1)
        for s in f.level(n).samples:
            worst = max(worst, nxt.constraint_norm(s))
    return {
        "status": "pass" if worst <= NEST_TOL else "fail",
        "evidence": {"max_constraint_norm": worst, "tolerance": NEST_TOL},
    }


def _check_normality(f: Filtration, depth: int, rtol) -> dict:
    if f.witnesses is None:
        return {"status": "unverified", "evidence": {"note": "no witness supplied: normality unverified"}}
    records = []
    ok = True
    for w in f.witnesses:
        if w.level > depth:
            continue
        lvl = f.level(w.level)
        for s in lvl.samples:
            t_cur = lvl.tangent_basis(s, rtol)
            for tag, fr, target in (
                ("next", w.frame_in_next, f.level(w.level + 1) if w.level < depth else None),
                ("big", w.frame_in_big, f.total),
            ):
                if fr is None or target is None:
                    continue
                frame = np.atleast_2d(fr(s))
                independent = linalg.rank(frame, rtol) == frame.shape[1]
                tangency = float(
                    np.max(np.abs(target.constraints.jacobian(s) @ frame), initial=0.0)
                )
                complete = (
                    linalg.rank(np.hstack([t_cur, frame]), rtol) == target.dim
                    and t_cur.shape[1] + frame.shape[1] == target.dim
                )
                good = independent and tangency <= 1e-6 and complete
                ok = ok and good
                records.append(
                    {
                        "level": w.level,
                        "in": tag,
                        "independent": independent,
                        "tangency_residual": tangency,
                        "complements_tangent": complete,
                    }
                )
    return {"status": "pass" if ok else "fail", "evidence": {"rank_tests": records}}


def _check_cover(f: Filtration, depth: int, samples) -> dict:
    if f.cover is None:
        return {"status": "unverified", "evidence": {"note": "no cover supplied"}}
    u, v = f.cover.u_contains, f.cover.v_contains
    nested_uv = all(
        (not u[n](x)) or v[n](x) for n in range(depth) for x in samples
    )
    nested_uu = all(
        (not u[n](x)) or u[n + 1](x) for n in range(depth - 1) for x in samples
    )
    covered = [any(u[n](x) for n in range(depth)) for x in samples]
    fraction = float(np.mean(covered)) if covered else 1.0
    ok = nested_uv and nested_uu and fraction == 1.0
    return {
        "status": "pass" if ok else "fail",
        "evidence": {
            "u_in_v": nested_uv,
            "u_increasing": nested_uu,
            "coverage_fraction": fraction,
        },
    }


def _density_profile(f: Filtration, depth: int, samples) -> tuple[list[list[float]], bool, float]:
    profiles = []
    for x in samples:
        try:
            profiles.append([f.level(n).distance_to(x) for n in range(1, depth + 1)])
        except NoConvergence:
            profiles.append([float("nan")] * depth)
    finite = [p for p in profiles if np.all(np.isfinite(p))]
    monotone = all(all(a >= b - 1e-12 for a, b in zip(p, p[1:])) for p in finite)
    deepest = max((p[-1] for p in finite), default=float("nan"))
    return profiles, monotone, deepest


def _check_density(f: Filtration, depth: int, samples, tol: float) -> dict:
    if f.claimed_dense is None:
        if f.ambient_sampler is None or not samples:
            return {"status": "not_claimed", "evidence": {}}
        profiles, monotone, deepest = _density_profile(f, depth, samples)
        return {
            "status": "measured",
            "evidence": {"monotone": monotone, "deepest_distance": deepest},
        }
    if not f.claimed_dense:
        return {"status": "not_claimed", "evidence": {}}
    profiles, monotone, deepest = _density_profile(f, depth, samples)
    ok = monotone and np.isfinite(deepest) and deepest <= tol
    return {
        "status": "pass" if ok else "fail",
        "evidence": {
            "monotone": monotone,
            "deepest_distance": deepest,
            "tolerance": tol,
            "profiles_head": [p[:depth] for p in profiles[:3]],
        },
    }


def _check_fredholm(f: Filtration, depth: int, rtol) -> dict:
    if not f.claimed_fredholm or f.fredholm is None:
        return {"status": "not_claimed", "evidence": {}}
    fm, flag, lvl_dim = f.fredholm.map, f.fredholm.flag, f.fredholm.level_dim
    records = []
    ok = True
    for n in range(1, depth + 1):
        basis = linalg.orthonormalize(flag.level(n).space.basis_matrix(lvl_dim))
        normal = linalg.nullspace(basis.T, rtol)
        lvl = f.level(n)
        for s in lvl.samples:
            y = fm(s)
            member = float(np.linalg.norm(y - basis @ (basis.T @ y)))
            a = fm.jacobian(s) @ f.total.tangent_basis(s, rtol)
            transverse = linalg.rank(np.hstack([a, basis]), rtol) == lvl_dim
            # preimage direction: tangent of the cut-out set matches the level
            cut = linalg.nullspace(normal.T @ a, rtol)
            cut_dim = cut.shape[1]
            good = member <= MEMBER_TOL and transverse and cut_dim == f.delta[n]
            ok = ok and good
            records.append(
                {
                    "level": n,
                    "membership_residual": member,
                    "transverse": transverse,
                    "preimage_tangent_dim": cut_dim,
                }
            )
    return {"status": "pass" if ok else "fail", "evidence": {"samples": records}}


@dataclass
class FiltrationReport:
    conditions: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(
            c["status"] in ("pass", "by_construction", "unverified", "out_of_scope", "not_claimed", "measured")
            for c in self.conditions.values()
        )

    def to_json(self) -> dict:
        return {"conditions": self.conditions, "passed": self.passed}


def verify_filtration(
    f: Filtration,
    depth: int | None = None,
    n_samples: int = 32,
    seed: int = 42,
    tol_density: float = 1e-7,
    rtol: float | None = None,
) -> FiltrationReport:
    """Structured per-condition verification at the given sampling budget."""
    depth = min(depth or f.depth, f.depth)
    rng = np.random.Generator(np.random.Philox(key=seed))
    ambient_samples = f.ambient_sampler(rng, n_samples) if f.ambient_sampler else []

    report = FiltrationReport()
    report.conditions["a_dimensions"] = _check_dimensions(f, depth, rtol)
    report.conditions["b_nesting"] = _check_nesting(f, depth)
    report.conditions["c_limit_inclusion"] = {
        "status": "out_of_scope",
        "evidence": {"note": "homotopy condition on the union is out of scope"},
    }
    report.conditions["d_normality"] = _check_normality(f, depth, rtol)
    report.conditions["e_cover"] = _check_cover(f, depth, ambient_samples)
    report.conditions["density"] = _check_density(f, depth, ambient_samples, tol_density)
    report.conditions["fredholm"] = _check_fredholm(f, depth, rtol)
    return report


# -- JSON surface ---------------------------------------------------------------


def filtration_from_spec(spec: dict) -> Filtration:
    """Build a filtration from a JSON-style description:
    {"kind": "linear"|"open"|"sphere"|"product"|"pair-groupoid"|"tangent"|
      "tangent-groupoid"|"shifted-product", "delta": [...], "depth": n, ...}.
    """
    from .flags import standard_flag

    if not isinstance(spec, dict):
        raise ConfigError(f"a filtration spec is a JSON object, got {spec!r}")
    kind = spec.get("kind")
    delta = spec.get("delta")
    depth = spec.get("depth")
    if depth is not None:
        try:
            depth = int(depth)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"depth must be an integer, got {depth!r}") from exc
        if depth < 1:
            raise ConfigError(f"depth must be at least 1, got {depth}")

    def flag():
        try:
            levels = list(delta)
            if depth is not None and depth > len(levels):
                raise ConfigError(f"depth {depth} exceeds the {len(levels)} levels of {delta!r}")
            return standard_flag(levels[:depth])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad dimension sequence {delta!r}: {exc}") from exc

    def part(key):
        if key not in spec:
            raise ConfigError(f"a {kind!r} spec needs a {key!r} sub-spec")
        return filtration_from_spec(spec[key])

    if kind == "linear":
        return make_filtration_linear(flag(), margin=spec.get("margin", 5))
    if kind == "sphere":
        try:
            return make_filtration_sphere(flag(), margin=spec.get("margin", 5))
        except DimensionTooSmall as exc:
            raise ConfigError(f"bad dimension sequence {delta!r}: {exc}") from exc
    if kind == "open":
        radius = float(spec.get("radius", 1.0))
        return make_filtration_open_subset(lambda x: float(np.linalg.norm(x)) < radius, flag())
    if kind == "product":
        return make_filtration_product(part("first"), part("second"))
    if kind == "pair-groupoid":
        return pair_groupoid_filtration(part("base"))
    if kind == "tangent":
        return tangent_filtration(part("base"))
    if kind == "tangent-groupoid":
        return tangent_groupoid_filtration(part("base"))
    if kind == "shifted-product":
        return example_v_filtration(part("base"), k=spec.get("k", 2))
    raise ConfigError(f"unknown filtration kind {kind!r}")
