"""Generalized filtrations of desk-scale manifolds by nested finite
submanifolds, their functorial constructions, pullbacks, and a
condition-by-condition verifier.

A filtration stores its levels as implicit manifolds in one ambient model,
optional normality witnesses (global normal-bundle frames), an optional
tubular cover (membership predicates), an optional cutting map, and a
density claim.  Supplied data is the claim: witnesses claim normality, a
cutting map claims the Fredholm condition.  The verifier checks exactly what
is claimed and reports the rest as unverified or out of scope;
triviality of a normal bundle is never inferred from samples, and the
homotopy condition on the union is reported out of scope rather than
approximated.

The constructors induce one filtration from another, and share five pieces
to do it: ``_product_manifold`` with ``_block_frame`` (products, the pair
groupoid, the shifted product M_n x {0} in M x R^k and the mixed product),
``_lift_witnesses`` (a frame lift that keeps a missing frame missing: 𝕋F,
TF, the pullbacks), ``_preimage_manifold`` (the pullbacks' levels and the
suites' cut-out sets) and ``_pullback`` (the covering and positive-index
pullbacks: levels, witnesses lifted modulo the level, cover, cutting map).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import catalog, linalg
from .errors import (
    ConfigError,
    DimensionTooSmall,
    DomainError,
    EmptyFirstLevel,
    MissingWitness,
    NoConvergence,
    NotCovering,
    NotTransversal,
)
from .flags import DimensionSequence, Flag, flag_groupoid, flag_product, flag_subsequence
from .geometry import (
    ImplicitManifold,
    SmoothMap,
    central_difference,
    compose_maps,
    default_step,
    is_transversal_nonlinear,
    linear_map,
    newton_project,
)
from .report import ConditionReport, condition
from .subspaces import drop_first_coordinate

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
DENSITY_TOL = 1e-7
# |lam| below which a divided difference is its lam = 0 limit, the derivative
FIBER_EPS = 1e-9
# |lam| below which the lam column of a divided difference's Jacobian takes
# its Taylor form: the quotient form loses ~eps|g|/lam^2 to cancellation, the
# Taylor form ~lam|D^3g||w|^3 to truncation, and the two meet near eps^(1/3)
FIBER_EPS_JAC = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass
class NormalityWitness:
    """Global frames for the normal bundle of level n in level n+1 and in
    the total manifold, where n is the witness's 1-based position in
    ``Filtration.witnesses``; ``frame_*`` maps a level-n point to a matrix
    whose columns are the frame vectors (``frame_in_next`` is None at the
    last level)."""

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
    cutting out the levels as preimages.  The map lands in the truncation of
    the model space at ``map.codomain_dim`` coordinates."""

    map: SmoothMap
    flag: Flag


@dataclass
class Filtration:
    """Levels M_1 subset ... subset M_depth of ``total`` with dimensions
    ``delta``.  Each optional datum is the claim it supports: ``witnesses``
    (one per level) claim normality, ``cover`` the tubular cover,
    ``fredholm`` the Fredholm condition.  ``claimed_dense`` claims that the
    levels are dense in ``total``; without the claim, density is measured
    when an ``ambient_sampler`` exists."""

    delta: DimensionSequence
    levels: list[ImplicitManifold]
    total: ImplicitManifold
    witnesses: list[NormalityWitness] | None = None
    cover: TubularCover | None = None
    fredholm: FredholmData | None = None
    claimed_dense: bool = False
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


def _interleave_maps(a: SmoothMap, b: SmoothMap, total: int, name: str) -> SmoothMap:
    """Rows of a at even and rows of b at odd positions, zero-padded to
    ``total`` rows: the coordinate order of the interleaved flag models."""
    ca, cb = a.codomain_dim, b.codomain_dim
    place = np.zeros((total, ca + cb))
    place[0 : 2 * ca : 2, :ca] = np.eye(ca)
    place[1 : 2 * cb + 1 : 2, ca:] = np.eye(cb)
    return compose_maps(linear_map(place, "place"), _stack_maps(a, b, name), name)


def _restrict(g: SmoothMap, start: int, total: int) -> SmoothMap:
    """z -> g(z[start : start + g.domain_dim]) on a total-coordinate space."""
    pick = linear_map(np.eye(total)[start : start + g.domain_dim], "coords")
    return compose_maps(g, pick, g.name)


def _subspace_manifold(basis: np.ndarray, ambient: int, name: str, samples) -> ImplicitManifold:
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


def _preimage_manifold(
    total: ImplicitManifold, h: SmoothMap, dim: int, name: str, samples: list
) -> ImplicitManifold:
    """The ``dim``-dimensional zero set of ``h`` on ``total``, in its ambient model."""
    return ImplicitManifold(name, total.ambient_dim, dim, _stack_maps(total.constraints, h, name), samples)


def _block_frame(fr_a: Callable | None, fr_b: Callable | None, da: int, n: int) -> Callable | None:
    """z -> the block-diagonal frame diag(fr_a(z[:da]), fr_b(z[da:])) with
    ``n`` rows, or None when either frame is None."""
    if fr_a is None or fr_b is None:
        return None

    def frame(z):
        ma, mb = np.atleast_2d(fr_a(z[:da])), np.atleast_2d(fr_b(z[da:]))
        out = np.zeros((n, ma.shape[1] + mb.shape[1]))
        out[:da, : ma.shape[1]] = ma
        out[da:, ma.shape[1] :] = mb
        return out

    return frame


def _product_witnesses(wa: list | None, wb: list | None, da: int, n: int) -> list[NormalityWitness] | None:
    """Levelwise block-diagonal witnesses of a product whose first factor
    has ``da`` coordinates; None when either factor has none."""
    if wa is None or wb is None:
        return None
    return [
        NormalityWitness(
            _block_frame(a.frame_in_next, b.frame_in_next, da, n),
            _block_frame(a.frame_in_big, b.frame_in_big, da, n),
        )
        for a, b in zip(wa, wb)
    ]


def _lift_witnesses(witnesses: list | None, lift: Callable) -> list[NormalityWitness] | None:
    """Every frame of witness n (1-based) through ``lift(frame, n)``; a
    missing frame, or a missing witness list, stays missing."""
    if witnesses is None:
        return None
    return [
        NormalityWitness(*(None if fr is None else lift(fr, n) for fr in (w.frame_in_next, w.frame_in_big)))
        for n, w in enumerate(witnesses, start=1)
    ]


def _constant_witnesses(frames_next: list, frames_big: list) -> list[NormalityWitness]:
    """Witnesses whose frames do not vary along their level: one frame in the
    next level for every level but the last, one in the total for every level."""
    return [
        NormalityWitness(None if nxt is None else (lambda m, fr=nxt: fr), (lambda m, fr=big: fr))
        for nxt, big in zip(frames_next + [None], frames_big)
    ]


def _converged_projections(manifold: ImplicitManifold, points) -> list:
    """Newton projections onto ``manifold`` of the ``points`` that converge."""
    out = []
    for x in points:
        try:
            out.append(newton_project(manifold, x))
        except NoConvergence:
            pass
    return out


# -- constructors ----------------------------------------------------------------


def make_filtration_linear(flag: Flag, margin: int = 5) -> Filtration:
    """Flag levels as linear submanifolds of the truncated model space;
    dense, normal, and cut out by the identity map against the flag."""
    if margin < 0:
        raise DomainError(f"margin must be >= 0, got {margin}")
    ambient = max(s.space.support_bound() for s in flag.subspaces) + margin
    levels = []
    for n, sub in enumerate(flag.subspaces, start=1):
        basis = sub.space.basis_matrix(ambient)
        rng = np.random.Generator(np.random.Philox(key=100 + n))
        samples = [basis @ rng.normal(size=basis.shape[1]) for _ in range(6)]
        levels.append(_subspace_manifold(basis, ambient, f"E_{flag.delta[n]}", samples))
    total_rng = np.random.Generator(np.random.Philox(key=99))
    total = _full_space(ambient, [total_rng.normal(size=ambient) for _ in range(6)])

    qs = [linalg.orthonormalize(sub.space.basis_matrix(ambient)) for sub in flag.subspaces]
    witnesses = _constant_witnesses(
        [linalg.complement_within(cur, nxt) for cur, nxt in zip(qs, qs[1:])],
        [linalg.complement_within(q, np.eye(ambient)) for q in qs],
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
        fredholm=FredholmData(ident, flag),
        claimed_dense=True,
        ambient_sampler=partial(catalog.leading_samples, support=flag.delta[flag.depth], ambient=ambient),
    )


def _projector_into(p: Callable, region: Callable, samples: list) -> Callable:
    """A map onto U ∩ E from a projector p onto E, with ``samples`` points of
    U ∩ E: p(x) where it lies in U, else the nearest sample.  Its image stays
    in U ∩ E, so the distance to it bounds the distance to U ∩ E from above."""

    def project(x):
        y = p(x)
        return y if region(y) else min(samples, key=lambda s: float(np.linalg.norm(x - s)))

    return project


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
        samples = inside or witness_points
        project = _projector_into(lvl.projector, u_region, samples)
        levels.append(
            ImplicitManifold(f"U∩{lvl.name}", ambient, lvl.dim, lvl.constraints, samples, u_region, project)
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
        ambient_sampler=sampler,
    )


def make_filtration_sphere(flag: Flag, margin: int = 5) -> Filtration:
    """Unit spheres of the flag levels: a filtration of the ambient unit
    sphere with dimension sequence shifted down by one."""
    if margin < 0:
        raise DomainError(f"margin must be >= 0, got {margin}")
    if flag.delta[1] < 2:
        raise DimensionTooSmall("first flag dimension must be >= 2 for sphere levels")
    ambient = flag.delta[flag.depth] + margin
    delta = DimensionSequence([d - 1 for d in flag.delta])
    levels = [
        catalog.sphere(flag.delta[n] - 1, ambient=ambient, seed=20 + n)
        for n in range(1, flag.depth + 1)
    ]
    total = catalog.sphere(ambient - 1, ambient=ambient, seed=19)

    eye = np.eye(ambient)
    witnesses = _constant_witnesses(
        [eye[:, lo:hi] for lo, hi in zip(flag.delta, list(flag.delta)[1:])],
        [eye[:, lo:] for lo in flag.delta],
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
        fredholm=FredholmData(ident, flag),
        claimed_dense=True,
        ambient_sampler=partial(catalog.leading_samples, support=flag.delta[flag.depth], ambient=ambient, normalize=True),
    )


def make_filtration_product(fa: Filtration, fb: Filtration) -> Filtration:
    """Levelwise products in the concatenated ambient model; claims are
    inherited conjunctively, covers and witnesses are product data."""
    delta = fa.delta + fb.delta  # DepthMismatch unless the depths agree
    da = fa.total.ambient_dim
    levels = [_product_manifold(a, b, f"{a.name}×{b.name}") for a, b in zip(fa.levels, fb.levels)]
    total = _product_manifold(fa.total, fb.total, f"{fa.total.name}×{fb.total.name}")

    cover = None
    if fa.cover is not None and fb.cover is not None:

        def both(ps, qs):
            return [(lambda z, p=p, q=q: p(z[:da]) and q(z[da:])) for p, q in zip(ps, qs)]

        cover = TubularCover(
            both(fa.cover.v_contains, fb.cover.v_contains), both(fa.cover.u_contains, fb.cover.u_contains)
        )

    fredholm = None
    if (
        fa.fredholm is not None
        and fb.fredholm is not None
        and fa.fredholm.map.codomain_dim == fb.fredholm.map.codomain_dim
    ):
        # combining cutting maps needs one shared model truncation; callers
        # align the flag margins when they want the combined claim
        lvl = 2 * fa.fredholm.map.codomain_dim
        n = total.ambient_dim
        fredholm = FredholmData(
            _interleave_maps(
                _restrict(fa.fredholm.map, 0, n), _restrict(fb.fredholm.map, da, n), lvl, "f×f'"
            ),
            flag_product(fa.fredholm.flag, fb.fredholm.flag),
        )

    def sampler(rng, count):
        if fa.ambient_sampler is None or fb.ambient_sampler is None:
            return []
        xs = fa.ambient_sampler(rng, count)
        ys = fb.ambient_sampler(rng, count)
        return [np.concatenate([x, y]) for x, y in zip(xs, ys)]

    return Filtration(
        delta=delta,
        levels=levels,
        total=total,
        witnesses=_product_witnesses(fa.witnesses, fb.witnesses, da, total.ambient_dim),
        cover=cover,
        fredholm=fredholm,
        claimed_dense=fa.claimed_dense and fb.claimed_dense,
        ambient_sampler=sampler,
    )


def pair_groupoid_filtration(f: Filtration) -> Filtration:
    """Levelwise squares M_n x M_n: the filtration of the pair groupoid.

    The constructor shape admits only one input filtration, so interleaved
    towers mixing levels (which are not groupoid filtrations) cannot be
    expressed here.
    """
    return make_filtration_product(f, f)


def _divided_difference(g: SmoothMap, ambient: int) -> SmoothMap:
    """(x, w, lam) -> (g(x) - g(x - lam w)) / lam, smoothly extended across
    lam = 0 by the directional derivative.  The value and its Jacobian take
    the same branch at every lam, except that the Jacobian's lam column keeps
    its lam = 0 Taylor form up to ``FIBER_EPS_JAC``.  ``g`` must carry ``jac``
    and ``hvp``: the lift's exact Jacobian differentiates ``g`` twice, and
    without them it would be a finite difference of a finite difference."""
    if g.jac is None or g.hvp is None:
        raise DomainError(f"{g.name or 'map'}: the tangent-groupoid lift needs its jac and hvp")

    def split(z):
        return z[:ambient], z[ambient : 2 * ambient], z[2 * ambient]

    def dd(z):
        x, w, lam = split(z)
        if abs(lam) < FIBER_EPS:
            return g.jacobian(x) @ w
        return (g(x) - g(x - lam * w)) / lam

    def jac(z):
        x, w, lam = split(z)
        if abs(lam) < FIBER_EPS:
            h = np.atleast_2d(g.hvp(x, w))
            return np.hstack([h, np.atleast_2d(g.jac(x)), (-0.5 * (h @ w))[:, None]])
        y = x - lam * w
        j_x, j_y = np.atleast_2d(g.jac(x)), np.atleast_2d(g.jac(y))
        if abs(lam) < FIBER_EPS_JAC:
            d_lam = -0.5 * (np.atleast_2d(g.hvp(x, w)) @ w)
        else:
            d_lam = (j_y @ w) / lam - (g(x) - g(y)) / lam**2
        return np.hstack([(j_x - j_y) / lam, j_y, d_lam[:, None]])

    return SmoothMap(2 * ambient + 1, g.codomain_dim, dd, jac, f"Δ{g.name}")


def _transported_frame(fr: Callable, x: np.ndarray, w: np.ndarray, lam: float, rows: int) -> np.ndarray:
    """The frame ``fr`` at x lifted to (point, difference quotient) rows:
    k horizontal lifts (fr(x), (fr(x) - fr(x - lam w)) / lam) and k vertical
    lifts (0, fr(x - lam w)), zero-padded to ``rows``.  A vertical lift
    moves w alone, so it moves the second point x - lam w along -lam dw: its
    columns must be the frame at x - lam w, not at x.  Near lam = 0
    the quotient is its limit, the derivative of ``fr`` along w, and the
    vertical lifts are (0, fr(x)), so lam = 0 is the tangent lift."""
    d = x.size
    cur = np.atleast_2d(fr(x))
    k = cur.shape[1]
    if abs(lam) < FIBER_EPS:
        dcur = np.atleast_2d(central_difference(fr, x, w, default_step(x)))
        back = cur
    else:
        back = np.atleast_2d(fr(x - lam * w))
        dcur = (cur - back) / lam
    out = np.zeros((rows, 2 * k))
    out[:d, :k] = cur  # horizontal lifts with transported second slot
    out[d : 2 * d, :k] = dcur
    out[d : 2 * d, k:] = back  # vertical lifts, at the second point
    return out


def _groupoid_projector(m: ImplicitManifold) -> Callable | None:
    """A map onto 𝕋M from the projector p of M, (x, w, lam) -> (p(x),
    (p(x) - p(x - lam w)) / lam, lam): both base points p(x) and
    p(x - lam w) lie on M, so the image is a point of 𝕋M and the distance to
    it bounds the distance to 𝕋M from above.  Below ``FIBER_EPS``, where the
    divided difference is its lam = 0 limit, it is the zero-fiber point
    (p(x), Π w, 0), Π the orthogonal projector onto T_{p(x)}M.  None when M
    has no projector."""
    p, d = m.projector, m.ambient_dim
    if p is None:
        return None

    def project(z):
        x, w, lam = z[:d], z[d : 2 * d], z[2 * d]
        px = np.asarray(p(x), float)
        if abs(lam) < FIBER_EPS:
            tb = m.tangent_basis(px)
            return np.concatenate([px, tb @ (tb.T @ w), [0.0]])
        return np.concatenate([px, (px - np.asarray(p(x - lam * w), float)) / lam, [lam]])

    return project


def tangent_groupoid_filtration(f: Filtration) -> Filtration:
    """Deformation-space levels in coordinates (point, difference quotient,
    fiber): nonzero-fiber slices are pairs of level points, the zero-fiber
    slice is the tangent level; the gluing is the divided-difference
    constraint, smooth across the fiber.  A level whose base level has a
    projector gets the map :func:`_groupoid_projector` built from it, so its
    distances are taken in closed form; otherwise by Gauss-Newton."""
    if f.witnesses is None:
        raise MissingWitness("tangent lifts need normality witnesses")
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
        return ImplicitManifold(
            name, 2 * d + 1, 2 * m.dim + 1, constraints, samples, region=region, projector=_groupoid_projector(m)
        )

    levels = [glue_manifold(m, f"𝕋{m.name}") for m in f.levels]
    total = glue_manifold(f.total, f"𝕋{f.total.name}")

    witnesses = _lift_witnesses(
        f.witnesses, lambda fr, n: lambda z: _transported_frame(fr, z[:d], z[d : 2 * d], z[2 * d], 2 * d + 1)
    )

    fredholm = None
    if f.fredholm is not None:
        fm = f.fredholm.map
        fiber = linear_map(np.eye(2 * d + 1)[2 * d :], "λ")
        pairs = _interleave_maps(
            _restrict(fm, 0, 2 * d + 1), _divided_difference(fm, d), 2 * fm.codomain_dim, "𝔻f"
        )
        fredholm = FredholmData(
            _stack_maps(fiber, pairs, "𝔻f"),
            flag_groupoid(f.fredholm.flag),
        )

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        # each base point once, the zero fibre (TF's samples) first: a base may return fewer
        pts = f.ambient_sampler(rng, count + count // 2)
        zero, paired = pts[: count - count // 2], pts[count - count // 2 :]
        out = []
        for x in zero:
            p = newton_project(f.total, x)
            tb = f.total.tangent_basis(p)
            out.append(np.concatenate([p, tb @ rng.normal(size=tb.shape[1]), [0.0]]))
        for x, y in zip(paired[::2], paired[1::2]):
            lam = float(rng.uniform(0.2, 1.0))
            out.append(np.concatenate([x, (x - y) / lam, [lam]]))
        return out

    return Filtration(
        delta=DimensionSequence([2 * dd_ + 1 for dd_ in f.delta]),
        levels=levels,
        total=total,
        witnesses=witnesses,
        cover=None,
        fredholm=fredholm,
        ambient_sampler=sampler,
    )


def tangent_filtration(f: Filtration) -> Filtration:
    """TF, the lam = 0 fiber of 𝕋F, in (point, velocity) coordinates: the
    constraints of :func:`tangent_groupoid_filtration` through z -> (z, 0),
    its frames, cutting map and flag without their fiber coordinate, and its
    zero-fiber samples (x, v), each followed by the unit (x, 0).  Its maps
    onto the levels are those of 𝕋F through z -> (z, 0), (x, v) -> (p(x),
    Π v), where the base level has a projector p."""
    tg = tangent_groupoid_filtration(f)
    d = f.total.ambient_dim
    zero_fiber = linear_map(np.eye(2 * d + 1, 2 * d), "(z, 0)")

    def fiber(m: ImplicitManifold, base: ImplicitManifold) -> ImplicitManifold:
        name = f"T{base.name}"
        samples = []
        for z in m.samples:
            if z[2 * d] == 0.0:
                samples += [z[: 2 * d], np.concatenate([z[:d], np.zeros(d)])]
        region = None if m.region is None else (lambda z: m.region(zero_fiber(z)))
        constraints = compose_maps(m.constraints, zero_fiber, name)
        projector = None if m.projector is None else (lambda z: m.projector(zero_fiber(z))[: 2 * d])
        return ImplicitManifold(name, 2 * d, m.dim - 1, constraints, samples, region=region, projector=projector)

    fredholm = None
    if tg.fredholm is not None:
        gm, flag = tg.fredholm.map, tg.fredholm.flag
        drop_fiber = linear_map(np.eye(gm.codomain_dim)[1:], "drop λ")
        square = Flag(
            DimensionSequence([k - 1 for k in flag.delta]), [drop_first_coordinate(s) for s in flag.subspaces]
        )
        fredholm = FredholmData(compose_maps(drop_fiber, compose_maps(gm, zero_fiber), "Df"), square)

    def sampler(rng, count):
        return [z[: 2 * d] for z in tg.ambient_sampler(rng, count) if z[2 * d] == 0.0]

    return Filtration(
        delta=DimensionSequence([k - 1 for k in tg.delta]),
        levels=[fiber(m, base) for m, base in zip(tg.levels, f.levels)],
        total=fiber(tg.total, f.total),
        witnesses=_lift_witnesses(tg.witnesses, lambda fr, n: lambda z: fr(zero_fiber(z))[: 2 * d]),
        fredholm=fredholm,
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
        # the last kept level, or a skipped step without a frame, has no frame in the next
        for i, nxt in zip(indices, indices[1:] + [None]):
            frames = [f.witnesses[j - 1].frame_in_next for j in range(i, nxt or i)]
            stacked = None
            if frames and None not in frames:
                stacked = lambda m, frs=tuple(frames): np.hstack([np.atleast_2d(fr(m)) for fr in frs])
            witnesses.append(NormalityWitness(stacked, f.witnesses[i - 1].frame_in_big))

    cover = None
    if f.cover is not None:
        cover = TubularCover(
            v_contains=[f.cover.v_contains[i - 1] for i in indices],
            u_contains=[f.cover.u_contains[i - 1] for i in indices],
        )
    fredholm = None
    if f.fredholm is not None:
        fredholm = FredholmData(
            f.fredholm.map, flag_subsequence(f.fredholm.flag, indices)
        )
    return Filtration(
        delta=delta,
        levels=levels,
        total=f.total,
        witnesses=witnesses,
        cover=cover,
        fredholm=fredholm,
        claimed_dense=f.claimed_dense,
        ambient_sampler=f.ambient_sampler,
    )


def _pullback(
    g: SmoothMap,
    n_total: ImplicitManifold,
    f: Filtration,
    delta: DimensionSequence,
    prefix: str,
    on_level: Callable,
    claimed_dense: bool = False,
    ambient_sampler: Callable | None = None,
) -> Filtration:
    """The preimages g⁻¹M_n of the levels of ``f`` along g: N -> M, which the
    caller has checked is transverse to them, so codimensions are kept;
    ``on_level(level, m)`` returns the samples of the preimage of m, or raises.
    A witness frame at g(z) lifts modulo the level, to T_zN a where
    [Dg T_zN, T_g(z)M_n] [a; b] = frame (min-norm): Dg moves the lift to the
    frame plus a vector of T M_n, so it complements T g⁻¹M_n as the frame
    does T M_n.  Transversality, Dg T_zN + T M_n = T M, makes this solvable
    without Dg onto T M.  The cover lifts to u ∘ g, v ∘ g, the cutting map to f ∘ g.
    Both frames of a sample lift through one system, built at its first frame."""
    system = {}  # one entry: (level, sample) -> (y, T_zN, [Dg T_zN, T_yM_n])

    def lift_frame(fr, m, z):
        key = (id(m), np.asarray(z, float).tobytes())
        if key not in system:
            y, tn = g(z), n_total.tangent_basis(z)
            system.clear()
            system[key] = y, tn, np.hstack([g.jacobian(z) @ tn, m.tangent_basis(y)])
        y, tn, a = system[key]
        return tn @ linalg.min_norm_lstsq(a, np.atleast_2d(fr(y)))[: tn.shape[1]]

    levels = []
    for m in f.levels:
        name = f"{prefix}⁻¹{m.name}"
        h = compose_maps(m.constraints, g, name)
        lvl = _preimage_manifold(n_total, h, n_total.dim - f.total.dim + m.dim, name, [])
        lvl.samples = on_level(lvl, m)
        levels.append(lvl)
    cover = None
    if f.cover is not None:
        preds = [[lambda z, p=p: p(g(z)) for p in ps] for ps in (f.cover.v_contains, f.cover.u_contains)]
        cover = TubularCover(*preds)
    fredholm = None
    if f.fredholm is not None:
        fredholm = FredholmData(compose_maps(f.fredholm.map, g, f"f∘{prefix}"), f.fredholm.flag)
    return Filtration(
        delta=delta,
        levels=levels,
        total=n_total,
        witnesses=_lift_witnesses(f.witnesses, lambda fr, n: lambda z: lift_frame(fr, f.level(n), z)),
        cover=cover,
        fredholm=fredholm,
        claimed_dense=claimed_dense,
        ambient_sampler=ambient_sampler,
    )


@dataclass
class CoveringMap:
    """A finite smooth covering: total space, base space, the projection,
    and a lift procedure returning all preimages of a base point."""

    total: ImplicitManifold
    base: ImplicitManifold
    projection: SmoothMap
    lift: Callable  # base point -> list of total-space points


def pullback_filtration_covering(cov: CoveringMap, f: Filtration) -> Filtration:
    """Pull a filtration back through a covering; dimensions are preserved
    and samples are lifted through every sheet."""
    if f.total.ambient_dim != cov.base.ambient_dim:
        raise NotCovering("covering base does not match the filtration ambient")
    fibers = set()
    for s in f.total.samples:
        lifts = cov.lift(s)
        fibers.add(len(lifts))
        for z in lifts:
            jz = cov.projection.jacobian(z) @ cov.total.tangent_basis(z)
            tb = cov.base.tangent_basis(s)
            a = tb.T @ jz
            if a.shape[0] != a.shape[1] or linalg.rank(a) != a.shape[0]:
                raise NotCovering("projection is not a local diffeomorphism at a lifted sample")
    if len(fibers) != 1:
        raise NotCovering(f"fiber cardinality not constant on samples: {sorted(fibers)}")

    def sampler(rng, count):
        if f.ambient_sampler is None:
            return []
        projected = _converged_projections(f.total, f.ambient_sampler(rng, count))
        return [z for q in projected for z in cov.lift(q)][:count]

    def on_level(lvl, m):
        return [z for s in m.samples for z in cov.lift(s)]

    return _pullback(cov.projection, cov.total, f, f.delta, "p", on_level, f.claimed_dense, sampler)


def pullback_filtration_fredholm(
    g: SmoothMap,
    n_total: ImplicitManifold,
    index_p: int,
    f: Filtration,
    seeds: list | None = None,
) -> Filtration:
    """Preimage filtration along a positive-index map transverse to every
    level; level dimensions shift up by the index."""
    if g.domain_dim != n_total.ambient_dim or g.codomain_dim != f.total.ambient_dim:
        raise NotTransversal("map dimensions do not match the ambient models")
    if n_total.dim - f.total.dim != index_p:
        raise NotTransversal(
            f"index mismatch: dim N - dim M = {n_total.dim - f.total.dim}, stated {index_p}"
        )
    start_points = seeds if seeds is not None else n_total.samples

    def on_level(lvl, m):
        found = _converged_projections(lvl, start_points)
        if not found:
            raise NoConvergence(f"no on-level samples found for {lvl.name}")
        # Smale transversality hypothesis at the samples
        if not all(is_transversal_nonlinear(g, n_total, m, x, f.total) for x in found):
            raise NotTransversal(f"map not transverse to {m.name} at a sample")
        return found

    return _pullback(g, n_total, f, DimensionSequence([index_p + d for d in f.delta]), "g", on_level)


def example_v_filtration(f: Filtration, k: int = 2) -> Filtration:
    """Levels M_n x {0} inside M x R^k: the product of each level with the
    origin of R^k, and of the total with R^k.

    The construction deliberately carries the dense claim of its input so the
    verifier can falsify it: distances from ambient samples are bounded below
    by the extra-factor coordinates.  No cutting map exists, so the Fredholm
    claim is dropped.
    """
    d = f.total.ambient_dim
    # a product pairs the factors' samples one to one
    reps = max(len(m.samples) for m in f.levels)
    point = np.zeros(k)
    origin = ImplicitManifold("0", k, 0, linear_map(np.eye(k)), [point] * reps, projector=lambda y: point)
    levels = [_product_manifold(m, origin, f"{m.name}×0") for m in f.levels]
    rk = _full_space(k, [0.5 + 0.1 * np.arange(k)] * len(f.total.samples))
    total = _product_manifold(f.total, rk, f"{f.total.name}×R^{k}")
    at_origin = NormalityWitness(lambda y: np.zeros((k, 0)), lambda y: np.eye(k))

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
        witnesses=_product_witnesses(f.witnesses, [at_origin] * f.depth, d, d + k),
        cover=None,
        fredholm=None,
        claimed_dense=f.claimed_dense,  # deliberately inherited; verification falsifies it
        ambient_sampler=sampler,
    )


def mixed_product_filtration(f: Filtration, growth: list[ImplicitManifold]) -> Filtration:
    """Levels M_n x P_n with a growing second factor supplied directly and no
    witness data: the verifier reports normality unverified."""
    tower = Filtration(DimensionSequence([g.dim for g in growth]), growth, growth[-1])
    return make_filtration_product(f, tower)


# -- verification -----------------------------------------------------------------


def _check_nesting(f: Filtration, depth: int) -> dict:
    worst = 0.0
    for n in range(1, depth):
        nxt = f.level(n + 1)
        for s in f.level(n).samples:
            worst = max(worst, nxt.constraint_norm(s))
    return condition(worst <= NEST_TOL, {"max_constraint_norm": worst, "tolerance": NEST_TOL})


def _check_cover(f: Filtration, depth: int, samples) -> dict:
    if f.cover is None:
        return {"status": "unverified", "evidence": {"note": "no cover supplied"}}
    if not samples:
        return {"status": "unverified", "evidence": {"note": "no ambient samples: the cover is untested"}}
    u, v = f.cover.u_contains, f.cover.v_contains
    nested_uv = all(
        (not u[n](x)) or v[n](x) for n in range(depth) for x in samples
    )
    nested_uu = all(
        (not u[n](x)) or u[n + 1](x) for n in range(depth - 1) for x in samples
    )
    covered = [any(u[n](x) for n in range(depth)) for x in samples]
    fraction = float(np.mean(covered))
    ok = nested_uv and nested_uu and fraction == 1.0
    return condition(ok, {"u_in_v": nested_uv, "u_increasing": nested_uu, "coverage_fraction": fraction})


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


def _check_density(f: Filtration, depth: int, samples) -> dict:
    if not f.claimed_dense and (f.ambient_sampler is None or not samples):
        return {"status": "not_claimed", "evidence": {}}
    profiles, monotone, deepest = _density_profile(f, depth, samples)
    if not f.claimed_dense:
        return {"status": "measured", "evidence": {"monotone": monotone, "deepest_distance": deepest}}
    ok = monotone and np.isfinite(deepest) and deepest <= DENSITY_TOL
    return condition(
        ok,
        {
            "monotone": monotone,
            "deepest_distance": deepest,
            "tolerance": DENSITY_TOL,
            "profiles_head": [p[:depth] for p in profiles[:3]],
        },
    )


def _frame_record(
    n: int, tag: str, frame: np.ndarray, jac: np.ndarray, tangent_dim: int, normal: np.ndarray, target_dim: int
) -> dict:
    """Condition (d) for one witness frame at a sample of M_n: ``jac`` is the
    target's constraint Jacobian there and ``normal`` the orthonormal
    complement of the level's ``tangent_dim``-dimensional tangent space."""
    cols = frame.shape[1]
    tangency = float(np.max(np.abs(jac @ frame), initial=0.0))
    complete = tangent_dim + cols == target_dim and linalg.rank_modulo(frame, normal) == cols
    independent = complete or linalg.rank(frame) == cols
    return {
        "level": n,
        "in": tag,
        "independent": independent,
        "tangency_residual": tangency,
        "complements_tangent": complete,
    }


def _cut_record(
    n: int, fm: SmoothMap, s: np.ndarray, tangent: np.ndarray, basis: np.ndarray, normal: np.ndarray
) -> dict:
    """The Fredholm condition at a sample of M_n, for the flag level with
    orthonormal basis ``basis`` and complement ``normal``, and the total's
    tangent basis ``tangent`` at the sample."""
    y = fm(s)
    a = fm.jacobian(s) @ tangent
    r = linalg.rank_modulo(a, normal)
    return {
        "level": n,
        "membership_residual": float(np.linalg.norm(y - basis @ (basis.T @ y))),
        "transverse": r == normal.shape[1],
        "preimage_tangent_dim": a.shape[1] - r,
    }


def _check_level_samples(f: Filtration, depth: int) -> dict[str, dict]:
    """Conditions (a) and (d) and the Fredholm condition, keyed as in the
    report, from one pass over the samples s of the levels M_n.

    At each s the level's constraint Jacobian J_n(s) is evaluated once and
    decomposed once, by ``linalg.kernel_with_complement``: the complement's
    column count is the rank of (a), the kernel is T M_n, and the complement
    is the normal space N_n of M_n in the ambient model; T M_n and N_n are
    one orthogonal matrix.  The total's constraint Jacobian is evaluated at
    most once at s, for the tangency of the frame in the total and for the
    Fredholm condition's tangent basis of the total.  Nothing outlives its
    sample.  (a) raises nothing; where witness frames are checked, a sample
    off its level or with a degenerate Jacobian raises OffManifold, as
    :meth:`ImplicitManifold.tangent_basis` does.

    (d): each witness frame F is independent, tangent to its target and
    complements T M_n at s.  Completeness is the column count against the
    target's dimension, then ``linalg.rank_modulo(F, N_n) == F.shape[1]``:
    ``[T_n F]`` and ``[T_n, N_n N_nᵀF]`` span the same space, so
    ``rank([T_n F]) = dim T_n + rank(N_nᵀF)`` (the block rank identity of
    G. Marsaglia and G. P. H. Styan, *Equalities and inequalities for ranks
    of matrices*, Linear Multilinear Algebra 2, 1974), one values-only SVD of
    a (codim + 1) x (cols + 1) matrix.  ``rank_modulo`` counts the singular
    values of N_nᵀF at the scale of the stack, above ``τ·hypot(1, ‖F‖_F)``
    with ``τ = linalg.RANK_RTOL``, so the rounding noise that a frame inside
    T M_n leaves in N_nᵀF does not count.  N_n has orthonormal columns, so
    ``‖N_nᵀFv‖ <= ‖Fv‖`` and a complete frame has ``σ_min(F) >=
    σ_min(N_nᵀF) > τ·hypot(1, ‖F‖_F) >= τ·σ_max(F)``: it is independent
    under the same threshold, as in
    :meth:`subspaces.ComplementedSubspace.verify`.  ``rank(F)`` is taken
    only when completeness fails.

    Fredholm: the cutting map lands in the flag level, is transverse to it,
    and cuts out a tangent space of the level's dimension.  With ``B`` the
    flag level's orthonormal basis, ``N`` that of its orthogonal complement
    and ``a`` the map's derivative on the tangent space of the total, the
    same identity gives ``rank([a B]) = dim B + rank(Nᵀa)``.  With
    ``r = linalg.rank_modulo(a, N)`` the map is transverse when ``r`` equals
    the codimension of the flag level, and the kernel of ``Nᵀa``, the
    tangent space of the cut-out set, has dimension ``a.shape[1] - r``."""
    total, fredholm = f.total, f.fredholm
    witnesses = f.witnesses if f.witnesses is not None and len(f.witnesses) == depth else None
    measured, rank_tests, cuts = [], [], []
    for n in range(1, depth + 1):
        lvl = f.level(n)
        frames = []
        if witnesses is not None:
            w = witnesses[n - 1]
            for tag, fr, target in (
                ("next", w.frame_in_next, f.level(n + 1) if n < depth else None),
                ("big", w.frame_in_big, total),
            ):
                if fr is not None and target is not None:
                    frames.append((tag, fr, target))
        if fredholm is not None:
            flag_space = fredholm.flag.level(n).space
            flag_basis = linalg.orthonormalize(flag_space.basis_matrix(fredholm.map.codomain_dim))
            flag_normal = linalg.nullspace(flag_basis.T)
        needs_total = fredholm is not None or any(target is total for _, _, target in frames)
        dims = set()
        for s in lvl.samples:
            kernel, normal = linalg.kernel_with_complement(lvl.constraints.jacobian(s))
            dims.add(kernel.shape[1])
            if witnesses is not None:
                lvl.require(s)
                lvl.tangent_of_kernel(kernel)
            j_total = total.constraints.jacobian(s) if needs_total else None
            for tag, fr, target in frames:
                jac = j_total if target is total else target.constraints.jacobian(s)
                frame = np.atleast_2d(fr(s))
                rank_tests.append(_frame_record(n, tag, frame, jac, kernel.shape[1], normal, target.dim))
            if fredholm is not None:
                total.require(s)
                tangent = total.tangent_of_kernel(linalg.nullspace(j_total))
                cuts.append(_cut_record(n, fredholm.map, s, tangent, flag_basis, flag_normal))
        measured.append(sorted(dims))
    dims_ok = all(dims == [f.delta[n]] for n, dims in enumerate(measured, start=1))
    out = {"a_dimensions": condition(dims_ok, {"measured": measured, "expected": list(f.delta)[:depth]})}
    if f.witnesses is None:
        out["d_normality"] = {"status": "unverified", "evidence": {"note": "no witness supplied: normality unverified"}}
    elif witnesses is None:
        # witness n belongs to level n, so a list of another length witnesses other levels
        out["d_normality"] = condition(False, {"witnesses": len(f.witnesses), "levels": depth})
    else:
        ok = all(r["independent"] and r["tangency_residual"] <= 1e-6 and r["complements_tangent"] for r in rank_tests)
        out["d_normality"] = condition(ok, {"rank_tests": rank_tests})
    if fredholm is None:
        out["fredholm"] = {"status": "not_claimed", "evidence": {}}
    else:
        ok = all(
            r["membership_residual"] <= MEMBER_TOL
            and r["transverse"]
            and r["preimage_tangent_dim"] == f.delta[r["level"]]
            for r in cuts
        )
        out["fredholm"] = condition(ok, {"samples": cuts})
    return out


def verify_filtration(
    f: Filtration,
    n_samples: int = 32,
    seed: int = 42,
) -> ConditionReport:
    """Structured per-condition verification of every level at the given
    sampling budget.

    Conditions (a) and (d) and the Fredholm condition are decided in one pass
    over the level samples (:func:`_check_level_samples`): at each sample of
    M_n the level's constraint Jacobian is evaluated once and decomposed
    once, into the tangent space that (a) counts and its normal complement
    against which (d) and the Fredholm condition rank their frames and
    derivatives, and the total's constraint Jacobian is evaluated at most
    once.  Nothing is kept from one sample to the next.  Where witness frames
    are supplied, a level sample off its level or with a degenerate Jacobian
    raises OffManifold; (a) itself raises nothing, so without witnesses a
    degenerate Jacobian fails (a)."""
    depth = f.depth
    rng = np.random.Generator(np.random.Philox(key=seed))
    ambient_samples = f.ambient_sampler(rng, n_samples) if f.ambient_sampler else []

    sampled = _check_level_samples(f, depth)
    report = ConditionReport()
    report.conditions["a_dimensions"] = sampled["a_dimensions"]
    report.conditions["b_nesting"] = _check_nesting(f, depth)
    report.conditions["c_limit_inclusion"] = {
        "status": "out_of_scope",
        "evidence": {"note": "homotopy condition on the union is out of scope"},
    }
    report.conditions["d_normality"] = sampled["d_normality"]
    report.conditions["e_cover"] = _check_cover(f, depth, ambient_samples)
    report.conditions["density"] = _check_density(f, depth, ambient_samples)
    report.conditions["fredholm"] = sampled["fredholm"]
    return report


# -- JSON surface ---------------------------------------------------------------


def filtration_from_spec(spec: dict) -> Filtration:
    """Build the one kind of filtration ``demo`` describes,
    {"kind": "sphere", "delta": [d_1, ..., d_N], "depth": n}: the unit
    spheres of the first n levels of ``standard_flag(delta)`` (every level
    when ``depth`` is absent).  Another kind, another key, or a bad ``delta``
    or ``depth`` is a ConfigError."""
    from .flags import standard_flag

    if not isinstance(spec, dict) or spec.get("kind") != "sphere" or not set(spec) <= {"kind", "delta", "depth"}:
        raise ConfigError(f'a filtration spec is {{"kind": "sphere", "delta": [...], "depth": n}}, got {spec!r}')
    delta, depth = spec.get("delta"), spec.get("depth")
    if depth is not None and (isinstance(depth, bool) or not isinstance(depth, numbers.Integral) or depth < 1):
        raise ConfigError(f"depth must be a positive integer, got {depth!r}")
    try:
        levels = list(delta)
        if depth is not None and depth > len(levels):
            raise ConfigError(f"depth {depth} exceeds the {len(levels)} levels of {delta!r}")
        return make_filtration_sphere(standard_flag(levels[:depth]))
    except (TypeError, ValueError, DimensionTooSmall) as exc:
        raise ConfigError(f"bad dimension sequence {delta!r}: {exc}") from exc
