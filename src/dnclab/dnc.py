"""Deformation spaces and tangent groupoids as concrete point sets.

A deformation-space point is either an interior point (manifold point with a
nonzero scalar fiber coordinate) or a boundary point (submanifold point with
a normal vector).  The smooth structure lives in the rescaled tubular
charts; all smoothness claims are exercised through chart-conjugated maps
and the linear decay of their Taylor remainders as the fiber coordinate
shrinks to zero.  Each chart is inverted in closed form by its own
``inverse``, and every inversion checks its result: the base point on the
pair, the normal vector in the normal fibre there and within the chart
radius, and the chart residual within 1e-9.  No finite difference and no
iteration enters a remainder.
Every membership is decided at ``ON_MANIFOLD_TOL`` (1e-8), once per point,
where the point enters: a boundary base point is projected onto the source
submanifold before it is mapped.  ``tol`` bounds normal-vector residuals only.
The transversality check decides what depends on a boundary base point
alone once per base point, and tests each sample's normal vectors against
those stored fibres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DomainError,
    FiberMismatch,
    NotComposable,
    OutsideChart,
    PreconditionFailed,
    RadiusExceeded,
)
from .geometry import (
    ManifoldPair,
    PairMap,
    SmoothMap,
    TubularMap,
    is_transversal_nonlinear,
    normal_map_pushforward,
)

__all__ = [
    "DncPoint",
    "TangentGroupoidElement",
    "dnc_chart",
    "dnc_chart_inverse",
    "dnc_map",
    "dnc_vspace_iso",
    "dnc_vspace_iso_inverse",
    "dnc_product_split",
    "dnc_product_join",
    "tg_compose",
    "tg_inverse",
    "tg_unit",
    "tg_map",
    "trivial_bundle_split",
    "trivial_bundle_join",
    "taylor_probe",
    "dnc_transversality_check",
]


@dataclass(frozen=True)
class DncPoint:
    """Tagged point of a deformation space: interior (point, lambda != 0) or
    boundary (base point, normal vector, lambda = 0)."""

    kind: str
    point: np.ndarray
    lam: float
    normal: np.ndarray | None = None

    @staticmethod
    def interior(m, lam: float) -> "DncPoint":
        if lam == 0.0:
            raise DomainError("interior points need a nonzero fiber coordinate")
        return DncPoint("interior", np.asarray(m, dtype=float), float(lam))

    @staticmethod
    def boundary(m, x) -> "DncPoint":
        return DncPoint("boundary", np.asarray(m, dtype=float), 0.0, np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TangentGroupoidElement:
    """Pair-groupoid arrow at lambda != 0, or a tangent vector at lambda = 0.

    The boundary identification sends an arrow's two velocity components to
    their difference, first minus second; that sign convention is fixed
    project-wide.
    """

    kind: str
    a: np.ndarray
    b: np.ndarray | None
    lam: float

    @staticmethod
    def pair(x, y, lam: float) -> "TangentGroupoidElement":
        if lam == 0.0:
            raise DomainError("pair arrows need a nonzero fiber coordinate")
        return TangentGroupoidElement(
            "pair", np.asarray(x, dtype=float), np.asarray(y, dtype=float), float(lam)
        )

    @staticmethod
    def tangent(m, v) -> "TangentGroupoidElement":
        return TangentGroupoidElement(
            "tangent", np.asarray(m, dtype=float), np.asarray(v, dtype=float), 0.0
        )


# -- charts -------------------------------------------------------------------


def dnc_chart(tub: TubularMap, m, x, t: float) -> DncPoint:
    """Rescaled tubular chart: (base, normal, t) -> deformation-space point."""
    x = np.asarray(x, dtype=float)
    if abs(t) * float(np.linalg.norm(x)) > tub.valid_radius:
        raise RadiusExceeded(f"|t X| = {abs(t) * np.linalg.norm(x):.3e} beyond chart radius")
    if t == 0.0:
        return DncPoint.boundary(m, x)
    return DncPoint.interior(tub(m, t * x), t)


def _tubular_inverse(tub: TubularMap, q):
    """The chart's closed-form ``inverse`` at q, checked before it is
    returned: the base point lies on the pair, the normal vector lies in the
    normal fibre there (to 1e-9 (1 + |y|)) and within the chart radius, and
    phi(base, y) is within 1e-9 of q.  The fibre check is what rejects, for
    the flat chart, a base point moved along the submanifold with
    y = q - base, which passes the residual check.  A failed check raises
    OutsideChart."""
    q = np.asarray(q, dtype=float)
    base, y = (np.asarray(v, dtype=float) for v in tub.inverse(q))
    if not tub.pair.contains(base):
        raise OutsideChart(f"recovered base point off {tub.pair.small.name}")
    if not _in_span(y, tub.pair.adapted_frame(base)[1], 1e-9):
        raise OutsideChart("recovered normal vector outside the normal fibre")
    if np.linalg.norm(y) > tub.valid_radius * (1 + 1e-9):
        raise OutsideChart("recovered normal vector beyond the chart radius")
    if np.max(np.abs(tub(base, y) - q), initial=0.0) > 1e-9:
        raise OutsideChart("chart inversion residual above tolerance")
    return base, y


def dnc_chart_inverse(tub: TubularMap, p: DncPoint):
    """Left/right inverse of the rescaled chart: point -> (base, normal, t).
    An interior point is inverted by the chart's checked closed-form
    inverse, :func:`_tubular_inverse`, so the recovered chart point is
    within 1e-9 of the given one."""
    if p.kind == "boundary":
        return p.point, p.normal, 0.0
    base, y = _tubular_inverse(tub, p.point)
    return base, y / p.lam, p.lam


# -- functor ------------------------------------------------------------------


def dnc_map(fp: PairMap, p: DncPoint) -> DncPoint:
    """Induced map on deformation-space points; the scalar fiber coordinate
    is preserved (the canonical projection is intertwined)."""
    if p.kind == "interior":
        return DncPoint.interior(fp.f(p.point), p.lam)
    q, v = normal_map_pushforward(fp, p.point, p.normal)
    return DncPoint.boundary(q, v)


# -- linear-pair isomorphism ---------------------------------------------------


def dnc_vspace_iso(e0_dim: int, p: DncPoint) -> tuple[np.ndarray, float]:
    """For a linear pair (coordinate space, leading-coordinate subspace):
    the global trivialization (e' + v, t) -> (e' + v/t, t), boundary by
    (e', v) -> (e' + v, 0).  Exact, with an exact inverse; a boundary point
    more than 1e-12 off the pair raises DomainError."""
    if p.kind == "interior":
        w = p.point.copy()
        w[e0_dim:] = w[e0_dim:] / p.lam
        return w, p.lam
    if np.max(np.abs(p.point[e0_dim:]), initial=0.0) > 1e-12:
        raise DomainError("boundary base point leaves the linear subspace")
    if np.max(np.abs(p.normal[:e0_dim]), initial=0.0) > 1e-12:
        raise DomainError("boundary normal vector has subspace components")
    n = max(p.point.size, p.normal.size)
    return linalg.pad_to(p.point, n) + linalg.pad_to(p.normal, n), 0.0


def dnc_vspace_iso_inverse(e0_dim: int, w, t: float) -> DncPoint:
    w = np.asarray(w, dtype=float)
    if t != 0.0:
        z = w.copy()
        z[e0_dim:] = z[e0_dim:] * t
        return DncPoint.interior(z, t)
    base = w.copy()
    base[e0_dim:] = 0.0
    x = w - base
    return DncPoint.boundary(base, x)


# -- products -------------------------------------------------------------------


def dnc_product_split(p: DncPoint, dim_first: int) -> tuple[DncPoint, DncPoint]:
    """Split a product-pair point into factor points over the same fiber
    coordinate (the fibered product over the scalar line)."""
    if p.kind == "interior":
        return (
            DncPoint.interior(p.point[:dim_first], p.lam),
            DncPoint.interior(p.point[dim_first:], p.lam),
        )
    return (
        DncPoint.boundary(p.point[:dim_first], p.normal[:dim_first]),
        DncPoint.boundary(p.point[dim_first:], p.normal[dim_first:]),
    )


def dnc_product_join(pa: DncPoint, pb: DncPoint) -> DncPoint:
    if pa.lam != pb.lam:
        raise FiberMismatch(f"fiber coordinates differ: {pa.lam} vs {pb.lam}")
    if pa.kind != pb.kind:
        raise FiberMismatch("cannot join interior with boundary")
    if pa.kind == "interior":
        return DncPoint.interior(np.concatenate([pa.point, pb.point]), pa.lam)
    return DncPoint.boundary(
        np.concatenate([pa.point, pb.point]), np.concatenate([pa.normal, pb.normal])
    )


# -- groupoid structure ----------------------------------------------------------


def tg_compose(a: TangentGroupoidElement, b: TangentGroupoidElement) -> TangentGroupoidElement:
    """Arrow composition at lambda != 0, fiberwise addition at lambda = 0."""
    if a.lam != b.lam:
        raise FiberMismatch(f"fiber coordinates differ: {a.lam} vs {b.lam}")
    if a.kind == "pair":
        if not np.array_equal(a.b, b.a):
            raise NotComposable("source of the first arrow differs from target of the second")
        return TangentGroupoidElement.pair(a.a, b.b, a.lam)
    if not np.array_equal(a.a, b.a):
        raise NotComposable("tangent vectors sit at different base points")
    return TangentGroupoidElement.tangent(a.a, a.b + b.b)


def tg_inverse(a: TangentGroupoidElement) -> TangentGroupoidElement:
    if a.kind == "pair":
        return TangentGroupoidElement.pair(a.b, a.a, a.lam)
    return TangentGroupoidElement.tangent(a.a, -a.b)


def tg_unit(point, lam: float) -> TangentGroupoidElement:
    point = np.asarray(point, dtype=float)
    if lam == 0.0:
        return TangentGroupoidElement.tangent(point, np.zeros_like(point))
    return TangentGroupoidElement.pair(point, point, lam)


def tg_map(f: SmoothMap, a: TangentGroupoidElement) -> TangentGroupoidElement:
    """Induced groupoid morphism: apply the map to arrow endpoints, the
    differential to tangent vectors."""
    if a.kind == "pair":
        return TangentGroupoidElement.pair(f(a.a), f(a.b), a.lam)
    return TangentGroupoidElement.tangent(f(a.a), f.jacobian(a.a) @ a.b)


# -- trivial bundle ----------------------------------------------------------------


def trivial_bundle_split(a: TangentGroupoidElement, k: int):
    """Split an element over a product with a k-dimensional coordinate space
    (its last k coordinates) into an element over the base and a (base
    vector, fiber vector) pair; linear on fibers and exactly invertible.
    DomainError unless 0 <= k <= the element's dimension."""
    if not 0 <= k <= a.a.size:
        raise DomainError(f"fiber dimension {k} outside 0..{a.a.size}")
    cut = a.a.size - k
    m, u = a.a[:cut], a.a[cut:]
    if a.kind == "pair":
        m2, u2 = a.b[:cut], a.b[cut:]
        return TangentGroupoidElement.pair(m, m2, a.lam), (u, (u - u2) / a.lam)
    vm, vu = a.b[:cut], a.b[cut:]
    return TangentGroupoidElement.tangent(m, vm), (u, vu)


def trivial_bundle_join(base: TangentGroupoidElement, vectors, k: int) -> TangentGroupoidElement:
    u, w = (np.asarray(v, dtype=float) for v in vectors)
    if u.size != k or w.size != k:
        raise FiberMismatch(f"expected two vectors of {k} coordinates")
    if base.kind == "pair":
        return TangentGroupoidElement.pair(
            np.concatenate([base.a, u]),
            np.concatenate([base.b, u - base.lam * w]),
            base.lam,
        )
    return TangentGroupoidElement.tangent(
        np.concatenate([base.a, u]), np.concatenate([base.b, w])
    )


# -- Taylor remainder probe -----------------------------------------------------------


def taylor_probe(fp: PairMap, tub1: TubularMap, tub2: TubularMap, m, x, t_list) -> list[float]:
    """Remainder magnitudes of the rescaled chart-conjugated map against the
    normal pushforward: r(t) = | (1/t) * fiber(phi2^-1(f(phi1(m, tX)))) - f_* X |.
    It composes :func:`dnc_chart`, :func:`dnc_map` and
    :func:`dnc_chart_inverse`, so every point passes the first chart's
    radius check and the four checks of the second chart's closed-form
    inverse (base on the pair, normal vector in the fibre and within the
    radius, residual within 1e-9).

    The smooth-gluing contract is r(t) <= C t; suites fit the log-log slope
    over a halving sequence and require at least 0.9.
    """
    _, v_star = normal_map_pushforward(fp, m, np.asarray(x, dtype=float))
    out = []
    for t in t_list:
        _, v, _ = dnc_chart_inverse(tub2, dnc_map(fp, dnc_chart(tub1, m, x, t)))
        out.append(float(np.linalg.norm(v - v_star)))
    return out


# -- transversality through the functor ------------------------------------------------


def _in_span(v, q: np.ndarray | None, tol) -> bool:
    """Is v within ``tol`` (1 + |v|) of the span of the orthonormal columns
    q?  No span at all (None: the base point is off (Z, Z0)) holds nothing."""
    if q is None:
        return False
    resid = v - q @ (q.T @ v) if q.size else v
    return float(np.linalg.norm(resid)) <= tol * (1.0 + float(np.linalg.norm(v)))


def _fiber_span(pair: ManifoldPair, m, tangent: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the normal projection at m of the span of
    ``tangent``: the fibre a boundary normal vector at m is tested against."""
    _, nu = pair.adapted_frame(m)
    return linalg.orthonormalize(nu @ (nu.T @ tangent))


def _image_fiber(pair: ManifoldPair, zpair: ManifoldPair, q) -> np.ndarray | None:
    """The fibre over q of the deformation subspace of (Z, Z0) in D(pair),
    or None when q is off (Z, Z0).  T Z at a point of Z0 is the pair's
    adapted frame there, stacked."""
    if not zpair.contains(q):
        return None
    return _fiber_span(pair, q, np.hstack(zpair.adapted_frame(q)))


def _preimage_fiber(fp: PairMap, zpair: ManifoldPair, m, q) -> np.ndarray | None:
    """The fibre over the accepted base point m, with image q = f(m), of the
    deformation subspace of (f^-1 Z, f0^-1 Z0), or None when q is off
    (Z, Z0).  T f^-1(Z) at m: the source-tangent vectors whose image under
    Df lands in T Z at q, the adapted frame of (Z, Z0) there, stacked into
    the orthonormal t_z (so t_z t_z^T projects onto T Z)."""
    if not zpair.contains(q):
        return None
    t_z = np.hstack(zpair.adapted_frame(q))
    t_m = np.hstack(fp.source.adapted_frame(m))
    imgs = fp.f.jacobian(m) @ t_m
    off = imgs - t_z @ (t_z.T @ imgs)
    return _fiber_span(fp.source, m, t_m @ linalg.nullspace(off))


def _adapted_block(fp: PairMap, zpair: ManifoldPair, m, q) -> np.ndarray:
    """[blk, v] at a base point m whose image q lies on (Z, Z0): blk is the
    adapted block matrix [nu_out t_out]^T Df [nu_in t_in], extended by the
    scalar fiber direction, and v the target trace tangent (fiber directions
    of Z, base of Z0, fiber axis) in the same output coordinates.  D(f) is
    transverse there iff it has full row rank."""
    t_in, nu_in = fp.source.adapted_frame(m)
    t_out, nu_out = fp.target.adapted_frame(q)
    r_out, d_out = nu_out.shape[1], t_out.shape[1]
    blk = np.zeros((r_out + d_out + 1, nu_in.shape[1] + t_in.shape[1] + 1))
    blk[:-1, :-1] = np.hstack([nu_out, t_out]).T @ fp.f.jacobian(m) @ np.hstack([nu_in, t_in])
    blk[-1, -1] = 1.0
    t_z0, nu_z = zpair.adapted_frame(q)
    k = t_z0.shape[1] + nu_z.shape[1]
    v = np.zeros((r_out + d_out + 1, k + t_z0.shape[1] + 1))
    v[:r_out, :k] = nu_out.T @ np.hstack([t_z0, nu_z])
    v[r_out:-1, k:-1] = t_out.T @ t_z0
    v[-1, -1] = 1.0
    return np.hstack([blk, v])


def _boundary_facts(fp: PairMap, zpair: ManifoldPair, point) -> tuple:
    """What D(f) transversality decides at a boundary base point alone: the
    image fibre (:func:`_image_fiber` at q = f(m), m the accepted point),
    the preimage fibre (:func:`_preimage_fiber`), and the block rank verdict
    (None when q is off (Z, Z0))."""
    m = fp.source.accept(point)
    q = fp.f(m)
    image_fiber = _image_fiber(fp.target, zpair, q)
    preimage_fiber = _preimage_fiber(fp, zpair, m, q)
    block = None
    if image_fiber is not None:
        a = _adapted_block(fp, zpair, m, q)
        block = linalg.rank(a) == a.shape[0]
    return image_fiber, preimage_fiber, block


def dnc_membership(pair: ManifoldPair, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point of D(pair) in the deformation subspace attached to (Z, Z0)?

    Interior points: on Z.  Boundary points: base on the pair (Z, Z0) and
    normal vector in the image of the Z-tangent inside the normal space
    representatives (:func:`_image_fiber`), to the residual ``tol``.  Both
    memberships are decided at ``ON_MANIFOLD_TOL``.
    """
    if p.kind == "interior":
        return zpair.big.contains(p.point)
    return _in_span(p.normal, _image_fiber(pair, zpair, p.point), tol)


def preimage_membership(fp: PairMap, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point in the deformation subspace attached to
    (f^-1 Z, f0^-1 Z0)?  Tolerances as in :func:`dnc_membership`; a boundary
    base point is accepted onto the source pair before it is mapped."""
    if p.kind == "interior":
        return fp.source.big.contains(p.point) and zpair.big.contains(fp.f(p.point))
    if not fp.source.contains(p.point):
        return False
    m = fp.source.accept(p.point)
    return _in_span(p.normal, _preimage_fiber(fp, zpair, m, fp.f(m)), tol)


def dnc_transversality_check(
    fp: PairMap,
    zpair: ManifoldPair,
    samples: list[DncPoint],
    tol: float = 1e-7,
) -> dict:
    """Transversality of the induced deformation-space map to the deformation
    subspace of (Z, Z0), exercised on sampled points.

    Hypotheses (Z transverse to the target submanifold; the map and its
    restriction transverse to Z and Z0) are verified first and a failure
    raises PreconditionFailed naming the hypothesis.  Each sample is mapped
    once.  Interior samples landing on Z get the nonlinear rank test;
    boundary samples landing on Z0 get the lower-triangular block rank test
    in adapted frames; every sample gets membership equivalence through the
    functor.

    A boundary point (m, xi) enters its verdicts through its base point m
    and one span test of xi: the accepted m, its image q = f(m), whether q
    lies on (Z, Z0), both fibres a normal vector is tested against and the
    block rank verdict all depend on m alone.  They are decided once per
    distinct base point within one call (:func:`_boundary_facts`), so the
    verdicts equal those taken sample by sample; each sample is still
    mapped by :func:`dnc_map`, and only its two normal vectors, the image's
    and its own, are tested against the stored fibres.
    """
    z, z0 = zpair.big, zpair.small
    n_pair = fp.target

    # hypothesis: Z transverse to the target submanifold
    for s in z0.samples:
        t_z = z.tangent_basis(s)
        t_n0 = n_pair.small.tangent_basis(s)
        if linalg.rank(np.hstack([t_z, t_n0])) != n_pair.big.dim:
            raise PreconditionFailed("z_transverse_to_target_submanifold")

    # hypothesis: the map transverse to Z (on big-manifold samples landing in Z)
    for s in fp.source.big.samples:
        q = fp.f(s)
        if z.contains(q) and not is_transversal_nonlinear(fp.f, fp.source.big, z, s, n_pair.big, q):
            raise PreconditionFailed("map_transverse_to_z")

    # hypothesis: restricted map transverse to Z0 (on submanifold samples landing in Z0)
    for s in fp.source.small.samples:
        q = fp.f(s)
        if z0.contains(q) and not is_transversal_nonlinear(fp.f, fp.source.small, z0, s, n_pair.small, q):
            raise PreconditionFailed("restricted_map_transverse_to_z0")

    report = {"checks": [], "passed": True}

    def record(name, ok, evidence=None):
        report["checks"].append({"name": name, "passed": bool(ok), "evidence": evidence})
        report["passed"] = report["passed"] and bool(ok)

    bases = {}  # base point bytes -> _boundary_facts there

    for i, p in enumerate(samples):
        image = dnc_map(fp, p)
        if p.kind == "interior":
            lhs = dnc_membership(n_pair, zpair, image, tol)
            rhs = lhs and fp.source.big.contains(p.point)  # f(p) on Z is the image side's decision
            if lhs:
                ok = is_transversal_nonlinear(fp.f, fp.source.big, z, p.point, n_pair.big, image.point)
                record(f"interior_transversality[{i}]", ok)
        else:
            key = p.point.tobytes()
            if key not in bases:
                bases[key] = _boundary_facts(fp, zpair, p.point)
            image_fiber, preimage_fiber, block = bases[key]
            lhs = _in_span(image.normal, image_fiber, tol)
            rhs = _in_span(p.normal, preimage_fiber, tol)
            if block is not None:
                record(f"boundary_block_transversality[{i}]", block)
        record(f"membership_equivalence[{i}]", lhs == rhs, {"image_side": lhs, "preimage_side": rhs})

    return report
