"""Deformation spaces and tangent groupoids as concrete point sets.

A deformation-space point is either an interior point (manifold point with a
nonzero scalar fiber coordinate) or a boundary point (submanifold point with
a normal vector).  The smooth structure lives in the rescaled tubular
charts; all smoothness claims are exercised through chart-conjugated maps
and the linear decay of their Taylor remainders as the fiber coordinate
shrinks to zero.  Charts are inverted by Newton steps with the exact
Jacobian of their residual, built from the chart's ``dphi`` and the ``hvp``
of the pair's constraint maps, so no finite difference enters a remainder.
Every membership is decided at ``ON_MANIFOLD_TOL`` (1e-8), once per point,
where the point enters: a boundary base point is projected onto the source
submanifold before it is mapped.  ``tol`` bounds normal-vector residuals only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DomainError,
    FiberMismatch,
    NoConvergence,
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
    newton_project,
    normal_frame,
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

    def to_json(self) -> dict:
        out = {"kind": self.kind, "point": list(self.point), "lambda": self.lam}
        if self.normal is not None:
            out["normal"] = list(self.normal)
        return out

    @staticmethod
    def from_json(obj: dict) -> "DncPoint":
        if obj["kind"] == "interior":
            return DncPoint.interior(obj["point"], obj["lambda"])
        return DncPoint.boundary(obj["point"], obj["normal"])


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

    def to_json(self) -> dict:
        if self.kind == "pair":
            return {"kind": "pair", "target": list(self.a), "source": list(self.b), "lambda": self.lam}
        return {"kind": "tangent", "point": list(self.a), "vector": list(self.b), "lambda": 0.0}


# -- charts -------------------------------------------------------------------


def dnc_chart(tub: TubularMap, m, x, t: float) -> DncPoint:
    """Rescaled tubular chart: (base, normal, t) -> deformation-space point."""
    x = np.asarray(x, dtype=float)
    if abs(t) * float(np.linalg.norm(x)) > tub.valid_radius:
        raise RadiusExceeded(f"|t X| = {abs(t) * np.linalg.norm(x):.3e} beyond chart radius")
    if t == 0.0:
        return DncPoint.boundary(m, x)
    return DncPoint.interior(tub(m, t * x), t)


def _chart_residual(tub: TubularMap, q, z):
    """The residual R(p, eta) = (g0(p), phi(p, y) - q) of chart inversion at
    z = (p, eta), the normal vector y it uses, and a function returning the
    exact Jacobian of R at z.

    y = P A^T eta is a constraint-gradient combination (A = Dg0(p)) projected
    onto the big tangent space by P = I - B^T M B (B = Dg_big(p),
    M = (B B^T)^+).  With w = A^T eta and dB = hvp_big(p, e_k), column k of
    the p-block is (A e_k, phi_p e_k + phi_y (P hvp0(p, e_k)^T eta
    - P dB^T M B w - B^T M dB P w)), and the eta-block is (0, phi_y P A^T).
    """
    co0, cob = tub.pair.small.constraints, tub.pair.big.constraints
    n = tub.pair.small.ambient_dim
    p, eta = z[:n], z[n:]
    a, b = co0.jacobian(p), cob.jacobian(p)
    w = a.T @ eta
    y = w
    if b.shape[0]:
        mbw = linalg.min_norm_lstsq(b @ b.T, b @ w)
        y = w - b.T @ mbw
    r = np.concatenate([co0(p), tub.phi(p, y) - q])

    def jacobian():
        phi_p, phi_y = tub.dphi(p, y)
        eye = np.eye(n)
        dy = np.column_stack([np.atleast_2d(co0.hvp(p, e)).T @ eta for e in eye])
        p_at = a.T
        if b.shape[0]:
            db = [np.atleast_2d(cob.hvp(p, e)) for e in eye]
            u = dy - np.column_stack([d.T @ mbw for d in db])
            v = np.column_stack([d @ y for d in db])
            # P u - B^T M v = u - B^T M (B u + v), and P A^T likewise
            sol = linalg.min_norm_lstsq(b @ b.T, np.hstack([b @ u + v, b @ a.T]))
            dy = u - b.T @ sol[:, :n]
            p_at = a.T - b.T @ sol[:, n:]
        top = np.hstack([a, np.zeros((a.shape[0], eta.size))])
        return np.vstack([top, np.hstack([phi_p + phi_y @ dy, phi_y @ p_at])])

    return r, y, jacobian


def _tubular_inverse(tub: TubularMap, q):
    """Solve phi(p, Y) = q for a base point p and a normal vector Y at p, by
    at most 60 Newton steps on :func:`_chart_residual` with its exact
    Jacobian, to a residual of 1e-11.  Both constraint maps of the pair must
    carry ``hvp``."""
    small = tub.pair.small
    for co in (small.constraints, tub.pair.big.constraints):
        if co.hvp is None:
            raise DomainError(f"{co.name or 'constraint map'}: chart inversion needs its hvp")
    q = np.asarray(q, dtype=float)
    try:
        p0 = newton_project(small, q)
    except NoConvergence as exc:
        raise OutsideChart(f"no base point near {q}") from exc
    z = np.concatenate([p0, np.zeros(small.ambient_dim - small.dim)])
    for _ in range(60):
        r, y, jacobian = _chart_residual(tub, q, z)
        if np.max(np.abs(r), initial=0.0) <= 1e-11:
            return z[: small.ambient_dim], y
        z = z + linalg.min_norm_lstsq(jacobian(), -r)
        if not np.all(np.isfinite(z)):
            raise OutsideChart("tubular inversion diverged")
    raise OutsideChart(f"tubular inversion did not converge near {q}")


def dnc_chart_inverse(tub: TubularMap, p: DncPoint):
    """Left/right inverse of the rescaled chart: point -> (base, normal, t),
    with the recovered chart point within 1e-9 of the given one."""
    if p.kind == "boundary":
        return p.point, p.normal, 0.0
    base, y = _tubular_inverse(tub, p.point)
    if np.linalg.norm(y) > tub.valid_radius * (1 + 1e-9):
        raise OutsideChart("recovered normal vector beyond the chart radius")
    if np.max(np.abs(tub(base, y) - p.point), initial=0.0) > 1e-9:
        raise OutsideChart("chart inversion residual above tolerance")
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
    :func:`dnc_chart_inverse`, so every point passes both charts' radius
    checks and the inverse's residual check.

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


def _in_span(v, basis, tol) -> bool:
    q = linalg.orthonormalize(basis)
    resid = v - q @ (q.T @ v) if q.size else v
    return float(np.linalg.norm(resid)) <= tol * (1.0 + float(np.linalg.norm(v)))


def _normal_in_fiber(pair: ManifoldPair, m, normal, tangent: np.ndarray, tol: float) -> bool:
    """Does ``normal`` lie in the normal projection at m of the span of ``tangent``?"""
    nu = normal_frame(pair, m)
    return _in_span(normal, nu @ (nu.T @ tangent), tol)


def dnc_membership(pair: ManifoldPair, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point of D(pair) in the deformation subspace attached to (Z, Z0)?

    Interior points: on Z.  Boundary points: base on the pair (Z, Z0) and
    normal vector in the image of the Z-tangent inside the normal space
    representatives, to the residual ``tol``.  Both memberships are decided
    at ``ON_MANIFOLD_TOL``.  T Z at a point of Z0 is the pair's adapted
    frame there, stacked.
    """
    if p.kind == "interior":
        return zpair.big.contains(p.point)
    if not zpair.contains(p.point):
        return False
    return _normal_in_fiber(pair, p.point, p.normal, np.hstack(zpair.adapted_frame(p.point)), tol)


def _preimage_boundary(fp: PairMap, zpair: ManifoldPair, m, q, normal, tol: float) -> bool:
    """Preimage membership of a boundary point at the accepted base point m
    with image q = f(m).  T f^-1(Z) at m: the source-tangent vectors whose
    image under Df lands in T Z at q, the adapted frame of (Z, Z0) there,
    stacked into the orthonormal t_z (so t_z t_z^T projects onto T Z)."""
    if not zpair.contains(q):
        return False
    t_z = np.hstack(zpair.adapted_frame(q))
    t_m = np.hstack(fp.source.adapted_frame(m))
    imgs = fp.f.jacobian(m) @ t_m
    off = imgs - t_z @ (t_z.T @ imgs)
    return _normal_in_fiber(fp.source, m, normal, t_m @ linalg.nullspace(off), tol)


def preimage_membership(fp: PairMap, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point in the deformation subspace attached to
    (f^-1 Z, f0^-1 Z0)?  Tolerances as in :func:`dnc_membership`; a boundary
    base point is accepted onto the source pair before it is mapped."""
    if p.kind == "interior":
        return fp.source.big.contains(p.point) and zpair.big.contains(fp.f(p.point))
    if not fp.source.contains(p.point):
        return False
    m = fp.source.accept(p.point)
    return _preimage_boundary(fp, zpair, m, fp.f(m), p.normal, tol)


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

    for i, p in enumerate(samples):
        image = dnc_map(fp, p)
        q = image.point
        lhs = dnc_membership(n_pair, zpair, image, tol)
        if p.kind == "interior":
            rhs = lhs and fp.source.big.contains(p.point)  # f(p) on Z is the image side's decision
            if lhs:
                ok = is_transversal_nonlinear(fp.f, fp.source.big, z, p.point, n_pair.big, q)
                record(f"interior_transversality[{i}]", ok)
        else:
            m = fp.source.accept(p.point)
            rhs = _preimage_boundary(fp, zpair, m, q, p.normal, tol)
            if zpair.contains(q):
                t_in, nu_in = fp.source.adapted_frame(m)
                t_out, nu_out = n_pair.adapted_frame(q)
                r_out, d_out = nu_out.shape[1], t_out.shape[1]
                # adapted block matrix [nu_out t_out]^T Df [nu_in t_in], extended
                # by the scalar fiber direction
                blk = np.zeros((r_out + d_out + 1, nu_in.shape[1] + t_in.shape[1] + 1))
                blk[:-1, :-1] = np.hstack([nu_out, t_out]).T @ fp.f.jacobian(m) @ np.hstack([nu_in, t_in])
                blk[-1, -1] = 1.0
                # target trace tangent: fiber directions of Z, base of Z0, fiber axis
                t_z0, nu_z = zpair.adapted_frame(q)
                k = t_z0.shape[1] + nu_z.shape[1]
                v = np.zeros((r_out + d_out + 1, k + t_z0.shape[1] + 1))
                v[:r_out, :k] = nu_out.T @ np.hstack([t_z0, nu_z])
                v[r_out:-1, k:-1] = t_out.T @ t_z0
                v[-1, -1] = 1.0
                ok = linalg.rank(np.hstack([blk, v])) == r_out + d_out + 1
                record(f"boundary_block_transversality[{i}]", ok)
        record(f"membership_equivalence[{i}]", lhs == rhs, {"image_side": lhs, "preimage_side": rhs})

    return report
