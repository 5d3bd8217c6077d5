"""Deformation spaces and tangent groupoids as concrete point sets.

A deformation-space point is either an interior point (manifold point with a
nonzero scalar fiber coordinate) or a boundary point (submanifold point with
a normal vector).  The smooth structure lives in the rescaled tubular
charts; all smoothness claims are exercised through chart-conjugated maps
and the linear decay of their Taylor remainders as the fiber coordinate
shrinks to zero.
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
    ImplicitManifold,
    ManifoldPair,
    PairMap,
    SmoothMap,
    TubularMap,
    newton_project,
    normal_frame,
    normal_map_pushforward,
    numeric_jacobian,
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

    @property
    def base(self) -> np.ndarray:
        return self.a

    @property
    def vector(self) -> np.ndarray:
        return self.b  # tangent elements store the velocity in the second slot

    def to_json(self) -> dict:
        if self.kind == "pair":
            return {"kind": "pair", "target": list(self.a), "source": list(self.b), "lambda": self.lam}
        return {"kind": "tangent", "point": list(self.a), "vector": list(self.b), "lambda": 0.0}


# -- charts -------------------------------------------------------------------


def dnc_chart(tub: TubularMap, m, x, t: float) -> DncPoint:
    """Rescaled tubular chart: (base, normal, t) -> deformation-space point."""
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    if abs(t) * float(np.linalg.norm(x)) > tub.valid_radius:
        raise RadiusExceeded(f"|t X| = {abs(t) * np.linalg.norm(x):.3e} beyond chart radius")
    if t == 0.0:
        return DncPoint.boundary(m, x)
    return DncPoint.interior(tub(m, t * x), t)


def _tubular_inverse(tub: TubularMap, q, tol: float = 1e-11, max_iter: int = 60):
    """Solve phi(p, Y) = q for a base point p and a normal vector Y at p."""
    pair = tub.pair
    small, big = pair.small, pair.big
    q = np.asarray(q, dtype=float)
    try:
        p0 = newton_project(small, q)
    except NoConvergence as exc:
        raise OutsideChart(f"no base point near {q}") from exc
    co0 = small.constraints
    d0 = small.ambient_dim - small.dim

    def normal_from(p, eta):
        # normal representative: constraint-gradient combination projected
        # into the big tangent space
        y = co0.jacobian(p).T @ eta
        jb = big.constraints.jacobian(p)
        if jb.shape[0]:
            y = y - jb.T @ linalg.min_norm_lstsq(jb @ jb.T, jb @ y)
        return y

    def residual(z):
        p, eta = z[: small.ambient_dim], z[small.ambient_dim :]
        y = normal_from(p, eta)
        return np.concatenate([co0(p), tub.phi(p, y) - q])

    z = np.concatenate([p0, np.zeros(d0)])
    for _ in range(max_iter):
        r = residual(z)
        if np.max(np.abs(r), initial=0.0) <= tol:
            break
        step = linalg.min_norm_lstsq(numeric_jacobian(residual, z, 1e-7), -r)
        z = z + step
        if not np.all(np.isfinite(z)):
            raise OutsideChart("tubular inversion diverged")
    else:
        raise OutsideChart(f"tubular inversion did not converge near {q}")
    p, eta = z[: small.ambient_dim], z[small.ambient_dim :]
    return p, normal_from(p, eta)


def dnc_chart_inverse(tub: TubularMap, p: DncPoint, tol: float = 1e-9):
    """Left/right inverse of the rescaled chart: point -> (base, normal, t)."""
    if p.kind == "boundary":
        return p.point, p.normal, 0.0
    base, y = _tubular_inverse(tub, p.point)
    if np.linalg.norm(y) > tub.valid_radius * (1 + 1e-9):
        raise OutsideChart("recovered normal vector beyond the chart radius")
    if np.max(np.abs(tub(base, y) - p.point), initial=0.0) > tol:
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


def dnc_vspace_iso(e0_dim: int, p: DncPoint, tol: float = 1e-12) -> tuple[np.ndarray, float]:
    """For a linear pair (coordinate space, leading-coordinate subspace):
    the global trivialization (e' + v, t) -> (e' + v/t, t), boundary by
    (e', v) -> (e' + v, 0).  Exact, with an exact inverse."""
    if p.kind == "interior":
        w = p.point.copy()
        w[e0_dim:] = w[e0_dim:] / p.lam
        return w, p.lam
    if np.max(np.abs(p.point[e0_dim:]), initial=0.0) > tol:
        raise DomainError("boundary base point leaves the linear subspace")
    if np.max(np.abs(p.normal[:e0_dim]), initial=0.0) > tol:
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
    """Split an element over a product with a coordinate space into an
    element over the base and a (base vector, fiber vector) pair; linear on
    fibers and exactly invertible."""
    if a.kind == "pair":
        m, u = a.a[:-k], a.a[-k:]
        m2, u2 = a.b[:-k], a.b[-k:]
        return TangentGroupoidElement.pair(m, m2, a.lam), (u, (u - u2) / a.lam)
    m, u = a.a[:-k], a.a[-k:]
    vm, vu = a.b[:-k], a.b[-k:]
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

    The smooth-gluing contract is r(t) <= C t; suites fit the log-log slope
    over a halving sequence and require at least 0.9.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    _, v_star = normal_map_pushforward(fp, m, x)
    out = []
    for t in t_list:
        if abs(t) * np.linalg.norm(x) > tub1.valid_radius:
            raise RadiusExceeded(f"t = {t} pushes the normal vector beyond the chart radius")
        z = fp.f(tub1(m, t * x))
        _, y = _tubular_inverse(tub2, z)
        out.append(float(np.linalg.norm(y / t - v_star)))
    return out


# -- transversality through the functor ------------------------------------------------


def _preimage_tangent(fp: PairMap, z: ImplicitManifold, m, rtol=None) -> np.ndarray:
    """Tangent basis of f^-1(Z) at m: ambient-tangent vectors of the source
    whose image under Df lands in the tangent of Z."""
    t_m = fp.source.big.tangent_basis(m, rtol)
    j = fp.f.jacobian(m)
    fx = z.require(fp.f(m))
    t_z = z.tangent_basis(fx, rtol)
    q = linalg.orthonormalize(t_z)
    imgs = j @ t_m
    off = imgs - q @ (q.T @ imgs) if q.size else imgs
    coeff = linalg.nullspace(off, rtol)
    return t_m @ coeff


def _in_span(vec, basis, tol) -> bool:
    v = np.asarray(vec, dtype=float)
    q = linalg.orthonormalize(basis)
    resid = v - q @ (q.T @ v) if q.size else v
    return float(np.linalg.norm(resid)) <= tol * (1.0 + float(np.linalg.norm(v)))


def dnc_membership(fp_or_pair, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point in the deformation subspace attached to (Z, Z0)?

    Interior points: on Z.  Boundary points: base on Z0 and normal vector in
    the image of the Z-tangent inside the normal space representatives.
    """
    pair = fp_or_pair.target if isinstance(fp_or_pair, PairMap) else fp_or_pair
    z, z0 = zpair.big, zpair.small
    if p.kind == "interior":
        return z.contains(p.point, tol)
    if not z0.contains(p.point, tol):
        return False
    nu = normal_frame(pair, p.point)
    t_z = z.tangent_basis(p.point)
    fiber = nu @ (nu.T @ t_z)
    return _in_span(p.normal, fiber, tol)


def preimage_membership(fp: PairMap, zpair: ManifoldPair, p: DncPoint, tol: float = 1e-7) -> bool:
    """Is the point in the deformation subspace attached to
    (f^-1 Z, f0^-1 Z0)?"""
    z, z0 = zpair.big, zpair.small
    if p.kind == "interior":
        return fp.source.big.contains(p.point, tol) and z.contains(fp.f(p.point), tol)
    if not fp.source.small.contains(p.point, tol):
        return False
    if not z0.contains(fp.f(p.point), tol):
        return False
    t_pre = _preimage_tangent(fp, z, p.point)
    nu = normal_frame(fp.source, p.point)
    fiber = nu @ (nu.T @ t_pre)
    return _in_span(p.normal, fiber, tol)


def dnc_transversality_check(
    fp: PairMap,
    zpair: ManifoldPair,
    samples: list[DncPoint],
    tol: float = 1e-7,
    rtol: float | None = None,
) -> dict:
    """Transversality of the induced deformation-space map to the deformation
    subspace of (Z, Z0), exercised on sampled points.

    Hypotheses (Z transverse to the target submanifold; the map and its
    restriction transverse to Z and Z0) are verified first and a failure
    raises PreconditionFailed naming the hypothesis.  Interior samples get
    the nonlinear rank test; boundary samples get the lower-triangular block
    rank test in adapted frames; membership equivalence is checked in both
    directions through the functor.
    """
    z, z0 = zpair.big, zpair.small
    n_pair = fp.target

    # hypothesis: Z transverse to the target submanifold
    for s in z0.samples:
        t_z = z.tangent_basis(s, rtol)
        t_n0 = n_pair.small.tangent_basis(s, rtol)
        if linalg.rank(np.hstack([t_z, t_n0]), rtol) != n_pair.big.dim:
            raise PreconditionFailed("z_transverse_to_target_submanifold")

    # hypothesis: the map transverse to Z (on big-manifold samples landing in Z)
    for s in fp.source.big.samples:
        fx = fp.f(s)
        if z.contains(fx, tol):
            a = fp.f.jacobian(s) @ fp.source.big.tangent_basis(s, rtol)
            b = z.tangent_basis(fx, rtol)
            if linalg.rank(np.hstack([a, b]), rtol) != n_pair.big.dim:
                raise PreconditionFailed("map_transverse_to_z")

    # hypothesis: restricted map transverse to Z0 (on submanifold samples landing in Z0)
    for s in fp.source.small.samples:
        fx = fp.f(s)
        if z0.contains(fx, tol):
            a = fp.f.jacobian(s) @ fp.source.small.tangent_basis(s, rtol)
            b = z0.tangent_basis(fx, rtol)
            if linalg.rank(np.hstack([a, b]), rtol) != n_pair.small.dim:
                raise PreconditionFailed("restricted_map_transverse_to_z0")

    report = {"checks": [], "passed": True}

    def record(name, ok, evidence=None):
        report["checks"].append({"name": name, "passed": bool(ok), "evidence": evidence})
        report["passed"] = report["passed"] and bool(ok)

    for i, p in enumerate(samples):
        if p.kind == "interior":
            if z.contains(fp.f(p.point), tol):
                a = fp.f.jacobian(p.point) @ fp.source.big.tangent_basis(p.point, rtol)
                b = z.tangent_basis(fp.f(p.point), rtol)
                ok = linalg.rank(np.hstack([a, b]), rtol) == n_pair.big.dim
                record(f"interior_transversality[{i}]", ok)
        else:
            if not z0.contains(fp.f(p.point), tol):
                continue
            m = p.point
            q = fp.f(m)
            t_in, nu_in = fp.source.adapted_frame(m, rtol)
            t_out, nu_out = n_pair.adapted_frame(q, rtol)
            j = fp.f.jacobian(m)
            r_out, d_out = nu_out.shape[1], t_out.shape[1]
            # adapted block matrix extended by the scalar fiber direction
            blk = np.zeros((r_out + d_out + 1, nu_in.shape[1] + t_in.shape[1] + 1))
            blk[:r_out, : nu_in.shape[1]] = nu_out.T @ (j @ nu_in)
            blk[r_out : r_out + d_out, : nu_in.shape[1]] = t_out.T @ (j @ nu_in)
            blk[:r_out, nu_in.shape[1] : -1] = nu_out.T @ (j @ t_in)
            blk[r_out : r_out + d_out, nu_in.shape[1] : -1] = t_out.T @ (j @ t_in)
            blk[-1, -1] = 1.0
            # target trace tangent: fiber directions of Z, base of Z0, fiber axis
            t_z = z.tangent_basis(q, rtol)
            fiber_dirs = nu_out.T @ t_z
            base_dirs = t_out.T @ z0.tangent_basis(q, rtol)
            v = np.zeros((r_out + d_out + 1, fiber_dirs.shape[1] + base_dirs.shape[1] + 1))
            v[:r_out, : fiber_dirs.shape[1]] = fiber_dirs
            v[r_out : r_out + d_out, fiber_dirs.shape[1] : -1] = base_dirs
            v[-1, -1] = 1.0
            ok = linalg.rank(np.hstack([blk, v]), rtol) == r_out + d_out + 1
            record(f"boundary_block_transversality[{i}]", ok)

        lhs = dnc_membership(fp, zpair, dnc_map(fp, p), tol)
        rhs = preimage_membership(fp, zpair, p, tol)
        record(f"membership_equivalence[{i}]", lhs == rhs, {"image_side": lhs, "preimage_side": rhs})

    return report
