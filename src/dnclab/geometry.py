"""Finite-dimensional embedded manifolds with verified numerical calculus.

Manifolds are zero sets of constraint maps with full-rank Jacobians at
stored sample points; tangent spaces are constraint-Jacobian kernels, and
normal bundles of submanifold pairs are realized by orthogonal complement
representatives inside the bigger tangent space.

Derivatives are exact wherever a map supplies them: a :class:`SmoothMap`
may carry its Jacobian (``jac``) and the derivative of its Jacobian along a
vector (``hvp``), and maps built from other maps (compositions, stacks, the
tangent and tangent-groupoid lifts) propagate both by the chain rule.
Central differences with an O(h^2) error contract are the verifier of those
exact derivatives (:func:`verify_analytic_jacobian`,
``SmoothMap.jacobian(check=True)``) and the fallback for maps that supply
none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import DomainError, NoConvergence, OffManifold, RadiusExceeded

__all__ = [
    "SmoothMap",
    "ImplicitManifold",
    "ManifoldPair",
    "TubularMap",
    "PairMap",
    "central_difference",
    "numeric_jacobian",
    "jacobian_consistency_slope",
    "verify_analytic_jacobian",
    "newton_project",
    "tangent_space",
    "normal_frame",
    "normal_map_pushforward",
    "check_block_structure",
    "is_transversal_nonlinear",
    "compose_maps",
    "linear_map",
]

ON_MANIFOLD_TOL = 1e-8


def default_step(x: np.ndarray) -> float:
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def central_difference(fn: Callable, x, v, h: float) -> np.ndarray:
    """(fn(x + h v) - fn(x - h v)) / 2h: the derivative of ``fn`` at ``x``
    along ``v`` to O(h^2).  Every finite difference in the package is this
    quotient."""
    hv = h * v
    return (np.asarray(fn(x + hv), float) - np.asarray(fn(x - hv), float)) / (2 * h)


def numeric_jacobian(fn: Callable, x, h: float | None = None, richardson: bool = False) -> np.ndarray:
    """Central-difference Jacobian, O(h^2); Richardson extrapolation on demand."""
    x = np.asarray(x, dtype=float)
    if h is not None and h <= 0:
        raise DomainError("differentiation step must be positive")
    h = h or default_step(x)

    def central(step):
        return np.column_stack([central_difference(fn, x, e, step) for e in np.eye(x.size)])

    if not richardson:
        return central(h)
    j1, j2 = central(h), central(h / 2)
    return (4.0 * j2 - j1) / 3.0


@dataclass
class SmoothMap:
    """A C^2 map contract between coordinate spaces, with an optional
    analytic Jacobian that is validated against finite differences.

    ``hvp(x, v)``, when supplied, is the codomain x domain Jacobian of
    ``x -> Dfn(x) v``: the second derivative contracted with ``v``.  Lifts
    that differentiate the map once more (tangent and divided-difference
    constraints) need it for an exact Jacobian of their own.
    """

    domain_dim: int
    codomain_dim: int
    fn: Callable
    jac: Callable | None = None
    name: str = ""
    hvp: Callable | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size != self.domain_dim:
            raise DomainError(f"{self.name or 'map'}: expected {self.domain_dim} coordinates")
        y = np.asarray(self.fn(x), dtype=float).ravel()
        if y.size != self.codomain_dim:
            raise DomainError(f"{self.name or 'map'}: produced {y.size} coordinates")
        return y

    def jacobian(self, x, h: float | None = None, richardson: bool = False, check: bool = False) -> np.ndarray:
        if self.jac is not None:
            j = np.atleast_2d(np.asarray(self.jac(np.asarray(x, float)), dtype=float))
            if check:
                fd = numeric_jacobian(self.fn, x, h, richardson=True)
                scale = 1.0 + float(np.max(np.abs(j)))
                if np.max(np.abs(fd - j)) > 1e-4 * scale:
                    raise DomainError(
                        f"{self.name or 'map'}: analytic jacobian disagrees with finite differences"
                    )
            return j
        return numeric_jacobian(self.fn, x, h, richardson)

    def numeric_jacobian(self, x, h: float | None = None, richardson: bool = False) -> np.ndarray:
        return numeric_jacobian(self.fn, x, h, richardson)


def compose_maps(g: SmoothMap, f: SmoothMap, name: str = "") -> SmoothMap:
    """g ∘ f, with the chain-rule Jacobian (and second derivative along a
    vector) whenever both factors carry theirs."""
    if f.codomain_dim != g.domain_dim:
        raise DomainError("composition dimensions do not match")
    jac = hvp = None
    if f.jac is not None and g.jac is not None:
        jac = lambda x: np.atleast_2d(g.jac(f(x))) @ np.atleast_2d(f.jac(x))
        if f.hvp is not None and g.hvp is not None:

            def hvp(x, v):
                y, jf = f(x), np.atleast_2d(f.jac(x))
                outer = np.atleast_2d(g.hvp(y, jf @ v)) @ jf
                return outer + np.atleast_2d(g.jac(y)) @ np.atleast_2d(f.hvp(x, v))

    name = name or f"{g.name}∘{f.name}"
    return SmoothMap(f.domain_dim, g.codomain_dim, lambda x: g(f(x)), jac, name, hvp)


def linear_map(a, name: str = "") -> SmoothMap:
    """x -> a x, with its constant Jacobian and vanishing second derivative."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    zero = np.zeros(a.shape)
    return SmoothMap(a.shape[1], a.shape[0], lambda x: a @ x, lambda x: a, name, lambda x, v: zero)


def _fd_errors(f: SmoothMap, x, h0: float, points: int):
    """The analytic Jacobian of ``f`` at ``x``, a halving step sequence from
    ``h0``, and the largest finite-difference error against the Jacobian at
    each step."""
    if f.jac is None:
        raise DomainError("map carries no analytic jacobian to compare against")
    exact = np.atleast_2d(np.asarray(f.jac(np.asarray(x, float)), dtype=float))
    hs = h0 * 0.5 ** np.arange(points)
    errs = np.asarray([np.max(np.abs(numeric_jacobian(f.fn, x, h) - exact)) for h in hs])
    return exact, hs, errs


def jacobian_consistency_slope(f: SmoothMap, x, h0: float = 0.1, points: int = 10) -> float:
    """Log-log slope of the finite-difference error against the analytic
    Jacobian over a halving step sequence; O(h^2) convergence means >= 1.9."""
    _, hs, errs = _fd_errors(f, x, h0, points)
    return linalg.loglog_slope(hs, errs)


def verify_analytic_jacobian(f: SmoothMap, x, h0: float = 0.1, points: int = 10, floor: float = 1e-9) -> bool:
    """Accept the supplied analytic Jacobian when the finite-difference error
    either decays at second order or sits at rounding level throughout (maps
    with vanishing third derivatives have no truncation error to fit)."""
    exact, hs, errs = _fd_errors(f, x, h0, points)
    if np.all(errs <= floor * (1.0 + float(np.max(np.abs(exact))))):
        return True
    return linalg.loglog_slope(hs, errs) >= 1.9


@dataclass
class ImplicitManifold:
    """Zero set of a constraint map, with on-manifold seed points.

    ``constraints`` maps the ambient space to at least ambient_dim - dim
    coordinates and must have Jacobian rank exactly ambient_dim - dim at the
    samples.  ``region`` optionally restricts to an open subset;
    ``projector`` optionally supplies an exact closest-point map used for
    distance computations.
    """

    name: str
    ambient_dim: int
    dim: int
    constraints: SmoothMap
    samples: list = field(default_factory=list)
    region: Callable | None = None
    projector: Callable | None = None

    def __post_init__(self):
        self.samples = [np.asarray(s, dtype=float) for s in self.samples]

    def constraint_norm(self, x) -> float:
        return float(np.max(np.abs(self.constraints(x)), initial=0.0))

    def contains(self, x, tol: float = ON_MANIFOLD_TOL) -> bool:
        inside = self.region(np.asarray(x, float)) if self.region is not None else True
        return bool(inside) and self.constraint_norm(x) <= tol

    def require(self, x, tol: float = ON_MANIFOLD_TOL) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.contains(x, tol):
            raise OffManifold(f"point not on {self.name} (constraint norm {self.constraint_norm(x):.3e})")
        return x

    def validate(self, tol: float = 1e-9, rtol: float | None = None) -> dict:
        """Invariant check at every sample: constraints vanish and the
        constraint Jacobian has full rank ambient_dim - dim."""
        codim = self.ambient_dim - self.dim
        records = []
        for s in self.samples:
            j = self.constraints.jacobian(s)
            records.append(
                {
                    "constraint_norm": self.constraint_norm(s),
                    "jacobian_rank": linalg.rank(j, rtol),
                }
            )
        ok = all(r["constraint_norm"] <= tol and r["jacobian_rank"] == codim for r in records)
        return {"passed": ok, "codim": codim, "samples": records}

    def tangent_basis(self, x, rtol: float | None = None) -> np.ndarray:
        """Orthonormal basis (columns) of the tangent space at x."""
        x = self.require(x)
        basis = linalg.nullspace(self.constraints.jacobian(x), rtol)
        if basis.shape[1] != self.dim:
            raise OffManifold(
                f"tangent dimension {basis.shape[1]} != {self.dim} on {self.name} (degenerate Jacobian)"
            )
        return basis

    def distance_to(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.projector is not None:
            return float(np.linalg.norm(x - np.asarray(self.projector(x), float)))
        y = newton_project(self, x)
        return float(np.linalg.norm(x - y))


def tangent_space(manifold: ImplicitManifold, x, rtol: float | None = None) -> np.ndarray:
    return manifold.tangent_basis(x, rtol)


def newton_project(manifold: ImplicitManifold, x0, tol: float = 1e-10, max_iter: int = 50) -> np.ndarray:
    """Gauss-Newton projection onto the constraint zero set."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(max_iter):
        g = manifold.constraints(x)
        if np.max(np.abs(g), initial=0.0) <= tol:
            return x
        j = manifold.constraints.jacobian(x)
        step = linalg.min_norm_lstsq(j, -g)
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) < 1e-16:
            break
        x = x + step
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > 1e8:
            break
    raise NoConvergence(f"projection onto {manifold.name} did not converge from {np.asarray(x0)}")


@dataclass
class ManifoldPair:
    """A manifold with a closed embedded submanifold, in one ambient space."""

    big: ImplicitManifold
    small: ImplicitManifold

    def __post_init__(self):
        if self.big.ambient_dim != self.small.ambient_dim:
            raise DomainError("pair members live in different ambient spaces")

    def validate(self, tol: float = 1e-9) -> dict:
        inner = all(self.big.contains(s, tol=ON_MANIFOLD_TOL) for s in self.small.samples)
        return {
            "passed": inner and self.big.validate(tol)["passed"] and self.small.validate(tol)["passed"],
            "small_inside_big": inner,
        }

    def adapted_frame(self, m, rtol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(tangent frame of the submanifold, normal complement inside the
        big tangent space) at a submanifold point, both orthonormal."""
        t_small = self.small.tangent_basis(m, rtol)
        t_big = self.big.tangent_basis(m, rtol)
        nu = linalg.complement_within(t_small, t_big)
        if nu.shape[1] != self.big.dim - self.small.dim:
            raise OffManifold("normal complement has wrong dimension")
        return t_small, nu


def normal_frame(pair: ManifoldPair, m, rtol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the normal space (quotient representatives) at m."""
    return pair.adapted_frame(m, rtol)[1]


@dataclass
class TubularMap:
    """Tubular neighborhood chart: (base point, normal vector) -> manifold
    point, a diffeomorphism near the zero section within ``valid_radius``."""

    pair: ManifoldPair
    phi: Callable
    valid_radius: float

    def __call__(self, m, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) > self.valid_radius + 1e-12:
            raise RadiusExceeded(
                f"normal vector norm {np.linalg.norm(x):.3e} exceeds radius {self.valid_radius}"
            )
        return np.asarray(self.phi(np.asarray(m, float), x), dtype=float)

    def verify(self, n_radial: int = 3, tol_identity: float = 1e-6, tol_image: float = 1e-8) -> dict:
        """Zero-section fixing, identity normal differential, image containment."""
        records = []
        for m in self.pair.small.samples:
            _, nu = self.pair.adapted_frame(m)
            zero = np.zeros(self.pair.big.ambient_dim)
            zero_fix = float(np.max(np.abs(self(m, zero) - m)))
            h = 1e-6 * (1 + float(np.linalg.norm(m)))
            d_err = 0.0
            for i in range(nu.shape[1]):
                d = central_difference(lambda x: self(m, x), zero, nu[:, i], h)
                d_err = max(d_err, float(np.max(np.abs(d - nu[:, i]))))
            img_err = 0.0
            for r in np.linspace(0.25, 1.0, n_radial) * self.valid_radius:
                for i in range(nu.shape[1]):
                    img_err = max(img_err, self.pair.big.constraint_norm(self(m, r * nu[:, i])))
            records.append({"zero_fix": zero_fix, "normal_differential": d_err, "image": img_err})
        ok = all(
            r["zero_fix"] == 0.0 and r["normal_differential"] <= tol_identity and r["image"] <= tol_image
            for r in records
        )
        return {"passed": ok, "samples": records}


@dataclass
class PairMap:
    """Smooth map of pairs: sends the big manifold into the big target and
    the submanifold into the target submanifold."""

    f: SmoothMap
    source: ManifoldPair
    target: ManifoldPair

    def __call__(self, x) -> np.ndarray:
        return self.f(x)

    def verify(self, tol: float = ON_MANIFOLD_TOL) -> dict:
        small_ok = [self.target.small.constraint_norm(self.f(s)) for s in self.source.small.samples]
        big_ok = [self.target.big.constraint_norm(self.f(s)) for s in self.source.big.samples]
        passed = all(v <= tol for v in small_ok) and all(v <= tol for v in big_ok)
        return {"passed": passed, "small_residuals": small_ok, "big_residuals": big_ok}


def normal_map_pushforward(fp: PairMap, m, x, h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(f(m), image normal vector): the differential applied to a normal
    representative, projected along the target submanifold tangent onto the
    target normal frame."""
    m = fp.source.small.require(m)
    x = np.asarray(x, dtype=float)
    _, nu = fp.source.adapted_frame(m)
    coords = nu.T @ x
    if np.linalg.norm(x - nu @ coords) > 1e-8 * (1 + np.linalg.norm(x)):
        raise OffManifold("vector does not lie in the normal frame span")
    q = fp.target.small.require(fp.f(m))
    v = fp.f.jacobian(m, h) @ x
    nu_t = normal_frame(fp.target, q)
    return q, nu_t @ (nu_t.T @ v)


def check_block_structure(fp: PairMap, m, h: float | None = None) -> float:
    """Triangularity defect of the induced normal-bundle morphism.

    In coordinates adapted to (normal, tangent-of-submanifold) at input and
    output, the pair structure forces the normal-output response to tangent
    inputs to vanish.  The returned residual is the max-norm of that block of
    the central-difference Jacobian; it decays at O(h^2) for curved fixtures
    and sits at rounding level for linear ones.
    """
    m = fp.source.small.require(m)
    q = fp.target.small.require(fp.f(m))  # precondition: maps pairs to pairs
    j = fp.f.numeric_jacobian(m, h)
    t_in, _ = fp.source.adapted_frame(m)
    _, nu_out = fp.target.adapted_frame(q)
    block = nu_out.T @ (j @ t_in)
    return float(np.max(np.abs(block), initial=0.0))


def is_transversal_nonlinear(
    f: SmoothMap,
    source: ImplicitManifold,
    z: ImplicitManifold,
    x,
    target: ImplicitManifold | None = None,
    rtol: float | None = None,
) -> bool:
    """Rank test: Df(T_x source) + T_f(x) Z spans the target tangent space."""
    x = source.require(x)
    fx = z.require(f(x))
    a = f.jacobian(x) @ source.tangent_basis(x, rtol)
    b = z.tangent_basis(fx, rtol)
    need = target.dim if target is not None else f.codomain_dim
    return linalg.rank(np.hstack([a, b]), rtol) == need
