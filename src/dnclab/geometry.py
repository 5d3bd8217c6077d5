"""Finite-dimensional embedded manifolds with verified numerical calculus.

Manifolds are zero sets of constraint maps with full-rank Jacobians at
stored sample points; tangent spaces are constraint-Jacobian kernels, and
normal bundles of submanifold pairs are realized by orthogonal complement
representatives inside the bigger tangent space.  A pair computes the
adapted frame at each point once and keeps it, read-only, for the pair's
lifetime (:meth:`ManifoldPair.adapted_frame`).

Derivatives are exact wherever a map supplies them: a :class:`SmoothMap`
may carry its Jacobian (``jac``) and the derivative of its Jacobian along a
vector (``hvp``), and maps built from other maps (compositions, stacks, the
divided difference of the tangent-groupoid lift, whose lam = 0 fiber is the
tangent lift) propagate both by the chain rule.  The tangent-groupoid lift
refuses a map without ``jac`` and ``hvp`` rather than differencing a
difference quotient.
A :class:`TubularMap` carries the partial Jacobians of its chart
(``dphi``).

Every finite difference is one quotient, :func:`central_difference`, and
every step no caller chooses is :func:`default_step`.  One verifier,
:func:`verify_analytic_jacobian`, checks an exact Jacobian against central
differences; :meth:`TubularMap.verify` compares ``dphi`` with one central
difference at :func:`default_step`, to 1e-6, instead.  Central differences
are otherwise the fallback for maps that supply no Jacobian and
the definition of the triangularity defect of :func:`check_block_structure`.
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
    "default_step",
    "central_difference",
    "numeric_jacobian",
    "verify_analytic_jacobian",
    "newton_project",
    "normal_frame",
    "normal_map_pushforward",
    "check_block_structure",
    "is_transversal_nonlinear",
    "compose_maps",
    "linear_map",
]

ON_MANIFOLD_TOL = 1e-8


def default_step(x: np.ndarray) -> float:
    """The step of every finite difference whose caller chooses none."""
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def central_difference(fn: Callable, x, v, h: float) -> np.ndarray:
    """(fn(x + h v) - fn(x - h v)) / 2h: the derivative of ``fn`` at ``x``
    along ``v`` to O(h^2).  Every finite difference in the package is this
    quotient."""
    hv = h * v
    return (np.asarray(fn(x + hv), float) - np.asarray(fn(x - hv), float)) / (2 * h)


def numeric_jacobian(fn: Callable, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, O(h^2), at step ``h`` or :func:`default_step`."""
    x = np.asarray(x, dtype=float)
    if h is not None and h <= 0:
        raise DomainError("differentiation step must be positive")
    h = h or default_step(x)
    return np.column_stack([central_difference(fn, x, e, h) for e in np.eye(x.size)])


@dataclass
class SmoothMap:
    """A C^2 map contract between coordinate spaces, with an optional
    analytic Jacobian (:func:`verify_analytic_jacobian` checks it).

    ``hvp(x, v)``, when supplied, is the codomain x domain Jacobian of
    ``x -> Dfn(x) v``: the second derivative contracted with ``v``.  The
    divided-difference constraints of the tangent-groupoid lift, which
    differentiate the map once more, need it for an exact Jacobian of their
    own.  ``matrix``, set by :func:`linear_map` alone, is a linear map's
    constant Jacobian: :func:`compose_maps` applies it without evaluating f.
    """

    domain_dim: int
    codomain_dim: int
    fn: Callable
    jac: Callable | None = None
    name: str = ""
    hvp: Callable | None = None
    matrix: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size != self.domain_dim:
            raise DomainError(f"{self.name or 'map'}: expected {self.domain_dim} coordinates")
        y = np.asarray(self.fn(x), dtype=float).ravel()
        if y.size != self.codomain_dim:
            raise DomainError(f"{self.name or 'map'}: produced {y.size} coordinates")
        return y

    def jacobian(self, x) -> np.ndarray:
        """The analytic Jacobian, or central differences for a map without one."""
        if self.jac is not None:
            return np.atleast_2d(np.asarray(self.jac(np.asarray(x, float)), dtype=float))
        return numeric_jacobian(self.fn, x)


def compose_maps(g: SmoothMap, f: SmoothMap, name: str = "") -> SmoothMap:
    """g ∘ f, with the chain-rule Jacobian (and second derivative along a
    vector) whenever both factors carry theirs.  A linear g (one with a
    ``matrix``) has the point-free rule A Df(x) and A D²f(x) v: its
    derivatives never evaluate f."""
    if f.codomain_dim != g.domain_dim:
        raise DomainError("composition dimensions do not match")
    jac = hvp = None
    if f.jac is not None and g.matrix is not None:
        jac = lambda x: g.matrix @ np.atleast_2d(f.jac(x))
        if f.hvp is not None:
            hvp = lambda x, v: g.matrix @ np.atleast_2d(f.hvp(x, v))
    elif f.jac is not None and g.jac is not None:
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
    return SmoothMap(a.shape[1], a.shape[0], lambda x: a @ x, lambda x: a, name, lambda x, v: zero, a)


def verify_analytic_jacobian(f: SmoothMap, x) -> bool:
    """Is the analytic Jacobian of ``f`` at ``x`` right?  The one verifier
    of exact Jacobians: central differences over the halving steps
    0.1, 0.05, ..., 0.1 / 2^9 must either meet the Jacobian to rounding
    level, 1e-9 (1 + max|J|), at their best step, or close on it at second
    order (log-log slope >= 1.9).  Rounding is judged at the best step
    alone, because it grows as the step shrinks: a correct Jacobian of a
    quadratic map shows only rounding, and more of it at the smaller steps."""
    if f.jac is None:
        raise DomainError(f"{f.name or 'map'} carries no analytic jacobian to compare against")
    exact = np.atleast_2d(np.asarray(f.jac(np.asarray(x, float)), dtype=float))
    hs = 0.1 * 0.5 ** np.arange(10)
    errs = np.asarray([np.max(np.abs(numeric_jacobian(f.fn, x, h) - exact)) for h in hs])
    if np.min(errs) <= 1e-9 * (1.0 + float(np.max(np.abs(exact)))):
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

    def contains(self, x) -> bool:
        inside = self.region(np.asarray(x, float)) if self.region is not None else True
        return bool(inside) and self.constraint_norm(x) <= ON_MANIFOLD_TOL

    def tangent_basis(self, x) -> np.ndarray:
        """Orthonormal basis (columns) of the tangent space at x; OffManifold off it."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise OffManifold(f"point not on {self.name} (constraint norm {self.constraint_norm(x):.3e})")
        return self._kernel_basis(x)

    def _kernel_basis(self, x: np.ndarray) -> np.ndarray:
        """The tangent basis at an x its caller has decided on the manifold."""
        basis = linalg.nullspace(self.constraints.jacobian(x))
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


def newton_project(manifold: ImplicitManifold, x0) -> np.ndarray:
    """Gauss-Newton projection onto the constraint zero set: at most 50
    steps, until every constraint is within 1e-10 of zero."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(50):
        g = manifold.constraints(x)
        if np.max(np.abs(g), initial=0.0) <= 1e-10:
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
    """A manifold with a closed embedded submanifold, in one ambient space.

    :meth:`contains` and :meth:`adapted_frame` are memoised per pair: each
    point is decided and computed once, and the arrays a frame holds are
    read-only so that no caller can corrupt a later hit."""

    big: ImplicitManifold
    small: ImplicitManifold
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _frames: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.big.ambient_dim != self.small.ambient_dim:
            raise DomainError("pair members live in different ambient spaces")

    def contains(self, m) -> bool:
        """Is m a submanifold point, on both members?  Decided once per point."""
        key = np.asarray(m, float).tobytes()
        if key not in self._members:
            self._members[key] = self.small.contains(m) and self.big.contains(m)
        return self._members[key]

    def accept(self, m) -> np.ndarray:
        """m decided onto the pair (OffManifold off it) and replaced by its
        :func:`newton_project` onto the submanifold, a bit-identical copy
        within 1e-10, so that a pair map sends it onto the target's."""
        if not self.contains(m):
            self.adapted_frame(m)  # raises the OffManifold of the member that misses m
        return newton_project(self.small, m)

    def adapted_frame(self, m) -> tuple[np.ndarray, np.ndarray]:
        """(tangent frame of the submanifold, normal complement inside the
        big tangent space) at a submanifold point, both orthonormal and
        read-only.  A point off the pair raises OffManifold on every call."""
        m = np.asarray(m, float)
        key = m.tobytes()
        frame = self._frames.get(key)
        if frame is None:
            if not self.contains(m):
                for member in (self.small, self.big):
                    member.tangent_basis(m)  # raises the OffManifold of the member that misses m
            t_small = self.small._kernel_basis(m)
            nu = linalg.complement_within(t_small, self.big._kernel_basis(m))
            if nu.shape[1] != self.big.dim - self.small.dim:
                raise OffManifold("normal complement has wrong dimension")
            for a in (t_small, nu):
                a.setflags(write=False)
            frame = self._frames[key] = (t_small, nu)
        return frame


def normal_frame(pair: ManifoldPair, m) -> np.ndarray:
    """Orthonormal basis of the normal space (quotient representatives) at m."""
    return pair.adapted_frame(m)[1]


@dataclass
class TubularMap:
    """Tubular neighborhood chart: (base point, normal vector) -> manifold
    point, a diffeomorphism near the zero section within ``valid_radius``.

    ``dphi(m, x)`` is the pair (d phi / d m, d phi / d x) of ambient x ambient
    Jacobians at any ambient (m, x): chart inversion
    (:func:`dnclab.dnc.dnc_chart_inverse`) takes exact Newton steps with it,
    and :meth:`verify` checks it against central differences."""

    pair: ManifoldPair
    phi: Callable
    dphi: Callable
    valid_radius: float

    def __call__(self, m, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if np.linalg.norm(x) > self.valid_radius + 1e-12:
            raise RadiusExceeded(
                f"normal vector norm {np.linalg.norm(x):.3e} exceeds radius {self.valid_radius}"
            )
        return np.asarray(self.phi(np.asarray(m, float), x), dtype=float)

    def verify(self) -> dict:
        """Zero-section fixing (to rounding level, 1e-12), identity normal
        differential (to 1e-6), and image containment (to 1e-8) at three
        radii along each normal axis; ``dphi`` agrees with central
        differences of ``phi`` (to 1e-6) at the zero section and at half the
        radius along each normal axis.  The normal differential is read off
        the central-difference Jacobian of phi(m, .) at the zero section,
        the one that checks d phi / d x there, so it checks ``phi``, not
        ``dphi``."""
        records = []
        for m in self.pair.small.samples:
            _, nu = self.pair.adapted_frame(m)
            zero = np.zeros(self.pair.big.ambient_dim)
            zero_fix = float(np.max(np.abs(self(m, zero) - m)))
            img_err = 0.0
            for r in np.linspace(0.25, 1.0, 3) * self.valid_radius:
                for i in range(nu.shape[1]):
                    img_err = max(img_err, self.pair.big.constraint_norm(self(m, r * nu[:, i])))
            d_err = dphi_err = 0.0
            for x in [zero] + [0.5 * self.valid_radius * nu[:, i] for i in range(nu.shape[1])]:
                d_m, d_x = self.dphi(m, x)
                fd_m = numeric_jacobian(lambda p: self.phi(p, x), m)
                fd_x = numeric_jacobian(lambda y: self.phi(m, y), x)
                if x is zero:
                    d_err = float(np.max(np.abs(fd_x @ nu - nu), initial=0.0))
                dphi_err = max(dphi_err, float(np.max(np.abs(d_m - fd_m))), float(np.max(np.abs(d_x - fd_x))))
            records.append(
                {"zero_fix": zero_fix, "normal_differential": d_err, "image": img_err, "dphi": dphi_err}
            )
        ok = all(
            r["zero_fix"] <= 1e-12
            and r["normal_differential"] <= 1e-6
            and r["image"] <= 1e-8
            and r["dphi"] <= 1e-6
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


def normal_map_pushforward(fp: PairMap, m, x) -> tuple[np.ndarray, np.ndarray]:
    """(f(m), image normal vector): the differential applied to a normal
    representative, projected along the target submanifold tangent onto the
    target normal frame."""
    m = fp.source.accept(m)
    x = np.asarray(x, dtype=float)
    _, nu = fp.source.adapted_frame(m)
    coords = nu.T @ x
    if np.linalg.norm(x - nu @ coords) > 1e-8 * (1 + np.linalg.norm(x)):
        raise OffManifold("vector does not lie in the normal frame span")
    q = fp.f(m)
    v = fp.f.jacobian(m) @ x
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
    t_in, _ = fp.source.adapted_frame(m)
    _, nu_out = fp.target.adapted_frame(fp.f(m))  # precondition: maps pairs to pairs
    j = numeric_jacobian(fp.f.fn, m, h)
    block = nu_out.T @ (j @ t_in)
    return float(np.max(np.abs(block), initial=0.0))


def is_transversal_nonlinear(
    f: SmoothMap,
    source: ImplicitManifold,
    z: ImplicitManifold,
    x,
    target: ImplicitManifold | None = None,
    image=None,
) -> bool:
    """Rank test: Df(T_x source) + T_f(x) Z spans the target tangent space.
    The tangent bases raise OffManifold for x off ``source`` or f(x) off ``z``.
    A caller that has mapped x and decided its image on ``z`` passes that
    ``image``, which is then neither evaluated nor decided again."""
    t_source = source.tangent_basis(x)
    t_z = z.tangent_basis(f(x)) if image is None else z._kernel_basis(np.asarray(image, float))
    need = target.dim if target is not None else f.codomain_dim
    return linalg.rank(np.hstack([f.jacobian(x) @ t_source, t_z])) == need
