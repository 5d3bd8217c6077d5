"""Built-in manifold catalog, addressable by name + parameters.

Everything here is deterministic: sample points come from fixed unit-vector
patterns or a caller-supplied seed, never from global state.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, OutsideChart
from .geometry import ImplicitManifold, ManifoldPair, SmoothMap, TubularMap, linear_map

__all__ = [
    "leading_samples",
    "sphere",
    "graph_manifold",
    "linear_subspace",
    "projective_space",
    "sym_embed",
    "sym_embed_map",
    "linear_pair",
    "sphere_equator_pair",
    "parabola_pair",
    "flat_tubular",
    "sphere_tubular",
]


def leading_samples(rng, count: int, support: int, ambient: int, normalize: bool = False) -> list[np.ndarray]:
    """``count`` points of R^ambient drawn from ``rng``: standard normals on
    the leading ``support`` coordinates, scaled to unit length when
    ``normalize``, and zeros beyond."""
    out = []
    for _ in range(count):
        v = rng.normal(size=support)
        if normalize:
            v = v / np.linalg.norm(v)
        x = np.zeros(ambient)
        x[:support] = v
        out.append(x)
    return out


def sphere(k: int, ambient: int | None = None, n_samples: int = 8, seed: int = 7) -> ImplicitManifold:
    """Unit sphere of the leading k+1 coordinates, embedded with trailing
    zeros when the ambient space is bigger."""
    ambient = ambient or k + 1
    if ambient < k + 1:
        raise DomainError(f"ambient {ambient} too small for a {k}-sphere")
    extra = ambient - (k + 1)

    def g(x):
        out = np.empty(1 + extra)
        out[0] = float(x[: k + 1] @ x[: k + 1]) - 1.0 + float(x[k + 1 :] @ x[k + 1 :])
        out[1:] = x[k + 1 :]
        return out

    def jac(x):
        j = np.zeros((1 + extra, ambient))
        j[0, :] = 2.0 * x
        for i in range(extra):
            j[1 + i, k + 1 + i] = 1.0
        return j

    def hvp(x, v):
        h = np.zeros((1 + extra, ambient))
        h[0, :] = 2.0 * np.asarray(v, dtype=float)
        return h

    def projector(x):
        y = np.zeros(ambient)
        head = x[: k + 1]
        n = np.linalg.norm(head)
        y[: k + 1] = head / n if n > 0 else np.eye(ambient)[0][: k + 1]
        return y

    rng = np.random.Generator(np.random.Philox(key=seed))
    return ImplicitManifold(
        name=f"S^{k}" + (f"@R^{ambient}" if extra else ""),
        ambient_dim=ambient,
        dim=k,
        constraints=SmoothMap(ambient, 1 + extra, g, jac, f"sphere{k}", hvp),
        samples=leading_samples(rng, n_samples, k + 1, ambient, normalize=True),
        projector=projector,
    )


def graph_manifold(fn, d_in: int, d_out: int, base_points, name: str = "graph") -> ImplicitManifold:
    """Graph {(x, fn(x))} inside R^(d_in + d_out)."""

    def g(z):
        return z[d_in:] - np.asarray(fn(z[:d_in]), dtype=float)

    samples = [np.concatenate([np.asarray(p, float), np.asarray(fn(np.asarray(p, float)), float)]) for p in base_points]
    return ImplicitManifold(name, d_in + d_out, d_in, SmoothMap(d_in + d_out, d_out, g, name=name), samples)


def linear_subspace(ambient: int, n: int, n_samples: int = 6, seed: int = 5) -> ImplicitManifold:
    """Span of the leading n coordinates inside R^ambient."""
    if n > ambient:
        raise DomainError("subspace dimension exceeds ambient")

    def projector(x):
        y = np.array(x, dtype=float)
        y[n:] = 0.0
        return y

    rng = np.random.Generator(np.random.Philox(key=seed))
    return ImplicitManifold(
        f"E_{n}@R^{ambient}",
        ambient,
        n,
        linear_map(np.eye(ambient)[n:], "linear"),
        leading_samples(rng, n_samples, n, ambient),
        projector=projector,
    )


# -- projective space via rank-one projections -------------------------------


def _sym_indices(n: int):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _sym_matrix(s, idx, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose upper triangle, in the order of
    ``idx = _sym_indices(n)``, is ``s``: it undoes the packing of
    ``sym_embed``."""
    p = np.zeros((n, n))
    for a, (i, j) in enumerate(idx):
        p[i, j] = s[a]
        p[j, i] = s[a]
    return p


def sym_embed(x: np.ndarray) -> np.ndarray:
    """Upper-triangle vectorization of the rank-one projection x x^T."""
    x = np.asarray(x, dtype=float)
    p = np.outer(x, x)
    return np.array([p[i, j] for i, j in _sym_indices(x.size)])


def sym_embed_map(k: int, ambient_in: int | None = None) -> SmoothMap:
    """The two-to-one map (unit vectors) -> (projections): the concrete
    double cover of projective space by the sphere."""
    n = k + 1
    d_in = ambient_in or n
    m = n * (n + 1) // 2

    rows, cols = np.array(_sym_indices(n)).T

    def fn(x):
        return sym_embed(np.asarray(x[:n], dtype=float))

    def jac(x):
        # d(x_i x_j) = x_j dx_i + x_i dx_j
        j = np.zeros((m, d_in))
        j[np.arange(m), rows] += x[cols]
        j[np.arange(m), cols] += x[rows]
        return j

    return SmoothMap(d_in, m, fn, jac, f"double_cover_S{k}")


def projective_space(k: int, big_n: int | None = None, n_samples: int = 8, seed: int = 13) -> ImplicitManifold:
    """Real projective k-space as rank-one symmetric projections.

    Embedded in the symmetric matrices on R^(big_n) (upper-triangle
    coordinates); entries beyond the leading (k+1) block are constrained to
    zero so nested projective spaces share one ambient space.  The
    constraint system (P^2 = P, trace 1, trailing block 0) is overdetermined;
    its Jacobian has rank ambient - k at every sample.
    """
    n = big_n or k + 1
    if n < k + 1:
        raise DomainError("big_n too small")
    idx = _sym_indices(n)
    m = len(idx)

    trailing = [a for a, (i, j) in enumerate(idx) if i > k or j > k]
    n_eqs = m + 1 + len(trailing)

    def g(s):
        p = _sym_matrix(s, idx, n)
        q = p @ p - p
        eqs = [q[i, j] for i, j in idx]
        eqs.append(np.trace(p) - 1.0)
        eqs.extend(s[a] for a in trailing)
        return np.asarray(eqs)

    rows, cols = np.array(idx).T
    # the symmetric matrix of each coordinate direction, for the Jacobian
    # dP P + P dP - dP of P^2 - P
    units = np.array([_sym_matrix(e, idx, n) for e in np.eye(m)])

    def jac(s):
        p = _sym_matrix(s, idx, n)
        dq = units @ p + p @ units - units
        j = np.zeros((n_eqs, m))
        j[:m] = dq[:, rows, cols].T
        j[m] = np.trace(units, axis1=1, axis2=2)
        j[m + 1 + np.arange(len(trailing)), trailing] = 1.0
        return j

    rng = np.random.Generator(np.random.Philox(key=seed))
    return ImplicitManifold(
        f"RP^{k}" + (f"@sym{n}" if n != k + 1 else ""),
        m,
        k,
        SmoothMap(m, n_eqs, g, jac, f"rp{k}"),
        [sym_embed(x) for x in leading_samples(rng, n_samples, k + 1, n, normalize=True)],
    )


# -- pairs and tubular maps ---------------------------------------------------


def linear_pair(ambient: int, n: int) -> ManifoldPair:
    """(R^ambient, leading-n coordinate subspace)."""
    big = linear_subspace(ambient, ambient)
    big.name = f"R^{ambient}"
    small = linear_subspace(ambient, n, seed=6)
    return ManifoldPair(big, small)


def flat_tubular(pair: ManifoldPair, radius: float = 10.0) -> TubularMap:
    """Affine tubular map m + X; valid whenever the big manifold is flat
    along normal directions (linear pairs).  Its inverse is q -> (p, q - p)
    with p the small member's closest-point ``projector`` image of q."""
    project = pair.small.projector
    if project is None:
        raise DomainError(f"flat_tubular: {pair.small.name} has no projector to invert the chart with")

    def inverse(q):
        p = project(q)
        return p, q - p

    return TubularMap(pair, lambda m, x: m + x, inverse, radius)


def sphere_equator_pair(k: int, ambient: int | None = None, n_samples: int = 6) -> ManifoldPair:
    """(S^k, equatorial S^(k-1)) in a common ambient space."""
    big = sphere(k, ambient, n_samples, 9)
    small = sphere(k - 1, ambient or k + 1, n_samples, 10)
    return ManifoldPair(big, small)


def sphere_tubular(pair: ManifoldPair) -> TubularMap:
    """Normalized-sum tubular map for sphere pairs: (m, X) -> (m+X)/|m+X|.

    Its inverse rescales q so that its head, the small sphere's leading
    ``small.dim + 1`` coordinates, is a unit vector m: q -> (m, q/|q_head| - m).
    A q with no head (a pole) is outside the chart."""
    small = pair.small
    head = small.dim + 1

    def phi(m, x):
        y = m + x
        return y / np.linalg.norm(y)

    def inverse(q):
        r = np.linalg.norm(q[:head])
        if r == 0.0:
            raise OutsideChart(f"{q} has no component along {small.name}")
        m = small.projector(q)
        return m, q / r - m

    return TubularMap(pair, phi, inverse, 0.9)


def parabola_pair(n_samples: int = 6) -> ManifoldPair:
    """(R^2, graph of y = x^2): a curved submanifold of a flat manifold,
    the standard fixture for O(h^2) triangularity defects."""
    rng = np.random.Generator(np.random.Philox(key=3))
    base = [np.array([t]) for t in rng.uniform(-1.0, 1.0, size=n_samples)]
    small = graph_manifold(lambda u: np.array([u[0] ** 2]), 1, 1, base, name="parabola")
    big = linear_subspace(2, 2, n_samples, 4)
    big.name = "R^2"
    return ManifoldPair(big, small)


def antipodal_cover(k: int, big_n: int | None = None):
    """The 2-sheeted covering of projective space by the sphere: unit vectors
    to rank-one projections, with lifts recovered by eigendecomposition."""
    from .filtration import CoveringMap

    n = big_n or k + 1
    total = sphere(k, ambient=n, n_samples=6, seed=13)
    base = projective_space(k, big_n=n, n_samples=6, seed=13)
    idx = _sym_indices(n)

    def lift(q):
        w, v = np.linalg.eigh(_sym_matrix(q, idx, n))
        x = v[:, int(np.argmax(w))]
        return [x, -x]

    return CoveringMap(total=total, base=base, projection=sym_embed_map(k, ambient_in=n), lift=lift)
