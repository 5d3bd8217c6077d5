"""Named verification suites binding each structural claim to randomized
property checks over the operator, geometry, deformation and filtration
layers.  Every suite is deterministic under its configuration: randomness
comes from counter-based generators keyed by (seed, suite, check index).
"""

from __future__ import annotations

import time

import numpy as np

from . import catalog, dnc, linalg
from . import filtration as filt
from . import flags as fl
from . import geometry as geo
from . import operators as ops
from . import subspaces as sub
from .errors import (
    ComplementFailure,
    FiberMismatch,
    LabError,
    NotCovering,
    NotTransversal,
    PreconditionFailed,
    UnknownSuite,
)
from .report import CheckResult, SuiteConfig, SuiteReport, rng_for

__all__ = ["SUITES", "list_suites", "run_suite", "run_all"]


class _Recorder:
    """A suite's checks, in order.  Each record carries its verdict and the
    time since the previous record (since creation for the first), which
    the console shows and the canonical report leaves out."""

    def __init__(self):
        self.results: list[CheckResult] = []
        self._t0 = time.perf_counter()

    def __call__(self, name: str, claim: str, ok, residuals: dict) -> list[CheckResult]:
        return self._record(name, claim, "pass" if ok else "fail", residuals)

    def error(self, exc: LabError, claim: str) -> list[CheckResult]:
        """Record a suite that raised: one check naming the exception."""
        return self._record("suite-error", claim, "error", {"exception": type(exc).__name__, "message": str(exc)})

    def _record(self, name: str, claim: str, status: str, residuals: dict) -> list[CheckResult]:
        now = time.perf_counter()
        self.results.append(CheckResult(name, claim, status, residuals, (now - self._t0) * 1000))
        self._t0 = now
        return self.results


# -- randomized operator instances -----------------------------------------------


def _random_glk(rng) -> ops.SequenceOperator:
    w = int(rng.integers(1, 5))  # a window of 1 to 4
    while True:
        block = np.eye(w) + rng.normal(scale=0.8, size=(w, w))
        if abs(np.linalg.det(block)) > 1e-3:
            return ops.SequenceOperator(0, w, block)


def _random_block(rng, max_window: int) -> np.ndarray:
    r = int(rng.integers(1, max_window + 2))
    c = int(rng.integers(1, max_window + 2))
    return rng.normal(size=(r, c))


def _random_finite_rank(rng) -> ops.SequenceOperator:
    return ops.finite_rank(_random_block(rng, 3))


def _random_shifted(rng, shift: int, scaled: bool = False) -> ops.SequenceOperator:
    """``c * (shift_op(shift) + finite_rank(m))`` for a random block m, built
    as one operator from the scaled dense sum that ``+`` and ``scale`` would
    canonicalise: c is 1, or drawn from [0.2, 2) after m when ``scaled``."""
    m = _random_block(rng, int(rng.integers(0, 4)) + 1)
    c = float(rng.uniform(0.2, 2.0)) if scaled else 1.0
    w = max(m.shape[1], -shift)
    a = np.zeros((max(m.shape[0], w + shift), w))
    a[: m.shape[0], : m.shape[1]] = m
    i = np.arange(max(0, -shift), w)
    a[i + shift, i] += 1.0
    return ops.SequenceOperator(shift, w, c * a, c)


def _random_bounded(rng) -> ops.SequenceOperator:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return _random_finite_rank(rng)
    if kind == 1:
        s = int(rng.integers(-2, 3))
        return _random_shifted(rng, s, scaled=True)
    return _random_glk(rng)


def _dyadic(rng, size: int) -> np.ndarray:
    return rng.integers(-(2**16), 2**16, size=size).astype(float) / 2.0**8


# -- shared fixtures ---------------------------------------------------------------


def _axis_pair():
    return catalog.linear_pair(2, 1)


def _poly_pair_map(pair) -> geo.PairMap:
    f = geo.SmoothMap(
        2,
        2,
        lambda z: np.array([z[0] + z[1] ** 2, z[1] * (1.0 + z[0] ** 2)]),
        lambda z: np.array([[1.0, 2.0 * z[1]], [2.0 * z[0] * z[1], 1.0 + z[0] ** 2]]),
        "poly",
    )
    return geo.PairMap(f, pair, pair)


def _quadratic_pair_map(pair) -> geo.PairMap:
    f = geo.SmoothMap(
        2,
        2,
        lambda z: np.array([2.0 * z[0] + z[1] ** 2, z[1] * (1.0 + z[1])]),
        lambda z: np.array([[2.0, 2.0 * z[1]], [0.0, 1.0 + 2.0 * z[1]]]),
        "g",
    )
    return geo.PairMap(f, pair, pair)


def _stretch_pair_map(pair) -> geo.PairMap:
    """(x, y) -> (x, 2y): linear, preserving the axis pair."""
    return geo.PairMap(geo.linear_map(np.diag([1.0, 2.0]), "lin"), pair, pair)


def _sphere_twist_map() -> geo.SmoothMap:
    """Rotation about the vertical axis by an angle proportional to height:
    preserves the sphere and fixes the equator pointwise."""

    def fn(v):
        th = 0.7 * v[2]
        c, s = np.cos(th), np.sin(th)
        return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])

    return geo.SmoothMap(3, 3, fn, name="twist")


def _sphere_stretch_map() -> geo.SmoothMap:
    """Normalized non-orthogonal linear map preserving the equator plane:
    sends the sphere to itself, mixing the vertical direction into the base."""
    a = np.array([[1.0, 0.4, 0.3], [-0.2, 1.3, 0.0], [0.0, 0.0, 1.1]])

    def fn(v):
        w = a @ v
        return w / np.linalg.norm(w)

    def jac(v):
        w = a @ v
        r = np.linalg.norm(w)
        u = w / r
        return (np.eye(3) - np.outer(u, u)) @ a / r

    return geo.SmoothMap(3, 3, fn, jac, "stretch")


def _diag_z_fixture():
    """Z the diagonal line, Z0 the origin, inside the plane-with-axis pair."""
    z = geo.ImplicitManifold(
        "diag",
        2,
        1,
        geo.linear_map([[-1.0, 1.0]], "diag"),
        samples=[np.array([0.0, 0.0]), np.array([0.5, 0.5]), np.array([-0.75, -0.75])],
        projector=lambda p: np.full(2, 0.5 * (p[0] + p[1])),
    )
    z0 = geo.ImplicitManifold("origin", 2, 0, geo.linear_map(np.eye(2), "origin"), samples=[np.array([0.0, 0.0])])
    return geo.ManifoldPair(z, z0)


def _sphere_delta(config: SuiteConfig) -> list[int]:
    return [2**n for n in range(1, config.depth + 1)]


# -- suites ---------------------------------------------------------------------


def suite_block_index_zero(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    failures = 0
    for _ in range(config.samples):
        b = ops.block_lower_triangular(_random_glk(rng), _random_bounded(rng), _random_glk(rng))
        if b.fredholm_index(level=config.truncation) != 0:
            failures += 1
    check(
        "structure-group-diagonal-index-zero",
        "lower triangular operators with invertible compact-perturbation diagonal have index zero",
        failures == 0,
        {"instances": config.samples, "failures": failures},
    )

    rng = rng_for(config, 1)
    failures = 0
    for _ in range(config.samples):
        s1, s2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        f1, f2 = _random_shifted(rng, s1), _random_shifted(rng, s2)
        b = ops.block_lower_triangular(f1, _random_finite_rank(rng), f2)
        lhs = b.fredholm_index(level=config.truncation)
        rhs = ops.fredholm_index(f1, level=config.truncation) + ops.fredholm_index(
            f2, level=config.truncation
        )
        if lhs != rhs:
            failures += 1
    return check(
        "interleaved-index-additivity",
        "the flattened index equals the sum of the diagonal indices, independent of the coupling",
        failures == 0,
        {"instances": config.samples, "failures": failures},
    )


def suite_retraction(config: SuiteConfig) -> list[CheckResult]:
    """Invertibility along the straight-line retraction onto the block
    diagonal, measured as sigma_min / sigma_max on a 101-point grid of every
    instance and certified over the whole of [0, 1] by
    ``ops.retraction_ratio_bound``.

    The grid minimum is exact, but only instances that can still set it pay
    for their grid: instances are visited in ascending bound order, and an
    instance's 101 matrices are built and decomposed only while its bound is
    below twice the minimum so far.  Its grid ratios are at least its bound,
    and at a condition number of at most 1e8 (the verdict floor) the fixed
    factor 2 dwarfs the rounding in the bound and in LAPACK's sigma_min, so
    a skipped instance cannot lower the minimum."""
    check = _Recorder()
    rng = rng_for(config, 0)
    n = config.samples
    grid = np.linspace(0.0, 1.0, 101)
    endpoint_exact = True
    level = 12
    instances = []
    zero = ops.identity().scale(0.0)
    for _ in range(n):
        b = ops.block_lower_triangular(
            _random_glk(rng), ops.finite_rank(3.0 * _random_block(rng, 3)), _random_glk(rng)
        )
        b0, b1 = ops.retraction_paths(b, (0.0, 1.0))  # the diagonals decided once
        endpoint_exact = endpoint_exact and b0.P == b.P and b0.F == b.F and b0.F2 == b.F2
        endpoint_exact = endpoint_exact and b1.P.approx_equal(zero, 0.0)
        instances.append(b)
    bounds = ops.retraction_ratio_bound(instances, level)
    min_ratio = np.inf
    for k in np.argsort(bounds, kind="stable"):
        if not bounds[k] < 2.0 * min_ratio:
            break  # nor can any later instance, whose bound is no smaller
        stack, r1, r2 = ops.retraction_stack(instances[k], grid, level)
        if r1 + r2 != 2 * level:  # identity tails keep the truncation square
            min_ratio = 0.0
        else:
            s = linalg.singular_values(stack)
            min_ratio = min(min_ratio, float(np.min(s[:, -1] / s[:, 0])))
    certified = float(bounds.min())
    return check(
        "retraction-invertibility-along-path",
        "scaling the coupling to zero keeps lower triangular structure-group elements invertible",
        min_ratio >= 1e-8 and certified >= 1e-8 and endpoint_exact,
        {
            "instances": n,
            "grid_points": 101,
            "min_singular_ratio": min_ratio,
            "certified_min_singular_ratio": certified,
            "endpoints_exact": endpoint_exact,
        },
    )


def _transversal_instance(rng):
    s = int(rng.integers(-3, 4))
    t = _random_shifted(rng, s)
    n = t.window + max(s, 0) + int(rng.integers(1, 4))
    return t, sub.coordinate_span(n)


def suite_block_transversality(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = config.samples
    failures = 0
    worst_resid = 0.0
    complements_ok = True
    for _ in range(n):
        t1, v1 = _transversal_instance(rng)
        t2, v2 = _transversal_instance(rng)
        p = _random_bounded(rng)
        b = ops.block_lower_triangular(t1, p, t2)
        try:  # decides both factors, then the block, once each, and verifies the complements
            ops.block_preimage_with_complement(b, v1, v2)
        except ComplementFailure:
            complements_ok = False
            continue
        except NotTransversal:
            failures += 1
            continue
        e1 = linalg.trim(_dyadic(rng, int(rng.integers(1, 6))))
        e2 = linalg.trim(_dyadic(rng, int(rng.integers(1, 6))))
        (x1, x2), (w1, w2) = ops.block_transversality_witness(b, v1, v2, e1, e2)
        y1, y2 = b.apply(x1, x2)
        m1 = max(e1.size, y1.size, w1.size, 1)
        m2 = max(e2.size, y2.size, w2.size, 1)
        r1 = np.linalg.norm(linalg.pad_to(e1, m1) - linalg.pad_to(y1, m1) - linalg.pad_to(w1, m1))
        r2 = np.linalg.norm(linalg.pad_to(e2, m2) - linalg.pad_to(y2, m2) - linalg.pad_to(w2, m2))
        resid = max(float(r1), float(r2))
        worst_resid = max(worst_resid, resid)
        if resid > 1e-10:
            failures += 1
    return check(
        "block-transversality-and-witnesses",
        "factor transversality passes to the lower triangular sum; witnesses split exactly and "
        "factor complements complement the preimage",
        failures == 0 and worst_resid <= 1e-10 and complements_ok,
        {
            "instances": n,
            "failures": failures,
            "max_witness_residual": worst_resid,
            "complements_verified": complements_ok,
        },
    )


def suite_composition_transversality(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = config.samples
    mismatches = 0
    outcomes = {True: 0, False: 0}
    for _ in range(n):
        t2, v = _transversal_instance(rng)
        w = ops.preimage_with_complement(t2, v)
        t1 = _random_bounded(rng)
        lhs = ops.is_transversal(t1, w)
        rhs = ops.is_transversal(t2.compose(t1), v)
        outcomes[lhs] += 1
        if lhs != rhs:
            mismatches += 1
    return check(
        "composition-transversality-iff",
        "a map is transversal to the preimage of a subspace exactly when the composition is "
        "transversal to the subspace",
        mismatches == 0,
        {
            "instances": n,
            "mismatches": mismatches,
            "true_cases": outcomes[True],
            "false_cases": outcomes[False],
        },
    )


def suite_dnc_vspace_iso(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = max(config.samples, 2)  # a boundary and an interior point at least
    ambient, e0 = 6, 3
    worst = 0.0
    lam_ok = True
    for i in range(n):
        if i % 5 == 0:
            base = rng.normal(size=ambient)
            base[e0:] = 0.0
            x = rng.normal(size=ambient)
            x[:e0] = 0.0
            p = dnc.DncPoint.boundary(base, x)
        else:
            p = dnc.DncPoint.interior(rng.normal(size=ambient), float(rng.uniform(0.1, 2.0)) * (1 if rng.integers(2) else -1))
        w, t = dnc.dnc_vspace_iso(e0, p)
        back = dnc.dnc_vspace_iso_inverse(e0, w, t)
        lam_ok = lam_ok and back.lam == p.lam
        worst = max(worst, float(np.max(np.abs(back.point - p.point))))
        if p.kind == "boundary":
            worst = max(worst, float(np.max(np.abs(back.normal - p.normal))))
    return check(
        "linear-pair-trivialization-roundtrip",
        "the deformation space of a complemented linear pair trivializes over the scalar line, "
        "with exact inverse and preserved fiber coordinate",
        worst <= 1e-12 and lam_ok,
        {"points": n, "max_roundtrip_error": worst, "fiber_preserved": lam_ok},
    )


def suite_dnc_product(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = max(config.samples, 2)  # a boundary and an interior point at least
    d1, d2 = 3, 4
    worst = 0.0
    lam_ok = True
    for i in range(n):
        if i % 3 == 0:
            base = np.concatenate([rng.normal(size=d1), rng.normal(size=d2)])
            x = np.concatenate([rng.normal(size=d1), rng.normal(size=d2)])
            p = dnc.DncPoint.boundary(base, x)
        else:
            p = dnc.DncPoint.interior(rng.normal(size=d1 + d2), float(rng.uniform(0.05, 3.0)))
        pa, pb = dnc.dnc_product_split(p, d1)
        lam_ok = lam_ok and pa.lam == p.lam and pb.lam == p.lam
        back = dnc.dnc_product_join(pa, pb)
        worst = max(worst, float(np.max(np.abs(back.point - p.point))))
        if p.kind == "boundary":
            worst = max(worst, float(np.max(np.abs(back.normal - p.normal))))
    try:
        dnc.dnc_product_join(
            dnc.DncPoint.interior(np.zeros(d1), 1.0), dnc.DncPoint.interior(np.zeros(d2), 2.0)
        )
        mismatch_raised = False
    except FiberMismatch:
        mismatch_raised = True
    return check(
        "product-split-join-roundtrip",
        "deformation spaces of product pairs split into fibered products over the scalar line",
        worst <= 1e-10 and lam_ok and mismatch_raised,
        {
            "points": n,
            "max_roundtrip_error": worst,
            "fiber_preserved": lam_ok,
            "fiber_mismatch_rejected": mismatch_raised,
        },
    )


def suite_trivial_bundle(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = max(config.samples, 2)  # a tangent and a pair element at least
    dm, k = 3, 2
    worst = 0.0
    lin_worst = 0.0
    for i in range(n):
        if i % 3 == 0:
            m = rng.normal(size=dm + k)
            v = rng.normal(size=dm + k)
            el = dnc.TangentGroupoidElement.tangent(m, v)
        else:
            el = dnc.TangentGroupoidElement.pair(
                rng.normal(size=dm + k), rng.normal(size=dm + k), float(rng.uniform(0.1, 2.0))
            )
        base, vecs = dnc.trivial_bundle_split(el, k)
        back = dnc.trivial_bundle_join(base, vecs, k)
        worst = max(worst, float(np.max(np.abs(back.a - el.a))), float(np.max(np.abs(back.b - el.b))))
        # fiber linearity over a fixed base arrow
        if el.kind == "pair":
            lam = el.lam
            m1, m2 = el.a[:dm], el.b[:dm]
            u1, w1 = rng.normal(size=k), rng.normal(size=k)
            u2, w2 = rng.normal(size=k), rng.normal(size=k)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

            def fiber_el(u, w):
                return dnc.TangentGroupoidElement.pair(
                    np.concatenate([m1, u]), np.concatenate([m2, w]), lam
                )

            _, (su, sw) = dnc.trivial_bundle_split(
                fiber_el(a * u1 + b * u2, a * w1 + b * w2), k
            )
            _, (su1, sw1) = dnc.trivial_bundle_split(fiber_el(u1, w1), k)
            _, (su2, sw2) = dnc.trivial_bundle_split(fiber_el(u2, w2), k)
            lin_worst = max(
                lin_worst,
                float(np.max(np.abs(su - a * su1 - b * su2))),
                float(np.max(np.abs(sw - a * sw1 - b * sw2))),
            )
    return check(
        "trivial-bundle-split-roundtrip-linearity",
        "the groupoid of a trivial product is a vector bundle over the base groupoid: the split "
        "is exact, fiber-linear, and preserves the fiber coordinate",
        worst <= 1e-10 and lin_worst <= 1e-10,
        {"points": n, "max_roundtrip_error": worst, "max_linearity_defect": lin_worst},
    )


def suite_dnc_functoriality(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    pair = _axis_pair()
    n = max(10, min(config.samples, 50))

    rng = rng_for(config, 0)
    fp = _poly_pair_map(pair)
    gp = _quadratic_pair_map(pair)
    comp = geo.PairMap(geo.compose_maps(gp.f, fp.f), pair, pair)
    worst = 0.0
    for i in range(n):
        if i % 2 == 0:
            p = dnc.DncPoint.interior(rng.normal(size=2), float(rng.uniform(0.1, 2.0)))
        else:
            p = dnc.DncPoint.boundary(
                np.array([float(rng.uniform(-1, 1)), 0.0]), np.array([0.0, float(rng.uniform(-1, 1))])
            )
        lhs = dnc.dnc_map(comp, p)
        rhs = dnc.dnc_map(gp, dnc.dnc_map(fp, p))
        worst = max(worst, float(np.max(np.abs(lhs.point - rhs.point))))
        if p.kind == "boundary":
            worst = max(worst, float(np.max(np.abs(lhs.normal - rhs.normal))))
        if lhs.lam != rhs.lam or lhs.lam != p.lam:
            worst = np.inf
    check(
        "deformation-functor-composition",
        "the induced deformation-space maps compose functorially and intertwine the projection "
        "to the scalar line",
        worst <= 1e-6,
        {"points": n, "max_composition_error": worst, "tolerance": 1e-6},
    )

    rng = rng_for(config, 1)
    f = geo.SmoothMap(
        2,
        2,
        lambda z: np.array([z[0] + z[1] ** 2, z[1] + z[0] * z[1]]),
        lambda z: np.array([[1.0, 2.0 * z[1]], [z[1], 1.0 + z[0]]]),
        "h",
    )
    worst = 0.0
    for i in range(n):
        lam = float(rng.uniform(0.1, 2.0))
        if i % 2 == 0:
            x, y, z = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
            a = dnc.TangentGroupoidElement.pair(x, y, lam)
            b = dnc.TangentGroupoidElement.pair(y, z, lam)
        else:
            m = rng.normal(size=2)
            a = dnc.TangentGroupoidElement.tangent(m, rng.normal(size=2))
            b = dnc.TangentGroupoidElement.tangent(m, rng.normal(size=2))
        lhs = dnc.tg_map(f, dnc.tg_compose(a, b))
        rhs = dnc.tg_compose(dnc.tg_map(f, a), dnc.tg_map(f, b))
        worst = max(worst, float(np.max(np.abs(lhs.a - rhs.a))), float(np.max(np.abs(lhs.b - rhs.b))))
    return check(
        "groupoid-functor-homomorphism",
        "the induced groupoid map is a homomorphism on composable arrows and tangent vectors",
        worst <= 1e-9,
        {"pairs": n, "max_homomorphism_error": worst, "tolerance": 1e-9},
    )


def suite_taylor_remainder(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    pair = _axis_pair()
    flat = catalog.flat_tubular(pair)
    eq_pair = catalog.sphere_equator_pair(2)
    sph_tub = catalog.sphere_tubular(eq_pair)
    ts = [2.0 ** (-k) for k in range(1, 11)]

    fixtures = [
        (
            "flat-quadratic",
            geo.PairMap(
                geo.SmoothMap(
                    2,
                    2,
                    lambda z: np.array([z[0], z[1] + z[1] ** 2]),
                    lambda z: np.array([[1.0, 0.0], [0.0, 1.0 + 2.0 * z[1]]]),
                ),
                pair,
                pair,
            ),
            flat,
            flat,
            np.array([0.0, 0.0]),
            np.array([0.0, 1.0]),
        ),
        (
            "flat-coupled",
            geo.PairMap(
                geo.SmoothMap(
                    2,
                    2,
                    lambda z: np.array([z[0] + z[1] ** 2, z[1] + z[1] ** 2 + z[0] * z[1] ** 2]),
                    lambda z: np.array([[1.0, 2.0 * z[1]], [z[1] ** 2, 1.0 + 2.0 * z[1] + 2.0 * z[0] * z[1]]]),
                ),
                pair,
                pair,
            ),
            flat,
            flat,
            np.array([0.5, 0.0]),
            np.array([0.0, 0.8]),
        ),
        (
            "sphere-stretch",
            geo.PairMap(_sphere_stretch_map(), eq_pair, eq_pair),
            sph_tub,
            sph_tub,
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.9]),
        ),
    ]
    slopes = {}
    ok = True
    for name, fp, t1, t2, m, x in fixtures:
        rs = dnc.taylor_probe(fp, t1, t2, m, x, ts)
        slope = linalg.loglog_slope(np.asarray(ts), np.asarray(rs))
        slopes[name] = {"slope": slope, "r_first": rs[0], "r_last": rs[-1]}
        ok = ok and slope >= 0.9
    check(
        "remainder-linear-decay",
        "the rescaled chart-conjugated map deviates from the normal pushforward by a remainder "
        "bounded linearly in the fiber coordinate",
        ok,
        {"fixtures": slopes, "slope_floor": 0.9},
    )

    rs = dnc.taylor_probe(_stretch_pair_map(pair), flat, flat, np.array([0.3, 0.0]), np.array([0.0, 1.0]), ts)
    worst = max(rs)
    return check(
        "linear-map-zero-remainder",
        "linear maps through affine charts have vanishing remainder",
        worst <= 1e-10,
        {"max_remainder": worst, "tolerance": 1e-10},
    )


def suite_normal_block_structure(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    pp = catalog.parabola_pair(n_samples=20)
    eq = catalog.sphere_equator_pair(2, n_samples=20)

    def curved_map(z):
        x, y = z
        return np.array([x, x * x + (y - x * x) * (1.0 + x + y)])

    def flatten_map(z):
        x, y = z
        return np.array([x, (y - x * x) * (1.0 + x + y)])

    axis = _axis_pair()
    fixtures = [
        ("parabola-shear", geo.PairMap(geo.SmoothMap(2, 2, curved_map), pp, pp), pp.small.samples),
        ("parabola-flatten", geo.PairMap(geo.SmoothMap(2, 2, flatten_map), pp, axis), pp.small.samples),
        ("sphere-twist", geo.PairMap(_sphere_twist_map(), eq, eq), eq.small.samples),
        ("linear", _stretch_pair_map(axis), axis.small.samples),
    ]

    worst = {}
    ok = True
    for name, fp, samples in fixtures:
        res = max(geo.check_block_structure(fp, m) for m in samples)
        worst[name] = res
        bound = 1e-10 if name == "linear" else 1e-6
        ok = ok and res <= bound
    check(
        "triangularity-defect-small",
        "the induced normal-bundle morphism is block lower triangular: the forbidden block "
        "vanishes to tolerance at every sample",
        ok,
        {"max_defect": worst, "tolerance": 1e-6},
    )

    orders = {}
    ok = True
    hs = 1e-2 * 0.5 ** np.arange(6)
    for name, fp, samples in fixtures[:2]:
        m = samples[0]
        residuals = np.array([geo.check_block_structure(fp, m, h=float(h)) for h in hs])
        order = linalg.loglog_slope(hs, residuals)
        orders[name] = {"order": order, "residuals": list(residuals)}
        ok = ok and order >= 1.9
    return check(
        "triangularity-defect-second-order",
        "the forbidden block decays at second order in the differentiation step",
        ok,
        {"fixtures": orders, "order_floor": 1.9},
    )


def suite_groupoid_axioms(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    n = max(config.samples, 2)  # a nonzero-fiber and a zero-fiber triple at least
    exact = True
    for i in range(n):
        lam = float(_dyadic(rng, 1)[0]) or 1.0
        if i % 2 == 0:
            x, y, z, w = (_dyadic(rng, 3) for _ in range(4))
            a = dnc.TangentGroupoidElement.pair(x, y, lam)
            b = dnc.TangentGroupoidElement.pair(y, z, lam)
            c = dnc.TangentGroupoidElement.pair(z, w, lam)
        else:
            m = _dyadic(rng, 3)
            a = dnc.TangentGroupoidElement.tangent(m, _dyadic(rng, 3))
            b = dnc.TangentGroupoidElement.tangent(m, _dyadic(rng, 3))
            c = dnc.TangentGroupoidElement.tangent(m, _dyadic(rng, 3))
        lhs = dnc.tg_compose(dnc.tg_compose(a, b), c)
        rhs = dnc.tg_compose(a, dnc.tg_compose(b, c))
        exact = exact and np.array_equal(lhs.a, rhs.a) and np.array_equal(lhs.b, rhs.b)
        # units and inverses
        u_t = dnc.tg_unit(a.a, a.lam)
        exact = exact and np.array_equal(dnc.tg_compose(u_t, a).a, a.a)
        exact = exact and np.array_equal(dnc.tg_compose(u_t, a).b, a.b)
        inv = dnc.tg_inverse(a)
        unit = dnc.tg_compose(a, inv)
        if a.kind == "pair":
            exact = exact and np.array_equal(unit.a, a.a) and np.array_equal(unit.b, a.a)
        else:
            exact = exact and np.array_equal(unit.b, np.zeros_like(a.b))
    return check(
        "groupoid-axioms-exact",
        "associativity, units and inverses hold exactly on composable triples at nonzero and "
        "zero fiber coordinates",
        exact,
        {"triples": n, "exact": exact},
    )


def suite_dnc_transversality(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    pair = _axis_pair()
    zpair = _diag_z_fixture()

    def sample_points(rng, n, on_curve):
        out = []
        for i in range(n):
            if i % 3 == 2:
                out.append(
                    dnc.DncPoint.boundary(np.array([0.0, 0.0]), np.array([0.0, float(rng.uniform(-1, 1))]))
                )
            elif i % 3 == 1:
                out.append(dnc.DncPoint.interior(rng.normal(size=2), float(rng.uniform(0.1, 2.0))))
            else:
                out.append(dnc.DncPoint.interior(on_curve(rng), float(rng.uniform(0.1, 2.0))))
        return out

    lin_map = _stretch_pair_map(pair)

    def on_poly_curve(rng):
        # solve f(x, y) on the diagonal: y x^2 - x + y - y^2 = 0 for given y
        while True:
            y = float(rng.uniform(0.05, 0.4))
            disc = 1.0 - 4.0 * y * (y - y * y)
            if disc >= 0:
                x = (1.0 - np.sqrt(disc)) / (2.0 * y)
                return np.array([x, y])

    fixtures = [
        ("linear", lin_map, lambda rng: np.array([2.0, 1.0]) * float(rng.uniform(-1, 1))),
        ("polynomial", _poly_pair_map(pair), on_poly_curve),
    ]
    for idx, (name, fp, curve) in enumerate(fixtures):
        rng = rng_for(config, idx)
        samples = sample_points(rng, max(config.samples, 3), curve)  # every kind at least once
        rep = dnc.dnc_transversality_check(fp, zpair, samples, tol=config.tol)
        check(
            f"transversality-through-functor-{name}",
            "the induced deformation-space map is transversal to the deformation subspace, and "
            "membership through the functor matches the preimage construction",
            rep["passed"],
            {
                "sampled_points": len(samples),
                "checks": len(rep["checks"]),
                "failures": sum(1 for c in rep["checks"] if not c["passed"]),
            },
        )

    bad_z = geo.ImplicitManifold("axis-copy", 2, 1, geo.linear_map([[0.0, 1.0]], "axis"), samples=[np.array([0.0, 0.0])])
    bad = geo.ManifoldPair(bad_z, zpair.small)
    try:
        dnc.dnc_transversality_check(lin_map, bad, [], tol=config.tol)
        raised = False
        named = ""
    except PreconditionFailed as exc:
        raised = True
        named = str(exc)
    return check(
        "non-transverse-fixture-rejected",
        "violated hypotheses are reported by name instead of producing a verdict",
        raised and named,
        {"raised": raised, "hypothesis": named},
    )


def suite_flag_laws(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    rng = rng_for(config, 0)
    delta = _sphere_delta(config)
    flag = fl.standard_flag(delta)
    g = ops.identity() + ops.rank_one(0, 1, float(rng.uniform(-1, 1)))
    rotated = fl.rotated_flag(delta, g)
    closure_ok = fl.verify_flag(flag).passed and fl.verify_flag(rotated).passed

    ss = fl.flag_subsequence(flag, list(range(1, flag.depth + 1, 2)) or [1])
    prod = fl.flag_product(flag, rotated)
    grp = fl.flag_groupoid(flag)
    dims_ok = (
        list(prod.delta) == [2 * d for d in delta]
        and list(grp.delta) == [2 * d + 1 for d in delta]
        and fl.verify_flag(ss).passed
        and fl.verify_flag(prod).passed
        and fl.verify_flag(grp).passed
    )

    # subsequence of subsequence composes as index composition
    s1 = fl.flag_subsequence(flag, [1, flag.depth])
    s2 = fl.flag_subsequence(s1, [2])
    comp_ok = list(s2.delta) == [delta[-1]]

    # hand-built violation: second level not containing the first
    broken = fl.Flag(
        fl.DimensionSequence([1, 2]),
        [sub.coordinate_span(1), sub.ComplementedSubspace(
            sub.SubspaceBasis(None, np.eye(3)[:, 1:]),
            sub.SubspaceBasis(3, np.eye(1)),
        )],
    )
    broken_report = fl.verify_flag(broken)
    caught = broken_report.statuses()["b_nesting"] == "fail"

    return check(
        "flag-constructions-and-dimension-laws",
        "flag constructors keep all defining conditions; product and groupoid ambients obey the "
        "dimension laws; violations are detected per condition",
        closure_ok and dims_ok and comp_ok and caught,
        {
            "closure": closure_ok,
            "dimension_laws": dims_ok,
            "subsequence_composition": comp_ok,
            "broken_nesting_detected": caught,
        },
    )


def _sphere_filtration(config: SuiteConfig) -> filt.Filtration:
    return filt.make_filtration_sphere(fl.standard_flag(_sphere_delta(config)))


def suite_filtration_sphere(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    f = _sphere_filtration(config)
    rep = filt.verify_filtration(f, n_samples=min(config.samples, 32), seed=config.seed)
    check(
        "sphere-filtration-conditions",
        "unit spheres of flag levels filter the ambient sphere: dimensions drop by one, nesting, "
        "normal frames and covers verify, the level distance profile decreases",
        rep.passed,
        {"conditions": rep.statuses(), "dims": list(f.delta)},
    )

    samples = f.ambient_sampler(rng_for(config, 1), min(config.samples, 16))
    profiles, monotone, deepest = filt._density_profile(f, f.depth, samples)
    profile_ok = np.isfinite(profiles).all() and monotone and deepest <= 1e-9
    ss = filt.subsequence_filtration(f, [1, f.depth])
    ss_rep = filt.verify_filtration(ss, n_samples=8, seed=config.seed)
    return check(
        "sphere-density-profile-and-subsequence",
        "projection distances decrease strictly along the levels, and subsequences stay "
        "filtrations with stacked witnesses",
        profile_ok and ss_rep.passed,
        {"profile_decreasing": profile_ok, "subsequence_passed": ss_rep.passed},
    )


def _preimage_equality_check(f: filt.Filtration, n: int, rng) -> float:
    """Project a perturbed total-space point onto the cut-out set of level n
    and measure how far it sits from the stored level."""
    fd = f.fredholm
    basis = linalg.orthonormalize(fd.flag.level(n).space.basis_matrix(fd.map.codomain_dim))
    normal = linalg.nullspace(basis.T)
    lvl = f.level(n)
    off_level = geo.compose_maps(geo.linear_map(normal.T, "normal"), fd.map, "cut")
    cut_manifold = filt._preimage_manifold(f.total, off_level, lvl.dim, "cut", [])
    s = lvl.samples[int(rng.integers(0, len(lvl.samples)))]
    seed_pt = s + 0.02 * rng.normal(size=s.size)
    x = geo.newton_project(cut_manifold, seed_pt)
    return lvl.constraint_norm(x)


def _lift_check(config: SuiteConfig, lift, dim_law):
    """The steps the lifted-filtration suites share: lift the sphere
    filtration, verify the lift, check its dimensions against ``dim_law`` of
    the base's, and cut every level out again.  Returns the base, the lift,
    the verdict so far and its residuals."""
    base = _sphere_filtration(config)
    f = lift(base)
    rep = filt.verify_filtration(f, n_samples=8, seed=config.seed)
    dims_ok = list(f.delta) == [dim_law(d) for d in base.delta]
    rng = rng_for(config, 1)
    worst = max(_preimage_equality_check(f, n, rng) for n in range(1, f.depth + 1))
    ok = rep.passed and dims_ok and worst <= config.tol
    return base, f, ok, {"dims": list(f.delta), "conditions": rep.statuses(), "preimage_residual": worst}


def suite_filtration_pair_groupoid(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    _, _, ok, residuals = _lift_check(config, filt.pair_groupoid_filtration, lambda d: 2 * d)
    return check(
        "pair-groupoid-filtration",
        "levelwise squares filter the pair groupoid with doubled dimensions, cut out by the "
        "squared map against the squared flag",
        ok,
        residuals,
    )


def suite_filtration_tangent(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    _, _, ok, residuals = _lift_check(config, filt.tangent_filtration, lambda d: 2 * d)
    return check(
        "tangent-filtration",
        "tangent lifts of the levels filter the tangent bundle with doubled dimensions; the "
        "differential of the cutting map cuts out exactly the tangent levels",
        ok,
        residuals,
    )


def suite_filtration_tangent_groupoid(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    base, f, ok, residuals = _lift_check(config, filt.tangent_groupoid_filtration, lambda d: 2 * d + 1)

    # fiber slices: nonzero-fiber samples are level pairs, zero-fiber samples tangent
    d = base.total.ambient_dim
    slices_ok = True
    for n in range(1, f.depth + 1):
        lvl_base = base.level(n)
        for z in f.level(n).samples:
            x, w, lam = z[:d], z[d : 2 * d], z[2 * d]
            if lam != 0.0:
                slices_ok = slices_ok and lvl_base.constraint_norm(x) <= 1e-8
                slices_ok = slices_ok and lvl_base.constraint_norm(x - lam * w) <= 1e-8
            else:
                g = lvl_base.constraints
                slices_ok = slices_ok and lvl_base.constraint_norm(x) <= 1e-8
                slices_ok = (
                    slices_ok and float(np.max(np.abs(g.jacobian(x) @ w), initial=0.0)) <= 1e-6
                )
    return check(
        "tangent-groupoid-filtration",
        "groupoid levels filter the tangent groupoid with dimensions doubled plus one; fiber "
        "slices match the pair and tangent levels and the induced map cuts them out",
        ok and slices_ok,
        {**residuals, "slices_consistent": slices_ok},
    )


def suite_filtration_pullbacks(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()

    # covering pullback: projective levels lift to sphere levels
    rp1 = catalog.projective_space(1, big_n=3, seed=41)
    rp2 = catalog.projective_space(2, big_n=3, seed=42)
    rpf = filt.Filtration(fl.DimensionSequence([1, 2]), [rp1, rp2], rp2)
    cov = catalog.antipodal_cover(2, big_n=3)
    pulled = filt.pullback_filtration_covering(cov, rpf)
    rep = filt.verify_filtration(pulled, n_samples=4, seed=config.seed)
    s1 = catalog.sphere(1, ambient=3)
    lift_residual = max(s1.constraint_norm(z) for z in pulled.levels[0].samples)
    fibers = {len(cov.lift(s)) for s in rp2.samples}
    check(
        "covering-pullback-antipodal",
        "filtrations pull back through finite coverings with dimensions preserved; the double "
        "cover lifts projective levels to sphere levels through both sheets",
        rep.passed and list(pulled.delta) == [1, 2] and lift_residual <= 1e-9 and fibers == {2},
        {
            "dims": list(pulled.delta),
            "lift_residual": lift_residual,
            "fiber_cardinalities": sorted(fibers),
        },
    )

    # identity covering and degenerate fold
    lin = filt.make_filtration_linear(fl.standard_flag(_sphere_delta(config)[:2]))
    d = lin.total.ambient_dim
    ident = geo.linear_map(np.eye(d), "id")
    idcov = filt.CoveringMap(
        total=lin.total, base=lin.total, projection=ident, lift=lambda q: [np.asarray(q, float)]
    )
    same = filt.pullback_filtration_covering(idcov, lin)
    same_rep = filt.verify_filtration(same, n_samples=8, seed=config.seed)
    id_ok = list(same.delta) == list(lin.delta) and same_rep.passed
    line = filt._full_space(1, [np.array([1.0]), np.array([0.0])])
    fold = filt.CoveringMap(
        total=line,
        base=line,
        projection=geo.SmoothMap(1, 1, lambda z: np.array([z[0] ** 2]), None, "fold"),
        lift=lambda q: [np.array([np.sqrt(max(q[0], 0.0))]), np.array([-np.sqrt(max(q[0], 0.0))])],
    )
    try:
        filt.pullback_filtration_covering(fold, filt.Filtration(fl.DimensionSequence([1]), [line], line))
        fold_rejected = False
    except NotCovering:
        fold_rejected = True
    check(
        "covering-pullback-identity-and-fold",
        "the identity covering reproduces the filtration; folds with degenerate differential "
        "are rejected",
        id_ok and fold_rejected,
        {"identity_preserved": id_ok, "fold_rejected": fold_rejected},
    )

    # positive-index pullback: dimension shift by the index
    rng = rng_for(config, 2)
    p = 2
    g = geo.linear_map(np.eye(d, d + p), "proj")
    ntot = filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)])
    pulled_f = filt.pullback_filtration_fredholm(g, ntot, p, lin, seeds=[rng.normal(size=d + p) for _ in range(6)])
    rep = filt.verify_filtration(pulled_f, n_samples=8, seed=config.seed)
    dims_ok = list(pulled_f.delta) == [dd + p for dd in lin.delta]
    same_f = filt.pullback_filtration_fredholm(
        ident, filt._full_space(d, [rng.normal(size=d) for _ in range(6)]), 0, lin
    )
    id_dims_ok = list(same_f.delta) == list(lin.delta)
    check(
        "positive-index-pullback",
        "preimages along a positive-index map transverse to the levels filter the source with "
        "dimensions shifted by the index",
        rep.passed and dims_ok and id_dims_ok,
        {
            "dims": list(pulled_f.delta),
            "identity_dims": list(same_f.delta),
            "conditions": rep.statuses(),
        },
    )

    # composition-transversality on manifold fixtures: with the projection g
    # transversal to the level, h is transversal to g^-1(level) exactly when
    # g o h is transversal to the level
    rng = rng_for(config, 3)
    mismatches = 0
    outcomes = {True: 0, False: 0}
    lvl_t = np.eye(d)[:, : lin.levels[0].dim]
    jg = g.jacobian(np.zeros(d + p))
    # tangent of g^-1(level): kernel of (projection off the level) o Dg
    pre_t = linalg.nullspace(linalg.nullspace(lvl_t.T).T @ jg)
    trials = min(config.samples, 32)
    for _ in range(trials):
        hmat = rng.normal(size=(d + p, d + p))
        if rng.integers(0, 2):
            hmat[0, :] = 0.0  # degenerate direction in some instances
            hmat[-1, :] = 0.0
        lhs = linalg.rank(np.hstack([hmat, pre_t])) == d + p
        rhs = linalg.rank(np.hstack([jg @ hmat, lvl_t])) == d
        outcomes[lhs] += 1
        if lhs != rhs:
            mismatches += 1
    return check(
        "composition-transversality-cross-check",
        "with the outer map transversal to a level, transversality to its preimage matches "
        "transversality of the composition, on linear manifold fixtures",
        mismatches == 0,
        {"trials": trials, "mismatches": mismatches, "true_cases": outcomes[True]},
    )


def suite_filtration_negative(config: SuiteConfig) -> list[CheckResult]:
    check = _Recorder()
    delta = _sphere_delta(config)[:2]
    lin = filt.make_filtration_linear(fl.standard_flag(delta))

    ev = filt.example_v_filtration(lin, k=2)
    rep = filt.verify_filtration(ev, n_samples=16, seed=config.seed)
    statuses = rep.statuses()
    density_failed = statuses["density"] == "fail"
    fredholm_unclaimed = statuses["fredholm"] == "not_claimed"
    others_pass = all(
        statuses[k] in ("pass", "out_of_scope", "unverified")
        for k in ("a_dimensions", "b_nesting", "c_limit_inclusion", "d_normality")
    )
    check(
        "shifted-product-fails-density",
        "zero-section levels of a product with a coordinate factor stay normal but are not "
        "dense and carry no cutting map",
        density_failed and fredholm_unclaimed and others_pass,
        {
            "density_status": statuses["density"],
            "fredholm_status": statuses["fredholm"],
            "deepest_distance": rep.conditions["density"]["evidence"].get("deepest_distance"),
        },
    )

    growth = [catalog.sphere(1, ambient=4, seed=31), catalog.sphere(2, ambient=4, seed=32)]
    mx = filt.mixed_product_filtration(lin, growth)
    rep = filt.verify_filtration(mx, n_samples=8, seed=config.seed)
    normality = rep.statuses()["d_normality"]
    check(
        "witness-free-product-unverified",
        "normality is never inferred from samples: without witnesses the verdict is "
        "unverified, not a pass or fail",
        normality == "unverified" and rep.passed,
        {"normality_status": normality},
    )

    d = lin.total.ambient_dim
    bad = geo.linear_map(np.diag(np.eye(d)[0]), "degenerate")  # keeps the first coordinate only
    rng = rng_for(config, 2)
    try:
        filt.pullback_filtration_fredholm(
            bad, filt._full_space(d, [rng.normal(size=d) for _ in range(4)]), 0, lin
        )
        raised = False
    except NotTransversal:
        raised = True
    return check(
        "non-transverse-pullback-rejected",
        "pullback along a map failing the transversality hypothesis is refused",
        raised,
        {"raised": raised},
    )


# -- registry --------------------------------------------------------------------


SUITES: dict[str, dict] = {
    "block-index-zero": {
        "claim": "lower triangular operators with index-zero diagonal are index zero; the "
        "interleaved index adds",
        "fn": suite_block_index_zero,
    },
    "retraction": {
        "claim": "the lower triangular structure group retracts onto the diagonal through "
        "invertible operators",
        "fn": suite_retraction,
    },
    "block-transversality": {
        "claim": "transversality to complemented subspaces passes to lower triangular sums with "
        "constructive witnesses",
        "fn": suite_block_transversality,
    },
    "composition-transversality": {
        "claim": "transversality to a preimage is equivalent to transversality of the composition",
        "fn": suite_composition_transversality,
    },
    "dnc-vspace-iso": {
        "claim": "deformation spaces of complemented linear pairs trivialize over the scalar line",
        "fn": suite_dnc_vspace_iso,
    },
    "dnc-product": {
        "claim": "deformation spaces of product pairs split as fibered products",
        "fn": suite_dnc_product,
    },
    "trivial-bundle": {
        "claim": "the groupoid of a trivial product is a vector bundle over the base groupoid",
        "fn": suite_trivial_bundle,
    },
    "dnc-functoriality": {
        "claim": "induced deformation and groupoid maps respect composition and identities",
        "fn": suite_dnc_functoriality,
    },
    "taylor-remainder": {
        "claim": "chart-conjugated maps deviate from their boundary limit linearly in the fiber "
        "coordinate",
        "fn": suite_taylor_remainder,
    },
    "normal-block-structure": {
        "claim": "differentials of induced normal-bundle maps are block lower triangular in "
        "adapted frames",
        "fn": suite_normal_block_structure,
    },
    "groupoid-axioms": {
        "claim": "pair composition at nonzero fiber and fiberwise addition at zero fiber form a "
        "groupoid",
        "fn": suite_groupoid_axioms,
    },
    "dnc-transversality": {
        "claim": "the deformation functor preserves transversality and preimages of deformation "
        "subspaces",
        "fn": suite_dnc_transversality,
    },
    "flag-laws": {
        "claim": "flag constructors preserve the defining conditions and obey the dimension laws",
        "fn": suite_flag_laws,
    },
    "filtration-sphere": {
        "claim": "spheres of flag levels form a dense normal filtration of the ambient sphere "
        "with dimensions shifted down by one",
        "fn": suite_filtration_sphere,
    },
    "filtration-pair-groupoid": {
        "claim": "levelwise squares filter the pair groupoid with doubled dimensions",
        "fn": suite_filtration_pair_groupoid,
    },
    "filtration-tangent": {
        "claim": "tangent lifts filter the tangent bundle with doubled dimensions",
        "fn": suite_filtration_tangent,
    },
    "filtration-tangent-groupoid": {
        "claim": "groupoid lifts filter the tangent groupoid with dimensions doubled plus one",
        "fn": suite_filtration_tangent_groupoid,
    },
    "filtration-pullbacks": {
        "claim": "filtrations pull back through coverings (dimensions preserved) and "
        "positive-index maps (dimensions shifted)",
        "fn": suite_filtration_pullbacks,
    },
    "filtration-negative": {
        "claim": "constructions violating density or lacking witnesses are reported as such, "
        "never papered over",
        "fn": suite_filtration_negative,
    },
}


def list_suites() -> list[dict]:
    return [{"suite": name, "claim": entry["claim"]} for name, entry in sorted(SUITES.items())]


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one suite.  A ``LabError`` raised inside it becomes a single
    ``error`` check, so one broken suite never hides the verdicts of the
    others; any other exception propagates."""
    if config.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {config.suite!r}; see list-suites")
    entry = SUITES[config.suite]
    record = _Recorder()
    try:
        checks = entry["fn"](config)
    except LabError as exc:
        checks = record.error(exc, entry["claim"])
    return SuiteReport(config.suite, config, checks)


def run_all(config: SuiteConfig) -> list[SuiteReport]:
    return [run_suite(config.with_suite(name)) for name in sorted(SUITES)]
