"""Per-layer tracing of dnclab from outside the package.

:meth:`Tracer.install` wraps the public functions and methods of every
dnclab module (plus the dunder methods that do work, such as
``SmoothMap.__call__`` and ``SequenceOperator.__init__``, and the private
choke points in ``PRIVATE_CHOKE_POINTS``) and rebinds every
module-level alias of a wrapped function, so ``from .geometry import
newton_project`` in ``filtration`` and the ``SUITES`` registry in ``suites``
call the wrapper too. Nothing under ``src/`` is edited.

Each wrapped call charges its duration, minus the time of the wrapped calls
it makes, to its module's self time, so the layer self times of a pass add
up to the pass, less the time :meth:`Tracer.exclude` is told of. Counters
(map evaluations, SVDs with computed flops and bytes, canonicalisations,
...) are taken at the same boundaries. Calls made
up to hundreds of thousands of times a pass (``HOT``) only feed counters;
the first ``SPANS_PER_FUNCTION`` calls of every other function are also kept
as spans in memory and written out once by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "dnclab"
LAYERS = (
    "catalog",
    "cli",
    "dnc",
    "filtration",
    "flags",
    "geometry",
    "linalg",
    "operators",
    "report",
    "subspaces",
    "suites",
)
# Counters only, never spans: the leaf calls made 10^4 to 10^6 times a pass.
HOT = frozenset(
    {
        "geometry.SmoothMap.__call__",
        "geometry.SmoothMap.jacobian",
        "geometry.numeric_jacobian",
        "linalg.rank",
        "linalg.nullspace",
        "linalg.orthonormalize",
        "linalg.complement_within",
        "linalg.min_norm_lstsq",
        "linalg.pad_to",
        "linalg.trim",
    }
)
# Every other function keeps spans for its first calls only, which bounds
# the spans held in memory by this times the number of wrapped functions.
SPANS_PER_FUNCTION = 256
# Private functions wrapped as well: the Newton tubular inversion behind
# every chart inverse, which taylor_probe also calls directly.
PRIVATE_CHOKE_POINTS = frozenset({"dnc._tubular_inverse"})
# Dunder methods left unwrapped: attribute protocol, hashing and display.
SKIP_DUNDERS = frozenset(
    {
        "__repr__",
        "__str__",
        "__hash__",
        "__getattr__",
        "__getattribute__",
        "__setattr__",
        "__delattr__",
        "__new__",
        "__init_subclass__",
        "__class_getitem__",
    }
)
FILTRATION_CONSTRUCTORS = frozenset(
    {
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
        "filtration_from_spec",
    }
)


def metric_units(suites: tuple) -> dict:
    """Every per-layer metric the tracer reports, with its unit; ``suites``
    names the suites that get a ``suites.<suite>_s`` entry."""
    units = {
        "linalg.svd_calls": "count",
        "linalg.svd_flops": "flop-computed",
        "linalg.svd_bytes": "B-computed",
        "linalg.lstsq_calls": "count",
        "geometry.map_evals": "count",
        "geometry.jacobians_analytic": "count",
        "geometry.jacobians_fd": "count",
        "geometry.fd_map_evals_per_jacobian": "ratio",
        "geometry.newton_calls": "count",
        "geometry.newton_failures": "count",
        "geometry.newton_jacobians": "count",
        "geometry.fd_s": "s",
        "operators.seqop_built": "count",
        "operators.canon_s": "s",
        "operators.compose_calls": "count",
        "operators.dense_truncations": "count",
        "operators.dense_elems": "count",
        "operators.index_calls": "count",
        "operators.stabilization_failures": "count",
        "operators.truncation_levels_max": "count",
        "operators.transversality_calls": "count",
        "subspaces.basis_matrix_calls": "count",
        "flags.verify_calls": "count",
        "catalog.fixtures_built": "count",
        "dnc.chart_inverse_calls": "count",
        "dnc.map_calls": "count",
        "dnc.groupoid_ops": "count",
        "filtration.construct_s": "s",
        "filtration.verify_s": "s",
        "report.canonical_json_s": "s",
    }
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"suites.{suite}_s": "s" for suite in suites})
    return units


def svd_cost(shape: tuple, mode: str) -> tuple[float, int]:
    """(flops, bytes) of one SVD of a ``shape`` matrix, computed, not measured.

    Flops are Golub & Van Loan's Golub-Reinsch counts for singular values
    only (``values``), thin U with V (``thin``) or full U and V (``full``);
    bytes are 8 per float64 read (the input) or written (the factors).
    """
    m, n = (1, 1) if len(shape) == 0 else (1, shape[0]) if len(shape) == 1 else shape[-2:]
    k = min(m, n)
    big, small = max(m, n), k
    if mode == "values":
        flops = 4 * big * small**2 - 4 * small**3 / 3
        out = k
    elif mode == "thin":
        flops = 14 * big * small**2 + 8 * small**3
        out = m * k + k + k * n
    else:
        flops = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
        out = m * m + k + n * n
    return flops, 8 * (m * n + out)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Layer self times, counters and spans for the passes it runs."""

    def __init__(self):
        # A frame is [seconds spent in wrapped calls made from it, key, its
        # span index or -1, index of the nearest kept span among it and its callers].
        self.stack = [[0.0, "", -1, -1]]
        self.spans = []  # [key, start, end, parent span index]
        self.calls = defaultdict(int)  # key -> calls, over every traced pass
        self.inclusive_s = defaultdict(float)  # key -> inclusive seconds
        # Per-pass state; cleared, never replaced, because wrappers hold it.
        self.self_s = defaultdict(float)  # layer -> seconds
        self.count = defaultdict(int)  # metric -> value
        self.depth = defaultdict(int)  # nesting of FD, constructor, ... frames
        self._installed = False
        self._last_stabilization_failure = None

    # -- running --------------------------------------------------------------

    def run_pass(self, fn, layer: str):
        """Run ``fn()`` as one pass whose time outside wrapped calls is charged
        to ``layer``; returns (its result, its per-layer metrics)."""
        self.self_s.clear()
        self.count.clear()
        self.depth.clear()
        frame = [0.0, f"{layer}.<pass>", len(self.spans), len(self.spans)]
        self.spans.append([frame[1], 0.0, 0.0, -1])
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            d = time.perf_counter() - t0
            self.stack.pop()
            self.self_s[layer] += d - frame[0]
            self.spans[frame[2]][1:3] = t0, t0 + d
        return out, self._metrics()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` just spent outside dnclab (a speed probe) to
        no layer: it counts as time in a wrapped call of the running frame."""
        self.stack[-1][0] += seconds

    def _metrics(self) -> dict:
        metrics = dict(self.count)
        fd_evals = metrics.pop("geometry.fd_map_evals", 0)
        fd = metrics.get("geometry.jacobians_fd", 0)
        metrics["geometry.fd_map_evals_per_jacobian"] = fd_evals / fd if fd else 0.0
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
        return metrics

    def dump(self, path: str, extra: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = dict(extra)
        payload["spans"] = [[k, s - origin, e - origin, p] for k, s, e, p in self.spans]
        payload["calls"] = dict(sorted(self.calls.items()))
        payload["inclusive_s"] = dict(sorted(self.inclusive_s.items()))
        with open(path, "w") as fh:
            json.dump(payload, fh)

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer and rebind every alias; raises if an alias of an
        unwrapped original is still reachable afterwards."""
        if self._installed:
            return
        self._installed = True
        wrapped = {}  # id(original) -> (original, wrapper)
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        errors = importlib.import_module(f"{PACKAGE}.errors")
        self._no_convergence = errors.NoConvergence
        self._stabilization_failure = errors.StabilizationFailure
        self._smooth_map = importlib.import_module(f"{PACKAGE}.geometry").SmoothMap
        self._suite_names = {
            id(entry["fn"]): name
            for name, entry in importlib.import_module(f"{PACKAGE}.suites").SUITES.items()
        }
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not name.startswith("_") or f"{layer}.{name}" in PRIVATE_CHOKE_POINTS
                if inspect.isfunction(obj) and public:
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                else:
                    _rebind_in(value, wrapped)
        left = [f"{mod.__name__}.{name}" for mod in modules for name, v in vars(mod).items()
                if not name.startswith("__") and _reaches_original(v, wrapped)]
        if left:
            raise RuntimeError(f"unwrapped aliases remain: {', '.join(left)}")

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (name.startswith("__") and name not in SKIP_DUNDERS):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, key))

    def _wrap(self, fn, layer: str, key: str):
        stack, spans, self_s = self.stack, self.spans, self.self_s
        calls, inclusive_s = self.calls, self.inclusive_s
        perf = time.perf_counter
        span_budget = [0 if key in HOT else SPANS_PER_FUNCTION]
        pre, post = self._hooks(fn, layer, key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            parent = stack[-1]
            if span_budget[0]:
                span_budget[0] -= 1
                frame = [0.0, key, len(spans), len(spans)]
                spans.append([key, 0.0, 0.0, parent[3]])
            else:
                frame = [0.0, key, -1, parent[3]]
            stack.append(frame)
            exc = None
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                d = perf() - t0
                stack.pop()
                self_s[layer] += d - frame[0]
                parent[0] += d
                calls[key] += 1
                inclusive_s[key] += d
                if frame[2] >= 0:
                    spans[frame[2]][1:3] = t0, t0 + d
                if post is not None:
                    post(args, kwargs, d, exc, parent)

        return wrapper

    # -- counters -------------------------------------------------------------

    def _hooks(self, fn, layer: str, key: str):
        """(pre, post) callables feeding this function's counters, or None.

        ``pre(args)`` runs before the call and returns the arguments to pass;
        ``post(args, kwargs, seconds, exception, parent frame)`` runs after.
        """
        count, depth = self.count, self.depth
        name = key.split(".", 1)[1]

        def counter(metric):
            def post(args, kwargs, d, exc, parent):
                count[metric] += 1
            return post

        def nested(kind, metric, seconds_metric):
            """Count every call; time only the outermost of nested calls."""
            def pre(args):
                depth[kind] += 1
                return args

            def post(args, kwargs, d, exc, parent):
                depth[kind] -= 1
                if metric:
                    count[metric] += 1
                if depth[kind] == 0:
                    count[seconds_metric] += d
            return pre, post

        if key == "geometry.SmoothMap.__call__":
            def post(args, kwargs, d, exc, parent):
                count["geometry.map_evals"] += 1
                if depth["fd"]:
                    count["geometry.fd_map_evals"] += 1
            return None, post
        if key == "geometry.numeric_jacobian":
            pre_fd, post_fd = nested("fd", "geometry.jacobians_fd", "geometry.fd_s")
            smooth_map = self._smooth_map

            def pre(args):
                # numeric_jacobian is handed plain callables (SmoothMap.fn);
                # count their evaluations as SmoothMap.__call__ counts its own.
                f = args[0] if args else None
                if f is not None and not isinstance(f, smooth_map):
                    def counted(x, _f=f):
                        count["geometry.map_evals"] += 1
                        count["geometry.fd_map_evals"] += 1
                        return _f(x)
                    args = (counted,) + args[1:]
                return pre_fd(args)
            return pre, post_fd
        if key == "geometry.SmoothMap.jacobian":
            def post(args, kwargs, d, exc, parent):
                if args[0].jac is not None:
                    count["geometry.jacobians_analytic"] += 1
                if parent[1] == "geometry.newton_project":
                    count["geometry.newton_jacobians"] += 1
            return None, post
        if key == "geometry.newton_project":
            no_convergence = self._no_convergence

            def post(args, kwargs, d, exc, parent):
                count["geometry.newton_calls"] += 1
                if isinstance(exc, no_convergence):
                    count["geometry.newton_failures"] += 1
            return None, post
        if key in ("linalg.rank", "linalg.nullspace", "linalg.orthonormalize"):
            mode = {"rank": "values", "nullspace": "full", "orthonormalize": "thin"}[name]
            import numpy as np

            def post(args, kwargs, d, exc, parent):
                shape = np.shape(args[0] if args else next(iter(kwargs.values())))
                if 0 in shape:
                    return  # no SVD is run on an empty matrix
                flops, nbytes = svd_cost(shape, mode)
                count["linalg.svd_calls"] += 1
                count["linalg.svd_flops"] += int(flops)
                count["linalg.svd_bytes"] += int(nbytes)
            return None, post
        if key == "linalg.min_norm_lstsq":
            return None, counter("linalg.lstsq_calls")
        if key == "operators.SequenceOperator.__init__":
            return nested("canon", "operators.seqop_built", "operators.canon_s")
        if key == "operators.SequenceOperator.compose":
            return None, counter("operators.compose_calls")
        if key == "operators.SequenceOperator.to_dense":
            def post(args, kwargs, d, exc, parent):
                rows, cols = int(_arg(args, kwargs, 1, "rows")), int(_arg(args, kwargs, 2, "cols"))
                count["operators.dense_truncations"] += 1
                count["operators.dense_elems"] += rows * cols
                if cols > count["operators.truncation_levels_max"]:
                    count["operators.truncation_levels_max"] = cols
            return None, post
        if key == "operators.BlockOperator.stacked_dense":
            def post(args, kwargs, d, exc, parent):
                level = int(_arg(args, kwargs, 1, "level"))
                if level > count["operators.truncation_levels_max"]:
                    count["operators.truncation_levels_max"] = level
            return None, post
        if key in (
            "operators.fredholm_index",
            "operators.BlockOperator.fredholm_index",
            "operators.is_transversal",
            "operators.block_is_transversal",
        ):
            metric = "operators.index_calls" if "fredholm" in key else "operators.transversality_calls"
            failure = self._stabilization_failure

            def post(args, kwargs, d, exc, parent):
                count[metric] += 1
                # one failure passes through every enclosing wrapper: count it once
                if isinstance(exc, failure) and exc is not self._last_stabilization_failure:
                    self._last_stabilization_failure = exc
                    count["operators.stabilization_failures"] += 1
            return None, post
        if key == "subspaces.SubspaceBasis.basis_matrix":
            return None, counter("subspaces.basis_matrix_calls")
        if key == "flags.verify_flag":
            return None, counter("flags.verify_calls")
        if layer == "catalog" and inspect.isfunction(fn) and "." not in name:
            def post(args, kwargs, d, exc, parent):
                if not parent[1].startswith("catalog."):
                    count["catalog.fixtures_built"] += 1
            return None, post
        if key == "dnc._tubular_inverse":
            return None, counter("dnc.chart_inverse_calls")
        if key in ("dnc.dnc_map", "dnc.tg_map"):
            return None, counter("dnc.map_calls")
        if key in ("dnc.tg_compose", "dnc.tg_inverse", "dnc.tg_unit"):
            return None, counter("dnc.groupoid_ops")
        if layer == "filtration" and name in FILTRATION_CONSTRUCTORS:
            return nested("construct", None, "filtration.construct_s")
        if key == "filtration.verify_filtration":
            return nested("verify", None, "filtration.verify_s")
        if key == "report.canonical_json":
            return nested("canonical_json", None, "report.canonical_json_s")
        if id(fn) in self._suite_names:
            return nested("suite", None, f"suites.{self._suite_names[id(fn)]}_s")
        return None, None


def _rebind_in(value, wrapped, _depth=0) -> None:
    """Replace originals held in module-level dicts and lists (such as the
    suite registry) by their wrappers, in place."""
    if _depth > 3:
        return
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    for k, v in items:
        hit = wrapped.get(id(v))
        if hit is not None and hit[0] is v:
            value[k] = hit[1]
        else:
            _rebind_in(v, wrapped, _depth + 1)


def _reaches_original(value, wrapped, _depth=0) -> bool:
    hit = wrapped.get(id(value))
    if hit is not None and hit[0] is value:
        return True
    if _depth > 3:
        return False
    if isinstance(value, dict):
        return any(_reaches_original(v, wrapped, _depth + 1) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_reaches_original(v, wrapped, _depth + 1) for v in value)
    return False
