"""Outside-in tracing of one crossedprod process.

``install`` wraps the public functions of each layer and rebinds the
wrapper at every place the function is looked up: the defining module,
every crossedprod module that imported it by name, and the class
dictionaries for methods.  A wrapper installed only in the defining module
would read zero wherever the caller holds its own reference, so
``install`` ends by checking that no original is still reachable.

Spans (name, start, end, parent) and counters are held in memory and
written out once by the caller.  Hot leaf methods such as
``GroupSpec.multiply`` only count calls; a span each would cost more than
the call it measures.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import oracle

# span name -> defining (module, attribute) pairs
FUNCTION_SPANS: Dict[str, List[Tuple[str, str]]] = {
    "cli.main": [("crossedprod.cli", "main")],
    "groups.ball": [("crossedprod.groups", "ball")],
    "core.free_ball_words": [("crossedprod._core", "free_ball_words")],
    "core.free_t_count": [("crossedprod._core", "free_t_count")],
    "freecomb.count_table": [("crossedprod.freecomb", "count_table")],
    "posdef.gram_matrix": [("crossedprod.posdef", "gram_matrix")],
    "posdef.check_positive_definite": [("crossedprod.posdef", "check_positive_definite")],
    "posdef.folner_overlap": [("crossedprod.posdef", "folner_overlap")],
    "summation.folner_study": [("crossedprod.summation", "folner_study")],
    "summation.sup_norm_grid": [("crossedprod.summation", "sup_norm_grid")],
    "linalg.eigvalsh": [("numpy.linalg", "eigvalsh")],
    "crossed.make_context": [("crossedprod.crossed", "make_context")],
    "crossed.theta_embed": [("crossedprod.crossed", "theta_embed")],
    "crossed.phi_hom": [("crossedprod.crossed", "phi_hom")],
    "crossed.fourier_coefficient": [("crossedprod.crossed", "fourier_coefficient")],
    "crossed.op_norm": [("crossedprod.crossed", "op_norm")],
    "sigma.make_pair": [("crossedprod.sigma", "make_pair")],
    "sigma.sigma_coefficients": [("crossedprod.sigma", "sigma_coefficients")],
    "sigma.tau_u": [("crossedprod.sigma", "tau_u")],
    "sigma.cp_check": [("crossedprod.sigma", "cp_check")],
    "sigma.check_condition_ii": [("crossedprod.sigma", "check_condition_ii")],
    "sigma.pi_projection": [("crossedprod.sigma", "pi_projection")],
    "sigma.pi_amplification": [("crossedprod.sigma", "pi_amplification")],
    "sigma.random_inputs": [
        ("crossedprod.sigma", "random_psd"),
        ("crossedprod.sigma", "random_window_operator"),
        ("crossedprod.sigma", "random_crossed_element"),
    ],
}

# counter name -> defining (module, attribute)
FUNCTION_COUNTS: Dict[str, Tuple[str, str]] = {
    "core.free_mul.calls": ("crossedprod._core", "free_mul"),
    "freecomb.t_count_bruteforce.calls": ("crossedprod.freecomb", "t_count_bruteforce"),
    "freecomb.t_count_closed.calls": ("crossedprod.freecomb", "t_count_closed"),
    "summation.cesaro_mean.calls": ("crossedprod.summation", "cesaro_mean"),
}

# counter name -> (module, class, method names); GroupSpec methods are
# counted on every subclass that defines them
METHOD_COUNTS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "posdef.pdfunction.calls": ("crossedprod.posdef", "PdFunction", ("__call__",)),
    "crossed.alpha.calls": ("crossedprod.crossed", "CrossedContext", ("alpha", "alpha_by_perm")),
    "crossed.expectation_apply.calls": ("crossedprod.crossed", "ExpectationSpec", ("apply",)),
}
GROUP_METHODS = ("multiply", "validate", "word_length")

# cached properties timed as spans
PROPERTY_SPANS = {
    "crossed.mul_table": ("crossedprod.crossed", "CrossedContext", "mul_table"),
    "crossed.rel_table": ("crossedprod.crossed", "CrossedContext", "rel_table"),
}


def ball_scan_size(spec, n: int) -> int:
    """Candidates a ball enumeration visits: the whole box for a lattice,
    the whole group for a cyclic group, the product of the factor balls for
    a product, and exactly the ball for Z and free groups."""
    kind = type(spec).__name__
    if kind == "IntegerLattice":
        return (2 * n + 1) ** spec.d
    if kind == "Cyclic":
        return spec.n
    if kind == "ProductGroup":
        return math.prod(oracle.ball_size(f.label, n) for f in spec.factors)
    return oracle.ball_size(spec.label, n)


def folner_set_size(spec, n: int) -> int:
    """|F_n| of the built-in averaging sequence: {0..n} per Z coordinate,
    the whole group per cyclic factor."""
    kind = type(spec).__name__
    if kind == "Integers":
        return n + 1
    if kind == "IntegerLattice":
        return (n + 1) ** spec.d
    if kind == "Cyclic":
        return spec.n
    return math.prod(folner_set_size(f, n) for f in spec.factors)


def _ball_sizes(tracer, result, *args, **kwargs):
    tracer.counts["groups.ball.elements"] += len(result)
    tracer.counts["groups.ball.scanned"] += ball_scan_size(result.spec, result.radius)


def _gram_sizes(tracer, result, *args, **kwargs):
    tracer.counts["posdef.gram_matrix.entries"] += result.size


def _folner_sizes(tracer, result, spec, n, *args, **kwargs):
    tracer.counts["posdef.folner_overlap.set_elements"] += folner_set_size(spec, n)


def _grid_sizes(tracer, result, f, g, grid_points, **kwargs):
    tracer.counts["summation.sup_norm_grid.points"] += grid_points


def _record_dim(counts, prefix, dim):
    counts[prefix + ".dim_max"] = max(counts[prefix + ".dim_max"], dim)
    counts[prefix + ".n3"] += dim**3


def _eigvalsh_sizes(tracer, result, a, *args, **kwargs):
    _record_dim(tracer.counts, "linalg.eigvalsh", np.shape(a)[-1])


def _remember_block_diagonal(tracer, result, *args, **kwargs):
    tracer.block_diagonal[id(result)] = result


def _op_norm_sizes(tracer, result, x, *args, **kwargs):
    _record_dim(tracer.counts, "crossed.op_norm", x.data.shape[0])
    # block-diagonal by construction, whatever values the blocks hold
    if tracer.block_diagonal.get(id(x)) is x:
        tracer.counts["crossed.op_norm.blockdiag"] += 1


SIZERS: Dict[str, Callable] = {
    "groups.ball": _ball_sizes,
    "posdef.gram_matrix": _gram_sizes,
    "posdef.folner_overlap": _folner_sizes,
    "summation.sup_norm_grid": _grid_sizes,
    "linalg.eigvalsh": _eigvalsh_sizes,
    "crossed.fourier_coefficient": _remember_block_diagonal,
    "crossed.op_norm": _op_norm_sizes,
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.counts: Dict[str, float] = defaultdict(int)
        # Fourier coefficients still alive, by id
        self.block_diagonal = weakref.WeakValueDictionary()
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so each call records a span and bumps ``<name>.calls``."""
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
                counts[calls] += 1
            if sizer is not None:
                sizer(self, result, *args, **kwargs)
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def _crossedprod_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "crossedprod"]


def _references(modules):
    """Yield (where, value) for every module global, one level into
    containers, and every default argument of module functions and methods."""
    for m in modules:
        for attr, value in vars(m).items():
            where = f"{m.__name__}.{attr}"
            yield where, value
            if isinstance(value, (list, tuple, dict)):
                items = value.values() if isinstance(value, dict) else value
                for item in items:
                    yield where + "[...]", item
            members = vars(value).values() if isinstance(value, type) else [value]
            for member in members:
                for default in getattr(member, "__defaults__", None) or ():
                    yield where + " default", default


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the already imported crossedprod package."""
    import crossedprod.cli  # noqa: F401  (loads every layer)

    wrappers = {}  # id(original) -> (original, wrapper)
    for name, sites in FUNCTION_SPANS.items():
        for module, attr in sites:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, tracer.span(name, fn))
    for key, (module, attr) in FUNCTION_COUNTS.items():
        fn = getattr(sys.modules[module], attr)
        wrappers[id(fn)] = (fn, tracer.counter(key, fn))

    modules = _crossedprod_modules()
    for m in modules + [np.linalg]:
        for attr, value in list(vars(m).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(m, attr, hit[1])

    groups = sys.modules["crossedprod.groups"]
    pending = list(groups.GroupSpec.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for meth in GROUP_METHODS:
            if meth in vars(cls):
                _wrap_method(tracer, wrappers, f"groups.{meth}.calls", cls, meth)
    for key, (module, cls_name, methods) in METHOD_COUNTS.items():
        cls = getattr(sys.modules[module], cls_name)
        for meth in methods:
            _wrap_method(tracer, wrappers, key, cls, meth)
    for name, (module, cls_name, attr) in PROPERTY_SPANS.items():
        cls = getattr(sys.modules[module], cls_name)
        prop = vars(cls)[attr]
        wrapped = type(prop)(tracer.span(name, prop.func))
        wrapped.__set_name__(cls, attr)
        wrappers[id(prop.func)] = (prop.func, wrapped)
        setattr(cls, attr, wrapped)

    stale = [
        where
        for where, value in _references(modules)
        if id(value) in wrappers and wrappers[id(value)][0] is value
    ]
    if stale:
        raise RuntimeError(f"untraced lookup sites: {', '.join(sorted(stale))}")


def _wrap_method(tracer, wrappers, key, cls, meth):
    fn = vars(cls)[meth]
    wrappers[id(fn)] = (fn, tracer.counter(key, fn))
    setattr(cls, meth, wrappers[id(fn)][1])


def span_times(names: List[str], spans: List[Tuple[int, float, float, int]]) -> Dict[str, float]:
    """``<name>.s`` (inclusive) and ``<name>.self_s`` summed per span name.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on the single traced thread.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for (nid, start, end, _), inner in zip(spans, child_time):
        out[names[nid] + ".s"] += end - start
        out[names[nid] + ".self_s"] += end - start - inner
    return out
