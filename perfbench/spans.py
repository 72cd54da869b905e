"""Per-layer spans for the traced run, recorded from outside the library.

The tracer replaces public names of the ``solvgeom`` modules with wrappers at
run time.  Every module namespace that holds the original object gets the
wrapper, so a call one module makes into another (``symtwist`` building a
``MetricLieAlgebra``, ``so6family`` calling ``sectional``) lands in the
callee's span.  Nothing under ``src/`` is edited; ``uninstall`` puts the
originals back.

A span's self time is its duration minus the durations of its direct
children.  The benchmark opens one root span, ``bench``, around the traced
phase, so the self times of all spans add up to that phase's wall time.
"""

import functools
import inspect
import time
from collections import Counter

# span name -> (module, public names routed into that span)
LAYERS = (
    ("cli.verify", "cli", ("main",)),
    ("algebra.deserialize", "algebra", ("deserialize",)),
    ("algebra.validate", "algebra", ("validate",)),
    ("algebra.iwasawa", "algebra", ("iwasawa_check",)),
    ("curvature.sectional", "curvature", ("sectional",)),
    ("curvature.ricci", "curvature", ("ricci",)),
    ("curvature.einstein", "curvature", ("einstein_verdict",)),
    ("curvature.eigtype", "curvature", ("eigenvalue_type",)),
    ("curvature.reduction", "curvature", ("rank_one_reduction",)),
    ("carnot.search", "carnot", ("search_uniform",)),
    ("carnot.classify", "carnot", ("classify_uniform_so4",)),
    ("carnot.build", "carnot", ("build_solvmanifold",)),
    ("so6family.angles", "so6family", ("angle_to_centralizer", "bracket_angle")),
    ("so6family.margin", "so6family", ("negative_curvature_margin",)),
    ("so6family.report", "so6family", ("family_report",)),
    ("symtwist.build", "symtwist", (
        "build_so_pq", "build_su_pq", "build_sp_pq", "build_so_nH",
        "build_sl_nH", "build_type_iv_sl", "build_sl_nR",
    )),
    ("symtwist.twist", "symtwist", ("twist",)),
    ("symtwist.enumerate", "symtwist", ("enumerate_twists",)),
    ("symtwist.table", "symtwist", ("bracket_table",)),
)
CONSTRUCT = "algebra.construct"
ROOT = "bench"
SEARCH_HIT_RESIDUAL = 1e-8


class Tracer:
    """Collects spans in memory and counters at the same layer boundaries."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def totals(self):
        """{span name: (calls, self seconds)} over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[idx]
        return {name: (calls[name], self_s[name]) for name in calls}

    # -- run-time wrapping ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(fn, args, kwargs, result)
            return result
        return wrapper

    def _count_search(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["carnot.search.restarts"] += bound.arguments["restarts"]
        if result.residual <= SEARCH_HIT_RESIDUAL:
            self.counts["carnot.search.hits"] += 1

    def install(self, modules):
        """Route the LAYERS names and MetricLieAlgebra construction into spans.

        `modules` maps short names (``algebra``, ``cli``, ...) to the imported
        modules; every one of them is searched for references to replace.
        """
        namespaces = list(modules.values())
        for span_name, module_name, attrs in LAYERS:
            for attr in attrs:
                orig = getattr(modules[module_name], attr)
                after = self._count_search if span_name == "carnot.search" else None
                wrapped = self._wrap(span_name, orig, after)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapped)
                            self._patches.append((ns, key, orig))

        cls = modules["algebra"].MetricLieAlgebra
        orig_init = cls.__init__
        tracer = self

        def __init__(alg, *args, **kwargs):
            tracer.open(CONSTRUCT)
            try:
                orig_init(alg, *args, **kwargs)
            finally:
                tracer.close()
            # bytes of one dense dim^3 float64 tensor, computed, not measured
            tracer.counts["algebra.construct.tensor_mb"] += 8 * alg.dim ** 3 / 1e6

        cls.__init__ = __init__
        self._patches.append((cls, "__init__", orig_init))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()
