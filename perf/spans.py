"""In-memory span tracing around the public functions of the spectel package.

:func:`traced` rebinds every public function of the ``target``, ``kernels``,
``bounds``, ``cube_corner`` and ``cli`` modules, the constructors of the
package's validated value classes, and ``numpy.linalg.eigvalsh``/``eigvals``,
in every ``spectel`` module namespace that holds them (``bounds`` binds its
own ``gibbs_kernel`` through ``from .kernels import ...``, so that name is
rebound there too).  Each call records a span -- name, start, end, parent --
in flat arrays; nothing is written until the run ends.  Leaving the context
restores every original binding, so the package source is never edited.

:func:`layer_metrics` turns the spans into the per-layer metrics named in
``BENCHMARK.json``.  Self time is a span's duration minus the time covered by
its child spans; the package runs single-threaded (``SPECTEL_THREADS`` unset),
so child spans never overlap each other.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYER_MODULES = ("target", "kernels", "bounds", "cube_corner", "cli")

# Value classes whose constructors validate their input; construction cost is
# attributed to the layer that defines the class.
CONSTRUCTORS = {
    "target": {"FiniteTarget": "__init__", "CondContext": "__post_init__"},
    "kernels": {"WeightedKernel": "__init__"},
    "bounds": {"InfluenceMatrix": "__init__"},
    "cube_corner": {"OrthoBasis": "__init__"},
}

EIGENSOLVERS = ("eigvalsh", "eigvals")

# The CLI entry point wraps every op.  Its own time (argument parsing and
# dispatch) is counted as unattributed, not as cli layer time, so that
# trace.unattributed_s measures something that a missing wrapper would raise.
DISPATCH = ("cli.main",)


class Tracer:
    """Span recorder: flat arrays of name id, parent index, start and end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.kernel_orders: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def _wrap_function(tracer: Tracer, fn, name: str, after=None):
    # open/close are inlined: this wrapper runs ~500k times per finite-many op.
    name_id = tracer.intern(name)
    ids, parents, starts, ends, stack = tracer.name_id, tracer.parent, tracer.start, tracer.end, tracer._stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(starts)
        ids.append(name_id)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(idx)
        starts.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = perf_counter()
            stack.pop()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, on_yield):
    """Each resumption of the generator is one span; the body runs only inside them."""
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name_id)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            on_yield(args, item)
            yield item

    return wrapper


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module.__name__:
            yield attr, value


def _hooks(tracer: Tracer, kernels_module):
    counters = tracer.counters

    def kernel_built(args, result):
        if isinstance(result, kernels_module.WeightedKernel):
            counters["kernels_built"] += 1
            tracer.kernel_orders.append(result.order)

    def eigensolve(args, result):
        order = int(np.shape(args[0])[0])
        counters["eigensolve_n3"] += order**3

    def sampled(args, result):
        counters["sampler_steps"] += int(len(result))

    def chain_ran(args, result):
        counters["corner_chain_steps"] += int(args[1])

    def context_yielded(args, ctx):
        counters[f"contexts_level_{args[0].n - ctx.size}"] += 1

    return {
        "kernels": kernel_built,
        "eigensolve": eigensolve,
        "kernels.sample_gibbs_chain": sampled,
        "cube_corner.run_corner_chain": chain_ran,
        "target.supported_contexts": context_yielded,
    }


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind the package's public functions to span-recording wrappers."""
    import importlib

    modules = {name: importlib.import_module(f"spectel.{name}") for name in LAYER_MODULES}
    hooks = _hooks(tracer, modules["kernels"])
    replacements = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                wrapper = _wrap_generator(tracer, fn, name, hooks[name])
            else:
                after = hooks.get(name) or (hooks["kernels"] if layer == "kernels" else None)
                wrapper = _wrap_function(tracer, fn, name, after)
            replacements[id(fn)] = (fn, wrapper)

    restore = []
    namespaces = [m for n, m in list(sys.modules.items()) if n == "spectel" or n.startswith("spectel.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
                restore.append((namespace, attr, value))
    for layer, classes in CONSTRUCTORS.items():
        for cls_name, method in classes.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap_function(tracer, original, f"{layer}.{cls_name}"))
            restore.append((cls, method, original))
    for solver in EIGENSOLVERS:
        original = getattr(np.linalg, solver)
        setattr(np.linalg, solver, _wrap_function(tracer, original, f"linalg.{solver}", hooks["eigensolve"]))
        restore.append((np.linalg, solver, original))
    try:
        yield modules
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class SpanTable:
    """Vectorised views of a tracer's spans for metric derivation."""

    def __init__(self, tracer: Tracer) -> None:
        arr = tracer.arrays()
        self.names = list(arr["names"])
        self.name_id = arr["name_id"]
        self.parent = arr["parent"]
        self.dur = arr["end"] - arr["start"]
        self.start = arr["start"]
        self.end = arr["end"]
        child = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child

    def mask(self, *names: str, parent: str | None = None) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        sel = np.isin(self.name_id, ids)
        if parent is not None:
            if parent not in self.names:
                return np.zeros_like(sel)
            pid = self.names.index(parent)
            parent_name = np.where(self.parent >= 0, self.name_id[self.parent], -1)
            sel &= parent_name == pid
        return sel

    def count(self, *names: str, parent: str | None = None) -> int:
        return int(self.mask(*names, parent=parent).sum())

    def inclusive(self, *names: str, parent: str | None = None) -> float:
        return float(self.dur[self.mask(*names, parent=parent)].sum())

    def outermost(self, *names: str) -> float:
        """Duration of spans in ``names`` that have no ancestor in ``names``."""
        sel = self.mask(*names)
        covered = np.zeros(len(sel), dtype=bool)
        for idx in np.flatnonzero(sel):
            p = self.parent[idx]
            while p >= 0 and not sel[p]:
                p = self.parent[p]
            covered[idx] = p >= 0
        return float(self.dur[sel & ~covered].sum())

    def self_of(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def layer_self(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        names = [n for n in self.names if n.startswith(layer + ".") and n not in exclude]
        return self.self_of(*names)

    def covered_time(self, transparent: tuple[str, ...] = ()) -> float:
        """Wall time covered by spans not in ``transparent``.

        A transparent span covers nothing itself; its children count as if
        they were top-level spans.
        """
        clear = self.mask(*transparent)
        top = np.ones(len(clear), dtype=bool)  # every ancestor is transparent
        for idx in range(len(clear)):  # parents are recorded before children
            p = self.parent[idx]
            top[idx] = p < 0 or (clear[p] and top[p])
        return float(self.dur[top & ~clear].sum())


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, contexts: int, lines_emitted: int) -> dict[str, float]:
    """Per-layer metrics (values only) from one traced pass.

    ``contexts`` is the number of supported contexts of the verified targets,
    counted from the inputs by the benchmark; it is the base of the
    per-context ratios.
    """
    t = SpanTable(tracer)
    c = tracer.counters
    summaries = t.count("kernels.spectral_summary")
    orders = tracer.kernel_orders
    return {
        "target.contexts": contexts,
        "target.enumerate_s": t.inclusive("target.supported_contexts"),
        "target.ingest_s": t.outermost("target.load_target", "target.target_from_dict", "target.FiniteTarget"),
        "target.self_s": t.layer_self("target"),
        "target.free_indices_calls": t.count("target.free_indices"),
        "target.conditional_tensor_calls_per_context": t.count("target.conditional_tensor") / contexts
        if contexts
        else 0.0,
        "kernels.gibbs_kernel_s": t.inclusive("kernels.gibbs_kernel"),
        "kernels.gibbs_kernel_calls": t.count("kernels.gibbs_kernel"),
        "kernels.walk_kernel_s": t.inclusive("kernels.random_walk_kernel", "kernels.altered_random_walk_kernel"),
        "kernels.walk_kernel_calls": t.count("kernels.random_walk_kernel", "kernels.altered_random_walk_kernel"),
        "kernels.spectral_summary_s": t.self_of("kernels.spectral_summary"),
        "kernels.eigensolve_s": t.inclusive("linalg.eigvalsh", "linalg.eigvals"),
        "kernels.eigensolves": t.count("linalg.eigvalsh", "linalg.eigvals"),
        "kernels.eigensolves_per_summary": t.count("linalg.eigvalsh", "linalg.eigvals", parent="kernels.spectral_summary")
        / summaries
        if summaries
        else 0.0,
        "kernels.eigensolve_n3": c["eigensolve_n3"],
        "kernels.kernels_built": c["kernels_built"],
        "kernels.max_kernel_order": max(orders, default=0),
        "kernels.dense_bytes_peak_computed": 8 * max(orders, default=0) ** 2,
        "kernels.sample_gibbs_chain_s": t.inclusive("kernels.sample_gibbs_chain"),
        "kernels.sampler_steps_per_s": _rate(c["sampler_steps"], t.inclusive("kernels.sample_gibbs_chain")),
        "bounds.gap_profile_self_s": t.self_of("bounds.gap_profile"),
        "bounds.telescope_verify_s": t.inclusive("bounds.telescope_verify"),
        "bounds.s_route_s": t.inclusive("bounds.correlation_coefficient", parent="bounds.assemble_bounds"),
        "bounds.g_route_s": t.inclusive(
            "kernels.random_walk_kernel", "kernels.spectral_summary", parent="bounds.assemble_bounds"
        ),
        "bounds.eta_route_s": t.inclusive(
            "bounds.influence_matrix_tv", "bounds.spectral_radius", parent="bounds.assemble_bounds"
        ),
        "bounds.assemble_bounds_self_s": t.self_of("bounds.assemble_bounds"),
        "cube_corner.run_corner_chain_s": t.inclusive("cube_corner.run_corner_chain"),
        "cube_corner.chain_steps_per_s": _rate(c["corner_chain_steps"], t.inclusive("cube_corner.run_corner_chain")),
        "cube_corner.fit_s": t.self_of("cube_corner.empirical_gap_estimate"),
        "cube_corner.eigenrelation_s": t.outermost("cube_corner.verify_eigenrelation", "cube_corner.OrthoBasis"),
        "cube_corner.tv_check_s": t.inclusive("cube_corner.tv_contraction_check"),
        "cli.self_s": t.layer_self("cli", exclude=DISPATCH),
        "cli.lines_emitted": lines_emitted,
    }


def work_counters(tracer: Tracer) -> dict[str, int]:
    """Deterministic counts of one traced pass: they must repeat exactly."""
    t = SpanTable(tracer)
    c = tracer.counters
    levels = sorted((k for k in c if k.startswith("contexts_level_")), key=lambda k: int(k.rsplit("_", 1)[1]))
    counts = {k: int(c[k]) for k in levels}
    counts.update(
        {
            "kernels_built": int(c["kernels_built"]),
            "eigensolves": t.count("linalg.eigvalsh", "linalg.eigvals"),
            "eigensolve_n3": int(c["eigensolve_n3"]),
            "max_kernel_order": max(tracer.kernel_orders, default=0),
            "dense_bytes_peak_computed": 8 * max(tracer.kernel_orders, default=0) ** 2,
            # _check_context is private; free_indices, marginal_mass and
            # conditional each call it exactly once per call.
            "context_validations": t.count("target.free_indices", "target.marginal_mass", "target.conditional"),
            "conditional_tensor_calls": t.count("target.conditional_tensor"),
            "sampler_steps": int(c["sampler_steps"]),
            "corner_chain_steps": int(c["corner_chain_steps"]),
        }
    )
    counts["spans"] = len(t.dur)
    return counts


def name_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    t = SpanTable(tracer)
    out = {}
    for i, name in enumerate(t.names):
        sel = t.name_id == i
        out[name] = {
            "calls": int(sel.sum()),
            "inclusive_s": float(t.dur[sel].sum()),
            "self_s": float(t.self_time[sel].sum()),
        }
    return out
