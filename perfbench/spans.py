"""Spans around library calls, recorded from outside the library.

A ``Tracer`` rebinds the public functions of every ``equihom`` module, and a
few hot methods, to wrappers that time each call.  Every module namespace
that holds a function object gets the wrapper, because modules call each
other through names they imported (``zz2.smith_normal_form``) and through
their own globals (``homcomplexes.mu_prime``).  ``uninstall`` puts every
original back.

Spans are folded into per-name totals as they close instead of being kept
one by one: the minion workload opens over a million of them, and keeping
them would distort the traced run's memory.  A span's self time is its
duration minus the durations of the spans opened directly inside it.
"""

import functools
import importlib
import inspect
import pkgutil
import time

# Methods worth a span of their own; every public module-level function
# gets one anyway.
METHODS = {
    "snf": {"SparseMat": ("matmul",)},
    "homcomplexes": {"CyclePipeline": ("torus", "mu_colours", "mu")},
}

# Functions returning a lazy stream: iterating it is timed under the
# function's own span name, and each item is counted.  (Other generators are
# timed only as calls; their iteration counts towards the caller.)
STREAMS = {"graphs.enumerate_homs": "graphs.homs_emitted"}


def _nnz(matrix):
    if hasattr(matrix, "nnz"):
        return matrix.nnz()
    return sum(1 for row in matrix for v in row if v)


def _count_nnz_in(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs.get("matrix")
    if matrix is not None:
        tracer.count("snf.smith_normal_form.nnz_in", _nnz(matrix))


def _count_orbit_cells(tracer, args, kwargs, result):
    reps = getattr(result, "reps", None)
    if reps is not None:
        tracer.count("zz2.orbit_cells", sum(len(r) for r in reps))


def _count_product_cells(tracer, args, kwargs, result):
    if hasattr(result, "n_cells") and hasattr(result, "cap"):
        tracer.count("simplicial.product_cells",
                     sum(result.n_cells(d) for d in range(result.cap + 1)))


def _count_maps_inspected(tracer, args, kwargs, result):
    if isinstance(result, dict):
        tracer.count("slices.maps_inspected",
                     sum(row.get("maps_inspected", 0)
                         for row in result.get("per_n", ())))


# Counters read off a call's arguments or result, by span name.
HOOKS = {
    "snf.smith_normal_form": _count_nnz_in,
    "zz2.equivariant_complex": _count_orbit_cells,
    "simplicial.sproduct": _count_product_cells,
    "slices.arity_experiment": _count_maps_inspected,
}


class Tracer:
    """Per-name call counts, self times and counters of wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._open = []  # time spent in direct children, per open span
        self._bindings = []  # (owner, attribute, original) to restore
        self._cached = {}  # span name -> lru-cached original

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _enter(self):
        self._open.append(0.0)
        return self.clock()

    def _exit(self, name, start):
        duration = self.clock() - start
        children = self._open.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._open:
            self._open[-1] += duration

    def wrap(self, name, fn):
        """A function that runs ``fn`` inside a span called ``name``."""
        tracer = self
        hook = HOOKS.get(name)
        counter = STREAMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            if counter is not None:
                return TimedStream(tracer, name, result, counter)
            return result

        traced.traced_name = name
        if hasattr(fn, "cache_info"):
            self._cached[name] = fn
        return traced

    def install(self, modules):
        """Wrap the public functions of ``modules`` (name -> module object).

        Every module in ``modules`` that binds a wrapped function, under any
        name, is rebound to the wrapper.
        """
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        self._bindings.append((cls, meth, fn))
                        setattr(cls, meth, self.wrap(f"{short}.{meth}", fn))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Totals so far, with lru-cache misses as counters."""
        counts = dict(self.counts)
        for name, fn in self._cached.items():
            counts[f"{name}.misses"] = fn.cache_info().misses
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": counts}


class TimedStream:
    """Iterates a stream inside spans named after the call that made it.

    Other attributes (such as ``HomStream.truncated``) come from the stream.
    """

    def __init__(self, tracer, name, inner, counter):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._counter = counter

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __iter__(self):
        tracer, name = self._tracer, self._name
        start = tracer._enter()
        try:
            items = iter(self._inner)
        finally:
            tracer._exit(name, start)
        while True:
            start = tracer._enter()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer._exit(name, start)
            tracer.count(self._counter)
            yield item


def library_modules(package):
    """Every public submodule of ``package``, imported, by short name."""
    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            out[info.name] = importlib.import_module(
                f"{package.__name__}.{info.name}")
    return out


def leftover_wrappers(modules):
    """Names still bound to a wrapper, as ``module.attr`` strings."""
    found = []
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if hasattr(obj, "traced_name"):
                found.append(f"{short}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.extend(f"{short}.{obj.__name__}.{meth}"
                             for meth, fn in vars(obj).items()
                             if hasattr(fn, "traced_name"))
    return sorted(found)
