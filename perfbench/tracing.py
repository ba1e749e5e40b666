"""Outside-in tracing of rotref's layers, installed from the benchmark.

Nothing in the package changes.  `install` replaces the layer functions with
wrappers wherever a rotref module can look them up (the defining module and
every module that imported the name), so calls made through any of those
names are seen:

* ``cyclo``: ``CycNum`` mul, add and inv are counted only; spans on millions
  of scalar calls would swamp the run.  ``linalg`` matmul is counted too.
* ``linalg``, ``groups``, ``arrangements``, ``verify``, ``cli``: every public
  function defined in the module gets a span (``cli`` has only ``main``).
  ``MatrixGroup.ensure_elements`` gets a ``groups.closure`` span on the first
  call per group, the one that enumerates the elements.

A span's self time is its duration minus the durations of its direct child
spans.  The tracer keeps one stack, so it assumes one thread; the benchmark
traces ``--jobs 1`` runs only.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("linalg", "groups", "arrangements", "verify", "cli")

# spans named after a metric rather than after the function they wrap
ALIASES = {
    ("arrangements", "reflection_arrangement"): "arrangements.reflection",
    ("arrangements", "isotropy_arrangement"): "arrangements.isotropy",
    ("arrangements", "arrangement_contains"): "arrangements.contains",
    ("groups", "closure"): "groups.closure_fn",
}

# verify functions that hand out a cached arrangement or build it
ARRANGEMENT_CACHES = ("verify.catalog_arrangement", "verify.wreath_arrangement")

PER_LAYER_METRICS = (
    ("cyclo.mul.calls", "count"),
    ("cyclo.add.calls", "count"),
    ("cyclo.inv.calls", "count"),
    ("linalg.matmul.calls", "count"),
    ("linalg.kernel.calls", "count"),
    ("linalg.kernel.self_s", "s"),
    ("linalg.subspace_intersect.calls", "count"),
    ("linalg.subspace_intersect.self_s", "s"),
    ("linalg.subspace_contains.calls", "count"),
    ("linalg.subspace_contains.self_s", "s"),
    ("linalg.subspace_contains.true_frac", "ratio"),
    ("linalg.self_s", "s"),
    ("groups.closure.calls", "count"),
    ("groups.closure.elements", "count"),
    ("groups.closure.self_s", "s"),
    ("groups.fixed_space.calls", "count"),
    ("groups.fixed_space.self_s", "s"),
    ("groups.fixed_space.kernel_frac", "ratio"),
    ("groups.self_s", "s"),
    ("arrangements.reflection.calls", "count"),
    ("arrangements.reflection.self_s", "s"),
    ("arrangements.reflection.members", "count"),
    ("arrangements.isotropy.calls", "count"),
    ("arrangements.isotropy.self_s", "s"),
    ("arrangements.isotropy.members", "count"),
    ("arrangements.contains.calls", "count"),
    ("arrangements.contains.self_s", "s"),
    ("arrangements.self_s", "s"),
    ("verify.self_s", "s"),
    ("verify.arrangement_cache.hit_frac", "ratio"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Span and counter store.  Each open span is a frame
    ``[name, child_seconds, child_spans]`` on one stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._boxes: dict[str, list] = {}

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(result, frame, parent_frame)` may add
        counts once the call has returned."""
        stack, clock = self.stack, self.clock
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    parent[2] += 1
            if after is not None:
                after(result, frame, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn, arity):
        """Wrap `fn`, a method of `arity` positional arguments, in a bare
        call counter read back by `count_of`.  A fixed arity keeps the cost
        low on millions of scalar calls."""
        box = self._boxes.setdefault(name, [0])
        if arity == 1:
            def wrapper(a):
                box[0] += 1
                return fn(a)
        else:
            def wrapper(a, b):
                box[0] += 1
                return fn(a, b)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_of(self, name) -> int:
        box = self._boxes.get(name)
        return box[0] if box is not None else self.counts.get(name, 0)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, keyed by name, as ``{value, unit}``."""
        calls, self_s, count = self.calls, self.self_s, self.count_of

        def frac(num, den):
            return num / den if den else 0.0

        cache_calls = sum(calls[n] for n in ARRANGEMENT_CACHES)
        values = {
            "cyclo.mul.calls": count("cyclo.mul"),
            "cyclo.add.calls": count("cyclo.add"),
            "cyclo.inv.calls": count("cyclo.inv"),
            "linalg.matmul.calls": count("linalg.matmul"),
            "linalg.subspace_contains.true_frac": frac(
                count("linalg.subspace_contains.true"),
                calls["linalg.subspace_contains"],
            ),
            "groups.closure.elements": count("groups.closure.elements"),
            "groups.fixed_space.kernel_frac": frac(
                count("groups.fixed_space.kernels"), calls["groups.fixed_space"]
            ),
            "arrangements.reflection.members": count("arrangements.reflection.members"),
            "arrangements.isotropy.members": count("arrangements.isotropy.members"),
            "verify.arrangement_cache.hit_frac": frac(
                count("verify.arrangement_cache.hits"), cache_calls
            ),
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = self.layer_self_s(layer)
        out = {}
        for name, unit in PER_LAYER_METRICS:
            if name not in values:
                span, _, kind = name.rpartition(".")
                values[name] = calls[span] if kind == "calls" else self_s[span]
            out[name] = {"value": values[name], "unit": unit}
        return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def install(tracer: Tracer) -> dict:
    """Wrap the layer functions of the imported rotref package.  Returns the
    map from each original function to its wrapper."""
    import rotref.cyclo as cyclo
    import rotref.groups as groups
    import rotref.linalg as linalg

    counts = tracer.counts
    replaced = {}

    def after_contains(result, frame, parent):
        if result:
            counts["linalg.subspace_contains.true"] += 1

    def after_kernel(result, frame, parent):
        if parent is not None and parent[0] == "groups.fixed_space":
            counts["groups.fixed_space.kernels"] += 1

    def after_members(name):
        def after(result, frame, parent):
            counts[name + ".members"] += result.size
        return after

    def after_cache(result, frame, parent):
        if frame[2] == 0:  # opened no span: nothing was built
            counts["verify.arrangement_cache.hits"] += 1

    special = {
        "linalg.subspace_contains": after_contains,
        "linalg.kernel": after_kernel,
        "arrangements.reflection": after_members("arrangements.reflection"),
        "arrangements.isotropy": after_members("arrangements.isotropy"),
        **{name: after_cache for name in ARRANGEMENT_CACHES},
    }
    for layer in LAYERS:
        module = importlib.import_module(f"rotref.{layer}")
        for fname, fn in _public_functions(module):
            name = ALIASES.get((layer, fname), f"{layer}.{fname}")
            replaced[fn] = tracer.span(name, fn, special.get(name))

    for cls, method, name, arity in (
        (cyclo.CycNum, "__mul__", "cyclo.mul", 2),
        (cyclo.CycNum, "__add__", "cyclo.add", 2),
        (cyclo.CycNum, "inv", "cyclo.inv", 1),
        (linalg.MatrixF, "__matmul__", "linalg.matmul", 2),
    ):
        setattr(cls, method, tracer.counted(name, getattr(cls, method), arity))
    groups.MatrixGroup.ensure_elements = _closure_span(
        tracer, groups.MatrixGroup.ensure_elements
    )

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "rotref" and not mod_name.startswith("rotref."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
    return replaced


def _closure_span(tracer: Tracer, ensure_elements):
    """Span the first ``ensure_elements`` call per group: the one that
    enumerates.  Later calls return the stored elements and pass through."""
    enumerated = weakref.WeakSet()
    counts = tracer.counts

    def after(result, frame, parent):
        counts["groups.closure.elements"] += len(result)

    spanned = tracer.span("groups.closure", ensure_elements, after)

    def wrapper(self, *args, **kwargs):
        if self in enumerated:
            return ensure_elements(self, *args, **kwargs)
        result = spanned(self, *args, **kwargs)
        enumerated.add(self)
        return result

    wrapper.__wrapped__ = ensure_elements
    return wrapper
