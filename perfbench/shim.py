"""Traced child process: run one spindle CLI call with per-layer spans.

Usage: python shim.py TRACE_FILE ARG...

The shim imports spindle, wraps the public functions and methods of every
layer module from outside, rebinds every spindle namespace that holds one
of the originals (including names bound through ``from ... import``), and
then calls ``spindle.cli.main(ARG...)``.  Spans stay in memory; at exit the
per-layer self times and counts are written to TRACE_FILE as JSON.

A call into a layer opens a span only when the enclosing span belongs to a
different layer: a nested span of the same layer merges into its parent.
Self time is a span's duration minus the time its child spans cover.
Counts are derived only from the arguments and return values of public
calls.  The hot leaf calls listed in COUNTED are counted but not timed;
their time stays with the calling layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "verify", "dynkin", "characters", "qanalogues", "qpoly",
    "rootsystem", "exactla", "modulerep", "endalg", "truncsym", "cache",
)

# Leaf calls cheaper than a timed span (about a microsecond): timing each
# would distort the traced run, so they are counted and their time stays
# with the calling layer.
COUNTED = frozenset({
    "RootSystem.simple_reflection", "RootSystem.is_dominant",
    "QPolynomial.coefficient", "QPolynomial.is_zero", "QPolynomial.zero",
    "QPolynomial.one", "QPolynomial.monomial",
})

# Operators wrapped besides the public (non-underscore) names.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__pow__", "__call__",
})

# Generators whose every yielded item is one Weyl group point.
WEYL_WALKS = frozenset({"RootSystem.signed_orbit",
                        "RootSystem.weyl_signed_iterate"})


class Recorder:
    """In-memory span stack with per-layer self time and counters."""

    def __init__(self):
        self.stack = []  # frames: [layer, start, covered]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, layer):
        if self.stack and self.stack[-1][0] == layer:
            return None
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        if frame is None:
            return
        duration = time.perf_counter() - frame[1]
        self.stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration

    def exclude(self, seconds):
        """Remove the shim's own bookkeeping from the enclosing span; it
        then counts as unattributed time."""
        if self.stack:
            self.stack[-1][2] += seconds


def _count_hooks(rec, originals):
    """name -> hook(args, kwargs, result, duration) for derived counters."""
    c = rec.counts
    orbit_sizes = {}
    seen_systems = set()

    def orbit_size(rs, mu):
        key = (id(rs), mu)
        size = orbit_sizes.get(key)
        if size is None:
            size = orbit_sizes[key] = originals["RootSystem.orbit_size"](rs, mu)
        return size

    def dominant_multiplicities(a, k, result, dur):
        rs = a[0]
        c["characters.dominants"] += len(result)
        c["characters.weights"] += sum(orbit_size(rs, mu) for mu in result)

    def product(a, k, result, dur):
        c["characters.product_terms"] += len(a[0].entries) * len(a[1].entries)

    def build_root_system(a, k, result, dur):
        if id(result) not in seen_systems:
            seen_systems.add(id(result))
            c["rootsystem.builds"] += 1
            c["rootsystem.build_ns"] += int(dur * 1e9)

    def weyl_orbit(a, k, result, dur):
        c["rootsystem.orbit_points"] += len(result)

    def rref(a, k, result, dur):
        rows = a[0]
        ncols = a[1] if len(a) > 1 else k.get("ncols")
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        c["exactla.rref_cells"] += len(rows) * ncols

    def in_row_space(a, k, result, dur):
        if not result:
            c["exactla.row_space_new"] += 1

    def module_init(a, k, result, dur):
        c["modulerep.modules"] += 1
        c["modulerep.module_dim"] += a[0].dimension

    def load(a, k, result, dur):
        c["cache.hits" if result is not None else "cache.misses"] += 1

    def run_suite(a, k, result, dur):
        c["verify.checks"] += len(result)

    def mul(a, k, result, dur):
        other = a[1]
        c["qpoly.mul_terms"] += len(a[0].coeffs) * (
            len(other.coeffs) if hasattr(other, "coeffs") else 1
        )

    return {
        "dominant_multiplicities": dominant_multiplicities,
        "WeightCharacter.product": product,
        "build_root_system": build_root_system,
        "RootSystem.weyl_orbit": weyl_orbit,
        "rref": rref,
        "in_row_space": in_row_space,
        "HighestWeightModule.__init__": module_init,
        "load": load,
        "run_suite": run_suite,
        "QPolynomial.__mul__": mul,
        "QPolynomial.__rmul__": mul,
    }


def _wrap(rec, layer, name, orig, hook):
    calls = rec.counts
    key = layer + ".calls." + name
    if name in COUNTED:
        def wrapper(*a, **k):
            calls[key] += 1
            return orig(*a, **k)
    elif name in WEYL_WALKS:
        def wrapper(*a, **k):
            calls[key] += 1
            it = orig(*a, **k)

            def walk():
                while True:
                    frame = rec.enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec.exit(frame)
                    calls["rootsystem.weyl_points"] += 1
                    yield item
            return walk()
    else:
        def wrapper(*a, **k):
            calls[key] += 1
            frame = rec.enter(layer)
            start = time.perf_counter()
            try:
                result = orig(*a, **k)
            finally:
                rec.exit(frame)
            if hook is not None:
                t = time.perf_counter()
                hook(a, k, result, t - start)
                rec.exclude(time.perf_counter() - t)
            return result
    functools.update_wrapper(wrapper, orig)
    wrapper.__perfbench_layer__ = layer
    return wrapper


def _targets(module):
    """(qualified name, owner, attribute, function, is_static) to wrap."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj, False
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                wanted = not attr.startswith("_") or attr in OPERATORS or (
                    attr == "__init__" and obj.__name__ == "HighestWeightModule"
                )
                if not wanted:
                    continue
                qual = f"{obj.__name__}.{attr}"
                if isinstance(raw, staticmethod):
                    yield qual, obj, attr, raw.__func__, True
                elif inspect.isfunction(raw):
                    yield qual, obj, attr, raw, False


def install(rec):
    """Wrap every layer module and rebind every name bound to an original."""
    modules = {layer: importlib.import_module("spindle." + layer)
               for layer in LAYERS}
    originals = {}
    plan = []
    for layer, module in modules.items():
        for qual, owner, attr, func, static in _targets(module):
            originals[qual] = func
            plan.append((layer, qual, owner, attr, func, static))
    hooks = _count_hooks(rec, originals)
    replaced = {}
    for layer, qual, owner, attr, func, static in plan:
        wrapper = _wrap(rec, layer, qual, func, hooks.get(qual))
        replaced[id(func)] = wrapper
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
    # Names bound elsewhere through ``from module import name``.
    for modname, module in list(sys.modules.items()):
        if modname != "spindle" and not modname.startswith("spindle."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and wrapper is not obj:
                setattr(module, name, wrapper)


def summary(rec, import_s):
    """JSON-ready per-layer self times and counters."""
    self_s = {layer: rec.self_s.get(layer, 0.0) for layer in LAYERS}
    self_s["cli"] += import_s
    return {
        "self_s": self_s,
        "import_s": import_s,
        "counts": dict(rec.counts),
    }


def main(argv):
    trace_file, args = argv[0], argv[1:]
    start = time.perf_counter()
    import spindle.cli
    import_s = time.perf_counter() - start
    rec = Recorder()
    install(rec)
    code = 1
    try:
        code = spindle.cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(summary(rec, import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
