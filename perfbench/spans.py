"""Span recorder and opt-in wrapping of the netforms layer functions.

The traced run times calls into each layer module from outside the library:
every public function of a layer module is replaced, in every loaded
``netforms`` namespace that binds it, by a wrapper that opens a span. Because
the wrappers sit where the other modules import the functions, a call from
one layer into another (``check_compatibility`` calling ``trace``) becomes a
child span. A span's self time is its duration minus the durations of its
direct children. Nothing is wrapped outside :func:`instrumented`, and every
attribute it replaced is restored when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

#: Layer modules, named after their ``netforms`` module.
LAYERS = ("network", "trace", "beurling_deny", "sequences", "gelfand", "energy", "simulate")

#: Methods timed as spans of their module's layer, besides the public functions.
METHODS = {
    "network": (("Network", "__init__"), ("FormMatrix", "__post_init__")),
    "sequences": (("CompatibleSequence", "form"),),
}

#: Names of single-function metrics ``<layer>.<key>.self_s`` and the functions
#: whose self time they sum.
FUNCTION_GROUPS = {
    "trace.resistance_matrix": ("resistance_matrix",),
    "trace.effective_resistance": ("effective_resistance",),
    "sequences.build": ("build_dyadic_interval", "build_sierpinski_gasket"),
    "sequences.check": ("check_compatibility",),
    "sequences.profile": ("energy_profile",),
    "gelfand.transfer_form": ("transfer_form",),
    "simulate.build_generator": ("build_generator",),
}

#: Functions whose ``n_traj`` argument counts simulated trajectories.
#: ``occupation_check`` is left out because it delegates to ``simulate``.
_TRAJECTORY_FUNCTIONS = ("simulate", "hitting_probability", "commute_time")


class Recorder:
    """Nested spans of a single thread, aggregated per span name.

    ``stats[name]`` is ``[calls, total_s, self_s]`` and ``counters`` holds
    work counts recorded at the same boundaries.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, layer, start, child_s]

    def enter(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, self.clock(), 0.0])

    def exit(self) -> float:
        name, _, start, child = self._stack.pop()
        dur = self.clock() - start
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def parent_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit()

    def layer_totals(self, layer: str) -> tuple[int, float]:
        """Calls and self seconds summed over the spans of one layer."""
        calls, self_s = 0, 0.0
        prefix = layer + "."
        for name, (c, _, s) in self.stats.items():
            if name.startswith(prefix):
                calls += c
                self_s += s
        return calls, self_s

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]


def _count_work(rec: Recorder, layer: str, fname: str, fn, args, kwargs, result) -> None:
    """Work counts taken where the work happens, at the layer boundary."""
    if layer == "trace" and fname == "trace":
        rec.count("trace.interior_n", result.extension_operator.shape[0])
    elif layer == "energy" and fname == "energy_measure":
        rec.count("energy.vertices", args[0].n)
    elif layer == "sequences" and fname == "check_compatibility":
        rec.count("sequences.levels_checked", len(result.deviations))
    elif layer == "sequences" and fname == "form":
        rec.count("sequences.form_requests")
    elif layer == "network" and fname == "assemble" and rec.parent() == "sequences.form":
        rec.count("sequences.form_assemblies")
    elif layer == "simulate" and fname in _TRAJECTORY_FUNCTIONS:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        rec.count("simulate.trajectories", int(bound.arguments["n_traj"]))


def _wrap(rec: Recorder, layer: str, fname: str, fn, documented_error):
    name = f"{layer}.{fname}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except documented_error:
            rec.exit()
            if rec.parent_layer() != layer:  # count once, where it leaves the layer
                rec.count(f"{layer}.documented_errors")
            raise
        except BaseException:
            rec.exit()
            raise
        rec.exit()
        _count_work(rec, layer, fname, fn, args, kwargs, result)
        return result

    return wrapper


def _layer_functions(mod):
    """Public functions defined in a layer module."""
    for fname in getattr(mod, "__all__", ()):
        obj = getattr(mod, fname, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield fname, obj


def wrapped_attributes():
    """Every (namespace, attribute, original, layer, name) the traced run replaces.

    Requires ``netforms`` to be imported. Namespaces are every loaded
    ``netforms`` module, the package included, so intra-layer calls through a
    module global are timed as well as cross-layer ones.
    """
    namespaces = [m for k, m in sorted(sys.modules.items()) if k == "netforms" or k.startswith("netforms.")]
    targets = []
    for layer in LAYERS:
        mod = sys.modules[f"netforms.{layer}"]
        for fname, fn in _layer_functions(mod):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        targets.append((ns, attr, fn, layer, fname))
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            targets.append((cls, meth, cls.__dict__[meth], layer, cls_name if meth.startswith("__") else meth))
    return targets


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap every layer function for the duration of the block."""
    from netforms.errors import NetformsError

    targets = wrapped_attributes()
    wrappers: dict = {}
    replaced = []
    try:
        for ns, attr, fn, layer, fname in targets:
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = _wrap(rec, layer, fname, fn, NetformsError)
            setattr(ns, attr, wrappers[key])
            replaced.append((ns, attr, fn))
        yield rec
    finally:
        for ns, attr, fn in reversed(replaced):
            setattr(ns, attr, fn)
