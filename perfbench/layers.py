"""Per-layer tracing of fcmac, done from outside the program.

``Tracer.install`` wraps every public function of the layer modules wherever
any ``fcmac.*`` module binds it, so by-name imports (``experiments`` importing
from ``schemes``) and call-time imports (inside ``schemes._run_*``) both go
through the wrapper. Each call becomes a span (name, start, end, parent span,
op id) kept in flat arrays in memory. Sizes are read from arguments and results
at the call boundary. ``uninstall`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import tracemalloc
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("probability", "graphs", "channels", "feasibility", "schemes",
          "experiments", "presets", "jsonio", "cli")

# Functions reported one by one, with calls and self time per op.
REPORTED = {
    "probability": ("compose", "marginalize", "entropy", "mutual_information"),
    "feasibility": ("check_feasibility", "assemble_joint", "expected_distortion"),
    "channels": ("mac_sum_capacity_independent",),
    "schemes": ("monte_carlo_af", "monte_carlo_grid_distortion",
                "sample_offdiagonal_uniform", "run_scheme"),
    "graphs": ("characteristic_graph", "zigzag_check", "or_product",
               "min_entropy_coloring", "conditional_graph_entropy", "stable_sets"),
    "jsonio": ("load_json", "system_spec_from_json", "dump_json"),
    "cli": ("main",),
    "experiments": ("run_experiment",),
}

# Size counters, summed per op; each is divided by the number of ops.
COUNTERS = {
    "probability.compose.cells": "count",
    "probability.compose.bytes_computed": "B",
    "probability.marginalize.cells_in": "count",
    "feasibility.check_feasibility.cells": "count",
    "channels.mac_sum_capacity_independent.grid_points": "count",
    "schemes.mc.samples_drawn": "count",
    "graphs.or_product.vertices": "count",
    "graphs.or_product.edges": "count",
    "graphs.zigzag_check.pairs_scanned": "count",
    "jsonio.bytes_read": "B",
    "jsonio.bytes_written": "B",
}

# Ratios: numerator counter over denominator counter (0 when nothing was done).
RATIOS = {
    "channels.mac_sum_capacity_independent.distinct_ratio":
        ("channels.distinct_laws", "channels.mac_sum_capacity_independent.calls"),
    "schemes.mc.useful_ratio": ("schemes.mc.samples_useful", "schemes.mc.samples_drawn"),
    "graphs.conditional_graph_entropy.converged_ratio":
        ("graphs.cge.converged", "graphs.conditional_graph_entropy.calls"),
}

PEAK_ALLOC = "feasibility.check_feasibility.peak_alloc_mb"


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_share": "ratio" for layer in LAYERS}
    for layer, fns in REPORTED.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_ms"] = "ms"
    units.update(COUNTERS)
    units.update({name: "ratio" for name in RATIOS})
    units[PEAK_ALLOC] = "MB"
    units["trace.overhead"] = "ratio"
    return units


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _size_compose(t, args, kwargs, result):
    kernels = _arg(args, kwargs, 1, "kernels")
    if isinstance(kernels, (list, tuple)):
        acc = int(_arg(args, kwargs, 0, "base").mass.size)
        cells = 0
        for k in kernels:       # one einsum output per kernel
            acc *= math.prod(len(a) for a in k.to_axes)
            cells += acc
    else:
        cells = int(result.mass.size)
    t.count("probability.compose.cells", cells)
    t.count("probability.compose.bytes_computed", 8 * cells)


def _size_marginalize(t, args, kwargs, result):
    t.count("probability.marginalize.cells_in", int(_arg(args, kwargs, 0, "pmf").mass.size))


def _size_check(t, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    ten = int(spec.source_joint.mass.size) * math.prod(
        len(k.to_axes[0]) for k in (spec.w1_kernel, spec.w2_kernel,
                                    spec.x1_kernel, spec.x2_kernel))
    t.count("feasibility.check_feasibility.cells", ten * len(spec.channel.output_alphabet))


def _size_capacity(t, args, kwargs, result):
    mac = _arg(args, kwargs, 0, "mac")
    points = _arg(args, kwargs, 1, "grid_points", 51)
    n1, n2 = mac.law_tensor.shape[:2]
    t.count("channels.mac_sum_capacity_independent.grid_points",
            math.comb(points - 1 + n1 - 1, n1 - 1) * math.comb(points - 1 + n2 - 1, n2 - 1))
    law = mac.law.rows
    if t.first_in_op(("law", law.shape, law.tobytes())):
        t.count("channels.distinct_laws", 1)


def _mc_draw(t, stream_key, samples):
    # A repeated draw of the same seeded stream inside one op is wasted work.
    t.count("schemes.mc.samples_drawn", samples)
    if t.first_in_op(stream_key):
        t.count("schemes.mc.samples_useful", samples)


def _size_mc_af(t, args, kwargs, result):
    _mc_draw(t, ("normal3", result.seed, result.samples), result.samples)


def _size_mc_grid(t, args, kwargs, result):
    cells = _arg(args, kwargs, 0, "cells", 3)
    _mc_draw(t, ("offdiagonal", cells, result.seed, result.samples), result.samples)


def _size_sample_offdiag(t, args, kwargs, result):
    cells = _arg(args, kwargs, 0, "cells")
    seed = _arg(args, kwargs, 2, "seed", None)
    if seed is None:
        seed = sys.modules["fcmac.schemes"].DEFAULT_SEED
    _mc_draw(t, ("offdiagonal", cells, seed, len(result)), len(result))


def _size_or_product(t, args, kwargs, result):
    t.count("graphs.or_product.vertices", len(result.vertices))
    t.count("graphs.or_product.edges", len(result.edges))


def _size_zigzag(t, args, kwargs, result):
    mass = _arg(args, kwargs, 0, "joint").mass
    support = np.argwhere(mass > 0)
    n = len(support)
    if result.witness is None:
        scanned = n * n
    else:
        # computed: position of the witness pair in the support-order scan
        (x1, y1), (x2, y2) = result.witness
        joint = _arg(args, kwargs, 0, "joint")
        xs, ys = joint.axes[0].symbols, joint.axes[1].symbols
        pos = {(int(i), int(j)): k for k, (i, j) in enumerate(support)}
        first = pos[(xs.index(x1), ys.index(y1))]
        second = pos[(xs.index(x2), ys.index(y2))]
        scanned = first * n + second + 1
    t.count("graphs.zigzag_check.pairs_scanned", scanned)


def _size_cge(t, args, kwargs, result):
    t.count("graphs.cge.converged", 1 if result.converged else 0)


def _size_load(t, args, kwargs, result):
    t.count("jsonio.bytes_read", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _size_dump(t, args, kwargs, result):
    t.count("jsonio.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


SIZERS = {
    "probability.compose": _size_compose,
    "probability.marginalize": _size_marginalize,
    "feasibility.check_feasibility": _size_check,
    "channels.mac_sum_capacity_independent": _size_capacity,
    "schemes.monte_carlo_af": _size_mc_af,
    "schemes.monte_carlo_grid_distortion": _size_mc_grid,
    "schemes.sample_offdiagonal_uniform": _size_sample_offdiag,
    "graphs.or_product": _size_or_product,
    "graphs.zigzag_check": _size_zigzag,
    "graphs.conditional_graph_entropy": _size_cge,
    "jsonio.load_json": _size_load,
    "jsonio.dump_json": _size_dump,
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.name_of = array("q")
        self.op_kinds: list[str] = []
        self.counts: dict[str, dict[str, float]] = {}   # kind -> counter -> total
        self.measure_memory = False
        self.peak_alloc: dict[str, int] = {}   # kind -> bytes, from the memory pass
        self._stack: list[int] = []
        self._op_keys: set = set()
        self._patched: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(len(self.op_kinds) - 1)
        self.name_of.append(name_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """Root span of one op; every span recorded inside belongs to it."""
        self.op_kinds.append(kind)
        self.counts.setdefault(kind, {})
        self._op_keys = set()
        i = self._open(self._name_id(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(i)

    def count(self, name: str, value) -> None:
        bucket = self.counts[self.op_kinds[-1]]
        bucket[name] = bucket.get(name, 0) + value

    def first_in_op(self, key) -> bool:
        if key in self._op_keys:
            return False
        self._op_keys.add(key)
        return True

    def _wrap(self, fn, qualname: str):
        name_id = self._name_id(qualname)
        sizer = SIZERS.get(qualname)
        watch_memory = qualname == "feasibility.check_feasibility"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            track = watch_memory and tracer.measure_memory
            if track:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if track:
                    kind = tracer.op_kinds[-1].removeprefix("memory.")
                    peak = tracemalloc.get_traced_memory()[1]
                    tracer.peak_alloc[kind] = max(tracer.peak_alloc.get(kind, 0), peak)
                    tracemalloc.stop()
                tracer._close(i)
            if sizer is not None:
                sizer(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer; returns the bindings replaced."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fcmac.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for mod in _fcmac_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._wrappers = set(wrappers.values())
        return len(self._patched)

    def uninstall(self) -> list[str]:
        """Restore every original binding; returns the bindings still wrong."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        wrong = [f"{mod.__name__}.{attr}" for mod, attr, obj in self._patched
                 if getattr(mod, attr) is not obj]
        wrong += [f"{mod.__name__}.{attr}" for mod in _fcmac_modules()
                  for attr, obj in vars(mod).items()
                  if inspect.isfunction(obj) and obj in self._wrappers]
        self._patched = []
        return wrong

    # --- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op_of, dtype=np.int64),
                "name": np.frombuffer(self.name_of, dtype=np.int64)}

    def root_problems(self) -> list[str]:
        """Each op must have exactly one root span and every span an op."""
        a = self.arrays()
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        if np.any(a["op"] < 0):
            problems.append("spans recorded outside any op")
        roots = np.bincount(a["op"][a["parent"] < 0], minlength=len(self.op_kinds))
        bad = np.flatnonzero(roots != 1)
        if bad.size:
            problems.append(f"{bad.size} ops without exactly one root span")
        return problems

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            kinds=np.array(self.op_kinds), **self.arrays())

    def snapshot_counts(self) -> dict:
        """Copy of the size counters, taken when the timed ops end."""
        return {kind: dict(c) for kind, c in self.counts.items()}

    def layer_metrics(self, n_ops: int, counts: dict) -> dict:
        """Per-layer metrics over the first ``n_ops`` ops, for all of them
        ("all") and per kind. ``counts`` is the snapshot taken after them."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        is_child = a["parent"] >= 0
        child_time = np.bincount(a["parent"][is_child], weights=dur[is_child],
                                 minlength=len(dur))
        self_time = dur - child_time
        names = np.array(self.names)[a["name"]]
        layer_of = np.array([n.split(".")[0] for n in self.names])[a["name"]]
        op_kind = np.array(self.op_kinds[:n_ops])
        timed = a["op"] < n_ops
        span_kind = op_kind[np.where(timed, a["op"], 0)]
        out = {}
        for kind in ["all"] + sorted(set(op_kind)):
            if kind == "all":
                sel, ops, kinds = timed, n_ops, list(counts)
            else:
                sel = timed & (span_kind == kind)
                ops, kinds = int(np.sum(op_kind == kind)), [kind]
            totals: dict = {}
            for k in kinds:
                for name, value in counts.get(k, {}).items():
                    totals[name] = totals.get(name, 0) + value
            out[kind] = _metrics(names[sel], layer_of[sel], self_time[sel],
                                 float(dur[sel & ~is_child].sum()), ops, totals)
        return out


def _metrics(names, layer_of, self_time, wall, n_ops, totals) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_share"] = float(self_time[layer_of == layer].sum()) / wall if wall else 0.0
    per = max(n_ops, 1)
    for layer, fns in REPORTED.items():
        for fn in fns:
            hit = names == f"{layer}.{fn}"
            totals[f"{layer}.{fn}.calls"] = float(hit.sum())
            m[f"{layer}.{fn}.calls"] = float(hit.sum()) / per
            m[f"{layer}.{fn}.self_ms"] = 1e3 * float(self_time[hit].sum()) / per
    for name in COUNTERS:
        m[name] = totals.get(name, 0) / per
    for name, (num, den) in RATIOS.items():
        m[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return m


def _fcmac_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fcmac" or name.startswith("fcmac."))]
