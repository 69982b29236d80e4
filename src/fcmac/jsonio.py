"""JSON readers and writers for every file format the CLI accepts.

Read errors carry the path of the offending field so CLI diagnostics can
name it exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys

import numpy as np

from .channels import DiscreteMAC
from .feasibility import DistortionTable, FeasibilityReport, SystemSpec
from .graphs import CharGraph, Coloring, FunctionTable, SizeCapError
from .probability import Alphabet, JointPMF, Kernel, validate

# Vertices of a graph file, equal to OR_PRODUCT_CAP so that every OR product
# the library builds can be read back. A file's vertex count alone sizes the
# n x n adjacency matrix and the greedy colouring's quadratic work; the edge
# list's cost per edge after json.load is not bounded by it. The measured
# times are in the README's "Size caps" table.
GRAPH_FILE_VERTEX_CAP = 1024


class SpecFormatError(ValueError):
    """A file does not match its schema; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _get(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise SpecFormatError(path, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecFormatError(f"{path}.{key}", "missing required field")
    return obj[key]


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(path, f"expected an array, got {type(value).__name__}")
    return value


def _check_labels(values: list, path_of) -> None:
    """Refuse the first entry of ``values`` that is not a label.

    One pass over the entries' types, and one over the floats' finiteness,
    accept plain JSON labels; any other input is read entry by entry.
    ``path_of(position)`` names the offending entry; it is called only on
    failure, so valid input builds no path strings.
    """
    kinds = set(map(type, values))
    if kinds <= {str, int, float} and (
            float not in kinds
            or all(math.isfinite(v) for v in values if type(v) is float)):
        return
    for pos, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SpecFormatError(path_of(pos), "labels must be strings or numbers")
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecFormatError(path_of(pos), f"label {value} is not finite")


def _index_path(idx) -> str:
    return "".join(f"[{i}]" for i in idx)


def _emit_label(value):
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return value
    return str(value)


def _alphabet(name: str, symbols, path: str) -> Alphabet:
    """The alphabet of a JSON array of labels found at ``path``."""
    symbols = _expect_list(symbols, path)
    _check_labels(symbols, lambda i: f"{path}[{i}]")
    try:
        return Alphabet(name, symbols)
    except ValueError as exc:
        raise SpecFormatError(path, str(exc)) from None


def alphabet_from_json(obj, path: str) -> Alphabet:
    name = _get(obj, "name", path)
    if not isinstance(name, str):
        raise SpecFormatError(f"{path}.name", "alphabet name must be a string")
    return _alphabet(name, _get(obj, "symbols", path), f"{path}.symbols")


def alphabet_to_json(a: Alphabet) -> dict:
    return {"name": a.name, "symbols": [_emit_label(s) for s in a.symbols]}


def _flatten(data, shape: tuple[int, ...]) -> list | None:
    """The entries of ``data`` in C order, or None unless it nests as lists
    at least as deep as ``shape`` with each level's lengths as ``shape`` gives.

    Each level is checked whole and stepped down in one pass; entries that
    are themselves lists (deeper nesting) are left to the caller's type check.
    """
    level = [data]
    for n in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            return None
        entries = []
        for row in level:
            entries += row
        level = entries
    return level


def _nested_floats(data, shape: tuple[int, ...], path: str) -> np.ndarray:
    # float() reads true as 1.0 and "0.5" as 0.5, so the entries' types are checked
    # first. A table that fails this one pass is read again entry by entry, to name
    # its fault.
    flat = _flatten(data, shape)
    if flat is not None and set(map(type, flat)) <= {float, int}:
        with contextlib.suppress(OverflowError):        # an integer past the float range
            arr = np.array(flat, dtype=float).reshape(shape)
            if np.logical_and.reduce(np.isfinite(arr), axis=None):
                return arr
    return _entrywise_floats(data, shape, path)


def _entrywise_floats(data, shape: tuple[int, ...], path: str) -> np.ndarray:
    # Diagnosis of a table that _nested_floats' one pass refused. For JSON input it
    # raises, except on a non-finite number for a table of no axes (np.argwhere
    # finds no index in a 0-d array): that it returns, and validate() refuses it.
    # An object array of JSON values is built without error, ragged or not.
    cells = np.array(data, dtype=object)
    flat = cells.ravel().tolist()
    if not set(map(type, flat)) <= {float, int}:
        pos, value = next((i, v) for i, v in enumerate(flat) if type(v) not in (float, int))
        if isinstance(value, list) or cells.ndim == 0:      # ragged, or not an array
            raise SpecFormatError(path, "expected nested numeric arrays")
        raise SpecFormatError(path + _index_path(np.unravel_index(pos, cells.shape)),
                              f"expected a number, got {type(value).__name__}")
    try:
        arr = cells.astype(float)
    except OverflowError:
        raise SpecFormatError(path, "an integer is too large for a float") from None
    if arr.shape != shape:
        raise SpecFormatError(path, f"shape {arr.shape} does not match axes {shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise SpecFormatError(path + _index_path(idx),
                              f"value {arr[idx]} is not finite")
    return arr


def pmf_from_json(obj, path: str = "$") -> JointPMF:
    axes_json = _expect_list(_get(obj, "axes", path), f"{path}.axes")
    axes = tuple(alphabet_from_json(a, f"{path}.axes[{i}]") for i, a in enumerate(axes_json))
    shape = tuple(len(a) for a in axes)
    mass = _nested_floats(_get(obj, "mass", path), shape, f"{path}.mass")
    try:
        pmf = JointPMF._adopt(axes, mass)      # a fresh array that no caller holds
    except ValueError as exc:
        raise SpecFormatError(path, str(exc)) from None
    report = validate(pmf)
    if not report.ok:
        p = report.problems[0]
        where = f" at index {list(p.index)}" if p.index is not None else ""
        raise SpecFormatError(f"{path}.mass", f"{p.kind}{where}: {p.magnitude}")
    return pmf


def pmf_to_json(pmf: JointPMF) -> dict:
    return {"axes": [alphabet_to_json(a) for a in pmf.axes],
            "mass": pmf.mass.tolist()}


def kernel_from_json(obj, path: str = "$") -> Kernel:
    from_json = _expect_list(_get(obj, "from_axes", path), f"{path}.from_axes")
    to_json = _expect_list(_get(obj, "to_axes", path), f"{path}.to_axes")
    from_axes = tuple(alphabet_from_json(a, f"{path}.from_axes[{i}]")
                      for i, a in enumerate(from_json))
    to_axes = tuple(alphabet_from_json(a, f"{path}.to_axes[{i}]")
                    for i, a in enumerate(to_json))
    n_from = math.prod(len(a) for a in from_axes)
    n_to = math.prod(len(a) for a in to_axes)
    rows = _nested_floats(_get(obj, "rows", path), (n_from, n_to), f"{path}.rows")
    try:
        # fresh and, at two axes, finite; the kernel checks its signs and row sums
        return Kernel._adopt(from_axes, to_axes, rows)
    except ValueError as exc:
        raise SpecFormatError(f"{path}.rows", str(exc)) from None


def kernel_to_json(k: Kernel) -> dict:
    return {"from_axes": [alphabet_to_json(a) for a in k.from_axes],
            "to_axes": [alphabet_to_json(a) for a in k.to_axes],
            "rows": k.rows.tolist()}


def mac_from_json(obj, path: str = "$") -> DiscreteMAC:
    law = kernel_from_json(obj, path)
    if len(law.from_axes) != 2 or len(law.to_axes) != 1:
        raise SpecFormatError(path, "a channel kernel needs two input axes and one output axis")
    return DiscreteMAC((law.from_axes[0], law.from_axes[1]), law.to_axes[0], law)


def mac_to_json(mac: DiscreteMAC) -> dict:
    return kernel_to_json(mac.law)


def graph_from_json(obj, path: str = "$") -> CharGraph:
    verts = _get(obj, "vertices", path)
    name = obj.get("name", "v")
    if not isinstance(name, str):
        raise SpecFormatError(f"{path}.name", "graph name must be a string")
    if len(_expect_list(verts, f"{path}.vertices")) > GRAPH_FILE_VERTEX_CAP:
        raise SizeCapError(f"{path}.vertices: {len(verts)} vertices exceeds the"
                           f" graph-file cap of {GRAPH_FILE_VERTEX_CAP}")
    alphabet = _alphabet(name, verts, f"{path}.vertices")
    edges = _expect_list(_get(obj, "edges", path), f"{path}.edges")
    # the shape is checked first: the constructor would unpack a two-letter
    # string as a pair
    if set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}:
        try:
            return CharGraph(alphabet, edges)
        except KeyError:
            pass
        except ValueError as exc:       # a self-loop; every edge is well formed and known
            raise SpecFormatError(f"{path}.edges", str(exc)) from None
    # on failure only: name the first edge that is malformed or has an unknown
    # endpoint; there is one, so the loop ends in a raise
    for i, e in enumerate(edges):
        if type(e) is not list or len(e) != 2:
            _expect_list(e, f"{path}.edges[{i}]")
            raise SpecFormatError(f"{path}.edges[{i}]", "an edge is a two-element array")
        a, b = e
        if a not in alphabet or b not in alphabet:
            unknown = b if a in alphabet else a
            raise SpecFormatError(f"{path}.edges[{i}]", f"unknown vertex {unknown!r}")


def graph_to_json(g: CharGraph) -> dict:
    labels = [_emit_label(v) for v in g.vertices.symbols]
    return {"vertices": labels,
            "edges": [[labels[i], labels[j]] for i, j in g._edge_indices()]}


def coloring_to_json(c: Coloring) -> dict:
    return {str(v): str(c.color_of[v]) for v in c.graph.vertices.symbols}


def function_table_from_json(obj, path: str = "$") -> FunctionTable:
    axes_json = _expect_list(_get(obj, "domain_axes", path), f"{path}.domain_axes")
    axes = tuple(alphabet_from_json(a, f"{path}.domain_axes[{i}]")
                 for i, a in enumerate(axes_json))
    shape = tuple(len(a) for a in axes)
    values = _flatten(_get(obj, "values", path), shape)
    # a table nested one level too deep holds nothing but lists; a stray
    # list among labels is named as a bad label below
    if values is None or set(map(type, values)) == {list}:
        raise SpecFormatError(f"{path}.values",
                              f"values must form a dense table of shape {shape}")
    _check_labels(values, lambda pos: f"{path}.values"
                  + _index_path(np.unravel_index(pos, shape)))
    return FunctionTable(axes, np.array(values, dtype=object).reshape(shape))


def function_table_to_json(f: FunctionTable) -> dict:
    emitted = np.array([_emit_label(v) for v in f.range_labels()], dtype=object)
    return {"domain_axes": [alphabet_to_json(a) for a in f.domain_axes],
            "values": emitted[f._codes].tolist()}


def distortion_from_json(obj, path: str = "$") -> DistortionTable:
    out_labels, est_labels = (_alphabet(key, _get(obj, key, path), f"{path}.{key}")
                              for key in ("function_range", "decoder_range"))
    values = _nested_floats(_get(obj, "values", path),
                            (len(out_labels), len(est_labels)), f"{path}.values")
    try:
        return DistortionTable(out_labels, est_labels, values)
    except ValueError as exc:
        raise SpecFormatError(f"{path}.values", str(exc)) from None


def distortion_to_json(d: DistortionTable) -> dict:
    return {"function_range": [_emit_label(v) for v in d.output_labels],
            "decoder_range": [_emit_label(v) for v in d.estimate_labels],
            "values": d.values.tolist()}


def system_spec_from_json(obj, path: str = "$") -> SystemSpec:
    target = _get(obj, "target_d", path)
    # compared, not converted, so that an integer past the float range is refused too
    if type(target) not in (int, float) or not 0 <= target <= sys.float_info.max:
        raise SpecFormatError(f"{path}.target_d",
                              "target distortion must be finite and nonnegative")
    try:
        return SystemSpec(
            source_joint=pmf_from_json(_get(obj, "source_joint", path), f"{path}.source_joint"),
            w1_kernel=kernel_from_json(_get(obj, "w1_kernel", path), f"{path}.w1_kernel"),
            w2_kernel=kernel_from_json(_get(obj, "w2_kernel", path), f"{path}.w2_kernel"),
            x1_kernel=kernel_from_json(_get(obj, "x1_kernel", path), f"{path}.x1_kernel"),
            x2_kernel=kernel_from_json(_get(obj, "x2_kernel", path), f"{path}.x2_kernel"),
            channel=mac_from_json(_get(obj, "channel", path), f"{path}.channel"),
            function=function_table_from_json(_get(obj, "function", path), f"{path}.function"),
            decoder=function_table_from_json(_get(obj, "decoder", path), f"{path}.decoder"),
            distortion=distortion_from_json(_get(obj, "distortion", path), f"{path}.distortion"),
            target_d=float(target),
        )
    except SpecFormatError:
        raise
    except ValueError as exc:
        raise SpecFormatError(path, str(exc)) from None


def system_spec_to_json(spec: SystemSpec) -> dict:
    return {
        "source_joint": pmf_to_json(spec.source_joint),
        "w1_kernel": kernel_to_json(spec.w1_kernel),
        "w2_kernel": kernel_to_json(spec.w2_kernel),
        "x1_kernel": kernel_to_json(spec.x1_kernel),
        "x2_kernel": kernel_to_json(spec.x2_kernel),
        "channel": mac_to_json(spec.channel),
        "function": function_table_to_json(spec.function),
        "decoder": function_table_to_json(spec.decoder),
        "distortion": distortion_to_json(spec.distortion),
        "target_d": spec.target_d,
    }


def feasibility_report_to_json(report: FeasibilityReport) -> dict:
    return {
        "inequalities": [
            {"name": r.name, "lhs_bits": r.lhs_bits, "rhs_bits": r.rhs_bits,
             "margin_bits": r.margin_bits, "verdict": r.verdict}
            for r in report.inequalities
        ],
        "achieved_distortion": report.achieved_distortion,
        "target_distortion": report.target_distortion,
        "distortion_ok": report.distortion_ok,
    }


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SpecFormatError("$", f"no such file: {path}") from None
    except ValueError as exc:       # malformed text, or an integer over the digit limit
        raise SpecFormatError("$", f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SpecFormatError("$", f"invalid JSON in {path}: nested too deeply") from None


def json_text(obj) -> str:
    """The one JSON layout of every file and report: indent 2, sorted keys and
    a trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj))
