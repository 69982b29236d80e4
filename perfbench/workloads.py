"""The three workloads: their seeded inputs, one op each, and the output gates.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Ops call fcmac in process, through module
attributes (``cli.main``, ``graphs.zigzag_check``), so the tracer's wrappers
see them.

A workload builds a fixed pool of ops from the seed. ``check`` returns the
canonical bytes of an op's output, which feed the output digest, or raises
``GateError`` when the output is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import reference


class GateError(Exception):
    """An op returned, but its output failed the workload's gate."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


@dataclass
class Op:
    kind: str
    key: str        # stable name of the input, used by the output digest
    args: tuple


def latencies_by_kind(records, kinds) -> dict:
    """Latencies in ms per kind from (op, ms, ...) records."""
    return {kind: [ms for op, ms, *_ in records if op.kind == kind] for kind in kinds}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``fcmac`` call; returns exit code, stdout and stderr."""
    from fcmac import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# --- experiments ---------------------------------------------------------------

EXPERIMENT_IDS = ("section5", "gauss-diff", "gauss-binary", "uniform-grid")


class Experiments:
    """``fcmac experiment <id>`` through ``cli.main``, ids in a fixed cycle.

    The cycle is section5, gauss-diff, gauss-binary, uniform-grid at default
    parameters; the output format alternates between cycles and the
    experiment seed changes every two cycles. ``small`` is the latency of
    section5 plus gauss-binary within one cycle (capacity search, CLI and
    writing), ``large`` that of gauss-diff plus uniform-grid (Monte Carlo).
    """

    name = "experiments"
    kinds = EXPERIMENT_IDS
    time_share = None       # fixed cycle instead of sharing time between kinds
    seeds_per_run = 2

    def build(self, seed: int, work: Path, with_reference: bool) -> float:
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=self.seeds_per_run)]
        self.ops = []
        for s in seeds:
            for fmt in ("csv", "json"):
                for eid in EXPERIMENT_IDS:
                    out = work / f"experiment-{eid}-{s}.{fmt}"
                    argv = ["experiment", eid, "--seed", str(s), "--out", str(out),
                            "--format", fmt]
                    self.ops.append(Op(eid, f"{eid}/{fmt}/{s}", (argv, out, fmt)))
        self.seeds = seeds
        return 0.0

    def describe(self) -> dict:
        return {"ops": "one cli.main experiment call at default parameters"
                       " (1e6 Monte Carlo samples)",
                "experiment_seeds": self.seeds, "formats": ["csv", "json"],
                "pool": len(self.ops)}

    def execute(self, op: Op):
        return run_cli(op.args[0])

    def check(self, op: Op, result) -> bytes:
        code, stdout, stderr = result
        _require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
        _, out, fmt = op.args
        data = out.read_bytes()
        try:
            if fmt == "json":
                obj = json.loads(data)
                _require(obj.get("experiment") == op.kind, "wrong experiment id in JSON")
                _require(obj.get("passed") is True, "JSON reports failed rows")
            else:
                rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
                _require(len(rows) >= 2, "CSV has no data rows")
                _require(all(len(r) == len(rows[0]) for r in rows), "ragged CSV")
        except (ValueError, UnicodeDecodeError) as exc:
            raise GateError(f"unparsable {fmt}: {exc}") from None
        return f"{code}\n{stdout}".encode() + b"\0" + data

    def latencies(self, records) -> dict:
        """Per-cycle sums: ``records`` are (op, ms, position in schedule, ...)."""
        cycles: dict[int, dict] = {}
        for op, ms, pos, *_ in records:
            cycles.setdefault(pos // len(EXPERIMENT_IDS), {})[op.kind] = ms
        groups = {"small": ("section5", "gauss-binary"), "large": ("gauss-diff", "uniform-grid")}
        out = {g: [sum(c[k] for k in ids) for c in cycles.values() if all(k in c for k in ids)]
               for g, ids in groups.items()}
        out.update(latencies_by_kind(records, EXPERIMENT_IDS))
        return out


# --- check theorem1 --------------------------------------------------------------

SMALL_SIZES = [dict(U=u, Z=z, W=w, X=2, Y=y, L=2 + (u + w + y) % 2)
               for u in (2, 3) for z in (1, 2) for w in (2, 3) for y in (2, 3)]
LARGE_SIZE = dict(U=16, Z=2, W=8, X=3, Y=5, L=4)
TOL = 1e-9


def random_system(rng: np.random.Generator, U, Z, W, X, Y, L) -> dict:
    """Arrays of one random system; every kernel row is a Dirichlet draw."""
    def rows(n_from, n_to):
        return rng.dirichlet(np.ones(n_to), size=n_from)
    d = rng.uniform(0.5, 1.5, size=(L, L))
    np.fill_diagonal(d, 0.0)
    return {
        "source": rng.dirichlet(np.ones(U * U * Z ** 3)).reshape(U, U, Z, Z, Z),
        "w1": rows(U * Z, W).reshape(U, Z, W),
        "w2": rows(U * Z, W).reshape(U, Z, W),
        "x1": rows(W, X),
        "x2": rows(W, X),
        "channel": rows(X * X, Y).reshape(X, X, Y),
        "function": rng.integers(0, L, size=(U, U)),
        "decoder": rng.integers(0, L, size=(W, W, Z)),
        "distortion": d,
    }


def system_spec(arrays: dict, target_d: float):
    """The fcmac ``SystemSpec`` of the arrays, built with fcmac's constructors."""
    from fcmac import (Alphabet, DiscreteMAC, DistortionTable, FunctionTable,
                       JointPMF, Kernel, SystemSpec)

    def alph(name, n):
        return Alphabet(name, tuple(str(i) for i in range(n)))

    src = arrays["source"]
    u1, u2, z1, z2, z = (alph(n, k) for n, k in zip(("u1", "u2", "z1", "z2", "z"), src.shape))
    w1, w2 = alph("w1", arrays["w1"].shape[2]), alph("w2", arrays["w2"].shape[2])
    x1, x2 = alph("x1", arrays["x1"].shape[1]), alph("x2", arrays["x2"].shape[1])
    y = alph("y", arrays["channel"].shape[2])
    law = Kernel((x1, x2), (y,), arrays["channel"].reshape(-1, len(y)))
    labels = tuple(range(len(arrays["distortion"])))
    return SystemSpec(
        JointPMF((u1, u2, z1, z2, z), src),
        Kernel((u1, z1), (w1,), arrays["w1"].reshape(-1, len(w1))),
        Kernel((u2, z2), (w2,), arrays["w2"].reshape(-1, len(w2))),
        Kernel((w1,), (x1,), arrays["x1"]),
        Kernel((w2,), (x2,), arrays["x2"]),
        DiscreteMAC((x1, x2), y, law),
        FunctionTable((u1, u2), arrays["function"]),
        FunctionTable((w1, w2, z), arrays["decoder"]),
        DistortionTable(labels, labels, arrays["distortion"]),
        target_d)


class Check:
    """``fcmac check theorem1 --format json`` on seeded random system files.

    ``small``: alphabet sizes as in the property suite, one system per size
    combination and repeat, up to 7776 joint cells. ``large``: |U| = 16,
    two-symbol side information on all three axes, |W| = 8, ternary X,
    |Y| = 5, 5.9 M cells. The two kinds share the run's time about equally.
    """

    name = "check"
    kinds = ("small", "large")
    time_share = {"small": 0.5, "large": 0.5}
    small_repeats = 3
    large_count = 3

    def build(self, seed: int, work: Path, with_reference: bool) -> float:
        from fcmac import jsonio

        rng = np.random.default_rng(seed)
        sizes = ([("small", s) for _ in range(self.small_repeats) for s in SMALL_SIZES]
                 + [("large", LARGE_SIZE)] * self.large_count)
        if with_reference:
            self.refs = {}
        self.ops = []
        ref_s = 0.0
        for i, (kind, size) in enumerate(sizes):
            arrays = random_system(rng, **size)
            key = f"{kind}/{i}"
            if with_reference:
                t0 = perf_counter()
                ref = reference.system_reference(arrays)
                # half the systems meet their distortion target, half miss it
                ref["target"] = ref["distortion"] * (1.25 if i % 2 else 0.8)
                self.refs[key] = ref
                ref_s += perf_counter() - t0
            spec_path = work / f"system-{i}.json"
            jsonio.dump_json(jsonio.system_spec_to_json(
                system_spec(arrays, self.refs[key]["target"])), str(spec_path))
            out = work / f"check-{i}.json"
            argv = ["check", "theorem1", "--spec", str(spec_path), "--format", "json",
                    "--out", str(out), "--allow-boundary"]
            self.ops.append(Op(kind, key, (argv, out)))
        return ref_s

    def describe(self) -> dict:
        return {"small": {"systems": len(SMALL_SIZES) * self.small_repeats,
                          "sizes": SMALL_SIZES, "max_joint_cells": 3 * 3 * 8 * 9 * 4 * 3},
                "large": {"systems": self.large_count, "sizes": LARGE_SIZE,
                          "joint_cells": 16 * 16 * 8 * 8 * 8 * 9 * 5}}

    def execute(self, op: Op):
        return run_cli(op.args[0])

    def check(self, op: Op, result) -> bytes:
        code, _, stderr = result
        _require(code in (0, 1), f"exit code {code}: {stderr.strip()[:200]}")
        data = op.args[1].read_bytes()
        try:
            obj = json.loads(data)
            records = {r["name"]: r for r in obj["inequalities"]}
            achieved = obj["achieved_distortion"]
            target = obj["target_distortion"]
            distortion_ok = obj["distortion_ok"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GateError(f"bad report JSON: {exc!r}") from None
        ref = self.refs[op.key]
        _require(set(records) == {"encoder1", "encoder2", "sum"}, f"records {sorted(records)}")
        for name, rec in records.items():
            lhs, rhs = ref[name]
            _require(abs(rec["lhs_bits"] - lhs) <= TOL, f"{name} lhs {rec['lhs_bits']} != {lhs}")
            _require(abs(rec["rhs_bits"] - rhs) <= TOL, f"{name} rhs {rec['rhs_bits']} != {rhs}")
            margin = rec["margin_bits"]
            _require(abs(margin - (rec["rhs_bits"] - rec["lhs_bits"])) <= 1e-12,
                     f"{name} margin is not rhs - lhs")
            verdict = ("boundary" if abs(margin) <= TOL
                       else "strict" if margin > 0 else "violated")
            _require(rec["verdict"] == verdict, f"{name} verdict {rec['verdict']} for margin {margin}")
        _require(abs(achieved - ref["distortion"]) <= TOL, f"distortion {achieved}")
        _require(target == ref["target"], f"target {target}")
        _require(distortion_ok == (achieved <= target + TOL), "distortion_ok disagrees")
        feasible = distortion_ok and all(r["verdict"] != "violated" for r in records.values())
        _require((code == 0) == feasible, f"exit code {code} but feasible={feasible}")
        return f"{code}\n".encode() + data

    def latencies(self, records) -> dict:
        return latencies_by_kind(records, self.kinds)


# --- graphs --------------------------------------------------------------------------

class Graphs:
    """Library calls on seeded random graph instances.

    ``small``: a 6-8 vertex random graph (edge probability 0.4) with a
    4-symbol peer joint in which each vertex sits on one random peer; exact
    minimum-entropy colouring, conditional graph entropy at default solver
    settings, and the zigzag check of a sparse random support. With a
    full-support peer joint the solver's iteration count, and so the op's
    latency, varies over two orders of magnitude between instances; with one
    peer per vertex it stays within about one.

    ``large``: a full-support 24x24 joint with a random 4-label function;
    characteristic graph in exact and threshold mode (delta = 1), the full
    zigzag scan, greedy colouring, and the OR product of the 3-vertex
    single-edge graph at n = 5.

    ``small`` gets 70 % of the run's time, because its latency
    varies between instances and ``large``'s hardly does.
    """

    name = "graphs"
    kinds = ("small", "large")
    time_share = {"small": 0.7, "large": 0.3}
    small_repeats = 80
    large_count = 3
    large_n = 24

    def build(self, seed: int, work: Path, with_reference: bool) -> float:
        from fcmac import Alphabet, CharGraph, FunctionTable, JointPMF

        rng = np.random.default_rng(seed)
        if with_reference:
            self.refs = {}
        self.ops = []
        ref_s = 0.0
        specs = ([("small", n) for _ in range(self.small_repeats) for n in (6, 7, 8)]
                 + [("large", self.large_n)] * self.large_count)
        for i, (kind, n) in enumerate(specs):
            key = f"{kind}/{i}"
            verts = Alphabet("v", tuple(f"v{k}" for k in range(n)))
            if kind == "small":
                edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
                mass = np.zeros((n, 4))
                mass[np.arange(n), rng.integers(0, 4, size=n)] = rng.random(n) + 0.5
                mass /= mass.sum()
                sparse = rng.random((n, 4)) * (rng.random((n, 4)) < 0.3)
                sparse[0, 0] += 1.0
                sparse /= sparse.sum()
                peers = Alphabet("p", ("p0", "p1", "p2", "p3"))
                g = CharGraph(verts, frozenset((verts.symbols[a], verts.symbols[b])
                                               for a, b in edges))
                args = (g, JointPMF((verts,), mass.sum(axis=1)), JointPMF((verts, peers), mass),
                        JointPMF((Alphabet("a", verts.symbols), peers), sparse))
            else:
                peers = Alphabet("p", tuple(f"p{k}" for k in range(n)))
                mass = rng.dirichlet(np.ones(n * n)).reshape(n, n)
                labels = rng.integers(0, 4, size=(n, n))
                line = CharGraph(Alphabet("t", ("0", "1", "2")), frozenset({("0", "1")}))
                args = (JointPMF((verts, peers), mass), FunctionTable((verts, peers), labels),
                        JointPMF((verts,), mass.sum(axis=1)), line)
            self.ops.append(Op(kind, key, args))
            if not with_reference:
                continue
            t0 = perf_counter()
            if kind == "small":
                adj = reference.adjacency(n, edges)
                self.refs[key] = dict(
                    adj=adj, marginal=mass.sum(axis=1),
                    min_entropy=reference.min_coloring_entropy(adj, mass.sum(axis=1)),
                    sparse=sparse, zigzag=reference.zigzag_holds(sparse))
            else:
                self.refs[key] = dict(
                    marginal=mass.sum(axis=1),
                    exact=reference.characteristic_edges(mass, labels),
                    threshold=reference.characteristic_edges(mass, labels, delta=1),
                    zigzag=reference.zigzag_holds(mass))
            ref_s += perf_counter() - t0
        return ref_s

    def describe(self) -> dict:
        return {"small": {"instances": 3 * self.small_repeats, "vertices": [6, 7, 8],
                          "edge_prob": 0.4, "peer_symbols": 4, "peers_per_vertex": 1,
                          "sparse_support_prob": 0.3},
                "large": {"instances": self.large_count,
                          "joint": [self.large_n, self.large_n], "labels": 4,
                          "threshold_delta": 1, "or_product": {"base_vertices": 3, "n": 5}}}

    def execute(self, op: Op):
        from fcmac import graphs
        if op.kind == "small":
            g, marginal, joint, sparse = op.args
            coloring, bits = graphs.min_entropy_coloring(g, marginal, "exact")
            return (coloring, bits, graphs.conditional_graph_entropy(g, joint),
                    graphs.zigzag_check(sparse))
        joint, f, marginal, line = op.args
        exact = graphs.characteristic_graph(joint, f)
        threshold = graphs.characteristic_graph(joint, f, delta=1)
        zz = graphs.zigzag_check(joint)
        coloring, bits = graphs.min_entropy_coloring(exact, marginal, "greedy")
        return exact, threshold, zz, coloring, bits, graphs.or_product(line, 5)

    def check(self, op: Op, result) -> bytes:
        ref = self.refs[op.key]
        if op.kind == "small":
            coloring, bits, cge, zz = result
            g = op.args[0]
            classes = [coloring.color_of[v] for v in g.vertices.symbols]
            _require(reference.is_proper(ref["adj"], classes), "colouring is not proper")
            _require(abs(bits - reference.class_entropy(classes, ref["marginal"])) <= TOL,
                     "colouring entropy is not the entropy of its class masses")
            _require(abs(bits - ref["min_entropy"]) <= TOL,
                     f"exact colouring entropy {bits} != optimum {ref['min_entropy']}")
            _require(0.0 <= cge.value <= cge.upper_bound,
                     f"conditional graph entropy {cge.value} outside [0, {cge.upper_bound}]")
            _check_zigzag(zz, op.args[3], ref["sparse"], ref["zigzag"])
            out = {"classes": classes, "bits": repr(bits),
                   "cge": [repr(cge.value), repr(cge.upper_bound), cge.converged],
                   "zigzag": [zz.holds, zz.witness]}
        else:
            exact, threshold, zz, coloring, bits, product = result
            joint = op.args[0]
            index = {s: k for k, s in enumerate(joint.axes[0].symbols)}
            got = {name: sorted(tuple(sorted((index[a], index[b]))) for a, b in g.edges)
                   for name, g in (("exact", exact), ("threshold", threshold))}
            for name in got:
                _require(set(got[name]) == ref[name], f"{name} characteristic graph edges differ")
            _check_zigzag(zz, joint, joint.mass, ref["zigzag"])
            _require(zz.holds, "full-support joint must satisfy the zigzag condition")
            classes = [coloring.color_of[v] for v in exact.vertices.symbols]
            adj = reference.adjacency(len(classes), got["exact"])
            _require(reference.is_proper(adj, classes), "greedy colouring is not proper")
            _require(abs(bits - reference.class_entropy(classes, ref["marginal"])) <= TOL,
                     "greedy colouring entropy is not the entropy of its class masses")
            _require(len(product.vertices) == 3 ** 5, f"OR product has {len(product.vertices)} vertices")
            _require(len(product.edges) == (3 ** 10 - 7 ** 5) // 2,
                     f"OR product has {len(product.edges)} edges")
            edges = hashlib.sha256(repr(sorted(product.edges)).encode()).hexdigest()
            out = {"edges": got, "classes": classes, "bits": repr(bits),
                   "zigzag": zz.holds, "or_product": [len(product.vertices), edges]}
        return json.dumps(out, sort_keys=True).encode()

    def latencies(self, records) -> dict:
        return latencies_by_kind(records, self.kinds)


def _check_zigzag(zz, joint, mass: np.ndarray, holds: bool) -> None:
    _require(zz.holds == holds, f"zigzag reports holds={zz.holds}, reference {holds}")
    if zz.witness is not None:
        xs, ys = joint.axes[0].symbols, joint.axes[1].symbols
        (a, b), (c, d) = zz.witness
        _require(reference.is_zigzag_witness(mass, (xs.index(a), ys.index(b)),
                                             (xs.index(c), ys.index(d))),
                 f"zigzag witness {zz.witness} does not violate the condition")


WORKLOADS = {w.name: w for w in (Experiments, Check, Graphs)}

