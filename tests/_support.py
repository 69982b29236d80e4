"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: entropies
are recomputed from dict enumerations, partitions are enumerated without
pruning, and the conditional-graph-entropy oracle is a plain grid search.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from fcmac.channels import DiscreteMAC
from fcmac.feasibility import DistortionTable, SystemSpec, _label_codes
from fcmac.graphs import (CharGraph, ConditionalGraphEntropyResult, FunctionTable,
                          _row_sets, _stable_rows, conditional_chromatic_entropy, stable_sets)
from fcmac.jsonio import SpecFormatError, _index_path
from fcmac.probability import (Alphabet, AxisError, JointPMF, Kernel, clamp_round_off, compose,
                               marginalize, plogp)


def assert_refuses(call, error: type, message: str) -> None:
    """``call()`` raises exactly ``error`` with exactly ``message``."""
    try:
        call()
    except Exception as exc:
        assert type(exc) is error and str(exc) == message, (type(exc), str(exc))
    else:
        raise AssertionError(f"no {error.__name__} raised")


# --- random instances -------------------------------------------------------

def alph(name: str, size: int, prefix: str | None = None) -> Alphabet:
    prefix = prefix if prefix is not None else name
    return Alphabet(name, tuple(f"{prefix}{i}" for i in range(size)))


def random_pmf(rng: np.random.Generator, sizes, names=None) -> JointPMF:
    sizes = tuple(int(s) for s in sizes)
    names = names or tuple(f"v{i}" for i in range(len(sizes)))
    axes = tuple(alph(n, s) for n, s in zip(names, sizes))
    mass = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointPMF(axes, mass)


def random_kernel(rng: np.random.Generator, from_axes, to_axes) -> Kernel:
    n_from = int(np.prod([len(a) for a in from_axes]))
    n_to = int(np.prod([len(a) for a in to_axes]))
    rows = rng.dirichlet(np.ones(n_to), size=n_from)
    return Kernel(tuple(from_axes), tuple(to_axes), rows)


def random_graph(rng: np.random.Generator, n: int, edge_prob: float | None = None,
                 ) -> CharGraph:
    verts = alph("v", n)
    p = rng.uniform(0.15, 0.75) if edge_prob is None else edge_prob
    edges = set()
    for a, b in itertools.combinations(verts.symbols, 2):
        if rng.random() < p:
            edges.add((a, b))
    return CharGraph(verts, frozenset(edges))


SYSTEM_AXES = ("u1", "u2", "z1", "z2", "z", "w1", "w2", "x1", "x2", "y")


def random_system_spec(rng: np.random.Generator, sizes: dict | None = None) -> SystemSpec:
    """Random chain system; ``sizes`` maps every name in SYSTEM_AXES to its
    alphabet size, and by default each size is drawn small."""
    if sizes is None:
        ranges = (("u1", 2, 4), ("u2", 2, 4), ("z1", 1, 3), ("z2", 1, 3), ("z", 1, 3),
                  ("w1", 2, 4), ("w2", 2, 4))
        sizes = {name: int(rng.integers(lo, hi)) for name, lo, hi in ranges}
        sizes.update(x1=2, x2=2, y=int(rng.integers(2, 4)))
    u1, u2, z1, z2, z, w1, w2, x1, x2, y = (alph(n, sizes[n]) for n in SYSTEM_AXES)

    source_axes = (u1, u2, z1, z2, z)
    shape = tuple(len(a) for a in source_axes)
    source = JointPMF(source_axes, rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape))

    labels = ("g0", "g1", "g2")
    f_vals = rng.choice(labels, size=(len(u1), len(u2)))
    dec_vals = rng.choice(labels, size=(len(w1), len(w2), len(z)))
    costs = rng.uniform(0.2, 1.0, size=(3, 3))
    costs = (costs + costs.T) / 2
    np.fill_diagonal(costs, 0.0)
    return SystemSpec(
        source_joint=source,
        w1_kernel=random_kernel(rng, (u1, z1), (w1,)),
        w2_kernel=random_kernel(rng, (u2, z2), (w2,)),
        x1_kernel=random_kernel(rng, (w1,), (x1,)),
        x2_kernel=random_kernel(rng, (w2,), (x2,)),
        channel=DiscreteMAC((x1, x2), y, random_kernel(rng, (x1, x2), (y,))),
        function=FunctionTable((u1, u2), f_vals),
        decoder=FunctionTable((w1, w2, z), dec_vals),
        distortion=DistortionTable(labels, labels, costs),
        target_d=float(rng.uniform(0.0, 1.0)),
    )


def assemble_joint(spec: SystemSpec) -> JointPMF:
    """Ten-axis joint with the chain factorization
    source x w1 x w2 x x1 x x2 x channel: the dense reference for the
    clique-wise check, which never builds it."""
    return compose(spec.source_joint,
                   [spec.w1_kernel, spec.w2_kernel,
                    spec.x1_kernel, spec.x2_kernel, spec.channel.law])


def reorder(pmf: JointPMF, names) -> JointPMF:
    """Permute axes into the given order (must list every axis exactly once)."""
    names = (names,) if isinstance(names, str) else tuple(names)
    if sorted(names) != sorted(pmf.axis_names):
        raise AxisError(f"reorder needs a permutation of {pmf.axis_names}, got {names}")
    perm = [pmf.axis_position(n) for n in names]
    return JointPMF(tuple(pmf.axes[i] for i in perm), np.transpose(pmf.mass, perm))


def reordered(f: FunctionTable, names) -> FunctionTable:
    """``f`` with its domain axes permuted into the given name order."""
    names = tuple(names)
    have = tuple(a.name for a in f.domain_axes)
    if sorted(names) != sorted(have):
        raise AxisError(f"need a permutation of {have}, got {names}")
    perm = [have.index(n) for n in names]
    return FunctionTable(tuple(f.domain_axes[i] for i in perm), np.transpose(f.values, perm))


def value_at(f: FunctionTable, *symbols) -> object:
    """The label of ``f`` at one symbol per domain axis."""
    return f.values[tuple(a.index(s) for a, s in zip(f.domain_axes, symbols))]


def has_edge(g: CharGraph, a, b) -> bool:
    """Whether the vertex symbols ``a`` and ``b`` are adjacent in ``g``."""
    return bool(g._adj[g.vertices.index(a), g.vertices.index(b)])


def joint_expected_distortion(spec: SystemSpec, joint: JointPMF) -> float:
    """E[d(function(U1, U2), decoder(W1, W2, Z))] under any ``joint`` holding
    (u1, u2, z, w1, w2): the dense reference for ``expected_distortion``,
    with each cell's cost gathered on the five axes and weighed by its mass."""
    names = spec.axis_names
    keep = (names["u1"], names["u2"], names["z"], names["w1"], names["w2"])
    mass = reorder(marginalize(joint, keep), keep).mass
    f_codes = _label_codes(spec.function, spec.distortion.output_labels)
    d_codes = _label_codes(spec.decoder, spec.distortion.estimate_labels)
    weighted = spec.distortion.values[:, np.moveaxis(d_codes, 2, 0)][f_codes]
    weighted *= mass
    return float(np.sum(weighted))


def loop_deterministic_rows(from_axes, to_axes, fn) -> np.ndarray:
    """``Kernel.deterministic``'s rows by search: each source tuple's row,
    in C order, holds one 1 at the one target tuple that ``fn``'s output
    names, with the target tuples listed in C order. A target tuple ``t`` is
    named by an output equal to ``t``, or, with one target axis, equal to
    ``t``'s one symbol."""
    sources = list(itertools.product(*(a.symbols for a in from_axes)))
    targets = list(itertools.product(*(a.symbols for a in to_axes)))
    rows = np.zeros((len(sources), len(targets)))
    for r, source in enumerate(sources):
        out = fn(*source)
        hits = [c for c, t in enumerate(targets) if out == t or (len(t) == 1 and out == t[0])]
        assert len(hits) == 1, (source, out, hits)
        rows[r, hits[0]] = 1.0
    return rows


# --- the check's bounds through JointPMF wrappers ----------------------------
# How the check evaluated its six bounds before they were read from raw
# arrays: each marginal wrapped in a JointPMF, each measure reducing its
# input once and summing each smaller marginal from the smallest one formed.
# The raw-array evaluation sums the same arrays over the same axes, so it
# must match this bit for bit.

def _wrapped_marginal(pmf: JointPMF, keep: tuple) -> JointPMF:
    drop = tuple(i for i, a in enumerate(pmf.axes) if a.name not in keep)
    kept = tuple(a for a in pmf.axes if a.name in keep)
    return JointPMF._adopt(kept, pmf.mass.sum(axis=drop) if drop else pmf.mass)


def _wrapped_entropy(pmf: JointPMF) -> float:
    return -_sum_plogp(pmf.mass.ravel()) if pmf.axes else 0.0


def _wrapped_conditional_entropy(pmf: JointPMF, t: tuple, g: tuple) -> float:
    tg = _wrapped_marginal(pmf, t + g)
    h_g = _wrapped_entropy(_wrapped_marginal(tg, g)) if g else 0.0
    return _wrapped_entropy(tg) - h_g


def _wrapped_mutual_information(pmf: JointPMF, a: tuple, b: tuple, g: tuple) -> float:
    abg = _wrapped_marginal(pmf, a + b + g)
    ag = _wrapped_marginal(abg, a + g)
    bg = _wrapped_marginal(abg, b + g)
    smaller = ag if ag.mass.size <= bg.mass.size else bg
    h_g = _wrapped_entropy(_wrapped_marginal(smaller, g)) if g else 0.0
    return clamp_round_off(
        (_wrapped_entropy(ag) - h_g) - (_wrapped_entropy(abg) - _wrapped_entropy(bg)))


def frozen_check_bounds(spec: SystemSpec) -> tuple[float, ...]:
    """The check's (encoder1, encoder2, sum) left-hand sides, then its three
    right-hand sides, each marginal summed from the source it was summed
    from when every marginal was a JointPMF."""
    n = spec.axis_names
    u1, u2, z1, z2, z = spec.source_joint.axes
    (w1,), (w2,) = spec.w1_kernel.to_axes, spec.w2_kernel.to_axes
    p, k1, k2 = spec.source_joint.mass, spec.w1_kernel.tensor, spec.w2_kernel.tensor
    s2 = p.transpose(0, 2, 4, 1, 3).reshape(-1, len(u2) * len(z2)) @ spec.w2_kernel.rows
    s1 = p.transpose(1, 3, 4, 0, 2).reshape(-1, len(u1) * len(z1)) @ spec.w1_kernel.rows
    t1 = JointPMF._adopt((u1, z1, z, w1, w2), k1[:, :, None, :, None]
                         * s2.reshape(len(u1), len(z1), len(z), 1, len(w2)))
    t2 = JointPMF._adopt((u2, z2, z, w1, w2), k2[:, :, None, None, :]
                         * s1.reshape(len(u2), len(z2), len(z), len(w1), 1))
    channel = compose(_wrapped_marginal(t1, (n["w1"], n["w2"], n["z"])),
                      [spec.x1_kernel, spec.x2_kernel, spec.channel.law])
    joint_rate = (_wrapped_conditional_entropy(t1, (n["w1"], n["w2"]), (n["z"],))
                  - _wrapped_conditional_entropy(t1, (n["w1"],), (n["u1"], n["z1"]))
                  - _wrapped_conditional_entropy(t2, (n["w2"],), (n["u2"], n["z2"])))
    return (
        _wrapped_mutual_information(t1, (n["u1"], n["z1"]), (n["w1"],), (n["w2"], n["z"])),
        _wrapped_mutual_information(t2, (n["u2"], n["z2"]), (n["w2"],), (n["w1"], n["z"])),
        clamp_round_off(joint_rate),
        _wrapped_mutual_information(channel, (n["x1"],), (n["y"],),
                                    (n["x2"], n["w2"], n["z"])),
        _wrapped_mutual_information(channel, (n["x2"],), (n["y"],),
                                    (n["x1"], n["w1"], n["z"])),
        _wrapped_mutual_information(channel, (n["x1"], n["x2"]), (n["y"],), (n["z"],)),
    )


# --- the entry-by-entry JSON readers -----------------------------------------
# The readers of numeric arrays and label lists before they checked each
# nesting level and each array's types in one pass: the behaviour the one-pass
# readers must match, in what they accept and in how they name a refusal.

def entrywise_nested_floats(data, shape: tuple, path: str) -> np.ndarray:
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


def entrywise_check_labels(values, path_of) -> None:
    for pos, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SpecFormatError(path_of(pos), "labels must be strings or numbers")
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecFormatError(path_of(pos), f"label {value} is not finite")


# --- dict-based information oracles -----------------------------------------

def pmf_as_dict(pmf: JointPMF) -> dict:
    out = {}
    for idx in np.ndindex(pmf.mass.shape):
        p = float(pmf.mass[idx])
        if p > 0:
            key = tuple(a.symbols[i] for a, i in zip(pmf.axes, idx))
            out[key] = out.get(key, 0.0) + p
    return out


def dict_entropy(weights: dict) -> float:
    return -sum(p * math.log2(p) for p in weights.values() if p > 0)


def dict_marginal(joint: dict, positions) -> dict:
    out = {}
    for key, p in joint.items():
        sub = tuple(key[i] for i in positions)
        out[sub] = out.get(sub, 0.0) + p
    return out


def dict_conditional_entropy(joint: dict, target_pos, given_pos) -> float:
    both = dict_marginal(joint, tuple(target_pos) + tuple(given_pos))
    given = dict_marginal(joint, tuple(given_pos))
    return dict_entropy(both) - dict_entropy(given)


# --- information measures reduced from the full pmf --------------------------
# The library's formulas before each measure reduced its pmf once: every
# entropy is summed straight from the full tensor, with its own p log p.

def _full_entropy(pmf: JointPMF, names: tuple) -> float:
    keep = set(names)
    drop = tuple(i for i, a in enumerate(pmf.axes) if a.name not in keep)
    flat = (pmf.mass.sum(axis=drop) if drop else pmf.mass).ravel()
    p = flat[flat > 0]
    return -float(np.sum(p * np.log2(p)))


def loop_conditional_entropy(pmf: JointPMF, target: tuple, given: tuple = ()) -> float:
    if not given:
        return _full_entropy(pmf, target)
    return _full_entropy(pmf, target + given) - _full_entropy(pmf, given)


def loop_mutual_information(pmf: JointPMF, a: tuple, b: tuple, given: tuple = ()) -> float:
    value = (loop_conditional_entropy(pmf, a, given)
             - loop_conditional_entropy(pmf, a, b + given))
    return 0.0 if -1e-9 < value < 0 else value


# --- exact-partition oracle --------------------------------------------------

def brute_force_partitions(adj: list[int], weights: np.ndarray,
                           ) -> list[tuple[list[int], float]]:
    """Every proper partition, as its restricted-growth assignment in
    lexicographic order, with its H(class | column), by full enumeration."""
    n, m = weights.shape
    col_total = weights.sum(axis=0)
    hz = dict_entropy({i: float(c) for i, c in enumerate(col_total) if c > 0})
    out = []
    assign = [0] * n

    def rec(v: int, classes: list[tuple[int, np.ndarray]]):
        if v == n:
            joint = {}
            for ci, (_, vec) in enumerate(classes):
                for zi, p in enumerate(vec):
                    if p > 0:
                        joint[(ci, zi)] = float(p)
            out.append((assign.copy(), dict_entropy(joint) - hz))
            return
        for ci, (mask, vec) in enumerate(classes):
            if not (mask & adj[v]):
                classes[ci] = (mask | (1 << v), vec + weights[v])
                assign[v] = ci
                rec(v + 1, classes)
                classes[ci] = (mask, vec)
        classes.append((1 << v, weights[v].copy()))
        assign[v] = len(classes) - 1
        rec(v + 1, classes)
        classes.pop()

    rec(0, [])
    return out


def brute_force_min_conditional_entropy(adj: list[int], weights: np.ndarray,
                                        ) -> float:
    """Minimum H(class | column) over proper partitions by full enumeration."""
    return max(min(value for _, value in brute_force_partitions(adj, weights)), 0.0)


# --- grid oracle for the conditional graph entropy ---------------------------

def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_stable_sets(n: int, edges_idx) -> list[int]:
    """All nonempty stable sets as bitmasks, by direct subset filtering."""
    out = []
    for mask in range(1, 1 << n):
        if all(not ((mask >> a & 1) and (mask >> b & 1)) for a, b in edges_idx):
            out.append(mask)
    return out


def grid_conditional_graph_entropy(joint: JointPMF, graph: CharGraph,
                                   resolution: float = 0.01) -> float:
    """Grid-search lower-level oracle over kernels supported on ALL stable
    sets, independent of the solver's restriction to maximal sets."""
    syms = graph.vertices.symbols
    n1, n2 = joint.mass.shape
    idx = {s: i for i, s in enumerate(syms)}
    edges_idx = [(idx[a], idx[b]) for a, b in graph.edges]
    sets = enumerate_stable_sets(n1, edges_idx)
    nw = len(sets)

    p = joint.mass.astype(float)
    p1 = p.sum(axis=1)
    p2 = p.sum(axis=0)
    cond = np.zeros((n1, n2))          # p(u1 | u2)
    for j in range(n2):
        if p2[j] > 0:
            cond[:, j] = p[:, j] / p2[j]

    steps = round(1.0 / resolution)
    grids = []
    for u in range(n1):
        allowed = [w for w, mask in enumerate(sets) if mask >> u & 1]
        rows = []
        for combo in _compositions(steps, len(allowed)):
            q = np.zeros(nw)
            for w, c in zip(allowed, combo):
                q[w] = c / steps
            rows.append(q)
        grids.append(np.array(rows))

    if n1 == 3 and all(np.count_nonzero(cond[:, j]) <= 2 for j in range(n2)):
        return _grid_cge_three_vertices(grids, cond, p1, p2, n2)

    big = max(range(n1), key=lambda u: len(grids[u]))
    others = [u for u in range(n1) if u != big]
    big_grid = grids[big]
    h_big = _neg_plogp(big_grid)
    h_rows = {u: _neg_plogp(grids[u]) for u in others}
    big_part = [cond[big, j] * big_grid for j in range(n2)]

    combos = list(itertools.product(*(range(len(grids[u])) for u in others)))
    best = float("inf")
    chunk_size = 128
    for start in range(0, len(combos), chunk_size):
        chunk = combos[start:start + chunk_size]
        k = len(chunk)
        fixed = np.zeros((k, n2, nw))
        h1_fixed = np.zeros(k)
        for ci, combo in enumerate(chunk):
            for u, gi in zip(others, combo):
                fixed[ci] += np.outer(cond[u], grids[u][gi])
                h1_fixed[ci] += p1[u] * h_rows[u][gi]
        h_w_u2 = np.zeros((k, len(big_grid)))
        for j in range(n2):
            r = fixed[:, j][:, None, :] + big_part[j][None, :, :]
            h_w_u2 += p2[j] * _neg_plogp(r)
        info = h_w_u2 - (h1_fixed[:, None] + p1[big] * h_big[None, :])
        best = min(best, float(info.min()))
    return max(best, 0.0)


def _neg_plogp(mat: np.ndarray) -> np.ndarray:
    # entropy contribution along the last axis; log2(x + [x<=0]) is 0 off support
    return -(mat * np.log2(mat + (mat <= 0))).sum(axis=-1)


def _pair_table(gu: np.ndarray, gv: np.ndarray, cu: float, cv: float,
                chunk: int = 1024) -> np.ndarray:
    """Entropy of cu*q_u + cv*q_v for every grid-row pair."""
    out = np.empty((len(gu), len(gv)))
    for s in range(0, len(gu), chunk):
        r = cu * gu[s:s + chunk][:, None, :] + cv * gv[None, :, :]
        out[s:s + chunk] = _neg_plogp(r)
    return out


def _grid_cge_three_vertices(grids, cond, p1, p2, n2) -> float:
    """Factored grid search: with at most two vertices coupled per peer
    symbol, H(W|U2) splits into per-peer pair tables."""
    h1 = [p1[u] * _neg_plogp(grids[u]) for u in range(3)]
    singles = []   # (vertex, weighted entropy vector)
    pairs = []     # (u, v, weighted table)
    for j in range(n2):
        active = [u for u in range(3) if cond[u, j] > 0]
        if not active:
            continue
        if len(active) == 1:
            u = active[0]
            singles.append((u, p2[j] * _neg_plogp(cond[u, j] * grids[u])))
        else:
            u, v = active
            pairs.append((u, v, p2[j] * _pair_table(grids[u], grids[v],
                                                    cond[u, j], cond[v, j])))
    best = float("inf")
    n_b, n_c = len(grids[1]), len(grids[2])
    for a in range(len(grids[0])):
        m = np.zeros((n_b, n_c))
        m -= h1[0][a] + h1[1][:, None] + h1[2][None, :]
        for u, vec in singles:
            m += vec[a] if u == 0 else (vec[:, None] if u == 1 else vec[None, :])
        for u, v, tab in pairs:
            if (u, v) == (0, 1):
                m += tab[a, :][:, None]
            elif (u, v) == (0, 2):
                m += tab[a, :][None, :]
            else:
                m += tab
        best = min(best, float(m.min()))
    return max(best, 0.0)


# --- loop references for the vectorised graph kernels ------------------------

def loop_label_codes(values: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Distinct labels of a label table by first appearance in C order, found
    by comparing each cell with every label seen so far, and each cell's
    position among them."""
    labels: list = []
    codes = np.empty(values.shape, dtype=np.intp)
    for idx in itertools.product(*(range(n) for n in values.shape)):
        v = values[idx]
        k = next((k for k, seen in enumerate(labels) if seen == v), len(labels))
        if k == len(labels):
            labels.append(v)
        codes[idx] = k
    return tuple(labels), codes


def loop_characteristic_edges(joint: JointPMF, f: FunctionTable, delta=None) -> set:
    """Characteristic-graph edges (lower index first) by scanning every
    vertex pair and every peer, as the graph layer did before vectorising.
    In threshold mode each pair of values is subtracted as ``Fraction``s,
    which is exact for int, float and ``Fraction`` labels, and the
    difference is compared with ``delta`` as Python compares numbers,
    exactly."""
    verts = joint.axes[0].symbols
    mass = joint.mass
    edges = set()
    for i, j in itertools.combinations(range(len(verts)), 2):
        for k in range(mass.shape[1]):
            if mass[i, k] > 0 and mass[j, k] > 0:
                fi, fj = f.values[i, k], f.values[j, k]
                confusable = (fi != fj if delta is None
                              else abs(Fraction(fi) - Fraction(fj)) > delta)
                if confusable:
                    edges.add((verts[i], verts[j]))
                    break
    return edges


def loop_or_product_edges(graph: CharGraph, n: int) -> set:
    """Edges of the n-fold OR product by testing every pair of n-tuples."""
    idx = {s: i for i, s in enumerate(graph.vertices.symbols)}
    base = {(idx[a], idx[b]) for a, b in graph.edges}
    base |= {(b, a) for a, b in base}
    tuples = list(itertools.product(graph.vertices.symbols, repeat=n))
    return {(u, v) for u, v in itertools.combinations(tuples, 2)
            if any((idx[a], idx[b]) in base for a, b in zip(u, v))}


def outer_iid_pair_power_mass(mass: np.ndarray, n: int) -> np.ndarray:
    """Mass of the n-fold iid product of a two-axis joint as ``iid_pair_power``
    built it before it took Kronecker powers: n - 1 outer products, whose axes
    (i1, j1, i2, j2, ...) are then grouped as the i's, then the j's."""
    full = mass
    for _ in range(n - 1):
        full = np.multiply.outer(full, mass)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    s1, s2 = mass.shape
    return np.transpose(full, perm).reshape(s1 ** n, s2 ** n)


def np_kron_power(base: np.ndarray, n: int) -> np.ndarray:
    """n-th Kronecker power of a matrix by n - 1 calls of ``np.kron``, as
    ``graphs._kron_power`` built it before it formed each factor on whole
    output rows."""
    power = base
    for _ in range(n - 1):
        power = np.kron(power, base)
    return power


def loop_zigzag(joint: JointPMF) -> tuple[bool, tuple | None]:
    """Zigzag condition and its first witness by scanning all support pairs
    in row-major order."""
    mass = joint.mass
    support = np.argwhere(mass > 0)
    xs, ys = joint.axes[0].symbols, joint.axes[1].symbols
    for (i1, j1) in support:
        for (i2, j2) in support:
            if mass[i1, j2] == 0 and mass[i2, j1] == 0:
                return False, ((xs[i1], ys[j1]), (xs[i2], ys[j2]))
    return True, None


def loop_sorted_edges(graph: CharGraph) -> list[tuple]:
    """Edges ordered by the alphabet positions of their endpoints."""
    idx = {s: i for i, s in enumerate(graph.vertices.symbols)}
    return sorted(graph.edges, key=lambda e: (idx[e[0]], idx[e[1]]))


def loop_graph_to_json(graph: CharGraph) -> dict:
    """The graph file payload with each edge's two labels emitted one by one,
    as ``jsonio.graph_to_json`` built it before it emitted each label once."""
    def emit(value):
        if isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return value
        return str(value)
    return {"vertices": [emit(v) for v in graph.vertices.symbols],
            "edges": [[emit(a), emit(b)] for a, b in loop_sorted_edges(graph)]}


def loop_coloring_clashes(graph: CharGraph, color_of) -> list[tuple]:
    """Edges whose ends share a color, in ``sorted_edges()`` order: the
    propriety loop ``Coloring`` ran over the symbol edge set before it
    checked the adjacency matrix."""
    return [(a, b) for a, b in loop_sorted_edges(graph) if color_of[a] == color_of[b]]


def loop_adjacency_masks(graph: CharGraph) -> list[int]:
    idx = {s: i for i, s in enumerate(graph.vertices.symbols)}
    masks = [0] * len(idx)
    for a, b in graph.edges:
        masks[idx[a]] |= 1 << idx[b]
        masks[idx[b]] |= 1 << idx[a]
    return masks


def _plogp(x: float) -> float:
    return x * np.log2(x) if x > 0 else 0.0


def loop_min_entropy_partition(adj: list[int], weights: np.ndarray,
                               ) -> tuple[list[int], float]:
    """Exact minimum of H(class | column) over proper partitions, on
    per-vertex neighbor bitmasks: the branch-and-bound as the graph layer ran
    it before it read the adjacency matrix. Same vertex order, bound, pruning
    rule and tie rule, and the same leaf value: each vertex's increment of
    the sum of p*log2(p) over the (class, column) cells, added in vertex
    order and passed down the tree, minus the ``fsum`` of H(Z). So
    assignments and values must agree bit for bit."""
    n, m = weights.shape
    col_total = weights.sum(axis=0)
    h_cond = -math.fsum(_plogp(c) for c in col_total)  # H(Z), subtracted at the end

    best_assign: list[int] | None = None
    best_val = float("inf")
    assign = [0] * n
    class_masks: list[int] = []
    class_mass: list[np.ndarray] = []

    def bound(remaining: np.ndarray) -> float:
        total = 0.0
        for z in range(m):
            r = remaining[z]
            if class_mass:
                mz = max(cm[z] for cm in class_mass)
                sz = sum(_plogp(cm[z]) for cm in class_mass)
                total += -(sz - _plogp(mz) + _plogp(mz + r))
            else:
                total += -_plogp(r)
        return total - h_cond

    # s: the sum of p*log2(p) over all (class, column) cells
    def descend(v: int, s: float, remaining: np.ndarray) -> None:
        nonlocal best_assign, best_val
        if v == n:
            val = -s - h_cond
            if val < best_val - 1e-12:
                best_val = val
                best_assign = assign.copy()
            return
        if bound(remaining) >= best_val - 1e-12:
            return
        w = weights[v]
        rem = remaining - w
        bit = 1 << v
        for c in range(len(class_masks) + 1):
            if c < len(class_masks):
                if class_masks[c] & adj[v]:
                    continue
                old = class_mass[c].copy()
                ds = sum(_plogp(o + x) - _plogp(o) for o, x in zip(old, w))
                class_masks[c] |= bit
                class_mass[c] = old + w
                assign[v] = c
                descend(v + 1, s + ds, rem)
                class_masks[c] &= ~bit
                class_mass[c] = old
            else:
                ds = sum(_plogp(x) for x in w)
                class_masks.append(bit)
                class_mass.append(w.copy())
                assign[v] = c
                descend(v + 1, s + ds, rem)
                class_masks.pop()
                class_mass.pop()

    descend(0, 0.0, col_total.copy())
    assert best_assign is not None
    return best_assign, max(best_val, 0.0)


def partition_values(assign: list[int], weights: np.ndarray) -> tuple[float, float]:
    """H(class | column) of a partition, two ways: the exact search's sum
    (per vertex, the change of the sum of p*log2(p) over the (class, column)
    cells on the columns the vertex has mass in, added in vertex order, then
    the ``fsum`` of H(Z) taken off, and the result held at 0), and the
    ``fsum`` over the partition's cells, not held at 0."""
    rows = weights.tolist()
    h_z = -math.fsum(_plogp(c) for c in np.add.reduce(weights, axis=0).tolist())
    cells: dict[int, list[float]] = {}
    s = 0.0
    for c, row in zip(assign, rows):
        cell = cells.setdefault(c, [0.0] * len(row))
        ds = 0.0
        for z, x in enumerate(row):
            if x:
                ds += _plogp(cell[z] + x) - _plogp(cell[z])
                cell[z] += x
        s += ds
    h_joint = -math.fsum(_plogp(x) for cell in cells.values() for x in cell)
    return max(-s - h_z, 0.0), h_joint - h_z


def loop_greedy_assignment(adj: list[int], vertex_mass: np.ndarray) -> list[int]:
    """First-fit coloring over vertices in decreasing-mass order, scanning
    every vertex's neighbor bitmask, as the graph layer did before it read
    the adjacency matrix rows."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-vertex_mass[v], v))
    assign = [-1] * n
    for v in order:
        used = {assign[u] for u in range(n) if assign[u] >= 0 and adj[v] >> u & 1}
        c = 0
        while c in used:
            c += 1
        assign[v] = c
    # renumber by first appearance in alphabet order so output is canonical
    remap: dict[int, int] = {}
    for v in range(n):
        remap.setdefault(assign[v], len(remap))
    return [remap[a] for a in assign]


def loop_simplex_grid(dim: int, points: int) -> np.ndarray:
    """Pmfs on ``dim`` symbols in multiples of 1/(points-1), one
    ``np.bincount`` per combination with replacement: the capacity search's
    grid as the channel layer built it before it assembled count blocks."""
    steps = points - 1
    rows = []
    for combo in itertools.combinations_with_replacement(range(dim), steps):
        counts = np.bincount(combo, minlength=dim)
        rows.append(counts / steps)
    return np.array(rows)



def _array_plogp(a: np.ndarray) -> np.ndarray:
    pos = a > 0
    return np.where(pos, a * np.log2(np.where(pos, a, 1.0)), 0.0)


def _sum_plogp(flat: np.ndarray) -> float:
    p = flat[flat > 0]
    return float(np.sum(p * np.log2(p)))


def _golden_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def einsum_grid_argmax(law3: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> tuple[int, int]:
    """(a, b) maximizing I(X1,X2;Y) at the inputs (g1[a], g2[b]), the first in
    the order a * len(g2) + b, by the capacity search's grid sweep as it ran
    before it went in row blocks: one three-operand ``np.einsum`` over the
    whole product grid."""
    py = np.einsum("ai,bj,ijy->aby", g1, g2, law3)
    hy = -_array_plogp(py).sum(axis=2)
    eh = g1 @ (-_array_plogp(law3).sum(axis=2)) @ g2.T
    info = hy - eh
    return divmod(int(np.argmax(info)), len(g2))


def golden_capacity_reference(mac: DiscreteMAC) -> tuple[float, np.ndarray, np.ndarray]:
    """(bits, input1, input2) of the independent-input sum capacity search as
    it ran before it stopped on block Frank-Wolfe gaps: the grid sweep, then
    rounds of golden-section searches along pairwise mass exchanges until a
    round gains less than 1e-12 bits or 60 rounds have run. Every
    H(Y | x1, x2) is recomputed on each evaluation, as it was then."""
    law3 = mac.law_tensor
    n1, n2 = law3.shape[0], law3.shape[1]
    g1 = loop_simplex_grid(n1, 51)
    g2 = loop_simplex_grid(n2, 51)
    a, b = einsum_grid_argmax(law3, g1, g2)
    p1 = g1[a].copy()
    p2 = g2[b].copy()

    def value(q1, q2) -> float:
        py = np.einsum("i,j,ijy->y", q1, q2, law3)
        h_y = -_sum_plogp(py)
        h_y_given_x = -float(q1 @ _array_plogp(law3).sum(axis=2) @ q2)
        return h_y - h_y_given_x

    best = value(p1, p2)
    for _ in range(60):
        improved = best
        for which in (0, 1):
            p = p1 if which == 0 else p2
            for i, j in itertools.combinations(range(len(p)), 2):
                lo, hi = -p[j], p[i]
                if hi - lo <= 0:
                    continue

                def along(t, i=i, j=j, which=which):
                    q = (p1 if which == 0 else p2).copy()
                    q[i] -= t
                    q[j] += t
                    return value(q, p2) if which == 0 else value(p1, q)

                t, ft = _golden_section_max(along, lo, hi)
                if ft > best:
                    best = ft
                    p[i] -= t
                    p[j] += t
        if best - improved < 1e-12:
            break
    p1 = np.clip(p1, 0.0, 1.0)
    p2 = np.clip(p2, 0.0, 1.0)
    return float(best), p1 / p1.sum(), p2 / p2.sum()


LOOP_CGE_SEED = 987654321


def loop_conditional_graph_entropy(g: CharGraph, joint: JointPMF, *, restarts: int = 16,
                                   tol: float = 1e-8, max_iter: int = 10_000,
                                   ) -> ConditionalGraphEntropyResult:
    """Conditional graph entropy with seeded random restarts, one after
    another, each stopped once an iteration improves the objective by less
    than ``tol``, and a Python loop per row of p*log2(p). It carries no
    certificate: ``gap`` is NaN. Every value it returns is the objective at a
    feasible kernel, so it bounds the minimum from above."""
    sets = stable_sets(g, maximal_only=True)
    n1, n2 = joint.mass.shape
    nw = len(sets)
    allowed = np.zeros((n1, nw))
    for j, s in enumerate(sets):
        for v in s:
            allowed[g.vertices.index(v), j] = 1.0

    p = joint.mass.astype(float)
    p1 = p.sum(axis=1)
    p2 = p.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        p2_given_1 = np.where(p1[:, None] > 0, p / np.where(p1[:, None] > 0, p1[:, None], 1), 0.0)
        p1_given_2 = np.where(p2[None, :] > 0, p / np.where(p2[None, :] > 0, p2[None, :], 1), 0.0)

    def row_plogp(mat: np.ndarray) -> np.ndarray:
        out = np.zeros(mat.shape[0])
        for i, row in enumerate(mat):
            pos = row[row > 0]
            out[i] = float(np.sum(pos * np.log2(pos)))
        return out

    def objective(q: np.ndarray) -> float:
        r = p1_given_2.T @ q                       # r[u2, w]
        h_w_u2 = -float(np.sum(p2 * row_plogp(r)))
        h_w_u1 = -float(np.sum(p1 * row_plogp(q)))
        return h_w_u2 - h_w_u1

    upper = conditional_chromatic_entropy(g, joint, 1)
    rng = np.random.default_rng(LOOP_CGE_SEED)
    best_val = float("inf")
    best_q = None
    all_converged = True
    for restart in range(max(restarts, 1)):
        if restart == 0:
            q = allowed.copy()
        else:
            q = rng.random((n1, nw)) * allowed
        q /= q.sum(axis=1, keepdims=True)
        prev = float("inf")
        converged = False
        for _ in range(max_iter):
            cur = objective(q)
            if prev - cur < tol:
                converged = True
                break
            prev = cur
            r = p1_given_2.T @ q
            logr = np.log2(np.maximum(r, 1e-300))
            a = p2_given_1 @ logr                  # a[u1, w]
            a = np.where(allowed > 0, a, -np.inf)
            a = a - a.max(axis=1, keepdims=True)
            q = np.exp2(a)
            q /= q.sum(axis=1, keepdims=True)
        val = objective(q)
        all_converged = all_converged and converged
        if val < best_val:
            best_val = val
            best_q = q
    value = min(max(best_val, 0.0), upper)
    return ConditionalGraphEntropyResult(value, upper, best_q, tuple(sets), all_converged,
                                         math.nan)


def frozen_conditional_graph_entropy(g: CharGraph, joint: JointPMF, *,
                                     tol: float = 1e-8, max_iter: int = 10_000,
                                     lower_goal: float | None = None,
                                     ) -> ConditionalGraphEntropyResult:
    """The certified solver's loop as it was before each step was cut to
    fewer numpy calls and then over-relaxed: plain steps only, ``np.where``
    masks, ``log2 q`` with -inf off the allowed sets, and ``plogp(q)`` inside
    every step. At ``max_iter=0``, where the solver keeps the uniform start,
    it must return this kernel and value bit for bit; elsewhere these
    certificates are the reference. With ``lower_goal`` the loop also stops
    once its own lower bound on the minimum, value minus gap, reaches that
    goal; the iterates are the same."""
    rows = _stable_rows(g, maximal_only=True)
    sets = _row_sets(g, rows)
    allowed = np.ascontiguousarray(rows.T)

    p = joint.mass.astype(float)
    p1 = p.sum(axis=1)
    p2 = p.sum(axis=0)
    q = allowed / allowed.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p2_given_1 = np.where(p1[:, None] > 0, p / np.where(p1[:, None] > 0, p1[:, None], 1), 0.0)
        p1_given_2 = np.where(p2[None, :] > 0, p / np.where(p2[None, :] > 0, p2[None, :], 1), 0.0)
        log_q = np.log2(q)

    upper = conditional_chromatic_entropy(g, joint, 1)

    def value_at(q_log_q, r) -> float:
        return min(max(float(q_log_q @ p1 - plogp(r).sum(axis=1) @ p2), 0.0), upper)

    for step in itertools.count():
        r = p1_given_2.T @ q
        a = p2_given_1 @ np.log2(np.maximum(r, 1e-300))
        q_log_q = plogp(q).sum(axis=1)
        least = np.where(allowed, log_q - a, np.inf).min(axis=1)
        gap = max(float(p1 @ (q_log_q - (q * a).sum(axis=1) - least)), 0.0)
        if gap <= tol or step >= max_iter:
            break
        # p1 @ least is value - gap before rounding and the clamp, so the
        # value, whose plogp(r) costs more than the rest of the step, is only
        # formed near the goal
        if (lower_goal is not None and float(p1 @ least) >= lower_goal - 1e-9
                and value_at(q_log_q, r) - gap >= lower_goal):
            break
        e = np.where(allowed, a, -np.inf)
        e -= e.max(axis=1, keepdims=True)
        q = np.exp2(e)
        total = q.sum(axis=1, keepdims=True)
        q /= total
        log_q = e - np.log2(total)
    return ConditionalGraphEntropyResult(value_at(q_log_q, r), upper, q, tuple(sets),
                                         gap <= tol, gap)


def loop_frank_wolfe_gap(g: CharGraph, joint: JointPMF, sets, kernel: np.ndarray) -> float:
    """The Frank-Wolfe gap of a conditional-graph-entropy kernel q, from its
    definition, in Python loops. The gradient of I(W; U1 | U2) in q[u1, w]
    is p(u1) (log2 q[u1, w] - sum_u2 p(u2 | u1) log2 p(w | u2)); the gap sums
    over the vertices u1 the gradient's mean under q[u1, :] minus its least
    entry over the sets that contain u1. It is +inf where such an entry of a
    vertex with mass is 0, since log2 q is -inf there."""
    n, m = joint.mass.shape
    mass = joint.mass.tolist()
    q = kernel.tolist()
    p1 = [math.fsum(row) for row in mass]
    p2 = [math.fsum(mass[i][k] for i in range(n)) for k in range(m)]
    # r[k][w] = p(w | u2 = k)
    r = [[math.fsum(mass[i][k] * q[i][w] for i in range(n)) / p2[k] if p2[k] > 0 else 0.0
          for w in range(len(sets))] for k in range(m)]
    gap = 0.0
    for i, v in enumerate(g.vertices.symbols):
        if p1[i] == 0:
            continue
        grad = {}
        for w, s in enumerate(sets):
            if v not in s:
                continue
            if q[i][w] == 0:
                grad[w] = -math.inf
                continue
            grad[w] = math.log2(q[i][w]) - math.fsum(
                mass[i][k] / p1[i] * math.log2(r[k][w]) for k in range(m) if mass[i][k] > 0)
        mean = math.fsum(q[i][w] * grad[w] for w in grad if q[i][w] > 0)
        gap += p1[i] * (mean - min(grad.values()))
    return gap


def loop_kernel_objective(joint: JointPMF, kernel: np.ndarray) -> float:
    """I(W; U1 | U2) = H(W | U2) - H(W | U1) of a conditional-graph-entropy
    kernel q[u1, w], from the triple p(u1, u2) q[u1, w] held in a dict; the
    zero cells, which add nothing, are left out."""
    n, m = joint.mass.shape
    triple = {(i, k, j): float(joint.mass[i, k] * kernel[i, j])
              for i in range(n) for k in range(m) for j in range(kernel.shape[1])
              if joint.mass[i, k] * kernel[i, j] > 0}
    return (dict_conditional_entropy(triple, (2,), (1,))
            - dict_conditional_entropy(triple, (2,), (0,)))


def loop_coloring_kernel(g: CharGraph, joint: JointPMF) -> np.ndarray:
    """The exact colouring's deterministic kernel over the maximal stable
    sets: each class of the bitmask branch-and-bound's partition goes to the
    first set, in ``stable_sets`` order, that holds all of it."""
    sets = stable_sets(g, maximal_only=True)
    syms = g.vertices.symbols
    assign, _ = loop_min_entropy_partition(loop_adjacency_masks(g), joint.mass.astype(float))
    kernel = np.zeros((len(syms), len(sets)))
    for c in set(assign):
        members = [v for v in range(len(syms)) if assign[v] == c]
        home = next(w for w, s in enumerate(sets) if all(syms[v] in s for v in members))
        kernel[members, home] = 1.0
    return kernel


def loop_clique_certificate(g: CharGraph, joint: JointPMF, kernel: np.ndarray) -> float:
    """The closed-form gap of a deterministic kernel, in Python loops over
    ``stable_sets(g)``: with w0(u1) the set a vertex is sent to, b(u1, u2) =
    p(u1 | u2) / p(w0(u1) | u2), and t(u2) the largest of 1 and b's sums over
    the maximal stable sets, the gap is sum over u2 of p(u2) log2 t(u2). The
    objective at the kernel minus this gap is at most the minimum."""
    sets = stable_sets(g, maximal_only=True)
    syms = g.vertices.symbols
    n, m = joint.mass.shape
    mass = joint.mass.tolist()
    home = []
    for row in kernel.tolist():
        assert sorted(row) == [0.0] * (len(row) - 1) + [1.0], "not a deterministic kernel"
        home.append(row.index(1.0))
    terms = []
    for k in range(m):
        p2 = math.fsum(mass[i][k] for i in range(n))
        if p2 == 0:
            continue
        # p(u1 | u2) / p(w0(u1) | u2): the vertex's mass over its set's mass
        b = {syms[i]: mass[i][k] / math.fsum(mass[j][k] for j in range(n) if home[j] == home[i])
             for i in range(n) if mass[i][k] > 0}
        t = max([1.0] + [math.fsum(b.get(v, 0.0) for v in s) for s in sets])
        terms.append(p2 * math.log2(t))
    return math.fsum(terms)



def loop_antiblocker_certificate(g: CharGraph, joint: JointPMF, kernel: np.ndarray) -> float:
    """The lower bound on the minimum that any kernel q certifies, in Python
    loops over ``stable_sets(g)``: with a(u1, u2) the mass that p(w | u2)
    puts on the sets holding u1, b(u1, u2) = p(u1 | u2) / a(u1, u2), and
    t(u2) the largest of 1 and b's sums over the maximal stable sets, it is
    -sum p(u1, u2) log2 a(u1, u2) - sum p(u2) log2 t(u2). Gibbs' inequality
    makes it a lower bound for any positive a."""
    sets = stable_sets(g, maximal_only=True)
    syms = g.vertices.symbols
    n, m = joint.mass.shape
    mass = joint.mass.tolist()
    q = kernel.tolist()
    terms = []
    for k in range(m):
        p2 = math.fsum(mass[i][k] for i in range(n))
        if p2 == 0:
            continue
        r = [math.fsum(mass[i][k] * q[i][w] for i in range(n)) / p2 for w in range(len(sets))]
        a = {syms[i]: math.fsum(r[w] for w, s in enumerate(sets) if syms[i] in s)
             for i in range(n) if mass[i][k] > 0}
        b = {syms[i]: mass[i][k] / p2 / a[syms[i]] for i in range(n) if mass[i][k] > 0}
        t = max([1.0] + [math.fsum(b.get(v, 0.0) for v in s) for s in sets])
        terms += [-mass[i][k] * math.log2(a[syms[i]]) for i in range(n) if mass[i][k] > 0]
        terms.append(-p2 * math.log2(t))
    return math.fsum(terms)


def loop_blocks_are_cographs(g: CharGraph, joint: JointPMF) -> bool:
    """Whether each vertex with mass has it on one peer and no peer's block,
    its vertices with mass, holds an induced path on four vertices: four
    vertices with three edges among them and degrees 1, 1, 2 and 2 there."""
    mass = joint.mass
    if any(np.count_nonzero(row) > 1 for row in mass):
        return False
    syms = g.vertices.symbols
    for column in mass.T:
        block = [syms[i] for i in np.flatnonzero(column).tolist()]
        for four in itertools.combinations(block, 4):
            degrees = sorted(sum(has_edge(g, v, u) for u in four) for v in four)
            if degrees == [1, 1, 2, 2]:
                return False
    return True

# --- Monte Carlo references -------------------------------------------------
# Per-block loops as the Monte Carlo routines were first written, one loop per
# routine with its own accumulator; the keyed block streams of
# ``fcmac.schemes._block_rng`` are the seeding contract they share.

def _keyed_blocks(samples: int, block: int = 1 << 16):
    for b, start in enumerate(range(0, samples, block)):
        yield b, min(block, samples - start)


def loop_monte_carlo_af(block_rng, power, rho, sigma2, samples, seed):
    """(mean, 95% half-width) of the AF squared error."""
    scale = math.sqrt(power / sigma2) if power > 0 else 0.0
    var_s = 2.0 * sigma2 * (1.0 - rho)
    coef = scale * var_s / (scale * scale * var_s + 1.0)
    sd = math.sqrt(sigma2)
    cross = math.sqrt(max(1.0 - rho * rho, 0.0))
    total = total_sq = 0.0
    for b, m in _keyed_blocks(samples):
        z = block_rng(seed, b).standard_normal((m, 3))
        s = sd * z[:, 0] - sd * (rho * z[:, 0] + cross * z[:, 1])
        err = (s - coef * (scale * s + z[:, 2])) ** 2
        total += float(err.sum())
        total_sq += float((err * err).sum())
    mean = total / samples
    return mean, 1.96 * math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)


def loop_gaussian_pairs(block_rng, sigma2, rho, samples, seed) -> np.ndarray:
    """(n, 2) draws of the correlated Gaussian source pair."""
    sd = math.sqrt(sigma2)
    cross = math.sqrt(max(1.0 - rho * rho, 0.0))
    out = np.empty((samples, 2))
    for b, m in _keyed_blocks(samples):
        z = block_rng(seed, b).standard_normal((m, 2))
        start = b << 16
        out[start:start + m, 0] = sd * z[:, 0]
        out[start:start + m, 1] = sd * (rho * z[:, 0] + cross * z[:, 1])
    return out


def loop_offdiagonal_points(block_rng, cells, samples, seed) -> np.ndarray:
    """(n, 2) draws from the blocked-uniform density on [0, 1]^2."""
    pairs = [(i, j) for i in range(cells) for j in range(cells) if i != j]
    out = np.empty((samples, 2))
    done = 0
    for b, m in _keyed_blocks(samples):
        rng = block_rng(seed, b)
        which = rng.integers(0, len(pairs), size=m)
        offs = rng.random((m, 2))
        out[done:done + m] = (np.array(pairs)[which] + offs) * (1.0 / cells)
        done += m
    return out


def loop_grid_distortion(points: np.ndarray, cells: int) -> tuple[float, float, np.ndarray]:
    """(mean, 95% half-width, cell counts) of the center-gap error over
    ``points``, summed in blocks of 2**16 and counted with ``np.add.at``."""
    width = 1.0 / cells
    centers = (np.arange(cells) + 0.5) * width
    idx = np.clip(np.floor(cells * points).astype(int), 0, cells - 1)
    counts = np.zeros((cells, cells))
    np.add.at(counts, (idx[:, 0], idx[:, 1]), 1.0)
    total = total_sq = 0.0
    for start in range(0, len(points), 1 << 16):
        u, i = points[start:start + (1 << 16)], idx[start:start + (1 << 16)]
        err = np.abs(np.abs(u[:, 0] - u[:, 1]) - np.abs(centers[i[:, 0]] - centers[i[:, 1]]))
        total += float(err.sum())
        total_sq += float((err * err).sum())
    n = len(points)
    mean = total / n
    return mean, 1.96 * math.sqrt(max(total_sq / n - mean * mean, 0.0) / n), counts
