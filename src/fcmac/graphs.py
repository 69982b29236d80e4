"""Characteristic graphs, colorings, chromatic and conditional graph entropies."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .probability import Alphabet, AxisError, JointPMF, plogp

# Measured with one BLAS thread on a 2-vCPU Xeon VM, best to median in three
# processes alternated with np.kron factors (their times in brackets). At the
# cap, worst case the complete graph (523,776 edges), the OR product itself
# takes 1.5-1.7 ms [7.0-7.7 ms]; the views read from it afterwards take far
# longer: the symbol edge set 0.23-0.26 s, sorted_edges 0.10-0.13 s. The
# ternary comparison graph at n = 6 (729 vertices): 0.30-0.33 ms [1.8-2.2
# ms], then 94-138 ms for its edge set; one vertex at n = 32: 0.11-0.12 ms
# [0.39-0.42 ms]. Those views grow with the square of the vertex count, so
# the cap is on vertices.
OR_PRODUCT_CAP = 1024
# Vertices for exact colouring, stable-set enumeration and the graph entropies
# built on them. Each of these searches grows exponentially with the vertex
# count; at 12 vertices the slowest, conditional_graph_entropy's steps, take
# about 0.2 s. The measured times are in the README's "Size caps" table.
EXACT_COLORING_CAP = 12
# Cells (|X||Z|)^n of the n-fold joint of iid_pair_power, checked before the
# product is built, and the block length n of it and of or_product. With
# EXACT_COLORING_CAP on the OR product it bounds conditional_chromatic_entropy,
# whose colouring works on every peer column a vertex has mass in. A one-cell
# base (a 1x1 joint, a graph of one vertex or none) passes the cell and
# vertex caps at every n, yet still builds n - 1 Kronecker products and
# n-tuple symbols, so only the block length bounds it. The measured times
# are in the README's "Size caps" table.
IID_POWER_CELL_CAP = 2**16
_MAX_BLOCK_LENGTH = 32
# Multiply-adds |X|^2 |Y| of the zigzag matrix product. At the cap, worst
# case a 2048x2048 support whose distinct rows are nested: 0.31-0.38 s
# (0.35-0.41 s, timed alternately, with np.unique finding the distinct rows).
ZIGZAG_CAP = 2**33
# Caps both |X|^2 |Z| (vertex pairs times peer symbols) and the square of
# the distinct function labels of characteristic_graph. Worst case at the
# cap: |X| = 1,024, one peer and 1,024 distinct labels, whose graph is
# complete; a whole exact-mode `fcmac graph build` process, import and the
# 17 MB output file of integer labels included, takes 1.5-1.6 s and 217 MB
# peak RSS (1.6-1.7 s when the label table was 1,048,576 Python
# comparisons; two runs each, alternated). The graph itself takes 5.7-6.7 ms
# in exact mode, whose label table is set whole and its diagonal apart
# (58-64 ms with the comparisons), with a 6.1 MB tracemalloc peak (14.7 MB),
# and 102-108 ms in threshold mode (integer labels, delta 0; 96-105 ms in
# the same runs of the earlier code), where the 1,048,576 label pairs,
# compared in Python and converted to the table, set its time, with a
# 9.7 MB peak; an intp index would add 4 MB. Best to median of nine calls,
# three processes alternated with the comparisons. graph_to_json takes
# 0.42-0.51 s and the indented json.dumps of the output format 1.5-2.0 s.
# 32 vertices with 1,024 peers and labels: 0.5-1.1 s. The cap does not hold
# threshold mode with fraction-string labels to that: at 1,024 vertices, one
# peer, labels "k/1024" and `--delta 0.5`, each label is parsed once but each
# of the 1,048,576 ordered label pairs is an exact Fraction subtraction, and
# a whole process takes 7.2-9.1 s (16-21 s when each pair parsed its
# labels), against 0.9 s with integer labels 0-1,023 at `--delta 512`.
# Every graph built under the cap has at most 1,024 vertices,
# so its file can be read back under GRAPH_FILE_VERTEX_CAP. The cap also
# bounds the |X|^2 |Z| cells of the one table lookup that builds the graph,
# so it needs no row blocks.
CHARACTERISTIC_GRAPH_CAP = 2**20
_BLOCK_CELLS = 2**20   # array cells per row block of zigzag_check's products
_LOG_FLOOR = np.array(1e-300)   # a 0-d array is not converted again at each use
# The solver's over-relaxation factor, and the floor of its log2 q: a kernel
# entry there is 0 (2**-2000 underflows), and the floor keeps the relaxed
# step's extrapolation 2 a - log2 q finite
_RELAXATION = 2.0
_LOG_Q_FLOOR = np.array(-2000.0)
# A plain step's exponent off the allowed sets: 2**-1e300 is 0, so q is 0
# there and log2 q stays finite without the floor; a - 1e300 rounds to this
# one constant, on which exp2 is as fast as on -inf (it is about 4x slower on
# varied arguments below -1075)
_LOG_Q_HOLE = -1e300


class SizeCapError(ValueError):
    """An exact search was asked to run beyond its configured size cap."""


@dataclass(frozen=True, eq=False, init=False)
class CharGraph:
    """Confusability graph over a source alphabet.

    The graph is its boolean adjacency matrix in alphabet order, from which
    every query is answered. ``edges`` is a view of it: the unordered pairs
    of vertex symbols, lower alphabet index first, built on first access.
    No self-loops.
    """

    vertices: Alphabet

    def __init__(self, vertices: Alphabet, edges) -> None:
        """Graph of the symbol pairs ``edges``. An unknown endpoint raises
        KeyError before the first self-loop raises ValueError."""
        edges = list(edges)
        # the alphabet's own symbol index: one plain dict lookup per endpoint,
        # where Alphabet.index would add a call to each
        index = vertices._position
        rows, cols = [], []
        for a, b in edges:
            try:
                rows.append(index[a])
                cols.append(index[b])
            except (KeyError, TypeError):       # unknown, or unhashable
                vertices.index(a), vertices.index(b)    # raises the KeyError naming it
                raise
        rows, cols = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        loops = np.flatnonzero(rows == cols)
        if loops.size:
            raise ValueError(f"self-loop at vertex {edges[loops[0]][0]!r}")
        adj = np.zeros((len(vertices), len(vertices)), dtype=bool)
        adj[rows, cols] = adj[cols, rows] = True
        self._settle(vertices, adj)

    @classmethod
    def _from_adjacency(cls, vertices: Alphabet, adj: np.ndarray) -> "CharGraph":
        """Graph of a symmetric boolean matrix with a false diagonal."""
        g = object.__new__(cls)
        g._settle(vertices, adj)
        return g

    def _settle(self, vertices: Alphabet, adj: np.ndarray) -> None:
        adj.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_adj", adj)

    @cached_property
    def edges(self) -> frozenset:
        # written once; racing threads would each store an equal set
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> list[tuple]:
        syms = self.vertices.symbols
        return [(syms[i], syms[j]) for i, j in self._edge_indices()]

    def _edge_indices(self):
        """Index pairs (i, j), i < j, of the edges in row-major order."""
        rows, cols = np.nonzero(np.triu(self._adj, 1))
        return zip(rows.tolist(), cols.tolist())


@dataclass(frozen=True, eq=False)
class Coloring:
    """Proper, total vertex coloring; propriety is checked on construction."""

    graph: CharGraph
    color_of: Mapping

    def __post_init__(self) -> None:
        verts = self.graph.vertices
        missing = [v for v in verts if v not in self.color_of]
        if missing:
            raise ValueError(f"coloring misses vertices {missing}")
        code: dict = {}
        codes = np.array([code.setdefault(self.color_of[v], len(code)) for v in verts])
        clash = self.graph._adj & (codes[:, None] == codes)
        if clash.any():
            # symmetric with a false diagonal, so the first entry in row-major
            # order is above the diagonal: the first in sorted_edges() order
            i, j = np.argwhere(clash)[0]
            a, b = verts.symbols[i], verts.symbols[j]
            raise ValueError(f"edge ({a!r}, {b!r}) has equal colors")
        object.__setattr__(self, "color_of", dict(self.color_of))


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Total function on a product of alphabets, stored as a dense label table.

    Labels must be hashable; labels that compare equal (``1`` and ``1.0``)
    are one label. ``_codes`` holds each cell's label as its position in
    ``range_labels()``.
    """

    domain_axes: tuple[Alphabet, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        axes = tuple(self.domain_axes)
        shape = tuple(len(a) for a in axes)
        values = np.array(self.values, dtype=object)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match domain axis sizes"
                             f" {shape}")
        code: dict = {}
        codes = np.array([code.setdefault(v, len(code)) for v in values.flat],
                         dtype=np.intp).reshape(values.shape)
        values.setflags(write=False)
        codes.setflags(write=False)
        object.__setattr__(self, "domain_axes", axes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_labels", tuple(code))
        object.__setattr__(self, "_codes", codes)

    @staticmethod
    def from_callable(domain_axes, fn: Callable) -> "FunctionTable":
        axes = tuple(domain_axes)
        values = np.empty(tuple(len(a) for a in axes), dtype=object)
        for combo in itertools.product(*(range(len(a)) for a in axes)):
            values[combo] = fn(*(a.symbols[i] for a, i in zip(axes, combo)))
        return FunctionTable(axes, values)

    def range_labels(self) -> tuple:
        """Distinct output labels, ordered by first appearance in C order."""
        return self._labels


def _check_vertex_axis(pmf: JointPMF, g: CharGraph, what: str) -> None:
    if pmf.axes[0].symbols != g.vertices.symbols:
        raise AxisError(f"{what} first axis must carry the graph's vertex symbols")


def absolute_difference(a, b) -> float:
    """Default range distortion for threshold-mode characteristic graphs."""
    return abs(a - b)


def characteristic_graph(joint: JointPMF, f: FunctionTable, *,
                         delta=None, range_distortion: Callable = absolute_difference,
                         ) -> CharGraph:
    """Confusability graph of the first axis with respect to the second and f.

    Exact mode (``delta is None``): two symbols are joined when some
    positive-probability peer symbol makes the function values differ.
    Threshold mode: joined when the values differ by more than ``delta``
    under ``range_distortion`` for some such peer. ``range_distortion`` is
    called once per ordered pair of ``f.range_labels()``, and for vertices
    i < j the pair read is (f(i, peer), f(j, peer)). Refuses with
    ``SizeCapError``, before any label pair is compared, when |X|^2 |Z|
    exceeds ``CHARACTERISTIC_GRAPH_CAP``, and then when the squared count of
    distinct labels does: one refusal for the joint, one for the function.
    """
    if len(joint.axes) != 2:
        raise AxisError(f"need a two-axis joint, got axes {joint.axis_names}")
    if len(f.domain_axes) != 2:
        raise AxisError("function must be defined on two axes")
    for fa, ja in zip(f.domain_axes, joint.axes):
        if fa.symbols != ja.symbols:
            raise AxisError(f"the symbols of function axis {fa.name!r} differ from those"
                            f" of joint axis {ja.name!r}")
    if delta is not None and not delta >= 0:     # refuses NaN as well
        raise ValueError(f"delta must be nonnegative, got {delta}")
    labels = f.range_labels()
    n, m = joint.mass.shape
    if n * n * m > CHARACTERISTIC_GRAPH_CAP:
        raise SizeCapError(
            f"characteristic graph of {n} vertices and {m} peer symbols exceeds the cap"
            f" of {CHARACTERISTIC_GRAPH_CAP} on vertices^2 x peers")
    if len(labels) ** 2 > CHARACTERISTIC_GRAPH_CAP:
        raise SizeCapError(
            f"characteristic graph of {len(labels)} distinct function labels exceeds the"
            f" cap of {CHARACTERISTIC_GRAPH_CAP} on labels^2")
    # label len(labels) codes an off-support cell, confusable with no label
    size = len(labels) + 1
    confusable = np.zeros((size, size), dtype=bool)
    if delta is None:
        # The labels are distinct dict keys, so two of them differ (where
        # equality agrees with hashing); a label is confusable with itself
        # only when it is unequal to itself, as NaN is. The flat view's
        # stride size + 1 walks the diagonal.
        confusable[:-1, :-1] = True
        confusable.ravel()[:-1:size + 1] = [la != la for la in labels]
    else:
        confusable[:-1, :-1] = [[range_distortion(la, lb) > delta for lb in labels]
                                for la in labels]
    # int32 halves the index array against intp and holds the largest flat
    # index the cap admits, 1025^2 - 1
    codes = np.where(joint.mass > 0, f._codes, len(labels)).astype(np.int32)
    # [i, j, k]: peer k is shared by i and j and their labels are confusable
    hit = confusable.ravel()[codes[:, None, :] * size + codes[None, :, :]]
    # the label pair is read in (i, j) order with i < j; mirror that half
    adj = np.triu(hit.any(axis=2), 1)
    return CharGraph._from_adjacency(joint.axes[0], adj | adj.T)


def or_product(g: CharGraph, n: int) -> CharGraph:
    """Block-length-n graph: tuples adjacent iff adjacent in some coordinate.

    Vertices are the n-tuples in ``itertools.product`` order. Two tuples are
    non-adjacent iff every coordinate pair is equal or non-adjacent, so the
    non-adjacency matrix is the n-th Kronecker power of the base one, whose
    diagonal is all true.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return g
    base = len(g.vertices)
    if _power_exceeds(base, n, OR_PRODUCT_CAP):
        raise SizeCapError(f"{base}^{n} vertices exceeds the cap of {OR_PRODUCT_CAP}")
    if n > _MAX_BLOCK_LENGTH:
        raise SizeCapError(f"n must be at most {_MAX_BLOCK_LENGTH} for an OR product, got {n}")
    return CharGraph._from_adjacency(_tuple_alphabet(g.vertices, n),
                                     ~_kron_power(~g._adj, n))


def _kron_power(base: np.ndarray, n: int) -> np.ndarray:
    """n-th Kronecker power of a matrix, rows and columns indexed by n-tuples
    in ``itertools.product`` order; entry products run left to right.

    Each factor is one broadcast product into an (r, k0, c k1) array whose
    entry [i, a, j k1 + b] is ``power[i, j] * base[a, b]``, so its inner
    loop runs over a whole output row.
    """
    k0, k1 = base.shape
    power = base
    for _ in range(n - 1):
        r, c = power.shape
        out = np.empty((r, k0, c * k1), dtype=np.result_type(power, base))
        np.multiply(np.repeat(power, k1, axis=1)[:, None, :], np.tile(base, (1, c))[None],
                    out=out)
        power = out.reshape(r * k0, c * k1)
    return power


def _tuple_alphabet(a: Alphabet, n: int) -> Alphabet:
    """The n-tuples of ``a``'s symbols, in ``itertools.product`` order."""
    return Alphabet(f"{a.name}^{n}", tuple(itertools.product(a.symbols, repeat=n)))


def _power_exceeds(base: int, n: int, cap: int) -> bool:
    """Whether base ** n > cap, multiplied out one factor at a time and
    stopped once past the cap, so a huge n costs no more than a small one."""
    if base <= 1:
        return base > cap
    power = 1
    for _ in range(n):
        power *= base
        if power > cap:
            return True
    return False


class _PlogpMemo(dict):
    """Scalar p*log2(p) by mass, computed on first lookup. The values are
    Python floats, so the arithmetic on them runs on floats; the product
    is a float one, of the same bits as numpy's."""

    def __missing__(self, x: float) -> float:
        y = self[x] = x * float(np.log2(x)) if x > 0 else 0.0
        return y


def _sum_in_order(values) -> float:
    """Left-to-right sum, as ``sum`` adds numpy scalars: from Python 3.12
    on, ``sum`` of Python floats is compensated, which moves last bits."""
    total = 0
    for x in values:
        total += x
    return total


def _min_entropy_partition(adj: np.ndarray, weights: np.ndarray,
                           ) -> tuple[list[int], float]:
    """Exact minimum of H(class | column) over proper partitions.

    ``adj`` is the boolean adjacency matrix and ``weights[v, z]`` the joint
    mass of vertex v with condition value z (one column for the
    unconditional problem). Vertices are processed in index order;
    branch-and-bound prunes on a per-column relaxation (all remaining column
    mass merged into the column's largest class). Ties resolve to the first
    partition in lexicographic restricted-growth order, i.e. the
    lexicographically smallest color-class partition.

    Placing a vertex costs work in proportion to the columns it has mass
    in. The search keeps ``s``, the running sum of p*log2(p) over every
    (class, column) cell; per class one list of its cell masses, then their
    p*log2(p); and per node one ``peak`` list: each column's largest class
    mass, then its p*log2(p), then ``plogp(peak + r)`` with ``r`` the
    column's mass not yet placed. The bound is ``-s - H(Z)`` plus, per
    column, ``plogp(peak) - plogp(peak + r)``; a child gets its parent's
    bound plus the change on the placed vertex's columns, so that no node
    sums over every column. The children of the last vertex are leaves,
    evaluated in their parent's loop. Every leaf's value is ``-s - H(Z)``,
    so ``s`` keeps its exact sequence of ``+=`` and ``-=``; the bound
    differs from a sum over all columns in rounding only, far inside the
    1e-12 prune margin. Scalar p*log2(p) is memoised per call, keyed by the
    mass, and stays ``np.log2``: ``math.log2`` differs from it in the last
    bit on about 0.2 % of inputs, which changes the returned values.
    """
    n, m = weights.shape
    col_total = np.add.reduce(weights, axis=0).tolist()
    plogp_of = _PlogpMemo()
    top = [plogp_of[c] for c in col_total]
    h_cond = -_sum_in_order(top)      # H(Z), subtracted at the end
    # classes hold only vertices placed before v, so the classes v may not
    # join are those of its earlier neighbours
    earlier = [[u for u in range(v) if row[u]] for v, row in enumerate(adj.tolist())]
    rows = weights.tolist()
    # remaining[v]: each column's mass not placed before vertex v
    remaining = [col_total]
    for row in rows:
        remaining.append([r - x for r, x in zip(remaining[-1], row)])
    # per vertex, the columns it has mass in (adding a zero cell leaves a
    # class unchanged): the column, the slots of its p*log2(p) and of its
    # bound term in a class or peak list, the mass, and the column's mass
    # remaining after the vertex
    support = [[(z, z + m, z + 2 * m, x, r1) for z, (x, r1) in enumerate(zip(row, rem1)) if x]
               for row, rem1 in zip(rows, remaining[1:])]

    best_assign: list[int] = []
    best_val = float("inf")
    assign = [0] * n
    cells: list[list[float]] = []   # per class: its m cell masses, then their p*log2(p)
    s = 0.0     # running sum of p*log2(p) over all (class, column) cells
    empty = [0.0] * (2 * m)

    def descend(v: int, peak: list[float], bound: float) -> None:
        nonlocal best_assign, best_val, s
        taken = {assign[u] for u in earlier[v]}
        cols = support[v]
        if v == n - 1:
            # the children are leaves: their values, without copies or calls
            for c in range(len(cells) + 1):
                if c in taken:
                    continue
                old = cells[c] if c < len(cells) else empty
                ds = 0
                for z, zl, _, x, _ in cols:
                    ds += plogp_of[old[z] + x] - old[zl]
                s += ds
                val = -s - h_cond
                if val < best_val - 1e-12:
                    best_val = val
                    assign[v] = c
                    best_assign = assign.copy()
                s -= ds
            return
        for c in range(len(cells) + 1):
            if c in taken:
                continue
            if c == len(cells):      # opening a class joins an empty one
                cells.append(empty)
            old = cells[c]
            cell = old.copy()
            child_peak = peak.copy()
            ds = 0
            dk = 0.0    # the change of the bound's column terms
            for z, zl, zg, x, r1 in cols:
                t = cell[z] = old[z] + x
                y = cell[zl] = plogp_of[t]
                ds += y - old[zl]
                p = peak[z]
                if t > p:
                    g = plogp_of[t + r1]
                    dk += y - g - peak[zl] + peak[zg]
                    child_peak[z], child_peak[zl] = t, y
                else:
                    g = plogp_of[p + r1]
                    dk += peak[zg] - g
                child_peak[zg] = g
            cells[c] = cell
            s += ds
            assign[v] = c
            child_bound = bound - ds + dk
            if child_bound < best_val - 1e-12:
                descend(v + 1, child_peak, child_bound)
            cells[c] = old
            s -= ds
        cells.pop()

    # the root's bound: all of each column's mass in one class, which is
    # H(class | Z) = 0
    descend(0, [0.0] * (2 * m) + top, 0.0)
    return best_assign, max(best_val, 0.0)


def _greedy_assignment(adj: np.ndarray, vertex_mass: np.ndarray) -> list[int]:
    """First-fit coloring over vertices in decreasing-mass order, ties by
    index; ``adj`` is the boolean adjacency matrix."""
    assign = np.full(len(adj), -1)
    for v in np.argsort(-vertex_mass, kind="stable").tolist():
        used = set(assign[adj[v]].tolist())     # -1 marks a neighbor not yet colored
        c = 0
        while c in used:
            c += 1
        assign[v] = c
    # renumber by first appearance in alphabet order so output is canonical
    remap: dict[int, int] = {}
    for a in assign.tolist():
        remap.setdefault(a, len(remap))
    return [remap[a] for a in assign.tolist()]


def min_entropy_coloring(g: CharGraph, marginal: JointPMF, mode: str = "exact",
                         ) -> tuple[Coloring, float]:
    """Proper coloring minimizing (exact) or heuristically reducing (greedy)
    the entropy of the induced color distribution."""
    _check_vertex_axis(marginal, g, "marginal")
    if len(marginal.axes) != 1:
        raise AxisError("marginal must be a single-axis pmf over the vertices")
    mass = marginal.mass
    if mode == "exact":
        if len(g.vertices) > EXACT_COLORING_CAP:
            raise SizeCapError(
                f"{len(g.vertices)} vertices exceeds the exact-mode cap of {EXACT_COLORING_CAP}")
        assign, value = _min_entropy_partition(g._adj, mass.reshape(-1, 1))
    elif mode == "greedy":
        assign = _greedy_assignment(g._adj, mass)
        plogp_of = _PlogpMemo()
        value = -_sum_in_order(plogp_of[t] for t in np.bincount(assign, weights=mass).tolist())
    else:
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    coloring = Coloring(g, {v: c for v, c in zip(g.vertices.symbols, assign)})
    return coloring, float(value)


def iid_pair_power(joint: JointPMF, n: int) -> JointPMF:
    """n-fold iid product of a two-axis joint, axes grouped per original axis."""
    if len(joint.axes) != 2:
        raise AxisError("need a two-axis joint")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return joint
    if n > _MAX_BLOCK_LENGTH:
        raise SizeCapError(f"n must be at most {_MAX_BLOCK_LENGTH} for an iid power, got {n}")
    s1, s2 = joint.mass.shape
    if _power_exceeds(s1 * s2, n, IID_POWER_CELL_CAP):
        raise SizeCapError(f"{s1 * s2}^{n} joint cells exceeds the cap of {IID_POWER_CELL_CAP}")
    return JointPMF(tuple(_tuple_alphabet(a, n) for a in joint.axes),
                    _kron_power(joint.mass, n))


def conditional_chromatic_entropy(g: CharGraph, joint: JointPMF, n: int = 1) -> float:
    """Per-symbol minimum of H(coloring | peer) over proper colorings of the
    n-fold OR-product graph, on the n-fold iid joint."""
    _check_vertex_axis(joint, g, "joint")
    if len(joint.axes) != 2:
        raise AxisError("need a two-axis joint")
    base = len(g.vertices)
    if _power_exceeds(base, n, EXACT_COLORING_CAP):
        # the exact count while it is short to write, else the power
        count = base ** n if n <= 64 else f"{base}^{n}"
        raise SizeCapError(f"OR-product has {count} vertices,"
                           f" over the cap of {EXACT_COLORING_CAP}")
    # the joint first: on a one-vertex graph only its cap bounds n
    jn = iid_pair_power(joint, n)
    gn = or_product(g, n)
    _, value = _min_entropy_partition(gn._adj, jn.mass)
    return float(value) / n


def _stable_rows(g: CharGraph, maximal_only: bool) -> np.ndarray:
    """Membership rows of the nonempty stable sets, optionally only the
    maximal ones, ordered by sum(2**v for v in the set)."""
    n = len(g.vertices)
    if n > EXACT_COLORING_CAP:
        raise SizeCapError(f"{n} vertices exceeds the enumeration cap of {EXACT_COLORING_CAP}")
    bit = 1 << np.arange(n)
    nbr = (g._adj @ bit).tolist()       # each neighbourhood as an int bitmask
    masks = [0]                         # the empty set
    for v in range(n):
        # the stable sets of vertices before v, then those of them v can join
        masks += [m | 1 << v for m in masks if not m & nbr[v]]
    member = np.array(masks[1:], dtype=np.int64)[:, None] & bit != 0
    if maximal_only:
        # [set, v]: v has a neighbour in the set; float32 counts them exactly
        touched = member.astype(np.float32) @ g._adj.astype(np.float32) > 0
        member = member[(member | touched).all(axis=1)]     # no vertex can be added
    return member


def _row_sets(g: CharGraph, rows: np.ndarray) -> list[frozenset]:
    """The vertex sets of membership rows."""
    syms = g.vertices.symbols
    return [frozenset(itertools.compress(syms, row)) for row in rows.tolist()]


def stable_sets(g: CharGraph, maximal_only: bool = True) -> list[frozenset]:
    """Stable (independent) vertex sets, optionally only the maximal ones."""
    return _row_sets(g, _stable_rows(g, maximal_only))


@dataclass(frozen=True)
class ConditionalGraphEntropyResult:
    """Solver output: ``value``, the objective at the returned kernel (held
    in [0, ``upper_bound``], which moves it by rounding only); ``gap``,
    ``value`` minus a lower bound on the minimum, the larger of the last
    iterate's Frank-Wolfe bound and the colouring kernel's closed-form
    certificate; and the feasible-coloring upper bound. The minimum lies in
    ``[value - gap, value]``."""

    value: float
    upper_bound: float          # conditional chromatic entropy at n = 1
    kernel: np.ndarray          # p(stable set | vertex), rows in vertex order
    sets: tuple[frozenset, ...]
    converged: bool             # gap <= tol
    gap: float


def conditional_graph_entropy(g: CharGraph, joint: JointPMF, *,
                              tol: float = 1e-8, max_iter: int = 10_000,
                              ) -> ConditionalGraphEntropyResult:
    """Minimize I(W; U1 | U2) over stable-set-valued W with W - U1 - U2.

    Support is restricted to maximal stable sets (any stable set extends to
    a maximal one without raising the objective). The objective is convex in
    the kernel q. The first candidate is the exact colouring's kernel q0,
    which puts each colour class on the first maximal stable set holding it;
    it is certified in closed form by the antiblocker duality of Csiszar,
    Korner, Lovasz, Marton and Simonyi (Combinatorica 1990): for b >= 0 whose
    sum over every stable set is at most 1 at each u2, the minimum is at
    least H(U1|U2) + sum p(u1, u2) log2 b(u1, u2) (Gibbs' inequality on
    p(u1 | w, u2), which lives on the set w). With b = p(u1|u2) / p(w0(u1) |
    u2) scaled down by its largest stable-set sum t(u2) where that exceeds 1,
    the bound is the objective at q0 minus gap0 = sum p(u2) log2 t(u2). If
    gap0 is at most ``tol``, q0 is returned after no step.

    Otherwise the minimum is sought by Blahut-Arimoto-type alternating
    minimization from the uniform interior point. The plain step q+ is
    proportional to 2**a on the allowed sets, with a[u1, w] = sum_u2 p(u2 |
    u1) log2 p(w | u2). Each step is over-relaxed: log2 q moves twice as far
    towards log2 q+ and is renormalised (Matz and Duhamel, ITW 2004;
    Salakhutdinov and Roweis, ICML 2003). A relaxed iterate is kept only if
    neither its objective nor its Frank-Wolfe gap exceeds that of the
    iterate it left; otherwise it is discarded and the plain step, which
    never raises the objective, is taken from the kept one. A discarded step
    counts as a step. Each iterate's Frank-Wolfe gap bounds its distance to
    the minimum from above (Jaggi 2013); the steps stop once the gap is at
    most ``tol``, or after ``max_iter`` of them. The lower bound is then the
    larger of the iterate's and q0's, and the one of the two kernels with
    the smaller objective is returned.
    """
    if not tol >= 0:                    # refuses NaN as well
        raise ValueError(f"tol must be nonnegative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    _check_vertex_axis(joint, g, "joint")
    if len(joint.axes) != 2:
        raise AxisError("need a two-axis joint")
    rows = _stable_rows(g, maximal_only=True)
    sets = tuple(_row_sets(g, rows))
    # C order: a transposed view would pass q to BLAS in F order, which sums
    # the products below in another order
    allowed = np.ascontiguousarray(rows.T)

    p = joint.mass
    # each reduction calls the ufunc method itself, as ndarray.sum and
    # ndarray.max do through a Python wrapper
    p1 = np.add.reduce(p, axis=1)
    p2 = np.add.reduce(p, axis=0)
    p2_given_1 = np.divide(p, p1[:, None], out=np.zeros_like(p), where=p1[:, None] > 0)
    p1_given_2 = np.divide(p, p2, out=np.zeros_like(p), where=p2 > 0)

    def objective(q: np.ndarray, r: np.ndarray) -> float:   # H(W|U2) - H(W|U1)
        return float(np.add.reduce(plogp(q), axis=1) @ p1
                     - np.add.reduce(plogp(r), axis=1) @ p2)

    # the colouring's kernel; classes that land on one set merge, which
    # cannot raise H(W|U2)
    assign, upper = _min_entropy_partition(g._adj, p)
    upper = float(upper)
    vertex = np.arange(len(p))
    classes = np.zeros((max(assign) + 1, len(p)), dtype=bool)
    classes[assign, vertex] = True
    # [class, set]: the set holds every vertex of the class; float32 counts exactly
    holds = classes.astype(np.float32) @ ~allowed == 0
    home = holds.argmax(axis=1)[assign]                     # w0(u1)
    q0 = np.zeros(allowed.shape)
    q0[vertex, home] = 1.0
    r0 = p1_given_2.T @ q0                                  # r0[u2, w] = p(w | u2)
    # b[u1, u2] = p(u1 | u2) / p(w0(u1) | u2); the denominator is at least
    # the numerator, so it is positive wherever the numerator is
    b = np.divide(p1_given_2, r0[:, home].T, out=np.zeros_like(p), where=p1_given_2 > 0)
    load = np.maximum(np.maximum.reduce(rows @ b, axis=0), 1.0)     # t(u2)
    value0 = objective(q0, r0)
    gap0 = float(p2 @ np.log2(load))
    kernel, value, lower = q0, value0, value0 - gap0
    if gap0 > tol:
        q, r, gap = _alternating_minimization(allowed, p1, p2_given_1, p1_given_2,
                                              tol, max_iter)
        f = objective(q, r)
        lower = max(lower, f - gap)
        if f < value0:
            kernel, value = q, f
    # f(q0) summed from r0 can exceed the colouring's entropy, and f(q) fall
    # below 0, by rounding in the last bits only
    value = min(max(value, 0.0), upper)
    gap = max(value - lower, 0.0)
    return ConditionalGraphEntropyResult(value, upper, kernel, sets, gap <= tol, gap)


def _alternating_minimization(allowed: np.ndarray, p1: np.ndarray, p2_given_1: np.ndarray,
                              p1_given_2: np.ndarray, tol: float, max_iter: int,
                              ) -> tuple[np.ndarray, np.ndarray, float]:
    """The over-relaxed steps of ``conditional_graph_entropy`` from the
    uniform kernel; returns the last kept kernel q, r[u2, w] = p(w | u2) and
    q's Frank-Wolfe gap."""
    off = np.where(allowed, 0.0, -np.inf)       # added to mask the disallowed sets
    hole = np.where(allowed, 0.0, _LOG_Q_HOLE)  # the plain step's mask
    q = allowed / np.add.reduce(allowed, axis=1, keepdims=True)
    # finite everywhere: off the allowed sets q is 0, so those entries never count
    log_q = np.log2(q, out=np.zeros_like(q), where=allowed)
    # the iterate a relaxed step left, to which a rejected relaxed step goes back
    relaxed, kept, kept_objective, kept_gap = False, (), 0.0, 0.0
    for step in itertools.count():
        r = p1_given_2.T @ q                                # r[u2, w] = p(w | u2)
        log_r = np.maximum(r, _LOG_FLOOR)
        a = p2_given_1 @ np.log2(log_r, out=log_r)          # a[u1, w]
        # the gradient is p(u1) (log2 q - a); per row, its mean under q minus
        # its least allowed entry, which is nonnegative up to rounding
        d = log_q - a
        mean = np.einsum("ij,ij->i", q, d)
        # the objective H(W|U2) - H(W|U1): sum p1 sum q a = sum p2 sum r log2 r
        objective = float(p1 @ mean)
        d -= off
        gap = max(float(p1 @ (mean - np.minimum.reduce(d, axis=1))), 0.0)
        if gap <= tol:
            break
        reject = relaxed and (objective > kept_objective or gap > kept_gap)
        if reject:
            (q, a, r), gap = kept, kept_gap
        if step >= max_iter:
            break
        # the next log2 q, unnormalised
        if reject:
            log_q = a + hole                                # the plain step
        else:
            kept, kept_objective, kept_gap = (q, a, r), objective, gap
            # d is +inf off the allowed sets, so log2 q is -inf there
            d *= _RELAXATION
            log_q -= d
        relaxed = not reject
        log_q -= np.maximum.reduce(log_q, axis=1, keepdims=True)
        q = np.exp2(log_q)
        total = np.add.reduce(q, axis=1, keepdims=True)
        q /= total
        log_q -= np.log2(total)
        if relaxed:
            # floored where q is 0; after a plain step log2 q >= about -1,000
            # on the allowed sets, so the floor would never bind there
            np.maximum(log_q, _LOG_Q_FLOOR, out=log_q)
    return q, r, gap


@dataclass(frozen=True)
class ZigzagResult:
    holds: bool
    witness: tuple | None   # ((x1, y1), (x2, y2)) with both cross pairs off support

    def __bool__(self) -> bool:
        return self.holds


def zigzag_check(joint: JointPMF) -> ZigzagResult:
    """Support condition: p(x1,y1) > 0 and p(x2,y2) > 0 imply p(x1,y2) > 0
    or p(x2,y1) > 0. Returns the first violating quadruple otherwise, first
    in row-major support order of (x1, y1), then of (x2, y2).

    Rows a and c of the support S carry a violation iff each has a column
    the other lacks, i.e. iff ``S (not S)^T`` is positive at both [a, c] and
    [c, a]. Rows with equal support are interchangeable, so that matrix is
    formed over the distinct rows only, a block at a time. ``ZIGZAG_CAP``
    bounds the |X|^2 |Y| multiply-adds it would take over all rows.
    """
    if len(joint.axes) != 2:
        raise AxisError("need a two-axis joint")
    support = joint.mass > 0
    rows, cols = support.shape
    if rows * rows * cols > ZIGZAG_CAP:
        raise SizeCapError(
            f"zigzag check of a {rows}x{cols} support takes {rows * rows * cols}"
            f" multiply-adds, over the cap of {ZIGZAG_CAP}")
    packed = np.packbits(support, axis=1)
    width, flat = packed.shape[1], packed.tobytes()
    first_of: dict = {}         # distinct rows, each at its first occurrence
    for i in range(rows):
        first_of.setdefault(flat[i * width:(i + 1) * width], i)
    first = list(first_of.values())
    s = support[first].astype(np.float32)   # counts only need to stay positive
    off = 1.0 - s
    block = max(1, _BLOCK_CELLS // len(first))
    for lo in range(0, len(first), block):
        has = s[lo:lo + block] @ off.T > 0        # [a, c]: a has a column c lacks
        lacks = off[lo:lo + block] @ s.T > 0      # [a, c]: c has a column a lacks
        bad = np.flatnonzero((has & lacks).any(axis=1))
        if bad.size:
            break
    else:
        return ZigzagResult(True, None)
    i1 = int(first[lo + bad[0]])
    s = support.astype(np.float32)
    has_what_i1_lacks = s @ (1.0 - s[i1]) > 0
    for j1 in np.flatnonzero(support[i1]).tolist():
        partners = np.flatnonzero(has_what_i1_lacks & ~support[:, j1])
        if partners.size:
            i2 = int(partners[0])
            j2 = int(np.flatnonzero(support[i2] & ~support[i1])[0])
            xs, ys = joint.axes[0].symbols, joint.axes[1].symbols
            return ZigzagResult(False, ((xs[i1], ys[j1]), (xs[i2], ys[j2])))
    raise AssertionError("a violating row pair always yields a witness")
