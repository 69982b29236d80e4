"""Characteristic graphs, colorings, chromatic and conditional graph entropies."""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Mapping

import numpy as np

from .probability import Alphabet, AxisError, JointPMF, plogp

# Vertices of an or_product. The product is one Kronecker power, but the
# views read from it afterwards, such as sorted_edges, grow with the square of
# the vertex count, so the cap is on vertices. The measured times are in the
# README's "Size caps" table.
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
# Multiply-adds |X|^2 |Y| of the zigzag matrix product over all rows,
# counted before the distinct rows are found. The measured times are in the
# README's "Size caps" table.
ZIGZAG_CAP = 2**33
# Caps both |X|^2 |Z| (vertex pairs times peer symbols) and the square of
# the distinct function labels of characteristic_graph. The first bounds the
# cells of the one table lookup that builds the graph, so it needs no row
# blocks; the second bounds the label table. Every graph built under the cap
# has at most 1,024 vertices, so its file can be read back under
# GRAPH_FILE_VERTEX_CAP. The measured times are in the README's "Size caps"
# table.
CHARACTERISTIC_GRAPH_CAP = 2**20
# Numerator plus denominator bits of each threshold-mode label and of delta; every
# float passes (at most 1,128). Timed in the README's "Size caps" table.
LABEL_BITS_CAP = 2048
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


def characteristic_graph(joint: JointPMF, f: FunctionTable, *, delta=None) -> CharGraph:
    """Confusability graph of the first axis with respect to the second and f.

    Exact mode (``delta is None``): two symbols are joined when some
    positive-probability peer symbol makes the function values differ.
    Threshold mode: joined when, for some such peer, the values a and b
    satisfy |a - b| > ``delta``, compared exactly. The labels must then be
    finite real numbers (int, float, ``Fraction``, ``Decimal`` or numpy
    scalars); any other label, NaN and infinities included, raises
    ValueError naming it. ``delta`` = inf gives the edgeless graph. Refuses
    with ``SizeCapError``, before any label is compared, when |X|^2 |Z| exceeds
    ``CHARACTERISTIC_GRAPH_CAP``, and then when the squared count of distinct
    labels does: one refusal for the joint, one for the function. Threshold
    mode then refuses, by name, the first label, or ``delta``, whose numerator
    and denominator hold more than ``LABEL_BITS_CAP`` bits.
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
        confusable[:-1, :-1] = _threshold_table(labels, delta)
    # int32 halves the index array against intp and holds the largest flat
    # index the cap admits, 1025^2 - 1
    codes = np.where(joint.mass > 0, f._codes, len(labels)).astype(np.int32)
    # [i, j, k]: peer k is shared by i and j and their labels are confusable
    hit = confusable.ravel()[codes[:, None, :] * size + codes[None, :, :]]
    # both label tables are symmetric, so the adjacency is; only a NaN label
    # makes a vertex confusable with itself
    adj = hit.any(axis=2)
    np.fill_diagonal(adj, False)
    return CharGraph._from_adjacency(joint.axes[0], adj)


def _exact_number(value, what: str):
    """A finite real number as an exact int or ``Fraction``. Anything else raises
    ValueError, and one over ``LABEL_BITS_CAP`` SizeCapError, naming it as ``what``."""
    if isinstance(value, numbers.Integral):         # Python and numpy integers
        value = int(value)
    bits = 0
    if isinstance(value, decimal.Decimal) and value.is_finite():
        # d digits times 10**e, trailing zeros moved into e (normalize() would round): at
        # most (d + |e|) log2(10) + 2 bits, counted before as_integer_ratio writes 10**|e| out
        _, digits, exponent = value.as_tuple()
        if not any(digits):
            return 0
        zeros = len(digits) - len(bytes(digits).rstrip(b"\0"))
        bits = math.ceil((len(digits) + abs(exponent + zeros) - zeros) * math.log2(10)) + 2
    if bits <= LABEL_BITS_CAP:
        try:
            num, den = value.as_integer_ratio()     # ints, Fraction, Decimal, floats
        except (AttributeError, ValueError, OverflowError):
            raise ValueError(f"{what} {value!r} is not a finite real number") from None
        bits = num.bit_length() + den.bit_length()
    if bits > LABEL_BITS_CAP:
        try:        # an int too long for str is named by its type
            name = repr(value)
        except ValueError:
            name = f"of type {type(value).__name__}"
        raise SizeCapError(f"{what} {name[:80]}{'...' * (len(name) > 80)} needs up to {bits}"
                           f" bits of numerator and denominator, over the cap of {LABEL_BITS_CAP}")
    return num if den == 1 else Fraction(num, den)


def _threshold_table(labels: tuple, delta) -> np.ndarray:
    """[i, j]: |labels[i] - labels[j]| > delta, compared exactly.

    The labels are sorted once as exact numbers: integers stay ints and
    every other label is a ``Fraction``. The labels farther than delta from
    a form a prefix (below a - delta) and a suffix (above a + delta) of the
    sorted order, so two bisections per label and one comparison of ranks
    fill the table. Scaling every label to a common denominator instead
    would give each label the bits of all the denominators together.
    """
    values = [_exact_number(label, "function label") for label in labels]
    if delta == math.inf:
        return np.zeros((len(labels), len(labels)), dtype=bool)
    band = _exact_number(delta, "delta")
    ranked = sorted(values)
    # equal values share a rank, and no bisection splits them
    rank = np.array([bisect.bisect_left(ranked, v) for v in values])
    below = np.array([bisect.bisect_left(ranked, v - band) for v in values])
    above = np.array([bisect.bisect_right(ranked, v + band) for v in values])
    return (rank < below[:, None]) | (rank >= above[:, None])


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
    """Whether base ** n > cap, n cut at the cap's bit length: any base over 1 passes it there."""
    return base ** min(max(n, 0), cap.bit_length()) > cap


class _PlogpMemo(dict):
    """Scalar p*log2(p) by mass, computed on first lookup. The values are
    Python floats, so the arithmetic on them runs on floats; the product
    is a float one, of the same bits as numpy's."""

    def __missing__(self, x: float) -> float:
        y = self[x] = x * float(np.log2(x)) if x > 0 else 0.0
        return y


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
    in. Each node is handed ``s``, the sum of p*log2(p) over every
    (class, column) cell; per class one list of its cell masses, then their
    p*log2(p); and per node one ``peak`` list: each column's largest class
    mass, then its p*log2(p), then ``plogp(peak + r)`` with ``r`` the
    column's mass not yet placed. The bound is ``-s - H(Z)`` plus, per
    column, ``plogp(peak) - plogp(peak + r)``; a child gets its parent's
    bound plus the change on the placed vertex's columns, so that no node
    sums over every column. The children of the last vertex are leaves,
    evaluated in their parent's loop. Every leaf's value is ``-s - H(Z)``:
    its vertices' increments of ``s`` added in vertex order, less the
    ``fsum`` of H(Z), so it depends only on its partition; the bound
    differs from a sum over all columns in rounding only, far inside the
    1e-12 prune margin. Scalar p*log2(p) is memoised per call, keyed by the
    mass, and stays ``np.log2``: ``math.log2`` differs from it in the last
    bit on about 0.2 % of inputs, which changes the returned values.
    """
    n, m = weights.shape
    col_total = np.add.reduce(weights, axis=0).tolist()
    plogp_of = _PlogpMemo()
    top = [plogp_of[c] for c in col_total]
    h_cond = -math.fsum(top)      # H(Z), subtracted at the end
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
    empty = [0.0] * (2 * m)

    def descend(v: int, s: float, peak: list[float], bound: float) -> None:
        nonlocal best_assign, best_val
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
                val = -(s + ds) - h_cond
                if val < best_val - 1e-12:
                    best_val = val
                    assign[v] = c
                    best_assign = assign.copy()
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
            assign[v] = c
            child_bound = bound - ds + dk
            if child_bound < best_val - 1e-12:
                descend(v + 1, s + ds, child_peak, child_bound)
            cells[c] = old
        cells.pop()

    # the root's bound: all of each column's mass in one class, which is
    # H(class | Z) = 0
    descend(0, 0.0, [0.0] * (2 * m) + top, 0.0)
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
    return [remap.setdefault(a, len(remap)) for a in assign.tolist()]


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
        value = -math.fsum(plogp(np.bincount(assign, weights=mass)).tolist())
    else:
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    coloring = Coloring(g, {v: c for v, c in zip(g.vertices.symbols, assign)})
    return coloring, value


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
    return _min_entropy_partition(gn._adj, jn.mass)[1] / n


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
    ``value`` minus a lower bound on the minimum, the largest of the last
    iterate's Frank-Wolfe bound and the closed-form certificates of the
    colouring's and the cograph blocks' kernels; and the feasible-coloring
    upper bound. The minimum lies in ``[value - gap, value]``."""

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
    p(u1 | w, u2), which lives on the set w). With b = p(u1|u2) / a(u1, u2)
    scaled down by its largest stable-set sum t(u2) where that exceeds 1,
    the bound is -sum p log2 a - sum p(u2) log2 t(u2). For q0, a = p(w0(u1)
    | u2) and the bound is the objective at q0 minus gap0 = sum p(u2) log2
    t(u2). If gap0 is at most ``tol``, q0 is returned after no step. Else
    ``_cograph_kernel`` may give a second candidate, certified with a(u1, u2)
    = sum over the sets w holding u1 of p(w | u2), which is tight on perfect
    graphs; if its gap is at most ``tol``, no step is taken either.

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
    largest of the candidates', and the kernel with the smallest objective
    is returned.
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

    def clique_gap(denominator: np.ndarray) -> float:
        # sum p(u2) log2 t(u2); the denominator is positive where p(u1 | u2) is
        b = np.divide(p1_given_2, denominator, out=np.zeros_like(p), where=p1_given_2 > 0)
        load = np.maximum(np.maximum.reduce(rows @ b, axis=0), 1.0)     # t(u2)
        return float(p2 @ np.log2(load))

    # the colouring's kernel; classes that land on one set merge, which
    # cannot raise H(W|U2)
    assign, upper = _min_entropy_partition(g._adj, p)
    vertex = np.arange(len(p))
    classes = np.zeros((max(assign) + 1, len(p)), dtype=bool)
    classes[assign, vertex] = True
    # [class, set]: the set holds every vertex of the class; float32 counts exactly
    holds = classes.astype(np.float32) @ ~allowed == 0
    home = holds.argmax(axis=1)[assign]                     # w0(u1)
    q0 = np.zeros(allowed.shape)
    q0[vertex, home] = 1.0
    r0 = p1_given_2.T @ q0                                  # r0[u2, w] = p(w | u2)
    value0 = objective(q0, r0)
    gap0 = clique_gap(r0[:, home].T)                        # p(w0(u1) | u2)
    kernel, value, lower = q0, value0, value0 - gap0
    if gap0 > tol:
        closed = _cograph_kernel(g._adj, p, p1.tolist(), rows, q0)
        if closed is not None:
            r = p1_given_2.T @ closed
            a = allowed @ r.T           # a[u1, u2]: p(the set holds u1 | u2)
            log_a = np.log2(a, out=np.zeros_like(a), where=p > 0)
            lower = max(lower, -float(np.vdot(p, log_a)) - clique_gap(a))
            f = objective(closed, r)
            if f < value:
                kernel, value = closed, f
        if closed is None or min(max(value, 0.0), upper) - lower > tol:
            q, r, gap = _alternating_minimization(allowed, p1, p2_given_1, p1_given_2,
                                                  tol, max_iter)
            f = objective(q, r)
            lower = max(lower, f - gap)
            if f < value:
                kernel, value = q, f
    # f(q0) summed from r0 can exceed the colouring's entropy, and f(q) fall
    # below 0, by rounding in the last bits only
    value = min(max(value, 0.0), upper)
    gap = max(value - lower, 0.0)
    return ConditionalGraphEntropyResult(value, upper, kernel, sets, gap <= tol, gap)


def _cograph_kernel(adj: np.ndarray, p: np.ndarray, p1: list, rows: np.ndarray,
                    q0: np.ndarray) -> np.ndarray | None:
    """The minimising kernel where each vertex with mass has it on one peer
    and every peer's block (its vertices with mass) is P4-free, else None.
    Graph entropy is additive over disjoint unions and joins (Simonyi 1995):
    a vertex's kernel is its component's times the other components' output
    laws, over the product sets, or its part's in a join. Each block-local
    set goes to the first row of ``rows`` with that restriction."""
    support = p > 0
    if (np.add.reduce(support, axis=1) > 1).any():
        return None
    bit = 1 << np.arange(len(p))
    near = (adj @ bit).tolist()                 # neighbourhoods as int bitmasks
    far = (~adj @ bit - bit).tolist()           # and in the complement

    def component(s: int, nbr: list) -> int:    # of s's lowest vertex, under nbr
        part = new = s & -s
        while new:
            new = reduce(int.__or__, (nbr[v] for v in range(new.bit_length())
                                      if new >> v & 1)) & s & ~part
            part |= new
        return part

    def product(x: dict, y: dict) -> dict:
        return {a | b: pa * pb for a, pa in x.items() for b, pb in y.items()}

    def solve(s: int):      # per vertex its kernel, the output law and the mass of s
        if not s & (s - 1):
            v = s.bit_length() - 1
            return {v: {s: 1.0}}, {s: 1.0}, p1[v]
        joined = (part := component(s, near)) == s
        if joined and (part := component(s, far)) == s:
            return None                         # prime
        halves = solve(part), solve(s ^ part)
        if None in halves:
            return None
        (k1, l1, m1), (k2, l2, m2) = halves
        if joined:                              # each set lies in one part
            m = m1 + m2
            return ({**k1, **k2}, {**{w: x * m1 / m for w, x in l1.items()},
                                   **{w: x * m2 / m for w, x in l2.items()}}, m)
        return ({**{v: product(row, l2) for v, row in k1.items()},
                 **{v: product(row, l1) for v, row in k2.items()}}, product(l1, l2), m1 + m2)

    masks = (rows @ bit).tolist()
    kernel = np.where(support.any(axis=1, keepdims=True), 0.0, q0)
    for block in filter(None, (bit @ support).tolist()):
        solved = solve(block)
        if solved is None:
            return None
        # reversed, so that the first row with each restriction is kept
        first = {m & block: j for j, m in reversed(list(enumerate(masks)))}
        for v, row in solved[0].items():
            kernel[v, [first[w] for w in row]] = list(row.values())
    return kernel


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
