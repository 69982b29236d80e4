import dataclasses
import hashlib
import itertools
import math
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from _support import (
    alph,
    assert_refuses,
    brute_force_min_conditional_entropy,
    brute_force_partitions,
    dict_conditional_entropy,
    dict_entropy,
    enumerate_stable_sets,
    frozen_conditional_graph_entropy,
    grid_conditional_graph_entropy,
    has_edge,
    loop_adjacency_masks,
    loop_characteristic_edges,
    loop_clique_certificate,
    loop_coloring_clashes,
    loop_coloring_kernel,
    loop_conditional_graph_entropy,
    loop_frank_wolfe_gap,
    loop_greedy_assignment,
    loop_kernel_objective,
    loop_label_codes,
    loop_min_entropy_partition,
    loop_or_product_edges,
    loop_sorted_edges,
    loop_zigzag,
    np_kron_power,
    outer_iid_pair_power_mass,
    pmf_as_dict,
    random_graph,
    random_pmf,
    reorder,
    reordered,
)
from fcmac import graphs, presets
from fcmac.graphs import (
    OR_PRODUCT_CAP,
    ZIGZAG_CAP,
    CharGraph,
    Coloring,
    FunctionTable,
    SizeCapError,
    characteristic_graph,
    conditional_chromatic_entropy,
    conditional_graph_entropy,
    iid_pair_power,
    min_entropy_coloring,
    or_product,
    stable_sets,
    zigzag_check,
)
from fcmac.probability import Alphabet, AxisError, JointPMF, marginalize

LOG2_3 = math.log2(3.0)
COLOR_ENTROPY = LOG2_3 - 2 / 3


def ternary_graph() -> CharGraph:
    return characteristic_graph(presets.ternary_source_joint(),
                                presets.comparison_function())


class TestCharacteristicGraph:
    def test_ternary_single_edge(self):
        g = ternary_graph()
        assert g.sorted_edges() == [("1", "3")]

    def test_grid_threshold_edges(self):
        cells = presets.grid_cell_function()
        joint = presets.ternary_source_joint("w1", "w2")
        g = characteristic_graph(joint, cells, delta=Fraction(1, 6))
        assert g.sorted_edges() == [("1", "2"), ("2", "3")]

    def test_constant_function_edgeless(self):
        base = presets.ternary_source_joint()
        const = FunctionTable.from_callable(base.axes, lambda a, b: "k")
        assert characteristic_graph(base, const).edges == frozenset()

    def test_injective_rows_full_support_complete(self):
        axes = (Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1")))
        joint = JointPMF(axes, np.full((3, 2), 1 / 6))
        f = FunctionTable.from_callable(axes, lambda a, b: a)
        g = characteristic_graph(joint, f)
        assert len(g.edges) == 3

    def test_alphabet_mismatch_raises(self):
        base = presets.ternary_source_joint()
        other = FunctionTable.from_callable(
            (Alphabet("u1", ("x", "y")), Alphabet("u2", ("x", "y"))), lambda a, b: 0)
        with pytest.raises(AxisError):
            characteristic_graph(base, other)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            characteristic_graph(presets.ternary_source_joint("w1", "w2"),
                                 presets.grid_cell_function(), delta=-0.1)

    @pytest.mark.parametrize("delta", [float("nan"), Fraction(-1, 6), -math.inf])
    def test_nan_and_negative_delta_refused_by_name(self, delta):
        with pytest.raises(ValueError, match="^delta must be nonnegative"):
            characteristic_graph(presets.ternary_source_joint("w1", "w2"),
                                 presets.grid_cell_function(), delta=delta)

    @pytest.mark.parametrize("delta", [0, Fraction(1, 6), math.inf])
    def test_nonnegative_delta_accepted(self, delta):
        g = characteristic_graph(presets.ternary_source_joint("w1", "w2"),
                                 presets.grid_cell_function(), delta=delta)
        assert (len(g.sorted_edges()) == 0) == (delta == math.inf)

    @pytest.mark.parametrize("n,m,n_labels", [(1025, 1, 1), (1, 1025, 1025)])
    def test_size_cap_refuses_before_the_label_table(self, n, m, n_labels):
        # over the cap on vertices^2 x peers, then on distinct labels^2; the
        # labels are strings, which the threshold table would refuse
        axes = (alph("x", n), alph("z", m))
        joint = JointPMF(axes, np.full((n, m), 1.0 / (n * m)))
        codes = np.arange(n * m).reshape(n, m) % n_labels
        f = FunctionTable(axes, np.array([f"s{k}" for k in range(n_labels)], dtype=object)[codes])
        with pytest.raises(SizeCapError, match=f"exceeds the cap of {2**20} "):
            characteristic_graph(joint, f, delta=0)

    def test_size_cap_boundary(self, monkeypatch):
        joint = presets.ternary_source_joint()
        f = presets.comparison_function()
        monkeypatch.setattr(graphs, "CHARACTERISTIC_GRAPH_CAP", 27)   # 3^2 x 3
        assert characteristic_graph(joint, f).sorted_edges() == [("1", "3")]
        monkeypatch.setattr(graphs, "CHARACTERISTIC_GRAPH_CAP", 26)
        with pytest.raises(SizeCapError, match=r"3 vertices and 3 peer symbols exceeds the"
                                               r" cap of 26 on vertices\^2 x peers$"):
            characteristic_graph(joint, f)
        # one vertex on three peers, three labels: 3 cells pass, 3^2 labels do not
        axes = (alph("x", 1), alph("z", 3))
        one_row = JointPMF(axes, np.full((1, 3), 1 / 3))
        injective = FunctionTable(axes, np.arange(3).reshape(1, 3))
        monkeypatch.setattr(graphs, "CHARACTERISTIC_GRAPH_CAP", 9)
        assert characteristic_graph(one_row, injective).sorted_edges() == []
        monkeypatch.setattr(graphs, "CHARACTERISTIC_GRAPH_CAP", 8)
        with pytest.raises(SizeCapError, match=r"of 3 distinct function labels exceeds the"
                                               r" cap of 8 on labels\^2$"):
            characteristic_graph(one_row, injective)

    @pytest.mark.parametrize("label", [lambda k: Fraction(k, 1024),
                                       lambda k: k + Fraction(1, 10**300 + k)],
                             ids=["k/1024", "coprime-denominators"])
    def test_threshold_mode_at_the_label_cap_in_time(self, label):
        # 1,024 distinct Fraction labels on a full 32 x 32 joint: labels^2
        # is the cap. The second set's denominators have about 1,000 bits
        # each and share no factor above 1,024, so their common denominator
        # would have about a million bits
        axes = (alph("x", 32), alph("z", 32))
        joint = JointPMF(axes, np.full((32, 32), 1 / 1024))
        labels = np.array([label(k) for k in range(1024)], dtype=object)
        f = FunctionTable(axes, labels.reshape(32, 32))
        assert len(f.range_labels()) ** 2 == graphs.CHARACTERISTIC_GRAPH_CAP
        start = time.perf_counter()
        g = characteristic_graph(joint, f, delta=Fraction(1, 2))
        assert time.perf_counter() - start < 0.5
        assert g.edges == loop_characteristic_edges(joint, f, Fraction(1, 2))

    @pytest.mark.parametrize("label", ["1/2", None, (1, 2), 1j, math.nan, math.inf, -math.inf])
    def test_threshold_mode_refuses_a_label_that_is_not_a_finite_real(self, label):
        values = np.array([[0, 1, 2], [label, 1, 2], [2, 1, 0]], dtype=object)
        f = FunctionTable(presets.ternary_source_joint().axes, values)
        with pytest.raises(ValueError,
                           match=f"^function label {re.escape(repr(label))} is not a finite real"):
            characteristic_graph(presets.ternary_source_joint(), f, delta=0)
        characteristic_graph(presets.ternary_source_joint(), f)    # exact mode reads no number

    def test_peak_memory_at_the_cap(self):
        # 1,024 vertices, one peer and 1,024 distinct labels: the complete
        # graph. The int32 flat index peaks at 6.1 MB; an intp one would
        # peak at 10.0 MB
        n = 1024
        axes = (alph("x", n), alph("z", 1))
        joint = JointPMF(axes, np.full((n, 1), 1 / n))
        f = FunctionTable(axes, np.arange(n).reshape(n, 1))
        assert n * n == len(f.range_labels()) ** 2 == graphs.CHARACTERISTIC_GRAPH_CAP
        tracemalloc.start()
        try:
            g = characteristic_graph(joint, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._adj.sum() == n * (n - 1)
        assert peak <= 8 * 2**20

    def test_second_encoder_graph_via_reorder(self):
        # the symmetric construction: swap the joint and the function domain
        base = presets.ternary_source_joint()
        f = presets.comparison_function()
        g2 = characteristic_graph(reorder(base, ("u2", "u1")),
                                  reordered(f, ("u2", "u1")))
        assert g2.sorted_edges() == [("1", "3")]


class TestOrProduct:
    def test_n1_identity(self):
        g = ternary_graph()
        assert or_product(g, 1) is g

    def test_boolean_kron_power_against_np_kron(self):
        # square and rectangular bases, n = 1-6 up to 2^16 cells
        rng = np.random.default_rng(2903)
        for rows, cols in [(1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (3, 1), (2, 3), (4, 2)]:
            for _ in range(4):
                base = rng.random((rows, cols)) < rng.uniform(0.2, 0.8)
                for n in range(1, 7):
                    if (rows * cols) ** n > 2**16:
                        break
                    got, want = graphs._kron_power(base, n), np_kron_power(base, n)
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes()

    def test_ternary_square_against_double_loop(self):
        g = ternary_graph()
        g2 = or_product(g, 2)
        assert len(g2.vertices) == 9
        base_edge = {("1", "3"), ("3", "1")}
        expected = set()
        for u, v in itertools.combinations(g2.vertices.symbols, 2):
            if any((a, b) in base_edge for a, b in zip(u, v)):
                expected.add((u, v))
        got = {tuple(e) for e in g2.edges}
        sym = {(min(a, b), max(a, b)) for a, b in expected}
        assert {(min(a, b), max(a, b)) for a, b in got} == sym

    def test_edgeless_stays_edgeless(self):
        g = CharGraph(Alphabet("v", ("a", "b")), frozenset())
        assert or_product(g, 3).edges == frozenset()

    def test_cap(self):
        g = ternary_graph()
        with pytest.raises(SizeCapError):
            or_product(g, 9)

    def test_one_vertex_block_length_refused_at_once(self):
        # 1^n vertices never pass the cap; n - 1 Kronecker steps took 2.6 s
        # at n = 10**5, so the alarm stops a product that runs on
        g = CharGraph(Alphabet("v", ("a",)), frozenset())
        assert or_product(g, graphs._MAX_BLOCK_LENGTH).vertices.symbols == (("a",) * 32,)

        def expire(signum, frame):
            raise TimeoutError("or_product still running after 1 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(SizeCapError,
                               match="^n must be at most 32 for an OR product, got 100000000$"):
                or_product(g, 10**8)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_cap_admits_ternary_n6_only(self):
        g = ternary_graph()
        assert 3 ** 6 <= OR_PRODUCT_CAP < 3 ** 7
        with pytest.raises(SizeCapError, match="3\\^7 vertices"):
            or_product(g, 7)
        g6 = or_product(g, 6)
        assert len(g6.edges) == (9 ** 6 - 7 ** 6) // 2

    def test_edge_monotonicity(self):
        verts = Alphabet("v", ("a", "b", "c"))
        small = CharGraph(verts, frozenset({("a", "b")}))
        large = CharGraph(verts, frozenset({("a", "b"), ("b", "c")}))
        e_small = or_product(small, 2).edges
        e_large = or_product(large, 2).edges
        assert e_small <= e_large


class TestFunctionTable:
    @pytest.mark.parametrize("case", ["flat", "transposed", "wrong-size", "scalar", "tuples"])
    def test_values_must_have_the_domain_shape(self, case):
        # only a table of the domain's shape is read; a tuple label is one cell
        axes = (alph("u1", 2), alph("u2", 3))
        tuples = np.empty((2, 3), dtype=object)
        for i, j in itertools.product(range(2), range(3)):
            tuples[i, j] = (i, j)
        values = {"flat": [0, 1, 2, 1, 2, 0], "transposed": np.arange(6).reshape(3, 2),
                  "wrong-size": [0, 1, 2], "scalar": 5, "tuples": tuples}[case]
        if case == "tuples":
            f = FunctionTable(axes, values)
            assert f.values.shape == (2, 3) and f.values[1, 2] == (1, 2)
            assert f.range_labels() == tuple(tuples.flat)
            return
        message = f"values shape {np.shape(values)} does not match domain axis sizes (2, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FunctionTable(axes, values)


class TestColoring:
    def test_propriety_enforced(self):
        g = ternary_graph()
        with pytest.raises(ValueError):
            Coloring(g, {"1": 0, "2": 0, "3": 0})
        with pytest.raises(ValueError):
            Coloring(g, {"1": 0, "2": 1})

    def test_propriety_check_against_loop(self):
        rng = np.random.default_rng(23)
        outcomes = set()
        for case in range(300):
            n = int(rng.integers(1, 11))
            g = random_graph(rng, n)
            if case % 4 == 3:       # greedy colorings are proper
                color_of = min_entropy_coloring(
                    g, random_pmf(rng, (n,), names=("v",)), "greedy")[0].color_of
            else:
                k = int(rng.integers(1, n + 1))
                palette = [f"c{i}" for i in range(k)] if case % 2 else list(range(k))
                color_of = {v: palette[int(rng.integers(k))] for v in g.vertices}
            clashes = loop_coloring_clashes(g, color_of)
            outcomes.add(not clashes)
            if clashes:
                a, b = clashes[0]
                with pytest.raises(ValueError) as err:
                    Coloring(g, color_of)
                assert str(err.value) == f"edge ({a!r}, {b!r}) has equal colors"
            else:
                assert Coloring(g, color_of).color_of == color_of
        assert outcomes == {True, False}

    def test_ternary_exact_value_and_classes(self):
        g = ternary_graph()
        marginal = marginalize(presets.ternary_source_joint(), "u1")
        coloring, bits = min_entropy_coloring(g, marginal, "exact")
        assert bits == pytest.approx(COLOR_ENTROPY, abs=1e-12)
        # lexicographically smallest optimal partition groups 1 with 2
        assert coloring.color_of == {"1": 0, "2": 0, "3": 1}

    def test_edgeless_single_class(self):
        g = CharGraph(Alphabet("v", ("a", "b", "c")), frozenset())
        pmf = JointPMF((g.vertices,), [0.2, 0.3, 0.5])
        coloring, bits = min_entropy_coloring(g, pmf, "exact")
        assert bits == 0.0
        assert len(set(coloring.color_of.values())) == 1

    def test_complete_graph_forces_distinct_colors(self):
        verts = Alphabet("v", ("a", "b", "c"))
        g = CharGraph(verts, frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
        pmf = JointPMF((verts,), [1 / 3, 1 / 3, 1 / 3])
        _, bits = min_entropy_coloring(g, pmf, "exact")
        assert bits == pytest.approx(LOG2_3, abs=1e-12)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            g = random_graph(rng, n)
            pmf = random_pmf(rng, (n,), names=("v",))
            _, bits = min_entropy_coloring(g, pmf, "exact")
            oracle = brute_force_min_conditional_entropy(
                loop_adjacency_masks(g), pmf.mass.reshape(-1, 1))
            assert bits == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("kind", ["columns", "one-peer", "sparse"])
    def test_exact_partition_against_enumeration(self, kind):
        # an oracle that does not replay the search: every proper partition,
        # enumerated in restricted-growth order, on one to five columns
        rng = np.random.default_rng(39)
        for _ in range(40):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            g = random_graph(rng, n)
            if kind == "columns":
                weights = rng.dirichlet(np.ones(n * m)).reshape(n, m)
            elif kind == "one-peer":
                weights = np.zeros((n, m))
                weights[np.arange(n), rng.integers(0, m, size=n)] = rng.dirichlet(np.ones(n))
            else:
                weights = rng.random((n, m)) * (rng.random((n, m)) > 0.3)
                if not weights.any():
                    weights[0, 0] = 1.0
                weights /= weights.sum()
            adj = loop_adjacency_masks(g)
            assign, value = graphs._min_entropy_partition(g._adj, weights)
            partitions = brute_force_partitions(adj, weights)
            least = min(v for _, v in partitions)
            assert abs(value - max(least, 0.0)) <= 1e-12
            # proper, and in restricted-growth form
            assert not any(adj[u] >> v & 1 for u in range(n) for v in range(n)
                           if assign[u] == assign[v])
            assert all(assign[v] <= max(assign[:v], default=-1) + 1 for v in range(n))
            # the entropy of its class masses is the value
            cells: dict = {}
            for v, c in enumerate(assign):
                for z in range(m):
                    cells[c, z] = cells.get((c, z), 0.0) + float(weights[v, z])
            columns = dict(enumerate(weights.sum(axis=0).tolist()))
            assert abs(dict_entropy(cells) - dict_entropy(columns) - value) <= 1e-12
            # a tie goes to the partition first in restricted-growth order
            assert assign == next(a for a, v in partitions if v <= least + 1e-12)

    def test_exact_never_above_greedy(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            g = random_graph(rng, n)
            pmf = random_pmf(rng, (n,), names=("v",))
            _, exact_bits = min_entropy_coloring(g, pmf, "exact")
            greedy_col, greedy_bits = min_entropy_coloring(g, pmf, "greedy")
            assert exact_bits <= greedy_bits + 1e-9
            assert set(greedy_col.color_of) == set(g.vertices.symbols)

    def test_exact_cap(self):
        g = CharGraph(Alphabet("v", tuple(str(i) for i in range(13))), frozenset())
        pmf = JointPMF((g.vertices,), np.full(13, 1 / 13))
        with pytest.raises(SizeCapError):
            min_entropy_coloring(g, pmf, "exact")


class TestConditionalChromaticEntropy:
    def test_ternary_n1_equals_two_thirds(self):
        # oracle: evaluate H(c(U1) | U2) for both optimal colorings directly
        base = presets.ternary_source_joint()
        g = ternary_graph()
        d = pmf_as_dict(base)
        values = []
        for classes in ({"1": 0, "2": 0, "3": 1}, {"1": 0, "2": 1, "3": 1}):
            joint = {}
            for (a, b), p in d.items():
                joint[(classes[a], b)] = joint.get((classes[a], b), 0.0) + p
            values.append(dict_conditional_entropy(joint, (0,), (1,)))
        assert min(values) == pytest.approx(2 / 3, abs=1e-12)
        assert conditional_chromatic_entropy(g, base, 1) == pytest.approx(2 / 3,
                                                                          abs=1e-9)

    def test_complete_graph_gives_conditional_entropy(self):
        verts = Alphabet("u1", ("a", "b", "c"))
        peer = Alphabet("u2", ("0", "1"))
        rng = np.random.default_rng(23)
        joint = JointPMF((verts, peer), rng.dirichlet(np.ones(6)).reshape(3, 2))
        g = CharGraph(verts, frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
        from fcmac.probability import conditional_entropy
        assert conditional_chromatic_entropy(g, joint, 1) == pytest.approx(
            conditional_entropy(joint, "u1", "u2"), abs=1e-9)

    def test_edgeless_zero(self):
        verts = Alphabet("u1", ("a", "b"))
        peer = Alphabet("u2", ("0", "1"))
        joint = JointPMF((verts, peer), np.full((2, 2), 0.25))
        g = CharGraph(verts, frozenset())
        for n in (1, 2):
            assert conditional_chromatic_entropy(g, joint, n) == 0.0

    def test_block_length_two_not_above_one(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            g = random_graph(rng, 3)
            joint = random_pmf(rng, (3, 3), names=("v", "u2"))
            v1 = conditional_chromatic_entropy(g, joint, 1)
            v2 = conditional_chromatic_entropy(g, joint, 2)
            assert v2 <= v1 + 1e-9

    def test_iid_pair_power_mass(self):
        base = presets.ternary_source_joint()
        squared = iid_pair_power(base, 2)
        assert squared.mass.shape == (9, 9)
        assert squared.mass.sum() == pytest.approx(1.0, abs=1e-12)
        i = squared.axes[0].symbols.index(("1", "2"))
        j = squared.axes[1].symbols.index(("2", "1"))
        assert squared.mass[i, j] == pytest.approx(1 / 36, abs=1e-15)

    def test_iid_pair_power_against_the_outer_product(self):
        # a third of the joints sparse; every n up to the cell cap
        rng = np.random.default_rng(1902)
        for k in range(60):
            s1, s2 = (int(s) for s in rng.integers(1, 5, size=2))
            mass = rng.random((s1, s2)) * (rng.random((s1, s2)) < (0.5 if k % 3 == 0 else 1.0))
            mass.flat[rng.integers(mass.size)] += 1.0
            joint = JointPMF((alph("x", s1), alph("z", s2)), mass / mass.sum())
            want = outer_iid_pair_power_mass(joint.mass, 2)
            assert iid_pair_power(joint, 2).mass.tobytes() == want.tobytes()
            n = 3
            while (s1 * s2) ** n <= graphs.IID_POWER_CELL_CAP and n <= graphs._MAX_BLOCK_LENGTH:
                want = outer_iid_pair_power_mass(joint.mass, n)
                assert graphs._kron_power(joint.mass, n).tobytes() == want.tobytes()
                n += 1

    @staticmethod
    def one_vertex(peers: int) -> tuple[CharGraph, JointPMF]:
        verts = Alphabet("u1", ("a",))
        joint = JointPMF((verts, Alphabet("u2", tuple(str(i) for i in range(peers)))),
                         np.full((1, peers), 1 / peers))
        return CharGraph(verts, frozenset()), joint

    def test_one_vertex_graph_capped_by_the_joint_cells(self):
        g, joint = self.one_vertex(2)
        assert conditional_chromatic_entropy(g, joint, 16) == 0.0   # 2^16 cells
        with pytest.raises(SizeCapError, match=r"^2\^17 joint cells exceeds the cap of 65536"):
            conditional_chromatic_entropy(g, joint, 17)
        with pytest.raises(SizeCapError, match=r"^2\^17 joint cells"):
            iid_pair_power(joint, 17)

    def test_block_length_capped_where_the_cells_do_not_grow(self):
        g, joint = self.one_vertex(1)
        assert conditional_chromatic_entropy(g, joint, graphs._MAX_BLOCK_LENGTH) == 0.0
        for n in (graphs._MAX_BLOCK_LENGTH + 1, 10**8):
            with pytest.raises(SizeCapError, match=f"^n must be at most 32 .*, got {n}$"):
                conditional_chromatic_entropy(g, joint, n)

    def test_huge_block_length_refused_by_counting_up_to_the_cap(self):
        # 3 ** 10**7 alone takes seconds as an exact power
        for n in (7, 10**7):
            with pytest.raises(SizeCapError, match="^OR-product has .* vertices, over the cap"):
                conditional_chromatic_entropy(ternary_graph(), presets.ternary_source_joint(), n)
            with pytest.raises(SizeCapError, match=rf"^3\^{n} vertices exceeds the cap"):
                or_product(ternary_graph(), n)
        assert graphs._power_exceeds(3, 10**100, 12)
        assert not graphs._power_exceeds(1, 10**100, 12)
        assert [graphs._power_exceeds(2, n, 12) for n in (0, 3, 4)] == [False, False, True]


class TestStableSets:
    def test_ternary_counts(self):
        g = ternary_graph()
        assert len(stable_sets(g, maximal_only=False)) == 5
        maximal = stable_sets(g, maximal_only=True)
        assert sorted(tuple(sorted(s)) for s in maximal) == [("1", "2"), ("2", "3")]

    def test_against_subset_filter(self):
        rng = np.random.default_rng(38)
        for n in [1, 12] + rng.integers(1, 13, size=40).tolist():
            g = random_graph(rng, n, edge_prob=float(rng.choice([0.0, 0.3, 0.7, 1.0])))
            syms = g.vertices.symbols
            idx = {s: i for i, s in enumerate(syms)}
            masks = enumerate_stable_sets(n, [(idx[a], idx[b]) for a, b in g.edges])

            def sets(ms):
                return [frozenset(syms[v] for v in range(n) if m >> v & 1) for m in ms]
            assert stable_sets(g, maximal_only=False) == sets(masks)
            # maximal: adding any vertex outside the set leaves the stable sets
            stable = set(masks)
            maximal = [m for m in masks
                       if all(m >> v & 1 or m | 1 << v not in stable for v in range(n))]
            assert stable_sets(g, maximal_only=True) == sets(maximal)


class TestConditionalGraphEntropy:
    def test_complete_graph_exact(self):
        verts = Alphabet("u1", ("a", "b", "c"))
        peer = Alphabet("u2", ("0", "1"))
        rng = np.random.default_rng(25)
        joint = JointPMF((verts, peer), rng.dirichlet(np.ones(6)).reshape(3, 2))
        g = CharGraph(verts, frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
        from fcmac.probability import conditional_entropy
        res = conditional_graph_entropy(g, joint)
        assert res.value == pytest.approx(conditional_entropy(joint, "u1", "u2"),
                                          abs=1e-6)

    def test_edgeless_zero(self):
        verts = Alphabet("u1", ("a", "b", "c"))
        peer = Alphabet("u2", ("0", "1"))
        joint = JointPMF((verts, peer), np.full((3, 2), 1 / 6))
        g = CharGraph(verts, frozenset())
        assert conditional_graph_entropy(g, joint).value == pytest.approx(0.0,
                                                                          abs=1e-9)

    def test_ternary_in_range_with_coarse_grid_agreement(self):
        base = presets.ternary_source_joint()
        g = ternary_graph()
        res = conditional_graph_entropy(g, base)
        assert 0.0 < res.value <= 2 / 3 + 1e-9
        assert res.value <= res.upper_bound + 1e-9
        oracle = grid_conditional_graph_entropy(base, g, resolution=0.05)
        assert abs(res.value - oracle) <= 2e-3

    def test_iteration_cap_sets_warning_flag(self):
        # on the ternary preset the uniform start is already optimal (gap 0),
        # so the cap is tested on a full-support joint one update cannot solve
        mass = np.random.default_rng(26).dirichlet(np.ones(9)).reshape(3, 3) + 1 / 9
        base = JointPMF((Alphabet("u1", presets.TERNARY), Alphabet("u2", presets.TERNARY)),
                        mass / mass.sum())
        res = conditional_graph_entropy(ternary_graph(), base, max_iter=1)
        assert not res.converged
        assert res.gap > 1e-8
        # the incumbent is still certified against the coloring upper bound
        assert 0.0 <= res.value <= res.upper_bound + 1e-9

    def test_coloring_cap_checked_before_the_product(self, monkeypatch):
        def no_product(*args, **kwargs):
            raise AssertionError("or_product must not run over the colouring cap")
        monkeypatch.setattr(graphs, "or_product", no_product)
        with pytest.raises(SizeCapError, match="2187 vertices"):
            conditional_chromatic_entropy(ternary_graph(), presets.ternary_source_joint(), 7)

    def test_size_caps_raise(self):
        big = CharGraph(Alphabet("v", tuple(str(i) for i in range(13))), frozenset())
        joint = JointPMF((big.vertices, Alphabet("u2", ("0",))),
                         np.full((13, 1), 1 / 13))
        with pytest.raises(SizeCapError):
            conditional_chromatic_entropy(big, joint, 1)
        with pytest.raises(SizeCapError):
            conditional_graph_entropy(big, joint)
        with pytest.raises(SizeCapError, match="enumeration cap"):
            stable_sets(big)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
    def test_nan_and_negative_tol_refused_by_name(self, tol, monkeypatch):
        # before, these ran all max_iter steps and reported converged=False
        def no_enumeration(*args, **kwargs):
            raise AssertionError("tol must be refused before the stable sets")
        monkeypatch.setattr(graphs, "_stable_rows", no_enumeration)
        with pytest.raises(ValueError, match="^tol must be nonnegative"):
            conditional_graph_entropy(ternary_graph(), presets.ternary_source_joint(), tol=tol)

    def test_negative_max_iter_refused_by_name(self, monkeypatch):
        # before, it returned the uniform start as if max_iter were 0
        def no_enumeration(*args, **kwargs):
            raise AssertionError("max_iter must be refused before the stable sets")
        monkeypatch.setattr(graphs, "_stable_rows", no_enumeration)
        with pytest.raises(ValueError, match="^max_iter must be nonnegative"):
            conditional_graph_entropy(ternary_graph(), presets.ternary_source_joint(),
                                      max_iter=-1)

    @pytest.mark.parametrize("peers", [(), (("0", "1"), ("x", "y"))])
    def test_joint_without_two_axes_refused_before_any_work(self, peers, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the joint must be refused before the stable sets")
        monkeypatch.setattr(graphs, "_stable_rows", no_enumeration)
        verts = ternary_graph().vertices
        axes = (verts,) + tuple(Alphabet(f"p{i}", s) for i, s in enumerate(peers))
        shape = tuple(len(a) for a in axes)
        joint = JointPMF(axes, np.full(shape, 1 / np.prod(shape)))
        with pytest.raises(AxisError, match="need a two-axis joint"):
            conditional_graph_entropy(ternary_graph(), joint)

    def test_generic_oracle_path_agrees_with_solver(self):
        # full-support joint disables the factored oracle path
        rng = np.random.default_rng(26)
        mass = rng.dirichlet(np.ones(9)).reshape(3, 3) * 0.5 + np.full((3, 3), 1 / 18)
        mass /= mass.sum()
        joint = JointPMF((Alphabet("u1", presets.TERNARY),
                          Alphabet("u2", presets.TERNARY)), mass)
        g = ternary_graph()
        res = conditional_graph_entropy(g, joint)
        oracle = grid_conditional_graph_entropy(joint, g, resolution=0.05)
        assert oracle >= res.value - 1e-9
        assert abs(res.value - oracle) <= 2e-3


class TestZigzag:
    def test_ternary_distribution_fails_with_witness(self):
        # the quoted claim for this example does not hold: both cross pairs
        # of the witness sit off the support
        res = zigzag_check(presets.ternary_source_joint())
        assert not res.holds
        (x1, y1), (x2, y2) = res.witness
        base = presets.ternary_source_joint()
        i = {s: k for k, s in enumerate(presets.TERNARY)}
        assert base.mass[i[x1], i[y1]] > 0
        assert base.mass[i[x2], i[y2]] > 0
        assert base.mass[i[x1], i[y2]] == 0
        assert base.mass[i[x2], i[y1]] == 0

    def test_two_point_diagonal_fails(self):
        axes = (Alphabet("a", ("1", "2")), Alphabet("b", ("1", "2")))
        pmf = JointPMF(axes, [[0.5, 0.0], [0.0, 0.5]])
        res = zigzag_check(pmf)
        assert not res.holds
        assert set(res.witness) == {("1", "1"), ("2", "2")}

    def test_cap_refuses_before_any_work(self, monkeypatch):
        pmf = JointPMF((alph("a", 4), alph("b", 3)), np.full((4, 3), 1 / 12))
        assert 60 * 60 * 60 <= ZIGZAG_CAP
        monkeypatch.setattr(graphs, "ZIGZAG_CAP", 48)
        assert zigzag_check(pmf).holds
        monkeypatch.setattr(graphs, "ZIGZAG_CAP", 47)
        monkeypatch.setattr(graphs.np, "unique", None)   # nothing may run past the cap
        with pytest.raises(SizeCapError, match="48 multiply-adds"):
            zigzag_check(pmf)

    def test_full_support_holds(self):
        rng = np.random.default_rng(27)
        pmf = JointPMF((Alphabet("a", ("1", "2")), Alphabet("b", ("1", "2"))),
                       rng.dirichlet(np.ones(4)).reshape(2, 2) * 0.5 + 0.125)
        assert zigzag_check(pmf).holds


class TestEdgeSetView:
    """Symbol edges are a view of the adjacency matrix, built on first read."""

    def test_algorithms_never_read_the_edge_set(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the symbol edge set was read")

        monkeypatch.setattr(CharGraph, "edges", property(refuse), raising=False)
        joint = presets.ternary_source_joint()
        g = characteristic_graph(joint, presets.comparison_function())
        marginal = marginalize(joint, "u1")
        for n in range(1, 5):
            assert len(or_product(g, n).vertices) == 3 ** n
        assert conditional_chromatic_entropy(g, joint, 2) <= 2 / 3 + 1e-9
        for mode in ("exact", "greedy"):
            min_entropy_coloring(g, marginal, mode)
        assert len(stable_sets(g)) == 2
        conditional_graph_entropy(g, joint)

    def test_cached_and_frozen(self):
        g = or_product(ternary_graph(), 2)
        assert g.edges is g.edges
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.vertices = g.vertices
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = frozenset()
        assert g != or_product(ternary_graph(), 2)

    def test_threads_read_one_value(self):
        g = or_product(ternary_graph(), 5)
        want = loop_or_product_edges(ternary_graph(), 5)
        start = threading.Barrier(8)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(g.edges)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(seen) == 8
        assert all(e == want for e in seen)


def random_peer_joint(rng: np.random.Generator, vertices: tuple, peers: tuple, kind: int):
    """A random graph and a joint on its vertices and peers, their counts
    drawn from the half-open ranges given: kind 0 puts each vertex on one
    peer, kind 1 has full support, kind 2 leaves a vertex without mass and
    kind 3 a peer."""
    n = int(rng.integers(*vertices))
    g = random_graph(rng, n)
    m = int(rng.integers(*peers))
    if kind == 0:
        mass = np.zeros((n, m))
        mass[np.arange(n), rng.integers(0, m, size=n)] = rng.random(n) + 0.5
    else:
        mass = rng.random((n, m)) + 0.05
        if kind == 2 and n > 1:
            mass[rng.integers(n)] = 0.0
        elif kind == 3 and m > 1:
            mass[:, rng.integers(m)] = 0.0
    return g, JointPMF((g.vertices, alph("p", m)), mass / mass.sum())


def bench_small_instances(seed: int):
    """The 240 instances of the benchmark's graphs small ops of ``seed``,
    drawn as its workload draws them: 6-8 vertices, edge probability 0.4,
    each vertex on one of 4 peers."""
    rng = np.random.default_rng(seed)
    for n in (6, 7, 8) * 80:
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
        mass = np.zeros((n, 4))
        mass[np.arange(n), rng.integers(0, 4, size=n)] = rng.random(n) + 0.5
        rng.random((n, 4)), rng.random((n, 4))      # the workload's sparse zigzag support
        verts = alph("v", n)
        g = CharGraph(verts, [(verts.symbols[a], verts.symbols[b]) for a, b in edges])
        yield g, JointPMF((verts, alph("p", 4)), mass / mass.sum())


def cap_instance(seed: int):
    """Four disjoint triangles, 81 maximal stable sets on 12 vertices, with
    the joint rng(seed).random((12, 12)) normalised."""
    verts = alph("v", 12)
    g = CharGraph(verts, frozenset((verts.symbols[3 * t + i], verts.symbols[3 * t + j])
                                   for t in range(4) for i, j in ((0, 1), (0, 2), (1, 2))))
    mass = np.random.default_rng(seed).random((12, 12))
    return g, JointPMF((verts, alph("p", 12)), mass / mass.sum())


# sha256 of the solver's returned bits in test_conditional_graph_entropy_bits_are_pinned
PINNED_SOLVER_BITS = "690ddb3ef8dfb91791c77e4ec723fa3592181c8341ce9148bc81b3c61026cb3f"


def check_lower_bounds(g: CharGraph, joint: JointPMF, got, tol: float = 1e-8,
                       ) -> tuple[float, bool]:
    """The solver's kernel, value and lower bound against the loop oracles;
    returns the loop certificate's lower bound at the colouring's kernel q0,
    and whether it settles q0.

    ``value`` is the objective at the kernel up to 1e-12 and lies in [0,
    ``upper_bound``] exactly. Where the certificate settles q0 (its gap at
    most ``tol``), q0 is returned, converged. The lower bound value - gap is
    at least the certificate's, up to 1e-12."""
    q = got.kernel
    assert abs(got.value - loop_kernel_objective(joint, q)) <= 1e-12
    assert 0.0 <= got.value <= got.upper_bound
    assert got.converged == (got.gap <= tol)
    q0 = loop_coloring_kernel(g, joint)
    gap0 = loop_clique_certificate(g, joint, q0)
    if gap0 <= tol:
        assert got.converged
        np.testing.assert_array_equal(q, q0)
    certificate = loop_kernel_objective(joint, q0) - gap0
    assert got.value - got.gap >= certificate - 1e-12
    return certificate, gap0 <= tol


def check_certified_solver(g: CharGraph, joint: JointPMF, kwargs: dict, loop):
    """The solver's certificate against the loop reference and the frozen
    plain-step loop run to a 1e-11 gap, its kernel, value and gap against the
    loop oracles, and its gap against the two lower bounds: the larger of the
    returned kernel's Frank-Wolfe bound (-inf at a 0/1 kernel) and q0's
    certificate, up to 1e-12. Where q0 is returned after steps, the bound of
    the discarded iterate is not known here, so only the certificate's is
    held (by ``check_lower_bounds``)."""
    got = conditional_graph_entropy(g, joint, **kwargs)
    # the loop's value is the objective at a feasible kernel, at least the minimum
    assert got.value - got.gap <= loop.value + 1e-12
    if got.converged:
        ref = frozen_conditional_graph_entropy(g, joint, tol=1e-11, max_iter=10**6)
        assert ref.converged
        # both intervals [value - gap, value] hold the minimum
        assert got.value - got.gap <= ref.value + 1e-12
        assert ref.value - ref.gap <= got.value + 1e-12
    assert got.upper_bound == loop.upper_bound
    assert got.sets == loop.sets
    certificate, settled = check_lower_bounds(g, joint, got)
    assert certificate <= loop.value + 1e-12
    q = got.kernel
    if settled or not np.isin(q, (0.0, 1.0)).all():
        frank_wolfe = got.value - loop_frank_wolfe_gap(g, joint, got.sets, q)
        assert abs(got.gap - (got.value - max(frank_wolfe, certificate))) <= 1e-12

    n, m = joint.mass.shape
    assert q.shape == (n, len(got.sets))
    np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for i, v in enumerate(g.vertices):
        for j, s in enumerate(got.sets):
            if v not in s:
                assert q[i, j] == 0.0
    return got


def check_against_frozen_solver(g: CharGraph, joint: JointPMF, kwargs: dict):
    """The solver against its plain-step loop as it was before the steps were
    over-relaxed and the colouring's kernel certified. At ``max_iter=0``,
    where the certificate does not settle the colouring's kernel q0 and the
    uniform start has the smaller objective, both return that start: the
    same kernel and value bit for bit, and a gap no larger than the frozen
    one (the certificate can only raise the lower bound). Elsewhere the
    kernels differ, so the certificates are compared: the same sets and
    colouring bound, ``converged`` exactly when the gap is at most ``tol``,
    [value - gap, value] and q0's certificate meeting the frozen loop's
    interval at a 1e-11 gap up to 1e-12, and no certificate lost where the
    frozen loop certifies with the same settings. Returns the result and
    how it came back at ``max_iter=0``: "settled", "q0" or "uniform"."""
    got = conditional_graph_entropy(g, joint, **kwargs)
    want = frozen_conditional_graph_entropy(g, joint, **kwargs)
    tol = kwargs.get("tol", 1e-8)
    assert got.upper_bound == want.upper_bound
    assert got.sets == want.sets
    certificate, _ = check_lower_bounds(g, joint, got, tol)
    if kwargs.get("max_iter") == 0:
        if got.kernel.tobytes() == want.kernel.tobytes():
            assert got.value.hex() == want.value.hex()
            assert got.gap <= want.gap + 1e-15
            assert got.converged or not want.converged
            return got, "uniform"
        # q0, settled by its certificate or lower than the uniform start
        np.testing.assert_array_equal(got.kernel, loop_coloring_kernel(g, joint))
        assert got.value <= want.value
        return got, "settled" if got.converged else "q0"
    ref = frozen_conditional_graph_entropy(g, joint, tol=1e-11, max_iter=10**6)
    assert ref.converged
    # both intervals [value - gap, value] hold the minimum
    assert got.value - got.gap <= ref.value + 1e-12
    assert certificate <= ref.value + 1e-12
    assert ref.value - ref.gap <= got.value + 1e-12
    assert got.converged or not want.converged
    return got, None


class TestFastPathsAgainstLoops:
    """The matrix kernels against the pair loops they replaced."""

    def test_or_product_edges(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            base = int(rng.integers(1, 5))
            n = int(rng.integers(2, 5)) if base <= 3 else int(rng.integers(2, 4))
            g = random_graph(rng, base)
            gn = or_product(g, n)
            assert gn.vertices.symbols == tuple(itertools.product(g.vertices.symbols, repeat=n))
            assert gn.edges == loop_or_product_edges(g, n)
            assert gn.sorted_edges() == loop_sorted_edges(gn)

    def test_graph_queries_from_edge_lists(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            verts = alph("v", n)
            pairs = {(verts.symbols[a], verts.symbols[b])
                     for a in range(n) for b in range(n) if a != b and rng.random() < 0.3}
            g = CharGraph(verts, frozenset(pairs))
            normal = {(a, b) if verts.index(a) < verts.index(b) else (b, a) for a, b in pairs}
            assert g.edges == normal
            assert g.sorted_edges() == loop_sorted_edges(g)
            for a in verts:
                for b in verts:
                    assert has_edge(g, a, b) == ((a, b) in normal or (b, a) in normal)

    def test_greedy_assignment(self):
        rng = np.random.default_rng(36)
        for n in [1, 2, 300] + rng.integers(1, 301, size=20).tolist():
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
            g = CharGraph._from_adjacency(alph("v", n), upper | upper.T)
            mass = rng.integers(0, 4, size=n) / 4    # tied masses, some zero
            assert (graphs._greedy_assignment(g._adj, mass)
                    == loop_greedy_assignment(loop_adjacency_masks(g), mass))

    @pytest.mark.parametrize("peers", ["one-column", "one-peer", "full-support",
                                       "tied-eighths", "twelve-columns"])
    def test_min_entropy_partition(self, peers):
        # the bitmask branch-and-bound and the matrix one share the arithmetic
        # of every leaf value; their bounds differ only in rounding, far
        # inside the 1e-12 prune margin, so assignments and values must be
        # equal bit for bit
        rng = np.random.default_rng(37)
        for n in [12, 12] + rng.integers(1, 11, size=170).tolist():
            if peers == "twelve-columns" and n != 12:
                continue
            g = random_graph(rng, n, edge_prob=0.3 if n == 12 else None)
            if peers == "one-column":
                weights = rng.dirichlet(np.ones(n)).reshape(n, 1)
            elif peers == "one-peer":
                weights = np.zeros((n, 4))
                weights[np.arange(n), rng.integers(0, 4, size=n)] = rng.dirichlet(np.ones(n))
            elif peers == "tied-eighths":
                # exact multiples of 1/8: columns whose largest class masses
                # tie, and bounds that land exactly on the best value
                m = int(rng.integers(1, 4))
                weights = rng.multinomial(8, np.full(n * m, 1 / (n * m))).reshape(n, m) / 8
            elif peers == "twelve-columns":
                weights = rng.dirichlet(np.ones(n * 12)).reshape(n, 12)
            else:
                m = 3 if n == 12 else int(rng.integers(2, 5))
                weights = rng.dirichlet(np.ones(n * m)).reshape(n, m)
            assert (graphs._min_entropy_partition(g._adj, weights)
                    == loop_min_entropy_partition(loop_adjacency_masks(g), weights))

    def test_min_entropy_partition_on_the_bench_instances(self):
        # the marginal and the joint of each of seed 24101's bench-shaped
        # instances, bit for bit against the bitmask search
        for g, joint in bench_small_instances(24101):
            for weights in (joint.mass.sum(axis=1, keepdims=True), joint.mass):
                assign, value = graphs._min_entropy_partition(g._adj, weights)
                want, want_value = loop_min_entropy_partition(loop_adjacency_masks(g), weights)
                assert (assign, value.hex()) == (want, want_value.hex())

    def test_conditional_chromatic_entropy_of_pairs(self):
        # block length 2 on 3-vertex bases: the OR product and the iid pair
        # joint through the bitmask reference, halved
        rng = np.random.default_rng(38)
        for _ in range(40):
            g = random_graph(rng, 3)
            peers = int(rng.integers(1, 4))
            joint = random_pmf(rng, (3, peers), ("v", "p"))
            _, value = loop_min_entropy_partition(
                loop_adjacency_masks(or_product(g, 2)), iid_pair_power(joint, 2).mass)
            assert conditional_chromatic_entropy(g, joint, 2) == float(value) / 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CharGraph(alph("v", 3), frozenset({("v1", "v1")}))
        with pytest.raises(KeyError):
            CharGraph(alph("v", 3), frozenset({("v1", "x")}))

    def test_every_endpoint_looked_up_before_a_self_loop(self):
        with pytest.raises(KeyError, match="'zz' is not a symbol of alphabet 'v'"):
            CharGraph(Alphabet("v", ("a", "b")), [("a", "a"), ("b", "zz")])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1\.0$"):
            CharGraph(Alphabet("v", ("a", 1)), [("a", 1), (1.0, 1)])

    def test_zigzag_on_sparse_supports(self):
        rng = np.random.default_rng(33)
        outcomes = set()
        for _ in range(300):
            rows, cols = (int(k) for k in rng.integers(1, 9, size=2))
            keep = rng.random((rows, cols)) < rng.uniform(0.1, 0.9)
            keep[rng.integers(rows), rng.integers(cols)] = True
            if rng.random() < 0.3:
                # nested rows: a chain of supports always satisfies the condition
                keep = np.arange(cols)[None, :] <= rng.integers(0, cols, size=(rows, 1))
            mass = keep * rng.random((rows, cols)) + keep * 0.1
            pmf = JointPMF((alph("x", rows), alph("y", cols)), mass / mass.sum())
            res = zigzag_check(pmf)
            assert (res.holds, res.witness) == loop_zigzag(pmf)
            outcomes.add(res.holds)
        assert outcomes == {True, False}

    def test_zigzag_on_repeated_rows(self):
        # a few distinct rows, each at least twice and shuffled, so that the
        # violating row occurs more than once and its first occurrence counts
        rng = np.random.default_rng(2302)
        outcomes = set()
        for _ in range(300):
            distinct, cols = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            base = rng.random((distinct, cols)) < rng.uniform(0.2, 0.8)
            base[:, 0] |= ~base.any(axis=1)
            order = np.concatenate([np.arange(distinct), np.arange(distinct),
                                    rng.integers(0, distinct, size=int(rng.integers(0, 6)))])
            rng.shuffle(order)
            keep = base[order]
            mass = keep * (rng.random(keep.shape) + 0.1)
            pmf = JointPMF((alph("x", len(order)), alph("y", cols)), mass / mass.sum())
            res = zigzag_check(pmf)
            assert (res.holds, res.witness) == loop_zigzag(pmf)
            outcomes.add(res.holds)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("delta, low, high, scale", [
        (None, 0, 4, 1),
        (1, 0, 4, 1),
        (0, -3, 4, 1),                        # negative labels, every unequal pair apart
        (Fraction(1, 3), -6, 7, Fraction(1, 3)),    # labels k/3: ties at exactly delta
    ], ids=["exact", "absolute", "signed", "scaled"])
    def test_characteristic_graph(self, delta, low, high, scale):
        rng = np.random.default_rng(34)
        for _ in range(40):
            n, m = (int(k) for k in rng.integers(1, 9, size=2))
            keep = rng.random((n, m)) < rng.uniform(0.2, 1.0)
            keep[:, 0] |= ~keep.any(axis=1)
            mass = keep * rng.random((n, m))
            axes = (alph("u", n), alph("p", m))
            joint = JointPMF(axes, mass / mass.sum())
            f = FunctionTable(axes, rng.integers(low, high, size=(n, m)) * scale)
            g = characteristic_graph(joint, f, delta=delta)
            assert g.edges == loop_characteristic_edges(joint, f, delta)
            assert g.sorted_edges() == loop_sorted_edges(g)

    def test_threshold_table_on_mixed_labels(self):
        # int, float and Fraction labels and deltas, compared exactly: labels
        # k/8 hit v_j = v_i +- delta exactly at the deltas that are multiples
        # of 1/8, and 0.1 as a float is not 1/10
        rng = np.random.default_rng(3301)
        pool = ([k for k in range(-4, 5)] + [k / 8 for k in range(-8, 9)]
                + [Fraction(k, 8) for k in range(-8, 9)] + [Fraction(k, 3) for k in range(-3, 4)]
                + [0.1, Fraction(1, 10), 0.3, Fraction(3, 10), 1e16, 10**16 + 1, 5e-324])
        deltas = [0, 0.0, Fraction(1, 8), 0.25, 1, Fraction(1, 3), 1 / 3, Fraction(1, 5), 0.2,
                  10**16, math.inf]
        labels = np.empty(len(pool), dtype=object)
        labels[:] = pool
        ties = 0
        for case in range(300):
            n, m = (int(k) for k in rng.integers(1, 8, size=2))
            keep = rng.random((n, m)) < rng.uniform(0.3, 1.0)
            keep[:, 0] |= ~keep.any(axis=1)
            mass = keep * rng.random((n, m))
            axes = (alph("u", n), alph("p", m))
            joint = JointPMF(axes, mass / mass.sum())
            values = labels[rng.integers(0, len(pool), size=(n, m))]
            delta = deltas[case % len(deltas)]
            f = FunctionTable(axes, values)
            assert (characteristic_graph(joint, f, delta=delta).edges
                    == loop_characteristic_edges(joint, f, delta))
            ties += any(abs(Fraction(a) - Fraction(b)) == delta
                        for a, b in itertools.combinations(f.range_labels(), 2))
        assert ties >= 50, ties

    def test_exact_label_table_with_nan_and_mixed_labels(self):
        # exact mode reads distinct labels as confusable and a label with
        # itself only if it is unequal to itself: one NaN object is confusable
        # with itself, 1 and 1.0 are one label
        nan = float("nan")
        pool = np.array([nan, 1, 1.0, 2.0, "a", float("nan"), -0.0, 0], dtype=object)
        rng = np.random.default_rng(3002)
        for _ in range(200):
            n, m = (int(k) for k in rng.integers(1, 8, size=2))
            keep = rng.random((n, m)) < rng.uniform(0.3, 1.0)
            keep[:, 0] |= ~keep.any(axis=1)
            mass = keep * rng.random((n, m))
            axes = (alph("u", n), alph("p", m))
            joint = JointPMF(axes, mass / mass.sum())
            f = FunctionTable(axes, pool[rng.integers(0, len(pool), size=(n, m))])
            g = characteristic_graph(joint, f)
            assert g.edges == loop_characteristic_edges(joint, f)

    @staticmethod
    def _object_table(shape, label_of) -> np.ndarray:
        values = np.empty(shape, dtype=object)
        for idx in itertools.product(*(range(n) for n in shape)):
            values[idx] = label_of(idx)
        return values

    @pytest.mark.parametrize("case", ["integers", "tuples", "equal-numbers"])
    def test_function_table_codes(self, case):
        rng = np.random.default_rng(36)
        axes = (alph("a", 4), alph("b", 3), alph("c", 2))
        shape = (4, 3, 2)
        if case == "integers":
            values = rng.integers(0, 5, size=shape)
        elif case == "tuples":      # a tuple label is one cell, not an axis
            values = self._object_table(shape, lambda idx: (idx[0] % 2, "x" * idx[2]))
        else:                       # 1, 1.0 and True compare equal, so are one label
            values = self._object_table(
                shape, lambda idx: (1, 1.0, True, 2, 2.0)[(idx[0] + idx[1] + idx[2]) % 5])
        f = FunctionTable(axes, values)
        for table in (f, reordered(f, ("c", "a", "b")), reordered(f, ("b", "c", "a"))):
            labels, codes = loop_label_codes(table.values)
            assert table.range_labels() == labels
            assert [type(v) for v in table.range_labels()] == [type(v) for v in labels]
            np.testing.assert_array_equal(table._codes, codes)
            assert not table._codes.flags.writeable
        if case == "equal-numbers":
            assert f.range_labels() == (1, 2) and type(f.range_labels()[0]) is int

    @pytest.mark.parametrize("restarts", [1, 2, 16])   # of the loop reference
    @pytest.mark.parametrize("max_iter", [1, 2, 5, None])
    def test_conditional_graph_entropy(self, restarts, max_iter):
        rng = np.random.default_rng(35 + 10 * restarts + (max_iter or 0))
        kwargs = {} if max_iter is None else dict(max_iter=max_iter)
        for case in range(6):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n)
            m = int(rng.integers(1, 5))
            if case % 3 == 0:         # one peer per vertex
                mass = np.zeros((n, m))
                mass[np.arange(n), rng.integers(0, m, size=n)] = rng.random(n) + 0.5
            else:                     # full support, or one vertex without mass
                mass = rng.random((n, m)) + 0.05
                if case % 3 == 2:
                    mass[rng.integers(n)] = 0.0
            joint = JointPMF((g.vertices, alph("p", m)), mass / mass.sum())
            loop = loop_conditional_graph_entropy(g, joint, restarts=restarts, **kwargs)
            check_certified_solver(g, joint, kwargs, loop)

    def test_conditional_graph_entropy_at_the_cap(self):
        g, joint = cap_instance(5)
        # one short loop run keeps the test fast; the 1e-11 run is the tight bound
        loop = loop_conditional_graph_entropy(g, joint, restarts=1, max_iter=100)
        assert len(check_certified_solver(g, joint, {}, loop).sets) == 81

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5, None])
    def test_conditional_graph_entropy_against_the_frozen_loop(self, max_iter):
        rng = np.random.default_rng(150 + (6 if max_iter is None else max_iter))
        kwargs = {} if max_iter is None else dict(max_iter=max_iter)
        returns = set()
        for case in range(16):
            g, joint = random_peer_joint(rng, (3, 9), (2, 5), case % 4)
            returns.add(check_against_frozen_solver(g, joint, kwargs)[1])
        if max_iter == 0:
            # both the bit-identical start and the settled colouring are met
            assert {"uniform", "settled"} <= returns

    def test_conditional_graph_entropy_against_the_frozen_loop_on_bench_shapes(self):
        # 240 instances for each of three seeds, shaped like the benchmark's
        # small graph ones: 6-8 vertices, edge probability 0.4, each vertex
        # on one of 4 peers
        for seed in (2301, 2302, 2303):
            rng = np.random.default_rng(seed)
            for n in [6, 7, 8] * 80:
                g = random_graph(rng, n, edge_prob=0.4)
                mass = np.zeros((n, 4))
                mass[np.arange(n), rng.integers(0, 4, size=n)] = rng.random(n) + 0.5
                joint = JointPMF((g.vertices, alph("p", 4)), mass / mass.sum())
                check_against_frozen_solver(g, joint, {})

    def test_conditional_graph_entropy_keeps_every_frozen_certificate(self):
        # 500 random instances of 1-10 vertices and 1-5 peers, of each kind
        rng = np.random.default_rng(2401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for case in range(500):
                g, joint = random_peer_joint(rng, (1, 11), (1, 6), case % 4)
                got = conditional_graph_entropy(g, joint)
                # the solver's lower bound and the loop certificate at q0
                lower = max(got.value - got.gap, check_lower_bounds(g, joint, got)[0])
                if not got.converged:
                    want = frozen_conditional_graph_entropy(g, joint)
                    assert not want.converged
                    assert lower <= want.value + 1e-12
                    continue
                # both bounds are held against the frozen loop, run until its
                # own lower bound on the minimum proves lower <= minimum +
                # 1e-12, or else to a 1e-11 gap; any value of it is at least
                # the minimum
                want = frozen_conditional_graph_entropy(g, joint, tol=1e-11, max_iter=10**6,
                                                        lower_goal=lower - 1e-12)
                assert want.value - want.gap >= lower - 1e-12 or lower <= want.value + 1e-12

    def test_conditional_graph_entropy_against_the_frozen_loop_at_the_cap(self):
        g, joint = cap_instance(5)
        assert check_against_frozen_solver(g, joint, {})[0].converged

    def test_colouring_certificate_settles_the_bench_instances(self):
        # on about half of seed 24101's instances the minimum is at the
        # colouring's kernel, which its certificate settles after no step
        settled = sum(conditional_graph_entropy(g, joint, max_iter=0).converged
                      for g, joint in bench_small_instances(24101))
        assert settled >= 117

    def test_conditional_graph_entropy_bits_are_pinned(self):
        # sha256 over every returned bit of 240 bench-shaped instances, 100
        # random ones at four step budgets and the cap instance of seed 5; a
        # refactor of the solver must keep them all. Pinned with Python
        # 3.11 and numpy 2.4.6, as PINNED_OUTPUTS in test_cli.py is.
        calls = [(g, joint, {}) for g, joint in bench_small_instances(24101)]
        rng = np.random.default_rng(2701)
        for case in range(100):
            g, joint = random_peer_joint(rng, (1, 9), (1, 5), case % 4)
            calls += [(g, joint, dict(max_iter=k)) for k in (0, 1, 5)] + [(g, joint, {})]
        calls.append((*cap_instance(5), {}))
        digest = hashlib.sha256()
        for g, joint, kwargs in calls:
            got = conditional_graph_entropy(g, joint, **kwargs)
            digest.update(got.kernel.tobytes())
            digest.update(f"{got.value.hex()} {got.gap.hex()} {got.converged}"
                          f" {got.upper_bound.hex()};".encode())
        assert digest.hexdigest() == PINNED_SOLVER_BITS


# (call, exception type, message) of refusals no other test reaches
REFUSALS = {
    "marginal on other symbols": (
        lambda: min_entropy_coloring(ternary_graph(), JointPMF((alph("u1", 3),),
                                                               np.full(3, 1 / 3))),
        AxisError, "marginal first axis must carry the graph's vertex symbols"),
    "characteristic graph of a three-axis joint": (
        lambda: characteristic_graph(presets.ternary_with_side_info(),
                                     presets.comparison_function()),
        AxisError, "need a two-axis joint, got axes ('u1', 'u2', 'z')"),
    "characteristic graph of a one-axis function": (
        lambda: characteristic_graph(presets.ternary_source_joint(), FunctionTable.from_callable(
            (Alphabet("u1", presets.TERNARY),), lambda a: 0)),
        AxisError, "function must be defined on two axes"),
    "OR product of length 0": (
        lambda: or_product(ternary_graph(), 0), ValueError, "n must be >= 1, got 0"),
    "colouring of a two-axis marginal": (
        lambda: min_entropy_coloring(ternary_graph(), presets.ternary_source_joint()),
        AxisError, "marginal must be a single-axis pmf over the vertices"),
    "colouring in an unknown mode": (
        lambda: min_entropy_coloring(
            ternary_graph(), marginalize(presets.ternary_source_joint(), "u1"), "fast"),
        ValueError, "mode must be 'exact' or 'greedy', got 'fast'"),
    "iid power of a three-axis joint": (
        lambda: iid_pair_power(presets.ternary_with_side_info(), 2),
        AxisError, "need a two-axis joint"),
    "conditional chromatic entropy of a three-axis joint": (
        lambda: conditional_chromatic_entropy(ternary_graph(), presets.ternary_with_side_info()),
        AxisError, "need a two-axis joint"),
    "zigzag check of a three-axis joint": (
        lambda: zigzag_check(presets.ternary_with_side_info()),
        AxisError, "need a two-axis joint"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_fault(case):
    assert_refuses(*REFUSALS[case])
