import copy
import hashlib
import json
import math

import numpy as np
import pytest

from _support import (alph, entrywise_check_labels, entrywise_nested_floats, has_edge,
                      loop_graph_to_json, random_kernel, random_pmf, random_system_spec, value_at)
from fcmac import experiments, feasibility, jsonio, presets
from fcmac.channels import adder_mac
from fcmac.cli import main
from fcmac.feasibility import DistortionTable, check_feasibility
from fcmac.graphs import CharGraph, SizeCapError, characteristic_graph, min_entropy_coloring
from fcmac.probability import Alphabet, Kernel, marginalize, validate


class TestPmfRoundTrip:
    def test_ternary(self):
        base = presets.ternary_source_joint()
        back = jsonio.pmf_from_json(jsonio.pmf_to_json(base))
        assert back.axis_names == base.axis_names
        assert np.array_equal(back.mass, base.mass)
        assert back.axes[0].symbols == base.axes[0].symbols

    def test_missing_field_names_path(self):
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json({"axes": []})
        assert "$.mass" in str(err.value)

    def test_shape_mismatch_names_path(self):
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        obj["mass"] = [[0.5, 0.5], [0.0, 0.0]]
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json(obj)
        assert "mass" in str(err.value)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.alphabet_from_json({"name": "a", "symbols": ["x", "x"]}, "$.axes[0]")
        assert "$.axes[0].symbols" in str(err.value)

    def test_loaded_pmf_must_be_a_distribution(self):
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        obj["mass"][0][0] = 0.9
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json(obj)
        assert "not_normalized" in str(err.value)
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        obj["mass"][0][0] = -1 / 6
        obj["mass"][0][1] = 1 / 2
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json(obj)
        assert "negative_entry" in str(err.value)
        assert "[0, 0]" in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_names_its_path(self, bad):
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        obj["mass"][1][2] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json(json.loads(json.dumps(obj)))
        assert err.value.path == "$.mass[1][2]"
        assert "not finite" in str(err.value)


class TestKernelRoundTrip:
    def test_color_kernel(self):
        k = presets.color_kernel_single("u1", "c1")
        back = jsonio.kernel_from_json(jsonio.kernel_to_json(k))
        assert np.array_equal(back.rows, k.rows)
        assert back.from_axes[0].symbols == k.from_axes[0].symbols

    def test_invalid_rows_flagged_with_path(self):
        obj = jsonio.kernel_to_json(presets.color_kernel_single("u1", "c1"))
        obj["rows"][0] = [0.7, 0.7]
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.kernel_from_json(obj)
        assert ".rows" in str(err.value)

    def test_non_finite_rows_name_their_path(self):
        obj = jsonio.kernel_to_json(presets.color_kernel_single("u1", "c1"))
        obj["rows"][2][1] = float("nan")
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.kernel_from_json(obj, "$.w1_kernel")
        assert err.value.path == "$.w1_kernel.rows[2][1]"


class TestGraphRoundTrip:
    def test_ternary_graph(self):
        g = characteristic_graph(presets.ternary_source_joint(),
                                 presets.comparison_function())
        obj = jsonio.graph_to_json(g)
        assert obj == {"vertices": ["1", "2", "3"], "edges": [["1", "3"]]}
        back = jsonio.graph_from_json(obj)
        assert back.sorted_edges() == [("1", "3")]

    @pytest.mark.parametrize("labels", [
        [f"s{i}" for i in range(9)],
        list(range(9)),
        [0.5 * i for i in range(9)],
        [(i, f"t{i}") for i in range(9)],
        ["a", 1, 2.5, (0, "b"), ("c",), 3, "d", 4.25, (1, 2)],
    ], ids=["str", "int", "float", "tuple", "mixed"])
    def test_output_bytes_match_the_per_edge_emitter(self, labels):
        rng = np.random.default_rng(1417)
        for _ in range(20):
            n = int(rng.integers(1, len(labels) + 1))
            adj = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
            g = CharGraph._from_adjacency(Alphabet("v", labels[:n]), adj | adj.T)
            fast = json.dumps(jsonio.graph_to_json(g), indent=2, sort_keys=True)
            assert fast == json.dumps(loop_graph_to_json(g), indent=2, sort_keys=True)

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.graph_from_json({"vertices": ["a"], "edges": [["a", "b"]]})
        assert "edges[0]" in str(err.value)

    def test_unhashable_endpoint_names_its_edge(self):
        with pytest.raises(jsonio.SpecFormatError, match=r"^\$\.edges\[1\]: unknown vertex"):
            jsonio.graph_from_json({"vertices": ["a", "b"], "edges": [["a", "b"], ["a", ["b"]]]})

    @pytest.mark.parametrize("edges,message", [
        ("x", "$.edges: expected an array, got str"),
        ([["a", "b"], "ab"], "$.edges[1]: expected an array, got str"),
        ([["a", "b"], ["a"]], "$.edges[1]: an edge is a two-element array"),
        ([["a", "b", "c"]], "$.edges[0]: an edge is a two-element array"),
        ([["a", "z"]], "$.edges[0]: unknown vertex 'z'"),
        ([["y", "z"]], "$.edges[0]: unknown vertex 'y'"),
        ([["a", {"b": 1}]], "$.edges[0]: unknown vertex {'b': 1}"),
        ([["a", None]], "$.edges[0]: unknown vertex None"),
        # every edge is checked before any self-loop is
        ([["a", "a"], ["b", "z"]], "$.edges[1]: unknown vertex 'z'"),
        ([["a", "b"], ["c", "c"]], "$.edges: self-loop at vertex 'c'"),
        ([[1.0, 1]], "$.edges: self-loop at vertex 1.0"),
    ])
    def test_edge_errors_name_their_path(self, edges, message):
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.graph_from_json({"vertices": ["a", "b", "c", 1, 2.5], "edges": edges})
        assert str(err.value) == message

    def test_edges_equal_as_labels_are_one_edge(self):
        g = jsonio.graph_from_json({"vertices": ["a", "b", 1],
                                    "edges": [["a", "b"], ["b", "a"], [1.0, "a"]]})
        assert g.sorted_edges() == [("a", "b"), ("a", 1)]

    def test_vertex_cap(self):
        cap = jsonio.GRAPH_FILE_VERTEX_CAP
        g = jsonio.graph_from_json({"vertices": list(range(cap)), "edges": [[0, cap - 1]]})
        assert len(g.vertices) == cap and has_edge(g, cap - 1, 0)
        with pytest.raises(SizeCapError, match=rf"^\$\.vertices: {cap + 1} vertices exceeds"):
            jsonio.graph_from_json({"vertices": list(range(cap + 1)), "edges": []})

    def test_self_loop_rejected(self):
        with pytest.raises(jsonio.SpecFormatError):
            jsonio.graph_from_json({"vertices": ["a", "b"], "edges": [["a", "a"]]})

    def test_reader_and_constructor_build_the_same_graph(self):
        # the reader builds through the constructor; duplicates and reversed
        # pairs are one edge in both
        rng = np.random.default_rng(2502)
        for _ in range(60):
            n = int(rng.integers(2, 12))
            verts = alph("v", n)
            ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n)), 2))
            pairs = [(verts.symbols[a], verts.symbols[b]) for a, b in ends if a != b]
            pairs += [(b, a) for a, b in pairs[::3]] + pairs[::2]
            rng.shuffle(pairs)
            built = CharGraph(verts, pairs)
            read = jsonio.graph_from_json({"name": "v", "vertices": list(verts.symbols),
                                           "edges": [list(p) for p in pairs]})
            assert read.vertices.symbols == built.vertices.symbols
            assert read.sorted_edges() == built.sorted_edges()
            assert set(built.sorted_edges()) == {
                (a, b) if verts.index(a) < verts.index(b) else (b, a) for a, b in pairs}

    def test_coloring_serialization(self):
        g = characteristic_graph(presets.ternary_source_joint(),
                                 presets.comparison_function())
        coloring, _ = min_entropy_coloring(
            g, marginalize(presets.ternary_source_joint(), "u1"), "exact")
        assert jsonio.coloring_to_json(coloring) == {"1": "0", "2": "0", "3": "1"}


class TestFunctionTableRoundTrip:
    def test_comparison_table(self):
        f = presets.comparison_function()
        back = jsonio.function_table_from_json(jsonio.function_table_to_json(f))
        assert value_at(back, "3", "1") == 1
        assert value_at(back, "1", "3") == 0

    def test_fraction_labels_become_strings(self):
        f = presets.grid_cell_function()
        obj = jsonio.function_table_to_json(f)
        assert obj["values"][0][1] == "1/3"
        back = jsonio.function_table_from_json(obj)
        assert value_at(back, "1", "2") == "1/3"

    def test_ragged_values_rejected(self):
        obj = jsonio.function_table_to_json(presets.comparison_function())
        obj["values"] = [[0, 1], [1]]
        with pytest.raises(jsonio.SpecFormatError):
            jsonio.function_table_from_json(obj)


class TestSystemSpecRoundTrip:
    @pytest.mark.parametrize("code", ["joint", "independent"])
    def test_ternary_system(self, code):
        spec = presets.section5_system(code)
        back = jsonio.system_spec_from_json(jsonio.system_spec_to_json(spec))
        a = check_feasibility(spec)
        b = check_feasibility(back)
        for ra, rb in zip(a.inequalities, b.inequalities):
            assert ra.lhs_bits == pytest.approx(rb.lhs_bits, abs=1e-12)
            assert ra.verdict == rb.verdict
        assert a.achieved_distortion == pytest.approx(b.achieved_distortion, abs=1e-12)

    def test_grid_system_round_trip(self):
        spec = presets.grid_system()
        back = jsonio.system_spec_from_json(jsonio.system_spec_to_json(spec))
        report = check_feasibility(back)
        assert report.record("sum").verdict == "boundary"
        assert report.achieved_distortion == pytest.approx(0.0, abs=1e-15)

    def test_exact_field_names(self):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        assert set(obj) == {"source_joint", "w1_kernel", "w2_kernel", "x1_kernel",
                            "x2_kernel", "channel", "function", "decoder",
                            "distortion", "target_d"}

    def test_missing_field_path(self):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        del obj["w2_kernel"]
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert "$.w2_kernel" in str(err.value)

    def test_chain_violation_reported(self):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        obj["x1_kernel"]["from_axes"][0]["symbols"] = ["9", "8"]
        with pytest.raises(jsonio.SpecFormatError):
            jsonio.system_spec_from_json(obj)

    def test_read_arrays_are_the_written_bytes_and_read_only(self):
        # the readers hand the arrays they build to the constructors uncopied
        rng = np.random.default_rng(3001)
        for _ in range(200):
            spec = random_system_spec(rng)
            back = jsonio.system_spec_from_json(
                json.loads(jsonio.json_text(jsonio.system_spec_to_json(spec))))
            pairs = [(spec.source_joint.mass, back.source_joint.mass),
                     (spec.channel.law.rows, back.channel.law.rows),
                     (spec.distortion.values, back.distortion.values)]
            pairs += [(getattr(spec, k).rows, getattr(back, k).rows)
                      for k in ("w1_kernel", "w2_kernel", "x1_kernel", "x2_kernel")]
            for want, got in pairs:
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    @pytest.mark.parametrize("field,where", [
        ("target_d", "$.target_d"),
        ("distortion", "$.distortion.values[0][1]"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_numbers_name_their_path(self, field, where, bad):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        if field == "target_d":
            obj["target_d"] = bad
        else:
            obj["distortion"]["values"][0][1] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert err.value.path == where


# sha256 of each bundled system's spec JSON (sorted keys); the shared preset
# builder must leave every byte of them unchanged
PINNED_PRESET_SPECS = {
    ("section5", "joint"): "665f23b8a5e32bb004462731d90e9e62cfa83483a25c4ac6124f33a661d56059",
    ("section5", "independent"):
        "5333e66f4220449a009376de2cafea31ddbed238c1dee9155815267c6c827ace",
    ("grid", None): "9fd863a170b1da622da6591b33118834ce1c050690af6df3579275810983cd42",
}


def _spec_sha256(spec) -> str:
    text = json.dumps(jsonio.system_spec_to_json(spec), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("system,code", list(PINNED_PRESET_SPECS))
def test_preset_specs_pinned(system, code):
    spec = presets.section5_system(code) if system == "section5" else presets.grid_system()
    assert _spec_sha256(spec) == PINNED_PRESET_SPECS[system, code]


@pytest.mark.parametrize("experiment,overrides,pins", [
    ("section5", {}, [("section5", "joint"), ("section5", "independent")]),
    ("uniform-grid", {"samples": 10_000}, [("grid", None)]),
])
def test_experiment_systems_pinned(experiment, overrides, pins, monkeypatch):
    """The systems an experiment checks are the pinned presets, the ones it
    builds from shared parts or derives from another included. Every check
    ends in the channel half, which ``section5`` runs for both codes on one
    shared source half."""
    checked = []
    channel_half = feasibility._channel_half

    def record(spec, source):
        checked.append(spec)
        return channel_half(spec, source)

    monkeypatch.setattr(feasibility, "_channel_half", record)
    assert experiments.run_experiment(experiment, **overrides).passed
    assert [_spec_sha256(spec) for spec in checked] == [PINNED_PRESET_SPECS[p] for p in pins]


class TestMacJson:
    def test_adder_round_trip(self):
        mac = adder_mac()
        back = jsonio.mac_from_json(jsonio.mac_to_json(mac))
        assert np.array_equal(back.law.rows, mac.law.rows)
        assert back.output_alphabet.symbols == ("0", "1", "2")

    def test_wrong_arity(self):
        obj = jsonio.kernel_to_json(presets.color_kernel_single("u1", "c1"))
        with pytest.raises(jsonio.SpecFormatError):
            jsonio.mac_from_json(obj)


class TestFiles:
    def test_load_missing_file(self):
        with pytest.raises(jsonio.SpecFormatError):
            jsonio.load_json("/nonexistent/never.json")

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "pmf.json"
        jsonio.dump_json(jsonio.pmf_to_json(presets.ternary_source_joint()), str(path))
        data = jsonio.load_json(str(path))
        assert jsonio.pmf_from_json(data).mass.sum() == pytest.approx(1.0)
        raw = json.loads(path.read_text())
        assert raw["axes"][0]["name"] == "u1"


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _json_leaves(obj, path="$"):
    """(path, container, key) of every scalar in a parsed JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        where = f"{path}.{key}" if isinstance(obj, dict) else f"{path}[{key}]"
        if isinstance(value, (dict, list)):
            yield from _json_leaves(value, where)
        else:
            yield where, obj, key


def _index_path(idx) -> str:
    return "".join(f"[{i}]" for i in idx)


class TestNonFiniteInjection:
    """NaN or +-Inf at a random index of a random object is refused at that
    index; no constructor or reader hands back a value."""

    def test_pmf(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            pmf = random_pmf(rng, rng.integers(1, 5, size=int(rng.integers(1, 4))))
            idx = tuple(int(rng.integers(k)) for k in pmf.mass.shape)
            bad = NON_FINITE[int(rng.integers(3))]
            mass = pmf.mass.copy()
            mass[idx] = bad
            report = validate(type(pmf)(pmf.axes, mass))
            assert not report.ok
            assert report.problems[0].kind == "non_finite_entry"
            assert report.problems[0].index == idx
            obj = json.loads(json.dumps(dict(jsonio.pmf_to_json(pmf), mass=mass.tolist())))
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.pmf_from_json(obj)
            assert err.value.path == "$.mass" + _index_path(idx)

    def test_kernel(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            sizes = rng.integers(1, 4, size=3)
            k = random_kernel(rng, (alph("a", sizes[0]), alph("b", sizes[1])),
                              (alph("c", sizes[2]),))
            idx = tuple(int(rng.integers(n)) for n in k.rows.shape)
            rows = k.rows.copy()
            rows[idx] = NON_FINITE[int(rng.integers(3))]
            with pytest.raises(ValueError, match="not finite"):
                Kernel(k.from_axes, k.to_axes, rows)
            obj = json.loads(json.dumps(dict(jsonio.kernel_to_json(k), rows=rows.tolist())))
            for reader in (jsonio.kernel_from_json, jsonio.mac_from_json):
                with pytest.raises(jsonio.SpecFormatError) as err:
                    reader(obj)
                assert err.value.path == "$.rows" + _index_path(idx)

    def test_distortion_table(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            labels = tuple(f"g{i}" for i in range(n))
            values = rng.uniform(0.2, 1.0, size=(n, n))
            np.fill_diagonal(values, 0.0)
            idx = tuple(int(i) for i in rng.integers(n, size=2))
            values[idx] = NON_FINITE[int(rng.integers(3))]
            with pytest.raises(ValueError, match="not finite"):
                DistortionTable(labels, labels, values)
            obj = json.loads(json.dumps({"function_range": list(labels),
                                         "decoder_range": list(labels),
                                         "values": values.tolist()}))
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.distortion_from_json(obj)
            assert err.value.path == "$.values" + _index_path(idx)

    def test_system_spec_file(self, tmp_path, capsys):
        # every scalar of the document is a candidate: masses, kernel rows,
        # distortion values, target_d, and the labels and names in between
        rng = np.random.default_rng(44)
        for trial in range(40):
            obj = jsonio.system_spec_to_json(random_system_spec(rng))
            leaves = list(_json_leaves(obj))
            where, container, key = leaves[int(rng.integers(len(leaves)))]
            container[key] = NON_FINITE[int(rng.integers(3))]
            text = json.dumps(obj)
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.system_spec_from_json(json.loads(text))
            assert err.value.path == where
            spec = tmp_path / f"spec{trial}.json"
            spec.write_text(text)
            assert main(["check", "theorem1", "--spec", str(spec)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {where}: "), captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("bad, message", [
        (True, "labels must be strings or numbers"),
        (None, "labels must be strings or numbers"),
        (["g0"], "labels must be strings or numbers"),
        (float("nan"), "label nan is not finite"),
        (float("-inf"), "label -inf is not finite"),
    ])
    def test_bad_decoder_label_names_its_cell(self, bad, message):
        sizes = dict.fromkeys(("u1", "u2", "w1", "w2", "z", "x1", "x2", "y"), 2)
        sizes.update(z1=1, z2=1)
        obj = jsonio.system_spec_to_json(random_system_spec(np.random.default_rng(3), sizes))
        values = obj["decoder"]["values"]
        values[1][0][1] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert str(err.value) == f"$.decoder.values[1][0][1]: {message}"
        # of two bad cells, the first in C order is named
        values[1][1][0] = float("inf")
        values[0][1][1] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert str(err.value) == f"$.decoder.values[0][1][1]: {message}"

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_label_names_its_path(self, bad):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        obj["function"]["values"][0][1] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert err.value.path == "$.function.values[0][1]"
        obj = {"vertices": ["a", bad], "edges": []}
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.graph_from_json(obj)
        assert err.value.path == "$.vertices[1]"
        obj = {"name": bad, "vertices": ["a", "b"], "edges": []}
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.graph_from_json(obj)
        assert err.value.path == "$.name"


# the numeric arrays of a system file; every other scalar is a label or a name
_NUMERIC_ARRAYS = (".mass", ".rows", ".distortion.values")


class TestNonNumbersInNumericArrays:
    """A boolean, string or null among the numbers of a numeric array is
    refused at its index; a float conversion would read true as 1.0 and
    "0.5" as 0.5."""

    @pytest.mark.parametrize("bad", [True, False, "0.5", "1", None])
    def test_system_spec_file(self, bad):
        rng = np.random.default_rng(45)
        for _ in range(40):
            obj = jsonio.system_spec_to_json(random_system_spec(rng))
            leaves = [leaf for leaf in _json_leaves(obj)
                      if any(part + "[" in leaf[0] for part in _NUMERIC_ARRAYS)]
            where, container, key = leaves[int(rng.integers(len(leaves)))]
            container[key] = bad
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.system_spec_from_json(json.loads(json.dumps(obj)))
            assert str(err.value) == f"{where}: expected a number, got {type(bad).__name__}"

    def test_whole_kernel_of_booleans_or_strings(self):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        rows = obj["x1_kernel"]["rows"]
        for cast in (bool, lambda v: str(int(v))):
            obj["x1_kernel"]["rows"] = [[cast(v) for v in row] for row in rows]
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.system_spec_from_json(obj)
            assert err.value.path == "$.x1_kernel.rows[0][0]"

    def test_first_offender_in_c_order_is_named(self):
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        obj["mass"][2][0] = True
        obj["mass"][1][2] = "x"
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.pmf_from_json(obj)
        assert str(err.value) == "$.mass[1][2]: expected a number, got str"

    def test_integers_are_numbers(self):
        obj = jsonio.distortion_to_json(presets.section5_system("joint").distortion)
        obj["values"] = [[int(v) for v in row] for row in obj["values"]]
        table = jsonio.distortion_from_json(obj)
        assert table.values.dtype == float

    def test_ragged_and_shape_messages_unchanged(self):
        obj = jsonio.pmf_to_json(presets.ternary_source_joint())
        for mass, message in (([[0.5, 0.5], [0.0]], "expected nested numeric arrays"),
                              ([[0.5, [0.5]], [0.0, 0.0]], "expected nested numeric arrays"),
                              ("abc", "expected nested numeric arrays"),
                              ([[0.5, 0.5]], "shape (1, 2) does not match axes (3, 3)")):
            with pytest.raises(jsonio.SpecFormatError) as err:
                jsonio.pmf_from_json(dict(obj, mass=mass))
            assert str(err.value) == f"$.mass: {message}"

    def test_integer_past_the_float_range(self):
        obj = jsonio.kernel_to_json(presets.color_kernel_single("u1", "c1"))
        obj["rows"][0][0] = 10 ** 400
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.kernel_from_json(obj)
        assert str(err.value) == "$.rows: an integer is too large for a float"


# JSON values that are not finite numbers, or numbers at the edges of the
# float conversion
_ODD_ENTRIES = (True, False, "0.5", None, {}, [], math.nan, math.inf, -math.inf,
                10 ** 400, -(10 ** 400), 2 ** 70, 2 ** 53 + 1, 0, -0.0, 1e-320)


def _mutated(rng, table):
    """``table`` (nested lists) after one or two random edits: an odd entry, a
    ragged row, a missing or extra level of nesting, or an empty list."""
    table = copy.deepcopy(table)
    for _ in range(int(rng.integers(1, 3))):
        # the path to a random entry, stopped at a random depth
        parent, key, node = None, None, table
        while isinstance(node, list) and node and rng.random() < 0.8:
            parent, key = node, int(rng.integers(len(node)))
            node = node[key]
        kind = int(rng.integers(6))
        if kind == 0:
            new = _ODD_ENTRIES[int(rng.integers(len(_ODD_ENTRIES)))]
        elif kind == 1 and isinstance(node, list) and node:      # ragged
            new = node[:-1] if rng.random() < 0.5 else node + node[:1]
        elif kind == 2 and isinstance(node, list) and node:      # a level missing
            new = node[0]
        elif kind == 3:                                          # a level too many
            new = [node]
        elif kind == 4:
            new = []
        else:
            continue
        if parent is None:
            table = new
        else:
            parent[key] = new
    return table


def _outcome(read, *args):
    """What one reader makes of its input: the array's bytes and shape, or the
    refusal's path and message."""
    try:
        arr = read(*args)
    except jsonio.SpecFormatError as exc:
        return ("refused", exc.path, str(exc))
    return None if arr is None else ("read", arr.dtype.str, arr.shape, arr.tobytes())


class TestOnePassReaders:
    """The one-pass readers against the entry-by-entry readers they replace."""

    def test_nested_floats_agree_on_mutated_tables(self, monkeypatch):
        rng = np.random.default_rng(2101)
        accepted = 0
        # the entry-by-entry read behind the one pass names faults; it returns
        # only a non-finite number for a table of no axes
        diagnose, returned = jsonio._entrywise_floats, []

        def recording(*args):
            returned.append(diagnose(*args))
            return returned[-1]

        monkeypatch.setattr(jsonio, "_entrywise_floats", recording)
        for _ in range(3000):
            shape = tuple(int(n) for n in rng.integers(1, 4, size=rng.integers(0, 5)))
            table = rng.random(shape).tolist()
            if rng.random() < 0.3 and shape:
                table = rng.integers(-5, 5, size=shape).tolist()
            if rng.random() < 0.8:
                table = _mutated(rng, table)
            fast = _outcome(jsonio._nested_floats, copy.deepcopy(table), shape, "$.t")
            assert fast == _outcome(entrywise_nested_floats, table, shape, "$.t"), table
            accepted += fast[0] == "read"
        assert 600 < accepted < 2400        # both outcomes are well covered
        assert returned and all(a.shape == () and not np.isfinite(a) for a in returned)

    def test_labels_agree_on_mutated_lists(self):
        rng = np.random.default_rng(2102)
        plain = ("a", "b", "", 0, 7, -3, 0.5, -2.25, 1e300, 10 ** 400)
        accepted = 0
        for _ in range(3000):
            values = [plain[i] for i in rng.integers(len(plain), size=rng.integers(1, 9))]
            for _ in range(int(rng.integers(0, 3))):
                values[int(rng.integers(len(values)))] = \
                    _ODD_ENTRIES[int(rng.integers(len(_ODD_ENTRIES)))]
            fast = _outcome(jsonio._check_labels, values, lambda i: f"$.v[{i}]")
            assert fast == _outcome(entrywise_check_labels, values, lambda i: f"$.v[{i}]")
            accepted += fast is None
        assert 600 < accepted < 2400


class TestTargetDistortion:
    @pytest.mark.parametrize("bad", [-0.5, -1, pytest.param(10 ** 400, id="10**400"),
                                     float("nan"), True, "0.1", None])
    def test_refused_at_its_field(self, bad):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        obj["target_d"] = bad
        with pytest.raises(jsonio.SpecFormatError) as err:
            jsonio.system_spec_from_json(obj)
        assert str(err.value) == "$.target_d: target distortion must be finite and nonnegative"

    @pytest.mark.parametrize("good", [0, 0.0, 1, 0.25])
    def test_accepted(self, good):
        obj = jsonio.system_spec_to_json(presets.section5_system("joint"))
        obj["target_d"] = good
        assert jsonio.system_spec_from_json(obj).target_d == float(good)


def test_json_text_is_the_file_layout(tmp_path):
    obj = {"b": [1, 2.5, None], "a": {"y": True, "x": "s"}}
    path = tmp_path / "out.json"
    jsonio.dump_json(obj, str(path))
    assert path.read_text(encoding="utf-8") == jsonio.json_text(obj)
    assert jsonio.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
