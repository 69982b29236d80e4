import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fcmac
from fcmac import experiments, feasibility, graphs, jsonio, presets, schemes
from fcmac.channels import DiscreteMAC, adder_mac
from fcmac.cli import build_parser, main
from fcmac.feasibility import DistortionTable, SystemSpec
from fcmac.graphs import FunctionTable
from fcmac.probability import Alphabet, JointPMF, Kernel, marginalize


@pytest.fixture()
def spec_files(tmp_path):
    paths = {}
    paths["joint_spec"] = tmp_path / "joint.json"
    jsonio.dump_json(jsonio.system_spec_to_json(presets.section5_system("joint")),
                     str(paths["joint_spec"]))
    paths["indep_spec"] = tmp_path / "independent.json"
    jsonio.dump_json(jsonio.system_spec_to_json(presets.section5_system("independent")),
                     str(paths["indep_spec"]))
    paths["pmf"] = tmp_path / "pmf.json"
    jsonio.dump_json(jsonio.pmf_to_json(presets.ternary_source_joint()),
                     str(paths["pmf"]))
    paths["marginal"] = tmp_path / "marginal.json"
    jsonio.dump_json(jsonio.pmf_to_json(marginalize(presets.ternary_source_joint(), "u1")),
                     str(paths["marginal"]))
    paths["function"] = tmp_path / "function.json"
    jsonio.dump_json(jsonio.function_table_to_json(presets.comparison_function()),
                     str(paths["function"]))
    paths["grid_function"] = tmp_path / "grid_function.json"
    jsonio.dump_json(jsonio.function_table_to_json(presets.grid_cell_function()),
                     str(paths["grid_function"]))
    paths["mac"] = tmp_path / "mac.json"
    jsonio.dump_json(jsonio.mac_to_json(adder_mac()), str(paths["mac"]))
    return paths


class TestCheckCommand:
    def test_boundary_example_passes_with_flag(self, spec_files):
        assert main(["check", "theorem1", "--spec", str(spec_files["joint_spec"]),
                     "--allow-boundary"]) == 0

    def test_boundary_example_fails_strict(self, spec_files):
        assert main(["check", "theorem1", "--spec", str(spec_files["joint_spec"])]) == 1

    def test_independent_code_infeasible(self, spec_files):
        assert main(["check", "theorem1", "--spec", str(spec_files["indep_spec"]),
                     "--allow-boundary"]) == 1

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"oops": ')
        assert main(["check", "theorem1", "--spec", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, spec_files, capsys):
        obj = jsonio.load_json(str(spec_files["joint_spec"]))
        del obj["decoder"]
        broken = tmp_path / "broken.json"
        jsonio.dump_json(obj, str(broken))
        assert main(["check", "theorem1", "--spec", str(broken)]) == 2
        assert "$.decoder" in capsys.readouterr().err

    def test_nan_source_mass_exits_2(self, tmp_path, spec_files, capsys):
        obj = jsonio.load_json(str(spec_files["joint_spec"]))
        obj["source_joint"]["mass"][0][1][0][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))   # Python's json writes the NaN token
        out = tmp_path / "report.json"
        assert main(["check", "theorem1", "--spec", str(bad), "--format", "json",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "$.source_joint.mass[0][1][0][0][0]" in err
        assert "not finite" in err
        assert not out.exists()

    def test_infinite_target_exits_2(self, tmp_path, spec_files, capsys):
        obj = jsonio.load_json(str(spec_files["joint_spec"]))
        obj["target_d"] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(obj))
        assert main(["check", "theorem1", "--spec", str(bad)]) == 2
        assert "$.target_d" in capsys.readouterr().err

    def test_repeated_distortion_label_exits_2(self, tmp_path, spec_files, capsys):
        obj = jsonio.load_json(str(spec_files["joint_spec"]))
        # a third row equal to the second keeps d = 0 iff the labels are equal
        obj["distortion"]["function_range"] = [0, 1, 1]
        obj["distortion"]["values"].append([1.0, 0.0])
        bad = tmp_path / "repeated.json"
        jsonio.dump_json(obj, str(bad))
        assert main(["check", "theorem1", "--spec", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: $.distortion.function_range: alphabet 'function_range' has duplicate")

    def test_cell_cap_exits_2(self, spec_files, monkeypatch, capsys):
        monkeypatch.setattr(feasibility, "FEASIBILITY_CELL_CAP", 10)
        assert main(["check", "theorem1", "--spec", str(spec_files["joint_spec"])]) == 2
        assert "over the feasibility cap of 10" in capsys.readouterr().err

    def test_json_format_output(self, spec_files, capsys):
        main(["check", "theorem1", "--spec", str(spec_files["joint_spec"]),
              "--allow-boundary", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in payload["inequalities"]]
        assert names == ["encoder1", "encoder2", "sum"]
        assert payload["distortion_ok"] is True

    def test_csv_format_output(self, spec_files, capsys):
        main(["check", "theorem1", "--spec", str(spec_files["joint_spec"]),
              "--allow-boundary", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "record,lhs_bits,rhs_bits,margin_bits,verdict"
        assert len(lines) == 5


class TestExperimentCommand:
    def test_section5_passes(self, capsys):
        assert main(["experiment", "section5"]) == 0
        out = capsys.readouterr().out
        for needle in ("1.5", "1.584962501", "2.584962501", "0.9182958341",
                       "1.836591668", "1.333333333"):
            assert needle in out
        assert "RESULT: PASS" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["experiment", "nonesuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_override_exits_2(self, capsys):
        assert main(["experiment", "section5", "--rho", "0.5"]) == 2
        assert "override" in capsys.readouterr().err

    def test_every_unsupported_override_named(self, capsys):
        assert main(["experiment", "gauss-binary", "--steps", "4",
                     "--samples", "10000"]) == 2
        assert capsys.readouterr().err == (
            "error: unsupported override for gauss-binary: steps, samples;"
            " it accepts rho, power, rho_x\n")

    def test_over_cap_cells_refused_before_the_pmf(self, capsys, monkeypatch):
        def no_pmf(*args, **kwargs):
            raise AssertionError("the cell pmf must not be built")

        monkeypatch.setattr(schemes, "offdiagonal_cell_pmf", no_pmf)
        monkeypatch.setattr(presets, "offdiagonal_cell_pmf", no_pmf)
        monkeypatch.setattr(experiments, "offdiagonal_cell_pmf", no_pmf)
        with pytest.raises(ValueError, match="^unsupported override for uniform-grid: cells;"):
            experiments.run_experiment("uniform-grid", cells=100000)
        with pytest.raises(SystemExit) as exit_info:      # --cells is not an option
            main(["experiment", "uniform-grid", "--cells", "100000"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cells 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, flag, value", [
        ("gauss-diff", "--steps", experiments.MAX_STEPS + 1),
        ("gauss-diff", "--samples", experiments.MAX_SAMPLES + 1),
        ("uniform-grid", "--samples", experiments.MAX_SAMPLES + 1),
    ])
    def test_over_cap_steps_and_samples_refused_before_any_work(
            self, experiment, flag, value, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("an over-cap run must not start")

        # the sweep's two curves and both Monte Carlo samplers
        for name in ("centralized_bound", "af_distortion", "monte_carlo_af",
                     "monte_carlo_grid_distortion"):
            monkeypatch.setattr(experiments, name, no_run)
        assert main(["experiment", experiment, flag, str(value)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be between ")

    def test_gauss_binary_values(self, capsys):
        assert main(["experiment", "gauss-binary", "--rho", "0.75",
                     "--power", "5"]) == 0
        out = capsys.readouterr().out
        assert "1.778104478" in out
        assert "1.729715809" in out
        assert "1.903677461" in out

    def test_gauss_diff_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code = main(["experiment", "gauss-diff", "--rho", "0.5", "--power-min", "0.5",
                     "--power-max", "20", "--steps", "40", "--samples", "20000",
                     "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "param,scheme,rate_bits,capacity_bits,margin_bits,distortion,ci_halfwidth"
        # 40 centralized rows + 40 AF rows + one Monte Carlo row
        assert len(lines) == 82
        assert sum(1 for ln in lines if ",centralized," in ln) == 40

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["experiment", "gauss-diff", "--steps", "7", "--samples", "20000",
                "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_default(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("FCMAC_SEED", "1234")
        main(["experiment", "gauss-diff", "--steps", "5", "--samples", "20000",
              "--out", str(a)])
        monkeypatch.delenv("FCMAC_SEED")
        main(["experiment", "gauss-diff", "--steps", "5", "--samples", "20000",
              "--seed", "1234", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_cached_parser_keeps_no_state_between_calls(self, spec_files, monkeypatch,
                                                         capsys):
        parser = build_parser()
        assert build_parser() is parser
        parsed = []

        def recording_parse(argv):
            parsed.append(type(parser).parse_args(parser, argv))
            return parsed[-1]
        monkeypatch.setattr(parser, "parse_args", recording_parse)
        monkeypatch.delenv("FCMAC_SEED", raising=False)
        with pytest.raises(SystemExit) as err:
            main(["check", "theorem1"])     # missing --spec
        assert err.value.code == 2
        assert main(["check", "theorem1", "--spec", str(spec_files["joint_spec"]),
                     "--allow-boundary"]) == 0
        assert main(["experiment", "section5"]) == 0
        monkeypatch.setenv("FCMAC_SEED", "4321")
        assert main(["experiment", "section5"]) == 0
        check, first, second = parsed
        assert check.spec == str(spec_files["joint_spec"]) and check.allow_boundary
        assert not hasattr(first, "spec") and not hasattr(first, "allow_boundary")
        assert (first.seed, second.seed) == (schemes.DEFAULT_SEED, 4321)
        assert first is not second

    def test_bad_seed_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("FCMAC_SEED", "abc")
        assert main(["experiment", "gauss-binary"]) == 2
        assert "FCMAC_SEED must be an integer, got 'abc'" in capsys.readouterr().err

    def test_bad_seed_env_process_exit_code(self):
        src = str(Path(fcmac.__file__).resolve().parent.parent)
        env = dict(os.environ, FCMAC_SEED="abc",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "fcmac.cli", "experiment", "gauss-binary"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "FCMAC_SEED" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_json_output(self, tmp_path):
        out_path = tmp_path / "res.json"
        assert main(["experiment", "uniform-grid", "--samples", "20000",
                     "--format", "json", "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["experiment"] == "uniform-grid"
        labels = {r["label"] for r in payload["rows"]}
        assert "distortion_closed_form" in labels
        assert {s["scheme"] for s in payload["schemes"]} == {"1", "2", "3"}


# sha256 of `fcmac experiment <id> [settings] --format <fmt> --out <file>` with
# FCMAC_SEED unset: the CSV file, the JSON file, and the report printed to
# stdout (the same for both formats); refactors must keep all three
# byte-identical.
PINNED_OUTPUTS = {
    ("section5", ()): (
        "71ed4b1909971170e7c25e1e6b4aa62c5165f571df1a47d747d94544d4941a78",
        "e4a7769b39aad505d3f2088c2eae961f4743eb172a42203c5925feac86b66c0f",
        "2e84cf21c9be3764122c67e1e1c2293f1cca51a0af05207c73a6dec13e6b938b"),
    ("section5", ("--seed", "7")): (
        "71ed4b1909971170e7c25e1e6b4aa62c5165f571df1a47d747d94544d4941a78",
        "e4a7769b39aad505d3f2088c2eae961f4743eb172a42203c5925feac86b66c0f",
        "2e84cf21c9be3764122c67e1e1c2293f1cca51a0af05207c73a6dec13e6b938b"),
    ("gauss-diff", ()): (
        "06471e95d1ba920b039d80bd81dab93366091f881cb9001f0d12e6f4e1edff02",
        "82cef8b4fede7c71966aa9ab2e0960335db87fda1f4be171af723617988ea966",
        "cc9d0fd2e42e65d83f08781dbfd5334dd85b27661fb8ba2a69ae493e3e1985c3"),
    ("gauss-diff", ("--rho", "0.3", "--steps", "6", "--samples", "50000", "--seed", "11")): (
        "b2603b3afe4a552e9e5d01b39d81b2a33b5b745d53bb4f972e58f46d06318b43",
        "2483bc5e9eb70e14ab77ab13475f34dd1eafd85771004f54205f3243e1b8adc4",
        "9ddad5fa1665c124ae4bdf4329f39bc57518028d46cbe0512e7270e822644e57"),
    ("gauss-binary", ()): (
        "99bfd2a97e94d62f0168a40e4af2598c76e2919a8bed96a49dc49a51067b525a",
        "65b2a9229e9b31308a4b5763cec51ba834cb86de3a6cab52feb29ff876a2651e",
        "448286da6f1799ec9fe518063000596e7badbfc9a9576579f7097151c52471af"),
    ("gauss-binary", ("--rho", "0.5", "--power", "3")): (
        "e3576c8855955b39b12ed7416c319594bce4da7d05d866bfe2257a682092fbdb",
        "e1a935229de133d0b38576549dffdbeb437f9cca0c5346984e970e85b9d9d10b",
        "22993b3a768a189b321143de3beb40cac55195721359e46bf9a271333b264470"),
    ("uniform-grid", ()): (
        "fc8c0af7ecfe6a70246591e172ea063fac39d26d8457c308ce377b4f525bff47",
        "8fa091390cccf2e9c638c0562247a53a68458a34be8bc6d6413caa77cd490c2a",
        "b90e85f6aa23a8c89742ab9bdd2b16d51245c85eaa20451789be9d2472dadb82"),
    ("uniform-grid", ("--target-d", "0.2", "--samples", "200000", "--seed", "3")): (
        "95c9668db74db151c156b877a5887360be40c18c526ac282be2bff546e0475f0",
        "aa5f128b972e104a30ed9f1a1a315ca33cbbb0cefc366714a105c2785286bc8b",
        "76001b5edbc8557614736832d92fc17d821feb271337960fe2d5ff46675596dd"),
}


@pytest.mark.parametrize("experiment,settings", list(PINNED_OUTPUTS),
                         ids=[" ".join((e,) + a) for e, a in PINNED_OUTPUTS])
def test_experiment_outputs_pinned(experiment, settings, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FCMAC_SEED", raising=False)
    *files, printed = PINNED_OUTPUTS[experiment, settings]
    for fmt, want in zip(("csv", "json"), files):
        out = tmp_path / f"out.{fmt}"
        assert main(["experiment", experiment, *settings, "--format", fmt,
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, fmt
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == printed, f"stdout with {fmt}"


class TestGraphCommands:
    def test_build_exact(self, spec_files, tmp_path, capsys):
        out = tmp_path / "graph.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(spec_files["function"]),
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj == {"edges": [["1", "3"]], "vertices": ["1", "2", "3"]}

    def test_build_threshold_with_fraction_labels(self, spec_files, tmp_path):
        out = tmp_path / "graph.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(spec_files["grid_function"]),
                     "--delta", str(1 / 6), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["edges"] == [["1", "2"], ["2", "3"]]

    @pytest.mark.parametrize("delta, edges", [("0.5", [["1", "3"]]), ("1", [])])
    def test_build_threshold_with_integer_labels(self, spec_files, tmp_path, delta, edges):
        # the comparison function's labels are 0 and 1
        out = tmp_path / "graph.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(spec_files["function"]),
                     "--delta", delta, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edges"] == edges

    def test_build_threshold_with_float_labels(self, spec_files, tmp_path):
        table = json.loads(spec_files["grid_function"].read_text())
        table["values"] = [[float(Fraction(v)) for v in row] for row in table["values"]]
        function = tmp_path / "float_function.json"
        function.write_text(json.dumps(table))
        out = tmp_path / "graph.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(function),
                     "--delta", str(1 / 6), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["edges"] == [["1", "2"], ["2", "3"]]

    def test_color(self, spec_files, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["graph", "build", "--joint", str(spec_files["pmf"]),
              "--function", str(spec_files["function"]), "--out", str(graph_path)])
        out = tmp_path / "coloring.json"
        assert main(["graph", "color", "--graph", str(graph_path),
                     "--marginal", str(spec_files["marginal"]),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"1": "0", "2": "0", "3": "1"}
        assert "0.9182958341" in capsys.readouterr().out

    def test_entropy_kinds(self, spec_files, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["graph", "build", "--joint", str(spec_files["pmf"]),
              "--function", str(spec_files["function"]), "--out", str(graph_path)])
        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "chromatic", "--marginal",
                     str(spec_files["marginal"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bits"] == pytest.approx(0.9182958340544896, abs=1e-9)

        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "conditional-chromatic", "--joint",
                     str(spec_files["pmf"]), "--n", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bits"] <= 2 / 3 + 1e-9

        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "conditional-graph", "--joint",
                     str(spec_files["pmf"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["bits"] <= payload["upper_bound_bits"] + 1e-9
        bits, gap = payload["bits"], payload["gap_bits"]
        assert bits - gap <= bits <= payload["upper_bound_bits"]

    def test_entropy_missing_input_exits_2(self, spec_files, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["graph", "build", "--joint", str(spec_files["pmf"]),
              "--function", str(spec_files["function"]), "--out", str(graph_path)])
        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "conditional-graph"]) == 2

    def test_conditional_graph_one_axis_joint_exits_2(self, spec_files, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["graph", "build", "--joint", str(spec_files["pmf"]),
              "--function", str(spec_files["function"]), "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "conditional-graph", "--joint",
                     str(spec_files["marginal"])]) == 2
        assert capsys.readouterr().err == "error: --joint: need a two-axis joint\n"

    def test_conditional_chromatic_over_cap_exits_2_before_the_product(
            self, spec_files, tmp_path, capsys, monkeypatch):
        graph_path = tmp_path / "graph.json"
        main(["graph", "build", "--joint", str(spec_files["pmf"]),
              "--function", str(spec_files["function"]), "--out", str(graph_path)])

        def no_product(*args, **kwargs):
            raise AssertionError("or_product must not run over the colouring cap")
        monkeypatch.setattr(graphs, "or_product", no_product)
        capsys.readouterr()
        assert main(["graph", "entropy", "--graph", str(graph_path),
                     "--kind", "conditional-chromatic", "--joint",
                     str(spec_files["pmf"]), "--n", "7"]) == 2
        assert "error: --n: OR-product has 2187 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", ["comparison", "one-vertex"])
    def test_conditional_chromatic_huge_n_exits_2_at_once(self, graph, spec_files, tmp_path):
        graph_path, joint_path = tmp_path / "graph.json", spec_files["pmf"]
        if graph == "comparison":
            main(["graph", "build", "--joint", str(joint_path),
                  "--function", str(spec_files["function"]), "--out", str(graph_path)])
            want = "error: --n: OR-product has 3^100000000 vertices, over the cap of 12\n"
        else:
            verts = Alphabet("u1", ("a",))
            jsonio.dump_json(jsonio.graph_to_json(graphs.CharGraph(verts, frozenset())),
                             str(graph_path))
            joint_path = tmp_path / "joint.json"
            jsonio.dump_json(jsonio.pmf_to_json(JointPMF(
                (verts, Alphabet("u2", ("0", "1"))), np.array([[0.5, 0.5]]))), str(joint_path))
            want = "error: --n: n must be at most 32 for an iid power, got 100000000\n"
        src = str(Path(fcmac.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # an exact power 3^n, or the n-fold product, would run for minutes
        proc = subprocess.run(
            [sys.executable, "-m", "fcmac.cli", "graph", "entropy", "--graph", str(graph_path),
             "--kind", "conditional-chromatic", "--joint", str(joint_path), "--n", "100000000"],
            env=env, capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stderr) == (2, want)

    def test_build_over_cap_exits_2(self, spec_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(graphs, "CHARACTERISTIC_GRAPH_CAP", 26)
        out = tmp_path / "graph.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(spec_files["function"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --joint: characteristic graph of 3 vertices and 3 peer symbols exceeds"
            " the cap of 26 on vertices^2 x peers\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["color", "entropy"])
    def test_over_cap_graph_file_exits_2_before_the_matrix(
            self, command, spec_files, tmp_path, capsys, monkeypatch):
        n = jsonio.GRAPH_FILE_VERTEX_CAP + 1
        graph_path = tmp_path / "big.json"
        graph_path.write_text(json.dumps({"vertices": list(range(n)), "edges": []}))

        def no_graph(*args, **kwargs):
            raise AssertionError("no adjacency matrix may be built over the cap")
        monkeypatch.setattr(jsonio, "CharGraph", no_graph)
        argv = ["graph", command, "--graph", str(graph_path),
                "--marginal", str(spec_files["marginal"])]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: $.vertices: {n} vertices exceeds the graph-file cap of {n - 1}\n")


class TestChannelCommands:
    def test_capacity(self, spec_files, capsys):
        assert main(["channel", "capacity", "--mac", str(spec_files["mac"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_capacity_bits"] == pytest.approx(1.5, abs=1e-4)
        assert payload["gap1_bits"] == 0.0 and payload["gap2_bits"] == 0.0

    def test_capacity_writes_an_infinite_gap_as_null(self, spec_files, capsys, monkeypatch):
        from fcmac import cli
        from fcmac.channels import SumCapacityResult
        half = np.array([0.5, 0.5])
        monkeypatch.setattr(cli, "mac_sum_capacity_independent",
                            lambda mac: SumCapacityResult(1.0, half, half, float("inf"), 0.25))
        assert main(["channel", "capacity", "--mac", str(spec_files["mac"])]) == 0
        out = capsys.readouterr().out
        assert "Infinity" not in out
        payload = json.loads(out)
        assert payload["gap1_bits"] is None and payload["gap2_bits"] == 0.25

    def test_gmac(self, capsys):
        assert main(["channel", "gmac", "--power", "5", "--rho", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sum_rate_bits"] == pytest.approx(1.9037, abs=1e-4)

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["channel", "gmac"])  # missing required --power
        assert err.value.code == 2


# non-finite or empty Gaussian settings: exit 2 with the parameter named
NON_FINITE_GAUSSIAN = [
    (["channel", "gmac", "--power", "nan"], "power"),
    (["channel", "gmac", "--power", "inf"], "power"),
    (["channel", "gmac", "--power", "5", "--noise-var", "nan"], "noise_var"),
    (["experiment", "gauss-diff", "--power", "nan", "--samples", "20000"], "power"),
    (["experiment", "gauss-binary", "--power", "nan"], "power"),
    (["experiment", "gauss-diff", "--sigma2", "inf", "--samples", "20000"], "sigma2"),
    (["experiment", "gauss-diff", "--power-min", "nan", "--samples", "20000"], "power_min"),
    (["experiment", "gauss-diff", "--power-max", "inf", "--samples", "20000"], "power_max"),
    (["experiment", "gauss-diff", "--steps", "0", "--samples", "20000"], "steps"),
]


@pytest.mark.parametrize("argv,parameter", NON_FINITE_GAUSSIAN,
                         ids=[" ".join(a[1:]) for a, _ in NON_FINITE_GAUSSIAN])
def test_non_finite_gaussian_settings_exit_2(argv, parameter, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {parameter} must be "), captured.err
    assert "RESULT" not in captured.out and "sum_rate_bits" not in captured.out


def test_gauss_diff_at_full_correlation(tmp_path, capsys):
    # the AF closed form is 0 at rho = 1, so the Monte Carlo error row is
    # the absolute error there and says so
    out = tmp_path / "rho1.json"
    assert main(["experiment", "gauss-diff", "--rho", "1", "--samples", "10000",
                 "--steps", "3", "--format", "json", "--out", str(out)]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out
    rows = {r["label"]: r for r in json.loads(out.read_text())["rows"]}
    row = rows["mc_af_relative_error"]
    assert row["value"] == 0.0
    assert row["note"].endswith("; absolute error, the closed form is 0")


class TestUnparsableJson:
    """Files the JSON parser itself refuses exit 2 with the root path ``$``."""

    @staticmethod
    def argv(command: str, bad: Path, spec_files, tmp_path) -> list[str]:
        if command == "check":
            return ["check", "theorem1", "--spec", str(bad)]
        if command == "color":
            return ["graph", "color", "--graph", str(bad),
                    "--marginal", str(spec_files["marginal"])]
        graph = tmp_path / "graph.json"
        jsonio.dump_json(jsonio.graph_to_json(graphs.characteristic_graph(
            presets.ternary_source_joint(), presets.comparison_function())), str(graph))
        return ["graph", "entropy", "--graph", str(graph), "--kind", "conditional-graph",
                "--joint", str(bad)]

    @pytest.mark.parametrize("command", ["color", "entropy", "check"])
    def test_deeply_nested_file_exits_2(self, command, spec_files, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        assert main(self.argv(command, bad, spec_files, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: $: invalid JSON")

    @pytest.mark.parametrize("command", ["color", "entropy", "check"])
    def test_over_long_integer_exits_2(self, command, spec_files, tmp_path, capsys):
        bad = tmp_path / "long.json"
        bad.write_text('{"vertices": [' + "7" * 5000 + '], "edges": []}')
        assert main(self.argv(command, bad, spec_files, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: $: invalid JSON")


class TestPathErrors:
    """Paths that cannot be read or written exit 2 with a message, not a traceback."""

    def test_experiment_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["experiment", "section5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    def test_graph_build_out_in_missing_directory(self, spec_files, tmp_path, capsys):
        out = tmp_path / "missing" / "g.json"
        assert main(["graph", "build", "--joint", str(spec_files["pmf"]),
                     "--function", str(spec_files["function"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    def test_spec_is_a_directory_process_exit_code(self, tmp_path):
        src = str(Path(fcmac.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "fcmac.cli", "check", "theorem1",
                               "--spec", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(tmp_path) in proc.stderr
        assert "Traceback" not in proc.stderr


class _Inputs:
    """Input files for the malformed-input cases, written under ``tmp_path``."""

    def __init__(self, spec_files, tmp_path):
        self.files, self.tmp, self.written = spec_files, tmp_path, 0
        tmp_path.mkdir()
        self.graph = str(tmp_path / "graph.json")
        jsonio.dump_json(jsonio.graph_to_json(graphs.characteristic_graph(
            presets.ternary_source_joint(), presets.comparison_function())), self.graph)

    def __getitem__(self, key) -> str:
        return str(self.files[key])

    def text(self, text: str) -> str:
        self.written += 1
        path = self.tmp / f"input{self.written}.json"
        path.write_text(text)
        return str(path)

    def edited(self, key: str, edit) -> str:
        obj = json.loads(Path(self[key]).read_text())
        edit(obj)
        return self.text(json.dumps(obj))

    def missing(self, name: str) -> str:
        return str(self.tmp / "missing" / name)


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return edit


def _recast(*keys_and_cast):
    *keys, cast = keys_and_cast

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = [[cast(v) for v in row] for row in obj[keys[-1]]]
    return edit


def _apply(*keys_and_fn):
    *keys, fn = keys_and_fn

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = fn(obj[keys[-1]])
    return edit


def _flattened(value):
    """A nested table as one array in C order."""
    return [x for v in value for x in _flattened(v)] if isinstance(value, list) else [value]


def _wrapped(value):
    """A nested table one level deeper: every entry in an array of its own."""
    return [_wrapped(v) for v in value] if isinstance(value, list) else [value]


def _rename_x1(name):
    def edit(obj):
        obj["x1_kernel"]["to_axes"][0]["name"] = name
        obj["channel"]["from_axes"][0]["name"] = name
    return edit


def _third_axis(obj):
    """A two-axis pmf file given a singleton third axis."""
    obj["axes"].append({"name": "z", "symbols": [0]})
    obj["mass"] = _wrapped(obj["mass"])


def _over_cap_system() -> str:
    """A system file whose channel clique (w1, w2, z, x1, x2, y) has
    4 n^2 = 8,398,404 cells, just over the feasibility cap, while none of its
    arrays holds more than 4 n entries: z and y have n symbols, x1 and x2
    two, every other axis one."""
    n = 1449
    assert 4 * n * n > feasibility.FEASIBILITY_CELL_CAP
    u1, u2, z1, z2, w1, w2 = (Alphabet(name, (0,))
                              for name in ("u1", "u2", "z1", "z2", "w1", "w2"))
    z, y = Alphabet("z", tuple(range(n))), Alphabet("y", tuple(range(n)))
    x1, x2 = Alphabet("x1", (0, 1)), Alphabet("x2", (0, 1))
    spec = SystemSpec(
        source_joint=JointPMF((u1, u2, z1, z2, z), np.full((1, 1, 1, 1, n), 1 / n)),
        w1_kernel=Kernel((u1, z1), (w1,), [[1.0]]),
        w2_kernel=Kernel((u2, z2), (w2,), [[1.0]]),
        x1_kernel=Kernel((w1,), (x1,), [[0.5, 0.5]]),
        x2_kernel=Kernel((w2,), (x2,), [[0.5, 0.5]]),
        channel=DiscreteMAC((x1, x2), y, Kernel((x1, x2), (y,), np.full((4, n), 1 / n))),
        function=FunctionTable.from_callable((u1, u2), lambda a, b: 0),
        decoder=FunctionTable.from_callable((w1, w2, z), lambda a, b, c: 0),
        distortion=DistortionTable((0,), (0,), [[0.0]]),
        target_d=0.0)
    return json.dumps(jsonio.system_spec_to_json(spec))


def _six_by_six_mac() -> str:
    """A channel file whose capacity grid is past its cap: two six-symbol inputs."""
    x1, x2 = Alphabet("x1", tuple(range(6))), Alphabet("x2", tuple(range(6)))
    y = Alphabet("y", (0, 1))
    law = Kernel((x1, x2), (y,), np.full((36, 2), 0.5))
    return json.dumps(jsonio.mac_to_json(DiscreteMAC((x1, x2), y, law)))


def _over_cap_graph(f: _Inputs) -> list[str]:
    """--graph and --marginal files on one vertex more than the exact
    colouring cap."""
    n = graphs.EXACT_COLORING_CAP + 1
    return ["--graph", f.text(json.dumps({"vertices": list(range(n)), "edges": []})),
            "--marginal", f.text(json.dumps({"axes": [{"name": "v", "symbols": list(range(n))}],
                                             "mass": [1 / n] * n}))]


def _over_cap_characteristic(f: _Inputs, n: int, m: int, label) -> list[str]:
    """--joint and --function files of a uniform n x m joint and the
    function label(x, z) of integer symbols."""
    x, z = Alphabet("u1", tuple(range(n))), Alphabet("u2", tuple(range(m)))
    joint = JointPMF((x, z), np.full((n, m), 1 / (n * m)))
    table = FunctionTable.from_callable((x, z), label)
    return ["--joint", f.text(json.dumps(jsonio.pmf_to_json(joint))),
            "--function", f.text(json.dumps(jsonio.function_table_to_json(table)))]


def _check(spec: str) -> list[str]:
    return ["check", "theorem1", "--spec", spec]


def _unwritable(f: _Inputs, argv: list[str]) -> tuple[list[str], str]:
    out = f.missing("out")
    return argv + ["--out", out], f"[Errno 2] No such file or directory: {out!r}"


_TRUNCATED = '{"axes": [{"name": "u1", "symbols": [0, 1'
_DEEP = "[" * 100_000 + "]" * 100_000
_BIG_GRAPH = json.dumps({"vertices": list(range(jsonio.GRAPH_FILE_VERTEX_CAP + 1)),
                         "edges": []})

# Malformed input through every leaf subcommand. Each case maps the input
# files to (argv, the text that must follow "error: "), which is a $ path, a
# parameter name, or the operating system's message naming the path. A case
# whose name mentions FCMAC_SEED runs with FCMAC_SEED=x1, the others with it unset.
MALFORMED_INPUT = {
    # check theorem1
    "check truncated file": lambda f: (_check(f.text(_TRUNCATED)), "$: invalid JSON in "),
    "check deeply nested file": lambda f: (_check(f.text(_DEEP)), "$: invalid JSON in "),
    "check mismatched rows": lambda f: (
        _check(f.edited("joint_spec", lambda o: o["x1_kernel"]["rows"].append([0.5, 0.5]))),
        "$.x1_kernel.rows: shape (3, 2) does not match axes (2, 2)"),
    "check ragged rows": lambda f: (
        _check(f.edited("joint_spec", lambda o: o["x1_kernel"]["rows"][0].pop())),
        "$.x1_kernel.rows: expected nested numeric arrays"),
    "check nan mass": lambda f: (
        _check(f.edited("joint_spec", _set("source_joint", "mass", 0, 1, 0, 0, 0, math.nan))),
        "$.source_joint.mass[0][1][0][0][0]: value nan is not finite"),
    "check boolean kernel": lambda f: (
        _check(f.edited("joint_spec", _recast("x1_kernel", "rows", bool))),
        "$.x1_kernel.rows[0][0]: expected a number, got bool"),
    "check string kernel": lambda f: (
        _check(f.edited("joint_spec", _recast("x1_kernel", "rows", lambda v: str(int(v))))),
        "$.x1_kernel.rows[0][0]: expected a number, got str"),
    "check boolean among floats": lambda f: (
        _check(f.edited("joint_spec", _set("w2_kernel", "rows", 1, 0, True))),
        "$.w2_kernel.rows[1][0]: expected a number, got bool"),
    "check boolean distortion": lambda f: (
        _check(f.edited("joint_spec", _recast("distortion", "values", bool))),
        "$.distortion.values[0][0]: expected a number, got bool"),
    "check integer past the float range": lambda f: (
        _check(f.edited("joint_spec", _set("channel", "rows", 0, 0, 10 ** 400))),
        "$.channel.rows: an integer is too large for a float"),
    "check negative target": lambda f: (
        _check(f.edited("joint_spec", _set("target_d", -0.5))),
        "$.target_d: target distortion must be finite and nonnegative"),
    "check integer target past the float range": lambda f: (
        _check(f.edited("joint_spec", _set("target_d", 10 ** 400))),
        "$.target_d: target distortion must be finite and nonnegative"),
    "check x1 axis named u1": lambda f: (
        _check(f.edited("joint_spec", _rename_x1("u1"))),
        "$: axis name 'u1' is used twice among the ten system axes"),
    "check source joint as an array": lambda f: (
        _check(f.edited("joint_spec", _set("source_joint", []))),
        "$.source_joint: expected an object, got list"),
    "check negative distortion": lambda f: (
        _check(f.edited("joint_spec", _set("distortion", "values", 0, 1, -1.0))),
        "$.distortion.values: distortion values must be nonnegative"),
    "check nonzero distortion of equal labels": lambda f: (
        _check(f.edited("joint_spec", _set("distortion", "values", 1, 1, 0.5))),
        "$.distortion.values: d(1, 1) = 0.5 violates d = 0 iff labels equal"),
    "check flat decoder": lambda f: (
        _check(f.edited("joint_spec", _apply("decoder", "values", _flattened))),
        "$.decoder.values: values must form a dense table of shape (2, 2, 1)"),
    "check over-nested decoder": lambda f: (
        _check(f.edited("joint_spec", _apply("decoder", "values", _wrapped))),
        "$.decoder.values: values must form a dense table of shape (2, 2, 1)"),
    "check negative kernel entry": lambda f: (
        _check(f.edited("joint_spec", _set("w2_kernel", "rows", 1, [-0.5, 1.5]))),
        "$.w2_kernel.rows: kernel row entry at (1, 0) is negative: -0.5"),
    "check kernel row summing to 0.9": lambda f: (
        _check(f.edited("joint_spec", _set("w2_kernel", "rows", 2, [0.0, 0.9]))),
        "$.w2_kernel.rows: kernel row 2 sums to 0.9, not 1"),
    "check negative source mass": lambda f: (
        _check(f.edited("joint_spec", _set("source_joint", "mass", 0, 0, 0, 0, 0, -0.1))),
        "$.source_joint.mass: negative_entry at index [0, 0, 0, 0, 0]: -0.1"),
    "check unnormalised source": lambda f: (
        _check(f.edited("joint_spec", _set("source_joint", "mass", 0, 0, 0, 0, 0, 0.5))),
        "$.source_joint.mass: not_normalized: 1.5"),
    "check over-cap channel clique": lambda f: (
        _check(f.text(_over_cap_system())),
        "--spec: channel clique (w1, w2, z, x1, x2, y) has 8398404 cells, over the"
        " feasibility cap of 8388608"),
    "check unwritable out": lambda f: _unwritable(f, _check(f["joint_spec"])),
    # graph build
    "graph build truncated joint": lambda f: (
        ["graph", "build", "--joint", f.text(_TRUNCATED), "--function", f["function"]],
        "$: invalid JSON in "),
    "graph build boolean mass": lambda f: (
        ["graph", "build", "--joint", f.edited("pmf", _set("mass", 2, 1, False)),
         "--function", f["function"]], "$.mass[2][1]: expected a number, got bool"),
    "graph build delta nan": lambda f: (
        ["graph", "build", "--joint", f["pmf"], "--function", f["grid_function"],
         "--delta", "nan"], "delta must be nonnegative, got nan"),
    "graph build negative delta": lambda f: (
        ["graph", "build", "--joint", f["pmf"], "--function", f["grid_function"],
         "--delta", "-0.5"], "delta must be nonnegative, got -0.5"),
    "graph build mismatched function": lambda f: (
        ["graph", "build", "--joint", f["pmf"],
         "--function", f.edited("function", lambda o: o["values"].pop())],
        "$.values: values must form a dense table of shape (3, 3)"),
    "graph build flat function": lambda f: (
        ["graph", "build", "--joint", f["pmf"],
         "--function", f.edited("function", _apply("values", _flattened))],
        "$.values: values must form a dense table of shape (3, 3)"),
    "graph build over-nested function": lambda f: (
        ["graph", "build", "--joint", f["pmf"],
         "--function", f.edited("function", _apply("values", _wrapped))],
        "$.values: values must form a dense table of shape (3, 3)"),
    "graph build non-numeric label": lambda f: (
        ["graph", "build", "--joint", f["pmf"], "--delta", "0.5", "--function",
         f.edited("function", _recast("values", lambda v: "yes" if v else "no"))],
        "--function: label 'no' is not numeric; threshold mode needs numeric function values"),
    "graph build function on other symbols": lambda f: (
        ["graph", "build", "--joint", f["pmf"], "--function",
         f.edited("function", _set("domain_axes", 0, "symbols", ["a", "b", "c"]))],
        "--function: the symbols of function axis 'u1' differ from those of joint axis 'u1'"),
    "graph build three-axis joint": lambda f: (
        ["graph", "build", "--joint", f.edited("pmf", _third_axis), "--function", f["function"]],
        "--joint: need a two-axis joint, got axes ('u1', 'u2', 'z')"),
    "graph build repeated axis name": lambda f: (
        ["graph", "build", "--function", f["function"],
         "--joint", f.edited("pmf", _set("axes", 1, "name", "u1"))],
        "$: duplicate axis names ['u1', 'u1']"),
    "graph build over-cap vertices and peers": lambda f: (
        ["graph", "build", *_over_cap_characteristic(f, 725, 2, lambda x, z: 0)],
        "--joint: characteristic graph of 725 vertices and 2 peer symbols exceeds the cap"
        " of 1048576 on vertices^2 x peers"),
    "graph build over-cap labels": lambda f: (
        ["graph", "build", *_over_cap_characteristic(f, 2, 513, lambda x, z: 513 * x + z)],
        "--function: characteristic graph of 1026 distinct function labels exceeds the cap"
        " of 1048576 on labels^2"),
    "graph build unwritable out": lambda f: _unwritable(
        f, ["graph", "build", "--joint", f["pmf"], "--function", f["function"]]),
    # graph color
    "graph color truncated graph": lambda f: (
        ["graph", "color", "--graph", f.text(_TRUNCATED), "--marginal", f["marginal"]],
        "$: invalid JSON in "),
    "graph color over-cap graph file": lambda f: (
        ["graph", "color", "--graph", f.text(_BIG_GRAPH), "--marginal", f["marginal"]],
        "$.vertices: 1025 vertices exceeds the graph-file cap"),
    "graph color string mass": lambda f: (
        ["graph", "color", "--graph", f.graph,
         "--marginal", f.edited("marginal", _set("mass", 1, "0.5"))],
        "$.mass[1]: expected a number, got str"),
    "graph color nan mass": lambda f: (
        ["graph", "color", "--graph", f.graph,
         "--marginal", f.edited("marginal", _set("mass", 0, math.nan))],
        "$.mass[0]: value nan is not finite"),
    "graph color marginal on other symbols": lambda f: (
        ["graph", "color", "--graph", f.graph,
         "--marginal", f.edited("marginal", _set("axes", 0, "symbols", ["a", "b", "c"]))],
        "--marginal: marginal first axis must carry the graph's vertex symbols"),
    "graph color over-cap exact colouring": lambda f: (
        ["graph", "color", *_over_cap_graph(f)],
        "--graph: 13 vertices exceeds the exact-mode cap of 12"),
    "graph color unwritable out": lambda f: _unwritable(
        f, ["graph", "color", "--graph", f.graph, "--marginal", f["marginal"]]),
    # graph entropy
    "graph entropy deeply nested joint": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-graph",
         "--joint", f.text(_DEEP)], "$: invalid JSON in "),
    "graph entropy chromatic without marginal": lambda f: (
        ["graph", "entropy", "--graph", f.graph], "--kind chromatic needs --marginal"),
    "graph entropy conditional without joint": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-graph"],
        "--kind conditional-graph needs --joint"),
    "graph entropy n 0": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-chromatic",
         "--joint", f["pmf"], "--n", "0"], "n must be >= 1, got 0"),
    "graph entropy boolean joint": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-chromatic",
         "--joint", f.edited("pmf", _recast("mass", bool))],
        "$.mass[0][0]: expected a number, got bool"),
    "graph entropy joint on other symbols": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-graph",
         "--joint", f.edited("pmf", _set("axes", 0, "symbols", ["a", "b", "c"]))],
        "--joint: joint first axis must carry the graph's vertex symbols"),
    "graph entropy over-cap n": lambda f: (
        ["graph", "entropy", "--graph", f.graph, "--kind", "conditional-chromatic",
         "--joint", f["pmf"], "--n", "7"],
        "--n: OR-product has 2187 vertices, over the cap of 12"),
    # channel capacity
    "channel capacity truncated mac": lambda f: (
        ["channel", "capacity", "--mac", f.text(_TRUNCATED)], "$: invalid JSON in "),
    "channel capacity mismatched rows": lambda f: (
        ["channel", "capacity", "--mac", f.edited("mac", lambda o: o["rows"].pop())],
        "$.rows: shape (3, 3) does not match axes (4, 3)"),
    "channel capacity boolean rows": lambda f: (
        ["channel", "capacity", "--mac", f.edited("mac", _recast("rows", bool))],
        "$.rows[0][0]: expected a number, got bool"),
    "channel capacity nan rows": lambda f: (
        ["channel", "capacity", "--mac", f.edited("mac", _set("rows", 3, 2, math.nan))],
        "$.rows[3][2]: value nan is not finite"),
    "channel capacity over-cap grid": lambda f: (
        ["channel", "capacity", "--mac", f.text(_six_by_six_mac())],
        "--mac: capacity grid of 12101778095121 points exceeds the cap"),
    # channel gmac
    "channel gmac power nan": lambda f: (
        ["channel", "gmac", "--power", "nan"], "power must be finite"),
    "channel gmac rho 2": lambda f: (
        ["channel", "gmac", "--power", "5", "--rho", "2"], "--rho must lie in [-1, 1]"),
    "channel gmac noise 0": lambda f: (
        ["channel", "gmac", "--power", "5", "--noise-var", "0"], "noise_var must be finite"),
    # experiment
    "experiment bad FCMAC_SEED": lambda f: (
        ["experiment", "gauss-binary"], "FCMAC_SEED must be an integer, got 'x1'"),
    "experiment over-cap steps": lambda f: (
        ["experiment", "gauss-diff", "--steps", str(experiments.MAX_STEPS + 1)],
        "steps must be between 1 and"),
    "experiment over-cap samples": lambda f: (
        ["experiment", "uniform-grid", "--samples", str(schemes.MAX_SAMPLES + 1)],
        "samples must be between"),
    "experiment gauss-binary rho 2": lambda f: (
        ["experiment", "gauss-binary", "--rho", "2"], "rho must lie in [-1, 1]"),
    "experiment gauss-binary rho-x nan": lambda f: (
        ["experiment", "gauss-binary", "--rho-x", "nan"], "rho_x must lie in [-1, 1]"),
    "experiment gauss-diff rho 2": lambda f: (
        ["experiment", "gauss-diff", "--rho", "2", "--samples", "10000"],
        "rho must lie in [-1, 1]"),
    "experiment uniform-grid negative target": lambda f: (
        ["experiment", "uniform-grid", "--target-d", "-1", "--samples", "10000"],
        "target_d must be finite and nonnegative"),
    "experiment unwritable out": lambda f: _unwritable(f, ["experiment", "section5"]),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUT))
def test_malformed_input_exits_2(case, spec_files, tmp_path, monkeypatch, capsys):
    argv, lead = MALFORMED_INPUT[case](_Inputs(spec_files, tmp_path / "inputs"))
    if "FCMAC_SEED" in case:
        monkeypatch.setenv("FCMAC_SEED", "x1")
    else:
        monkeypatch.delenv("FCMAC_SEED", raising=False)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lead}"), err
    assert err.count("\n") == 1 and "Traceback" not in err


# The refusal fuzz: values a mutated field is set to (non-finite and huge
# numbers, wrong types, axis-shaped objects), or _DELETE to remove the field
_DELETE = object()
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, 10 ** 400, -1, 0, 0.5, 1, "x", "1/3", True,
                None, [], [0], [[0.5, 0.5]], {}, {"name": "u1", "symbols": [0, 1]}, _DELETE]
# the seven command lines of the leaf subcommands that read files; @name
# stands for an input file, @out for an output path
_FUZZ_COMMANDS = [
    ["check", "theorem1", "--spec", "@spec"],
    ["graph", "build", "--joint", "@pmf", "--function", "@function", "--out", "@out"],
    ["graph", "build", "--joint", "@pmf", "--function", "@grid_function", "--delta", "0.2",
     "--out", "@out"],
    ["graph", "color", "--graph", "@graph", "--marginal", "@marginal", "--out", "@out"],
    ["graph", "entropy", "--graph", "@graph", "--kind", "chromatic", "--marginal", "@marginal"],
    ["graph", "entropy", "--graph", "@graph", "--kind", "conditional-graph", "--joint", "@pmf"],
    ["channel", "capacity", "--mac", "@mac"],
]


def _json_paths(obj, path=()):
    """The path of every value in a JSON document, containers included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _mutated(obj, path, value):
    """A copy of ``obj`` with the field at ``path`` set to ``value``, or removed."""
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def test_mutated_input_files_are_refused_by_name(spec_files, tmp_path, capsys):
    """Each of the seven input files, one field at a time: every command
    line reading the file exits 0, 1 or 2 with no traceback, and an exit-2
    message names a $ path, a flag or a parameter."""
    graph = tmp_path / "graph.json"
    jsonio.dump_json(jsonio.graph_to_json(graphs.characteristic_graph(
        presets.ternary_source_joint(), presets.comparison_function())), str(graph))
    files = {"spec": spec_files["joint_spec"], "graph": graph,
             **{key: spec_files[key] for key in ("pmf", "marginal", "function",
                                                 "grid_function", "mac")}}
    named = re.compile(r"error: (\$|--[a-z]|[a-z_0-9]+ must )")
    rng = np.random.default_rng(3303)
    exits = Counter()
    for key, path in files.items():
        original = json.loads(path.read_text())
        paths = list(_json_paths(original))[1:]
        mutant = tmp_path / f"mutant-{key}.json"
        for _ in range(150):
            field = paths[int(rng.integers(len(paths)))]
            value = _FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))]
            mutant.write_text(json.dumps(_mutated(original, field, value)))
            paths_now = {**{f"@{k}": str(p) for k, p in files.items()}, f"@{key}": str(mutant),
                         "@out": str(tmp_path / "out.json")}
            for command in _FUZZ_COMMANDS:
                if f"@{key}" not in command:
                    continue
                argv = [paths_now.get(arg, arg) for arg in command]
                case = f"{command[:2]} with {key} {list(field)} = {value!r}"
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:    # past the error boundary
                    pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
                err = capsys.readouterr().err
                exits[code] += 1
                assert code in (0, 1, 2), case
                assert "Traceback" not in err, case
                if code == 2:
                    assert named.match(err) and err.count("\n") == 1, f"{case}: {err}"
    # most mutants are refused, and some still run
    assert exits[2] >= 1000 and exits[0] + exits[1] >= 40, exits
