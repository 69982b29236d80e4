import math
from collections import Counter

import pytest

from fcmac import channels, experiments, feasibility, schemes
from fcmac.experiments import run_experiment, UnknownExperimentError


class TestSection5Registry:
    def test_passes_with_expected_flags(self):
        res = run_experiment("section5")
        assert res.passed
        flagged = {r.label for r in res.rows if r.status == "flagged"}
        # the four known discrepancies stay visible without failing the run
        assert flagged == {"uncoded_sum_rate", "color_sum_rate_given_side_info",
                           "zigzag_holds", "joint_code_distortion"}

    def test_ladder_values(self):
        res = run_experiment("section5")
        assert res.row("source_pair_entropy").value == pytest.approx(math.log2(6))
        assert res.row("adder_sum_capacity_independent").value == pytest.approx(1.5, abs=1e-4)
        assert res.row("color_sum_rate_given_side_info").value == pytest.approx(4 / 3, abs=1e-9)
        assert res.row("joint_code_sum_verdict").value == "boundary"

    def test_scheme_reports_attached(self):
        res = run_experiment("section5")
        assert {s.scheme_id for s in res.schemes} == {"1", "2", "3"}


class TestGaussBinaryRegistry:
    def test_registered_point_checked(self):
        res = run_experiment("gauss-binary")
        assert res.passed
        assert res.row("sign_pair_entropy").expected is not None

    def test_off_registry_point_is_informational(self):
        res = run_experiment("gauss-binary", rho=0.5)
        assert res.passed
        row = res.row("sign_pair_entropy")
        assert row.expected is None
        assert 0.0 < row.value < 2.0


class TestUniformGridRegistry:
    def test_passes(self):
        res = run_experiment("uniform-grid", samples=50_000)
        assert res.passed
        assert res.row("threshold_graph_edges").value == "1-2,2-3"
        assert res.row("distortion_closed_form").value == pytest.approx(1 / 9)

    def test_other_cell_counts_rejected(self):
        # the two-color decoding table only identifies center gaps for 3 cells,
        # so the cell count is not an override
        with pytest.raises(ValueError, match="^unsupported override for uniform-grid: cells;"):
            run_experiment("uniform-grid", cells=4, samples=50_000)


class TestGaussDiffRegistry:
    def test_sweep_shape(self):
        res = run_experiment("gauss-diff", steps=10, samples=20_000)
        assert res.sweep_header[0] == "param"
        assert len(res.sweep_rows) == 21
        assert res.passed


def test_unknown_experiment_raises():
    with pytest.raises(UnknownExperimentError):
        run_experiment("missing")


class TestComputedOnce:
    """Each experiment computes every quantity once and derives its scheme
    reports from those values."""

    @pytest.mark.parametrize("experiment_id", ["gauss-diff", "uniform-grid"])
    def test_each_seeded_block_drawn_once(self, experiment_id, monkeypatch):
        drawn = Counter()
        block_rng = schemes._block_rng

        def counting(seed, block):
            drawn[seed, block] += 1
            return block_rng(seed, block)

        monkeypatch.setattr(schemes, "_block_rng", counting)
        res = run_experiment(experiment_id, seed=5, samples=150_000)
        assert sorted(drawn) == [(5, b) for b in range(3)]
        assert set(drawn.values()) == {1}
        mc = next(s.distortion_mc for s in res.schemes if s.distortion_mc is not None)
        assert (mc.samples, mc.seed) == (150_000, 5)

    def test_section5_searches_capacity_once(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # count through every binding a caller could reach
        capacity = counting("capacity", channels.mac_sum_capacity_independent)
        monkeypatch.setattr(channels, "mac_sum_capacity_independent", capacity)
        monkeypatch.setattr(experiments, "mac_sum_capacity_independent", capacity)
        for name in ("_source_half", "_channel_half"):
            monkeypatch.setattr(feasibility, name, counting(name, getattr(feasibility, name)))
        res = run_experiment("section5")
        # one source half shared by the joint and the independent code
        assert calls == {"capacity": 1, "_source_half": 1, "_channel_half": 2}
        by_id = {s.scheme_id: s for s in res.schemes}
        assert by_id["1"].channel_sum_rate_bits == res.row(
            "adder_sum_capacity_independent").value
        assert by_id["3"].margin_bits == res.row("joint_code_sum_margin").value
