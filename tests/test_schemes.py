import concurrent.futures
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fcmac import schemes
from fcmac.experiments import run_experiment
from fcmac.probability import Alphabet, JointPMF, entropy, validate
from fcmac.schemes import (
    GaussianPairSource,
    GridQuantizer,
    MonteCarloError,
    af_distortion,
    binary_pair_correlation,
    binary_quadrant_pmf,
    centralized_bound,
    grid_distortion_closed_form,
    lipschitz_budget,
    monte_carlo_af,
    monte_carlo_grid_distortion,
    offdiagonal_cell_pmf,
    quantize_grid,
    sample_offdiagonal_uniform,
)

from _support import (
    assert_refuses,
    loop_gaussian_pairs,
    loop_grid_distortion,
    loop_monte_carlo_af,
    loop_offdiagonal_points,
)

LOG2_3 = math.log2(3.0)


class TestClosedForms:
    def test_identical_sources_zero(self):
        assert centralized_bound(4.0, 1.0) == 0.0
        assert af_distortion(4.0, 1.0) == 0.0

    def test_zero_power_prior_variance(self):
        assert centralized_bound(0.0, 0.0, sigma2=1.0) == 2.0
        assert af_distortion(0.0, 0.25, sigma2=1.0) == pytest.approx(1.5)

    def test_reference_point(self):
        assert centralized_bound(5.0, 0.5, 1.0) == pytest.approx(1 / 11, abs=1e-15)
        assert af_distortion(5.0, 0.5, 1.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_equal_at_zero_correlation(self):
        for p in np.linspace(0.0, 20.0, 9):
            assert af_distortion(p, 0.0) == pytest.approx(centralized_bound(p, 0.0),
                                                          abs=1e-15)

    def test_uncoded_never_beats_centralized(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = rng.uniform(0.01, 50.0)
            rho = rng.uniform(0.0, 1.0)
            s2 = rng.uniform(0.1, 4.0)
            assert af_distortion(p, rho, s2) >= centralized_bound(p, rho, s2) - 1e-15

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            centralized_bound(-1.0, 0.5)
        with pytest.raises(ValueError):
            af_distortion(1.0, 2.0)
        with pytest.raises(ValueError):
            GaussianPairSource(sigma2=0.0)

    @pytest.mark.parametrize("power,sigma2,named", [
        (float("nan"), 1.0, "power"), (float("inf"), 1.0, "power"),
        (1.0, float("nan"), "sigma2"), (1.0, float("inf"), "sigma2")])
    def test_non_finite_parameters_rejected(self, power, sigma2, named):
        for fn in (centralized_bound, af_distortion):
            with pytest.raises(ValueError, match=f"^{named} must be finite"):
                fn(power, 0.5, sigma2)
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            monte_carlo_af(power, 0.5, sigma2, samples=20_000)
        if named == "sigma2":
            with pytest.raises(ValueError, match="^sigma2 must be finite"):
                GaussianPairSource(sigma2=sigma2)


class TestGaussianPairSource:
    def test_sample_moments(self):
        src = GaussianPairSource(sigma2=2.0, rho=0.6)
        pts = src.sample(200_000, seed=9)
        cov = np.cov(pts.T)
        assert cov[0, 0] == pytest.approx(2.0, rel=0.05)
        assert cov[1, 1] == pytest.approx(2.0, rel=0.05)
        assert cov[0, 1] / 2.0 == pytest.approx(0.6, abs=0.02)

    def test_sample_deterministic_and_block_stable(self):
        src = GaussianPairSource()
        a = src.sample(70_000, seed=10)
        b = src.sample(70_000, seed=10)
        assert np.array_equal(a, b)
        # a shorter run is a prefix: streams are keyed per block
        c = src.sample(5_000, seed=10)
        assert np.array_equal(a[:5_000], c)


class TestMonteCarloAF:
    def test_matches_closed_form_within_interval(self):
        mc = monte_carlo_af(5.0, 0.5, samples=1_000_000, seed=7)
        assert abs(mc.value - 1 / 6) <= max(mc.halfwidth, 0.002)
        assert mc.samples == 1_000_000
        assert mc.seed == 7

    def test_identical_sources_exact_zero(self):
        mc = monte_carlo_af(5.0, 1.0, samples=20_000, seed=1)
        assert mc.value == 0.0
        assert mc.halfwidth == 0.0

    def test_zero_power_falls_back_to_prior(self):
        rho = 0.25
        mc = monte_carlo_af(0.0, rho, samples=200_000, seed=2)
        assert mc.value == pytest.approx(2 * (1 - rho), abs=5 * mc.halfwidth + 0.01)

    def test_seed_reproducibility_and_sensitivity(self):
        a = monte_carlo_af(5.0, 0.5, samples=20_000, seed=3)
        b = monte_carlo_af(5.0, 0.5, samples=20_000, seed=3)
        c = monte_carlo_af(5.0, 0.5, samples=20_000, seed=4)
        assert a.value == b.value
        assert a.value != c.value

    def test_halfwidth_shrinks_with_samples(self):
        small = monte_carlo_af(5.0, 0.5, samples=50_000, seed=5)
        large = monte_carlo_af(5.0, 0.5, samples=200_000, seed=5)
        # quadrupling samples roughly halves the half-width
        assert large.halfwidth == pytest.approx(small.halfwidth / 2, rel=0.2)

    def test_coverage_over_repetitions(self):
        hits = 0
        for seed in range(50):
            mc = monte_carlo_af(3.0, 0.5, samples=20_000, seed=seed)
            if abs(mc.value - af_distortion(3.0, 0.5)) <= mc.halfwidth:
                hits += 1
        assert hits >= 45  # 95% interval should cover in at least 90% of runs

    def test_sample_floor(self):
        with pytest.raises(MonteCarloError):
            monte_carlo_af(5.0, 0.5, samples=100)

    def test_variance_scaling(self):
        s2 = 2.5
        assert af_distortion(5.0, 0.5, s2) == pytest.approx(s2 * af_distortion(5.0, 0.5, 1.0))
        mc = monte_carlo_af(5.0, 0.5, sigma2=s2, samples=200_000, seed=6)
        assert abs(mc.value - af_distortion(5.0, 0.5, s2)) <= 4 * mc.halfwidth


class TestQuadrantPmf:
    def test_quoted_point(self):
        pair = binary_quadrant_pmf(0.75)
        assert validate(pair).ok
        assert entropy(pair, ("w1", "w2")) == pytest.approx(1.778, abs=5e-4)
        assert binary_pair_correlation(pair) == pytest.approx(0.540, abs=5e-3)

    def test_closed_form_cells(self):
        rho = 0.75
        same = 0.25 + math.asin(rho) / (2 * math.pi)
        diff = 0.25 - math.asin(rho) / (2 * math.pi)
        pair = binary_quadrant_pmf(rho)
        assert pair.mass[0, 0] == pytest.approx(same, abs=1e-15)
        assert pair.mass[0, 1] == pytest.approx(diff, abs=1e-15)

    def test_independent_at_zero(self):
        pair = binary_quadrant_pmf(0.0)
        assert np.allclose(pair.mass, 0.25)
        assert entropy(pair, ("w1", "w2")) == pytest.approx(2.0, abs=1e-12)

    def test_identical_signs_at_one(self):
        pair = binary_quadrant_pmf(1.0)
        assert pair.mass[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert entropy(pair, ("w1", "w2")) == pytest.approx(1.0, abs=1e-12)

    def test_valid_and_entropy_monotone_in_magnitude(self):
        rhos = np.linspace(0.0, 1.0, 21)
        entropies = []
        for r in rhos:
            pair = binary_quadrant_pmf(float(r))
            assert validate(pair).ok
            entropies.append(entropy(pair, ("w1", "w2")))
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))
        for r in (-0.3, -0.9):
            mirrored = binary_quadrant_pmf(r)
            assert validate(mirrored).ok


class TestGridQuantizer:
    def test_centers(self):
        q = GridQuantizer(0.0, 1.0, 3)
        assert np.allclose(q.centers, [1 / 6, 1 / 2, 5 / 6])

    def test_idempotent_on_centers(self):
        q = GridQuantizer(0.0, 1.0, 3)
        assert list(q.index(q.centers)) == [0, 1, 2]

    def test_upper_boundary_clamped(self):
        q = GridQuantizer(0.0, 1.0, 3)
        assert q.index(np.array([1.0]))[0] == 2

    def test_quantize_pairs_empirical_pmf(self):
        pts = sample_offdiagonal_uniform(3, 100_000, seed=11)
        idx, pmf = quantize_grid(GridQuantizer(0.0, 1.0, 3), pts)
        assert idx.shape == (100_000, 2)
        assert validate(pmf).ok
        exact = offdiagonal_cell_pmf(3)
        tv = 0.5 * np.abs(pmf.mass - exact.mass).sum()
        assert tv < 0.01
        assert np.all(pmf.mass[np.eye(3, dtype=bool)] == 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quantize_grid(GridQuantizer(0.0, 1.0, 3), np.zeros((4, 3)))

    @pytest.mark.parametrize("lo,hi,cells,field", [
        (0.0, math.nan, 3, "hi"),
        (math.nan, 1.0, 3, "lo"),
        (-math.inf, 1.0, 3, "lo"),
        (0.0, math.inf, 3, "hi"),
        (0.0, 1.0, 2.5, "cells"),
        (0.0, 1.0, 3.0, "cells"),
        (0.0, 1.0, True, "cells"),
        (0.0, 1.0, 0, "cells"),
        (0.0, 1.0, np.int64(0), "cells"),
        (-1e308, 1e308, 3, "hi - lo"),
    ])
    def test_refuses_bad_fields_by_name(self, lo, hi, cells, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} must be"):
                GridQuantizer(lo, hi, cells)

    def test_accepts_numpy_integer_cells(self):
        assert list(GridQuantizer(0.0, 1.0, np.int64(2)).index(np.array([0.2, 0.7]))) == [0, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_index_refuses_a_non_finite_sample_by_position(self, bad):
        q = GridQuantizer(0.0, 1.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^sample at \(2,\) is not finite: {bad}$"):
                q.index(np.array([0.5, 2.0, bad, 0.1]))
            with pytest.raises(ValueError, match=rf"^sample at \(1, 0\) is not finite: {bad}$"):
                quantize_grid(q, np.array([[0.1, 0.2], [bad, 0.3]]))

    def test_index_puts_samples_beyond_the_bounds_in_the_end_cells(self):
        q = GridQuantizer(0.0, 1.0, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.index(np.array([-1e300, -0.5, 0.0, 0.5, 1.0, 1.5, 1e19, 1e300])).tolist() == [
                0, 0, 0, 1, 2, 2, 2, 2]


MANY_BLOCKS = 20 * (1 << 16) + 1   # twenty full blocks and a one-draw block


def on_both_pools(call):
    """call() on the process-wide pool, then on a one-thread pool, so that a
    result depending on the worker count would show."""
    pooled = call()
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(1) as one:
        mp.setattr(schemes, "_pool", one)
        return pooled, call()


class TestMonteCarloMatchesLoops:
    """The block driver and accumulator reproduce the per-routine loops bit
    for bit, including a partial last block, whatever the worker count."""

    @pytest.mark.parametrize("power,rho,sigma2,samples,seed", [
        (5.0, 0.5, 1.0, 70_000, 3), (0.0, -0.25, 2.5, 10_000, 8), (3.0, 1.0, 0.5, 131_072, 2),
        (2.0, 0.3, 1.5, MANY_BLOCKS, 2**40 + 7)])
    def test_af(self, power, rho, sigma2, samples, seed):
        mc, single = on_both_pools(
            lambda: monte_carlo_af(power, rho, sigma2, samples=samples, seed=seed))
        want = loop_monte_carlo_af(schemes._block_rng, power, rho, sigma2, samples, seed)
        assert (mc.value, mc.halfwidth) == want
        assert single == mc

    @pytest.mark.parametrize("cells,samples,seed", [
        (3, 70_000, 12), (5, 10_000, 1), (3, MANY_BLOCKS, -5)])
    def test_offdiagonal_sampler(self, cells, samples, seed):
        got, single = on_both_pools(lambda: sample_offdiagonal_uniform(cells, samples, seed=seed))
        want = loop_offdiagonal_points(schemes._block_rng, cells, samples, seed)
        assert np.array_equal(got, want)
        assert np.array_equal(single, want)

    @pytest.mark.parametrize("sigma2,rho,samples,seed", [
        (2.0, 0.6, 70_000, 9), (1.0, -1.0, 10_000, 4), (0.5, 0.25, MANY_BLOCKS, 1234)])
    def test_gaussian_pair_sampler(self, sigma2, rho, samples, seed):
        got, single = on_both_pools(
            lambda: GaussianPairSource(sigma2, rho).sample(samples, seed=seed))
        want = loop_gaussian_pairs(schemes._block_rng, sigma2, rho, samples, seed)
        assert np.array_equal(got, want)
        assert np.array_equal(single, want)

    @pytest.mark.parametrize("cells,samples,seed", [
        (3, 70_000, 12), (4, 10_000, 5), (5, MANY_BLOCKS, 1)])
    def test_grid_distortion_and_cell_counts(self, cells, samples, seed):
        points = loop_offdiagonal_points(schemes._block_rng, cells, samples, seed)
        value, half, want_counts = loop_grid_distortion(points, cells)

        def counted():
            counts = np.zeros((cells, cells), dtype=np.int64)
            mc = monte_carlo_grid_distortion(cells, samples, seed, cell_counts=counts)
            return mc, counts

        for mc, counts in on_both_pools(counted):
            assert (mc.value, mc.halfwidth) == (value, half)
            assert np.array_equal(counts, want_counts)
        plain = monte_carlo_grid_distortion(cells, samples, seed)
        assert (plain.value, plain.halfwidth) == (value, half)
        _, pmf = quantize_grid(GridQuantizer(0.0, 1.0, cells), points)
        assert np.array_equal(pmf.mass, want_counts / samples)


class TestBlockPool:
    def test_made_on_first_use_with_a_worker_per_cpu(self, monkeypatch):
        monkeypatch.setattr(schemes, "_pool", None)
        monte_carlo_af(5.0, 0.5, samples=20_000)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert schemes._pool._max_workers == cpus
        pool = schemes._pool
        sample_offdiagonal_uniform(3, 20_000)
        assert schemes._pool is pool
        pool.shutdown()

    def test_concurrent_first_calls_share_one_pool(self, monkeypatch):
        samples, seed = 5 * (1 << 16) + 1, 7
        points = loop_offdiagonal_points(schemes._block_rng, 3, samples, seed)
        value, half, want_counts = loop_grid_distortion(points, 3)
        made = []

        class SlowToMake(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.05)    # widens the window between check and store
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SlowToMake)
        monkeypatch.setattr(schemes, "_pool", None)
        start = threading.Barrier(8)
        seen = []

        def call():
            start.wait(timeout=10)
            counts = np.zeros((3, 3), dtype=np.int64)
            mc = monte_carlo_grid_distortion(3, samples, seed, cell_counts=counts)
            got = sample_offdiagonal_uniform(3, samples, seed)
            seen.append(((mc.value, mc.halfwidth), counts, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call) for _ in range(8)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert not any(c.is_alive() for c in callers)
        assert len(seen) == 8
        assert made == [schemes._pool]
        for estimate, counts, got in seen:
            assert estimate == (value, half)
            assert np.array_equal(counts, want_counts)
            assert np.array_equal(got, points)

    def test_block_error_reaches_the_caller(self, monkeypatch):
        def failing(seed, block):
            if block == 3:
                raise RuntimeError("block 3 failed")
            return np.random.default_rng(block)

        monkeypatch.setattr(schemes, "_block_rng", failing)
        with pytest.raises(RuntimeError, match="block 3 failed"):
            monte_carlo_af(5.0, 0.5, samples=MANY_BLOCKS)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_monte_carlo(self):
        want = monte_carlo_af(5.0, 0.5, samples=200_000, seed=3)   # the pool exists now
        assert schemes._pool is not None
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_report_forked_estimate, args=(send,))
        child.start()
        send.close()
        try:
            assert receive.poll(30), "the forked child's Monte Carlo call did not finish in 30 s"
            assert receive.recv() == (True, want.value, want.halfwidth)
        finally:
            child.kill()
            child.join()


def _report_forked_estimate(send) -> None:
    """In a forked child: whether the inherited pool is gone, then the
    Monte Carlo estimate the parent computed before the fork."""
    dropped = schemes._pool is None
    mc = monte_carlo_af(5.0, 0.5, samples=200_000, seed=3)
    send.send((dropped, mc.value, mc.halfwidth))


class TestSampleCap:
    @pytest.mark.parametrize("draw", [
        lambda n: GaussianPairSource().sample(n),
        lambda n: sample_offdiagonal_uniform(3, n),
        lambda n: monte_carlo_af(5.0, 0.5, samples=n),
        lambda n: monte_carlo_grid_distortion(3, samples=n),
    ], ids=["pair-source", "offdiagonal", "mc-af", "mc-grid"])
    def test_over_cap_refused_before_any_draw(self, draw, monkeypatch):
        def no_draw(seed, block):
            raise AssertionError("a sampler drew over the cap")

        monkeypatch.setattr(schemes, "_block_rng", no_draw)
        with pytest.raises(ValueError, match="^samples"):
            draw(schemes.MAX_SAMPLES + 1)

    @pytest.mark.parametrize("draw", [
        lambda: GaussianPairSource().sample(-1),
        lambda: sample_offdiagonal_uniform(3, -5),
    ], ids=["pair-source", "offdiagonal"])
    def test_negative_sample_count_named(self, draw):
        with pytest.raises(MonteCarloError, match=r"^samples must be between 0 and \d+, got -\d$"):
            draw()

    @pytest.mark.parametrize("draw", [
        lambda: sample_offdiagonal_uniform(1, 100),
        lambda: sample_offdiagonal_uniform(0, 100),
        lambda: monte_carlo_grid_distortion(1, 20_000),
    ], ids=["offdiagonal-1", "offdiagonal-0", "mc-grid-1"])
    def test_fewer_than_two_cells_refused(self, draw):
        with pytest.raises(ValueError, match="^need at least two cells for an off-diagonal"):
            draw()


class TestGridDistortion:
    def test_closed_form_value(self):
        assert grid_distortion_closed_form(3) == pytest.approx(1 / 9, abs=1e-15)

    def test_monte_carlo_agrees(self):
        mc = monte_carlo_grid_distortion(3, samples=200_000, seed=12)
        assert abs(mc.value - 1 / 9) <= 0.005

    def test_finer_grids_reduce_distortion(self):
        values = [grid_distortion_closed_form(c) for c in (2, 3, 6, 12)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestLipschitzBudget:
    def test_values(self):
        assert lipschitz_budget(1.0, 0.25) == 0.25
        assert lipschitz_budget(2.0, 1 / 3) == pytest.approx(1 / 6)
        assert lipschitz_budget(3.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            lipschitz_budget(0.0, 1.0)
        with pytest.raises(ValueError):
            lipschitz_budget(1.0, -1.0)
        with pytest.raises(ValueError, match="alpha"):
            lipschitz_budget(math.nan, 1.0)
        with pytest.raises(ValueError, match="target distortion"):
            lipschitz_budget(1.0, math.nan)


class TestRunScheme:
    def test_section5_verdicts(self):
        by_id = {r.scheme_id: r for r in run_experiment("section5").schemes}
        assert by_id["3"].verdict == "boundary"
        assert abs(by_id["3"].margin_bits) <= 1e-9
        assert by_id["2"].verdict == "violated"
        assert by_id["2"].margin_bits == pytest.approx(1.5 - LOG2_3, abs=1e-9)
        assert by_id["2"].margin_bits <= -0.084
        assert by_id["1"].verdict == "violated"

    def test_gauss_binary_verdicts(self):
        by_id = {r.scheme_id: r for r in run_experiment("gauss-binary").schemes}
        assert by_id["2"].verdict == "violated"
        assert by_id["3"].verdict == "strict"
        assert by_id["3"].distortion_analytic == 0.0

    def test_uniform_grid_reports(self):
        by_id = {r.scheme_id: r for r in run_experiment("uniform-grid", samples=50_000).schemes}
        assert by_id["1"].verdict == "violated"
        assert by_id["1"].source_entropy_bits == pytest.approx(math.log2(6), abs=1e-9)
        assert by_id["2"].verdict == "violated"
        assert by_id["3"].verdict == "boundary"
        assert by_id["3"].distortion_analytic == pytest.approx(1 / 9, abs=1e-15)
        assert by_id["3"].distortion_mc.samples == 50_000

    def test_gauss_diff_reports(self):
        by_id = {r.scheme_id: r for r in run_experiment("gauss-diff", samples=20_000).schemes}
        assert by_id["centralized"].distortion_analytic == pytest.approx(1 / 11)
        assert by_id["AF"].distortion_analytic == pytest.approx(1 / 6)
        assert by_id["AF"].distortion_mc is not None

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("nonesuch")


# (call, exception type, message) of refusals no other test reaches
REFUSALS = {
    "pair source with correlation 1.5": (
        lambda: GaussianPairSource(rho=1.5),
        ValueError, "correlation rho must lie in [-1, 1], got 1.5"),
    "correlation of a 3x2 pmf": (
        lambda: binary_pair_correlation(JointPMF(
            (Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1"))), np.full((3, 2), 1 / 6))),
        ValueError, "need a 2x2 pmf"),
    "correlation of a degenerate pmf": (
        lambda: binary_pair_correlation(JointPMF(
            (Alphabet("a", ("0", "1")), Alphabet("b", ("0", "1"))), [[1.0, 0.0], [0.0, 0.0]])),
        ValueError, "degenerate marginal; correlation undefined"),
    "quantizer with hi below lo": (
        lambda: GridQuantizer(1.0, 0.0, 3),
        ValueError, "need hi > lo, got [1.0, 0.0]"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_fault(case):
    assert_refuses(*REFUSALS[case])
