import functools
import math

import numpy as np
import pytest

from _support import einsum_grid_argmax, golden_capacity_reference, loop_simplex_grid
from fcmac import channels
from fcmac.channels import (
    DiscreteMAC,
    GaussianMAC,
    _block_gap,
    _block_scores,
    _grid_argmax,
    _simplex_counts,
    adder_mac,
    gmac_sum_rate,
    mac_mutual_info,
    mac_sum_capacity_independent,
)
from fcmac.graphs import SizeCapError
from fcmac.probability import Alphabet, AxisError, JointPMF, Kernel, plogp

LOG2_3 = math.log2(3.0)


def input_joint(mass) -> JointPMF:
    mac = adder_mac()
    return JointPMF(mac.input_alphabets, mass)


def random_mac(rng: np.random.Generator, n1: int, n2: int, ny: int,
               deterministic: bool = False) -> DiscreteMAC:
    x1 = Alphabet("x1", tuple(str(i) for i in range(n1)))
    x2 = Alphabet("x2", tuple(str(i) for i in range(n2)))
    y = Alphabet("y", tuple(str(i) for i in range(ny)))
    if deterministic:
        rows = np.eye(ny)[rng.integers(0, ny, size=n1 * n2)]
    else:
        rows = rng.dirichlet(np.full(ny, rng.choice([0.3, 1.0])), size=n1 * n2)
    return DiscreteMAC((x1, x2), y, Kernel((x1, x2), (y,), rows))


class TestAdderMac:
    def test_law_is_deterministic_sum(self):
        mac = adder_mac()
        law = mac.law_tensor
        assert law[0, 1, 1] == 1.0
        assert law[1, 1, 2] == 1.0
        for i in range(2):
            for j in range(2):
                row = law[i, j]
                assert row.sum() == 1.0
                assert (row == row.max()).sum() == 1  # each row a point mass


class TestMacMutualInfo:
    def test_independent_uniform_bits(self):
        value = mac_mutual_info(adder_mac(), input_joint(np.full((2, 2), 0.25)))
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_correlated_color_mapping(self):
        # mass 1/3 on (0,0), (0,1), (1,1): output is uniform ternary
        value = mac_mutual_info(adder_mac(),
                                input_joint([[1 / 3, 1 / 3], [0.0, 1 / 3]]))
        assert value == pytest.approx(LOG2_3, abs=1e-12)

    def test_constant_inputs_zero(self):
        value = mac_mutual_info(adder_mac(), input_joint([[1.0, 0.0], [0.0, 0.0]]))
        assert value == 0.0

    def test_alphabet_mismatch(self):
        bad = JointPMF((Alphabet("x1", ("a", "b")), Alphabet("x2", ("0", "1"))),
                       np.full((2, 2), 0.25))
        with pytest.raises(AxisError):
            mac_mutual_info(adder_mac(), bad)


class TestSumCapacity:
    def test_adder_value_and_argmax(self):
        res = mac_sum_capacity_independent(adder_mac())
        assert res.bits == pytest.approx(1.5, abs=1e-4)
        assert np.allclose(res.input1, [0.5, 0.5], atol=1e-4)
        assert np.allclose(res.input2, [0.5, 0.5], atol=1e-4)

    def test_output_independent_of_inputs(self):
        x1 = Alphabet("x1", ("0", "1"))
        x2 = Alphabet("x2", ("0", "1"))
        y = Alphabet("y", ("0", "1"))
        law = Kernel((x1, x2), (y,), np.full((4, 2), 0.5))
        mac = DiscreteMAC((x1, x2), y, law)
        assert mac_sum_capacity_independent(mac).bits == pytest.approx(0.0, abs=1e-9)

    def test_identity_on_first_input(self):
        x1 = Alphabet("x1", ("0", "1"))
        x2 = Alphabet("x2", ("0", "1"))
        y = Alphabet("y", ("0", "1"))
        mac = DiscreteMAC((x1, x2), y,
                          Kernel.deterministic((x1, x2), (y,), lambda a, b: a))
        assert mac_sum_capacity_independent(mac).bits == pytest.approx(1.0, abs=1e-6)

    def test_independent_capacity_below_correlated_input_rate(self):
        # correlation helps on the adder: 1.5 < log2(3)
        cap = mac_sum_capacity_independent(adder_mac()).bits
        correlated = mac_mutual_info(adder_mac(),
                                     input_joint([[1 / 3, 1 / 3], [0.0, 1 / 3]]))
        assert cap < correlated

    def test_mutual_info_bounds(self):
        rng = np.random.default_rng(31)
        mac = adder_mac()
        for _ in range(50):
            mass = rng.dirichlet(np.ones(4)).reshape(2, 2)
            value = mac_mutual_info(mac, input_joint(mass))
            h_in = -(mass[mass > 0] * np.log2(mass[mass > 0])).sum()
            assert -1e-12 <= value <= min(h_in, LOG2_3) + 1e-9

    def test_adder_stops_on_the_grid_certificate(self, monkeypatch):
        calls = []
        golden = channels._golden_max
        monkeypatch.setattr(channels, "_golden_max",
                            lambda *a: calls.append(a) or golden(*a))
        res = mac_sum_capacity_independent(adder_mac())
        assert calls == []
        assert res.bits == 1.5
        assert res.input1.tolist() == [0.5, 0.5] and res.input2.tolist() == [0.5, 0.5]
        assert res.gap1 == 0.0 and res.gap2 == 0.0

    def test_matches_the_golden_search_it_replaced(self):
        # |X1|, |X2| <= 2 and |Y| <= 4, a quarter of the laws deterministic
        rng = np.random.default_rng(1301)
        changed = []
        for k in range(200):
            n1, n2 = (int(n) for n in rng.integers(1, 3, size=2))
            mac = random_mac(rng, n1, n2, int(rng.integers(2, 5)), deterministic=k % 4 == 0)
            res = mac_sum_capacity_independent(mac)
            bits, in1, in2 = golden_capacity_reference(mac)
            if (res.bits, res.input1.tobytes(), res.input2.tobytes()) != (
                    bits, in1.tobytes(), in2.tobytes()):
                changed.append((k, (n1, n2, len(mac.output_alphabet)), res.bits - bits))
        assert all(d >= -1e-12 and abs(d) <= 1e-12 for _, _, d in changed), changed

    def test_gaps_are_reported_at_the_result(self):
        rng = np.random.default_rng(1302)
        for _ in range(10):
            mac = random_mac(rng, 2, 2, 3)
            res = mac_sum_capacity_independent(mac)
            law3 = mac.law_tensor
            rows = plogp(law3).sum(axis=2)
            assert res.gap1 == _block_gap(law3, rows, res.input1, res.input2)
            assert res.gap2 == _block_gap(law3.transpose(1, 0, 2), rows.T,
                                          res.input2, res.input1)
            assert res.gap1 >= -1e-12 and res.gap2 >= -1e-12

    def test_cap_on_large_alphabets(self):
        big = Alphabet("x1", tuple(str(i) for i in range(6)))
        x2 = Alphabet("x2", tuple(str(i) for i in range(6)))
        y = Alphabet("y", ("0", "1"))
        law = Kernel((big, x2), (y,), np.full((36, 2), 0.5))
        with pytest.raises(ValueError):
            mac_sum_capacity_independent(DiscreteMAC((big, x2), y, law))

    def test_grid_cap_is_a_size_cap(self):
        x1 = Alphabet("x1", tuple(str(i) for i in range(6)))
        x2 = Alphabet("x2", tuple(str(i) for i in range(6)))
        y = Alphabet("y", ("0", "1"))
        law = Kernel((x1, x2), (y,), np.full((36, 2), 0.5))
        with pytest.raises(SizeCapError, match="capacity grid of"):
            mac_sum_capacity_independent(DiscreteMAC((x1, x2), y, law))

    def test_cell_cap_refuses_before_any_grid(self, monkeypatch):
        class GridBuilt(Exception):
            pass

        def no_grid(*args):
            raise GridBuilt
        monkeypatch.setattr(channels, "_prefix_counts", no_grid)
        x1 = Alphabet("x1", ("0",))
        x2 = Alphabet("x2", tuple(str(i) for i in range(6)))
        # 3,478,761 grid points: 9 outputs are under 2**25 cells, 10 over
        for ny in (10_000, 10, 9):
            y = Alphabet("y", tuple(str(i) for i in range(ny)))
            mac = DiscreteMAC((x1, x2), y, Kernel((x1, x2), (y,), np.eye(ny)[:6]))
            if ny == 9:
                with pytest.raises(GridBuilt):
                    mac_sum_capacity_independent(mac)
            else:
                with pytest.raises(SizeCapError, match=f"times {ny} outputs exceeds the cap"):
                    mac_sum_capacity_independent(mac)

    @pytest.mark.parametrize("points", [2, 3, 11, 51])
    def test_simplex_grid_against_loop(self, points):
        for dim in range(1, 7):
            grid = np.divide(_simplex_counts(dim, points - 1), points - 1, dtype=float)
            if (dim, points) != (6, 51):
                want = loop_simplex_grid(dim, points)
                assert grid.dtype == want.dtype and grid.shape == want.shape
                assert grid.tobytes() == want.tobytes()
                continue
            # the loop takes about 25 s here, so check instead that the rows
            # are every composition of 50 into 6 counts, once each, in
            # strictly descending lexicographic order: the loop's order above
            counts = np.rint(grid * 50).astype(np.int64)
            assert grid.tobytes() == (counts / 50).tobytes()
            assert len(grid) == math.comb(55, 5)
            assert (counts >= 0).all() and (counts.sum(axis=1) == 50).all()
            assert (np.diff(counts @ 51 ** np.arange(5, -1, -1)) < 0).all()


class TestGridSweep:
    """The row-blocked sweep against the three-operand einsum sweep it
    replaced: the same argmax, ties included."""

    @staticmethod
    def argmax(mac):
        law3 = mac.law_tensor
        n1, n2 = law3.shape[:2]
        return _grid_argmax(law3, plogp(law3).sum(axis=2), _simplex_counts(n1, 50),
                            _simplex_counts(n2, 50), 50)

    @staticmethod
    @functools.cache
    def loop_grid(n):
        return loop_simplex_grid(n, 51)

    def einsum_argmax(self, mac):
        n1, n2 = mac.law_tensor.shape[:2]
        return einsum_grid_argmax(mac.law_tensor, self.loop_grid(n1), self.loop_grid(n2))

    def test_argmax_matches_the_einsum_sweep(self):
        # shapes up to 2x3 either way round, |Y| 2-5; a quarter of the laws
        # deterministic, the rest Dirichlet with alpha 0.3 or 1
        rng = np.random.default_rng(1801)
        shapes = [(n1, n2) for n1 in (1, 2, 3) for n2 in (1, 2, 3) if min(n1, n2) <= 2]
        for k in range(200):
            n1, n2 = shapes[rng.integers(len(shapes))]
            mac = random_mac(rng, n1, n2, int(rng.integers(2, 6)), deterministic=k % 4 == 0)
            assert self.argmax(mac) == self.einsum_argmax(mac), k

    @pytest.mark.parametrize("table, ny, want", [
        # log2(3) bits is reached at many grid points; a two-stage
        # matrix-product sweep rounds them differently and ranks another first
        ([[1, 2, 1], [0, 0, 2], [0, 1, 0]], 3, (577, 1257)),
        # summing the 10 outputs in order, not pairwise as np.sum adds a
        # last axis, ranks (450, 25) first
        ([[1, 0], [6, 8], [8, 7]], 10, (449, 25)),
    ], ids=["3x3-to-3", "3x2-to-10"])
    def test_exact_ties_rank_as_in_the_einsum_sweep(self, table, ny, want):
        x1 = Alphabet("x1", tuple(str(i) for i in range(len(table))))
        x2 = Alphabet("x2", tuple(str(i) for i in range(len(table[0]))))
        y = Alphabet("y", tuple(str(i) for i in range(ny)))
        law = Kernel.deterministic((x1, x2), (y,), lambda a, b: str(table[int(a)][int(b)]))
        mac = DiscreteMAC((x1, x2), y, law)
        assert self.argmax(mac) == self.einsum_argmax(mac) == want

    def test_argmax_across_block_edges(self, monkeypatch):
        # a few grid rows per block, one when a row alone is over the cells
        monkeypatch.setattr(channels, "_BLOCK_CELLS", 64)
        x = Alphabet("x1", ("0", "1"))
        x2 = Alphabet("x2", ("0", "1"))
        y = Alphabet("y", ("0", "1"))
        # y = x1 xor x2 ties at 1 bit wherever either input is uniform, in
        # blocks that come after the first such point in grid order
        xor = DiscreteMAC((x, x2), y,
                          Kernel.deterministic((x, x2), (y,), lambda a, b: str(int(a != b))))
        macs = [xor, adder_mac()]
        rng = np.random.default_rng(1802)
        for n1, n2 in ((1, 3), (3, 1), (1, 4), (4, 1), (2, 3), (3, 2)):
            for deterministic in (True, False):
                macs.append(random_mac(rng, n1, n2, int(rng.integers(2, 6)), deterministic))
        macs += [random_mac(rng, 2, 2, ny, deterministic) for ny in (8, 9, 17)
                 for deterministic in (True, False)]
        for k, mac in enumerate(macs):
            assert self.argmax(mac) == self.einsum_argmax(mac), k


class TestBlockGap:
    @staticmethod
    def parts(mac):
        law3 = mac.law_tensor
        return law3, plogp(law3).sum(axis=2)

    def test_weighted_scores_are_the_mutual_information(self):
        rng = np.random.default_rng(1303)
        for _ in range(50):
            n1, n2, ny = (int(n) for n in rng.integers(1, 5, size=3))
            mac = random_mac(rng, n1, n2, ny + 1)
            law3, rows = self.parts(mac)
            p1 = rng.dirichlet(np.ones(n1))
            p2 = rng.dirichlet(np.ones(n2))
            info = mac_mutual_info(mac, JointPMF(mac.input_alphabets, np.outer(p1, p2)))
            g1 = _block_scores(law3, rows, p1, p2)
            g2 = _block_scores(law3.transpose(1, 0, 2), rows.T, p2, p1)
            assert p1 @ g1 == pytest.approx(info, abs=1e-12)
            assert p2 @ g2 == pytest.approx(info, abs=1e-12)

    def test_gap_is_nonnegative_and_bounds_block_gains(self):
        rng = np.random.default_rng(1304)
        for _ in range(50):
            n1, n2, ny = (int(n) for n in rng.integers(1, 5, size=3))
            mac = random_mac(rng, n1, n2, ny + 1)
            law3, rows = self.parts(mac)
            p1 = rng.dirichlet(np.ones(n1))
            p2 = rng.dirichlet(np.ones(n2))
            gap = _block_gap(law3, rows, p1, p2)
            assert gap >= -1e-12
            # concavity in the block: no other first input gains more than the gap
            info = channels._product_mutual_info(law3, rows, p1, p2)
            for q in rng.dirichlet(np.ones(n1), size=20):
                assert channels._product_mutual_info(law3, rows, q, p2) <= info + gap + 1e-12

    def test_zero_at_the_adder_optimum(self):
        law3, rows = self.parts(adder_mac())
        half = np.array([0.5, 0.5])
        assert _block_gap(law3, rows, half, half) == 0.0
        assert _block_gap(law3.transpose(1, 0, 2), rows.T, half, half) == 0.0

    def test_infinite_when_a_block_can_open_an_unused_output(self):
        law3, rows = self.parts(adder_mac())
        zero = np.array([1.0, 0.0])
        # both inputs at 0: output 1 is unused, and x1 = 1 would open it
        assert _block_gap(law3, rows, zero, zero) == math.inf
        assert _block_scores(law3, rows, zero, zero).tolist() == [0.0, math.inf]
        # an output no symbol reaches leaves the gap finite
        x = Alphabet("x1", ("0", "1"))
        x2 = Alphabet("x2", ("0",))
        y = Alphabet("y", ("0", "1", "2"))
        mac = DiscreteMAC((x, x2), y, Kernel((x, x2), (y,), [[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
        law3, rows = self.parts(mac)
        gap = _block_gap(law3, rows, np.array([0.5, 0.5]), np.array([1.0]))
        assert math.isfinite(gap) and gap > 0


class TestGaussianSumRate:
    def test_quoted_operating_points(self):
        mac = GaussianMAC(power=5.0)
        assert gmac_sum_rate(mac, 0.0) == pytest.approx(1.7297, abs=1e-4)
        assert gmac_sum_rate(mac, 0.3) == pytest.approx(1.9037, abs=1e-4)

    def test_zero_power(self):
        assert gmac_sum_rate(GaussianMAC(0.0), 0.5) == 0.0

    def test_monotone_in_rho_and_power(self):
        rhos = np.linspace(-1, 1, 21)
        rates = [gmac_sum_rate(GaussianMAC(3.0), r) for r in rhos]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        powers = np.linspace(0, 10, 21)
        rates_p = [gmac_sum_rate(GaussianMAC(p), 0.2) for p in powers]
        assert all(b >= a - 1e-12 for a, b in zip(rates_p, rates_p[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gmac_sum_rate(GaussianMAC(1.0), 1.5)
        with pytest.raises(ValueError):
            GaussianMAC(-1.0)
        with pytest.raises(ValueError):
            GaussianMAC(1.0, noise_var=0.0)

    @pytest.mark.parametrize("power,noise_var,named", [
        (float("nan"), 1.0, "power"), (float("inf"), 1.0, "power"),
        (1.0, float("nan"), "noise_var"), (1.0, float("inf"), "noise_var")])
    def test_non_finite_parameters_rejected(self, power, noise_var, named):
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            GaussianMAC(power, noise_var)
