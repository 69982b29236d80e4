import math

import numpy as np
import pytest

from _support import loop_simplex_grid
from fcmac.channels import (
    DiscreteMAC,
    GaussianMAC,
    _simplex_grid,
    adder_mac,
    gmac_sum_rate,
    mac_mutual_info,
    mac_sum_capacity_independent,
)
from fcmac.graphs import SizeCapError
from fcmac.probability import Alphabet, AxisError, JointPMF, Kernel

LOG2_3 = math.log2(3.0)


def input_joint(mass) -> JointPMF:
    mac = adder_mac()
    return JointPMF(mac.input_alphabets, mass)


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

    @pytest.mark.parametrize("points", [2, 3, 11, 51])
    def test_simplex_grid_against_loop(self, points):
        for dim in range(1, 7):
            grid = _simplex_grid(dim, points)
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
