import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _support import (alph, assemble_joint, assert_refuses, frozen_check_bounds,
                      joint_expected_distortion, random_system_spec, reorder, value_at)
from fcmac import feasibility, presets
from fcmac.channels import DiscreteMAC, adder_mac
from fcmac.feasibility import (
    DistortionTable,
    SystemSpec,
    check_feasibility,
    expected_distortion,
    induce_remote_distortion,
    korner_marton_bounds,
    source_coding_region,
)
from fcmac.graphs import FunctionTable, SizeCapError
from fcmac.probability import (
    Alphabet,
    AxisError,
    JointPMF,
    Kernel,
    compose,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    validate,
)

LOG2_3 = math.log2(3.0)


class TestDistortionTable:
    def test_zero_iff_equal_enforced(self):
        with pytest.raises(ValueError):
            DistortionTable((0, 1), (0, 1), [[0.0, 1.0], [1.0, 0.5]])  # d(1,1) != 0
        with pytest.raises(ValueError):
            DistortionTable((0, 1), (0, 1), [[0.0, 0.0], [1.0, 0.0]])  # d(0,1) == 0
        with pytest.raises(ValueError):
            DistortionTable((0, 1), (0, 1), [[0.0, -1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(1, 0\) is not finite"):
            DistortionTable((0, 1), (0, 1), [[0.0, 1.0], [bad, 0.0]])

    @pytest.mark.parametrize("outputs, estimates, values", [
        ((0, 0), (0, 1), [[0.0, 1.0], [0.0, 5.0]]),   # cost(0, 1) would read either row
        ((0, 1), (1, 1.0), [[1.0, 1.0], [0.0, 0.0]]),  # 1 and 1.0 are one label
    ])
    def test_repeated_label_refused(self, outputs, estimates, values):
        with pytest.raises(ValueError, match="duplicate symbols"):
            DistortionTable(outputs, estimates, values)

    def test_cost_lookup(self):
        d = DistortionTable((0, 1), (0, 1), [[0.0, 2.0], [3.0, 0.0]])
        assert d.cost(0, 1) == 2.0
        assert d.cost(1, 0) == 3.0


class TestAssembleJoint:
    def test_ternary_support_and_axes(self):
        spec = presets.section5_system("joint")
        joint = assemble_joint(spec)
        assert joint.axis_names == ("u1", "u2", "z1", "z2", "z",
                                    "c1", "c2", "x1", "x2", "y")
        assert validate(joint).ok
        # deterministic chain: exactly the six off-diagonal source pairs survive
        assert int(np.count_nonzero(joint.mass)) == 6
        assert np.allclose(joint.mass[joint.mass > 0], 1 / 6)

    def test_point_mass_source_stays_point_mass(self):
        spec = presets.section5_system("joint")
        mass = np.zeros_like(spec.source_joint.mass)
        mass[0, 1, 0, 0, 0] = 1.0
        point = SystemSpec(JointPMF(spec.source_joint.axes, mass),
                           spec.w1_kernel, spec.w2_kernel, spec.x1_kernel,
                           spec.x2_kernel, spec.channel, spec.function,
                           spec.decoder, spec.distortion, spec.target_d)
        joint = assemble_joint(point)
        assert int(np.count_nonzero(joint.mass)) == 1

    def test_identity_kernels_reduce_to_source_times_channel(self):
        u1 = alph("u1", 2)
        u2 = alph("u2", 2)
        z1, z2, z = alph("z1", 1), alph("z2", 1), alph("z", 1)
        rng = np.random.default_rng(41)
        source = JointPMF((u1, u2, z1, z2, z),
                          rng.dirichlet(np.ones(4)).reshape(2, 2, 1, 1, 1))
        w1 = Alphabet("w1", u1.symbols)
        w2 = Alphabet("w2", u2.symbols)
        mac = adder_mac()
        x1a, x2a = mac.input_alphabets
        spec = SystemSpec(
            source,
            Kernel.deterministic((u1, z1), (w1,), lambda s, _: s),
            Kernel.deterministic((u2, z2), (w2,), lambda s, _: s),
            Kernel.deterministic((w1,), (x1a,), lambda s: "0" if s == "u10" else "1"),
            Kernel.deterministic((w2,), (x2a,), lambda s: "0" if s == "u20" else "1"),
            mac,
            FunctionTable.from_callable((u1, u2), lambda a, b: (a, b)),
            FunctionTable.from_callable((w1, w2, z), lambda a, b, _: (a, b)),
            DistortionTable(
                tuple((a, b) for a in u1.symbols for b in u2.symbols),
                tuple((a, b) for a in u1.symbols for b in u2.symbols),
                1.0 - np.eye(4)),
            target_d=0.0,
        )
        joint = assemble_joint(spec)
        # W mirrors U, X mirrors W, so I(U; everything else | X1, X2) = 0
        assert mutual_information(joint, ("u1", "u2"), "y", ("x1", "x2")) \
            == pytest.approx(0.0, abs=1e-12)
        assert entropy(joint, ("w1", "w2")) == pytest.approx(
            entropy(source, ("u1", "u2")), abs=1e-12)


class TestCheckFeasibility:
    def test_ternary_joint_code_boundary(self):
        report = check_feasibility(presets.section5_system("joint"))
        rec = report.record("sum")
        assert rec.lhs_bits == pytest.approx(LOG2_3, abs=1e-9)
        assert rec.rhs_bits == pytest.approx(LOG2_3, abs=1e-9)
        assert abs(rec.margin_bits) <= 1e-9
        assert rec.verdict == "boundary"
        assert report.achieved_distortion == pytest.approx(1 / 6, abs=1e-12)
        assert report.distortion_ok
        assert report.feasible(allow_boundary=True)
        assert not report.feasible(allow_boundary=False)

    def test_ternary_independent_code_violated(self):
        report = check_feasibility(presets.section5_system("independent"))
        rec = report.record("sum")
        assert rec.lhs_bits == pytest.approx(LOG2_3, abs=1e-9)
        assert rec.rhs_bits <= 1.5
        assert rec.verdict == "violated"
        assert not report.feasible(allow_boundary=True)

    def test_constant_everything_feasible_with_zero_distortion(self):
        u1, u2 = alph("u1", 2), alph("u2", 2)
        z1, z2, z = alph("z1", 1), alph("z2", 1), alph("z", 1)
        mass = np.zeros((2, 2, 1, 1, 1))
        mass[0, 0, 0, 0, 0] = 1.0
        w1, w2 = alph("w1", 1), alph("w2", 1)
        mac = adder_mac()
        x1a, x2a = mac.input_alphabets
        spec = SystemSpec(
            JointPMF((u1, u2, z1, z2, z), mass),
            Kernel.constant((u1, z1), (w1,), [1.0]),
            Kernel.constant((u2, z2), (w2,), [1.0]),
            Kernel.constant((w1,), (x1a,), [0.5, 0.5]),
            Kernel.constant((w2,), (x2a,), [0.5, 0.5]),
            mac,
            FunctionTable.from_callable((u1, u2), lambda a, b: "k"),
            FunctionTable.from_callable((w1, w2, z), lambda *_: "k"),
            DistortionTable(("k",), ("k",), [[0.0]]),
            target_d=0.0,
        )
        report = check_feasibility(spec)
        for rec in report.inequalities:
            assert rec.lhs_bits == pytest.approx(0.0, abs=1e-12)
        assert report.achieved_distortion == 0.0
        assert report.feasible(allow_boundary=True)

    def test_distortion_monotone_in_target(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            spec = random_system_spec(rng)
            report = check_feasibility(spec)
            if report.distortion_ok:
                larger = SystemSpec(spec.source_joint, spec.w1_kernel, spec.w2_kernel,
                                    spec.x1_kernel, spec.x2_kernel, spec.channel,
                                    spec.function, spec.decoder, spec.distortion,
                                    spec.target_d + 0.5)
                assert check_feasibility(larger).distortion_ok

    def test_zero_distortion_when_decoder_reproduces_function(self):
        report = check_feasibility(presets.grid_system())
        assert report.achieved_distortion == pytest.approx(0.0, abs=1e-15)

    def test_factorization_conditional_independence(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            spec = random_system_spec(rng)
            joint = assemble_joint(spec)
            n = spec.axis_names
            assert mutual_information(joint, n["w1"], (n["u2"], n["z2"], n["z"], n["w2"]),
                                      (n["u1"], n["z1"])) <= 1e-9
            assert mutual_information(joint, n["x1"],
                                      (n["u1"], n["u2"], n["z1"], n["z2"], n["z"],
                                       n["w2"], n["x2"]),
                                      n["w1"]) <= 1e-9
            assert mutual_information(joint, n["y"],
                                      (n["u1"], n["u2"], n["z1"], n["z2"], n["z"],
                                       n["w1"], n["w2"]),
                                      (n["x1"], n["x2"])) <= 1e-9

    def test_identity_function_configuration_reduces_to_source_informations(self):
        # function = the pair itself, W = U: left sides become source entropies
        u1, u2 = alph("u1", 2), alph("u2", 3)
        z1, z2, z = alph("z1", 1), alph("z2", 1), alph("z", 1)
        rng = np.random.default_rng(44)
        source = JointPMF((u1, u2, z1, z2, z),
                          rng.dirichlet(np.ones(6)).reshape(2, 3, 1, 1, 1))
        w1 = Alphabet("w1", u1.symbols)
        w2 = Alphabet("w2", u2.symbols)
        y = alph("y", 6)
        x1a, x2a = alph("x1", 2), alph("x2", 3)
        law = Kernel.deterministic((x1a, x2a), (y,),
                                   lambda a, b: f"y{int(a[-1]) * 3 + int(b[-1])}")
        pairs = tuple((a, b) for a in u1.symbols for b in u2.symbols)
        spec = SystemSpec(
            source,
            Kernel.deterministic((u1, z1), (w1,), lambda s, _: s),
            Kernel.deterministic((u2, z2), (w2,), lambda s, _: s),
            Kernel.deterministic((w1,), (x1a,), lambda s: f"x1{s[-1]}"),
            Kernel.deterministic((w2,), (x2a,), lambda s: f"x2{s[-1]}"),
            DiscreteMAC((x1a, x2a), y, law),
            FunctionTable.from_callable((u1, u2), lambda a, b: (a, b)),
            FunctionTable.from_callable((w1, w2, z), lambda a, b, _: (a, b)),
            DistortionTable(pairs, pairs, 1.0 - np.eye(6)),
            target_d=0.0,
        )
        report = check_feasibility(spec)
        assert report.record("encoder1").lhs_bits == pytest.approx(
            conditional_entropy(source, "u1", "u2"), abs=1e-9)
        assert report.record("encoder2").lhs_bits == pytest.approx(
            conditional_entropy(source, "u2", "u1"), abs=1e-9)
        assert report.record("sum").lhs_bits == pytest.approx(
            entropy(source, ("u1", "u2")), abs=1e-9)
        assert report.achieved_distortion == 0.0


class TestSourceCodingRegion:
    def test_deterministic_w_no_side_info_gives_corner_quantities(self):
        u1, u2 = alph("u1", 3), alph("u2", 3)
        z1, z2, z = alph("z1", 1), alph("z2", 1), alph("z", 1)
        rng = np.random.default_rng(45)
        source = JointPMF((u1, u2, z1, z2, z),
                          rng.dirichlet(np.ones(9)).reshape(3, 3, 1, 1, 1))
        w1 = Alphabet("w1", u1.symbols)
        w2 = Alphabet("w2", u2.symbols)
        bounds = source_coding_region(
            source,
            Kernel.deterministic((u1, z1), (w1,), lambda s, _: s),
            Kernel.deterministic((u2, z2), (w2,), lambda s, _: s))
        assert bounds.r1 == pytest.approx(conditional_entropy(source, "u1", "u2"),
                                          abs=1e-9)
        assert bounds.r2 == pytest.approx(conditional_entropy(source, "u2", "u1"),
                                          abs=1e-9)
        assert bounds.r_sum == pytest.approx(entropy(source, ("u1", "u2")), abs=1e-9)

    def test_one_sided_configuration_reduces_to_conditional_information(self):
        # constant second source and encoder side info independent of the rest:
        # the first rate bound collapses to I(U1; W1 | Z)
        rng = np.random.default_rng(46)
        u1 = alph("u1", 3)
        u2 = alph("u2", 1)
        z1, z2 = alph("z1", 2), alph("z2", 1)
        z = alph("z", 2)
        pu1z = rng.dirichlet(np.ones(6)).reshape(3, 2)
        pz1 = rng.dirichlet(np.ones(2))
        # axes order (u1, u2, z1, z2, z) with p = p(u1, z) * p(z1)
        mass = pu1z[:, None, None, None, :] * pz1[None, None, :, None, None]
        source = JointPMF((u1, u2, z1, z2, z), mass)
        w1 = alph("w1", 3)
        w2 = alph("w2", 1)
        rows = rng.dirichlet(np.ones(3), size=3)
        # kernel ignores z1 so W1 depends on U1 alone
        w1_kernel = Kernel((u1, z1), (w1,), np.repeat(rows, 2, axis=0))
        w2_kernel = Kernel.constant((u2, z2), (w2,), [1.0])
        bounds = source_coding_region(source, w1_kernel, w2_kernel)
        from fcmac.probability import compose
        joint = compose(source, [w1_kernel])
        expect = mutual_information(joint, "u1", "w1", "z")
        assert bounds.r1 == pytest.approx(expect, abs=1e-9)

    def test_ternary_colors_sum(self):
        spec = presets.section5_system("joint")
        bounds = source_coding_region(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
        assert bounds.r_sum == pytest.approx(LOG2_3, abs=1e-9)

    @staticmethod
    def seeded_binary_system(w1_axes):
        """Binary sources, one-symbol side information, a Dirichlet source
        and encoders; ``w1_axes`` are the first encoder's output axes."""
        rng = np.random.default_rng(1)
        bits = ("0", "1")
        u1, u2 = Alphabet("u1", bits), Alphabet("u2", bits)
        z1, z2, z = alph("z1", 1), alph("z2", 1), alph("z", 1)
        source = JointPMF((u1, u2, z1, z2, z), rng.dirichlet(np.ones(4)).reshape(2, 2, 1, 1, 1))
        w1 = Kernel((u1, z1), w1_axes, rng.dirichlet(np.ones(2), size=2))
        w2 = Kernel((u2, z2), (Alphabet("w2", bits),), rng.dirichlet(np.ones(2), size=2))
        return source, w1, w2

    def test_refuses_a_codeword_named_as_the_side_information(self):
        bits = ("0", "1")
        bounds = source_coding_region(*self.seeded_binary_system((Alphabet("w1", bits),)))
        assert bounds.r1 == pytest.approx(0.0973017, abs=1e-7)
        assert bounds.r_sum == pytest.approx(0.3283217, abs=1e-7)
        # the same system with w1 named z read r1 = 0 and r_sum = -0.639
        with pytest.raises(AxisError,
                           match="^axis name 'z' is used twice among the seven source axes$"):
            source_coding_region(*self.seeded_binary_system((Alphabet("z", bits),)))

    def test_refuses_a_two_axis_codeword(self):
        two_axes = (Alphabet("w1", ("0", "1")), Alphabet("w1b", ("0",)))
        with pytest.raises(AxisError, match="^encoder kernels must emit a single axis$"):
            source_coding_region(*self.seeded_binary_system(two_axes))


class TestInducedRemoteDistortion:
    def test_identity_posterior_matches_direct_table(self):
        u = alph("u", 3)
        zt = alph("zt", 2)
        uc = Alphabet("uc", u.symbols)
        zc = Alphabet("zc", zt.symbols)
        post = Kernel.deterministic((u, zt), (uc, zc), lambda a, b: (a, b))
        f = FunctionTable.from_callable((uc, zc), lambda a, b: (a, b))
        w = alph("w", 2)
        g = FunctionTable.from_callable((w, zt),
                                        lambda wv, zv: ("u0" if wv == "w0" else "u1", zv))
        labels = tuple((a, b) for a in u.symbols for b in zt.symbols)
        d = DistortionTable(labels, labels, 1.0 - np.eye(6))
        table = induce_remote_distortion(post, f, g, d)
        for i, us in enumerate(u.symbols):
            for j, zs in enumerate(zt.symbols):
                for k, ws in enumerate(w.symbols):
                    direct = d.cost(value_at(f, us, zs), value_at(g, ws, zs))
                    assert table[i, j, k] == pytest.approx(direct, abs=1e-15)

    def test_uniform_posterior_averages(self):
        ut = alph("ut", 1)
        zt = alph("zt", 1)
        uc = alph("uc", 2)
        zc = alph("zc", 1)
        post = Kernel((ut, zt), (uc, zc), [[0.5, 0.5]])
        f = FunctionTable.from_callable((uc, zc), lambda a, _: a)
        w = alph("w", 1)
        g = FunctionTable.from_callable((w, zt), lambda *_: "est")
        d = DistortionTable(("uc0", "uc1"), ("est",), [[2.0], [4.0]])
        table = induce_remote_distortion(post, f, g, d)
        assert table[0, 0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_binary_symmetric_noise_gives_crossover_cost(self):
        eps = 0.1
        ut = alph("ut", 2)   # observed
        zt = alph("zt", 1)
        uc = alph("uc", 2)   # clean
        zc = alph("zc", 1)
        post = Kernel((ut, zt), (uc, zc), [[1 - eps, eps], [eps, 1 - eps]])
        f = FunctionTable.from_callable((uc, zc), lambda a, _: a)
        w = alph("w", 2)
        g = FunctionTable.from_callable((w, zt),
                                        lambda wv, _: "uc0" if wv == "w0" else "uc1")
        d = DistortionTable(("uc0", "uc1"), ("uc0", "uc1"), [[0.0, 1.0], [1.0, 0.0]])
        table = induce_remote_distortion(post, f, g, d)
        # matched estimate errs exactly when the observation was flipped
        assert table[0, 0, 0] == pytest.approx(eps, abs=1e-15)
        assert table[1, 0, 1] == pytest.approx(eps, abs=1e-15)
        assert table[0, 0, 1] == pytest.approx(1 - eps, abs=1e-15)


class TestKornerMartonBounds:
    def test_values(self):
        assert korner_marton_bounds(0.5) == (1.0, 1.0)
        assert korner_marton_bounds(0.0) == (0.0, 0.0)
        r1, r2 = korner_marton_bounds(0.25)
        assert r1 == pytest.approx(0.8113, abs=5e-5)
        assert r1 == r2

    def test_domain(self):
        with pytest.raises(ValueError):
            korner_marton_bounds(1.2)


class TestSpecValidation:
    def test_broken_chain_rejected(self):
        spec = presets.section5_system("joint")
        wrong = Kernel.deterministic(
            (Alphabet("u1", ("9", "8", "7")), spec.source_joint.axes[2]),
            (Alphabet("c1", presets.BITS),), lambda s, _: "0")
        with pytest.raises(AxisError):
            SystemSpec(spec.source_joint, wrong, spec.w2_kernel, spec.x1_kernel,
                       spec.x2_kernel, spec.channel, spec.function, spec.decoder,
                       spec.distortion, spec.target_d)

    def test_negative_target_rejected(self):
        spec = presets.section5_system("joint")
        with pytest.raises(ValueError):
            SystemSpec(spec.source_joint, spec.w1_kernel, spec.w2_kernel,
                       spec.x1_kernel, spec.x2_kernel, spec.channel, spec.function,
                       spec.decoder, spec.distortion, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_target_rejected(self, bad):
        spec = presets.section5_system("joint")
        with pytest.raises(ValueError, match="finite"):
            SystemSpec(spec.source_joint, spec.w1_kernel, spec.w2_kernel,
                       spec.x1_kernel, spec.x2_kernel, spec.channel, spec.function,
                       spec.decoder, spec.distortion, bad)

    @pytest.mark.parametrize("role, name", [("x1", "u1"), ("w2", "w1"), ("w1", "u1"),
                                            ("y", "z"), ("x2", "w2")])
    def test_repeated_axis_name_refused(self, role, name):
        spec = random_system_spec(np.random.default_rng(52))
        with pytest.raises(AxisError,
                           match=f"axis name '{name}' is used twice among the ten system axes"):
            _with_axis_renamed(spec, spec.axis_names[role], name)

    def test_expected_distortion_matches_manual_sum(self):
        rng = np.random.default_rng(47)
        spec = random_system_spec(rng)
        joint = assemble_joint(spec)
        n = spec.axis_names
        total = 0.0
        marg = reorder(marginalize(joint, (n["u1"], n["u2"], n["w1"], n["w2"], n["z"])),
                       (n["u1"], n["u2"], n["w1"], n["w2"], n["z"]))
        for idx in np.ndindex(marg.mass.shape):
            p = marg.mass[idx]
            if p == 0:
                continue
            u1s, u2s, w1s, w2s, zs = (a.symbols[i] for a, i in zip(marg.axes, idx))
            total += p * spec.distortion.cost(value_at(spec.function, u1s, u2s),
                                              value_at(spec.decoder, w1s, w2s, zs))
        assert expected_distortion(spec) == pytest.approx(total, abs=1e-12)


def _with_axis_renamed(spec, old, new):
    """``spec`` rebuilt with the axis named ``old`` renamed ``new`` wherever
    it appears; the function and decoder domains are matched by symbols."""
    def ren(axes):
        return tuple(Alphabet(new, a.symbols) if a.name == old else a for a in axes)

    def kernel(k):
        return Kernel(ren(k.from_axes), ren(k.to_axes), k.rows)

    law = kernel(spec.channel.law)
    return dataclasses.replace(
        spec, source_joint=JointPMF(ren(spec.source_joint.axes), spec.source_joint.mass),
        w1_kernel=kernel(spec.w1_kernel), w2_kernel=kernel(spec.w2_kernel),
        x1_kernel=kernel(spec.x1_kernel), x2_kernel=kernel(spec.x2_kernel),
        channel=DiscreteMAC(law.from_axes, law.to_axes[0], law))


def _dense_values(spec):
    """The three (lhs, rhs) pairs and the distortion on the ten-axis joint."""
    joint = assemble_joint(spec)
    n = spec.axis_names
    return [
        mutual_information(joint, (n["u1"], n["z1"]), n["w1"], (n["w2"], n["z"])),
        mutual_information(joint, n["x1"], n["y"], (n["x2"], n["w2"], n["z"])),
        mutual_information(joint, (n["u2"], n["z2"]), n["w2"], (n["w1"], n["z"])),
        mutual_information(joint, n["x2"], n["y"], (n["x1"], n["w1"], n["z"])),
        mutual_information(joint, (n["u1"], n["u2"], n["z1"], n["z2"]),
                           (n["w1"], n["w2"]), n["z"]),
        mutual_information(joint, (n["x1"], n["x2"]), n["y"], n["z"]),
        joint_expected_distortion(spec, joint),
    ]


def _report_values(report):
    return ([v for r in report.inequalities for v in (r.lhs_bits, r.rhs_bits)]
            + [report.achieved_distortion])


def _one_hot_kernel(rng, kernel):
    """A kernel on ``kernel``'s axes whose every row is a point mass."""
    n_from, n_to = kernel.rows.shape
    return Kernel(kernel.from_axes, kernel.to_axes,
                  np.eye(n_to)[rng.integers(0, n_to, size=n_from)])


def _constant_kernel(rng, kernel, support=None):
    """A kernel on ``kernel``'s axes whose rows are one pmf, drawn on
    ``support`` random symbols (on all of them by default)."""
    n_to = kernel.rows.shape[1]
    row = np.zeros(n_to)
    on = rng.permutation(n_to)[:support or n_to]
    row[on] = rng.dirichlet(np.ones(len(on)))
    return Kernel.constant(kernel.from_axes, kernel.to_axes, row)


def _with_zero_mass_cells(rng, spec):
    """``spec`` with about half of its source cells set to zero mass."""
    mass = spec.source_joint.mass.copy()
    mass[rng.random(mass.shape) < 0.5] = 0.0
    mass.flat[rng.integers(mass.size)] += 0.25      # never all zero
    return dataclasses.replace(spec, source_joint=JointPMF(spec.source_joint.axes,
                                                           mass / mass.sum()))


def _with_injective_function(rng, spec, unused_labels=0):
    """``spec`` with a function that gives each source pair a label of its
    own (|U1||U2| labels) and a new cost table over them, which lists
    ``unused_labels`` more that the function never takes."""
    n_u1, n_u2 = (len(a) for a in spec.function.domain_axes)
    outputs = tuple(f"p{i}" for i in range(n_u1 * n_u2 + unused_labels))
    estimates = spec.distortion.estimate_labels
    return dataclasses.replace(
        spec,
        function=FunctionTable(spec.function.domain_axes,
                               np.array(outputs[:n_u1 * n_u2]).reshape(n_u1, n_u2)),
        distortion=DistortionTable(outputs, estimates,
                                   rng.uniform(0.2, 1.0, size=(len(outputs), len(estimates)))))


def _with_unused_labels(rng, spec, count):
    """``spec`` whose cost table lists ``count`` function labels more, each
    never taken by the function; the expected distortion is unchanged."""
    dist = spec.distortion
    extra = tuple(f"unused{i}" for i in range(count))
    values = np.vstack([dist.values,
                        rng.uniform(0.2, 1.0, size=(count, len(dist.estimate_labels)))])
    return dataclasses.replace(spec, distortion=DistortionTable(
        tuple(dist.output_labels) + extra, dist.estimate_labels, values))


def _degenerate_spec(rng, kind):
    if kind == "singleton side information":
        sizes = {n: int(rng.integers(2, 4)) for n in ("u1", "u2", "w1", "w2", "y")}
        return random_system_spec(rng, dict(sizes, z1=1, z2=1, z=1, x1=2, x2=2))
    spec = random_system_spec(rng)
    if kind == "zero-mass source cells":
        return _with_zero_mass_cells(rng, spec)
    if kind == "deterministic encoders":
        return dataclasses.replace(spec, w1_kernel=_one_hot_kernel(rng, spec.w1_kernel),
                                   w2_kernel=_one_hot_kernel(rng, spec.w2_kernel))
    spec = _with_zero_mass_cells(rng, _degenerate_spec(rng, "singleton side information"))
    return dataclasses.replace(spec, w1_kernel=_one_hot_kernel(rng, spec.w1_kernel))


class TestCliqueCheck:
    """The check, evaluated from the two encoder joints and the channel
    clique, against the dense ten-axis reference."""

    @pytest.mark.parametrize("spec", [presets.section5_system("joint"),
                                      presets.section5_system("independent"),
                                      presets.grid_system()],
                             ids=["section5-joint", "section5-independent", "grid"])
    def test_matches_dense_joint_on_presets(self, spec):
        got = _report_values(check_feasibility(spec))
        assert np.max(np.abs(np.subtract(got, _dense_values(spec)))) <= 1e-12

    def test_matches_dense_joint_on_random_systems(self):
        rng = np.random.default_rng(72)   # the systems of acceptance criterion 7
        worst = 0.0
        for _ in range(100):
            spec = random_system_spec(rng)
            got = _report_values(check_feasibility(spec))
            worst = max(worst, float(np.max(np.abs(np.subtract(got, _dense_values(spec))))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", ["zero-mass source cells", "deterministic encoders",
                                      "singleton side information", "all three"])
    def test_matches_dense_joint_on_degenerate_systems(self, kind):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(40):
            spec = _degenerate_spec(rng, kind)
            report = check_feasibility(spec)
            got = _report_values(report)
            worst = max(worst, float(np.max(np.abs(np.subtract(got, _dense_values(spec))))))
            bounds = source_coding_region(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
            assert dataclasses.astuple(bounds) == tuple(r.lhs_bits for r in report.inequalities)
        assert worst <= 1e-12

    def test_source_coding_region_is_the_left_hand_sides(self):
        spec = random_system_spec(np.random.default_rng(48))
        lhs = tuple(r.lhs_bits for r in check_feasibility(spec).inequalities)
        bounds = source_coding_region(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
        assert dataclasses.astuple(bounds) == lhs

    def test_bounds_match_the_wrapped_measures_bit_for_bit(self):
        # Every marginal is summed from the same array over the same axes as
        # when each was a JointPMF, so every bound keeps its bits. The
        # distortion takes no marginal; the report must carry it unchanged.
        rng = np.random.default_rng(2201)
        wide = dict(u1=5, u2=4, z1=3, z2=2, z=3, w1=5, w2=4, x1=3, x2=2, y=4)
        specs = [presets.section5_system("joint"), presets.section5_system("independent"),
                 presets.grid_system()]
        specs += [random_system_spec(rng) for _ in range(400)]
        specs += [random_system_spec(rng, wide) for _ in range(40)]
        for spec in specs:
            report = check_feasibility(spec)
            want = [v.hex() for v in frozen_check_bounds(spec)]
            assert [r.lhs_bits.hex() for r in report.inequalities] == want[:3]
            assert [r.rhs_bits.hex() for r in report.inequalities] == want[3:]
            region = source_coding_region(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
            assert [v.hex() for v in dataclasses.astuple(region)] == want[:3]
            assert report.achieved_distortion.hex() == expected_distortion(spec).hex()

    def test_constant_encoders_give_zero_left_hand_sides(self):
        # W independent of (U, Z), so every left-hand side is 0. A constant
        # point mass gives exactly 0.0; any other constant row leaves round-off,
        # which may sit just above zero but is clamped where it falls below
        rng = np.random.default_rng(54)
        for _ in range(100):
            spec = random_system_spec(rng)
            point = dataclasses.replace(spec, w1_kernel=_constant_kernel(rng, spec.w1_kernel, 1),
                                        w2_kernel=_constant_kernel(rng, spec.w2_kernel, 1))
            spread = dataclasses.replace(spec, w1_kernel=_constant_kernel(rng, spec.w1_kernel),
                                         w2_kernel=_constant_kernel(rng, spec.w2_kernel))
            for system, most in ((point, 0.0), (spread, 1e-14)):
                lhs = [r.lhs_bits for r in check_feasibility(system).inequalities]
                bounds = source_coding_region(system.source_joint, system.w1_kernel,
                                              system.w2_kernel)
                assert dataclasses.astuple(bounds) == tuple(lhs)
                assert all(0.0 <= v <= most for v in lhs), lhs

    def test_never_builds_the_dense_joint(self, monkeypatch):
        spec = presets.section5_system("joint")
        built = []

        def recording(base, kernels):
            joint = compose(base, kernels)
            built.append(len(joint.axes))
            return joint

        monkeypatch.setattr(feasibility, "compose", recording)
        report = check_feasibility(spec)
        assert report.record("sum").verdict == "boundary"
        assert expected_distortion(spec) == report.achieved_distortion
        source_coding_region(spec.source_joint, spec.w1_kernel, spec.w2_kernel)
        assert built == [6]     # the channel clique; the dense joint has 10 axes

        # No 7-axis tensor either: one array on (u1, u2, z1, z2, z, w1, w2)
        # takes 2 MB here, the encoder joints 64 KB each and
        # p(u1, u2, z, w1, w2) 128 KB.
        sizes = dict(u1=8, u2=8, z1=4, z2=4, z=4, w1=8, w2=8, x1=2, x2=2, y=2)
        spec = random_system_spec(np.random.default_rng(55), sizes)
        seven_axis_bytes = 8 * math.prod(sizes[n] for n in ("u1", "u2", "z1", "z2", "z",
                                                           "w1", "w2"))
        for call in (lambda: check_feasibility(spec), lambda: expected_distortion(spec),
                     lambda: source_coding_region(spec.source_joint, spec.w1_kernel,
                                                  spec.w2_kernel)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < seven_axis_bytes / 2

    def test_peak_memory_of_a_large_check(self):
        # 131,072 cells in the seven-axis source product; the dense joint would have 5.9 M
        sizes = dict(u1=16, u2=16, z1=2, z2=2, z=2, w1=8, w2=8, x1=3, x2=3, y=5)
        spec = random_system_spec(np.random.default_rng(49), sizes)
        tracemalloc.start()
        try:
            check_feasibility(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_many_function_labels_match_dense_joint(self):
        # more labels than min(|U1|, |W2|): the cost is gathered per source pair
        rng = np.random.default_rng(56)
        worst = 0.0
        for _ in range(40):
            spec = _with_injective_function(rng, random_system_spec(rng))
            dense = joint_expected_distortion(spec, assemble_joint(spec))
            worst = max(worst, abs(expected_distortion(spec) - dense))
        assert worst <= 1e-12

    def test_label_sum_and_pair_gather_agree(self):
        # the same system read by the per-label sum, then, with its cost table
        # padded past min(|U1|, |W2|) labels, by the per-pair gather
        rng = np.random.default_rng(57)
        sizes = dict(u1=6, u2=5, z1=2, z2=3, z=2, w1=4, w2=5, x1=2, x2=2, y=2)
        for _ in range(20):
            spec = random_system_spec(rng, sizes)     # 3 labels
            padded = _with_unused_labels(rng, spec, 3)
            assert expected_distortion(padded) == pytest.approx(expected_distortion(spec),
                                                                rel=1e-14, abs=1e-15)

    def test_peak_memory_with_an_injective_function(self):
        # 4,096 function labels; 1,048,576 cells in the seven-axis product and
        # 8 MB in p(u1, u2, z, w1, w2). A one-hot over labels and u1 per u2
        # would take 134 MB.
        sizes = dict(u1=64, u2=64, z1=1, z2=1, z=1, w1=16, w2=16, x1=2, x2=2, y=2)
        rng = np.random.default_rng(58)
        spec = _with_injective_function(rng, random_system_spec(rng, sizes))
        pair_bytes = 8 * 64 * 64 * 16 * 16
        for call in (lambda: check_feasibility(spec), lambda: expected_distortion(spec)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * pair_bytes

    def test_source_clique_over_the_cap_refused_before_composing(self, monkeypatch):
        sizes = dict(u1=3, u2=3, z1=2, z2=2, z=2, w1=3, w2=3, x1=2, x2=2, y=2)
        spec = random_system_spec(np.random.default_rng(50), sizes)
        monkeypatch.setattr(feasibility, "FEASIBILITY_CELL_CAP", 647)  # channel clique: 144
        monkeypatch.setattr(feasibility, "compose", None)   # any call would fail
        for call in (lambda: check_feasibility(spec), lambda: expected_distortion(spec),
                     lambda: source_coding_region(spec.source_joint, spec.w1_kernel,
                                                  spec.w2_kernel)):
            with pytest.raises(SizeCapError, match=r"source product \(u1, u2, z1, z2, z,"
                                                   r" w1, w2\) has 648 cells"):
                call()

    def test_channel_clique_over_the_cap_refused(self, monkeypatch):
        sizes = dict(u1=2, u2=2, z1=1, z2=1, z=1, w1=2, w2=2, x1=4, x2=4, y=8)
        spec = random_system_spec(np.random.default_rng(51), sizes)
        monkeypatch.setattr(feasibility, "FEASIBILITY_CELL_CAP", 100)   # source clique: 16
        monkeypatch.setattr(feasibility, "compose", None)
        with pytest.raises(SizeCapError,
                           match=r"channel clique \(w1, w2, z, x1, x2, y\) has 512 cells"):
            check_feasibility(spec)


# (call, exception type, message) of refusals no other test reaches
REFUSALS = {
    "distortion table of the wrong shape": (
        lambda: DistortionTable((0, 1), (0, 1), [[0.0, 1.0]]),
        ValueError, "distortion shape (1, 2) != (2, 2)"),
    "section 5 system with an unknown code": (
        lambda: presets.section5_system("x"),
        ValueError, "code must be 'joint' or 'independent', got 'x'"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_fault(case):
    assert_refuses(*REFUSALS[case])
