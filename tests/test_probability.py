import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _support import (
    alph,
    assert_refuses,
    assemble_joint,
    dict_conditional_entropy,
    loop_conditional_entropy,
    loop_mutual_information,
    pmf_as_dict,
    random_pmf,
    reorder,
)
from fcmac import presets, probability
from fcmac.probability import (
    Alphabet,
    AxisError,
    JointPMF,
    Kernel,
    binary_entropy,
    compose,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    slepian_wolf_bounds,
    validate,
)

LOG2_3 = math.log2(3.0)


def uniform2x2():
    a = Alphabet("a", ("0", "1"))
    b = Alphabet("b", ("0", "1"))
    return JointPMF((a, b), np.full((2, 2), 0.25))


class TestAlphabet:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet("a", ())
        with pytest.raises(ValueError):
            Alphabet("a", ("x", "x"))

    def test_index_is_positional(self):
        a = Alphabet("a", ("p", "q", "r"))
        assert [a.index(s) for s in a.symbols] == [0, 1, 2]
        with pytest.raises(KeyError, match="'missing' is not a symbol of alphabet 'a'"):
            a.index("missing")
        with pytest.raises(KeyError):
            a.index(["unhashable"])


class TestJointPMFStorage:
    def test_caller_array_is_copied(self):
        mass = np.full((2, 2), 0.25)
        pmf = JointPMF(uniform2x2().axes, mass)
        mass[0, 0] = 7.0
        assert pmf.mass[0, 0] == 0.25
        assert not pmf.mass.flags.writeable

    def test_compose_result_is_not_copied_again(self):
        a = Alphabet("a", tuple(range(1000)))
        b = Alphabet("b", tuple(range(1000)))
        base = JointPMF((a,), np.full(1000, 1e-3))
        kernel = Kernel((a,), (b,), np.full((1000, 1000), 1e-3))
        tracemalloc.start()
        try:
            joint = compose(base, [kernel])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * joint.mass.nbytes
        assert not joint.mass.flags.writeable
        assert not marginalize(joint, "b").mass.flags.writeable


class TestValidate:
    def test_uniform_ok(self):
        assert validate(uniform2x2()).ok

    def test_sum_at_tolerance_boundary_ok(self):
        pmf = JointPMF(uniform2x2().axes, [[0.25, 0.25], [0.25, 0.249999999]])
        assert abs(pmf.mass.sum() - 1.0) <= 1e-9
        assert validate(pmf).ok

    def test_clearly_unnormalized_rejected(self):
        pmf = JointPMF(uniform2x2().axes, [[0.25, 0.25], [0.25, 0.2499999]])
        report = validate(pmf)
        assert not report.ok
        assert report.problems[0].kind == "not_normalized"

    def test_negative_entry_named_with_index_and_magnitude(self):
        pmf = JointPMF(uniform2x2().axes, [[0.6, 0.5], [-0.1, 0.0]])
        report = validate(pmf)
        kinds = {p.kind for p in report.problems}
        assert "negative_entry" in kinds
        neg = [p for p in report.problems if p.kind == "negative_entry"][0]
        assert neg.index == (1, 0)
        assert neg.magnitude == -0.1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_reported(self, bad):
        pmf = JointPMF(uniform2x2().axes, [[0.25, bad], [0.25, 0.25]])
        report = validate(pmf)
        assert not report.ok
        assert report.problems[0].kind == "non_finite_entry"
        assert report.problems[0].index == (0, 1)


class TestMarginalize:
    def test_ternary_row_sums(self):
        # off-diagonal mass 1/6: every row sums to 1/3
        base = presets.ternary_source_joint()
        marg = marginalize(base, "u1")
        assert np.allclose(marg.mass, [1 / 3, 1 / 3, 1 / 3])

    def test_keep_all_axes_is_identity(self):
        base = presets.ternary_source_joint()
        same = marginalize(base, ("u1", "u2"))
        assert same.axis_names == base.axis_names
        assert np.array_equal(same.mass, base.mass)

    def test_product_pmf_recovers_factor(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(4))
        pmf = JointPMF((Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1", "2", "3"))),
                       np.outer(p, q))
        assert np.allclose(marginalize(pmf, "b").mass, q)

    def test_unknown_axis_raises(self):
        with pytest.raises(AxisError):
            marginalize(uniform2x2(), "zzz")


class TestCompose:
    def test_deterministic_lift_copies_base_mass(self):
        base = presets.ternary_source_joint()
        k1 = Kernel.deterministic((base.axes[0],), (Alphabet("w1", presets.TERNARY),),
                                  lambda s: s)
        k2 = Kernel.deterministic((base.axes[1],), (Alphabet("w2", presets.TERNARY),),
                                  lambda s: s)
        joint = compose(base, [k1, k2])
        for i in range(3):
            for j in range(3):
                assert joint.mass[i, j, i, j] == pytest.approx(base.mass[i, j])
        assert entropy(joint, ("w1", "w2")) == pytest.approx(entropy(base, ("u1", "u2")))

    def test_ternary_color_chain_output_is_uniform(self):
        # hand enumeration: the six source pairs map to channel sums 0, 1, 2
        # with two pairs each, so the output marginal is uniform
        base = presets.ternary_source_joint()
        from fcmac.channels import adder_mac
        mac = adder_mac()
        x1, x2 = mac.input_alphabets
        joint = compose(base, [
            presets.color_kernel_single("u1", "c1"),
            presets.color_kernel_single("u2", "c2"),
            Kernel.deterministic((Alphabet("c1", presets.BITS),), (x1,), lambda c: c),
            Kernel.deterministic((Alphabet("c2", presets.BITS),), (x2,),
                                 lambda c: "1" if c == "0" else "0"),
            mac.law,
        ])
        assert np.allclose(marginalize(joint, "y").mass, [1 / 3, 1 / 3, 1 / 3])
        assert validate(joint).ok

    def test_constant_kernel_appends_point_mass(self):
        base = uniform2x2()
        k = Kernel.constant(base.axes, (Alphabet("c", ("only",)),), [1.0])
        joint = compose(base, [k])
        assert joint.mass.shape == (2, 2, 1)
        assert np.allclose(joint.mass[..., 0], base.mass)

    def test_axis_mismatch_raises(self):
        base = uniform2x2()
        foreign = Alphabet("q", ("0", "1"))
        k = Kernel.deterministic((foreign,), (Alphabet("r", ("0",)),), lambda s: "0")
        with pytest.raises(AxisError):
            compose(base, [k])

    def test_bad_kernel_rows_rejected(self):
        a = Alphabet("a", ("0", "1"))
        with pytest.raises(ValueError):
            Kernel((a,), (Alphabet("b", ("0", "1")),), [[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValueError):
            Kernel((a,), (Alphabet("b", ("0", "1")),), [[1.1, -0.1], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kernel_rows_rejected(self, bad):
        a = Alphabet("a", ("0", "1"))
        with pytest.raises(ValueError, match=r"\(1, 0\) is not finite"):
            Kernel((a,), (Alphabet("b", ("0", "1")),), [[0.5, 0.5], [bad, 0.5]])


class TestEntropy:
    def test_ternary_pair_entropy(self):
        base = presets.ternary_source_joint()
        assert entropy(base, ("u1", "u2")) == pytest.approx(math.log2(6), abs=1e-12)

    def test_point_mass_zero(self):
        pmf = JointPMF((Alphabet("a", ("0", "1")),), [1.0, 0.0])
        assert entropy(pmf, "a") == 0.0

    def test_color_marginal(self):
        # colors split 2/3 vs 1/3
        pmf = JointPMF((Alphabet("c", ("0", "1")),), [2 / 3, 1 / 3])
        assert entropy(pmf, "c") == pytest.approx(LOG2_3 - 2 / 3, abs=1e-12)

    def test_empty_axis_set_raises(self):
        with pytest.raises(AxisError):
            entropy(uniform2x2(), ())


class TestConditionalEntropy:
    def test_side_information_value_against_dict_oracle(self):
        with_z = presets.ternary_with_side_info()
        colored = compose(with_z, [presets.color_kernel_single("u1", "c1"),
                                   presets.color_kernel_single("u2", "c2")])
        value = conditional_entropy(colored, ("c1", "c2"), "z")
        d = pmf_as_dict(colored)
        pos = {n: i for i, n in enumerate(colored.axis_names)}
        oracle = dict_conditional_entropy(d, (pos["c1"], pos["c2"]), (pos["z"],))
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(4 / 3, abs=1e-9)

    def test_duplicated_axis_gives_zero(self):
        # H(copy | original) vanishes for a deterministic duplicate
        base = marginalize(presets.ternary_source_joint(), "u1")
        copy = Kernel.deterministic((base.axes[0],), (Alphabet("dup", presets.TERNARY),),
                                    lambda s: s)
        joint = compose(base, [copy])
        assert conditional_entropy(joint, "dup", "u1") == pytest.approx(0.0, abs=1e-12)

    def test_independent_axes(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(2))
        pmf = JointPMF((Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1"))),
                       np.outer(p, q))
        assert conditional_entropy(pmf, "a", "b") == pytest.approx(entropy(pmf, "a"),
                                                                   abs=1e-12)

    def test_overlap_raises(self):
        with pytest.raises(AxisError):
            conditional_entropy(uniform2x2(), "a", "a")


class TestMutualInformation:
    def test_ternary_joint_code_value(self):
        reports = presets.section5_system("joint")
        joint = assemble_joint(reports)
        assert mutual_information(joint, ("x1", "x2"), "y") == pytest.approx(
            LOG2_3, abs=1e-9)

    def test_independent_axes_zero(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        pmf = JointPMF((Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1", "2"))),
                       np.outer(p, q))
        assert mutual_information(pmf, "a", "b") == pytest.approx(0.0, abs=1e-9)

    def test_injective_map_gives_full_entropy(self):
        base = marginalize(presets.ternary_source_joint(), "u1")
        inj = Kernel.deterministic((base.axes[0],), (Alphabet("img", ("x", "y", "z")),),
                                   lambda s: {"1": "x", "2": "y", "3": "z"}[s])
        joint = compose(base, [inj])
        assert mutual_information(joint, "u1", "img") == pytest.approx(
            entropy(joint, "u1"), abs=1e-12)

    def test_overlap_raises(self):
        with pytest.raises(AxisError):
            mutual_information(uniform2x2(), "a", "a")

    def test_empty_first_axis_set_names_this_function(self):
        with pytest.raises(AxisError,
                           match="^mutual_information needs a non-empty first axis set$"):
            mutual_information(uniform2x2(), (), "b")


class TestSlepianWolf:
    def test_ternary_colors_sum_bound(self):
        colored = compose(presets.ternary_source_joint(),
                          [presets.color_kernel_single("u1", "c1"),
                           presets.color_kernel_single("u2", "c2")])
        bounds = slepian_wolf_bounds(colored, "c1", "c2")
        assert bounds.sum_rate == pytest.approx(LOG2_3, abs=1e-9)

    def test_ternary_colors_with_side_info(self):
        colored = compose(presets.ternary_with_side_info(),
                          [presets.color_kernel_single("u1", "c1"),
                           presets.color_kernel_single("u2", "c2")])
        bounds = slepian_wolf_bounds(colored, "c1", "c2", "z")
        assert bounds.sum_rate == pytest.approx(4 / 3, abs=1e-9)

    def test_independent_fair_bits(self):
        pmf = uniform2x2()
        bounds = slepian_wolf_bounds(pmf, "a", "b")
        assert dataclasses.astuple(bounds) == pytest.approx((1.0, 1.0, 2.0), abs=1e-12)


class TestProperties:
    def test_chain_rule_and_ranges(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            sizes = rng.integers(2, 4, size=int(rng.integers(2, 4)))
            pmf = random_pmf(rng, sizes)
            names = pmf.axis_names
            a, b = names[0], names[1]
            lhs = entropy(pmf, (a, b))
            rhs = entropy(pmf, a) + conditional_entropy(pmf, b, a)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            for n in names:
                h = entropy(pmf, n)
                assert -1e-12 <= h <= math.log2(len(pmf.axis(n))) + 1e-12

    def test_mutual_information_symmetry_and_sign(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pmf = random_pmf(rng, rng.integers(2, 4, size=2))
            a, b = pmf.axis_names
            i_ab = mutual_information(pmf, a, b)
            i_ba = mutual_information(pmf, b, a)
            assert i_ab >= 0.0
            assert i_ab == pytest.approx(i_ba, abs=1e-9)

    def test_zero_information_iff_product(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            axes = (Alphabet("a", ("0", "1", "2")), Alphabet("b", ("0", "1", "2")))
            product = JointPMF(axes, np.outer(p, q))
            assert mutual_information(product, "a", "b") <= 1e-9
            coupled = random_pmf(rng, (3, 3), names=("a", "b"))
            gap = np.abs(coupled.mass -
                         np.outer(coupled.mass.sum(1), coupled.mass.sum(0))).max()
            if gap > 1e-3:
                assert mutual_information(coupled, "a", "b") > 0.0

    def test_data_processing_on_composed_chain(self):
        rng = np.random.default_rng(13)
        from _support import random_kernel
        for _ in range(100):
            u = random_pmf(rng, (3,), names=("u",))
            x = Alphabet("x", ("0", "1", "2"))
            y = Alphabet("y", ("0", "1", "2"))
            chain = compose(u, [random_kernel(rng, (u.axes[0],), (x,)),
                                random_kernel(rng, (x,), (y,))])
            assert (mutual_information(chain, "u", "y")
                    <= mutual_information(chain, "u", "x") + 1e-9)

    def test_compose_then_marginalize_recovers_base(self):
        rng = np.random.default_rng(14)
        from _support import random_kernel
        for _ in range(50):
            base = random_pmf(rng, (2, 3), names=("a", "b"))
            k = random_kernel(rng, base.axes, (Alphabet("c", ("0", "1")),))
            joint = compose(base, [k])
            back = marginalize(joint, ("a", "b"))
            assert np.abs(back.mass - base.mass).max() <= 1e-12


def _split_instance(rng: np.random.Generator, case: int):
    """A 2-6 axis pmf, possibly with zero cells or a zero-mass slice, and
    disjoint axis sets (a, b, given) drawn from its axes, given empty in at
    least a third of the cases; axes in none of them are summed out."""
    sizes = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(2, 7))))
    mass = rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes)
    if case % 4 == 1:
        mass[rng.random(sizes) < 0.4] = 0.0
    elif case % 4 == 2:
        axis = int(np.argmax(sizes))
        index = [slice(None)] * len(sizes)
        index[axis] = int(rng.integers(sizes[axis]))
        mass[tuple(index)] = 0.0
    if mass.sum() == 0.0:
        mass[(0,) * len(sizes)] = 1.0
    pmf = JointPMF(tuple(alph(f"v{i}", s) for i, s in enumerate(sizes)), mass / mass.sum())
    role = rng.integers(0, 4, size=len(sizes))
    role[int(rng.integers(len(sizes)))] = 0
    if case % 3 == 0:
        role[role == 2] = 3
    a, b, given = (tuple(n for n, r in zip(pmf.axis_names, role) if r == k) for k in range(3))
    return pmf, a, b, given


class TestReduceOnce:
    """The information measures reduce their pmf once and form the smaller
    marginals from that reduction; the oracle reduces every entropy from the
    full pmf, as the library did before."""

    def test_agrees_with_the_full_pmf_oracle(self):
        rng = np.random.default_rng(1414)
        seen = {"zeros": 0, "no given": 0, "single-axis a": 0, "single-axis b": 0}
        for case in range(400):
            pmf, a, b, g = _split_instance(rng, case)
            seen["zeros"] += bool((pmf.mass == 0).any())
            seen["no given"] += not g
            seen["single-axis a"] += len(a) == 1
            seen["single-axis b"] += len(b) == 1
            assert abs(mutual_information(pmf, a, b, g)
                       - loop_mutual_information(pmf, a, b, g)) <= 1e-12
            assert abs(mutual_information(pmf, a, b)
                       - loop_mutual_information(pmf, a, b)) <= 1e-12
            assert abs(conditional_entropy(pmf, a, b + g)
                       - loop_conditional_entropy(pmf, a, b + g)) <= 1e-12
            assert abs(conditional_entropy(pmf, a, g)
                       - loop_conditional_entropy(pmf, a, g)) <= 1e-12
        assert min(seen.values()) >= 50, seen

    def test_empty_second_set_gives_exactly_zero(self):
        rng = np.random.default_rng(1415)
        for case in range(50):
            pmf, a, _, g = _split_instance(rng, case)
            assert mutual_information(pmf, a, (), g) == 0.0

    @pytest.mark.parametrize("a,b,given", [
        (("v0",), ("v1",), ("v2",)),
        (("v0", "v3"), ("v1",), ("v2",)),
        (("v0",), ("v1", "v2"), ()),
        (("v0", "v1"), ("v2", "v3"), ()),
        (("v3",), (), ("v1",)),
        (("v2",), ("v0", "v1", "v3"), ()),
    ])
    def test_caller_pmf_is_reduced_once(self, monkeypatch, a, b, given):
        pmf = random_pmf(np.random.default_rng(1416), (2, 3, 2, 4))
        reduced = []
        real = probability.marginalize

        def counting(source, keep):
            reduced.append(source is pmf)
            return real(source, keep)
        monkeypatch.setattr(probability, "marginalize", counting)
        mutual_information(pmf, a, b, given)
        assert sum(reduced) == 1
        reduced.clear()
        conditional_entropy(pmf, a, b + given)
        assert sum(reduced) == 1
        if b:
            reduced.clear()
            slepian_wolf_bounds(pmf, a, b, given)
            assert sum(reduced) == 3


class TestReorder:
    def test_round_trip(self):
        base = presets.ternary_source_joint()
        swapped = reorder(base, ("u2", "u1"))
        assert swapped.axis_names == ("u2", "u1")
        assert np.array_equal(swapped.mass, base.mass.T)
        with pytest.raises(AxisError):
            reorder(base, ("u1",))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def _singletons(count: int) -> JointPMF:
    return JointPMF(tuple(Alphabet(f"s{i}", ("-",)) for i in range(count)),
                    np.ones((1,) * count))


# (call, exception type, message) of refusals no other test reaches
REFUSALS = {
    "joint with a repeated axis name": (
        lambda: JointPMF((alph("a", 2), alph("a", 2)), np.full((2, 2), 0.25)),
        AxisError, "duplicate axis names ['a', 'a']"),
    "joint mass of the wrong shape": (
        lambda: JointPMF((alph("a", 2),), np.full(3, 1 / 3)),
        ValueError, "mass shape (3,) does not match axis sizes (2,)"),
    "kernel rows of the wrong shape": (
        lambda: Kernel((alph("a", 2),), (alph("b", 2),), np.full((2, 3), 1 / 3)),
        ValueError, "rows shape (2, 3), expected (2, 2)"),
    "compose onto other symbols": (
        lambda: compose(uniform2x2(), [Kernel((alph("a", 2),), (alph("c", 2),), np.eye(2))]),
        AxisError, "axis 'a' symbol mismatch between joint and kernel"),
    "compose onto a present axis": (
        lambda: compose(uniform2x2(), [Kernel.deterministic(
            uniform2x2().axes[:1], uniform2x2().axes[1:], lambda s: s)]),
        AxisError, "kernel target axis 'b' already present"),
    "compose past the subscript letters": (
        lambda: compose(_singletons(52), [Kernel((Alphabet("s0", ("-",)),),
                                                 (Alphabet("t", ("-",)),), [[1.0]])]),
        AxisError, "too many axes to compose"),
    "conditional entropy of no target": (
        lambda: conditional_entropy(uniform2x2(), (), "a"),
        AxisError, "conditional_entropy needs a non-empty target"),
    "Slepian-Wolf bounds of overlapping sets": (
        lambda: slepian_wolf_bounds(uniform2x2(), "a", ("a", "b")),
        AxisError, "axis sets must be pairwise disjoint: ('a',), ('a', 'b'), ()"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_fault(case):
    assert_refuses(*REFUSALS[case])
