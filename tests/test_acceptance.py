"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live)."""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np

from _support import (
    assemble_joint,
    grid_conditional_graph_entropy,
    random_graph,
    random_kernel,
    random_pmf,
    random_system_spec,
    value_at,
)
from fcmac import presets
from fcmac.channels import GaussianMAC, adder_mac, gmac_sum_rate, mac_sum_capacity_independent
from fcmac.experiments import run_experiment
from fcmac.feasibility import check_feasibility
from fcmac.graphs import (
    CharGraph,
    characteristic_graph,
    conditional_chromatic_entropy,
    conditional_graph_entropy,
    min_entropy_coloring,
)
from fcmac.probability import (
    Alphabet,
    JointPMF,
    Kernel,
    compose,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
)
from fcmac.schemes import (
    af_distortion,
    binary_pair_correlation,
    binary_quadrant_pmf,
    centralized_bound,
    grid_distortion_closed_form,
    monte_carlo_af,
    monte_carlo_grid_distortion,
    offdiagonal_cell_pmf,
)

LOG2_3 = math.log2(3.0)
LOG2_6 = math.log2(6.0)
COLOR_ENTROPY = LOG2_3 - 2 / 3


def _report(criterion: str, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({len(checks) - len(failed)}/{len(checks)} checks)")
    assert not failed, f"criterion {criterion} failed: {failed}"


def test_criterion_1_ternary_ladder():
    start = time.perf_counter()
    base = presets.ternary_source_joint()
    h_pair = entropy(base, ("u1", "u2"))
    g = characteristic_graph(base, presets.comparison_function())
    _, h_color = min_entropy_coloring(g, marginalize(base, "u1"), "exact")
    colored = compose(base, [presets.color_kernel_single("u1", "c1"),
                             presets.color_kernel_single("u2", "c2")])
    h_colors = entropy(colored, ("c1", "c2"))
    capacity = mac_sum_capacity_independent(adder_mac()).bits
    report = check_feasibility(presets.section5_system("joint"))
    rec = report.record("sum")
    elapsed = time.perf_counter() - start

    checks = [
        ("H(U1,U2) exact", abs(h_pair - LOG2_6) <= 5e-4),
        ("H(U1,U2) rounded 2.58", abs(h_pair - 2.58) <= 5e-3),
        ("color entropy exact", abs(h_color - COLOR_ENTROPY) <= 5e-4),
        ("color entropy rounded 0.918", abs(h_color - 0.918) <= 5e-3),
        ("independent color sum 1.8366", abs(2 * h_color - 1.8366) <= 5e-3),
        ("H(C1,C2) exact", abs(h_colors - LOG2_3) <= 5e-4),
        ("H(C1,C2) rounded 1.58", abs(h_colors - 1.58) <= 5e-3),
        ("sum capacity 1.500 +- 1e-4", abs(capacity - 1.5) <= 1e-4),
        ("joint-code I(X1,X2;Y)", abs(rec.rhs_bits - LOG2_3) <= 5e-4),
        ("boundary margin", abs(rec.margin_bits) <= 1e-9),
        ("boundary verdict", rec.verdict == "boundary"),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _report("1 (ternary ladder)", checks)


def test_criterion_2_side_information():
    colored = compose(presets.ternary_with_side_info(),
                      [presets.color_kernel_single("u1", "c1"),
                       presets.color_kernel_single("u2", "c2")])
    value = conditional_entropy(colored, ("c1", "c2"), "z")
    capacity = mac_sum_capacity_independent(adder_mac()).bits
    row = run_experiment("section5").row("color_sum_rate_given_side_info")
    checks = [
        ("H(C1,C2|Z) = 4/3 exactly", abs(value - 4 / 3) <= 1e-9),
        ("registry flags the 1.32 figure", row.status == "flagged"
         and row.reference == 1.32),
        ("4/3 below independent capacity", value < capacity - 1e-9),
    ]
    _report("2 (side information)", checks)


def test_criterion_3_characteristic_graphs():
    base = presets.ternary_source_joint()
    g1 = characteristic_graph(base, presets.comparison_function())
    cells = characteristic_graph(presets.ternary_source_joint("w1", "w2"),
                                 presets.grid_cell_function(),
                                 delta=Fraction(1, 6))
    _, bits = min_entropy_coloring(g1, marginalize(base, "u1"), "exact")
    checks = [
        ("comparison graph = single edge {1,3}", g1.sorted_edges() == [("1", "3")]),
        ("threshold graph edges {1,2},{2,3}",
         cells.sorted_edges() == [("1", "2"), ("2", "3")]),
        ("exact coloring entropy 0.918", abs(bits - COLOR_ENTROPY) <= 1e-6),
    ]
    _report("3 (characteristic graphs)", checks)


def test_criterion_4_binary_function_over_gaussian_mac():
    pair = binary_quadrant_pmf(0.75)
    h = entropy(pair, ("w1", "w2"))
    corr = binary_pair_correlation(pair)
    mac = GaussianMAC(5.0)
    reports = {r.scheme_id: r for r in run_experiment("gauss-binary").schemes}
    checks = [
        ("sign-pair entropy 1.778 +- 5e-4", abs(h - 1.778) <= 5e-4),
        ("sign-pair correlation 0.540 +- 5e-3", abs(corr - 0.540) <= 5e-3),
        ("sum rate at rho_x=0: 1.7297 +- 1e-4",
         abs(gmac_sum_rate(mac, 0.0) - 1.7297) <= 1e-4),
        ("sum rate at rho_x=0.3: 1.9037 +- 1e-4",
         abs(gmac_sum_rate(mac, 0.3) - 1.9037) <= 1e-4),
        ("scheme 2 infeasible", reports["2"].verdict == "violated"),
        ("scheme 3 feasible", reports["3"].verdict == "strict"),
    ]
    _report("4 (sign function over the Gaussian channel)", checks)


def test_criterion_5_gaussian_closed_forms():
    start = time.perf_counter()
    powers = np.linspace(0.5, 20.0, 40)
    checks = []
    for rho in (0.5, 0.75):
        cen = np.array([centralized_bound(p, rho) for p in powers])
        af = np.array([af_distortion(p, rho) for p in powers])
        # independent oracle: the closed forms evaluated inline
        cen_direct = 2 * (1 - rho) / (1 + 2 * powers)
        af_direct = 2 * (1 - rho) / (1 + 2 * powers * (1 - rho))
        checks.append((f"centralized curve rho={rho}",
                       bool(np.max(np.abs(cen - cen_direct)) <= 1e-12)))
        checks.append((f"uncoded curve rho={rho}",
                       bool(np.max(np.abs(af - af_direct)) <= 1e-12)))
        checks.append((f"AF >= centralized rho={rho}", bool(np.all(af >= cen - 1e-15))))
    rho0_gap = max(abs(af_distortion(p, 0.0) - centralized_bound(p, 0.0))
                   for p in powers)
    checks.append(("equality at rho=0", rho0_gap <= 1e-15))
    mc = monte_carlo_af(5.0, 0.5, samples=1_000_000, seed=20240901)
    closed = af_distortion(5.0, 0.5)
    checks.append(("Monte Carlo within 1%", abs(mc.value - closed) / closed <= 0.01))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 10 s", elapsed < 10.0))
    _report("5 (Gaussian closed forms)", checks)


def test_criterion_6_grid_pipeline():
    pmf = offdiagonal_cell_pmf(3)
    off = pmf.mass[~np.eye(3, dtype=bool)]
    reports = {r.scheme_id: r for r in run_experiment("uniform-grid", samples=1_000_000,
                                                      seed=20240902).schemes}
    closed = grid_distortion_closed_form(3)
    mc = reports["3"].distortion_mc
    checks = [
        ("exact cell pmf 1/6 off-diagonal",
         bool(np.allclose(off, 1 / 6, atol=1e-15))
         and bool(np.all(pmf.mass[np.eye(3, dtype=bool)] == 0))),
        ("scheme 1 rate 2.585 over capacity 1.5",
         abs(reports["1"].source_entropy_bits - LOG2_6) <= 5e-4
         and reports["1"].verdict == "violated"),
        ("scheme 2 rate 1.585 over capacity 1.5",
         abs(reports["2"].color_entropy_bits - LOG2_3) <= 5e-4
         and reports["2"].verdict == "violated"),
        ("scheme 3 boundary", reports["3"].verdict == "boundary"
         and abs(reports["3"].margin_bits) <= 1e-9),
        ("closed-form distortion 1/9", abs(closed - 1 / 9) <= 1e-15),
        ("Monte Carlo within 0.005", abs(mc.value - 1 / 9) <= 5e-3),
        ("within the 0.1667 budget", closed <= 0.1667),
    ]
    _report("6 (quantized-grid pipeline)", checks)


def test_criterion_7_property_suites():
    checks = []

    # information identities on 1000 random instances
    rng = np.random.default_rng(71)
    worst_chain = worst_sym = worst_dp = 0.0
    neg_found = False
    for _ in range(1000):
        pmf = random_pmf(rng, rng.integers(2, 4, size=2), names=("a", "b"))
        a, b = pmf.axis_names
        worst_chain = max(worst_chain, abs(
            entropy(pmf, (a, b)) - entropy(pmf, a) - conditional_entropy(pmf, b, a)))
        i_ab = mutual_information(pmf, a, b)
        i_ba = mutual_information(pmf, b, a)
        neg_found = neg_found or i_ab < 0
        worst_sym = max(worst_sym, abs(i_ab - i_ba))
        x = Alphabet("x", ("0", "1", "2"))
        y = Alphabet("y", ("0", "1"))
        chain = compose(marginalize(pmf, a),
                        [random_kernel(rng, (pmf.axis(a),), (x,)),
                         random_kernel(rng, (x,), (y,))])
        worst_dp = max(worst_dp, mutual_information(chain, a, "y")
                       - mutual_information(chain, a, "x"))
    checks.append(("entropy chain rule (1000 instances)", worst_chain <= 1e-9))
    checks.append(("mutual information symmetric and nonnegative",
                   worst_sym <= 1e-9 and not neg_found))
    checks.append(("data processing on composed chains", worst_dp <= 1e-9))

    # factorization conditional independences on 100 random systems
    rng = np.random.default_rng(72)
    worst_ci = 0.0
    for _ in range(100):
        spec = random_system_spec(rng)
        joint = assemble_joint(spec)
        n = spec.axis_names
        worst_ci = max(
            worst_ci,
            mutual_information(joint, n["w1"], (n["u2"], n["z2"], n["z"], n["w2"]),
                               (n["u1"], n["z1"])),
            mutual_information(joint, n["x1"],
                               (n["u1"], n["u2"], n["z1"], n["z2"], n["z"],
                                n["w2"], n["x2"]), n["w1"]),
            mutual_information(joint, n["y"],
                               (n["u1"], n["u2"], n["z1"], n["z2"], n["z"],
                                n["w1"], n["w2"]), (n["x1"], n["x2"])))
    checks.append(("factorization independences (100 systems)", worst_ci <= 1e-9))

    # coloring propriety and exact <= greedy on 200 random graphs
    rng = np.random.default_rng(73)
    coloring_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 11))
        g = random_graph(rng, n)
        pmf = random_pmf(rng, (n,), names=("v",))
        exact_col, exact_bits = min_entropy_coloring(g, pmf, "exact")
        greedy_col, greedy_bits = min_entropy_coloring(g, pmf, "greedy")
        # Coloring construction already checks propriety; re-verify totality
        coloring_ok = coloring_ok and set(exact_col.color_of) == set(g.vertices.symbols)
        coloring_ok = coloring_ok and set(greedy_col.color_of) == set(g.vertices.symbols)
        coloring_ok = coloring_ok and exact_bits <= greedy_bits + 1e-9
    checks.append(("colorings proper, exact <= greedy (200 graphs)", coloring_ok))

    # conditional graph entropy: trivial cases and the grid oracle
    rng = np.random.default_rng(74)
    verts = Alphabet("u1", ("a", "b", "c"))
    peer = Alphabet("u2", ("0", "1"))
    joint = JointPMF((verts, peer), rng.dirichlet(np.ones(6)).reshape(3, 2))
    clique = CharGraph(verts, frozenset({("a", "b"), ("a", "c"), ("b", "c")}))
    edgeless = CharGraph(verts, frozenset())
    clique_gap = abs(conditional_graph_entropy(clique, joint).value
                     - conditional_entropy(joint, "u1", "u2"))
    edgeless_val = conditional_graph_entropy(edgeless, joint).value
    checks.append(("clique gives H(U1|U2)", clique_gap <= 1e-6))
    checks.append(("edgeless gives 0", edgeless_val <= 1e-6))

    base = presets.ternary_source_joint()
    g5 = characteristic_graph(base, presets.comparison_function())
    solver = conditional_graph_entropy(g5, base)
    oracle = grid_conditional_graph_entropy(base, g5, resolution=0.01)
    checks.append(("grid-oracle agreement within 1e-3",
                   abs(solver.value - oracle) <= 1e-3))

    # block-length-two conditional chromatic entropy never above block-length one
    rng = np.random.default_rng(75)
    subadditive = True
    for _ in range(50):
        g = random_graph(rng, 3)
        j2 = random_pmf(rng, (3, 3), names=("v", "u2"))
        subadditive = subadditive and (conditional_chromatic_entropy(g, j2, 2)
                                       <= conditional_chromatic_entropy(g, j2, 1) + 1e-9)
    checks.append(("per-symbol coloring rate subadditive (50 instances)", subadditive))

    _report("7 (property suites)", checks)


def test_criterion_8_specializations():
    from fcmac.feasibility import (
        DistortionTable,
        induce_remote_distortion,
        source_coding_region,
    )
    from fcmac.graphs import FunctionTable

    checks = []

    # deterministic W, no side information: distributed-coding corner quantities
    rng = np.random.default_rng(81)
    u1 = Alphabet("u1", ("p", "q", "r"))
    u2 = Alphabet("u2", ("s", "t"))
    z1, z2, z = (Alphabet(n, ("-",)) for n in ("z1", "z2", "z"))
    source = JointPMF((u1, u2, z1, z2, z),
                      rng.dirichlet(np.ones(6)).reshape(3, 2, 1, 1, 1))
    w1 = Alphabet("w1", u1.symbols)
    w2 = Alphabet("w2", u2.symbols)
    bounds = source_coding_region(
        source,
        Kernel.deterministic((u1, z1), (w1,), lambda s, _: s),
        Kernel.deterministic((u2, z2), (w2,), lambda s, _: s))
    corner = (conditional_entropy(source, "u1", "u2"),
              conditional_entropy(source, "u2", "u1"),
              entropy(source, ("u1", "u2")))
    checks.append(("corner quantities exact",
                   max(abs(a - b) for a, b in zip(dataclasses.astuple(bounds), corner)) <= 1e-12))

    # one-sided setting: constant second source, side info off the loop
    rng = np.random.default_rng(82)
    u2c = Alphabet("u2", ("only",))
    z1b = Alphabet("z1", ("0", "1"))
    zb = Alphabet("z", ("0", "1"))
    pu1z = rng.dirichlet(np.ones(6)).reshape(3, 2)
    pz1 = rng.dirichlet(np.ones(2))
    mass = pu1z[:, None, None, None, :] * pz1[None, None, :, None, None]
    source1 = JointPMF((u1, u2c, z1b, z2, zb), mass)
    w1b = Alphabet("w1", ("m0", "m1", "m2"))
    rows = rng.dirichlet(np.ones(3), size=3)
    w1_kernel = Kernel((u1, z1b), (w1b,), np.repeat(rows, 2, axis=0))
    w2_kernel = Kernel.constant((u2c, z2), (Alphabet("w2", ("k",)),), [1.0])
    bounds1 = source_coding_region(source1, w1_kernel, w2_kernel)
    ref_joint = compose(source1, [w1_kernel])
    expect = mutual_information(ref_joint, "u1", "w1", "z")
    checks.append(("one-sided bound equals I(U1;W1|Z)",
                   abs(bounds1.r1 - expect) <= 1e-12))

    # identity posterior: induced distortion equals the direct table
    obs_u = Alphabet("ou", ("0", "1"))
    obs_z = Alphabet("oz", ("0", "1"))
    clean_u = Alphabet("cu", ("0", "1"))
    clean_z = Alphabet("cz", ("0", "1"))
    post = Kernel.deterministic((obs_u, obs_z), (clean_u, clean_z),
                                lambda a, b: (a, b))
    f = FunctionTable.from_callable((clean_u, clean_z),
                                    lambda a, b: int(a) ^ int(b))
    w = Alphabet("w", ("0", "1"))
    gfun = FunctionTable.from_callable((w, obs_z), lambda a, b: int(a))
    d = DistortionTable((0, 1), (0, 1), [[0.0, 1.0], [1.0, 0.0]])
    table = induce_remote_distortion(post, f, gfun, d)
    exact = True
    for i, us in enumerate(obs_u.symbols):
        for j, zs in enumerate(obs_z.symbols):
            for k, ws in enumerate(w.symbols):
                direct = d.cost(value_at(f, us, zs), value_at(gfun, ws, zs))
                exact = exact and table[i, j, k] == direct
    checks.append(("identity posterior matches direct table", exact))

    _report("8 (specializations)", checks)
