"""Bundled experiments: each computes a table of named quantities, checks
registered expectations, and may carry sweep data for plotting.

Expectation rows hold two layers: ``expected``/``tolerance`` is the exact
recomputed value a run must match (counted as pass/fail), while
``reference``/``reference_tol`` is the rounded figure the example reproduces.
A row whose value matches its exact expectation but not the quoted reference
is marked ``flagged`` rather than failed, which keeps genuine discrepancies
visible (the side-information rate quoted as 1.32 is exactly 4/3, and the
zigzag claim for the ternary example does not hold).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import feasibility, presets
from .channels import GaussianMAC, adder_mac, gmac_sum_rate, mac_sum_capacity_independent
from .feasibility import BOUNDARY_TOL, check_feasibility, verdict_from_margin
from .graphs import characteristic_graph, min_entropy_coloring, zigzag_check
from .probability import compose, conditional_entropy, entropy, marginalize
from .schemes import (
    DEFAULT_SEED,
    MAX_SAMPLES,
    MIN_MC_SAMPLES,
    MonteCarloEstimate,
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
COLOR_ENTROPY = LOG2_3 - 2.0 / 3.0          # entropy of a (2/3, 1/3) split
FOUR_THIRDS = 4.0 / 3.0

# Most powers in a gauss-diff sweep; the whole-run times measured at it are
# in the README's "Size caps" table.
MAX_STEPS = 100_000


class UnknownExperimentError(ValueError):
    pass


def _check_count(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise ValueError(f"{name} must be between {low} and {high}, got {value}")


@dataclass(frozen=True)
class SchemeReport:
    """Per-scheme outcome of one experiment pipeline."""

    scheme_id: str                  # "1" | "2" | "3" | "AF" | "centralized"
    source_entropy_bits: float | None = None
    color_entropy_bits: float | None = None
    channel_sum_rate_bits: float | None = None
    verdict: str | None = None      # strict | boundary | violated
    margin_bits: float | None = None
    distortion_analytic: float | None = None
    distortion_mc: MonteCarloEstimate | None = None
    lipschitz_alpha: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ResultRow:
    label: str
    value: object                      # float, bool, or str
    units: str = "bits"
    note: str = ""
    expected: object | None = None     # exact recomputed expectation (counted)
    tolerance: float | None = None
    reference: object | None = None    # rounded quoted figure (informational)
    reference_tol: float = 5e-3
    # set at construction: FAIL, flagged (``expected`` matched, ``reference`` not), pass or info
    passed: bool = field(init=False, repr=False, compare=False)
    status: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        passed = self.expected is None or self._matches(self.expected, self.tolerance or 0.0)
        if not passed:
            status = "FAIL"
        elif self.reference is not None and not self._matches(self.reference, self.reference_tol):
            status = "flagged"
        else:
            status = "pass" if self.expected is not None else "info"
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "status", status)

    def _matches(self, target, tol) -> bool:
        if isinstance(self.value, (bool, str)) or isinstance(target, (bool, str)):
            return self.value == target
        return abs(float(self.value) - float(target)) <= tol


@dataclass
class ExperimentResult:
    experiment_id: str
    rows: list[ResultRow]
    schemes: list[SchemeReport] = field(default_factory=list)
    sweep_header: tuple[str, ...] | None = None
    sweep_rows: list[tuple] | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, label: str) -> ResultRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def run_experiment(experiment_id: str, seed: int = DEFAULT_SEED,
                   **overrides) -> ExperimentResult:
    try:
        runner = _RUNNERS[experiment_id]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; choose from {EXPERIMENT_IDS}") from None
    accepted = [p.name for p in _PARAMETERS[experiment_id]]
    unsupported = [name for name in overrides if name not in accepted]
    if unsupported:
        raise ValueError(f"unsupported override for {experiment_id}: {', '.join(unsupported)};"
                         f" it accepts {', '.join(accepted) or 'no overrides'}")
    return runner(seed=seed, **overrides)


def _edge_string(graph) -> str:
    return ",".join(f"{a}-{b}" for a, b in graph.sorted_edges())


def _rate_scheme(scheme_id: str, rate_bits: float, capacity_bits: float,
                 **fields) -> SchemeReport:
    """Report of a scheme that sends ``rate_bits`` over a channel carrying
    ``capacity_bits``; the margin is capacity minus rate."""
    margin = capacity_bits - rate_bits
    return SchemeReport(scheme_id, channel_sum_rate_bits=capacity_bits,
                        verdict=verdict_from_margin(margin), margin_bits=margin,
                        **fields)


def _section5(seed: int = DEFAULT_SEED) -> ExperimentResult:
    base = presets.ternary_source_joint()
    f = presets.comparison_function()
    mac = adder_mac()
    h_pair = entropy(base, ("u1", "u2"))
    graph = characteristic_graph(base, f)
    _, h_color = min_entropy_coloring(graph, marginalize(base, "u1"), "exact")

    colored = compose(base, [presets.side_info_kernel(),
                             presets.color_kernel_single("u1", "c1"),
                             presets.color_kernel_single("u2", "c2")])
    h_colors = entropy(colored, ("c1", "c2"))
    h_colors_given_z = conditional_entropy(colored, ("c1", "c2"), "z")

    capacity = mac_sum_capacity_independent(mac).bits
    joint_system = presets._section5_joint(base, f, mac)
    # the two codes differ only in their channel-input kernels, so they share
    # the source side of the check
    source = feasibility._source_half(joint_system)
    joint_rep = feasibility._channel_half(joint_system, source)
    indep_rep = feasibility._channel_half(presets._section5_independent(joint_system), source)
    zz = zigzag_check(base)

    uncoded = sum(math.log2(len(axis)) for axis in base.axes)
    rows = [
        ResultRow("uncoded_sum_rate", uncoded,
                  expected=2 * LOG2_3, tolerance=1e-12, reference=3.16,
                  note="two symbols sent at full log2(3) each; the quoted 3.16"
                       " truncates 2*1.585"),
        ResultRow("source_pair_entropy", h_pair,
                  expected=LOG2_6, tolerance=5e-4, reference=2.58),
        ResultRow("per_encoder_color_entropy", h_color,
                  expected=COLOR_ENTROPY, tolerance=5e-4, reference=0.918),
        ResultRow("independent_color_sum_rate", 2 * h_color,
                  expected=2 * COLOR_ENTROPY, tolerance=5e-4, reference=1.8366),
        ResultRow("color_pair_entropy", h_colors,
                  expected=LOG2_3, tolerance=5e-4, reference=1.58),
        ResultRow("adder_sum_capacity_independent", capacity,
                  expected=1.5, tolerance=1e-4, reference=1.5),
        ResultRow("joint_code_mutual_info", joint_rep.record("sum").rhs_bits,
                  expected=LOG2_3, tolerance=5e-4, reference=1.58),
        ResultRow("joint_code_sum_margin", joint_rep.record("sum").margin_bits,
                  expected=0.0, tolerance=1e-9),
        ResultRow("joint_code_sum_verdict", joint_rep.record("sum").verdict,
                  units="", expected="boundary"),
        ResultRow("independent_code_sum_lhs", indep_rep.record("sum").lhs_bits,
                  expected=LOG2_3, tolerance=5e-4),
        ResultRow("independent_code_sum_rhs", indep_rep.record("sum").rhs_bits,
                  note="product of color marginals through the adder channel"),
        ResultRow("independent_code_sum_verdict", indep_rep.record("sum").verdict,
                  units="", expected="violated"),
        ResultRow("color_sum_rate_given_side_info", h_colors_given_z,
                  expected=FOUR_THIRDS, tolerance=1e-9, reference=1.32,
                  note="exact enumeration gives 4/3; the quoted 1.32 is a"
                       " flagged discrepancy"),
        ResultRow("side_info_fits_independent_capacity",
                  bool(h_colors_given_z < capacity - 1e-9),
                  units="", expected=True,
                  note="4/3 < 1.5, so independent channel codes suffice"),
        ResultRow("zigzag_holds", zz.holds, units="", reference=True,
                  note=f"violated by support pairs {zz.witness}; the quoted"
                       " claim does not hold for this support"),
        ResultRow("joint_code_distortion", joint_rep.achieved_distortion,
                  units="", expected=1.0 / 6.0, tolerance=1e-9, reference=0.0,
                  reference_tol=1e-9,
                  note="color pair (0,0) covers both function values, so no"
                       " decoder of the colors is lossless; majority rule"
                       " errs with probability 1/6"),
    ]
    joint_sum = joint_rep.record("sum")
    schemes = [
        _rate_scheme("1", h_pair, capacity, source_entropy_bits=h_pair,
                     note="lossless pair transmission against independent-input capacity"),
        _rate_scheme("2", h_colors, capacity, source_entropy_bits=h_pair,
                     color_entropy_bits=h_colors,
                     note="colored then distributed-coded, independent channel codes"),
        _rate_scheme("3", joint_sum.lhs_bits, joint_sum.rhs_bits,
                     source_entropy_bits=h_pair, color_entropy_bits=h_colors,
                     distortion_analytic=joint_rep.achieved_distortion,
                     note="correlated channel mapping of the colors, full checker"),
    ]
    return ExperimentResult("section5", rows, schemes=schemes)


def _gauss_binary(seed: int = DEFAULT_SEED, rho: float = 0.75, power: float = 5.0,
                  rho_x: float = 0.3) -> ExperimentResult:
    registered = (rho, power, rho_x) == (0.75, 5.0, 0.3)
    pair = binary_quadrant_pmf(rho)
    h_pair = entropy(pair, ("w1", "w2"))
    corr = binary_pair_correlation(pair)
    mac = GaussianMAC(power)
    cap_ind = gmac_sum_rate(mac, 0.0)
    cap_cor = gmac_sum_rate(mac, rho_x)
    schemes = [
        _rate_scheme("2", h_pair, cap_ind, color_entropy_bits=h_pair,
                     note="distributed-coded sign bits, independent Gaussian codewords"),
        _rate_scheme("3", h_pair, cap_cor, color_entropy_bits=h_pair,
                     distortion_analytic=0.0 if cap_cor - h_pair > BOUNDARY_TOL else None,
                     note=f"sign bits mapped to Gaussian inputs at correlation {rho_x:g}"),
    ]
    by_id = {s.scheme_id: s for s in schemes}

    def exp(v):
        return v if registered else None

    rows = [
        ResultRow("sign_pair_entropy", h_pair,
                  expected=exp(1.778), tolerance=5e-4, reference=1.778),
        ResultRow("sign_pair_correlation", corr, units="",
                  expected=exp(0.540), tolerance=5e-3, reference=0.54),
        ResultRow("sum_rate_independent_inputs", cap_ind,
                  expected=exp(1.7297), tolerance=1e-4, reference=1.729),
        ResultRow("sum_rate_correlated_inputs", cap_cor,
                  expected=exp(1.9037), tolerance=1e-4, reference=1.903),
        ResultRow("scheme2_verdict", by_id["2"].verdict, units="",
                  expected="violated" if registered else None,
                  note="sign-bit rate exceeds the independent-input sum rate"),
        ResultRow("scheme3_verdict", by_id["3"].verdict, units="",
                  expected="strict" if registered else None,
                  note="correlated Gaussian inputs support the sign-bit rate"),
    ]
    return ExperimentResult("gauss-binary", rows, schemes=schemes)


def _gauss_diff(seed: int = DEFAULT_SEED, rho: float = 0.5, sigma2: float = 1.0,
                power: float = 5.0, power_min: float = 0.5, power_max: float = 20.0,
                steps: int = 40, samples: int = 1_000_000) -> ExperimentResult:
    _check_count("steps", steps, 1, MAX_STEPS)
    _check_count("samples", samples, MIN_MC_SAMPLES, MAX_SAMPLES)
    for name, bound in (("power_min", power_min), ("power_max", power_max)):
        if not (math.isfinite(bound) and bound >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {bound}")
    powers = np.linspace(power_min, power_max, int(steps))
    cen = np.array([centralized_bound(p, rho, sigma2) for p in powers])
    af = np.array([af_distortion(p, rho, sigma2) for p in powers])
    sweep = []
    for p, d in zip(powers, cen):
        sweep.append((p, "centralized", None, None, None, d, None))
    for p, d in zip(powers, af):
        sweep.append((p, "AF", None, None, None, d, None))
    mc = monte_carlo_af(power, rho, sigma2, samples=samples, seed=seed)
    closed = af_distortion(power, rho, sigma2)
    sweep.append((power, "AF", None, None, None, mc.value, mc.halfwidth))

    rho0_gap = max(abs(af_distortion(p, 0.0, sigma2) - centralized_bound(p, 0.0, sigma2))
                   for p in powers)
    # at rho = 1 the sources agree, the closed form is 0 and the error is absolute
    mc_error = abs(mc.value - closed) / closed if closed > 0 else abs(mc.value - closed)
    rows = [
        # for negative correlation the difference combines coherently and
        # uncoded transmission can beat the single-encoder power budget
        ResultRow("af_ge_centralized_on_sweep", bool(np.all(af >= cen - 1e-12)),
                  units="", expected=True if rho >= 0 else None),
        ResultRow("af_equals_centralized_at_rho0", rho0_gap, units="",
                  expected=0.0, tolerance=1e-12),
        ResultRow("mc_af_relative_error", mc_error,
                  units="",
                  expected=0.0 if samples >= 1_000_000 else None, tolerance=0.01,
                  note=f"empirical MSE at P={power:g} vs the closed form,"
                       f" {samples} samples, seed {seed}"
                       + ("" if closed > 0 else "; absolute error, the closed form is 0")),
        ResultRow("mc_af_halfwidth", mc.halfwidth, units="", note="95% CI"),
    ]
    schemes = [
        SchemeReport("centralized",
                     distortion_analytic=centralized_bound(power, rho, sigma2),
                     note="single-encoder lower bound"),
        SchemeReport("AF", distortion_analytic=closed, distortion_mc=mc,
                     note="uncoded scaled transmission, conditional-mean receiver"),
    ]
    header = ("param", "scheme", "rate_bits", "capacity_bits", "margin_bits",
              "distortion", "ci_halfwidth")
    return ExperimentResult("gauss-diff", rows, schemes=schemes,
                            sweep_header=header, sweep_rows=sweep)


def _uniform_grid(seed: int = DEFAULT_SEED, target_d: float = 1.0 / 6.0,
                  samples: int = 1_000_000) -> ExperimentResult:
    cells = presets.GRID_CELLS
    system = presets.grid_system(target_d=target_d)
    _check_count("samples", samples, MIN_MC_SAMPLES, MAX_SAMPLES)
    registered = abs(target_d - 1.0 / 6.0) < 1e-12
    cell_pmf = offdiagonal_cell_pmf(cells)
    off_mass = 1.0 / (cells * cells - cells)
    # threshold at half a cell width: adjacent-cell center gaps are confusable
    graph = characteristic_graph(cell_pmf, presets.grid_cell_function(),
                                 delta=Fraction(1, 2 * cells))
    capacity = mac_sum_capacity_independent(system.channel).bits
    h_cells = entropy(cell_pmf, ("w1", "w2"))
    colored = compose(cell_pmf, [presets.color_kernel_single("w1", "c1", presets.GRID_COLOR_OF),
                                 presets.color_kernel_single("w2", "c2", presets.GRID_COLOR_OF)])
    h_colors = entropy(colored, ("c1", "c2"))
    grid_sum = check_feasibility(system).record("sum")
    closed = grid_distortion_closed_form(cells)
    # one seeded draw gives the distortion estimate and the empirical cell pmf
    counts = np.zeros((cells, cells), dtype=np.int64)
    mc = monte_carlo_grid_distortion(cells, samples=samples, seed=seed,
                                     cell_counts=counts)
    tv = 0.5 * float(np.abs(counts / samples - cell_pmf.mass).sum())
    schemes = [
        _rate_scheme("1", h_cells, capacity, source_entropy_bits=h_cells,
                     note="cells sent losslessly against independent-input capacity"),
        _rate_scheme("2", h_colors, capacity, source_entropy_bits=h_cells,
                     color_entropy_bits=h_colors,
                     note="colored cells, independent channel codes"),
        _rate_scheme("3", grid_sum.lhs_bits, grid_sum.rhs_bits,
                     source_entropy_bits=h_cells, color_entropy_bits=h_colors,
                     distortion_analytic=closed, distortion_mc=mc,
                     note="colored cells through the correlated channel mapping"),
    ]
    by_id = {s.scheme_id: s for s in schemes}

    def exp(v):
        return v if registered else None

    rows = [
        ResultRow("offdiagonal_cell_mass", off_mass, units="",
                  expected=exp(1.0 / 6.0), tolerance=1e-12,
                  note="exact block integration of the cell pmf"),
        ResultRow("empirical_cell_tv_distance", tv, units="",
                  expected=0.0 if samples >= 1_000_000 else None, tolerance=0.01,
                  note=f"total variation to the exact pmf at {samples} samples"),
        ResultRow("threshold_graph_edges", _edge_string(graph), units="",
                  expected=exp("1-2,2-3"),
                  note="cell confusability at half-gap threshold"),
        ResultRow("scheme1_rate", by_id["1"].source_entropy_bits,
                  expected=exp(LOG2_6), tolerance=5e-4, reference=2.58),
        ResultRow("scheme1_verdict", by_id["1"].verdict, units="",
                  expected="violated" if registered else None),
        ResultRow("scheme2_rate", by_id["2"].color_entropy_bits,
                  expected=exp(LOG2_3), tolerance=5e-4, reference=1.58),
        ResultRow("scheme2_verdict", by_id["2"].verdict, units="",
                  expected="violated" if registered else None),
        ResultRow("scheme3_margin", by_id["3"].margin_bits,
                  expected=exp(0.0), tolerance=1e-9),
        ResultRow("scheme3_verdict", by_id["3"].verdict, units="",
                  expected="boundary" if registered else None),
        ResultRow("distortion_closed_form", closed, units="",
                  expected=exp(1.0 / 9.0), tolerance=1e-12, reference=0.111,
                  reference_tol=5e-4),
        ResultRow("distortion_mc", mc.value, units="",
                  expected=exp(1.0 / 9.0), tolerance=5e-3,
                  note=f"{mc.samples} samples, seed {mc.seed}"),
        ResultRow("within_budget", bool(closed <= target_d + 1e-12), units="",
                  expected=True, note=f"budget {target_d:g}"),
    ]
    return ExperimentResult("uniform-grid", rows, schemes=schemes)


_RUNNERS = {
    "section5": _section5,
    "gauss-diff": _gauss_diff,
    "gauss-binary": _gauss_binary,
    "uniform-grid": _uniform_grid,
}
EXPERIMENT_IDS = tuple(_RUNNERS)
# the overrides each experiment takes (its runner's parameters but the seed), and
# all of them in first-seen order with the type of their default, for the CLI
_PARAMETERS = {eid: [p for p in inspect.signature(runner).parameters.values()
                     if p.name != "seed"] for eid, runner in _RUNNERS.items()}
OVERRIDES = {p.name: type(p.default) for params in _PARAMETERS.values() for p in params}
