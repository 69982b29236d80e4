"""The public surface of the package.

Every name ``fcmac`` exports is listed here, so growing the public API means
editing this list on purpose.
"""

import types

import fcmac

PUBLIC_NAMES = [
    "Alphabet", "AxisError", "CharGraph", "Coloring", "DiscreteMAC", "DistortionTable",
    "ExperimentResult", "FeasibilityReport", "FunctionTable", "GaussianMAC",
    "GaussianPairSource", "GridQuantizer", "JointPMF", "Kernel", "MonteCarloEstimate",
    "ResultRow", "SchemeReport", "SizeCapError", "SlepianWolfBounds", "SystemSpec",
    "adder_mac", "af_distortion", "binary_entropy", "binary_pair_correlation",
    "binary_quadrant_pmf", "centralized_bound", "characteristic_graph", "check_feasibility",
    "compose", "conditional_chromatic_entropy", "conditional_entropy",
    "conditional_graph_entropy", "entropy", "expected_distortion", "gmac_sum_rate",
    "grid_distortion_closed_form", "induce_remote_distortion", "korner_marton_bounds",
    "lipschitz_budget", "mac_mutual_info", "mac_sum_capacity_independent", "marginalize",
    "min_entropy_coloring", "monte_carlo_af", "monte_carlo_grid_distortion",
    "mutual_information", "offdiagonal_cell_pmf", "or_product", "quantize_grid",
    "run_experiment", "sample_offdiagonal_uniform", "slepian_wolf_bounds",
    "source_coding_region", "stable_sets", "validate", "zigzag_check",
]


def test_public_names_pinned():
    exported = sorted(name for name, value in vars(fcmac).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
