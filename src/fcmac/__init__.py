"""Workbench for distributed computation of functions over multiple access
channels: probability tensors, confusability graphs and their entropies,
channel models, a rate/distortion feasibility checker, and the bundled
experiment pipelines."""

__version__ = "0.1.0"

from .probability import (
    Alphabet,
    AxisError,
    JointPMF,
    Kernel,
    SlepianWolfBounds,
    binary_entropy,
    compose,
    conditional_entropy,
    entropy,
    marginalize,
    mutual_information,
    slepian_wolf_bounds,
    validate,
)
from .graphs import (
    CharGraph,
    Coloring,
    FunctionTable,
    SizeCapError,
    characteristic_graph,
    conditional_chromatic_entropy,
    conditional_graph_entropy,
    min_entropy_coloring,
    or_product,
    stable_sets,
    zigzag_check,
)
from .channels import (
    DiscreteMAC,
    GaussianMAC,
    adder_mac,
    gmac_sum_rate,
    mac_mutual_info,
    mac_sum_capacity_independent,
)
from .feasibility import (
    DistortionTable,
    FeasibilityReport,
    SystemSpec,
    check_feasibility,
    expected_distortion,
    induce_remote_distortion,
    korner_marton_bounds,
    source_coding_region,
)
from .schemes import (
    GaussianPairSource,
    GridQuantizer,
    MonteCarloEstimate,
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
from .experiments import ExperimentResult, ResultRow, SchemeReport, run_experiment
