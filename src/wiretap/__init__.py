"""Rates, resource measures and coding experiments for correlation-assisted
quantum wiretap channels."""

from .qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    fidelity,
    partial_trace,
    permute_factors,
    purify,
    tensor,
    trace_distance,
    uhlmann_fixup,
)
from .channels import (
    CqEnsemble,
    QuantumChannel,
    ResourceState,
    apply,
    channel_from_resource_state,
    choi_to_kraus,
    cq_state,
    ensemble_pushforward,
    kraus_to_choi,
    modulation_from_choi,
    trivial_resource,
)
from .entropic import (
    InfoQuantity,
    coherent_information,
    holevo_information,
    mutual_information,
    von_neumann_entropy,
)
from .rates import (
    RateReport,
    build_beta,
    build_gamma,
    classical_embed,
    marginal_constraint_residual,
    theorem1_rate,
    trivial_rate,
    unassisted_rate,
)
from .optimize import (
    GridOracleSpec,
    OptimizerConfig,
    OptResult,
    grid_oracle,
    optimize_channel_functional,
    optimize_theorem1,
    optimize_unassisted,
)
from .measures import (
    MeasureResult,
    dense_coding_advantage,
    duality_residual,
    entanglement_of_purification,
    ep_ensemble_upper_bound,
)
from .codesim import (
    Codebook,
    SimReport,
    code_parameters,
    leakage,
    marginal_residual_and_fixup,
    pgm_decoder,
    run_experiment,
    sample_codebook,
)
from .scenario import Scenario, build_gallery, load_scenario, save_scenario

__version__ = "0.1.0"
