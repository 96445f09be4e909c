"""Covariance-matrix simulation of central-broadcast thermal-state key distribution.

A source splits one arm of an EPR pair between two receivers; the package
computes what the receivers share (mutual information, conditional mutual
information given the source, Gaussian discord), how channel noise erodes
it, and whether intensity statistics certify the broadcast as thermal.
"""
from .errors import (ConfigError, InvalidArgumentError, NumericFailureError,
                     ThermalcastError, UndefinedResultError,
                     UnphysicalStateError, UsageError)
from .gaussian import (CovarianceMatrix, PhysicalityReport, apply_beamsplitter,
                       make_epr, make_thermal, make_vacuum, reduce,
                       symplectic_eigenvalues, tensor, validate_physicality)
from .hbt import (GENERATOR_ID, VERDICT_INCONCLUSIVE, VERDICT_NOT_THERMAL,
                  VERDICT_THERMAL, G2Report, g2_analytic, g2_cross_estimate,
                  intensity, sample_quadratures, thermality_check)
from .info import (DiscordResult, Partition, conditional_mutual_information,
                   gaussian_discord, homodyne_condition, mutual_information,
                   shannon_entropy, von_neumann_entropy)
from .scenarios import (SCENARIO_NAMES, ScenarioParams, ScenarioState,
                        basic_closed_form, block_of, build_scenario,
                        full_closed_form_blocks, thermal_channel_closed_form)
from .sweep import SweepResult, SweepSpec, SweptRange, emit_csv, expand_preset, parse_config, run_sweeps

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ThermalcastError", "InvalidArgumentError", "UnphysicalStateError",
    "NumericFailureError", "UndefinedResultError", "ConfigError", "UsageError",
    # states and transforms
    "CovarianceMatrix", "PhysicalityReport",
    "make_vacuum", "make_thermal", "make_epr", "tensor", "apply_beamsplitter",
    "reduce", "symplectic_eigenvalues", "validate_physicality",
    # information measures
    "Partition", "DiscordResult",
    "shannon_entropy", "von_neumann_entropy", "conditional_mutual_information",
    "mutual_information", "homodyne_condition", "gaussian_discord",
    # topologies
    "SCENARIO_NAMES", "ScenarioParams", "ScenarioState", "build_scenario", "block_of",
    "basic_closed_form", "thermal_channel_closed_form", "full_closed_form_blocks",
    # intensity statistics
    "GENERATOR_ID", "G2Report", "sample_quadratures",
    "intensity", "g2_cross_estimate", "g2_analytic", "thermality_check",
    "VERDICT_THERMAL", "VERDICT_NOT_THERMAL", "VERDICT_INCONCLUSIVE",
    # sweeps
    "SweptRange", "SweepSpec", "SweepResult",
    "run_sweeps", "emit_csv", "parse_config", "expand_preset",
]
