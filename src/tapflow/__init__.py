"""Regulator tap selection for unbalanced three-phase distribution feeders.

A linear program over squared voltage magnitudes and complex branch flows
chooses continuous regulator ratios; the result is snapped to the integer tap
grid and verified against the exact nonlinear power flow solved by Z-bus
fixed-point iteration.
"""

from .errors import FeederFormatError, ModelValidationError, PipelineError
from .linflow import constants_balanced, constants_from_solution, lindiff, linear_powerflow
from .network import (BusSpec, FeederModel, LineSpec, PhaseMatrix, PhaseVector,
                      SvrSpec, parse_feeder, serialize, taps_to_ratios, tree_index, validate,
                      zero_taps)
from .opts import (OptsConfig, brute_force, build_lp, config_from_model, optimality_gap,
                   recover_ratios, run_opts, solve_lp_lexicographic)
from .simplex import SparseLp, residuals, solve_lp
from .ybus import assemble, recover_svr_secondary
from .zbus import (PowerFlowSolution, feasibility, import_objective,
                   import_objective_edges, kcl_certificate, solution_csv, solve_zbus,
                   voltage_envelope, voltage_unbalance)

__all__ = [
    "BusSpec", "FeederFormatError", "FeederModel", "LineSpec", "ModelValidationError",
    "OptsConfig", "PhaseMatrix", "PhaseVector", "PipelineError", "PowerFlowSolution",
    "SparseLp", "SvrSpec", "assemble", "brute_force", "build_lp", "config_from_model",
    "constants_balanced", "constants_from_solution", "feasibility", "import_objective",
    "import_objective_edges", "kcl_certificate", "lindiff", "linear_powerflow",
    "optimality_gap", "parse_feeder", "recover_ratios", "recover_svr_secondary", "residuals",
    "run_opts", "serialize", "solution_csv", "solve_lp", "solve_lp_lexicographic", "solve_zbus",
    "taps_to_ratios", "tree_index", "validate", "voltage_envelope", "voltage_unbalance",
    "zero_taps",
]
