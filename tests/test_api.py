"""The public API is the 41 names that the CLI, demos, tests and bench use."""

import importlib

import tapflow as tf

PUBLIC = [
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


def test_all_is_the_41_public_names():
    assert len(PUBLIC) == 41
    assert sorted(tf.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec("from tapflow import *", namespace)
    module = importlib.import_module("tapflow")
    for name in PUBLIC:
        assert namespace[name] is getattr(module, name), name
