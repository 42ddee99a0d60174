"""Profit-driven seed selection on social networks with coupon costs.

The package models product adoption as a triggering-style diffusion where
a customer needs both social activation and a price they can afford.
Seeding a customer hands out a coupon, so the objective trades adoption
revenue against coupon spend and is submodular but not monotone.

Main entry points:

    build_tc_network     assemble a network from a graph and pricing
    spm / rpm / ra_t / ra_s   selection algorithms (functional API)
    SimulationSelector etc.   the same algorithms as fit()-style estimators
    exact_profit / profit_table   brute-force oracles for tiny instances
"""

from .algorithms import (ALGORITHMS, MemoryBudgetError, SelectionResult,
                         node_order, ra_s, ra_t, rpm, spm)
from .baselines import high_degree, max_inf
from .bounds import (RASParams, Thresholds, delta0, delta1, delta1_star,
                     delta2, delta2_star, delta3, search_rat_params,
                     solve_ras_params, thresholds_at)
from .diffusion import (ProfitEstimate, Realization, estimate_profit_simulation,
                        replay_on_realization, sample_realization,
                        simulate_block, simulate_once, simulate_sets)
from .exact import (OracleSizeError, best_seed_set, exact_pi, exact_profit,
                    pi_table, profit_table, realization_count)
from .greedy import CoverageOracle, FunctionOracle, double_greedy
from .network import (CONFIG_KEYS, MODELS, DiffusionParams, Graph, NetworkError,
                      ParameterError, ParseError, TCNetwork, build_tc_network,
                      generate_intrinsics, ingest_edge_list, load_intrinsics,
                      load_network_config)
from .report import ReportError, RunReport, build_report, validate_report
from .sampling import (RACollection, CollectionBuilder, estimate_F,
                       generate_collection)
from .selectors import (SELECTORS, BaseSelector, HighDegreeBaseline,
                        MaxCoverageBaseline, RealizationSelector,
                        ReverseSimulationSelector, ReverseThresholdSelector,
                        SimulationSelector)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "BaseSelector", "CONFIG_KEYS",
    "CollectionBuilder", "CoverageOracle", "DiffusionParams", "FunctionOracle",
    "Graph", "HighDegreeBaseline", "MaxCoverageBaseline", "MemoryBudgetError",
    "MODELS", "NetworkError", "OracleSizeError", "ParameterError", "ParseError",
    "ProfitEstimate", "RACollection", "RASParams", "Realization",
    "RealizationSelector", "ReportError", "ReverseSimulationSelector",
    "ReverseThresholdSelector", "RunReport", "SELECTORS", "SelectionResult",
    "SimulationSelector", "TCNetwork", "Thresholds", "best_seed_set",
    "build_report", "build_tc_network", "delta0", "delta1", "delta1_star",
    "delta2", "delta2_star", "delta3", "double_greedy", "estimate_F",
    "estimate_profit_simulation", "exact_pi", "exact_profit",
    "generate_collection", "generate_intrinsics",
    "high_degree", "ingest_edge_list", "load_intrinsics",
    "load_network_config", "max_inf", "node_order",
    "pi_table", "profit_table", "ra_s", "ra_t", "realization_count",
    "replay_on_realization", "rpm", "sample_realization",
    "search_rat_params", "simulate_block", "simulate_once",
    "simulate_sets", "solve_ras_params", "spm", "thresholds_at", "validate_report",
]
