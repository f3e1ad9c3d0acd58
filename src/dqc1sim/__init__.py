"""Exact one-clean-qubit simulation and numerical hardness-chain checks.

The package has four layers: circuit IR plus compilers (circuits),
state-vector evaluation of one-clean-qubit quantities (simulator),
brute-force cross-checks (oracles), and the worst-case constructions with
every chain inequality (hardness, ensembles).  The dqc1sim console script
exposes all of it.
"""

from .circuits import (
    Circuit,
    CircuitFormatError,
    Gate,
    IsingInstance,
    PolyF2,
    adjoint,
    compile_iqp_from_ising,
    compile_iqp_from_poly,
    load_circuit,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from .ensembles import (
    load_ensemble_dir,
    parse_ensemble_spec,
    random_htcx_ensemble,
    random_iqp_ensemble,
)
from .hardness import (
    ChainReport,
    Ensemble,
    ErrorBudget,
    SamplerModel,
    approximate_count,
    build_postselection_pair,
    build_worst_case_embedding,
    make_noisy_distribution,
    success_fraction_bound,
    total_variation_distance,
    verify_chain,
)
from .oracles import circuit_unitary, density_matrix_dqc1, gap, ising_partition_function
from .simulator import (
    Distribution,
    StateVector,
    amplitude_zero,
    apply_circuit,
    dqc1_distribution,
    f_value,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "ChainReport",
    "Circuit",
    "CircuitFormatError",
    "Distribution",
    "Ensemble",
    "ErrorBudget",
    "Gate",
    "IsingInstance",
    "PolyF2",
    "SamplerModel",
    "StateVector",
    "adjoint",
    "amplitude_zero",
    "apply_circuit",
    "approximate_count",
    "build_postselection_pair",
    "build_worst_case_embedding",
    "circuit_unitary",
    "compile_iqp_from_ising",
    "compile_iqp_from_poly",
    "density_matrix_dqc1",
    "dqc1_distribution",
    "f_value",
    "gap",
    "ising_partition_function",
    "load_circuit",
    "load_ensemble_dir",
    "make_noisy_distribution",
    "parse_circuit",
    "parse_ensemble_spec",
    "random_htcx_ensemble",
    "random_iqp_ensemble",
    "sample",
    "save_circuit",
    "serialize_circuit",
    "success_fraction_bound",
    "total_variation_distance",
    "verify_chain",
]
