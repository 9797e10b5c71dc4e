"""Submodular maximization with a persistent multiplicative-noise value
oracle: smoothing-set surrogates, a meta-algorithm wrapping exact-oracle
solvers, matroid constraints, and a Monte-Carlo benchmark harness."""
from .sets import ElementSet, GroundSet
from .setfn import (Coverage, CutFunction, Modular, WeightedAdditiveQuadratic,
                    brute_force_opt, check_submodular, evaluate, marginal,
                    multilinear_exact, value_table)
from .matroids import (ContractedMatroid, PartitionMatroid, UniformMatroid,
                       arbitrary_basis, contract, is_independent)
from .oracles import ExactOracle, ValueOracle
from .noise import (BoundedUniform, Gaussian, NoiseSpec, PersistentNoisyOracle,
                    ShiftedExponential)
from .surrogate import (ParamBudget, SampledSurrogateOracle, SurrogateConfig,
                        SurrogateParams, compute_parameters, surrogate_exact)
from .solvers import (DoubleGreedy, Greedy, MeasuredContinuousGreedy,
                      RandomSubset, double_greedy, greedy_cardinality,
                      measured_continuous_greedy, pipage_round, run_solver)
from .meta import MetaConfig, best_of_T, comparison_surrogate_f0, meta_solve
from .instance_io import (Instance, dumps_instance, load_instance,
                          loads_instance, save_instance)
from .harness import ExperimentResult, ExperimentSpec, run_experiment

__all__ = [
    "ElementSet", "GroundSet",
    "Coverage", "CutFunction", "Modular", "WeightedAdditiveQuadratic",
    "brute_force_opt", "check_submodular", "evaluate", "marginal",
    "multilinear_exact", "value_table",
    "ContractedMatroid", "PartitionMatroid", "UniformMatroid",
    "arbitrary_basis", "contract", "is_independent",
    "ExactOracle", "ValueOracle",
    "BoundedUniform", "Gaussian", "NoiseSpec", "PersistentNoisyOracle",
    "ShiftedExponential",
    "ParamBudget", "SampledSurrogateOracle", "SurrogateConfig",
    "SurrogateParams", "compute_parameters", "surrogate_exact",
    "DoubleGreedy", "Greedy", "MeasuredContinuousGreedy", "RandomSubset",
    "double_greedy", "greedy_cardinality", "measured_continuous_greedy",
    "pipage_round", "run_solver",
    "MetaConfig", "best_of_T", "comparison_surrogate_f0", "meta_solve",
    "Instance", "dumps_instance", "load_instance", "loads_instance",
    "save_instance",
    "ExperimentResult", "ExperimentSpec", "run_experiment",
]
