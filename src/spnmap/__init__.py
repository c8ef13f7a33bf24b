"""Sum-product network inference with exact and approximate MAP solvers.

The public names load lazily (PEP 562): ``import spnmap`` runs none of the
submodules, and the first read of a name, ``from spnmap import *`` included,
imports the submodule that defines it and binds the name in the package.  So
a process pays only for the modules it uses: ``spnmap map`` never loads
``experiments`` or ``reductions``.  As with any package, a submodule is an
attribute of ``spnmap`` once something has imported it.
"""

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "experiments": (
        "ExperimentConfig",
        "ExperimentRow",
        "derive_seed",
        "gap_fragment",
        "gap_network",
        "random_graph",
        "random_spn",
        "ratio",
        "run_mis_experiment",
    ),
    "formats": (
        "ParseError",
        "parse_dimacs_cnf",
        "parse_evidence",
        "parse_graph",
        "parse_spn",
        "serialize_graph",
        "serialize_spn",
    ),
    "inference": (
        "batch_log_values",
        "count_free_configurations",
        "decode_configuration",
        "enumerate_log_values",
        "evaluate",
        "evaluate_marginal",
        "log_partition",
    ),
    "logspace": ("LOG_ZERO", "Probability"),
    "network": (
        "Assignment",
        "Evidence",
        "LeafNode",
        "Network",
        "NetworkStats",
        "Node",
        "ProductNode",
        "SumNode",
        "Variable",
        "Violation",
        "network_stats",
        "validate",
    ),
    "reductions": (
        "CnfFormula",
        "Graph",
        "ReductionResult",
        "amplification_q",
        "amplify",
        "cnf_to_spn",
        "mis_decision_threshold",
        "mis_to_spn",
    ),
    "solvers": (
        "DegreeBound",
        "MapResult",
        "Solver",
        "approx_factor_bound",
        "argmax_product",
        "decision_map",
        "exact_map",
        "max_product",
        "solve",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``__import__``, unlike ``importlib.import_module``, is timed by ``-X importtime``.
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
