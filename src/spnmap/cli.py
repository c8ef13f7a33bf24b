"""Command-line front end.

Exit codes: 0 on success, 1 when validation or solving fails, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .formats import (
    ParseError,
    parse_dimacs_cnf,
    parse_evidence,
    parse_graph,
    parse_spn,
    serialize_spn,
)
from .inference import evaluate, evaluate_marginal
from .logspace import Probability
from .network import Network, network_stats, validate
from .solvers import Solver, solve

# ``reductions``, ``experiments`` and ``csv`` are imported by the commands that
# use them, so a cold ``spnmap map`` process never loads them.

#: ``reduce cnf --epsilon`` refuses to build an amplified network larger than this.
MAX_AMPLIFIED_NODES = 1 << 21

_ALGOS = {
    "maxprod": Solver.MAX_PRODUCT,
    "amap": Solver.ARGMAX_PRODUCT,
    "exact": Solver.EXACT,
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_valid_network(path: str) -> Network:
    network = parse_spn(_read(path))
    violations = validate(network)
    if violations:
        for v in violations:
            print(f"violation {v.kind} node {v.node_id}: {v.message}", file=sys.stderr)
        raise ValueError(f"{path} failed validation with {len(violations)} violations")
    return network


def _print_value(p: Probability) -> None:
    print(f"value {_fmt(p.linear)} logvalue {_fmt(p.log)}")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _cmd_validate(args: argparse.Namespace) -> int:
    network = parse_spn(_read(args.file))
    violations = validate(network)
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(f"violation {v.kind} node {v.node_id}: {v.message}")
    return 1


def _cmd_eval(args: argparse.Namespace) -> int:
    network = _load_valid_network(args.file)
    assignment = parse_evidence(args.assignment)
    _print_value(evaluate(network, assignment))
    return 0


def _cmd_marginal(args: argparse.Namespace) -> int:
    network = _load_valid_network(args.file)
    evidence = parse_evidence(args.evidence)
    _print_value(evaluate_marginal(network, evidence))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    network = _load_valid_network(args.file)
    evidence = parse_evidence(args.evidence)
    result = solve(network, evidence, _ALGOS[args.algo])
    _print_value(result.value)
    pairs = " ".join(f"{var}={cat}" for var, cat in sorted(result.configuration.items()))
    print(f"config {pairs}")
    return 0


def _cmd_reduce_mis(args: argparse.Namespace) -> int:
    from .reductions import mis_to_spn

    graph = parse_graph(_read(args.file))
    result = mis_to_spn(graph)
    text = (
        f"# independent-set network for {graph.n} vertices\n"
        f"# normalizer {result.normalizer}\n"
    ) + serialize_spn(result.network)
    _write_output(text, args.output)
    return 0


def _cmd_reduce_cnf(args: argparse.Namespace) -> int:
    from .reductions import amplification_q, amplify, cnf_to_spn

    formula = parse_dimacs_cnf(_read(args.file))
    result = base = cnf_to_spn(formula)
    if args.epsilon is not None:
        single_copy_size = len(base.network.nodes) + base.network.arc_count
        q = amplification_q(len(formula.clauses), single_copy_size, args.epsilon)
        node_count = 1 + q * len(base.network.nodes)
        if node_count > MAX_AMPLIFIED_NODES:
            raise ValueError(f"{q} copies make {node_count} nodes, over {MAX_AMPLIFIED_NODES}")
        result = amplify(base, q)
    meta = result.metadata
    # The whole threshold, one copy's to the power q, can have more digits than
    # str() converts.
    threshold = result.normalizer
    log_threshold = math.log(threshold.numerator) - math.log(threshold.denominator)
    text = (
        f"# satisfiability network for {meta['m']} clauses over {meta['n']} variables\n"
        f"# copies {meta['q']}\n"
        f"# threshold {base.normalizer} per copy, total log {_fmt(log_threshold)}\n"
    ) + serialize_spn(result.network)
    _write_output(text, args.output)
    return 0


def _cmd_experiment_mis(args: argparse.Namespace) -> int:
    import csv

    from .experiments import ExperimentConfig, run_mis_experiment

    config = ExperimentConfig(
        vertex_counts=args.vertices,
        edge_percentages=args.edge_pct,
        repetitions=args.reps,
        base_seed=args.seed,
    )
    rows = run_mis_experiment(config)
    out = sys.stdout if args.csv is None else open(args.csv, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(["vertices", "edge_pct", "nodes", "mean_ratio", "stddev_ratio"])
        for row in rows:
            writer.writerow(
                [
                    row.vertices,
                    format(row.edge_pct, "g"),
                    row.node_count,
                    _fmt(row.mean_ratio),
                    _fmt(row.stddev_ratio),
                ]
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    network = _load_valid_network(args.file)
    stats = network_stats(network)
    print(f"nodes {stats.node_count}")
    print(f"sums {stats.sum_count}")
    print(f"products {stats.product_count}")
    print(f"leaves {stats.leaf_count}")
    print(f"height {stats.height}")
    degrees = ",".join(str(d) for d in stats.sum_out_degrees)
    print(f"degrees {degrees if degrees else '-'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spnmap",
        description="Sum-product network inference, MAP solving, and instance compilation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check a network document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = commands.add_parser("eval", help="probability of a total assignment")
    p.add_argument("file")
    p.add_argument("--assignment", required=True, help='e.g. "0=1,1=0"')
    p.set_defaults(handler=_cmd_eval)

    p = commands.add_parser("marginal", help="probability of partial evidence")
    p.add_argument("file")
    p.add_argument("--evidence", default="", help='e.g. "1=0"')
    p.set_defaults(handler=_cmd_marginal)

    p = commands.add_parser("map", help="most probable configuration")
    p.add_argument("file")
    p.add_argument("--algo", choices=sorted(_ALGOS), required=True)
    p.add_argument("--evidence", default="")
    p.set_defaults(handler=_cmd_map)

    reduce_parser = commands.add_parser("reduce", help="compile a problem into a network")
    reduce_sub = reduce_parser.add_subparsers(dest="problem", required=True)

    p = reduce_sub.add_parser("mis", help="maximum independent set")
    p.add_argument("file")
    p.add_argument("--output", "-o")
    p.set_defaults(handler=_cmd_reduce_mis)

    p = reduce_sub.add_parser("cnf", help="3-CNF satisfiability")
    p.add_argument("file")
    p.add_argument("--epsilon", type=float, help="amplify to beat a 2**(size**epsilon) factor")
    p.add_argument("--output", "-o")
    p.set_defaults(handler=_cmd_reduce_cnf)

    experiment_parser = commands.add_parser("experiment", help="run a ratio study")
    experiment_sub = experiment_parser.add_subparsers(dest="study", required=True)

    p = experiment_sub.add_parser("mis", help="solver ratio on random graphs")
    p.add_argument("--vertices", type=_int_list, required=True)
    p.add_argument("--edge-pct", type=_float_list, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write rows to this file instead of stdout")
    p.set_defaults(handler=_cmd_experiment_mis)

    p = commands.add_parser("stats", help="structural summary of a network")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
