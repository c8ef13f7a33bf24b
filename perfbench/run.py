"""Benchmark of the spnmap library: one workload per run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload ratio_study --seed 1 --seconds 15 --trace 0
    python3 -m pytest perfbench      # smoke test at small sizes

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src`` directory, and the run fails without printing a result
when that directory holds no ``spnmap`` package.  The workloads are
``ratio_study``, ``amplified_cnf``, ``exact_enum`` and ``cli_map`` (see
``workloads.py``).  Each runs closed loop in this one process: a warm-up pass
over the workload's operations, then whole passes until ``--seconds`` have
gone by.  Every operation's output is checked against oracles.

The last line printed is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes alternate
and the metrics are its ``per_layer`` metrics, computed from spans that are
written to ``perfbench/out/trace-<workload>-<seed>.json``.  The line before
it is a report with the workload's own named metrics, sample counts, the
Python and numpy versions and the processor count.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from spawner import Spawner
from tracing import Tracer, roots, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("ratio_study", "amplified_cnf", "exact_enum", "cli_map")
#: Set-up (fresh-process import plus input generation) is repeated this often.
SETUP_REPEATS = 5
#: Layers whose self time is reported; ``bench`` is time inside an operation
#: that no library span covers (process start-up for ``cli_map``).
LAYERS = ("reductions", "network", "formats", "inference", "solvers", "experiments", "cli", "bench")
IMPORT_PROBE = "import time; t = time.perf_counter(); import spnmap, spnmap.cli; print(time.perf_counter() - t)"
#: Seconds the reference kernel takes at the nominal machine speed.
NOMINAL_KERNEL_S = 0.014
#: Seconds the reference process takes at the nominal machine speed.
NOMINAL_PROCESS_S = 0.1
#: The kernel runs between operations at least this often ...
KERNEL_INTERVAL_S = 0.25
#: ... and a timing is scaled by the kernel runs within this many seconds of it.
KERNEL_WINDOW_S = 1.0


def load_library() -> None:
    """Import spnmap from the checkout's ``src``; exit with an error if it is not there."""
    if not (SRC / "spnmap" / "__init__.py").is_file():
        raise SystemExit(f"error: no spnmap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spnmap

    if Path(spnmap.__file__).resolve().parent != SRC / "spnmap":
        raise SystemExit(f"error: spnmap was imported from {spnmap.__file__}, not {SRC}")


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    t0 = perf_counter()
    table = {}
    for i in range(120000):
        table[i] = (i * 7919) % 10007
    sum(table.values())
    values = np.linspace(0.0, 1.0, 4096)
    for _ in range(200):
        values = np.log1p(np.exp(values)) - 0.5
    return perf_counter() - t0


class Speed:
    """Machine speed sampled between operations, to scale timings to a nominal speed.

    On a shared host the speed can drift by tens of percent within seconds,
    for the library and for any other code alike.  So a reference
    ``kernel`` is timed at least every ``KERNEL_INTERVAL_S`` between
    operations and between the stages of a long one, and each timed stretch
    is multiplied by ``nominal_s`` over the median kernel time within
    ``KERNEL_WINDOW_S`` of it.  The library never runs in the kernel, so a
    change to the library moves the scaled times as it moves the raw ones.
    """

    def __init__(self, kernel, nominal_s: float) -> None:
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.starts.append(perf_counter())
        self.seconds.append(self.kernel())

    def maybe_sample(self) -> None:
        if not self.starts or perf_counter() - self.starts[-1] >= KERNEL_INTERVAL_S:
            self.sample()

    def timed(self, run) -> tuple[object, list[tuple[float, float]]]:
        """Call ``run(pause)``; returns its output and the ``(start, seconds)`` stretches timed.

        ``pause`` ends a stretch, samples the kernel if it is due, and starts
        the next stretch, so the kernel's own time is never counted.
        """
        stretches: list[tuple[float, float]] = []
        mark = perf_counter()

        def pause() -> None:
            nonlocal mark
            stretches.append((mark, perf_counter() - mark))
            self.maybe_sample()
            mark = perf_counter()

        out = run(pause)
        stretches.append((mark, perf_counter() - mark))
        return out, stretches

    def scale(self, stretches: list[tuple[float, float]]) -> float:
        total = 0.0
        for start, seconds in stretches:
            lo = bisect.bisect_left(self.starts, start - KERNEL_WINDOW_S)
            hi = bisect.bisect_right(self.starts, start + seconds + KERNEL_WINDOW_S)
            near = self.seconds[lo:hi] or self.seconds
            total += seconds * self.nominal_s / statistics.median(near) if near else seconds
        return total


def metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def set_up(workload, speed: Speed, spawner: Spawner) -> tuple[float, object]:
    """Median scaled seconds of a fresh-process import plus input generation, and the inputs.

    The import is scaled by the reference process run right before it.
    """

    def import_seconds() -> float:
        reference_s = spawner.reference_process()
        done = spawner.run(["-c", IMPORT_PROBE])
        if done.returncode != 0:
            raise RuntimeError(f"importing spnmap failed: {done.stderr[-500:]}")
        return float(done.stdout) * NOMINAL_PROCESS_S / reference_s

    import_seconds()  # writes the bytecode caches of a fresh checkout
    totals = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        speed.sample()
        t0 = perf_counter()
        inputs = workload.generate()
        generate_s = perf_counter() - t0
        speed.sample()
        totals.append(seconds + speed.scale([(t0, generate_s)]))
    return statistics.median(totals), inputs


@dataclass
class State:
    """Everything a run records about the operations it executed."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    known: dict[str, int] = field(default_factory=dict)
    #: ``(label, stretches, work, headline)`` of every untraced measured operation.
    samples: list[tuple] = field(default_factory=list)
    #: The timed stretches of each measured pass.
    untraced_passes: list[list[tuple]] = field(default_factory=list)
    traced_passes: list[list[tuple]] = field(default_factory=list)
    #: The counts of every pass, in operation order.
    passes: list[list[dict]] = field(default_factory=list)
    #: ``[op id, label, counts]`` of every traced operation.
    traced_ops: list[list] = field(default_factory=list)
    next_op: int = 0


def execute(op, tracer, op_id: int, speed: Speed):
    """Run one operation; returns its output and its timed stretches."""
    if tracer is None:
        return speed.timed(op.run)
    with tracer.span("bench.op", op=op_id) as index:
        t0 = perf_counter()
        out = op.run_traced(tracer, index) if op.run_traced else op.run(lambda: None)
        stretches = [(t0, perf_counter() - t0)]
    if op.probe is not None:
        with tracer.span("bench.probe", op=op_id):
            op.probe(out)
    return out, stretches


def run_pass(ops, state: State, speed: Speed, known_defects, tracer=None, measured: bool = True) -> list[tuple]:
    """Execute and check every operation once; returns the stretches timed."""
    pass_counts, timings = [], []
    for op in ops:
        speed.maybe_sample()
        op_id = state.next_op
        state.next_op += 1
        state.attempted += 1
        stretches = None
        try:
            out, stretches = execute(op, tracer, op_id, speed)
            timings.extend(stretches)
            failed, counts = op.check(out)
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            failed, counts = [f"raised {type(exc).__name__}: {exc}"], {}
        pass_counts.append(counts)
        if failed:
            state.failed += 1
        for check in failed:
            if (op.label, check) in known_defects:
                state.known[f"{op.label}/{check}"] = state.known.get(f"{op.label}/{check}", 0) + 1
            elif len(state.errors) < 20:
                state.errors.append(f"{op.label}: {check}")
        if tracer is not None:
            state.traced_ops.append([op_id, op.label, counts])
        elif measured and stretches is not None:
            state.samples.append((op.label, stretches, op.work, op.headline))
    state.passes.append(pass_counts)
    return timings


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("spnmap/*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(state: State, key: str) -> str:
    """Counts must repeat on every pass, and across runs of the same code and seed."""
    first = json.dumps(state.passes[0], sort_keys=True)
    if any(json.dumps(p, sort_keys=True) != first for p in state.passes[1:]):
        state.errors.append("counts differ between passes")
    digest = hashlib.sha256(first.encode()).hexdigest()[:16]
    stored = OUT / f"counts-{key}-{code_digest()}.txt"
    if stored.exists() and stored.read_text(encoding="utf-8") != digest:
        state.errors.append(f"counts differ from an earlier run with the same code and seed ({stored.name})")
    elif not state.errors:
        stored.write_text(digest, encoding="utf-8")
    return digest


def end_to_end(samples: list[tuple], setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    seconds = sum(s for _, s, _, _ in samples)
    headline = [s for _, s, _, h in samples if h]
    return {
        "throughput_per_s": sum(w for _, _, w, _ in samples) / seconds,
        "latency_ms_p50": statistics.median(headline) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: list[list], state: State, speed: Speed, overhead: float, extras: dict[str, float]) -> dict[str, float]:
    durations: dict[str, list[float]] = defaultdict(list)
    sizes: dict[str, int] = defaultdict(int)
    for name, start, end, _, _, size in spans:
        durations[name].append(speed.scale([(start, end - start)]))
        sizes[name] += size

    def mean(name: str, scale: float = 1.0) -> float:
        d = durations[name]
        return sum(d) / len(d) * scale if d else 0.0

    def rate(names: tuple[str, ...], scale: float = 1.0) -> float:
        busy = sum(sum(durations[n]) for n in names)
        return sum(sizes[n] for n in names) / busy * scale if busy else 0.0

    def over(a: str, b: str) -> float:
        return mean(a) / mean(b) if durations[a] and durations[b] else 0.0

    top, own = roots(spans), self_times(spans)
    in_ops = [i for i in range(len(spans)) if spans[top[i]][0] == "bench.op"]
    op_total = sum(own[i] for i in in_ops)
    share = dict.fromkeys(LAYERS, 0.0)
    for i in in_ops:
        share[spans[i][0].split(".")[0]] += own[i] / op_total
    counts = state.passes[0]
    gains = [c["amap_gain"] for c in counts if "amap_gain" in c]
    metrics = {
        "reductions.mis_to_spn_ms": mean("reductions.mis_to_spn", 1e3),
        "reductions.cnf_to_spn_ms": mean("reductions.cnf_to_spn", 1e3),
        "reductions.amplify_s": mean("reductions.amplify"),
        "network.construct_s": mean("network.construct"),
        "network.validate_s": mean("network.validate"),
        "formats.serialize_s": mean("formats.serialize_spn"),
        "formats.parse_s": mean("formats.parse_spn"),
        "formats.parse_mb_per_s": rate(("formats.parse_spn",), 1e-6),
        "inference.marginal_ms": mean("inference.evaluate_marginal", 1e3),
        "inference.evaluate_ms": mean("inference.evaluate", 1e3),
        "inference.batch_log_values_ms": mean("inference.batch_log_values", 1e3),
        "inference.enum_configs_per_s": rate(("solvers.exact_map", "inference.log_partition")),
        "inference.log_partition_s": mean("inference.log_partition"),
        "solvers.max_product_ms": mean("solvers.max_product", 1e3),
        "solvers.argmax_product_ms": mean("solvers.argmax_product", 1e3),
        "solvers.exact_map_s": mean("solvers.exact_map"),
        "solvers.decision_ms": mean("solvers.decision_map", 1e3),
        "solvers.mp_over_pass": over("solvers.max_product", "inference.evaluate_marginal"),
        "solvers.amap_over_mp": over("solvers.argmax_product", "solvers.max_product"),
        "solvers.amap_gain_share": sum(gains) / len(gains) if gains else 0.0,
        "experiments.random_graph_ms": mean("experiments.random_graph", 1e3),
        "experiments.run_mis_experiment_s": 0.0,
        "experiments.harness_overhead": 0.0,
        "cli.import_ms": mean("cli.import", 1e3),
        "cli.main_ms": mean("cli.main", 1e3),
        "network.nodes_per_op": statistics.mean(c.get("nodes", 0) for c in counts),
        "network.arcs_per_op": statistics.mean(c.get("arcs", 0) for c in counts),
        "trace.overhead_share": overhead,
    }
    metrics.update({f"{layer}.self_share": value for layer, value in share.items()})
    metrics.update(extras)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns ``(report, result)``, the two lines ``main`` prints."""
    load_library()
    with Spawner(ROOT, dict(os.environ, PYTHONPATH=str(SRC))) as spawner:
        return measure(workload_name, seed, seconds, trace, small, spawner)


def measure(workload_name: str, seed: int, seconds: float, trace: bool, small: bool, spawner: Spawner) -> tuple[dict, dict]:
    from workloads import KNOWN_DEFECTS, WORKLOADS, CliMap

    units = metric_units()
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[workload_name]
    workload = cls(seed, small, ROOT, OUT, spawner) if cls is CliMap else cls(seed, small)
    if cls is CliMap:
        speed = Speed(spawner.reference_process, NOMINAL_PROCESS_S)
    else:
        speed = Speed(reference_kernel, NOMINAL_KERNEL_S)
    setup_s, inputs = set_up(workload, speed, spawner)
    ops = workload.prepare(inputs)

    state = State()
    run_pass(ops, state, speed, KNOWN_DEFECTS, measured=False)  # warm-up
    tracer = Tracer() if trace else None
    start = perf_counter()
    while True:
        state.untraced_passes.append(run_pass(ops, state, speed, KNOWN_DEFECTS))
        if tracer is not None:
            with tracer.install():
                state.traced_passes.append(run_pass(ops, state, speed, KNOWN_DEFECTS, tracer))
        if perf_counter() - start >= seconds:
            break
    speed.sample()

    samples = [(label, speed.scale(stretches), work, headline) for label, stretches, work, headline in state.samples]
    key = f"{workload_name}-{'small' if small else 'full'}-{seed}"
    digest = check_counts(state, key)
    finish_errors, extras = workload.finish(state.passes[0], statistics.mean(map(speed.scale, state.untraced_passes)), speed)
    state.errors.extend(finish_errors)
    # The peak of the process, or of the largest command-line process.
    peak_kb = spawner.peak_rss_kb if cls is CliMap else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = peak_kb / 1024.0

    if trace:
        overhead = sum(map(speed.scale, state.traced_passes)) / sum(map(speed.scale, state.untraced_passes)) - 1.0
        metrics = per_layer(tracer.spans, state, speed, overhead, extras)
        trace_file = OUT / f"trace-{key}.json"
        trace_file.write_text(json.dumps({"workload": workload_name, "seed": seed, "ops": state.traced_ops, "spans": tracer.spans}))
    else:
        metrics = end_to_end(samples, setup_s, peak_rss_mb)
    kind = "per_layer" if trace else "end_to_end"
    if set(metrics) != set(units[kind]):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units[kind]))} disagree with BENCHMARK.json")

    named = workload.named([s[:3] for s in samples])
    named["setup_s"] = {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS}
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}
    named["error_rate"] = {"value": state.failed / state.attempted, "unit": "share", "samples": state.attempted}
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": {"untraced": len(state.untraced_passes), "traced": len(state.traced_passes), "warmup": 1},
        "samples": len(samples),
        "speed": {
            "nominal_kernel_s": speed.nominal_s,
            "median_kernel_s": statistics.median(speed.seconds) if speed.seconds else None,
            "kernel_runs": len(speed.seconds),
            "unscaled_throughput_per_s": sum(s[2] for s in state.samples) / sum(t for s in state.samples for _, t in s[1]),
        },
        "named_metrics": named,
        "errors": state.errors,
        "known_defects": state.known,
        "counts_digest": digest,
    }
    result = {
        "correct": not state.errors,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": units[kind][name]} for name, value in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None, small: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), small)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
