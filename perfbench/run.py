#!/usr/bin/env python3
"""Benchmark of noisysubmax: trials per second, set-up time and memory on
the paper's noisy workloads, with per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and exits with an error if that is missing.

With --trace 0 it measures the end-to-end metrics with tracing off.  With
--trace 1 it splits the time between an untraced and a traced phase and
reports the per-layer metrics (see perfbench/README.md for what each one
should move).  Every run checks the output of every trial.  The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Span traces and the full result go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from layers import PACKAGE, ROOT as ROOT_SPAN, Tracer, span_names  # noqa: E402
from workloads import ConstrainedMix, Unconstrained, peak_rss_mb  # noqa: E402

WORKLOADS = {w.name: w for w in (
    Unconstrained("unconstrained_n50", n=50, workers=1, quality_trials=100),
    Unconstrained("unconstrained_n100_pool", n=100, workers=2, quality_trials=48),
    ConstrainedMix(),
)}

SETUP_REPS = 9
TAIL_BEYOND = 10  # the tail percentile keeps this many trials beyond it
TRACE_MIN_TRIALS = 2  # per phase of a traced run
NS_PER_CALL = ("noise.value_mask", "noise.multiplier_mask", "setfn.evaluate_mask.waq",
               "setfn.evaluate_mask.coverage", "setfn.evaluate_mask.cut")
UNREPORTED_SPANS = {"setfn.evaluate_mask.modular"}  # no workload calls it

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ratio_mean": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{ROOT_SPAN}.self_ms": "ms/trial"}
    for name in span_names()[1:]:
        if name in UNREPORTED_SPANS:
            continue
        units[f"{name}.calls"] = "1/trial"
        units[f"{name}.self_ms"] = "ms/trial"
    for name in NS_PER_CALL:
        units[f"{name}.ns_per_call"] = "ns"
    units["noise.distinct_ratio"] = "ratio"
    units["harness.pool_efficiency"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class SourceMissing(Exception):
    pass


def import_package():
    """Import noisysubmax afresh from this checkout's src/."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SourceMissing(f"no {PACKAGE} sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    ns = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".random_instances")
    if Path(ns.__file__).resolve().parent != SRC / PACKAGE:
        raise SourceMissing(f"imported {PACKAGE} from {ns.__file__}, not from {SRC}")
    return ns


def set_up(workload, seed: int):
    """Import the package and build the workload's inputs SETUP_REPS times;
    the last import and inputs are the ones measured."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ns = import_package()
        state = workload.setup(ns, seed)
        times.append(time.perf_counter() - t0)
    return ns, state, times


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def paper_targets(n: int) -> tuple[dict, float | None]:
    """The acceptance test's reference means for ground-set size n, read
    from tests/test_acceptance.py without importing it."""
    try:
        tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    except (OSError, SyntaxError):
        return {}, None
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                values[node.targets[0].id] = ast.literal_eval(node.value)
            except (ValueError, TypeError, SyntaxError):
                continue
    return values.get(f"TARGETS_N{n}", {}), values.get("BENCH_TOL")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; with fewer samples, the maximum."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (1.0 - TAIL_BEYOND / len(ordered))


def end_to_end(workload, ns, state, setup_times, seconds, info):
    run = workload.run(ns, state, seconds, workload.quality_trials)
    if not run.trial_ms:
        raise RuntimeError("no trial succeeded: " + "; ".join(run.errors))
    quality = run.quality[:workload.quality_trials]
    fastest = min(run.trial_ms)
    metrics = {
        "trials_per_s": run.workers * run.busy_share * 1e3 / fastest,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": run.rss_mb or peak_rss_mb(),
        "ratio_mean": statistics.fmean(quality),
    }
    tail_ms, tail_pct = tail(run.trial_ms)
    info["not_gated"] = {
        "trial_ms_min": [fastest, "ms"],
        "trial_ms_p50": [statistics.median(run.trial_ms), "ms"],
        "trial_ms_tail": [tail_ms, "ms"],
        "trials_per_s_overall": [run.trials / run.wall_s, "1/s"],
        "failed_share": [run.failed / run.attempted, "ratio"],
    }
    info.update(trials=run.trials, busy_share=run.busy_share, tail_percentile=round(tail_pct, 3),
                tail_samples=len(run.trial_ms), ratio_trials=len(quality),
                setup_reps_s=setup_times)
    if isinstance(workload, Unconstrained):
        targets, tol = paper_targets(workload.n)
        info["algorithm_means"] = {
            name: {"mean": statistics.fmean(r), "target": targets.get(name),
                   "within_tol": (abs(statistics.fmean(r) - targets[name]) <= tol
                                  if name in targets and tol is not None else None)}
            for name, r in run.by_algorithm.items()}
        info["target_tol"] = tol
    return metrics, [run], list(run.errors)


def per_layer(workload, ns, state, seconds, info):
    pooled = workload.workers > 1
    phase = seconds / (3 if pooled else 2)
    untraced = workload.run(ns, state, phase, TRACE_MIN_TRIALS)
    serial = workload.run(ns, state, phase, TRACE_MIN_TRIALS, workers=1) if pooled else untraced
    with Tracer() as tracer:
        traced = workload.run(ns, state, phase, TRACE_MIN_TRIALS, tracer=tracer, workers=1)
    trials = traced.trials
    calls = dict(zip(tracer.names, tracer.calls))
    self_ms = tracer.layer_self_ms()
    metrics = {f"{ROOT_SPAN}.self_ms": self_ms[ROOT_SPAN] / trials}
    for name in tracer.names[1:]:
        if name not in UNREPORTED_SPANS:
            metrics[f"{name}.calls"] = calls[name] / trials
            metrics[f"{name}.self_ms"] = self_ms[name] / trials
    for name in NS_PER_CALL:
        metrics[f"{name}.ns_per_call"] = (self_ms[name] * 1e6 / calls[name]
                                          if calls[name] else 0.0)
    queries = calls["noise.value_mask"]
    metrics["noise.distinct_ratio"] = tracer.distinct_masks() / queries if queries else 0.0
    metrics["harness.pool_efficiency"] = untraced.busy_share
    metrics["trace.overhead"] = (traced.trials / traced.wall_s) / (serial.trials / serial.wall_s)

    problems = [f"{msg} ({count}x)" for msg, count in tracer.violations.items()]
    for run in (untraced, serial, traced) if pooled else (untraced, traced):
        problems.extend(run.errors)
    total_self_ns = sum(tracer.self_ns)
    if total_self_ns != tracer.wall_ns:
        problems.append(f"layer self times sum to {total_self_ns} ns, traced wall is "
                        f"{tracer.wall_ns} ns")
    missing = {"setfn", "noise", "oracles", "surrogate"} - set(
        tracer.patched["setfn.evaluate_mask"])
    if missing:
        problems.append(f"evaluate_mask not wrapped in {sorted(missing)}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{info['seed']}.spans.jsonl"
    tracer.write_spans(spans_path)
    info.update(
        traced_trials=trials,
        traced_serially=pooled,
        trace_note=("spans are not collected from forked workers, so the traced "
                    "phase runs the pool workload's batches with 1 worker")
        if pooled else None,
        traced_wall_ms=tracer.wall_ns / 1e6,
        layers_self_ms=sum(v for k, v in self_ms.items() if k != ROOT_SPAN),
        bench_loop_self_ms=self_ms[ROOT_SPAN],
        query_checks={k: v for k, v in tracer.violations.items()} or "all passed",
        evaluate_mask_wrapped_in=tracer.patched["setfn.evaluate_mask"],
        spans_file=spans_path.name,
        spans_kept=len(tracer.spans),
    )
    runs = [untraced, serial, traced] if pooled else [untraced, traced]
    return metrics, runs, problems


def stop_children() -> None:
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    workload = WORKLOADS[args.workload]
    try:
        ns, state, setup_times = set_up(workload, args.seed)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    info = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    try:
        if args.trace:
            values, runs, problems = per_layer(workload, ns, state, args.seconds, info)
            units = per_layer_units()
        else:
            values, runs, problems = end_to_end(workload, ns, state, setup_times,
                                                args.seconds, info)
            units = END_TO_END_UNITS
    finally:
        stop_children()
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for problem in problems:
        print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:<52} {metric['value']:>14.6g} {metric['unit']}")
    for name, (value, unit) in info.get("not_gated", {}).items():
        print(f"{name:<52} {value:>14.6g} {unit}  (reported, not gated)")
    print("info " + json.dumps(info))
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    samples = {"trial_ms": [r.trial_ms for r in runs]}
    out_file.write_text(json.dumps({"info": info, "problems": problems, **result,
                                    "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
