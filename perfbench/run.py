"""DeviceScope benchmark: four workloads against the paper-scale model.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Workloads (see README.md for the op definitions and input make-up):
``interactive`` and ``live`` drive the HTTP server in its own process;
``backfill`` and ``train`` run the program in this process. Every run
prints the hardware fingerprint, per-phase accounting of operations
and, as its last line, one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
End-to-end wall times are net of host steal (``common.net_seconds``);
the clock's own figures are printed beside them.
A failed correctness check ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

import numpy as np

import common


def round_rate(ops: list[dict], key: str) -> float:
    """Completions per second: for each stream (tenant), the median over
    its rounds of ops per second of round wall time; summed over streams.
    With ``key="net"`` each round's wall time is scaled by the share of
    its ops' time that host steal did not take (net / raw latency)."""
    rounds = defaultdict(list)
    for op in ops:
        rounds[op["tenant"], op["round"]].append(op)
    rates = defaultdict(list)
    for (stream, _), members in rounds.items():
        begin = min(op["end"] - op["latency"] for op in members)
        wall = max(op["end"] for op in members) - begin
        wall *= sum(op[key] for op in members) / sum(op["latency"] for op in members)
        rates[stream].append(len(members) / wall)
    return sum(float(np.median(r)) for r in rates.values())


def end_to_end(phase: dict, setups: list[tuple[float, float]], key: str = "net") -> dict:
    """The end-to-end metrics. Wall times are net of host steal
    (``key="net"``, ``common.net_seconds``) or as the clock read them
    (``key="latency"``)."""
    ops = phase["ops"]
    latencies = [op[key] * 1e3 for op in ops if op["status"] == 200]
    if "cpu" in ops[0]:  # in process: CPU of each op
        cpu_ms = float(np.median([op["cpu"] for op in ops])) * 1e3
    else:  # the server process's CPU over the whole measurement
        cpu_ms = phase["cpu"] * 1e3 / len(ops)
    setup_s = float(np.median([net if key == "net" else raw for raw, net in setups]))
    return {
        "ops_per_s": (round_rate(ops, key), "ops/s"),
        "latency_p50_ms": (common.quantile(latencies, 0.50), "ms"),
        "latency_p95_ms": (common.quantile(latencies, 0.95), "ms"),
        "cpu_ms_per_op": (cpu_ms, "ms"),
        "peak_rss_mb": (phase["rss"], "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(phases: dict, lines: list[str]) -> dict:
    import tracing

    untraced, traced = phases["measure"], phases["measure-traced"]
    rows = tracing.span_table(traced["spans"])
    op_requests = {rid for op in traced["ops"] for rid, _ in op["requests"]}
    measured = [r for r in rows if r["request"] in op_requests]
    n_ops = len(traced["ops"])
    metrics = tracing.layer_metrics(measured, n_ops)
    metrics.update(tracing.setup_metrics(
        [r for r in rows if r["request"] in traced["setup_requests"]]))

    # What the caller waited beyond the outermost span: HTTP transport and
    # parsing for the served workloads, loop glue in process.
    roots = {r["request"]: r["ms"] for r in measured if r["name"] in (
        "serve.service.execute", "core.pipeline.localize_house",
        "models.training.train_ensemble")}
    outside = sum(
        elapsed * 1e3 - roots.get(rid, 0.0)
        for op in traced["ops"] for rid, elapsed in op["requests"]
    ) / n_ops
    served = any(r["name"] == "serve.service.execute" for r in measured)
    metrics["serve.http.overhead_ms"] = outside if served else 0.0

    untraced_ms = float(np.mean([op["latency"] for op in untraced["ops"]])) * 1e3
    traced_ms = float(np.mean([op["latency"] for op in traced["ops"]])) * 1e3
    path_ms = sum(r["self_ms"] for r in measured) / n_ops + outside
    metrics.update({
        "trace.untraced_op_ms": untraced_ms,
        "trace.traced_op_ms": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
        "trace.blocking_path_ms": path_ms,
        "trace.path_coverage": path_ms / untraced_ms,
        "trace.ops": float(n_ops),
    })
    lines.append(f"self time along the blocking path, ms per op ({n_ops} ops):")
    if served:
        lines.append(f"  {'(http transport + parsing)':<40} {outside:10.3f}")
    for name, ms in tracing.self_time_breakdown(measured, n_ops):
        lines.append(f"  {name:<40} {ms:10.3f}")
    lines.append(f"  {'sum':<40} {path_ms:10.3f}  vs untraced op {untraced_ms:.3f} "
                 f"(coverage {path_ms / untraced_ms:.3f}, tracing overhead "
                 f"{metrics['trace.overhead_pct']:+.2f}%)")
    return {name: (float(metrics[name]), unit) for name, unit in tracing.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("interactive", "live", "backfill", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.use_program()
    import httpload
    import inproc

    runner, cls = {
        "interactive": (httpload.run, httpload.Interactive),
        "live": (httpload.run, httpload.Live),
        "backfill": (inproc.run, inproc.Backfill),
        "train": (inproc.run, inproc.Train),
    }[args.workload]
    print("hardware:", json.dumps(common.fingerprint()))
    print(f"model: kernels {common.KERNEL_SIZES}, filters {common.N_FILTERS}, "
          f"seed {common.MODEL_SEED}, window {common.WINDOW}")
    acct = common.Accounting(args.workload)
    try:
        outcome = runner(cls, args.seed, args.seconds, bool(args.trace), acct)
    except common.CheckFailed as err:
        print("\n".join(acct.lines()))
        print(f"CORRECTNESS CHECK FAILED: {err}", file=sys.stderr)
        return 1
    lines: list[str] = []
    if args.trace:
        metrics = per_layer(outcome["phases"], lines)
        phases = outcome["phases"].values()
    else:
        metrics = end_to_end(outcome["phase"], outcome["setups"])
        clock = end_to_end(outcome["phase"], outcome["setups"], key="latency")
        lines.append("wall times as the clock read them, host steal included:")
        for name in ("ops_per_s", "latency_p50_ms", "latency_p95_ms", "setup_s"):
            lines.append(f"  {name:<40} {clock[name][0]:14.4f} {clock[name][1]}")
        phases = [outcome["phase"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    first = next(iter(phases))
    lines.append(f"host steal during the {first['wall']:.1f} s measurement: "
                 f"{first['steal']:.2f} CPU-s")
    lines += acct.lines()
    for name, (value, unit) in metrics.items():
        lines.append(f"{args.workload:<12} {name:<40} {value:14.4f} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
