#!/usr/bin/env python3
"""The sgraph benchmark: four workloads, run end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload search --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke

One caller runs the workload's ops in a closed loop, one op after another,
in whole passes over the seeded inputs until --seconds have passed. With
--trace 0 it reports the end-to-end metrics. With --trace 1 it runs a fixed
number of passes, each op once untraced and once traced, and reports
per-layer metrics.
The line before the last is the run record (versions, seed, sample counts,
failures, answer digest); the last line is the result JSON. See NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

NAMES = ("claims", "search", "products", "crosscheck")
SETUP_REPEATS = 7
MIN_PASSES = 4
MEASURED_PASSES = 2  # the slowest of them give the timing metrics
TRACE_PASSES = {"claims": 2, "search": 1, "products": 2, "crosscheck": 1}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

LAYERS = (
    "core.graph", "core.bfs", "core.equiv", "products", "bdim.search",
    "bdim.check", "bdim.oracle", "tables", "verify", "cli", "documents",
)
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "products.edges": "count",
    "bdim.search.candidates": "count",
    "bdim.search.cand_per_s": "1/s",
    "bdim.search.cap_refusals": "count",
    "bdim.oracle.maps": "count",
    "bdim.oracle.guard_refusals": "count",
    "verify.claims": "count",
    "verify.instances": "count",
    "documents.bytes": "count",
    "trace.overhead_ratio": "ratio",
}

# Layers each workload must reach; zero calls means a wrapper missed a binding.
EXPECTED_LAYERS = {
    "claims": ("core.graph", "core.bfs", "core.equiv", "products", "bdim.search",
               "bdim.check", "tables", "verify", "cli"),
    "search": ("core.graph", "core.bfs", "bdim.search", "bdim.check"),
    "products": ("core.graph", "core.bfs", "core.equiv", "products", "bdim.search",
                 "bdim.check", "tables", "documents"),
    "crosscheck": ("core.graph", "core.bfs", "bdim.search", "bdim.check", "bdim.oracle"),
}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


@dataclass
class OpRecord:
    latency: float
    answer: dict
    status: str  # ok, wrong, known (documented defect) or unexpected (exception)
    problem: str | None


def _import_library():
    if not (SRC / "sgraph" / "__init__.py").is_file():
        raise BenchError(f"no sgraph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgraph

    if Path(sgraph.__file__).resolve().parent != SRC / "sgraph":
        raise BenchError(f"imported sgraph from {sgraph.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- running ops --------------------------------------------------------------


def execute(op, tracer=None) -> OpRecord:
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        raw, error = op.run(), None
    except Exception as exc:  # an op failure is counted, never fatal
        raw, error = None, exc
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if error is not None:
        name = type(error).__name__
        status = "known" if name == op.known_error else "unexpected"
        return OpRecord(latency, {"op": op.inputs, "error": name}, status,
                        f"{op.kind} {json.dumps(op.inputs)[:80]}: {name}: {error}")
    try:
        answer, problem = op.judge(raw)
    except Exception as exc:
        answer, problem = {"op": op.inputs}, f"checking {op.kind} raised {type(exc).__name__}: {exc}"
    return OpRecord(latency, answer, "wrong" if problem else "ok", problem)


def answers_digest(records) -> str:
    import workloads

    return workloads.digest([{k: v for k, v in r.answer.items() if not k.startswith("_")}
                             for r in records])


def judge_run(passes) -> dict:
    """Counts of every outcome, and whether the answers can be trusted."""
    records = [r for p in passes for r in p]
    statuses = Counter(r.status for r in records)
    problems = {}
    for r in records:
        if r.problem and r.status not in problems:
            problems[r.status] = r.problem
    failed = statuses["wrong"] + statuses["unexpected"] + statuses["known"]
    return {
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "failures": {s: statuses[s] for s in ("wrong", "unexpected", "known") if statuses[s]},
        "first_problem": problems,
        "correct": statuses["wrong"] == 0 and statuses["unexpected"] == 0,
        "answers": answers_digest(passes[0]) if passes else None,
    }


# -- set-up time ----------------------------------------------------------------


def probe_setup(args, input_digest: str) -> float:
    """Process start to ready-for-the-first-op, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if probe["inputs"] != input_digest:
        raise BenchError("the same seed gave different inputs in another process")
    return probe["ready"] - start


# -- the two kinds of run -----------------------------------------------------


def slowest_passes(passes: list[list[OpRecord]]) -> list[list[OpRecord]]:
    """The MEASURED_PASSES passes with the lowest throughput.

    On a shared host, spare capacity comes in bursts that speed a run up by
    as much as 2x for seconds at a time. The slowest passes follow the
    contended floor, which repeats from run to run; an average over all
    passes moves with how much of a run the bursts happen to cover.
    """
    return sorted(passes, key=lambda p: len(p) / sum(r.latency for r in p))[:MEASURED_PASSES]


def run_end_to_end(args, wl, min_passes: int, setup_repeats: int):
    """Whole passes until --seconds have passed; set-up probes go between
    passes so that they sample the host at different moments."""
    digest = wl.input_digest()
    setup = [probe_setup(args, digest)]
    start = time.perf_counter()
    passes: list[list[OpRecord]] = []
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        passes.append([execute(op) for op in wl.ops_for_pass(len(passes))])
        if len(setup) < setup_repeats:
            setup.append(probe_setup(args, digest))
    while len(setup) < setup_repeats:
        setup.append(probe_setup(args, digest))
    run_s = time.perf_counter() - start

    verdict = judge_run(passes)
    rates = [len(p) / sum(r.latency for r in p) for p in passes]
    slow = slowest_passes(passes)
    latencies = [r.latency for p in slow for r in p]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "passes": len(passes),
        "samples": {
            "measured_passes": f"the slowest {len(slow)} of {len(passes)}",
            "op_p50_ms": len(latencies),
            "op_p90_ms": len(latencies),
            "beyond_op_p90": sum(x > p90 for x in latencies),
            "setup_s": f"median of {len(setup)} fresh processes",
        },
        "pass_ops_per_s": rates,
        "setup_samples_s": setup,
        "run_s": run_s,
    }
    return verdict, metrics, record, passes


def run_traced(wl, passes: int):
    """Each op runs untraced and traced back to back, in alternating order, so
    that drift and warm-up fall on both sides of trace.overhead_ratio."""
    from tracing import Tracer

    tracer = Tracer()

    def traced_execute(op):
        tracer.install()
        try:
            return execute(op, tracer)
        finally:
            tracer.uninstall()

    untraced, traced = [], []
    for p in range(passes):
        u_pass, t_pass = [], []
        for i, op in enumerate(wl.ops_for_pass(p)):
            if i % 2:
                t_pass.append(traced_execute(op))
                u_pass.append(execute(op))
            else:
                u_pass.append(execute(op))
                t_pass.append(traced_execute(op))
        untraced.append(u_pass)
        traced.append(t_pass)
    verdict = judge_run(traced)
    base = sum(r.latency for p in untraced for r in p)
    wall = sum(r.latency for p in traced for r in p)
    layers = tracer.layer_metrics()

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_s"] = layers[layer]["self_s"]
    search = layers["bdim.search"]
    metrics.update({
        "products.edges": layers["products"]["extra"],
        "bdim.search.candidates": search["extra"],
        "bdim.search.cand_per_s": search["extra"] / search["self_s"] if search["self_s"] else 0.0,
        "bdim.search.cap_refusals": search["errors"].get("BdimCapExceededError", 0),
        "bdim.oracle.maps": layers["bdim.oracle"]["extra"],
        "bdim.oracle.guard_refusals": layers["bdim.oracle"]["errors"].get("OracleGuardError", 0),
        "verify.claims": tracer.claims_run,
        "verify.instances": layers["verify"]["extra"],
        "documents.bytes": layers["documents"]["extra"],
        "trace.overhead_ratio": wall / base,
    })

    self_total = sum(layers[layer]["self_s"] for layer in LAYERS)
    problems = [f"{layer} made no call" for layer in EXPECTED_LAYERS[wl.name]
                if layers[layer]["calls"] == 0]
    if self_total > wall * (1 + 1e-9):
        problems.append(f"layer self times sum to {self_total:.6f} s, more than the {wall:.6f} s run")
    if tracer.explored_mismatches:
        problems.append(f"{tracer.explored_mismatches} searches explored other than counted")
    if answers_digest([r for p in untraced for r in p]) != answers_digest([r for p in traced for r in p]):
        problems.append("traced answers differ from untraced answers")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{wl.name}.json", "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "layer", "function", "start", "end", "error", "count"],
                   "spans": tracer.spans}, handle)
    record = {
        "passes": passes,
        "spans": len(tracer.spans),
        "wall_s": {"untraced": base, "traced": wall},
        "self_s_total": self_total,
        "search_core_hooked": tracer.search_core_hooked,
        "missing_targets": tracer.missing,
        "errors": {layer: dict(v["errors"]) for layer, v in layers.items() if v["errors"]},
        "bdim.oracle.maps": "computed as the sum of 3^(n*k) over enumerations, not counted",
        "selfcheck": problems or "ok",
    }
    if problems:
        raise BenchError("traced-run self-check failed: " + "; ".join(problems))
    return verdict, metrics, record, traced


# -- run record ---------------------------------------------------------------


def environment() -> dict:
    import numpy

    sources = sorted((SRC / "sgraph").glob("*.py"))
    source = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources))
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def result_line(verdict: dict, metrics: dict, units: dict) -> dict:
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_one(args, workloads, min_passes=MIN_PASSES, setup_repeats=SETUP_REPEATS, trace_passes=None):
    wl = workloads.build(args.workload, args.seed, str(OUT_DIR), smoke=args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        passes = trace_passes or TRACE_PASSES[args.workload]
        verdict, metrics, extra, passes_run = run_traced(wl, passes)
        units = PER_LAYER_UNITS
    else:
        verdict, metrics, extra, passes_run = run_end_to_end(args, wl, min_passes, setup_repeats)
        units = END_TO_END_UNITS
    k5 = [r.answer["_explored"] for p in passes_run for r in p if "_explored" in r.answer]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "ops": verdict["attempted"],
        "fail_ratio": verdict["fail_ratio"],
        "failures": verdict["failures"],
        "first_problem": verdict["first_problem"],
        "answers_digest": verdict["answers"],
        "inputs_digest": wl.input_digest(),
        **({"k5_explored": k5[0]} if k5 else {}),
        **extra,
    }
    return record, result_line(verdict, metrics, units)


# -- smoke mode -----------------------------------------------------------------


def smoke(args, workloads) -> int:
    """A few ops of each kind per workload, both modes; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bad = []
    for name in NAMES:
        for trace in (0, 1):
            run_args = argparse.Namespace(workload=name, seed=args.seed, seconds=0,
                                          trace=trace, smoke=True)
            record, result = run_one(run_args, workloads, min_passes=1, setup_repeats=1,
                                     trace_passes=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                bad.append(f"{name} trace={trace}: metrics {sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"]:
                bad.append(f"{name} trace={trace}: {record['first_problem']}")
            print(json.dumps({"workload": name, "trace": trace, "ops": record["ops"],
                              "correct": result["correct"]}))
    for line in bad:
        print(f"smoke: {line}", file=sys.stderr)
    return 1 if bad else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick check of every workload and metric name")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = _import_library()
        if args.probe_setup:
            wl = workloads.build(args.workload, args.seed, str(OUT_DIR), smoke=args.smoke)
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "inputs": wl.input_digest()}))
            return 0
        if args.smoke:
            return smoke(args, workloads)
        record, result = run_one(args, workloads)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
