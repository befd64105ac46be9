"""The termstrat benchmark.

    python3 bench/run.py --workload normalize --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from
``src/``.  The workloads (normalize, derive, eval, proof) are described
in bench/NOTES.md.  Each run:

1. times set-up in fresh processes: interpreter start, ``import
   termstrat`` and loading the workload's theory file (median of
   SETUP_RUNS, calibrated by bare interpreter starts; --trace 0 only);
2. starts one worker process (bench/worker.py) that runs the workload's
   seeded ops as a closed loop with one client: with --trace 0 whole
   blocks until --seconds of op time have passed, timing a reference job
   between ops to calibrate for machine speed (bench/clock.py), with
   --trace 1 a fixed op list once untraced and twice traced;
3. checks every op's exit code and stdout against the independent
   oracle (bench/oracle.py), outside the timed region;
4. prints one JSON line: correct, attempted, failed and the metrics,
   end-to-end ones with --trace 0 and per-layer ones with --trace 1.

An op fails when it raises (RecursionError included), exits with the
wrong code or prints other stdout than the oracle.  ``correct`` is false
when a completed op gave a wrong answer, and in a traced run also when
tracing changed any op's outcome or two traced passes counted different
work.  Exit status 0 means the result line was printed; set-up problems
(no sources, a worker crash or timeout) exit 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import clock
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DEADLINE_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_RUNS = 9
THEORY = {
    "normalize": workloads.PEANO,
    "derive": workloads.PEANO,
    "eval": workloads.TOWER,
    "proof": workloads.TOWER,
}
SETUP_PROBE = """\
import sys
sys.path.insert(0, "src")
import termstrat, termstrat.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    termstrat.load_theory(fh.read())
"""
FAILED_MS = 1e9  # what a percentile reads when it falls on failed ops
PERCENTILE_WINDOW = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_size_slope": "log/log",
    "ops_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SELF_TIMED = (
    "lex.Lexer", "theory.load_theory", "terms.parse_term", "terms.print_term",
    "terms.match", "terms.replace_at", "terms.apply_subst",
    "rules.all_redexes", "rules.apply_step",
    "ars.sorted_choice", "ars.TracedObject.step", "ars.Derivation.then",
    "ars.normal_forms_under", "ars.extension", "ars.print_derivation",
    "strategies.parse_strategy", "strategies.eval_strategy",
    "proofs.parse_proof", "proofs.infer", "proofs.to_derivation",
    "proofs.from_derivation", "proofs.print_proof", "cli.main",
)
COUNTED = (
    "terms.match.calls", "terms.subterms.nodes", "terms.Position.created",
    "terms.hash.calls", "terms.eq.calls", "rules.all_redexes.calls",
    "rules.apply_step.calls", "ars.extension.derivations",
)
MODULES = ("lex", "terms", "rules", "ars", "strategies", "proofs", "theory", "cli")


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in SELF_TIMED}
    units.update({name: "count" for name in COUNTED})
    units["terms.match.hit_ratio"] = "ratio"
    units.update({f"{m}.failed": "count" for m in MODULES})
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


def setup_seconds(workload: str, deadline: float) -> float:
    """Median time of SETUP_RUNS fresh processes that import termstrat and
    load the workload's theory, calibrated by bare interpreter starts
    timed between them (see clock.BARE_START_S)."""
    probes, bare = [], []
    for _ in range(SETUP_RUNS):
        bare.append(timed_process([sys.executable, "-S", "-c", "pass"], deadline))
        probes.append(timed_process([sys.executable, "-c", SETUP_PROBE, THEORY[workload]], deadline))
    return statistics.median(probes) * clock.BARE_START_S / statistics.median(bare)


def timed_process(argv: list, deadline: float) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


def run_worker(job: dict, deadline: float) -> dict:
    # A fixed hash seed makes the traced work counts repeat across runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py")],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def judge(ops: list, records: list) -> tuple[list, int]:
    """Per op: True if it matched the oracle.  Also the number of ops that
    completed with a wrong answer (as opposed to raising)."""
    theories: dict = {}
    memo: dict = {}
    ok, wrong = [], 0
    for op, (_, code, got, error) in zip(ops, records, strict=True):
        want = memo.get(op.argv)
        if want is None:
            code_want, stdout = workloads.expected(op, theories)
            want = memo[op.argv] = (code_want, workloads.digest(stdout))
        good = not error and (code, got) == want
        ok.append(good)
        if not good:
            wrong += not error
            print(f"bench: {op.family} op failed: {error or f'exit {code}, want {want[0]}'}: "
                  f"{' '.join(op.argv)[:160]}", file=sys.stderr)
    return ok, wrong


def percentile(values: list, q: float) -> float:
    """Smoothed percentile: the mean of the values whose nearest rank lies
    within q +- PERCENTILE_WINDOW.  A single order statistic of latencies
    that rise as n^3 jumps with the mix; the window steadies it.  An inf
    (a failed op) in the window makes it read FAILED_MS."""
    ordered = sorted(values)
    lo = max(0, math.ceil((q - PERCENTILE_WINDOW) * len(ordered)) - 1)
    hi = max(lo + 1, math.ceil((q + PERCENTILE_WINDOW) * len(ordered)))
    value = statistics.fmean(ordered[lo:hi])
    return FAILED_MS if math.isinf(value) else value


def log_slope(sizes: list, latencies: list) -> float:
    """Least-squares slope of log latency against log size."""
    return statistics.linear_regression([math.log(s) for s in sizes], [math.log(t) for t in latencies]).slope


def end_to_end(ops: list, result: dict, ok: list, setup: float) -> dict:
    """End-to-end metrics; times in calibrated seconds (see clock.py)."""
    records = result["ops"]
    factors = clock.factors(result["reference_s"], result["reference_at"], len(records))
    spent = sum(r[0] * f for r, f in zip(records, factors))
    latencies_ms = [r[0] * f * 1000 if good else math.inf for r, f, good in zip(records, factors, ok)]
    good_ops = [(op.size, r[0]) for op, r, good in zip(ops, records, ok) if good]
    values = {
        "setup_s": setup,
        "ops_per_s": sum(ok) / spent,
        "latency_p50_ms": percentile(latencies_ms, 0.5),
        "latency_p90_ms": percentile(latencies_ms, 0.9),
        "latency_size_slope": log_slope(*zip(*good_ops)) if len(good_ops) > 1 else 0.0,
        "ops_ok_ratio": sum(ok) / len(ok),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(result: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a traced run, and whether the trace checks held."""
    passes = result["passes"]
    untraced = [r[1:] for r in result["ops"]]
    same_outputs = all(p["outcomes"] == untraced for p in passes)
    same_counts = passes[0]["counts"] == passes[1]["counts"]
    for check, what in ((same_outputs, "traced op outcomes differ from untraced"),
                        (same_counts, "two traced passes counted different work")):
        if not check:
            print(f"bench: {what}", file=sys.stderr)
    counts = passes[0]["counts"]
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = statistics.fmean(p["self_s"].get(name, 0.0) for p in passes)
    for name in COUNTED:
        values[name] = counts.get(name, 0)
    values["terms.match.hit_ratio"] = counts["terms.match.hits"] / max(1, counts.get("terms.match.calls", 0))
    for m in MODULES:
        values[f"{m}.failed"] = passes[0]["failed"][m]
    values["trace.overhead_ratio"] = statistics.fmean(p["wall_s"] for p in passes) / result["wall_s"]
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}, same_outputs and same_counts


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "termstrat", "__init__.py")):
        raise BenchError("no termstrat sources under src/")
    catalog = workloads.derive_catalog() if workload == "derive" else None
    setup = None if trace else setup_seconds(workload, deadline)
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "catalog": catalog}
    result = run_worker(job, deadline)
    if trace:
        ops = workloads.trace_ops(workload, seed, catalog)
    else:
        ops = [op for i in range(result["blocks"]) for op in workloads.block(workload, seed, i, catalog)]
    ok, wrong = judge(ops, result["ops"])
    correct = wrong == 0
    if trace:
        metrics, trace_ok = per_layer(result)
        correct = correct and trace_ok
    else:
        metrics = end_to_end(ops, result, ok, setup)
    return {"correct": correct, "attempted": len(ops), "failed": len(ops) - sum(ok), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
