"""Benchmark worker: one workload's ops, run one after another in-process.

Started by run.py in a fresh process, with the repository root as its
working directory.  It reads a JSON job on stdin and prints one JSON
result line on stdout.  One client, closed loop: the next op starts only
when the previous one has finished.  Each op is a ``termstrat.cli.main``
call (or the documented API sequence for a proof round trip) with stdout
and stderr captured; the worker reports each op's latency, exit code,
stdout digest and, if it raised, the exception and the termstrat module
that holds most frames of its traceback.  Judging outputs is left to the
parent, which holds the oracle.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import termstrat  # noqa: E402
from termstrat import cli  # noqa: E402

import workloads  # noqa: E402
from clock import EVERY_S, Reference  # noqa: E402

PACKAGE_DIR = os.path.dirname(os.path.abspath(termstrat.__file__))


def roundtrip(argv: tuple) -> int:
    """parse_proof -> to_derivation -> from_derivation -> infer, printed."""
    path, text = argv[2], argv[4]
    with open(path, encoding="utf-8") as fh:
        th = termstrat.load_theory(fh.read())
    pi = termstrat.parse_proof(text, th.rules, th.signature)
    d = termstrat.to_derivation(pi, th.rules)
    back = termstrat.from_derivation(d, th.rules)
    seq = termstrat.infer(back, th.rules)
    print(f"{termstrat.print_term(seq.source)} -> {termstrat.print_term(seq.target)}")
    print(f"steps: {len(d)}")
    print(termstrat.print_proof(back))
    return 0


def origin(exc: BaseException) -> str:
    """The termstrat module holding most frames of the traceback."""
    frames = collections.Counter()
    tb = exc.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if os.path.dirname(path) == PACKAGE_DIR:
            frames[os.path.basename(path)[: -len(".py")]] += 1
        tb = tb.tb_next
    return frames.most_common(1)[0][0] if frames else "bench"


def run_op(op: workloads.Op) -> list:
    """[latency_s, exit code or None, stdout digest, error or ""]."""
    out = io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if op.argv[0] == "roundtrip":
                code = roundtrip(op.argv)
            else:
                code = cli.main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op; keep going
        latency = time.perf_counter() - start
        error = f"{type(exc).__name__}@{origin(exc)}"
    else:
        latency = time.perf_counter() - start
    return [latency, code, workloads.digest(out.getvalue()), error]


def run_all(ops: list) -> tuple[list, float]:
    records = [run_op(op) for op in ops]
    return records, sum(r[0] for r in records)


def timed(job: dict) -> dict:
    """Whole blocks until the ops' summed latency reaches job["seconds"],
    with the reference job run after every EVERY_S of op time."""
    reference = Reference()
    reference.run()
    positions = [0]  # ops run before each reference job
    records: list = []
    spent = since_reference = 0.0
    blocks = 0
    while spent < job["seconds"]:
        for op in workloads.block(job["workload"], job["seed"], blocks, job.get("catalog")):
            record = run_op(op)
            records.append(record)
            spent += record[0]
            since_reference += record[0]
            if since_reference >= EVERY_S:
                positions.append(len(records))
                reference.run()
                since_reference = 0.0
        blocks += 1
    return {"blocks": blocks, "ops": records, "reference_s": reference.times, "reference_at": positions}


def traced(job: dict) -> dict:
    """A fixed op list: once untraced, then twice under a fresh tracer."""
    from tracer import Tracer

    ops = workloads.trace_ops(job["workload"], job["seed"], job.get("catalog"))
    records, wall = run_all(ops)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            pass_records, pass_wall = run_all(ops)
        finally:
            tracer.uninstall()
        passes.append({
            "outcomes": [r[1:] for r in pass_records],
            "wall_s": pass_wall,
            "self_s": tracer.self_s,
            "failed": tracer.failed,
            "counts": tracer.counts(),
        })
    return {"ops": records, "wall_s": wall, "passes": passes}


def main() -> None:
    job = json.load(sys.stdin)
    result = traced(job) if job["trace"] else timed(job)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
