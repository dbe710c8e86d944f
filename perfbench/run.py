"""Run one rpmix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-battery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: rpmix is imported from ./src and nowhere
else. One process, one caller, a closed loop: set up (import rpmix and
build the seeded inputs, several times, median reported), warm up, then
call rpmix until --seconds of call time have passed, checking every
output against the oracle between calls. With --trace 1 the same calls
run once untraced and once traced, and the per-layer metrics are
printed instead. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import workloads
from spans import SpanRecorder
from speed import SpeedProbe, ref_seconds
from tracing import instrument, layer_metrics

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench_out"
SETUP_REPEATS = 9
# share of --seconds spent untraced in a traced run; the traced pass repeats the same calls
UNTRACED_SHARE = 0.4
# a traced op's self times must add up to its wall time to within this
RESIDUAL_TOL = 1e-6
# speed probe before the first call of a loop, and around each set-up
PROBE_START_S = 0.05


def import_rpmix():
    """Import rpmix afresh from ./src, so each set-up repeat pays rpmix's import."""
    for name in [n for n in sys.modules if n == "rpmix" or n.startswith("rpmix.")]:
        del sys.modules[name]
    import rpmix
    import rpmix.cli  # noqa: F401  (the cli workload calls rpmix.cli.main)

    if not Path(rpmix.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rpmix imported from {rpmix.__file__}, not from {SRC}")
    return rpmix


def git_commit() -> str | None:
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = REPO / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": git_commit(),
    }


class Record(NamedTuple):
    index: int
    label: str
    seconds: float  # wall time of the call
    ref_seconds: float  # the same, in reference seconds (see speed.py)
    ops: int
    problems: list  # one list of problems per op
    bytes_written: int


def run_calls(calls, workdir: Path, probe: SpeedProbe, budget=None, cycle: int = 1, limit=None, rec=None):
    """Closed loop over ``calls`` (wrapping) for ``limit`` calls, or else until ``budget``
    seconds of call time have passed and a whole number of ``cycle`` calls has run.
    """
    records = []
    elapsed = 0.0
    k = 0
    rate = probe.rate(PROBE_START_S)
    while (elapsed < budget or k % cycle) if limit is None else (k < limit):
        call = calls[k % len(calls)]
        out = workdir / f"out-{k}"
        start = time.perf_counter()
        try:
            result = call.run(out) if rec is None else rec.run_op(k, lambda: call.run(out))
        except Exception as exc:  # an uncaught exception is a failed op, not a failed run
            result = exc
        seconds = time.perf_counter() - start
        rate_after = probe.after(seconds)
        problems = call.check(result, out)
        written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        ref = ref_seconds(seconds, 0.5 * (rate + rate_after))
        records.append(Record(k, call.label, seconds, ref, call.ops, problems, written))
        rate = rate_after
        elapsed += seconds
        k += 1
    return records


def tally(records) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for r in records:
        attempted += r.ops
        for op, op_problems in enumerate(r.problems):
            if op_problems:
                failed += 1
                messages.append(f"call {r.index} ({r.label}) op {op}: {'; '.join(op_problems)}")
    return attempted, failed, messages


def latency_line(records) -> str:
    lat = [r.seconds for r in records if r.ops == 1]
    if len(lat) < 100:
        return f"op latency: not reported ({len(lat)} one-by-one samples; p90 needs >= 100)"
    deciles = statistics.quantiles(lat, n=10)
    return (
        f"op_p50_s: {statistics.median(lat):.6f} s   op_p90_s: {deciles[-1]:.6f} s   "
        f"({len(lat)} samples, {sum(1 for x in lat if x > deciles[-1])} beyond p90)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rpmix" / "__init__.py").is_file():
        print(f"error: no rpmix sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    build, warmup, cycle = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"tmp-{os.getpid()}"
    probe = SpeedProbe()
    try:
        setup_wall, setup_ref = [], []
        rate = probe.rate(PROBE_START_S)
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            calls = rpmix = None
            gc.collect()  # every repeat starts from the same heap, not the last repeat's garbage
            start = time.perf_counter()
            rpmix = import_rpmix()
            calls = build(rpmix, args.seed, workdir)
            seconds = time.perf_counter() - start
            rate_after = probe.rate(PROBE_START_S)
            setup_wall.append(seconds)
            setup_ref.append(ref_seconds(seconds, 0.5 * (rate + rate_after)))
            rate = rate_after
        warm = warmup(rpmix, workdir)
        run_calls(warm, workdir, probe, limit=len(warm))
        gc.collect()

        budget = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
        records = run_calls(calls, workdir, probe, budget=budget, cycle=cycle)
        wall = sum(r.seconds for r in records)
        ref = sum(r.ref_seconds for r in records)
        ops = sum(r.ops for r in records)
        attempted, failed, messages = tally(records)
        correct = True
        raw = {"setup_wall_s": setup_wall, "setup_ref_s": setup_ref, "call_wall_s": wall, "call_ref_s": ref}
        print(f"raw: {ops} ops in {wall:.3f} s wall = {ops / wall:.4f} ops per wall second; "
              f"{ref:.3f} ref_s; median set-up {statistics.median(setup_wall):.4f} s wall")

        if not args.trace:
            metrics = {
                "ops_per_ref_s": (ops / ref, "1/ref_s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setup_ref), "s"),
            }
            print(latency_line(records))
        else:
            rec = SpanRecorder()
            gc.collect()
            with instrument(rec):
                traced = run_calls(calls, workdir, probe, limit=len(records), rec=rec)
            traced_ref = sum(r.ref_seconds for r in traced)
            a, f, m = tally(traced)
            attempted, failed, messages = attempted + a, failed + f, messages + m
            residuals = rec.op_residuals()
            worst = max((abs(x) for x in residuals.values()), default=0.0)
            if worst > RESIDUAL_TOL:
                correct = False
                messages.append(f"self times miss an op's wall time by {worst:.3e} s")
            traced_ops = sum(r.ops for r in traced)
            metrics = layer_metrics(rec, traced_ops, sum(r.bytes_written for r in traced))
            metrics["trace.ops"] = (traced_ops, "count")
            metrics["trace.overhead_s"] = (traced_ref - ref, "ref_s")
            metrics["trace.overhead_frac"] = ((traced_ref - ref) / ref, "ratio")
            metrics["trace.self_time_residual_s"] = (worst, "s")
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            rec.dump(trace_path, dict(env=env, untraced_ref_s=ref, traced_ref_s=traced_ref))
            print(f"spans written to {trace_path.relative_to(REPO)}")

        probes = {}
        if args.workload == "cli":
            for name, call in workloads.build_defect_probes(rpmix, workdir):
                (record,) = run_calls([call], workdir, probe, limit=1)
                probes[name] = problems = record.problems[0]
                print(f"defect probe {name}: {'FAILED: ' + '; '.join(problems) if problems else 'ok'}")
            if args.trace:
                metrics["cli.defect_probes_failed"] = (sum(1 for p in probes.values() if p), "count")
        elif args.trace:
            metrics["cli.defect_probes_failed"] = (0, "count")

        for line in messages[:20]:
            print("FAILED " + line)
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
        print(f"{attempted} ops attempted, {failed} failed, in {len(records)} calls")
        result = {
            "correct": correct and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        OUT.mkdir(exist_ok=True)
        record = dict(result, env=env, raw=raw, failures=messages, defect_probes=probes)
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
