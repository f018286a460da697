#!/usr/bin/env python3
"""lambda_1 benchmark of cmaeig: time to eigenvalue per route, error against
oracles, and per-layer counts.

    python3 perfbench/run.py --workload disc-n1 --seed 0 --seconds 60 --trace 0

Runs jobs of one workload (see workloads.py) back to back in this process
until --seconds have passed (at least one job), checks every answer, and
prints each metric by name and unit.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with no instrumentation;
every time is scaled to a nominal host speed by a reference task timed
between the stages (see hostspeed.py).
--trace 1 alternates plain and traced jobs and reports the per-layer metrics
from the traced ones, plus the tracing overhead (traced minus plain stage
time).  Spans go to perfbench/out/spans-<workload>-seed<seed>.jsonl and the
full record (inputs, environment, samples) to perfbench/out/.

The package is imported from src/ of the checkout this file sits in; without
it the benchmark exits with status 2 and prints no result.
"""

import os

# One BLAS/OpenMP thread: the plain single-threaded baseline.  Set before
# numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REF_NOMINAL_S, HostSpeed  # noqa: E402
from spans import SpanIndex, Tracer, instrument, span_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("disc-n1", "ball-n2", "ellipsoid-n2-bump")

END_TO_END = (
    ("setup_s", "s"), ("dirichlet_s", "s"), ("continuation_s", "s"),
    ("inverse_power_s", "s"), ("radial_s", "s"), ("peak_rss_mb", "MB"),
    ("cont_err", "1"), ("ip_err", "1"), ("radial_err", "1"), ("route_gap", "1"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import cmaeig from this checkout's src/, or return None."""
    if not (SRC / "cmaeig" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cmaeig

    if Path(cmaeig.__file__).resolve().parent != SRC / "cmaeig":
        return None
    return cmaeig


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# How a run reduces its samples of each end-to-end metric to one value: the
# median, except the peak memory, read once.  Times are then scaled to the
# nominal host speed (hostspeed.py).
median = statistics.median
REDUCE = {name: max if name == "peak_rss_mb" else median for name, _ in END_TO_END}
TIMES = ("setup_s", "dirichlet_s", "continuation_s", "inverse_power_s", "radial_s")


def end_to_end_samples(records, peak_rss_mb):
    """Every sample of each end-to-end metric over the run's records."""
    samples = {"setup_s": [t for r in records for t in r.setup_s]}
    for name in records[0].times:
        samples[name] = [t for r in records for t in r.times[name]]
    for name in ("cont_err", "ip_err", "radial_err", "route_gap"):
        samples[name] = [r.errors[name] for r in records if name in r.errors]
    samples["peak_rss_mb"] = [peak_rss_mb]
    return samples


def layer_metrics(index, job):
    """Per-layer metrics of one traced job (see README.md for the table)."""
    cont = index.of_kind("continuation")
    attempts = sum(len(index.within(s, "rhs_branch")) for s in cont)
    accepted = job.counts.get("branch_points", 1) - 1
    stencils = [s for s in index.of_kind("stencil") if s.attrs.get("cold")]
    return {
        "domain.build_grid_s": (index.time_in("build_grid"), "s"),
        "domain.crossings": (index.count("crossing"), "count"),
        "domain.crossing_s": (index.time_in("crossing"), "s"),
        "hessian.stencil_builds": (len(stencils), "count"),
        "hessian.stencil_s": (sum(index.self_time(s) for s in stencils), "s"),
        "hessian.evals": (index.count("hessian_eval"), "count"),
        "hessian.eval_s": (index.time_in("hessian_eval"), "s"),
        "dirichlet.linear_solves": (index.count("linear_solve"), "count"),
        "dirichlet.linear_solve_s": (index.time_in("linear_solve"), "s"),
        "dirichlet.newton_iters": (job.counts.get("dirichlet_newton", 0)
                                   + job.counts.get("branch_newton", 0)
                                   + job.counts.get("ip_newton", 0), "count"),
        "dirichlet.solve_frozen_s": (index.time_in("solve_frozen"), "s"),
        "eigenpath.branch_points": (job.counts.get("branch_points", 0), "count"),
        "eigenpath.accepted_steps": (accepted, "count"),
        "eigenpath.step_attempts": (attempts, "count"),
        "eigenpath.step_yield": (accepted / attempts if attempts else 0.0, "ratio"),
        "eigenpath.self_s": (sum(index.self_time(s) for s in cont), "s"),
        "variational.iterations": (job.counts.get("ip_iterations", 0), "count"),
        "variational.functional_s": (index.time_in("functional"), "s"),
        "radial.shoots": (index.count("shoot"), "count"),
        "radial.shoot_s": (index.time_in("shoot"), "s"),
        "radial.rk4_steps": (sum(s.attrs["rk4_steps"] for s in index.of_kind("shoot")), "count"),
    }


def collect(runner, seconds, trace):
    """Run the jobs of one run; returns (plain, traced, peak_rss_mb).

    Jobs run back to back until --seconds have passed (at least one); with
    tracing, each plain job is followed by a traced one.  Another job starts
    only if it is expected to end in time; the one-off computation of the
    discrete reference eigenvalue does not count.  The peak memory is read
    once the first job's stages are done and before its reference checks
    run, so that it is the program's peak and not the checks'; later jobs
    would raise it by allocator fragmentation, not by what one job needs.
    """
    plain, traced, peak = [], [], []
    start = time.perf_counter()

    def read_peak():
        peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    while True:
        plain.append(runner.job(before_checks=None if peak else read_peak))
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                traced.append((runner.job(tracer), tracer))
        elapsed = time.perf_counter() - start - runner.reference_s
        if elapsed + elapsed / len(plain) > seconds:
            break
    return plain, traced, peak[0]


def end_to_end(plain, peak_rss_mb, host):
    """(metrics, samples) of an untraced run; samples are as measured."""
    samples = end_to_end_samples(plain, peak_rss_mb)
    scale = host.scale()
    print(f"# host: reference task mean {statistics.mean(host.samples):.6g} s over "
          f"{len(host.samples)} samples, nominal {REF_NOMINAL_S:g} s: times scaled by {scale:.6g}")
    metrics = {}
    for name, unit in END_TO_END:
        if not samples[name]:
            continue
        raw = REDUCE[name](samples[name])
        value = raw * scale if name in TIMES else raw
        metrics[name] = {"value": value, "unit": unit}
        note = f", {raw:.6g} s as measured" if name in TIMES else ""
        print(f"{name:<18} {value:.6g} {unit}  "
              f"({REDUCE[name].__name__} of {len(samples[name])}{note})")
    samples["reference_task_s"] = host.samples
    return metrics, samples


def per_layer(plain, traced, spans_path):
    """(metrics, per-job metrics) of a traced run; writes the spans out."""
    spans_path.unlink(missing_ok=True)
    per_job = []
    for k, (job, tracer) in enumerate(traced):
        tracer.write_jsonl(spans_path, k)
        per_job.append(layer_metrics(SpanIndex(tracer.spans), job))
    names = list(per_job[0])
    metrics = {name: {"value": median([p[name][0] for p in per_job]), "unit": per_job[0][name][1]}
               for name in names}
    overhead = median([j.one_pass_s() for j, _ in traced]) - median([j.one_pass_s() for j in plain])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    # The difference above is within the host's noise; the wrappers' own
    # cost, spans times the cost of one, is the stable estimate.
    metrics["trace.span_overhead_s"] = {
        "value": median([len(t.spans) for _, t in traced]) * span_cost(), "unit": "s"}

    print(f"# self time by span, first traced job ({len(traced)} traced, {len(plain)} plain)")
    for name, (calls, total) in sorted(SpanIndex(traced[0][1].spans).self_table().items()):
        print(f"#   {name:<36} calls {calls:>7}  self {total:10.4f} s")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    check_counts([job for job, _ in traced],
                 [{name: v for name, (v, unit) in p.items() if unit == "count"} for p in per_job],
                 "layer_counts")
    return metrics, per_job


def check_counts(jobs, counts, operation="result_counts"):
    """Every job after the first makes one more operation: its counts must
    repeat the first job's exactly (the program is deterministic)."""
    for job, c in zip(jobs[1:], counts[1:]):
        job.attempted += 1
        differ = sorted(name for name in c.keys() | counts[0].keys()
                        if c.get(name) != counts[0].get(name))
        if differ:
            job.failures.append((operation, "counts differ from the first job's: "
                                 + ", ".join(differ)))


def main(argv=None):
    args = parse_args(argv)
    if not import_package():
        print(f"error: no cmaeig package under {SRC}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message=r"h=.* exceeds a quarter", category=UserWarning)
    # These import cmaeig, so they load once src/ is on the path.
    from job import Runner
    from workloads import WORKLOADS

    problem = WORKLOADS[args.workload](args.seed)
    env = environment()
    print("# inputs " + json.dumps(problem.describe()))
    print("# env " + json.dumps(env))

    # Untimed warm-up on a coarser grid: first calls into numpy/scipy and
    # the allocator are not part of any stage's cost.
    coarse = problem.h * (4 if problem.spec.n == 1 else 2)
    Runner(dataclasses.replace(problem, h=coarse)).job(radial=False)

    host = None if args.trace else HostSpeed()
    plain, traced, peak_rss_mb = collect(Runner(problem, host), args.seconds, args.trace)
    jobs = plain + [job for job, _ in traced]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    record = {"inputs": problem.describe(), "env": env, "trace": args.trace, "jobs": len(jobs)}
    if args.trace:
        spans_path = OUT / f"spans-{tag}.jsonl"
        metrics, record["per_job"] = per_layer(plain, traced, spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, record["samples"] = end_to_end(plain, peak_rss_mb, host)
    check_counts(jobs, [c.counts for c in jobs])

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    for j in jobs:
        for stage, reason in j.failures:
            print(f"# FAILED {stage}: {reason}")
    record.update({"attempted": attempted, "failed": failed,
                   "nodes": sorted({j.counts["nodes"] for j in jobs if "nodes" in j.counts}),
                   "lambdas": [j.lambdas for j in jobs]})
    record["metrics"] = metrics
    record["threads_at_exit"] = threading.active_count()
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
