"""Benchmark of cgkernel: four closed-loop workloads, one caller, no threads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  A run sets up (imports cgkernel, builds the inputs, runs
one small warm-up job of each kind), then runs whole rounds of the
workload's fixed job list until `--seconds` would be passed, running the
reference loop (refloop.py) between jobs.  Every job's answer is
checked after its round.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: setup_s, solve_s, solve_norm,
peak_rss_mb.  --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics of tracing.PER_LAYER.  Per-run results and span dumps
go to benchmark/out/.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from refloop import ref_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7    # this run's own set-up plus six fresh processes
IMPORT_SAMPLES = 5   # fresh processes timing `import cgkernel.cli`
PROBE_TIMEOUT_S = 60
# The host's speed swings by tens of percent from one second to the next.
# Reference passes follow every job until they add up to this share of the
# round's job time, so their mean samples the host in proportion to the time
# the jobs ran; a round's reference time is that mean.
REF_SHARE = 0.1

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("solve_norm", "ref"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s samples)")
    return p.parse_args(argv)


def import_program():
    """Import cgkernel from this checkout's src/, or return None."""
    if not (SRC / "cgkernel" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cgkernel
    if Path(cgkernel.__file__).resolve().parent != SRC / "cgkernel":
        return None
    return cgkernel


def run_round(jobs, number, tracer, meta):
    """One pass over the job list.  Returns the round's record and answers."""
    gc.collect()
    refs, answers, errors, times = [ref_pass()], {}, [], []
    solve = 0.0
    if tracer:
        tracer.install()
    try:
        for job in jobs:
            job_id = len(meta)
            meta.append((job_id, number, job.kind, job.label))
            if tracer:
                tracer.job = job_id
            start = perf_counter()
            try:
                answers[job.label] = job.run()
            except Exception:  # a failed job is counted and the loop goes on
                errors.append((job.label, traceback.format_exc()))
            finally:
                times.append(perf_counter() - start)
                solve += times[-1]
            refs.append(ref_pass())
            while sum(refs) < REF_SHARE * solve:
                refs.append(ref_pass())
    finally:
        if tracer:
            tracer.uninstall()
    layers = None
    if tracer:
        kinds = {job_id: kind for job_id, _, kind, _ in meta}
        layers = tracing.round_layers(tracer.spans, kinds)
    wrong = []
    for job in jobs:
        if job.label in answers:
            try:
                reason = job.check(answers[job.label], answers)
            except Exception as exc:  # a malformed answer is a wrong answer
                reason = f"check raised {exc!r}"
            if reason:
                wrong.append((job.label, reason))
    record = {"round": number, "traced": tracer is not None, "solve_s": solve,
              "ref_s": statistics.fmean(refs), "jobs": len(jobs),
              "failed": errors, "wrong": wrong, "job_s": times, "ref_passes_s": refs}
    return record, answers, layers


def measure(workload, seconds, tracer):
    """Whole rounds until the next one would end past `seconds`; with a
    tracer, untraced and traced rounds alternate, at least one of each."""
    rounds, meta, layers, verify_answers = [], [], [], []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        began = perf_counter()
        record, answers, round_layers = run_round(workload.jobs(), len(rounds),
                                                  tracer if traced else None, meta)
        rounds.append(record)
        if traced:
            layers.append(round_layers)
        elif tracer is not None:
            verify_answers += [a for a in answers.values() if "stdout" in a]
        del answers  # so that peak_rss_mb does not depend on the number of rounds
        now = perf_counter()
        if len(rounds) >= (2 if tracer else 1) and now - start + (now - began) > seconds:
            return rounds, meta, layers, verify_answers


def sample_setup(args):
    """Set-up times of fresh processes running this workload's set-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(args.seed), "--setup-only"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def sample_import():
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cgkernel.cli; print(time.perf_counter() - t)")
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def check_times(verify_answers):
    """Median per-check elapsed_ms that cgkernel itself reports."""
    times = {}
    for ans in verify_answers:
        for r in json.loads(ans["stdout"]):
            times.setdefault(r["id"], []).append(r["elapsed_ms"])
    return {cid: statistics.median(v) for cid, v in times.items()}


def end_to_end(args, rounds, setup_s, peak_rss_mb):
    return {
        "setup_s": statistics.median([setup_s] + sample_setup(args)),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "solve_norm": statistics.median(r["solve_s"] / r["ref_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rounds, round_layers, verify_answers):
    names = {name for r in round_layers for name in r}
    layers = {name: statistics.median(r[name] for r in round_layers) for name in names}
    untraced = statistics.median(r["solve_s"] for r in rounds if not r["traced"])
    traced = statistics.median(r["solve_s"] for r in rounds if r["traced"])
    checks = check_times(verify_answers)
    layers.update({f"checks.{cid}.ms": ms for cid, ms in checks.items()})
    layers.update({
        "cli.import_ms": 1000 * statistics.median(sample_import()),
        "bench.ref_loop_ms": 1000 * statistics.median(r["ref_s"] for r in rounds),
        "bench.trace_overhead": traced / untraced,
        "bench.traced_solve_s": traced,
        "bench.untraced_solve_s": untraced,
    })
    return {name: (layers.get(name, 0.0), unit) for name, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process and the processes it starts, so the reference
    # loop samples the core that runs the jobs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    if import_program() is None:
        print(f"benchmark: no cgkernel source at {SRC}; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, in_process=bool(args.trace))
    workload.setup()
    setup_s = perf_counter() - start
    if args.setup_only:
        print(setup_s)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    rounds, meta, round_layers, verify_answers = measure(workload, args.seconds, tracer)
    usage = resource.RUSAGE_CHILDREN if args.workload == "paper_verify" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    if tracer:
        metrics = per_layer(rounds, round_layers, verify_answers)
    else:
        values = end_to_end(args, rounds, setup_s, peak_rss_mb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    wrong = [w for r in rounds for w in r["wrong"]]
    for label, tb in (f for r in rounds for f in r["failed"]):
        print(f"failed job {label}:\n{tb}", file=sys.stderr)
    for label, reason in wrong:
        print(f"wrong answer from job {label}: {reason}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps({**result, "rounds": rounds}, indent=1))
    if tracer:  # the spans of the last traced round
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"jobs": meta, "spans": [[n, s - start, e - start, p, j]
                                     for n, s, e, p, j, _counts in tracer.spans]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
