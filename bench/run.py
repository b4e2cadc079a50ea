"""Benchmark for the entb92 package: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload analytic --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --report [--seconds 25] [--seed 1]

A run builds its inputs from ``--seed``, then drives the package in a
single-process closed loop: the next operation starts when the previous one
has finished. Operations come in passes (see ``workloads.py``), and passes
repeat until another one would overrun ``--seconds``. Around every
operation the run times fixed reference work (``reference.py``), and the
gated throughputs are counted per reference time, so that the shared
host's slow stretches cancel out. Between operations it times set-up in
separate interpreters. Every operation's output is checked after it is
timed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it print the same run under the metric names of the benchmark
notes (README.md). A results file with provenance goes to
``.bench_out/results/``; a traced run also writes its spans there.

``--report`` runs every workload, untraced and traced, each in its own
interpreter, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9

# Cap every thread pool a library may start; the session pool is capped below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_cap() -> int:
    """Session worker threads: at most 2, never more than the cores."""
    return min(2, nproc())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_package():
    """Import entb92 from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "entb92" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'entb92'}")
    sys.path.insert(0, str(src))
    import entb92
    from entb92 import cli  # noqa: F401  (the CLI module is part of set-up)

    if Path(entb92.__file__).resolve().parent != (src / "entb92").resolve():
        raise SystemExit(f"bench: imported entb92 from {entb92.__file__}, not from {src}")
    import workloads

    return workloads


def build(workload_name: str, seed: int, out_dir: Path):
    workloads = import_package()
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload_name!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload_name](seed, ROOT, out_dir, worker_cap())


def probe(args) -> int:
    """Set-up only: import and build the inputs, then say so."""
    out_dir = OUT / f"probe-{os.getpid()}"
    try:
        build(args.workload, args.seed, out_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def time_setup(args) -> float:
    """Wall time from interpreter start to ready, in one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed ({proc.returncode}):\n{err}")
    return elapsed


def provenance() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        git_sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    import numpy

    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "git_dirty": dirty,
        "worker_cap": worker_cap(),
    }


def run_loop(workload, seconds: float, tracer, setup_probe):
    """Closed loop over passes; in traced mode passes alternate untraced/traced.

    ``setup_probe()`` times one set-up in a fresh interpreter. The
    ``SETUP_PROBES`` probes are spread evenly over the run's window, between
    operations, so their median covers the whole window and not one short
    stretch of the shared host; probes not yet made when the loop ends run
    after it.

    The reference work (``reference.measure``, on each thread count the
    workload's operations use) runs before the first operation and after
    every operation, outside their timed regions; an operation's reference
    time is the mean of the two around it on its own thread count. Returns the
    samples per kind of the untraced and of the traced operations that
    passed their gates, the set-up times, the number of traced passes, the
    number of attempts and the failures.
    """
    import reference
    from workloads import Sample

    samples, pass_times = {False: {}, True: {}}, {False: [], True: []}
    attempted, failures, setup_times = 0, {}, []
    min_passes = 2 if tracer else 1
    thread_counts = sorted({op.threads for ops in workload.passes for op in ops})

    def measure_reference():
        return {threads: reference.measure(threads) for threads in thread_counts}

    measure_reference()  # the first call also pays for numpy's first-use costs
    start, k = perf_counter(), 0
    ref_before = measure_reference()
    while True:
        done = pass_times[False] + pass_times[True]
        if k >= min_passes and perf_counter() - start + statistics.fmean(done) > seconds:
            break
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        pass_start = perf_counter()
        results = []
        try:
            for op in workload.pass_ops(k):
                index = attempted
                attempted += 1
                if traced:
                    tracer.op_id = index
                t0 = perf_counter()
                try:
                    result = workload.execute(op)
                except Exception as exc:  # an operation that raises counts as failed
                    failures[index] = [f"{op.kind} raised {type(exc).__name__}: {exc}"]
                    result = None
                elapsed = perf_counter() - t0
                ref_after = measure_reference()
                ref = 0.5 * (ref_before[op.threads] + ref_after[op.threads])
                results.append((index, op, result, elapsed, ref))
                ref_before = ref_after
                if len(setup_times) < SETUP_PROBES \
                        and perf_counter() - start >= len(setup_times) * seconds / SETUP_PROBES:
                    setup_times.append(setup_probe())
                    # a probe leaves the caches cold: the next operation's
                    # reference is measured after it, as after any operation
                    ref_before = measure_reference()
        finally:
            if traced:
                tracer.uninstall()
        pass_times[traced].append(perf_counter() - pass_start)
        for index, op, result, elapsed, ref in results:  # gates run outside the timed pass
            if index in failures:
                continue
            try:
                errors = workload.check(index, op, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable or malformed output
                errors = [f"{op.kind} output unreadable: {type(exc).__name__}: {exc}"]
            if errors:
                failures[index] = errors
            else:
                samples[traced].setdefault(op.kind, []).append(Sample(index, op.items, elapsed, ref))
        k += 1
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe())
    return samples[False], samples[True], setup_times, len(pass_times[True]), attempted, failures


def apply_z_gate(workload, failures: dict) -> float:
    from workloads import z_limit

    limit = z_limit(len(workload.zscores))
    for index, z, one_sided in workload.zscores:
        if (z > limit) if one_sided else (abs(z) > limit):
            failures.setdefault(index, []).append(f"statistic {z:+.2f} sigma beyond the {limit:.2f} sigma gate")
    return limit


def layer_metrics(tracer, workload, traced_passes, samples, traced_samples) -> dict:
    passes = max(traced_passes, 1)
    st = tracer.stats

    def calls(name):
        return st[name].calls if name in st else 0

    def per_call(name, scale):
        return st[name].total / st[name].calls * scale if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = workload.rounds_per_pass * passes
    run_self = (st["session.run_session"].self_time if calls("session.run_session") else 0.0) \
        + (st["session.pool"].self_time if calls("session.pool") else 0.0)
    efficiency = 0.0
    if samples.get("w1") and samples.get("w2"):
        # wall times: the two kinds are measured against different references
        w1 = statistics.fmean(s.seconds for s in samples["w1"])
        efficiency = w1 / (workload.workers * statistics.fmean(s.seconds for s in samples["w2"]))

    def cost(kind_samples):  # mean time of one operation, in mean reference times
        return statistics.fmean(s.seconds for s in kind_samples) / statistics.fmean(s.ref for s in kind_samples)

    # one pass at each kind's mean cost, traced over untraced
    per_pass = {}
    for op in workload.pass_ops(0):
        per_pass[op.kind] = per_pass.get(op.kind, 0) + 1
    kinds = [k for k in per_pass if samples.get(k) and traced_samples.get(k)]
    overhead = ratio(sum(per_pass[k] * cost(traced_samples[k]) for k in kinds),
                     sum(per_pass[k] * cost(samples[k]) for k in kinds)) - 1.0
    values = {
        "rates.normalized_rate.calls": (calls("rates.normalized_rate") / passes, "count"),
        "rates.normalized_rate.us_per_call": (per_call("rates.normalized_rate", 1e6), "us"),
        "rates.evals_per_theta_star": (ratio(tracer.nested["rates.optimal_theta", "rates.normalized_rate"],
                                             calls("rates.optimal_theta")), "count"),
        "rates.optimal_theta.ms_per_call": (per_call("rates.optimal_theta", 1e3), "ms"),
        "rates.max_depolarization.s": (per_call("rates.max_depolarization", 1.0), "s"),
        "rates.efficiency_threshold.s": (per_call("rates.efficiency_threshold", 1.0), "s"),
        "qcore.density_matrices_built": (calls("qcore.DensityMatrix") / passes, "count"),
        "qcore.povms_built": (calls("qcore.Povm") / passes, "count"),
        "qcore.dm_per_eval": (ratio(tracer.nested["rates.normalized_rate", "qcore.DensityMatrix"],
                                    calls("rates.normalized_rate")), "count"),
        "qcore.born_probabilities.us_per_call": (per_call("qcore.born_probabilities", 1e6), "us"),
        "states.calls": (tracer.layer_calls("states") / passes, "count"),
        "states.self_s": (tracer.layer_self("states") / passes, "s"),
        "channels.depolarize.calls": (calls("channels.depolarize") / passes, "count"),
        "channels.analytic_pipeline_state.ms_per_call": (per_call("channels.analytic_pipeline_state", 1e3), "ms"),
        "channels.self_s": (tracer.layer_self("channels") / passes, "s"),
        "bell.ch_with_loss.calls": (calls("bell.ch_with_loss") / passes, "count"),
        "bell.ch_with_loss.us_per_call": (per_call("bell.ch_with_loss", 1e6), "us"),
        "bell.table_from_state.ms_per_call": (per_call("bell.table_from_state", 1e3), "ms"),
        "bell.ch_value.ms_per_call": (per_call("bell.ch_value", 1e3), "ms"),
        "session.distributions.ms_per_build": (per_call("session.distributions", 1e3), "ms"),
        "session.tally.ns_per_round": (ratio(st["session.tally"].total if calls("session.tally") else 0.0,
                                             rounds) * 1e9, "ns"),
        "session.draw_merge.ns_per_round": (ratio(run_self, rounds) * 1e9, "ns"),
        "session.result.ms": (per_call("session.result", 1e3), "ms"),
        "session.parallel_efficiency": (efficiency, "ratio"),
        "session.pool_wait_s": (per_call("session.pool", 1.0), "s"),
        "cli.main.self_s": ((st["cli.main"].self_time if calls("cli.main") else 0.0) / passes, "s"),
        "cli.manifest.s": ((st["cli.manifest"].total if calls("cli.manifest") else 0.0) / passes, "s"),
        "cli.bytes_written": (tracer.counters["cli.bytes_written"] / passes, "bytes"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.hooks_absent": (float(len(set(tracer.absent))), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_workload(args) -> int:
    spec = load_spec()
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload = build(args.workload, args.seed, out_dir)
        workload.warm_up()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        samples, traced_samples, setup_times, traced_passes, attempted, failures = \
            run_loop(workload, args.seconds, tracer, lambda: time_setup(args))
        z_gate = apply_z_gate(workload, failures)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)
    correct = not failures
    try:
        generic, named = workload.metrics(samples)
    except (KeyError, ValueError, statistics.StatisticsError):  # no operation of some kind passed
        generic, named = {}, {}
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"), **named,
             "failed_frac": (len(failures) / attempted, "ratio")}
    if args.trace:
        metrics = layer_metrics(tracer, workload, traced_passes, samples, traced_samples)
    else:
        generic.update(setup_s=setup_s, peak_rss_mb=rss_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": generic[name], "unit": unit} for name, unit in units.items() if name in generic}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "provenance": provenance(),
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "metrics": metrics,
        "traced_passes": traced_passes,
        "samples": {kind: [[s.items, round(s.seconds, 6), round(s.ref, 6)] for s in values]
                    for kind, values in samples.items()},
        "z_gate_sigma": z_gate, "z_checks": len(workload.zscores),
        "failures": {str(k): v for k, v in sorted(failures.items())},
    }
    if tracer is not None:
        record["absent_hooks"] = sorted(set(tracer.absent))
        record["spans"] = {"kept": len(tracer.records), "dropped": tracer.dropped,
                           "file": str((results_dir / f"{stem}.spans.csv").relative_to(ROOT))}
        tracer.write(str(results_dir / f"{stem}.spans.csv"))
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, (value, unit) in named.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{args.workload:>16}  {name:<40} {shown:>14} {unit}")
    if tracer is not None and tracer.absent:
        print(f"{args.workload:>16}  absent hooks: {', '.join(sorted(set(tracer.absent)))}")
    for index, errors in sorted(failures.items())[:10]:
        print(f"{args.workload:>16}  FAILED op {index}: {'; '.join(errors)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


def report(args) -> int:
    """Run every workload untraced and traced; print all named metrics."""
    spec = load_spec()
    rows, combined = [], {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            rows += proc.stdout.splitlines()[:-1]
            stem = f"{workload}-seed{args.seed}-trace{trace_flag}"
            combined[stem] = json.loads((OUT / "results" / f"{stem}.json").read_text(encoding="utf-8"))
    print("\n".join(rows))
    out = OUT / "report.json"
    out.write_text(json.dumps(combined, indent=2) + "\n", encoding="utf-8")
    print(f"report written to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload and print one table")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return probe(args)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.report:
        return report(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
