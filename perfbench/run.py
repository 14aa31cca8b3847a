"""flowlab benchmark: runs one workload (or all) and prints every metric.

    python3 perfbench/run.py --workload configs --seed 0 --trace 0

Each workload measures for ``run_seconds`` from ``BENCHMARK.json``; that
file is the only place the run length is set.  ``--seconds`` is accepted so
that a harness can pass the same number, and the run refuses any other
value.  ``--workload all`` runs every workload, each for ``run_seconds``.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped.  Pass times are reported at a reference host speed measured while
they run (``hostspeed.py``); the raw times go to the result file.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, and the run reports the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable copy with the
environment record goes to ``perfbench/results/``.  The exit code is 1 if
any correctness gate failed and 2 if the program cannot be found.
"""

import os

# pinned before numpy is imported, so BLAS and OpenMP stay single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("configs", "ensemble", "aniso", "replay")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3  # fresh interpreters that time the import, besides this one

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "wall_tail_s": ("s", "lower"),
    "node_steps_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _import_program():
    """Import flowlab from this checkout's src/, or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "flowlab", "__init__.py")):
        print(f"error: no flowlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import workloads
    return workloads


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import what ``_import_program``
    imports."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]\n"
            "import workloads\n"
            "print(time.perf_counter() - t0)\n")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, check=True)
    return float(proc.stdout)


def _measure(workload, state, seconds, starts, walls, outcomes, tracer=None):
    """Run timed passes while another pass of the last one's length still
    fits in ``seconds`` (always at least one pass)."""
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.iteration = len(walls)
        t0 = time.perf_counter()
        raw = workload.run_pass(state)
        wall = time.perf_counter() - t0
        starts.append(t0)
        walls.append(wall)
        outcomes.append(workload.observe(state, raw))
        if time.perf_counter() - start + wall > seconds:
            return


def run_workload(name, seed, seconds, trace):
    t0 = time.perf_counter()
    wl_mod = _import_program()
    import_times = [time.perf_counter() - t0]
    import envinfo
    import hostspeed
    import spans

    workload = wl_mod.all_workloads(ROOT)[name]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh).get(name, {})

    os.makedirs(RESULTS, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS)
    try:
        import_times += [_fresh_import_s() for _ in range(IMPORT_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(seed, work_dir)
            setup_times.append(time.perf_counter() - t0)

        starts, walls, outcomes = [], [], []
        traced_starts, traced_walls, tracer = [], [], None
        with hostspeed.Probe() as probe:
            _measure(workload, state, seconds / 2 if trace else seconds,
                     starts, walls, outcomes)
            if trace:
                import layers

                tracer = spans.Tracer()
                undo = layers.install(tracer)
                try:
                    traced_state = workload.instrument(workload.setup(seed, work_dir), tracer)
                    _measure(workload, traced_state, seconds / 2,
                             traced_starts, traced_walls, outcomes, tracer)
                finally:
                    undo()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failures = 0, {}
    for i, (observed, _) in enumerate(outcomes):
        attempted += len(observed)
        for op, msg in workload.check(state, observed, reference).items():
            failures[f"pass {i}: {op}"] = msg

    normalized = hostspeed.normalize(starts, walls, probe.ticks)
    tail = spans.tail(normalized)
    node_steps = outcomes[0][1]
    wall_s = statistics.median(normalized)
    if trace:
        metrics = layers.per_layer_metrics(
            tracer, hostspeed.normalize(traced_starts, traced_walls, probe.ticks), normalized)
        units = {k: v[0] for k, v in layers.METRICS.items()}
    else:
        metrics = {
            "wall_s": wall_s,
            "wall_tail_s": tail["value"],
            "node_steps_per_s": node_steps / wall_s,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {k: v[0] for k, v in END_TO_END.items()}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": envinfo.record(ROOT, seed),
        "result": result,
        "failed_share": len(failures) / attempted,
        "failures": dict(list(failures.items())[:20]),
        "wall_samples_s": walls,
        "normalized_wall_samples_s": normalized,
        "wall_tail": tail,
        "probe": {"period_s": hostspeed.PERIOD, "reference_s": hostspeed.REFERENCE_S,
                  "ticks": len(probe.ticks),
                  "kernel_median_s": statistics.median(d for _, d in probe.ticks)},
        "node_steps_per_iteration": node_steps,
        "import_samples_s": import_times,
        "setup_samples_s": setup_times,
        "traced_wall_samples_s": traced_walls,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(RESULTS, f"spans-{name}-seed{seed}.jsonl"))

    print(f"workload {name}  seed {seed}  passes {len(walls)}"
          + (f" untraced + {len(traced_walls)} traced" if trace else ""))
    for k, v in metrics.items():
        print(f"  {k:42s} {v:.6g} {units[k]}")
    print(f"  failed_share {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    print(f"  wall_tail_s is p{tail['percentile']:.1f} of {tail['samples']} passes "
          f"({tail['beyond']} beyond)")
    print(f"  raw median pass {statistics.median(walls):.6g} s; probe kernel median "
          f"{statistics.median(d for _, d in probe.ticks):.4g} s over {len(probe.ticks)} ticks "
          f"(reference {hostspeed.REFERENCE_S:g} s)")
    for op, msg in list(failures.items())[:10]:
        print(f"  FAILED {op}: {msg}")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process, so set-up and peak RSS stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(BENCHMARK) as fh:
        seconds = json.load(fh)["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds {args.seconds:g} differs from run_seconds {seconds} "
                     f"in BENCHMARK.json")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
