"""Per-layer instrumentation for the traced run.

``install(tracer)`` wraps flowlab's public functions at every name they are
bound to and returns an ``undo`` callable; the program's files are never
changed.  ``per_layer_metrics(tracer, ...)`` turns the recorded spans and
counters into the ``per_layer`` metrics of BENCHMARK.json.

Each metric is "one set-up plus one workload iteration": counts and self
times are the traced set-up's value plus the median over traced passes;
per-unit costs (us per node-step, per point, per call) divide the total
time by the total count over the set-up and every traced pass.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict

import numpy as np

from flowlab import barriers, cli, config, finsler, flows, solver, verify

from spans import self_times

FAMILIES = ("heat", "csf", "mcf2d", "aniso")
FINSLER_STAGES = ("estimate_A_P", "trace_lower_bound", "check_smallness",
                  "cross_term_bound", "estimate_S_eps")
NORM_CALLS = ("value", "grad", "hess", "third")

# name -> (unit, better); README.md says which end-to-end metric each moves
METRICS = {
    **{f"solver.{f}.us_per_node_step": ("us", "lower") for f in FAMILIES},
    "solver.steps": ("count", "lower"),
    "solver.node_steps": ("count", "lower"),
    "solver.evolve_calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "flows.alpha.calls": ("count", "lower"),
    "flows.alpha.ms_per_sample": ("ms", "lower"),
    "flows.coeff_calls": ("count", "lower"),
    **{f"finsler.{s}.self_s": ("s", "lower") for s in FINSLER_STAGES},
    **{f"finsler.{c}.calls": ("count", "lower") for c in NORM_CALLS},
    "finsler.us_per_norm_call": ("us", "lower"),
    "finsler.flow_coefficients.calls": ("count", "lower"),
    "barriers.psi.points": ("count", "lower"),
    "barriers.psi.us_per_point": ("us", "lower"),
    "barriers.psi.self_s": ("s", "lower"),
    "barriers.step_eval.self_s": ("s", "lower"),
    "verify.double_coordinate.G.self_s": ("s", "lower"),
    "verify.double_coordinate.full.self_s": ("s", "lower"),
    "verify.double_coordinate.pairs": ("count", "lower"),
    "verify.intersection_monotonicity.self_s": ("s", "lower"),
    "verify.check_comparison.self_s": ("s", "lower"),
    "verify.heat_zero_counting.self_s": ("s", "lower"),
    "verify.checks_run": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "fields.export.self_s": ("s", "lower"),
    "fields.bytes_written": ("bytes", "lower"),
    "config.load.self_s": ("s", "lower"),
    "cli.run_experiment.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# span name -> metric that sums its self time
SELF_TIME_METRICS = {
    "solver.evolve": "solver.self_s",
    "solver.evolve_pair_ordered": "solver.self_s",
    **{f"finsler.{s}": f"finsler.{s}.self_s" for s in FINSLER_STAGES},
    "barriers.psi_eval_clamped": "barriers.psi.self_s",
    "barriers.phi_double_coordinate": "barriers.psi.self_s",
    "barriers.step_eval": "barriers.step_eval.self_s",
    "verify.double_coordinate.G": "verify.double_coordinate.G.self_s",
    "verify.double_coordinate.full": "verify.double_coordinate.full.self_s",
    "verify.intersection_monotonicity": "verify.intersection_monotonicity.self_s",
    "verify.check_comparison": "verify.check_comparison.self_s",
    "verify.heat_zero_counting": "verify.heat_zero_counting.self_s",
    "fields.export": "fields.export.self_s",
    "config.load": "config.load.self_s",
    "cli.run_experiment": "cli.run_experiment.self_s",
}


def _family(flow) -> str:
    return flow.name.split(":", 1)[0]


def _on_evolve(tracer, rec, traj, args, kwargs):
    flow, u0 = args[0], args[1]
    steps = traj.dt_stats["n_steps"]
    _count_solver(tracer, rec, flow, steps, steps * u0.values.size)


def _on_pair(tracer, rec, result, args, kwargs):
    flow, lo = args[0], args[1]
    steps = result[2].size - 1
    _count_solver(tracer, rec, flow, steps, 2 * steps * lo.values.size)


def _count_solver(tracer, rec, flow, steps, node_steps):
    fam = _family(flow)
    tracer.add("solver.steps", steps)
    tracer.add("solver.node_steps", node_steps)
    tracer.add("solver.evolve_calls")
    tracer.add(f"solver.{fam}.node_steps", node_steps)
    tracer.add(f"solver.{fam}.time_s", rec[2] - rec[1])


def _on_check(tracer, rec, rep, args, kwargs):
    tracer.add("verify.checks_run")
    if not rep.passed:
        tracer.add("verify.checks_failed")


def _on_double_coordinate(tracer, rec, rep, args, kwargs):
    _on_check(tracer, rec, rep, args, kwargs)
    traj, b, M = args[0], args[1], args[2]
    region = kwargs.get("region", args[3] if len(args) > 3 else "full")
    window = kwargs.get("t_window", args[4] if len(args) > 4 else None)
    grid = traj.fields[0].grid
    lags = np.arange(1, grid.n_nodes)
    dists = np.minimum(lags, grid.n_nodes - lags) * grid.h
    pairs = 0
    for t, _ in traj.snapshots:
        if t <= 0 or (window is not None and not window[0] <= t <= window[1]):
            continue
        if region == "G":
            pairs += int(np.sum(dists <= float(barriers.z_M(t, M, b.c))))
        else:
            pairs += lags.size
    tracer.add("verify.double_coordinate.pairs", pairs)


def _on_psi(tracer, rec, result, args, kwargs):
    tracer.add("barriers.psi.points", np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)
    tracer.add("barriers.psi.time_s", rec[2] - rec[1])


def _on_alpha(tracer, rec, result, args, kwargs):
    tracer.add("flows.alpha.calls")
    tracer.add("flows.alpha.time_s", rec[2] - rec[1])


def _on_export(tracer, rec, manifest, args, kwargs):
    out_dir = args[1]
    fields_dir = os.path.join(out_dir, "fields")
    size = os.path.getsize(os.path.join(out_dir, "manifest.json"))
    size += sum(os.path.getsize(os.path.join(fields_dir, f)) for f in os.listdir(fields_dir))
    tracer.add("fields.bytes_written", size)


def _double_coordinate_name(*args, **kwargs) -> str:
    return "verify.double_coordinate." + kwargs.get("region", args[3] if len(args) > 3 else "full")


def install(tracer):
    """Wrap every traced function where it is bound; return an undo callable."""
    saved = []

    def patch(owners, attr, wrapper_of):
        original = getattr(owners[0], attr)
        wrapped = wrapper_of(original)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def span(name, on_exit=None):
        return lambda fn: tracer.span(name, fn, on_exit)

    patch([solver, cli], "evolve", span("solver.evolve", _on_evolve))
    patch([solver], "evolve_pair_ordered", span("solver.evolve_pair_ordered", _on_pair))
    patch([flows], "alpha", span("flows.alpha", _on_alpha))
    for stage in FINSLER_STAGES:
        patch([finsler], stage, span(f"finsler.{stage}"))
    patch([finsler], "flow_coefficients",
          lambda fn: tracer.counter("finsler.flow_coefficients", fn))
    patch([barriers], "psi_eval_clamped", span("barriers.psi_eval_clamped", _on_psi))
    patch([barriers], "phi_double_coordinate", span("barriers.phi_double_coordinate"))
    patch([barriers], "step_eval", span("barriers.step_eval"))
    patch([verify], "double_coordinate_defect",
          span(_double_coordinate_name, _on_double_coordinate))
    patch([verify], "intersection_monotonicity",
          span("verify.intersection_monotonicity", _on_check))
    patch([verify], "check_comparison", span("verify.check_comparison", _on_check))
    patch([verify], "heat_zero_counting_gradient",
          span("verify.heat_zero_counting", _on_check))
    patch([solver.Trajectory], "export", span("fields.export", _on_export))
    patch([config, cli], "load_config", span("config.load"))
    patch([cli], "run_experiment", span("cli.run_experiment"))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def per_layer_metrics(tracer, traced_walls, untraced_walls) -> dict:
    """Every METRICS entry from one traced set-up plus the traced passes."""
    per_iter = defaultdict(lambda: defaultdict(float))
    for rec, self_s in zip(tracer.spans, self_times(tracer.spans)):
        metric = SELF_TIME_METRICS.get(rec[0])
        if metric:
            per_iter[rec[4]][metric] += self_s
        per_iter[rec[4]]["trace.spans"] += 1
    for iteration, counts in tracer.counts.items():
        for key, value in counts.items():
            per_iter[iteration][key] += value

    setup = per_iter.get("setup", {})
    passes = [per_iter.get(i, {}) for i in range(len(traced_walls))]

    def per_iteration(key):
        return setup.get(key, 0.0) + (statistics.median(p.get(key, 0.0) for p in passes)
                                      if passes else 0.0)

    def total(key):
        return setup.get(key, 0.0) + sum(p.get(key, 0.0) for p in passes)

    def ratio(time_key, count_key, scale):
        count = total(count_key)
        return scale * total(time_key) / count if count else 0.0

    out = {}
    for name in METRICS:
        if name.startswith("solver.") and name.endswith(".us_per_node_step"):
            fam = name.split(".")[1]
            out[name] = ratio(f"solver.{fam}.time_s", f"solver.{fam}.node_steps", 1e6)
        elif name == "flows.alpha.ms_per_sample":
            out[name] = ratio("flows.alpha.time_s", "flows.alpha.calls", 1e3)
        elif name == "flows.coeff_calls":
            out[name] = per_iteration("flows.coeff.calls")
        elif name == "finsler.us_per_norm_call":
            calls = sum(total(f"finsler.{c}.calls") for c in NORM_CALLS)
            spent = sum(total(f"finsler.{c}.time_s") for c in NORM_CALLS)
            out[name] = 1e6 * spent / calls if calls else 0.0
        elif name == "barriers.psi.us_per_point":
            out[name] = ratio("barriers.psi.time_s", "barriers.psi.points", 1e6)
        elif name == "trace.overhead_s":
            out[name] = (statistics.median(traced_walls) - statistics.median(untraced_walls)
                         if traced_walls and untraced_walls else 0.0)
        else:
            out[name] = per_iteration(name)
    return out
