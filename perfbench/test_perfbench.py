"""Self-tests of the benchmark: span arithmetic, the tail statistic, the
metric lists, the wrappers, and a negative control for every correctness gate.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flowlab import solver, verify  # noqa: E402
from flowlab.fields import Field, Grid1D  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


# --- spans and statistics ------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,3], C[4,8] > D[5,6]
    recs = [["A", 0.0, 10.0, None, 0], ["B", 1.0, 3.0, 0, 0],
            ["C", 4.0, 8.0, 0, 0], ["D", 5.0, 6.0, 2, 0]]
    assert spans.self_times(recs) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_merges_overlapping_children_and_clips():
    recs = [["A", 0.0, 10.0, None, 0], ["B", 1.0, 5.0, 0, 0],
            ["C", 3.0, 7.0, 0, 0], ["D", 9.0, 12.0, 0, 0]]
    assert spans.self_times(recs)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_iterations_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2,
                        on_exit=lambda tr, rec, res, a, k: tr.add("outer.result", res))
    tracer.iteration = 3
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent, o_it), (i_name, _, _, i_parent, i_it) = tracer.spans
    assert (o_name, o_parent, o_it) == ("outer", None, 3)
    assert (i_name, i_parent, i_it) == ("inner", 0, 3)
    assert spans.self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.counts[3]["outer.result"] == 4
    counted = tracer.counter("f", lambda: None)
    counted()
    counted()
    assert tracer.counts[3]["f.calls"] == 2


def test_tail_has_ten_samples_beyond_when_there_are_enough():
    samples = list(range(30, 0, -1))  # 1..30, shuffled order does not matter
    t = spans.tail(samples)
    assert t["value"] == 20 and t["beyond"] == 10 and t["samples"] == 30
    assert t["percentile"] == pytest.approx(100.0 * 19 / 29)


def test_tail_falls_back_to_the_median_with_few_samples():
    t = spans.tail([5.0, 1.0, 3.0, 2.0, 4.0])
    assert t["value"] == 3.0 and t["percentile"] == 50.0 and t["beyond"] == 2
    # continuous where the two rules meet (n = 21: median index = n - 11)
    t21 = spans.tail(list(range(21)))
    assert t21["value"] == 10 and t21["beyond"] == 10
    assert spans.tail([7.0])["value"] == 7.0


def test_normalize_scales_each_pass_by_the_kernel_time_inside_it():
    ref = hostspeed.REFERENCE_S
    # pass 0 ran on a host twice as slow as the reference, pass 1 at it;
    # pass 2 holds no tick and falls back to the mean over all ticks
    ticks = [(0.1, 2 * ref), (0.5, 2 * ref), (1.2, ref), (1.4, ref), (5.0, 1.5 * ref)]
    out = hostspeed.normalize([0.0, 1.0, 3.0], [1.0, 1.0, 0.01], ticks)
    assert out == pytest.approx([0.5, 1.0, 0.01 / 1.5])


def test_probe_ticks_while_busy_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        t_end = time.perf_counter() + 0.25
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 5 <= len(probe.ticks) <= 15
    assert all(d > 0 for _, d in probe.ticks)


# --- metric lists --------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.METRICS
    assert set(workloads.all_workloads(ROOT)) == set(run.WORKLOADS)
    with open(os.path.join(HERE, "README.md")) as fh:
        readme = fh.read()
    assert [m for m in layers.METRICS if f"`{m}`" not in readme] == []


# --- wrappers ------------------------------------------------------------------


def test_install_counts_solver_work_and_undo_restores_the_program():
    from flowlab import cli, flows

    original = (solver.evolve, cli.evolve, solver.Trajectory.export)
    tracer = spans.Tracer()
    undo = layers.install(tracer)
    try:
        g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
        traj = solver.evolve(flows.csf(), Field(g, np.sin(g.nodes())),
                             solver.BoundaryCondition("periodic"),
                             solver.TimeStepPlan(t_end=0.01))
    finally:
        undo()
    assert (solver.evolve, cli.evolve, solver.Trajectory.export) == original
    steps = traj.dt_stats["n_steps"]
    m = layers.per_layer_metrics(tracer, [], [])
    assert m["solver.steps"] == steps and m["solver.node_steps"] == 32 * steps
    assert m["solver.evolve_calls"] == 1 and m["solver.csf.us_per_node_step"] > 0
    assert set(m) == set(layers.METRICS)


# --- correctness gates and their negative controls ------------------------------


def test_compare_uses_a_tight_relative_tolerance():
    assert workloads.compare(1.0 + 1e-14, 1.0) is None
    assert workloads.compare(1.0 + 1e-9, 1.0) is not None
    assert workloads.compare({"a": 1}, {"a": 1, "b": 2}) is not None
    assert workloads.compare("abc", "abd") is not None


def test_configs_gate_passes_on_the_program_and_fails_on_a_perturbed_digest(tmp_path):
    wl = workloads.Configs(ROOT)
    wl.CONFIG_NAMES = ("heat-step",)
    state = wl.setup(0, str(tmp_path))
    observed, node_steps = wl.observe(state, wl.run_pass(state))
    ref = {"heat-step": REFERENCE["configs"]["heat-step"]}
    assert wl.check(state, observed, ref) == {}
    assert node_steps == 820 * 257
    assert os.listdir(tmp_path) == []

    bad = copy.deepcopy(ref)
    digest = bad["heat-step"]["sha256"]["manifest.json"]
    bad["heat-step"]["sha256"]["manifest.json"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert "heat-step" in wl.check(state, observed, bad)
    bad = copy.deepcopy(ref)
    bad["heat-step"]["n_steps"] += 1
    assert "heat-step" in wl.check(state, observed, bad)
    assert "heat-step" in wl.check(state, {"heat-step": dict(observed["heat-step"], exit_code=1)},
                                   ref)


def _aniso_observed():
    return {"certify": copy.deepcopy(REFERENCE["aniso"]["certify"]),
            "evolve": {"n_steps": 24, "max_gap_to_mcf2d": 7e-18}}


def test_aniso_gate_fails_on_a_perturbed_constant_field_or_step_count():
    wl, state, ref = workloads.Aniso(), {"mcf2d_steps": 24}, REFERENCE["aniso"]
    assert wl.check(state, _aniso_observed(), ref) == {}
    obs = _aniso_observed()
    obs["certify"]["C1"] *= 1 + 1e-9
    assert "certify" in wl.check(state, obs, ref)
    obs = _aniso_observed()
    obs["certify"]["S_eps"]["0.1"] = None
    assert "certify" in wl.check(state, obs, ref)
    obs = _aniso_observed()
    obs["evolve"]["max_gap_to_mcf2d"] = 1e-9
    assert "evolve" in wl.check(state, obs, ref)
    obs = _aniso_observed()
    obs["evolve"]["n_steps"] = 25
    assert "evolve" in wl.check(state, obs, ref)


def test_ensemble_gate_fails_on_a_failed_comparison_or_intersection_rise():
    g = Grid1D(0.0, 2 * np.pi, 16, "periodic")
    x = g.nodes()
    traj_u, traj_p = solver.Trajectory(), solver.Trajectory()
    traj_u.append(0.0, Field(g, np.zeros_like(x)))
    traj_u.append(0.1, Field(g, np.zeros_like(x), time=0.1))
    traj_p.append(0.0, Field(g, np.ones_like(x)))
    traj_p.append(0.1, Field(g, np.sin(x + 0.1), time=0.1))
    rising = verify.intersection_monotonicity(traj_u, traj_p)
    crossed = verify.check_comparison(np.array([0.1, -1e-3]))
    fine = verify.check_comparison(np.array([0.1, 0.05]))
    wl = workloads.Ensemble()
    observed, _ = wl.observe({}, [("a", rising, 0), ("b", crossed, 0), ("c", fine, 0),
                                  ("d", solver.SolverError("dt underflow"), 0)])
    assert set(wl.check({}, observed, {})) == {"a", "b", "d"}

    # criterion 5 also needs 90% of the csf pairs to start with an intersection
    def pair_report(offset):
        traj_u, traj_p = solver.Trajectory(), solver.Trajectory()
        for t in (0.0, 0.1):
            traj_u.append(t, Field(g, np.sin(x), time=t))
            traj_p.append(t, Field(g, np.full_like(x, offset), time=t))
        return verify.intersection_monotonicity(traj_u, traj_p)

    meets, apart = pair_report(0.5), pair_report(2.0)
    assert meets.passed and apart.passed
    assert meets.witness["counts"][0] > 0 == apart.witness["counts"][0]
    raw = [(f"csf-intersections-{i:03d}", meets, 0) for i in range(9)]
    observed, _ = wl.observe({}, raw + [("csf-intersections-009", apart, 0)])
    assert wl.check({}, observed, {}) == {}
    observed, _ = wl.observe({}, raw[:8] + [(f"csf-intersections-{i:03d}", apart, 0)
                                            for i in (8, 9)])
    assert set(wl.check({}, observed, {})) == {"csf-intersections"}


def test_replay_gate_fails_on_a_perturbed_defect_or_alpha_error():
    wl, ref = workloads.Replay(), REFERENCE["replay"]
    observed = copy.deepcopy(ref)
    observed["alpha-00"] = {"error_vs_closed_form": 1e-15}
    assert wl.check({}, observed, ref) == {}
    bad = copy.deepcopy(observed)
    bad["double-coordinate:G:eps=4h"]["max_defect"] *= 1 + 1e-9
    assert set(wl.check({}, bad, ref)) == {"double-coordinate:G:eps=4h"}
    bad = copy.deepcopy(observed)
    bad["alpha-00"]["error_vs_closed_form"] = 1e-5
    assert set(wl.check({}, bad, ref)) == {"alpha-00"}
    bad = copy.deepcopy(observed)
    del bad["heat-zero-counting"]
    assert set(wl.check({}, bad, ref)) == {"heat-zero-counting"}
