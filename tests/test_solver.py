import dataclasses
import functools
import math
import re
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import flows, solver
from flowlab.fields import Field, Grid1D, GridND
from flowlab.solver import (
    BlowUpError,
    BoundaryCondition,
    SolverError,
    TimeStepPlan,
    Trajectory,
    _Stepper,
    evolve,
    evolve_pair_ordered,
    prep_output_times,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        TimeStepPlan(t_end=-1.0)
    with pytest.raises(ValueError):
        TimeStepPlan(t_end=1.0, cfl_safety=1.5)
    # NaN fails every range; an infinite t_end would never be reached
    for kwargs in ({"t_end": np.nan}, {"t_end": np.inf}, {"t_end": 1.0, "max_grad_clip": np.nan}):
        with pytest.raises(ValueError):
            TimeStepPlan(**kwargs)
    with pytest.raises(ValueError):
        BoundaryCondition("dirichlet")
    with pytest.raises(ValueError):
        BoundaryCondition("reflecting")


def test_heat_periodic_exact_decay():
    # u0 = sin(x) under u_t = u_xx decays as e^{-t} sin(x)
    g = Grid1D(0.0, 2 * np.pi, 128, "periodic")
    x = g.nodes()
    flow = flows.heat_1d(0.25)  # u_t = u_xx
    traj = evolve(flow, Field(g, np.sin(x)), BoundaryCondition("periodic"),
                  TimeStepPlan(t_end=0.5), [0.25, 0.5])
    for t, f in traj.snapshots[1:]:
        assert np.max(np.abs(f.values - np.exp(-t) * np.sin(x))) < 5e-4


def test_heat_dirichlet_and_neumann_exact():
    g = Grid1D(0.0, np.pi, 128, "bounded")
    x = g.nodes()
    flow = flows.heat_1d(0.25)
    traj = evolve(flow, Field(g, np.sin(x)),
                  BoundaryCondition("dirichlet", value=lambda xx, tt: 0.0),
                  TimeStepPlan(t_end=0.3), [0.3])
    t, f = traj.snapshots[-1]
    assert np.max(np.abs(f.values - np.exp(-t) * np.sin(x))) < 1e-4

    traj = evolve(flow, Field(g, np.cos(x)), BoundaryCondition("neumann_zero"),
                  TimeStepPlan(t_end=0.3), [0.3])
    t, f = traj.snapshots[-1]
    assert np.max(np.abs(f.values - np.exp(-t) * np.cos(x))) < 1e-4


def test_csf_small_amplitude_matches_heat():
    # for |u_x| << 1 curve shortening is the heat equation to leading order
    g = Grid1D(0.0, 2 * np.pi, 128, "periodic")
    x = g.nodes()
    eps = 1e-3
    traj = evolve(flows.csf(), Field(g, eps * np.sin(x)), BoundaryCondition("periodic"),
                  TimeStepPlan(t_end=0.2), [0.2])
    t, f = traj.snapshots[-1]
    assert np.max(np.abs(f.values - eps * np.exp(-t) * np.sin(x))) < 5e-7


def test_mcf2d_small_amplitude():
    n = 64
    g = GridND((Grid1D(0, 2 * np.pi, n, "periodic"), Grid1D(0, 2 * np.pi, n, "periodic")))
    X, Y = g.meshgrid()
    eps = 1e-3
    u0 = eps * np.sin(X) * np.sin(Y)
    traj = evolve(flows.mcf_graph(2), Field(g, u0), BoundaryCondition("periodic"),
                  TimeStepPlan(t_end=0.1), [0.1])
    t, f = traj.snapshots[-1]
    exact = eps * np.exp(-2 * t) * np.sin(X) * np.sin(Y)
    assert np.max(np.abs(f.values - exact)) < 5e-3 * eps


def test_trajectory_append_monotone():
    g = Grid1D(0, 1, 8)
    traj = Trajectory()
    traj.append(0.0, Field(g, np.zeros(9)))
    with pytest.raises(ValueError):
        traj.append(0.0, Field(g, np.zeros(9)))


def test_output_times_validation():
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    f0 = Field(g, np.sin(g.nodes()))
    with pytest.raises(ValueError):
        evolve(flows.heat_1d(0.25), f0, BoundaryCondition("periodic"),
               TimeStepPlan(t_end=0.1), [0.2])
    # repeated times fail before the first step evaluates the coefficient
    calls = []
    heat = flows.heat_1d(0.25)
    counted = dataclasses.replace(
        heat, coeff=lambda Du, out=None: calls.append(1) or heat.coeff(Du, out))
    with pytest.raises(ValueError, match="repeat"):
        evolve(counted, f0, BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.05])
    assert calls == []


@pytest.mark.parametrize("times", [[np.nan], [0.05, np.nan]])
def test_prep_output_times_rejects_times_outside_the_plan(times):
    # NaN compares False with every bound, so it must fail the range test, not
    # slip past it: an evolve would never reach such an output time
    plan = TimeStepPlan(t_end=0.1)
    assert prep_output_times(plan, [0.1, 0.05]) == [0.05, 0.1]
    with pytest.raises(ValueError, match=r"\(0, t_end\]"):
        prep_output_times(plan, times)
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    with pytest.raises(ValueError, match=r"\(0, t_end\]"):
        evolve(flows.heat_1d(0.25), Field(g, np.sin(g.nodes())), BoundaryCondition("periodic"),
               plan, times)


def test_bc_grid_compatibility():
    g = Grid1D(0.0, 1.0, 32, "bounded")
    f0 = Field(g, np.zeros(33))
    with pytest.raises(SolverError):
        evolve(flows.heat_1d(0.25), f0, BoundaryCondition("periodic"),
               TimeStepPlan(t_end=0.1))
    with pytest.raises(SolverError):  # a 2-D flow on a 1-D grid
        evolve(flows.mcf_graph(2), f0, BoundaryCondition("neumann_zero"),
               TimeStepPlan(t_end=0.1))


def test_blowup_on_gradient_clip():
    g = Grid1D(-1.0, 1.0, 64, "bounded")
    x = g.nodes()
    f0 = Field(g, np.tanh(50 * x))
    with pytest.raises(BlowUpError):
        evolve(flows.csf(), f0, BoundaryCondition("neumann_zero"),
               TimeStepPlan(t_end=0.1, max_grad_clip=10.0), [0.1])


def test_comparison_pair_gap_preserved():
    g = Grid1D(0.0, 2 * np.pi, 64, "periodic")
    x = g.nodes()
    lo = Field(g, np.sin(x))
    hi = Field(g, np.sin(x) + 0.3)
    _, _, gaps = evolve_pair_ordered(flows.csf(), lo, hi, BoundaryCondition("periodic"),
                                     TimeStepPlan(t_end=0.1), [0.1])
    assert np.min(gaps) >= -1e-12


def test_pair_requires_ordering():
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    x = g.nodes()
    with pytest.raises(ValueError):
        evolve_pair_ordered(flows.csf(), Field(g, np.sin(x)), Field(g, -np.sin(x)),
                            BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1))
    g2 = Grid1D(0.0, 4 * np.pi, 32, "periodic")
    with pytest.raises(ValueError):  # the pair is one batch on one grid
        evolve_pair_ordered(flows.csf(), Field(g, np.sin(x)), Field(g2, np.sin(x) + 1),
                            BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1))


def test_cfl_step_from_nodewise_coefficient():
    # on the ramp u = x every node has slope 1, so the step is set by a(1),
    # not by a(0) = 1000 on slopes the data does not have
    g = Grid1D(0.0, 1.0, 64, "bounded")
    x = g.nodes()
    plan = TimeStepPlan(t_end=1e-3)
    traj = evolve(flows.plaplace_reg(q=-1.0, eps=0.1), Field(g, x.copy()),
                  BoundaryCondition("dirichlet", value=lambda xx, tt: xx), plan)
    a_ramp = 1.01 ** -1.5
    assert traj.dt_stats["dt_max"] == pytest.approx(
        plan.cfl_safety * g.h ** 2 / (2 * a_ramp), rel=1e-12)
    assert traj.dt_stats["n_steps"] < 20
    assert np.max(np.abs(traj.fields[-1].values - x)) < 1e-12


@pytest.mark.parametrize("topology, bc", [
    ("periodic", BoundaryCondition("periodic")),
    ("bounded", BoundaryCondition("dirichlet", value=lambda xx, tt: np.sin(xx))),
])
def test_pair_equals_single_runs(topology, bc):
    # a constant coefficient gives both members the single-run step sizes
    g = Grid1D(0.0, 2 * np.pi, 64, topology)
    x = g.nodes()
    lo = Field(g, np.sin(x))
    hi = Field(g, np.sin(x) + 0.5 * np.cos(2 * x) ** 2 + 0.1)
    flow, plan, times = flows.heat_1d(0.25), TimeStepPlan(t_end=0.1), [0.05, 0.1]
    traj_lo, traj_hi, gaps = evolve_pair_ordered(flow, lo, hi, bc, plan, times)
    for pair_traj, u0 in ((traj_lo, lo), (traj_hi, hi)):
        single = evolve(flow, u0, bc, plan, times)
        assert np.array_equal(pair_traj.times, single.times)
        for a, b in zip(pair_traj.fields, single.fields):
            assert np.array_equal(a.values, b.values)
    assert gaps.size == single.dt_stats["n_steps"] + 1


@pytest.mark.parametrize("n", [2, 3])
def test_dirichlet_faces_nd(n):
    # a constant field under a constant boundary value stays exactly constant,
    # and a linear field (D^2 u = 0) keeps its boundary values node by node
    ax = Grid1D(0.0, 1.0, 6, "bounded")
    g = GridND((ax,) * n)
    mesh = np.stack(g.meshgrid(), axis=-1)
    plan = TimeStepPlan(t_end=1e-2)
    traj = evolve(flows.mcf_graph(n), Field(g, np.full(mesh.shape[:-1], 0.5)),
                  BoundaryCondition("dirichlet", value=lambda p, t: 0.5), plan)
    assert np.array_equal(traj.fields[-1].values, np.full(mesh.shape[:-1], 0.5))

    w = np.arange(1.0, n + 1.0)
    linear = mesh @ w
    traj = evolve(flows.mcf_graph(n), Field(g, linear),
                  BoundaryCondition("dirichlet", value=lambda p, t: float(p @ w)), plan)
    u = traj.fields[-1].values
    for d in range(n):
        for side in (0, -1):
            idx = tuple(side if k == d else slice(None) for k in range(n))
            assert np.array_equal(u[idx], linear[idx])
    assert np.max(np.abs(u - linear)) < 1e-12


def test_export(tmp_path):
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    traj = evolve(flows.heat_1d(0.25), Field(g, np.sin(g.nodes())),
                  BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.1])
    manifest = traj.export(tmp_path, flow_id="heat", bc="periodic")
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "fields" / "t=0.05.csv").exists()
    assert manifest["output_times"] == [0.0, 0.05, 0.1]
    assert manifest["grid"][0]["n_cells"] == 32


def test_export_refuses_shared_file_names(tmp_path):
    # 0.01000001 and 0.01000002 both format to t=0.01.csv: nothing is written
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    traj = evolve(flows.heat_1d(0.25), Field(g, np.sin(g.nodes())),
                  BoundaryCondition("periodic"), TimeStepPlan(t_end=0.02),
                  [0.01000001, 0.01000002])
    assert len(traj.snapshots) == 3
    with pytest.raises(ValueError, match=r"fields/t=0\.01\.csv"):
        traj.export(tmp_path, flow_id="heat", bc="periodic")
    assert list(tmp_path.iterdir()) == []


# --- the stepper against a term-by-term oracle, bit for bit ------------------


def _oracle_padded(u, bc_kind):
    """u (B, *grid) with one ghost layer per side, filled axis by axis;
    later axes copy the ghosts of earlier ones into the corners."""
    n = u.ndim - 1
    up = np.zeros((u.shape[0],) + tuple(s + 2 for s in u.shape[1:]))
    up[(slice(None),) + (slice(1, -1),) * n] = u
    for ax, N in enumerate(u.shape[1:]):
        def layer(k):
            return up[(slice(None),) + tuple(slice(None) if d < ax else k if d == ax
                                             else slice(1, -1) for d in range(n))]
        if bc_kind == "periodic":
            layer(0)[...], layer(N + 1)[...] = layer(N), layer(1)
        elif bc_kind == "neumann_zero":
            layer(0)[...], layer(N + 1)[...] = layer(2), layer(N - 1)
        else:
            layer(0)[...] = 2 * layer(1) - layer(2)
            layer(N + 1)[...] = 2 * layer(N) - layer(N - 1)
    return up


def _oracle_rhs_and_dt(flow, u, bc_kind, hs, plan):
    """The stepper's arithmetic as term lists summed left to right: cross
    terms first, then axes, for both the rhs and the stability sum."""
    n, shape = u.ndim - 1, u.shape[1:]
    up = _oracle_padded(u, bc_kind)

    def s(offsets):
        return up[(slice(None),) + tuple(slice(1 + o, N + 1 + o) for o, N in zip(offsets, shape))]

    e = np.eye(n, dtype=int)
    h2 = hs[0] ** 2
    Du = np.stack([(s(e[i]) - s(-e[i])) / (2 * hs[i]) for i in range(n)], axis=-1)
    A = flow.coeff(Du)
    gmax = math.sqrt(functools.reduce(np.add, [Du[..., i] * Du[..., i] for i in range(n)]).max())
    assert gmax <= plan.max_grad_clip
    two_u = 2 * u
    diag = [A[..., i, i] for i in range(n)]
    rhs, stab = [], []
    for i in range(n):
        for j in range(i + 1, n):
            aij = A[..., i, j]
            pos = np.maximum(aij, 0.0)
            neg = np.maximum(-aij, 0.0)
            off = pos + neg
            rhs.append(pos * ((s(e[i] + e[j]) - two_u + s(-e[i] - e[j])) / h2)
                       + neg * ((s(e[i] - e[j]) - two_u + s(e[j] - e[i])) / h2))
            stab.append(off / h2)
            diag[i] = diag[i] - off
            diag[j] = diag[j] - off
    for i, d in enumerate(diag):
        rhs.append(d * ((s(e[i]) - two_u + s(-e[i])) / hs[i] ** 2))
        stab.append(np.abs(d) / h2)
    stab_max = float(functools.reduce(np.add, stab).max())
    dt = plan.cfl_safety / (2.0 * stab_max) if stab_max > 0 else plan.t_end
    return functools.reduce(np.add, rhs), dt


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("bc_kind", ["periodic", "neumann_zero", "dirichlet"])
@pytest.mark.parametrize("flow_id", ["heat", "csf", "plaplace-reg", "mcf2d", "mcf3d",
                                     "aniso:quartic:0.001"])
def test_stepper_matches_term_by_term_oracle(flow_id, bc_kind, batch):
    # rhs, dt and u agree bit for bit over 20 steps: the in-place stepper
    # makes the same floating-point operations in the same order
    flow = flows.get_flow(flow_id)
    n = flow.n
    ax = Grid1D(0.0, 2 * np.pi, {1: 32, 2: 10, 3: 6}[n],
                "periodic" if bc_kind == "periodic" else "bounded")
    grid = ax if n == 1 else GridND((ax,) * n)
    mesh = np.stack(np.meshgrid(*[ax.nodes()] * n, indexing="ij"), axis=-1)
    rng = np.random.default_rng(n * 10 + batch)
    # mixed-sign cross derivatives, plus noise so that no two nodes agree
    u0 = np.stack([np.sin(mesh @ rng.uniform(-2, 2, n)) * np.cos(mesh[..., 0] - k)
                   + 0.05 * rng.standard_normal(mesh.shape[:-1]) for k in range(batch)])

    def value(p, t):
        return 0.1 * float(np.sum(p)) + t
    bc = BoundaryCondition(bc_kind, value=value if bc_kind == "dirichlet" else None)
    faces = [(slice(None),) + tuple(side if d == a else slice(None) for d in range(n))
             for a in range(n) for side in (0, -1)] if bc_kind == "dirichlet" else []

    def oracle_dirichlet(u, t):
        for idx in faces:
            points = mesh[idx[1:]]
            u[idx] = np.array([value(p, t) for p in points.reshape(-1, n)]).reshape(points.shape[:-1])

    plan = TimeStepPlan(t_end=1.0)
    stepper = _Stepper(flow, grid, u0, bc, plan)
    u = u0.copy()
    oracle_dirichlet(u, 0.0)
    assert _same_bits(stepper.u, u)
    t = 0.0
    for _ in range(20):
        rhs_ref, dt_ref = _oracle_rhs_and_dt(flow, u, bc_kind, [ax.h] * n, plan)
        t, dt = stepper.step(t, math.inf)
        assert dt == dt_ref
        assert _same_bits(stepper.rhs, rhs_ref)
        u += dt * rhs_ref
        oracle_dirichlet(u, t)
        assert _same_bits(stepper.u, u)
    assert not np.array_equal(u, u0)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("flow_id, bc_kind", [("csf", "periodic"), ("csf", "neumann_zero"),
                                              ("csf", "dirichlet"), ("mcf2d", "periodic"),
                                              ("mcf2d", "dirichlet")])
def test_whole_runs_match_a_term_by_term_loop(flow_id, bc_kind, batch):
    # evolve (B = 1) and evolve_pair_ordered (B = 2) against a plain loop over
    # the term-by-term oracle: the snapshots, the step clipped to each output
    # time, dt_stats and the gap series agree bit for bit
    flow = flows.get_flow(flow_id)
    n = flow.n
    ax = Grid1D(0.0, 2 * np.pi, {1: 32, 2: 12}[n],
                "periodic" if bc_kind == "periodic" else "bounded")
    grid = ax if n == 1 else GridND((ax,) * n)
    mesh = np.stack(np.meshgrid(*[ax.nodes()] * n, indexing="ij"), axis=-1)
    rng = np.random.default_rng(5 + n)
    low = np.sin(mesh @ rng.uniform(-2, 2, n)) + 0.05 * rng.standard_normal(mesh.shape[:-1])
    u0 = np.stack([low, low + 0.1 + 0.1 * rng.random(low.shape)][:batch])

    def value(p, t):
        return 0.1 * float(np.sum(p)) + t
    bc = BoundaryCondition(bc_kind, value=value if bc_kind == "dirichlet" else None)
    faces = [(slice(None),) + tuple(side if d == a else slice(None) for d in range(n))
             for a in range(n) for side in (0, -1)] if bc_kind == "dirichlet" else []

    def oracle_dirichlet(u, t):
        for idx in faces:
            points = mesh[idx[1:]]
            u[idx] = np.array([value(p, t) for p in points.reshape(-1, n)]).reshape(points.shape[:-1])

    plan = TimeStepPlan(t_end=0.3)
    times = [0.0123, 0.1, 0.3]
    u = u0.copy()
    oracle_dirichlet(u, 0.0)
    gaps = [np.min(u[-1] - u[0])]
    snapshots = [(0.0, u0)]
    t, dts, clipped, pending = 0.0, [], 0, list(times)
    while pending:
        rhs, dt = _oracle_rhs_and_dt(flow, u, bc_kind, [ax.h] * n, plan)
        if pending[0] - t < dt:
            dt = pending[0] - t
            clipped += 1
        t += dt
        u += dt * rhs
        oracle_dirichlet(u, t)
        dts.append(dt)
        gaps.append(np.min(u[-1] - u[0]))
        if t >= pending[0] - 1e-14:
            t = pending.pop(0)
            snapshots.append((t, u.copy()))
    assert clipped == len(times) and len(dts) > 2 * len(times)

    fields = [Field(grid, v) for v in u0]
    if batch == 1:
        trajs = [evolve(flow, *fields, bc, plan, times)]
    else:
        *trajs, gap_series = evolve_pair_ordered(flow, *fields, bc, plan, times)
        assert _same_bits(gap_series, np.array(gaps))
    for k, traj in enumerate(trajs):
        assert [t for t, _ in traj.snapshots] == [t for t, _ in snapshots]
        assert all(_same_bits(f.values, v[k]) for (_, f), (_, v) in zip(traj.snapshots, snapshots))
        assert traj.dt_stats == {"n_steps": len(dts), "dt_min": min(dts), "dt_max": max(dts)}


# --- the solution blow-up guard ----------------------------------------------


def _constant_flow(value, name):
    # u_t = value * u_xx, with the coefficient written into ``out`` when given

    def a_of_sq(s, out=None):
        out = np.empty_like(s) if out is None else out
        out.fill(value)
        return out

    return flows.scalar_flow(a_of_sq, A0=1.0, P=1.0, Lambda_of_K=lambda K: 1.0, name=name)


def _antidiffusion():
    # u_t = -u_xx: every mode grows, the highest twofold per step at cfl 1/2
    return _constant_flow(-1.0, "antidiffusion")


def _counted(flow, calls):
    return dataclasses.replace(
        flow, coeff=lambda Du, out=None: calls.append(1) or flow.coeff(Du, out))


def test_blowup_guard_catches_nan_at_first_step():
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    calls = []
    nan_flow = _counted(_constant_flow(np.nan, "nan"), calls)
    with pytest.raises(BlowUpError, match="solution blow-up"):
        evolve(nan_flow, Field(g, np.sin(g.nodes())), BoundaryCondition("periodic"),
               TimeStepPlan(t_end=0.1))
    assert len(calls) == 1


def test_blowup_guard_uses_each_members_own_limit():
    # the constant 1e7 member is far above the sin member's limit (1e6) but
    # within its own (1e13): no member has blown up
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    x = g.nodes()
    lo, hi, gaps = evolve_pair_ordered(flows.heat_1d(0.25), Field(g, np.sin(x)),
                                       Field(g, np.full_like(x, 1e7)),
                                       BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1))
    assert np.array_equal(hi.fields[-1].values, np.full_like(x, 1e7))
    assert np.max(np.abs(lo.fields[-1].values)) < 1.0


@pytest.mark.parametrize("with_big_member", [False, True])
def test_blowup_guard_fires_when_a_member_passes_its_limit(with_big_member):
    # 1e-3 (-1)^k doubles every step under anti-diffusion (its centred
    # gradient is 0), so it passes its limit 1e6 at step 30; a constant 1e7
    # member beside it, with limit 1e13, must not hide that
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    noise = Field(g, 1e-3 * (-1.0) ** np.arange(32))
    calls = []
    flow = _counted(_antidiffusion(), calls)
    plan = TimeStepPlan(t_end=1.0, max_grad_clip=1e300)
    with pytest.raises(BlowUpError, match="solution blow-up"):
        if with_big_member:
            evolve_pair_ordered(flow, noise, Field(g, np.full(32, 1e7)),
                                BoundaryCondition("periodic"), plan)
        else:
            evolve(flow, noise, BoundaryCondition("periodic"), plan)
    assert len(calls) == 30


# --- the guard skip on monotone 1-D steps --------------------------------------


@given(st.sampled_from(["heat", "csf", "plaplace-reg"]),
       st.sampled_from(["periodic", "neumann_zero"]),
       st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=40),
       st.floats(1e-3, 1e3))
@settings(max_examples=150, deadline=None)
def test_monotone_steps_keep_the_maximum(flow_id, bc_kind, values, scale):
    # the steps the guard skips are convex combinations: max|u| grows by
    # rounding only, far below the guard's limit
    n_cells = len(values) - (bc_kind != "periodic")
    grid = Grid1D(0.0, 2 * np.pi, n_cells, "periodic" if bc_kind == "periodic" else "bounded")
    u0 = scale * np.array(values)
    stepper = _Stepper(flows.get_flow(flow_id), grid, u0[None], BoundaryCondition(bc_kind),
                       TimeStepPlan(t_end=1.0, max_grad_clip=1e300))
    bound = np.max(np.abs(u0)) * (1 + 1e-12)
    t = 0.0
    for _ in range(60):
        t, _ = stepper.step(t, math.inf)
        assert np.max(np.abs(stepper.u)) <= bound
    assert not stepper.guarded


@pytest.mark.parametrize("k", [1, 7])
def test_nan_coefficient_raises_at_its_step(k):
    # the k-th call of a csf coefficient gives NaN: that step is not
    # monotone, so the guard runs and raises at step k
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    calls = []
    csf = flows.csf()

    def coeff(Du, out=None):
        calls.append(1)
        A = csf.coeff(Du, out)
        if len(calls) == k:
            A.fill(np.nan)
        return A

    with pytest.raises(BlowUpError, match="solution blow-up"):
        evolve(dataclasses.replace(csf, coeff=coeff), Field(g, np.sin(g.nodes())),
               BoundaryCondition("periodic"), TimeStepPlan(t_end=1.0))
    assert len(calls) == k


@pytest.mark.parametrize("flow_id", ["csf", "mcf2d"])
def test_nan_coefficient_reports_the_time_of_its_step(flow_id):
    # a NaN at the 3rd coefficient call raises at step 3, with the t that step
    # starts from, not after a step of t_end clipped to the next output time
    flow = flows.get_flow(flow_id)
    ax = Grid1D(0.0, 2 * np.pi, {1: 32, 2: 16}[flow.n], "periodic")
    grid = ax if flow.n == 1 else GridND((ax,) * flow.n)
    mesh = np.stack(np.meshgrid(*[ax.nodes()] * flow.n, indexing="ij"), axis=-1)
    u0 = 0.3 * np.sin(mesh @ np.arange(1.0, flow.n + 1.0))
    bc, plan = BoundaryCondition("periodic"), TimeStepPlan(t_end=1.0)
    stepper = _Stepper(flow, grid, u0[None], bc, plan)
    t = 0.0
    for _ in range(2):
        t, _ = stepper.step(t, math.inf)
    calls = []

    def coeff(Du, out=None):
        calls.append(1)
        A = flow.coeff(Du, out)
        if len(calls) == 3:
            A.fill(np.nan)
        return A

    with pytest.raises(BlowUpError, match=re.escape(f"solution blow-up at t = {t:.3g}:")):
        evolve(dataclasses.replace(flow, coeff=coeff), Field(grid, u0), bc, plan, [0.5, 1.0])
    assert len(calls) == 3 and f"{t:.3g}" != "0.5"


def test_dirichlet_face_above_the_limit_raises_at_step_1():
    # the limit is 1e6 max(1, max|u0|) = 1e6; the right face holds 1e7
    g = Grid1D(0.0, 1.0, 32, "bounded")
    calls = []
    bc = BoundaryCondition("dirichlet", value=lambda x, t: 1e7 if x > 0.5 else 0.0)
    with pytest.raises(BlowUpError, match="solution blow-up at t = "):
        evolve(_counted(flows.heat_1d(0.25), calls), Field(g, np.zeros(33)), bc,
               TimeStepPlan(t_end=1.0, max_grad_clip=1e300))
    assert len(calls) == 1


@pytest.mark.parametrize("a, guarded", [(1e155, False), (1e157, True)])
def test_coefficient_that_could_overflow_keeps_the_guard(a, guarded):
    # 1e150 (-1)^i has second differences 4e150 and no centred gradient; with
    # h^2 = 0.0386, times a = 1e157 that is inf, and the guard must see it.
    # The cap max_float / (8 max|u0| / h^2) = 8.7e155 lies between the two a
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    u0 = 1e150 * (-1.0) ** np.arange(32)
    stepper = _Stepper(_constant_flow(a, "large"), g, u0[None], BoundaryCondition("periodic"),
                       TimeStepPlan(t_end=1e-150))
    with np.errstate(over="ignore"):
        if guarded:
            with pytest.raises(BlowUpError, match="solution blow-up"):
                stepper.step(0.0, math.inf)
        else:
            stepper.step(0.0, math.inf)
    assert stepper.guarded is guarded
    if not guarded:
        assert np.max(np.abs(stepper.u)) <= 1e150


def test_guard_stays_on_after_the_first_non_monotone_step():
    # a coefficient that is negative on its 2nd call only turns the guard on
    # for good; u0 = inf max|u0| leaves no cap at all
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    calls = []
    csf = flows.csf()

    def coeff(Du, out=None):
        calls.append(1)
        A = csf.coeff(Du, out)
        if len(calls) == 2:
            np.negative(A, out=A)
        return A

    stepper = _Stepper(dataclasses.replace(csf, coeff=coeff), g, np.sin(g.nodes())[None],
                       BoundaryCondition("periodic"), TimeStepPlan(t_end=1.0))
    seen = []
    t = 0.0
    for _ in range(4):
        t, _ = stepper.step(t, math.inf)
        seen.append(stepper.guarded)
    assert seen == [False, True, True, True]
    assert _Stepper(csf, g, np.full((1, 32), np.inf), BoundaryCondition("periodic"),
                    TimeStepPlan(t_end=1.0)).a_cap == 0.0


# --- the squared-form coefficient ---------------------------------------------


@pytest.mark.parametrize("bc_kind", ["periodic", "neumann_zero", "dirichlet"])
def test_a_replaced_coefficient_is_the_one_that_runs(bc_kind):
    # dataclasses.replace(csf, coeff=...) keeps csf's name and profile, but
    # the 1-D step must call the new coeff once per step and follow it: twice
    # the csf coefficient runs as the same flow written in the squared form
    csf = flows.csf()
    calls = []

    def doubled(Du, out=None):
        calls.append(1)
        A = csf.coeff(Du, out)
        return np.multiply(A, 2.0, A)

    def doubled_of_sq(s, out=None):
        a = csf.coeff.a_of_sq(s, out)
        return np.multiply(a, 2.0, a)

    g = Grid1D(0.0, 2 * np.pi, 32, "periodic" if bc_kind == "periodic" else "bounded")
    bc = BoundaryCondition(bc_kind, value=(lambda x, t: 0.1 * x + t)
                           if bc_kind == "dirichlet" else None)
    plan, times = TimeStepPlan(t_end=0.1), [0.05, 0.1]
    f = Field(g, np.sin(3 * g.nodes()))
    replaced = evolve(dataclasses.replace(csf, coeff=doubled), f, bc, plan, times)
    assert len(calls) == replaced.dt_stats["n_steps"]
    squared = flows.scalar_flow(doubled_of_sq, A0=1.0, P=1.0, Lambda_of_K=lambda K: 2.0,
                                name="doubled")
    assert _result_bits([replaced]) == _run(squared, [f], bc, plan, times)
    assert _result_bits([replaced]) != _run(csf, [f], bc, plan, times)


def test_one_1d_csf_step_makes_14_array_calls(monkeypatch):
    # the ufuncs the stepper binds, and their reductions, counted from the
    # build on; one periodic csf step takes 14 calls
    calls = []

    def counting(f):
        def counted(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return counted

    class Counted:
        # a ufunc whose calls, reduce and reduceat are counted
        def __init__(self, ufunc):
            self.ufunc = ufunc
            self.reduce, self.reduceat = counting(ufunc.reduce), counting(ufunc.reduceat)

        def __call__(self, *args, **kwargs):
            return counting(self.ufunc)(*args, **kwargs)

    for name in ("add", "subtract", "multiply", "divide", "negative", "abs", "maximum", "minimum"):
        monkeypatch.setattr(np, name, Counted(getattr(np, name)))
    g = Grid1D(0.0, 2 * np.pi, 96, "periodic")
    stepper = _Stepper(flows.csf(), g, np.sin(g.nodes())[None], BoundaryCondition("periodic"),
                       TimeStepPlan(t_end=1.0))
    calls.clear()
    stepper.step(0.0, math.inf)
    assert len(calls) == 14, calls


# --- the fused |Du|^2 and stability reduction ---------------------------------


@given(st.lists(st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                          st.just(math.inf), st.just(math.nan)), min_size=1, max_size=40),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_max_commutes_with_division_by_positive_h2(xs, h2):
    # the n = 1 step reads max|a| / h^2 for max(|a| / h^2): correctly rounded
    # division by h^2 > 0 is monotone, so the two agree bit for bit
    x = np.array(xs)
    with np.errstate(over="ignore"):
        lhs = float(np.maximum.reduce(x / h2, axis=None))
    rhs = float(np.maximum.reduce(x, axis=None)) / h2
    assert lhs == rhs or (math.isnan(lhs) and math.isnan(rhs))


@given(st.lists(st.one_of(st.floats(allow_infinity=True), st.just(-0.0), st.just(math.nan)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_max_abs_from_max_and_max_of_negation(xs):
    # the n = 1 step reads max|a| as the larger of max a and max(-a), which is
    # max|a| itself (0.0 up to sign when every a is 0, NaN when any is)
    a = np.array(xs)
    a_max, neg_max = np.maximum.reduce(np.stack([a, -a]), axis=1).tolist()
    picked = a_max if a_max > neg_max else neg_max
    expected = float(np.maximum.reduce(np.abs(a), axis=None))
    assert picked == expected or (math.isnan(picked) and math.isnan(expected))


def test_gradient_clip_fires_at_a_known_step():
    # a boundary value rising as 400 t steepens the csf solution by about 3
    # per step, so |Du| passes 50 at the 18th coefficient call (t = 0.00415);
    # the step raises with the message of the unfused check, before dt is used
    g = Grid1D(0.0, 1.0, 32, "bounded")
    calls = []
    flow = _counted(flows.csf(), calls)
    bc = BoundaryCondition("dirichlet", value=lambda x, t: 400.0 * t if x > 0.5 else 0.0)
    with pytest.raises(BlowUpError) as info:
        evolve(flow, Field(g, np.zeros(33)), bc, TimeStepPlan(t_end=1.0, max_grad_clip=50.0))
    assert str(info.value) == "|Du| = 52.2 exceeds max_grad_clip at t = 0.00415"
    assert len(calls) == 18


# --- evolves share no state ----------------------------------------------------


def _result_bits(trajs, gaps=None):
    """Every output of a run as bytes: snapshot times and values, dt_stats
    and the gap series."""
    out = [(t, f.time, f.values.tobytes(), repr(traj.dt_stats))
           for traj in trajs for t, f in traj.snapshots]
    return out + ([np.asarray(gaps).tobytes()] if gaps is not None else [])


def _run(flow, fields, bc, plan, times):
    if len(fields) == 1:
        return _result_bits([evolve(flow, fields[0], bc, plan, times)])
    lo, hi, gaps = evolve_pair_ordered(flow, *fields, bc, plan, times)
    return _result_bits([lo, hi], gaps)


def test_interleaved_evolves_equal_fresh_runs():
    # csf, heat and mcf2d; periodic, neumann_zero and Dirichlet; batches of 1
    # and 2, two initial data per flow, bc and batch size, run again twice
    # in a shuffled order
    rng = np.random.default_rng(11)
    cases = []
    for flow in (flows.csf(), flows.heat_1d(0.25), flows.mcf_graph(2)):
        n = flow.n
        for bc_kind in ("periodic", "neumann_zero", "dirichlet"):
            ax = Grid1D(0.0, 2 * np.pi, {1: 24, 2: 8}[n],
                        "periodic" if bc_kind == "periodic" else "bounded")
            grid = ax if n == 1 else GridND((ax,) * n)
            mesh = np.stack(np.meshgrid(*[ax.nodes()] * n, indexing="ij"), axis=-1)
            bc = BoundaryCondition(bc_kind, value=(lambda p, t: 0.1 * float(np.sum(p)) + t)
                                   if bc_kind == "dirichlet" else None)
            plan = TimeStepPlan(t_end=0.05)
            for batch in (1, 2):
                for _ in range(2):
                    lo = np.sin(mesh @ rng.uniform(-2, 2, n)) + 0.1 * rng.standard_normal(
                        mesh.shape[:-1])
                    fields = [Field(grid, lo + k * (0.1 + rng.random(lo.shape)))
                              for k in range(batch)]
                    cases.append((flow, fields, bc, plan, [0.01, 0.05]))
    # two plans that compare equal: with a = 0 the step is t_end, so a run
    # returns the int or the float its own plan holds
    g = Grid1D(0.0, 1.0, 8, "bounded")
    zero, bc = _constant_flow(0.0, "zero"), BoundaryCondition("neumann_zero")
    cases += [(zero, [Field(g, np.zeros(9))], bc, TimeStepPlan(t_end=t_end), None)
              for t_end in (1, 1.0)]
    fresh = [_run(*case) for case in cases]
    assert fresh[-2] != fresh[-1]
    order = list(rng.permutation(len(cases))) * 2
    for i in order:
        assert _run(*cases[i]) == fresh[i]


def test_dirichlet_reuse_keeps_the_sign_of_a_zero_endpoint():
    # Grid1D(-1.0, -0.0) equals Grid1D(-1.0, 0.0) but its last node is -0.0,
    # which this boundary value tells apart
    flow, plan = flows.heat_1d(0.25), TimeStepPlan(t_end=0.05)
    bc = BoundaryCondition("dirichlet", value=lambda x, t: math.copysign(1.0, x) * (1.0 + t))
    cases = [(flow, [Field(Grid1D(-1.0, x_hi, 16, "bounded"), np.zeros(17))], bc, plan, [0.05])
             for x_hi in (0.0, -0.0)]
    assert cases[0][1][0].grid == cases[1][1][0].grid
    fresh = [_run(*case) for case in cases]
    assert fresh[0] != fresh[1]
    for k in (0, 1, 0, 1):
        assert _run(*cases[k]) == fresh[k]


def test_unhashable_coefficient_gets_a_stepper_of_its_own():
    # a callable instance of a plain dataclass cannot be hashed; a flow
    # holding one evolves as the catalog csf does
    @dataclasses.dataclass
    class Csf:
        def __call__(self, Du, out=None):
            return flows.csf().coeff(Du, out)

    flow = dataclasses.replace(flows.csf(), coeff=Csf())
    with pytest.raises(TypeError):
        hash(flow)
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    bc, plan = BoundaryCondition("periodic"), TimeStepPlan(t_end=0.05)
    f = Field(g, np.sin(g.nodes()))
    expected = _run(flows.csf(), [f], bc, plan, [0.05])
    for _ in range(2):
        assert _run(flow, [f], bc, plan, [0.05]) == expected


def test_idle_stepper_keeps_no_gap_list():
    # once the evolve returns, nothing holds the caller's gap list
    class Gaps(list):
        pass

    g = Grid1D(0.0, 2 * np.pi, 16, "periodic")
    fields = [Field(g, np.zeros(16)), Field(g, np.ones(16))]
    gaps = Gaps()
    solver._evolve_batch(flows.csf(), fields, BoundaryCondition("periodic"),
                         TimeStepPlan(t_end=0.01), None, gaps)
    assert len(gaps) > 1
    ref = weakref.ref(gaps)
    del gaps
    assert ref() is None


def test_run_after_a_blow_up_equals_a_fresh_run():
    # a NaN coefficient raises mid-run with the guard on; the next run of
    # the same flow on the same grid starts from its own data, limits and
    # guard
    g = Grid1D(0.0, 1.0, 32, "bounded")
    csf = flows.csf()
    nan_at = [5]
    calls = []

    def coeff(Du, out=None):
        calls.append(1)
        A = csf.coeff(Du, out)
        if len(calls) == nan_at[0]:
            A.fill(np.nan)
        return A

    flow = dataclasses.replace(csf, coeff=coeff)
    x = g.nodes()
    for bc in (BoundaryCondition("neumann_zero"),
               BoundaryCondition("dirichlet", value=lambda x, t: np.sin(3 * x) + t)):
        plan = TimeStepPlan(t_end=0.1)
        f = Field(g, np.sin(3 * x))
        nan_at[0] = None
        expected = _run(flow, [f], bc, plan, [0.05, 0.1])
        calls.clear()
        nan_at[0] = 5
        with pytest.raises(BlowUpError, match="solution blow-up"):
            evolve(flow, Field(g, 3.0 * np.cos(x)), bc, plan, [0.05, 0.1])
        nan_at[0] = None
        assert _run(flow, [f], bc, plan, [0.05, 0.1]) == expected
    # a member limit comes from the new data: 1e13 for the constant 1e7, but
    # 1e6 for the noise, which anti-diffusion passes at its 30th step
    counted = []
    anti = _counted(_antidiffusion(), counted)
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    plan, bc = TimeStepPlan(t_end=1.0, max_grad_clip=1e300), BoundaryCondition("periodic")
    evolve(anti, Field(g, np.full(32, 1e7)), bc, plan)
    counted.clear()
    with pytest.raises(BlowUpError, match="solution blow-up"):
        evolve(anti, Field(g, 1e-3 * (-1.0) ** np.arange(32)), bc, plan)
    assert len(counted) == 30


def test_coefficient_that_evolves_the_same_key():
    # an evolve started from inside the coefficient of another evolve of
    # the same flow on the same grid; both equal runs made one at a time
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    x = g.nodes()
    bc, plan, times = BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.1]
    csf = flows.csf()
    outer_u0, inner_u0 = Field(g, np.sin(x)), Field(g, 0.5 * np.cos(2 * x))
    inner = []

    def coeff(Du, out=None):
        if reenter[0]:
            reenter[0] = False
            inner.append(_run(flow, [inner_u0], bc, plan, times))
        return csf.coeff(Du, out)

    reenter = [False]
    flow = dataclasses.replace(csf, coeff=coeff)
    expected_outer = _run(flow, [outer_u0], bc, plan, times)
    expected_inner = _run(flow, [inner_u0], bc, plan, times)
    reenter[0] = True
    assert _run(flow, [outer_u0], bc, plan, times) == expected_outer
    assert inner == [expected_inner]


def test_changing_a_returned_snapshot_does_not_change_a_rerun():
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    x = g.nodes()
    bc, plan, times = BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.1]
    lo, hi = Field(g, np.sin(x)), Field(g, np.sin(x) + 0.5)
    traj_lo, traj_hi, gaps = evolve_pair_ordered(flows.csf(), lo, hi, bc, plan, times)
    expected = _result_bits([traj_lo, traj_hi], gaps)
    for traj in (traj_lo, traj_hi):
        for _, f in traj.snapshots[1:]:
            f.values[:] = 7.0
    gaps[:] = 7.0
    traj_lo, traj_hi, gaps = evolve_pair_ordered(flows.csf(), lo, hi, bc, plan, times)
    assert _result_bits([traj_lo, traj_hi], gaps) == expected


def test_concurrent_evolves_on_one_key_equal_fresh_runs():
    # threads that evolve one flow on one grid at the same time never share
    # a stepper; a shared one would mix their data
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    x = g.nodes()
    flow, bc, plan = flows.csf(), BoundaryCondition("periodic"), TimeStepPlan(t_end=0.02)
    data = [Field(g, np.sin((k + 1) * x) / (k + 1)) for k in range(4)]
    expected = [_run(flow, [f], bc, plan, [0.01, 0.02]) for f in data]
    results = {k: [] for k in range(len(data))}

    def worker(k):
        for _ in range(25):
            results[k].append(_run(flow, [data[k]], bc, plan, [0.01, 0.02]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(data))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k, runs in results.items():
        assert len(runs) == 25 and all(r == expected[k] for r in runs)


def test_threads_interleaving_singles_and_pairs_on_one_grid_equal_fresh_runs():
    # four threads alternate a single evolve and an ordered pair of one flow
    # on one grid object, switching often; every run, gap series included,
    # equals the same run made alone
    g = Grid1D(0.0, np.pi, 24, "bounded")
    x = g.nodes()
    flow, bc, plan = flows.csf(), BoundaryCondition("neumann_zero"), TimeStepPlan(t_end=0.02)
    times = [0.01, 0.02]
    cases = [[(flow, [Field(g, np.cos((k + 1) * x))], bc, plan, times),
              (flow, [Field(g, np.cos((k + 1) * x)), Field(g, np.cos((k + 1) * x) + 0.3)],
               bc, plan, times)]
             for k in range(4)]
    expected = [[_run(*case) for case in pair] for pair in cases]
    results = {k: [] for k in range(len(cases))}

    def worker(k):
        for r in range(20):
            results[k].append(_run(*cases[k][r % 2]) == expected[k][r % 2])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(cases))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(runs == [True] * 20 for runs in results.values())
