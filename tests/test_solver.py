import dataclasses

import numpy as np
import pytest

from flowlab import flows
from flowlab.fields import Field, Grid1D, GridND
from flowlab.solver import (
    BlowUpError,
    BoundaryCondition,
    SolverError,
    TimeStepPlan,
    Trajectory,
    evolve,
    evolve_pair_ordered,
    solve_auxiliary_phi,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        TimeStepPlan(t_end=-1.0)
    with pytest.raises(ValueError):
        TimeStepPlan(t_end=1.0, cfl_safety=1.5)
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
    counted = dataclasses.replace(heat, coeff=lambda Du: calls.append(1) or heat.coeff(Du))
    with pytest.raises(ValueError, match="repeat"):
        evolve(counted, f0, BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.05])
    assert calls == []


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


def test_auxiliary_phi_monotone():
    profile = flows.mcf_graph(2).degeneracy
    g = Grid1D(0.0, 4.0, 128, "bounded")
    traj, slopes = solve_auxiliary_phi(profile, g, TimeStepPlan(t_end=0.2),
                                       [0.05, 0.1, 0.2])
    for _, f in traj.snapshots:
        assert np.all(np.diff(f.values) >= -1e-10)
        assert f.values[0] == 0.0
        assert f.values[-1] == pytest.approx(1.0)
    # the ramp relaxes: the slope at 0 decreases in time
    assert all(s2 <= s1 + 1e-9 for s1, s2 in zip(slopes[1:], slopes[2:]))


def test_export(tmp_path):
    g = Grid1D(0.0, 2 * np.pi, 32, "periodic")
    traj = evolve(flows.heat_1d(0.25), Field(g, np.sin(g.nodes())),
                  BoundaryCondition("periodic"), TimeStepPlan(t_end=0.1), [0.05, 0.1])
    manifest = traj.export(tmp_path, flow_id="heat", bc="periodic")
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "fields" / "t=0.05.csv").exists()
    assert manifest["output_times"] == [0.0, 0.05, 0.1]
    assert manifest["grid"][0]["n_cells"] == 32
