import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from flowlab import barriers, flows, verify
from flowlab.fields import Field, Grid1D, GridND
from flowlab.solver import BoundaryCondition, TimeStepPlan, Trajectory, evolve
from flowlab.verify import (
    ModulusOfContinuity,
    PreconditionError,
    check_comparison,
    convergence_to_initial_data,
    count_intersections,
    displacement_check,
    fit_exponent,
    heat_zero_counting_gradient,
    holder_modulus,
    intersection_monotonicity,
    lipschitz_modulus,
)


# --- moduli and fits ----------------------------------------------------------


def test_moduli_probe():
    r = np.linspace(0, 2, 50)
    lipschitz_modulus(2.0).probe(r)
    holder_modulus(0.5).probe(r)
    convex = ModulusOfContinuity(lambda x: x ** 2, lambda x: 2 * x)
    with pytest.raises(ValueError):
        convex.probe(r)
    with pytest.raises(ValueError):
        holder_modulus(1.5)


@given(st.floats(0.05, 2.0), st.floats(0.1, 10))
@settings(max_examples=30, deadline=None)
def test_fit_exponent_recovers_power_law(expo, coeff):
    t = np.geomspace(1e-3, 1e-1, 20)
    assert fit_exponent(t, coeff * t ** expo) == pytest.approx(expo, abs=1e-9)


def test_fit_exponent_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_exponent([0.0, 1.0], [1.0, 2.0])


# --- snapshot scan ---------------------------------------------------------------


def test_scan_keeps_positive_times_in_closed_window():
    g = Grid1D(0.0, 1.0, 8, "bounded")
    traj = Trajectory()
    for t in (0.0, 0.1, 0.2, 0.3):
        traj.append(t, Field(g, np.zeros(9)))
    assert [t for t, _ in verify._scan(traj)] == [0.1, 0.2, 0.3]
    assert [t for t, _ in verify._scan(traj, (0.0, 0.2))] == [0.1, 0.2]
    assert [t for t, _ in verify._scan(traj, (0.2, 0.3))] == [0.2, 0.3]
    assert verify._scan(traj, (0.25, 0.26)) == []


def test_worst_first_maximiser_wins():
    samples = [(-np.inf, "untested"), (1.0, "a"), (2.0, "b"), (-np.inf, None), (2.0, "c")]
    assert verify._worst(samples, "empty") == (2.0, "b")
    assert verify._worst([(-3.0, "a"), (-3.0, "b")], "empty") == (-3.0, "a")
    with pytest.raises(PreconditionError, match="nothing here"):
        verify._worst([(-np.inf, None), (-np.inf, None)], "nothing here")
    with pytest.raises(PreconditionError, match="nothing here"):
        verify._worst([], "nothing here")


def _initial_only():
    g = Grid1D(-1.0, 1.0, 16, "bounded")
    traj = Trajectory()
    traj.append(0.0, Field(g, np.abs(g.nodes())))
    return traj


@pytest.mark.parametrize("check", [
    lambda traj: heat_zero_counting_gradient(traj, M=2.0, c=0.25),
    lambda traj: convergence_to_initial_data(traj, lipschitz_modulus(1.0)),
    lambda traj: displacement_check(traj, "lipschitz", L=1.0,
                                    Lambda_of_K=flows.heat_1d(0.25).Lambda_of_K),
    lambda traj: displacement_check(traj, "step", half_height=1.0,
                                    Lambda_of_K=flows.heat_1d(0.25).Lambda_of_K),
    lambda traj: displacement_check(traj, "modulus", omega=lipschitz_modulus(1.0),
                                    Lambda_of_K=flows.heat_1d(0.25).Lambda_of_K),
    lambda traj: verify.gradient_bound_check(traj, lambda t: 1.0),
    lambda traj: displacement_check(traj, "holder", alpha=0.5),
], ids=["heat_zero_counting", "convergence", "lipschitz", "step", "modulus",
        "gradient_bound", "holder"])
def test_check_without_positive_time_is_precondition_error(check):
    # the only snapshot is the initial data at t = 0, so there is nothing to test
    with pytest.raises(PreconditionError, match="snapshot.* with t > 0"):
        check(_initial_only())


def test_holder_fit_needs_two_snapshots():
    traj = _initial_only()
    traj.append(0.1, traj.fields[0].with_values(traj.fields[0].values + 0.1, 0.1))
    with pytest.raises(PreconditionError, match="two snapshots"):
        displacement_check(traj, "holder", alpha=0.5)
    traj.append(0.2, traj.fields[0].with_values(traj.fields[0].values + 0.2, 0.2))
    assert displacement_check(traj, "holder", alpha=0.5).witness["fitted_exponent"] > 0


# --- comparison ----------------------------------------------------------------


def test_check_comparison_sign_convention():
    assert check_comparison([0.5, 0.2, 0.1]).passed
    rep = check_comparison([0.5, -1e-6, 0.1])
    assert not rep.passed
    assert rep.witness["step"] == 1


# --- intersection counting ------------------------------------------------------


def _dense_scan_count(xs, w):
    """Oracle: strict sign changes of w scanned left to right, ties skipped."""
    signs = [int(np.sign(v)) for v in w if abs(v) > 1e-9]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_count_intersections_against_dense_oracle():
    rng = np.random.default_rng(0)
    g = Grid1D(0.0, 1.0, 200, "bounded")
    x = g.nodes()
    for _ in range(20):
        coeffs = rng.normal(size=4)
        w = sum(c * np.sin((k + 1) * np.pi * x + 0.3) for k, c in enumerate(coeffs))
        if abs(w[0]) < 1e-6 or abs(w[-1]) < 1e-6:
            continue
        u = Field(g, w)
        phi = Field(g, np.zeros_like(w))
        assert count_intersections(u, phi) == _dense_scan_count(x, w)


def test_count_intersections_periodic_wrap():
    g = Grid1D(0.0, 2 * np.pi, 128, "periodic")
    x = g.nodes()
    u = Field(g, np.sin(3 * x))
    phi = Field(g, np.zeros_like(x))
    assert count_intersections(u, phi) == 6


def test_count_intersections_tie_rule():
    g = Grid1D(0.0, 1.0, 8, "bounded")
    # plateau at zero between two positive runs: ties inherit previous sign
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    u = Field(g, w)
    phi = Field(g, np.zeros(9))
    assert count_intersections(u, phi) == 0
    w2 = np.array([1.0, 1.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0])
    assert count_intersections(Field(g, w2), phi) == 1


def test_count_intersections_boundary_precondition():
    g = Grid1D(0.0, 1.0, 8, "bounded")
    w = np.zeros(9)
    w[4] = 1.0
    with pytest.raises(PreconditionError):
        count_intersections(Field(g, w), Field(g, np.zeros(9)))


def test_intersection_monotonicity_under_heat():
    g = Grid1D(0.0, 2 * np.pi, 128, "periodic")
    x = g.nodes()
    flow = flows.heat_1d(0.25)
    bc = BoundaryCondition("periodic")
    times = [0.02, 0.05, 0.1, 0.2]
    plan = TimeStepPlan(t_end=times[-1])
    # high mode decays faster: counts drop from 10 to 2
    traj_u = evolve(flow, Field(g, np.sin(5 * x) + 0.3 * np.sin(x)), bc, plan, times)
    traj_p = evolve(flow, Field(g, np.zeros_like(x)), bc, plan, times)
    rep = intersection_monotonicity(traj_u, traj_p)
    assert rep.passed
    counts = rep.witness["counts"]
    assert counts[0] == 10 and counts[-1] == 2


def _count_reference(u, phi, eps_tie):
    """count_intersections as a scan of one snapshot: the strict signs, the
    boundary precondition, then the changes between successive strict signs."""
    if u.values.shape != phi.values.shape:
        raise PreconditionError("fields live on different grids")
    if not isinstance(u.grid, Grid1D):
        raise PreconditionError("intersection counting is one-dimensional")
    w = u.values - phi.values
    s = np.where(w > eps_tie, 1, np.where(w < -eps_tie, -1, 0))
    if u.grid.topology == "bounded" and (s[0] == 0 or s[-1] == 0):
        raise PreconditionError(
            "intersection on the boundary: |u - phi| <= eps_tie at an endpoint")
    strict = s[s != 0]
    if strict.size == 0:
        return 0
    changes = int(np.sum(strict[1:] != strict[:-1]))
    if u.grid.topology == "periodic":
        changes += int(strict[-1] != strict[0])
    return changes


_TIE_VALUES = [-1.0, -0.5, -1e-10, 0.0, 1e-10, 0.5, 1.0]


@st.composite
def _snapshot_pairs(draw):
    # each snapshot on its own 1-D grid, with values where ties and ties at
    # the endpoints of bounded grids are common; optionally one snapshot
    # whose phi is on another grid
    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        topology = draw(st.sampled_from(["periodic", "bounded"]))
        g = Grid1D(0.0, 1.0, draw(st.integers(4, 10)), topology)
        n = g.n_nodes
        u, phi = (np.array(draw(st.lists(st.sampled_from(_TIE_VALUES), min_size=n, max_size=n)))
                  for _ in range(2))
        pairs.append((Field(g, u), Field(g, phi)))
    bad = draw(st.sampled_from([None, None, None, "shape", "2-D"]))
    if bad:
        k = draw(st.integers(0, len(pairs) - 1))
        u, _ = pairs[k]
        other = (Field(Grid1D(0.0, 1.0, 11, "bounded"), np.ones(12)) if bad == "shape"
                 else Field(GridND((u.grid, u.grid)), np.ones(u.grid.shape * 2)))
        pairs[k] = (u, other) if bad == "shape" else (other, other)
    return pairs


@given(_snapshot_pairs())
@settings(max_examples=400, deadline=None)
def test_intersection_counts_in_one_pass_match_the_per_snapshot_scan(pairs):
    # counts, witness and PreconditionError of the one-array pass equal those
    # of the scan snapshot by snapshot, and of count_intersections
    traj_u, traj_p = Trajectory(), Trajectory()
    for k, (u, phi) in enumerate(pairs):
        traj_u.append(0.1 * k, u)
        traj_p.append(0.1 * k, phi)
    try:
        expected = [_count_reference(u, phi, 1e-9) for u, phi in pairs]
    except PreconditionError as e:
        with pytest.raises(PreconditionError) as raised:
            intersection_monotonicity(traj_u, traj_p)
        assert str(raised.value) == str(e)
        return
    assert [count_intersections(u, phi) for u, phi in pairs] == expected
    rep = intersection_monotonicity(traj_u, traj_p)
    rises = np.diff(expected)
    i = int(np.argmax(rises)) if rises.size else 0
    assert rep.witness == {"counts": expected, "t_before": 0.1 * i,
                           "t_after": 0.1 * (i + 1) if rises.size else None}
    assert rep.max_defect == (max(int(np.max(rises)), 0) if rises.size else 0)


# --- displacement ---------------------------------------------------------------


def test_displacement_lipschitz_cone_is_exact():
    # the erf cone solves the heat flow, so evolved cone data stays below it
    g = Grid1D(-2.0, 2.0, 256, "bounded")
    x = g.nodes()
    L, lam = 1.0, 1.0
    flow = flows.heat_1d(1.0 / (4.0 * lam))
    cone = barriers.ConeBarrier(L=L, h=0.0, Lambda=lam)
    u0 = Field(g, L * np.abs(x))
    bc = BoundaryCondition("dirichlet",
                           value=lambda xx, tt: barriers.cone_barrier_eval(
                               cone, xx, max(tt, 1e-12)))
    times = np.geomspace(1e-3, 1e-2, 8)
    traj = evolve(flow, u0, bc, TimeStepPlan(t_end=times[-1]), times)
    rep = displacement_check(traj, "lipschitz", L=L, h=0.0,
                             Lambda_of_K=flow.Lambda_of_K, grid_tol=1e-4)
    assert rep.passed


def test_displacement_step_envelope():
    g = Grid1D(-2.0, 2.0, 256, "bounded")
    x = g.nodes()
    flow = flows.heat_1d(0.25)
    u0 = Field(g, np.sign(x))
    bc = BoundaryCondition("dirichlet", value=lambda xx, tt: np.sign(xx))
    times = np.geomspace(1e-3, 1e-2, 6)
    traj = evolve(flow, u0, bc, TimeStepPlan(t_end=times[-1]), times)
    rep = displacement_check(traj, "step", half_height=1.0, jump=0.0,
                             Lambda_of_K=flow.Lambda_of_K, grid_tol=1e-3)
    assert rep.passed


def test_displacement_modulus_kind():
    g = Grid1D(-2.0, 2.0, 256, "bounded")
    x = g.nodes()
    flow = flows.heat_1d(0.25)
    u0 = Field(g, np.abs(x))
    bc = BoundaryCondition("dirichlet", value=lambda xx, tt: 2.0)
    times = np.geomspace(1e-3, 1e-2, 6)
    traj = evolve(flow, u0, bc, TimeStepPlan(t_end=times[-1]), times)
    rep = displacement_check(traj, "modulus", omega=lipschitz_modulus(1.0), h=0.0,
                             Lambda_of_K=flow.Lambda_of_K, grid_tol=1e-4)
    assert rep.passed


def test_displacement_unknown_kind():
    g = Grid1D(-1.0, 1.0, 8, "bounded")
    traj = Trajectory()
    traj.append(0.0, Field(g, np.zeros(9)))
    with pytest.raises(ValueError):
        displacement_check(traj, "parabolic")


# --- zero-counting gradient bound ------------------------------------------------


def _erf_trajectory(c=0.25, M=1.0, n=512, times=None):
    g = Grid1D(-1.0, 1.0, n, "bounded")
    x = g.nodes()
    traj = Trajectory()
    traj.append(0.0, Field(g, M * np.sign(x)))
    for t in times:
        traj.append(t, Field(g, M * erf(np.sqrt(c) * x / (2.0 * np.sqrt(t))), time=t))
    return g, traj


def test_heat_zero_counting_exact_solution():
    c, M = 0.25, 1.0
    times = np.geomspace(1e-3, 0.1, 10)
    g, traj = _erf_trajectory(c, M, 512, times)

    def grad(x, t):
        return M * np.sqrt(c / (np.pi * t)) * np.exp(-c * x ** 2 / (4.0 * t))

    rep = heat_zero_counting_gradient(traj, M, c, rel_tol=0.02, gradient_of=grad)
    assert rep.passed
    # the exact kernel solution sits at half the stated bound (factor-2 slack)
    assert rep.max_defect == pytest.approx(-0.5, abs=1e-3)


def test_heat_zero_counting_detects_violation():
    c, M = 0.25, 1.0
    times = [0.01]
    g, traj = _erf_trajectory(c, M, 128, times)

    def too_steep(x, t):
        return 4.0 * M * np.sqrt(c / (np.pi * t)) * np.exp(-c * x ** 2 / (4.0 * t))

    rep = heat_zero_counting_gradient(traj, M, c, gradient_of=too_steep)
    assert not rep.passed
    assert rep.max_defect == pytest.approx(1.0, abs=0.1)


def test_heat_zero_counting_precondition():
    g = Grid1D(-1.0, 1.0, 16, "bounded")
    traj = Trajectory()
    traj.append(0.0, Field(g, np.zeros(17)))
    traj.append(0.1, Field(g, np.full(17, 2.0), time=0.1))
    with pytest.raises(PreconditionError):
        heat_zero_counting_gradient(traj, M=1.0, c=0.25)


# --- gradient bounds ----------------------------------------------------------------


def test_convergence_to_initial_data_bound():
    g = Grid1D(0.0, 2.0, 256, "bounded")
    x = g.nodes()
    u0 = Field(g, 0.5 - np.abs(np.mod(x, 1.0) - 0.5))
    times = np.geomspace(1e-4, 1e-3, 5)
    traj = evolve(flows.csf(), u0, BoundaryCondition("neumann_zero"),
                  TimeStepPlan(t_end=times[-1]), times)
    rep = convergence_to_initial_data(traj, lipschitz_modulus(1.0))
    assert rep.passed
    assert rep.max_defect < 0  # strict margin, not a grid-tolerance save


def test_double_coordinate_requires_periodic():
    g = Grid1D(0.0, 1.0, 16, "bounded")
    traj = Trajectory()
    traj.append(0.0, Field(g, np.zeros(17)))
    with pytest.raises(PreconditionError):
        verify.double_coordinate_defect(traj, barriers.PsiBarrier(c=0.25), 1.0)


def _double_coordinate_oracle(traj, b, M, region, t_window=None):
    """Pair-by-pair scan: every snapshot, then every lag, then every node.

    Returns (max_defect, tolerance, witness) as double_coordinate_defect
    defines them, the witness being the first maximiser in that order.
    """
    grid = traj.fields[0].grid
    h, n = grid.h, grid.n_nodes
    worst, witness, tol = -np.inf, {}, 0.0
    for t, f in traj.snapshots:
        if t <= 0 or (t_window is not None and not t_window[0] <= t <= t_window[1]):
            continue
        u = f.values
        zm = float(barriers.z_M(t, M, b.c))
        lags = [lag for lag in range(1, n)
                if region == "full" or min(lag, n - lag) * h <= zm]
        if not lags:
            continue
        ks = np.array([min(lag, n - lag) for lag in lags])
        dists = ks * h
        phi = barriers.phi_double_coordinate(b, dists, t, M)
        # each pair's allowance: phi one cell further out, phi(d + h) - phi(d)
        phi_next = barriers.phi_double_coordinate(b, (ks + 1) * h, t, M)
        tol = max(tol, float(np.max(phi_next - phi)))
        for lag, d, pval in zip(lags, dists, phi):
            pair_max = max(u[(i + lag) % n] - u[i] for i in range(n))
            if pair_max - pval > worst:
                worst = float(pair_max - pval)
                witness = {"t": float(t), "distance": float(d),
                           "max_pair_diff": float(pair_max), "phi": float(pval)}
    return worst, tol, witness


@pytest.mark.parametrize("n", [31, 32, 33])
@pytest.mark.parametrize("region", ["G", "full"])
@pytest.mark.parametrize("chunk", [32, 5])
def test_double_coordinate_matches_pair_oracle(monkeypatch, n, region, chunk):
    monkeypatch.setattr(verify, "_LAG_CHUNK", chunk)
    g = Grid1D(0.0, 2.0, n, "periodic")
    x = g.nodes()
    rng = np.random.default_rng(n)
    traj = Trajectory()
    # t = 0 is skipped; at t = 0.005 no pair lies within z_M (G skips it)
    for t in (0.0, 0.005, 0.08, 0.3):
        u = 0.5 * np.sign(np.sin(np.pi * x)) + 0.05 * rng.normal(size=x.size)
        traj.append(t, Field(g, u))
    traj.append(0.4, Field(g, np.full(x.size, 0.25)))
    traj.append(0.5, Field(g, np.where(np.arange(x.size) % 2 == 0, 0.5, -0.5)))
    b = barriers.PsiBarrier(c=0.25)
    for t_window in (None, (0.0, 0.1)):
        rep = verify.double_coordinate_defect(traj, b, 1.0, region=region, t_window=t_window)
        worst, tol, witness = _double_coordinate_oracle(traj, b, 1.0, region, t_window)
        assert rep.max_defect == worst
        assert rep.tolerance == tol
        assert rep.witness == witness


def _crenellated_noise(n, M, times=(0.0, 0.005, 0.02, 0.08, 0.3)):
    """Crenellated data of height M, smoothed over sqrt(t), plus 1% noise."""
    g = Grid1D(0.0, 2.0, n, "periodic")
    x = g.nodes()
    rng = np.random.default_rng(n)
    traj = Trajectory()
    for t in times:
        width = max(np.sqrt(t), 0.01)
        traj.append(t, Field(g, 0.5 * M * np.tanh(np.sin(np.pi * x) / width)
                             + 0.01 * M * rng.normal(size=n)))
    return g, traj


def _recording_pair_max(monkeypatch):
    """Wrap verify._pair_max; the returned list collects each call's k_max."""
    asked = []
    pair_max = verify._pair_max

    def wrapper(u, k_max):
        asked.append(k_max)
        return pair_max(u, k_max)

    monkeypatch.setattr(verify, "_pair_max", wrapper)
    return asked


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("region", ["G", "full"])
@pytest.mark.parametrize("c", [0.0625, 0.25, 4.0])
@pytest.mark.parametrize("M", [0.1, 1.0])  # M = 0.1 clamps phi to 2M at the later times
def test_double_coordinate_pruned_scan_matches_oracle(monkeypatch, n, region, c, M):
    g, traj = _crenellated_noise(n, M)
    b = barriers.PsiBarrier(c=c)
    asked = _recording_pair_max(monkeypatch)
    worst, tol, witness = _double_coordinate_oracle(traj, b, M, region)
    if not witness:  # z_M below one cell at every time: region G holds no pair
        with pytest.raises(PreconditionError):
            verify.double_coordinate_defect(traj, b, M, region=region)
        return
    rep = verify.double_coordinate_defect(traj, b, M, region=region)
    assert (rep.max_defect, rep.tolerance, rep.witness) == (worst, tol, witness)
    assert asked and max(asked) <= n // 2


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("region", ["G", "full"])
def test_double_coordinate_one_psi_solve_at_pair_distances(monkeypatch, n, region):
    # one call, at the distances k h for k = 1..k_max + 1 of each checked
    # snapshot: no slope probes
    g, traj = _crenellated_noise(n, 1.0)
    b = barriers.PsiBarrier(c=0.25)
    sizes = []
    phi = barriers.phi_double_coordinate

    def wrapper(b, z, t, M):
        sizes.append(np.size(z))
        return phi(b, z, t, M)

    monkeypatch.setattr(barriers, "phi_double_coordinate", wrapper)
    verify.double_coordinate_defect(traj, b, 1.0, region=region)
    k_max = [n // 2 if region == "full" else
             int(np.count_nonzero(np.arange(1, n // 2 + 1) * g.h <= barriers.z_M(t, 1.0, 0.25)))
             for t in traj.times if t > 0]
    assert sizes == [sum(k + 1 for k in k_max if k)]


@pytest.mark.parametrize("n", [64, 65])
def test_double_coordinate_full_scan_prunes_lags(monkeypatch, n):
    g, traj = _crenellated_noise(n, 1.0)
    asked = _recording_pair_max(monkeypatch)
    verify.double_coordinate_defect(traj, barriers.PsiBarrier(c=0.25), 1.0)
    assert min(asked) < n // 2


def test_double_coordinate_constant_field_scans_lag_one(monkeypatch):
    # osc = 0: the bound -phi(k h) reaches the floor -phi(h) at lag 1 only
    g = Grid1D(0.0, 2.0, 32, "periodic")
    traj = Trajectory()
    traj.append(0.1, Field(g, np.full(32, 0.25)))
    b = barriers.PsiBarrier(c=0.25)
    asked = _recording_pair_max(monkeypatch)
    rep = verify.double_coordinate_defect(traj, b, 1.0)
    assert asked == [1]
    assert (rep.max_defect, rep.tolerance, rep.witness) == \
        _double_coordinate_oracle(traj, b, 1.0, "full")
    assert rep.witness["distance"] == g.h


def test_double_coordinate_skips_a_snapshot_with_every_lag_pruned(monkeypatch):
    # the step at t = 0.2 sets a lag-1 floor (1 - phi(h, 0.2), about 0.9)
    # above -phi(h, 0.01), the largest bound of the constant snapshot at
    # t = 0.01: no lag of that snapshot is scanned
    g = Grid1D(0.0, 2.0, 32, "periodic")
    x = g.nodes()
    traj = Trajectory()
    traj.append(0.01, Field(g, np.full(32, 0.25)))
    traj.append(0.2, Field(g, 0.5 * np.sign(np.sin(np.pi * x))))
    b = barriers.PsiBarrier(c=0.25)
    asked = _recording_pair_max(monkeypatch)
    rep = verify.double_coordinate_defect(traj, b, 1.0)
    assert len(asked) == 1
    assert (rep.max_defect, rep.tolerance, rep.witness) == \
        _double_coordinate_oracle(traj, b, 1.0, "full")
    assert rep.witness["t"] == 0.2


def test_double_coordinate_vacuous_window_is_precondition_error():
    g = Grid1D(0.0, 2.0, 32, "periodic")
    traj = Trajectory()
    traj.append(0.5, Field(g, np.sin(np.pi * g.nodes())))
    b = barriers.PsiBarrier(c=0.25)
    assert verify.double_coordinate_defect(traj, b, 1.0, t_window=(0.0, 1.0)).witness
    # no snapshot in the window
    with pytest.raises(PreconditionError, match="t_window"):
        verify.double_coordinate_defect(traj, b, 1.0, t_window=(0.0, 0.1))
    # z_M(0.5) is far below one cell at c = 4, so region G holds no pair
    assert barriers.z_M(0.5, 1.0, 4.0) < g.h
    with pytest.raises(PreconditionError, match="region G"):
        verify.double_coordinate_defect(traj, barriers.PsiBarrier(c=4.0), 1.0, region="G")


@pytest.mark.parametrize("chunk", [32, 5])
def test_double_coordinate_clamped_barrier_witness(monkeypatch, chunk):
    # at M = 0.1 and t >= 1 every pair distance is out of the barrier's range,
    # so phi = 2M at every pair and Z = u(y) - u(x) - 0.2: the witness is the
    # first pair in (snapshot, lag) order with the largest difference
    monkeypatch.setattr(verify, "_LAG_CHUNK", chunk)
    g = Grid1D(0.0, 2.0, 32, "periodic")
    b = barriers.PsiBarrier(c=0.25)
    for j in range(1, 32):
        for sign in (1.0, -1.0):
            u = np.zeros(32)
            u[0], u[j] = 0.5 * sign, -0.5 * sign
            traj = Trajectory()
            traj.append(1.0, Field(g, u))
            traj.append(2.0, Field(g, u.copy()))  # ties with the first snapshot
            rep = verify.double_coordinate_defect(traj, b, 0.1)
            assert (rep.max_defect, rep.tolerance, rep.witness) == \
                _double_coordinate_oracle(traj, b, 0.1, "full")
            assert rep.witness == {"t": 1.0, "distance": min(j, 32 - j) * g.h,
                                   "max_pair_diff": 1.0, "phi": 0.2}
    # equal differences at lags 22 (x_10 -> x_0) and 29 (x_3 -> x_0): lag 22 comes first
    u = np.zeros(32)
    u[0], u[3], u[10] = 0.5, -0.5, -0.5
    traj = Trajectory()
    traj.append(1.0, Field(g, u))
    assert verify.double_coordinate_defect(traj, b, 0.1).witness["distance"] == 10 * g.h
