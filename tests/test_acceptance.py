"""Acceptance gate: one test per headline estimate, each printing a single
pass/fail line with its measured defect.  Tolerances are pinned; do not widen
them to make a test pass.
"""

import numpy as np
import pytest
from scipy.special import erf

from flowlab import barriers, finsler, flows, verify
from flowlab.fields import Field, Grid1D, GridND, gradient, hessian
from flowlab.solver import (
    BoundaryCondition,
    TimeStepPlan,
    Trajectory,
    evolve,
    evolve_pair_ordered,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# 1. directional degeneracy closed form ----------------------------------------


def test_criterion_1_alpha_closed_form():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for n in (1, 2, 3):
        flow = flows.mcf_graph(n)
        for _ in range(67):
            p = rng.normal(size=n)
            p *= rng.uniform(0.1, 10.0) / np.linalg.norm(p)
            val = flows.alpha(flow.coeff(p), p, n_dirs=512)
            worst = max(worst, abs(val - 1.0 / (1.0 + p @ p)))
            count += 1
    _report(1, worst < 1e-6 and count >= 200,
            f"max |alpha - 1/(1+|p|^2)| = {worst:.3g} over {count} samples")


# 2. psi barrier solves its PDE --------------------------------------------------


def test_criterion_2_psi_pde_residual():
    worst_closed = 0.0
    worst_fd = 0.0
    n_samples = 0
    fracs = np.concatenate([np.linspace(-0.85, -0.05, 17),
                            np.linspace(0.05, 0.85, 17)])
    for c in (0.25, 1.0, 4.0):
        b = barriers.PsiBarrier(c=c)
        for t in (0.2, 0.6):
            z = fracs[n_samples % 2::2] * barriers.psi_range(b, t)
            p1, p2, p3, pt = barriers.psi_derivs(b, z, t)
            worst_closed = max(worst_closed,
                               float(np.max(np.abs(pt - p2 / (4.0 * c * p1 ** 2)))))
            dt = 1e-4 * t
            fd_t = (barriers.psi_eval(b, z, t + dt)
                    - barriers.psi_eval(b, z, t - dt)) / (2 * dt)
            worst_fd = max(worst_fd,
                           float(np.max(np.abs(fd_t - p2 / (4.0 * c * p1 ** 2)))))
            n_samples += len(z)
    _report(2, worst_closed < 1e-8 and worst_fd < 1e-5 and n_samples >= 100,
            f"closed-form residual {worst_closed:.3g}, fd cross-check {worst_fd:.3g}, "
            f"{n_samples} samples")


# 3. isotropic reduction -----------------------------------------------------------


def test_criterion_3_isotropic_reduction():
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    for n in (1, 2, 3):
        nf = finsler.euclidean_norm(n + 1)
        mcf = flows.mcf_graph(n)
        for _ in range(167):
            p = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
            worst = max(worst, float(np.max(np.abs(
                finsler.flow_coefficients(nf, p) - mcf.coeff(p)))))
            count += 1
    _report(3, worst < 1e-10 and count >= 500,
            f"max entrywise gap {worst:.3g} over {count} samples")


# 4. heat zero-counting gradient bound ----------------------------------------------


def test_criterion_4_heat_zero_counting():
    c, M = 0.25, 1.0
    g = Grid1D(-1.0, 1.0, 512, "bounded")
    x = g.nodes()
    traj = Trajectory()
    traj.append(0.0, Field(g, M * np.sign(x)))
    for t in np.geomspace(1e-3, 0.1, 15):
        traj.append(t, Field(g, M * erf(np.sqrt(c) * x / (2.0 * np.sqrt(t))), time=t))

    def grad(xx, tt):
        return M * np.sqrt(c / (np.pi * tt)) * np.exp(-c * xx ** 2 / (4.0 * tt))

    rep = verify.heat_zero_counting_gradient(traj, M, c, rel_tol=0.02,
                                             gradient_of=grad)
    _report(4, rep.passed, f"max relative defect {rep.max_defect:.3g} (tol 0.02)")


# 5. intersection non-proliferation ---------------------------------------------------


def test_criterion_5_intersection_monotonicity():
    g = Grid1D(0.0, 2 * np.pi, 96, "periodic")
    x = g.nodes()
    flow = flows.csf()
    bc = BoundaryCondition("periodic")
    times = [0.01, 0.02, 0.05, 0.1]
    plan = TimeStepPlan(t_end=times[-1])
    failures = 0
    nontrivial = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u0 = sum(rng.normal(0, 0.2) * np.sin((k + 1) * x)
                 + rng.normal(0, 0.2) * np.cos((k + 1) * x) for k in range(3))
        sd = barriers.StepData(M=0.5, s=rng.uniform(0, 2 * np.pi),
                               mode="crenellated", R=np.pi, eps=4 * g.h)
        traj_u = evolve(flow, Field(g, u0), bc, plan, times)
        traj_p = evolve(flow, Field(g, barriers.step_eval(sd, x)), bc, plan, times)
        rep = verify.intersection_monotonicity(traj_u, traj_p, eps_tie=1e-9)
        if not rep.passed:
            failures += 1
        if rep.witness["counts"][0] > 0:
            nontrivial += 1
    _report(5, failures == 0 and nontrivial >= 90,
            f"{failures} count increases in 100 runs ({nontrivial} nontrivial)")


# 6. discrete comparison principle ------------------------------------------------------


def _random_periodic(rng, x, amp=0.3, modes=3):
    return sum(rng.normal(0, amp) * np.sin((k + 1) * x)
               + rng.normal(0, amp) * np.cos((k + 1) * x) for k in range(modes))


def test_criterion_6_comparison_principle():
    bc = BoundaryCondition("periodic")
    worst = np.inf
    runs = 0

    g1 = Grid1D(0.0, 2 * np.pi, 64, "periodic")
    x = g1.nodes()
    for flow, n_runs in ((flows.heat_1d(0.25), 40), (flows.csf(), 40)):
        for seed in range(n_runs):
            rng = np.random.default_rng(1000 + runs)
            lo = _random_periodic(rng, x)
            hi = np.maximum(lo, _random_periodic(rng, x)) + 0.01
            _, _, gaps = evolve_pair_ordered(flow, Field(g1, lo), Field(g1, hi),
                                             bc, TimeStepPlan(t_end=0.05), [0.05])
            scale = max(1.0, float(np.max(np.abs(hi))))
            rep = verify.check_comparison(gaps, scale)
            assert rep.passed, f"{flow.name} run {seed}"
            worst = min(worst, -rep.max_defect)
            runs += 1

    g2 = GridND((Grid1D(0, 2 * np.pi, 24, "periodic"),
                 Grid1D(0, 2 * np.pi, 24, "periodic")))
    X, Y = g2.meshgrid()
    flow2 = flows.mcf_graph(2)
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        lo = (rng.normal(0, 0.2) * np.sin(X) * np.sin(Y)
              + rng.normal(0, 0.2) * np.cos(X + Y))
        hi = np.maximum(lo, rng.normal(0, 0.2) * np.sin(X + Y)) + 0.01
        _, _, gaps = evolve_pair_ordered(flow2, Field(g2, lo), Field(g2, hi),
                                         bc, TimeStepPlan(t_end=0.01), [0.01])
        rep = verify.check_comparison(gaps, max(1.0, float(np.max(np.abs(hi)))))
        assert rep.passed, f"mcf2d run {seed}"
        worst = min(worst, -rep.max_defect)
        runs += 1
    _report(6, runs == 100, f"min ordered gap {worst:.3g} over {runs} runs")


# 7. cusp displacement exponents ----------------------------------------------------------


def test_criterion_7_displacement_exponents():
    g = Grid1D(-1.0, 1.0, 512, "bounded")
    x = g.nodes()
    flow = flows.heat_1d(0.25)
    bc = BoundaryCondition("dirichlet", value=lambda xx, tt: 1.0)
    times = np.geomspace(1e-3, 1e-2, 12)
    details = []
    ok = True
    for alpha in (0.25, 0.5, 0.75):
        traj = evolve(flow, Field(g, np.abs(x) ** alpha), bc,
                      TimeStepPlan(t_end=times[-1]), times)
        rep = verify.displacement_check(traj, "holder", alpha=alpha, m=0, h=0.0)
        ok = ok and rep.passed
        details.append(f"alpha={alpha}: fitted {rep.witness['fitted_exponent']:.4f} "
                       f"vs {rep.witness['target']:.4f}")
    _report(7, ok, "; ".join(details))


# 8. double-coordinate estimate, crenellated data ----------------------------------------


def test_criterion_8_double_coordinate():
    M, R, n, c = 1.0, 2.0, 512, 0.25
    grid = Grid1D(0.0, 2 * R, n, "periodic")
    h = grid.h
    x = grid.nodes()
    t_prime = 2.0 * c * M ** 2 / 3.0
    times = np.geomspace(1e-3 * t_prime, t_prime, 16)
    b = barriers.PsiBarrier(c=c)
    # negative control: c = 1/8 on the same data, in its own window 2cM^2/3
    c_neg = 0.125
    b_neg = barriers.PsiBarrier(c=c_neg)

    defects, tols, negatives = [], [], []
    for eps in (4 * h, 8 * h, 16 * h):
        # oscillation M means crenellation heights +-M/2
        sd = barriers.StepData(M=M / 2.0, mode="crenellated", R=R, eps=eps)
        traj = evolve(flows.csf(), Field(grid, barriers.step_eval(sd, x)),
                      BoundaryCondition("periodic"),
                      TimeStepPlan(t_end=t_prime), times)
        rep = verify.double_coordinate_defect(traj, b, M, region="G",
                                              t_window=(0.0, t_prime))
        defects.append(rep.max_defect)
        tols.append(rep.tolerance)
        negatives.append(verify.double_coordinate_defect(
            traj, b_neg, M, region="G", t_window=(0.0, 2.0 * c_neg * M ** 2 / 3.0)))
    tol_grid = tols[0]
    spread = max(defects) - min(defects)
    ok = (defects[0] <= tol_grid and spread <= 2.0 * tol_grid
          and not any(r.passed for r in negatives))
    _report(8, ok, f"defects {[f'{d:+.4f}' for d in defects]} for eps in "
                   f"{{4h,8h,16h}}, tol_grid {tol_grid:.3f}, spread {spread:.4f}; "
                   f"c = 1/8 must FAIL: defects {[f'{r.max_defect:+.4f}' for r in negatives]}, "
                   f"tol {negatives[0].tolerance:.3f}")


# 9. shrinking sphere exactness -----------------------------------------------------------


def test_criterion_9_sphere_order():
    sb = barriers.SphereBarrier(center=(0.0, 0.0), height=0.0, r0=1.0, n=2)
    t = 0.1
    r = float(sb.radius(t))
    flow = flows.mcf_graph(2)
    errs = []
    for n_cells in (64, 128, 256):
        g = GridND((Grid1D(-0.3, 0.3, n_cells), Grid1D(-0.3, 0.3, n_cells)))
        X, Y = g.meshgrid()
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        u = Field(g, np.asarray(barriers.sphere_eval(sb, pts, t)).reshape(X.shape))
        Du = gradient(u)
        H = hessian(u)
        A = flow.coeff(Du)
        rhs = np.einsum("...ij,...ij->...", A, H)
        d2 = X ** 2 + Y ** 2
        ut = 2.0 / np.sqrt(r ** 2 - d2)
        sl = (slice(2, -2), slice(2, -2))
        errs.append(float(np.max(np.abs(rhs - ut)[sl])))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    _report(9, bool(np.all(orders >= 1.8)),
            f"residuals {[f'{e:.2e}' for e in errs]}, orders "
            f"{[f'{o:.3f}' for o in orders]}")


# 10. convergence to initial data -----------------------------------------------------------


def test_criterion_10_convergence_rates():
    flow = flows.csf()
    bc = BoundaryCondition("neumann_zero")

    # Lipschitz zigzag, slope 1
    g1 = Grid1D(0.0, 2.0, 512, "bounded")
    x1 = g1.nodes()
    u0_lip = 0.5 - np.abs(np.mod(x1, 1.0) - 0.5)
    times_lip = np.geomspace(2e-4, 2e-3, 8)
    traj_lip = evolve(flow, Field(g1, u0_lip), bc,
                      TimeStepPlan(t_end=times_lip[-1]), times_lip)
    sup_lip = [float(np.max(np.abs(f.values - u0_lip)))
               for t, f in traj_lip.snapshots if t > 0]
    exp_lip = verify.fit_exponent(times_lip, sup_lip)
    rep_lip = verify.convergence_to_initial_data(traj_lip, verify.lipschitz_modulus(1.0))

    # Holder-1/2 data: power-law spectrum with tail-compensated last mode
    g2 = Grid1D(0.0, 2.0, 2048, "bounded")
    x2 = g2.nodes()
    modes = np.arange(1, 101)
    amps = modes ** -1.5
    amps[-1] += 2.0 / np.sqrt(100.0)
    u0_hol = 0.01 * np.sum(amps[:, None] * np.cos(np.pi * modes[:, None] * x2), axis=0)
    times_hol = np.geomspace(1e-4, 2e-3, 10)
    traj_hol = evolve(flow, Field(g2, u0_hol), bc,
                      TimeStepPlan(t_end=times_hol[-1]), times_hol)
    sup_hol = [float(np.max(np.abs(f.values - u0_hol)))
               for t, f in traj_hol.snapshots if t > 0]
    exp_hol = verify.fit_exponent(times_hol, sup_hol)
    # empirical Holder constant of the initial data over subsampled lags
    C_emp = 0.0
    for lag in (1, 2, 4, 8, 16, 64, 256):
        d = np.abs(u0_hol[lag:] - u0_hol[:-lag])
        C_emp = max(C_emp, float(np.max(d)) / np.sqrt(lag * g2.h))
    rep_hol = verify.convergence_to_initial_data(
        traj_hol, verify.holder_modulus(0.5, C_emp))

    ok = (abs(exp_lip - 0.5) <= 0.05 and abs(exp_hol - 0.25) <= 0.025
          and rep_lip.passed and rep_hol.passed)
    _report(10, ok, f"lipschitz exponent {exp_lip:.4f} (target 0.5), "
                    f"holder exponent {exp_hol:.4f} (target 0.25), "
                    f"pointwise bounds {rep_lip.passed}/{rep_hol.passed}")


# 11. anisotropic certificates ----------------------------------------------------------------


def test_criterion_11_finsler_certificates():
    eu = finsler.euclidean_norm(3)
    A, P = finsler.estimate_A_P(eu)
    k = finsler.trace_lower_bound(eu)
    C1, _, _ = finsler.check_smallness(eu)

    quart = finsler.quartic_norm(1e-3, 3)
    C1q, pass4, _ = finsler.check_smallness(quart)

    sym_ok = (finsler.check_symmetry(eu).passed
              and finsler.check_symmetry(quart).passed)
    M_coupled = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.0], [0.0, 0.0, 2.0]])
    sym_fails = not finsler.check_symmetry(finsler.elliptic_norm(M_coupled)).passed

    ok = (abs(A - 0.5) <= 1e-3 and abs(P - 1.0) <= 0.01
          and abs(k - 1.0) <= 1e-3 and C1 <= 1e-6
          and pass4 and sym_ok and sym_fails)
    _report(11, ok, f"euclid A={A:.5f} P={P:.5f} k={k:.6f} C1={C1:.2e}; "
                    f"quartic C1={C1q:.4f} passes 4/sqrt(n): {pass4}; "
                    f"symmetry detects coupling: {sym_fails}")
