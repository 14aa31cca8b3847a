"""Estimate checks: each bound becomes a function from trajectories and
barriers to a VerificationReport.

Checks are pure and deterministic; defects are signed (negative means the
bound holds with margin) and ``passed`` is always max_defect <= tolerance.
The estimate checks scan the snapshots with t > 0 (inside a time window
where the check has one), take one signed defect and witness per snapshot
and report the first largest, each through ``_report``; a check that tests
nothing raises PreconditionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import barriers
from .fields import Field, Grid1D, gradient
from .reports import VerificationReport

__all__ = [
    "ModulusOfContinuity",
    "lipschitz_modulus",
    "holder_modulus",
    "PreconditionError",
    "check_comparison",
    "double_coordinate_defect",
    "gradient_bound_check",
    "holder_displacement",
    "lipschitz_displacement",
    "step_displacement",
    "modulus_displacement",
    "count_intersections",
    "intersection_monotonicity",
    "heat_zero_counting_gradient",
    "convergence_to_initial_data",
    "fit_exponent",
]


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Concave continuous omega with omega(0) = 0, plus its left derivative."""

    omega: Callable[[float], float]
    left_derivative: Callable[[float], float]

    def probe(self, r_samples) -> None:
        """Sampled sanity check: nonnegative, nondecreasing, midpoint-concave."""
        r = np.sort(np.asarray(r_samples, dtype=float))
        vals = np.array([self.omega(ri) for ri in r])
        if np.any(vals < -1e-12):
            raise ValueError("omega must be nonnegative")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("omega must be nondecreasing")
        mid = np.array([self.omega(0.5 * (a + b)) for a, b in zip(r[:-1], r[1:])])
        if np.any(mid + 1e-12 < 0.5 * (vals[:-1] + vals[1:])):
            raise ValueError("omega must be concave")


def lipschitz_modulus(L: float) -> ModulusOfContinuity:
    return ModulusOfContinuity(lambda r: L * r, lambda r: L)


def holder_modulus(alpha: float, C: float = 1.0) -> ModulusOfContinuity:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return ModulusOfContinuity(
        lambda r: C * r ** alpha,
        lambda r: C * alpha * r ** (alpha - 1.0) if r > 0 else np.inf,
    )


def fit_exponent(times, values) -> float:
    """Least-squares slope of log(values) against log(times)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.any(t <= 0) or np.any(v <= 0):
        raise ValueError("exponent fit needs positive times and values")
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])


# --- snapshot scan ------------------------------------------------------------


def _grid(traj):
    """The grid of traj; PreconditionError for a trajectory without snapshots."""
    if not traj.snapshots:
        raise PreconditionError("the trajectory has no snapshots, so the check tests nothing")
    return traj.grid


def _scan(traj, t_window=None) -> list:
    """The (t, field) snapshots of traj with t > 0 inside the closed t_window."""
    lo, hi = (-np.inf, np.inf) if t_window is None else t_window
    return [(t, f) for t, f in traj.snapshots if t > 0 and lo <= t <= hi]


def _worst(samples, empty: str):
    """The first largest (defect, witness) of samples, in their order.

    A defect of -inf marks a sample that tested nothing; raises
    PreconditionError(empty) when no sample tested anything.
    """
    worst = -np.inf
    witness = None
    for defect, wit in samples:
        if defect > worst:
            worst, witness = defect, wit
    if witness is None:
        raise PreconditionError(empty)
    return worst, witness


def _report(check_id: str, samples, empty: str, tolerance: float,
            metadata: dict) -> VerificationReport:
    """The report of the first largest (defect, witness) of samples (see
    ``_worst``).  The samples are read before metadata, so a sample may
    count into it."""
    worst, witness = _worst(samples, empty)
    return VerificationReport(check_id, worst, tolerance, witness, metadata)


# --- ordering / comparison --------------------------------------------------


def check_comparison(min_gap_series, scale: float = 1.0) -> VerificationReport:
    """Defect = -min over steps of the ordered-pair gap; tolerance
    1e-12 * scale absorbs roundoff of the identical-step updates."""
    gaps = np.asarray(min_gap_series, dtype=float)
    i = int(np.argmin(gaps))
    return VerificationReport(
        check_id="comparison",
        max_defect=float(-gaps[i]),
        tolerance=1e-12 * scale,
        witness={"step": i, "min_gap": float(gaps[i])},
        metadata={"n_steps": int(gaps.size), "scale": scale},
    )


# --- double-coordinate estimate ---------------------------------------------


# lags per block of the pair scan: bounds its (lags, nodes) intermediate
_LAG_CHUNK = 32


def _pair_max(u: np.ndarray, k_max: int) -> np.ndarray:
    """max_i u[(i + lag) % n] - u[i] for the lags 1..k_max and n - k_max..n - 1
    in increasing order (k_max <= n // 2, a lag n/2 counted once).

    Row k of the scan is the lag-k difference; lag n - k is its exact
    negation, so its maximum is minus the row minimum.
    """
    n = u.size
    rows = sliding_window_view(np.concatenate([u, u]), n)
    hi, lo = [], []
    for k0 in range(1, k_max + 1, _LAG_CHUNK):
        diff = rows[k0:min(k0 + _LAG_CHUNK, k_max + 1)] - u
        hi.append(diff.max(axis=1))
        lo.append(diff.min(axis=1))
    n_mirror = min(k_max, (n - 1) // 2)
    return np.concatenate(hi + [-np.concatenate(lo)[:n_mirror][::-1]])


def double_coordinate_defect(traj, b: barriers.PsiBarrier, M: float,
                             region: str = "full",
                             t_window=None) -> VerificationReport:
    """Max over periodic node pairs and snapshots of
    Z = u(y,t) - u(x,t) - phi(|y-x|, t) with phi(z,t) = 2M psi(z/2M, t/4M^2).

    Out-of-range barrier arguments clamp phi to 2M (conservative).  Region
    "G" restricts pair distances to |y-x| <= z_M(t).  The witness is the
    first maximiser in (snapshot, lag) order.  Raises PreconditionError when
    no snapshot with t > 0 in ``t_window`` has a pair in the region.

    Tolerance: a node pair at distance d = k h stands for the continuous
    pairs within one cell of its distance, d' in [d, d + h).  If the bound
    holds at such a d', then, phi being nondecreasing in z, the node
    difference is at most phi(d', t) <= phi(d + h, t), so its defect is at
    most phi(d + h, t) - phi(d, t).  The tolerance is the largest such
    one-cell change over the checked pairs: the max over the snapshots and
    k <= k_max of phi((k+1) h, t) - phi(k h, t), from the one psi solve at
    the distances k h, k = 1..k_max + 1.

    The lag scan is pruned without changing the result.  The floor is the
    largest lag-1 defect over the snapshots, computed with the scan's own
    subtraction, so the scan produces it and max_defect >= floor.  Rounding
    is monotone, so every rounded pair difference of a snapshot is at most
    osc = max u - min u, and the defect at distance k h at most
    osc - phi(k h, t), again rounded.  Each snapshot scans lags 1..K (and
    their mirrors), K the last lag whose bound is >= floor; a skipped lag's
    defect lies strictly below the floor, so it is neither the maximum nor
    a first-maximiser tie.
    """
    if region not in ("full", "G"):
        raise ValueError("region must be 'full' or 'G'")
    grid = _grid(traj)
    if not isinstance(grid, Grid1D) or grid.topology != "periodic":
        raise PreconditionError("double-coordinate check needs a periodic 1-D grid")
    h = grid.h
    n = grid.n_nodes
    empty = (f"no snapshot with t > 0 in t_window {t_window} has a node pair "
             f"in region {region}")

    # pair distances min(lag, n - lag) h = k h, k = 1..n // 2, and one cell more
    dists = np.arange(1, n // 2 + 2) * h
    # per snapshot: t, u and the largest k in the region
    snaps = []
    for t, f in _scan(traj, t_window):
        k_max = n // 2
        if region == "G":
            k_max = int(np.count_nonzero(dists[:-1] <= float(barriers.z_M(t, M, b.c))))
        if k_max:
            snaps.append((t, f.values, k_max))
    if not snaps:  # nothing for the one psi solve below
        raise PreconditionError(empty)

    # one psi solve for every snapshot at the distances k h, k = 1..k_max + 1
    phi = barriers.phi_double_coordinate(
        b, np.concatenate([dists[:k + 1] for *_, k in snaps]),
        np.concatenate([np.full(k + 1, t) for t, _, k in snaps]), M)
    phi = np.split(phi, np.cumsum([k + 1 for *_, k in snaps])[:-1])
    tolerance = max(float(np.max(np.diff(phi_k))) for phi_k in phi)

    # lags 1 and n - 1 (distance h) are the scan's lag-1 row and its negation
    floor = max(float(np.max(np.abs(np.roll(u, -1) - u)) - phi_k[0])
                for (_, u, _), phi_k in zip(snaps, phi))

    def sample(snap, phi_k):
        t, u, k_max = snap
        reach = np.flatnonzero((np.max(u) - np.min(u)) - phi_k[:k_max] >= floor)
        if not reach.size:
            return -np.inf, None
        K = int(reach[-1]) + 1
        pair_max = _pair_max(u, K)
        # index k - 1 of each lag's distance k h, in increasing lag order
        ks = np.concatenate([np.arange(K), np.arange(pair_max.size - K)[::-1]])
        Z = pair_max - phi_k[ks]
        i = int(np.argmax(Z))
        return float(Z[i]), {"t": float(t), "distance": float(dists[ks[i]]),
                             "max_pair_diff": float(pair_max[i]), "phi": float(phi_k[ks[i]])}

    return _report(f"double-coordinate:{region}", map(sample, snaps, phi), empty, tolerance,
                   {"M": M, "c": b.c, "h": h, "period": grid.x_hi - grid.x_lo})


def gradient_bound_check(traj, bound: Callable[[float], float],
                         grid_tol: float = 0.0,
                         t_window=None) -> VerificationReport:
    """Max over snapshots of (max |Du|(t) - bound(t)).  A snapshot where the
    bound is infinite tests nothing."""

    def sample(t, f):
        g = np.max(np.linalg.norm(gradient(f), axis=-1))
        b = bound(t)
        return float(g - b), {"t": float(t), "max_grad": float(g), "bound": float(b)}

    return _report("gradient-bound", (sample(t, f) for t, f in _scan(traj, t_window)),
                   f"no snapshot with t > 0 in t_window {t_window} where the bound is finite",
                   grid_tol, {"t_window": list(t_window) if t_window else None})


# --- displacement estimates -------------------------------------------------


def _apex(traj, h: float) -> tuple:
    """The nodes of traj's 1-D grid and the index of the node nearest h."""
    grid = _grid(traj)
    if not isinstance(grid, Grid1D):
        raise PreconditionError("displacement checks are one-dimensional")
    x = grid.nodes()
    return x, int(np.argmin(np.abs(x - h)))


def holder_displacement(traj, alpha: float, m=0, h: float = 0.0) -> VerificationReport:
    """The exponent of the apex displacement |u(h, t) - u0(h)| fitted in t,
    against alpha / (2 + m (1 - alpha)); the defect is relative, with the
    fixed tolerance 0.10.  Needs two snapshots with t > 0, and an apex
    that has moved at each: a zero displacement has no logarithm."""
    x, i0 = _apex(traj, h)
    snaps = _scan(traj)
    if len(snaps) < 2:
        raise PreconditionError("the holder exponent fit needs two snapshots with t > 0")
    u0 = traj.snapshots[0][1].values[i0]
    moved = [abs(f.values[i0] - u0) for _, f in snaps]
    for (t, _), d in zip(snaps, moved):
        if not d > 0.0:
            raise PreconditionError(
                f"the apex x = {x[i0]:g} has not moved at t = {t:g}, so the holder "
                f"exponent fit tests nothing")
    fitted = fit_exponent([t for t, _ in snaps], moved)
    target = alpha / (2.0 + m * (1.0 - alpha))
    return VerificationReport(
        "displacement:holder", abs(fitted - target) / target, 0.10,
        {"fitted_exponent": fitted, "target": target},
        {"alpha": alpha, "m": m, "apex": float(x[i0])})


def lipschitz_displacement(traj, L: float, Lambda_of_K, h: float = 0.0,
                           grid_tol: float = 0.0) -> VerificationReport:
    """Pointwise u <= the erf-cone barrier above L |x - h|, with
    Lambda = Lambda_of_K(L)."""
    x, _ = _apex(traj, h)
    cone = barriers.ConeBarrier(L=L, h=h, Lambda=float(Lambda_of_K(L)))

    def sample(t, f):
        v = barriers.cone_barrier_eval(cone, x, t)
        d = f.values - v
        i = int(np.argmax(d))
        return float(d[i]), {"t": float(t), "x": float(x[i]), "u": float(f.values[i]),
                             "barrier": float(v[i])}

    return _report("displacement:lipschitz", (sample(t, f) for t, f in _scan(traj)),
                   "no snapshot with t > 0 to test the lipschitz displacement bound", grid_tol,
                   {"L": L, "h": h})


def step_displacement(traj, half_height: float, Lambda_of_K, jump: float = 0.0,
                      grid_tol: float = 0.0) -> VerificationReport:
    """For x < jump, u <= min(4c/|x - jump| sqrt(Lambda t/pi) - c, c) with
    c = half_height and Lambda = Lambda_of_K(2c/|x - jump|)."""
    x, _ = _apex(traj, jump)
    c = float(half_height)
    left = x < jump
    xi = np.abs(x[left] - jump)
    Lam = np.array([float(Lambda_of_K(2.0 * c / d)) for d in xi])

    def sample(t, f):
        env = np.minimum(4.0 * c / xi * np.sqrt(Lam * t / np.pi) - c, c)
        d = f.values[left] - env
        i = int(np.argmax(d))
        return float(d[i]), {"t": float(t), "x": float(x[left][i]),
                             "envelope": float(env[i])}

    return _report("displacement:step", (sample(t, f) for t, f in _scan(traj)),
                   "no snapshot with t > 0 to test the step displacement bound", grid_tol,
                   {"half_height": c, "jump": jump})


def modulus_displacement(traj, omega: ModulusOfContinuity, Lambda_of_K, h: float = 0.0,
                         grid_tol: float = 0.0) -> VerificationReport:
    """The apex displacement |u(h, t) - u0(h)| <= inf_k [2 omega'(k)
    sqrt(Lambda t/pi) - omega'(k) k + omega(k)], Lambda = Lambda_of_K(omega'(k))."""
    x, i0 = _apex(traj, h)
    from scipy.optimize import minimize_scalar

    u0 = traj.snapshots[0][1].values[i0]
    k_max = float(x[-1] - x[0])

    def sample(t, f):
        def envelope(k):
            dk = omega.left_derivative(k)
            lam = float(Lambda_of_K(dk)) if np.isfinite(dk) else 0.0
            return (2.0 * dk * np.sqrt(lam * t / np.pi)
                    - dk * k + omega.omega(k)) if np.isfinite(dk) else np.inf

        res = minimize_scalar(envelope, bounds=(1e-8 * k_max, k_max), method="bounded")
        ct = min(float(res.fun), envelope(k_max))
        d = abs(f.values[i0] - u0) - ct
        return float(d), {"t": float(t), "c_t": ct, "k_star": float(res.x)}

    return _report("displacement:modulus", (sample(t, f) for t, f in _scan(traj)),
                   "no snapshot with t > 0 to test the modulus displacement bound", grid_tol,
                   {"apex": float(x[i0])})


# --- intersection counting --------------------------------------------------


def _strict_signs(w: np.ndarray, eps_tie: float) -> np.ndarray:
    return np.where(w > eps_tie, 1, np.where(w < -eps_tie, -1, 0))


def _sign_changes(s: np.ndarray, periodic: bool) -> np.ndarray:
    """Sign changes along each row of strict signs s (rows, nodes), where a 0
    (a tie) takes the previous strict sign; on a periodic grid each row also
    compares its last strict sign with its first.  Trailing 0s change
    nothing."""
    rows = np.arange(len(s))
    strict = s != 0
    # each node's last strict sign at or before it, 0 before the first one;
    # two strict signs differ where their product is negative
    last = np.maximum.accumulate(np.where(strict, np.arange(s.shape[1]), 0), axis=1)
    filled = s[rows[:, None], last]
    changes = (filled[:, 1:] * filled[:, :-1] < 0).sum(axis=1)
    first = s[rows, strict.argmax(axis=1)]
    return changes + (periodic & (filled[:, -1] * first < 0))


def _differences(us, phis) -> tuple:
    """The grid of the fields us, which share it, and the (fields, nodes)
    array of us - phis; a PreconditionError unless the phis' grid has the
    same shape and it is 1-D."""
    if us[0].values.shape != phis[0].values.shape:
        raise PreconditionError("fields live on different grids")
    if not isinstance(us[0].grid, Grid1D):
        raise PreconditionError("intersection counting is one-dimensional")
    return us[0].grid, np.array([u.values for u in us]) - np.array([p.values for p in phis])


def _intersection_counts(grid: Grid1D, w: np.ndarray, eps_tie: float) -> list:
    """``count_intersections`` of each row of w (snapshots, nodes), the
    differences u - phi on grid."""
    s = _strict_signs(w, eps_tie)
    periodic = grid.topology == "periodic"
    if not periodic and not (s[:, 0] * s[:, -1]).all():
        raise PreconditionError(
            "intersection on the boundary: |u - phi| <= eps_tie at an endpoint")
    return _sign_changes(s, periodic).tolist()


def count_intersections(u: Field, phi: Field, eps_tie: float = 1e-9) -> int:
    """Sign changes of w = u - phi along the grid.

    Samples with |w| <= eps_tie inherit the previous strict sign (tie rule);
    bounded grids require strict signs at both boundary nodes.
    """
    return _intersection_counts(*_differences([u], [phi]), eps_tie)[0]


def intersection_monotonicity(traj_u, traj_phi,
                              eps_tie: float = 1e-9) -> VerificationReport:
    """Pass iff the intersection count never increases across snapshots."""
    _grid(traj_u)
    times_u = [t for t, _ in traj_u.snapshots]
    times_p = [t for t, _ in traj_phi.snapshots]
    if times_u != times_p:
        raise PreconditionError("trajectories have different snapshot times")
    counts = _intersection_counts(*_differences(traj_u.fields, traj_phi.fields), eps_tie)
    rises = np.diff(counts)
    worst = int(np.max(rises)) if rises.size else 0
    i = int(np.argmax(rises)) if rises.size else 0
    return VerificationReport(
        check_id="intersection-monotonicity",
        max_defect=float(max(worst, 0)),
        tolerance=0.0,
        witness={"t_before": times_u[i], "t_after": times_u[i + 1] if rises.size else None,
                 "counts": counts},
        metadata={"eps_tie": eps_tie},
    )


# --- zero-counting gradient bounds ------------------------------------------


def heat_zero_counting_gradient(traj, M: float, c: float,
                                rel_tol: float = 0.02,
                                gradient_of: Callable = None,
                                tail_floor: float = 0.0) -> VerificationReport:
    """For the heat flow u_t = u_xx/(4c) on a bounded interval with |u| < M:
    u_x <= 2N sqrt(c/(pi t)) exp(-inverf(u/N)^2), N = M / erf(sqrt(c) d / (2 sqrt t))
    with d the distance to the boundary.  Defect is relative to the bound.

    ``gradient_of(x, t)`` optionally supplies an analytic u_x; the default
    discrete gradient has a large relative error deep in the exponential
    tail, where the bound is near-equality.  With discrete gradients set
    ``tail_floor`` > 0 to skip nodes whose bound is below tail_floor times
    the per-snapshot peak bound (skipped count goes to the metadata).
    Raises PreconditionError when no interior node of a snapshot with t > 0
    is left to test.
    """
    grid = _grid(traj)
    if not isinstance(grid, Grid1D) or grid.topology != "bounded":
        raise PreconditionError("heat zero-counting check needs a bounded 1-D grid")
    x = grid.nodes()
    interior = slice(1, -1)
    dist = np.minimum(x - grid.x_lo, grid.x_hi - x)[interior]
    metadata = {"M": M, "c": c, "relative": True, "n_saturated": 0, "n_tail_skipped": 0}

    def sample(t, f):
        u = f.values
        if np.any(np.abs(u) > M * (1.0 + 1e-12)):
            raise PreconditionError(f"|u| > M at t = {t:g}")
        ux = (gradient_of(x, t) if gradient_of is not None
              else gradient(f)[..., 0])[interior]
        N = M / barriers.erf(np.sqrt(c) * dist / (2.0 * np.sqrt(t)))
        ratio = u[interior] / N
        # nodes where u/N rounds to +-1 have bound and gradient both
        # vanishing; the relative defect is ill-defined there
        live = np.abs(ratio) < 1.0 - 1e-12
        metadata["n_saturated"] += int(np.sum(~live))
        if not np.any(live):
            return -np.inf, None
        bound = (2.0 * N[live] * np.sqrt(c / (np.pi * t))
                 * np.exp(-barriers.inverf(ratio[live]) ** 2))
        keep = slice(None)
        if tail_floor > 0.0:
            keep = bound >= tail_floor * float(np.max(bound))
            metadata["n_tail_skipped"] += int(np.sum(~keep))
            if not np.any(keep):
                return -np.inf, None
        rel = (ux[live][keep] - bound[keep]) / bound[keep]
        i = int(np.argmax(rel))
        return float(rel[i]), {"t": float(t), "x": float(x[interior][live][keep][i]),
                               "u_x": float(ux[live][keep][i]), "bound": float(bound[keep][i])}

    return _report(
        "heat-zero-counting", (sample(t, f) for t, f in _scan(traj)),
        f"no snapshot with t > 0 has an unsaturated interior node above tail_floor {tail_floor:g}",
        rel_tol, metadata)


def convergence_to_initial_data(traj, omega: ModulusOfContinuity,
                                grid_tol: float = 0.0) -> VerificationReport:
    """Sphere-barrier bound |u(., t) - u0| <= sqrt(2nt) + omega(sqrt(2nt))
    at interior nodes, per snapshot with t > 0, with n the dimension of the
    field.  Raises PreconditionError when there is no such snapshot."""
    _grid(traj)
    u0 = traj.fields[0].values
    n = traj.fields[0].ndim
    interior = tuple(slice(1, -1) for _ in range(u0.ndim))

    def sample(t, f):
        r = np.sqrt(2.0 * n * t)
        delta = r + omega.omega(r)
        return (float(np.max(np.abs(f.values[interior] - u0[interior]))) - delta,
                {"t": float(t), "delta": float(delta)})

    return _report("convergence-to-initial-data", (sample(t, f) for t, f in _scan(traj)),
                   "no snapshot with t > 0 to compare with the initial data", grid_tol, {"n": n})
