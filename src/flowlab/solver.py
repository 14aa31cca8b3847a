"""Explicit monotone time integration of the catalog flows.

Every flow has the one form u_t = a^ij(Du) D_ij u (GraphFlowND, n = 1, 2
or 3), and one forward-Euler stepper advances a batch of solutions on a
leading axis.  Each step takes dt = cfl_safety / (2 max S), where S is the
node-wise stability coefficient of the scheme (|a|/h^2 in 1-D) and the
maximum runs over all nodes and members.  ``evolve`` is a batch of one;
``evolve_pair_ordered`` is a batch of two that also records the gap
series.  Cross-derivative terms use the diagonal stencil splitting, so the
update is order-preserving wherever the coefficient matrix is diagonally
dominant.  The stepper allocates its work buffers once and writes every
step into them in place, in the operation order of the term-by-term
formula, so results are the same bit for bit.  One max reduction per step
gives max |Du|^2 (for the gradient clip) and max S (for dt).  A second one
gives max|u| for the blow-up guard, which looks at members one by one only
when that exceeds the smallest member limit; 1-D steps that the scheme
proves monotone skip it (see ``_Stepper``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import Field, Grid1D, _coordinate_cells, _grid_to_jsonable, _write_csv
from .flows import DegeneracyProfile, GraphFlowND, scalar_flow

__all__ = [
    "BoundaryCondition",
    "TimeStepPlan",
    "Trajectory",
    "SolverError",
    "BlowUpError",
    "evolve",
    "evolve_pair_ordered",
    "prep_output_times",
    "solve_auxiliary_phi",
]


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    pass


@dataclass(frozen=True)
class BoundaryCondition:
    """periodic | dirichlet(value(x, t)) | neumann_zero."""

    kind: str
    value: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("periodic", "dirichlet", "neumann_zero"):
            raise ValueError(f"unknown bc kind {self.kind!r}")
        if self.kind == "dirichlet" and self.value is None:
            raise ValueError("dirichlet bc needs a value callable")


@dataclass(frozen=True)
class TimeStepPlan:
    t_end: float
    cfl_safety: float = 0.5
    max_grad_clip: float = 100.0

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ValueError("cfl_safety must lie in (0, 1)")
        if self.max_grad_clip <= 0:
            raise ValueError("max_grad_clip must be positive")


@dataclass
class Trajectory:
    """Snapshots (time, Field) at the requested output times."""

    snapshots: list = field(default_factory=list)
    dt_stats: dict = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    @property
    def fields(self) -> list:
        return [f for _, f in self.snapshots]

    def append(self, t: float, f: Field) -> None:
        if self.snapshots and t <= self.snapshots[-1][0]:
            raise ValueError("snapshot times must be strictly increasing")
        self.snapshots.append((t, f))

    def export(self, out_dir, flow_id: str = "", bc: str = "", extra: dict | None = None):
        import os

        clash = shared_snapshot_name(t for t, _ in self.snapshots)
        if clash:
            raise ValueError(clash)
        fields_dir = os.path.join(out_dir, "fields")
        os.makedirs(fields_dir, exist_ok=True)
        # the coordinate column is formatted once per grid, not per snapshot
        cells = {}
        for t, f in self.snapshots:
            if f.grid not in cells:
                cells[f.grid] = _coordinate_cells(f.grid)
            _write_csv(f, os.path.join(fields_dir, snapshot_file_name(t)), cells[f.grid])
        manifest = {
            "flow": flow_id,
            "bc": bc,
            "output_times": [t for t, _ in self.snapshots],
            "dt_stats": self.dt_stats,
        }
        if self.snapshots:
            manifest["grid"] = _grid_to_jsonable(self.snapshots[0][1].grid)["axes"]
        if extra:
            manifest.update(extra)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return manifest


def snapshot_file_name(t: float) -> str:
    """The file under ``fields/`` that ``Trajectory.export`` writes for time t."""
    return f"t={t:.6g}.csv"


def shared_snapshot_name(times) -> str:
    """A message naming the first two times whose snapshots would be written
    to one file by ``Trajectory.export``, or '' when all names differ."""
    seen = {}
    for t in times:
        name = snapshot_file_name(t)
        if name in seen:
            return (f"times {seen[name]!r} and {t!r} would both be written to fields/{name}; "
                    f"output times must differ in their first 6 significant digits")
        seen[name] = t
    return ""


# --- time stepping ----------------------------------------------------------


def _check_bc_compatible(grid, bc: BoundaryCondition):
    for ax in grid.axes:
        if bc.kind == "periodic" and ax.topology != "periodic":
            raise SolverError("periodic bc on a bounded grid")
        if bc.kind in ("dirichlet", "neumann_zero") and ax.topology != "bounded":
            raise SolverError(f"{bc.kind} bc needs a bounded grid")


class _Stepper:
    """Explicit Euler for u_t = a^ij(Du) D_ij u on a batch (B, *grid shape).

    The batch lives in one buffer with a ghost layer on every side.  The
    ghost, stencil and Dirichlet-face views into it, and the work buffers of
    a step, are built once, so a step only does arithmetic, written in place
    with ``out=`` ufuncs.  Sums of terms keep the order cross terms first,
    then axes, so every float matches the term-by-term formula.  Cross terms
    use the diagonal splitting.  The flow's ``coeff`` writes into a buffer
    of the stepper.  |Du|^2 and the stability sum S are rows of one buffer
    and share one reduction.  With n = 1 there are no cross terms and the
    rows are [|Du|^2, a, -a]: ``coeff`` writes a straight into the second
    row.  max|a| = max(max a, max(-a)) bit for bit (a NaN gives NaN), and
    max S = max|a| / h^2 exactly, because correctly rounded division by
    h^2 > 0 is monotone.  The plan's numbers are read into attributes, and
    the buffers and views a step uses into the tuple ``hot``, once.

    The blow-up guard compares one batch-wide max|u| with the smallest
    member limit and tests the members one by one only when that fails (a
    NaN fails both).  It is skipped on every monotone step: n = 1, no
    Dirichlet faces, max(-a) <= 0 (so every a >= 0 and none is NaN) and
    max a < ``a_cap``.  The first step that is not monotone turns the guard
    on for the rest of the run.

    Why monotone steps from u0 on cannot trip the guard.  Periodic and
    neumann_zero ghosts copy interior values, and dt <= cfl_safety h^2 /
    (2 max a), so in exact arithmetic the update of node i,
    u_i + dt a_i (u_{i+1} - 2 u_i + u_{i-1}) / h^2, is the convex
    combination (1 - 2 l_i) u_i + l_i (u_{i+1} + u_{i-1}) with
    0 <= l_i = dt a_i / h^2 <= 1/2, of size at most M = max|u|.  Referred to
    the result, with u_r = 2^-53, the roundings of the two sums err by at
    most 1.5 u_r M and 2 u_r M, those of / h^2, * a and * dt by 2 u_r M
    each, and u += by u_r M; rounding dt can put l_i above 1/2 by about
    u_r, which adds 2 u_r M.  So a monotone step multiplies max|u| by at
    most 1 + 13 u_r, less than 1.01 over 10^12 steps, and each member's
    limit is 1e6 max(1, its max|u0|).  No intermediate overflows: each is
    at most 4 M max(1, a) max(1, 1/h^2) with M < 2 U, U = max(1, max|u0|)
    over the batch, and a_cap = max_float / (8 U max(1, 1/h^2)), or 0 when
    that is not above 1 (as for U = inf or NaN).
    """

    def __init__(self, flow: GraphFlowND, grid, u0: np.ndarray, bc: BoundaryCondition,
                 plan: TimeStepPlan):
        _check_bc_compatible(grid, bc)
        axes = grid.axes
        n = len(axes)
        if flow.n != n:
            raise SolverError(f"flow {flow.name!r} is {flow.n}-D but the grid is {n}-D")
        h = axes[0].h
        if any(abs(ax.h - h) > 1e-12 * h for ax in axes):
            raise SolverError("graph flows with n > 1 need equal axis spacing")
        self.bc, self.coeff = bc, flow.coeff
        self.max_grad_clip, self.cfl_safety, self.t_end = (
            plan.max_grad_clip, plan.cfl_safety, plan.t_end)
        self.dt_floor = 1e-14 * plan.t_end
        self.h2 = h ** 2
        shape = u0.shape[1:]
        up = np.empty((u0.shape[0],) + tuple(s + 2 for s in shape))
        batch = (slice(None),)

        def shifted(offsets):
            return up[batch + tuple(slice(1 + o, s + 1 + o) for o, s in zip(offsets, shape))]

        def ghost_layer(ax, k):
            # padded index k on axis ax; ghosts of earlier axes are included
            return up[batch + tuple(slice(None) if d < ax else k if d == ax
                                         else slice(1, -1) for d in range(n))]

        e = np.eye(n, dtype=int)
        self.u = shifted((0,) * n)
        self.u[...] = u0
        self.grid_axes = tuple(range(1, n + 1))
        u_max = np.maximum(1.0, np.max(np.abs(u0), axis=self.grid_axes))
        self.limit = 1e6 * u_max
        self.limit_min = float(self.limit.min())
        # a monotone step with max a < a_cap has no intermediate above
        # max_float (see the class docstring); a NaN or inf in u0 gives 0
        cap = sys.float_info.max / (8.0 * float(u_max.max()) * max(1.0, 1.0 / self.h2))
        self.a_cap = cap if cap > 1.0 else 0.0
        self.Du = np.empty(self.u.shape + (n,))
        self.grads = [self.Du[..., i] for i in range(n)]
        self.differences = [(g, shifted(e[i]), shifted(-e[i]), 2 * ax.h)
                            for i, (g, ax) in enumerate(zip(self.grads, axes))]
        self.stencils = [(shifted(e[i]), shifted(-e[i]), ax.h ** 2) for i, ax in enumerate(axes)]
        self.cross = [(i, j, shifted(e[i] + e[j]), shifted(-e[i] - e[j]),
                       shifted(e[i] - e[j]), shifted(e[j] - e[i]))
                      for i in range(n) for j in range(i + 1, n)]
        # |Du|^2 and the stability sum are rows of one buffer, so one
        # reduction over its flat view gives every maximum.  With n = 1 the
        # rows are |Du|^2, a and -a, and coeff writes a into the second one
        # (as (B, N, 1, 1)); with cross terms they are |Du|^2 and S, and
        # coeff writes into a buffer of its own
        rows = np.empty((2 if self.cross else 3,) + self.u.shape)
        self.reduced = rows.reshape(len(rows), -1)
        if self.cross:
            self.gsq, self.stab = rows
            self.A = np.empty(self.u.shape + (n, n))
        else:
            self.gsq, self.a, self.neg_a = rows
            self.A = self.a[..., None, None]
        # work buffers: 2u, the rhs sum, one term at a time, and with cross
        # terms one more term, the diagonal and the split off-diagonal
        self.two_u, self.rhs, self.work = (np.empty(self.u.shape) for _ in range(3))
        if self.cross:
            self.diag = [np.empty(self.u.shape) for _ in range(n)]
            self.term, self.pos, self.neg, self.off = (np.empty(self.u.shape) for _ in range(4))

        # ghost <- source, or <- 2 * source - second for linear extrapolation
        # (Dirichlet: boundary nodes are overwritten after every step)
        self.ghosts = []
        for ax, N in enumerate(shape):
            rules = {"periodic": [(0, N, None), (N + 1, 1, None)],
                     "neumann_zero": [(0, 2, None), (N + 1, N - 1, None)],
                     "dirichlet": [(0, 1, 2), (N + 1, N, N - 1)]}[bc.kind]
            self.ghosts += [(ghost_layer(ax, d), ghost_layer(ax, a),
                             None if b is None else ghost_layer(ax, b)) for d, a, b in rules]

        # Dirichlet faces: with n = 1 each is one node, kept with its
        # coordinate x; else its grid shape and its rows of the mesh
        self.node_faces, self.faces = [], []
        if bc.kind == "dirichlet":
            mesh = np.stack(np.meshgrid(*[ax.nodes() for ax in axes], indexing="ij"), axis=-1)
            for ax in range(n):
                for side in (0, -1):
                    idx = tuple(side if d == ax else slice(None) for d in range(n))
                    points = mesh[idx].reshape(-1, n)
                    face = self.u[batch + idx]
                    if n == 1:
                        self.node_faces.append((face, points[0, 0]))
                    else:
                        self.faces.append((face, face.shape[1:], list(points)))
        self.hot = (self.ghosts, self.differences, self.coeff, self.Du, self.A, self.grads,
                    self.u, self.h2, self.two_u, self.rhs, self.gsq, self.work)
        # the guard runs on every step unless steps may be monotone
        self.dirichlet = bc.kind == "dirichlet"
        self.guarded = n > 1 or self.dirichlet

    def apply_dirichlet(self, t: float) -> None:
        value = self.bc.value
        for face, x in self.node_faces:
            face[...] = value(x, t)
        for face, shape, points in self.faces:
            # values come node by node; reshape them to the face's grid shape
            face[...] = np.array([value(p, t) for p in points]).reshape(shape)

    def rhs_and_dt(self, t: float):
        """a^ij D_ij u on the batch, and the CFL step from its node-wise
        stability coefficient maximised over all nodes and members.

        The rhs is the stepper's own buffer, overwritten by the next call.
        """
        (ghosts, differences, coeff, Du, A, grads, u, h2, two_u, rhs, gsq,
         work) = self.hot
        for ghost, a, b in ghosts:
            if b is None:
                ghost[...] = a
            else:
                np.add(a, a, out=ghost)
                ghost -= b
        for g, p, m, two_h in differences:
            np.subtract(p, m, out=g)
            np.divide(g, two_h, out=g)
        A = coeff(Du, A)
        # |Du|^2, summed over the axes in order
        g = grads[0]
        np.multiply(g, g, out=gsq)
        for g in grads[1:]:
            gsq += np.multiply(g, g, out=work)
        np.add(u, u, out=two_u)

        if self.cross:
            # term k of the rhs and of stab goes straight into the sum when
            # k = 0, else through term/work and is added on
            stab, diag, term, pos, neg, off = (
                self.stab, self.diag, self.term, self.pos, self.neg, self.off)
            for i, d in enumerate(diag):
                np.copyto(d, A[..., i, i])
            k = 0
            for i, j, pp, mm, pm, mp in self.cross:
                aij = A[..., i, j]
                np.maximum(aij, 0.0, out=pos)
                np.maximum(np.negative(aij, out=neg), 0.0, out=neg)
                np.add(pos, neg, out=off)
                out = term if k else rhs
                np.subtract(pp, two_u, out=out)
                out += mm
                out /= h2
                out *= pos
                np.subtract(pm, two_u, out=work)
                work += mp
                work /= h2
                work *= neg
                out += work
                np.divide(off, h2, out=work if k else stab)
                if k:
                    rhs += term
                    stab += work
                diag[i] -= off
                diag[j] -= off
                k += 1
            for d, (p, m, h2_axis) in zip(diag, self.stencils):
                np.subtract(p, two_u, out=term)
                term += m
                term /= h2_axis
                term *= d
                rhs += term
                np.divide(np.abs(d, out=work), h2, out=work)
                stab += work
            gsq_max, stab_max = np.maximum.reduce(self.reduced, axis=1).tolist()
        else:
            # n = 1: the rows are |Du|^2, a and -a
            a = self.a
            p, m, h2_axis = self.stencils[0]
            np.subtract(p, two_u, out=rhs)
            rhs += m
            rhs /= h2_axis
            rhs *= a
            np.negative(a, out=self.neg_a)
            gsq_max, a_max, neg_max = np.maximum.reduce(self.reduced, axis=1).tolist()
            # max|a|, NaN when a holds one; a NaN also fails neg_max <= 0
            stab_max = (a_max if a_max > neg_max else neg_max) / h2
            if not (neg_max <= 0.0 and a_max < self.a_cap):
                self.guarded = True
        gmax = math.sqrt(gsq_max)
        if gmax > self.max_grad_clip:
            raise BlowUpError(f"|Du| = {gmax:.3g} exceeds max_grad_clip at t = {t:.3g}")
        dt = self.cfl_safety / (2.0 * stab_max) if stab_max > 0 else self.t_end
        if dt < self.dt_floor:
            raise SolverError(f"CFL time step underflow (dt = {dt:.3g})")
        return rhs, dt

    def advance(self, t_new: float, dt: float, rhs: np.ndarray) -> None:
        """u += dt * rhs (rhs is scaled in place), then the Dirichlet faces
        and, unless every step so far was monotone, the blow-up guard."""
        u = self.u
        rhs *= dt
        u += rhs
        if self.dirichlet:
            self.apply_dirichlet(t_new)
        if self.guarded:
            # a NaN fails both comparisons
            au = np.abs(u, out=self.work)
            if not np.maximum.reduce(au, axis=None) <= self.limit_min:
                if not (np.maximum.reduce(au, axis=self.grid_axes) <= self.limit).all():
                    raise BlowUpError(f"solution blow-up at t = {t_new:.3g}")


def prep_output_times(plan: TimeStepPlan, output_times) -> list:
    """The output times sorted, or [t_end] for None; raises ValueError when a
    time lies outside (0, t_end] or repeats."""
    if output_times is None:
        out = [plan.t_end]
    else:
        out = sorted(float(t) for t in output_times)
    if any(t <= 0 or t > plan.t_end + 1e-12 for t in out):
        raise ValueError("output times must lie in (0, t_end]")
    if any(a == b for a, b in zip(out, out[1:])):
        raise ValueError("output times must not repeat")
    return out


def _evolve_batch(flow, fields: Sequence[Field], bc: BoundaryCondition, plan: TimeStepPlan,
                  output_times, gaps: list | None = None) -> list:
    """Evolve fields on one grid as a batch with one dt sequence.

    Returns one Trajectory per field.  When ``gaps`` is a list it receives
    min over nodes of (u[1] - u[0]) at t = 0 and after every step.
    """
    grid = fields[0].grid
    stepper = _Stepper(flow, grid, np.stack([f.values for f in fields]), bc, plan)
    pending = prep_output_times(plan, output_times)
    trajs = [Trajectory() for _ in fields]
    for traj, f in zip(trajs, fields):
        traj.append(0.0, f)

    u = stepper.u
    stepper.apply_dirichlet(0.0)
    if gaps is not None:
        gap = np.empty(u.shape[1:])

        def record_gap():
            gaps.append(float(np.minimum.reduce(np.subtract(u[1], u[0], out=gap), axis=None)))

        record_gap()
    rhs_and_dt, advance = stepper.rhs_and_dt, stepper.advance
    t = 0.0
    n_steps = 0
    dt_min, dt_max = np.inf, 0.0
    while pending:
        t_next = pending[0]
        rhs, dt = rhs_and_dt(t)
        # the same picks as min(dt, t_next - t), min(dt_min, dt), max(dt_max, dt)
        if t_next - t < dt:
            dt = t_next - t
        t += dt
        advance(t, dt, rhs)
        n_steps += 1
        if dt < dt_min:
            dt_min = dt
        if dt > dt_max:
            dt_max = dt
        if gaps is not None:
            record_gap()
        if t >= t_next - 1e-14:
            t = pending.pop(0)
            for traj, values in zip(trajs, u):
                traj.append(t, Field(grid, values.copy(), time=t))
    for traj in trajs:
        traj.dt_stats = {"n_steps": n_steps, "dt_min": dt_min, "dt_max": dt_max}
    return trajs


def evolve(flow, u0: Field, bc: BoundaryCondition, plan: TimeStepPlan,
           output_times: Sequence[float] | None = None) -> Trajectory:
    """Forward-Euler evolution; snapshots at t = 0 and each output time."""
    (traj,) = _evolve_batch(flow, [u0], bc, plan, output_times)
    return traj


def evolve_pair_ordered(flow, u0_low: Field, u0_high: Field, bc: BoundaryCondition,
                        plan: TimeStepPlan, output_times: Sequence[float] | None = None):
    """Evolve an ordered pair as a batch of two with one dt sequence.

    Returns (traj_low, traj_high, min_gap_series) where the gap series holds
    min over nodes of (high - low) initially and after every step.
    """
    if u0_low.grid != u0_high.grid:
        raise ValueError("the pair must share one grid")
    if np.any(u0_low.values > u0_high.values):
        raise ValueError("initial data not ordered: u0_low > u0_high somewhere")
    gaps = []
    traj_lo, traj_hi = _evolve_batch(flow, [u0_low, u0_high], bc, plan, output_times, gaps)
    return traj_lo, traj_hi, np.array(gaps)


def solve_auxiliary_phi(profile: DegeneracyProfile, grid: Grid1D, plan: TimeStepPlan,
                        output_times: Sequence[float] | None = None):
    """Evolve the auxiliary 1-D barrier phi_t = 4 alpha_tilde(|phi'|) phi''.

    Initial data is a steep ramp of width 2h pinned to 0 at z = 0 and to 1
    at the far boundary.  Returns (trajectory, one-sided phi'(0, t) list).
    """
    if grid.topology != "bounded" or grid.x_lo != 0.0:
        raise ValueError("auxiliary phi needs a bounded grid on [0, Z_max]")
    z = grid.nodes()
    u0 = np.clip(z / (2 * grid.h), 0.0, 1.0)
    alpha_tilde = profile.alpha_tilde

    def a(p, out=None):
        return np.multiply(4.0, np.asarray(alpha_tilde(np.abs(p)), dtype=float), out=out)

    flow = scalar_flow(
        a,
        A0=4.0 * profile.A0,
        P=profile.P,
        lambda_of_K=lambda K: 0.0,
        Lambda_of_K=lambda K: 4.0 * max(float(alpha_tilde(s)) for s in np.linspace(0, K, 65)),
        name="auxiliary-phi",
    )
    bc = BoundaryCondition("dirichlet", value=lambda x, t: 0.0 if x <= 0.0 else 1.0)
    traj = evolve(flow, Field(grid, u0), bc, plan, output_times)
    slopes = []
    for t, f in traj.snapshots:
        v = f.values
        slopes.append(float((-3 * v[0] + 4 * v[1] - v[2]) / (2 * grid.h)))
    return traj, slopes
