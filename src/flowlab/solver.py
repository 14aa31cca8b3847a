"""Explicit monotone time integration of the catalog flows.

Every flow has the one form u_t = a^ij(Du) D_ij u (GraphFlowND, n = 1, 2
or 3), and one forward-Euler stepper advances a batch of solutions on a
leading axis.  Each step takes dt = cfl_safety / (2 max S), where S is the
node-wise stability coefficient of the scheme (|a|/h^2 in 1-D) and the
maximum runs over all nodes and members.  ``evolve`` is a batch of one;
``evolve_pair_ordered`` is a batch of two that also records the gap
series.  Cross-derivative terms use the diagonal stencil splitting, so the
update is order-preserving wherever the coefficient matrix is diagonally
dominant.  The stepper allocates its work buffers once and builds its step
once, as two closures over them (``rhs_and_dt`` and ``advance``), which
write every step in place, in the operation order of the term-by-term
formula, so results are the same bit for bit.  One max reduction per step
gives max |Du|^2 (for the gradient clip) and max S (for dt); a NaN max S
raises ``BlowUpError`` at that step.  A second reduction gives max|u| for
the blow-up guard, which looks at members one by one only when that
exceeds the smallest member limit; 1-D steps that the scheme proves
monotone skip it (see ``_Stepper``).
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
        # written so that NaN fails each test
        if not 0.0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.cfl_safety < 1.0:
            raise ValueError("cfl_safety must lie in (0, 1)")
        if not self.max_grad_clip > 0:
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
            manifest["grid"] = _grid_to_jsonable(self.snapshots[0][1].grid)
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

    The batch lives in one buffer with a ghost layer on every side.
    ``__init__`` builds the ghost, stencil and Dirichlet-face views into it,
    the work buffers of a step, and then the step itself: ``rhs_and_dt`` and
    ``advance`` are closures over those buffers and views and over the
    plan's numbers, so a step looks nothing up and only does arithmetic,
    written in place by ufunc calls with a positional ``out``.  There is one
    ``rhs_and_dt`` for n = 1 and one for cross terms, and one ``advance``;
    each takes Dirichlet faces when the bc has them.  The constants a step
    divides by (2h, h^2) or takes a maximum with (0) are 0-d float64 arrays
    made here: as operands they give the bits of the Python floats (NEP 50)
    at a lower cost per call.  Sums of terms keep the order cross terms
    first, then axes, so every float matches the term-by-term formula.
    Cross terms use the diagonal splitting.  The flow's ``coeff`` writes
    into a buffer of the stepper.  |Du|^2 and the stability sum S are rows of one buffer and
    share one reduction.  With n = 1 there are no cross terms and the rows
    are [|Du|^2, a, -a]: ``coeff`` writes a straight into the second row.
    max|a| = max(max a, max(-a)) bit for bit (a NaN gives NaN), and
    max S = max|a| / h^2 exactly, because correctly rounded division by
    h^2 > 0 is monotone.  A NaN max S raises ``BlowUpError`` at the step
    that met it.

    The blow-up guard compares one batch-wide max|u| with the smallest
    member limit and tests the members one by one only when that fails (a
    NaN fails both).  It is skipped on every monotone step: n = 1, no
    Dirichlet faces, max(-a) <= 0 (so every a >= 0 and none is NaN) and
    max a < ``a_cap``.  The first step that is not monotone turns the guard
    on for the rest of the run; ``guarded`` tells whether it is on.

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
        coeff, value = flow.coeff, bc.value
        max_grad_clip, cfl_safety, t_end = plan.max_grad_clip, plan.cfl_safety, plan.t_end
        dt_floor = 1e-14 * t_end
        h2 = h ** 2
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
        self.u = u = shifted((0,) * n)
        u[...] = u0
        grid_axes = tuple(range(1, n + 1))
        u_max = np.maximum(1.0, np.max(np.abs(u0), axis=grid_axes))
        limit = 1e6 * u_max
        limit_min = float(limit.min())
        # a monotone step with max a < a_cap has no intermediate above
        # max_float (see the class docstring); a NaN or inf in u0 gives 0
        cap = sys.float_info.max / (8.0 * float(u_max.max()) * max(1.0, 1.0 / h2))
        self.a_cap = a_cap = cap if cap > 1.0 else 0.0
        Du = np.empty(u.shape + (n,))
        grads = [Du[..., i] for i in range(n)]
        differences = [(g, shifted(e[i]), shifted(-e[i]), np.array(2 * ax.h))
                       for i, (g, ax) in enumerate(zip(grads, axes))]
        stencils = [(shifted(e[i]), shifted(-e[i]), np.array(ax.h ** 2))
                    for i, ax in enumerate(axes)]
        # |Du|^2 and the stability sum are rows of one buffer, so one
        # reduction over its flat view gives every maximum.  With n = 1 the
        # rows are |Du|^2, a and -a, and coeff writes a into the second one
        # (as (B, N, 1, 1)); with cross terms they are |Du|^2 and S, and
        # coeff writes into a buffer of its own
        rows = np.empty((3 if n == 1 else 2,) + u.shape)
        reduced = rows.reshape(len(rows), -1)
        gsq = rows[0]
        # work buffers: 2u, the rhs sum and one term at a time
        two_u, rhs, work = (np.empty(u.shape) for _ in range(3))

        # ghost <- source (periodic, neumann_zero), or <- 2 * source - second
        # for linear extrapolation (Dirichlet: boundary nodes are overwritten
        # after every step)
        copies, extrapolations = [], []
        for ax, N in enumerate(shape):
            if bc.kind == "dirichlet":
                extrapolations += [(ghost_layer(ax, d), ghost_layer(ax, a), ghost_layer(ax, b))
                                   for d, a, b in [(0, 1, 2), (N + 1, N, N - 1)]]
            else:
                src = {"periodic": (N, 1), "neumann_zero": (2, N - 1)}[bc.kind]
                copies += [(ghost_layer(ax, d), ghost_layer(ax, a))
                           for d, a in zip((0, N + 1), src)]

        # Dirichlet faces: with n = 1 each is one node, kept with its
        # coordinate x; else its grid shape and its rows of the mesh
        node_faces, faces = [], []
        dirichlet = bc.kind == "dirichlet"
        if dirichlet:
            mesh = np.stack(np.meshgrid(*[ax.nodes() for ax in axes], indexing="ij"), axis=-1)
            for ax in range(n):
                for side in (0, -1):
                    idx = tuple(side if d == ax else slice(None) for d in range(n))
                    points = mesh[idx].reshape(-1, n)
                    face = u[batch + idx]
                    if n == 1:
                        node_faces.append((face, points[0, 0]))
                    else:
                        faces.append((face, face.shape[1:], list(points)))

        def apply_dirichlet(t):
            for face, x in node_faces:
                face[...] = value(x, t)
            for face, face_shape, points in faces:
                # values come node by node; reshape them to the face's grid shape
                face[...] = np.array([value(p, t) for p in points]).reshape(face_shape)

        # the step: closures over the buffers, views and numbers above, with
        # the ufuncs bound once as closure variables
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        negative, absolute, maximum = np.negative, np.abs, np.maximum
        max_reduce = maximum.reduce

        def step_size(t, gsq_max, stab_max):
            # the gradient clip, then the CFL step; a NaN max S raises here
            # (it would fail stab_max > 0 and give dt = t_end)
            gmax = math.sqrt(gsq_max)
            if gmax > max_grad_clip:
                raise BlowUpError(f"|Du| = {gmax:.3g} exceeds max_grad_clip at t = {t:.3g}")
            if stab_max > 0:
                dt = cfl_safety / (2.0 * stab_max)
            elif stab_max == 0:
                dt = t_end
            else:
                raise BlowUpError(f"solution blow-up at t = {t:.3g}: NaN stability coefficient")
            if dt < dt_floor:
                raise SolverError(f"CFL time step underflow (dt = {dt:.3g})")
            return dt

        # the guard runs on every step unless steps may be monotone
        guarded = n > 1 or dirichlet
        if n == 1:
            a, neg_a = rows[1], rows[2]
            A = a[..., None, None]
            (g, p, m, two_h), = differences
            h2_axis = stencils[0][2]

            def rhs_and_dt(t):
                """a u_xx on the batch and the CFL step; the rhs is the
                stepper's own buffer, overwritten by the next call."""
                nonlocal guarded
                for ghost, src in copies:
                    ghost[...] = src
                for ghost, src, second in extrapolations:
                    add(src, src, ghost)
                    subtract(ghost, second, ghost)
                subtract(p, m, g)
                divide(g, two_h, g)
                coeff(Du, A)
                multiply(g, g, gsq)
                add(u, u, two_u)
                subtract(p, two_u, rhs)
                add(rhs, m, rhs)
                divide(rhs, h2_axis, rhs)
                multiply(rhs, a, rhs)
                negative(a, neg_a)
                gsq_max, a_max, neg_max = max_reduce(reduced, 1).tolist()
                # max|a|, NaN when a holds one; a NaN also fails neg_max <= 0
                if not (neg_max <= 0.0 and a_max < a_cap):
                    guarded = True
                return rhs, step_size(t, gsq_max, (a_max if a_max > neg_max else neg_max) / h2)
        else:
            stab = rows[1]
            zero, h2_0d = np.array(0.0), np.array(h2)
            A = np.empty(u.shape + (n, n))
            # the diagonal, and one more term with the split off-diagonal
            diag = [np.empty(u.shape) for _ in range(n)]
            term, pos, neg, off = (np.empty(u.shape) for _ in range(4))
            diagonal = [(d, A[..., i, i]) for i, d in enumerate(diag)]
            # cross term k goes straight into the rhs and S sums when k = 0,
            # else through term and work and is added on
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            cross = [(A[..., i, j], diag[i], diag[j], shifted(e[i] + e[j]), shifted(-e[i] - e[j]),
                      shifted(e[i] - e[j]), shifted(e[j] - e[i]), k > 0)
                     for k, (i, j) in enumerate(pairs)]
            axis_terms = [(d,) + s for d, s in zip(diag, stencils)]
            g0, later_grads = grads[0], grads[1:]

            def rhs_and_dt(t):
                """a^ij D_ij u on the batch and the CFL step from its
                node-wise stability coefficient maximised over all nodes and
                members; the rhs is the stepper's own buffer, overwritten by
                the next call."""
                for ghost, src in copies:
                    ghost[...] = src
                for ghost, src, second in extrapolations:
                    add(src, src, ghost)
                    subtract(ghost, second, ghost)
                for g, p, m, two_h in differences:
                    subtract(p, m, g)
                    divide(g, two_h, g)
                coeff(Du, A)
                # |Du|^2, summed over the axes in order
                multiply(g0, g0, gsq)
                for g in later_grads:
                    add(gsq, multiply(g, g, work), gsq)
                add(u, u, two_u)
                for d, aii in diagonal:
                    d[...] = aii
                for aij, di, dj, pp, mm, pm, mp, later in cross:
                    maximum(aij, zero, out=pos)
                    maximum(negative(aij, neg), zero, out=neg)
                    add(pos, neg, off)
                    out = term if later else rhs
                    subtract(pp, two_u, out)
                    add(out, mm, out)
                    divide(out, h2_0d, out)
                    multiply(out, pos, out)
                    subtract(pm, two_u, work)
                    add(work, mp, work)
                    divide(work, h2_0d, work)
                    multiply(work, neg, work)
                    add(out, work, out)
                    divide(off, h2_0d, work if later else stab)
                    if later:
                        add(rhs, term, rhs)
                        add(stab, work, stab)
                    subtract(di, off, di)
                    subtract(dj, off, dj)
                for d, p, m, h2_axis in axis_terms:
                    subtract(p, two_u, term)
                    add(term, m, term)
                    divide(term, h2_axis, term)
                    multiply(term, d, term)
                    add(rhs, term, rhs)
                    divide(absolute(d, work), h2_0d, work)
                    add(stab, work, stab)
                gsq_max, stab_max = max_reduce(reduced, 1).tolist()
                return rhs, step_size(t, gsq_max, stab_max)

        def advance(t_new, dt, rhs):
            """u += dt * rhs (rhs is scaled in place), then the Dirichlet
            faces and, unless every step so far was monotone, the blow-up
            guard."""
            multiply(rhs, dt, rhs)
            add(u, rhs, u)
            if dirichlet:
                apply_dirichlet(t_new)
            if guarded:
                # a NaN fails both comparisons
                au = absolute(u, work)
                if not max_reduce(au, None) <= limit_min:
                    if not (max_reduce(au, grid_axes) <= limit).all():
                        raise BlowUpError(f"solution blow-up at t = {t_new:.3g}")

        self.apply_dirichlet, self.rhs_and_dt, self.advance = apply_dirichlet, rhs_and_dt, advance
        self._guarded = lambda: guarded

    @property
    def guarded(self) -> bool:
        """Whether ``advance`` runs the blow-up guard."""
        return self._guarded()


def prep_output_times(plan: TimeStepPlan, output_times) -> list:
    """The output times sorted, or [t_end] for None; raises ValueError when a
    time lies outside (0, t_end] or repeats."""
    if output_times is None:
        out = [plan.t_end]
    else:
        out = sorted(float(t) for t in output_times)
    if not all(0 < t <= plan.t_end + 1e-12 for t in out):  # NaN lies in no range
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
    bc = BoundaryCondition("dirichlet", value=lambda x, t: 0.0 if x <= 0.0 else 1.0)
    traj = evolve(_auxiliary_phi_flow(profile), Field(grid, u0), bc, plan, output_times)
    slopes = []
    for t, f in traj.snapshots:
        v = f.values
        slopes.append(float((-3 * v[0] + 4 * v[1] - v[2]) / (2 * grid.h)))
    return traj, slopes


def _auxiliary_phi_flow(profile: DegeneracyProfile) -> GraphFlowND:
    """The n = 1 flow phi_t = 4 alpha_tilde(|phi'|) phi'' of ``solve_auxiliary_phi``."""
    alpha_tilde = profile.alpha_tilde

    def a(p, out=None):
        return np.multiply(4.0, np.asarray(alpha_tilde(np.abs(p)), dtype=float), out=out)

    return scalar_flow(
        a,
        A0=4.0 * profile.A0,
        P=profile.P,
        Lambda_of_K=lambda K: 4.0 * max(float(alpha_tilde(s)) for s in np.linspace(0, K, 65)),
        name="auxiliary-phi",
    )
