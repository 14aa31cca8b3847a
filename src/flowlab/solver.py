"""Explicit monotone time integration of the catalog flows.

Every flow has the one form u_t = a^ij(Du) D_ij u (GraphFlowND, n = 1, 2
or 3), and one forward-Euler stepper advances a batch of solutions on one
grid, on a leading axis.  Each step takes dt = cfl_safety / (2 max S),
where S is the node-wise stability coefficient of the scheme (|a|/h^2 in
1-D) and the maximum runs over all nodes and members.  ``evolve`` is a
batch of one; ``evolve_pair_ordered`` is a batch of two that also records
the gap series.  Cross-derivative terms use the diagonal stencil
splitting, so the update is order-preserving wherever the coefficient
matrix is diagonally dominant, for frozen coefficients only: a(Du) is
taken from each solution's own central differences, and steep ordered
mcf2d pairs cross by -1.8e-5 to -5.4e-5 (ROADMAP item 3).  Each evolve
builds its own stepper; the ``_Stepper`` docstring gives its time loop,
its stencil views (contiguous slices of each member's padded block at flat
offsets, with reductions over the interior), its ufunc calls per step, its
blow-up guard and why its snapshots, all on the grid of the batch, need no
``Field`` checks.  A ``Trajectory`` holds the snapshots of one solution, on
one grid.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import Field, _coordinate_cells, _grid_to_jsonable, _unchecked_field, _write_csv
from .flows import GraphFlowND

__all__ = [
    "BoundaryCondition",
    "TimeStepPlan",
    "Trajectory",
    "SolverError",
    "BlowUpError",
    "evolve",
    "evolve_pair_ordered",
    "prep_output_times",
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
    """Snapshots (time, Field) at the requested output times, all on the
    grid of the first (``grid``): another grid is a ValueError."""

    snapshots: list = field(default_factory=list)
    dt_stats: dict = field(default_factory=dict)

    def __post_init__(self):
        for _, f in self.snapshots:
            self._check_grid(f)

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    @property
    def fields(self) -> list:
        return [f for _, f in self.snapshots]

    @property
    def grid(self):
        return self.snapshots[0][1].grid

    def _check_grid(self, f: Field) -> None:
        if f.grid != self.grid:
            raise ValueError("the snapshots of a trajectory must share one grid")

    def append(self, t: float, f: Field) -> None:
        if self.snapshots:
            if t <= self.snapshots[-1][0]:
                raise ValueError("snapshot times must be strictly increasing")
            self._check_grid(f)
        self.snapshots.append((t, f))

    def export(self, out_dir, flow_id: str = "", bc: str = "", extra: dict | None = None):
        import os

        clash = shared_snapshot_name(t for t, _ in self.snapshots)
        if clash:
            raise ValueError(clash)
        fields_dir = os.path.join(out_dir, "fields")
        os.makedirs(fields_dir, exist_ok=True)
        manifest = {
            "flow": flow_id,
            "bc": bc,
            "output_times": [t for t, _ in self.snapshots],
            "dt_stats": self.dt_stats,
        }
        if self.snapshots:
            cells = _coordinate_cells(self.grid)  # formatted once, for every snapshot
            for t, f in self.snapshots:
                _write_csv(f, os.path.join(fields_dir, snapshot_file_name(t)), cells)
            manifest["grid"] = _grid_to_jsonable(self.grid)
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
    ``__init__`` writes u0 (one array per member) into it, builds the
    ghost, stencil and Dirichlet-face views into it and the work buffers of
    a step, sets the member limits, ``a_cap`` and the guard flag from u0,
    writes the Dirichlet faces at t = 0 and the ghosts, and builds ``run``,
    one closure over all of these and the plan's numbers.  A build is
    cheap, so every evolve builds its own stepper.  When ``gaps`` is a list
    it receives min over nodes of (u[1] - u[0]) at t = 0 and after every
    step.

    The stencil views sit at flat offsets.  In each member's flattened padded
    block the view at an offset o in {-1, 0, 1}^n is one contiguous slice
    ``up[:, c0 + off : c0 + off + L]`` of shape (B, L): c0 is the flat index
    of the first interior node, off = sum_i o_i stride_i, and L = N_1
    stride_1 entries cover every interior node.  With n = 1, L = N and these
    are the interior windows shifted by -1, 0 and +1.  With n >= 2 the span
    also holds the ghost lanes between rows and ends in the last ghost
    layer, and the batch buffer keeps 2 (c0 - stride_1) spare entries, zero,
    after each member's block for the end of the view at (1, ..., 1); so
    every ufunc of a step runs one unit-stride loop per member.  ``Du``,
    ``A``, the rhs and the work buffers are contiguous (B, L) arrays, and
    the update u += dt rhs writes the ghost lanes too; the ghost refresh of
    every step covers whole layers, corners included, so it rewrites them
    before the next step reads them.  On a ghost lane each component of Du
    is a difference of two padded values over 2h, as on a real lane, so it
    obeys the same bound, max|padded u| / h.  The row maxima, the gradient
    clip, the guard, the gaps and the snapshots read interior views, which
    are a reshape and a slice of the (B, L) buffers; ``u`` and ``rhs`` are
    such (B, *grid) views.

    ``run(t, times, trajs)`` is the time loop of an evolve.  Each pass makes
    one whole step: the rhs, left unscaled in the buffer ``rhs``; the
    gradient clip and the CFL step dt, clipped to the next output time;
    u += dt rhs; the Dirichlet faces and the ghosts for the next step; the
    blow-up guard; the gap; and the dt stats.  At each output time it
    appends a snapshot to every trajectory in ``trajs``.  ``step(t,
    t_next)`` is one pass of the same loop.  The rhs and the row maxima come
    from ``terms``, picked at build: one for n = 1, one with cross terms.
    So a step looks nothing up and only does arithmetic, written in place
    by ufunc calls with a positional ``out``.  The constants a step divides
    by (2h, h^2) or takes a maximum with (0), and dt, are 0-d float64
    arrays: as operands they give the bits of the Python floats (NEP 50) at
    a lower cost per call.  Sums of terms keep the order cross terms first,
    then axes, so every float matches the term-by-term formula.  Cross
    terms use the diagonal splitting.  |Du|^2 and the stability sum S are
    rows of one buffer, and one reduction gives every row's maximum.  With
    cross terms the rows are [|Du|^2, S], one ``maximum.reduce`` over their
    interior view gives both maxima, and ``coeff`` writes into a buffer of
    its own, ``A``.  ``Du`` and ``A`` have the shapes (..., n) and
    (..., n, n) but are entry-major in memory:
    each gradient component and each a^ij is one contiguous plane, so the
    coefficient's per-entry writes and the terms' reads run over unit
    strides, with the same operations and bits as a trailing-axis layout.
    The diagonal splitting subtracts each split off-diagonal from the
    diagonal planes of ``A`` in place, which ``coeff`` writes anew each step.

    With n = 1 the rows are [|Du|^2, a, -a], reduced by one
    ``maximum.reduceat`` over their flat view.  A catalog coefficient's
    squared form ``coeff.a_of_sq`` (see ``flows.GraphFlowND``) writes a into
    the second row from the first, so one product g * g feeds both the
    coefficient and the gradient clip; any other ``coeff`` is called as
    ``coeff(Du, A)`` in its place, with A a view of that row.  A csf step is
    14 ufunc calls: Du (2), |Du|^2 (1), a (2), the rhs (5), -a (1), the row
    maxima (1) and the update (2).  max|a| = max(max a, max(-a)) bit for
    bit (a NaN gives NaN), and max S = max|a| / h^2 exactly, because
    correctly rounded division by h^2 > 0 is monotone.  A NaN max S raises
    ``BlowUpError`` at the step that met it.

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

    Hence the snapshot invariant: after every step that returns, u is
    finite, for finite u0.  Monotone steps stay bounded, as above, and
    every other step is guarded, and the guard raises on inf and NaN.  The
    batch has the grid's shape by construction, so ``run`` wraps copies of
    u as snapshots without ``Field``'s shape and finiteness checks.
    """

    def __init__(self, flow: GraphFlowND, grid, u0, bc: BoundaryCondition, plan: TimeStepPlan,
                 gaps: list | None = None):
        _check_bc_compatible(grid, bc)
        axes = grid.axes
        n = len(axes)
        if flow.n != n:
            raise SolverError(f"flow {flow.name!r} is {flow.n}-D but the grid is {n}-D")
        h = axes[0].h
        if any(abs(ax.h - h) > 1e-12 * h for ax in axes):
            raise SolverError("graph flows with n > 1 need equal axis spacing")
        coeff, value = flow.coeff, bc.value
        h2 = h ** 2
        shape = grid.shape
        padded = tuple(s + 2 for s in shape)
        B = len(u0)
        every, inner = slice(None), slice(1, -1)
        # flat offsets: in a member's flattened padded block the node at
        # padded index k sits at sum_i k_i stride_i, and the view at offset o
        # in {-1, 0, 1}^n is one contiguous slice of span = N_1 stride_1
        # entries from the first interior node shifted by o.  Spare zero
        # entries after each block hold the end of the view at (1, ..., 1)
        stride = [math.prod(padded[i + 1:]) for i in range(n)]
        origin, span, block = sum(stride), shape[0] * stride[0], math.prod(padded)
        blocks = np.zeros((B, block + 2 * (origin - stride[0])))
        up = blocks[:, :block].reshape((B,) + padded)

        def at(offset):
            return blocks[:, origin + offset:origin + offset + span]

        keep = (Ellipsis,) + tuple(slice(0, s) for s in shape[1:])

        def interior(buf):
            """The (..., B, *shape) view of the grid nodes in buf (..., B, span)."""
            return buf.reshape(buf.shape[:-1] + (shape[0],) + padded[1:])[keep]

        def ghost_layer(ax, k):
            # padded index k on axis ax; ghosts of earlier axes are included
            return up[(every,) * (ax + 1) + (k,) + (inner,) * (n - 1 - ax)]

        self.u = u = up[(every,) + (inner,) * n]
        u_span = at(0)
        grid_axes = tuple(range(1, n + 1))
        # entry-major: each gradient component is a contiguous plane
        Du = np.moveaxis(np.empty((n, B, span)), 0, -1)
        grads = [Du[..., i] for i in range(n)]
        differences = [(g, at(st), at(-st), np.array(2 * ax.h))
                       for g, st, ax in zip(grads, stride, axes)]
        # |Du|^2 and the stability sum are rows of one buffer.  With n = 1
        # the rows are |Du|^2, a and -a, the coefficient is written into the
        # second one, and one reduceat over the flat view gives every row's
        # maximum; with cross terms they are |Du|^2 and S, reduced over their
        # interior, and coeff writes into a buffer of its own
        rows = np.empty((3 if n == 1 else 2, B, span))
        gsq = rows[0]
        # work buffers: 2u, the rhs sum and one term (or the increment) at a time
        rhs, work, two_u = (np.empty((B, span)) for _ in range(3))
        self.rhs, work_in = interior(rhs), interior(work)
        lo, hi = u[0], u[-1]

        # ghost <- source (periodic, neumann_zero), or <- 2 * source - second
        # for linear extrapolation (Dirichlet: boundary nodes are overwritten
        # after every step)
        copies, extrapolations = [], []
        dirichlet = bc.kind == "dirichlet"
        for ax, N in enumerate(shape):
            first, last = ghost_layer(ax, 0), ghost_layer(ax, N + 1)
            if dirichlet:
                extrapolations += [(first, ghost_layer(ax, 1), ghost_layer(ax, 2)),
                                   (last, ghost_layer(ax, N), ghost_layer(ax, N - 1))]
            elif bc.kind == "periodic":
                copies += [(first, ghost_layer(ax, N)), (last, ghost_layer(ax, 1))]
            else:
                copies += [(first, ghost_layer(ax, 2)), (last, ghost_layer(ax, N - 1))]

        # Dirichlet faces: with n = 1 each is one node, kept with its
        # coordinate x; else its grid shape and its rows of the mesh
        node_faces, faces = [], []
        if dirichlet:
            mesh = np.stack(np.meshgrid(*[ax.nodes() for ax in axes], indexing="ij"), axis=-1)
            for ax in range(n):
                for side in (0, -1):
                    idx = tuple(side if d == ax else every for d in range(n))
                    points = mesh[idx].reshape(-1, n)
                    face = u[(every,) + idx]
                    if n == 1:
                        node_faces.append((face, points[0, 0]))
                    else:
                        faces.append((face, face.shape[1:], list(points)))

        # the ufuncs and sqrt, bound once as closure variables of the step
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        negative, absolute, maximum = np.negative, np.abs, np.maximum
        max_reduce, min_reduce, max_reduceat = maximum.reduce, np.minimum.reduce, maximum.reduceat
        sqrt = math.sqrt

        def set_faces(t):
            """The Dirichlet faces at time t, then the ghosts from them."""
            for face, x in node_faces:
                face[...] = value(x, t)
            for face, face_shape, points in faces:
                # values come node by node; reshape them to the face's grid shape
                face[...] = np.array([value(p, t) for p in points]).reshape(face_shape)
            for ghost, src, second in extrapolations:
                add(src, src, ghost)
                subtract(ghost, second, ghost)

        # seed the batch and its ghosts; the member limits, a_cap and the
        # guard flag come from u0
        u[...] = u0
        u_max = maximum(1.0, max_reduce(absolute(u, work_in), grid_axes))
        limit = 1e6 * u_max
        # the smallest limit and U = max(u_max); every u_max is >= 1 or NaN,
        # so their sum is NaN just when one of them is, and then both are
        bounds = u_max.tolist()
        total = sum(bounds)
        limit_min, U = (1e6 * min(bounds), max(bounds)) if total == total else (total, total)
        # a monotone step with max a < a_cap has no intermediate above
        # max_float (see the class docstring); a NaN or inf in u0 gives 0
        cap = sys.float_info.max / (8.0 * U * max(1.0, 1.0 / h2))
        self.a_cap = a_cap = cap if cap > 1.0 else 0.0
        # the guard runs on every step unless steps may be monotone
        guarded = n > 1 or dirichlet
        max_grad_clip, cfl_safety, t_end = plan.max_grad_clip, plan.cfl_safety, plan.t_end
        dt_floor = 1e-14 * t_end
        dt_0d = np.array(0.0)
        set_faces(0.0)
        for ghost, src in copies:
            ghost[...] = src
        if gaps is not None:
            gap = np.empty(shape)
            gaps.append(float(min_reduce(subtract(hi, lo, gap), None)))

        if n == 1:
            a, neg_a = rows[1], rows[2]
            flat, row_starts = rows.reshape(-1), np.arange(0, rows.size, B * span)
            (grad, plus, minus, two_h_x), = differences
            h2_x = np.array(h2)
            a_of_sq = getattr(coeff, "a_of_sq", None)
            if a_of_sq is None:
                A = a[..., None, None]

                def a_of_sq(s, out):
                    # a coefficient without the squared form reads Du itself
                    coeff(Du, A)

            def terms():
                """a u_xx, unscaled, in rhs; returns (max |Du|^2, max S)."""
                nonlocal guarded
                subtract(plus, minus, grad)
                divide(grad, two_h_x, grad)
                multiply(grad, grad, gsq)
                a_of_sq(gsq, a)
                add(u_span, u_span, two_u)
                subtract(plus, two_u, rhs)
                add(rhs, minus, rhs)
                divide(rhs, h2_x, rhs)
                multiply(rhs, a, rhs)
                negative(a, neg_a)
                gsq_max, a_max, neg_max = max_reduceat(flat, row_starts).tolist()
                # max|a|, NaN when a holds one; a NaN also fails neg_max <= 0
                if not (neg_max <= 0.0 and a_max < a_cap):
                    guarded = True
                return gsq_max, (a_max if a_max > neg_max else neg_max) / h2
        else:
            stab = rows[1]
            rows_in, row_axes = interior(rows), tuple(range(1, n + 2))
            zero, h2_0d = np.array(0.0), np.array(h2)
            # entry-major like Du: each a^ij is a contiguous plane
            A = np.moveaxis(np.empty((n, n, B, span)), (0, 1), (-2, -1))
            diag = [A[..., i, i] for i in range(n)]
            # one more term, and the split off-diagonal
            term, pos, neg, off = (np.empty((B, span)) for _ in range(4))
            # cross term k goes straight into the rhs and S sums when k = 0,
            # else through term and work and is added on
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            cross = [(A[..., i, j], diag[i], diag[j], at(stride[i] + stride[j]),
                      at(-stride[i] - stride[j]), at(stride[i] - stride[j]),
                      at(stride[j] - stride[i]), k > 0)
                     for k, (i, j) in enumerate(pairs)]
            axis_terms = [(d, p, m, np.array(ax.h ** 2))
                          for d, (_, p, m, _), ax in zip(diag, differences, axes)]
            g0, later_grads = grads[0], grads[1:]

            def terms():
                """a^ij D_ij u, unscaled, in rhs; returns [max |Du|^2, max S]."""
                for g, p, m, two_h in differences:
                    subtract(p, m, g)
                    divide(g, two_h, g)
                coeff(Du, A)
                # |Du|^2, summed over the axes in order
                multiply(g0, g0, gsq)
                for g in later_grads:
                    add(gsq, multiply(g, g, work), gsq)
                add(u_span, u_span, two_u)
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
                return max_reduce(rows_in, row_axes).tolist()

        def run(t, times, trajs, max_steps=sys.maxsize):
            """Steps from t until the last of ``times`` is reached, or for
            ``max_steps`` steps; returns (t, steps made, min dt, max dt)."""
            dt_min, dt_max = math.inf, 0.0
            k, t_next = 0, times[0]
            for n_steps in range(1, max_steps + 1):
                gsq_max, stab_max = terms()
                # the gradient clip, then the CFL step; a NaN max S raises
                # here (it would fail stab_max > 0 and give dt = t_end)
                gmax = sqrt(gsq_max)
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
                # the same pick as min(dt, t_next - t)
                if t_next - t < dt:
                    dt = t_next - t
                t += dt
                dt_0d[()] = dt
                multiply(rhs, dt_0d, work)
                add(u_span, work, u_span)
                if dirichlet:
                    set_faces(t)
                else:
                    for ghost, src in copies:
                        ghost[...] = src
                if guarded:
                    # a NaN fails both comparisons
                    absolute(u_span, work)
                    if not max_reduce(work_in, None) <= limit_min:
                        if not (max_reduce(work_in, grid_axes) <= limit).all():
                            raise BlowUpError(f"solution blow-up at t = {t:.3g}")
                if gaps is not None:
                    gaps.append(float(min_reduce(subtract(hi, lo, gap), None)))
                # the same picks as min(dt_min, dt), max(dt_max, dt)
                if dt < dt_min:
                    dt_min = dt
                if dt > dt_max:
                    dt_max = dt
                if t >= t_next - 1e-14:
                    t = t_next
                    # finite values of the grid's shape (see the class docstring)
                    for traj, member in zip(trajs, u):
                        traj.snapshots.append((t, _unchecked_field(grid, member.copy(), t)))
                    k += 1
                    if k == len(times):
                        break
                    t_next = times[k]
            return t, n_steps, dt_min, dt_max

        self.run = run
        self._guarded = lambda: guarded

    def step(self, t, t_next):
        """One step from t toward t_next; returns (t + dt, dt)."""
        t, _, dt, _ = self.run(t, [t_next], (), 1)
        return t, dt

    @property
    def guarded(self) -> bool:
        """Whether a step runs the blow-up guard."""
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

    Returns one Trajectory per field.  When ``gaps`` is a list the batch is
    an ordered pair, and ``gaps`` receives min over nodes of (u[1] - u[0])
    at t = 0 and after every step.  Members on two grids, or a pair not
    ordered, are a ValueError.  Each call builds its own stepper.
    """
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("the members of a batch must share one grid")
    if gaps is not None and np.any(fields[0].values > fields[1].values):
        raise ValueError("initial data not ordered: u0_low > u0_high somewhere")
    stepper = _Stepper(flow, grid, [f.values for f in fields], bc, plan, gaps)
    times = prep_output_times(plan, output_times)
    trajs = [Trajectory([(0.0, f)]) for f in fields]
    _, n_steps, dt_min, dt_max = stepper.run(0.0, times, trajs)
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
    gaps = []
    traj_lo, traj_hi = _evolve_batch(flow, [u0_low, u0_high], bc, plan, output_times, gaps)
    return traj_lo, traj_hi, np.array(gaps)

