"""Anisotropic norm machinery: norm families with closed-form derivatives,
flow-coefficient generation, and sampled structural-constant certificates.

Norms act on covectors in R^(n+1).  Index 0 is the vertical (graph) covector
phi^0; indices 1..n are spatial.  Every norm derivative and flow coefficient
acts on stacks of shape (..., dim); one covector is a stack with no batch
axes.  All derivatives are hand-derived closed forms; finite differences are
used only as test oracles.  Each norm family has one derivative jet,
``FinslerNorm.jet(w, order)``, which returns (F, DF, D^2 F, D^3 F)[:order + 1]
and computes the terms they share once; a caller that needs several
derivatives of one stack calls it once.  ``jet(w, 3, along=k)`` gives
the row D^3 F(e_k, ., .) in place of the whole third derivative, built
from the order-2 terms with the products and sums of that row, so with
its bits.  Every jet is exactly even:
F(-w) = F(w), DF(-w) = -DF(w) and so on, bit for bit (the quartic norm
forms the powers of w as products, since ``**`` on a negative base is not
even in numpy).

The jets and the certificate stages work entry-major: each entry of DF,
D^2 F and D^3 F is one contiguous plane over the batch, so every ufunc runs
its inner loop over the batch and not over an entry axis of length 2 to 4.
``jet`` hands these arrays out as views with the entry axes trailing, in
the shapes above; the stages take them back as planes (``_planes``) and
contract over the leading entry axes (``_dot``, ``_form``).  Only the
stacked matmuls of ``_quad`` and ``_quad_each`` keep C-contiguous operands
with their entries trailing, because they round by memory layout.  The
closed-form flow coefficients write every intermediate into the planes of
one scratch block per call.  Each stage builds its
norm-independent samples once and keeps them read-only (``_samples``).
``estimate_S_eps`` reads the jet at z = p - phi^0 only along phi^0 (the
row D^3 F(phi^0, ., .)): by 1-homogeneity that row gives its whole
quantity, with no terms that cancel.  ``check_smallness``,
``check_symmetry`` and ``cartan_Q`` read the whole D^3 F.

Every norm also carries a closed form of its flow coefficient F D^2 F at
z = p - phi^0, ``flow_coeff``.  The flows built from a norm (``flows``:
mcf is the Euclidean norm's flow, and every aniso:<norm-id> entry) step
with it, and ``estimate_A_P`` and ``trace_lower_bound`` sample it, so the
certificate samples the coefficient the solver steps with.
``flow_coefficients`` takes F D^2 F from the jet; it is the oracle for the
closed forms.  This module imports nothing from ``flows``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy import add, divide, multiply, negative, subtract

from .reports import JsonRecord, VerificationReport

__all__ = [
    "FinslerNorm",
    "AnisoConstants",
    "euclidean_norm",
    "elliptic_norm",
    "quartic_norm",
    "builtin_norms",
    "norm_by_id",
    "flow_coefficients",
    "SAMPLING",
    "estimate_A_P",
    "cartan_Q",
    "check_smallness",
    "check_symmetry",
    "trace_lower_bound",
    "cross_term_bound",
    "estimate_S_eps",
    "certify",
]


@dataclass(frozen=True)
class FinslerNorm:
    """Positive convex 1-homogeneous function on covectors, with analytic
    derivatives to third order.

    ``jet(w, order, along=None)`` maps a stack of covectors (..., dim) to
    ``(F, DF, D^2 F, D^3 F)[:order + 1]``, of shapes (...), (..., dim),
    (..., dim, dim) and (..., dim, dim, dim); with ``along=k`` the last
    entry of an order-3 jet is the row D^3 F(e_k, ., .), (..., dim, dim),
    bit for bit ``jet(w, 3)[3][..., k, :, :]``.  ``value``, ``grad``, ``hess``
    and ``third`` are its entries one at a time (``from_jet``).
    ``symmetric_flag`` claims evenness in the phi^0 coordinate:
    F(p + phi^0) = F(p - phi^0) for spatial p.  ``flow_coeff`` is a closed
    form of ``flow_coefficients`` with its signature, ``(p, out=None)``;
    the norm's flow steps with it and the certificate samples it."""

    id: str
    dim: int
    jet: Callable[..., tuple]
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]
    symmetric_flag: bool
    flow_coeff: Callable[..., np.ndarray]

    @classmethod
    def from_jet(cls, norm_id: str, dim: int, jet, symmetric_flag: bool,
                 flow_coeff) -> "FinslerNorm":
        return cls(norm_id, dim, jet,
                   value=lambda w: jet(w, 0)[0],
                   grad=lambda w: jet(w, 1)[1],
                   hess=lambda w: jet(w, 2)[2],
                   third=lambda w: jet(w, 3)[3],
                   symmetric_flag=symmetric_flag,
                   flow_coeff=flow_coeff)


@dataclass
class AnisoConstants(JsonRecord):
    """Empirical structural certificate for one norm (sampled, not proved)."""

    norm_id: str
    A: float
    P: float
    k: float
    C1: float
    C2: Optional[float] = None
    S_eps: dict = field(default_factory=dict)
    sample_spec: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "S_eps": {str(k): v for k, v in self.S_eps.items()}}


class NormConstructionError(ValueError):
    pass


# The largest sample scale |p| of a certificate (``certify``'s s_max, which
# the command line bounds by it) and the largest magnitude of a norm
# parameter (delta, an entry of M).  No power of |p| that a jet takes, up to
# the 9th, overflows below (max float)^(1/9) = 1.8e34.  With parameters x
# in the same range, the largest products that building and certifying a
# norm form, x |p|^2 in z^T M z, x^2 |p|^2 in the elliptic flow coefficient
# and x^3 in ``check_smallness``'s bracket, stay below 1e136.
SCALE_MAX = 1e34


# --- norm catalog -----------------------------------------------------------

# The jets compute on entry-major arrays: the entries of DF, D^2 F and D^3 F
# lead, of shapes (dim, ...), (dim, dim, ...) and (dim, dim, dim, ...), and
# each is C-contiguous, so every entry is one contiguous plane over the
# batch.  The helpers below take and give that layout; constant matrices
# carry trailing unit axes to broadcast against the batch.


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, None] * b


def _outer3(a: np.ndarray, row=None) -> np.ndarray:
    """a_i a_j a_k, or its row i = ``row``: the same products, so the same bits."""
    if row is None:
        return a[:, None, None] * a[:, None] * a
    return _outer(a[row] * a, a)


def _sym3(A: np.ndarray, v: np.ndarray, row=None) -> np.ndarray:
    """A_ij v_k + A_ik v_j + A_jk v_i for symmetric matrices A and vectors v,
    or its row i = ``row``, with the same products and sums, so the same bits."""
    if row is None:
        T = A[:, :, None] * v
        return T + T.swapaxes(1, 2) + np.moveaxis(T, 2, 0)
    return _outer(A[row], v) + _outer(v, A[row]) + A * v[row]


def _trail(x: np.ndarray, k: int) -> np.ndarray:
    """x with its k leading axes moved to the end, as a view."""
    return x.transpose(tuple(range(k, x.ndim)) + tuple(range(k)))


def _lead(x: np.ndarray, k: int) -> np.ndarray:
    """x with its k trailing axes moved to the front, as a view."""
    return x.transpose(tuple(range(x.ndim - k, x.ndim)) + tuple(range(x.ndim - k)))


def _jet_of(planes):
    """``FinslerNorm.jet`` from a jet on entry-major arrays,
    ``planes(w, order, along)`` for a float stack w (..., dim): the same
    arrays, returned as views with their entry axes trailing, of shapes
    (...), (..., dim), (..., dim, dim) and (..., dim, dim, dim), or
    (..., dim, dim) for the row D^3 F(e_along, ., .)."""

    def jet(w, order, along=None):
        out = planes(np.asarray(w, dtype=float), order, along)
        F = out[0]
        return (F,) + tuple(_trail(x, x.ndim - F.ndim) for x in out[1:])

    return jet


def _planes(jet: tuple) -> tuple:
    """The entries of a jet with their entry axes leading: views, and each
    entry one contiguous plane, since every jet is laid out entry-major."""
    F = jet[0]
    return (F,) + tuple(_lead(x, x.ndim - F.ndim) for x in jet[1:])


def _quad(v: np.ndarray, H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v^T H w over the leading axes, summed in the order of v @ H @ w, for
    stacks with their entries trailing.

    ``_form`` is the cheaper contraction; this one stays only where its
    rounding is pinned: the elliptic jet's F and the A values of
    ``estimate_A_P``.  The cancelling C2 of ``cross_term_bound``, which
    the benchmark's aniso reference holds, takes its bits from
    ``_quad_each``, whose v^T H is the same stacked matmul and whose
    second product is one matmul with the bits of this one's.  The stacked
    matmul accumulates with
    fused multiply-adds inside the BLAS kernel it picks for its operands,
    so it rounds by memory layout (fed an entry-major G, C2 moves by
    1.8e-11 relative), and no numpy contraction replaces it bit for bit:
    with OpenBLAS 0.3.31 (Haswell kernels), an FMA-accumulated (v^T H) w
    matched it in 300 of 300 random samples for d = 2 and 3 and in 217 of
    300 for d = 4, and left-to-right component sums in 39-64%.  So the
    pinned F, A and C2 bits depend on the BLAS kernel, and the stages hand
    it C-contiguous operands with their entries trailing, as they were when
    these pins were taken, and the jet the stack it was given.  The change
    that moves those pins (ROADMAP item 7) can retire it.
    """
    return (v[..., None, :] @ H @ w[..., :, None])[..., 0, 0]


def _quad_each(v: np.ndarray, H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v^T H w for stacks v (..., d) and H (..., d, d) against every row of
    w (m, d), of shape (..., m): ``_quad``'s (v^T H) w, with v^T H its
    stacked matmul and the second product, which every v shares, one
    (N, d) @ (d, m) matmul in place of N m stacked (1, d) @ (d, 1) ones.
    Bit for bit ``_quad(v[..., None, :], H[..., None, :, :], w)`` on the
    catalog norms' C2 samples (dimensions 2 to 4, s_max 1e2 to 1e4), with
    the layouts ``_quad`` is given."""
    vH = v[..., None, :] @ H
    return (vH.reshape(-1, v.shape[-1]) @ w.T).reshape(v.shape[:-1] + (len(w),))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a_i b_i over the leading (entry) axis, broadcast over the rest,
    added component by component from i = 0.  numpy's axis sums, einsums
    and matmuls over an entry axis of length 2 to 4 cost more in loop
    set-up than in arithmetic; one product per component runs over whole
    contiguous planes."""
    s = a[0] * b[0]
    for i in range(1, len(a)):
        s += a[i] * b[i]
    return s


def _form(v: np.ndarray, H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v^T H w over the leading entry axes, as sum_i v_i (sum_j H_ij w_j)
    with ``_dot`` sums."""
    return _dot(v, _dot(H.swapaxes(0, 1), w[:, None]))


def _elliptic_planes(M: np.ndarray):
    """The entry-major jet of F(w) = sqrt(w^T M w), for ``_jet_of``."""

    def planes(w, order, along=None):
        # F and w M^T are taken on w as given, entries trailing: the stacked
        # matmuls round by layout
        F = np.sqrt(_quad(w, M, w))
        if order == 0:
            return (F,)
        Mb = M.reshape(M.shape + (1,) * np.ndim(F))
        mh = np.divide(_lead(w @ M.T, 1), F, order="C")
        out = [F, mh]
        if order >= 2:
            out.append((Mb - _outer(mh, mh)) / F)
        if order >= 3:
            out.append((3.0 * _outer3(mh, along) - _sym3(Mb, mh, along)) / (F * F))
        return tuple(out)

    return planes


def euclidean_norm(dim: int = 3) -> FinslerNorm:
    """F(w) = |w| with the round unit ball."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return elliptic_norm(np.eye(dim), "euclid")


def elliptic_norm(M: np.ndarray, norm_id: Optional[str] = None) -> FinslerNorm:
    """F(w) = sqrt(w^T M w) for symmetric positive-definite M.

    With the unit-ball normal mh = M w / F, the jet is DF = mh,
    D^2 F = (M - mh mh^T) / F and D^3 F = (3 mh(x)mh(x)mh - sym(M, mh)) / F^2.
    Symmetric in the vertical coordinate exactly when row 0 of M has no
    off-diagonal entries.  The flow coefficient has a closed form
    (``_elliptic_flow_coeff``).
    """
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NormConstructionError("M must be finite")
    if np.any(np.abs(M) > SCALE_MAX):
        raise NormConstructionError(f"M must have entries in [-{SCALE_MAX:g}, {SCALE_MAX:g}]")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NormConstructionError("M must be a square matrix")
    if not np.allclose(M, M.T):
        raise NormConstructionError("M must be symmetric")
    if np.linalg.eigvalsh(M)[0] <= 0:
        raise NormConstructionError("M must be positive definite")
    symmetric = bool(np.all(M[0, 1:] == 0.0))
    if norm_id is None:
        norm_id = "elliptic:" + ";".join(
            ",".join(repr(float(v)) for v in row) for row in M
        )
    return FinslerNorm.from_jet(norm_id, M.shape[0], _jet_of(_elliptic_planes(M)),
                                symmetric, _elliptic_flow_coeff(M))


def _elliptic_flow_coeff(M: np.ndarray):
    """F D^2 F at z = p - phi^0, spatial block, for F(w) = sqrt(w^T M w):
    M_ss - m m^T / (z^T M z) with m = M_ss p - M_s0 and
    z^T M z = (M_00 - 2 M_0s . p) + p . (M_ss p).

    Filled entry by entry from the component arrays, with every sum taken
    left to right.  A zero entry of M adds no term and a unit entry no
    product.  For a finite covector and an M with no -0.0 entry, that
    changes at most the sign of a zero that M_ij - m_i m_j / z^T M z then
    rounds away, so the bits are those of summing every term.  With M = I
    the entries are I - p p^T / (1 + |p|^2), the coefficient of
    ``flows.mcf_graph``.  The plan of each sum, its (entry, index) terms, is
    built here once, so a call makes only the array operations.

    Scratch: a call allocates one block of k planes over the batch, k = 2
    for M = I, and writes every intermediate into a plane with a ufunc
    call that takes it as its positional out; for one covector the planes
    are 0-d arrays.  A component m_i that is some p_j itself (a single
    unit entry, no M_0i) is that input view and takes no plane.  Each call
    is the operation the expression form makes, on the same operands in the
    same order, and only where its result goes differs; a correctly
    rounded operation gives the same bits wherever it writes, so the
    block gives the expression form's bits.
    """
    n = M.shape[0] - 1
    M00, Mss = float(M[0, 0]), M[1:, 1:].tolist()
    # each row of M[:, 1:] as the (M_ij, j) of its nonzero entries, with
    # None for a unit entry; m_i subtracts the nonzero M_0i
    rows = [[(None if c == 1.0 else c, j) for j, c in enumerate(row) if c != 0.0]
            for row in M[:, 1:].tolist()]
    row0, rows = rows[0], rows[1:]
    shifts = [(i, c) for i, c in enumerate(M[0, 1:].tolist()) if c]
    entries = [(i, j, Mss[i][j]) for i in range(n) for j in range(i, n)]
    # planes: a temporary, z^T M z, M_0s . p when row 0 has entries, and
    # every m_i that is not an input view
    shifted = {i for i, _ in shifts}
    own = [not (len(row) == 1 and row[0][0] is None and i not in shifted)
           for i, row in enumerate(rows)]
    k = 2 + bool(row0) + sum(own)

    def lin(row, p, s, t):
        """sum over row of (M_ij) p_j, left to right, in s (t a temporary);
        a single unit entry is p_j itself."""
        c, j = row[0]
        x = p[j] if c is None else multiply(c, p[j], s)
        for c, j in row[1:]:
            x = add(x, p[j] if c is None else multiply(c, p[j], t), s)
        return x

    def coeff(P, out=None):
        P = np.asarray(P, dtype=float)
        blk = np.empty((k,) + P.shape[:-1])
        planes = [blk[i, ...] for i in range(k)]
        t, zMz = planes[0], planes[1]
        L = planes[2] if row0 else None
        mine = iter(planes[2 + bool(row0):])
        ms = [next(mine) if o else None for o in own]
        p = [P[..., i] for i in range(n)]
        m = [lin(row, p, s, t) for row, s in zip(rows, ms)]
        multiply(p[0], m[0], zMz)
        for i in range(1, n):
            add(zMz, multiply(p[i], m[i], t), zMz)
        if row0:
            add(subtract(M00, multiply(2.0, lin(row0, p, L, t), L), L), zMz, zMz)
        else:
            add(M00, zMz, zMz)
        for i, c in shifts:
            m[i] = subtract(m[i], c, ms[i])
        A = np.empty(P.shape + (n,)) if out is None else out
        for i, j, c in entries:
            if i == j:
                subtract(c, divide(multiply(m[i], m[i], t), zMz, t), A[..., i, i])
            else:
                # one plane written to both entries: a copy from A to A
                # would go through a temporary
                A[..., i, j] = A[..., j, i] = subtract(
                    c, divide(multiply(m[i], m[j], t), zMz, t), t)
        return A

    return coeff


def quartic_norm(delta: float, dim: int = 3) -> FinslerNorm:
    """F(w) = |w| (1 + delta * sum w_i^4 / |w|^4) = r + delta * S / r^3.

    The radial part r is the Euclidean norm, and the jet adds delta times
    the Leibniz expansion of S g with S = sum w_i^4 and g = r^-3 to the
    Euclidean jet.  Admitted only if the sampled minimum tangent-Hessian
    eigenvalue exceeds 1e-6 (convexity pre-check); delta = 0 reduces to the
    Euclidean norm.  The flow coefficient has a closed form
    (``_quartic_flow_coeff``).
    """
    d = float(delta)
    if not math.isfinite(d):
        raise NormConstructionError("delta must be finite")
    if abs(d) > SCALE_MAX:
        raise NormConstructionError(f"delta must lie in [-{SCALE_MAX:g}, {SCALE_MAX:g}]")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    euclid = _elliptic_planes(np.eye(dim))
    idx = np.arange(dim)

    def planes(w, order, along=None):
        e = euclid(w, order, along)
        w = _entry_major(w)
        # the powers of w are products: numpy's ** on a negative base is slow
        # and not even, (-x)**4 != x**4 now and then.  The powers of r > 0 are
        # taken on (1, ...) arrays that broadcast against the entries: numpy
        # rounds ** on a 0-d scalar unlike its array loop, so one covector
        # takes the array loop too.  S sums left to right, as numpy's sum
        # over a short last axis does
        w2 = w * w
        w4 = w2 * w2
        r, S = e[0], sum(w4[1:], w4[0])
        r1, S1 = r[None], S[None]
        r3 = r1 ** 3
        out = [r + d * S / r3[0]]
        if order >= 1:
            r5 = r1 ** 5
            Si = 4.0 * (w2 * w)
            # grad(r) + delta * (S_i r^-3 - 3 S w_i r^-5)
            out.append(e[1] + d * (Si / r3 - 3.0 * S1 * w / r5))
        if order >= 2:
            I = np.eye(dim).reshape((dim, dim) + (1,) * np.ndim(r))
            r7 = r1 ** 7
            # S_ij and the derivatives g_i, g_ij of g = r^-3
            Sij = I * (12.0 * w2)
            gi = -3.0 * w / r5
            gij = -3.0 * I / r5 + 15.0 * _outer(w, w) / r7
            H_u = Sij / r3 + _outer(Si, gi) + _outer(gi, Si) + S1 * gij
            out.append(e[2] + d * H_u)
        if order >= 3:
            # S_ijk = 24 w_i [i = j = k], or its row i = along
            if along is None:
                Sijk = np.zeros((dim,) * 3 + np.shape(r))
                Sijk[idx, idx, idx] = 24.0 * w
            else:
                Sijk = np.zeros((dim,) * 2 + np.shape(r))
                Sijk[along, along] = 24.0 * w[along]
            gijk = 15.0 * _sym3(I, w, along) / r7 - 105.0 * _outer3(w, along) / r1 ** 9
            # Leibniz expansion of (S * g)_ijk
            T_u = Sijk / r3 + _sym3(Sij, gi, along) + _sym3(gij, Si, along) + S1 * gijk
            out.append(e[3] + d * T_u)
        return tuple(out)

    nf = FinslerNorm.from_jet(f"quartic:{delta}", dim, _jet_of(planes), True,
                              _quartic_flow_coeff(d, dim - 1))
    if d != 0.0:
        _check_convexity(nf)
    return nf


def _quartic_flow_coeff(delta: float, n: int):
    """F D^2 F at z = p - phi^0, spatial block, for F = r + delta S r^-3.

    With r^2 = 1 + |p|^2, S = 1 + sum p_i^4, sigma = S / r^2 and
    e = delta / r^2, it is c (r D^2 F) with c = F / r = 1 + e sigma, and the
    spatial block of r D^2 F has the entries
        [i = j] (1 + e (12 p_i^2 - 3 sigma))
        - p_i p_j / r^2 (1 + e (12 (p_i^2 + p_j^2) - 15 sigma)).
    Filled entry by entry from the component arrays like
    ``_elliptic_flow_coeff``, with products for the powers (exactly even) and
    no square root: r enters only through r^2.  The diagonal takes
    q_i = 1 + sum_(j != i) p_j^2, so that 1 - p_i^2 / r^2 = q_i / r^2
    cancels nothing.

    Scratch: a call allocates one block of 2n + 8 planes over the batch
    (9 for n = 1) and writes every intermediate into a plane with a ufunc
    call that takes it as its positional out, as ``_elliptic_flow_coeff``
    does, so with the expression form's bits; a plane is reused once its
    value is read for the last time (sigma and then 15 sigma overwrite S).
    Each sum of the q_i starts from its first term, not from 0: p_j^2 is
    never -0.0, so 0 + p_j^2 is p_j^2.
    """
    d = float(delta)
    k = 2 * n + 8 if n > 1 else 9

    def coeff(P, out=None):
        P = np.asarray(P, dtype=float)
        blk = np.empty((k,) + P.shape[:-1])
        planes = [blk[i, ...] for i in range(k)]
        S, r2, e, c, s3, t1, t2, t3 = planes[:8]
        p = [P[..., i] for i in range(n)]
        p2 = [multiply(pi, pi, x) for pi, x in zip(p, planes[8:8 + n])]
        add(1.0, multiply(p2[0], p2[0], S), S)
        for x in p2[1:]:
            add(S, multiply(x, x, t1), S)
        # q_i, 1 + |p|^2 without p_i^2; for n = 1 it is the constant 1
        q = [1.0]
        if n > 1:
            q = planes[8 + n:]
            for i, qi in enumerate(q):
                x, *rest = p2[:i] + p2[i + 1:]
                for y in rest:
                    x = add(x, y, qi)
                add(1.0, x, qi)
        add(q[0], p2[0], r2)
        sigma = divide(S, r2, S)
        divide(d, r2, e)
        add(1.0, multiply(e, sigma, c), c)
        multiply(3.0, sigma, s3)
        s15 = multiply(15.0, sigma, S)
        A = np.empty(P.shape + (n,)) if out is None else out
        for i in range(n):
            # c (q_i / r^2 + e ((12 p_i^2 - 3 sigma) - p_i^2 / r^2 (24 p_i^2 - 15 sigma)))
            g = subtract(multiply(12.0, p2[i], t2), s3, t2)
            h = subtract(multiply(24.0, p2[i], t3), s15, t3)
            h = multiply(divide(p2[i], r2, t1), h, t1)
            g = multiply(e, subtract(g, h, t2), t2)
            multiply(c, add(divide(q[i], r2, t1), g, t1), A[..., i, i])
            for j in range(i + 1, n):
                # c (-(p_i p_j / r^2 (1 + e (12 (p_i^2 + p_j^2) - 15 sigma))))
                g = subtract(multiply(12.0, add(p2[i], p2[j], t2), t2), s15, t2)
                g = add(1.0, multiply(e, g, t2), t2)
                g = multiply(divide(multiply(p[i], p[j], t1), r2, t1), g, t1)
                A[..., i, j] = A[..., j, i] = multiply(c, negative(g, t1), t1)
        return A

    return coeff


def _check_convexity(nf: FinslerNorm):
    spec = SAMPLING["convexity"]
    min_eig = spec["min_eig"]
    w = _sphere_points(nf.dim, spec["n_samples"], np.random.default_rng(spec["seed"]))
    # drop the homogeneity null direction, keep tangent eigenvalues
    tangent = np.linalg.eigvalsh(nf.hess(w))[:, 1]
    bad = np.nonzero(tangent <= min_eig)[0]
    if bad.size:
        raise NormConstructionError(
            f"norm {nf.id!r} fails the convexity probe: tangent eigenvalue "
            f"{tangent[bad[0]]:.3g} <= {min_eig:.0e}"
        )


def builtin_norms(n: int) -> list:
    """Catalog of norms on R^(n+1): Euclidean, a diagonal elliptic example,
    and a small quartic perturbation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = n + 1
    M = np.diag(1.0 + 0.5 * np.arange(dim))
    return [
        euclidean_norm(dim),
        elliptic_norm(M),
        quartic_norm(1e-3, dim),
    ]


def _parse_matrix_spec(spec: str) -> np.ndarray:
    rows = [[float(v) for v in row.split(",")] for row in spec.split(";")]
    if len(rows) == 1:
        return np.diag(rows[0])
    return np.array(rows)


def norm_by_id(norm_id: str, dim: int = 3) -> FinslerNorm:
    """Resolve "euclid", "elliptic:<M-spec>", "quartic:<delta>".

    The elliptic M-spec is either a comma list (diagonal) or semicolon-joined
    rows; its size fixes the dimension.
    """
    if norm_id == "euclid":
        return euclidean_norm(dim)
    if norm_id.startswith("elliptic:"):
        return elliptic_norm(_parse_matrix_spec(norm_id.split(":", 1)[1]), norm_id)
    if norm_id.startswith("quartic:"):
        return quartic_norm(float(norm_id.split(":", 1)[1]), dim)
    raise KeyError(f"unknown norm id {norm_id!r}")


# --- flow generation --------------------------------------------------------


def _embed(q: np.ndarray) -> np.ndarray:
    """Spatial covectors (..., n) as covectors (..., n + 1) with component 0 zero."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.zeros(q.shape[:-1] + (q.shape[-1] + 1,))
    out[..., 1:] = q
    return out


def _z_of(p: np.ndarray) -> np.ndarray:
    """Covectors p - phi^0 for spatial p (..., n): component 0 is -1."""
    z = _embed(p)
    z[..., 0] = -1.0
    return z


def flow_coefficients(nf: FinslerNorm, p: np.ndarray, out=None) -> np.ndarray:
    """Spatial block of F(z) D^2 F|_z at z = p - phi^0; symmetric PSD.

    Maps spatial covectors (..., n) to coefficient matrices (..., n, n),
    written into ``out`` when it is given.
    """
    F, _, H = nf.jet(_z_of(p), 2)
    return np.multiply(F[..., None, None], H[..., 1:, 1:], out=out)


# --- sampled structural constants -------------------------------------------

# Every sampling parameter of the sampled constants, one entry per stage.
# Each stage reads its entry, and certify records the table, with s_max, as
# the certificate's sample_spec.  A/P, k and C2 take n_scales scales in
# geomspace(0.05, s_max), S_eps the scales geomspace(*s_grid) whatever s_max
# is.  The convexity probe runs when a quartic norm is built, and `flowlab
# certify` runs check_symmetry next to certify.
SAMPLING = {
    "estimate_A_P": {"n_dirs": 64, "n_scales": 120, "plateau_rtol": 1e-2},
    "trace_lower_bound": {"n_dirs": 64, "n_scales": 120},
    "check_smallness": {"n_z": 200, "n_triples": 20, "seed": 7},
    "cross_term_bound": {"n_dirs": 32, "n_scales": 60, "n_q": 16, "seed": 3},
    "estimate_S_eps": {"s_grid": (1.0, 1e4, 40), "n_dirs": 24, "n_q": 12, "seed": 5},
    "certify": {"eps_values": (0.5, 0.1)},
    "check_symmetry": {"n_samples": 200, "seed": 11, "tolerance": 1e-10},
    "convexity": {"n_samples": 500, "seed": 0, "min_eig": 1e-6},
}


def _spatial_directions(n: int, n_dirs: int) -> np.ndarray:
    """Quasi-uniform unit vectors in R^n."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        theta = 2 * np.pi * (np.arange(n_dirs) + 0.5) / n_dirs
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return _sphere_points(n, n_dirs, np.random.default_rng(12345))


def _sphere_points(dim: int, count: int, rng) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _entry_major(x: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of a stack (..., dim) with its entry axis leading."""
    return np.ascontiguousarray(_lead(x, 1))


def _samples(build):
    """A stage's norm-independent samples, ``build(dim, s_max, spec)`` for
    the stage's SAMPLING entry ``spec``, built once per (dim, s_max, the
    entry's values) and handed out read-only, so an edited table builds
    anew and no caller can change what the next one reads."""

    @functools.lru_cache(maxsize=8)
    def cached(dim, s_max, items):
        arrays = build(dim, s_max, dict(items))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def samples(dim, s_max, spec):
        return cached(dim, s_max, tuple(spec.items()))

    samples.cache_clear = cached.cache_clear
    return samples


@_samples
def _A_P_samples(dim, s_max, spec):
    dirs = _spatial_directions(dim - 1, spec["n_dirs"])
    scales = np.unique(np.concatenate([np.geomspace(0.05, s_max, spec["n_scales"]), [1.0]]))
    return dirs, _embed(dirs), scales


def estimate_A_P(nf: FinslerNorm, s_max: float = 1e3):
    """Sampled constants (A, P) with B(p) = F D^2 F|_{p - phi^0}(p, p) >= A
    whenever F(p) >= P.

    B = p^T a(p) p is sampled from the flow coefficient a = ``nf.flow_coeff``
    over spatial directions and scales; P is the smallest grid scale whose
    tail infimum reaches half the large-scale plateau
    min_dirs F D^2 F|_p(phi^0, phi^0), taken from the jet.  Raises if the
    plateau is not reached at s_max.
    """
    spec = SAMPLING["estimate_A_P"]
    dirs, dirs_e, scales = _A_P_samples(nf.dim, s_max, spec)

    # normalize so that F(p) equals the scale exactly; B is (dirs, scales).
    # The coefficient reads p entry-major, _quad takes it entries trailing
    v_unit = dirs / nf.value(dirs_e)[:, None]
    p = _trail(_entry_major(v_unit)[:, :, None] * scales, 1)
    a = nf.flow_coeff(p)
    p = np.ascontiguousarray(p)
    B = _quad(p, a, p)
    F, _, H = nf.jet(_embed(v_unit), 2)
    limits = F * H[:, 0, 0]

    rel = np.abs(B[:, -1] - limits) / np.maximum(np.abs(limits), 1e-300)
    if np.max(rel) > spec["plateau_rtol"]:
        raise RuntimeError(
            f"plateau not reached at s_max={s_max:g} "
            f"(relative gap {np.max(rel):.3g})"
        )

    plateau = float(np.min(limits))
    # tail infimum over all samples with F(p) >= scale
    tail_min = np.minimum.accumulate(B.min(axis=0)[::-1])[::-1]
    target = 0.5 * plateau
    ok = np.nonzero(tail_min >= target)[0]
    if ok.size == 0:
        raise RuntimeError("no sampled scale attains half the plateau value")
    j = int(ok[0])
    return float(tail_min[j]), float(scales[j])


def _hat(F: np.ndarray, DF: np.ndarray, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Project q onto the tangent plane of the unit ball at z, given F and DF
    at z: DF, z and q entry-major, all broadcast."""
    c = _dot(DF, q) / F
    return q - c * z


def cartan_Q(nf: FinslerNorm, z: np.ndarray, p: np.ndarray, q: np.ndarray,
             r: np.ndarray) -> float:
    """Cartan tensor F^2(z) D^3 F|_z on hat-projected tangent covectors."""
    z = np.asarray(z, dtype=float)
    if np.all(z == 0.0):
        raise ValueError("cartan_Q undefined at z = 0")
    F, DF, _, T = nf.jet(z, 3)
    ph, qh, rh = (_hat(F, DF, z, np.asarray(v, dtype=float)) for v in (p, q, r))
    return float(F ** 2 * np.einsum("ijk,i,j,k->", T, ph, qh, rh))


@_samples
def _smallness_samples(dim, s_max, spec):
    # one (3, dim) draw per triple, in order, is the same stream as one draw
    rng = np.random.default_rng(spec["seed"])
    z = _sphere_points(dim, spec["n_z"], rng)[:, None, :]
    draw = rng.normal(size=(spec["n_z"], spec["n_triples"], 3, dim))
    return z, _entry_major(z), np.ascontiguousarray(np.transpose(draw, (3, 2, 0, 1)))


def check_smallness(nf: FinslerNorm):
    """Empirical C1: max of |Q(p,q,r)| over the normalizing bracket
    [F^3 D^2F(p,p) D^2F(q,q) D^2F(r,r)]^(1/2), with threshold checks
    C1^2 < 4/sqrt(n) and the interior variant C1^2 < 2/sqrt(n)."""
    n = nf.dim - 1
    # z is (n_z, 1) against the (n_z, n_triples) samples, and the triples'
    # draw is (dim, 3, n_z, n_triples)
    z, zt, draw = _smallness_samples(nf.dim, None, SAMPLING["check_smallness"])
    F, DF, H, T = _planes(nf.jet(z, 3))
    trio = _hat(F, DF[:, None], zt[:, None], draw)
    forms = _form(trio, H[:, :, None], trio)
    denom_sq = F ** 3 * forms[0] * forms[1] * forms[2]
    if np.any(denom_sq <= 0):
        raise ArithmeticError(f"degenerate tangent Hessian for {nf.id!r}")
    p, q, r = trio.swapaxes(0, 1)
    # D^3 F contracted with r on its last index, then with p and q
    Q = F ** 2 * _form(p, _dot(np.moveaxis(T, 2, 0), r[:, None, None]), q)
    C1 = float(np.max(np.abs(Q) / np.sqrt(denom_sq), initial=0.0))
    return C1, bool(C1 ** 2 < 4.0 / np.sqrt(n)), bool(C1 ** 2 < 2.0 / np.sqrt(n))


def check_symmetry(nf: FinslerNorm) -> VerificationReport:
    """Probe F(p + phi^0) = F(p - phi^0) for spatial p, together with its
    derivative consequences DF|_p(phi^0) = 0 and the vanishing of
    D^3 F|_p(phi^0, ., .) entries, read from the jet's row along phi^0."""
    spec = SAMPLING["check_symmetry"]
    rng = np.random.default_rng(spec["seed"])
    n = nf.dim - 1
    p_sp = np.array([rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
                     for _ in range(spec["n_samples"])])
    p = _embed(p_sp)
    e0 = np.zeros(nf.dim)
    e0[0] = 1.0
    d_val = np.abs(nf.value(p + e0) - nf.value(p - e0))
    _, DF, _, T0 = nf.jet(p, 3, along=0)
    d_grad = np.abs(DF[:, 0])
    d_third = np.maximum(np.max(np.abs(T0[:, 1:, 1:]), axis=(1, 2)), np.abs(T0[:, 0, 0]))
    d = np.maximum(np.maximum(d_val, d_grad), d_third)
    i = int(np.argmax(d))
    worst = float(d[i])
    witness = {}
    if worst > 0.0:
        witness = {
            "p": p_sp[i].tolist(),
            "value_defect": float(d_val[i]),
            "grad_defect": float(d_grad[i]),
            "third_defect": float(d_third[i]),
        }
    return VerificationReport(
        check_id=f"symmetry:{nf.id}",
        max_defect=worst,
        tolerance=spec["tolerance"],
        witness=witness,
        metadata={"n_samples": spec["n_samples"], "claimed_symmetric": nf.symmetric_flag},
    )


@_samples
def _trace_samples(dim, s_max, spec):
    scales = np.concatenate([[0.0], np.geomspace(0.05, s_max, spec["n_scales"])])
    dirs = _spatial_directions(dim - 1, spec["n_dirs"])
    return (_trail(_entry_major(dirs)[:, :, None] * scales, 1),)


def trace_lower_bound(nf: FinslerNorm, s_max: float = 1e3) -> float:
    """Empirical min over sampled p of the trace of the flow coefficient
    ``nf.flow_coeff``; requires n > 1."""
    n = nf.dim - 1
    if n <= 1:
        raise ValueError("trace lower bound needs n > 1")
    # p is (dirs, scales, n), and p and the coefficient entry-major
    (p,) = _trace_samples(nf.dim, s_max, SAMPLING["trace_lower_bound"])
    a = nf.flow_coeff(p, _trail(np.empty((n, n) + p.shape[:-1]), 2))
    return float(np.min(np.trace(a, axis1=-2, axis2=-1)))


@_samples
def _cross_term_samples(dim, s_max, spec):
    rng = np.random.default_rng(spec["seed"])
    n = dim - 1
    qe = _embed(_sphere_points(n, spec["n_q"], rng))
    # p is (dirs, scales, 1, n) against the q samples
    scales = np.geomspace(0.05, s_max, spec["n_scales"])[:, None, None]
    p = scales * _spatial_directions(n, spec["n_dirs"])[:, None, None, :]
    return qe, _z_of(p), _embed(p)


def cross_term_bound(nf: FinslerNorm, s_max: float = 1e3) -> float:
    """Empirical C2 with F D^2 F|_{p-phi^0}(p, q) <= C2 F(q)/F(p - phi^0)
    for spatial p, q; requires the symmetry condition."""
    if not nf.symmetric_flag:
        raise ValueError("cross_term_bound assumes the symmetry condition")
    qe, z, pe = _cross_term_samples(nf.dim, s_max, SAMPLING["cross_term_bound"])
    F, _, H = nf.jet(z, 2)
    # _quad_each takes G C-contiguous, entries trailing (_quad's docstring);
    # the samples' axis of length 1 against the q stack is dropped
    G = np.multiply(F[..., None, None], H, order="C")
    val = F * np.abs(_quad_each(pe[..., 0, :], G[..., 0, :, :], qe)) / nf.value(qe)
    return float(np.max(val, initial=0.0))


@_samples
def _S_eps_samples(dim, s_max, spec):
    s_grid = np.geomspace(*spec["s_grid"])
    rng = np.random.default_rng(spec["seed"])
    n = dim - 1
    qe = _embed(_sphere_points(n, spec["n_q"], rng))
    # p is (scales, dirs, 1, n) against the q samples
    p = s_grid[:, None, None, None] * _spatial_directions(n, spec["n_dirs"])[:, None, :]
    z = _z_of(p)
    return s_grid, z, _entry_major(z), _entry_major(qe[None, None])


def _S_eps_ratios(nf: FinslerNorm):
    """The scales of ``estimate_S_eps`` and, per scale, the largest sampled
    |F D(F D^2 F)|_{p-phi^0}(p, q^, q^)| / (G(p,p)^(1/2) G(q^,q^))."""
    s_grid, z, zt, qe = _S_eps_samples(nf.dim, None, SAMPLING["estimate_S_eps"])
    F, DF, H, T0 = _planes(nf.jet(z, 3, along=0))
    qh = _hat(F, DF, zt, qe)
    Hqq = _form(qh, H, qh)
    # with p = z + phi^0, D^3 F(z)(z, ., .) = -D^2 F(z) and DF(z) z = F give
    # F D(F D^2 F)(p, qh, qh) = F (DF_0 D^2F(qh, qh) + F D^3F(phi^0, qh, qh))
    # and G(p, p) = F D^2F_00, with no cancelling pair of terms
    dG = F * (DF[0] * Hqq + F * _form(qh, T0, qh))
    Gpp, Gqq = F * H[0, 0], F * Hqq
    return s_grid, np.max(np.abs(dG) / (np.sqrt(Gpp) * Gqq), axis=(1, 2))


def estimate_S_eps(nf: FinslerNorm, eps_values) -> dict:
    """For each eps, the smallest sampled scale S with
    |F D(F D^2 F)|_{p-phi^0}(p, q^, q^)| <= eps G(p,p)^(1/2) G(q,q) for all
    sampled F(p) >= S; None if the grid never satisfies the bound
    (non-convergence flag).  The samples are evaluated once for every eps.

    F is 1-homogeneous, so at z = p - phi^0 the jet is read only along
    phi^0: DF_0, D^2F_00 and the row D^3 F(phi^0, ., .) (``jet(z, 3,
    along=0)``), and no term of size |p| cancels.  The contraction of the
    whole D^3 F with p that it replaces is the same quantity in exact
    arithmetic, and S_eps cannot move with the rounding: for the Euclidean
    and elliptic norms the true ratio is 0 (on tangent q^,
    D(F D^2 F)(p, q^, q^) = -2 D^2F(p, q^) DF(q^) = 0), so both forms read
    rounding far below any eps; for the quartic norms the worst ratios of
    the two forms differ by at most 5e-10 per scale, and an S value moves
    only if a worst ratio lies that close to eps.  Every catalog case reads
    the values of the full contraction (euclid, elliptic and quartic delta
    in {0.001, 0.01, 0.03, 0.1, 0.2}, dimensions 2 to 4)."""
    s_grid, worst = _S_eps_ratios(nf)
    S_eps = {}
    for eps in eps_values:
        # require the bound to hold for every sampled scale from S onward
        tail_ok = np.logical_and.accumulate((worst <= eps)[::-1])[::-1]
        idx = np.nonzero(tail_ok)[0]
        S_eps[eps] = float(s_grid[int(idx[0])]) if idx.size else None
    return S_eps


def certify(nf: FinslerNorm, s_max: float = 1e3, path=None) -> AnisoConstants:
    """Assemble the sampled structural certificate for one norm; its
    sample_spec is s_max and the SAMPLING table."""
    A, P = estimate_A_P(nf, s_max=s_max)
    n = nf.dim - 1
    k = trace_lower_bound(nf, s_max=s_max) if n > 1 else float("nan")
    C1, _, _ = check_smallness(nf)
    C2 = cross_term_bound(nf, s_max=s_max) if nf.symmetric_flag else None
    S_eps = (estimate_S_eps(nf, SAMPLING["certify"]["eps_values"])
             if nf.symmetric_flag else {})
    consts = AnisoConstants(
        norm_id=nf.id,
        A=A,
        P=P,
        k=k,
        C1=C1,
        C2=C2,
        S_eps=S_eps,
        sample_spec={"s_max": s_max, **{stage: dict(spec) for stage, spec in SAMPLING.items()}},
    )
    if path is not None:
        consts.to_json(path)
    return consts
