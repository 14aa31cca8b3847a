"""Anisotropic norm machinery: norm families with closed-form derivatives,
flow-coefficient generation, and sampled structural-constant certificates.

Norms act on covectors in R^(n+1).  Index 0 is the vertical (graph) covector
phi^0; indices 1..n are spatial.  Every norm derivative and flow coefficient
acts on stacks of shape (..., dim); one covector is a stack with no batch
axes.  All derivatives are hand-derived closed forms; finite differences are
used only as test oracles.  Each norm family has one derivative jet,
``FinslerNorm.jet(w, order)``, which returns (F, DF, D^2 F, D^3 F)[:order + 1]
and computes the terms they share once; a caller that needs several
derivatives of one stack calls it once.  Every jet is exactly even:
F(-w) = F(w), DF(-w) = -DF(w) and so on, bit for bit (the quartic norm
forms the powers of w as products, since ``**`` on a negative base is not
even in numpy).

The jets and the certificate stages work entry-major: each entry of DF,
D^2 F and D^3 F is one contiguous plane over the batch, so every ufunc runs
its inner loop over the batch and not over an entry axis of length 2 to 4.
``jet`` hands these arrays out as views with the entry axes trailing, in
the shapes above; the stages take them back as planes (``_planes``) and
contract over the leading entry axes (``_dot``, ``_form``).  Only the
stacked matmuls of ``_quad`` keep C-contiguous operands with their entries
trailing, because they round by memory layout.  Each stage builds its
norm-independent samples once and keeps them read-only (``_samples``).

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

    ``jet(w, order)`` maps a stack of covectors (..., dim) to
    ``(F, DF, D^2 F, D^3 F)[:order + 1]``, of shapes (...), (..., dim),
    (..., dim, dim) and (..., dim, dim, dim); ``value``, ``grad``, ``hess``
    and ``third`` are its entries one at a time (``from_jet``).
    ``symmetric_flag`` claims evenness in the phi^0 coordinate:
    F(p + phi^0) = F(p - phi^0) for spatial p.  ``flow_coeff`` is a closed
    form of ``flow_coefficients`` with its signature, ``(p, out=None)``;
    the norm's flow steps with it and the certificate samples it."""

    id: str
    dim: int
    jet: Callable[[np.ndarray, int], tuple]
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


# --- norm catalog -----------------------------------------------------------

# The jets compute on entry-major arrays: the entries of DF, D^2 F and D^3 F
# lead, of shapes (dim, ...), (dim, dim, ...) and (dim, dim, dim, ...), and
# each is C-contiguous, so every entry is one contiguous plane over the
# batch.  The helpers below take and give that layout; constant matrices
# carry trailing unit axes to broadcast against the batch.


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, None] * b


def _outer3(a: np.ndarray) -> np.ndarray:
    return a[:, None, None] * a[:, None] * a


def _sym3(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_ij v_k + A_ik v_j + A_jk v_i for symmetric matrices A and vectors v."""
    T = A[:, :, None] * v
    return T + T.swapaxes(1, 2) + np.moveaxis(T, 2, 0)


def _trail(x: np.ndarray, k: int) -> np.ndarray:
    """x with its k leading axes moved to the end, as a view."""
    return x.transpose(tuple(range(k, x.ndim)) + tuple(range(k)))


def _lead(x: np.ndarray, k: int) -> np.ndarray:
    """x with its k trailing axes moved to the front, as a view."""
    return x.transpose(tuple(range(x.ndim - k, x.ndim)) + tuple(range(x.ndim - k)))


def _jet_of(planes):
    """``FinslerNorm.jet`` from a jet on entry-major arrays,
    ``planes(w, order)`` for a float stack w (..., dim): the same arrays,
    returned as views with their entry axes trailing, of shapes (...),
    (..., dim), (..., dim, dim) and (..., dim, dim, dim)."""

    def jet(w, order):
        out = planes(np.asarray(w, dtype=float), order)
        return (out[0],) + tuple(_trail(x, k) for k, x in enumerate(out[1:], 1))

    return jet


def _planes(jet: tuple) -> tuple:
    """The entries of a jet with their entry axes leading: views, and each
    entry one contiguous plane, since every jet is laid out entry-major."""
    return (jet[0],) + tuple(_lead(x, k) for k, x in enumerate(jet[1:], 1))


def _quad(v: np.ndarray, H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v^T H w over the leading axes, summed in the order of v @ H @ w, for
    stacks with their entries trailing.

    The stacked matmuls cost more in loop set-up than in arithmetic, and
    ``_form`` is the cheaper contraction.  This one stays only where its
    rounding is pinned: the elliptic jet's F, the cancelling C2 of
    ``cross_term_bound`` that the benchmark's aniso reference holds, and
    the A values of ``estimate_A_P``.  The stacked matmul rounds by memory
    layout: fed an entry-major G, C2 moves by 1.8e-11 relative.  So the
    stages hand it C-contiguous operands with their entries trailing, as
    they were when these pins were taken, and the jet the stack it was
    given.  The change that moves those pins (ROADMAP item 7) can retire it.
    """
    return (v[..., None, :] @ H @ w[..., :, None])[..., 0, 0]


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

    def planes(w, order):
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
            out.append((3.0 * _outer3(mh) - _sym3(Mb, mh)) / (F * F))
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

    def lin(row, p):
        c, j = row[0]
        s = p[j] if c is None else c * p[j]
        for c, j in row[1:]:
            s = s + (p[j] if c is None else c * p[j])
        return s

    def coeff(P, out=None):
        P = np.asarray(P, dtype=float)
        p = [P[..., i] for i in range(n)]
        m = [lin(row, p) for row in rows]
        pMp = p[0] * m[0]
        for i in range(1, n):
            pMp = pMp + p[i] * m[i]
        zMz = (M00 - 2.0 * lin(row0, p) if row0 else M00) + pMp
        for i, c in shifts:
            m[i] = m[i] - c
        A = np.empty(P.shape + (n,)) if out is None else out
        for i, j, c in entries:
            np.subtract(c, m[i] * m[j] / zMz, out=A[..., i, j])
            if i != j:
                A[..., j, i] = A[..., i, j]
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
    if dim < 2:
        raise ValueError("dim must be >= 2")
    euclid = _elliptic_planes(np.eye(dim))
    idx = np.arange(dim)

    def planes(w, order):
        e = euclid(w, order)
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
            Sijk = np.zeros((dim,) * 3 + np.shape(r))
            Sijk[idx, idx, idx] = 24.0 * w
            gijk = 15.0 * _sym3(I, w) / r7 - 105.0 * _outer3(w) / r1 ** 9
            # Leibniz expansion of (S * g)_ijk
            T_u = Sijk / r3 + _sym3(Sij, gi) + _sym3(gij, Si) + S1 * gijk
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
    no square root: r enters only through r^2.
    """
    d = float(delta)

    def coeff(P, out=None):
        P = np.asarray(P, dtype=float)
        p = [P[..., i] for i in range(n)]
        p2 = [pi * pi for pi in p]
        S = 1.0 + p2[0] * p2[0]
        for x in p2[1:]:
            S = S + x * x
        # 1 + |p|^2 without p_i^2, so 1 - p_i^2 / r^2 = q_i / r^2 cancels nothing
        q = [1.0 + sum(p2[:i] + p2[i + 1:]) for i in range(n)]
        r2 = q[0] + p2[0]
        sigma, e = S / r2, d / r2
        c = 1.0 + e * sigma
        s3, s15 = 3.0 * sigma, 15.0 * sigma
        A = np.empty(P.shape + (n,)) if out is None else out
        for i in range(n):
            g = q[i] / r2 + e * ((12.0 * p2[i] - s3) - p2[i] / r2 * (24.0 * p2[i] - s15))
            np.multiply(c, g, out=A[..., i, i])
            for j in range(i + 1, n):
                g = p[i] * p[j] / r2 * (1.0 + e * (12.0 * (p2[i] + p2[j]) - s15))
                np.multiply(c, -g, out=A[..., i, j])
                A[..., j, i] = A[..., i, j]
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
    D^3 F|_p(phi^0, ., .) entries."""
    spec = SAMPLING["check_symmetry"]
    rng = np.random.default_rng(spec["seed"])
    n = nf.dim - 1
    p_sp = np.array([rng.normal(size=n) * 10.0 ** rng.uniform(-1, 1)
                     for _ in range(spec["n_samples"])])
    p = _embed(p_sp)
    e0 = np.zeros(nf.dim)
    e0[0] = 1.0
    d_val = np.abs(nf.value(p + e0) - nf.value(p - e0))
    _, DF, _, T = nf.jet(p, 3)
    d_grad = np.abs(DF[:, 0])
    d_third = np.maximum(np.max(np.abs(T[:, 0, 1:, 1:]), axis=(1, 2)), np.abs(T[:, 0, 0, 0]))
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
    # _quad takes G C-contiguous, entries trailing (its docstring)
    G = np.multiply(F[..., None, None], H, order="C")
    val = F * np.abs(_quad(pe, G, qe)) / nf.value(qe)
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
    return s_grid, z, _entry_major(z), _entry_major(_embed(p)), _entry_major(qe[None, None])


def estimate_S_eps(nf: FinslerNorm, eps_values) -> dict:
    """For each eps, the smallest sampled scale S with
    |F D(F D^2 F)|_{p-phi^0}(p, q^, q^)| <= eps G(p,p)^(1/2) G(q,q) for all
    sampled F(p) >= S; None if the grid never satisfies the bound
    (non-convergence flag).  The samples are evaluated once for every eps."""
    s_grid, z, zt, pe, qe = _S_eps_samples(nf.dim, None, SAMPLING["estimate_S_eps"])
    F, DF, H, T = _planes(nf.jet(z, 3))
    qh = _hat(F, DF, zt, qe)
    Hqq = _form(qh, H, qh)
    # D^3 F contracted with p on its first index, then with qh twice
    Tpqq = _form(qh, _dot(T, pe[:, None, None]), qh)
    # F * D(F D^2 F)(p, qh, qh) = F (DF(p) D2F(qh,qh) + F D3F(p,qh,qh))
    dG = F * (_dot(DF, pe) * Hqq + F * Tpqq)
    Gpp, Gqq = F * _form(pe, H, pe), F * Hqq
    worst = np.max(np.abs(dG) / (np.sqrt(Gpp) * Gqq), axis=(1, 2))
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
