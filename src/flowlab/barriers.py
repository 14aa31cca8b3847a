"""Closed-form and implicitly defined comparison functions.

Heat kernel Phi, the implicit barrier psi (root of z = Phi(psi-1,t) -
Phi(psi+1,t)), the crossing height z_M, erf cones, shrinking-sphere caps and
(mollified) step data.  All objects are immutable and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PsiBarrier",
    "ConeBarrier",
    "SphereBarrier",
    "StepData",
    "RangeError",
    "phi_jet",
    "psi_eval",
    "psi_eval_clamped",
    "psi_derivs",
    "z_M",
    "phi_double_coordinate",
    "cone_barrier_eval",
    "sphere_eval",
    "step_eval",
    "inverf",
    "erf",
]


class RangeError(ValueError):
    """Requested point is outside the representable branch."""


# --- error function ---------------------------------------------------------


def erf(x):
    """scipy.special.erf, imported on first call so that importing flowlab
    loads no scipy; the one place that knows where erf comes from."""
    from scipy.special import erf as scipy_erf

    return scipy_erf(x)


def inverf(y):
    """scipy.special.erfinv on (-1, 1), imported on first call like ``erf``;
    a float for a scalar."""
    from scipy.special import erfinv

    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        raise ValueError("inverf defined only on (-1, 1)")
    x = erfinv(y)
    return float(x) if y.ndim == 0 else x


# --- heat kernel ------------------------------------------------------------


def phi_jet(c, y, t, log_scale=0.0):
    """(Phi, Phi_y, Phi_yy, Phi_yyy, Phi_t) times exp(log_scale), for the heat
    kernel Phi(y, t) = t^{-1/2} exp(-c y^2 / t), c > 0, from one exponential.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("Phi requires t > 0")
    e = np.exp(log_scale - c * y ** 2 / t)
    t15, q = t ** 1.5, 2.0 * c * y ** 2 / t
    return (e / np.sqrt(t),
            -2.0 * c * y / t15 * e,
            2.0 * c / t15 * (q - 1.0) * e,
            4.0 * c ** 2 * y / t ** 2.5 * (3.0 - q) * e,
            0.5 / t15 * (q - 1.0) * e)


# --- implicit barrier psi ---------------------------------------------------


@dataclass(frozen=True)
class PsiBarrier:
    """psi(z, t) implicitly defined by z = Phi(psi-1, t) - Phi(psi+1, t).

    psi is odd in z, vanishes at z = 0, and tends to sign(z) as t -> 0+.
    Roots are found by _PSI_BISECTIONS bisection steps on psi in (-1, 1).
    """

    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")


_BRACKET = 1.0 - 1e-15
# halvings of the bracket (-1, 1) down to a width below 1e-12: ceil(log2(2 / 1e-12))
_PSI_BISECTIONS = 41


def psi_range(b: PsiBarrier, t) -> float:
    """Largest |z| representable at time t (value of the map at psi -> 1)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("Phi requires t > 0")
    out, work = np.empty(t.shape), np.empty(t.shape)
    return float(_psi_map_into(-b.c, _BRACKET, t, np.sqrt(t), out, work))


def _phi_into(neg_c, y, t, sqrt_t):
    """phi_jet(-neg_c, y, t)[0] written over y, for t > 0 already
    checked and sqrt(t) given: the same rounded steps in the same order,
    (-c) y^2, / t, exp, / sqrt(t)."""
    np.square(y, out=y)
    np.multiply(neg_c, y, out=y)
    np.divide(y, t, out=y)
    np.exp(y, out=y)
    return np.divide(y, sqrt_t, out=y)


def _psi_map_into(neg_c, psi, t, sqrt_t, out, work):
    """psi's defining map Phi(psi - 1, t) - Phi(psi + 1, t) for c = -neg_c,
    written into ``out``; ``work`` is scratch."""
    _phi_into(neg_c, np.subtract(psi, 1.0, out=out), t, sqrt_t)
    _phi_into(neg_c, np.add(psi, 1.0, out=work), t, sqrt_t)
    return np.subtract(out, work, out=out)


def psi_eval_clamped(b: PsiBarrier, z, t):
    """psi with out-of-range z clamped to +-1 (the t -> 0 limiting values).

    Returns (psi, clamped) where ``clamped`` marks the clamped entries.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = z.ndim == 0 and t.ndim == 0
    z, t = np.broadcast_arrays(np.atleast_1d(z), np.atleast_1d(t))
    if np.any(t <= 0):
        raise ValueError("psi requires t > 0")

    neg_c = -b.c
    sqrt_t = np.sqrt(t)
    val = np.empty(z.shape)
    work = np.empty(z.shape)
    zmax = _psi_map_into(neg_c, np.full(z.shape, _BRACKET), t, sqrt_t, val, work)
    clamped = np.abs(z) > zmax
    lo = np.full(z.shape, -_BRACKET)
    hi = np.full(z.shape, _BRACKET)
    mid = np.empty(z.shape)
    less = np.empty(z.shape, dtype=bool)
    # strictly increasing map: plain bisection; np.where selects faster
    # than a masked copy with a data-dependent mask
    for _ in range(_PSI_BISECTIONS):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        _psi_map_into(neg_c, mid, t, sqrt_t, val, work)
        np.less(val, z, out=less)
        lo, hi = np.where(less, mid, lo), np.where(less, hi, mid)
    psi = 0.5 * (lo + hi)
    # psi is odd in z: at z = 0 the first midpoint is the root, but ``less``
    # is false there and the bracket goes on shrinking from below
    psi[z == 0.0] = 0.0
    psi = np.where(clamped, np.sign(z), psi)
    if scalar:
        return float(psi[0]), bool(clamped[0])
    return psi, clamped


def psi_eval(b: PsiBarrier, z, t):
    """psi(z, t); raises RangeError for z outside the representable branch."""
    psi, clamped = psi_eval_clamped(b, z, t)
    if np.any(clamped):
        raise RangeError("z outside the range of the defining map at this t")
    return psi


def psi_derivs(b: PsiBarrier, z, t):
    """Closed-form (psi', psi'', psi''', psi_t) at psi = psi_eval(z, t).

    The returned derivatives satisfy psi_t = psi'' / (4 c psi'^2).  Every
    derivative of the defining map carries the factor exp(-L), L = c (1 -
    |psi|)^2 / t, which underflows as t -> 0.  With D_k the k-th derivative
    times exp(L), psi' = e^L / D_1, psi'' = -D_2 e^2L / D_1^3 and psi''' =
    (3 D_2^2 - D_1 D_3) e^3L / D_1^5 are formed as sign * exp(log), so that
    no finite value passes through inf or NaN and one past the float range
    is +-inf.  psi is odd in z, so psi(0) = psi''(0) = 0 exactly.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    psi = psi_eval(b, z, t)
    L = b.c * (1.0 - np.abs(psi)) ** 2 / t
    _, D1, D2, D3, Dt = map(np.subtract, phi_jet(b.c, psi - 1.0, t, L),
                            phi_jet(b.c, psi + 1.0, t, L))
    with np.errstate(divide="ignore", over="ignore"):
        log_D1 = np.log(D1)
        r2 = D2 / D1
        n3 = 3.0 * r2 ** 2 - D3 / D1
        p1 = np.exp(L - log_D1)
        p2 = np.sign(-r2) * np.exp(2.0 * L + np.log(np.abs(r2)) - 2.0 * log_D1)
        p3 = np.sign(n3) * np.exp(3.0 * L + np.log(np.abs(n3)) - 3.0 * log_D1)
    return p1, p2, p3, -Dt / D1


def z_M(t, M: float, c: float):
    """Distance beyond which the rescaled barrier exceeds M:
    z_M(t) = (4 M^2 / sqrt t) [exp(-c M^2/t) - exp(-9 c M^2/t)]."""
    t = np.asarray(t, dtype=float)
    return 4.0 * M ** 2 / np.sqrt(t) * (
        np.exp(-c * M ** 2 / t) - np.exp(-9.0 * c * M ** 2 / t)
    )


def phi_double_coordinate(b: PsiBarrier, z, t, M: float):
    """phi(z, t) = 2M psi(z / 2M, t / 4M^2), clamped to 2M out of range."""
    psi, _ = psi_eval_clamped(b, np.asarray(z, dtype=float) / (2.0 * M),
                              np.asarray(t, dtype=float) / (4.0 * M ** 2))
    return 2.0 * M * psi


# --- erf cone ---------------------------------------------------------------


@dataclass(frozen=True)
class ConeBarrier:
    """Exact heat solution lying above the cone L |x - h|.

    Solves v_t = v_xx / (4 c) with c = 1 / (4 Lambda); the barrier tends
    to the cone as t -> 0.
    """

    L: float
    h: float
    Lambda: float

    def __post_init__(self):
        if self.L <= 0 or self.Lambda <= 0:
            raise ValueError("require L > 0, Lambda > 0")

    @property
    def c(self) -> float:
        return 1.0 / (4.0 * self.Lambda)


def cone_barrier_eval(cb: ConeBarrier, x, t):
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("require t > 0")
    c = cb.c
    xi = x - cb.h
    return cb.L * xi * erf(np.sqrt(c / t) * xi) + cb.L * np.sqrt(
        t / (c * np.pi)
    ) * np.exp(-c * xi ** 2 / t)


# --- shrinking sphere -------------------------------------------------------


@dataclass(frozen=True)
class SphereBarrier:
    """Spherical cap r(t) = sqrt(r0^2 - 2 n t), an exact graph-MCF solution.

    ``center`` is the horizontal footprint center, ``height`` the vertical
    offset of the sphere center.  Orientation "upper" gives the lower cap of
    a sphere placed above (graph height - r0 + ... ), "lower" the upper cap
    of a sphere placed below.
    """

    center: tuple
    height: float
    r0: float
    n: int
    orientation: str = "upper"

    def __post_init__(self):
        if self.r0 <= 0 or self.n < 1:
            raise ValueError("require r0 > 0, n >= 1")
        if self.orientation not in ("upper", "lower"):
            raise ValueError("orientation must be 'upper' or 'lower'")

    @property
    def extinction_time(self) -> float:
        return self.r0 ** 2 / (2.0 * self.n)

    def radius(self, t) -> float:
        val = self.r0 ** 2 - 2.0 * self.n * np.asarray(t, dtype=float)
        if np.any(val <= 0):
            raise ValueError("t past extinction time r0^2/(2n)")
        return np.sqrt(val)


def sphere_eval(sb: SphereBarrier, x, t):
    """Cap height at horizontal position x (an n-vector or array of them)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = sb.radius(t)
    d2 = np.sum((x - np.asarray(sb.center, dtype=float)) ** 2, axis=-1)
    if np.any(d2 >= r ** 2):
        raise ValueError("point outside the cap footprint")
    cap = np.sqrt(r ** 2 - d2)
    if sb.orientation == "upper":
        out = sb.height + sb.r0 - cap
    else:
        out = sb.height - sb.r0 + cap
    return out[0] if out.shape == (1,) else out


# --- step data --------------------------------------------------------------


def _bump_weights(n_quad: int = 64):
    """Gauss-Legendre discretization of the normalized bump kernel on [-1, 1]."""
    nodes, w = np.polynomial.legendre.leggauss(n_quad)
    k = np.exp(1.0 / (nodes ** 2 - 1.0))
    w = w * k
    return nodes, w / np.sum(w)


_BUMP_NODES, _BUMP_W = _bump_weights()


@dataclass(frozen=True)
class StepData:
    """Step initial data of height M: single jump at s, or crenellated
    M * sigma(sin(pi x / R)); eps > 0 mollifies with the standard bump."""

    M: float
    s: float = 0.0
    mode: str = "single"
    R: float = 1.0
    eps: float = 0.0

    def __post_init__(self):
        if self.M <= 0 or self.eps < 0:
            raise ValueError("require M > 0, eps >= 0")
        if self.mode not in ("single", "crenellated"):
            raise ValueError("mode must be 'single' or 'crenellated'")
        if self.mode == "crenellated" and self.R <= 0:
            raise ValueError("crenellated mode needs R > 0")


def _step_sharp(sd: StepData, x):
    x = np.asarray(x, dtype=float)
    if sd.mode == "single":
        return sd.M * np.sign(x - sd.s)
    return sd.M * np.sign(np.sin(np.pi * (x - sd.s) / sd.R))


def step_eval(sd: StepData, x):
    x = np.asarray(x, dtype=float)
    if sd.eps == 0.0:
        return _step_sharp(sd, x)
    shifted = x[..., None] - sd.eps * _BUMP_NODES
    return np.sum(_step_sharp(sd, shifted) * _BUMP_W, axis=-1)
