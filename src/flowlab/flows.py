"""Catalog of parabolic operators with structural metadata.

Every entry is one GraphFlowND, u_t = a^ij(Du) D_ij u, packaging the
coefficient together with the degeneracy profile (A, P) and the upper
parabolicity envelope Lambda(K) that the verification checks consume.
Metadata is supplied by the catalog, not inferred; sampled consistency
checks guard against wrong metadata.  A norm of ``finsler`` is a flow here:
mcf is the Euclidean norm's flow, aniso:<norm-id> that of any catalog norm,
and each steps with its norm's closed-form ``flow_coeff``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import finsler
from .reports import VerificationReport

__all__ = [
    "GraphFlowND",
    "DegeneracyProfile",
    "scalar_flow",
    "mcf_graph",
    "heat_1d",
    "csf",
    "plaplace_reg",
    "aniso_flow",
    "get_flow",
    "catalog_ids",
    "alpha",
    "alpha_closed_form",
    "check_degeneracy",
]


@dataclass(frozen=True)
class DegeneracyProfile:
    """Radial lower envelope alpha_tilde(s) with constants A0, P such that
    alpha_tilde(s) * s^2 >= A0 for s >= P."""

    alpha_tilde: Callable[[float], float]
    A0: float
    P: float

    def __post_init__(self):
        if self.A0 <= 0 or self.P <= 0:
            raise ValueError("A0 and P must be positive")


@dataclass(frozen=True)
class GraphFlowND:
    """u_t = a^ij(Du) D_ij u with a symmetric PSD coefficient matrix.

    Every catalog flow has this form; one-dimensional flows are n = 1.
    ``coeff(Du, out=None)`` maps a stack of covectors (..., n) to
    coefficient matrices (..., n, n); one covector p, shape (n,), gives
    a^ij(p), shape (n, n).  Given ``out`` of that shape, it writes the
    matrices there and returns ``out``.  A 1-D catalog coeff (``heat_1d``'s
    and those ``scalar_flow`` builds) also carries ``coeff.a_of_sq``; it
    lives on coeff, not on the flow, so ``dataclasses.replace(flow,
    coeff=...)`` drops it along with the coeff it belongs to.
    """

    n: int
    coeff: Callable[..., np.ndarray]
    Lambda_of_K: Callable[[float], float]
    name: str
    degeneracy: Optional[DegeneracyProfile] = None


def scalar_flow(a_of_sq: Callable[..., np.ndarray], A0: float, P: float,
                Lambda_of_K: Callable[[float], float], name: str) -> GraphFlowND:
    """The n = 1 flow u_t = a(u_x) u_xx, with a written once as a function of
    s = p^2: ``a_of_sq(s, out=None)`` returns a at s, vectorised, written
    into ``out`` when given.

    ``coeff(Du, out=None)`` and the degeneracy profile a(p), with
    a(p) p^2 >= A0 for p >= P, both come from it.  ``coeff.a_of_sq`` is the
    function itself: the stepper feeds it the |Du|^2 that its gradient clip
    needs anyway, so one product serves both.  Without ``out``, s is
    ``p ** 2``, which on a numpy scalar is pow and rounds apart from p * p
    now and then, so the profile keeps its scalar values; with ``out``, s
    is p * p, written into ``out``, as the stepper computes it.
    """

    def a(p, out=None):
        if out is None:
            return a_of_sq(p ** 2)
        return a_of_sq(np.multiply(p, p, out), out)

    def coeff(Du, out=None):
        if out is None:
            return a(np.asarray(Du, dtype=float))[..., None]
        a(Du, out[..., 0])
        return out

    coeff.a_of_sq = a_of_sq
    return GraphFlowND(
        n=1,
        coeff=coeff,
        Lambda_of_K=Lambda_of_K,
        degeneracy=DegeneracyProfile(a, A0=A0, P=P),
        name=name,
    )


def mcf_graph(n: int) -> GraphFlowND:
    """Mean curvature flow for graphs, the flow of the Euclidean norm:
    coeff(p) = I - p p^T / (1 + |p|^2), the norm's ``flow_coeff``."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    profile = DegeneracyProfile(lambda s: 1.0 / (1.0 + np.asarray(s) ** 2), A0=0.5, P=1.0)
    return GraphFlowND(
        n=n,
        coeff=finsler.euclidean_norm(n + 1).flow_coeff,
        Lambda_of_K=lambda K: 1.0,
        degeneracy=profile,
        name=f"mcf{n}d",
    )


def csf() -> GraphFlowND:
    """Curve shortening flow for graphs: u_t = u_xx / (1 + u_x^2)."""

    one = np.array(1.0)

    def a_of_sq(s, out=None):
        b = np.add(s, one, out)
        return np.divide(one, b, out)

    return scalar_flow(
        a_of_sq,
        A0=0.5,
        P=1.0,
        Lambda_of_K=lambda K: 1.0,
        name="csf",
    )


def heat_1d(c: float) -> GraphFlowND:
    """Linear heat equation u_t = u_xx / (4c).

    a p^2 is unbounded above, so the (A, P) certificate is taken at P = 1:
    A = P^2/(4c).  a does not depend on p, so one fill serves as a(p), as
    the squared form ``coeff.a_of_sq`` and as coeff, and no p is squared.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    a_val = 1.0 / (4.0 * c)

    def a(x, out=None):
        if out is None:
            out = np.empty_like(np.asarray(x, dtype=float))
        out.fill(a_val)
        return out

    def coeff(Du, out=None):
        if out is None:
            out = np.empty(np.shape(Du) + (1,))
        return a(out, out)

    coeff.a_of_sq = a
    return GraphFlowND(
        n=1,
        coeff=coeff,
        Lambda_of_K=lambda K: a_val,
        degeneracy=DegeneracyProfile(a, A0=a_val, P=1.0),  # A0 = P^2/(4c), P = 1
        name="heat",
    )


def plaplace_reg(q: float = -1.0, eps: float = 0.1) -> GraphFlowND:
    """Regularized p-Laplacian-style flow a(p) = (eps^2 + p^2)^((q-2)/2).

    For q < 0 the degeneracy condition a(p) p^2 >= A fails at large |p|,
    which makes this the stock counterexample entry.
    """
    expo = (q - 2.0) / 2.0
    eps2 = eps ** 2

    def a_of_sq(s, out=None):
        # ``**=`` works in place on an array, with the fast paths of ``**``
        # (exponent 2, 0.5, -1, ...), and rebinds b to a new numpy scalar
        b = np.add(eps2, s, out)
        b **= expo
        return b

    return scalar_flow(
        a_of_sq,
        A0=min((eps ** 2 + 1.0) ** expo, 1.0),
        P=1.0,
        Lambda_of_K=lambda K: eps ** (2 * expo) if expo < 0 else (eps ** 2 + K ** 2) ** expo,
        name="plaplace-reg",
    )


def aniso_flow(norm_id: str, dim) -> GraphFlowND:
    """u_t = [F D^ij F](Du) u_ij for the norm F of ``finsler.norm_by_id``
    on R^dim: its coefficient is the norm's closed form ``flow_coeff``, and
    Lambda(K) the largest eigenvalue of it sampled on |p| <= K."""
    dim = float(dim)
    if not dim.is_integer():
        raise ValueError(f"dim must be an integer, not {dim!r}")
    nf = finsler.norm_by_id(norm_id, dim=int(dim))
    n = nf.dim - 1

    def Lambda_of_K(K):
        scales = np.linspace(0.0, max(K, 1e-9), 17)
        p = scales[:, None, None] * finsler._spatial_directions(n, 16)
        return float(np.max(np.linalg.eigvalsh(nf.flow_coeff(p))))

    return GraphFlowND(
        n=n,
        coeff=nf.flow_coeff,
        Lambda_of_K=Lambda_of_K,
        name=f"aniso:{nf.id}",
    )


class FlowEntry(NamedTuple):
    """``build(spec, **params)``, spec the text after "aniso:" (else ""),
    and each parameter's (parser, default, range)."""

    build: Callable
    params: dict


# catalog id, or "aniso:" for every aniso:<norm-id>, -> its entry; the
# params are the [flow] schema of a config
FLOW_PARAMS = {
    "heat": FlowEntry(lambda _, c: heat_1d(float(c)), {"c": (float, 0.25, "(0, inf)")}),
    "csf": FlowEntry(lambda _: csf(), {}),
    "mcf2d": FlowEntry(lambda _: mcf_graph(2), {}),
    "mcf3d": FlowEntry(lambda _: mcf_graph(3), {}),
    "plaplace-reg": FlowEntry(lambda _, q, eps: plaplace_reg(float(q), float(eps)),
                              {"q": (float, -1.0, ""), "eps": (float, 0.1, "(0, inf)")}),
    "aniso:": FlowEntry(aniso_flow, {"dim": (int, 3, "[2, inf)")}),
}


def catalog_ids() -> list[str]:
    return [fid + "<norm-id>" if fid.endswith(":") else fid for fid in FLOW_PARAMS]


def get_flow(flow_id: str, **params):
    """Resolve a catalog entry by string id.

    Known ids: "heat" (param c), "csf", "mcf2d", "mcf3d",
    "plaplace-reg" (params q, eps), "aniso:<norm-id>" (param dim, the
    dimension of the norm); FLOW_PARAMS gives the defaults.  An unknown id
    is a KeyError, and a parameter the entry does not take a TypeError.
    """
    family, colon, spec = flow_id.partition(":")
    entry = FLOW_PARAMS.get(family + colon)
    if entry is None:
        raise KeyError(f"unknown flow id {flow_id!r}")
    unknown = sorted(set(params) - set(entry.params))
    if unknown:
        raise TypeError(f"flow {flow_id!r} takes no parameter {unknown[0]!r}")
    defaults = {name: default for name, (_, default, _) in entry.params.items()}
    return entry.build(spec, **defaults | params)


# --- directional degeneracy functional -------------------------------------

_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=8)
def _unit_directions(n: int, n_dirs: int) -> np.ndarray:
    """Quasi-uniform unit directions in R^2 or R^3, cached per (n, n_dirs)
    and read-only."""
    if n == 2:
        theta = np.pi * (np.arange(n_dirs) + 0.5) / n_dirs
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        # Fibonacci lattice on the half sphere (v and -v give the same value)
        k = np.arange(n_dirs)
        z = (k + 0.5) / n_dirs  # (0, 1): upper hemisphere
        phi = k * np.pi * (3.0 - np.sqrt(5.0))
        rho = np.sqrt(1.0 - z ** 2)
        dirs = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    else:
        raise ValueError(f"alpha samples directions for n <= 3 only, not n = {n}")
    dirs.flags.writeable = False
    return dirs


def _spectrum(A: np.ndarray, p: np.ndarray):
    """(w, V, q, kernel) for symmetric PSD A = V diag(w) V^T and q = V^T p;
    ``kernel`` marks the eigenvalues within rounding of zero, w <= n eps max(w)."""
    w, V = np.linalg.eigh(A)
    tol = len(w) * _EPS * w[-1]
    if w[0] < -tol:
        raise ValueError(f"A is not positive semidefinite (eigenvalue {w[0]:.3g})")
    return w, V, p @ V, w <= tol


def alpha_closed_form(A: np.ndarray, p: np.ndarray) -> float:
    """|p|^2 / (p^T A^+ p) for symmetric PSD A, and 0 when p has a component
    in the kernel of A; for positive-definite A this is |p|^2 / (p^T A^-1 p).

    A kernel component counts when it exceeds sqrt(eps) |p|, far above the
    rounding of V^T p.
    """
    p = np.asarray(p, dtype=float)
    return _alpha_of_spectrum(p, _spectrum(np.asarray(A, dtype=float), p))


def _alpha_of_spectrum(p: np.ndarray, spectrum) -> float:
    """``alpha_closed_form`` from ``_spectrum(A, p)``."""
    w, _, q, kernel = spectrum
    q_ker = q * kernel
    pp = p @ p
    if q_ker @ q_ker > _EPS * pp:
        return 0.0
    return float(pp / (q @ (q / np.where(kernel, np.inf, w))))


def alpha(A: np.ndarray, p: np.ndarray, n_dirs: int = 4096) -> float:
    """Directional degeneracy |p|^2 inf_v (v^T A v)/(v . p)^2 over unit v,
    for symmetric PSD A and n <= 3.

    This is ``alpha_closed_form``, cross-checked at run time for every A: it
    may not exceed the minimum over ``n_dirs`` quasi-uniform directions by
    more than 1e-4 max(1, |alpha|), and the objective at the minimiser v (A^+ p,
    or the kernel part of p when alpha = 0) must equal it to
    max(1e-12 max(1, |alpha|), 4 eps max(w) |p|^2 |v|^2 / (v . p)^2), the
    rounding of v^T A v, with v . p above its own rounding 4 n eps |v| |p|;
    otherwise ArithmeticError.  For v = A^+ p the second term is at most
    4 eps cond |alpha|, cond the ratio of the largest to the least eigenvalue
    of A outside its kernel.
    """
    A = np.asarray(A, dtype=float)
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    pp = float(p @ p)
    if pp == 0.0:
        raise ValueError("alpha undefined at p = 0")

    if n == 1:
        return float(A[0, 0])

    dirs = _unit_directions(n, n_dirs)
    vp = dirs @ p
    quad = np.sum((dirs @ A) * dirs, axis=1)
    mask = np.abs(vp) > 1e-12 * np.sqrt(pp)
    sampled = float(np.min(pp * quad[mask] / vp[mask] ** 2, initial=np.inf))

    # one eigendecomposition gives the closed form and its minimiser
    spectrum = _spectrum(A, p)
    closed = _alpha_of_spectrum(p, spectrum)
    scale = max(1.0, abs(closed))
    if closed - sampled > 1e-4 * scale:
        raise ArithmeticError(f"closed-form alpha {closed} exceeds sampled minimum {sampled}")
    w, V, q, kernel = spectrum
    v = V @ (q * kernel if closed == 0.0 else q / np.where(kernel, np.inf, w))
    d, vv = float(v @ p), float(v @ v)
    # the objective at v is unknown (inf) when v . p is within its rounding;
    # v^T A v rounds by about eps max(w) |v|^2
    at_minimiser, rounding = np.inf, 0.0
    if abs(d) > 4 * n * _EPS * np.sqrt(pp * vv):
        at_minimiser = pp * float(v @ A @ v) / d ** 2
        rounding = 4 * _EPS * float(w[-1]) * pp * vv / d ** 2
    if not abs(at_minimiser - closed) <= max(1e-12 * scale, rounding):
        raise ArithmeticError(
            f"closed-form alpha {closed} differs from the objective {at_minimiser} at its minimiser"
        )
    return closed


def check_degeneracy(profile: DegeneracyProfile, s_samples) -> VerificationReport:
    """Check alpha_tilde(s) s^2 >= A0 on every sample of [P, s_max]."""
    s = np.asarray(s_samples, dtype=float)
    if s.size == 0:
        raise ValueError("empty sample set")
    s = s[s >= profile.P]
    if s.size == 0:
        raise ValueError("samples must cover [P, s_max]")
    vals = np.array([profile.alpha_tilde(si) * si ** 2 for si in s])
    margin = vals - profile.A0
    i = int(np.argmin(margin))
    return VerificationReport(
        check_id="degeneracy",
        max_defect=float(-margin[i]),
        tolerance=0.0,
        witness={"s": float(s[i]), "alpha_tilde_s2": float(vals[i])},
        metadata={"A0": profile.A0, "P": profile.P, "n_samples": int(s.size)},
    )
