import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import finsler, flows, solver
from flowlab.fields import Field, Grid1D, GridND
from flowlab.finsler import (
    NormConstructionError,
    builtin_norms,
    cartan_Q,
    certify,
    check_smallness,
    check_symmetry,
    cross_term_bound,
    elliptic_norm,
    estimate_A_P,
    estimate_S_eps,
    euclidean_norm,
    flow_coefficients,
    norm_by_id,
    quartic_norm,
    trace_lower_bound,
)

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")

NORMS = [
    euclidean_norm(3),
    elliptic_norm(np.diag([1.0, 1.5, 2.0])),
    quartic_norm(1e-3, 3),
]


# --- reference formulas: one closure per derivative, each rebuilding its terms


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _outer3(a):
    return a[..., :, None, None] * a[..., None, :, None] * a[..., None, None, :]


def _sym3(A, v):
    T = A[..., :, :, None] * v[..., None, None, :]
    return T + T.swapaxes(-1, -2) + np.moveaxis(T, -1, -3)


def _quad(v, H, w):
    return (v[..., None, :] @ H @ w[..., :, None])[..., 0, 0]


def _ref_elliptic(M):
    """value, grad, hess and third of F(w) = sqrt(w^T M w)."""

    def value(w):
        return np.sqrt(_quad(w, M, w))

    def normal(w):
        F = value(w)[..., None]
        return F, w @ M.T / F

    def grad(w):
        return normal(w)[1]

    def hess(w):
        F, mh = normal(w)
        return (M - _outer(mh, mh)) / F[..., None]

    def third(w):
        F, mh = normal(w)
        return (3.0 * _outer3(mh) - _sym3(M, mh)) / F[..., None, None] ** 2

    return value, grad, hess, third


def _ref_quartic(d, dim):
    """value, grad, hess and third of F(w) = r + d * sum w_i^4 / r^3, with
    the powers of w as products."""
    eu_value, eu_grad, eu_hess, eu_third = _ref_elliptic(np.eye(dim))
    I = np.eye(dim)
    idx = np.arange(dim)

    def value(w):
        r = eu_value(w)
        return r + d * np.sum((w * w) * (w * w), axis=-1) / r ** 3

    def grad(w):
        r = eu_value(w)[..., None]
        S = np.sum((w * w) * (w * w), axis=-1)[..., None]
        return eu_grad(w) + d * (4.0 * ((w * w) * w) / r ** 3 - 3.0 * S * w / r ** 5)

    def parts(w):
        r = eu_value(w)
        r1, r2 = r[..., None], r[..., None, None]
        Si = 4.0 * ((w * w) * w)
        Sij = I * (12.0 * (w * w))[..., None, :]
        gi = -3.0 * w / r1 ** 5
        gij = -3.0 * I / r2 ** 5 + 15.0 * _outer(w, w) / r2 ** 7
        return r, np.sum((w * w) * (w * w), axis=-1), Si, Sij, gi, gij

    def hess(w):
        r, S, Si, Sij, gi, gij = parts(w)
        r, S = r[..., None, None], S[..., None, None]
        H_u = Sij / r ** 3 + _outer(Si, gi) + _outer(gi, Si) + S * gij
        return eu_hess(w) + d * H_u

    def third(w):
        r, S, Si, Sij, gi, gij = parts(w)
        r, S = r[..., None, None, None], S[..., None, None, None]
        Sijk = np.zeros(w.shape + (dim, dim))
        Sijk[..., idx, idx, idx] = 24.0 * w
        gijk = 15.0 * _sym3(I, w) / r ** 7 - 105.0 * _outer3(w) / r ** 9
        T_u = Sijk / r ** 3 + _sym3(Sij, gi) + _sym3(gij, Si) + S * gijk
        return eu_third(w) + d * T_u

    return value, grad, hess, third


COUPLED = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.0], [0.0, 0.0, 2.0]])
JET_CASES = [(nf, ref) for dim in (2, 3) for nf, ref in [
    (euclidean_norm(dim), _ref_elliptic(np.eye(dim))),
    (elliptic_norm(np.diag(1.0 + 0.5 * np.arange(dim))),
     _ref_elliptic(np.diag(1.0 + 0.5 * np.arange(dim)))),
    (quartic_norm(1e-3, dim), _ref_quartic(1e-3, dim)),
    # the largest delta that passes the convexity probe shows the most of its terms
    (quartic_norm(0.3, dim), _ref_quartic(0.3, dim)),
]] + [(elliptic_norm(COUPLED), _ref_elliptic(COUPLED))]


@pytest.mark.parametrize("nf, ref", JET_CASES,
                         ids=[f"{nf.id}-dim{nf.dim}" for nf, _ in JET_CASES])
def test_jet_matches_reference_formulas_bit_for_bit(nf, ref):
    rng = np.random.default_rng(nf.dim)
    # covector scales from 1e-3 to 1e3
    W = rng.normal(size=(20, 10, nf.dim)) * 10.0 ** rng.uniform(-3, 3, size=(20, 10, 1))
    # one covector is compared as a stack of one: numpy rounds the 0-d scalar
    # powers of the value closure unlike the array loop
    for w, expected in [(W, [fn(W) for fn in ref])] + [
            (W[i, j], [fn(W[i:i + 1, j])[0] for fn in ref]) for i, j in ((0, 0), (19, 9))]:
        for order in range(4):
            jet = nf.jet(w, order)
            assert len(jet) == order + 1
            for k, (got, want) in enumerate(zip(jet, expected)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
                    f"{nf.id} dim {nf.dim}: order {order} entry {k}"
        for k, name in enumerate(("value", "grad", "hess", "third")):
            assert getattr(nf, name)(w).tobytes() == expected[k].tobytes(), name


EVEN_CASES = [nf for dim in (2, 3) for nf in (
    euclidean_norm(dim), elliptic_norm(np.diag(1.0 + 0.5 * np.arange(dim))),
    quartic_norm(1e-3, dim), quartic_norm(0.3, dim))] + [elliptic_norm(COUPLED)]


@pytest.mark.parametrize("nf", EVEN_CASES, ids=[f"{nf.id}-dim{nf.dim}" for nf in EVEN_CASES])
def test_jet_is_exactly_even(nf):
    # F(-w) = F(w), DF(-w) = -DF(w), ... bit for bit: no entry of the jet
    # rounds apart under w -> -w
    rng = np.random.default_rng(20 + nf.dim)
    W = rng.normal(size=(2000, nf.dim)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
    for k, (got, want) in enumerate(zip(nf.jet(-W, 3), nf.jet(W, 3))):
        want = want if k % 2 == 0 else -want
        assert got.tobytes() == want.tobytes(), f"{nf.id} dim {nf.dim}: entry {k}"


def _fd_grad(nf, w, d=1e-6):
    out = np.zeros_like(w)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = d
        out[i] = (nf.value(w + e) - nf.value(w - e)) / (2 * d)
    return out


def _fd_hess(nf, w, d=1e-5):
    out = np.zeros((len(w), len(w)))
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = d
        out[i] = (nf.grad(w + e) - nf.grad(w - e)) / (2 * d)
    return 0.5 * (out + out.T)


def _fd_third(nf, w, d=1e-5):
    out = np.zeros((len(w),) * 3)
    for i in range(len(w)):
        e = np.zeros_like(w)
        e[i] = d
        out[i] = (nf.hess(w + e) - nf.hess(w - e)) / (2 * d)
    return out


@pytest.mark.parametrize("nf", NORMS, ids=lambda nf: nf.id)
def test_derivatives_match_finite_differences(nf):
    rng = np.random.default_rng(2)
    for _ in range(6):
        w = rng.normal(size=nf.dim)
        w *= rng.uniform(0.5, 3.0) / np.linalg.norm(w)
        assert np.allclose(nf.grad(w), _fd_grad(nf, w), atol=1e-8)
        assert np.allclose(nf.hess(w), _fd_hess(nf, w), atol=1e-6)
        assert np.allclose(nf.third(w), _fd_third(nf, w), atol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_derivatives_match_per_covector(n):
    rng = np.random.default_rng(10 + n)
    for nf in builtin_norms(n):
        W = rng.normal(size=(5, 7, nf.dim))
        for order, name in enumerate(("value", "grad", "hess", "third")):
            fn = getattr(nf, name)
            batch = fn(W)
            single = np.array([[fn(W[i, j]) for j in range(7)] for i in range(5)])
            assert batch.shape == single.shape == (5, 7) + (nf.dim,) * order
            np.testing.assert_allclose(batch, single, rtol=1e-14, atol=1e-14,
                                       err_msg=f"{nf.id} {name}")


@pytest.mark.parametrize("nf", NORMS, ids=lambda nf: nf.id)
@given(t=st.floats(0.1, 10), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_euler_identities(nf, t, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=nf.dim)
    if np.linalg.norm(w) < 1e-2:
        return
    F = nf.value(w)
    # 1-homogeneity, degree-0 gradient, degree -1 Hessian null direction
    assert nf.value(t * w) == pytest.approx(t * F, rel=1e-12)
    assert float(nf.grad(w) @ w) == pytest.approx(F, rel=1e-12)
    assert np.allclose(nf.hess(w) @ w, 0.0, atol=1e-10 * max(1.0, F))


def test_quartic_zero_delta_is_euclidean():
    q0 = quartic_norm(0.0, 3)
    eu = euclidean_norm(3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = rng.normal(size=3)
        assert q0.value(w) == pytest.approx(eu.value(w), rel=1e-14)
        assert np.allclose(q0.hess(w), eu.hess(w), atol=1e-12)
        assert np.allclose(q0.third(w), eu.third(w), atol=1e-12)


def test_quartic_convexity_guard():
    with pytest.raises(NormConstructionError):
        quartic_norm(1.0, 3)  # far beyond the convexity threshold


def test_elliptic_validation():
    with pytest.raises(NormConstructionError):
        elliptic_norm(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(NormConstructionError):
        elliptic_norm(np.diag([1.0, -1.0]))  # not positive definite


NON_FINITE_CASES = [
    ("quartic:nan", "delta must be finite"),
    ("quartic:inf", "delta must be finite"),
    ("quartic:-inf", "delta must be finite"),
    ("elliptic:nan,1", "M must be finite"),
    ("elliptic:1,inf,2", "M must be finite"),
    ("elliptic:1,nan;nan,1", "M must be finite"),
]


@pytest.mark.parametrize("norm_id, message", NON_FINITE_CASES,
                         ids=[c[0] for c in NON_FINITE_CASES])
def test_non_finite_norm_parameters_are_construction_errors(norm_id, message):
    # checked before the convexity probe's eigenvalues or the symmetry test
    # can fail on them
    with pytest.raises(NormConstructionError, match=f"^{message}$"):
        norm_by_id(norm_id)


def test_norm_by_id():
    assert norm_by_id("euclid").id == "euclid"
    nf = norm_by_id("elliptic:1.0,2.0,3.0")
    assert nf.dim == 3 and nf.symmetric_flag
    nf2 = norm_by_id("elliptic:1.0,0.5;0.5,2.0")
    assert nf2.dim == 2 and not nf2.symmetric_flag
    assert norm_by_id("quartic:0.001").id == "quartic:0.001"
    with pytest.raises(KeyError):
        norm_by_id("octagon")
    # a keyword it does not take is an error, not silently dropped
    with pytest.raises(TypeError, match="delta"):
        norm_by_id("euclid", delta=0.1)


def test_flow_coefficients_euclid_is_mcf():
    mcf = flows.mcf_graph(2)
    nf = euclidean_norm(3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.normal(size=2) * rng.uniform(0.1, 5)
        assert np.allclose(flow_coefficients(nf, p), mcf.coeff(p), atol=1e-12)


# M_0s != 0 with coupled spatial entries
SKEWED = np.array([[2.0, -0.4, 0.3, 0.1], [-0.4, 1.5, 0.2, 0.0],
                   [0.3, 0.2, 1.0, -0.25], [0.1, 0.0, -0.25, 1.2]])
CLOSED_FORM_CASES = [euclidean_norm(dim) for dim in (2, 3, 4)] + [
    elliptic_norm(np.diag([1.0, 1.5, 2.0])), elliptic_norm(COUPLED), elliptic_norm(SKEWED)]


@pytest.mark.parametrize("nf", CLOSED_FORM_CASES, ids=[
    "euclid-dim2", "euclid-dim3", "euclid-dim4", "diagonal", "coupled", "skewed"])
def test_elliptic_closed_form_matches_flow_coefficients(nf):
    rng = np.random.default_rng(30 + nf.dim)
    n = nf.dim - 1
    P = rng.normal(size=(40, 25, n)) * 10.0 ** rng.uniform(-3, 3, size=(40, 25, 1))
    want = flow_coefficients(nf, P)
    got = nf.flow_coeff(P)
    assert got.shape == want.shape == (40, 25, n, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    out = np.full(want.shape, np.nan)
    assert nf.flow_coeff(P, out) is out and out.tobytes() == got.tobytes()
    assert nf.flow_coeff(P[3, 4]).tobytes() == got[3, 4].tobytes()


def _dense_elliptic_flow_coeff(M, P):
    """The elliptic closed form with every entry of M in its sums, 0 * p_j
    and 1 * p_j included, each sum left to right."""
    n = M.shape[0] - 1
    M00, M0s, Mss = float(M[0, 0]), M[0, 1:].tolist(), M[1:, 1:].tolist()

    def dot(a, b):
        acc = a[0] * b[0]
        for ai, bi in zip(a[1:], b[1:]):
            acc = acc + ai * bi
        return acc

    P = np.asarray(P, dtype=float)
    p = [P[..., i] for i in range(n)]
    Mp = [dot(row, p) for row in Mss]
    m = [Mp[i] - M0s[i] for i in range(n)]
    zMz = (M00 - 2.0 * dot(M0s, p)) + dot(p, Mp)
    A = np.empty(P.shape + (n,))
    for i in range(n):
        for j in range(n):
            A[..., i, j] = np.subtract(Mss[i][j], m[i] * m[j] / zMz)
    return A


DENSE_CASES = {**{f"euclid-dim{dim}": np.eye(dim) for dim in (2, 3, 4)},
               "diagonal": np.diag([1.0, 1.5, 2.0]), "coupled": COUPLED, "skewed": SKEWED,
               "coupled-dim2": np.array([[2.0, 0.5], [0.5, 1.0]])}


@pytest.mark.parametrize("M", DENSE_CASES.values(), ids=DENSE_CASES.keys())
def test_elliptic_closed_form_bits_match_the_dense_sums(M):
    # a zero entry of M adds no term and a unit entry no product: the same
    # bits as summing every entry, at zero components of either sign too
    nf = elliptic_norm(M)
    rng = np.random.default_rng(80 + nf.dim)
    n = nf.dim - 1
    P = rng.normal(size=(300, n)) * 10.0 ** rng.uniform(-3, 8, size=(300, 1))
    P[:20] = 0.0
    P[20:40] = -0.0
    P[40:120] = np.where(rng.random((80, n)) < 0.5, rng.choice([0.0, -0.0], size=(80, n)),
                         P[40:120])
    want = _dense_elliptic_flow_coeff(M, P)
    assert nf.flow_coeff(P).tobytes() == want.tobytes()
    for p in P[[0, 21, 50, 77, 200]]:
        assert nf.flow_coeff(p).tobytes() == _dense_elliptic_flow_coeff(M, p).tobytes()


QUARTIC_CASES = [(delta, dim) for delta in (1e-3, 0.3) for dim in (2, 3, 4)]


@pytest.mark.parametrize("delta, dim", QUARTIC_CASES,
                         ids=[f"quartic:{d}-dim{dim}" for d, dim in QUARTIC_CASES])
def test_quartic_closed_form_matches_flow_coefficients(delta, dim):
    # past |p| ~ 1e4 both forms cancel in the I - p p^T / r^2 part
    nf = quartic_norm(delta, dim)
    rng = np.random.default_rng(60 + dim)
    n = dim - 1
    P = rng.normal(size=(40, 25, n)) * 10.0 ** rng.uniform(-3, 3, size=(40, 25, 1))
    want = flow_coefficients(nf, P)
    got = nf.flow_coeff(P)
    assert got.shape == want.shape == (40, 25, n, n)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # exactly even and symmetric
    assert nf.flow_coeff(-P).tobytes() == got.tobytes()
    assert got.tobytes() == np.ascontiguousarray(np.swapaxes(got, -1, -2)).tobytes()
    out = np.full(want.shape, np.nan)
    assert nf.flow_coeff(P, out) is out and out.tobytes() == got.tobytes()
    assert nf.flow_coeff(P[3, 4]).tobytes() == got[3, 4].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quartic_closed_form_is_finite_at_zero_and_steep_slopes(n):
    P = np.zeros((6, n))
    P[1] = -0.0
    P[2, 0] = -0.0
    P[3:] = 1e8 * np.sign(np.random.default_rng(70 + n).normal(size=(3, n)))
    with np.errstate(all="raise"):
        got = quartic_norm(0.3, n + 1).flow_coeff(P)
    assert np.all(np.isfinite(got))
    # -0 in one component may sign an off-diagonal zero, nothing else
    assert got[0].tobytes() == got[1].tobytes() and np.array_equal(got[0], got[2])


def test_aniso_flow_takes_the_closed_form_when_the_norm_has_one():
    # every catalog norm has one, and the flow steps with it
    for norm_id in ("euclid", "elliptic:1,1.5,2", "quartic:0.001"):
        nf = norm_by_id(norm_id)
        P = np.random.default_rng(50).normal(size=(30, nf.dim - 1)) * 5.0
        assert flows.aniso_flow(norm_id, 3).coeff(P).tobytes() == nf.flow_coeff(P).tobytes()
    P = np.random.default_rng(50).normal(size=(30, 2)) * 5.0
    got = flows.get_flow("aniso:quartic:0.001").coeff(P)
    want = flow_coefficients(norm_by_id("quartic:0.001"), P)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_aniso_euclid_evolves_to_mcf2d():
    ax = Grid1D(0.0, 2 * np.pi, 24, "periodic")
    g = GridND((ax, ax))
    X, Y = g.meshgrid()
    u0 = Field(g, 0.3 * np.sin(X) * np.sin(Y) + 0.2 * np.cos(X + Y))
    bc, plan = solver.BoundaryCondition("periodic"), solver.TimeStepPlan(t_end=0.05)
    got = solver.evolve(flows.get_flow("aniso:euclid"), u0, bc, plan)
    want = solver.evolve(flows.mcf_graph(2), u0, bc, plan)
    assert got.dt_stats["n_steps"] == want.dt_stats["n_steps"]
    assert np.array_equal(got.fields[-1].values, want.fields[-1].values)


def test_aniso_flow_envelopes():
    flow = flows.aniso_flow("euclid", 3)
    assert flow.n == 2
    assert flow.Lambda_of_K(2.0) == pytest.approx(1.0, abs=1e-10)


def test_cartan_Q_symmetric_in_arguments():
    nf = quartic_norm(1e-3, 3)
    rng = np.random.default_rng(5)
    z = rng.normal(size=3)
    p, q, r = rng.normal(size=(3, 3))
    vals = {cartan_Q(nf, z, *perm) for perm in
            [(p, q, r), (q, p, r), (r, q, p), (p, r, q)]}
    assert max(vals) - min(vals) < 1e-10 * max(1.0, abs(max(vals)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_component_contractions_match_einsum(d):
    # _dot and _form contract over the leading entry axes and add in
    # another order than einsum; each result stays within (terms) * eps of
    # the sum of the terms' magnitudes
    rng = np.random.default_rng(d)
    p, q, r = rng.normal(size=(3, d, 50, 7))
    H, T = rng.normal(size=(d, d, 50, 1)), rng.normal(size=(d, d, d, 50, 1))
    eps = np.finfo(float).eps
    cases = [
        (finsler._dot(p, q), np.einsum("i...,i...", p, q),
         np.einsum("i...,i...", abs(p), abs(q)), d),
        (finsler._form(p, H, q), np.einsum("i...,ij...,j...", p, H, q),
         np.einsum("i...,ij...,j...", abs(p), abs(H), abs(q)), 2 * d),
        # D^3 F contracted with r on its last index, as check_smallness does
        (finsler._form(p, finsler._dot(np.moveaxis(T, 2, 0), r[:, None, None]), q),
         np.einsum("ijk...,i...,j...,k...", T, p, q, r),
         np.einsum("ijk...,i...,j...,k...", abs(T), abs(p), abs(q), abs(r)), 3 * d),
    ]
    for got, ref, size, terms in cases:
        assert got.shape == ref.shape
        assert np.all(abs(got - ref) <= terms * eps * size)


def test_cartan_Q_vanishes_for_elliptic():
    # quadratic norms have Cartan tensor zero on tangent directions
    nf = elliptic_norm(np.diag([1.0, 2.0, 3.0]))
    rng = np.random.default_rng(6)
    for _ in range(5):
        z = rng.normal(size=3)
        p, q, r = rng.normal(size=(3, 3))
        assert abs(cartan_Q(nf, z, p, q, r)) < 1e-10


def test_estimate_A_P_euclid():
    # B(p) = s^2 / (1 + s^2) at F(p) = s rises with s, against the plateau 1:
    # P is the first grid scale whose B reaches 1/2 and A = P^2 / (1 + P^2).
    # In dim 3, B(1) ties 1/2 and rounds below it in some direction, so P is
    # 1 or the next grid scale
    for dim in (2, 3):
        A, P = estimate_A_P(euclidean_norm(dim))
        assert P in (1.0, 1.0002808069682727)
        assert A == pytest.approx(P * P / (1.0 + P * P), rel=1e-14, abs=0.0)


def test_estimate_A_P_plateau_guard():
    with pytest.raises(RuntimeError):
        estimate_A_P(euclidean_norm(3), s_max=2.0)


def test_smallness_thresholds():
    C1, pass4, pass2 = check_smallness(euclidean_norm(3))
    assert C1 < 1e-10 and pass4 and pass2
    C1q, pass4q, _ = check_smallness(quartic_norm(1e-3, 3))
    assert 0 < C1q < 0.1 and pass4q


def test_smallness_fails_for_a_large_quartic_perturbation():
    # C1 is about 22 here, far past both thresholds (C1^2 < 4/sqrt(2), 2/sqrt(2))
    C1, pass4, pass2 = check_smallness(quartic_norm(0.3, 3))
    assert C1 > 20.0 and not pass4 and not pass2


def test_symmetry_probe_detects_coupling():
    assert check_symmetry(euclidean_norm(3)).passed
    assert check_symmetry(elliptic_norm(np.diag([1.0, 1.5, 2.0]))).passed
    M = np.array([[1.0, 0.3, 0.0], [0.3, 1.5, 0.0], [0.0, 0.0, 2.0]])
    rep = check_symmetry(elliptic_norm(M))
    assert not rep.passed
    assert not elliptic_norm(M).symmetric_flag


def test_trace_lower_bound_euclid():
    # tr(I - p p^T / (1 + s^2)) = n - 1 + 1 / (1 + s^2), least at s = s_max
    for dim in (3, 4):
        want = dim - 2 + 1.0 / (1.0 + 1e3 ** 2)
        assert trace_lower_bound(euclidean_norm(dim), s_max=1e3) == pytest.approx(
            want, rel=1e-14, abs=0.0)


def test_cross_term_requires_symmetry():
    M = np.array([[1.0, 0.3], [0.3, 1.5]])
    with pytest.raises(ValueError):
        cross_term_bound(elliptic_norm(M))


def test_certify_writes_json(tmp_path):
    path = tmp_path / "cert.json"
    consts = certify(euclidean_norm(3), path=path)
    assert path.exists()
    assert consts.C2 is not None
    assert set(consts.S_eps) == {0.5, 0.1}
    data = path.read_text()
    assert '"norm_id": "euclid"' in data


def test_sample_spec_is_the_sampling_table():
    consts = certify(quartic_norm(1e-3, 3), s_max=500.0)
    assert consts.sample_spec == {"s_max": 500.0, **finsler.SAMPLING}
    assert consts.sample_spec["cross_term_bound"] is not finsler.SAMPLING["cross_term_bound"]
    jsonable = json.loads(consts.to_json())["sample_spec"]
    assert jsonable["estimate_S_eps"]["s_grid"] == [1.0, 1e4, 40]


def test_builtin_norms_catalog():
    norms = builtin_norms(2)
    assert [nf.dim for nf in norms] == [3, 3, 3]
    with pytest.raises(ValueError):
        builtin_norms(0)


def test_quartic_certificate_matches_benchmark_reference():
    with open(REFERENCE) as fh:
        expected = json.load(fh)["aniso"]["certify"]
    observed = certify(quartic_norm(1e-3, 3)).to_jsonable()
    assert observed["norm_id"] == expected["norm_id"]
    assert observed["S_eps"] == expected["S_eps"]
    for key in ("A", "P", "k", "C1", "C2"):
        assert math.isclose(observed[key], expected[key], rel_tol=1e-12), key


NAN = float("nan")


# (norm id, dim, A, P, k, C1, C2, S_eps) as certified before the derivative
# jet; A as sampled from the closed-form flow coefficients, which moved it by
# 1 ulp for euclid (both dims) and quartic:0.001 in dim 2; C1 as contracted
# component by component, which moved it in its last digits (pure rounding
# for the quadratic norms)
PINNED_CERTIFICATES = [
    ("euclid", 2, 0.5, 1.0, NAN, 1.120203858836148e-12,
     0.9999995000502525, {0.5: 1.0, 0.1: 1.0}),
    ("euclid", 3, 0.5001403837709986, 1.0002808069682727, 1.0000009999989998,
     8.19032538273351e-15, 0.9999104564224002, {0.5: 1.0, 0.1: 1.0}),
    ("elliptic:1,1.5", 2, 0.5, 1.0, NAN, 2.7410103906121395e-13,
     0.999999666672885, {0.5: 1.0, 0.1: 1.0}),
    ("elliptic:1,1.5,2", 3, 0.5001403837709986, 1.0002808069682727, 1.5009044076680242,
     7.49969541189665e-15, 0.9999174602724754, {0.5: 1.0, 0.1: 1.0}),
    ("quartic:0.001", 2, 0.5019988716316826, 1.0, NAN, 0.011989932937762158,
     0.9979965270938721, {0.5: 1.0, 0.1: 1.0}),
    ("quartic:0.001", 3, 0.5016282282954934, 1.0, 0.9980653395792088,
     0.011436510643955188, 0.9988816039286746, {0.5: 1.0, 0.1: 1.0}),
]


@pytest.mark.parametrize("norm_id, dim, A, P, k, C1, C2, S_eps", PINNED_CERTIFICATES,
                         ids=[f"{c[0]}-dim{c[1]}" for c in PINNED_CERTIFICATES])
def test_certificate_constants_are_pinned(norm_id, dim, A, P, k, C1, C2, S_eps):
    c = certify(norm_by_id(norm_id, dim))
    assert (c.A, c.P, c.C1, c.C2, c.S_eps) == (A, P, C1, C2, S_eps)
    assert c.k == k or (math.isnan(c.k) and math.isnan(k))


QUADRATIC_NORMS = [c[:2] for c in PINNED_CERTIFICATES if not c[0].startswith("quartic:")]


@pytest.mark.parametrize("norm_id, dim", QUADRATIC_NORMS,
                         ids=[f"{norm_id}-dim{dim}" for norm_id, dim in QUADRATIC_NORMS])
def test_quadratic_norms_have_C1_of_rounding_size(norm_id, dim):
    # the Cartan tensor of F = sqrt(w^T M w) vanishes, so C1 is rounding;
    # test_smallness_fails_for_a_large_quartic_perturbation is the negative
    # control
    C1, pass4, pass2 = check_smallness(norm_by_id(norm_id, dim))
    assert C1 < 1e-10 and pass4 and pass2


SAMPLE_CACHES = [finsler._A_P_samples, finsler._trace_samples, finsler._smallness_samples,
                 finsler._cross_term_samples, finsler._S_eps_samples]


def _certificate_text(nf):
    return json.dumps(certify(nf).to_jsonable())  # k is NaN in dim 2


def _fresh_certificate_text(nf):
    for cache in SAMPLE_CACHES:
        cache.cache_clear()
    return _certificate_text(nf)


def test_interleaved_certificates_equal_fresh_ones():
    # the cached samples depend on the stage's dimension and table only
    norms = [quartic_norm(1e-3, 3), euclidean_norm(3), quartic_norm(1e-3, 2),
             quartic_norm(1e-3, 3)]
    fresh = [_fresh_certificate_text(nf) for nf in norms]
    assert [_certificate_text(nf) for nf in norms] == fresh


def test_edited_sampling_table_builds_new_samples():
    nf = quartic_norm(1e-3, 3)
    C1 = check_smallness(nf)[0]
    spec = finsler.SAMPLING["check_smallness"]
    n_triples = spec["n_triples"]
    try:
        spec["n_triples"] = n_triples + 5
        assert check_smallness(nf)[0] != C1
    finally:
        spec["n_triples"] = n_triples
    assert check_smallness(nf)[0] == C1


def test_cached_samples_are_read_only():
    certify(quartic_norm(1e-3, 3))
    stacks = [
        finsler._A_P_samples(3, 1e3, finsler.SAMPLING["estimate_A_P"]),
        finsler._trace_samples(3, 1e3, finsler.SAMPLING["trace_lower_bound"]),
        finsler._smallness_samples(3, None, finsler.SAMPLING["check_smallness"]),
        finsler._cross_term_samples(3, 1e3, finsler.SAMPLING["cross_term_bound"]),
        finsler._S_eps_samples(3, None, finsler.SAMPLING["estimate_S_eps"]),
    ]
    for arrays in stacks:
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


@pytest.mark.parametrize("nf", EVEN_CASES, ids=[f"{nf.id}-dim{nf.dim}" for nf in EVEN_CASES])
def test_jet_entries_are_entry_major(nf):
    # each entry of DF, D^2 F and D^3 F is one contiguous plane over the
    # batch, for any layout of the stack
    rng = np.random.default_rng(30 + nf.dim)
    stacks = [rng.normal(size=nf.dim), rng.normal(size=(40, nf.dim)),
              rng.normal(size=(5, 4, 1, nf.dim)), rng.normal(size=(9, 2 * nf.dim))[:, ::2],
              np.asfortranarray(rng.normal(size=(6, nf.dim)))]
    for w in stacks:
        jet = nf.jet(w, 3)
        for k, x in enumerate(jet[1:], 1):
            assert x.shape == w.shape[:-1] + (nf.dim,) * k
            lead = np.moveaxis(x, tuple(range(-k, 0)), tuple(range(k)))
            assert lead.flags.c_contiguous, f"entry {k} of a {w.shape} stack"


def test_S_eps_shares_its_samples_across_eps():
    # 1e-12 is never met on the grid: the non-convergence flag
    got = estimate_S_eps(quartic_norm(1e-3, 3), (0.5, 0.1, 1e-3, 1e-12))
    assert got == {0.5: 1.0, 0.1: 1.0, 1e-3: 142.5102670302998, 1e-12: None}
    assert list(got) == [0.5, 0.1, 1e-3, 1e-12]
