import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab import finsler, flows
from flowlab.flows import (
    alpha,
    alpha_closed_form,
    catalog_ids,
    check_degeneracy,
    csf,
    get_flow,
    heat_1d,
    mcf_graph,
    plaplace_reg,
)


def test_catalog_resolution():
    assert get_flow("heat", c=1.0).name == "heat"
    assert get_flow("csf").name == "csf"
    assert get_flow("mcf2d").n == 2
    assert get_flow("mcf3d").n == 3
    assert get_flow("plaplace-reg").name == "plaplace-reg"
    with pytest.raises(KeyError):
        get_flow("unknown-flow")


def test_mcf_coeff_properties():
    flow = mcf_graph(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.normal(size=3) * rng.uniform(0.1, 10)
        A = flow.coeff(p)
        assert np.allclose(A, A.T)
        eigs = np.linalg.eigvalsh(A)
        assert eigs[0] >= 1.0 / (1.0 + p @ p) - 1e-12
        assert eigs[-1] <= 1.0 + 1e-12
        # A p = p / (1 + |p|^2)
        assert np.allclose(A @ p, p / (1.0 + p @ p))


def _catalog_flows():
    """Every catalog flow, with the aniso entry over each builtin norm in 1-D and 2-D."""
    concrete = [fid for fid in catalog_ids() if not fid.startswith("aniso:")]
    out = [get_flow(fid) for fid in concrete]
    for n in (1, 2):
        out += [get_flow(f"aniso:{nf.id}", dim=n + 1) for nf in finsler.builtin_norms(n)]
    return out


def test_mcf_coeff_field_matches_pointwise():
    rng = np.random.default_rng(1)
    for flow in _catalog_flows():
        P = rng.normal(size=(5, 7, flow.n))
        A = flow.coeff(P)
        assert A.shape == (5, 7, flow.n, flow.n), flow.name
        for i in range(5):
            for j in range(7):
                assert np.allclose(A[i, j], flow.coeff(P[i, j]), atol=1e-14), flow.name


def _broadcast_mcf_coeff(P, n):
    """The mcf coefficient as a broadcast: eye(n) - outer / (1 + |p|^2)."""
    P = np.asarray(P, dtype=float)
    pp = np.sum(P ** 2, axis=-1)
    outer = P[..., :, None] * P[..., None, :]
    return np.eye(n) - outer / (1.0 + pp)[..., None, None]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mcf_coeff_bits_match_broadcast_formula(n):
    # mcf's coefficient, the Euclidean norm's flow_coeff, rounds exactly as
    # the broadcast does; zero components next to positive and negative
    # ones pin the sign of zero off the diagonal (0.0 - (+0.0) is +0.0,
    # -(+0.0) is -0.0)
    rng = np.random.default_rng(n)
    coeff = mcf_graph(n).coeff
    shape = (2,) + (6,) * n + (n,)
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 4, shape[:-1] + (1,))
    stack[rng.random(shape) < 0.25] = 0.0
    stack[rng.random(shape) < 0.05] = -0.0
    covectors = [np.zeros(n), np.full(n, -0.0), np.arange(n, dtype=float),
                 -np.arange(n, dtype=float), np.array([0.0, -1.5, 2.0])[:n],
                 np.array([3.0, 0.0, -1e-9])[:n], stack[1, (0,) * n]]
    # zero covectors of either sign, a zero first component of either sign,
    # and steep slopes |p_i| = 1e8
    rows = rng.normal(size=(600, n)) * 10.0 ** rng.uniform(-3, 8, size=(600, 1))
    rows[:40] = 0.0
    rows[40:80] = -0.0
    rows[80:200, 0] = rng.choice([0.0, -0.0], size=120)
    rows[200:220] = 1e8 * np.sign(rng.normal(size=(20, n)))
    covectors += list(rows[[0, 41, 100, 210, 500]])
    for P in [stack, stack[0, 1], rows] + covectors:
        A = coeff(P)
        expected = _broadcast_mcf_coeff(P, n)
        assert A.shape == expected.shape == P.shape + (n,)
        assert A.tobytes() == expected.tobytes(), P


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_mcf_closed_form(n):
    flow = mcf_graph(n)
    rng = np.random.default_rng(n)
    for _ in range(10):
        p = rng.normal(size=n)
        p *= rng.uniform(0.1, 10) / np.linalg.norm(p)
        val = alpha(flow.coeff(p), p, n_dirs=512)
        assert val == pytest.approx(1.0 / (1.0 + p @ p), abs=1e-6)


def test_alpha_closed_form_diag():
    A = np.diag([2.0, 0.5])
    p = np.array([1.0, 0.0])
    # p^T A^{-1} p = 0.5, |p|^2 = 1
    assert alpha_closed_form(A, p) == pytest.approx(2.0)
    assert alpha(A, p, n_dirs=256) == pytest.approx(2.0, abs=1e-6)


def test_alpha_positive_definite_uses_closed_form():
    # |p|^2 / (p^T A^+ p) is |p|^2 / (p^T A^-1 p) = 1 / (1 + |p|^2) for mcf
    p = np.array([0.3, -2.0, 1.1])
    A = mcf_graph(3).coeff(p)
    assert alpha(A, p, n_dirs=512) == alpha_closed_form(A, p)
    assert alpha_closed_form(A, p) == pytest.approx(1.0 / (1.0 + p @ p), rel=1e-14)


def _rank2_3d():
    # A = Q diag(2, 3, 0) Q^T, p = Q (1, 1, 0): p lies in the range of A, so
    # alpha = |p|^2 / (p^T A^+ p) = 2 / (1/2 + 1/3) = 2.4
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    return Q @ np.diag([2.0, 3.0, 0.0]) @ Q.T, Q @ np.array([1.0, 1.0, 0.0])


@pytest.mark.parametrize("A, p, expected", [
    (np.diag([1.0, 0.0]), np.array([1.0, 0.0]), 1.0),
    (np.diag([1.0, 0.0]), np.array([1.0, 1.0]), 0.0),
    (*_rank2_3d(), 2.4),
])
def test_alpha_singular_descent(A, p, expected):
    # singular A takes the one closed form, with its exact value
    assert np.linalg.eigvalsh(A)[0] <= 1e-10
    assert alpha(A, p, n_dirs=512) == alpha_closed_form(A, p)
    assert alpha(A, p, n_dirs=512) == pytest.approx(expected, abs=1e-12)


# 1 % off fails against the sampled minimum; 1e-9 only at the minimiser A^+ p
@pytest.mark.parametrize("factor, match", [(1.01, "sampled minimum"), (1.0 + 1e-9, "objective")])
def test_alpha_cross_check_can_fail(monkeypatch, factor, match):
    closed_form = flows._alpha_of_spectrum
    monkeypatch.setattr(flows, "_alpha_of_spectrum", lambda p, s: factor * closed_form(p, s))
    # mcf in 2-D and 3-D, then singular A with alpha = 1 and 2.4
    ps = [np.linspace(0.5, 2.0, n) for n in (2, 3)]
    cases = [(mcf_graph(len(p)).coeff(p), p) for p in ps]
    cases += [(np.diag([1.0, 0.0]), np.array([1.0, 0.0])), _rank2_3d()]
    for A, p in cases:
        with pytest.raises(ArithmeticError, match=match):
            alpha(A, p, n_dirs=512)


def test_alpha_takes_one_eigendecomposition(monkeypatch):
    # the closed form and the minimiser of its cross-check share one eigh
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
    ps = [np.linspace(0.5, 2.0, n) for n in (2, 3)]
    cases = [(mcf_graph(len(p)).coeff(p), p) for p in ps]
    cases += [(np.diag([1.0, 0.0]), np.array([1.0, 1.0])), _rank2_3d()]
    for A, p in cases:
        calls.clear()
        alpha(A, p, n_dirs=512)
        assert len(calls) == 1


def test_alpha_zero_is_checked_at_the_kernel_part_of_p(monkeypatch):
    # a wrong alpha = 0 for p in the range of A fails at the kernel part of p
    monkeypatch.setattr(flows, "_alpha_of_spectrum", lambda p, s: 0.0)
    with pytest.raises(ArithmeticError, match="objective"):
        alpha(*_rank2_3d(), n_dirs=512)


def test_alpha_rejects_what_it_cannot_sample_or_is_not_psd():
    p = np.ones(4)
    with pytest.raises(ValueError, match="n <= 3"):
        alpha(mcf_graph(4).coeff(p), p)
    with pytest.raises(ValueError, match="positive semidefinite"):
        alpha(np.diag([1.0, -1.0]), np.ones(2))


@pytest.mark.parametrize("seed", [7249, 8375])
def test_alpha_cross_check_allows_ill_conditioned_a(seed):
    # correct positive-definite A with cond 3e7 and 7e8: the objective at
    # A^-1 p misses the closed form by more than 1e-12, the rounding of the
    # solve (about eps cond(A)), which the allowance now scales with
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = Q @ np.diag(10.0 ** rng.uniform(-9, 1, size=3)) @ Q.T
    A = 0.5 * (A + A.T)
    p = rng.normal(size=3)
    assert np.linalg.cond(A) > 9e5
    v = np.linalg.solve(A, p)
    closed = alpha_closed_form(A, p)
    assert abs((p @ p) * (v @ A @ v) / (v @ p) ** 2 - closed) > 1e-12 * max(1.0, closed)
    assert alpha(A, p, n_dirs=512) == closed


def test_alpha_rejects_zero_p():
    with pytest.raises(ValueError):
        alpha(np.eye(2), np.zeros(2))


def test_unit_directions_are_cached_and_read_only():
    dirs = flows._unit_directions(3, 512)
    assert flows._unit_directions(3, 512) is dirs
    with pytest.raises(ValueError, match="read-only"):
        dirs[0, 0] = 2.0
    for n in (2, 3):
        assert not flows._unit_directions(n, 64).flags.writeable


@pytest.mark.parametrize("n", [2, 3])
def test_alpha_is_unchanged_by_the_direction_cache(monkeypatch, n):
    rng = np.random.default_rng(n)
    cases = [(mcf_graph(n).coeff(p), p) for p in rng.normal(size=(3, n))]
    # singular A: the directions feed the sampled cross-check
    cases.append((np.diag([1.0, 0.0, 2.0][:n]), rng.normal(size=n)))
    cached = [alpha(A, p, n_dirs=512) for A, p in cases]
    assert [alpha(A, p, n_dirs=512) for A, p in cases] == cached
    monkeypatch.setattr(flows, "_unit_directions", flows._unit_directions.__wrapped__)
    assert [alpha(A, p, n_dirs=512) for A, p in cases] == cached


def test_degeneracy_certificates():
    s = np.geomspace(1.0, 1e3, 200)
    assert check_degeneracy(mcf_graph(2).degeneracy, s).passed
    # csf: a(p) p^2 = p^2/(1+p^2) >= 1/2 for |p| >= 1
    c = csf()
    profile = flows.DegeneracyProfile(lambda v: 1.0 / (1.0 + v ** 2),
                                      A0=c.degeneracy.A0, P=c.degeneracy.P)
    assert check_degeneracy(profile, s).passed
    # regularized p-laplacian with q < 0 fails at large |p|
    p = plaplace_reg(q=-1.0, eps=0.1)
    bad = flows.DegeneracyProfile(
        lambda v: float(p.coeff(np.array([v]))[0, 0]),
        A0=p.degeneracy.A0, P=p.degeneracy.P)
    rep = check_degeneracy(bad, s)
    assert not rep.passed
    assert rep.witness["s"] == pytest.approx(1e3)


def test_heat_envelopes_constant():
    f = heat_1d(0.25)
    assert f.Lambda_of_K(10.0) == f.Lambda_of_K(0.1) == 1.0
    with pytest.raises(ValueError):
        heat_1d(-1.0)


def test_heat_coeff_squares_no_p():
    # a = 1/(4c) whatever p is, so no p is squared: 1e200 ** 2 would overflow
    with np.errstate(all="raise"):
        assert heat_1d(0.3).coeff(np.array([1e200])).tolist() == [[1.0 / (4.0 * 0.3)]]


def test_csf_envelopes():
    f = csf()
    assert f.Lambda_of_K(5.0) == 1.0


def test_get_flow_takes_only_its_parameters():
    assert tuple(flows.FLOW_PARAMS["heat"].params) == ("c",)
    assert tuple(flows.FLOW_PARAMS["plaplace-reg"].params) == ("q", "eps")
    assert tuple(flows.FLOW_PARAMS["aniso:"].params) == ("dim",)
    assert get_flow("aniso:euclid", dim=2).n == 1
    with pytest.raises(TypeError, match="'c'"):
        get_flow("csf", c=0.3)
    with pytest.raises(TypeError, match="'q'"):
        get_flow("heat", c=0.25, q=1.0)
    with pytest.raises(ValueError, match="integer"):
        get_flow("aniso:euclid", dim=2.5)
    for flow_id in ("wave", "csf:foo", "heat:0.5"):
        with pytest.raises(KeyError):
            get_flow(flow_id)


@pytest.mark.parametrize("flow", [
    heat_1d(0.25), csf(), plaplace_reg(-1.0, 0.1), plaplace_reg(0.0, 0.1),
    plaplace_reg(3.0, 0.2), plaplace_reg(6.0, 0.2), mcf_graph(2), mcf_graph(3),
    get_flow("aniso:quartic:0.001")],
    ids=["heat", "csf", "plaplace-q-1", "plaplace-q0", "plaplace-q3", "plaplace-q6",
         "mcf2d", "mcf3d", "aniso"])
def test_coeff_writes_into_out_bit_for_bit(flow):
    # coeff(Du, out) fills out and returns it, with the bits of coeff(Du);
    # q = 0, 3, 6 give the exponents -1, 0.5, 2 that ``**`` computes apart
    P = np.random.default_rng(3).uniform(-30, 30, (2, 17, flow.n))
    out = np.full(P.shape + (flow.n,), np.nan)
    assert flow.coeff(P, out) is out
    assert out.tobytes() == flow.coeff(P).tobytes()
    if flow.n == 1:
        # the scalar coefficient a itself, on arrays, as the stepper calls it
        a = flow.degeneracy.alpha_tilde
        out = np.full(P.shape, np.nan)
        assert a(P, out) is out
        assert out.tobytes() == np.asarray(a(P), dtype=float).tobytes()
        # the squared form, as the stepper calls it on |Du|^2: p * p underflows
        # at +-0 and 1e-170, overflows at 1e155, and a NaN propagates through
        # every coefficient that depends on p
        p = np.array([0.0, -0.0, 1e-170, -1e-170, 1e155, -1e155, np.inf, -np.inf, np.nan,
                      0.5, -3.0, 30.0])
        with np.errstate(over="ignore", under="ignore"):
            s, expected = p * p, flow.coeff(p[:, None])[:, 0, 0]
        out = np.full(p.shape, -1.0)
        assert flow.coeff.a_of_sq(s, out) is out
        assert out.tobytes() == expected.tobytes()
        assert bool(np.isnan(out[8])) is (flow.name != "heat")
        assert not np.isnan(np.delete(out, 8)).any()


# sha256 of the degeneracy profile on the 400 samples of ``flowlab certify``,
# called on each sample (numpy scalars) and on the sample array, recorded
# before the coefficients took ``out``; pow rounds p ** 2 on a numpy scalar
# differently from p * p, so plaplace-reg's two differ
PROFILE_SHA256 = {
    "heat": ("9498dac910b1db181ba67f375928e0a69b5d011418bbc60f185b36b4256fb76c",
             "9498dac910b1db181ba67f375928e0a69b5d011418bbc60f185b36b4256fb76c"),
    "csf": ("74f5958edf3d015e626c239935ca80795b79dace802196062336c40185f51be0",
            "74f5958edf3d015e626c239935ca80795b79dace802196062336c40185f51be0"),
    "plaplace-reg": ("01b11e345f472315f9f16e7a87da9d1f4ade84962ad1d53b2bfbf6d9f9ce2f23",
                     "ea98a38e05b083aa9845855130f8b19423a1b596341abd4f74c4b892387ab346"),
}


@pytest.mark.parametrize("flow_id", sorted(PROFILE_SHA256))
def test_degeneracy_profile_values_pinned(flow_id):
    profile = get_flow(flow_id).degeneracy
    s = np.geomspace(profile.P, 1e3, 400)
    scalar = np.array([profile.alpha_tilde(si) for si in s])
    array = np.asarray(profile.alpha_tilde(s), dtype=float)
    assert (hashlib.sha256(scalar.tobytes()).hexdigest(),
            hashlib.sha256(array.tobytes()).hexdigest()) == PROFILE_SHA256[flow_id]
