import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, erfinv

from flowlab import barriers
from flowlab.barriers import (
    ConeBarrier,
    HeatKernel,
    PsiBarrier,
    RangeError,
    SphereBarrier,
    StepData,
    cone_barrier_eval,
    inverf,
    phi_eval,
    phi_double_coordinate,
    psi_derivs,
    psi_eval,
    psi_eval_clamped,
    psi_range,
    sphere_eval,
    step_eval,
    z_M,
)


# --- inverse error function ---------------------------------------------------


def test_inverf_against_scipy_oracle():
    y = np.linspace(-0.999999, 0.999999, 4001)
    assert np.max(np.abs(inverf(y) - erfinv(y))) < 1e-10


@given(st.floats(-0.999, 0.999))
@settings(max_examples=100, deadline=None)
def test_inverf_roundtrip(y):
    assert erf(inverf(y)) == pytest.approx(y, abs=1e-12)


def test_inverf_domain():
    with pytest.raises(ValueError):
        inverf(1.0)
    assert inverf(0.0) == 0.0


# --- heat kernel ---------------------------------------------------------------


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_phi_derivatives_fd(c):
    k = HeatKernel(c)
    y = np.linspace(-2, 2, 41)
    t = 0.7
    d = 1e-5
    fd1 = (phi_eval(k, y + d, t) - phi_eval(k, y - d, t)) / (2 * d)
    fd2 = (phi_eval(k, y + d, t) - 2 * phi_eval(k, y, t) + phi_eval(k, y - d, t)) / d ** 2
    fd3 = (phi_eval(k, y + d, t, 2) - phi_eval(k, y - d, t, 2)) / (2 * d)
    fdt = (phi_eval(k, y, t + d) - phi_eval(k, y, t - d)) / (2 * d)
    assert np.allclose(phi_eval(k, y, t, 1), fd1, atol=1e-7)
    assert np.allclose(phi_eval(k, y, t, 2), fd2, atol=1e-5)
    assert np.allclose(phi_eval(k, y, t, 3), fd3, atol=1e-5)
    assert np.allclose(phi_eval(k, y, t, "t"), fdt, atol=1e-7)


def test_phi_requires_positive_time():
    with pytest.raises(ValueError):
        phi_eval(HeatKernel(1.0), 0.0, 0.0)


# --- implicit barrier psi -------------------------------------------------------


def test_psi_solves_defining_equation():
    b = PsiBarrier(c=1.0)
    t = 0.5
    z = np.linspace(-0.9, 0.9, 21) * psi_range(b, t)
    psi = psi_eval(b, z, t)
    k = b.kernel
    recon = phi_eval(k, psi - 1.0, t) - phi_eval(k, psi + 1.0, t)
    assert np.allclose(recon, z, atol=1e-10)


@given(st.floats(0.05, 0.95), st.floats(0.05, 2.0))
@settings(max_examples=60, deadline=None)
def test_psi_odd(frac, t):
    b = PsiBarrier(c=0.5)
    z = frac * psi_range(b, t)
    assert psi_eval(b, z, t) == pytest.approx(-psi_eval(b, -z, t), abs=1e-10)


def test_psi_out_of_range():
    b = PsiBarrier()
    zmax = psi_range(b, 0.3)
    with pytest.raises(RangeError):
        psi_eval(b, 1.5 * zmax, 0.3)
    val, clamped = psi_eval_clamped(b, 1.5 * zmax, 0.3)
    assert clamped and val == 1.0


def _psi_bisection_reference(b, z, t):
    """psi_eval_clamped's bisection written with phi_eval, step by step."""
    k = b.kernel
    z, t = np.broadcast_arrays(np.atleast_1d(z), np.atleast_1d(t))
    zmax = phi_eval(k, barriers._BRACKET - 1.0, t) - phi_eval(k, barriers._BRACKET + 1.0, t)
    clamped = np.abs(z) > zmax
    lo = np.full(z.shape, -barriers._BRACKET)
    hi = np.full(z.shape, barriers._BRACKET)
    for _ in range(barriers._PSI_BISECTIONS):
        mid = 0.5 * (lo + hi)
        less = phi_eval(k, mid - 1.0, t) - phi_eval(k, mid + 1.0, t) < z
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    return np.where(clamped, np.sign(z), 0.5 * (lo + hi)), clamped


# c = 0.3 and 1.7 are not powers of two, so a reordered product rounds differently
@pytest.mark.parametrize("c", [0.25, 0.3, 1.7])
def test_psi_bisection_bits_match_phi_eval(c):
    b = PsiBarrier(c=c)
    t = np.geomspace(1e-3, 4.0, 13)[:, None]
    z = np.linspace(-1.2, 1.2, 49)[None, :] * psi_range(b, 1.0)
    psi, clamped = psi_eval_clamped(b, z, t)
    ref, ref_clamped = _psi_bisection_reference(b, z, t)
    assert 0 < clamped.sum() < clamped.size
    assert np.array_equal(clamped, ref_clamped)
    assert psi.tobytes() == ref.tobytes()
    # the map itself, bit for bit, away from the bisection's midpoints
    k = b.kernel
    y = np.random.default_rng(3).uniform(-1.0, 1.0, t.shape[0] * 49).reshape(-1, 49)
    tt = np.broadcast_to(t, y.shape)
    mapped = barriers._psi_map_into(-c, y, tt, np.sqrt(tt), np.empty(y.shape), np.empty(y.shape))
    assert mapped.tobytes() == (phi_eval(k, y - 1.0, tt) - phi_eval(k, y + 1.0, tt)).tobytes()


# (c, z, t, psi as float.hex, clamped): the bisection's roots must not move by a bit
_PSI_PINS = [
    (0.25, 0.0, 0.1, "-0x1.ffffffffffff7p-42", False),
    (0.25, 0.3, 0.1, "0x1.cfa5261557ff8p-4", False),
    (0.25, -0.7, 0.05, "-0x1.906db9186dff8p-2", False),
    (1.0, 0.05, 1e-6, "0x1.fe6384d996ff8p-1", False),
    (0.25, 5.0, 0.2, "0x1.0000000000000p+0", True),
    (4.0, 1e-3, 2.0, "0x1.566a5d89ffffap-10", False),
]


@pytest.mark.parametrize("c, z, t, pinned, pinned_clamped", _PSI_PINS)
def test_psi_eval_clamped_pinned_bits(c, z, t, pinned, pinned_clamped):
    psi, clamped = psi_eval_clamped(PsiBarrier(c=c), z, t)
    assert (psi.hex(), clamped) == (pinned, pinned_clamped)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(1e-4, 4.0))
@settings(max_examples=60, deadline=None)
def test_psi_nondecreasing_in_z(f1, f2, t):
    # fractions of the representable range: beyond +-1 the value is clamped
    b = PsiBarrier(c=0.25)
    z = np.sort([f1, f2]) * psi_range(b, t)
    psi, _ = psi_eval_clamped(b, z, t)
    assert psi[0] <= psi[1]
    assert psi_eval_clamped(b, z[0], t)[0] <= psi_eval_clamped(b, z[1], t)[0]


@pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
def test_psi_derivs_fd_crosscheck(c):
    b = PsiBarrier(c=c)
    t = 0.4
    # skip z = 0 where psi' spikes sharply for large c and FD steps over it
    z = np.array([-0.7, -0.5, -0.3, -0.15, 0.15, 0.3, 0.5, 0.7]) * psi_range(b, t)
    p1, p2, p3, pt = psi_derivs(b, z, t)
    # step sizes sit well above the 1e-12 bisection tolerance on psi
    dz = 1e-3 * psi_range(b, t)
    fd1 = (psi_eval(b, z + dz, t) - psi_eval(b, z - dz, t)) / (2 * dz)
    fd2 = (psi_eval(b, z + dz, t) - 2 * psi_eval(b, z, t) + psi_eval(b, z - dz, t)) / dz ** 2
    dt = 1e-4 * t
    fdt = (psi_eval(b, z, t + dt) - psi_eval(b, z, t - dt)) / (2 * dt)
    assert np.allclose(p1, fd1, rtol=2e-3)
    assert np.allclose(p2, fd2, rtol=1e-3, atol=1e-4)
    assert np.allclose(pt, fdt, rtol=2e-3, atol=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, t", [(0.125, 5e-4), (0.25, 5e-4), (0.5, 2.5e-3), (0.5, 5e-4),
                                  (0.25, 1e-5)])
def test_psi_derivs_small_t_without_overflow(c, t):
    # at z = 0, psi' = t^{3/2} e^{c/t} / (4c) while psi'^3 is past the float
    # range; psi'' = 0 there, and a derivative past the float range is +-inf
    b = PsiBarrier(c=c)
    p1, p2, p3, pt = psi_derivs(b, np.array([0.0, 0.3 * psi_range(b, t)]), t)
    log_p1 = 1.5 * np.log(t) + c / t - np.log(4 * c)
    if log_p1 < np.log(np.finfo(float).max):
        assert p1[0] == pytest.approx(np.exp(log_p1), rel=1e-12)
    else:
        assert p1[0] == np.inf
    assert p2[0] == 0.0 and pt[0] == 0.0
    assert p3[0] < 0.0  # psi' is largest at z = 0
    assert np.all(np.isfinite([p1[1], p2[1], p3[1], pt[1]]))
    assert p1[1] > 0.0 and p2[1] < 0.0


def test_z_M_is_barrier_half_crossing():
    # phi(z_M(t), t) = M: at distance z_M the doubled barrier reaches height M
    b = PsiBarrier(c=1.0)
    M = 1.0
    for t in (0.01, 0.05, 0.2):
        zm = z_M(t, M, b.c)
        val = phi_double_coordinate(b, zm, t, M)
        assert val == pytest.approx(M, rel=1e-9)


def test_phi_double_coordinate_clamps_to_2M():
    b = PsiBarrier(c=1.0)
    M = 2.0
    assert phi_double_coordinate(b, 1e6, 0.01, M) == pytest.approx(2 * M)


# --- erf cone -------------------------------------------------------------------


def test_cone_barrier_solves_heat_and_dominates_cone():
    cb = ConeBarrier(L=1.5, h=0.3, Lambda=2.0)
    x = np.linspace(-3, 3, 61)
    t = 0.4
    d = 1e-4
    vt = (cone_barrier_eval(cb, x, t + d) - cone_barrier_eval(cb, x, t - d)) / (2 * d)
    vxx = (cone_barrier_eval(cb, x + d, t) - 2 * cone_barrier_eval(cb, x, t)
           + cone_barrier_eval(cb, x - d, t)) / d ** 2
    assert np.allclose(vt, vxx / (4 * cb.c), atol=1e-5)
    cone = cb.L * np.abs(x - cb.h)
    assert np.all(cone_barrier_eval(cb, x, t) >= cone)
    # tends to the cone as t -> 0+
    assert np.allclose(cone_barrier_eval(cb, x, 1e-10), cone, atol=1e-4)


# --- shrinking sphere -----------------------------------------------------------


def test_sphere_radius_and_extinction():
    sb = SphereBarrier(center=(0.0, 0.0), height=0.0, r0=1.0, n=2)
    assert sb.extinction_time == pytest.approx(0.25)
    assert sb.radius(0.1) == pytest.approx(np.sqrt(0.6))
    with pytest.raises(ValueError):
        sb.radius(0.3)


def test_sphere_eval_orientations():
    sb_up = SphereBarrier(center=(0.0, 0.0), height=0.0, r0=1.0, n=2, orientation="upper")
    sb_lo = SphereBarrier(center=(0.0, 0.0), height=0.0, r0=1.0, n=2, orientation="lower")
    v_up = sphere_eval(sb_up, np.array([0.0, 0.0]), 0.0)
    v_lo = sphere_eval(sb_lo, np.array([0.0, 0.0]), 0.0)
    assert v_up == pytest.approx(0.0)
    assert v_lo == pytest.approx(0.0)
    # off-center the upper cap rises, the lower cap falls
    assert sphere_eval(sb_up, np.array([0.5, 0.0]), 0.0) > 0
    assert sphere_eval(sb_lo, np.array([0.5, 0.0]), 0.0) < 0
    with pytest.raises(ValueError):
        sphere_eval(sb_up, np.array([2.0, 0.0]), 0.0)


# --- step data ------------------------------------------------------------------


def test_step_sharp_and_mollified():
    sd = StepData(M=1.0, s=0.0)
    x = np.linspace(-1, 1, 201)
    sharp = step_eval(sd, x)
    assert set(np.unique(sharp)).issubset({-1.0, 0.0, 1.0})
    sd_m = StepData(M=1.0, s=0.0, eps=0.1)
    smooth = step_eval(sd_m, x)
    assert np.all(np.abs(smooth) <= 1.0 + 1e-12)
    # mollification is exact far from the jump and monotone across it
    far = np.abs(x) > 0.2
    assert np.allclose(smooth[far], sharp[far])
    assert np.all(np.diff(smooth[np.abs(x) < 0.15]) >= -1e-12)


def test_step_crenellated_periodic():
    sd = StepData(M=0.5, mode="crenellated", R=2.0, eps=0.05)
    x = np.linspace(0, 4, 101)
    v = step_eval(sd, x)
    assert np.allclose(v, step_eval(sd, x + 4.0), atol=1e-12)
    assert np.max(v) == pytest.approx(0.5)
    assert np.min(v) == pytest.approx(-0.5)


def test_step_validation():
    with pytest.raises(ValueError):
        StepData(M=-1.0)
    with pytest.raises(ValueError):
        StepData(M=1.0, mode="sawtooth")
    with pytest.raises(ValueError):
        StepData(M=1.0, mode="crenellated", R=0.0)
