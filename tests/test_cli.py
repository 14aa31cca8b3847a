import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowlab import barriers, finsler, verify
from flowlab.cli import main
from flowlab.config import CHECK_TYPES, ConfigError, load_config
from flowlab.solver import evolve

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
HEAT_STEP = os.path.join(CONFIG_DIR, "heat-step.cfg")
CSF_CREN = os.path.join(CONFIG_DIR, "csf-crenellated.cfg")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def _assert_reference_digests(out, name):
    """manifest.json and every fields/*.csv match the benchmark's sha256."""
    with open(REFERENCE) as fh:
        expected = json.load(fh)["configs"][name]["sha256"]
    observed = {}
    for rel in ["manifest.json"] + ["fields/" + f for f in os.listdir(os.path.join(out, "fields"))]:
        with open(os.path.join(out, rel), "rb") as fh:
            observed[rel] = hashlib.sha256(fh.read()).hexdigest()
    assert observed == expected


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[flow]
id = heat
c = 0.25

[grid]
x_lo = 0.0
x_hi = 6.283185307179586
n_cells = 64
topology = periodic

[initial]
kind = sin
amplitude = 1.0

[plan]
t_end = 0.05
output_times = 0.05
"""


# --- config loading ---------------------------------------------------------


def test_load_bundled_configs():
    cfg = load_config(HEAT_STEP)
    assert cfg.flow_id == "heat"
    assert cfg.grid.n_cells == 256
    assert "zero-counting" in cfg.checks
    cfg2 = load_config(CSF_CREN)
    assert cfg2.bc.kind == "periodic"
    assert cfg2.checks["double-coordinate"]["region"] == "G"


def test_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match=r"\(file\)"):
        load_config(str(tmp_path / "missing.cfg"))
    # bytes that are no text
    (tmp_path / "binary.cfg").write_bytes(b"[flow]\nid = \xd0\xff\n")
    with pytest.raises(ConfigError, match=r"\(file\): .*can't decode"):
        load_config(str(tmp_path / "binary.cfg"))
    for flow_id in ("wave", "mcf2d", "aniso:euclid"):
        with pytest.raises(ConfigError, match="flow.id"):
            load_config(_write(tmp_path, MINIMAL.replace("id = heat", f"id = {flow_id}")))
    with pytest.raises(ConfigError, match="initial.kind"):
        load_config(_write(tmp_path, MINIMAL.replace("kind = sin", "kind = noise")))
    with pytest.raises(ConfigError, match="plan.output_times"):
        load_config(_write(tmp_path, MINIMAL.replace(
            "output_times = 0.05", "output_times = 0.2")))
    with pytest.raises(ConfigError, match="plan.output_times"):
        load_config(_write(tmp_path, MINIMAL.replace(
            "output_times = 0.05", "output_times = 0.05 0.05")))
    # both snapshots would be written to fields/t=0.01.csv
    with pytest.raises(ConfigError, match=r"plan.output_times: .*fields/t=0\.01\.csv"):
        load_config(_write(tmp_path, MINIMAL.replace(
            "output_times = 0.05", "output_times = 0.01000001 0.01000002")))
    with pytest.raises(ConfigError, match=r"flow\.c: c = -1\.0 must lie in \(0, inf\)"):
        load_config(_write(tmp_path, MINIMAL.replace("c = 0.25", "c = -1.0")))
    bad_check = MINIMAL + "\n[check:x]\ntype = telepathy\n"
    with pytest.raises(ConfigError, match="check:x.type"):
        load_config(_write(tmp_path, bad_check))
    bad_modulus = MINIMAL + "\n[check:x]\ntype = convergence\nmodulus = foo\n"
    with pytest.raises(ConfigError, match="check:x.modulus"):
        load_config(_write(tmp_path, bad_modulus))


def _without_line(text, line):
    assert line + "\n" in text
    return text.replace(line + "\n", "", 1)


def _edit(path, old, new):
    """The text of a bundled config with its first ``old`` replaced by ``new``."""
    text = Path(path).read_text()
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("text, path", [
    # a required key left out, and a misspelt optional one
    (_without_line(Path(HEAT_STEP).read_text(), "M = 1.0"), "check:zero-counting.M"),
    (Path(HEAT_STEP).read_text().replace("rel_tol = 0.05", "rel_tl = 0.05"),
     "check:zero-counting.rel_tl"),
    (MINIMAL + "\n[check:conv]\ntype = convergence\nmodulus = holder\n", "check:conv.alpha"),
    (MINIMAL + "\n[check:conv]\ntype = convergence\nL = 1.0\nalpha = 0.5\n",
     "check:conv.alpha"),
    (MINIMAL + "\n[check:g]\ntype = gradient_bound\ncoeff = 1.0\nregion = G\n",
     "check:g.region"),
    # values the check would reject
    (MINIMAL + "\n[check:conv]\ntype = convergence\nmodulus = holder\nalpha = 1.5\n",
     "check:conv.alpha"),
    (MINIMAL + "\n[check:conv]\ntype = convergence\nmodulus = holder\nalpha = half\n",
     "check:conv.alpha"),
    (Path(HEAT_STEP).read_text().replace("M = 1.0", "M = one"), "check:zero-counting.M"),
    # misspelt keys in every section, and keys the selected kind does not take
    (_edit(HEAT_STEP, "kind = step", "kind = step\namplitud = 7"), "initial.amplitud"),
    (_edit(HEAT_STEP, "t_end = 0.05", "t_end = 0.05\ncfl_safty = 0.9"), "plan.cfl_safty"),
    (_edit(HEAT_STEP, "kind = dirichlet", "kind = dirichlet\nvaleu = 0"), "bc.valeu"),
    (_edit(HEAT_STEP, "n_cells = 256", "n_cells = 256\nn_cell = 64"), "grid.n_cell"),
    (_edit(HEAT_STEP, "seed = 0", "seed = 0\nsed = 1"), "run.sed"),
    (_edit(HEAT_STEP, "kind = step", "kind = step\nfrequency = 3"), "initial.frequency"),
    (_edit(HEAT_STEP, "kind = dirichlet", "kind = neumann_zero\nvalue = 3"), "bc.value"),
    (_edit(HEAT_STEP, "[initial]", "[intial]"), "intial"),
    # values that are not numbers, not integers, not booleans or not a choice
    (_edit(HEAT_STEP, "height = 1.0", "height = one"), "initial.height"),
    (_edit(HEAT_STEP, "kind = dirichlet", "kind = dirichlet\nvalue = zero"), "bc.value"),
    (_edit(HEAT_STEP, "seed = 0", "seed = abc"), "run.seed"),
    (_edit(HEAT_STEP, "seed = 0", "seed = 5%"), "run.seed"),
    (_edit(HEAT_STEP, "tail_floor = 1e-4", "tail_floor = 1e-4\nassert = maybe"),
     "check:zero-counting.assert"),
    (_edit(CSF_CREN, "region = G", "region = H"), "check:double-coordinate.region"),
    (_edit(HEAT_STEP, "c = 0.25", "c = abc"), "flow.c"),
    (_edit(HEAT_STEP, "n_cells = 256", "n_cells = 256.5"), "grid.n_cells"),
    # a bc the grid's topology does not take
    (_edit(HEAT_STEP, "kind = dirichlet", "kind = periodic"), "bc.kind"),
    (_edit(CSF_CREN, "kind = periodic", "kind = neumann_zero"), "bc.kind"),
    # NaN lies in no range, and a float key with no range must be finite
    (_edit(HEAT_STEP, "output_times = 0.005 0.01 0.02 0.03 0.05", "output_times = nan"),
     "plan.output_times"),
    (_edit(HEAT_STEP, "kind = dirichlet", "kind = dirichlet\nvalue = nan"), "bc.value"),
    (_edit(HEAT_STEP, "x_hi = 2.0", "x_hi = inf"), "grid.x_hi"),
    (_edit(HEAT_STEP, "jump = 0.0", "jump = -inf"), "initial.jump"),
    (_edit(HEAT_STEP, "id = heat\nc = 0.25", "id = plaplace-reg\neps = nan"), "flow.eps"),
    # eps = 0 makes a(0) infinite for q < 2: the first step's CFL dt underflows
    (_edit(HEAT_STEP, "id = heat\nc = 0.25", "id = plaplace-reg\neps = 0"), "flow.eps"),
    # heat_zero_counting proves its bound for u_t = u_xx / (4c) only
    (_edit(HEAT_STEP, "id = heat\nc = 0.25", "id = csf"), "check:zero-counting.type"),
    (_edit(HEAT_STEP, "id = heat\nc = 0.25", "id = plaplace-reg"), "check:zero-counting.type"),
    # initial data that is not finite on the grid: |x|^-1 at the node x = 0
    (MINIMAL.replace("kind = sin", "kind = abspow\nexponent = -1"), "initial: 'abspow'"),
    # a negative constant would give a negative bound, and a negative tail
    # floor would be read as 0
    (MINIMAL + "\n[check:conv]\ntype = convergence\nL = -5\n", "check:conv.L"),
    (MINIMAL + "\n[check:conv]\ntype = convergence\nmodulus = holder\nalpha = 0.5\nC = -2\n",
     "check:conv.C"),
    (_edit(HEAT_STEP, "tail_floor = 1e-4", "tail_floor = -1"), "check:zero-counting.tail_floor"),
], ids=["missing", "misspelt", "modulus-missing", "modulus-unknown", "other-type",
        "holder-alpha", "holder-alpha-text", "not-a-number",
        "initial-misspelt", "plan-misspelt", "bc-misspelt", "grid-misspelt", "run-misspelt",
        "step-frequency", "neumann-value", "section-misspelt",
        "height-text", "bc-value-text", "seed-text", "seed-percent", "assert-text", "region-unknown",
        "flow-c-text", "n_cells-fraction", "periodic-bc-bounded-grid",
        "neumann-bc-periodic-grid", "output-times-nan", "bc-value-nan", "x_hi-inf",
        "jump-minus-inf", "plaplace-eps-nan", "plaplace-eps-zero", "zero-counting-on-csf",
        "zero-counting-on-plaplace", "abspow-not-finite", "lipschitz-L-negative",
        "holder-C-negative", "tail-floor-negative"])
def test_check_keys_are_validated_before_the_evolve(tmp_path, text, path):
    cfg = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        load_config(cfg)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_explicit_infinite_window_end_loads(tmp_path):
    # t_hi is the one float key whose range admits inf
    cfg = load_config(_write(tmp_path, _edit(CSF_CREN, "region = G", "region = G\nt_hi = inf")))
    assert cfg.checks["double-coordinate"]["t_hi"] == np.inf


@pytest.fixture(scope="module")
def csf_run():
    """The bundled csf config and its trajectory, evolved once."""
    cfg = load_config(CSF_CREN)
    return cfg, evolve(cfg.flow, cfg.u0, cfg.bc, cfg.plan, cfg.output_times)


def _report_bytes(rep, path):
    rep.to_json(str(path))
    return path.read_bytes()


def test_calibration_sweep_follows_region_g_limit(tmp_path, csf_run):
    # each member scans the snapshots with t <= 2cM^2/3 of its own c; only
    # c = 1/4 and above give a nonpositive defect, so c = 1/4 is the constant;
    # the defects of c = 1/16 and 1/8 exceed their one-cell tolerances
    _, traj = csf_run
    out = tmp_path / "sweep"
    cs = {"0.0625": 0.3865, "0.125": 0.1994, "0.25": -0.0195, "0.5": -0.4509}
    assert main(["sweep", CSF_CREN, "--grid", "check:double-coordinate.c=" + ",".join(cs),
                 "--out", str(out)]) == 1
    assert (out / "sweep.csv").read_text() == \
        "label,exit_code\nc=0.0625,1\nc=0.125,1\nc=0.25,0\nc=0.5,0\n"
    for text, defect in cs.items():
        c = float(text)
        rep = verify.double_coordinate_defect(traj, barriers.PsiBarrier(c=c), 1.0, region="G",
                                              t_window=(0.0, 2.0 * c / 3.0))
        member = out / f"c={text}" / "reports" / "double-coordinate.json"
        assert member.read_bytes() == _report_bytes(rep, tmp_path / "expected.json")
        assert rep.max_defect == pytest.approx(defect, abs=5e-5)


def test_explicit_t_hi_overrides_region_g_limit(tmp_path, csf_run):
    cfg, traj = csf_run
    params = {**cfg.checks["double-coordinate"], "c": 0.0625}
    build = CHECK_TYPES["double_coordinate"].build
    b = barriers.PsiBarrier(c=0.0625)
    derived = build(params, traj)
    assert derived.max_defect == pytest.approx(0.3865, abs=5e-5)
    for t_hi in (np.inf, 0.01):
        rep = verify.double_coordinate_defect(traj, b, 1.0, region="G", t_window=(0.0, t_hi))
        assert (_report_bytes(build({**params, "t_hi": t_hi}, traj), tmp_path / "a.json")
                == _report_bytes(rep, tmp_path / "b.json"))
    # t_hi = inf scans the snapshots past 2cM^2/3 = 1/24 too
    assert build({**params, "t_hi": np.inf}, traj).max_defect == pytest.approx(0.683, abs=5e-4)
    # region full has no time limit of its own
    full = {**params, "region": "full"}
    assert (_report_bytes(build(full, traj), tmp_path / "a.json")
            == _report_bytes(verify.double_coordinate_defect(traj, b, 1.0), tmp_path / "b.json"))


def test_full_tolerance_covers_region_g(csf_run):
    # region full checks every pair of region G, so its one-cell tolerance
    # is at least G's
    cfg, traj = csf_run
    params = cfg.checks["double-coordinate"]
    build = CHECK_TYPES["double_coordinate"].build
    g, full = build(params, traj), build({**params, "region": "full"}, traj)
    assert full.tolerance >= g.tolerance
    assert (g.max_defect, g.witness) == (full.max_defect, full.witness)


@pytest.mark.parametrize("c, code", [("0.125", 1), ("0.25", 0)])
def test_run_csf_double_coordinate_controls(tmp_path, c, code):
    # c = 1/8 is below the calibrated constant: its defect, about +0.20,
    # exceeds the one-cell tolerance, about 0.07
    cfg = _write(tmp_path, Path(CSF_CREN).read_text().replace("c = 0.25", f"c = {c}"))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == code
    rep = json.loads((out / "reports" / "double-coordinate.json").read_text())
    assert rep["passed"] is (code == 0)
    assert rep["tolerance"] < 0.1


def test_run_builds_flow_and_initial_data_once(tmp_path, monkeypatch):
    from flowlab import cli, flows

    calls = {"get_flow": 0, "step_eval": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(flows, "get_flow", counted("get_flow", flows.get_flow))
    monkeypatch.setattr(barriers, "step_eval", counted("step_eval", barriers.step_eval))
    # a dirichlet bc without value holds the initial data at the ends
    assert cli.run_experiment(load_config(HEAT_STEP), str(tmp_path / "o")) == 0
    assert calls == {"get_flow": 1, "step_eval": 1}


def test_unknown_flow_param_is_config_error(tmp_path):
    text = Path(CSF_CREN).read_text().replace("id = csf", "id = csf\nc = 0.3")
    cfg = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"flow\.c: 'csf' takes no parameter 'c'"):
        load_config(cfg)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    # heat takes c, and the params it does not take are named
    text = MINIMAL.replace("c = 0.25", "c = 0.25\neps = 0.1")
    with pytest.raises(ConfigError, match=r"flow\.eps"):
        load_config(_write(tmp_path, text))


def test_build_initial_kinds(tmp_path):
    for kind, extra in [("sin", "frequency = 2.0"), ("cos", ""),
                        ("abspow", "exponent = 0.5"), ("zigzag", "period = 1.0"),
                        ("step", "eps = 0.1"), ("crenel", "R = 2.0"),
                        ("cone", "slope = 2.0")]:
        text = MINIMAL.replace("kind = sin\namplitude = 1.0",
                               f"kind = {kind}\n{extra}")
        cfg = load_config(_write(tmp_path, text, f"{kind}.cfg"))
        assert np.all(np.isfinite(cfg.u0.values))


# --- run --------------------------------------------------------------------


def test_run_heat_step(tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", HEAT_STEP, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))
    assert os.path.exists(os.path.join(out, "summary.txt"))
    assert os.path.exists(os.path.join(out, "reports", "zero-counting.json"))
    assert os.path.exists(os.path.join(out, "fields", "t=0.05.csv"))
    with open(os.path.join(out, "reports", "zero-counting.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is True
    summary = Path(out, "summary.txt").read_text()
    assert "PASS" in summary
    _assert_reference_digests(out, "heat-step")


def test_run_csf_crenellated(tmp_path):
    out = str(tmp_path / "out")
    assert main(["run", CSF_CREN, "--out", out]) == 0
    with open(os.path.join(out, "reports", "double-coordinate.json")) as fh:
        rep = json.load(fh)
    assert rep["max_defect"] <= 0.0  # strict certificate at c = 1/4
    _assert_reference_digests(out, "csf-crenellated")


def test_run_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", HEAT_STEP, "--out", out1]) == 0
    assert main(["run", HEAT_STEP, "--out", out2]) == 0
    for sub in ("manifest.json", "summary.txt",
                os.path.join("reports", "zero-counting.json"),
                os.path.join("fields", "t=0.05.csv")):
        a = Path(out1, sub).read_bytes()
        b = Path(out2, sub).read_bytes()
        assert a == b, sub


def test_run_assert_vs_report_only(tmp_path):
    # tighten the tolerance so the asserted check fails
    text = Path(HEAT_STEP).read_text().replace("rel_tol = 0.05", "rel_tol = 0.001")
    cfg = _write(tmp_path, text, "strict.cfg")
    assert main(["run", cfg, "--out", str(tmp_path / "o1")]) == 1
    assert main(["run", cfg, "--report-only", "--out", str(tmp_path / "o2")]) == 0


def test_run_config_error_exit(tmp_path):
    bad = [MINIMAL.replace("id = heat", f"id = {flow_id}")
           for flow_id in ("wave", "mcf2d", "aniso:euclid")]
    bad += [MINIMAL.replace("c = 0.25", "c = -1.0"),
            MINIMAL.replace("output_times = 0.05", "output_times = 0.05 0.05"),
            MINIMAL.replace("output_times = 0.05", "output_times = 0.01000001 0.01000002"),
            MINIMAL + "\n[check:x]\ntype = convergence\nmodulus = foo\n"]
    for text in bad:
        cfg = _write(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2


def test_output_times_not_numbers_is_config_error(tmp_path):
    text = MINIMAL.replace("output_times = 0.05", "output_times = 0.01 abc")
    with pytest.raises(ConfigError, match="plan.output_times"):
        load_config(_write(tmp_path, text))
    assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("coeff, exit_code", [(1.0, 0), (0.1, 1)])
def test_gradient_bound_controls(tmp_path, coeff, exit_code):
    # u = exp(-t) sin x solves the c = 0.25 heat flow, so max|u_x| = exp(-t) <= t^(-1/2)
    # on (0, 1]; 0.1 t^(-1/2) falls below exp(-t) from t ~ 0.01 on
    text = MINIMAL.replace("t_end = 0.05\noutput_times = 0.05",
                           "t_end = 1.0\noutput_times = 0.01 0.1 0.5 1.0")
    text += f"\n[check:grad]\ntype = gradient_bound\ncoeff = {coeff}\n"
    out = str(tmp_path / "o")
    assert main(["run", _write(tmp_path, text), "--out", out]) == exit_code
    with open(os.path.join(out, "reports", "grad.json")) as fh:
        assert json.load(fh)["passed"] is (exit_code == 0)


@pytest.mark.parametrize("c, exit_code, defect", [(0.25, 0, 0.034), (0.1, 1, 0.62)])
def test_heat_zero_counting_controls(tmp_path, c, exit_code, defect):
    # the bundled run evolves u_t = u_xx / (4c) with c = 0.25; the check's bound
    # grows like sqrt(c), so the one for c = 0.1 lies below the run's gradient
    text = Path(HEAT_STEP).read_text()
    head, sep, check = text.partition("[check:zero-counting]")
    cfg = _write(tmp_path, head + sep + check.replace("c = 0.25", f"c = {c}"))
    out = str(tmp_path / "o")
    assert main(["run", cfg, "--out", out]) == exit_code
    with open(os.path.join(out, "reports", "zero-counting.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is (exit_code == 0)
    assert rep["max_defect"] == pytest.approx(defect, abs=0.005)


def test_double_coordinate_empty_window_is_error(tmp_path):
    # t_hi below the only output time: no snapshot to check, so no PASS
    text = MINIMAL + ("\n[check:dc]\ntype = double_coordinate\nM = 1.0\nc = 0.25\n"
                      "t_lo = 0.0\nt_hi = 0.01\n")
    out = str(tmp_path / "o")
    assert main(["run", _write(tmp_path, text), "--out", out]) == 1
    assert not os.path.exists(os.path.join(out, "reports", "dc.json"))
    summary = Path(out, "summary.txt").read_text()
    assert "ERROR dc: no snapshot" in summary


@pytest.mark.parametrize("text, name", [
    # the window excludes the only output time 0.05
    (MINIMAL + "\n[check:w]\ntype = gradient_bound\ncoeff = 0.0\nt_lo = 0.0\nt_hi = 0.01\n",
     "w"),
    # no node's bound reaches twice the peak bound, so the tail floor skips all of them
    (Path(HEAT_STEP).read_text().replace("tail_floor = 1e-4", "tail_floor = 2"),
     "zero-counting"),
], ids=["gradient_bound", "heat_zero_counting"])
def test_empty_window_is_error(tmp_path, text, name):
    # no snapshot to check, so no PASS
    out = str(tmp_path / "o")
    assert main(["run", _write(tmp_path, text), "--out", out]) == 1
    assert not os.path.exists(os.path.join(out, "reports", f"{name}.json"))
    summary = Path(out, "summary.txt").read_text()
    assert f"ERROR {name}: no snapshot" in summary


@pytest.mark.parametrize("L, exit_code, defect", [(8.0, 0, -0.366), (0.5, 1, 0.160)])
def test_convergence_controls(tmp_path, L, exit_code, defect):
    # curve shortening from sin(8x), whose Lipschitz constant is 8: the sphere
    # barrier bound sqrt(2t) + L sqrt(2t) holds for L = 8, while with L = 0.5
    # it falls below the displacement of the crests by t = 0.05
    text = (MINIMAL.replace("id = heat\nc = 0.25", "id = csf")
            .replace("n_cells = 64", "n_cells = 256")
            .replace("amplitude = 1.0", "amplitude = 1.0\nfrequency = 8.0")
            .replace("output_times = 0.05", "output_times = 0.001 0.005 0.01 0.05"))
    text += f"\n[check:conv]\ntype = convergence\nmodulus = lipschitz\nL = {L}\n"
    out = str(tmp_path / "o")
    assert main(["run", _write(tmp_path, text), "--out", out]) == exit_code
    with open(os.path.join(out, "reports", "conv.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] is (exit_code == 0)
    assert rep["max_defect"] == pytest.approx(defect, abs=0.005)


# --- sweep --------------------------------------------------------------------


def test_sweep(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "sweep")
    assert main(["sweep", cfg, "--grid", "grid.n_cells=32,64", "--out", out]) == 0
    rows = Path(out, "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "label,exit_code"
    assert len(rows) == 3
    assert os.path.exists(os.path.join(out, "n_cells=32", "manifest.json"))
    # a misspelt key is a config error in its row, not a run with the default
    out = str(tmp_path / "misspelt")
    assert main(["sweep", cfg, "--grid", "grid.n_cell=32", "--out", out]) == 2
    assert Path(out, "sweep.csv").read_text() == "label,exit_code\nn_cell=32,2\n"
    # initial data that is not finite on the grid fails its row only
    out = str(tmp_path / "abspow")
    cfg = _write(tmp_path, MINIMAL.replace("kind = sin", "kind = abspow"), "abspow.cfg")
    assert main(["sweep", cfg, "--grid", "initial.exponent=1,-1", "--out", out]) == 2
    assert (Path(out, "sweep.csv").read_text()
            == "label,exit_code\nexponent=1,0\nexponent=-1,2\n")


def _tree(root, skip=()):
    """{relative path: bytes} of every file under root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel not in skip:
                out[rel] = Path(path).read_bytes()
    return out


def _counted_evolve(monkeypatch):
    import flowlab.cli as cli_module

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(cli_module, "evolve", counted)
    return calls


def test_sweep_evolves_once_per_group(tmp_path, monkeypatch):
    # members that differ only in a [check:*] key share one evolution, and
    # each member's tree is the one a solo run of its config writes
    calls = _counted_evolve(monkeypatch)
    out = tmp_path / "calibration"
    cs = ["0.0625", "0.125", "0.25", "0.5"]
    assert main(["sweep", CSF_CREN, "--grid", "check:double-coordinate.c=" + ",".join(cs),
                 "--out", str(out)]) == 1
    assert len(calls) == 1
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    for c, row in zip(cs, rows, strict=True):
        member = out / f"c={c}"
        solo = tmp_path / f"solo-{c}"
        assert row == f"c={c},{main(['run', str(member / 'config.cfg'), '--out', str(solo)])}"
        assert _tree(member, skip={"config.cfg"}) == _tree(solo)
    # members that differ in the grid evolve one by one
    calls.clear()
    assert main(["sweep", HEAT_STEP, "--grid", "grid.n_cells=128,256", "--report-only",
                 "--out", str(tmp_path / "grids")]) == 0
    assert len(calls) == 2


def test_sweep_group_shares_its_solver_error(tmp_path, monkeypatch):
    # a group whose evolution fails reports the error in each member's row,
    # with the exit code of the member's solo run: 1, as for any SolverError
    calls = _counted_evolve(monkeypatch)
    cfg = _write(tmp_path, MINIMAL.replace("t_end = 0.05", "t_end = 0.05\nmax_grad_clip = 0.5")
                 + "\n[check:cmp]\ntype = gradient_bound\ncoeff = 1.0\n")
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--grid", "check:cmp.coeff=1,2", "--out", str(out)]) == 1
    assert len(calls) == 1
    assert (out / "sweep.csv").read_text() == "label,exit_code\ncoeff=1,1\ncoeff=2,1\n"
    assert main(["run", str(out / "coeff=1" / "config.cfg"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("text, grid, message", [
    ("[flow]\nid = heat\nid = csf\n", "grid.n_cells=64",
     r"config error: \(file\): .*option 'id' in section 'flow' already exists"),
    (None, "grid.n_cells=64", r"config error: \(file\): cannot read config"),
    (MINIMAL, "grid.n_cells", r"config error: sweep: override 'grid\.n_cells' needs"),
    (MINIMAL, "n_cells=64", r"config error: sweep: override 'n_cells=64' needs"),
    (MINIMAL, "grid.n_cells=64;grid.n_cells=128",
     r"config error: sweep: override key 'grid\.n_cells' is given twice"),
    # no override at all would run the base config in the sweep's own directory
    (MINIMAL, "", r"config error: sweep: override '' needs"),
    (MINIMAL, "grid.n_cells=64;", r"config error: sweep: override '' needs"),
], ids=["duplicate-option", "missing-file", "no-values", "no-section", "key-twice",
        "empty-grid", "empty-clause"])
def test_sweep_input_error_writes_nothing(tmp_path, capsys, text, grid, message):
    # the overrides and the base config are read before any member is written
    cfg = tmp_path / "exp.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "sweep"
    assert main(["sweep", str(cfg), "--grid", grid, "--out", str(out)]) == 2
    assert re.fullmatch(message + ".*\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", HEAT_STEP],
    ["sweep", HEAT_STEP, "--grid", "grid.n_cells=128"],
    ["certify", "euclid"],
], ids=["run", "sweep", "certify"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, args):
    # --out on an existing file, or below one: one stderr line that names
    # --out, exit 2, and nothing written
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out in (taken, taken / "sub"):
        assert main([*args, "--out", str(out)]) == 2
        assert re.fullmatch(r"config error: --out: '.*taken' exists and is not a directory\n",
                            capsys.readouterr().err)
    assert taken.read_text() == "keep\n"
    assert list(tmp_path.iterdir()) == [taken]


# --- certify / list -------------------------------------------------------------


def test_certify_norm(tmp_path):
    out = str(tmp_path / "c")
    assert main(["certify", "euclid", "--out", out]) == 0
    with open(os.path.join(out, "certificate-euclid.json")) as fh:
        cert = json.load(fh)
    assert cert["A"] == pytest.approx(0.5, abs=1e-3)


def test_certify_norms(tmp_path, capsys):
    # one certificate per norm that `flowlab list` prints, each with its symmetry probe
    out = tmp_path / "norms"
    assert main(["certify", "norms", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    ids = [nf.id for nf in finsler.builtin_norms(2)]
    assert len(ids) == 3 and len(list(out.glob("*.json"))) == 3
    for norm_id in ids:
        one = tmp_path / "one"
        assert main(["certify", norm_id, "--out", str(one)]) == 0
        name = f"certificate-{norm_id.replace(':', '_')}.json"
        assert (out / name).read_bytes() == (one / name).read_bytes()
    assert [line.split()[:2] for line in lines if "symmetry:" in line] == [
        ["PASS", f"symmetry:{norm_id}:"] for norm_id in ids]


def test_certify_aniso_flow_certifies_its_norm(tmp_path):
    # an aniso:<norm-id> flow has no degeneracy profile; its certificate is
    # its norm's, in the flow's default dimension, under the flow's file name
    out = tmp_path / "c"
    assert main(["certify", "aniso:quartic:0.001", "--out", str(out)]) == 0
    assert main(["certify", "quartic:0.001", "--out", str(out)]) == 0
    assert ((out / "certificate-aniso_quartic_0.001.json").read_bytes()
            == (out / "certificate-quartic_0.001.json").read_bytes())
    assert main(["certify", "aniso:octagon", "--out", str(out)]) == 2


@pytest.mark.parametrize("norm_id, message", [
    ("quartic:0.5", "fails the convexity probe"),
    ("quartic:nan", "delta must be finite"),
    ("elliptic:nan,1,1", "M must be finite"),
])
def test_certify_aniso_flow_reports_its_norms_error(tmp_path, capsys, norm_id, message):
    # a norm that cannot be built is reported as the norm id reports it, not
    # as an unknown id, and no certificate is written
    out = tmp_path / "c"
    assert main(["certify", norm_id, "--out", str(out)]) == 2
    own = capsys.readouterr().err.partition(": ")[2]
    assert message in own
    assert main(["certify", f"aniso:{norm_id}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"unknown certify id 'aniso:{norm_id}': {own}"
    assert not list(out.glob("*.json"))


def test_certify_flow(tmp_path):
    out = str(tmp_path / "c")
    assert main(["certify", "csf", "--out", out]) == 0
    # q < 0 regularized p-laplacian fails its degeneracy certificate
    assert main(["certify", "plaplace-reg", "--out", out]) == 1


# sha256 of the certificate JSON and the exit code of `flowlab certify <id>`,
# recorded before the catalog coefficients took ``out``
CERTIFICATE_SHA256 = {
    "heat": ("9f2368071e3b4934b496228b5ce5b5c817a79b215437d32ddf41ac425ff18530", 0),
    "csf": ("8add945754f691886894386d94d87628d12ff991ecbf5478161de70ace8896b9", 0),
    "plaplace-reg": ("343f5d72779c37f4d79da0935cfcadd8d43f23defae867583cd3e3305b431f1c", 1),
}


@pytest.mark.parametrize("flow_id", sorted(CERTIFICATE_SHA256))
def test_certify_flow_output_pinned(tmp_path, flow_id):
    out = str(tmp_path / "c")
    code = main(["certify", flow_id, "--out", out])
    with open(os.path.join(out, f"certificate-{flow_id}.json"), "rb") as fh:
        assert (hashlib.sha256(fh.read()).hexdigest(), code) == CERTIFICATE_SHA256[flow_id]


# sha256 of the certificate JSON files that `flowlab certify norms` and
# `flowlab certify quartic:0.001` write, recorded before the jets and the
# certificate stages went entry-major: a change of C1 or C2 in its last
# digit changes them, where the benchmark's reference gate allows 1e-12
NORM_CERTIFICATE_SHA256 = {
    "certificate-euclid.json":
        "3b323aa71ba542446d7076572bbe1f986b6c22ef6cf6619d41aa98a8fac7b8f2",
    "certificate-elliptic_1.0,0.0,0.0;0.0,1.5,0.0;0.0,0.0,2.0.json":
        "ea1fc7a73f338d4d8fe227b801cf68ba69da497b072ef2520a36a24d0676c5b5",
    "certificate-quartic_0.001.json":
        "bbcd2cf932cef13e05a570d9dc255ead6f51b75aacd50fd482ef6374a81753bc",
}


@pytest.mark.parametrize("target", ["norms", "quartic:0.001"])
def test_certify_norm_output_pinned(tmp_path, target):
    out = tmp_path / "c"
    assert main(["certify", target, "--out", str(out)]) == 0
    observed = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    expected = (NORM_CERTIFICATE_SHA256 if target == "norms" else
                {"certificate-quartic_0.001.json":
                 NORM_CERTIFICATE_SHA256["certificate-quartic_0.001.json"]})
    assert observed == expected


def test_certify_unknown_id(tmp_path):
    # a flow id with a suffix is no flow id; it is not a norm id either
    for target in ("octagon", "csf:foo", "heat:0.5"):
        assert main(["certify", target, "--out", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("args, exit_code", [
    (["list"], 0),
    (["certify", "euclid"], 0),
    # c = 1/8 fails its check; every member still runs and has its row
    (["sweep", CSF_CREN, "--grid", "check:double-coordinate.c=0.125,0.25,0.5"], 1),
], ids=["list", "certify", "sweep"])
def test_into_a_closed_pipe_exits_quietly(tmp_path, args, exit_code):
    # as `flowlab list | head -1`: the reader is gone before anything is
    # written, and the command goes on to its own exit code
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    if args[0] != "list":
        args = [*args, "--out", str(out)]
    with subprocess.Popen([sys.executable, "-m", "flowlab", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert (code, stderr) == (exit_code, b"")
    if args[0] == "sweep":
        assert (out / "sweep.csv").read_text() == \
            "label,exit_code\nc=0.125,1\nc=0.25,0\nc=0.5,0\n"


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "csf" in out and "euclid" in out and "double_coordinate" in out
    # the keys of the config schema, with their defaults
    assert "cfl_safety = 0.5" in out and "rel_tol = 0.02" in out and "tail_floor = 0.0" in out
    assert "eh_bound" not in out
    # a check type limited to some flows names them; the others name none
    assert "    heat_zero_counting (flows: heat): M (required)" in out
    assert "    double_coordinate: M (required)" in out
