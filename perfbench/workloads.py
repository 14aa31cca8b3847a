"""The four benchmark workloads, driven through flowlab's public API.

Each workload has the same shape:

* ``setup(seed, work_dir)`` builds every input the timed part needs and
  returns a state dict.  Seeded inputs come from ``numpy.random`` here; the
  program only ever receives the generated arrays.
* ``run_pass(state)`` is one timed workload iteration.  It calls flowlab
  and returns the raw results; a ``SolverError`` is caught per operation and
  returned in place of the result.
* ``observe(state, raw)`` (untimed) reduces the raw results to one dict of
  observed values per operation, plus the pass's node-step count, and
  removes any files the pass wrote.
* ``check(state, observed, reference)`` returns ``{operation: message}``
  for every operation whose correctness gate failed.
* ``instrument(state, tracer)`` returns a copy of the state whose flow and
  norm objects carry counting wrappers (traced run only).

Deterministic operations are gated against ``reference.json``; seed-
dependent ones are gated by properties, so any seed can validate a claim.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
from scipy.special import erf

from flowlab import barriers, cli, config, finsler, flows, solver, verify
from flowlab.fields import Field, Grid1D, GridND

REL_TOL = 1e-12  # floats in reference.json must reproduce to this relative error


def _failure(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def compare(observed, expected, path: str = "") -> str | None:
    """First mismatch between an observed and a reference value, or None.

    Dicts compare key by key, floats to REL_TOL relative error, everything
    else by equality.
    """
    if isinstance(expected, dict):
        if not isinstance(observed, dict):
            return f"{path}: expected a mapping, got {observed!r}"
        if set(observed) != set(expected):
            return f"{path}: keys {sorted(observed)} != reference {sorted(expected)}"
        for key in sorted(expected):
            msg = compare(observed[key], expected[key], f"{path}/{key}")
            if msg:
                return msg
        return None
    if isinstance(expected, float) and not isinstance(observed, bool) \
            and isinstance(observed, (int, float)):
        if math.isclose(observed, expected, rel_tol=REL_TOL, abs_tol=1e-300):
            return None
        return f"{path}: {observed!r} != reference {expected!r}"
    if observed != expected:
        return f"{path}: {observed!r} != reference {expected!r}"
    return None


def check_reference(observed: dict, reference: dict) -> dict:
    """Gate each referenced operation; a referenced operation that did not
    run counts as failed."""
    failures = {}
    for op, expected in reference.items():
        if op not in observed:
            failures[op] = "operation missing"
            continue
        msg = compare(observed[op], expected, op)
        if msg:
            failures[op] = msg
    for op, obs in observed.items():
        if "error" in obs:
            failures[op] = obs["error"]
    return failures


# --- configs -----------------------------------------------------------------


class Configs:
    """cli.run_experiment on both bundled configs, artefacts in a temp dir."""

    name = "configs"
    CONFIG_NAMES = ("csf-crenellated", "heat-step")

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int, work_dir: str) -> dict:
        cfgs = [(name, config.load_config(os.path.join(self.root, "configs", name + ".cfg")))
                for name in self.CONFIG_NAMES]
        return {"cfgs": cfgs, "work_dir": work_dir}

    def instrument(self, state, tracer):
        return state

    def run_pass(self, state) -> list:
        raw = []
        for name, cfg in state["cfgs"]:
            out = tempfile.mkdtemp(prefix=name + "-", dir=state["work_dir"])
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run_experiment(cfg, out)
            except solver.SolverError as e:
                code = e
            raw.append((name, cfg, out, code))
        return raw

    def observe(self, state, raw):
        observed, node_steps = {}, 0
        for name, cfg, out, code in raw:
            try:
                if isinstance(code, Exception):
                    observed[name] = _failure(code)
                    continue
                digests = {}
                for rel in ["manifest.json"] + sorted(
                        "fields/" + f for f in os.listdir(os.path.join(out, "fields"))):
                    with open(os.path.join(out, rel), "rb") as fh:
                        digests[rel] = hashlib.sha256(fh.read()).hexdigest()
                with open(os.path.join(out, "manifest.json")) as fh:
                    n_steps = json.load(fh)["dt_stats"]["n_steps"]
                observed[name] = {"exit_code": code, "n_steps": n_steps, "sha256": digests}
                node_steps += n_steps * cfg.grid.n_nodes
            finally:
                shutil.rmtree(out, ignore_errors=True)
        return observed, node_steps

    def check(self, state, observed, reference):
        return check_reference(observed, reference)


# --- ensemble ----------------------------------------------------------------


def _random_modes(rng, x, amp, modes=3):
    return sum(rng.normal(0, amp) * np.sin((k + 1) * x)
               + rng.normal(0, amp) * np.cos((k + 1) * x) for k in range(modes))


class Ensemble:
    """Many short evolutions shaped like acceptance criteria 5 and 6."""

    name = "ensemble"
    MIN_CROSSED_SHARE = 0.9

    def setup(self, seed: int, work_dir: str) -> dict:
        rng = np.random.default_rng(seed)
        bc = solver.BoundaryCondition("periodic")

        g = Grid1D(0.0, 2 * np.pi, 96, "periodic")
        x = g.nodes()
        csf_pairs = []
        for _ in range(100):
            u0 = _random_modes(rng, x, 0.2)
            sd = barriers.StepData(M=0.5, s=rng.uniform(0, 2 * np.pi),
                                   mode="crenellated", R=np.pi, eps=4 * g.h)
            csf_pairs.append((Field(g, u0), Field(g, barriers.step_eval(sd, x))))

        g1 = Grid1D(0.0, 2 * np.pi, 64, "periodic")
        x1 = g1.nodes()
        ordered = []
        for family, flow in (("heat", flows.heat_1d(0.25)), ("csf", flows.csf())):
            for _ in range(40):
                lo = _random_modes(rng, x1, 0.3)
                hi = np.maximum(lo, _random_modes(rng, x1, 0.3)) + 0.01
                ordered.append((family, flow, Field(g1, lo), Field(g1, hi),
                                solver.TimeStepPlan(t_end=0.05), [0.05]))

        g2 = GridND((Grid1D(0, 2 * np.pi, 24, "periodic"),
                     Grid1D(0, 2 * np.pi, 24, "periodic")))
        X, Y = g2.meshgrid()
        mcf2d = flows.mcf_graph(2)
        for _ in range(20):
            lo = (rng.normal(0, 0.2) * np.sin(X) * np.sin(Y)
                  + rng.normal(0, 0.2) * np.cos(X + Y))
            hi = np.maximum(lo, rng.normal(0, 0.2) * np.sin(X + Y)) + 0.01
            ordered.append(("mcf2d", mcf2d, Field(g2, lo), Field(g2, hi),
                            solver.TimeStepPlan(t_end=0.01), [0.01]))

        return {
            "bc": bc,
            "csf": flows.csf(),
            "csf_pairs": csf_pairs,
            "csf_plan": solver.TimeStepPlan(t_end=0.1),
            "csf_times": [0.01, 0.02, 0.05, 0.1],
            "ordered": ordered,
        }

    def instrument(self, state, tracer):
        return state

    def run_pass(self, state) -> list:
        raw = []
        bc, flow, plan, times = state["bc"], state["csf"], state["csf_plan"], state["csf_times"]
        for i, (fu, fp) in enumerate(state["csf_pairs"]):
            try:
                traj_u = solver.evolve(flow, fu, bc, plan, times)
                traj_p = solver.evolve(flow, fp, bc, plan, times)
                rep = verify.intersection_monotonicity(traj_u, traj_p, eps_tie=1e-9)
                steps = (traj_u.dt_stats["n_steps"] + traj_p.dt_stats["n_steps"]) * fu.values.size
                raw.append((f"csf-intersections-{i:03d}", rep, steps))
            except solver.SolverError as e:
                raw.append((f"csf-intersections-{i:03d}", e, 0))
        for i, (family, fl, lo, hi, pplan, ptimes) in enumerate(state["ordered"]):
            op = f"{family}-comparison-{i:03d}"
            try:
                _, _, gaps = solver.evolve_pair_ordered(fl, lo, hi, bc, pplan, ptimes)
                rep = verify.check_comparison(gaps, max(1.0, float(np.max(np.abs(hi.values)))))
                raw.append((op, rep, 2 * (gaps.size - 1) * lo.values.size))
            except solver.SolverError as e:
                raw.append((op, e, 0))
        return raw

    def observe(self, state, raw):
        observed, node_steps = {}, 0
        for op, rep, steps in raw:
            if isinstance(rep, Exception):
                observed[op] = _failure(rep)
                continue
            observed[op] = {"passed": rep.passed, "max_defect": rep.max_defect}
            if op.startswith("csf-intersections-"):
                observed[op]["initial_count"] = rep.witness["counts"][0]
            node_steps += steps
        return observed, node_steps

    def check(self, state, observed, reference):
        failures = {}
        for op, obs in observed.items():
            if "error" in obs:
                failures[op] = obs["error"]
            elif not obs["passed"]:
                failures[op] = f"check failed: max_defect {obs['max_defect']!r}"
        # as in criterion 5: a count that cannot rise because it starts at 0
        # proves nothing, so at least 90% of the pairs must start crossed
        pairs = [obs for op, obs in observed.items() if op.startswith("csf-intersections-")]
        crossed = sum(1 for obs in pairs if obs.get("initial_count", 0) > 0)
        if crossed < self.MIN_CROSSED_SHARE * len(pairs):
            failures["csf-intersections"] = (f"only {crossed} of {len(pairs)} pairs "
                                             f"start with an intersection")
        return failures


# --- aniso -------------------------------------------------------------------


class Aniso:
    """Quartic norm certificate plus an aniso:euclid evolution on 48^2."""

    name = "aniso"
    NORM_ID = "quartic:0.001"

    def setup(self, seed: int, work_dir: str) -> dict:
        nf = finsler.norm_by_id(self.NORM_ID)
        flow = flows.get_flow("aniso:euclid")
        ax = Grid1D(0.0, 2 * np.pi, 48, "periodic")
        g = GridND((ax, ax))
        X, Y = g.meshgrid()
        u0 = Field(g, 0.3 * np.sin(X) * np.sin(Y) + 0.2 * np.cos(X + Y))
        bc = solver.BoundaryCondition("periodic")
        plan = solver.TimeStepPlan(t_end=0.05)
        # the isotropic reduction: aniso:euclid must reproduce mcf2d
        ref = solver.evolve(flows.mcf_graph(2), u0, bc, plan)
        return {"nf": nf, "flow": flow, "u0": u0, "bc": bc, "plan": plan,
                "mcf2d_values": ref.fields[-1].values,
                "mcf2d_steps": ref.dt_stats["n_steps"]}

    def instrument(self, state, tracer):
        nf = state["nf"]
        counted_nf = dataclasses.replace(
            nf, **{k: tracer.counter(f"finsler.{k}", getattr(nf, k))
                   for k in ("value", "grad", "hess", "third")})
        flow = state["flow"]
        counted_flow = dataclasses.replace(flow, coeff=tracer.counter("flows.coeff", flow.coeff))
        return dict(state, nf=counted_nf, flow=counted_flow)

    def run_pass(self, state) -> list:
        try:
            consts = finsler.certify(state["nf"])
        except RuntimeError as e:  # the plateau was not reached
            consts = e
        try:
            traj = solver.evolve(state["flow"], state["u0"], state["bc"], state["plan"])
        except solver.SolverError as e:
            traj = e
        return [("certify", consts), ("evolve", traj)]

    def observe(self, state, raw):
        observed, node_steps = {}, 0
        consts, traj = raw[0][1], raw[1][1]
        if isinstance(consts, Exception):
            observed["certify"] = _failure(consts)
        else:
            observed["certify"] = {
                "norm_id": consts.norm_id,
                "A": float(consts.A), "P": float(consts.P), "k": float(consts.k),
                "C1": float(consts.C1), "C2": float(consts.C2),
                "S_eps": {str(k): v for k, v in consts.S_eps.items()},
            }
        if isinstance(traj, Exception):
            observed["evolve"] = _failure(traj)
        else:
            n_steps = traj.dt_stats["n_steps"]
            gap = float(np.max(np.abs(traj.fields[-1].values - state["mcf2d_values"])))
            observed["evolve"] = {"n_steps": n_steps, "max_gap_to_mcf2d": gap}
            node_steps += n_steps * state["u0"].values.size
        return observed, node_steps

    def check(self, state, observed, reference):
        failures = check_reference({"certify": observed["certify"]},
                                   {"certify": reference["certify"]})
        ev = observed["evolve"]
        if "error" in ev:
            failures["evolve"] = ev["error"]
        elif ev["max_gap_to_mcf2d"] > 1e-12:
            failures["evolve"] = f"field differs from mcf2d by {ev['max_gap_to_mcf2d']!r}"
        elif not ev["n_steps"] == state["mcf2d_steps"] == reference["evolve"]["n_steps"]:
            failures["evolve"] = (f"{ev['n_steps']} steps; mcf2d took {state['mcf2d_steps']}, "
                                  f"reference {reference['evolve']['n_steps']}")
        return failures


# --- replay ------------------------------------------------------------------


class Replay:
    """Checks replayed on fixed trajectories; the solver runs only in setup."""

    name = "replay"
    EPS_CELLS = (4, 8, 16)

    def setup(self, seed: int, work_dir: str) -> dict:
        # criterion 8: crenellated csf runs, oscillation M, barrier c = 1/4
        M, R, n, c = 1.0, 2.0, 512, 0.25
        grid = Grid1D(0.0, 2 * R, n, "periodic")
        x = grid.nodes()
        t_prime = 2.0 * c * M ** 2 / 3.0
        times = np.geomspace(1e-3 * t_prime, t_prime, 16)
        trajs = []
        for k in self.EPS_CELLS:
            sd = barriers.StepData(M=M / 2.0, mode="crenellated", R=R, eps=k * grid.h)
            trajs.append(solver.evolve(flows.csf(), Field(grid, barriers.step_eval(sd, x)),
                                       solver.BoundaryCondition("periodic"),
                                       solver.TimeStepPlan(t_end=t_prime), times))

        # criterion 4: exact erf heat snapshots with the analytic gradient
        hc, hM = 0.25, 1.0
        hg = Grid1D(-1.0, 1.0, 512, "bounded")
        hx = hg.nodes()
        heat = solver.Trajectory()
        heat.append(0.0, Field(hg, hM * np.sign(hx)))
        for t in np.geomspace(1e-3, 0.1, 15):
            heat.append(t, Field(hg, hM * erf(np.sqrt(hc) * hx / (2.0 * np.sqrt(t))), time=t))

        # criterion 1: seeded covectors with the mcf coefficient matrices
        rng = np.random.default_rng(seed)
        alpha_samples = []
        for dim in (1, 2, 3):
            mcf = flows.mcf_graph(dim)
            for _ in range(20):
                p = rng.normal(size=dim)
                p *= rng.uniform(0.1, 10.0) / np.linalg.norm(p)
                alpha_samples.append((mcf.coeff(p), p))

        return {
            "M": M, "t_prime": t_prime, "barrier": barriers.PsiBarrier(c=c), "trajs": trajs,
            "node_steps": sum(t.dt_stats["n_steps"] for t in trajs) * grid.n_nodes,
            "heat": heat, "heat_M": hM, "heat_c": hc,
            "alpha_samples": alpha_samples,
        }

    def instrument(self, state, tracer):
        return state

    def run_pass(self, state) -> list:
        raw = []
        M, b, window = state["M"], state["barrier"], (0.0, state["t_prime"])
        for k, traj in zip(self.EPS_CELLS, state["trajs"]):
            for region in ("G", "full"):
                rep = verify.double_coordinate_defect(traj, b, M, region=region,
                                                      t_window=window)
                raw.append((f"double-coordinate:{region}:eps={k}h", rep))
        hM, hc = state["heat_M"], state["heat_c"]

        def grad(xx, tt):
            return hM * np.sqrt(hc / (np.pi * tt)) * np.exp(-hc * xx ** 2 / (4.0 * tt))

        raw.append(("heat-zero-counting", verify.heat_zero_counting_gradient(
            state["heat"], hM, hc, rel_tol=0.02, gradient_of=grad)))
        for i, (A, p) in enumerate(state["alpha_samples"]):
            try:
                val = flows.alpha(A, p, n_dirs=512)
            except ArithmeticError as e:  # sampled value disagrees with the closed form
                val = e
            raw.append((f"alpha-{i:02d}", val))
        return raw

    def observe(self, state, raw):
        observed = {}
        alphas = dict(zip((f"alpha-{i:02d}" for i in range(len(state["alpha_samples"]))),
                          state["alpha_samples"]))
        for op, res in raw:
            if isinstance(res, Exception):
                observed[op] = _failure(res)
            elif op in alphas:
                p = alphas[op][1]
                observed[op] = {"error_vs_closed_form": abs(res - 1.0 / (1.0 + p @ p))}
            else:
                observed[op] = {"max_defect": float(res.max_defect), "passed": res.passed}
        return observed, state["node_steps"]

    def check(self, state, observed, reference):
        failures = check_reference(
            {op: obs for op, obs in observed.items() if op in reference}, reference)
        for op, obs in observed.items():
            if "error" in obs:
                failures[op] = obs["error"]
            elif op.startswith("alpha-") and not obs["error_vs_closed_form"] <= 1e-6:
                failures[op] = f"|alpha - 1/(1+|p|^2)| = {obs['error_vs_closed_form']!r}"
        return failures


def all_workloads(root: str) -> dict:
    return {w.name: w for w in (Configs(root), Ensemble(), Aniso(), Replay())}
