"""Experiment configuration: INI-style files binding flows, grids, initial
data, boundary conditions, time plans and checks.

Sections: [flow], [grid], [initial], [bc], [plan], [run], and one
[check:<name>] per requested check; CHECK_TYPES maps each check type to the
builder that runs it on a trajectory and the keys its section takes.
Validation errors carry the offending field path (e.g. "flow.id"), and a
key that a [flow] or [check:<name>] section does not take is one.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import barriers, flows, verify
from .fields import Field, Grid1D
from .solver import BoundaryCondition, TimeStepPlan, prep_output_times, shared_snapshot_name

__all__ = ["ExperimentConfig", "ConfigError", "load_config", "INITIAL_KINDS", "CHECK_TYPES",
           "CheckType"]

INITIAL_KINDS = ("sin", "cos", "abspow", "zigzag", "step", "crenel", "cone")


def _t_window(params: dict):
    if "t_lo" in params or "t_hi" in params:
        return (params.get("t_lo", 0.0), params.get("t_hi", np.inf))
    return None


@dataclass(frozen=True)
class CheckType:
    """How a [check:<name>] section runs: ``build(params, trajectory)``
    returns its VerificationReport; the section must set every key in
    ``required`` and may set those in ``optional`` (besides type and
    assert).  MODULI uses it for the modulus of a convergence check, whose
    ``build(params)`` returns the ModulusOfContinuity and whose keys the
    section takes as well.  ``bad_value(params)`` returns (key, reason) for
    a value that ``build`` would reject, or None, so that it is found when
    the file is loaded rather than after the evolve."""

    build: Callable
    required: tuple = ()
    optional: tuple = ()
    bad_value: Callable = lambda params: None


WINDOW = ("t_lo", "t_hi")


def _holder_bad_value(params):
    try:
        verify.holder_modulus(params["alpha"])
    except ValueError as e:
        return "alpha", str(e)


MODULI = {
    "lipschitz": CheckType(lambda params: verify.lipschitz_modulus(params["L"]), ("L",)),
    "holder": CheckType(lambda params: verify.holder_modulus(params["alpha"],
                                                             params.get("C", 1.0)),
                        ("alpha",), ("C",), _holder_bad_value),
}


def _heat_zero_counting(params, traj):
    return verify.heat_zero_counting_gradient(
        traj, M=params["M"], c=params["c"],
        rel_tol=params.get("rel_tol", 0.02),
        tail_floor=params.get("tail_floor", 0.0))


def _double_coordinate(params, traj):
    return verify.double_coordinate_defect(
        traj, barriers.PsiBarrier(c=params["c"]), params["M"],
        region=params.get("region", "full"), t_window=_t_window(params))


def _convergence(params, traj):
    omega = MODULI[params.get("modulus", "lipschitz")].build(params)
    return verify.convergence_to_initial_data(traj, omega, grid_tol=params.get("grid_tol", 0.0))


def _eh_bound(params, traj):
    return verify.eh_bound_check(
        traj, params["M"], kind=params.get("kind", "periodic"),
        c=params["c"], q=params.get("q", 2.0), R=params.get("R"),
        T_prime=params.get("T_prime", np.inf),
        t_min=params.get("t_min", 0.0),
        grid_tol=params.get("grid_tol", 0.0))


def _eh_bound_bad_value(params):
    kind = params.get("kind", "periodic")
    if kind not in verify.EH_BOUND_KINDS:
        return "kind", f"unknown kind {kind!r}; choose from {verify.EH_BOUND_KINDS}"
    if kind == "interior" and "R" not in params:
        return "R", "missing; kind = interior needs R"


def _gradient_bound(params, traj):
    coeff = params["coeff"]
    power = params.get("power", -0.5)
    return verify.gradient_bound_check(
        traj, lambda t: coeff * t ** power,
        grid_tol=params.get("grid_tol", 0.0), t_window=_t_window(params))


CHECK_TYPES = {
    "heat_zero_counting": CheckType(_heat_zero_counting, ("M", "c"), ("rel_tol", "tail_floor")),
    "double_coordinate": CheckType(_double_coordinate, ("M", "c"), ("region",) + WINDOW),
    # plus the keys of the modulus (MODULI)
    "convergence": CheckType(_convergence, (), ("modulus", "grid_tol")),
    "eh_bound": CheckType(_eh_bound, ("M", "c"),
                          ("kind", "q", "R", "T_prime", "t_min", "grid_tol"), _eh_bound_bad_value),
    "gradient_bound": CheckType(_gradient_bound, ("coeff",), ("power", "grid_tol") + WINDOW),
}
# the check keys whose values are words; every other key is a number
TEXT_KEYS = ("region", "kind", "modulus")


def _check_keys(section: str, params: dict, spec: CheckType) -> None:
    for key in spec.required:
        if key not in params:
            raise ConfigError(f"{section}.{key}", "missing")
    for key in params:
        if key not in spec.required + spec.optional:
            raise ConfigError(f"{section}.{key}", "unknown key; it takes "
                              f"{spec.required + spec.optional + ('type', 'assert')}")
        if isinstance(params[key], str) and key not in TEXT_KEYS:
            raise ConfigError(f"{section}.{key}", f"{params[key]!r} is not a number")


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    flow_id: str
    flow_params: dict
    grid: Grid1D
    initial_kind: str
    initial_params: dict
    bc_kind: str
    bc_value: float | None
    plan: TimeStepPlan
    output_times: list
    checks: dict = field(default_factory=dict)
    seed: int = 0

    def build_flow(self):
        return flows.get_flow(self.flow_id, **self.flow_params)

    def build_initial(self) -> Field:
        x = self.grid.nodes()
        p = self.initial_params
        kind = self.initial_kind
        A = p.get("amplitude", 1.0)
        if kind == "sin":
            vals = A * np.sin(p.get("frequency", 1.0) * x + p.get("phase", 0.0))
        elif kind == "cos":
            vals = A * np.cos(p.get("frequency", 1.0) * x + p.get("phase", 0.0))
        elif kind == "abspow":
            vals = A * np.abs(x - p.get("center", 0.0)) ** p.get("exponent", 1.0)
        elif kind == "zigzag":
            per = p.get("period", 1.0)
            vals = A * (0.5 - np.abs(np.mod(x - p.get("center", 0.0), per) / per - 0.5)) * 2.0
        elif kind == "step":
            sd = barriers.StepData(M=p.get("height", 1.0), s=p.get("jump", 0.0),
                                   eps=p.get("eps", 0.0))
            vals = barriers.step_eval(sd, x)
        elif kind == "crenel":
            sd = barriers.StepData(M=p.get("height", 1.0), s=p.get("jump", 0.0),
                                   mode="crenellated", R=p.get("R", 1.0),
                                   eps=p.get("eps", 0.0))
            vals = barriers.step_eval(sd, x)
        elif kind == "cone":
            vals = p.get("slope", 1.0) * np.abs(x - p.get("center", 0.0))
        else:
            raise ConfigError("initial.kind", f"unknown kind {kind!r}")
        return Field(self.grid, vals)

    def build_bc(self) -> BoundaryCondition:
        if self.bc_kind == "dirichlet":
            if self.bc_value is not None:
                v = float(self.bc_value)
                return BoundaryCondition("dirichlet", value=lambda x, t: v)
            # hold the initial data at the endpoints
            u0 = self.build_initial().values
            lo, hi = float(u0[0]), float(u0[-1])
            g = self.grid

            def held(x, t):
                return lo if abs(x - g.x_lo) < abs(x - g.x_hi) else hi

            return BoundaryCondition("dirichlet", value=held)
        return BoundaryCondition(self.bc_kind)


def _floats(text: str) -> list:
    return [float(v) for v in text.replace(",", " ").split()]


def _section_params(cp, section, skip=()) -> dict:
    out = {}
    if not cp.has_section(section):
        return out
    for key, val in cp.items(section):
        if key in skip:
            continue
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case (M vs m matters for check params)
    read = cp.read(path)
    if not read:
        raise ConfigError("(file)", f"cannot read config {path!r}")

    for required in ("flow", "grid", "plan"):
        if not cp.has_section(required):
            raise ConfigError(required, "missing section")

    flow_id = cp.get("flow", "id", fallback=None)
    if flow_id is None:
        raise ConfigError("flow.id", "missing")
    flow_params = _section_params(cp, "flow", skip=("id",))
    try:
        accepted = flows.flow_params(flow_id)
        flow = flows.get_flow(flow_id, **{k: v for k, v in flow_params.items() if k in accepted})
    except KeyError:
        raise ConfigError("flow.id", f"unknown flow id {flow_id!r}")
    except ValueError as e:
        raise ConfigError("flow", str(e))
    if flow.n != 1:
        raise ConfigError("flow.id", f"{flow_id!r} is a {flow.n}-D flow; config grids are 1-D")
    for key in flow_params:
        if key not in accepted:
            raise ConfigError(f"flow.{key}", f"{flow_id!r} takes no parameter {key!r}; "
                              f"it takes {accepted}")

    try:
        grid = Grid1D(
            x_lo=cp.getfloat("grid", "x_lo"),
            x_hi=cp.getfloat("grid", "x_hi"),
            n_cells=cp.getint("grid", "n_cells"),
            topology=cp.get("grid", "topology", fallback="bounded"),
        )
    except (configparser.NoOptionError, ValueError) as e:
        raise ConfigError("grid", str(e))

    initial_kind = cp.get("initial", "kind", fallback="sin")
    if initial_kind not in INITIAL_KINDS:
        raise ConfigError("initial.kind",
                          f"unknown kind {initial_kind!r}; choose from {INITIAL_KINDS}")
    initial_params = _section_params(cp, "initial", skip=("kind",))

    bc_kind = cp.get("bc", "kind", fallback=None)
    if bc_kind is None:
        bc_kind = "periodic" if grid.topology == "periodic" else "neumann_zero"
    if bc_kind not in ("periodic", "dirichlet", "neumann_zero"):
        raise ConfigError("bc.kind", f"unknown bc kind {bc_kind!r}")
    bc_value = cp.getfloat("bc", "value", fallback=None) if cp.has_section("bc") else None

    try:
        plan = TimeStepPlan(
            t_end=cp.getfloat("plan", "t_end"),
            cfl_safety=cp.getfloat("plan", "cfl_safety", fallback=0.5),
            max_grad_clip=cp.getfloat("plan", "max_grad_clip", fallback=100.0),
        )
    except (configparser.NoOptionError, ValueError) as e:
        raise ConfigError("plan", str(e))
    out_text = cp.get("plan", "output_times", fallback=None)
    try:
        output_times = prep_output_times(plan, _floats(out_text) if out_text else None)
    except ValueError as e:
        raise ConfigError("plan.output_times", str(e))
    # the snapshots at t = 0 and at each output time need distinct file names
    clash = shared_snapshot_name([0.0] + output_times)
    if clash:
        raise ConfigError("plan.output_times", clash)

    checks = {}
    for section in cp.sections():
        if not section.startswith("check:"):
            continue
        name = section.split(":", 1)[1]
        ctype = cp.get(section, "type", fallback=None)
        if ctype not in CHECK_TYPES:
            raise ConfigError(f"{section}.type",
                              f"unknown check type {ctype!r}; choose from {tuple(CHECK_TYPES)}")
        params = _section_params(cp, section, skip=("type", "assert"))
        spec = CHECK_TYPES[ctype]
        if ctype == "convergence":
            modulus = MODULI.get(params.get("modulus", "lipschitz"))
            if modulus is None:
                raise ConfigError(f"{section}.modulus", f"unknown modulus "
                                  f"{params['modulus']!r}; choose from {tuple(MODULI)}")
            spec = CheckType(spec.build, spec.required + modulus.required,
                             spec.optional + modulus.optional, modulus.bad_value)
        _check_keys(section, params, spec)
        bad = spec.bad_value(params)
        if bad:
            raise ConfigError(f"{section}.{bad[0]}", bad[1])
        params["assert"] = cp.getboolean(section, "assert", fallback=True)
        params["type"] = ctype
        checks[name] = params

    seed = cp.getint("run", "seed", fallback=0) if cp.has_section("run") else 0

    return ExperimentConfig(
        flow_id=flow_id,
        flow_params=flow_params,
        grid=grid,
        initial_kind=initial_kind,
        initial_params=initial_params,
        bc_kind=bc_kind,
        bc_value=bc_value,
        plan=plan,
        output_times=output_times,
        checks=checks,
        seed=seed,
    )
