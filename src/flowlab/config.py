"""Experiment configuration: INI-style files binding flows, grids, initial
data, boundary conditions, time plans and checks.

SCHEMA declares every section once: [flow], [grid], [initial], [bc],
[plan], [run], and one [check:<name>] per requested check.  Each Key has a
parser, a default or REQUIRED, and a range (a float key with none must be
finite); a Select gives the keys per value of a selector key (the flow id,
the initial or bc kind, the check type, the convergence modulus).
``read_config`` is the one reader of config files; ``load_config`` reads
through it, walks the table and builds the flow, the initial data and the
bc once: an unknown, missing, unparsable or out-of-range key, or data
that cannot be built, is a ConfigError naming its field (e.g.
"plan.t_end") before anything evolves or is written.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import barriers, flows, verify
from .fields import Field, Grid1D
from .flows import GraphFlowND
from .solver import BoundaryCondition, TimeStepPlan, prep_output_times, shared_snapshot_name

__all__ = ["ExperimentConfig", "ConfigError", "read_config", "load_config", "SCHEMA",
           "INITIAL_KINDS", "CHECK_TYPES", "Kind", "Key", "Select", "REQUIRED"]

REQUIRED = object()


class Key(NamedTuple):
    """One key of a section: ``parse(text)`` raises ValueError on bad text,
    and the value must lie ``within`` an interval "(lo, hi]" or a tuple of
    words ("" for any value).  A default of None leaves the key unset."""

    parse: Callable = float
    default: object = REQUIRED
    within: object = ""


class Select(NamedTuple):
    """Keys that depend on the value of the selector ``key``: every value
    takes the ``common`` keys and those of ``variants[value]``, a dict of
    Keys or a nested Select.  An id "<family>:<spec>" selects the variant
    "<family>:"."""

    key: str
    variants: dict
    default: object = REQUIRED
    common: dict = {}


class Kind(NamedTuple):
    """The ``keys`` one selector value takes, and ``build``, which reads
    them with defaults filled in: ``build(params, trajectory)`` of a check
    type, ``build(params)`` of a modulus, ``build(params, x)`` of an
    initial kind.  ``flows`` names the catalog flows whose bound a check
    type proves; None admits every flow."""

    build: Callable
    keys: dict | Select
    flows: tuple | None = None


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean")


def _floats(text: str) -> list | None:
    return [float(v) for v in text.replace(",", " ").split()] or None  # empty: unset


def _t_window(p: dict):
    """(t_lo, t_hi), or None for the default window, which is no window."""
    return None if (p["t_lo"], p["t_hi"]) == (0.0, np.inf) else (p["t_lo"], p["t_hi"])


def _region_window(p: dict):
    """The double-coordinate window: an unset t_hi is region G's time limit
    2cM^2/3, past which the barrier is not claimed, and inf for region full."""
    if p["t_hi"] is None:
        p = {**p, "t_hi": 2.0 * p["c"] * p["M"] ** 2 / 3.0 if p["region"] == "G" else np.inf}
    return _t_window(p)


POSITIVE = "(0, inf)"
NONNEGATIVE = "[0, inf)"
WINDOW = {"t_lo": Key(float, 0.0), "t_hi": Key(float, np.inf, "(-inf, inf]")}
GRID_TOL = {"grid_tol": Key(float, 0.0)}
WAVE = {"amplitude": Key(float, 1.0), "frequency": Key(float, 1.0), "phase": Key(float, 0.0)}
STEP = {"height": Key(float, 1.0, POSITIVE), "jump": Key(float, 0.0),
        "eps": Key(float, 0.0, NONNEGATIVE)}


def _step(p, x, **mode):
    sd = barriers.StepData(M=p["height"], s=p["jump"], eps=p["eps"], **mode)
    return barriers.step_eval(sd, x)


def _zigzag(p, x):
    per = p["period"]
    return p["amplitude"] * (0.5 - np.abs(np.mod(x - p["center"], per) / per - 0.5)) * 2.0


INITIAL_KINDS = {
    "sin": Kind(lambda p, x: p["amplitude"] * np.sin(p["frequency"] * x + p["phase"]), WAVE),
    "cos": Kind(lambda p, x: p["amplitude"] * np.cos(p["frequency"] * x + p["phase"]), WAVE),
    "abspow": Kind(lambda p, x: p["amplitude"] * np.abs(x - p["center"]) ** p["exponent"],
                   {"amplitude": Key(float, 1.0), "center": Key(float, 0.0),
                    "exponent": Key(float, 1.0)}),
    "zigzag": Kind(_zigzag, {"amplitude": Key(float, 1.0), "period": Key(float, 1.0, POSITIVE),
                             "center": Key(float, 0.0)}),
    "step": Kind(_step, STEP),
    "crenel": Kind(lambda p, x: _step(p, x, mode="crenellated", R=p["R"]),
                   {**STEP, "R": Key(float, 1.0, POSITIVE)}),
    "cone": Kind(lambda p, x: p["slope"] * np.abs(x - p["center"]),
                 {"slope": Key(float, 1.0), "center": Key(float, 0.0)}),
}

MODULI = {
    "lipschitz": Kind(lambda p: verify.lipschitz_modulus(p["L"]), {"L": Key(within=NONNEGATIVE)}),
    "holder": Kind(lambda p: verify.holder_modulus(p["alpha"], p["C"]),
                   {"alpha": Key(within="(0, 1]"), "C": Key(float, 1.0, NONNEGATIVE)}),
}

CHECK_TYPES = {
    "heat_zero_counting": Kind(
        lambda p, traj: verify.heat_zero_counting_gradient(
            traj, M=p["M"], c=p["c"], rel_tol=p["rel_tol"], tail_floor=p["tail_floor"]),
        {"M": Key(within=POSITIVE), "c": Key(within=POSITIVE),
         "rel_tol": Key(float, 0.02), "tail_floor": Key(float, 0.0, NONNEGATIVE)},
        # the bound is derived for u_t = u_xx / (4c)
        flows=("heat",)),
    "double_coordinate": Kind(
        lambda p, traj: verify.double_coordinate_defect(
            traj, barriers.PsiBarrier(c=p["c"]), p["M"], region=p["region"],
            t_window=_region_window(p)),
        {"M": Key(within=POSITIVE), "c": Key(within=POSITIVE),
         "region": Key(str, "full", ("full", "G")),
         **WINDOW, "t_hi": Key(float, None, "(-inf, inf]")}),
    "convergence": Kind(
        lambda p, traj: verify.convergence_to_initial_data(
            traj, MODULI[p["modulus"]].build(p), grid_tol=p["grid_tol"]),
        Select("modulus", {m: k.keys for m, k in MODULI.items()}, "lipschitz", GRID_TOL)),
    "gradient_bound": Kind(
        lambda p, traj: verify.gradient_bound_check(
            traj, lambda t: p["coeff"] * t ** p["power"], grid_tol=p["grid_tol"],
            t_window=_t_window(p)),
        {"coeff": Key(), "power": Key(float, -0.5), **GRID_TOL, **WINDOW},
        # the bound coeff * t^power comes from the user, not from a flow's
        # theory, so it covers every flow
        flows=None),
}

SCHEMA = {
    "flow": Select("id", {fid: e.params for fid, e in flows.FLOW_PARAMS.items()}),
    "grid": {"x_lo": Key(), "x_hi": Key(), "n_cells": Key(int, within="[4, inf)"),
             "topology": Key(str, "bounded", ("bounded", "periodic"))},
    "initial": Select("kind", {k: ik.keys for k, ik in INITIAL_KINDS.items()}, "sin"),
    # kind defaults to the one the grid's topology takes; value None holds
    # the initial data at the ends
    "bc": Select("kind", {"periodic": {}, "dirichlet": {"value": Key(float, None)},
                          "neumann_zero": {}}, None),
    "plan": {"t_end": Key(within=POSITIVE), "cfl_safety": Key(float, 0.5, "(0, 1)"),
             "max_grad_clip": Key(float, 100.0, POSITIVE),
             "output_times": Key(_floats, None)},  # None: [t_end]
    "run": {"seed": Key(int, 0)},
    "check:": Select("type", {t: k.keys for t, k in CHECK_TYPES.items()},
                     common={"assert": Key(_bool, True)}),
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _family(name: str) -> str:
    """The table entry of a name: "<family>:" for "<family>:<spec>"."""
    head, colon, _ = name.partition(":")
    return head + colon


def _within(v, within) -> bool:
    if isinstance(within, tuple):
        return v in within
    if not within:  # any value, but a float must be finite
        return not isinstance(v, float) or np.isfinite(v)
    lo, hi = (float(b) for b in within[1:-1].split(","))
    return ((lo < v if within[0] == "(" else lo <= v)
            and (v < hi if within[-1] == ")" else v <= hi))


def _read(section: str, node, raw: dict, check=None) -> tuple[dict, dict]:
    """Parse the text values ``raw`` of a section by its schema node.
    Returns the values the section sets, with each selector's value, and
    the keys it takes.  ``check(values)`` runs before keys the section does
    not take are rejected."""
    values, keys, owner = {}, {}, section
    while isinstance(node, Select):
        keys.update(node.common)
        owner = raw.get(node.key, node.default)
        if owner is REQUIRED:
            raise ConfigError(f"{section}.{node.key}", "missing")
        if _family(owner) not in node.variants:
            raise ConfigError(f"{section}.{node.key}", f"unknown {node.key} {owner!r}; "
                              f"choose from {tuple(node.variants)}")
        values[node.key] = owner
        node = node.variants[_family(owner)]
    keys.update(node)
    for key, (parse, default, within) in keys.items():
        path = f"{section}.{key}"
        if key not in raw:
            if default is REQUIRED:
                raise ConfigError(path, "missing")
            continue
        try:
            values[key] = parse(raw[key])
        except ValueError as e:
            raise ConfigError(path, str(e))
        if not _within(values[key], within):
            raise ConfigError(path, f"{key} = {values[key]!r} must lie in "
                                    f"{within or '(-inf, inf)'}")
    if check:
        check(values)
    for key in raw:
        if key not in keys and key not in values:
            raise ConfigError(f"{section}.{key}", f"{owner!r} takes no parameter {key!r}; "
                              f"it takes {tuple(keys)}")
    return values, keys


def _one_d_flow(values: dict) -> GraphFlowND:
    """The flow of a [flow] section: its id names a flow, 1-D with these
    parameters."""
    params = dict(values)
    flow_id = params.pop("id")
    try:
        flow = flows.get_flow(flow_id, **params)
    except (KeyError, ValueError) as e:
        raise ConfigError("flow.id", e.args[0])
    if flow.n != 1:
        raise ConfigError("flow.id", f"{flow_id!r} is a {flow.n}-D flow; config grids are 1-D")
    return flow


def _initial(p: dict, grid: Grid1D) -> Field:
    try:
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            return Field(grid, INITIAL_KINDS[p["kind"]].build(p, grid.nodes()))
    except ValueError as e:
        raise ConfigError("initial", f"{p['kind']!r} initial data on this grid: {e}")


def _bc(kind: str, value: float | None, u0: Field) -> BoundaryCondition:
    if kind != "dirichlet":
        return BoundaryCondition(kind)
    if value is not None:
        return BoundaryCondition("dirichlet", value=lambda x, t: value)
    # hold the initial data at the endpoints
    lo, hi, g = float(u0.values[0]), float(u0.values[-1]), u0.grid
    return BoundaryCondition(
        "dirichlet", value=lambda x, t: lo if abs(x - g.x_lo) < abs(x - g.x_hi) else hi)


@dataclass
class ExperimentConfig:
    """A built experiment, and the values its manifest and summary print:
    ``initial`` holds the [initial] keys the config sets."""

    flow_id: str
    flow: GraphFlowND
    grid: Grid1D
    initial: dict
    u0: Field
    bc: BoundaryCondition
    plan: TimeStepPlan
    output_times: list
    checks: dict = field(default_factory=dict)
    seed: int = 0


def read_config(path) -> configparser.ConfigParser:
    """The sections of a config file as text; a file that cannot be read,
    decoded or parsed (a duplicate key, say) is a ConfigError on "(file)"."""
    cp = configparser.ConfigParser(interpolation=None)  # values are literal text
    cp.optionxform = str  # keep key case (M vs m matters for check params)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError("(file)", str(e))
    if not read:
        raise ConfigError("(file)", f"cannot read config {path!r}")
    return cp


def load_config(path) -> ExperimentConfig:
    cp = read_config(path)
    for name in cp.sections():
        if _family(name) not in SCHEMA:
            raise ConfigError(name, f"unknown section; sections are {tuple(SCHEMA)}")

    def section(name, check=None, **defaults):
        raw = {**defaults, **(dict(cp.items(name)) if cp.has_section(name) else {})}
        values, keys = _read(name, SCHEMA[_family(name)], raw, check)
        return values, {**{key: default for key, (_, default, _) in keys.items()}, **values}

    built = {}  # the flow, which the [flow] check builds
    flow_values, _ = section("flow", lambda values: built.update(flow=_one_d_flow(values)))

    _, g = section("grid")
    if not g["x_lo"] < g["x_hi"]:
        raise ConfigError("grid.x_hi", f"x_hi = {g['x_hi']!r} must exceed x_lo = {g['x_lo']!r}")
    grid = Grid1D(**g)

    initial, ip = section("initial")
    u0 = _initial(ip, grid)

    _, bc = section("bc", kind="periodic" if grid.topology == "periodic" else "neumann_zero")
    if (bc["kind"] == "periodic") != (grid.topology == "periodic"):
        raise ConfigError("bc.kind", f"{bc['kind']} bc on a {grid.topology} grid")

    _, p = section("plan")
    out_times = p.pop("output_times")
    plan = TimeStepPlan(**p)
    try:
        output_times = prep_output_times(plan, out_times)
    except ValueError as e:
        raise ConfigError("plan.output_times", str(e))
    # the snapshots at t = 0 and at each output time need distinct file names
    clash = shared_snapshot_name([0.0] + output_times)
    if clash:
        raise ConfigError("plan.output_times", clash)

    checks = {}
    for name in cp.sections():
        if name.startswith("check:"):
            params = section(name)[1]
            covered = CHECK_TYPES[params["type"]].flows
            if covered is not None and flow_values["id"] not in covered:
                raise ConfigError(f"{name}.type", f"{params['type']} proves its bound for the "
                                  f"flows {covered} only, not {flow_values['id']!r}")
            checks[name.split(":", 1)[1]] = params

    return ExperimentConfig(
        flow_id=flow_values["id"],
        flow=built["flow"],
        grid=grid,
        initial=initial,
        u0=u0,
        bc=_bc(bc["kind"], bc.get("value"), u0),
        plan=plan,
        output_times=output_times,
        checks=checks,
        seed=section("run")[1]["seed"],
    )
