"""Command line entry point.

Subcommands:
  run      evolve one configured experiment and emit reports
  sweep    run a config over a grid of parameter overrides
  certify  structural certificate for a flow or norm id, or for every
           listed norm (id "norms")
  list     show catalog ids and the keys of every config section

Outputs are deterministic: given the same config the emitted manifest,
field CSVs and report JSONs are byte-identical.  Every subcommand writes
stdout through ``_emit``, and ``main`` maps its errors to exit codes.
"""

from __future__ import annotations

import argparse
import collections
import copy
import itertools
import json
import os
import sys

import numpy as np

from . import finsler, flows, verify
from .config import (CHECK_TYPES, REQUIRED, SCHEMA, ConfigError, ExperimentConfig, Select,
                     load_config, read_config)
from .solver import SolverError, Trajectory, evolve


def _emit(*lines: str) -> None:
    """Write lines to stdout, the one writer of every subcommand.  Once the
    reader stops early (`flowlab list | head -1`), stdout points at devnull,
    and the command goes on to its own exit code."""
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _error_code(e: ConfigError | SolverError, label: str = "") -> int:
    """Report a ConfigError (exit code 2) or a SolverError (exit code 1) on
    stderr and return its code: the one mapping of every subcommand and row."""
    kind, code = ("config error", 2) if isinstance(e, ConfigError) else ("solver error", 1)
    print(f"{label}{kind}: {e}", file=sys.stderr)
    return code


def _check_out(out: str) -> None:
    """A ConfigError on ``--out`` unless its nearest existing path is a
    directory, so that the output directory can be made and nothing is
    written before that is known."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError("--out", f"{path!r} exists and is not a directory")


def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   assert_checks: bool = True, traj: Trajectory | None = None) -> int:
    """Evolve the built experiment, check, and write
    manifest/fields/reports/summary.  ``traj``, when given, is the evolution
    of an experiment that differs from cfg at most in its checks, and is
    used in place of evolving cfg.

    Returns a process exit code: 0 on success, 1 if an asserted check failed.
    """
    os.makedirs(out_dir, exist_ok=True)
    if traj is None:
        traj = evolve(cfg.flow, cfg.u0, cfg.bc, cfg.plan, cfg.output_times)
    traj.export(out_dir, flow_id=cfg.flow_id, bc=cfg.bc.kind,
                extra={"seed": cfg.seed, "initial": cfg.initial, "checks": sorted(cfg.checks)})

    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    lines = []
    failed_asserted = False
    for name in sorted(cfg.checks):
        params = cfg.checks[name]
        try:
            rep = CHECK_TYPES[params["type"]].build(params, traj)
        except verify.PreconditionError as e:
            lines.append(f"ERROR {name}: {e}")
            failed_asserted = failed_asserted or params["assert"]
            continue
        rep.to_json(os.path.join(reports_dir, f"{name}.json"))
        line = rep.summary_line()
        if not params["assert"]:
            line += "  (report-only)"
        elif not rep.passed:
            failed_asserted = True
        lines.append(f"{name}: {line}")

    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"flow={cfg.flow_id} bc={cfg.bc.kind} seed={cfg.seed}\n")
        fh.write(f"steps={traj.dt_stats.get('n_steps')} "
                 f"snapshots={len(traj.snapshots)}\n")
        for line in lines:
            fh.write(line + "\n")

    _emit(*lines)
    return 1 if (assert_checks and failed_asserted) else 0


def _parse_overrides(spec: str) -> dict:
    """"flow.c=0.25,0.5;grid.n_cells=128,256" -> {path: [values]}; a clause
    not of that form (an empty one too), or a key given twice, is a ConfigError."""
    out = {}
    for clause in map(str.strip, spec.split(";")):
        key, _, vals = clause.partition("=")
        key = key.strip()
        section, _, name = key.rpartition(".")
        if not (section and name and vals):
            raise ConfigError("sweep", f"override {clause!r} needs section.key=v1,v2,...")
        if key in out:
            raise ConfigError("sweep", f"override key {key!r} is given twice")
        out[key] = [v.strip() for v in vals.split(",")]
    return out


def _write_member(base, assignments: dict, path: str) -> tuple:
    """Write a copy of the base config with the assignments to path; returns
    every section but the [check:*] ones, as the key of what it evolves."""
    cp = copy.deepcopy(base)
    for key, value in assignments.items():
        section, _, name = key.rpartition(".")
        cp.read_dict({section: {name: value}})
    with open(path, "w") as fh:
        cp.write(fh)
    return tuple((name, tuple(cp.items(name))) for name in cp.sections()
                 if not name.startswith("check:"))


def cmd_run(args) -> int:
    return run_experiment(load_config(args.config), args.out, assert_checks=not args.report_only)


def cmd_sweep(args) -> int:
    """Run every member of the override grid.  Members whose configs differ
    only in their [check:*] sections form a group, which evolves once.  Each
    row is its member's solo-run exit code; nothing is written before the
    overrides and the base config are read."""
    overrides = _parse_overrides(args.grid)
    base = read_config(args.config)
    keys = sorted(overrides)
    members = []
    for combo in itertools.product(*(overrides[k] for k in keys)):
        label = "_".join(f"{k.split('.')[-1]}={v}" for k, v in zip(keys, combo))
        sub = os.path.join(args.out, label)
        os.makedirs(sub, exist_ok=True)
        tmp = os.path.join(sub, "config.cfg")
        members.append((label, sub, tmp, _write_member(base, dict(zip(keys, combo)), tmp)))
    # each group's evolution (or its SolverError), kept until its last member
    left = collections.Counter(group for *_, group in members)
    evolved = {}
    rows = []
    for label, sub, tmp, group in members:
        left[group] -= 1
        try:
            cfg = load_config(tmp)
            if group not in evolved:
                try:
                    evolved[group] = evolve(cfg.flow, cfg.u0, cfg.bc, cfg.plan, cfg.output_times)
                except SolverError as e:
                    evolved[group] = e
            traj = evolved[group]
            if isinstance(traj, SolverError):
                raise traj
            code = run_experiment(cfg, sub, assert_checks=not args.report_only, traj=traj)
        except (ConfigError, SolverError) as e:
            code = _error_code(e, f"{label}: ")
        finally:
            if not left[group]:
                evolved.pop(group, None)
        rows.append((label, code))
        _emit(f"{label}: exit={code}")
    with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
        fh.write("label,exit_code\n" + "".join(f"{label},{code}\n" for label, code in rows))
    return max(code for _, code in rows)


def cmd_certify(args) -> int:
    # the samples reach |p| = s_max, where no power of |p| that a jet takes,
    # up to the 9th, may overflow: (max float)^(1/9) = 1.8e34, and a norm
    # parameter is bounded by the same SCALE_MAX.  A flow's profile is
    # sampled on [P, s_max], and every catalog P is 1
    if not 1.0 < args.s_max <= finsler.SCALE_MAX:  # NaN fails too
        raise ConfigError("--s-max", f"{args.s_max!r} must lie in (1, {finsler.SCALE_MAX:g}]")
    if args.id == "norms":  # every norm that `flowlab list` prints
        return max([_certify(nf.id, args) for nf in finsler.builtin_norms(2)])
    return _certify(args.id, args)


def _certify(target: str, args) -> int:
    """Certify one flow or norm id into --out, which is made once the id
    resolves: an id that does not (exit 2) writes nothing."""
    path = os.path.join(args.out, f"certificate-{target.replace(':', '_')}.json")

    family, colon, spec = target.partition(":")
    try:
        # an id that is no flow id is a norm id; a flow with no profile, an
        # aniso:<norm-id> one, certifies its norm in the flow's dimension
        flow = flows.get_flow(target) if family + colon in flows.FLOW_PARAMS else None
        nf = (finsler.norm_by_id(target) if flow is None
              else None if flow.degeneracy is not None
              else finsler.norm_by_id(spec, dim=flow.n + 1))
    except KeyError as e:  # the message, not its repr
        print(f"unknown certify id {target!r}: {e.args[0]}", file=sys.stderr)
        return 2
    except ValueError as e:  # a norm that cannot be built, a parameter not a number
        print(f"cannot build {target!r}: {e}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    if nf is None:
        profile = flow.degeneracy
        rep = flows.check_degeneracy(profile, np.geomspace(profile.P, args.s_max, 400))
        rep.to_json(path)
        _emit(rep.summary_line())
        return 0 if rep.passed else 1

    try:
        consts = finsler.certify(nf, s_max=args.s_max, path=path)
    except (RuntimeError, ArithmeticError, finsler.NormConstructionError) as e:
        print(f"certification failed for {target!r}: {e}", file=sys.stderr)
        return 1
    _emit(f"certified {consts.norm_id}: A={consts.A:.6g} P={consts.P:.6g} "
          f"k={consts.k:.6g} C1={consts.C1:.6g}", finsler.check_symmetry(nf).summary_line())
    return 0


def _key_text(key: str, spec) -> str:
    _, default, within = spec
    text = key + (" (required)" if default is REQUIRED else " (optional)" if default is None
                  else f" = {default}")
    return text + (f" in {within}" if within else "")


def _describe(node, indent: str, limits: dict) -> tuple[str, list]:
    """A config schema node's own keys as one text, each with its default
    (or "required") and range, and the lines of its variants below it; a
    variant value in ``limits`` is limited to the flows it maps to."""
    if not isinstance(node, Select):
        return ", ".join(_key_text(*item) for item in node.items()) or "no keys", []
    own = [*node.common.items(), (node.key, (str, node.default, ""))]
    lines = []
    for value, sub in node.variants.items():
        text, below = _describe(sub, indent + "  ", {})
        label = value + ("<...>" if value.endswith(":") else "")
        if limits.get(value):
            label += f" (flows: {', '.join(limits[value])})"
        lines += [f"{indent}{label}: {text}", *below]
    return ", ".join(_key_text(*item) for item in own) + f"; by {node.key}:", lines


def cmd_list(args) -> int:
    lines = ["flows:", *(f"  {fid}" for fid in flows.catalog_ids()),
             "norms:", *(f"  {nf.id}" for nf in finsler.builtin_norms(2)), "config sections:"]
    limits = {name: kind.flows for name, kind in CHECK_TYPES.items()}
    for section, node in SCHEMA.items():
        text, below = _describe(node, "    ", limits if section == "check:" else {})
        lines += [f"  [{section}{'<name>' if section.endswith(':') else ''}] {text}", *below]
    _emit(*lines)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowlab",
        description="numerical laboratory for parabolic flow estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--report-only", action="store_true",
                       help="never fail the process on check defects")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config over parameter overrides")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", required=True,
                         help='overrides, e.g. "flow.c=0.25,0.5;grid.n_cells=128,256"')
    p_sweep.add_argument("--out", default="sweep-out")
    p_sweep.add_argument("--report-only", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="structural certificate for a flow or norm")
    p_cert.add_argument("id", help="flow id (heat, csf, ...; aniso:<norm-id> certifies "
                                   "its norm), norm id (euclid, elliptic:<spec>, "
                                   "quartic:<delta>), or norms for every listed norm")
    p_cert.add_argument("--out", default="out")
    p_cert.add_argument("--s-max", type=float, default=1e3)
    p_cert.set_defaults(func=cmd_certify)

    p_list = sub.add_parser("list", help="show catalog ids and config keys")
    p_list.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    try:
        if "out" in args:
            _check_out(args.out)
        return args.func(args)
    except (ConfigError, SolverError) as e:
        return _error_code(e)


if __name__ == "__main__":
    sys.exit(main())
