"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the deterministic outputs (and
say so in the change): the benchmark's correctness gates compare against
this file.  Seed-dependent operations are gated by properties and have no
entry here.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for name, wl in workloads.all_workloads(ROOT).items():
            if name == "ensemble":
                continue
            state = wl.setup(0, work)
            observed, _ = wl.observe(state, wl.run_pass(state))
            if name == "aniso":
                observed = {"certify": observed["certify"],
                            "evolve": {"n_steps": observed["evolve"]["n_steps"]}}
            elif name == "replay":
                observed = {op: v for op, v in observed.items() if not op.startswith("alpha-")}
            reference[name] = observed
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
