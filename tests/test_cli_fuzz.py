"""Bad input never ends in a traceback: a hypothesis fuzz of `flowlab run`,
`sweep` and `certify`, run in-process through ``cli.main``.

Each example takes a bundled config, shrunk to 32 cells so that any evolve
it starts stays small, changes its values and its structure (a key set to a
bad value, dropped or given twice, a section dropped or added), and runs one
command on it: `run`, `sweep` with a drawn ``--grid`` (well-formed or not,
every override of n_cells small) or `certify` with a drawn id and
``--s-max``.  It asserts that the command exits 0, 1 or 2 and raises
nothing, and that a config error, an exit 2 that printed no member row,
writes nothing.  The budget is EXAMPLES examples, drawn deterministically.
"""

import configparser
import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIGS = [os.path.join(CONFIG_DIR, name) for name in ("heat-step.cfg", "csf-crenellated.cfg")]
EXAMPLES = 300

# the bad values of ROADMAP item 20's scratch fuzz, and a few good ones
VALUES = ["", "nan", "inf", "-inf", "-1", "0", "1e308", "abc", "1 2", "1e-320", "0x10",
          "2.5", "0.5", "1", "3", "1e-3", "periodic", "bounded", "G", "full"]
SECTIONS = ["extra", "check:extra", "flow", "grid", "check:zero-counting"]
KEYS = ["foo", "type", "id", "kind", "n_cells", "M"]
CLAUSES = ["grid.n_cells=16,32", "plan.t_end=nan,0.05", "flow.c=0.25,abc",
           "check:zero-counting.rel_tol=0.05,-1", "check:double-coordinate.c=0.25,inf",
           "nosuch.key=1", "grid.n_cells", "=1", "grid.x_lo=", "grid.n_cells=16"]
# norm parameters near the largest float are refused before they can
# overflow while the norm is built or certified; one near the smallest
# fails its certificate
CERTIFY_IDS = ["euclid", "quartic:0.001", "quartic:nan", "quartic:", "quartic:1e20",
               "quartic:1e308", "quartic:-1e308", "elliptic:1,1e308", "elliptic:1,1e-300",
               "elliptic:1,2", "elliptic:1,-1", "elliptic:abc", "elliptic:1,2;3",
               "octagon", "heat", "csf:foo", "plaplace-reg", "aniso:quartic:0.5",
               "aniso:octagon", ""]
S_MAX = [[], ["--s-max", "1e3"], ["--s-max", "2"], ["--s-max", "0"], ["--s-max", "-1"],
         ["--s-max", "nan"], ["--s-max", "inf"], ["--s-max", "1e308"], ["--s-max", "abc"]]


def _sections(path):
    """The bundled config as [section, [[key, value], ...]], on 32 cells."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read(path)
    sections = [[name, [list(item) for item in cp.items(name)]] for name in cp.sections()]
    for name, items in sections:
        for item in items:
            if (name, item[0]) == ("grid", "n_cells"):
                item[1] = "32"
    return sections


BASES = [_sections(path) for path in CONFIGS]

index = st.integers(min_value=0, max_value=99)
edit = st.one_of(
    st.tuples(st.just("set"), index, index, st.sampled_from(VALUES)),
    st.tuples(st.just("drop key"), index, index),
    st.tuples(st.just("drop section"), index),
    st.tuples(st.just("add section"), st.sampled_from(SECTIONS)),
    st.tuples(st.just("add key"), index, st.sampled_from(KEYS), st.sampled_from(VALUES)),
    # a key given twice: the key of the section's item, with a drawn value
    st.tuples(st.just("repeat key"), index, index, st.sampled_from(VALUES)),
)
command = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([[], ["--report-only"]])),
    st.tuples(st.just("sweep"), st.lists(st.sampled_from(CLAUSES), min_size=1, max_size=2)),
    st.tuples(st.just("certify"), st.sampled_from(CERTIFY_IDS), st.sampled_from(S_MAX)),
)


def _edited(sections, edits):
    """The config text of sections after the edits, in order; indices wrap."""
    sections = [[name, [list(item) for item in items]] for name, items in sections]
    for kind, *args in edits:
        if kind == "add section":
            sections.append([args[0], []])
            continue
        if not sections:
            continue
        name, items = sections[args[0] % len(sections)]
        if kind == "drop section":
            sections.remove([name, items])
        elif kind == "add key":
            items.append([args[1], args[2]])
        elif items:
            item = items[args[1] % len(items)]
            if kind == "set":
                item[1] = args[2]
            elif kind == "drop key":
                items.remove(item)
            else:
                items.append([item[0], args[2]])
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items) + "\n"
                   for name, items in sections)


def _argv(cmd, config):
    if cmd[0] == "run":
        return ["run", config, *cmd[1]]
    if cmd[0] == "sweep":
        return ["sweep", config, "--grid", ";".join(cmd[1])]
    return ["certify", cmd[1], *cmd[2]]


@given(st.sampled_from(range(len(BASES))), st.lists(edit, min_size=0, max_size=3), command)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
def test_bad_input_never_ends_in_a_traceback(base, edits, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "exp.cfg")
        with open(config, "w") as fh:
            fh.write(_edited(BASES[base], edits))
        out = os.path.join(tmp, "out")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*_argv(cmd, config), "--out", out])
            except SystemExit as e:  # argparse's usage errors
                code = e.code
        assert code in (0, 1, 2), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == 2 and not stdout.getvalue():
            assert not os.path.exists(out), stderr.getvalue()
