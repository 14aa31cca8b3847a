"""Importing flowlab loads no scipy: scipy.optimize and scipy.special are
imported by the functions that call them, on first call.  The norms of
``finsler`` import no flows: ``flows`` builds flows from norms, not the
other way round.

Each check runs in a fresh interpreter, since this test process has
already imported scipy through the other test modules.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")


def _run(code, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(tmp_path):
    out = _run(
        "import importlib, pkgutil, sys\n"
        "import flowlab, flowlab.cli\n"
        "names = [m.name for m in pkgutil.iter_modules(flowlab.__path__, 'flowlab.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))\n",
        str(tmp_path))
    n_modules, loaded = out.splitlines()
    assert int(n_modules) >= 10
    assert loaded == "[]"


def test_cli_commands_never_import_scipy_optimize(tmp_path):
    cren = os.path.join(CONFIG_DIR, "csf-crenellated.cfg")
    out = _run(
        "import sys\n"
        "from flowlab import cli\n"
        f"codes = [cli.main(['run', {cren!r}, '--out', 'cren']),\n"
        "         cli.main(['list']),\n"
        "         cli.main(['certify', 'quartic:0.001', '--out', 'cert'])]\n"
        "print(codes, 'scipy.optimize' in sys.modules)\n",
        str(tmp_path))
    assert out.splitlines()[-1] == "[0, 0, 0] False"


def test_finsler_imports_no_flows(tmp_path):
    out = _run("import sys\nimport flowlab.finsler\nprint('flowlab.flows' in sys.modules)\n",
               str(tmp_path))
    assert out.splitlines()[-1] == "False"
