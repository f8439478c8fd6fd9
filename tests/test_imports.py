"""What importing and running the command line loads: every module it adds
to a bare ``import numpy`` costs start-up time and memory in each run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pxlab

SRC = str(Path(pxlab.__file__).resolve().parents[1])

# run in a fresh interpreter: the test process has imported pytest and more
PROBE = """
import json, sys
import numpy
before = set(sys.modules)
import pxlab.cli
added = sorted(set(sys.modules) - before)
out = sys.argv[1]
configs = {
    "solve": {"grid": {"dim": 2, "n": 16}, "operator": {"kind": "image"},
              "source": {"kind": "fidelity", "g": "synthetic"}},
    "denoise": {"denoise": {"n": 16}},
}
codes = {}
for command, cfg in configs.items():
    path = f"{out}/{command}.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    codes[command] = pxlab.cli.main([command, "--config", path, "--output", f"{out}/{command}"])
print(json.dumps({"added": added, "codes": codes, "after": sorted(sys.modules)}))
"""


def _probe(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def _under(name, packages):
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_the_command_line_loads_only_numpy_pxlab_and_the_standard_library(tmp_path):
    seen = _probe(tmp_path)
    added = seen["added"]
    assert "pxlab.cli" in added
    assert not [m for m in added
                if _under(m, ("numpy.fft", "numpy.random", "numpy.ma", "numpy.polynomial"))]
    foreign = [m for m in added if m.split(".")[0] not in sys.stdlib_module_names
               and not _under(m, ("numpy", "pxlab"))]
    assert not foreign
    # a solve and a denoise run load none of the test-only or masked-array packages
    assert seen["codes"] == {"solve": 0, "denoise": 0}
    assert not [m for m in seen["after"]
                if _under(m, ("numpy.ma", "scipy", "mpmath", "hypothesis"))]
