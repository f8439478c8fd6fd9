"""What importing pxlab loads and sets: every module it adds to a bare
``import numpy`` costs start-up time and memory in each run, and the
allocator policy it sets keeps freed block temporaries in the process."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

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
    # ctypes comes with numpy; ctypes.util's find_library would start subprocesses
    assert "ctypes.util" not in seen["after"]
    # a solve and a denoise run load none of the test-only or masked-array packages
    assert seen["codes"] == {"solve": 0, "denoise": 0}
    assert not [m for m in seen["after"]
                if _under(m, ("numpy.ma", "scipy", "mpmath", "hypothesis"))]


# 50 rounds of eight 512 KiB arrays, each made and dropped, after one
# warm-up round; prints the minor page faults the 50 rounds take
CHURN = """
import resource
import numpy as np
import pxlab
arrays = [np.ones(65536) for _ in range(8)]
del arrays
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    arrays = [np.ones(65536) for _ in range(8)]
    del arrays
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _churn_faults(**tuning):
    """The faults of CHURN in a child whose only malloc tuning is ``tuning``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    run = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True,
                         env=env | {"PYTHONPATH": SRC} | tuning, timeout=120, check=True)
    return int(run.stdout.split()[-1])


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's")
def test_freed_blocks_stay_in_the_process_unless_the_environment_tunes_malloc():
    # under glibc's defaults every round faults its pages in again: 49 600 in all
    assert _churn_faults() < 1000
    # an explicit setting wins, and pxlab leaves it alone
    assert _churn_faults(MALLOC_TRIM_THRESHOLD_="131072") >= 10_000
