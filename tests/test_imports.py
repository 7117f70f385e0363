"""The import graph of a fresh interpreter.

Every CLI command starts a new interpreter, so what ``import robustcp``
pulls in is paid on every call.  ``scipy.stats`` alone costs 0.5-0.8 s
and about half of the start-up memory, and only two laws need it: the
bit-flip region masses (``build_region_table``) and the coverage Beta
law (``CoverageBeta.cdf``).  Both import it when first called, and these
checks keep anyone from hoisting it back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter and prints, after each step, whether
# ``scipy.stats`` has been imported.
_SCRIPT = r"""
import json, sys
from pathlib import Path

def loaded():
    return "scipy.stats" in sys.modules

seen = {}
import robustcp
seen["import robustcp"] = loaded()
import robustcp.cli
seen["import robustcp.cli"] = loaded()

from robustcp import formats
from robustcp.smoothing import substream

work = Path(sys.argv[1])
rng = substream(7, "import-graph")
formats.write_score_tensor(work / "cal.bin", rng.uniform(0, 1, (12, 3, 16)))
formats.write_labels_csv(work / "cal-labels.csv", rng.integers(0, 3, 12))
formats.write_score_tensor(work / "test.bin", rng.uniform(0, 1, (4, 3, 16)))
code = robustcp.cli.main([
    "calibrate", "--scores", str(work / "cal.bin"), "--labels", str(work / "cal-labels.csv"),
    "--out", str(work / "calib"), "--set", "sigma=0.25", "--set", "radius=0.125",
])
seen["gaussian calibrate"] = (code, loaded())
code = robustcp.cli.main([
    "predict", "--artifact", str(work / "calib" / "calibration.json"),
    "--scores", str(work / "test.bin"), "--out", str(work / "pred"),
])
seen["gaussian predict"] = (code, loaded())

from robustcp.bounds import build_region_table
build_region_table(1, 1, 0.1, 0.1)
seen["build_region_table"] = loaded()
print(json.dumps(seen))
"""


def test_scipy_stats_loads_only_when_a_law_needs_it(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    assert seen == {
        "import robustcp": False,
        "import robustcp.cli": False,
        "gaussian calibrate": [0, False],
        "gaussian predict": [0, False],
        "build_region_table": True,
    }
