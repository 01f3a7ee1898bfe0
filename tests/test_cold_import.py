"""`import fnlab` loads the calculus only: not the verification suites
(fnlab.verify), not dataclasses, which pulls in inspect, ast and dis, and not
typing."""

import json
import subprocess
import sys
from pathlib import Path

import fnlab

SRC = str(Path(fnlab.__file__).resolve().parent.parent)

HEAVY = ("fnlab.verify", "dataclasses", "typing")

# runs with -S, so no site hook loads a module first; the checkout's src is
# passed as the first argument
PROBE = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
loaded = {{}}
import fnlab
loaded["import fnlab"] = [m for m in {HEAVY!r} if m in sys.modules]
from fnlab.cli import main
code = main(["weil", '{{"n": 2}}'])
loaded["fnlab weil"] = [m for m in {HEAVY!r} if m in sys.modules]
print(json.dumps({{"code": code, "loaded": loaded}}))
"""


def test_import_and_weil_load_neither_the_suites_nor_dataclasses():
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, SRC], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    result = json.loads(out.splitlines()[-1])
    assert "dim      4" in out
    assert result == {"code": 0, "loaded": {"import fnlab": [], "fnlab weil": []}}

