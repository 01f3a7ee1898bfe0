"""Byte-for-byte golden outputs of the CLI and the demos.

Every exact result must survive a change of the arithmetic underneath it, so
these outputs are compared with files recorded from an earlier tree.  Each
runs in a fresh interpreter, as a user would run it, from the source in src/.
The slower `fnlab verify --seed 7 --json` golden (tests/golden/
verify_seed7.json, its "time_s" lines dropped) is compared in CI instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run(*args) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, check=True).stdout


def test_jacobi3_random():
    out = run("-m", "fnlab.cli", "jacobi3", "--random", "20", "--seed", "3", "--json")
    assert out == (GOLDEN / "jacobi3_random20_seed3.json").read_bytes()


@pytest.mark.parametrize("level", ["L1", "L12", "FN13", "FN123"])
def test_bracket_levels(level):
    # bracket_x.json and bracket_y.json are two alternating multilinear
    # (1,1)-forms on R^2, so every level accepts them and none is zero
    out = run("-m", "fnlab.cli", "bracket", str(Path("tests") / "golden" / "bracket_x.json"),
              str(Path("tests") / "golden" / "bracket_y.json"), "--level", level)
    assert out == (GOLDEN / f"bracket_{level}.json").read_bytes()


@pytest.mark.parametrize("demo", ["bracket_tower", "strong_differences", "weil_algebras"])
def test_demo(demo):
    out = run(str(Path("demos") / f"{demo}.py"))
    assert out == (GOLDEN / f"demo_{demo}.txt").read_bytes()


def test_goldens_hold_no_backend_reprs():
    # The scalar type is mpq or Fraction depending on what is installed; both
    # print the same str, but their reprs differ, so no golden may hold one.
    for path in GOLDEN.iterdir():
        text = path.read_text()
        assert "Fraction(" not in text and "mpq(" not in text, path.name
