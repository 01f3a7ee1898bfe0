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


def test_jacobi3_fields():
    # the three fields on R^1 that the CI's CLI step flows, x, 1 and x^2
    fields = ['{"in_dim": 1, "components": [[{"c": "1", "e": [%d]}]]}' % e for e in (1, 0, 2)]
    out = run("-m", "fnlab.cli", "jacobi3", "--fields", *fields, "--point", "1/2", "--json")
    assert out == (GOLDEN / "jacobi3_fields.json").read_bytes()


# three fields on R^2 with mixed monomials and constant terms; the flows
# evaluate them at rational Weil points, so each term's last power is
# multiplied straight into the evaluation sum
FIELDS_R2 = [
    '{"in_dim": 2, "components": [[{"c": "1", "e": [1, 2]}, {"c": "1/3", "e": [0, 0]}],'
    ' [{"c": "1", "e": [1, 0]}, {"c": "-2", "e": [0, 1]}]]}',
    '{"in_dim": 2, "components": [[{"c": "1", "e": [0, 2]}, {"c": "-1/2", "e": [0, 0]}],'
    ' [{"c": "1", "e": [1, 1]}, {"c": "3", "e": [0, 0]}]]}',
    '{"in_dim": 2, "components": [[{"c": "2", "e": [2, 1]}],'
    ' [{"c": "2/5", "e": [0, 0]}, {"c": "-1", "e": [1, 1]}]]}',
]


def test_jacobi3_fields_on_r2():
    out = run("-m", "fnlab.cli", "jacobi3", "--fields", *FIELDS_R2, "--point", "1/2,-2/3",
              "--json")
    assert out == (GOLDEN / "jacobi3_fields_r2.json").read_bytes()


@pytest.mark.parametrize("level, pair", [
    ("L1", ""), ("L12", ""), ("FN13", ""), ("FN123", ""), ("FN13", "alt2_")],
    ids=["L1", "L12", "FN13", "FN123", "FN13-alt2"])
def test_bracket_levels(level, pair):
    # bracket_x.json and bracket_y.json are two alternating multilinear
    # (1,1)-forms on R^2, so every level accepts them and none is zero.
    # bracket_alt2_x.json and bracket_alt2_y.json are two alternating
    # (2,1)-forms on R^2, not multilinear: their FN13 bracket has total
    # arity 4 at m = 2, the slowest shape of the bracket tower benchmark.
    out = run("-m", "fnlab.cli", "bracket",
              str(Path("tests") / "golden" / f"bracket_{pair}x.json"),
              str(Path("tests") / "golden" / f"bracket_{pair}y.json"), "--level", level)
    assert out == (GOLDEN / f"bracket_{pair}{level}.json").read_bytes()


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
