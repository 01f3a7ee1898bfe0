import json
import re
from itertools import combinations
from pathlib import Path

import pytest

from fnlab import micro, verify
from fnlab.cli import main
from fnlab.errors import ValidationError
from fnlab.micro import MicroPoint, strong_diff
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import d_cube
from fnlab.verify import (PROPERTIES, Sampler, SuiteConfig,
                          flow_commutator, run_bracket_antisymmetry,
                          run_bracket_graded_antisymmetry, run_bracket_graded_jacobi,
                          run_bracket_jacobi, run_general_jacobi_flows,
                          run_strong_diff_antisymmetry, run_triangle_membership_flows,
                          run_verification, strip_timings)
from fnlab.weil import WeilElement, make_algebra

SMALL = SuiteConfig(cases_per_property=3)


def test_config_validation():
    with pytest.raises(ValidationError):
        SuiteConfig(cases_per_property=0)
    with pytest.raises(ValidationError):
        SuiteConfig(suites=("weil", "nonsense"))
    with pytest.raises(ValidationError):
        SuiteConfig.from_json({"seed": 1, "bogus": 2})
    cfg = SuiteConfig.from_json({"seed": 3, "suites": ["weil"]})
    assert cfg.suites == ("weil",)
    heavy = cfg.heavy()
    assert (heavy.p_max, heavy.q_max, heavy.r_max) == (2, 2, 2)


@pytest.mark.parametrize("field, value, message", [
    ("p_max", -1, "p_max must be >= 0, got -1"),
    ("q_max", -2, "q_max must be >= 0, got -2"),
    ("r_max", -1, "r_max must be >= 0, got -1"),
    ("seed", [1, 2], "seed must be an integer, got [1, 2]"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", True, "seed must be an integer, got True"),
    ("seed", "7", "seed must be an integer, got '7'"),
    ("suites", "weil", "suites must be a list of names, got 'weil'"),
    ("suites", {"weil": 1}, "suites must be a list of names, got {'weil': 1}"),
])
def test_config_names_the_bad_field(field, value, message):
    for build in (lambda: SuiteConfig(**{field: value}),
                  lambda: SuiteConfig.from_json({"suites": ["brackets"], field: value})):
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == message
    # zero caps, any int seed and a list of suite names stay valid
    SuiteConfig(**{field: ["weil"] if field == "suites" else 0})


def test_verify_command_names_a_negative_cap(capsys):
    assert main(["verify", "--config", '{"p_max": -1, "suites": ["brackets"]}']) == 2
    assert "p_max must be >= 0" in capsys.readouterr().err


def test_report_shape_and_pass():
    report = run_verification(SMALL)
    assert report["schema"] == "fnlab-report/1"
    assert report["passed"] is True
    names = {p["name"] for p in report["properties"]}
    assert {"strong_diff_antisymmetry", "bracket_jacobi", "conv_shuffle",
            "general_jacobi_random"} <= names
    for entry in report["properties"]:
        assert (entry["failed_cases"] == 0) == (entry["failures"] == [])
        assert entry["cases"] >= 1


def test_suite_subset_filters_properties():
    cfg = SuiteConfig(cases_per_property=2, suites=("weil",))
    report = run_verification(cfg)
    assert {p["suite"] for p in report["properties"]} == {"weil"}


def test_determinism_across_runs():
    a = run_verification(SMALL)
    b = run_verification(SMALL)
    assert json.dumps(strip_timings(a), sort_keys=True) == \
        json.dumps(strip_timings(b), sort_keys=True)


def test_seed_changes_cases_not_outcomes():
    a = run_verification(SuiteConfig(seed=1, cases_per_property=2, suites=("microcalc",)))
    b = run_verification(SuiteConfig(seed=2, cases_per_property=2, suites=("microcalc",)))
    assert a["passed"] and b["passed"]
    assert a["config"]["seed"] != b["config"]["seed"]


def test_multiple_seeds_all_pass():
    for seed in range(10):
        cfg = SuiteConfig(seed=seed, cases_per_property=2)
        assert run_verification(cfg)["passed"], seed


def test_heavy_bracket_suite_passes():
    """At arity 2 a block shuffle is more than a single transposition."""
    cfg = SuiteConfig(cases_per_property=2, suites=("brackets",)).heavy()
    report = run_verification(cfg)
    assert report["passed"] is True
    assert sum(p["cases"] for p in report["properties"]) == 208


def test_mutation_hook_catches_sign_flip(monkeypatch):
    """A corrupted strong difference must trip the antisymmetry suite."""

    def corrupted(g1, g2):
        honest = strong_diff(g1, g2)
        flipped = [a + b for a, b in zip(g1.coeff((1, 2)), g2.coeff((1, 2)))]
        return MicroPoint.from_table(d_cube(1), g1.m, {
            (): list(honest.base()), (1,): flipped})

    monkeypatch.setattr(verify, "strong_diff", corrupted)
    run = run_strong_diff_antisymmetry(Sampler("0/strong_diff_antisymmetry"), SMALL)
    assert run.failed > 0
    assert run.witnesses and "g1" in run.witnesses[0]


def test_flow_suites_record_a_membership_violation(monkeypatch):
    """A flow cube off the membership conditions fails both flow suites."""
    honest = micro._flow_point

    def broken(fields, order, point, alg):
        coords = honest(fields, order, point, alg)
        if order != (1, 2, 3):
            return coords
        d12 = alg.generator(1) * alg.generator(2)
        return [c + d12 for c in coords]

    monkeypatch.setattr(micro, "_flow_point", broken)
    for suite in (run_triangle_membership_flows, run_general_jacobi_flows):
        run = suite(Sampler(f"0/{suite.__name__}"), SMALL)
        assert run.failed > 0, suite.__name__
        witness = run.witnesses[0]
        assert "cubes 123 and 132 disagree" in witness["message"], suite.__name__
        assert {"fields", "at"} <= set(witness), suite.__name__


@pytest.mark.parametrize("swap, runners", [
    ("_shuffle_swap", (run_bracket_antisymmetry, run_bracket_jacobi)),
    ("_graded_swap", (run_bracket_graded_antisymmetry, run_bracket_graded_jacobi)),
])
def test_bracket_suites_need_their_alignment(monkeypatch, swap, runners):
    """Without the block shuffle, or without the graded sign, the sums of the
    ungraded and graded identities no longer vanish."""
    cfg = SuiteConfig(cases_per_property=2)
    for mutated in (False, True):
        if mutated:
            monkeypatch.setattr(verify, swap, lambda t, a, b: t)
        for runner in runners:
            run = runner(Sampler(f"0/{runner.__name__}"), cfg)
            assert (run.failed > 0) == mutated, (swap, runner.__name__, mutated)


def square_loop_corner(x, y):
    """The corner of the flow loop -x, -y, +x, +y with square-zero t and s."""
    m = x.in_dim
    alg = make_algebra(d_cube(2))
    one = WeilElement(alg, {0: Poly.one(m)})
    t = WeilElement(alg, {alg.index[(1, 0)]: Poly.one(m)})
    s = WeilElement(alg, {alg.index[(0, 1)]: Poly.one(m)})
    coords = [WeilElement(alg, {0: Poly.var(m, j)}) for j in range(m)]
    for gen, fld, sign in ((t, x, -1), (s, y, -1), (t, x, 1), (s, y, 1)):
        vals = fld.eval(coords, one)
        coords = [c + (gen * v).scale(Q(sign)) for c, v in zip(coords, vals)]
    corner = alg.index[(1, 1)]
    return PolyMap(m, [c.coeffs.get(corner, Poly.zero(m)) for c in coords])


def test_flow_commutator_is_the_square_loop_corner():
    s = Sampler("flow_commutator")
    for m in (1, 2, 3):
        for _ in range(5):
            x, y = s.vector_field(m, 3), s.vector_field(m, 3)
            assert flow_commutator(x, y) == square_loop_corner(x, y)


def test_flow_commutator_oracle_values():
    x = PolyMap(1, [Poly.var(1, 0)])
    y = PolyMap(1, [Poly.one(1)])
    # classical [x d/dx, d/dx] = -d/dx
    assert flow_commutator(x, y) == PolyMap(1, [Poly.const(1, Q(-1))])


def test_property_names_unique():
    names = [p.name for p in PROPERTIES]
    assert len(names) == len(set(names))


GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "verify_seed7.json"


def test_properties_are_declared_as_in_the_golden_report():
    """Each property's name, suite and statement, in the report's order.

    The golden report is not strict JSON once its "time_s" lines are
    dropped, so the three keys of each property entry are read line by line.
    """
    key_line = re.compile(r'^ {6}"(name|statement|suite)": ("(?:[^"\\]|\\.)*"),?$')
    golden, entry = [], {}
    for line in GOLDEN_REPORT.read_text().splitlines():
        match = key_line.match(line)
        if match:
            entry[match[1]] = json.loads(match[2])
            if len(entry) == 3:
                golden.append((entry["name"], entry["suite"], entry["statement"]))
                entry = {}
    assert [(p.name, p.suite, p.statement) for p in PROPERTIES] == golden


def _break_a_slot(monkeypatch):
    """Make Sampler.triangle shift the d1*d2 slot of cube 123 by one, so the
    six-tuple breaks its membership conditions."""
    honest = verify.Sampler.triangle
    keys = [c for k in range(4) for c in combinations((1, 2, 3), k)]

    def broken(self, m):
        cubes = dict(honest(self, m).cubes)
        table = {key: list(cubes["123"].coeff(key)) for key in keys}
        table[(1, 2)] = [c + 1 for c in table[(1, 2)]]
        cubes["123"] = MicroPoint.from_table(d_cube(3), m, table)
        return micro.TriangleConfig(cubes)

    monkeypatch.setattr(verify.Sampler, "triangle", broken)


def test_random_jacobi_suite_records_a_membership_violation(monkeypatch):
    _break_a_slot(monkeypatch)
    run = verify.run_general_jacobi_random(Sampler("0/general_jacobi_random"), SMALL)
    assert run.cases == run.failed == SMALL.cases_per_property
    witness = run.witnesses[0]
    assert witness["message"] == ("constraint solving left a violation: "
                                  "cubes 123 and 132 disagree after killing d2*d3")
    assert set(witness) == {"message", "cubes"}


def test_verify_command_prints_the_witness_and_fails(monkeypatch, capsys):
    _break_a_slot(monkeypatch)
    assert main(["verify", "--suites", "jacobi", "--cases", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    witnesses = [line.split("witness: ", 1)[1] for line in lines if "  witness: " in line]
    assert len(witnesses) == 1
    assert json.loads(witnesses[0])["message"].startswith("constraint solving left a violation")
    assert lines[-1] == "result: FAIL"
