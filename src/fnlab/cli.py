"""Command-line front end.

Exit codes: 0 success, 1 a verified property failed, 2 bad input,
3 well-formed input violating an operation's precondition.
"""

import argparse
import json
import sys

from .errors import PreconditionError, ValidationError
from .forms import BRACKETS
from .micro import jacobi3_defect, tangent_principal, triangle_from_vector_fields
from .rationals import Q, rat_str
from .serialize import MAX_KERNEL_VARS, form_from_json, form_to_json, \
    obj_from_json, polymap_from_json, to_json
from .verify import Sampler, SuiteConfig, run_verification
from .weil import make_algebra

def _load_json_arg(text: str):
    """Parse inline JSON, or read from a file path / @path."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        raw = stripped
    else:
        path = stripped[1:] if stripped.startswith("@") else stripped
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ValidationError(f"invalid JSON: {exc}") from exc


def cmd_weil(args) -> int:
    obj = obj_from_json(_load_json_arg(args.object))
    alg = make_algebra(obj)
    if args.json:
        print(json.dumps({"object": to_json(obj), "dim": alg.dim,
                          "basis": [list(e) for e in alg.basis],
                          "monomials": [alg.monomial_str(i) for i in range(alg.dim)]},
                         indent=2, sort_keys=True))
    else:
        print(f"object   {obj!r}")
        print(f"dim      {alg.dim}")
        print("basis    " + ", ".join(alg.monomial_str(i) for i in range(alg.dim)))
    return 0


def cmd_bracket(args) -> int:
    x = form_from_json(_load_json_arg(args.form1))
    y = form_from_json(_load_json_arg(args.form2))
    if x.m != y.m:
        raise ValidationError(f"model dimensions differ: {x.m} vs {y.m}")
    if x.k != 1 or y.k != 1:
        raise ValidationError("bracket inputs must have expansion arity 1")
    # the bracket is a form of arity p + q, bounded as a decoded form is
    if max(x.m, 1) << (x.p + y.p) > MAX_KERNEL_VARS:
        raise ValidationError(f"bracket of arities {x.p} and {y.p} on R^{x.m} is too "
                              f"large: max(m, 1)*2^(p+q) exceeds {MAX_KERNEL_VARS}")
    out = BRACKETS[args.level](x, y)
    print(json.dumps(form_to_json(out), indent=None, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    if args.config:
        cfg = SuiteConfig.from_json(_load_json_arg(args.config))
    else:
        cfg = SuiteConfig()
    if args.seed is not None:
        cfg = SuiteConfig.from_json({**cfg.to_json(), "seed": args.seed})
    if args.suites:
        cfg = SuiteConfig.from_json({**cfg.to_json(),
                                     "suites": args.suites.split(",")})
    if args.cases is not None:
        cfg = SuiteConfig.from_json({**cfg.to_json(),
                                     "cases_per_property": args.cases})
    if args.heavy:
        cfg = cfg.heavy()
    report = run_verification(cfg)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        width = max(len(p["name"]) for p in report["properties"])
        for entry in report["properties"]:
            mark = "PASS" if entry["failed_cases"] == 0 else "FAIL"
            print(f"{entry['name']:<{width}}  {mark}  "
                  f"{entry['cases']:>5} cases  {entry['time_s']:8.3f}s  "
                  f"[{entry['suite']}] {entry['statement']}")
            for witness in entry["failures"]:
                print(f"{'':<{width}}  witness: {json.dumps(witness, sort_keys=True)}")
        print("result: " + ("PASS" if report["passed"] else "FAIL"))
    return 0 if report["passed"] else 1


def cmd_jacobi3(args) -> int:
    results = []
    if args.fields:
        maps = [polymap_from_json(_load_json_arg(f)) for f in args.fields]
        dims = {f.in_dim for f in maps} | {f.out_dim for f in maps}
        if len(dims) != 1:
            raise ValidationError(f"vector fields on mismatched dimensions {sorted(dims)}")
        m = dims.pop()
        if args.point:
            try:
                at = [Q(v) for v in args.point.split(",")]
            except ZeroDivisionError as exc:
                raise ValidationError(f"bad point coordinate: {exc}") from exc
            if len(at) != m:
                raise ValidationError(f"point needs {m} coordinates")
        else:
            at = [Q(0)] * m
        t = triangle_from_vector_fields(*maps, at)
        bad = t.violations()
        defect = jacobi3_defect(t)
        results.append({"at": [rat_str(v) for v in at],
                        "membership_violations": bad,
                        "defect_principal": [rat_str(v) for v in tangent_principal(defect)]})
    else:
        sampler = Sampler(f"{args.seed}/jacobi3")
        for i in range(args.random):
            m = sampler.rng.randint(1, 2)
            t = sampler.triangle(m)
            bad = t.violations()
            defect = jacobi3_defect(t)
            results.append({"case": i, "m": m,
                            "membership_violations": bad,
                            "defect_principal": [rat_str(v) for v in tangent_principal(defect)]})
    all_zero = all(not any(v != "0" for v in r["defect_principal"])
                   and not r["membership_violations"] for r in results)
    if args.json:
        print(json.dumps({"cases": results, "all_zero": all_zero},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            tag = r.get("case", "point " + ",".join(r.get("at", [])))
            status = "zero" if not any(v != "0" for v in r["defect_principal"]) \
                else "NONZERO " + str(r["defect_principal"])
            print(f"case {tag}: defect {status}; "
                  f"membership {'ok' if not r['membership_violations'] else r['membership_violations']}")
        print("result: " + ("PASS" if all_zero else "FAIL"))
    return 0 if all_zero else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnlab",
        description="Exact nilpotent-jet calculus: algebras, strong differences "
                    "and the bracket tower on tangent-valued forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_weil = sub.add_parser("weil", help="basis and dimension of an algebra")
    p_weil.add_argument("object", help="simplicial object JSON or a file path")
    p_weil.add_argument("--json", action="store_true")
    p_weil.set_defaults(func=cmd_weil)

    p_br = sub.add_parser("bracket", help="bracket two serialized forms")
    p_br.add_argument("form1")
    p_br.add_argument("form2")
    p_br.add_argument("--level", choices=sorted(BRACKETS), default="L1")
    p_br.set_defaults(func=cmd_bracket)

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--config", default=None, help="SuiteConfig JSON or file")
    p_ver.add_argument("--suites", default=None, help="comma-separated subset")
    p_ver.add_argument("--cases", type=int, default=None)
    p_ver.add_argument("--heavy", action="store_true",
                       help="raise arity caps from 1 to 2")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_jac = sub.add_parser("jacobi3", help="threefold-difference defect of cube six-tuples")
    group = p_jac.add_mutually_exclusive_group(required=True)
    group.add_argument("--fields", nargs=3, metavar=("X", "Y", "Z"),
                       help="three vector-field JSON files")
    group.add_argument("--random", type=int, help="number of random six-tuples")
    p_jac.add_argument("--point", default=None,
                       help="comma-separated rational coordinates")
    p_jac.add_argument("--seed", type=int, default=0)
    p_jac.add_argument("--json", action="store_true")
    p_jac.set_defaults(func=cmd_jacobi3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
