"""Command-line front end.

Exit codes: 0 success, 1 a verified property failed, 2 bad input,
3 well-formed input violating an operation's precondition.  Only the commands
that sample or verify (verify, jacobi3 --random) import fnlab.verify.
"""

import argparse
import json
import sys

from .errors import PreconditionError, ValidationError
from .forms import BRACKETS
from .micro import jacobi3_defect, tangent_principal, triangle_from_vector_fields
from .rationals import Q, parse_rational, rat_str
from .serialize import MAX_KERNEL_VARS, form_from_json, form_to_json, \
    obj_from_json, polymap_from_json, to_json
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
    from .verify import SuiteConfig, run_verification
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


def _point_coordinate(text: str):
    """One --point coordinate; bad text is named as typed, on either backend."""
    try:
        return parse_rational(text)
    except ValidationError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad point coordinate {text!r}") from exc


def _jacobi3_cases(args):
    """The record key and the six cubes of each case, built as they are read."""
    if args.point is not None and not args.fields:
        raise ValidationError("--point needs --fields")
    if args.fields:
        maps = [polymap_from_json(_load_json_arg(f)) for f in args.fields]
        dims = {f.in_dim for f in maps} | {f.out_dim for f in maps}
        if len(dims) != 1:
            raise ValidationError(f"vector fields on mismatched dimensions {sorted(dims)}")
        m = dims.pop()
        if args.point is not None:
            at = [_point_coordinate(v) for v in args.point.split(",")] if args.point else []
        else:
            at = [Q(0)] * m
        yield {"at": [rat_str(v) for v in at]}, triangle_from_vector_fields(*maps, at)
        return
    if args.random < 1:
        raise ValidationError("--random must be >= 1")
    from .verify import Sampler
    sampler = Sampler(f"{args.seed}/jacobi3")
    for i in range(args.random):
        m = sampler.rng.randint(1, 2)
        yield {"case": i, "m": m}, sampler.triangle(m)


def cmd_jacobi3(args) -> int:
    # jacobi3_defect refuses six cubes that break a membership condition
    # (exit 3), so a recorded case has no violations
    results = [{**key, "membership_violations": [],
                "defect_principal": [rat_str(v) for v in tangent_principal(jacobi3_defect(t))]}
               for key, t in _jacobi3_cases(args)]
    all_zero = all(v == "0" for r in results for v in r["defect_principal"])
    if args.json:
        print(json.dumps({"cases": results, "all_zero": all_zero},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            tag = r.get("case", "point " + ",".join(r.get("at", [])))
            status = "zero" if all(v == "0" for v in r["defect_principal"]) \
                else "NONZERO " + str(r["defect_principal"])
            print(f"case {tag}: defect {status}; membership ok")
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
                       help="comma-separated rational coordinates (with --fields)")
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
    except ValueError as exc:  # ValidationError among them
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
