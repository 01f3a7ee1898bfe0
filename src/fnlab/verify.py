"""Seeded property suites over every identity the library implements.

Each property draws its own deterministic RNG from (seed, property name), so
reports are reproducible case by case and suites can run independently.
Failures carry serialized counterexamples.  Scales (model dimension, arities,
degree, case counts) come from SuiteConfig; the defaults keep a full run in
the tens of seconds.

Each property is declared once, by `@_property(suite, statement)` on its
runner `run_<name>`: the decorator names the property after the function,
appends it to PROPERTIES in definition order (the report's order), and
wraps the body, which only fills the `_Run` it is handed, so that
`run_<name>(sampler, cfg)` returns that `_Run`.

The brackets suite states antisymmetry and the Jacobi identity once for all
four brackets.  Each term is aligned with the first by a swap: the block
shuffle of its arities for the ungraded L1 and L12, the sign (-1)^(ab) of the
same shuffle for the graded FN13 and FN123.  On vector fields the brackets
are checked against the classical commutator X.grad(Y) - Y.grad(X).
"""

import random
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import wraps
from itertools import combinations, product as iter_product

from .errors import ValidationError
from .forms import (OMEGA12, OMEGA13, OMEGA123, FormElem, Kernel, Permutation,
                    antisymmetrize, bracket_fn13, bracket_fn123, bracket_l1,
                    bracket_l12, conv_over, conv_under, cube_dim, cube_var,
                    form_from_kernel, is_omega12, is_omega13, is_omega123,
                    perm_act, perm_kernel, pi_kernel, prod_over, prod_under,
                    shuffle_sigma, vector_field_form)
from .linsolve import ReducedMatrix, solve_exact
from .micro import (MicroPoint, TRIANGLE_LABELS, amalgamate, get_case,
                    jacobi3_defect, restrict, strong_diff, tangent_principal,
                    triangle_from_slots, triangle_from_vector_fields)
from .morphisms import InfMorphism
from .poly import Poly, PolyMap
from .rationals import Q
from .serialize import to_json
from .simplicial import SimplicialObject, d_cube, d_order, d_paren, oplus
from .weil import from_dense, make_algebra

SUITES = ("weil", "microcalc", "jacobi", "conv", "prod", "brackets")

REPORT_SCHEMA = "fnlab-report/1"


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    m_max: int = 2
    p_max: int = 1
    q_max: int = 1
    r_max: int = 1
    deg_max: int = 2
    cases_per_property: int = 25
    suites: tuple = SUITES

    def __post_init__(self):
        for name in ("seed", "m_max", "p_max", "q_max", "r_max", "deg_max",
                     "cases_per_property"):
            if type(getattr(self, name)) is not int:
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("p_max", "q_max", "r_max"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.cases_per_property < 1:
            raise ValidationError("cases_per_property must be >= 1")
        if self.m_max < 1 or self.deg_max < 0:
            raise ValidationError("bad scale limits")
        bad = ValidationError(f"suites must be a list of names, got {self.suites!r}")
        if isinstance(self.suites, (str, dict)):  # iterable, but not a list of names
            raise bad
        try:
            suites = tuple(self.suites)
            unknown = set(suites) - set(SUITES)
        except TypeError as exc:
            raise bad from exc
        if unknown:
            raise ValidationError(f"unknown suites: {sorted(unknown, key=str)}")
        object.__setattr__(self, "suites", suites)

    def heavy(self) -> "SuiteConfig":
        return replace(self, p_max=2, q_max=2, r_max=2)

    def to_json(self) -> dict:
        data = asdict(self)
        data["suites"] = list(self.suites)
        return data

    @staticmethod
    def from_json(data: dict) -> "SuiteConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(SuiteConfig)}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return SuiteConfig(**data)


class Sampler:
    """Deterministic generator of small exact-rational objects."""

    def __init__(self, seed):
        self.rng = random.Random(str(seed))

    def rational(self) -> Q:
        return Q(self.rng.randint(-9, 9), self.rng.choice((1, 2, 3)))

    def vector(self, m: int):
        return [self.rational() for _ in range(m)]

    def poly(self, n: int, deg: int) -> Poly:
        pairs = []
        for _ in range(2):
            e = [0] * n
            for _ in range(self.rng.randint(0, deg)):
                e[self.rng.randrange(n)] += 1
            pairs.append((self.rational(), tuple(e)))
        return Poly.from_terms(n, pairs)

    def polymap(self, in_dim: int, out_dim: int, deg: int) -> PolyMap:
        return PolyMap(in_dim, [self.poly(in_dim, deg) for _ in range(out_dim)])

    def vector_field(self, m: int, deg: int) -> PolyMap:
        return self.polymap(m, m, deg)

    def kernel(self, p: int, m: int, deg: int) -> Kernel:
        return Kernel(p, m, self.polymap(cube_dim(p, m), m, deg))

    def omega1_form(self, p: int, m: int, deg: int) -> FormElem:
        return form_from_kernel(self.kernel(p, m, deg))

    def multilinear_form(self, p: int, m: int, deg: int,
                         class_tag: str = OMEGA12) -> FormElem:
        """Dirac form whose principal kernel has axis multidegree (1, .., 1)."""
        n = cube_dim(p, m)
        comps = []
        for _j in range(m):
            acc = Poly.zero(n)
            for _ in range(2):
                term = Poly.const(n, self.rational())
                for block in self._partition(p):
                    term = term * Poly.var(n, cube_var(p, m, block, self.rng.randrange(m)))
                for _ in range(self.rng.randint(0, max(deg - 1, 0))):
                    term = term * Poly.var(n, cube_var(p, m, (), self.rng.randrange(m)))
                acc = acc + term
            comps.append(acc)
        return form_from_kernel(Kernel(p, m, PolyMap(n, comps)), class_tag=class_tag)

    def _partition(self, p: int):
        axes = list(range(1, p + 1))
        self.rng.shuffle(axes)
        blocks = []
        while axes:
            size = self.rng.randint(1, len(axes))
            blocks.append(frozenset(axes[:size]))
            axes = axes[size:]
        return blocks

    def omega13_form(self, p: int, m: int, deg: int) -> FormElem:
        return antisymmetrize(form_from_kernel(self.kernel(p, m, deg), class_tag=OMEGA13))

    def omega123_form(self, p: int, m: int, deg: int) -> FormElem:
        return antisymmetrize(self.multilinear_form(p, m, deg, OMEGA123))

    def micro_pair(self, n: int, m: int, redraw):
        """Points (g1, g2) on D^n that differ at most at the keys `redraw`.

        g2 is drawn key by key in basis order; g1 copies it and draws the
        `redraw` keys again, in the given order.
        """
        keys = [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        g2 = {key: self.vector(m) for key in keys}
        g1 = {**g2, **{key: self.vector(m) for key in redraw}}
        return (MicroPoint.from_table(d_cube(n), m, g1),
                MicroPoint.from_table(d_cube(n), m, g2))

    def triangle(self, m: int):
        base4 = [self.vector(m) for _ in range(4)]
        slots = {pair: (self.vector(m), self.vector(m))
                 for pair in [(1, 2), (1, 3), (2, 3)]}
        corners = {label: self.vector(m) for label in TRIANGLE_LABELS}
        return triangle_from_slots(m, base4, slots, corners)

    def simplicial_object(self, n_max: int = 3) -> SimplicialObject:
        n = self.rng.randint(0, n_max)
        rels = set()
        for _ in range(self.rng.randint(0, n)):
            size = self.rng.randint(1, max(n, 1))
            seq = tuple(sorted(self.rng.sample(range(1, n + 1), min(size, n))))
            if seq:
                rels.add(seq)
        return SimplicialObject(n, frozenset(rels))

    def m(self, cfg) -> int:
        return self.rng.randint(1, cfg.m_max)


class _Run:
    def __init__(self):
        self.cases = 0
        self.failed = 0
        self.witnesses = []

    def ok(self):
        self.cases += 1

    def fail(self, message: str, **objects):
        self.cases += 1
        self.failed += 1
        if len(self.witnesses) < 5:
            entry = {"message": message}
            for key, value in objects.items():
                entry[key] = to_json(value)
            self.witnesses.append(entry)

    def check(self, condition: bool, message: str, **objects):
        if condition:
            self.ok()
        else:
            self.fail(message, **objects)


@dataclass(frozen=True)
class Property:
    name: str
    suite: str
    statement: str
    runner: callable


PROPERTIES = []


def _property(suite: str, statement: str):
    """Declare the decorated `run_<name>(s, cfg, run)`; see the module docstring."""
    def declare(body):
        @wraps(body)
        def runner(s: Sampler, cfg: SuiteConfig) -> _Run:
            run = _Run()
            body(s, cfg, run)
            return run
        PROPERTIES.append(Property(body.__name__.removeprefix("run_"), suite, statement, runner))
        return runner
    return declare


# ---------------------------------------------------------------------------
# oracles used only for cross-checking


def brute_force_basis(obj: SimplicialObject):
    """Monomial enumeration oracle, independent of the algebra construction."""
    rels = [tuple(seq) for seq in obj.relations]
    out = []
    for exps in iter_product(*(range(b) for b in obj.bounds)):
        if any(all(exps[i - 1] >= 1 for i in seq) for seq in rels):
            continue
        out.append(exps)
    if obj.n == 0:
        out = [()]
    return sorted(out, key=lambda e: (sum(e), tuple(-x for x in e)))


def flow_commutator(x: PolyMap, y: PolyMap) -> PolyMap:
    """Classical commutator x.grad(y) - y.grad(x) of two vector fields.

    This is the corner of the square loop of flows -x, -y, +x, +y taken with
    square-zero parameters t and s: to first order in each, the loop ends at
    c + ts (Dy(c) x(c) - Dx(c) y(c)).
    """
    m = x.in_dim
    return PolyMap(m, [sum((x.comps[j] * yi.partial(j) - y.comps[j] * xi.partial(j)
                            for j in range(m)), Poly.zero(m))
                       for xi, yi in zip(x.comps, y.comps)])


# ---------------------------------------------------------------------------
# weil suite


@_property("weil", "algebra dimensions match brute-force monomial enumeration")
def run_weil_dimensions(s: Sampler, cfg: SuiteConfig, run: _Run):
    named = [(d_cube(n), 2 ** n) for n in range(7)]
    named += [(d_paren(2), 3),
              (SimplicialObject(3, frozenset({(1, 3), (2, 3)})), 5),
              (SimplicialObject(4, frozenset({(2, 4), (3, 4)})), 10),
              (d_order(2), 3)]
    for obj, dim in named:
        alg = make_algebra(obj)
        oracle = brute_force_basis(obj)
        run.check(alg.dim == dim == len(oracle) and list(alg.basis) == oracle,
                  "dimension or basis differs from enumeration", object=obj,
                  expected=dim, got=alg.dim)


@_property("weil", "bases equal the brute-force filter and are divisor-closed")
def run_weil_basis_enumeration(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        obj = s.simplicial_object(4)
        alg = make_algebra(obj)
        oracle = brute_force_basis(obj)
        good = list(alg.basis) == oracle and alg.basis[0] == (0,) * obj.n
        for exps in alg.basis:
            for i in range(obj.n):
                if exps[i]:
                    lower = tuple(e - 1 if k == i else e for k, e in enumerate(exps))
                    good = good and lower in alg.index
        run.check(good, "basis mismatch or not divisor-closed", object=obj)


@_property("weil", "the cross-vanishing combination of objects is associative")
def run_oplus_associative(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        a, b, c = (s.simplicial_object(3) for _ in range(3))
        run.check(oplus(oplus(a, b), c) == oplus(a, oplus(b, c)),
                  "combination is not associative", a=a, b=b, c=c)


def _canonical_morphisms():
    sq = get_case("square")
    out = [sq.twisted, sq.flat, sq.shared_incl, sq.extract]
    for axis in (1, 2, 3):
        case = get_case(f"cube-{axis}")
        out += [case.twisted, case.flat, case.shared_incl, case.extract]
    out.append(InfMorphism(d_cube(1), d_cube(2), [Poly.var(1, 0), Poly.var(1, 0)]))
    out.append(InfMorphism(d_order(2), d_cube(1), [Poly.var(1, 0) * Poly.var(1, 0)]))
    return out


@_property("weil", "pullback along object maps is linear, unital and multiplicative")
def run_morphism_algebra_map(s: Sampler, cfg: SuiteConfig, run: _Run):
    morphisms = _canonical_morphisms()
    for _ in range(cfg.cases_per_property):
        f = s.rng.choice(morphisms)
        tgt = make_algebra(f.target)
        x = from_dense(tgt, [s.rational() for _ in range(tgt.dim)])
        y = from_dense(tgt, [s.rational() for _ in range(tgt.dim)])
        a, b = s.rational(), s.rational()
        lin = f.pullback_element(x.scale(a) + y.scale(b)) == \
            f.pullback_element(x).scale(a) + f.pullback_element(y).scale(b)
        unital = f.pullback_element(tgt.one()) == make_algebra(f.source).one()
        mult = f.pullback_element(x * y) == f.pullback_element(x) * f.pullback_element(y)
        run.check(lin and unital and mult,
                  "pullback is not an algebra map", morphism=f)


@_property("weil", "evaluation matches naive substitution and commutes with composition")
def run_poly_eval_functorial(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        f = s.polymap(m, m, cfg.deg_max)
        g = s.polymap(m, m, cfg.deg_max)
        rational_args = [s.rational() for _ in range(m)]
        naive = []
        for comp in g.comps:
            total = Q(0)
            for e, c in comp.terms.items():
                term = c
                for i, k in enumerate(e):
                    term *= rational_args[i] ** k
                total += term
            naive.append(total)
        plain_ok = g.eval(rational_args) == naive
        alg = make_algebra(d_cube(2))
        args = [from_dense(alg, [s.rational() for _ in range(alg.dim)])
                for _ in range(m)]
        one = alg.one()
        chain_ok = f.compose(g).eval(args, one) == f.eval(g.eval(args, one), one)
        ident_ok = PolyMap.identity(m).eval(args, one) == args
        run.check(plain_ok and chain_ok and ident_ok,
                  "evaluation is not functorial", f=f, g=g)


# ---------------------------------------------------------------------------
# microcalc suite


@_property("microcalc", "the two orders of a strong difference cancel exactly")
def run_strong_diff_antisymmetry(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        g1, g2 = s.micro_pair(2, m, [(1, 2)])
        fwd = strong_diff(g1, g2)
        rev = strong_diff(g2, g1)
        psum = tuple(a + b for a, b in zip(tangent_principal(fwd),
                                           tangent_principal(rev)))
        run.check(all(not v for v in psum) and fwd.base() == rev.base() == g1.base(),
                  "difference pair does not cancel", g1=g1, g2=g2,
                  forward=fwd, reverse=rev)


@_property("microcalc", "gluings restrict back to their legs and are solve-order independent")
def run_pullback_roundtrip(s: Sampler, cfg: SuiteConfig, run: _Run):
    for name, n, redraw in (("square", 2, [(1, 2)]),
                            ("cube-1", 3, [(2, 3), (1, 2, 3)]),
                            ("cube-2", 3, [(1, 3), (1, 2, 3)]),
                            ("cube-3", 3, [(1, 2), (1, 2, 3)])):
        case = get_case(name)
        # a second elimination of the same system, pivoting right to left
        reordered = ReducedMatrix(case.system, reversed(range(case.apex_alg.dim)))
        offset = case.leg_alg.dim
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            g1, g2 = s.micro_pair(n, m, redraw)
            glued = amalgamate(g1, g2, case)
            stacked = ({**a.coeffs, **{offset + k: v for k, v in b.coeffs.items()}}
                       for a, b in zip(g1.coords, g2.coords))
            ok = (restrict(glued, case.twisted) == g1
                  and restrict(glued, case.flat) == g2
                  and all(solve_exact(reordered, rhs) == dict(c.coeffs)
                          for rhs, c in zip(stacked, glued.coords)))
            run.check(ok, f"round trip or uniqueness failed for {name}",
                      g1=g1, g2=g2, glued=glued)


@_property("microcalc", "the strong difference is translation-equivariant in the corner")
def run_strong_diff_translation(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        g1, g2 = s.micro_pair(2, m, [(1, 2)])
        v = s.vector(m)

        def shift(g, delta):
            table = {key: list(g.coeff(key)) for key in [(), (1,), (2,)]}
            table[(1, 2)] = [c + d for c, d in zip(g.coeff((1, 2)), delta)]
            return MicroPoint.from_table(d_cube(2), m, table)

        both = strong_diff(shift(g1, v), shift(g2, v))
        one_sided = strong_diff(shift(g1, v), g2)
        base = strong_diff(g1, g2)
        ok = (tangent_principal(both) == tangent_principal(base)
              and tangent_principal(one_sided)
              == tuple(a + b for a, b in zip(tangent_principal(base), v)))
        run.check(ok, "difference is not translation-equivariant in the corner",
                  g1=g1, g2=g2, shift=v)


# ---------------------------------------------------------------------------
# jacobi suite


@_property("jacobi", "threefold differences of flow-generated cube six-tuples sum to zero")
def run_general_jacobi_flows(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        fields = [s.vector_field(m, cfg.deg_max) for _ in range(3)]
        for _ in range(3):
            at = s.vector(m)
            t = triangle_from_vector_fields(*fields, at)
            bad = t.violations()
            if bad:
                run.fail("flow cubes violate membership: " + bad[0],
                         fields=fields, at=at)
                continue
            defect = jacobi3_defect(t)
            run.check(all(not v for v in tangent_principal(defect)),
                      "nonzero defect for flow-generated cubes",
                      fields=fields, at=at, defect=defect)


@_property("jacobi", "threefold differences of constraint-solved six-tuples sum to zero")
def run_general_jacobi_random(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        t = s.triangle(m)
        bad = t.violations()
        if bad:
            run.fail("constraint solving left a violation: " + bad[0],
                     cubes=t.cubes)
            continue
        defect = jacobi3_defect(t)
        run.check(all(not v for v in tangent_principal(defect)),
                  "nonzero defect for constraint-solved cubes",
                  cubes=t.cubes, defect=defect)


@_property("jacobi", "flow-generated six-tuples satisfy every membership condition")
def run_triangle_membership_flows(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        fields = [s.vector_field(m, cfg.deg_max) for _ in range(3)]
        at = s.vector(m)
        t = triangle_from_vector_fields(*fields, at)
        bad = t.violations()
        run.check(not bad, "membership violated: " + (bad[0] if bad else ""),
                  fields=fields, at=at)


# ---------------------------------------------------------------------------
# conv suite


@_property("conv", "block-shuffled under-convolution equals the swapped over-convolution")
def run_conv_shuffle(s: Sampler, cfg: SuiteConfig, run: _Run):
    for p, q in iter_product(range(3), range(3)):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            f = s.kernel(p, m, cfg.deg_max)
            g = s.kernel(q, m, cfg.deg_max)
            lhs = perm_kernel(conv_under(f, g), shuffle_sigma(p, q))
            rhs = conv_over(g, f)
            run.check(lhs == rhs, f"shuffle relation fails at ({p},{q})",
                      f=f, g=g, lhs=lhs, rhs=rhs)


@_property("conv", "both convolutions are associative")
def run_conv_associative(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        p, q, r = (s.rng.randint(0, 1) for _ in range(3))
        f, g, h = s.kernel(p, m, cfg.deg_max), s.kernel(q, m, cfg.deg_max), \
            s.kernel(r, m, cfg.deg_max)
        under_ok = conv_under(conv_under(f, g), h) == conv_under(f, conv_under(g, h))
        over_ok = conv_over(conv_over(f, g), h) == conv_over(f, conv_over(g, h))
        run.check(under_ok and over_ok, "convolution is not associative",
                  f=f, g=g, h=h)


@_property("conv", "convolving against the base projection is side-independent")
def run_conv_base_projection(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        p, q = s.rng.randint(0, 2), s.rng.randint(0, 2)
        g = s.kernel(q, m, cfg.deg_max)
        f = s.kernel(p, m, cfg.deg_max)
        left = conv_under(pi_kernel(p, m), g) == conv_over(pi_kernel(p, m), g)
        right = conv_under(f, pi_kernel(q, m)) == conv_over(f, pi_kernel(q, m))
        run.check(left and right,
                  "projection convolution depends on the side", f=f, g=g)


@_property("conv", "arity-zero convolutions reduce to map composition")
def run_conv_composition_reduction(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        f = s.kernel(0, m, cfg.deg_max)
        g = s.kernel(0, m, cfg.deg_max)
        run.check(conv_under(f, g).body == f.body.compose(g.body)
                  and conv_over(f, g).body == g.body.compose(f.body),
                  "arity-zero convolution is not composition", f=f, g=g)


# ---------------------------------------------------------------------------
# prod suite


@_property("prod", "both expanded products are associative")
def run_prod_associative(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        forms = [s.omega1_form(s.rng.randint(0, 1), m, cfg.deg_max)
                 for _ in range(3)]
        x, y, z = forms
        under_ok = prod_under(prod_under(x, y), z) == prod_under(x, prod_under(y, z))
        over_ok = prod_over(prod_over(x, y), z) == prod_over(x, prod_over(y, z))
        run.check(under_ok and over_ok, "expanded product is not associative",
                  x=x, y=y, z=z)


@_property("prod", "the two expanded products agree on every slot below the corner")
def run_prod_low_order_agreement(s: Sampler, cfg: SuiteConfig, run: _Run):
    for p, q in iter_product(range(2), range(2)):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            x = s.omega1_form(p, m, cfg.deg_max)
            y = s.omega1_form(q, m, cfg.deg_max)
            a = prod_under(x, y)
            b = prod_over(x, y)
            ok = all(a.coeff(sub) == b.coeff(sub)
                     for sub in [(), (1,), (2,)])
            run.check(ok, f"products disagree below the corner at ({p},{q})",
                      x=x, y=y)


# ---------------------------------------------------------------------------
# brackets suite


def _shuffle_swap(t: Kernel, a: int, b: int) -> Kernel:
    return perm_kernel(t, shuffle_sigma(a, b))


def _graded_swap(t: Kernel, a: int, b: int) -> Kernel:
    return t.scale(Q((-1) ** (a * b)))


def _antisymmetry_sum(bracket, swap, x, y, xy):
    """xy = bracket(x, y) plus the aligned bracket(y, x)."""
    return xy.principal() + swap(bracket(y, x).principal(), y.p, x.p)


def _jacobi_sum(bracket, swap, x, y, z):
    p, q, r = x.p, y.p, z.p
    return (bracket(x, bracket(y, z)).principal()
            + swap(bracket(y, bracket(z, x)).principal(), q + r, p)
            + swap(bracket(z, bracket(x, y)).principal(), r, p + q))


def _arity_cases(s, cfg, count, cases):
    """(arities, m) for `cases` draws of m at each point of the arity grid."""
    axes = [range(cfg.p_max + 1), range(cfg.q_max + 1), range(cfg.r_max + 1)]
    for arities in iter_product(*axes[:count]):
        for _ in range(cases):
            yield arities, s.m(cfg)


def _antisymmetry_loop(run, s, cfg, draw, bracket, swap, what):
    for (p, q), m in _arity_cases(s, cfg, 2, cfg.cases_per_property):
        x, y = draw(p, m, cfg.deg_max), draw(q, m, cfg.deg_max)
        run.check(not _antisymmetry_sum(bracket, swap, x, y, bracket(x, y)),
                  f"{what} fails at ({p},{q})", x=x, y=y)


def _jacobi_loop(run, s, cfg, draw, bracket, swap, what):
    for (p, q, r), m in _arity_cases(s, cfg, 3, cfg.cases_per_property):
        x, y, z = (draw(a, m, cfg.deg_max) for a in (p, q, r))
        run.check(not _jacobi_sum(bracket, swap, x, y, z),
                  f"{what} fails at ({p},{q},{r})", x=x, y=y, z=z)


def _identities_loop(run, s, cfg, draw, bracket, swap, closed, what):
    """Closure, antisymmetry and Jacobi together, on half as many cases."""
    for (p, q, r), m in _arity_cases(s, cfg, 3, max(cfg.cases_per_property // 2, 1)):
        x, y, z = (draw(a, m, cfg.deg_max) for a in (p, q, r))
        xy = bracket(x, y)
        run.check(closed(xy) and not _antisymmetry_sum(bracket, swap, x, y, xy)
                  and not _jacobi_sum(bracket, swap, x, y, z),
                  f"{what} fails at ({p},{q},{r})", x=x, y=y, z=z)


@_property("brackets", "bracket(x,y) plus the block-shuffled bracket(y,x) vanishes")
def run_bracket_antisymmetry(s: Sampler, cfg: SuiteConfig, run: _Run):
    _antisymmetry_loop(run, s, cfg, s.omega1_form, bracket_l1, _shuffle_swap,
                       "bracket antisymmetry")


@_property("brackets", "the three aligned iterated brackets sum to zero")
def run_bracket_jacobi(s: Sampler, cfg: SuiteConfig, run: _Run):
    _jacobi_loop(run, s, cfg, s.omega1_form, bracket_l1, _shuffle_swap, "bracket jacobi")


@_property("brackets", "the multilinear bracket closes and satisfies the same identities")
def run_bracket_multilinear_identities(s: Sampler, cfg: SuiteConfig, run: _Run):
    _identities_loop(run, s, cfg, s.multilinear_form, bracket_l12, _shuffle_swap,
                     is_omega12, "multilinear bracket identity")


@_property("brackets", "graded bracket(x,y) + (-1)^pq graded bracket(y,x) vanishes")
def run_bracket_graded_antisymmetry(s: Sampler, cfg: SuiteConfig, run: _Run):
    _antisymmetry_loop(run, s, cfg, s.omega13_form, bracket_fn13, _graded_swap,
                       "graded antisymmetry")


@_property("brackets", "graded iterated brackets with (-1)^p(q+r) style signs sum to zero")
def run_bracket_graded_jacobi(s: Sampler, cfg: SuiteConfig, run: _Run):
    _jacobi_loop(run, s, cfg, s.omega13_form, bracket_fn13, _graded_swap, "graded jacobi")


@_property("brackets", "the full graded bracket closes and satisfies the graded identities")
def run_bracket_alternating_multilinear(s: Sampler, cfg: SuiteConfig, run: _Run):
    _identities_loop(run, s, cfg, s.omega123_form, bracket_fn123, _graded_swap,
                     is_omega123, "full graded bracket identity")


@_property("brackets", "bracket outputs pass the membership predicates of their class")
def run_bracket_closure(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        p, q = s.rng.randint(0, cfg.p_max), s.rng.randint(0, cfg.q_max)
        x12 = s.multilinear_form(p, m, cfg.deg_max)
        y12 = s.multilinear_form(q, m, cfg.deg_max)
        x13 = s.omega13_form(p, m, cfg.deg_max)
        y13 = s.omega13_form(q, m, cfg.deg_max)
        x123 = s.omega123_form(p, m, cfg.deg_max)
        y123 = s.omega123_form(q, m, cfg.deg_max)
        ok = (is_omega12(bracket_l12(x12, y12))
              and is_omega13(bracket_fn13(x13, y13))
              and is_omega123(bracket_fn123(x123, y123)))
        run.check(ok, "bracket output left its class", p=p, q=q)


@_property("brackets", "the antisymmetrizer intertwines axis permutations by their sign")
def run_antisymmetrizer_equivariance(s: Sampler, cfg: SuiteConfig, run: _Run):
    for p in range(4):
        for _ in range(max(cfg.cases_per_property // 4, 1)):
            m = s.m(cfg)
            x = s.omega1_form(p, m, cfg.deg_max)
            ax = antisymmetrize(x)
            ok = True
            for sigma in Permutation.all(p):
                scaled = FormElem(p, 1, m, {
                    frozenset(): ax.coeff(()),
                    frozenset({1}): ax.principal().scale(Q(sigma.sign))})
                ok = ok and antisymmetrize(perm_act(x, sigma)) == scaled
                ok = ok and perm_act(ax, sigma) == scaled
            run.check(ok, f"antisymmetrizer equivariance fails at p={p}", x=x)


@_property("brackets", "all four brackets coincide on vector fields")
def run_bracket_reductions(s: Sampler, cfg: SuiteConfig, run: _Run):
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        x = vector_field_form(s.vector_field(m, cfg.deg_max))
        y = vector_field_form(s.vector_field(m, cfg.deg_max))
        out = [bracket_l1(x, y), bracket_l12(x, y),
               bracket_fn13(x, y), bracket_fn123(x, y)]
        run.check(all(o == out[0] for o in out),
                  "the four brackets differ on vector fields", x=x, y=y)


@_property("brackets", "vector-field brackets match the flow commutator with one fixed sign")
def run_classical_commutator_crosscheck(s: Sampler, cfg: SuiteConfig, run: _Run):
    """The bracket of two vector fields against the flow-commutator oracle.

    One global sign relates the two conventions; it must be the same sign in
    every case, and this library's is -1 against the classical commutator.
    """
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        x = s.vector_field(m, cfg.deg_max)
        y = s.vector_field(m, cfg.deg_max)
        got = bracket_l1(vector_field_form(x), vector_field_form(y)).principal().body
        oracle = flow_commutator(x, y)
        run.check(got == oracle.scale(Q(-1)),
                  "bracket does not match the flow commutator with sign -1",
                  x=x, y=y, got=got, oracle=oracle)


# ---------------------------------------------------------------------------
# report


def run_verification(cfg: SuiteConfig) -> dict:
    """Run all configured suites; deterministic given the config."""
    entries = []
    passed = True
    for prop in PROPERTIES:
        if prop.suite not in cfg.suites:
            continue
        sampler = Sampler(f"{cfg.seed}/{prop.name}")
        started = time.perf_counter()
        run = prop.runner(sampler, cfg)
        elapsed = time.perf_counter() - started
        entries.append({
            "name": prop.name,
            "suite": prop.suite,
            "statement": prop.statement,
            "cases": run.cases,
            "failed_cases": run.failed,
            "failures": run.witnesses,
            "time_s": round(elapsed, 6),
        })
        passed = passed and run.failed == 0
    return {"schema": REPORT_SCHEMA,
            "config": cfg.to_json(),
            "passed": passed,
            "properties": entries}


def strip_timings(report: dict) -> dict:
    """Copy of a report with wall-time fields removed, for comparisons."""
    out = dict(report)
    out["properties"] = [{k: v for k, v in entry.items() if k != "time_s"}
                         for entry in report["properties"]]
    return out
