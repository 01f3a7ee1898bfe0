"""Seeded property suites over every identity the library implements.

Each property draws its own deterministic RNG from (seed, property name), so
reports are reproducible case by case and suites can run independently.
Failures carry serialized counterexamples.  Scales (model dimension, arities,
degree, case counts) come from SuiteConfig; the defaults keep a full run in
the tens of seconds.
"""

import random
import time
from dataclasses import asdict, dataclass, replace
from itertools import product as iter_product

from .errors import ValidationError
from .forms import (OMEGA12, OMEGA123, FormElem, Kernel, Permutation,
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
from .weil import WeilElement, make_algebra

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
        for name in ("m_max", "p_max", "q_max", "r_max", "deg_max", "cases_per_property"):
            if type(getattr(self, name)) is not int:
                raise ValidationError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.cases_per_property < 1:
            raise ValidationError("cases_per_property must be >= 1")
        if self.m_max < 1 or self.deg_max < 0:
            raise ValidationError("bad scale limits")
        try:
            suites = tuple(self.suites)
            unknown = set(suites) - set(SUITES)
        except TypeError as exc:
            raise ValidationError(f"suites must be a list of names, got {self.suites!r}") from exc
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
        known = {"seed", "m_max", "p_max", "q_max", "r_max", "deg_max",
                 "cases_per_property", "suites"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        return SuiteConfig(**data)


class Sampler:
    """Deterministic generator of small exact-rational objects."""

    def __init__(self, seed):
        self.rng = random.Random(str(seed))

    def rational(self, nonzero=False) -> Q:
        num = self.rng.randint(-9, 9)
        if nonzero:
            while num == 0:
                num = self.rng.randint(-9, 9)
        return Q(num, self.rng.choice((1, 2, 3)))

    def vector(self, m: int):
        return [self.rational() for _ in range(m)]

    def poly(self, n: int, deg: int, terms: int = 2) -> Poly:
        pairs = []
        for _ in range(terms):
            e = [0] * n
            for _ in range(self.rng.randint(0, deg)):
                e[self.rng.randrange(n)] += 1
            pairs.append((self.rational(), tuple(e)))
        return Poly.from_terms(n, pairs)

    def polymap(self, in_dim: int, out_dim: int, deg: int, terms: int = 2) -> PolyMap:
        return PolyMap(in_dim, [self.poly(in_dim, deg, terms) for _ in range(out_dim)])

    def vector_field(self, m: int, deg: int) -> PolyMap:
        return self.polymap(m, m, deg)

    def kernel(self, p: int, m: int, deg: int, terms: int = 2) -> Kernel:
        return Kernel(p, m, self.polymap(cube_dim(p, m), m, deg, terms))

    def omega1_form(self, p: int, m: int, deg: int) -> FormElem:
        return form_from_kernel(self.kernel(p, m, deg))

    def multilinear_form(self, p: int, m: int, deg: int) -> FormElem:
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
        return form_from_kernel(Kernel(p, m, PolyMap(n, comps)), class_tag=OMEGA12)

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
        return antisymmetrize(self.omega1_form(p, m, deg)).with_tag("omega13")

    def omega123_form(self, p: int, m: int, deg: int) -> FormElem:
        return antisymmetrize(self.multilinear_form(p, m, deg)).with_tag(OMEGA123)

    def micro_square(self, m: int) -> MicroPoint:
        table = {key: self.vector(m) for key in [(), (1,), (2,), (1, 2)]}
        return MicroPoint.from_table(d_cube(2), m, table)

    def square_pair(self, m: int):
        g2 = self.micro_square(m)
        table = {key: list(g2.coeff(key)) for key in [(), (1,), (2,)]}
        table[(1, 2)] = self.vector(m)
        return MicroPoint.from_table(d_cube(2), m, table), g2

    def micro_cube(self, m: int) -> MicroPoint:
        keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        return MicroPoint.from_table(d_cube(3), m, {k: self.vector(m) for k in keys})

    def cube_pair(self, m: int, axis: int):
        g2 = self.micro_cube(m)
        others = tuple(sorted({1, 2, 3} - {axis}))
        keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        table = {k: list(g2.coeff(k)) for k in keys}
        table[others] = self.vector(m)
        table[(1, 2, 3)] = self.vector(m)
        return MicroPoint.from_table(d_cube(3), m, table), g2

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
    """Classical commutator via the square loop of first-order steps.

    Walks -x, -y, +x, +y with two square-zero parameters and returns the
    corner coefficient, the classical derivation-commutator bracket.
    """
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


# ---------------------------------------------------------------------------
# weil suite


def run_weil_dimensions(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


def run_weil_basis_enumeration(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


def run_oplus_associative(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        a, b, c = (s.simplicial_object(3) for _ in range(3))
        run.check(oplus(oplus(a, b), c) == oplus(a, oplus(b, c)),
                  "combination is not associative", a=a, b=b, c=c)
    return run


def _canonical_morphisms():
    sq = get_case("square")
    out = [sq.twisted, sq.flat, sq.shared_incl, sq.extract]
    for axis in (1, 2, 3):
        case = get_case(f"cube-{axis}")
        out += [case.twisted, case.flat, case.shared_incl, case.extract]
    out.append(InfMorphism(d_cube(1), d_cube(2), [Poly.var(1, 0), Poly.var(1, 0)]))
    out.append(InfMorphism(d_order(2), d_cube(1), [Poly.var(1, 0) * Poly.var(1, 0)]))
    return out


def run_morphism_algebra_map(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    morphisms = _canonical_morphisms()
    for _ in range(cfg.cases_per_property):
        f = s.rng.choice(morphisms)
        tgt = make_algebra(f.target)
        from .weil import from_dense
        x = from_dense(tgt, [s.rational() for _ in range(tgt.dim)])
        y = from_dense(tgt, [s.rational() for _ in range(tgt.dim)])
        a, b = s.rational(), s.rational()
        lin = f.pullback_element(x.scale(a) + y.scale(b)) == \
            f.pullback_element(x).scale(a) + f.pullback_element(y).scale(b)
        unital = f.pullback_element(tgt.one()) == make_algebra(f.source).one()
        mult = f.pullback_element(x * y) == f.pullback_element(x) * f.pullback_element(y)
        run.check(lin and unital and mult,
                  "pullback is not an algebra map", morphism=f)
    return run


def run_poly_eval_functorial(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    from .weil import from_dense
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
    return run


# ---------------------------------------------------------------------------
# microcalc suite


def run_strong_diff_antisymmetry(s: Sampler, cfg: SuiteConfig,
                                 diff_fn=strong_diff) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        g1, g2 = s.square_pair(m)
        fwd = diff_fn(g1, g2)
        rev = diff_fn(g2, g1)
        psum = tuple(a + b for a, b in zip(tangent_principal(fwd),
                                           tangent_principal(rev)))
        run.check(all(not v for v in psum) and fwd.base() == rev.base() == g1.base(),
                  "difference pair does not cancel", g1=g1, g2=g2,
                  forward=fwd, reverse=rev)
    return run


def run_pullback_roundtrip(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for name in ("square", "cube-1", "cube-2", "cube-3"):
        case = get_case(name)
        # a second elimination of the same system, pivoting right to left
        reordered = ReducedMatrix(case.system, reversed(range(make_algebra(case.apex).dim)))
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            if name == "square":
                g1, g2 = s.square_pair(m)
            else:
                g1, g2 = s.cube_pair(m, int(name[-1]))
            glued = amalgamate(g1, g2, case)
            ok = (restrict(glued, case.twisted) == g1
                  and restrict(glued, case.flat) == g2
                  and all(solve_exact(reordered, a.dense() + b.dense()) == c.dense()
                          for a, b, c in zip(g1.coords, g2.coords, glued.coords)))
            run.check(ok, f"round trip or uniqueness failed for {name}",
                      g1=g1, g2=g2, glued=glued)
    return run


def run_strong_diff_translation(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        g1, g2 = s.square_pair(m)
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
    return run


# ---------------------------------------------------------------------------
# jacobi suite


def run_general_jacobi_flows(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        fields = [s.vector_field(m, cfg.deg_max) for _ in range(3)]
        for _ in range(3):
            at = s.vector(m)
            t = triangle_from_vector_fields(*fields, at)
            defect = jacobi3_defect(t)
            run.check(all(not v for v in tangent_principal(defect)),
                      "nonzero defect for flow-generated cubes",
                      fields=fields, at=at, defect=defect)
    return run


def run_general_jacobi_random(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


def run_triangle_membership_flows(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        fields = [s.vector_field(m, cfg.deg_max) for _ in range(3)]
        at = s.vector(m)
        t = triangle_from_vector_fields(*fields, at)
        bad = t.violations()
        run.check(not bad, "membership violated: " + (bad[0] if bad else ""),
                  fields=fields, at=at)
    return run


# ---------------------------------------------------------------------------
# conv suite


def run_conv_shuffle(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q in iter_product(range(3), range(3)):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            f = s.kernel(p, m, cfg.deg_max)
            g = s.kernel(q, m, cfg.deg_max)
            lhs = perm_kernel(conv_under(f, g), shuffle_sigma(p, q))
            rhs = conv_over(g, f)
            run.check(lhs == rhs, f"shuffle relation fails at ({p},{q})",
                      f=f, g=g, lhs=lhs, rhs=rhs)
    return run


def run_conv_associative(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        p, q, r = (s.rng.randint(0, 1) for _ in range(3))
        f, g, h = s.kernel(p, m, cfg.deg_max), s.kernel(q, m, cfg.deg_max), \
            s.kernel(r, m, cfg.deg_max)
        under_ok = conv_under(conv_under(f, g), h) == conv_under(f, conv_under(g, h))
        over_ok = conv_over(conv_over(f, g), h) == conv_over(f, conv_over(g, h))
        run.check(under_ok and over_ok, "convolution is not associative",
                  f=f, g=g, h=h)
    return run


def run_conv_base_projection(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        p, q = s.rng.randint(0, 2), s.rng.randint(0, 2)
        g = s.kernel(q, m, cfg.deg_max)
        f = s.kernel(p, m, cfg.deg_max)
        left = conv_under(pi_kernel(p, m), g) == conv_over(pi_kernel(p, m), g)
        right = conv_under(f, pi_kernel(q, m)) == conv_over(f, pi_kernel(q, m))
        run.check(left and right,
                  "projection convolution depends on the side", f=f, g=g)
    return run


def run_conv_composition_reduction(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        f = s.kernel(0, m, cfg.deg_max)
        g = s.kernel(0, m, cfg.deg_max)
        run.check(conv_under(f, g).body == f.body.compose(g.body)
                  and conv_over(f, g).body == g.body.compose(f.body),
                  "arity-zero convolution is not composition", f=f, g=g)
    return run


# ---------------------------------------------------------------------------
# prod suite


def run_prod_associative(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        forms = [s.omega1_form(s.rng.randint(0, 1), m, cfg.deg_max)
                 for _ in range(3)]
        x, y, z = forms
        under_ok = prod_under(prod_under(x, y), z) == prod_under(x, prod_under(y, z))
        over_ok = prod_over(prod_over(x, y), z) == prod_over(x, prod_over(y, z))
        run.check(under_ok and over_ok, "expanded product is not associative",
                  x=x, y=y, z=z)
    return run


def run_prod_low_order_agreement(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


# ---------------------------------------------------------------------------
# brackets suite


def _arity_grid(cfg, count):
    axes = [range(cfg.p_max + 1), range(cfg.q_max + 1), range(cfg.r_max + 1)]
    return iter_product(*axes[:count])


def run_bracket_antisymmetry(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q in _arity_grid(cfg, 2):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            x = s.omega1_form(p, m, cfg.deg_max)
            y = s.omega1_form(q, m, cfg.deg_max)
            total = bracket_l1(x, y).principal() + perm_kernel(
                bracket_l1(y, x).principal(), shuffle_sigma(q, p))
            run.check(not total, f"bracket antisymmetry fails at ({p},{q})",
                      x=x, y=y)
    return run


def _jacobi_sum_l1(bracket, x, y, z):
    p, q, r = x.p, y.p, z.p
    t1 = bracket(x, bracket(y, z)).principal()
    t2 = perm_kernel(bracket(y, bracket(z, x)).principal(), shuffle_sigma(q + r, p))
    t3 = perm_kernel(bracket(z, bracket(x, y)).principal(), shuffle_sigma(r, p + q))
    return t1 + t2 + t3


def run_bracket_jacobi(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q, r in _arity_grid(cfg, 3):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            x = s.omega1_form(p, m, cfg.deg_max)
            y = s.omega1_form(q, m, cfg.deg_max)
            z = s.omega1_form(r, m, cfg.deg_max)
            run.check(not _jacobi_sum_l1(bracket_l1, x, y, z),
                      f"bracket jacobi fails at ({p},{q},{r})", x=x, y=y, z=z)
    return run


def run_bracket_multilinear_identities(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q, r in _arity_grid(cfg, 3):
        for _ in range(max(cfg.cases_per_property // 2, 1)):
            m = s.m(cfg)
            x = s.multilinear_form(p, m, cfg.deg_max)
            y = s.multilinear_form(q, m, cfg.deg_max)
            z = s.multilinear_form(r, m, cfg.deg_max)
            out = bracket_l12(x, y)
            anti = out.principal() + perm_kernel(
                bracket_l12(y, x).principal(), shuffle_sigma(q, p))
            jac = _jacobi_sum_l1(bracket_l12, x, y, z)
            run.check(is_omega12(out) and not anti and not jac,
                      f"multilinear bracket identity fails at ({p},{q},{r})",
                      x=x, y=y, z=z)
    return run


def run_bracket_graded_antisymmetry(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q in _arity_grid(cfg, 2):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            x = s.omega13_form(p, m, cfg.deg_max)
            y = s.omega13_form(q, m, cfg.deg_max)
            total = bracket_fn13(x, y).principal() + \
                bracket_fn13(y, x).principal().scale(Q((-1) ** (p * q)))
            run.check(not total, f"graded antisymmetry fails at ({p},{q})",
                      x=x, y=y)
    return run


def _jacobi_sum_graded(bracket, x, y, z):
    p, q, r = x.p, y.p, z.p
    t1 = bracket(x, bracket(y, z)).principal()
    t2 = bracket(y, bracket(z, x)).principal().scale(Q((-1) ** (p * (q + r))))
    t3 = bracket(z, bracket(x, y)).principal().scale(Q((-1) ** (r * (p + q))))
    return t1 + t2 + t3


def run_bracket_graded_jacobi(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q, r in _arity_grid(cfg, 3):
        for _ in range(cfg.cases_per_property):
            m = s.m(cfg)
            x = s.omega13_form(p, m, cfg.deg_max)
            y = s.omega13_form(q, m, cfg.deg_max)
            z = s.omega13_form(r, m, cfg.deg_max)
            run.check(not _jacobi_sum_graded(bracket_fn13, x, y, z),
                      f"graded jacobi fails at ({p},{q},{r})", x=x, y=y, z=z)
    return run


def run_bracket_alternating_multilinear(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for p, q, r in _arity_grid(cfg, 3):
        for _ in range(max(cfg.cases_per_property // 2, 1)):
            m = s.m(cfg)
            x = s.omega123_form(p, m, cfg.deg_max)
            y = s.omega123_form(q, m, cfg.deg_max)
            z = s.omega123_form(r, m, cfg.deg_max)
            out = bracket_fn123(x, y)
            anti = out.principal() + \
                bracket_fn123(y, x).principal().scale(Q((-1) ** (p * q)))
            jac = _jacobi_sum_graded(bracket_fn123, x, y, z)
            run.check(is_omega123(out) and not anti and not jac,
                      f"full graded bracket identity fails at ({p},{q},{r})",
                      x=x, y=y, z=z)
    return run


def run_bracket_closure(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


def run_antisymmetrizer_equivariance(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
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
    return run


def run_bracket_reductions(s: Sampler, cfg: SuiteConfig) -> _Run:
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        x = vector_field_form(s.vector_field(m, cfg.deg_max))
        y = vector_field_form(s.vector_field(m, cfg.deg_max))
        out = [bracket_l1(x, y), bracket_l12(x, y),
               bracket_fn13(x, y), bracket_fn123(x, y)]
        run.check(all(o == out[0] for o in out),
                  "the four brackets differ on vector fields", x=x, y=y)
    return run


def run_classical_commutator(s: Sampler, cfg: SuiteConfig) -> _Run:
    """The bracket of two vector fields against the flow-commutator oracle.

    One global sign relates the two conventions; it must be the same sign in
    every case, and this library's is -1 against the classical commutator.
    """
    run = _Run()
    for _ in range(cfg.cases_per_property):
        m = s.m(cfg)
        x = s.vector_field(m, cfg.deg_max)
        y = s.vector_field(m, cfg.deg_max)
        got = bracket_l1(vector_field_form(x), vector_field_form(y)).principal().body
        oracle = flow_commutator(x, y)
        run.check(got == oracle.scale(Q(-1)),
                  "bracket does not match the flow commutator with sign -1",
                  x=x, y=y, got=got, oracle=oracle)
    return run


# ---------------------------------------------------------------------------
# registry and report


@dataclass(frozen=True)
class Property:
    name: str
    suite: str
    statement: str
    runner: callable


PROPERTIES = (
    Property("weil_dimensions", "weil",
             "algebra dimensions match brute-force monomial enumeration",
             run_weil_dimensions),
    Property("weil_basis_enumeration", "weil",
             "bases equal the brute-force filter and are divisor-closed",
             run_weil_basis_enumeration),
    Property("oplus_associative", "weil",
             "the cross-vanishing combination of objects is associative",
             run_oplus_associative),
    Property("morphism_algebra_map", "weil",
             "pullback along object maps is linear, unital and multiplicative",
             run_morphism_algebra_map),
    Property("poly_eval_functorial", "weil",
             "evaluation matches naive substitution and commutes with composition",
             run_poly_eval_functorial),
    Property("strong_diff_antisymmetry", "microcalc",
             "the two orders of a strong difference cancel exactly",
             run_strong_diff_antisymmetry),
    Property("pullback_roundtrip", "microcalc",
             "gluings restrict back to their legs and are solve-order independent",
             run_pullback_roundtrip),
    Property("strong_diff_translation", "microcalc",
             "the strong difference is translation-equivariant in the corner",
             run_strong_diff_translation),
    Property("general_jacobi_flows", "jacobi",
             "threefold differences of flow-generated cube six-tuples sum to zero",
             run_general_jacobi_flows),
    Property("general_jacobi_random", "jacobi",
             "threefold differences of constraint-solved six-tuples sum to zero",
             run_general_jacobi_random),
    Property("triangle_membership_flows", "jacobi",
             "flow-generated six-tuples satisfy every membership condition",
             run_triangle_membership_flows),
    Property("conv_shuffle", "conv",
             "block-shuffled under-convolution equals the swapped over-convolution",
             run_conv_shuffle),
    Property("conv_associative", "conv",
             "both convolutions are associative",
             run_conv_associative),
    Property("conv_base_projection", "conv",
             "convolving against the base projection is side-independent",
             run_conv_base_projection),
    Property("conv_composition_reduction", "conv",
             "arity-zero convolutions reduce to map composition",
             run_conv_composition_reduction),
    Property("prod_associative", "prod",
             "both expanded products are associative",
             run_prod_associative),
    Property("prod_low_order_agreement", "prod",
             "the two expanded products agree on every slot below the corner",
             run_prod_low_order_agreement),
    Property("bracket_antisymmetry", "brackets",
             "bracket(x,y) plus the block-shuffled bracket(y,x) vanishes",
             run_bracket_antisymmetry),
    Property("bracket_jacobi", "brackets",
             "the three aligned iterated brackets sum to zero",
             run_bracket_jacobi),
    Property("bracket_multilinear_identities", "brackets",
             "the multilinear bracket closes and satisfies the same identities",
             run_bracket_multilinear_identities),
    Property("bracket_graded_antisymmetry", "brackets",
             "graded bracket(x,y) + (-1)^pq graded bracket(y,x) vanishes",
             run_bracket_graded_antisymmetry),
    Property("bracket_graded_jacobi", "brackets",
             "graded iterated brackets with (-1)^p(q+r) style signs sum to zero",
             run_bracket_graded_jacobi),
    Property("bracket_alternating_multilinear", "brackets",
             "the full graded bracket closes and satisfies the graded identities",
             run_bracket_alternating_multilinear),
    Property("bracket_closure", "brackets",
             "bracket outputs pass the membership predicates of their class",
             run_bracket_closure),
    Property("antisymmetrizer_equivariance", "brackets",
             "the antisymmetrizer intertwines axis permutations by their sign",
             run_antisymmetrizer_equivariance),
    Property("bracket_reductions", "brackets",
             "all four brackets coincide on vector fields",
             run_bracket_reductions),
    Property("classical_commutator_crosscheck", "brackets",
             "vector-field brackets match the flow commutator with one fixed sign",
             run_classical_commutator),
)


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
