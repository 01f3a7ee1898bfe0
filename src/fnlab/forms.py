"""Tangent-vector-valued forms and their bracket tower.

A p-form on R^m is stored through its kernels: polynomial maps from the
p-cube coefficient space (variables gamma_S for S a subset of {1..p}, m
coordinates each, ordered by the cube algebra basis) back to R^m.  A
FormElem is a nilpotent expansion of kernels: one kernel per subset of its
expansion directions, with the unit slot pinned to the base projection for
the Dirac-normalized classes.

The two convolutions evaluate one kernel inside the other with Weil-valued
scalars; their expanded products agree below the corner, and the corner gap,
extracted by the same amalgamation solver that powers strong differences of
points, is the bracket.  Antisymmetrizing it with 1/(p! q!) yields the graded
bracket on alternating forms.  The bracket is bilinear and natural in each
argument's axes, so that is the plain antisymmetrization of the bracket of
the inputs' orbit representatives, one monomial per orbit of each kernel.
A form decides each class condition once and holds the verdict (its kernels
are read-only), as it holds its orbit representative once built; a bracket's
output, in its class by construction, is checked on its next use.

The constant combinatorics are worked out once and cached, which is safe
because none of them ever changes:
- one cube layout per arity p (the basis-order subsets of {1..p} and a
  read-only index of their positions, 2^p entries, kept for the life of the
  process like the cube algebra it is read from): the only record of slot
  order, which kernels, convolutions and the bracket all read;
- one permutation table per arity p and dimension m (an LRU cache of at
  most 64): every axis permutation's variable map (m * 2^p indices, which
  `perm_kernel` hands to `Poly.remap_variables`) and its exponent gather,
  split by sign, and the adjacent transpositions that the alternation
  check applies;
- one convolution layout per shape (an LRU cache of at most 128): the
  units of the outer-axis and the expansion algebras, the inner arguments,
  the expansion algebra's cube layout and, per expansion subset u, the
  positions w -> u | w of the subsets w disjoint from u, held in tuples and
  read-only mappings of immutable values.
A convolution evaluates the inner kernels in the algebra of the outer axes
alone, whose arguments carry no expansion generator, and writes each value's
outer-axis coefficients straight into the outer arguments at the kernel's
expansion subset; an outer kernel's value at w goes straight into one dict
per component, at u | w for the kernel's expansion subset u.  The
antisymmetrizer builds no permuted kernel: it sums the signed integer
numerators once per orbit of monomials under the axis permutations, unless
an odd permutation fixes the orbit, and writes a nonzero sum at every
monomial of the orbit with the permutation's sign.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial
from types import MappingProxyType

from .errors import InternalError, PreconditionError, ValidationError
from .linsolve import gather_rows
from .micro import case_compat_errors, case_solve, get_case
from .poly import Poly, PolyMap, _permutation_gather, _reduced
from .rationals import ONE
from .simplicial import d_cube
from .weil import WeilElement, make_algebra


# ---------------------------------------------------------------------------
# cube coordinates and kernels


def cube_dim(p: int, m: int) -> int:
    return m * (1 << p)


class _CubeLayout:
    """Basis order of the p-cube algebra, read as subsets of {1..p}."""

    __slots__ = ("subsets", "index")

    def __init__(self, p: int):
        alg = make_algebra(d_cube(p))
        self.subsets = tuple(
            (pos, frozenset(i + 1 for i, e in enumerate(exps) if e))
            for pos, exps in enumerate(alg.basis))
        self.index = MappingProxyType({subset: pos for pos, subset in self.subsets})


@lru_cache(maxsize=None)
def _cube_layout(p: int) -> _CubeLayout:
    """The layout of arity p, built once; make_algebra already keeps D^p."""
    return _CubeLayout(p)


def subset_position(p: int, subset) -> int:
    pos = _cube_layout(p).index.get(frozenset(subset))
    if pos is None:
        raise ValidationError(f"subset {set(subset)} is not a subset of 1..{p}")
    return pos


def cube_var(p: int, m: int, subset, j: int) -> int:
    """Variable index of coordinate j of the gamma_subset slot."""
    if not 0 <= j < m:
        raise ValidationError(f"coordinate {j} out of range for dimension {m}")
    return subset_position(p, subset) * m + j


class Kernel:
    """Polynomial map from the p-cube coefficient space to R^m."""

    __slots__ = ("p", "m", "body")

    def __init__(self, p: int, m: int, body: PolyMap):
        if body.in_dim != cube_dim(p, m) or body.out_dim != m:
            raise ValidationError(
                f"kernel body must map {cube_dim(p, m)} -> {m} for arity {p}")
        self.p = p
        self.m = m
        self.body = body

    def _check(self, other):
        if self.p != other.p or self.m != other.m:
            raise ValidationError("kernels of different arity or model dimension")

    def __add__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        self._check(other)
        return Kernel(self.p, self.m, self.body + other.body)

    def __neg__(self):
        return Kernel(self.p, self.m, -self.body)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Kernel":
        return Kernel(self.p, self.m, self.body.scale(c))

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (isinstance(other, Kernel) and self.p == other.p
                and self.m == other.m and self.body == other.body)

    def __bool__(self):
        return bool(self.body)

    def __repr__(self):
        return f"Kernel(p={self.p}, m={self.m}, {self.body!r})"


def pi_kernel(p: int, m: int) -> Kernel:
    """Base-point projection: returns the gamma_() slot of the cube."""
    n = cube_dim(p, m)
    return Kernel(p, m, PolyMap(n, [Poly.var(n, j) for j in range(m)]))


def zero_kernel(p: int, m: int) -> Kernel:
    return Kernel(p, m, PolyMap.zero(cube_dim(p, m), m))


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """Bijection of {1..p}, stored as the image tuple."""

    __slots__ = ("p", "images")

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        p = len(images)
        if sorted(images) != list(range(1, p + 1)):
            raise ValidationError(f"not a permutation of 1..{p}: {images}")
        self.p = p
        self.images = images

    @staticmethod
    def all(p: int):
        return [Permutation(im) for im in iter_permutations(range(1, p + 1))]

    @property
    def sign(self) -> int:
        """(-1) to the number of inversions: pairs i < j whose images come in the other order."""
        im = self.images
        inversions = sum(a > b for i, a in enumerate(im) for b in im[i + 1:])
        return -1 if inversions % 2 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def shuffle_sigma(p: int, q: int) -> Permutation:
    """Block shuffle sending 1..p to q+1..q+p and p+1..p+q to 1..q."""
    return Permutation([q + i for i in range(1, p + 1)] + list(range(1, q + 1)))


# The axis permutations of arity p on R^m, built once.
_PermTable = namedtuple("_PermTable", [
    "maps",     # read-only: the variable map of each permutation, by its images
    "checks",   # the adjacent transpositions, which generate S_p
    "even",     # exponent gathers of the even permutations of S_p
    "odd",      # exponent gathers of the odd permutations of S_p
])


@lru_cache(maxsize=64)
def _perm_table(p: int, m: int) -> _PermTable:
    layout = _cube_layout(p)
    maps, even, odd = {}, [], []
    for sigma in Permutation.all(p):
        mapping = [0] * cube_dim(p, m)
        for pos, subset in layout.subsets:
            tgt = layout.index[frozenset(sigma.images[i - 1] for i in subset)] * m
            mapping[pos * m:(pos + 1) * m] = range(tgt, tgt + m)
        maps[sigma.images] = mapping = tuple(mapping)
        (even if sigma.sign == 1 else odd).append(_permutation_gather(mapping))
    checks = [Permutation([*range(1, i), i + 1, i, *range(i + 2, p + 1)])
              for i in range(1, p)]
    return _PermTable(MappingProxyType(maps), tuple(checks), tuple(even), tuple(odd))


def perm_kernel(k: Kernel, sigma: Permutation) -> Kernel:
    """Precompose with the axis permutation: result(gamma) = k(gamma^sigma)."""
    if sigma.p != k.p:
        raise ValidationError("permutation degree != kernel arity")
    mapping = _perm_table(k.p, k.m).maps[sigma.images]
    comps = [c.remap_variables(mapping) for c in k.body.comps]
    return Kernel(k.p, k.m, PolyMap(k.body.in_dim, comps))


# ---------------------------------------------------------------------------
# form elements


OMEGA0 = "omega0"
OMEGA1 = "omega1"
OMEGA12 = "omega12"
OMEGA13 = "omega13"
OMEGA123 = "omega123"

_CLASS_ORDER = (OMEGA0, OMEGA1, OMEGA12, OMEGA13, OMEGA123)


class FormElem:
    """Expansion-indexed family of kernels.

    coeffs maps subsets of {1..k} to kernels of arity p on R^m, as a
    read-only view.  Zero kernels are dropped; equality compares the
    surviving coefficient data.
    """

    __slots__ = ("p", "k", "m", "coeffs", "class_tag", "_held")

    def __init__(self, p: int, k: int, m: int, coeffs: dict,
                 class_tag: str = OMEGA0):
        if class_tag not in _CLASS_ORDER:
            raise ValidationError(f"unknown class tag {class_tag!r}")
        clean = {}
        for subset, ker in coeffs.items():
            subset = frozenset(subset)
            if any(i < 1 or i > k for i in subset):
                raise ValidationError(f"expansion subset {set(subset)} out of range")
            if ker.p != p or ker.m != m:
                raise ValidationError("kernel arity or dimension mismatch")
            if ker:
                clean[subset] = ker
        self.p = p
        self.k = k
        self.m = m
        self.coeffs = MappingProxyType(clean)
        self.class_tag = class_tag
        self._held = {}

    def coeff(self, subset) -> Kernel:
        ker = self.coeffs.get(frozenset(subset))
        return zero_kernel(self.p, self.m) if ker is None else ker

    def principal(self) -> Kernel:
        if self.k != 1:
            raise PreconditionError("principal part needs expansion arity 1")
        return self.coeff({1})

    def with_tag(self, tag: str) -> "FormElem":
        return FormElem(self.p, self.k, self.m, self.coeffs, tag)

    def __eq__(self, other):
        return (isinstance(other, FormElem) and self.p == other.p
                and self.k == other.k and self.m == other.m
                and self.coeffs == other.coeffs)

    def __repr__(self):
        body = ", ".join(
            f"{sorted(s)}: {ker.body!r}" for s, ker in sorted(
                self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))))
        return f"FormElem(p={self.p}, k={self.k}, m={self.m}, {{{body}}})"


def form_from_kernel(principal: Kernel, class_tag: str = OMEGA1) -> FormElem:
    """Dirac-normalized form with this principal kernel, claiming class_tag."""
    return FormElem(principal.p, 1, principal.m,
                    {frozenset(): pi_kernel(principal.p, principal.m),
                     frozenset({1}): principal}, class_tag)


def vector_field_form(x: PolyMap) -> FormElem:
    """A vector field as an arity-0 form: base identity plus principal value."""
    if x.in_dim != x.out_dim:
        raise ValidationError("vector field must map R^m to R^m")
    return form_from_kernel(Kernel(0, x.in_dim, x), class_tag=OMEGA123)


def identity_one_form(m: int) -> FormElem:
    """The (1,1)-form returning the first-order slot unchanged."""
    n = cube_dim(1, m)
    body = PolyMap(n, [Poly.var(n, cube_var(1, m, {1}, j)) for j in range(m)])
    return form_from_kernel(Kernel(1, m, body), class_tag=OMEGA123)


def perm_act(x: FormElem, sigma: Permutation) -> FormElem:
    """Axis permutation applied to every kernel coefficient."""
    if sigma.p != x.p:
        raise ValidationError("permutation degree != form arity")
    return FormElem(x.p, x.k, x.m,
                    {s: perm_kernel(ker, sigma) for s, ker in x.coeffs.items()},
                    x.class_tag)


# ---------------------------------------------------------------------------
# membership predicates


def is_omega1(x: FormElem) -> bool:
    """Dirac condition: the unit-slot kernel is the base projection."""
    if x.k != 1:
        raise PreconditionError("membership predicates expect expansion arity 1")
    return x.coeff(()) == pi_kernel(x.p, x.m)


def _axis_degrees(p: int, m: int, exps):
    degs = [0] * p
    for pos, subset in _cube_layout(p).subsets:
        for j in range(m):
            e = exps[pos * m + j]
            if e:
                for axis in subset:
                    degs[axis - 1] += e
    return degs


def _multilinear(x: FormElem) -> bool:
    """The principal kernel is degree-1 in every axis grading (see is_omega12)."""
    for comp in x.principal().body.comps:
        for exps in comp.numerators:
            if any(d != 1 for d in _axis_degrees(x.p, x.m, exps)):
                return False
    return True


def _alternating(x: FormElem) -> bool:
    """Permuting cube axes multiplies the principal kernel by the sign.

    The adjacent transpositions generate S_p, and the sign is multiplicative,
    so the kernel alternates iff each transposition negates it.
    """
    ker = x.principal()
    negated = -ker
    return all(perm_kernel(ker, tau) == negated for tau in _perm_table(x.p, x.m).checks)


def _holds(x: FormElem, derive):
    """derive(x), evaluated on the form's first ask and read after that: a
    class verdict (is_omega1, _multilinear or _alternating) or, at arity
    p >= 2, the orbit representative.  An error (k != 1) is never stored."""
    value = x._held.get(derive)
    if value is None:
        value = x._held[derive] = derive(x)
    return value


def is_omega12(x: FormElem) -> bool:
    """Multilinearity: the principal kernel is degree-1 in every axis grading.

    Scaling axis i of the cube by a formal scalar multiplies every gamma_S
    with i in S; the kernel must come out scaled exactly once per axis, which
    holds iff each monomial has axis degree one in every direction.
    """
    return _holds(x, is_omega1) and _holds(x, _multilinear)


def is_omega13(x: FormElem) -> bool:
    """Alternation: permuting cube axes multiplies the kernel by the sign."""
    return _holds(x, is_omega1) and _holds(x, _alternating)


def is_omega123(x: FormElem) -> bool:
    return is_omega12(x) and _holds(x, _alternating)


_PREDICATES = {
    OMEGA0: lambda x: True,
    OMEGA1: lambda x: _holds(x, is_omega1),
    OMEGA12: is_omega12,
    OMEGA13: is_omega13,
    OMEGA123: is_omega123,
}


def verify_class(x: FormElem) -> bool:
    """Check the claimed class tag against the actual predicates."""
    return _PREDICATES[x.class_tag](x)


# ---------------------------------------------------------------------------
# convolution and expanded product


# The parts of a convolution that depend only on its shape.
#
# Built once per (outer_axes, inner_axes, total, m, ext_n) and shared by
# every convolution of that shape; the containers are read-only, and the
# Poly and WeilElement values in them are immutable.
_ConvLayout = namedtuple("_ConvLayout", [
    "axis_one",     # the unit WeilElement of the outer-axis algebra
    "ext_one",      # the unit WeilElement of the expansion algebra
    "args",         # inner-kernel arguments, gamma with outer scalars
    "ext",          # _CubeLayout of the expansion algebra: slot order
    "lands",        # by expansion position of u: read-only {w: u | w}, w disjoint from u
])


@lru_cache(maxsize=128)
def _conv_layout(outer_axes, inner_axes, total, m, ext_n) -> _ConvLayout:
    axis_alg = make_algebra(d_cube(len(outer_axes)))
    n_gamma = cube_dim(total, m)
    outer = _cube_layout(len(outer_axes))

    args = []
    for _pos, s_own in _cube_layout(len(inner_axes)).subsets:
        s_global = {inner_axes[s - 1] for s in s_own}
        for j in range(m):
            coeffs = {}
            for tpos, t_own in outer.subsets:
                t_global = {outer_axes[t - 1] for t in t_own}
                coeffs[tpos] = Poly.var(n_gamma, cube_var(total, m, s_global | t_global, j))
            args.append(WeilElement(axis_alg, coeffs))

    ext = _cube_layout(ext_n)
    lands = tuple(MappingProxyType({w_pos: ext.index[u | w] for w_pos, w in ext.subsets
                                    if not u & w}) for _u_pos, u in ext.subsets)
    return _ConvLayout(
        WeilElement(axis_alg, {0: Poly.one(n_gamma)}),
        WeilElement(make_algebra(d_cube(ext_n)), {0: Poly.one(n_gamma)}),
        tuple(args), ext, lands)


def _conv_core(outer_bar, inner_bar, outer_axes, inner_axes, total, m, ext_n):
    """Evaluate the inner kernels inside the outer ones with Weil scalars.

    outer_bar / inner_bar map expansion subsets to kernels of arity
    len(outer_axes) / len(inner_axes); the axis tuples partition {1..total}.
    Coefficients are polynomials in the total-cube variables.  The inner
    arguments carry only outer-axis generators, so the inner kernels are
    evaluated in the algebra with one square-zero generator per outer axis.
    The coefficient at outer slot t of an inner value becomes the outer
    argument at t, at the position of the inner kernel's expansion subset in
    the algebra on the ext_n expansion generators; no two kernels share a
    position.  An outer kernel's value at expansion position w lands at
    u | w for the kernel's expansion subset u, which is its product with
    eps_u: a w that meets u is dropped (eps_i^2 = 0), and values landing on
    one position add.  Returns expansion subset -> Kernel(total).
    """
    layout = _conv_layout(outer_axes, inner_axes, total, m, ext_n)
    ext_alg, n_gamma = layout.ext_one.algebra, cube_dim(total, m)

    # the outer arguments: polynomial h-cube entries over the expansion algebra
    h_args = [{} for _ in range(m << len(outer_axes))]
    for v_subset, ker in inner_bar.items():
        ext_pos = layout.ext.index[v_subset]
        vals = ker.body.eval(layout.args, layout.axis_one)
        for j in range(m):
            for tpos, poly in vals[j].coeffs.items():
                h_args[tpos * m + j][ext_pos] = poly
    h_args = [WeilElement(ext_alg, c) for c in h_args]

    # each component's polynomials by expansion position
    out = [{} for _ in range(m)]
    for u_subset, ker in outer_bar.items():
        lands = layout.lands[layout.ext.index[u_subset]]
        for acc, val in zip(out, ker.body.eval(h_args, layout.ext_one)):
            for w_pos, poly in val.coeffs.items():
                pos = lands.get(w_pos)
                if pos is not None:
                    acc[pos] = acc[pos] + poly if pos in acc else poly

    zero = Poly.zero(n_gamma)
    result = {}
    for pos, subset in layout.ext.subsets:
        comps = [acc.get(pos, zero) for acc in out]
        if any(comps):
            result[subset] = Kernel(total, m, PolyMap(n_gamma, comps))
    return result


def _kernel_conv(f: Kernel, g: Kernel, under: bool) -> Kernel:
    """The expansion-free case of `_prod`: both kernels as forms with k = 0."""
    if f.m != g.m:
        raise ValidationError("kernels on different model dimensions")
    return _prod(FormElem(f.p, 0, f.m, {(): f}), FormElem(g.p, 0, g.m, {(): g}),
                 under).coeff(())


def conv_under(f: Kernel, g: Kernel) -> Kernel:
    """g evaluated with scalars expanded along f's axes, then f applied."""
    return _kernel_conv(f, g, True)


def conv_over(f: Kernel, g: Kernel) -> Kernel:
    """f evaluated with scalars expanded along g's axes, then g applied."""
    return _kernel_conv(f, g, False)


def _prod(x: FormElem, y: FormElem, under: bool) -> FormElem:
    if x.m != y.m:
        raise ValidationError("forms on different model dimensions")
    ext_n = x.k + y.k
    xbar = dict(x.coeffs)
    ybar = {frozenset(v + x.k for v in subset): ker
            for subset, ker in y.coeffs.items()}
    total = x.p + y.p
    x_axes = tuple(range(1, x.p + 1))
    y_axes = tuple(range(x.p + 1, total + 1))
    if under:
        out = _conv_core(xbar, ybar, x_axes, y_axes, total, x.m, ext_n)
    else:
        out = _conv_core(ybar, xbar, y_axes, x_axes, total, x.m, ext_n)
    return FormElem(total, ext_n, x.m, out)


def prod_under(x: FormElem, y: FormElem) -> FormElem:
    """Expansion-extended convolution, x's directions first."""
    return _prod(x, y, True)


def prod_over(x: FormElem, y: FormElem) -> FormElem:
    """Expansion-extended convolution with the roles swapped."""
    return _prod(x, y, False)


# ---------------------------------------------------------------------------
# antisymmetrizers


def antisymmetrize(x: FormElem, factor=ONE) -> FormElem:
    """Signed sum over all axis permutations of the principal kernel, times factor.

    The sum is taken once per orbit of monomials under the axis
    permutations.  With g_s the exponent gather of the permutation s and P
    the kernel's coefficients, the sum has coefficient R(f) = sum_s sign(s) *
    P[g_s(f)] at a monomial f, and sign(s) * R(f) at g_s(f).  If an odd
    permutation t fixes f, s -> s t pairs each term of R(f) with its
    negative, and the even images are the odd ones: the orbit sums to zero.
    So each orbit that meets the kernel's support is gathered once, odd
    images first.  If f is among them nothing more is gathered or read;
    otherwise R(f) is read and the orbit written if it is nonzero.  A
    cancelled orbit is marked, so no later member of the support gathers it
    again.  This is the full sum for every kernel, alternating or not, at
    p! gathers per orbit (p!/2 when an odd permutation fixes it) rather than
    p! per term.  Permuting variables keeps a component's denominator, so
    the orbit sums are integer sums of its numerators and factor scales them
    once.  The base projection is symmetric, so it is carried unchanged
    rather than picking up a factor p!.
    """
    ker = x.principal()
    table = _perm_table(x.p, x.m)
    even, odd = table.even, table.odd
    p, q = factor.numerator, factor.denominator
    n = ker.body.in_dim
    comps = []
    for comp in ker.body.comps:
        num = comp.numerators
        get = num.get
        out, cancelled = {}, set()
        for f in num:
            if f in out or f in cancelled:
                continue
            down = [g(f) for g in odd]
            if f in down:
                cancelled.update(down)
                continue
            up = [g(f) for g in even]
            r = p * (sum([get(e, 0) for e in up]) - sum([get(e, 0) for e in down]))
            if r:
                # no odd permutation fixes f, so no monomial is both an even
                # and an odd image of it, and each is written once
                out.update(dict.fromkeys(up, r))
                out.update(dict.fromkeys(down, -r))
            else:
                cancelled.update(up)
                cancelled.update(down)
        comps.append(_reduced(n, out, comp.denominator * q))
    total = Kernel(x.p, x.m, PolyMap(n, comps))
    return FormElem(x.p, 1, x.m,
                    {frozenset(): x.coeff(()), frozenset({1}): total},
                    x.class_tag)


def _orbit_representative(x: FormElem) -> FormElem:
    """The Dirac form whose `antisymmetrize` is x, one monomial per kernel orbit.

    x alternates.  Each orbit of monomials under the axis permutations that
    meets its principal kernel K keeps its first monomial f, with
    coefficient K[f] * |orbit| / p!.  No odd permutation fixes f (it would
    give K[f] = -K[f]), so the p!/|orbit| permutations that fix f all add it
    with sign +1: the signed sum is K[f] at f, and K on the rest of the
    orbit because K alternates.  The orbits are read from `_perm_table`'s
    gathers, p! per orbit that meets K.  Arity 0 and 1 forms are their own
    representatives; any other form holds its own once built (`_holds`).
    """
    if x.p < 2:
        return x
    table = _perm_table(x.p, x.m)
    gathers = table.even + table.odd
    ker = x.principal()
    n, den = ker.body.in_dim, factorial(x.p)
    comps = []
    for comp in ker.body.comps:
        seen, out = set(), {}
        for f, c in comp.numerators.items():
            if f not in seen:
                orbit = {g(f) for g in gathers}
                seen |= orbit
                out[f] = c * len(orbit)
        comps.append(Poly.from_numerators(n, out, comp.denominator * den))
    rep = Kernel(x.p, x.m, PolyMap(n, comps))
    return FormElem(x.p, 1, x.m, {frozenset(): x.coeff(()), frozenset({1}): rep},
                    x.class_tag)


# ---------------------------------------------------------------------------
# the bracket tower


def _bracket_core(x: FormElem, y: FormElem, tag: str = OMEGA1) -> FormElem:
    """Strong difference of the two expanded products, at kernel level.

    The square's legs (D^2) and the tangent (D^1) are read in cube-layout
    order; the tangent's base is the projection because both inputs are
    Dirac-normalized.
    """
    a = prod_under(x, y)
    b = prod_over(x, y)
    case = get_case("square")
    square = _cube_layout(2).subsets
    ca = {pos: k for pos, s in square if (k := a.coeffs.get(s))}
    cb = {pos: k for pos, s in square if (k := b.coeffs.get(s))}
    bad = case_compat_errors(case, ca, cb)
    if bad:
        raise InternalError(
            f"expanded products disagree below the corner at {bad[0]}")
    tangent = gather_rows(case.extract.sparse_rows(), case_solve(case, ca, cb))
    return FormElem(x.p + y.p, 1, x.m,
                    {s: tangent[pos] for pos, s in _cube_layout(1).subsets
                     if pos in tangent}, tag)


def _require(pred, name: str, x: FormElem, y: FormElem):
    """Check one class predicate on the first input, then on the second."""
    for label, form in (("first", x), ("second", y)):
        if not pred(form):
            raise PreconditionError(f"{label} form fails {name}")


def bracket_l1(x: FormElem, y: FormElem) -> FormElem:
    """Unnormalized bracket of Dirac-normalized forms."""
    _require(_PREDICATES[OMEGA1], "is_omega1", x, y)
    return _bracket_core(x, y)


def bracket_l12(x: FormElem, y: FormElem) -> FormElem:
    """Bracket restricted to multilinear forms; multilinearity is preserved."""
    _require(is_omega12, "is_omega12", x, y)
    return _bracket_core(x, y, OMEGA12)


def _graded_bracket(x: FormElem, y: FormElem, tag: str) -> FormElem:
    """A(L(x, y)) / (p! q!) for checked inputs, from their orbit representatives.

    A is the signed sum over the axis permutations and L the strong
    difference.  L is bilinear in the principal kernels and natural in each
    argument's axes, L(s.a, t.b) = (s x t).L(a, b), and A((s x t).c) =
    sign(s) sign(t) A(c); so A(L(A a, A b)) = p! q! A(L(a, b)).  With a and
    b the representatives (A a = K_x, A b = K_y) that is exact, and the
    convolutions expand one monomial per orbit of each kernel.  An input of
    arity 0 or 1 is its own representative and holds no reference to itself.
    """
    x_rep, y_rep = (z if z.p < 2 else _holds(z, _orbit_representative) for z in (x, y))
    return antisymmetrize(_bracket_core(x_rep, y_rep, tag))


def bracket_fn13(x: FormElem, y: FormElem) -> FormElem:
    """Graded bracket on alternating forms: antisymmetrized strong difference."""
    _require(is_omega13, "is_omega13", x, y)
    return _graded_bracket(x, y, OMEGA13)


def bracket_fn123(x: FormElem, y: FormElem) -> FormElem:
    """Graded bracket on alternating multilinear forms."""
    _require(is_omega12, "is_omega12", x, y)
    _require(is_omega13, "is_omega13", x, y)
    return _graded_bracket(x, y, OMEGA123)


BRACKETS = {
    "L1": bracket_l1,
    "L12": bracket_l12,
    "FN13": bracket_fn13,
    "FN123": bracket_fn123,
}
