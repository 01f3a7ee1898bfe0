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
points, is the bracket.  Antisymmetrizing with 1/(p! q!) yields the graded
bracket on alternating forms.

The constant combinatorics are worked out once and cached, which is safe
because none of them ever changes:
- one cube layout per arity p (the basis-order subsets of {1..p} and their
  positions, 2^p entries, kept for the life of the process like the cube
  algebra it is read from);
- one variable map per permutation (an LRU cache of at most 1024 maps of
  m * 2^p indices each), which `Poly.remap_variables` applies as a gather;
- one permutation table per arity p and dimension m (an LRU cache of at
  most 64): every axis permutation's exponent gather, split by sign, and
  the adjacent transpositions that the alternation check applies;
- one convolution layout per shape (an LRU cache of at most 128): the two
  algebras and their units, the inner arguments, the scalar split table and
  the expansion positions, held in tuples and read-only mappings of
  immutable values.
A convolution embeds each kernel value at its expansion subset by
re-indexing (`WeilElement.times_basis`), not by a product.  The
antisymmetrizer builds no permuted kernel: it sums the signed integer
numerators once per orbit of monomials under the axis permutations, and
writes the result at every monomial of the orbit with the permutation's sign.
"""

from collections.abc import Mapping
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial
from types import MappingProxyType
from typing import NamedTuple

from .errors import InternalError, PreconditionError, ValidationError
from .micro import case_compat_errors, case_solve, get_case
from .morphisms import apply_columns
from .poly import Poly, PolyMap, _permutation_gather
from .rationals import ONE, Q
from .simplicial import d_cube
from .weil import WeilAlgebra, WeilElement, make_algebra


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
        self.index = {subset: pos for pos, subset in self.subsets}


@lru_cache(maxsize=None)
def _cube_layout(p: int) -> _CubeLayout:
    """The layout of arity p, built once; make_algebra already keeps D^p."""
    return _CubeLayout(p)


def cube_positions(p: int):
    """Subsets of {1..p} in basis order, as (position, frozenset) pairs."""
    return _cube_layout(p).subsets


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
    def identity(p: int) -> "Permutation":
        return Permutation(range(1, p + 1))

    @staticmethod
    def all(p: int):
        return [Permutation(im) for im in iter_permutations(range(1, p + 1))]

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def after(self, other: "Permutation") -> "Permutation":
        """self composed after other: i -> self(other(i))."""
        if self.p != other.p:
            raise ValidationError("permutations of different degree")
        return Permutation(self.images[other.images[i - 1] - 1] for i in range(1, self.p + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * self.p
        for i, im in enumerate(self.images):
            inv[im - 1] = i + 1
        return Permutation(inv)

    @property
    def sign(self) -> int:
        seen = [False] * self.p
        sign = 1
        for i in range(self.p):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def shuffle_sigma(p: int, q: int) -> Permutation:
    """Block shuffle sending 1..p to q+1..q+p and p+1..p+q to 1..q."""
    return Permutation([q + i for i in range(1, p + 1)] + list(range(1, q + 1)))


@lru_cache(maxsize=1024)
def _perm_map(p: int, m: int, images: tuple) -> tuple:
    """Variable map of the axis permutation with these images on arity p, R^m."""
    layout = _cube_layout(p)
    mapping = [0] * cube_dim(p, m)
    for pos, subset in layout.subsets:
        tgt = layout.index[frozenset(images[i - 1] for i in subset)]
        for j in range(m):
            mapping[pos * m + j] = tgt * m + j
    return tuple(mapping)


class _PermTable(NamedTuple):
    """The axis permutations of arity p on R^m, built once."""

    checks: tuple   # the adjacent transpositions, which generate S_p
    even: tuple     # exponent gathers of the even permutations of S_p
    odd: tuple      # exponent gathers of the odd permutations of S_p


@lru_cache(maxsize=64)
def _perm_table(p: int, m: int) -> _PermTable:
    even, odd = [], []
    for sigma in Permutation.all(p):
        gather = _permutation_gather(_perm_map(p, m, sigma.images))
        (even if sigma.sign == 1 else odd).append(gather)
    checks = [Permutation([*range(1, i), i + 1, i, *range(i + 2, p + 1)])
              for i in range(1, p)]
    return _PermTable(tuple(checks), tuple(even), tuple(odd))


def perm_kernel(k: Kernel, sigma: Permutation) -> Kernel:
    """Precompose with the axis permutation: result(gamma) = k(gamma^sigma)."""
    if sigma.p != k.p:
        raise ValidationError("permutation degree != kernel arity")
    mapping = _perm_map(k.p, k.m, sigma.images)
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

VIEW_EXPANDED = "expanded"    # nilpotent expansion of kernel maps
VIEW_POINTWISE = "pointwise"  # map sending each cube to a tangent vector


class FormElem:
    """Expansion-indexed family of kernels.

    coeffs maps subsets of {1..k} to kernels of arity p on R^m.  Zero
    kernels are dropped; equality compares the surviving coefficient data
    and ignores the view marker.
    """

    __slots__ = ("p", "k", "m", "coeffs", "class_tag", "view")

    def __init__(self, p: int, k: int, m: int, coeffs: dict,
                 class_tag: str = OMEGA0, view: str = VIEW_EXPANDED):
        if class_tag not in _CLASS_ORDER:
            raise ValidationError(f"unknown class tag {class_tag!r}")
        if view not in (VIEW_EXPANDED, VIEW_POINTWISE):
            raise ValidationError(f"unknown view {view!r}")
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
        self.coeffs = clean
        self.class_tag = class_tag
        self.view = view

    def coeff(self, subset) -> Kernel:
        ker = self.coeffs.get(frozenset(subset))
        return zero_kernel(self.p, self.m) if ker is None else ker

    def principal(self) -> Kernel:
        if self.k != 1:
            raise PreconditionError("principal part needs expansion arity 1")
        return self.coeff({1})

    def with_tag(self, tag: str) -> "FormElem":
        return FormElem(self.p, self.k, self.m, self.coeffs, tag, self.view)

    def __eq__(self, other):
        return (isinstance(other, FormElem) and self.p == other.p
                and self.k == other.k and self.m == other.m
                and self.coeffs == other.coeffs)

    def __repr__(self):
        body = ", ".join(
            f"{sorted(s)}: {ker.body!r}" for s, ker in sorted(
                self.coeffs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))))
        return f"FormElem(p={self.p}, k={self.k}, m={self.m}, {{{body}}})"


def form_from_kernel(principal, p: int = None, m: int = None,
                     class_tag: str = OMEGA1) -> FormElem:
    """Dirac-normalized form with the given principal kernel."""
    if isinstance(principal, PolyMap):
        if p is None or m is None:
            raise ValidationError("arity and dimension required for a bare map")
        principal = Kernel(p, m, principal)
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


def transpose_views(x: FormElem) -> FormElem:
    """Swap the two encodings; pure relabeling in this representation."""
    view = VIEW_POINTWISE if x.view == VIEW_EXPANDED else VIEW_EXPANDED
    return FormElem(x.p, x.k, x.m, x.coeffs, x.class_tag, view)


def perm_act(x: FormElem, sigma: Permutation) -> FormElem:
    """Axis permutation applied to every kernel coefficient."""
    if sigma.p != x.p:
        raise ValidationError("permutation degree != form arity")
    return FormElem(x.p, x.k, x.m,
                    {s: perm_kernel(ker, sigma) for s, ker in x.coeffs.items()},
                    x.class_tag, x.view)


# ---------------------------------------------------------------------------
# membership predicates


def is_omega1(x: FormElem) -> bool:
    """Dirac condition: the unit-slot kernel is the base projection."""
    if x.k != 1:
        raise PreconditionError("membership predicates expect expansion arity 1")
    return x.coeff(()) == pi_kernel(x.p, x.m)


def _axis_degrees(p: int, m: int, exps):
    degs = [0] * p
    for pos, subset in cube_positions(p):
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


def is_omega12(x: FormElem) -> bool:
    """Multilinearity: the principal kernel is degree-1 in every axis grading.

    Scaling axis i of the cube by a formal scalar multiplies every gamma_S
    with i in S; the kernel must come out scaled exactly once per axis, which
    holds iff each monomial has axis degree one in every direction.
    """
    return is_omega1(x) and _multilinear(x)


def is_omega13(x: FormElem) -> bool:
    """Alternation: permuting cube axes multiplies the kernel by the sign."""
    return is_omega1(x) and _alternating(x)


def is_omega123(x: FormElem) -> bool:
    return is_omega12(x) and _alternating(x)


_PREDICATES = {
    OMEGA0: lambda x: True,
    OMEGA1: is_omega1,
    OMEGA12: is_omega12,
    OMEGA13: is_omega13,
    OMEGA123: is_omega123,
}


def verify_class(x: FormElem) -> bool:
    """Check the claimed class tag against the actual predicates."""
    return _PREDICATES[x.class_tag](x)


# ---------------------------------------------------------------------------
# convolution and expanded product


class _ConvLayout(NamedTuple):
    """The parts of a convolution that depend only on its shape.

    Built once per (outer_axes, inner_axes, total, m, ext_n) and shared by
    every convolution of that shape; the containers are read-only, and the
    Poly and WeilElement values in them are immutable.
    """

    big_alg: WeilAlgebra    # expansion generators, then one per outer axis
    ext_alg: WeilAlgebra    # expansion generators only
    n_gamma: int            # variables of the total cube
    big_one: WeilElement
    ext_one: WeilElement
    args: tuple             # inner-kernel arguments, gamma with outer scalars
    inner_pos: Mapping      # expansion subset -> its position in big_alg
    split: tuple            # big_alg position -> (outer position, ext position)
    ext_pos: Mapping        # expansion subset -> its position in ext_alg
    ext_subsets: tuple      # (position, subset) pairs of ext_alg, basis order


@lru_cache(maxsize=128)
def _conv_layout(outer_axes, inner_axes, total, m, ext_n) -> _ConvLayout:
    po, qi = len(outer_axes), len(inner_axes)
    big_alg = make_algebra(d_cube(ext_n + po))
    ext_alg = make_algebra(d_cube(ext_n))
    n_gamma = cube_dim(total, m)
    big = _cube_layout(ext_n + po)
    ext = _cube_layout(ext_n)
    outer = _cube_layout(po)

    args = []
    for _pos, s_own in _cube_layout(qi).subsets:
        s_global = {inner_axes[s - 1] for s in s_own}
        for j in range(m):
            coeffs = {}
            for _tpos, t_own in outer.subsets:
                t_global = {outer_axes[t - 1] for t in t_own}
                var = cube_var(total, m, s_global | t_global, j)
                coeffs[big.index[frozenset(ext_n + t for t in t_own)]] = Poly.var(n_gamma, var)
            args.append(WeilElement(big_alg, coeffs))

    split = [None] * len(big.subsets)
    for pos, subset in big.subsets:
        t_own = frozenset(i - ext_n for i in subset if i > ext_n)
        ext_subset = frozenset(i for i in subset if i <= ext_n)
        split[pos] = (outer.index[t_own], ext.index[ext_subset])

    return _ConvLayout(
        big_alg, ext_alg, n_gamma,
        WeilElement(big_alg, {0: Poly.one(n_gamma)}),
        WeilElement(ext_alg, {0: Poly.one(n_gamma)}),
        tuple(args),
        MappingProxyType({subset: big.index[subset] for _pos, subset in ext.subsets}),
        tuple(split), MappingProxyType(ext.index), ext.subsets)


def _conv_core(outer_bar, inner_bar, outer_axes, inner_axes, total, m, ext_n):
    """Evaluate the inner kernels inside the outer ones with Weil scalars.

    outer_bar / inner_bar map expansion subsets to kernels of arity
    len(outer_axes) / len(inner_axes); the axis tuples partition {1..total}.
    Scalars live in the algebra on ext_n expansion generators tensored with
    one square-zero generator per outer axis; coefficients are polynomials in
    the total-cube variables.  Each kernel's values are embedded at their
    expansion subset by re-indexing (`WeilElement.times_basis`).  Returns
    expansion subset -> Kernel(total).
    """
    layout = _conv_layout(outer_axes, inner_axes, total, m, ext_n)
    n_gamma = layout.n_gamma

    inner_vals = [WeilElement(layout.big_alg, {}) for _ in range(m)]
    for v_subset, ker in inner_bar.items():
        pos = layout.inner_pos[v_subset]
        vals = ker.body.eval(layout.args, layout.big_one)
        for j in range(m):
            inner_vals[j] = inner_vals[j] + vals[j].times_basis(pos)

    # split the scalars: polynomial h-cube entries over the expansion algebra
    split = layout.split
    h_args = [{} for _ in range(m << len(outer_axes))]
    for j in range(m):
        for pos, poly in inner_vals[j].coeffs.items():
            tpos, ext_pos = split[pos]
            h_args[tpos * m + j][ext_pos] = poly
    h_args = [WeilElement(layout.ext_alg, c) for c in h_args]

    out_vals = [WeilElement(layout.ext_alg, {}) for _ in range(m)]
    for u_subset, ker in outer_bar.items():
        pos = layout.ext_pos[u_subset]
        vals = ker.body.eval(h_args, layout.ext_one)
        for j in range(m):
            out_vals[j] = out_vals[j] + vals[j].times_basis(pos)

    result = {}
    for pos, subset in layout.ext_subsets:
        comps = [out_vals[j].coeffs.get(pos, Poly.zero(n_gamma)) for j in range(m)]
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
    P[g_s(f)] at a monomial f, and sign(s) * R(f) at g_s(f).  So each orbit
    that meets the kernel's support is gathered, read and written once, and
    an orbit that an odd permutation fixes comes out zero.  This is the full
    sum for every kernel, alternating or not, at a cost of p! gathers per
    orbit rather than p! per term.  Permuting variables keeps a component's
    denominator, so the orbit sums are integer sums of its numerators and
    factor scales them once.  The base projection is symmetric, so it is
    carried unchanged rather than picking up a factor p!.
    """
    ker = x.principal()
    _checks, even, odd = _perm_table(x.p, x.m)
    p, q = factor.numerator, factor.denominator
    n = ker.body.in_dim
    comps = []
    for comp in ker.body.comps:
        num = comp.numerators
        get = num.get
        out = {}
        for f in num:
            if f in out:
                continue
            up = [g(f) for g in even]
            down = [g(f) for g in odd]
            r = p * (sum([get(e, 0) for e in up]) - sum([get(e, 0) for e in down]))
            # the whole orbit is covered, zeros included; from_numerators
            # drops them.  For r != 0 no monomial is both an even and an odd
            # image of f, so each is written once.
            out.update(dict.fromkeys(up, r))
            out.update(dict.fromkeys(down, -r))
        comps.append(Poly.from_numerators(n, out, comp.denominator * q))
    total = Kernel(x.p, x.m, PolyMap(n, comps))
    return FormElem(x.p, 1, x.m,
                    {frozenset(): x.coeff(()), frozenset({1}): total},
                    x.class_tag, x.view)


def antisymmetrize_scaled(x: FormElem, parts) -> FormElem:
    """Antisymmetrize and divide by the product of part factorials."""
    denom = 1
    for part in parts:
        denom *= factorial(part)
    return antisymmetrize(x, Q(1, denom))


# ---------------------------------------------------------------------------
# the bracket tower


def _bracket_core(x: FormElem, y: FormElem) -> FormElem:
    """Strong difference of the two expanded products, at kernel level."""
    a = prod_under(x, y)
    b = prod_over(x, y)
    case = get_case("square")
    order = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    ca = [a.coeff(s) for s in order]
    cb = [b.coeff(s) for s in order]
    bad = case_compat_errors(case, ca, cb)
    if bad:
        raise InternalError(
            f"expanded products disagree below the corner at {bad[0]}")
    apex = case_solve(case, ca, cb)
    # the extracted tangent: base at basis index 0, principal part at 1
    tangent = apply_columns(case.extract.columns(), dict(enumerate(apex)))
    total = x.p + y.p
    zero = zero_kernel(total, x.m)
    base, principal = tangent.get(0, zero), tangent.get(1, zero)
    if base != pi_kernel(total, x.m):
        raise InternalError("bracket base is not the projection")
    return FormElem(total, 1, x.m, {frozenset(): base, frozenset({1}): principal}, OMEGA1)


def _require(pred, name: str, x: FormElem, y: FormElem):
    """Check one class predicate on the first input, then on the second."""
    for label, form in (("first", x), ("second", y)):
        if not pred(form):
            raise PreconditionError(f"{label} form fails {name}")


def bracket_l1(x: FormElem, y: FormElem) -> FormElem:
    """Unnormalized bracket of Dirac-normalized forms."""
    _require(is_omega1, "is_omega1", x, y)
    return _bracket_core(x, y)


def bracket_l12(x: FormElem, y: FormElem) -> FormElem:
    """Bracket restricted to multilinear forms; multilinearity is preserved."""
    _require(is_omega12, "is_omega12", x, y)
    return _bracket_core(x, y).with_tag(OMEGA12)


def bracket_fn13(x: FormElem, y: FormElem) -> FormElem:
    """Graded bracket on alternating forms: antisymmetrized strong difference."""
    _require(is_omega13, "is_omega13", x, y)
    raw = _bracket_core(x, y)
    return antisymmetrize_scaled(raw, (x.p, y.p)).with_tag(OMEGA13)


def bracket_fn123(x: FormElem, y: FormElem) -> FormElem:
    """Graded bracket on alternating multilinear forms."""
    _require(is_omega12, "is_omega12", x, y)
    # is_omega12 has checked the Dirac condition; is_omega13 would again
    _require(_alternating, "is_omega13", x, y)
    raw = _bracket_core(x, y)
    return antisymmetrize_scaled(raw, (x.p, y.p)).with_tag(OMEGA123)


BRACKETS = {
    "L1": bracket_l1,
    "L12": bracket_l12,
    "FN13": bracket_fn13,
    "FN123": bracket_fn123,
}
