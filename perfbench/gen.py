"""Seeded inputs for the benchmark workloads.

The value distributions mirror fnlab.verify.Sampler (numerators in -9..9,
denominators in 1..3, two-term polynomials, constraint-solved six-tuples of
cubes), but the generator lives here so that editing the library's own
sampler cannot change a workload.  The same (workload, seed) pair always
yields the same stream of inputs; the program only ever sees what this
module produces.
"""

import json
import random
from itertools import combinations, product as iter_product

from fnlab import serialize
from fnlab.forms import (OMEGA123, Kernel, antisymmetrize, cube_dim, cube_var,
                         form_from_kernel)
from fnlab.micro import TRIANGLE_LABELS, amalgamation_cases
from fnlab.poly import Poly, PolyMap
from fnlab.rationals import Q
from fnlab.simplicial import SimplicialObject, d_cube, d_order, d_paren, tensor

# Arity triples with total arity <= 4: at total arity 6 the antisymmetrizer
# sums 720 permutations and a single op can take seconds, which would let one
# input set the whole run.
ARITY_TRIPLES = tuple(t for t in iter_product(range(3), repeat=3) if sum(t) <= 4)
BRACKET_SHAPES = tuple((t, m) for t in ARITY_TRIPLES for m in (1, 2))

BRACKET_KINDS = ("FN13", "FN123")

# Ops per throughput window: whole decks (see Gen.deal), so every window
# holds the same mix of op shapes.  bracket_tower deals 46 shapes per
# bracket kind and alternates kinds; jet_eval's decks have 4 and 3 cards.
WINDOW_OPS = {"bracket_tower": 2 * len(BRACKET_SHAPES), "six_cubes": 3 * 16,
              "jet_eval": 12 * 8}

# jet_eval names a new object on one op in four, so make_algebra misses its
# cache on those ops and hits it on the rest.
JET_NOVEL_DECK = (True, False, False, False)
JET_DIM_RANGE = (5, 32)


def _independent_sets(n: int, pairs) -> int:
    """Subsets of {1..n} containing no vanishing pair: the algebra's dimension."""
    adj = [0] * n
    for i, j in pairs:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return sum(1 for mask in range(1 << n)
               if not any(mask >> v & 1 and adj[v] & mask for v in range(n)))


def _jet_object_pool():
    """Every object jet_eval may name, with its dimension, in a fixed order.

    Single objects, ordered tensor products of up to four small factors
    (tensor products have no cross relations, so dimensions multiply), and
    objects on three to six square-zero generators in which a chosen set of
    pairwise products vanish (between d_cube, where none do, and d_paren,
    where all do).  Kept when the algebra has dimension 5..32.  Once a run
    has named every object in the pool, its ops reuse objects only.  Objects the library builds for its gluing cases are left
    out so that a novel pick really is a first construction.
    """
    lo, hi = JET_DIM_RANGE
    factors = ([(d_order(k), k + 1) for k in range(1, 16)]
               + [(d_paren(n), n + 1) for n in range(2, 8)]
               + [(d_cube(n), 1 << n) for n in range(1, 5)])
    candidates = ([(d_order(k), k + 1) for k in range(4, 32)]
                  + [(d_paren(n), n + 1) for n in range(4, 9)] + [(d_cube(5), 32)])
    products = factors
    for _ in range(3):
        products = [(tensor(a, b), da * db) for a, da in products
                    for b, db in factors if da * db <= hi]
        candidates.extend(products)
    # every pair set on 3..5 generators, and a fixed sample of those on 6
    sample = random.Random("perfbench/jet_pool").sample(range(1, 1 << 15), 1500)
    for n, masks in ((3, range(1, 1 << 3)), (4, range(1, 1 << 6)),
                     (5, range(1, 1 << 10)), (6, sample)):
        all_pairs = list(combinations(range(1, n + 1), 2))
        for mask in masks:
            pairs = [pair for k, pair in enumerate(all_pairs) if mask >> k & 1]
            candidates.append((SimplicialObject(n, frozenset(pairs)),
                               _independent_sets(n, pairs)))
    reserved = {d_cube(n) for n in range(5)} | {d_paren(2)}
    for case in amalgamation_cases().values():
        for mor in (case.twisted, case.flat, case.shared_incl, case.extract):
            reserved.update((mor.source, mor.target))
    pool = {obj: dim for obj, dim in candidates
            if lo <= dim <= hi and obj not in reserved}
    return sorted(pool.items(), key=lambda item: repr(item[0]))


class Gen:
    """Deterministic input stream for one workload and seed."""

    def __init__(self, workload: str, seed):
        self.workload = workload
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.index = 0
        self._decks = {}
        self._jet_pool = None
        self._jet_seen = []

    def deal(self, name: str, cards):
        """Next card from a shuffled deck of `cards`, reshuffled when empty.

        Ops draw their shape (arities, m, whether the object is new) this
        way, so every stretch of len(cards) ops has the same mix and runs of
        different seeds differ only in the random values inside each shape.
        """
        deck = self._decks.get(name)
        if not deck:
            deck = list(cards)
            self.rng.shuffle(deck)
            self._decks[name] = deck
        return deck.pop()

    # scalars and polynomials ---------------------------------------------

    def rational(self) -> Q:
        return Q(self.rng.randint(-9, 9), self.rng.choice((1, 2, 3)))

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

    def polymap(self, in_dim: int, out_dim: int, deg: int) -> PolyMap:
        return PolyMap(in_dim, [self.poly(in_dim, deg) for _ in range(out_dim)])

    # forms -----------------------------------------------------------------

    def _partition(self, p: int):
        axes = list(range(1, p + 1))
        self.rng.shuffle(axes)
        blocks = []
        while axes:
            size = self.rng.randint(1, len(axes))
            blocks.append(frozenset(axes[:size]))
            axes = axes[size:]
        return blocks

    def omega13_form(self, p: int, m: int, deg: int):
        ker = Kernel(p, m, self.polymap(cube_dim(p, m), m, deg))
        return antisymmetrize(form_from_kernel(ker)).with_tag("omega13")

    def omega123_form(self, p: int, m: int, deg: int):
        n = cube_dim(p, m)
        comps = []
        for _ in range(m):
            acc = Poly.zero(n)
            for _ in range(2):
                term = Poly.const(n, self.rational())
                for block in self._partition(p):
                    term = term * Poly.var(n, cube_var(p, m, block, self.rng.randrange(m)))
                for _ in range(self.rng.randint(0, max(deg - 1, 0))):
                    term = term * Poly.var(n, cube_var(p, m, (), self.rng.randrange(m)))
                acc = acc + term
            comps.append(acc)
        ker = Kernel(p, m, PolyMap(n, comps))
        return antisymmetrize(form_from_kernel(ker)).with_tag(OMEGA123)

    # one input per op --------------------------------------------------------

    def next(self) -> dict:
        """The next op's input."""
        i = self.index
        self.index += 1
        return getattr(self, "_" + self.workload)(i)

    def _bracket_tower(self, i: int) -> dict:
        kind = BRACKET_KINDS[i % 2]
        arities, m = self.deal(kind, BRACKET_SHAPES)
        make = self.omega13_form if kind == "FN13" else self.omega123_form
        wire = [json.dumps(serialize.form_to_json(make(p, m, 2)), separators=(",", ":"))
                for p in arities]
        return {"kind": kind, "arities": arities, "m": m, "wire": wire}

    def _six_cubes(self, i: int) -> dict:
        m = self.deal("m", (1, 2, 3))
        base4 = [self.vector(m) for _ in range(4)]
        slots = {pair: (self.vector(m), self.vector(m))
                 for pair in [(1, 2), (1, 3), (2, 3)]}
        corners = {label: self.vector(m) for label in TRIANGLE_LABELS}
        return {"m": m, "base4": base4, "slots": slots, "corners": corners}

    def _jet_eval(self, i: int) -> dict:
        if self._jet_pool is None:
            self._jet_pool = _jet_object_pool()
            self.rng.shuffle(self._jet_pool)
        novel = (self.deal("novel", JET_NOVEL_DECK) or not self._jet_seen) \
            and bool(self._jet_pool)
        if novel:
            obj, dim = self._jet_pool.pop()
            self._jet_seen.append((obj, dim))
        else:
            obj, dim = self.rng.choice(self._jet_seen)
        m = self.deal("m", (1, 2, 3))
        return {"obj": obj, "novel": novel, "m": m,
                "f": self.polymap(m, m, 3), "g": self.polymap(m, m, 3),
                "x": [[self.rational() for _ in range(dim)] for _ in range(m)]}
