"""Combinatorial names of infinitesimal objects.

A SimplicialObject records the data (n, relations, bounds) describing a space
of nilpotent tuples: n generators d_1..d_n, each with d_i^bound = 0, together
with a set of square-free products d_{i1}...d_{ik} that are forced to vanish.
Relations are strictly increasing index tuples over 1..n.  Bounds default to
2 (square-zero generators); larger bounds model higher-order nilpotents and
are only supported with no relations touching them downstream.

A SimplicialObject is an immutable value: two built separately from the same
data are equal and hash alike, so make_algebra's cache returns one algebra
for both.  It is a plain slotted class, so importing it loads no dataclass
machinery.
"""

from .errors import ValidationError


class SimplicialObject:
    __slots__ = ("n", "relations", "bounds")

    def __init__(self, n: int, relations: frozenset = frozenset(), bounds: tuple = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "bounds", bounds)
        # a method of its own, so a tracer can count constructions by wrapping it
        self.__post_init__()

    def __post_init__(self):
        """Validate and normalize the fields once, at construction."""
        if self.n < 0:
            raise ValidationError("generator count must be >= 0")
        relations = frozenset(tuple(int(i) for i in seq) for seq in self.relations)
        object.__setattr__(self, "relations", relations)
        for seq in relations:
            if len(seq) < 1:
                raise ValidationError("empty vanishing product")
            if any(i < 1 or i > self.n for i in seq):
                raise ValidationError(f"index out of range in {seq}")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValidationError(f"product indices must strictly increase: {seq}")
        bounds = self.bounds
        if bounds is None:
            bounds = (2,) * self.n
        bounds = tuple(int(b) for b in bounds)
        if len(bounds) != self.n:
            raise ValidationError("one power bound per generator required")
        if any(b < 2 for b in bounds):
            raise ValidationError("power bounds must be >= 2")
        object.__setattr__(self, "bounds", bounds)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.relations, self.bounds) == (other.n, other.relations, other.bounds)

    def __hash__(self):
        return hash((self.n, self.relations, self.bounds))

    def __reduce__(self):
        return SimplicialObject, (self.n, self.relations, self.bounds)

    @property
    def square_free(self) -> bool:
        return all(b == 2 for b in self.bounds)

    def __repr__(self):
        rel = "" if not self.relations else "{%s}" % ",".join(
            str(s) for s in sorted(self.relations))
        if not self.square_free:
            return f"D^{self.n}{rel}[bounds={self.bounds}]"
        return f"D^{self.n}{rel}"


def d_cube(n: int) -> SimplicialObject:
    """D^n: n independent square-zero generators, no relations."""
    return SimplicialObject(n)


def d_paren(n: int) -> SimplicialObject:
    """D(n): all pairwise products vanish."""
    rels = frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    return SimplicialObject(n, rels)


def d_order(k: int) -> SimplicialObject:
    """One generator with d^(k+1) = 0; d_order(2) is the second-order object."""
    return SimplicialObject(1, frozenset(), (k + 1,))


D2 = d_order(2)


def oplus(a: SimplicialObject, b: SimplicialObject) -> SimplicialObject:
    """Combine square-zero objects so that every cross product vanishes.

    Relations of the result: those of a, those of b shifted by a.n, and all
    cross pairs (i, j + a.n).  Associative; only defined for bound-2 objects.
    """
    if not (a.square_free and b.square_free):
        raise ValidationError("oplus is defined only for square-zero generators")
    m = a.n
    rels = set(a.relations)
    rels.update(tuple(j + m for j in seq) for seq in b.relations)
    rels.update((i, j + m) for i in range(1, m + 1) for j in range(1, b.n + 1))
    return SimplicialObject(m + b.n, frozenset(rels))


def tensor(a: SimplicialObject, b: SimplicialObject) -> SimplicialObject:
    """Concatenate generator sets with no cross relations.

    This names the algebra tensor product; for relation-free objects
    tensor(D^p, D^q) = D^(p+q).
    """
    m = a.n
    rels = set(a.relations)
    rels.update(tuple(j + m for j in seq) for seq in b.relations)
    return SimplicialObject(m + b.n, frozenset(rels), a.bounds + b.bounds)
