"""Per-layer tracing from outside the program.

The traced run replaces fnlab's public entry points with wrappers that count
calls and record span self times (a span's duration minus the time its child
spans cover, including the wrappers' own bookkeeping).  Nothing inside the
library is instrumented.

A module-level function is replaced in every fnlab module that holds it,
because `from .linsolve import solve_exact` binds the name in the importing
module: wrapping only fnlab.linsolve.solve_exact would miss every call made
through fnlab.micro.  Methods are replaced on their classes, where instances
look them up.  `Tracer.restore()` puts every original back.
"""

import json
import sys
import time
from collections import Counter, defaultdict

from fnlab import forms, linsolve, micro, morphisms, poly, serialize, simplicial, weil

clock = time.perf_counter

# span name -> where it is wrapped; a name may cover several functions.
FUNCTION_SPANS = (
    ("forms.conv", forms, ("prod_under", "prod_over")),
    ("forms.antisymmetrize", forms, ("antisymmetrize",)),
    ("forms.perm_kernel", forms, ("perm_kernel",)),
    ("forms.predicates", forms, ("is_omega1", "is_omega12", "is_omega13")),
    ("forms.bracket", forms, ("bracket_fn13", "bracket_fn123")),
    ("weil.make_algebra", weil, ("make_algebra",)),
    ("linsolve.solve", linsolve, ("solve_exact",)),
    ("micro.amalgamate", micro, ("amalgamate",)),
    ("micro.restrict", micro, ("restrict",)),
    ("micro.case_solve", micro, ("case_solve",)),
    ("micro.compat", micro, ("case_compat_errors",)),
    ("serialize.decode", serialize, ("form_from_json",)),
    ("serialize.encode", serialize, ("form_to_json",)),
)

METHOD_SPANS = (
    ("poly.mul", poly.Poly, "__mul__"),
    ("poly.eval", poly.Poly, "eval"),
    ("poly.remap", poly.Poly, "remap_variables"),
    ("weil.mul", weil.WeilElement, "__mul__"),
    ("weil.algebra_build", weil.WeilAlgebra, "__init__"),
    ("morphisms.build", morphisms.InfMorphism, "__init__"),
    ("morphisms.matrix", morphisms.InfMorphism, "matrix"),
)

# counted but not timed: hot and cheap, a span would cost more than the call
METHOD_COUNTS = (
    ("simplicial.objects_built", simplicial.SimplicialObject, "__post_init__"),
)


def _compact_len(data) -> int:
    return len(json.dumps(data, separators=(",", ":")))


def _point_key(p):
    return (p.m, tuple(tuple(sorted(c.coeffs.items())) for c in p.coords))


class Tracer:
    """Counters and span self times for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._restore = []
        self._matrices = set()
        self._morphisms = {}
        self._glued = set()
        self._hooks = {
            "weil.mul": self._count_pairs,
            "linsolve.solve": self._note_matrix,
            "micro.amalgamate": self._note_gluing,
            "morphisms.matrix": self._note_morphism,
            "serialize.decode": lambda data: self.counts.update(
                {"serialize.bytes": _compact_len(data)}),
        }
        self._after = {
            "serialize.encode": lambda out: self.counts.update(
                {"serialize.bytes": _compact_len(out)}),
        }

    # op boundaries ------------------------------------------------------------

    def begin_op(self):
        """Gluing repeats are counted within one op."""
        self._glued.clear()

    # counting hooks (run outside the timed part of a span) --------------------

    def _count_pairs(self, a, b):
        if not isinstance(b, weil.WeilElement):
            return
        basis, index = a.algebra.basis, a.algebra.index
        hits = 0
        for i in a.coeffs:
            ei = basis[i]
            for j in b.coeffs:
                if tuple(x + y for x, y in zip(ei, basis[j])) in index:
                    hits += 1
        self.counts["weil.mul.pairs"] += len(a.coeffs) * len(b.coeffs)
        self.counts["weil.mul.pair_hits"] += hits

    def _note_matrix(self, matrix, *_args, **_kwargs):
        key = tuple(tuple(row) for row in matrix)
        if key in self._matrices:
            self.counts["linsolve.matrix_reused"] += 1
        self._matrices.add(key)

    def _note_gluing(self, g1, g2, case, *_args, **_kwargs):
        name = case if isinstance(case, str) else case.name
        key = (name, _point_key(g1), _point_key(g2))
        if key in self._glued:
            self.counts["micro.amalgamate.repeats"] += 1
        self._glued.add(key)

    def _note_morphism(self, mor):
        # the first matrix() call on an instance builds it; instances are
        # kept alive for the pass so that an id is never reused
        if id(mor) not in self._morphisms:
            self._morphisms[id(mor)] = mor
            self.counts["morphisms.matrix_builds"] += 1

    # wrappers ----------------------------------------------------------------------

    def _span(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        before, after = self._hooks.get(name), self._after.get(name)

        def wrapper(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                self_s[name] += (t2 - t1) - stack.pop()
                calls[name] += 1
            if after is not None:
                after(out)
            if stack:
                stack[-1] += clock() - t0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, home, attr, wrapper_for):
        original = getattr(home, attr)
        wrapped = wrapper_for(original)
        holders = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "fnlab" or name.startswith("fnlab."))
                   and getattr(mod, attr, None) is original]
        for mod in holders:
            setattr(mod, attr, wrapped)
            self._restore.append((mod, attr, original))

    def _replace_method(self, cls, attr, wrapper_for):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_for(original))
        self._restore.append((cls, attr, original))

    def install(self):
        """Wrap every traced entry point; a missing name raises at once."""
        try:
            for name, home, attrs in FUNCTION_SPANS:
                for attr in attrs:
                    self._replace_everywhere(home, attr, lambda fn, n=name: self._span(n, fn))
            for name, cls, attr in METHOD_SPANS:
                self._replace_method(cls, attr, lambda fn, n=name: self._span(n, fn))
            for name, cls, attr in METHOD_COUNTS:
                self._replace_method(cls, attr, lambda fn, n=name: self._counter(n, fn))
        except (AttributeError, KeyError):
            self.restore()
            raise

    def restore(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# Per-layer metrics of a traced pass, in report order: (name, unit).
PER_LAYER = (
    ("forms.conv.calls", "count"), ("forms.conv.self_s", "s"),
    ("forms.antisymmetrize.calls", "count"), ("forms.antisymmetrize.self_s", "s"),
    ("forms.perm_kernel.calls", "count"), ("forms.perm_kernel.self_s", "s"),
    ("forms.predicates.calls", "count"), ("forms.predicates.self_s", "s"),
    ("forms.bracket.calls", "count"), ("forms.bracket.self_s", "s"),
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.eval.calls", "count"), ("poly.eval.self_s", "s"),
    ("poly.remap.calls", "count"),
    ("simplicial.objects_built", "count"),
    ("weil.mul.calls", "count"), ("weil.mul.self_s", "s"),
    ("weil.mul.pair_hit_ratio", "ratio"),
    ("weil.make_algebra.calls", "count"), ("weil.make_algebra.self_s", "s"),
    ("weil.make_algebra.miss_ratio", "ratio"), ("weil.algebra_build_s", "s"),
    ("linsolve.solve.calls", "count"), ("linsolve.solve.self_s", "s"),
    ("linsolve.matrix_reuse_ratio", "ratio"),
    ("micro.amalgamate.calls", "count"), ("micro.amalgamate.self_s", "s"),
    ("micro.amalgamate.repeat_ratio", "ratio"),
    ("micro.restrict.calls", "count"), ("micro.restrict.self_s", "s"),
    ("micro.case_solve.calls", "count"), ("micro.case_solve.self_s", "s"),
    ("micro.compat.calls", "count"), ("micro.compat.self_s", "s"),
    ("morphisms.built", "count"), ("morphisms.build_s", "s"),
    ("morphisms.matrix_builds", "count"), ("morphisms.matrix_s", "s"),
    ("serialize.decode_s", "s"), ("serialize.encode_s", "s"), ("serialize.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
)

# Layers each workload is meant to exercise: zero calls there means a
# wrapper no longer reaches the code (say, after a rename), not a fast run.
EXPECTED_CALLS = {
    "bracket_tower": ("forms.conv", "forms.antisymmetrize", "forms.perm_kernel",
                      "forms.predicates", "forms.bracket", "poly.mul", "poly.eval",
                      "poly.remap", "simplicial.objects_built", "weil.mul",
                      "weil.make_algebra", "linsolve.solve", "micro.case_solve",
                      "micro.compat", "serialize.decode", "serialize.encode"),
    "six_cubes": ("linsolve.solve", "micro.amalgamate", "micro.restrict",
                  "micro.case_solve", "micro.compat", "morphisms.build",
                  "morphisms.matrix", "simplicial.objects_built", "weil.mul",
                  "weil.make_algebra"),
    "jet_eval": ("weil.mul", "weil.make_algebra", "weil.algebra_build",
                 "poly.mul", "poly.eval"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(calls, self_s, counts, cache_misses) -> dict:
    """Per-layer values from one traced pass's counters, keyed as PER_LAYER.

    `trace.overhead_ratio` needs the untraced pass and is filled in by the
    caller.
    """
    calls, self_s, counts = Counter(calls), Counter(self_s), Counter(counts)
    out = {}
    for name, _unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls[base]
        elif what == "self_s":
            out[name] = self_s[base]
    out.update({
        "simplicial.objects_built": calls["simplicial.objects_built"],
        "weil.mul.pair_hit_ratio": _ratio(counts["weil.mul.pair_hits"],
                                          counts["weil.mul.pairs"]),
        "weil.make_algebra.miss_ratio": _ratio(cache_misses, calls["weil.make_algebra"]),
        "weil.algebra_build_s": self_s["weil.algebra_build"],
        "linsolve.matrix_reuse_ratio": _ratio(counts["linsolve.matrix_reused"],
                                              calls["linsolve.solve"]),
        "micro.amalgamate.repeat_ratio": _ratio(counts["micro.amalgamate.repeats"],
                                                calls["micro.amalgamate"]),
        "morphisms.built": calls["morphisms.build"],
        "morphisms.build_s": self_s["morphisms.build"],
        "morphisms.matrix_builds": counts["morphisms.matrix_builds"],
        "morphisms.matrix_s": self_s["morphisms.matrix"],
        "serialize.decode_s": self_s["serialize.decode"],
        "serialize.encode_s": self_s["serialize.encode"],
        "serialize.bytes": counts["serialize.bytes"],
    })
    return out
