"""Strong differences of expansion points and the threefold cancellation.

Two double expansions that agree everywhere except the corner glue uniquely
over a three-direction object; restricting the gluing along the fresh
direction extracts a tangent vector whose principal part is the corner gap.
Six compatible triple expansions admit three such iterated differences, and
they always cancel.  Run:  python demos/strong_differences.py
"""

import random

from fnlab import (MicroPoint, Poly, PolyMap, amalgamate, d_cube,
                   jacobi3_defect, restrict, strong_diff, strong_diff_i,
                   tangent_principal, triangle_from_slots,
                   triangle_from_vector_fields)
from fnlab.micro import TRIANGLE_LABELS, get_case
from fnlab.rationals import Q, rat_str


def vec(values):
    """A vector of rationals as "[a, b/c]", whatever the scalar backend."""
    return "[" + ", ".join(rat_str(v) for v in values) + "]"


print("== gluing two squares over their shared restriction ==")
g1 = MicroPoint.from_table(d_cube(2), 1, {(): [1], (1,): [2], (2,): [3], (1, 2): [5]})
g2 = MicroPoint.from_table(d_cube(2), 1, {(): [1], (1,): [2], (2,): [3], (1, 2): [4]})
glued = amalgamate(g1, g2, "square")
print("  first square :", g1.coords[0])
print("  second square:", g2.coords[0])
print("  glued point  :", glued.coords[0])
case = get_case("square")
print("  restricts back to its legs:",
      restrict(glued, case.twisted) == g1 and restrict(glued, case.flat) == g2)

print()
print("== the strong difference is the corner gap ==")
print("  diff(g1,g2):", strong_diff(g1, g2).coords[0])
print("  diff(g2,g1):", strong_diff(g2, g1).coords[0])

print()
print("== axis differences of cubes ==")
keys = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
c2 = MicroPoint.from_table(d_cube(3), 1, {k: [i] for i, k in enumerate(keys)})
table = {k: list(c2.coeff(k)) for k in keys}
table[(2, 3)] = [8]
table[(1, 2, 3)] = [9]
c1 = MicroPoint.from_table(d_cube(3), 1, table)
print("  axis-1 difference:", strong_diff_i(c1, c2, 1).coords[0])

print()
print("== flow-generated six-tuples and the threefold cancellation ==")
x = PolyMap(1, [Poly.var(1, 0)])
y = PolyMap(1, [Poly.one(1)])
z = PolyMap(1, [Poly.var(1, 0) ** 2])
t = triangle_from_vector_fields(x, y, z, [Q(1, 2)])
for label in ("123", "213"):
    print(f"  cube {label} corner slot:", vec(t.cubes[label].coeff((1, 2))))
defect = jacobi3_defect(t)
print("  sum of the three differences:", vec(tangent_principal(defect)))

print()
print("== the cancellation needs no vector fields at all ==")
rng = random.Random(2024)
rv = lambda: [Q(rng.randint(-9, 9), rng.choice([1, 2, 3]))]
t2 = triangle_from_slots(
    1, [rv() for _ in range(4)],
    {(1, 2): (rv(), rv()), (1, 3): (rv(), rv()), (2, 3): (rv(), rv())},
    {label: rv() for label in TRIANGLE_LABELS})
print("  membership violations:", t2.violations())
print("  defect principal part:", vec(tangent_principal(jacobi3_defect(t2))))
