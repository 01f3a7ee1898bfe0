"""Exact-rational calculus of nilpotent jets, strong differences and the
bracket tower on tangent-vector-valued forms over polynomial coordinate
spaces.  Everything is computed symbolically over the rationals; every
identity the library claims is checked exactly by the verification suites.

The suites are a separate tool, fnlab.verify (Sampler, SuiteConfig,
run_verification).  `import fnlab` loads only the calculus, not the suites.
"""

from .simplicial import D2, SimplicialObject, d_cube, d_order, d_paren, oplus, \
    tensor
from .weil import WeilAlgebra, WeilElement, from_dense, make_algebra
from .morphisms import InfMorphism, axis_map, inclusion
from .poly import Poly, PolyMap
from .micro import MicroPoint, TriangleConfig, amalgamate, \
    amalgamation_cases, jacobi3_defect, restrict, strong_diff, \
    strong_diff_i, tangent_principal, triangle_from_slots, \
    triangle_from_vector_fields
from .forms import FormElem, Kernel, Permutation, antisymmetrize, \
    bracket_fn13, bracket_fn123, bracket_l1, bracket_l12, conv_over, \
    conv_under, cube_var, form_from_kernel, identity_one_form, is_omega1, \
    is_omega12, is_omega13, is_omega123, perm_act, perm_kernel, pi_kernel, \
    prod_over, prod_under, shuffle_sigma, vector_field_form, verify_class
from .errors import FnlabError, InternalError, PreconditionError, ValidationError

__version__ = "0.1.0"
