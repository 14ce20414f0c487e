"""Exact toolkit for bounded complexes of twisted line bundles on P^n:
dualization, Bott numbers, Hilbert polynomials, term automorphisms, and
the 3m+1 parameter space on P^3."""

from .scalar import GF, QQ, Field, FieldElement, FieldError, PrimeField, RationalField
from .polymat import (
    FreeSheaf,
    GradedMatrix,
    HomogPoly,
    ParseError,
    compose,
    dual_hom,
    parse_poly,
    sections_matrix,
)
from .linalg import Matrix, kernel_basis, rank, rref
from .hilbert import IntPoly, bott_h, euler_poly, interpolate, line_bundle_hilb
from .monad import (
    CohTable,
    Monad,
    WindowDisagreementError,
    beilinson_shape,
    cohomology_hilbert_function,
    default_window,
    dual_beilinson_table,
    dualize,
    exactness_check,
    format_monad,
    hilbert_poly_of_cohomology,
    minimality_check,
    parse_monad,
    sheaf_cohomology,
    validate,
)
from .complexes import koszul_monad, line_monad, omega_resolution
from .autgroup import (
    GroupElement,
    act,
    graded_inverse,
    induced_dual_element,
    is_automorphism,
    random_element,
)
from .modp3 import (
    ParamPoint,
    point_monad,
    point_of,
    sample_wss,
    twisted_cubic_point,
    wss_membership,
)

__version__ = "0.1.0"
