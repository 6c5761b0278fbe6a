"""coxlat: exact star-lattice Coxeter elements and Poincare series.

Builds the root lattices attached to genus-0 graded surface singularities,
computes their Poincare series along two independent routes (quotients of
characteristic polynomials of Coxeter elements, and divisor-degree counts
via Riemann-Roch on a rational curve), and verifies the resulting identities
as exact integer series equalities.
"""

from .errors import CoxlatError
from .exact import PowerSeries, series_from_rational
from .lattice import Lattice, char_poly, coxeter_matrix
from .series import hilbert_P, hilbert_Q, poincare_direct
from .star import (
    OrbitInvariants,
    SingularityKind,
    StarLattices,
    build,
    catalog,
    catalog_names,
    fuchsian_invariants,
    kleinian_invariants,
    validate,
)
from .verify import (
    Subject,
    VerificationReport,
    check_identities,
    check_orbit_formulas,
    check_orbit_series,
    check_theorem,
    run_suite,
    verify_lattices,
)

__version__ = "0.1.0"
