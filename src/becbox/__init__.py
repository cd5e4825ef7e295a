"""Modified box Laplacians with harmonic-function condensates.

Builds the rank-K-modified Dirichlet Laplacian on centered boxes through its
explicitly known inverse, evaluates ideal-Bose-gas two-point functions under
it, and checks the operator structure (Krein identity, boundary conditions,
domain decomposition) and the thermodynamic-limit formula against independent
continuum oracles.
"""

from .lattice import (
    Grid,
    GridField,
    make_grid,
    dirichlet_eigenvalues,
    sample_function,
    inner_product,
    sine_transform,
    boundary_trace_1d,
)
from .harmonics import (
    Constant,
    Affine1D,
    HarmonicPoly2D,
    ExpCos2D,
    HarmonicFamily,
    eval_harmonic,
    sample_family,
    parse_harmonic,
    format_harmonic,
    parse_family,
    format_family,
)
from .phi_operator import (
    Bose,
    BoseRegular,
    ShiftedInverse,
    CondensateBasis,
    PhiOperator,
    build_condensate_basis,
    build_phi_operator,
    eigendecompose_symmetric,
    apply_inverse,
    shifted_solve,
    quadratic_form,
    two_point_lhs,
    lanczos_quadratic_form,
)
from .continuum import (
    Bump,
    Dipole,
    FourierTable,
    HypothesisError,
    fourier_oracle,
    free_gas_integral,
    regular_part_integral,
    green_integral,
    condensate_term,
    two_point_rhs,
    resolvent_reference,
    permanent_ryser,
    permanent_enumerate,
    parse_test_function,
    format_test_function,
)

__version__ = "0.1.0"
