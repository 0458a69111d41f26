"""Total positivity toolkit.

Exact and floating-point tests for totally positive and totally
nonnegative matrices, bidiagonal factorizations, compound-matrix spectra,
canonical bases of positive bilinear forms, positive cells and stable
flags, and positive curves of flags over the circle.
"""

from .bilinear import (
    A_to_form,
    BilinearForm,
    CanonicalBasisResult,
    c0_matrix,
    canonical_basis,
    form_family_positive,
    form_to_A,
    is_totally_positive_form,
    star,
    tilde,
)
from .classify import (
    TPClass,
    TPKind,
    classify,
    is_oscillatory,
    is_totally_nonnegative,
    is_totally_positive,
    is_variation_diminishing,
    monoid_generate_check,
    sign_variation,
    variation_diminishes_on,
)
from .curves import (
    CirclePoint,
    ConvexReport,
    CurveReport,
    DihedralQuadruple,
    MomentCurve,
    TableFlagCurve,
    convex_curve_check,
    dihedral_partition,
    hyperplane_intersection_count,
    is_positive_curve_sampled,
    is_positive_quadruple,
    osculating_flag,
    sturm_distinct_real_roots,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    DomainError,
    InputError,
    SingularityError,
    StrictnessWarning,
    TotposError,
)
from .flags import (
    Flag,
    StableFlagPair,
    adapted_basis,
    flag_from_matrix,
    identity_component_check,
    in_B_pos,
    in_B_pos_prime,
    opposed,
    reversed_flag,
    stable_flags,
    standard_flag,
)
from .linalg import (
    Matrix,
    compound,
    det,
    inverse,
    ksubsets,
    minor,
    minor_levels,
    nullspace,
    rank,
    reversal_permutation,
    solve,
    submatrix,
    transpose_inverse,
)
from .scalars import (
    Scalar,
    as_fraction,
    format_scalar,
    parse_scalar,
    sign_of,
)
from .spectra import GKReport, Spectrum, gk_spectrum, perron, verify_gk
from .whitney import (
    TPParameters,
    UniParams,
    factorize,
    gen_x,
    gen_y,
    membership_uni,
    reversed_word,
    standard_word,
    synthesize,
    synthesize_uni,
    word_for,
)

__version__ = "0.1.0"
