"""Exact-arithmetic Nekrasov partition functions for the A1 orbifold, its
resolution, and the plane, with functional-equation checks by exact
evaluation at rational sample points."""

from .diagrams import (
    FixedPointX0,
    FixedPointX1,
    FrameData,
    GradeError,
    HalfInt,
    OutOfDiagram,
    ParityError,
    Wall,
    arm_leg,
    colored_sizes,
    enum_fixed_points_x0,
    enum_fixed_points_x1,
    enum_kvectors,
    enum_walls,
    transpose,
)
from .exact import (
    EPS1,
    EPS2,
    EvalPoint,
    FactoredTerm,
    LinearForm,
    PoleError,
    Rational,
    Var,
    coeff_eval,
    factored_term,
    format_rational,
    linear_form,
    parse_rational,
    term_eval,
    term_mul,
    var_a,
    var_m,
)
from .characters import (
    Character,
    HalfDegreeError,
    Monomial,
    char_lk,
    char_n,
    char_rank,
    char_substitute,
    char_tangent_p2,
    char_tangent_x0,
    char_tangent_x1,
    char_v_p2,
    char_v_x0,
    char_v_x1,
    degree_mod2,
)
from .localization import (
    VanishingWeight,
    ell_factor,
    euler_class,
    matter_euler,
    term_p2,
    term_x0,
    term_x1,
)
from .series import (
    QSeries,
    map_to_imo,
    prefactor_exponent,
    rule_chart,
    rule_negate_all,
    rule_negate_am,
    rule_negate_eps,
    series_mul,
    series_prefactor,
    series_zp2,
    series_zx0,
    series_zx1,
    series_zx1_factorized,
)
from .verify import (
    ResampleExhausted,
    SampleConfig,
    VerificationReport,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
    sample_point,
    union_pole_forms,
)

__version__ = "0.1.0"
