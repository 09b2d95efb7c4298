"""Straightness analysis of second-order complex-analytic ODE systems."""

from .expr import (  # noqa: F401
    Apply,
    Const,
    EvalSingular,
    Expr,
    Param,
    Power,
    Product,
    Sum,
    Var,
    X,
    Y,
    YDot,
    add,
    apply,
    build,
    const,
    evaluate,
    evaluate_exact,
    free_vars,
    is_polynomial,
    mul,
    neg,
    node_count,
    pow_,
    quot,
    sub,
    substitute,
)
from .parsing import (  # noqa: F401
    CorpusEntry,
    OdeSystem,
    ParseError,
    ValidationError,
    parse_corpus,
    parse_expr,
    to_str,
)
from .calculus import nth_partial, partial, total_derivative  # noqa: F401
from .oracle import OracleConfig, Verdict, is_zero, is_zero_matrix  # noqa: F401
from .torsion import (  # noqa: F401
    DimensionError,
    TorsionReport,
    check_conserved,
    fels_torsion,
    is_straight,
    phi_matrix,
    quartic_test,
    tresse_torsion,
)
