"""Straightness analysis of second-order complex-analytic ODE systems."""

import sys as _sys

# the parser and calculus.partial recurse on the nesting depth of the input
if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)

from .expr import (  # noqa: E402,F401
    Apply,
    Const,
    EvalSingular,
    Expr,
    Param,
    Power,
    Product,
    Sum,
    Var,
    VarRef,
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
    var,
)
from .parsing import (  # noqa: E402,F401
    CorpusEntry,
    OdeSystem,
    ParamDecl,
    ParseError,
    ValidationError,
    parse_corpus,
    parse_expr,
    to_str,
)
from .calculus import nth_partial, partial, total_derivative  # noqa: E402,F401
from .oracle import OracleConfig, Verdict, is_zero, is_zero_matrix  # noqa: E402,F401
from .torsion import (  # noqa: E402,F401
    DimensionError,
    LinearConstSystem,
    TorsionReport,
    check_conserved,
    classify_linear_const,
    fels_torsion,
    is_straight,
    linear_const_to_system,
    phi_matrix,
    quartic_test,
    tresse_torsion,
)
