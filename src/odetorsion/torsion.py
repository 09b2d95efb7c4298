"""Torsion invariants of second-order ODE systems and derived classifiers.

For d^2 y^I/dx^2 = f^I(x, y, dy):

* the trace-free matrix invariant (n >= 2)

      Phi^I_J = phi^I_J - (1/n) phi^K_K delta^I_J,
      phi^I_J = 1/2 d/dx df^I/ddy^J - df^I/dy^J
                - 1/4 sum_K df^I/ddy^K df^K/ddy^J

* the scalar fourth-order invariant (n = 1)

      d^2/dx^2 f_pp - 4 d/dx f_yp
      + f_p (4 f_yp - d/dx f_pp) - 3 f_y f_pp + 6 f_yy

  (p denoting dy), with d/dx the on-solutions total derivative

* the quartic criterion: all fourth dy-partials of every f^I vanish
  exactly when the right-hand sides are cubic in the dy variables.

"straight" means that the dispatched invariant vanishes identically, as
the zero oracle decides: for n >= 2 Fels's trace-free torsion (Proc. LMS
71, 1995; Grossman, Selecta Math. 6, 2000), for n = 1, by this package's
choice, Tresse's fourth-order invariant (Tresse 1896; Cartan, Bull. SMF
52, 1924).  Point-equivalence to y'' = 0 further needs the curvature
S^I_JKL = 0 (n >= 2) or f_pppp = 0 (n = 1, the quartic check).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional

from . import expr as ex
from .calculus import nth_partial, partial, total_derivative
from .expr import Expr
from .oracle import NONZERO, ZERO, OracleConfig, Verdict, is_zero, is_zero_matrix
from .parsing import OdeSystem

TRESSE = "tresse"
FELS = "fels"
QUARTIC = "quartic"


class DimensionError(ValueError):
    pass


@dataclass
class TorsionReport:
    method: str  # tresse | fels | quartic
    invariant: object  # Expr, list of rows of Expr, or list of Expr
    verdict: Verdict

    @property
    def expr_nodes(self) -> int:
        """The invariant's DAG nodes, summed over its entries."""
        return sum(ex.node_count(e) for e in _invariant_exprs(self.invariant))

    @property
    def straight(self) -> Optional[bool]:
        if self.verdict.outcome == ZERO:
            return True
        if self.verdict.outcome == NONZERO:
            return False
        return None


def _invariant_exprs(invariant):
    if isinstance(invariant, Expr):
        return [invariant]
    out = []
    for item in invariant:
        if isinstance(item, Expr):
            out.append(item)
        else:
            out.extend(item)
    return out


def phi_matrix(sys: OdeSystem) -> list[list[Expr]]:
    """The pre-trace-adjustment matrix phi^I_J, K-sum expanded."""
    n = sys.n
    f = sys.rhs
    dy = [ex.YDot(i + 1) for i in range(n)]
    y = [ex.Y(j + 1) for j in range(n)]
    f_dy = [[partial(f[i], dy[j]) for j in range(n)] for i in range(n)]
    half = ex.const(Fraction(1, 2))
    quarter = ex.const(Fraction(-1, 4))
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = [
                ex.mul(half, total_derivative(f_dy[i][j], sys)),
                ex.neg(partial(f[i], y[j])),
            ]
            for k in range(n):
                terms.append(ex.mul(quarter, f_dy[i][k], f_dy[k][j]))
            row.append(ex.add(*terms))
        out.append(row)
    return out


def fels_torsion(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """Trace-free torsion matrix; defined for all n >= 1."""
    n = sys.n
    if n == 1:
        # the single trace-adjusted entry is zero by definition
        matrix = [[ex.ZERO]]
        verdict = Verdict(ZERO, seed=cfg.seed, exact=True)
        return TorsionReport(FELS, matrix, verdict)
    phi = phi_matrix(sys)
    trace_over_n = ex.mul(ex.const(Fraction(-1, n)), ex.add(*(phi[k][k] for k in range(n))))
    matrix = [
        [ex.add(phi[i][j], trace_over_n) if i == j else phi[i][j] for j in range(n)]
        for i in range(n)
    ]
    verdict = is_zero_matrix(matrix, sys.params, cfg)
    return TorsionReport(FELS, matrix, verdict)


def _tresse_expr(sys: OdeSystem) -> Expr:
    f = sys.rhs[0]
    y, p = ex.Y(1), ex.YDot(1)
    f_y = partial(f, y)
    f_p = partial(f, p)
    f_yp = partial(f_y, p)
    f_pp = partial(f_p, p)
    f_yy = partial(f_y, y)
    d_f_pp = total_derivative(f_pp, sys)
    return ex.add(
        total_derivative(d_f_pp, sys),
        ex.mul(ex.const(-4), total_derivative(f_yp, sys)),
        ex.mul(f_p, ex.add(ex.mul(ex.const(4), f_yp), ex.neg(d_f_pp))),
        ex.mul(ex.const(-3), f_y, f_pp),
        ex.mul(ex.const(6), f_yy),
    )


def tresse_torsion(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """The scalar fourth-order invariant; only defined for n = 1."""
    if sys.n != 1:
        raise DimensionError(f"Tresse torsion needs n=1, got n={sys.n}")
    invariant = _tresse_expr(sys)
    verdict = is_zero(invariant, sys.params, cfg)
    return TorsionReport(TRESSE, invariant, verdict)


def quartic_test(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """All distinct fourth dy-partials of each right-hand side.

    Tested as one row per f^I, its partials in combinations_with_replacement
    order, so a witness entry (I, k) names f^I's k-th partial.
    """
    combos = list(combinations_with_replacement([ex.YDot(j + 1) for j in range(sys.n)], 4))
    rows = [[nth_partial(f, combo) for combo in combos] for f in sys.rhs]
    verdict = is_zero_matrix(rows, sys.params, cfg)
    invariant = [d4 for row in rows for d4 in row]
    return TorsionReport(QUARTIC, invariant, verdict)


def is_straight(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """Dispatch: n=1 uses the scalar invariant, n>=2 the matrix invariant."""
    if sys.n == 1:
        return tresse_torsion(sys, cfg)
    return fels_torsion(sys, cfg)


def check_conserved(sys: OdeSystem, g: Expr, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Zero iff g is constant along integral curves of sys."""
    sys.validate_expr(g)
    sys.require_evaluable([("conserved quantity", g)])
    return is_zero(total_derivative(g, sys), sys.params, cfg)


# ---------------------------------------------------------------------------
# Linear constant-coefficient systems

@dataclass(frozen=True)
class LinearConstSystem:
    """d^2 y/dx^2 = A dy + B y with constant square matrices A, B."""

    A: tuple
    B: tuple

    def __post_init__(self):
        A = tuple(tuple(row) for row in self.A)
        B = tuple(tuple(row) for row in self.B)
        n = len(A)
        if any(len(r) != n for r in A) or len(B) != n or any(len(r) != n for r in B):
            raise ValueError("A and B must be square with matching dimensions")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return len(self.A)


def _all_rational(ls: LinearConstSystem) -> bool:
    return all(
        isinstance(v, (int, Fraction))
        for M in (ls.A, ls.B)
        for row in M
        for v in row
    )


def classify_linear_const(ls: LinearConstSystem, tol: float = 1e-10) -> bool:
    """True iff B = aI - A^2/4 for some scalar a, i.e. B + A^2/4 is scalar."""
    n = ls.n
    exact = _all_rational(ls)

    def num(v):
        return Fraction(v) if exact else complex(v)

    A = [[num(v) for v in row] for row in ls.A]
    M = [[num(v) for v in row] for row in ls.B]
    quarter = Fraction(1, 4) if exact else 0.25
    for i in range(n):
        for j in range(n):
            M[i][j] = M[i][j] + quarter * sum(A[i][k] * A[k][j] for k in range(n))
    if exact:
        a = M[0][0]
        return all(M[i][j] == (a if i == j else 0) for i in range(n) for j in range(n))
    scale = max(max(abs(v) for row in M for v in row), 1.0)
    a = sum(M[i][i] for i in range(n)) / n
    for i in range(n):
        for j in range(n):
            target = a if i == j else 0
            if abs(M[i][j] - target) > tol * scale:
                return False
    return True


def linear_const_to_system(ls: LinearConstSystem, name: str = "linear-const") -> OdeSystem:
    """The OdeSystem d^2 y^I/dx^2 = sum_J A[I][J] dy^J + B[I][J] y^J."""
    n = ls.n
    rhs = []
    for i in range(n):
        terms = []
        for j in range(n):
            terms.append(ex.mul(ex.const(ls.A[i][j]), ex.YDot(j + 1)))
            terms.append(ex.mul(ex.const(ls.B[i][j]), ex.Y(j + 1)))
        rhs.append(ex.add(*terms))
    return OdeSystem(n=n, rhs=tuple(rhs), name=name)
