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

Every verdict is the zero oracle's, Fels's [[0]] for n = 1 included.
The exact closed form for the linear system d^2 y/dx^2 = A dy + B y
(straight iff B + A^2/4 is scalar) lives beside the tests, which check
``fels_torsion`` against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import expr as ex
from .calculus import partial, partials, total_derivative
from .expr import Expr
from .oracle import NONZERO, ZERO, OracleConfig, Verdict, is_zero, is_zero_matrix
from .parsing import OdeSystem

TRESSE = "tresse"
FELS = "fels"
QUARTIC = "quartic"


class DimensionError(ValueError):
    pass


class TorsionReport(NamedTuple):
    method: str  # tresse | fels | quartic
    invariant: list[list[Expr]]  # rows; the verdict's entry (i, k) is invariant[i-1][k-1]
    verdict: Verdict

    @property
    def expr_nodes(self) -> int:
        """The invariant's DAG nodes, summed over its entries."""
        return sum(ex.node_count(e) for row in self.invariant for e in row)

    @property
    def straight(self) -> Optional[bool]:
        if self.verdict.outcome == ZERO:
            return True
        if self.verdict.outcome == NONZERO:
            return False
        return None


def phi_matrix(sys: OdeSystem) -> list[list[Expr]]:
    """The pre-trace-adjustment matrix phi^I_J, K-sum expanded.

    The K-sum takes only the terms whose two factors are both nonzero: a
    ZERO factor makes ``mul`` return ZERO, which ``add`` folds away, so
    the entry is the node the full sum builds."""
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
                if f_dy[i][k] is not ex.ZERO and f_dy[k][j] is not ex.ZERO:
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
    else:
        phi = phi_matrix(sys)
        trace_over_n = ex.mul(ex.const(Fraction(-1, n)), ex.add(*(phi[k][k] for k in range(n))))
        matrix = [
            [ex.add(phi[i][j], trace_over_n) if i == j else phi[i][j] for j in range(n)]
            for i in range(n)
        ]
    return TorsionReport(FELS, matrix, is_zero_matrix(matrix, cfg))


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
    return TorsionReport(TRESSE, [[invariant]], is_zero(invariant, cfg))


def quartic_test(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """All distinct fourth dy-partials of each right-hand side.

    Tested as one row per f^I, its partials in combinations_with_replacement
    order, so a witness entry (I, k) names f^I's k-th partial.  Each row is
    taken by ``calculus.partials`` down the prefix tree of the dy-tuples:
    each prefix's partial once, and every entry below a ZERO prefix ZERO
    without a call.  Every entry is still tested.
    """
    dys = [ex.YDot(j + 1) for j in range(sys.n)]
    rows = [partials(f, dys, 4) for f in sys.rhs]
    return TorsionReport(QUARTIC, rows, is_zero_matrix(rows, cfg))


def is_straight(sys: OdeSystem, cfg: OracleConfig = OracleConfig()) -> TorsionReport:
    """Dispatch: n=1 uses the scalar invariant, n>=2 the matrix invariant."""
    if sys.n == 1:
        return tresse_torsion(sys, cfg)
    return fels_torsion(sys, cfg)


def check_conserved(sys: OdeSystem, g: Expr, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Zero iff g is constant along integral curves of sys."""
    sys.validate([("conserved quantity", g)])
    return is_zero(total_derivative(g, sys), cfg)
