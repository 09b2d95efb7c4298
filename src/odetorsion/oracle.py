"""Randomized zero oracle for analytic expressions.

A constant is decided from its value, without sampling.  Polynomials
over the rationals get an exact Schwartz-Zippel style test at random
rational points, evaluated in integers over one common denominator and
never reduced (see ``expr.exact_ratio``).  Everything else is sampled at random complex
points drawn from the annulus R_MIN <= |z| <= R_MAX (avoiding both the
origin's coordinate singularities and huge magnitudes), with a
cancellation-aware relative tolerance: a value counts as zero only
relative to the magnitudes of the top-level sum terms that produced it.
A point where the expression is singular or not finite is redrawn, up to
MAX_RETRIES times.

``sample_point`` is the one place points are drawn, under the parameter
policies; the oracle's exact and numeric paths, ``OdeSystem``
validation and the autonomous cross-check all use it.

An exact witness value outside the float range is reported as an
infinity of its sign; the verdict rests on the exact value, never on the
float.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from math import cos, inf, pi, sin
from typing import Callable, Optional, Sequence

from . import expr as ex
from .expr import Const, EvalContext, EvalSingular, Expr, Param, VarRef

ZERO = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

R_MIN, R_MAX = 0.3, 2.0  # radii of the sampling annulus
NOISE_FLOOR = 1e-13  # relative magnitude below which a value is plainly zero
MAX_RETRIES = 8  # draws per numeric sample before it counts as invalid

GENERIC = "generic"
GENERIC_NONZERO = "generic-nonzero"
FIXED = "fixed"


@dataclass(frozen=True)
class ParamDecl:
    name: str
    policy: str = GENERIC  # generic | generic-nonzero | fixed
    value: object = None  # Fraction or complex when fixed

    def __post_init__(self):
        if self.policy not in (GENERIC, GENERIC_NONZERO, FIXED):
            raise ValueError(f"bad parameter policy {self.policy!r}")
        if (self.policy == FIXED) != (self.value is not None):
            raise ValueError("fixed policy requires a value, others forbid one")


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 32
    seed: int = 0
    rel_tol: float = 1e-9

    def __post_init__(self):
        if not NOISE_FLOOR < self.rel_tol < 1:
            raise ValueError(f"need {NOISE_FLOOR} < rel_tol < 1")
        if self.samples < 1:
            raise ValueError("need at least one sample")


@dataclass(frozen=True)
class Verdict:
    outcome: str  # zero | nonzero | inconclusive
    seed: int
    samples_passed: int = 0
    witness: Optional[dict] = None  # VarRef -> complex
    value: Optional[complex] = None
    reason: str = ""
    branch_limited: bool = False
    exact: bool = False
    entry: Optional[tuple] = None  # set by is_zero_matrix

    @property
    def is_zero(self) -> bool:
        return self.outcome == ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.outcome == NONZERO


def _sample_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def _sample_annulus(rng: random.Random) -> complex:
    r = rng.uniform(R_MIN, R_MAX)
    t = rng.uniform(0.0, 2.0 * pi)
    return complex(r * cos(t), r * sin(t))


def sample_point(rng: random.Random, refs: Sequence[VarRef], params: Sequence[ParamDecl] = (),
                 draw: Callable = _sample_annulus, number: Callable = complex) -> dict:
    """One point for refs, drawn in their order.

    A FIXED parameter takes number(value); every other ref, including a
    GENERIC_NONZERO one (the annulus already excludes |v| < R_MIN), is
    draw(rng).  The defaults are the numeric path's; the exact path draws
    ``_sample_rational`` and keeps fixed values as ``Fraction``.
    """
    fixed = {Param(p.name): p.value for p in params if p.policy == FIXED}
    return {r: number(fixed[r]) if r in fixed else draw(rng) for r in refs}


def _exact_path_ok(e: Expr, params: Sequence[ParamDecl]) -> bool:
    if not ex.is_polynomial(e):
        return False
    for decl in params:
        if Param(decl.name) not in e.free:
            continue
        if decl.policy == GENERIC_NONZERO:
            return False
        if decl.policy == FIXED and not isinstance(decl.value, (Fraction, int)):
            return False
    return True


def _float(num: int, den: int) -> complex:
    """complex(num / den) for den > 0, or an infinity of num's sign outside
    the float range.

    Integer true division is correctly rounded, so num and den need no
    common factor removed first.
    """
    try:
        return complex(num / den)
    except OverflowError:
        return complex(inf if num > 0 else -inf)


def is_zero(e: Expr, params: Sequence[ParamDecl] = (), cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Decide whether e vanishes identically under the parameter policies."""
    if type(e) is Const:
        # what sampling would return, without drawing a point
        v = e.value
        if v == 0:
            return Verdict(ZERO, seed=cfg.seed, samples_passed=cfg.samples, exact=True)
        if isinstance(v, Fraction):
            return Verdict(NONZERO, seed=cfg.seed, witness={},
                           value=_float(v.numerator, v.denominator), exact=True)
        return Verdict(NONZERO, seed=cfg.seed, witness={}, value=v)
    rng = random.Random(cfg.seed)
    # parameters after the other variables, each group in name order
    refs = sorted(ex.free_vars(e), key=lambda r: (r.kind == VarRef.PARAM, str(r)))
    if _exact_path_ok(e, params):
        return _is_zero_exact(e, refs, params, cfg, rng)
    return _is_zero_numeric(e, refs, params, cfg, rng, ex.contains_fn(e, ("sqrt", "log")))


def _is_zero_exact(e, refs, params, cfg, rng) -> Verdict:
    for k in range(cfg.samples):
        point = sample_point(rng, refs, params, _sample_rational, Fraction)
        num, den = ex.exact_ratio(e, point)
        if num:
            return Verdict(
                NONZERO, seed=cfg.seed, samples_passed=k,
                witness={r: _float(v.numerator, v.denominator) for r, v in point.items()},
                value=_float(num, den), exact=True,
            )
    return Verdict(ZERO, seed=cfg.seed, samples_passed=cfg.samples, exact=True)


def _is_zero_numeric(e, refs, params, cfg, rng, branch_limited) -> Verdict:
    clear_zero = 0
    gray = 0
    valid = 0
    for k in range(cfg.samples):
        for _ in range(MAX_RETRIES):
            point = sample_point(rng, refs, params)
            ctx = EvalContext(point)
            try:
                value = ex.evaluate(e, ctx)
            except EvalSingular:
                continue
            if cmath.isfinite(value):
                break
        else:
            continue
        valid += 1
        mag = abs(value)
        scale = ctx.cancellation_scale
        if mag > cfg.rel_tol * scale:
            return Verdict(
                NONZERO, seed=cfg.seed, samples_passed=valid - 1,
                witness=point, value=value, branch_limited=branch_limited,
            )
        if mag <= NOISE_FLOOR * scale:
            clear_zero += 1
        else:
            gray += 1
    if valid < cfg.samples / 2:
        return Verdict(
            INCONCLUSIVE, seed=cfg.seed, samples_passed=valid,
            reason=f"only {valid}/{cfg.samples} valid samples after retries",
            branch_limited=branch_limited,
        )
    if gray:
        # gray-zone samples are resolved by majority; ties are never
        # silently converted into a classification
        if clear_zero > gray:
            return Verdict(ZERO, seed=cfg.seed, samples_passed=valid,
                           reason=f"{gray} gray-zone samples outvoted",
                           branch_limited=branch_limited)
        return Verdict(
            INCONCLUSIVE, seed=cfg.seed, samples_passed=valid,
            reason=f"{gray} of {valid} samples in the gray zone",
            branch_limited=branch_limited,
        )
    return Verdict(ZERO, seed=cfg.seed, samples_passed=valid, branch_limited=branch_limited)


def is_zero_matrix(entries: Sequence[Sequence[Expr]], params: Sequence[ParamDecl] = (),
                   cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Zero iff every entry is; first NonZero entry wins, with its index."""
    inconclusive: Optional[Verdict] = None
    passed = 0
    branch_limited = False
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            v = is_zero(entry, params, cfg)
            branch_limited = branch_limited or v.branch_limited
            if v.is_nonzero:
                return Verdict(
                    NONZERO, seed=cfg.seed, samples_passed=passed,
                    witness=v.witness, value=v.value, entry=(i + 1, j + 1),
                    branch_limited=branch_limited, exact=v.exact,
                )
            if v.outcome == INCONCLUSIVE and inconclusive is None:
                inconclusive = Verdict(
                    INCONCLUSIVE, seed=cfg.seed, reason=f"entry ({i + 1},{j + 1}): {v.reason}",
                    entry=(i + 1, j + 1), branch_limited=branch_limited,
                )
            passed += v.samples_passed
    if inconclusive is not None:
        return inconclusive
    return Verdict(ZERO, seed=cfg.seed, samples_passed=passed, branch_limited=branch_limited)
