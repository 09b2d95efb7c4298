"""Randomized zero oracle for analytic expressions.

A constant is decided from its value, without sampling.  Polynomials
over the rationals get an exact Schwartz-Zippel style test at random
rational points, evaluated in integers over one common denominator (see
``expr.evaluate_exact``).  Everything else is sampled at random complex
points drawn from an annulus (avoiding both the origin's coordinate
singularities and huge magnitudes), with a cancellation-aware relative
tolerance: a value counts as zero only relative to the magnitudes of the
top-level sum terms that produced it.

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
from typing import Optional, Sequence

from . import expr as ex
from .expr import Const, EvalContext, EvalSingular, Expr, VarRef
from .parsing import FIXED, GENERIC, GENERIC_NONZERO, ParamDecl

ZERO = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 32
    seed: int = 0
    r_min: float = 0.3
    r_max: float = 2.0
    rel_tol: float = 1e-9
    noise_floor: float = 1e-13
    max_retries: int = 8

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if not 0 < self.noise_floor < self.rel_tol < 1:
            raise ValueError("need 0 < noise_floor < rel_tol < 1")
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


def _sample_annulus(rng: random.Random, cfg: OracleConfig) -> complex:
    r = rng.uniform(cfg.r_min, cfg.r_max)
    t = rng.uniform(0.0, 2.0 * pi)
    return complex(r * cos(t), r * sin(t))


def _split_vars(e: Expr, params: Sequence[ParamDecl]):
    decls = {p.name: p for p in params}
    plain, bound = [], {}
    for ref in sorted(ex.free_vars(e), key=str):
        if ref.kind == VarRef.PARAM:
            bound[ref] = decls.get(ref.name, ParamDecl(ref.name, GENERIC))
        else:
            plain.append(ref)
    return plain, bound


def _exact_path_ok(e: Expr, bound) -> bool:
    if not ex.is_polynomial(e):
        return False
    for decl in bound.values():
        if decl.policy == GENERIC_NONZERO:
            return False
        if decl.policy == FIXED and not isinstance(decl.value, (Fraction, int)):
            return False
    return True


def _float(value: Fraction) -> complex:
    """complex(value), or an infinity of value's sign outside the float range."""
    try:
        return complex(value)
    except OverflowError:
        return complex(inf if value > 0 else -inf)


def is_zero(e: Expr, params: Sequence[ParamDecl] = (), cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Decide whether e vanishes identically under the parameter policies."""
    if type(e) is Const:
        # what sampling would return, without drawing a point; a
        # non-finite complex constant keeps the sampling loop
        v = e.value
        if v == 0:
            return Verdict(ZERO, seed=cfg.seed, samples_passed=cfg.samples, exact=True)
        if isinstance(v, Fraction):
            return Verdict(NONZERO, seed=cfg.seed, witness={}, value=_float(v), exact=True)
        if cmath.isfinite(v):
            return Verdict(NONZERO, seed=cfg.seed, witness={}, value=v)
    rng = random.Random(cfg.seed)
    plain, bound = _split_vars(e, params)
    branch_limited = ex.contains_fn(e, ("sqrt", "log"))

    if _exact_path_ok(e, bound):
        return _is_zero_exact(e, plain, bound, cfg, rng)
    return _is_zero_numeric(e, plain, bound, cfg, rng, branch_limited)


def _is_zero_exact(e, plain, bound, cfg, rng) -> Verdict:
    for k in range(cfg.samples):
        assignment = {}
        for ref in plain:
            assignment[ref] = _sample_rational(rng)
        for ref, decl in bound.items():
            if decl.policy == FIXED:
                assignment[ref] = Fraction(decl.value)
            else:
                assignment[ref] = _sample_rational(rng)
        value = ex.evaluate_exact(e, assignment)
        if value != 0:
            return Verdict(
                NONZERO, seed=cfg.seed, samples_passed=k,
                witness={r: _float(v) for r, v in assignment.items()},
                value=_float(value), exact=True,
            )
    return Verdict(ZERO, seed=cfg.seed, samples_passed=cfg.samples, exact=True)


def _is_zero_numeric(e, plain, bound, cfg, rng, branch_limited) -> Verdict:
    clear_zero = 0
    gray = 0
    valid = 0
    for k in range(cfg.samples):
        result = None
        for _ in range(cfg.max_retries):
            assignment = {}
            for ref in plain:
                assignment[ref] = _sample_annulus(rng, cfg)
            for ref, decl in bound.items():
                if decl.policy == FIXED:
                    assignment[ref] = complex(decl.value)
                else:
                    # annulus sampling already excludes |v| < r_min, which
                    # is all generic-nonzero additionally demands
                    assignment[ref] = _sample_annulus(rng, cfg)
            ctx = EvalContext(assignment)
            try:
                value = ex.evaluate(e, ctx)
            except EvalSingular:
                continue
            result = (assignment, value, ctx.cancellation_scale)
            break
        if result is None:
            continue
        valid += 1
        assignment, value, scale = result
        mag = abs(value)
        if mag > cfg.rel_tol * scale:
            return Verdict(
                NONZERO, seed=cfg.seed, samples_passed=valid - 1,
                witness=assignment, value=value, branch_limited=branch_limited,
            )
        if mag <= cfg.noise_floor * scale:
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
