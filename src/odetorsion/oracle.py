"""Randomized zero oracle for analytic expressions.

``is_zero`` decides one expression and ``is_zero_matrix`` a matrix of
them, through one verdict loop: one expression is the 1x1 case.  A
constant is decided from its value, without sampling.  The other entries
split into two paths, each with one program over all its entries (a node
they share is evaluated once) and one stream of points:

* polynomials over the rationals get a Schwartz-Zippel test at k random
  rational points, each decided on exact values (``expr.exact_ratios``):
  k is the least integer with (d/10^6)^k <= 2^-64 for d the largest root
  degree, capped at ``cfg.samples`` (``_Exact`` derives the bound);
* everything else is sampled at random complex points drawn from the
  annulus R_MIN <= |z| <= R_MAX (avoiding both the origin's coordinate
  singularities and huge magnitudes), with a cancellation-aware relative
  tolerance: a value counts as zero only relative to the magnitudes of
  the top-level sum terms of its own entry, at ``cfg.samples`` points.

Each path seeds its own stream with ``cfg.seed``, so the exact path
stopping after k points shifts no point of the numeric path.
The exact path runs in integers only and meets no singular point.  On
the numeric path, a point where some entry is singular or not finite is
still decided by the entries that are finite and clearly nonzero there;
when there is none, the point is redrawn for the whole path, up to
MAX_RETRIES times, and it counts toward no entry's gray or clear votes.
An entry whose evaluation raises ``OverflowError`` (``cmath.exp`` of a
huge argument) is not finite at that point; the error propagates only
from a sample that no entry, on either path, wins.
At each sample the first entry, in row-major order, that either path
finds nonzero wins.

``sample_point`` is the one place points are drawn, under the parameter
policies; the oracle's exact and numeric paths and ``OdeSystem``
validation use it.

An exact witness value outside the float range is reported as an
infinity of its sign; the verdict rests on the exact value, never on the
float.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import cos, inf, pi, sin
from typing import Callable, Optional, Sequence

from . import expr as ex
from .expr import Const, EvalSingular, Expr, Param, Var

ZERO = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

R_MIN, R_MAX = 0.3, 2.0  # radii of the sampling annulus
NOISE_FLOOR = 1e-13  # relative magnitude below which a value is plainly zero
MAX_RETRIES = 8  # draws per sample before it counts as invalid

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
    # valid points before the witness, or in all when none was found; a
    # matrix counts points, not entries (the fewer of its two paths')
    samples_passed: int = 0
    witness: Optional[dict] = None  # Var -> complex
    value: Optional[complex] = None
    reason: str = ""
    branch_limited: bool = False
    exact: bool = False
    entry: Optional[tuple] = None  # set by is_zero_matrix
    bound: Optional[float] = None  # a zero verdict's (d/10^6)^k from the exact path


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


def sample_point(rng: random.Random, variables: Sequence[Var], params: Sequence[ParamDecl] = (),
                 draw: Callable = _sample_annulus, number: Callable = complex) -> dict:
    """One point for variables, drawn in their order.

    A FIXED parameter takes number(value); every other variable, including a
    GENERIC_NONZERO one (the annulus already excludes |v| < R_MIN), is
    draw(rng).  The defaults are the numeric path's; the exact path draws
    ``_sample_rational`` and keeps fixed values as ``Fraction``.
    """
    fixed = {Param(p.name): p.value for p in params if p.policy == FIXED}
    return {r: number(fixed[r]) if r in fixed else draw(rng) for r in variables}


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


def _exact_samples(d: int, cap: int) -> int:
    """The least k >= 1 with (d/10^6)^k <= 2^-64, or cap when that is less.
    The cap is tested in the loop: the bound needs millions of points for
    d just below 10^6, and no k meets it from d = 10^6 on."""
    k = 1
    while k < cap and 2 ** 64 * d ** k > 10 ** (6 * k):
        k += 1
    return k


def _miss_bound(d: int, k: int) -> float:
    """(d/10^6)^k, or 1.0 (no bound) from d = 10^6 on."""
    return (d / 10 ** 6) ** k if d < 10 ** 6 else 1.0


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
    return _decide([e], params, cfg)[1]


def is_zero_matrix(entries: Sequence[Sequence[Expr]], params: Sequence[ParamDecl] = (),
                   cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Zero iff every entry is; the first entry, in row-major order, found
    nonzero at the first point where any is, wins, with its index."""
    index = [(i + 1, j + 1) for i, row in enumerate(entries) for j in range(len(row))]
    k, v = _decide([e for row in entries for e in row], params, cfg)
    if k is None:
        # a zero matrix reports no entry's gray-zone note
        return replace(v, reason="") if v.reason else v
    i, j = index[k]
    return replace(v, entry=(i, j), reason=v.reason and f"entry ({i},{j}): {v.reason}")


def _decide(roots: Sequence[Expr], params, cfg) -> tuple[Optional[int], Verdict]:
    """The verdict that every root vanishes, and the index of the root it
    names (None for zero).

    A constant root is decided from its value.  The other roots go to the
    exact path when ``_exact_path_ok`` and to the numeric path otherwise,
    one program and one point stream per path, and each point decides
    every root of its path.  At each sample the first root, in order, that
    either path finds nonzero wins; a sample no root wins re-raises an
    ``OverflowError`` the numeric path met there.  A nonzero constant is
    nonzero at the first point, so nothing after it is tested.
    """
    first = None
    exact, numeric = [], []
    for k, e in enumerate(roots):
        if type(e) is Const:
            if e is not ex.ZERO:
                first = k
                break
        elif _exact_path_ok(e, params):
            exact.append(k)
        else:
            numeric.append(k)
    limited = [k for k in numeric if ex.contains_fn(roots[k], ("sqrt", "log"))]

    def nonzero(k, **fields) -> tuple[int, Verdict]:
        # branch-limited when a root up to the one named is
        return k, Verdict(NONZERO, seed=cfg.seed, branch_limited=bool(limited) and limited[0] <= k, **fields)

    paths = [path(roots, at, params, cfg) for path, at in ((_Exact, exact), (_Numeric, numeric)) if at]
    rounds = 1 if first is not None else max((path.samples for path in paths), default=0)
    for i in range(rounds):
        # each path lists its nonzero roots in order, so its first is its least
        hits = [(found[0], path) for path in paths if i < path.samples and (found := path.sample())]
        if hits:
            k, path = min(hits)
            return nonzero(k, samples_passed=path.valid - 1, **path.witness(k))
        for path in paths:
            if path.overflow is not None:
                raise path.overflow
    if first is not None:
        v = roots[first].value
        if isinstance(v, Fraction):
            return nonzero(first, witness={}, value=_float(v.numerator, v.denominator), exact=True)
        return nonzero(first, witness={}, value=v)
    if not paths:
        # a zero constant: what sampling at degree 0 would report
        k = _exact_samples(0, cfg.samples)
        return None, Verdict(ZERO, seed=cfg.seed, samples_passed=k, exact=True, bound=_miss_bound(0, k))
    settled = sorted((k, path.settle(k, cfg)) for path in paths for k in path.at)
    for k, v in settled:
        if v.outcome == INCONCLUSIVE:
            return k, replace(v, branch_limited=bool(limited) and limited[0] <= k)
    return None, Verdict(
        ZERO, seed=cfg.seed, samples_passed=min(p.valid for p in paths),
        reason=next((v.reason for _, v in settled if v.reason), ""),
        branch_limited=bool(limited), exact=not numeric,
        bound=next((path.bound for path in paths if path.exact), None),
    )


class _Path:
    """The roots one evaluator decides: their program, point stream,
    sample count and valid-point count."""

    exact = False
    overflow = None  # an OverflowError met at the last point; raised if no root wins the sample

    def __init__(self, roots, at, params, cfg):
        self.at = at  # the index of each root among all roots
        self.roots = [roots[k] for k in at]
        self.prog = ex.batch(self.roots)
        # parameters after the other variables, each group in name order
        self.variables = sorted(set().union(*(e.free for e in self.roots)),
                                key=lambda v: (v.kind == Var.PARAM, str(v)))
        self.params = params
        self.rel_tol = cfg.rel_tol
        self.samples = cfg.samples
        self.rng = random.Random(cfg.seed)
        self.valid = 0
        self.clear = [0] * len(at)
        self.gray = [0] * len(at)

    def sample(self) -> Optional[list]:
        """Draw until ``test`` decides a point, up to MAX_RETRIES times; the
        indices of the roots nonzero there, or None when no point was
        decided."""
        for _ in range(MAX_RETRIES):
            self.point = self.draw()
            nonzero = self.test()
            if nonzero is not None:
                self.valid += 1
                return [self.at[pos] for pos in nonzero]
        return None

    def settle(self, k: int, cfg: OracleConfig) -> Verdict:
        """Root k's zero or inconclusive verdict when no point showed it
        nonzero."""
        pos = self.at.index(k)
        valid, gray = self.valid, self.gray[pos]
        fields = dict(seed=cfg.seed, samples_passed=valid, exact=self.exact)
        if valid < self.samples / 2:
            return Verdict(INCONCLUSIVE, reason=f"only {valid}/{self.samples} valid samples after retries",
                           **fields)
        if gray:
            # gray-zone samples are resolved by majority; ties are never
            # silently converted into a classification
            if self.clear[pos] > gray:
                return Verdict(ZERO, reason=f"{gray} gray-zone samples outvoted", **fields)
            return Verdict(INCONCLUSIVE, reason=f"{gray} of {valid} samples in the gray zone", **fields)
        return Verdict(ZERO, **fields)


class _Exact(_Path):
    """Rational points, each deciding every root on its exact value.

    ``_sample_rational`` draws each coordinate as a_i/b_i with a_i and
    b_i uniform in [1, 10^6].  d is the largest root degree from
    ``Program.degrees``, which counts a constant as degree 0 and a sum as
    its largest term, so d bounds the true degree from above.  Fix the
    sampled denominators: each numerator is then uniform over 10^6 values.
    For a root p not identically zero, q(a) = p(a_1/b_1, ...) is a nonzero
    polynomial of degree <= d in the numerators, so by the Schwartz-Zippel
    lemma one point misses p with probability <= d/10^6, and k independent
    points all miss it with probability <= (d/10^6)^k.  Every point is decided exactly, so the
    bound holds whatever p's coefficients.
    """

    exact = True

    def __init__(self, roots, at, params, cfg):
        super().__init__(roots, at, params, cfg)
        _, degs, _ = self.prog.degrees()
        d = max(degs[r] for r in self.prog.roots)
        self.samples = _exact_samples(d, cfg.samples)
        self.bound = _miss_bound(d, self.samples)

    def draw(self) -> dict:
        return sample_point(self.rng, self.variables, self.params, _sample_rational, Fraction)

    def test(self) -> list:
        self.ratios = ex.exact_ratios(self.prog, self.point)
        return [pos for pos, (num, _) in enumerate(self.ratios) if num]

    def witness(self, k: int) -> dict:
        return dict(witness={r: _float(v.numerator, v.denominator) for r, v in self.point.items()},
                    value=_float(*self.ratios[self.at.index(k)]), exact=True)


_SINGULAR = (complex(cmath.nan, cmath.nan), cmath.nan)  # a root's value where its step fails


class _Numeric(_Path):
    """Annulus points, each root judged against its own cancellation scale."""

    def draw(self) -> dict:
        return sample_point(self.rng, self.variables, self.params)

    def test(self) -> Optional[list]:
        self.overflow = None
        try:
            self.vals = ex.evaluate_roots(self.prog, self.point)
        except (EvalSingular, OverflowError):
            # root by root, so a root singular or overflowing here hides no other
            self.vals = [self._value(e) for e in self.roots]
        valid = all(cmath.isfinite(v) for v, _ in self.vals)
        nonzero = []
        for pos, (v, scale) in enumerate(self.vals):
            if not cmath.isfinite(v):
                # no win, and the point casts no vote; abs(nan) can raise
                # OverflowError from the errno an overflowed cmath.exp left
                continue
            mag = abs(v)
            if mag > self.rel_tol * scale:
                nonzero.append(pos)
            elif valid:  # an invalid point casts no vote
                votes = self.clear if mag <= NOISE_FLOOR * scale else self.gray
                votes[pos] += 1
        if self.overflow is not None:
            # no redraw: _decide raises the overflow unless some root wins this sample
            return nonzero
        return nonzero if valid or nonzero else None

    def _value(self, e: Expr) -> tuple[complex, float]:
        try:
            return ex.evaluate_roots(ex.program(e), self.point)[0]
        except EvalSingular:
            return _SINGULAR
        except OverflowError as err:
            # not finite here; raised from _decide when no root wins the sample
            self.overflow = err
            return _SINGULAR

    def witness(self, k: int) -> dict:
        return dict(witness=self.point, value=self.vals[self.at.index(k)][0])
