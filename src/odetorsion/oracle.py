"""Randomized zero oracle for analytic expressions.

``is_zero`` decides one expression and ``is_zero_matrix`` a matrix of
them, through one verdict loop: one expression is the 1x1 case.  A
constant is decided from its value, without sampling.  The other entries
split into two paths, each with one program over all its entries (a node
they share is evaluated once) and one stream of points:

* polynomials over the rationals get a Schwartz-Zippel test at k random
  points of the grid a/GRID, a in [1, GRID] and GRID = 10^6, each decided
  on exact values (``expr.exact_ratios``): k is the least integer with
  (d/GRID)^k <= 2^-64 for d the largest root degree, capped at ``SAMPLES``
  (``_Exact`` derives the bound);
* everything else is sampled at random complex points drawn from the
  annulus R_MIN <= |z| <= R_MAX (avoiding both the origin's coordinate
  singularities and huge magnitudes), with a cancellation-aware relative
  tolerance: a value counts as nonzero above REL_TOL and plainly zero
  below NOISE_FLOOR, both relative to the magnitudes of the top-level sum
  terms of its own entry, at ``SAMPLES`` points.

Each path seeds its own stream with ``cfg.seed``, so the exact path
stopping after k points shifts no point of the numeric path.  The seed is
``OracleConfig``'s one field; ``SAMPLES``, the thresholds, ``MAX_RETRIES``,
the annulus radii and the exact path's ``GRID`` are module constants.
The exact path runs in integers only and meets no singular point.  On
the numeric path, a point where some entry is singular or not finite is
still decided by the entries that are finite and clearly nonzero there;
when there is none, the point is redrawn for the whole path, up to
MAX_RETRIES times, and it counts toward no entry's gray or clear votes.
An entry whose evaluation raises ``OverflowError`` (``cmath.exp`` of a
huge argument, or a function of a value that already left the float
range) is not finite at that point; the error propagates only
from a sample that no entry, on either path, wins, and a nonzero constant
entry wins every sample.
At each sample the first entry, in row-major order, that either path
finds nonzero wins.  A verdict is ``branch_limited`` when it rests on a
principal branch: ``_decide`` walks the numeric entries up to the one it
names (all of them for a zero verdict) for a ``sqrt`` or ``log``, once
the verdict is known.  The numeric path draws one point, then one for
each sample still to decide, and passes each batch to
``expr.evaluate_block``, which runs a lone point on its one-point loop
and more as one block, with the points, values and verdicts of deciding
each point alone.  A point whose evaluation on the shared program raises
is decided root by root.
The exact path draws one point per round and decides it; only the
numeric path redraws, votes and can leave a verdict inconclusive.

A named parameter is one more variable.  No draw is 0 (|z| >= R_MIN on
the annulus, a/GRID with a >= 1 on the exact path), so one declared
nonzero needs nothing more, and a fixed value is substituted before the
oracle sees it.  ``sample_point`` is the one place points are drawn; the
oracle's exact and numeric paths and ``OdeSystem`` validation use it.

An exact witness value outside the float range is reported as an
infinity of its sign; the verdict rests on the exact value, never on the
float.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from math import cos, inf, pi, sin
from typing import Callable, NamedTuple, Optional, Sequence

from . import expr as ex
from .expr import Const, EvalSingular, Expr, Var

ZERO = "zero"
NONZERO = "nonzero"
INCONCLUSIVE = "inconclusive"

R_MIN, R_MAX = 0.3, 2.0  # radii of the sampling annulus
NOISE_FLOOR = 1e-13  # relative magnitude below which a value is plainly zero
REL_TOL = 1e-9  # relative magnitude above which a value is nonzero; between the two, gray
MAX_RETRIES = 8  # draws per sample before it counts as invalid
SAMPLES = 32  # numeric points per verdict, and the cap on the exact path's k
GRID = 10 ** 6  # the exact path draws each coordinate as a/GRID, a uniform in [1, GRID]

class OracleConfig(NamedTuple):
    seed: int = 0


class Verdict(NamedTuple):
    outcome: str  # zero | nonzero | inconclusive
    seed: int
    # valid points before the witness, or in all when none was found; a
    # matrix counts points, not entries (the fewer of its two paths')
    samples_passed: int = 0
    witness: Optional[dict] = None  # Var -> complex
    value: Optional[complex] = None
    reason: str = ""
    branch_limited: bool = False  # a numeric entry up to the one named applies sqrt or log
    exact: bool = False
    entry: Optional[tuple] = None  # set by is_zero_matrix
    bound: Optional[float] = None  # a zero verdict's (d/GRID)^k from the exact path

    @property
    def is_zero(self) -> bool:
        return self.outcome == ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.outcome == NONZERO


def _sample_rational(rng: random.Random) -> Fraction:
    """A point of the grid a/GRID, a uniform in [1, GRID]: one draw, in
    (0, 1], so an exact witness coordinate w has a = round(GRID * w)."""
    return Fraction(rng.randint(1, GRID), GRID)


def _sample_annulus(rng: random.Random) -> complex:
    """A point of the annulus: the radius, then the angle, each what
    ``rng.uniform`` gives, spelled out (a + (b - a) * random()) to save
    its call."""
    r = R_MIN + (R_MAX - R_MIN) * rng.random()
    t = 2.0 * pi * rng.random()
    return complex(r * cos(t), r * sin(t))


def sample_point(rng: random.Random, variables: Sequence[Var], draw: Callable = _sample_annulus) -> dict:
    """One point for variables, each draw(rng) in their order: the numeric
    path's annulus by default, ``_sample_rational`` on the exact path."""
    return {r: draw(rng) for r in variables}


def _exact_samples(d: int) -> int:
    """The least k >= 1 with (d/GRID)^k <= 2^-64, or SAMPLES when that is
    less.  The cap is tested in the loop: the bound needs millions of
    points for d just below GRID, and no k meets it from d = GRID on."""
    k = 1
    while k < SAMPLES and 2 ** 64 * d ** k > GRID ** k:
        k += 1
    return k


def _miss_bound(d: int, k: int) -> float:
    """(d/GRID)^k, or 1.0 (no bound) from d = GRID on."""
    return (d / GRID) ** k if d < GRID else 1.0


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


def is_zero(e: Expr, cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Decide whether e vanishes identically in all its variables."""
    return _decide([e], cfg)[1]


def is_zero_matrix(entries: Sequence[Sequence[Expr]], cfg: OracleConfig = OracleConfig()) -> Verdict:
    """Zero iff every entry is; the first entry, in row-major order, found
    nonzero at the first point where any is, wins, with its index."""
    k, v = _decide([e for row in entries for e in row], cfg)
    if k is None:
        # a zero matrix reports no entry's gray-zone note
        return v._replace(reason="") if v.reason else v
    for i, row in enumerate(entries, 1):
        if k < len(row):
            break
        k -= len(row)
    return v._replace(entry=(i, k + 1), reason=v.reason and f"entry ({i},{k + 1}): {v.reason}")


def _decide(roots: Sequence[Expr], cfg) -> tuple[Optional[int], Verdict]:
    """The verdict that every root vanishes, and the index of the root it
    names (None for zero).

    A constant root is decided from its value.  The other roots go to the
    exact path when ``poly`` and to the numeric path otherwise,
    one program and one point stream per path, and each point decides
    every root of its path.  At each sample the first root, in order, that
    either path finds nonzero wins; a sample no root wins re-raises an
    ``OverflowError`` the numeric path met there, unless a nonzero
    constant wins it.  A nonzero constant is nonzero at the first point,
    so nothing after it is tested.  When no point shows a root nonzero,
    the numeric path settles the verdict: the exact path only ever finds
    zero there.

    Branch limitation is read from the roots once the verdict is known,
    by walking them: a verdict naming root k is branch-limited when a
    numeric root at or before k applies ``sqrt`` or ``log``, and a zero
    verdict when any numeric root does.
    """
    first = None
    exact, numeric = [], []
    for k, e in enumerate(roots):
        if type(e) is Const:
            if e is not ex.ZERO:
                first = k
                break
        elif e.poly:
            exact.append(k)
        else:
            numeric.append(k)

    def verdict(k, outcome=NONZERO, **fields) -> tuple[Optional[int], Verdict]:
        limited = any(ex.contains_fn(roots[j], ("sqrt", "log")) for j in numeric if k is None or j <= k)
        return k, Verdict(outcome, seed=cfg.seed, branch_limited=limited, **fields)

    exact_path = _Exact(roots, exact, cfg) if exact else None
    numeric_path = _Numeric(roots, numeric, cfg) if numeric else None
    paths = [path for path in (exact_path, numeric_path) if path]
    rounds = 1 if first is not None else max((path.samples for path in paths), default=0)
    for i in range(rounds):
        # each path lists its nonzero roots in order, so its first is its least
        hits = [(found[0], path) for path in paths if i < path.samples and (found := path.sample())]
        if hits:
            k, path = min(hits)
            return verdict(k, samples_passed=path.valid - 1, **path.witness(k))
        if numeric_path and numeric_path.overflow and first is None:
            raise numeric_path.overflow
    if first is not None:
        c = roots[first]  # a rational holds its lowest terms; a complex one has den 0
        return verdict(first, witness={}, value=_float(c.num, c.den) if c.den else c.value, exact=c.den > 0)
    if not paths:
        # a zero constant: what sampling at degree 0 would report
        k = _exact_samples(0)
        return verdict(None, ZERO, samples_passed=k, exact=True, bound=_miss_bound(0, k))
    k, reason = numeric_path.settle() if numeric_path else (None, "")
    if k is not None:
        return verdict(k, INCONCLUSIVE, samples_passed=numeric_path.valid, reason=reason)
    return verdict(None, ZERO, samples_passed=min(path.valid for path in paths), reason=reason,
                   exact=not numeric, bound=exact_path and exact_path.bound)


def _variables(roots: Sequence[Expr]) -> list:
    """The roots' variables: parameters after the others, each group in
    name order."""
    return sorted(set().union(*(e.free for e in roots)), key=lambda v: (v.kind == Var.PARAM, str(v)))


class _Exact:
    """Grid points, each deciding every root on its exact value: k
    points, one per round, with nothing to redraw.

    ``_sample_rational`` draws each coordinate as a_i/GRID with a_i
    uniform in [1, GRID]: the denominator is fixed and each numerator is
    uniform over GRID values.  d is the largest root degree from
    ``Program.degrees``, which counts a constant as degree 0 and a sum as
    its largest term, so d bounds the true degree from above.  For a root
    p not identically zero, q(a) = p(a_1/GRID, ...) is a nonzero
    polynomial of degree <= d in the numerators, so by the Schwartz-Zippel
    lemma one point misses p with probability <= d/GRID, and k
    independent points all miss it with probability <= (d/GRID)^k.
    Every point is decided exactly, so the bound holds whatever p's
    coefficients.
    """

    def __init__(self, roots, at, cfg):
        self.at = at  # the index of each root among all roots
        own = [roots[k] for k in at]
        self.prog = ex.program(*own)
        self.variables = _variables(own)
        self.rng = random.Random(cfg.seed)
        self.valid = 0
        _, degs, _ = self.prog.degrees()
        d = max(degs[r] for r in self.prog.roots)
        self.samples = _exact_samples(d)
        self.bound = _miss_bound(d, self.samples)

    def sample(self) -> list:
        """Draw one point; the indices of the roots nonzero there."""
        self.point = sample_point(self.rng, self.variables, _sample_rational)
        self.nums, self.s = ex.exact_ratios(self.prog, self.point)
        self.valid += 1
        return [k for k, num in zip(self.at, self.nums) if num]

    def witness(self, k: int) -> dict:
        i = self.at.index(k)
        d = self.prog.degrees()[0][self.prog.roots[i]]  # root i's value is nums[i] / S^d
        return dict(witness={r: _float(v.numerator, v.denominator) for r, v in self.point.items()},
                    value=_float(self.nums[i], self.s ** d), exact=True)


_SINGULAR = (complex(cmath.nan, cmath.nan), cmath.nan)  # a root's value where its step fails


class _Numeric:
    """Annulus points, each root judged against its own cancellation scale.

    The points come from one stream, ``_points``: one point, since most
    nonzero verdicts end there, and after it, whenever asked, one point
    for each sample still to decide, each batch evaluated by
    ``expr.evaluate_block``.  The stream is the path's own, so drawing
    ahead moves no point, and each block value is the one-point value.  A
    point whose shared evaluation raises (every point of a batch that
    raised) is decided root by root, so a root singular or overflowing
    there hides no other; a node's value depends only on its operands'
    values, so each value is the one the shared program gives.
    A point at which some root is not finite is redrawn unless another
    root wins it, up to MAX_RETRIES draws per sample.
    """

    def __init__(self, roots, at, cfg):
        self.at = at  # the index of each root among all roots
        self.roots = [roots[k] for k in at]
        self.prog = ex.program(*self.roots)
        self.variables = _variables(self.roots)
        self.rng = random.Random(cfg.seed)
        self.samples = SAMPLES
        self.valid = 0
        self.clear = [0] * len(at)
        self.gray = [0] * len(at)
        self.stream = self._points()

    def _points(self):
        """(point, its values or None where the shared program raised
        there), in draw order: one point, then, each time the stream runs
        dry, one for each sample still to decide, each batch evaluated by
        ``expr.evaluate_block``."""
        count = 1
        while True:
            points = [sample_point(self.rng, self.variables) for _ in range(count)]
            try:
                block = ex.evaluate_block(self.prog, points)
            except (EvalSingular, OverflowError):
                # singular or not finite at some point: sample decides each point root by root
                block = [None] * len(points)
            yield from zip(points, block)
            count = self.samples - self.valid

    def sample(self) -> Optional[list]:
        """Draw until a point is decided, up to MAX_RETRIES times; the
        indices of the roots nonzero there, or None when no point was
        decided.  A point is decided when every root is finite there, when
        some root wins it, or when a root overflowed there: that point is
        not redrawn, and ``_decide`` raises the overflow unless some root
        wins the sample."""
        for _ in range(MAX_RETRIES):
            self.point, self.vals = next(self.stream)
            self.overflow = None  # an OverflowError _value meets at this point
            if self.vals is None:
                self.vals = [self._value(e) for e in self.roots]
            valid = all(cmath.isfinite(v) for v, _ in self.vals)
            nonzero = []
            for pos, (v, scale) in enumerate(self.vals):
                if not cmath.isfinite(v):
                    # no win, and the point casts no vote; abs(nan) can raise
                    # OverflowError from the errno an overflowed cmath.exp left
                    continue
                mag = abs(v)
                if mag > REL_TOL * scale:
                    nonzero.append(self.at[pos])
                elif valid:  # an invalid point casts no vote
                    votes = self.clear if mag <= NOISE_FLOOR * scale else self.gray
                    votes[pos] += 1
            if valid or nonzero or self.overflow:
                self.valid += 1
                return nonzero
        return None

    def _value(self, e: Expr) -> tuple[complex, float]:
        try:
            return ex.evaluate_block(ex.program(e), [self.point])[0][0]
        except EvalSingular:
            return _SINGULAR
        except OverflowError as err:
            # not finite here; raised from _decide when no root wins the sample
            self.overflow = err
            return _SINGULAR

    def settle(self) -> tuple[Optional[int], str]:
        """When no point showed a root nonzero: the first root left
        undecided and why, or None and the first outvoted root's note."""
        if self.valid < self.samples / 2:
            return self.at[0], f"only {self.valid}/{self.samples} valid samples after retries"
        for k, clear, gray in zip(self.at, self.clear, self.gray):
            # gray-zone samples are resolved by majority; ties are never
            # silently converted into a classification
            if gray and clear <= gray:
                return k, f"{gray} of {self.valid} samples in the gray zone"
        return None, next((f"{gray} gray-zone samples outvoted" for gray in self.gray if gray), "")

    def witness(self, k: int) -> dict:
        return dict(witness=self.point, value=self.vals[self.at.index(k)][0])
