import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from odetorsion import expr as ex
from odetorsion.parsing import OdeSystem

# Every run draws the same examples, so a tier-1 result is repeatable.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def rand_fraction(rng: random.Random, lo=-6, hi=6, den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_polynomial(rng: random.Random, refs, max_degree=3, max_terms=5) -> ex.Expr:
    """A random polynomial with rational coefficients over the given vars."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        factors = [ex.const(rand_fraction(rng))]
        for ref in refs:
            d = rng.randint(0, max_degree)
            if d:
                factors.append(ex.pow_(ref, d))
        terms.append(ex.mul(*factors))
    return ex.add(*terms)


def random_point(rng: random.Random, refs, r_min=0.4, r_max=1.6) -> dict:
    import cmath

    out = {}
    for ref in refs:
        r = rng.uniform(r_min, r_max)
        t = rng.uniform(0, 6.283185307179586)
        out[ref] = r * cmath.exp(1j * t)
    return out


_TERM_KINDS = ("dy-free", "cubic", "quartic", "exp")


@st.composite
def mixed_systems(draw, max_n=4):
    """An OdeSystem with n = 1..max_n whose right-hand sides mix dy-free,
    cubic, quartic and exp(dy) terms, so that some of its partials along a
    dy variable are ZERO and some are not (a side with no term is 0)."""
    n = draw(st.integers(1, max_n))

    def index():
        return draw(st.integers(1, n))

    rhs = []
    for _ in range(n):
        terms = []
        for kind in draw(st.lists(st.sampled_from(_TERM_KINDS), max_size=3)):
            factors = [ex.const(draw(st.integers(-3, 3)))]
            if kind == "dy-free":
                factors += [ex.Y(index()), ex.pow_(ex.X, draw(st.integers(0, 2)))]
            elif kind == "cubic":
                factors += [ex.YDot(index()) for _ in range(draw(st.integers(1, 3)))] + [ex.Y(index())]
            elif kind == "quartic":
                factors += [ex.YDot(index()) for _ in range(4)]
            else:
                factors += [ex.apply("exp", ex.YDot(index())), ex.Y(index())]
            terms.append(ex.mul(*factors))
        rhs.append(ex.add(*terms))
    return OdeSystem(rhs=tuple(rhs))


@pytest.fixture
def rng():
    return random.Random(20260826)
