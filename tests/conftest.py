import random
from fractions import Fraction

import pytest
from hypothesis import settings

from odetorsion import expr as ex

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


@pytest.fixture
def rng():
    return random.Random(20260826)
