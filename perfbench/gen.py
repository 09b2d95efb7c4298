"""Seeded input generators whose answers are known by construction.

Each generator returns ``Entry`` values that are written out as
corpus-format text (with ``expect`` lines), so generated inputs go through
the same parser as the shipped corpus.  Expressions are built in a small
tuple AST of this module, differentiated by this module's own rules and
checked against central finite differences; nothing here imports
odetorsion.

Families (the straight / not-straight answer follows from the
construction, never from running the classifier):

* ``pt-fiber``, ``pt-general`` (n = 1, straight): the trivial equation
  Y'' = 0 pulled back by a point transform (X, Y) = (phi, psi), which
  gives y'' = (D psi * Q_phi - D phi * Q_psi) / J with D = d_x + p d_y,
  Q = D^2 without the y'' term and J = phi_x psi_y - phi_y psi_x.  The
  slope dY/dX = D psi / D phi is a first integral; the generator checks
  that numerically, which is exactly Y'' = 0 along solutions.
* ``g-xy`` (n = 1, not straight): y'' = g(x, y) with g_yy != 0; the
  invariant reduces to 6 g_yy.
* ``g-energy`` (n = 1, not straight): y'' = G'(y) with G''' != 0 and the
  conserved energy dy^2/2 - G(y).
* ``tri-poly`` (n >= 2, straight, polynomial so the exact oracle runs):
  the trivial system pulled back by the triangular map
  Y^I = c_I y^I + h^I(x, y^(I+1)) with polynomial h^I.  Each dY^I/dx is a
  first integral; the generator checks that numerically.
* ``grad`` (n >= 2, not straight, exact oracle) and ``grad-exp`` (the same
  with an exp term in V, numeric oracle): the dy-free gradient system
  y^I'' = dV/dy^I with a y1*y2 term in V, so d f^1 / d y^2 != 0; the
  energy sum dy_I^2/2 - V is conserved.
* ``linconst`` (n >= 2): y'' = A dy + B y with integer A, B; straight
  exactly when B + A^2/4 is a multiple of the identity.  Half are built
  as B = aI - A^2/4, half perturb one off-diagonal entry of that B.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

STRAIGHT = "straight"
NOT_STRAIGHT = "not-straight"

# ---------------------------------------------------------------------------
# Tuple AST: ('n', Fraction) | ('v', name) | ('+', terms) | ('*', factors)
#            | ('/', num, den) | ('^', base, int) | ('f', fn, arg)


def num(q) -> tuple:
    return ("n", Fraction(q))


ZERO = num(0)
ONE = num(1)


def var(name: str) -> tuple:
    return ("v", name)


def add(*terms) -> tuple:
    out, c = [], Fraction(0)
    for t in terms:
        for s in t[1] if t[0] == "+" else (t,):
            if s[0] == "n":
                c += s[1]
            else:
                out.append(s)
    if c:
        out.append(num(c))
    if not out:
        return ZERO
    return out[0] if len(out) == 1 else ("+", tuple(out))


def mul(*factors) -> tuple:
    out, c = [], Fraction(1)
    for f in factors:
        for s in f[1] if f[0] == "*" else (f,):
            if s[0] == "n":
                c *= s[1]
            else:
                out.append(s)
    if c == 0:
        return ZERO
    if c != 1:
        out.insert(0, num(c))
    if not out:
        return ONE
    return out[0] if len(out) == 1 else ("*", tuple(out))


def neg(e) -> tuple:
    return mul(num(-1), e)


def div(a, b) -> tuple:
    if b[0] == "n":
        return mul(num(1 / b[1]), a)
    if a == ZERO:
        return ZERO
    return ("/", a, b)


def pw(base, k: int) -> tuple:
    if k == 0:
        return ONE
    if k == 1:
        return base
    if base[0] == "n":
        return num(base[1] ** k)
    return ("^", base, k)


def fn(name: str, arg) -> tuple:
    return ("f", name, arg)


def d(e, x: str) -> tuple:
    """Symbolic partial derivative in this module's AST."""
    tag = e[0]
    if tag == "n":
        return ZERO
    if tag == "v":
        return ONE if e[1] == x else ZERO
    if tag == "+":
        return add(*(d(t, x) for t in e[1]))
    if tag == "*":
        fs = e[1]
        return add(*(mul(*fs[:i], d(f, x), *fs[i + 1:]) for i, f in enumerate(fs)))
    if tag == "/":
        a, b = e[1], e[2]
        return div(add(mul(d(a, x), b), neg(mul(a, d(b, x)))), pw(b, 2))
    if tag == "^":
        return mul(num(e[2]), pw(e[1], e[2] - 1), d(e[1], x))
    name, a = e[1], e[2]
    da = d(a, x)
    if da == ZERO:
        return ZERO
    if name == "exp":
        return mul(e, da)
    if name == "sin":
        return mul(fn("cos", a), da)
    if name == "cos":
        return neg(mul(fn("sin", a), da))
    if name == "log":
        return div(da, a)
    return div(da, mul(num(2), e))  # sqrt


def text(e) -> str:
    """Render in the corpus expression grammar."""
    tag = e[0]
    if tag == "n":
        q = e[1]
        s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return s if q >= 0 and q.denominator == 1 else f"({s})"
    if tag == "v":
        return e[1]
    if tag == "+":
        return "(" + " + ".join(text(t) for t in e[1]) + ")"
    if tag == "*":
        return "*".join(text(f) for f in e[1])
    if tag == "/":
        return f"(({text(e[1])})/({text(e[2])}))"
    if tag == "^":
        return f"({text(e[1])})^{e[2]}"
    return f"{e[1]}({text(e[2])})"


_CFN = {"exp": cmath.exp, "sin": cmath.sin, "cos": cmath.cos, "log": cmath.log, "sqrt": cmath.sqrt}


def ev(e, env: dict) -> complex:
    """Complex evaluation, principal branches as in the corpus grammar."""
    tag = e[0]
    if tag == "n":
        return complex(e[1])
    if tag == "v":
        return env[e[1]]
    if tag == "+":
        return sum((ev(t, env) for t in e[1]), 0j)
    if tag == "*":
        out = 1 + 0j
        for f in e[1]:
            out *= ev(f, env)
        return out
    if tag == "/":
        return ev(e[1], env) / ev(e[2], env)
    if tag == "^":
        return ev(e[1], env) ** e[2]
    return _CFN[e[1]](ev(e[2], env))


# ---------------------------------------------------------------------------
# Finite-difference checks (independent of the symbolic rules above)

_H = 1e-5


def fd(e, env: dict, x: str) -> complex:
    lo, hi = dict(env), dict(env)
    lo[x] -= _H
    hi[x] += _H
    return (ev(e, hi) - ev(e, lo)) / (2 * _H)


def fd2(e, env: dict, x: str) -> complex:
    lo, hi = dict(env), dict(env)
    lo[x] -= 1e-3
    hi[x] += 1e-3
    return (ev(e, hi) - 2 * ev(e, env) + ev(e, lo)) / 1e-6


def _point(rng: random.Random, names) -> dict:
    return {v: cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.0, 6.283)) for v in names}


def _close(a: complex, b: complex, scale: float) -> bool:
    return abs(a - b) <= 1e-5 * max(scale, 1.0)


def check_derivative(e, x: str, names, rng) -> None:
    """The symbolic derivative agrees with a central difference."""
    env = _point(rng, names)
    sym, num_ = ev(d(e, x), env), fd(e, env, x)
    if not _close(sym, num_, abs(sym) + abs(num_)):
        raise AssertionError(f"d/d{x} disagrees with finite differences: {sym} vs {num_}")


def check_first_integral(w, f: dict, names, rng) -> None:
    """dw/dx along solutions of y_I'' = f[I] vanishes (finite differences)."""
    env = _point(rng, names)
    total = fd(w, env, "x")
    scale = abs(total)
    for y, rhs in f.items():
        a = env["d" + y] * fd(w, env, y)
        b = ev(rhs, env) * fd(w, env, "d" + y)
        total += a + b
        scale += abs(a) + abs(b)
    if not _close(total, 0j, scale):
        raise AssertionError(f"not a first integral: residual {abs(total):.3g} at scale {scale:.3g}")


def check_nonzero(value: complex, what: str) -> None:
    if abs(value) < 1e-3:
        raise AssertionError(f"{what} vanishes at a random point: {value}")


# ---------------------------------------------------------------------------
# Entries


@dataclass(frozen=True)
class Entry:
    name: str
    family: str
    rhs: tuple  # of AST
    expect: str
    conserved: tuple = ()  # of AST, each a first integral

    @property
    def n(self) -> int:
        return len(self.rhs)

    def corpus_text(self) -> str:
        lines = [f"system {self.name}", f"  n {self.n}"]
        lines += [f"  f{i} = {text(f)}" for i, f in enumerate(self.rhs, start=1)]
        lines += [f"  conserved {text(g)}" for g in self.conserved]
        lines += [f"  expect {self.expect}", "end", ""]
        return "\n".join(lines)

    def known(self) -> dict:
        """Known answers, compared against the CLI record fields."""
        # every family is at most cubic in dy, so the quartic check passes
        known = {"classification": self.expect, "quartic": STRAIGHT}
        if self.conserved:
            known["conserved"] = ["zero"] * len(self.conserved)
        return known


_COEFS = tuple(Fraction(q) for q in ("2", "3", "1/2", "3/2", "2/3", "5/2"))


def _coef(rng: random.Random) -> Fraction:
    """A small rational coefficient other than 0 and +-1, so that
    canonicalization drops no term and every seed gives the same shape."""
    return rng.choice((1, -1)) * rng.choice(_COEFS)


KINDS = ("poly", "rat", "exp", "sin", "log", "sqrt")


def kind(i: int, j: int) -> str:
    """Block kind j of instance i.  Structure follows a fixed rotation and
    only coefficients come from the seed, so every seed yields a workload
    of the same shape and cost."""
    return KINDS[(i + 2 * j) % len(KINDS)]


def block(rng: random.Random, u: str, kind: str) -> tuple:
    """An analytic function of one variable, nonlinear in it."""
    v = var(u)
    if kind == "poly":
        return add(mul(num(_coef(rng)), v), mul(num(_coef(rng)), pw(v, 2)), mul(num(_coef(rng)), pw(v, 3)))
    if kind == "rat":
        return div(add(v, num(_coef(rng))), add(pw(v, 2), num(rng.choice((3, 5, 7)))))
    if kind == "exp":
        return fn("exp", mul(num(_coef(rng)), v))
    if kind == "sin":
        return fn("sin", mul(num(_coef(rng)), v))
    if kind == "log":
        return fn("log", add(pw(v, 2), num(rng.choice((3, 5, 7)))))
    return fn("sqrt", add(pw(v, 2), num(rng.choice((3, 5, 7)))))


def _D(e) -> tuple:
    """d_x + p d_y, the total derivative of e(x, y) for n = 1."""
    return add(d(e, "x"), mul(var("dy"), d(e, "y")))


def _quad(e) -> tuple:
    """D^2 e without its y'' term, for e = e(x, y)."""
    p = var("dy")
    return add(d(d(e, "x"), "x"), mul(num(2), p, d(d(e, "x"), "y")), mul(pw(p, 2), d(d(e, "y"), "y")))


_N1 = ("x", "y", "dy")


def point_transform(rng: random.Random, name: str, i: int, general: bool) -> Entry:
    x, y = var("x"), var("y")
    if general:
        phi = add(x, mul(num(_coef(rng)), block(rng, "y", kind(i, 0))))
        psi = add(y, block(rng, "x", kind(i, 1)))
    else:
        phi = x
        psi = add(block(rng, "y", kind(i, 0)), block(rng, "x", kind(i, 1)), mul(num(_coef(rng)), x, y))
    for e in (phi, psi):
        for v in ("x", "y"):
            check_derivative(e, v, _N1, rng)
    jac = add(mul(d(phi, "x"), d(psi, "y")), neg(mul(d(phi, "y"), d(psi, "x"))))
    f = div(add(mul(_D(psi), _quad(phi)), neg(mul(_D(phi), _quad(psi)))), jac)
    slope = div(_D(psi), _D(phi))
    check_first_integral(slope, {"y": f}, _N1, rng)
    conserved = (slope,) if i % 3 == 0 else ()
    family = "pt-general" if general else "pt-fiber"
    return Entry(name, family, (f,), STRAIGHT, conserved)


def g_xy(rng: random.Random, name: str, i: int) -> Entry:
    g = add(mul(block(rng, "x", kind(i, 0)), block(rng, "y", kind(i, 1))),
            block(rng, "x", ("poly", "exp", "sin")[i % 3]))
    check_derivative(g, "y", _N1, rng)
    check_nonzero(fd2(g, _point(rng, _N1), "y"), "g_yy")
    return Entry(name, "g-xy", (g,), NOT_STRAIGHT)


def g_energy(rng: random.Random, name: str, i: int) -> Entry:
    big_g = add(block(rng, "y", kind(i, 0)), mul(num(_coef(rng)), pw(var("y"), 4)))
    g = d(big_g, "y")
    check_derivative(big_g, "y", _N1, rng)
    check_nonzero(fd2(g, _point(rng, _N1), "y"), "g_yy")
    energy = add(mul(num(Fraction(1, 2)), pw(var("dy"), 2)), neg(big_g))
    check_first_integral(energy, {"y": g}, _N1, rng)
    return Entry(name, "g-energy", (g,), NOT_STRAIGHT, (energy,))


def _names(n: int) -> tuple:
    return ("x",) + tuple(f"y{i}" for i in range(1, n + 1)) + tuple(f"dy{i}" for i in range(1, n + 1))


def triangular(rng: random.Random, name: str, n: int, with_integral: bool) -> Entry:
    """Y^I = psi^I(y^I) + h^I(x, y^(I+1)), X = x; f solved from I = n down."""
    names = _names(n)
    x = var("x")
    f: dict = {}
    integrals = []
    for i in range(n, 0, -1):
        yi, pi = var(f"y{i}"), var(f"dy{i}")
        psi = mul(num(_coef(rng)), yi)
        if i == n:
            h = add(mul(num(_coef(rng)), pw(x, 3)), mul(num(_coef(rng)), pw(x, 2)))
            nxt = None
        else:
            nxt = f"y{i + 1}"
            yn, pn = var(nxt), var("d" + nxt)
            h = add(mul(num(_coef(rng)), pw(x, 2), yn), mul(num(_coef(rng)), pw(yn, 2)),
                    mul(num(_coef(rng)), x, pw(yn, 2)))
        big_y = add(psi, h)
        # dY/dx = psi' p_i + h_x + h_J p_J
        w = add(mul(d(psi, f"y{i}"), pi), d(h, "x"), mul(d(h, nxt), var("d" + nxt)) if nxt else ZERO)
        # d/dx w = psi'' p_i^2 + psi' f_i + D^2 h (without y'') + h_J f_J = 0
        quad = [mul(d(d(psi, f"y{i}"), f"y{i}"), pw(pi, 2)), d(d(h, "x"), "x")]
        if nxt:
            quad += [mul(num(2), d(d(h, "x"), nxt), pn), mul(d(d(h, nxt), nxt), pw(pn, 2)),
                     mul(d(h, nxt), f[nxt])]
        f[f"y{i}"] = div(neg(add(*quad)), d(psi, f"y{i}"))
        for v in ("x", f"y{i}") + ((nxt,) if nxt else ()):
            check_derivative(big_y, v, names, rng)
        integrals.append(w)
    for w in integrals:
        check_first_integral(w, f, names, rng)
    rhs = tuple(f[f"y{i}"] for i in range(1, n + 1))
    conserved = (integrals[-1],) if with_integral else ()
    return Entry(name, "tri-poly", rhs, STRAIGHT, conserved)


def gradient(rng: random.Random, name: str, n: int, use_exp: bool, with_energy: bool) -> Entry:
    names = _names(n)
    ys = [var(f"y{i}") for i in range(1, n + 1)]
    terms = [mul(num(_coef(rng)), ys[0], ys[1])]
    for i in range(n):
        terms.append(mul(num(_coef(rng)), pw(ys[i], 2)))
        terms.append(mul(num(_coef(rng)), pw(ys[i], 3)))
        if i + 1 < n:
            terms.append(mul(num(_coef(rng)), ys[i], pw(ys[i + 1], 2)))
    if use_exp:
        terms.append(fn("exp", mul(num(_coef(rng)), ys[-1])))
    pot = add(*terms)
    f = {f"y{i}": d(pot, f"y{i}") for i in range(1, n + 1)}
    for i in range(1, n + 1):
        check_derivative(pot, f"y{i}", names, rng)
    env = _point(rng, names)
    check_nonzero(fd(f["y1"], env, "y2"), "d f1 / d y2")
    energy = add(*(mul(num(Fraction(1, 2)), pw(var(f"dy{i}"), 2)) for i in range(1, n + 1)), neg(pot))
    check_first_integral(energy, f, names, rng)
    conserved = (energy,) if with_energy else ()
    return Entry(name, "grad-exp" if use_exp else "grad", tuple(f[f"y{i}"] for i in range(1, n + 1)),
                 NOT_STRAIGHT, conserved)


def linear_const(rng: random.Random, name: str, n: int, straight: bool) -> Entry:
    A = [[Fraction(rng.choice((-3, -2, 2, 3))) for _ in range(n)] for _ in range(n)]
    a = Fraction(rng.choice((-3, -2, 2, 3)))
    quarter_a2 = [[sum(A[i][k] * A[k][j] for k in range(n)) / 4 for j in range(n)] for i in range(n)]
    B = [[(a if i == j else 0) - quarter_a2[i][j] for j in range(n)] for i in range(n)]
    if not straight:
        i, j = rng.sample(range(n), 2)
        B[i][j] += rng.choice((-2, -1, 1, 2))
    M = [[B[i][j] + quarter_a2[i][j] for j in range(n)] for i in range(n)]
    scalar = all(M[i][j] == (M[0][0] if i == j else 0) for i in range(n) for j in range(n))
    if scalar != straight:
        raise AssertionError("closed form disagrees with the construction")
    rhs = tuple(
        add(*(mul(num(A[i][j]), var(f"dy{j + 1}")) for j in range(n)),
            *(mul(num(B[i][j]), var(f"y{j + 1}")) for j in range(n)))
        for i in range(n)
    )
    return Entry(name, "linconst", rhs, STRAIGHT if straight else NOT_STRAIGHT)


# ---------------------------------------------------------------------------
# Workload sets


def scalar_set(rng: random.Random, count: int) -> list[Entry]:
    """Three in five straight, the n = 1 families in a fixed rotation.  With
    half straight the median verdict would fall in the gap between cheap
    not-straight and costly straight verdicts and swing between them."""
    makers = (
        lambda name, i: point_transform(rng, name, i, general=False),
        lambda name, i: g_xy(rng, name, i),
        lambda name, i: point_transform(rng, name, i, general=True),
        lambda name, i: point_transform(rng, name, i + 1, general=False),
        lambda name, i: g_energy(rng, name, i),
    )
    return [makers[k % 5](f"s{k:03d}", k // 5) for k in range(count)]


def systems_set(rng: random.Random, count: int, dims=(2, 3, 4, 5, 6)) -> list[Entry]:
    """Mostly polynomial systems, half straight: each run of five holds
    tri-poly twice and grad, linconst, grad-exp once; sizes shift against
    the families from one run to the next."""
    out = []
    for k in range(count):
        n = dims[k % len(dims)]
        slot = (k + k // 5) % 5
        name = f"m{k:03d}"
        if slot in (0, 2):
            out.append(triangular(rng, name, n, with_integral=slot == 0))
        elif slot in (1, 4):
            out.append(gradient(rng, name, n, use_exp=slot == 4, with_energy=k % 2 == 0))
        else:
            out.append(linear_const(rng, name, n, straight=(k // 5) % 2 == 0))
    return out
