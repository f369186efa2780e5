"""The coefficient map induced by splitting a root off a monic polynomial.

Fix n >= 2 and consider the family P(w; b) = w^n + b_{n-2} w^{n-2} + ...
+ b_0 (no w^{n-1} term) together with the family of possible cofactors
Q(w; lam, t) = w^{n-1} + lam w^{n-2} + t_{n-3} w^{n-3} + ... + t_0.
Requiring P = (w - lam) Q determines b from (lam, t); that assignment is
the map built here:

    b_{n-2} = -lam^2 + t_{n-3},
    b_i     = -lam t_i + t_{i-1}      (1 <= i <= n-3),
    b_0     = -lam t_0.

The module verifies the product identity symbolically, inverts the map
modulo the relation P(lam; b) = 0, checks that the Jacobian determinant
is (up to sign) the cofactor evaluated at its root, and counts fiber
points over rational base points.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .poly import Poly, _cleared, _coeffs, _det, _from_coeffs, _prem, _subresultants

# Work bound of `_rational_roots`, in steps: a trial division is one step
# and testing a candidate root with integer Horner is 2 steps per
# coefficient.  Chosen by measurement (Python 3.11.7, 2-core VM): a trial
# division takes 0.11 us, and a Horner pass 0.19-0.26 us per coefficient
# for n = 3..10 and coefficients up to 10^12; whole searches, with the
# gcd that skips a/b not in lowest terms, ran at 0.006-0.084 us per
# charged step (0.084 us, 91 ms, for w^3 + 963761198400, whose cost is
# nearly all trial division), so the slowest accepted search takes about
# 0.17 s.
ROOT_SEARCH_LIMIT = 2_000_000
# Largest degree n that `build` accepts.  Measured in process (Python
# 3.11.7, 2-core VM): defspace-verify's identities take 0.002 s at n = 14,
# 0.005 s at n = 24 and 0.015 s at n = 40; fiber_count, one subresultant
# sequence on ints and the rational root search, takes 0.06-0.6 ms at
# n = 14, 0.1-1.3 ms at n = 24 and 0.2-4.1 ms at n = 40 (b all ones,
# random rational b of denominators up to 7).  A higher limit would need
# figures of its own, rational root search included.
DEGREE_LIMIT = 24


def _b_names(n):
    return tuple(f"b{i}" for i in range(n - 2, -1, -1))


def _t_names(n):
    return tuple(f"t{i}" for i in range(n - 3, -1, -1))


@dataclass(frozen=True)
class RootFactorMap:
    """Degree-n root-splitting data: target family P, cofactor family Q,
    and the coefficient map components in the order b_{n-2}, ..., b_0."""

    n: int
    target: Poly      # P(w; b) over ("w", b_{n-2}, ..., b_0)
    cofactor: Poly    # Q(w; lam, t) over ("w", "lam", t_{n-3}, ..., t_0)
    components: tuple  # over ("lam", t_{n-3}, ..., t_0)

    @property
    def b_names(self):
        return _b_names(self.n)

    @property
    def t_names(self):
        return _t_names(self.n)


def _exps(size, *powers):
    """The exponent tuple of `size` variables with (index, power) pairs."""
    e = [0] * size
    for i, k in powers:
        e[i] = k
    return tuple(e)


def build(n: int) -> RootFactorMap:
    if not isinstance(n, int) or n < 2:
        raise ConfigError("degree n must be an integer >= 2")
    if n > DEGREE_LIMIT:
        raise ConfigError(f"degree n = {n} too large (over {DEGREE_LIMIT})")
    # P, Q and the components as term dicts over the ambients that
    # RootFactorMap's fields name; index 0 is w in P and Q, lam in the map
    target = {_exps(n, (0, n)): 1}
    cofactor = {_exps(n, (0, n - 1)): 1, _exps(n, (0, n - 2), (1, 1)): 1}
    comps = [{_exps(n - 1, (0, 2)): -1}]
    for i in range(n - 1):
        target[_exps(n, (0, n - 2 - i), (1 + i, 1))] = 1
    for i in range(n - 2):
        cofactor[_exps(n, (0, n - 3 - i), (2 + i, 1))] = 1
        comps[-1][_exps(n - 1, (1 + i, 1))] = 1
        comps.append({_exps(n - 1, (0, 1), (1 + i, 1)): -1})
    ts = _t_names(n)
    target = Poly._of(("w",) + _b_names(n), target)
    cofactor = Poly._of(("w", "lam") + ts, cofactor)
    comps = [Poly._of(("lam",) + ts, c) for c in comps]
    return RootFactorMap(n=n, target=target, cofactor=cofactor, components=tuple(comps))


def _full_ring(m: RootFactorMap):
    return ("w", "lam") + m.t_names


def verify_factor_identity(m: RootFactorMap) -> bool:
    """P(w; b)|_{b -> map} == (w - lam) * Q(w; lam, t), exactly."""
    ring = _full_ring(m)
    w = Poly.var(ring, "w")
    lam = Poly.var(ring, "lam")
    mapping = {"w": w}
    for name, comp in zip(m.b_names, m.components):
        mapping[name] = comp.in_ambient(ring)
    lhs = m.target.substitute(mapping)
    rhs = (w - lam) * m.cofactor.in_ambient(ring)
    return lhs == rhs


def inverse_t(m: RootFactorMap) -> tuple:
    """The t_i recovered from a root lam of P(.; b):

        t_i = lam^{n-1-i} + b_{n-2} lam^{n-3-i} + ... + b_{i+1},

    returned in the order t_{n-3}, ..., t_0 over ("lam", b...).  Empty
    for n = 2, where the map has no t coordinates."""
    ring = ("lam",) + m.b_names
    lam = Poly.var(ring, "lam")
    # Horner: t_{n-2} = lam is Q's next coefficient, t_{i-1} = lam t_i + b_i
    acc, out = lam, []
    for i in range(m.n - 3, -1, -1):
        acc = lam * acc + Poly.var(ring, f"b{i + 1}")
        out.append(acc)
    return tuple(out)


def reduce_mod_monic(p: Poly, modulus: Poly, name: str) -> Poly:
    """Remainder of p modulo a polynomial monic in `name` (coefficients
    in the remaining variables): its pseudo-remainder (`_prem`), which
    for a monic modulus divides by nothing."""
    d = modulus.degree_in(name)
    if d < 1:
        raise ValueError("modulus must have positive degree")
    lead = modulus.coefficient_in(name, d)
    if not lead == Poly.const(modulus.vars, 1):
        raise ValueError("modulus must be monic")
    if p.degree_in(name) < d:  # the zero polynomial included
        return p
    r = _prem(_coeffs(p, name), _coeffs(modulus.in_ambient(p.vars), name))
    return _from_coeffs(r, name, p.vars)


def target_at_root(m: RootFactorMap) -> Poly:
    """P(lam; b) over ("lam", b...)."""
    ring = ("lam",) + m.b_names
    return m.target.substitute({"w": Poly.var(ring, "lam")})


def inverse_composition_reduces(m: RootFactorMap) -> bool:
    """Substituting t = inverse_t into the map returns each b_j exactly
    modulo the single relation P(lam; b) = 0."""
    ring = ("lam",) + m.b_names
    mapping = dict(zip(m.t_names, inverse_t(m)))
    rel = target_at_root(m)
    for name, comp in zip(m.b_names, m.components):
        diff = comp.substitute(mapping).in_ambient(ring) - Poly.var(ring, name)
        if not reduce_mod_monic(diff, rel, "lam").is_zero():
            return False
    return True


@dataclass(frozen=True)
class JacobianResult:
    matches: bool
    sign: int | None       # determinant == sign * Q(lam; lam, t)
    determinant: Poly
    cofactor_at_root: Poly


def jacobian_identity(m: RootFactorMap) -> JacobianResult:
    """Determinant of d(map)/d(lam, t) against +-Q(lam; lam, t).

    The sign is recorded, not asserted: it alternates with n, and the
    caller only relies on the match being exact up to sign."""
    mv = ("lam",) + m.t_names
    rows = []
    for v in mv:
        rows.append([comp.differentiate(v) for comp in m.components])
    # One dense lam row over a bidiagonal block of 1 and -lam: `_det` takes
    # the n - 2 unit pivots of that block, one product each, and never
    # reaches Bareiss, which would fill the block in (0.22 s against 1 ms at
    # n = 24).
    det = _det(rows)
    q_at = m.cofactor.substitute({"w": Poly.var(mv, "lam")})
    if det == q_at:
        return JacobianResult(True, 1, det, q_at)
    if det == -q_at:
        return JacobianResult(True, -1, det, q_at)
    return JacobianResult(False, None, det, q_at)


@dataclass(frozen=True)
class FiberPoint:
    lam: Fraction
    t: tuple  # Fractions, ordered t_{n-3}, ..., t_0


@dataclass(frozen=True)
class FiberResult:
    count: int               # number of distinct complex roots of P(.; b)
    is_generic: bool         # count == n
    discriminant: Fraction
    points: tuple            # rational fiber points (exact)


def _rational(v) -> Fraction:
    """v as a Fraction: an int, a Fraction or a rational string such as
    "-5/4".  Floats and bools are refused, as Poly refuses floats."""
    if isinstance(v, (int, Fraction, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"{v!r} is not an integer, a Fraction or a rational string")


def fiber_count(m: RootFactorMap, b_values) -> FiberResult:
    """Fiber of the map over a rational point b = (b_{n-2}, ..., b_0).

    The fiber cardinality is the number of distinct roots of P(.; b),
    n - deg gcd(P, P'); one subresultant sequence gives that gcd (up to a
    constant) and disc(P) = (-1)^(n(n-1)/2) Res(P, P').  Rational roots
    are fiber points, with t read off P / (w - lam) by synthetic division."""
    vals = [_rational(v) for v in b_values]
    if len(vals) != m.n - 1:
        raise ConfigError(f"need {m.n - 1} coefficients b_{{n-2}}..b_0, got {len(vals)}")
    # P's coefficients, lowest first, are b_0, ..., b_{n-2}, 0, 1; the
    # sequence runs on the ints of L P, L the lcm of b's denominators: the
    # gcd keeps its degree, and Res(L P, L P') = L^(2n-1) Res(P, P')
    scale, lp = _cleared(vals[::-1] + [0, 1])
    res, gcd = _subresultants(lp, [k * c for k, c in enumerate(lp)][1:])
    count = m.n - (len(gcd) - 1)
    disc = Fraction(res, scale ** (2 * m.n - 1)) * (-1) ** (m.n * (m.n - 1) // 2)

    points = []
    for root in _rational_roots(lp, "w"):
        # Horner on P's 1, 0, b_{n-2}, ..., b_1 runs through Q's 1, root, t
        acc, ts = root, []
        for v in vals[:-1]:
            acc = acc * root + v
            ts.append(acc)
        points.append(FiberPoint(lam=root, t=tuple(ts)))
    return FiberResult(
        count=count,
        is_generic=(count == m.n),
        discriminant=disc,
        points=tuple(points),
    )


def apply_map(m: RootFactorMap, lam, t_values) -> tuple:
    """Evaluate the coefficient map at a rational (lam, t)."""
    point = {"lam": _rational(lam)}
    point.update({name: _rational(v) for name, v in zip(m.t_names, t_values)})
    return tuple(comp.evaluate(point) for comp in m.components)


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(ints: list, name: str) -> list:
    """Distinct rational roots of the polynomial in `name` whose integer
    coefficients, lowest first, are `ints` (the last nonzero).

    A nonzero root a/b in lowest terms has a dividing the trailing and b
    the leading coefficient, and sum_k c_k a^k b^(d-k) = 0, which integer
    Horner tests exactly.  The search is charged against ROOT_SEARCH_LIMIT
    before it runs; past it, ConfigError names the larger of the two
    coefficients."""
    deg = len(ints) - 1
    roots = []
    low = next(k for k, a in enumerate(ints) if a)
    if low > 0:
        roots.append(Fraction(0))
    lead = ints[deg]
    trail = ints[low]
    k = deg if abs(lead) > abs(trail) else low
    steps = math.isqrt(abs(trail)) + math.isqrt(abs(lead))
    if steps <= ROOT_SEARCH_LIMIT:
        nums, dens = _divisors(trail), _divisors(lead)
        # two signs per a/b, each a Horner pass over deg - low + 1 coefficients
        steps += 2 * len(nums) * len(dens) * 2 * (deg - low + 1)
    if steps > ROOT_SEARCH_LIMIT:
        raise ConfigError(f"coefficient {ints[k]} of {name}^{k} too large to search "
                          f"for rational roots (over {ROOT_SEARCH_LIMIT} steps)")
    # the nonzero roots are those of sum_k c_(k+low) w^k; leading coefficient first
    top, *rest = reversed(ints[low:])
    for b in dens:
        powers = [b ** j for j in range(1, len(rest) + 1)]
        for a in nums:
            if math.gcd(a, b) != 1:
                continue  # a/b is also the candidate in lowest terms
            for s in (a, -a):
                acc = top
                for c, bj in zip(rest, powers):
                    acc = acc * s + c * bj
                if not acc:
                    roots.append(Fraction(s, b))
    return sorted(roots)


def ramification_check(m: RootFactorMap) -> bool:
    """P'(lam)|_{b -> map} == Q(lam; lam, t), exactly: the map is ramified
    exactly where the split root collides with a root of the cofactor."""
    mv = ("lam",) + m.t_names
    lam_poly = Poly.var(mv, "lam")
    mapping = {"w": lam_poly}
    for name, comp in zip(m.b_names, m.components):
        mapping[name] = comp
    dp_at = m.target.differentiate("w").substitute(mapping)
    return dp_at == m.cofactor.substitute({"w": lam_poly})
