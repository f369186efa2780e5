"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dict from exponent tuples to nonzero coefficients, ints
where integral and Fractions otherwise, over a fixed ordered tuple of
variable names (the ambient).  All arithmetic is exact; floats are never
accepted.  Numbers handed out (`constant_term`, `evaluate`) are Fractions.
Printing uses graded lexicographic term order (descending) and the
printed form parses back to an equal polynomial.

Input grammar (whitespace insignificant)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := name | rational | '(' expr ')'
    rational := uint ('/' uint)?

The optional leading '-' is the one extension over the bare sum-of-terms
form; it is what the printer emits for a negative head coefficient.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .errors import ConfigError, ParseError

Exps = tuple  # exponent tuple, one nonnegative int per ambient variable


def _coerce(c):
    """c as a stored coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _canonical(terms: dict) -> dict:
    """terms with each integral Fraction replaced in place by its numerator."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _ambient(vars) -> tuple:
    vs = tuple(vars)
    if len(set(vs)) != len(vs):
        raise ConfigError("duplicate variable names in ambient")
    return vs


class Poly:
    """Immutable-by-convention sparse polynomial over Q.

    Invariant: `vars` is a tuple of distinct names, every key of `terms`
    is a tuple of len(vars) nonnegative ints, and every value is nonzero:
    an int when it is integral, else a Fraction (`_coerce`).  Equality and
    hashing do not see the difference, since Fraction(3) == 3 and the two
    hash alike.  The constructor checks and normalizes input from outside;
    results of the arithmetic below are built from operands that hold the
    invariant and keep it, so they skip the check (`_of`).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str], terms: Mapping[Exps, int | Fraction] | None = None):
        vs = _ambient(vars)
        self.vars = vs
        clean = {}
        if terms:
            n = len(vs)
            for exps, c in terms.items():
                e = tuple(exps)
                if len(e) != n:
                    raise ValueError(f"exponent tuple {e} does not match ambient of {n} variables")
                if any(x < 0 or not isinstance(x, int) for x in e):
                    raise ValueError(f"exponents must be nonnegative integers: {e}")
                c = _coerce(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def _of(cls, vars: tuple, terms: dict) -> "Poly":
        """A Poly holding `vars` and `terms` as given, unchecked: only for
        terms that arithmetic built from operands in the same ambient."""
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "Poly":
        return cls(vars)

    @classmethod
    def const(cls, vars, c) -> "Poly":
        vs, c = _ambient(vars), _coerce(c)
        return cls._of(vs, {(0,) * len(vs): c} if c else {})

    @classmethod
    def var(cls, vars, name: str) -> "Poly":
        vs = _ambient(vars)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r} for ambient {vs}")
        e = [0] * len(vs)
        e[vs.index(name)] = 1
        return cls._of(vs, {tuple(e): 1})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False for the zero polynomial only, as for a number."""
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * len(self.vars), 0))

    def total_degree(self) -> int:
        """Max total degree of the terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order_at_origin(self) -> int:
        """Min total degree of the terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def is_univariate_in(self, name: str) -> bool:
        i = self.vars.index(name)
        return all(all(x == 0 for j, x in enumerate(e) if j != i) for e in self.terms)

    def coefficient_in(self, name: str, k: int) -> "Poly":
        """Coefficient of name**k, as a polynomial in the same ambient."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return Poly._of(self.vars, out)

    # -- arithmetic -------------------------------------------------------

    def _check_same(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"ambient mismatch: {self.vars} vs {other.vars}")

    # operators test for a Poly first: isinstance(x, Fraction) runs the ABC
    # machinery of numbers.Rational, about 25 times slower
    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        self._check_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly._of(self.vars, _canonical(out))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            if not c:
                return Poly._of(self.vars, {})
            return Poly._of(self.vars, _canonical({e: c * v for e, v in self.terms.items()}))
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly._of(self.vars, _canonical(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if not k:
            return Poly._of(self.vars, {(0,) * len(self.vars): 1})
        if len(self.terms) <= 1:
            # one term needs no expansion, so x^99999999 costs nothing
            return Poly._of(self.vars, {tuple(k * x for x in e): c ** k
                                        for e, c in self.terms.items()})
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.vars, other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution ----------------------------------------

    def differentiate(self, name: str) -> "Poly":
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = c * e[i]
        return Poly._of(self.vars, _canonical(out))

    def substitute(self, mapping: Mapping[str, "Poly | int | Fraction"]) -> "Poly":
        """Substitute polynomials (or constants) for variables.

        All polynomial images must share one target ambient; variables not
        mentioned in the mapping are carried over by name and must exist in
        the target ambient.
        """
        target = None
        for img in mapping.values():
            if isinstance(img, Poly):
                if target is None:
                    target = img.vars
                elif img.vars != target:
                    raise ValueError(f"ambient mismatch among images: {target} vs {img.vars}")
        if target is None:
            target = self.vars
        images = []
        for i, v in enumerate(self.vars):
            if v in mapping:
                img = mapping[v]
                if not isinstance(img, Poly):
                    img = Poly.const(target, img)
                images.append(img)
            elif any(e[i] for e in self.terms):
                images.append(Poly.var(target, v))  # raises if v missing from target
            else:
                images.append(None)  # never consumed
        one = Poly.const(target, 1)
        powers = {}  # (variable index, k) -> its image ** k, made once
        out = {}
        for e, c in self.terms.items():
            part = one
            for i, k in enumerate(e):
                if k:
                    pk = powers.get((i, k))
                    if pk is None:
                        pk = powers[i, k] = images[i] ** k
                    part = pk if part is one else part * pk
            for t, v in part.terms.items():
                s = out.get(t, 0) + c * v
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return Poly._of(target, _canonical(out))

    def in_ambient(self, vars) -> "Poly":
        """Re-express in a different ambient, matching variables by name;
        self when the ambient is unchanged."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        pos = {}
        for i, v in enumerate(self.vars):
            if v in vs:
                pos[i] = vs.index(v)
            elif any(e[i] for e in self.terms):
                raise ValueError(f"variable {v!r} used but absent from target ambient {vs}")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(vs)
            for i, x in enumerate(e):
                if x:
                    ne[pos[i]] = x
            out[tuple(ne)] = out.get(tuple(ne), 0) + c
        return Poly(vs, out)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Evaluate at a full rational point."""
        vals = []
        for v in self.vars:
            if v not in point:
                raise ValueError(f"no value supplied for variable {v!r}")
            vals.append(_coerce(point[v]))
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for val, k in zip(vals, e):
                if k:
                    t *= val**k
            acc += t
        return acc

    # -- exact division (used by fraction-free elimination) ---------------

    def exact_divide(self, divisor: "Poly") -> "Poly":
        """Quotient self/divisor when the division is exact; raises otherwise."""
        self._check_same(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly._of(self.vars, {})
        key = lambda e: (sum(e), e)  # graded lex
        dlead = max(divisor.terms, key=key)
        dc = divisor.terms[dlead]
        rem = dict(self.terms)
        quot = {}
        while rem:
            rlead = max(rem, key=key)
            diff = tuple(a - b for a, b in zip(rlead, dlead))
            if any(x < 0 for x in diff):
                raise ArithmeticError("polynomial division is not exact")
            rc = rem[rlead]
            if type(rc) is int and type(dc) is int:
                qc, r = divmod(rc, dc)
                if r:
                    qc = Fraction(rc, dc)
            else:
                qc = _coerce(rc / dc)  # a Fraction on one side, so never a float
            quot[diff] = qc
            for e, c in divisor.terms.items():
                t = tuple(map(add, diff, e))
                s = rem.get(t, 0) - qc * c
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return Poly._of(self.vars, quot)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for e, first in zip(ordered, [True] + [False] * (len(ordered) - 1)):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.vars, e)
                if k
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if first:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Poly({self.vars!r}, {str(self)!r})"


# -- parsing ----------------------------------------------------------------

# Term multiplications one parse may spend expanding products and powers:
# about 0.3-0.45 s of Fraction arithmetic on a 2-core x86-64 VM, Python 3.11.
PARSE_WORK_LIMIT = 50_000
# Coefficient bits one term multiplication stands for: a multiplication on
# coefficients of b bits is charged as 1 + b // PARSE_WORD_BITS of them.
PARSE_WORD_BITS = 512


def _height(p):
    """Bits of p's largest coefficient n/d, taken as the bit lengths of n
    and d less one each: 0 for coefficients +-1."""
    return max((abs(c.numerator).bit_length() + c.denominator.bit_length() - 2
                for c in p.terms.values()), default=0)


def _power_cost(t, k, bits):
    """Term multiplications that p**k costs for p with t terms of height
    `bits` (`_height`), or some number above PARSE_WORK_LIMIT.  p^j has at
    most C(j+t-1, t-1) terms, so the k steps of p^(j+1) = p^j * p make at
    most t * sum_{j<k} C(j+t-1, t-1) = t * C(k+t-1, t) term products, on
    coefficients of up to about k * bits bits.  One term makes none; only
    its coefficient's power is charged, so x^99999999 costs nothing."""
    size = k * bits // PARSE_WORD_BITS
    if t <= 1:
        return size
    c = 1
    for i in range(1, t + 1):
        c = c * (k - 1 + i) // i  # C(k-1+i, i), which never falls as i grows
        if t * c > PARSE_WORK_LIMIT:
            break
    return t * c * (1 + size)


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()/])")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), i))
        i = m.end()
    return toks


def _int_literal(text, at):
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", at) from None


class _Parser:
    def __init__(self, text: str, vars):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.vars = tuple(vars)
        self.work = 0  # term multiplications spent so far

    def spend(self, cost, at):
        """Charge `cost` term multiplications to the operator at `at`,
        refusing it once the parse would pass PARSE_WORK_LIMIT."""
        self.work += cost
        if self.work > PARSE_WORK_LIMIT:
            raise ParseError("expression too large to expand "
                             f"(over {PARSE_WORK_LIMIT} term products)", at)

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, len(self.text))

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self) -> Poly:
        kind, val, at = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        out = {}  # the sum so far; each summand is added in place
        while True:
            for e, c in self.term().terms.items():
                s = out.get(e, 0) + sign * c
                if s:
                    out[e] = s
                else:
                    del out[e]
            kind, val, at = self.peek()
            if kind != "op" or val not in "+-":
                return Poly._of(self.vars, _canonical(out))
            self.next()
            sign = 1 if val == "+" else -1

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.next()
                rhs = self.factor()
                size = (_height(acc) + _height(rhs)) // PARSE_WORD_BITS
                self.spend(len(acc.terms) * len(rhs.terms) * (1 + size), at)
                acc = acc * rhs
            else:
                return acc

    def factor(self) -> Poly:
        base = self.atom()
        kind, val, caret = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, at = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", at)
            self.next()
            k = _int_literal(val, at)
            self.spend(_power_cost(len(base.terms), k, _height(base)), caret)
            return base ** k
        return base

    def atom(self) -> Poly:
        kind, val, at = self.next()
        if kind == "int":
            num = _int_literal(val, at)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, at3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", at3)
                self.next()
                den = _int_literal(val3, at3)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", at3)
                return Poly.const(self.vars, Fraction(num, den))
            return Poly.const(self.vars, num)
        if kind == "name":
            if val not in self.vars:
                raise ParseError(f"undeclared variable {val!r}", at)
            return Poly.var(self.vars, val)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind2, val2, at2 = self.peek()
            if kind2 != "op" or val2 != ")":
                raise ParseError("expected ')'", at2)
            self.next()
            return inner
        if kind is None:
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected {val!r}", at)


def parse_polynomial(text: str, vars) -> Poly:
    """Parse polynomial text over the given ordered variable names."""
    p = _Parser(text, vars)
    if not p.toks:
        raise ParseError("empty input", 0)
    try:
        out = p.expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", p.peek()[2]) from None
    kind, val, at = p.peek()
    if kind is not None:
        raise ParseError(f"unexpected {val!r}", at)
    return out


# -- matrices ----------------------------------------------------------------

class PolyMatrix:
    """Dense matrix of Poly entries sharing one ambient."""

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        amb = rows[0][0].vars
        for r in rows:
            for p in r:
                if p.vars != amb:
                    raise ValueError("ambient mismatch among matrix entries")
        self.rows = rows
        self.shape = (len(rows), width)
        self.vars = amb

    def determinant(self) -> Poly:
        """Exact determinant (`_det`)."""
        n, m = self.shape
        if n != m:
            raise ValueError(f"determinant of non-square {n}x{m} matrix")
        return _det(self.rows)


def _det(rows) -> Poly:
    """Determinant of a square list of Poly rows.  Each step takes a nonzero
    constant entry in a row with the fewest nonzeros as pivot, clears its
    column from the other rows with Fraction multipliers, and drops its row
    and column, so a sparse matrix costs products only where it has entries;
    fraction-free (Bareiss) elimination finishes a block of two or more rows
    with no constant entry left."""
    amb = rows[0][0].vars
    e0 = (0,) * len(amb)  # the exponents of a constant
    live = [{j: p for j, p in enumerate(r) if p.terms} for r in rows]
    cols = list(range(len(rows)))
    scale = 1
    while len(live) > 1:
        for i in sorted(range(len(live)), key=lambda i: len(live[i])):
            j = next((j for j, p in live[i].items() if len(p.terms) == 1 and e0 in p.terms), None)
            if j is not None:
                break
        else:
            block = [[r.get(k, Poly.zero(amb)) for k in cols] for r in live]
            return _det_bareiss(block) * scale
        prow, pos = live.pop(i), cols.index(j)
        c = prow.pop(j).terms[e0]
        cols.pop(pos)
        scale *= -c if (i + pos) % 2 else c
        for r in live:
            f = r.pop(j, None)
            if f is None:
                continue
            f = f if c == 1 else f * (1 / Fraction(c))
            for k, q in prow.items():
                s = r[k] - f * q if k in r else -(f * q)
                if s.terms:
                    r[k] = s
                else:
                    del r[k]
    last = live[0].get(cols[0], Poly.zero(amb))
    return last if scale == 1 else last * scale


def _det_bareiss(rows) -> Poly:
    m = [r[:] for r in rows]
    n = len(m)
    amb = m[0][0].vars
    one = Poly.const(amb, 1)
    prev = one
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(amb)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_divide(prev)
            m[i][k] = Poly.zero(amb)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# -- sparse elimination over Q -------------------------------------------------

def _reduce_into(pivots: dict, row: dict) -> None:
    """One step of sparse exact elimination over Q: reduce `row`
    ({column: Fraction}, consumed) against `pivots`, lowest column first,
    and store what is left, scaled to 1 at its lowest column, as the pivot
    of that column.  `pivots` maps each pivot column to its row, which has
    no column below it, so once every row of a matrix went in, the pivots
    are an echelon form of it and len(pivots) is its rank."""
    while row:
        col = min(row)
        piv = pivots.get(col)
        if piv is None:
            inv = Fraction(1) / row[col]
            pivots[col] = {k: v * inv for k, v in row.items()}
            return
        c = row[col]
        for k, v in piv.items():
            s = row.get(k, 0) - c * v
            if s:
                row[k] = s
            else:
                row.pop(k, None)


# -- univariate tools ---------------------------------------------------------

def _coeffs(p: Poly, name: str) -> list:
    """p's coefficients in `name`, lowest first, as the lists of `_prem`."""
    i = p.vars.index(name)
    out = [{} for _ in range(p.degree_in(name) + 1)]
    for e, c in p.terms.items():
        out[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    return [Poly._of(p.vars, t) for t in out]


def _from_coeffs(cs: list, name: str, vars) -> Poly:
    return sum((c * Poly.var(vars, name) ** k for k, c in enumerate(cs)), Poly.zero(vars))


def _cleared(cs: list) -> tuple:
    """(L, L * cs) for a list of ints and Fractions, L the lcm of their
    denominators, so that L * cs is a list of ints."""
    scale = math.lcm(*(c.denominator for c in cs))
    return scale, [c.numerator * (scale // c.denominator) for c in cs]


def _divide(a, d):
    """a / d, checked: ArithmeticError unless d divides a exactly.  a and
    d are both ints or both Polys (`Poly.exact_divide`), or d is the int 1,
    which divides anything."""
    if isinstance(d, Poly):
        return a.exact_divide(d)
    if d == 1:
        return a
    q, r = divmod(a, d)
    if r:
        raise ArithmeticError("integer division is not exact")
    return q


def _prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, on coefficient
    lists (index k holds the coefficient of name^k, the last is nonzero)
    of ints, or of Polys in the other variables; the result has no
    trailing zeros, so [] is the zero remainder.  For b of leading
    coefficient 1 it is the remainder of a on division by b, and no
    product with lc(b) is formed."""
    lead, db = b[-1], len(b) - 1
    monic = lead == 1
    r = a[:]
    for top in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        if not monic:
            r = [lead * x for x in r]
        if c:
            for j in range(db):
                r[top - db + j] = r[top - db + j] - c * b[j]
    while r and not r[-1]:
        r.pop()
    return r


def _subresultants(a: list, b: list):
    """Res(p, q) (`resultant`) and the last nonzero element S of the
    subresultant pseudo-remainder sequence of nonzero p and q, given as
    their `_prem` lists, int or Poly coefficients alike; S is a `_prem`
    list too, and Res is an int or a Poly as the coefficients are
    (Collins/Brown; Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 3.3.7).  Every division is exact, and `_divide` checks
    that it is, on either type.  S is gcd(p, q) up to a factor free of
    the variable (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 6),
    so Res = 0 iff S is not constant."""
    dp, dq = len(a) - 1, len(b) - 1
    # Res(q, p) = (-1)^(dp dq) Res(p, q), and each step of the sequence,
    # from (a, b) to b and a's pseudo-remainder, brings one such sign
    sign = -1 if dp < dq and dp % 2 and dq % 2 else 1
    if dp < dq:
        a, b = b, a
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = _prem(a, b)
        if not r:
            return b[-1] * 0, b  # the zero of the coefficients' type
        div = g * h ** delta
        a, b = b, [_divide(c, div) for c in r]
        g = a[-1]
        h = _divide(g ** delta, h ** (delta - 1)) if delta else h
    # b is a nonzero constant; da = 0 only for two constants, of Res 1
    da = len(a) - 1
    res = _divide(b[0] ** da, h ** max(da - 1, 0))
    return (res if sign == 1 else -res), b


def univariate_gcd(p: Poly, q: Poly, name: str) -> Poly:
    """Monic gcd of two polynomials univariate in `name` over Q: the last
    nonzero element of their subresultant sequence (`_subresultants`),
    made monic; gcd(p, 0) is p made monic.  Each of p and q is scaled to
    integer coefficients first (`_cleared`), which leaves the monic gcd
    as it is, so the sequence runs on ints."""
    for f in (p, q):
        if not f.is_univariate_in(name):
            raise ValueError(f"{f} is not univariate in {name!r}")
    p._check_same(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    i = p.vars.index(name)

    def ints(f):
        cs = [0] * (f.degree_in(name) + 1)
        for e, c in f.terms.items():
            cs[e[i]] = c
        return _cleared(cs)[1]

    a, b = ints(p), ints(q)
    s = _subresultants(a, b)[1] if a and b else a or b
    zeros = (0,) * len(p.vars)
    return Poly._of(p.vars, {zeros[:i] + (k,) + zeros[i + 1:]: _coerce(Fraction(c, s[-1]))
                             for k, c in enumerate(s) if c})


def resultant(p: Poly, q: Poly, name: str) -> Poly:
    """Resultant with respect to `name`, the determinant of the Sylvester
    matrix of p and q (p's rows first), read off their subresultant
    sequence (`_subresultants`) on Poly coefficients, without building
    that matrix."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant with a zero polynomial")
    return _subresultants(_coeffs(p, name), _coeffs(q, name))[0]


def discriminant(p: Poly, name: str) -> Poly:
    """Discriminant in `name`: (-1)^(d(d-1)/2) * Res(p, p') / leadcoeff."""
    d = p.degree_in(name)
    if d < 1:
        raise ValueError("discriminant requires degree >= 1")
    lead = p.coefficient_in(name, d)
    res = resultant(p, p.differentiate(name), name)
    quot = res.exact_divide(lead)
    return quot if (d * (d - 1) // 2) % 2 == 0 else -quot
