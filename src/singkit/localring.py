"""Standard bases and colengths in the local ring at the origin.

The kernel works with a weighted local order, given by positive integer
weights w: monomials of *smaller* weighted degree <w, e> are larger, ties
broken by reverse lex.  Unit weights give the negative degree reverse
lexicographic order (Singular's `ds`); other weights give Singular's `ws`
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.2).
Under such an order the leading monomial of a polynomial is a term of
minimal weighted degree, which is what makes the order local: the leading
ideal determines the quotient of the localization at the origin rather
than of the polynomial ring.  Below, "degree" is the weighted degree of
the order in use.

Division uses Mora's tangent-cone normal form, where a reducer of larger
ecart (spread between the degree of the polynomial and that of its
leading term) forces the intermediate remainder itself into the reducer
set.  That bookkeeping is exactly what guarantees termination in the
local order, at the price of computing a weak normal form u*f mod I with
u an invisible unit -- which is all we need, since only leading terms
feed the dimension counts.

Power-series tails are cut at the highest corner (Greuel-Pfister 1.7).
Let F_d be the span of the monomials of degree >= d.  Once the leading
exponents found so far leave only finitely many monomials outside, let N
be one more than the largest degree among those monomials (at most
sum((b_i - 1) * w_i) + 1 for pure powers x_i^b_i among the leads).  Every
monomial M of degree d >= N is then a leading monomial, x^s times the
lead of an element g, and x^s * g is M plus terms of degree d that are
smaller than M plus terms in F_(d+1).  Induction over the finitely many
monomials of degree d, smallest first, gives F_d inside I + F_(d+1).  So
F_N lies in I + F_(N+k) for every k, F_(N+k) lies in
m^ceil((N+k)/max w), and Krull's intersection theorem (the intersection
of the I + m^k is I in the local ring) gives F_N inside I.  So terms of
degree >= N are zero modulo I and the standard basis computation drops
them: no oracle is needed to certify the truncation.

The colength does not depend on the weights: for every local order the
monomials outside the leading ideal of a standard basis give a basis of
the quotient, so their number is the same.  The weights only decide how
soon truncation starts.  Under unit weights the partials of a germ can
lead with mixed monomials, so that no variable has a pure-power lead and
nothing is cut for a long time.  Weights w_i = L/a_i taken from the pure
powers x_i^a_i of the germ (L the lcm of the a_i) give every x_i^a_i the
same degree L; when every other term of the germ has degree above L (a
Brieskorn-Pham germ plus terms above its Newton diagonal), x_i^(a_i - 1)
leads the partial in x_i from the first generator on.  No single order wins on
every germ, so `milnor_number` and `tjurina_number` run two engines
round-robin, those weights first and unit weights second (`_germ_basis`).
Each attempt runs under a budget of work that doubles every round, and
the first attempt to finish gives the answer.  Work is counted in Mora
reduction steps, each weighted by its size (see LOCAL_WORK_LIMIT), never
in seconds, so the engine that answers does not depend on the host.
`LOCAL_WORK_LIMIT` caps the work of all attempts of one number, and of
one `standard_basis` call.

Most S-pairs reduce to zero, and two criteria skip them unreduced
(Buchberger; Gebauer-Moeller 1988; Greuel-Pfister 1.7 and 2.5).  The
product criterion: let f = a + t_f and g = b + t_g be monic with leading
monomials a, b and tails t_f, t_g.  Then spoly(f, g) = b*f - a*g =
b*t_f - a*t_g = t_f*g - t_g*f exactly.  When a and b are coprime and
LM(t_f)*b != LM(t_g)*a, the two products have different leading
monomials, so the leading monomial of the difference is the larger one
and this is a standard representation: the pair needs no normal form.
An empty tail makes one product zero, which is a standard representation
too.  Under a global order LM(t_f) < a rules out LM(t_f)*b = LM(t_g)*a
for coprime a, b; under a local order a tail can be divisible by its own
lead (x + x^2), the two products can cancel, and the criterion fails, so
that case keeps its pair.  The chain criterion: when some lead LM(h)
divides lcm(a, b) and the pairs (f, h) and (g, h) were both taken from
the queue earlier, spoly(f, g) is a monomial combination of spoly(f, h)
and spoly(g, h) whose terms lie below lcm(a, b), and those two already
have such representations, so the pair is skipped.  Truncation keeps
both sound: a tail cut at the corner N differs from the element by
terms in F_N, which lies in the ideal, so every cut element is still in
the ideal and the representations above are representations in it.

Colengths are counted on the staircase of the leading ideal, not by
enumerating monomials.  For consecutive cut points a < b among the first
exponents of the leads, the monomials outside with first exponent in
[a, b) are b - a copies of those outside the leads with first exponent
<= a, projected away from the first variable.  One recursive walk
(`_staircase`) gives the colength and the largest degree outside (the
highest corner); its cost depends on the leads, not on the colength.

The kernel is fraction-free.  Internally polynomials are raw
{monomial key: int} dicts with coprime coefficients, where the key of
exponent e is (<w, e>, e_n, ..., e_1) (`_Keys`): the degree rides along
with every term, and tuple order is the local order, so leads, ecarts
and cuts need no key function and no degree sum.  Each generator
enters as the primitive integer multiple of itself, an S-polynomial is
(c_g/d)*m_f*f - (c_f/d)*m_g*g with c_f, c_g the leading coefficients and
d = gcd(c_f, c_g), and a Mora step scales the remainder by c_g/d before
subtracting (c_h/d)*x^s*g, then divides out the content.  Every such
polynomial is a nonzero rational multiple of the one the same steps give
over Q with monic elements, and a nonzero constant is a unit of the local
ring (Greuel-Pfister 1.6-1.7: a weak normal form is only defined up to a
unit anyway).  A scalar multiple has the same terms, so the same leading
exponents, ecarts and tail leads; the product criterion and the chain
criterion read only those, and the corner reads only the leads.  So the
pairs, the normal forms that vanish, the elements that enter and the
corner are those of the rational computation, and making each kept
element monic gives its basis exactly.  The public surface accepts and
returns Poly objects over Q.

`tjurina_number` and `milnor_number` build their generators once as
primitive integer polynomials straight from f's terms (`_germ_colength`),
and hand them to the kernel in `LocalIdeal`s made from those integers.  A
partial of a positive rational multiple of f is a positive multiple of
f's partial, and the primitive integer polynomial that is a positive
multiple of a given one is unique, so each is the kernel input that its
Poly generator gives.  Only the colength is read there, so a
`StandardBasis` keeps its elements and makes its minimal monic `basis`
and its `leading_exponents` on first read.

tau's engine with weights w tries first f's Euler remainder f_E = L*f -
sum w_i x_i df/dx_i, L >= 1 the least degree of f's terms, then f itself,
each with the partials J: f = (f_E + sum w_i x_i df/dx_i) / L, so
(f) + J = (f_E) + J.  A quasi-homogeneous f for w has f_E = 0, and tau's
input is then mu's (tau = mu, K. Saito, Invent. Math. 14, 1971).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ConfigError, LocalWorkLimitError
from .poly import Poly, _reduce_into

INFINITE = float("inf")  # quotient dimension of a non-isolated singularity

# Work that one tau or mu (all engine attempts together) or one
# standard_basis call may spend; past it, LocalWorkLimitError.  A Mora
# reduction step on a remainder of t terms costs
# t * (1 + b_h // 64) * (1 + b_a // 64), for b_h the bits of the
# remainder's lead coefficient and b_a those of the multiplier that scales
# the remainder: about the word operations of that scaling.  Bare step
# counts do not track time, because coefficients grow as a run goes on.
# The limit is about 24 times the Fermat engine's work on mu of the
# hardest germ in tests/test_localring.py (GERM_115), and ends the
# non-isolated ideal there in about 2 s.
LOCAL_WORK_LIMIT = 2**26
# Work of each engine's first attempt in milnor_number and tjurina_number;
# every round of attempts doubles it.  On 600 seeded random germs, 99 % of
# the Fermat engine's answers took at most 1513 units, so few ops restart.
FIRST_ATTEMPT_WORK = 4096


# -- the local order ----------------------------------------------------------

class _Keys:
    """Monomial keys of the local order with positive integer weights w.

    The kernel keys a term with exponent e by (<w, e>, e_n, ..., e_1).
    Keys of a product add, one key divides another componentwise exactly
    when the exponents do, key[0] is the degree, and the smaller key is the
    bigger monomial (degree, then reverse lex).  So min(terms) is the lead
    and max(terms)[0] the top degree, with no key function.  One object is
    bound per `standard_basis` call.
    """

    __slots__ = ("weights", "_reversed")

    def __init__(self, weights):
        self.weights = weights
        self._reversed = weights[::-1]

    def key(self, e):
        return (sum(map(operator.mul, self.weights, e)),) + e[::-1]

    def keyed(self, terms):
        return {self.key(e): c for e, c in terms.items()}

    def lcm(self, a, b):
        r = tuple(map(max, a[1:], b[1:]))
        return (sum(map(operator.mul, self._reversed, r)),) + r

    def lcm_degree(self, a, b):
        return sum(map(operator.mul, self._reversed, map(max, a[1:], b[1:])))


def _exponent(key):
    """The exponent tuple of a monomial key."""
    return key[:0:-1]


def _entry(terms):
    """(lead, ecart, terms): what Mora's division reads of a reducer; the
    ecart is the top degree minus the lead's degree."""
    lead = min(terms)
    return lead, max(terms)[0] - lead[0], terms


def _divides(a, b):
    return all(map(operator.le, a, b))


def _truncate(terms, bound, keep=None):
    """The terms of degree below `bound`, and the key `keep`."""
    return {k: c for k, c in terms.items() if k[0] < bound or k == keep}


def _tail_lead(terms, lead):
    """Leading key of the terms other than `lead`, or None."""
    return min((k for k in terms if k != lead), default=None)


def _primitive(terms):
    """The primitive integer polynomial that is a positive rational
    multiple of `terms` (a nonempty dict with int or Fraction values): the
    only one, so the same for every such multiple."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    num = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    k = math.gcd(*num.values())
    return {e: c // k for e, c in num.items()} if k != 1 else num


def _content_free(terms):
    """Integer `terms` divided by the gcd of their coefficients ({} stays
    {})."""
    k = math.gcd(*terms.values())
    return {e: c // k for e, c in terms.items()} if k > 1 else terms


def _sub_shifted(h, c, g, shift, bound=None):
    """h -= c * x^shift * g in place, dropping shifted terms of degree
    >= bound."""
    add = operator.add
    if bound is None:
        pairs = g.items()
    else:
        top = bound - shift[0]
        pairs = [(k, v) for k, v in g.items() if k[0] < top]
    for k, v in pairs:
        t = tuple(map(add, k, shift))
        s = h.get(t, 0) - c * v
        if s:
            h[t] = s
        else:
            del h[t]


class _Work:
    """Work a computation may still spend, shared by all normal forms of
    one standard basis; a step that takes it below 0 raises `exhausted`."""

    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def exhausted(self):
        return LocalWorkLimitError(
            f"local standard basis too costly (over {LOCAL_WORK_LIMIT} units of "
            "Mora reduction work)")


def mora_normal_form(f, reducers, bound, work):
    """Weak normal form of f against the reducers, up to a unit.

    f is an integer polynomial keyed by the monomial keys of the order
    (`_Keys`), and the reducers are the (lead, ecart, terms) entries
    (`_entry`) of primitive integer polynomials keyed the same way; the
    keys' tuple order is the order, so nothing else is needed of it.  The
    result is a primitive integer polynomial keyed the same way: a
    rational multiple of the weak normal form over Q, with the same terms.

    `bound` is a degree N of the order with F_N inside the ideal that the
    reducers generate, or None (see `standard_basis`).  With it, terms of
    degree >= N are dropped from f and after every reduction step, and f
    reduces to {} as soon as its leading term has degree >= N: every term
    left then lies in F_N.

    Every reduction step spends its cost (see LOCAL_WORK_LIMIT) from
    `work` (a `_Work`, shared with the caller).
    """
    pool = list(reducers)
    h = f if bound is None else _truncate(f, bound)
    if h:
        h = _primitive(h)
    # reducers by ecart, ties in the order given (sorting is stable), so the
    # first whose lead divides lh is the first of least ecart
    ecart = operator.itemgetter(1)
    pool.sort(key=ecart)
    le = operator.le
    while h:
        lh = min(h)
        # a step's cost (see LOCAL_WORK_LIMIT); the multiplier's words are
        # charged once it is known
        cost = len(h) * (1 + (h[lh].bit_length() >> 6))
        work.left -= cost
        if work.left < 0:
            raise work.exhausted()
        if bound is not None and lh[0] >= bound:
            h = {}
            break
        best = next((entry for entry in pool if all(map(le, entry[0], lh))), None)
        if best is None:
            break
        lg, eg, g = best
        eh = max(h)[0] - lh[0]
        if eg > eh:
            bisect.insort(pool, (lh, eh, dict(h)), key=ecart)
        # h <- (c_g/d)*h - (c_h/d)*x^s*g, then divide out the content
        d = math.gcd(h[lh], g[lg])
        a, b = g[lg] // d, h[lh] // d
        work.left -= cost * (a.bit_length() >> 6)
        if a != 1:
            for e in h:
                h[e] *= a
        _sub_shifted(h, b, g, tuple(map(operator.sub, lh, lg)), bound)
        k = math.gcd(*h.values())
        if k != 1:
            for e in h:
                h[e] //= k
    return h


def _spoly(f, lf, g, lg, lcm):
    """(c_g/d)*x^(l-lf)*f - (c_f/d)*x^(l-lg)*g for l = lcm(lf, lg), c_f,
    c_g the leading coefficients and d their gcd: an integer multiple of
    the S-polynomial of f and g (all keyed by monomial keys)."""
    d = math.gcd(f[lf], g[lg])
    a, b = g[lg] // d, f[lf] // d
    sf = tuple(map(operator.sub, lcm, lf))
    out = {tuple(map(operator.add, k, sf)): a * c for k, c in f.items()}
    _sub_shifted(out, b, g, tuple(map(operator.sub, lcm, lg)))
    return out


def _product_criterion(lf, tf, lg, tg):
    """True when spoly(f, g) of the elements with lead keys lf, lg and
    tail lead keys tf, tg (None for an empty tail) is the standard
    representation t_f*g - t_g*f (see the module docstring)."""
    if any(a and b for a, b in zip(lf[1:], lg[1:])):
        return False
    return (tf is None or tg is None
            or tuple(map(operator.add, tf, lg)) != tuple(map(operator.add, tg, lf)))


def _staircase(leads, nvars, weights=None):
    """(count, top) of the monomials in `nvars` variables that no exponent
    in `leads` divides: their number and largest degree under `weights`
    (default: unit weights; top -1 when there is none), or (None, None)
    when there are infinitely many.  Cuts at the exponents of the first
    variable, see the module docstring; a slab [a, b) adds (b - 1) times
    the first weight to the top of its section."""
    if any(not any(e) for e in leads):
        return 0, -1
    if not leads:
        return (None, None) if nvars else (1, 0)
    if nvars == 2:
        return _plane_staircase(leads, (1, 1) if weights is None else weights)
    w, rest = (1, None) if weights is None else (weights[0], weights[1:])
    count, top = 0, -1
    cuts = sorted({0, *(e[0] for e in leads)})
    for a, b in zip(cuts, cuts[1:] + [None]):
        sub, sub_top = _staircase([e[1:] for e in leads if e[0] <= a], nvars - 1, rest)
        if sub is None or (b is None and sub):
            return None, None
        if sub:
            count += (b - a) * sub
            top = max(top, (b - 1) * w + sub_top)
    return count, top


def _plane_staircase(leads, weights):
    """`_staircase` in two variables, for nonempty leads none (0, 0):
    sweep the first exponent, keeping the least second exponent b of the
    leads passed so far; the slab [a, a') below the next lead adds
    (a' - a) * b monomials, the highest of them x^(a'-1) y^(b-1)."""
    w0, w1 = weights
    count, top = 0, -1
    cut, least = 0, None        # least is None until a lead is passed
    for a, b in sorted(leads):
        if a > cut:
            if least is None:
                return None, None
            if least:
                count += (a - cut) * least
                top = max(top, (a - 1) * w0 + (least - 1) * w1)
            cut = a
        if least is None or b < least:
            least = b
    return (count, top) if least == 0 else (None, None)


# -- ideals and standard bases -------------------------------------------------

class LocalIdeal:
    """Ideal in the localization of Q[vars] at the origin.

    Generators must vanish at the origin: a generator with nonzero
    constant term is a unit locally, which would silently make the whole
    ideal trivial, so it is rejected here instead.
    """

    def __init__(self, vars, generators: Sequence[Poly]):
        self.vars = tuple(vars)
        gens = []
        for g in generators:
            if g.vars != self.vars:
                raise ValueError("generator ambient mismatch")
            if g.is_zero():
                continue
            if g.constant_term():
                raise ValueError(
                    f"generator {g} has nonzero constant term: unit in the local ring"
                )
            gens.append(g)
        if not gens:
            raise ValueError("no nonzero generators")
        self.generators = tuple(gens)

    @classmethod
    def _of(cls, vars: tuple, primitives: list) -> "LocalIdeal":
        """The ideal of nonzero primitive integer polynomials keyed by
        exponent tuples, none with a constant term, unchecked: only for
        generators that `_germ_colength` built.  Its Poly `generators`
        are made on first read."""
        ideal = cls.__new__(cls)
        ideal.vars = vars
        ideal._primitives = tuple(primitives)
        return ideal

    @cached_property
    def generators(self):
        return tuple(Poly._of(self.vars, dict(g)) for g in self._primitives)

    @cached_property
    def _primitives(self):
        """The generators as primitive integer polynomials (`_primitive`):
        what `standard_basis` starts from."""
        return tuple(_primitive(g.terms) for g in self.generators)

    def __repr__(self):
        return f"LocalIdeal({self.vars!r}, [{', '.join(map(str, self.generators))}])"


@dataclass(frozen=True)
class StandardBasis:
    """A standard basis of `ideal` and how it was computed.

    `basis` (minimal, each element monic) and `leading_exponents` are made
    from the kept elements on first read: the colength and the corner do
    not need them."""
    ideal: LocalIdeal
    # certified degree N of the order with F_N inside the ideal: one more
    # than the degree of the highest corner; None when infinitely many
    # monomials lie outside the leading ideal (some variable has no pure
    # power)
    corner: int | None = None
    # number of monomials outside the leading ideal, from the staircase
    # walk that set the corner; None when the corner is None
    colength: int | None = None
    # how the pairs went: normal forms run, pairs skipped by the product
    # and by the chain criterion, and pairs left at the corner unpopped
    normal_forms: int = 0
    product_skips: int = 0
    chain_skips: int = 0
    left_at_corner: int = 0
    # the weights of the local order (all 1: negative degree reverse lex),
    # and the work its normal forms spent (see LOCAL_WORK_LIMIT)
    weights: tuple = ()
    work: int = 0
    # the kept elements, (lead key, ecart, primitive integer terms keyed by
    # monomial keys), in the order they entered
    _elements: tuple = field(default=(), repr=False, compare=False)

    @property
    def vars(self):
        return self.ideal.vars

    @cached_property
    def _minimal(self):
        """The kept elements whose lead no other lead divides (of equal
        leads, the first)."""
        leads = [lead for lead, _, _ in self._elements]
        return tuple(
            (lead, terms) for i, (lead, _, terms) in enumerate(self._elements)
            if not any(_divides(other, lead) and (other != lead or j < i)
                       for j, other in enumerate(leads) if j != i))

    @cached_property
    def basis(self):
        return tuple(Poly(self.vars, {_exponent(k): Fraction(c, terms[lead])
                                      for k, c in terms.items()})
                     for lead, terms in self._minimal)

    @cached_property
    def leading_exponents(self):
        return tuple(_exponent(lead) for lead in sorted(lead for lead, _ in self._minimal))


def standard_basis(ideal: LocalIdeal, *, weights=None, work=None) -> StandardBasis:
    """Mora's tangent-cone construction of a standard basis.

    `weights` are positive integers, one per variable, that pick the local
    order (default: unit weights, see the module docstring); "degree"
    below is the weighted degree.  The returned basis is minimal: no
    leading monomial divides another, so the leading-exponent set is the
    canonical minimal generating set of the leading ideal for that order
    (independent of generator order).

    Highest corner (Greuel-Pfister, A Singular Introduction to Commutative
    Algebra, 1.7): once the leading exponents of the basis G built so far
    hold a pure power x_i^b_i of every variable, only finitely many
    monomials lie outside L(G); let N be one more than the largest degree
    among them.  Every monomial of degree >= N then lies in L(G), and the
    module docstring shows that F_N, the span of the monomials of degree
    >= N, lies in (G), which is inside the ideal.  From then on every term
    of degree >= N is zero modulo the ideal: S-pairs whose lcm has degree
    >= N are skipped, normal forms drop such terms (`mora_normal_form`'s
    `bound`), and the tails of the basis elements are cut at N (their
    leading terms are kept).  N falls as new leading exponents arrive, and
    the final N is recorded as `corner`: the least N with F_N inside the
    ideal.  Until every variable has a pure power, which for a
    non-isolated ideal is never, nothing is truncated.

    Pairs that the product or the chain criterion settles are skipped
    without a normal form; the module docstring proves both for the local
    order and for truncated elements.

    The generators enter as the ideal's primitive integer polynomials.
    Elements are kept as such polynomials keyed by the order's monomial
    keys (`_Keys`), with their lead, ecart and tail lead, computed when
    they enter or are cut; the minimal monic basis is made from the kept
    elements when `basis` or `leading_exponents` is first read.  The
    staircase that sets the corner also gives the colength, recorded as
    `colength`.

    The normal forms spend `work` (a `_Work`; without it, LOCAL_WORK_LIMIT)
    and raise LocalWorkLimitError once it is spent.
    """
    n = len(ideal.vars)
    weights = (1,) * n if weights is None else tuple(weights)
    if len(weights) != n or not all(isinstance(w, int) and w > 0 for w in weights):
        raise ValueError(f"weights must be {n} positive integers, got {weights!r}")
    keys = _Keys(weights)
    if work is None:
        work = _Work(LOCAL_WORK_LIMIT)
    start = work.left
    G, leads, tails = [], [], []    # (lead, ecart, terms) entries, lead keys, tail leads
    exps = []               # the leads' exponents
    powers = set()          # the variables with a pure-power lead
    corner = colength = None
    pairs = []              # heap of (lcm degree, insertion count, i, j)
    count = itertools.count()

    def add(g):
        nonlocal corner, colength
        lead = min(g)
        leads.append(lead)
        e = _exponent(lead)
        exps.append(e)
        if e.count(0) == n - 1:
            powers.add(e.index(max(e)))
        # the staircase is finite once every variable has a pure power
        if len(powers) == n:
            colength, top = _staircase(exps, n, weights)
            if top + 1 != corner:
                corner = top + 1
                for k, (lk, _, terms) in enumerate(G):
                    cut = _truncate(terms, corner, lk)
                    if len(cut) < len(terms):
                        G[k], tails[k] = _entry(cut), _tail_lead(cut, lk)
        if corner is not None:
            g = _truncate(g, corner, lead)
        G.append(_entry(g))
        tails.append(_tail_lead(g, lead))

    def push(i, j):
        heapq.heappush(pairs, (keys.lcm_degree(leads[i], leads[j]), next(count), i, j))

    for g in ideal._primitives:
        add(keys.keyed(g))
    for i, j in itertools.combinations(range(len(G)), 2):
        push(i, j)
    popped = set()          # pairs (i, j), i < j, taken from the heap
    normal_forms = product_skips = chain_skips = left_at_corner = 0
    # cheapest-lcm-first selection, ties in the order the pairs arose
    while pairs:
        deg, _, i, j = heapq.heappop(pairs)
        if corner is not None and deg >= corner:
            # every pair left has lcm degree >= N, and N only falls
            left_at_corner = len(pairs) + 1
            break
        popped.add((i, j))
        if _product_criterion(leads[i], tails[i], leads[j], tails[j]):
            product_skips += 1
            continue
        lcm = keys.lcm(leads[i], leads[j])
        if any(k != i and k != j and _divides(leads[k], lcm)
               and (min(i, k), max(i, k)) in popped and (min(j, k), max(j, k)) in popped
               for k in range(len(G))):
            chain_skips += 1
            continue
        normal_forms += 1
        h = mora_normal_form(_spoly(G[i][2], leads[i], G[j][2], leads[j], lcm), G, corner, work)
        if h:
            add(h)
            for k in range(len(G) - 1):
                push(k, len(G) - 1)

    return StandardBasis(ideal=ideal, corner=corner, colength=colength,
                         normal_forms=normal_forms, product_skips=product_skips,
                         chain_skips=chain_skips, left_at_corner=left_at_corner,
                         weights=weights, work=start - work.left, _elements=tuple(G))


def quotient_dim(sb: StandardBasis):
    """Vector-space dimension of local ring / ideal: the number of
    monomials outside the leading ideal, counted on its staircase.
    INFINITE when some variable has no pure power among the leads."""
    return INFINITE if sb.colength is None else sb.colength


# -- the classical invariants ---------------------------------------------------

def _misses_an_axis(gens, nvars):
    """True when some variable x_j is a pure power in no term of any
    generator (dicts keyed by exponent tuples).  Every generator then
    vanishes on the x_j-axis, so the ideal lies in the ideal of that axis
    and its colength is infinite."""
    axes = {e.index(max(e)) for g in gens for e in g if e.count(0) == nvars - 1}
    return len(axes) < nvars


def _fermat_weights(f: Poly):
    """Weights L/a_i from the least pure power x_i^a_i of each variable
    in f, L the lcm of the a_i: the weights under which f's pure powers
    all have degree L.  None when some variable has no pure power in f."""
    n = len(f.vars)
    least = {}
    for e in f.terms:
        if e.count(0) == n - 1:
            a = max(e)
            i = e.index(a)
            if a < least.get(i, a + 1):
                least[i] = a
    if len(least) < n:
        return None
    lcm = math.lcm(*least.values())
    return tuple(lcm // least[i] for i in range(len(f.vars)))


def _engines(weights):
    """The weights of the engines that `_germ_basis` alternates, in
    turn: a germ's Fermat weights (`_fermat_weights`), when it has them
    and they are not all equal, then unit weights (None)."""
    return (None,) if weights is None or len(set(weights)) == 1 else (weights, None)


def _germ_basis(engines, inputs):
    """(standard basis, attempts): the basis of the first attempt to
    finish, and the number of `standard_basis` calls made.

    Each engine (see `_engines`) tries the ideals `inputs(weights)` in
    turn; they are made when the engine's first turn comes.  The engines
    take turns, in order; an attempt that spends its work is dropped, and
    each round of turns doubles the work an attempt is given, starting at
    FIRST_ATTEMPT_WORK.  A single engine with a single ideal gets all of
    LOCAL_WORK_LIMIT at once.  All attempts together spend at most
    LOCAL_WORK_LIMIT: the attempt that is given all that is left raises
    LocalWorkLimitError when it runs out.  Work is counted, not timed, so
    the same germ is always answered by the same engine and input with the
    same counts."""
    made = [inputs(engines[0])]     # each engine's ideals, once reached
    left = LOCAL_WORK_LIMIT
    given = FIRST_ATTEMPT_WORK if len(engines) > 1 or len(made[0]) > 1 else left
    attempts = 0
    while True:
        for k, weights in enumerate(engines):
            if k == len(made):
                made.append(inputs(weights))
            for ideal in made[k]:
                n = min(given, left)
                attempts += 1
                try:
                    return standard_basis(ideal, weights=weights, work=_Work(n)), attempts
                except LocalWorkLimitError:
                    if n == left:
                        raise
                    left -= n
        given *= 2


def _euler_remainder(g, weights):
    """f's Euler remainder for `weights` (None: unit weights), with its
    content divided out, g being f's primitive multiple:

        f_E = L*f - sum w_i x_i df/dx_i = sum_e (L - <w, e>) c_e x^e

    with L the least degree of f's terms; {} when f is quasi-homogeneous
    for the weights (every term of degree L).  See the module docstring."""
    degree = [sum(map(operator.mul, weights, e)) if weights else sum(e) for e in g]
    level = min(degree)
    return _content_free({e: (level - d) * c
                          for (e, c), d in zip(g.items(), degree) if d != level})


def _germ_colength(f: Poly, name, with_f):
    """Colength of the Jacobian ideal J of f (mu) or of (f) + J (tau): 0
    when a partial is a unit, INFINITE when the partials all vanish on a
    coordinate axis (f then does too), else counted on the standard basis
    of the first attempt of f's engines (`_engines`) to finish
    (`_germ_basis`).  The generators are primitive integer polynomials
    keyed by exponent tuples: f's nonzero partials, each divided by its
    content, and for tau first f's Euler remainder for the engine's
    weights, then, unless that is zero, f (see the module docstring)."""
    if f.is_zero():
        raise ConfigError(f"{name} of the zero polynomial is undefined")
    origin = (0,) * len(f.vars)
    if origin in f.terms:
        raise ConfigError("germ must vanish at the origin")
    g = _primitive(f.terms)
    partials = [_content_free(d) for d in (
        {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in g.items() if e[i]}
        for i in range(len(f.vars))) if d]
    if any(origin in d for d in partials):
        return 0  # unit partial derivative: smooth point
    if _misses_an_axis(partials, len(f.vars)):
        return INFINITE

    def inputs(weights):
        r = _euler_remainder(g, weights) if with_f else {}
        return [LocalIdeal._of(f.vars, [h] + partials) for h in (r, g)] if r else \
            [LocalIdeal._of(f.vars, partials)]
    return quotient_dim(_germ_basis(_engines(_fermat_weights(f)), inputs)[0])


def milnor_number(f: Poly):
    """Colength of the gradient ideal; INFINITE for a non-isolated
    critical point, 0 for a smooth point of f - f(0)."""
    return _germ_colength(f, "Milnor number", False)


def tjurina_number(f: Poly):
    """Colength of (f) + gradient ideal; INFINITE for non-isolated
    singularities, 0 for smooth points."""
    return _germ_colength(f, "Tjurina number", True)


# -- truncated linear-algebra oracle --------------------------------------------

def _monomials_below(nvars, cutoff):
    """All exponent tuples of total degree < cutoff, graded order."""
    def of_degree(n, d):  # exponent tuples of length n and degree d, lex order
        if n == 0:
            return [()] if d == 0 else []
        return [(k,) + rest for k in range(d + 1) for rest in of_degree(n - 1, d - k)]

    return [e for d in range(cutoff) for e in of_degree(nvars, d)]


def _oracle_gaps(ideal: LocalIdeal, cutoff: int):
    """Per degree d < cutoff: the number of monomials of degree d minus
    the number of pivots of degree d, after eliminating the image of the
    ideal in the monomials of degree < cutoff with the lowest column as
    pivot.  The columns are graded, so a pivot row has no term below its
    pivot's degree, and the gaps below any N <= cutoff sum to
    dim R / (I + m^N): cutting every row at N keeps exactly the pivot
    rows of degree < N independent and sends the others to zero, and the
    rows cut at N are those of the elimination at N."""
    nvars = len(ideal.vars)
    mons = _monomials_below(nvars, cutoff)
    index = {e: i for i, e in enumerate(mons)}

    pivots = {}
    for g in ideal.generators:
        gterms = g.terms
        gord = g.order_at_origin()
        for shift in _monomials_below(nvars, max(cutoff - gord, 0)):
            row = {}
            for e, c in gterms.items():
                t = tuple(a + b for a, b in zip(e, shift))
                if sum(t) < cutoff:
                    row[index[t]] = row.get(index[t], 0) + c
            _reduce_into(pivots, {k: v for k, v in row.items() if v})
    gaps = [math.comb(d + nvars - 1, nvars - 1) for d in range(cutoff)]
    for col in pivots:
        gaps[sum(mons[col])] -= 1
    return gaps


def truncated_dim_oracle(ideal: LocalIdeal, cutoff: int) -> int:
    """dim of local ring / (ideal + m^cutoff) by exact rank over Q.

    Independent of the standard-basis machinery: spans the image of the
    ideal inside the monomial basis of degrees < cutoff and subtracts its
    rank.  For zero-dimensional ideals the value stabilizes (in cutoff)
    at the true colength.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return sum(_oracle_gaps(ideal, cutoff))


def stabilized_oracle_dim(ideal: LocalIdeal, start: int | None = None, limit: int = 40):
    """First stabilized value of the truncated oracle: the dimension at
    two consecutive cutoffs N, N+1 that agree, N at least max generator
    degree + 2 and N < limit.  Returns (dim, N).

    One elimination at cutoff C gives the dimension at every N <= C
    (`_oracle_gaps`), so each cutoff C = start + 1, start + 2, ... decides
    N = C - 1 alone: it stabilizes when the gap of degree C - 1 is zero.
    C grows by one, up to limit: an elimination costs two to four times
    as much per degree, so overshooting N + 1 would cost more than all
    the smaller cutoffs together.
    """
    if start is None:
        start = max(g.total_degree() for g in ideal.generators) + 2
    if start < 1:
        raise ValueError("cutoff must be >= 1")
    for cutoff in range(start + 1, limit + 1):
        gaps = _oracle_gaps(ideal, cutoff)
        if not gaps[-1]:
            return sum(gaps), cutoff - 1
    raise ValueError(f"no stabilization up to cutoff {limit} (non-isolated?)")


# -- quasi-homogeneity -----------------------------------------------------------

def quasi_homogeneous_weights(f: Poly):
    """Positive weights making every term of f the same weighted degree.

    Solves <w, exponent> = 1 over the exponent vectors exactly (sparse
    elimination, then Fourier-Motzkin for strict positivity), and scales
    the solution to the smallest integer weight vector.  Returns
    (weights, degree) or None.  The test is syntactic: it sees the given
    coordinates only, so a germ that is quasi-homogeneous after a change
    of coordinates can still return None.
    """
    if f.is_zero():
        raise ValueError("weights of the zero polynomial are undefined")
    exps = sorted(set(f.terms))
    n = len(f.vars)

    # echelon form of [E | 1]; a pivot in column n means 0 = 1
    pivots = {}
    for e in exps:
        row = {c: x for c, x in enumerate(e) if x}
        row[n] = 1
        _reduce_into(pivots, row)
    if n in pivots:
        return None  # inconsistent
    free_cols = [c for c in range(n) if c not in pivots]
    k = len(free_cols)

    # w_c = base[c] + sum_j coeff[c][j] * u_j, the pivot columns by
    # back-substitution, last first
    base = [Fraction(0)] * n
    coeff = [[Fraction(0)] * k for _ in range(n)]
    for j, c in enumerate(free_cols):
        coeff[c][j] = Fraction(1)
    for c in sorted(pivots, reverse=True):
        for col, v in pivots[c].items():
            if col == n:
                base[c] += v
            elif col != c:
                base[c] -= v * base[col]
                coeff[c] = [a - v * b for a, b in zip(coeff[c], coeff[col])]

    # strict inequalities sum coeff*u + base > 0, Fourier-Motzkin
    ineqs = [(tuple(coeff[c]), base[c]) for c in range(n)]
    stages = []
    for j in range(k - 1, -1, -1):
        stages.append((j, ineqs))
        lowers = [q for q in ineqs if q[0][j] > 0]
        uppers = [q for q in ineqs if q[0][j] < 0]
        rest = [q for q in ineqs if q[0][j] == 0]
        new = list(rest)
        for lo in lowers:
            for hi in uppers:
                a = tuple(
                    x / lo[0][j] - y / hi[0][j] for x, y in zip(lo[0], hi[0])
                )
                b = lo[1] / lo[0][j] - hi[1] / hi[0][j]
                new.append((a, b))
        ineqs = new
    if any(b <= 0 for coefs, b in ineqs if not any(coefs)):
        return None

    u = [Fraction(0)] * k
    for j, stage in reversed(stages):
        lo, hi = None, None
        for coefs, b in stage:
            cj = coefs[j]
            if cj == 0:
                continue
            rest = b + sum(coefs[i] * u[i] for i in range(k) if i != j and coefs[i])
            bound = -rest / cj
            if cj > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            u[j] = (lo + hi) / 2
        elif lo is not None:
            u[j] = lo + 1
        elif hi is not None:
            u[j] = hi - 1

    w = [base[c] + sum(coeff[c][i] * u[i] for i in range(k)) for c in range(n)]
    if any(x <= 0 for x in w):
        return None  # numerically impossible if FM was feasible; belt and braces
    scale = math.lcm(*(x.denominator for x in w))
    weights = tuple(int(x * scale) for x in w)
    g = math.gcd(*weights, scale)
    return tuple(x // g for x in weights), scale // g
