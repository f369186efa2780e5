"""Invariants of threefold germs x^2 + y^2 + g(z,w) with small resolutions.

The germ f is the double suspension of a reduced plane curve g, the cA_m
singularity uv + g with m + 1 = ord g.  By Katz (Small resolutions of
Gorenstein threefold singularities, 1991) it has a small resolution iff
g has ord g branches, and then the exceptional set is a chain of
r = branches - 1 rational curves.  Its small resolution data is governed
by plane-curve numbers: delta of g, r, and the Tjurina number of the
threefold.  From those, b = delta - r counts independent exceptional
cohomology classes and a = 2b + r - tau = mu - tau measures the failure
of the singularity to admit a good torus action (a = 0 exactly for a
quasi-homogeneous germ, by Saito, so a == 0 is the exact test and no
weights are searched for).

Every number is computed on g: df/dx = 2x, df/dy = 2y and f = g mod
(x, y) give (f, df) = (x, y, g, dg), so O_4/(f, df) = O_2/(g, dg) and
tau(f) = tau(g); likewise mu(f) = mu(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, ConsistencyError
from .localring import INFINITE, milnor_number, tjurina_number
from .poly import Poly, parse_polynomial, univariate_gcd


class Family(str, Enum):
    DISTINCT_LINES = "distinct_lines"  # g = n distinct lines through 0
    A1_TIMES = "a1_times"              # g = z^2 + w^(2n)
    CUSTOM = "custom"


@dataclass(frozen=True)
class SuspendedCurveGerm:
    """A germ x^2 + y^2 + g(z,w), tagged with how its curve arose."""

    g: Poly
    family: Family
    n: int | None = None
    branches: int | None = None

    def __post_init__(self):
        g = self.g
        if len(g.vars) != 2:
            raise ConfigError("g must live in exactly two variables")
        if set(g.vars) & {"x", "y"}:
            raise ConfigError("g may not use the suspension variables x, y")
        if g.is_zero():
            raise ConfigError("g must be nonzero")
        if g.constant_term():
            raise ConfigError("g must vanish at the origin")
        fam = self.family
        if fam in (Family.DISTINCT_LINES, Family.A1_TIMES):
            if self.n is None or self.n < 1:
                raise ConfigError(f"family {fam.value} needs a positive n")
            if self.branches is not None:
                raise ConfigError(f"family {fam.value} derives its branches itself")
        if fam is Family.DISTINCT_LINES:
            if self.n < 2:
                raise ConfigError("distinct_lines needs n >= 2")
            _check_distinct_lines(g, self.n)
        elif fam is Family.A1_TIMES:
            u, v = g.vars
            want = (
                Poly.var(g.vars, u) ** 2 + Poly.var(g.vars, v) ** (2 * self.n)
            )
            if g != want:
                raise ConfigError(
                    f"a1_times({self.n}) requires g = {u}^2 + {v}^{2 * self.n}, got {g}"
                )
        elif fam is Family.CUSTOM:
            if self.n is not None:
                raise ConfigError("custom germs take branches, not n")
            if self.branches is None or self.branches < 1:
                raise ConfigError("custom germs need an explicit positive branch count")
        else:  # pragma: no cover
            raise ConfigError(f"unknown family {fam!r}")

    @property
    def branch_count(self) -> int:
        if self.family is Family.DISTINCT_LINES:
            return self.n
        if self.family is Family.A1_TIMES:
            return 2  # z^2 + w^(2n) = (z + i w^n)(z - i w^n)
        return self.branches


def _check_distinct_lines(g: Poly, n: int):
    if any(sum(e) != n for e in g.terms):
        raise ConfigError(f"distinct_lines({n}) requires g homogeneous of degree {n}")
    z, w = g.vars
    u = g.substitute({w: Poly.const(g.vars, 1)})
    du = u.degree_in(z)
    if n - du > 1:
        raise ConfigError("g has a repeated line (w divides twice)")
    if du > 0:
        gcd = univariate_gcd(u, u.differentiate(z), z)
        if gcd.degree_in(z) > 0:
            raise ConfigError("g has a repeated line")


def plane_delta_invariant(g: Poly, branches: int) -> int:
    """delta = (mu + branches - 1) / 2 for a reduced plane curve germ."""
    if branches < 1:
        raise ValueError("branch count must be positive")
    mu = milnor_number(g)
    if mu == INFINITE:
        raise ConfigError("plane curve is not reduced (non-isolated singularity)")
    if (mu + branches - 1) % 2:
        raise ConsistencyError(
            "delta parity",
            f"mu + branches - 1 = {mu + branches - 1} is odd; branch count is wrong",
        )
    return (mu + branches - 1) // 2


@dataclass(frozen=True)
class SmallResInvariants:
    """Numeric package of the small resolution.

    tau and mu are the threefold's, equal to g's.  r = branches - 1, so
    a = 2b + r - tau = mu - tau.  b11, b21 and ell21 are the graded
    pieces of tau: tau = b11 + b21 + ell21 with b11 = b, b21 = b - a,
    ell21 = r, all three by definition.  The local cohomology of
    middle-degree forms along the exceptional curves has dimension b + r
    (= b11 + ell21); the toolkit places that group in cohomological
    degree 2 throughout, the degree consistent with the decomposition of
    tau.  The same number is sometimes quoted with superscript 1; we fix
    one convention rather than guess intent.
    """

    tau: int
    mu: int
    r: int
    delta: int
    b: int
    a: int
    b11: int
    b21: int
    ell21: int
    is_odp: bool

    @property
    def h2_forms_dim(self) -> int:
        """Dimension b + r of the degree-2 local cohomology of 2-forms."""
        return self.b + self.r


def suspension(s: SuspendedCurveGerm) -> Poly:
    """The threefold germ x^2 + y^2 + g as a 4-variable polynomial."""
    amb = ("x", "y") + s.g.vars
    return (
        Poly.var(amb, "x") ** 2
        + Poly.var(amb, "y") ** 2
        + s.g.in_ambient(amb)
    )


def small_res_report(s: SuspendedCurveGerm):
    """Compute the invariant package plus its named consistency checks.

    tau and mu are computed on g (module docstring); mu is read
    back from delta = (mu + branches - 1) / 2, and r = branches - 1.
    delta = b + r, tau = 2b - a + r and tau = b11 + b21 + ell21 hold by
    definition, b + r <= tau <= 2b + r is a <= b and a >= 0, and
    a = mu - tau makes a >= 0 the check tau <= mu, so only relations that
    can fail are checked, each once.  A custom germ's branch count is
    user data, so it is checked against Katz's condition
    branches == ord g; the named families meet it by construction.
    Returns (invariants, checks) without raising on a failed
    check; each check is a dict with name/expected/actual/pass.
    """
    tau = tjurina_number(s.g)
    if tau == INFINITE:
        raise ConfigError("suspended germ has a non-isolated singularity")
    r = s.branch_count - 1
    delta = plane_delta_invariant(s.g, s.branch_count)
    mu = 2 * delta - r
    b = delta - r
    a = 2 * b + r - tau
    inv = SmallResInvariants(
        tau=tau,
        mu=mu,
        r=r,
        delta=delta,
        b=b,
        a=a,
        b11=b,
        b21=b - a,
        ell21=r,
        is_odp=(b == 0),
    )

    checks = []

    def chk(name, expected, actual):
        checks.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )

    chk("b >= 0", True, b >= 0)
    chk("a <= b", True, a <= b)
    chk("tau <= mu", True, tau <= mu)
    if inv.is_odp:
        chk("odp forces tau == r == delta == 1", (1, 1, 1), (tau, r, delta))
    if s.family is Family.CUSTOM:
        chk("branches == ord g", s.branches, s.g.order_at_origin())
    if s.family is Family.DISTINCT_LINES:
        chk("delta == n*(n-1)/2", delta, s.n * (s.n - 1) // 2)
        chk("tau == (n-1)^2", tau, (s.n - 1) ** 2)
    if s.family is Family.A1_TIMES:
        chk("delta == n", delta, s.n)
        chk("tau == 2*n - 1", tau, 2 * s.n - 1)
    return inv, checks


def small_res_invariants(s: SuspendedCurveGerm) -> SmallResInvariants:
    """The invariant package; raises ConsistencyError on the first
    relation of small_res_report that fails."""
    inv, checks = small_res_report(s)
    for c in checks:
        if not c["pass"]:
            raise ConsistencyError(
                c["name"], f"expected {c['expected']}, got {c['actual']}"
            )
    return inv


# -- JSON interchange ----------------------------------------------------------

_GERM_KEYS = {"g", "family", "n", "branches"}


def germ_from_dict(d: dict, vars=("z", "w")) -> SuspendedCurveGerm:
    if not isinstance(d, dict):
        raise ConfigError("germ description must be a JSON object")
    unknown = set(d) - _GERM_KEYS
    if unknown:
        raise ConfigError(f"unknown germ keys: {sorted(unknown)}")
    if "g" not in d or "family" not in d:
        raise ConfigError("germ description needs 'g' and 'family'")
    try:
        fam = Family(d["family"])
    except ValueError:
        raise ConfigError(f"unknown family {d['family']!r}") from None
    if not isinstance(d["g"], str):
        raise ConfigError(f"g must be a polynomial string, got {d['g']!r}")
    g = parse_polynomial(d["g"], vars)

    def uint(key):
        v = d.get(key)
        if v is None:
            return None
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ConfigError(f"{key} must be a nonnegative integer")
        return v

    return SuspendedCurveGerm(g=g, family=fam, n=uint("n"), branches=uint("branches"))
