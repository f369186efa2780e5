"""The coefficient-space map that splits off one root.

Deformations of a chain of exceptional curves are parametrized by the
coefficients b = (b_{n-2}, ..., b_0) of a monic polynomial
P(w; b) = w^n + sum b_i w^i.  Splitting off one root w = lam writes
P = (w - lam) * Q(w; lam, t), and expressing b in terms of (lam, t)
defines a finite degree-n map Phi between coefficient spaces.  This
script verifies the defining identities exactly and explores a fiber.
Run with:  python3 demos/root_splitting_map.py
"""

from fractions import Fraction

from singkit import (
    apply_map,
    build,
    fiber_count,
    inverse_composition_reduces,
    jacobian_identity,
    ramification_check,
    verify_factor_identity,
)

# -- the map for n = 3 --------------------------------------------------------
m = build(3)
print("n = 3:")
print(f"  P = {m.target}")
print(f"  Q = {m.cofactor}")
for name, comp in zip(m.b_names, m.components):
    print(f"  {name} = {comp}")

# The factorization P(w; Phi(lam, t)) = (w - lam) Q(w; lam, t) holds as a
# polynomial identity, not just at sampled points:
print(f"\n  factor identity: {verify_factor_identity(m)}")

# The Jacobian determinant of Phi equals +/- Q(lam; lam, t) - the map is
# ramified exactly where lam collides with another root.
jac = jacobian_identity(m)
print(f"  jacobian = {jac.determinant}  (sign {jac.sign:+d} times Q at the root)")
print(f"  ramification locus inside discriminant: {ramification_check(m)}")

# Away from the discriminant the map is n-to-1.  Solving w^3 - w = 0
# gives the three points of the fiber over b = (-1, 0):
fib = fiber_count(m, [Fraction(-1), Fraction(0)])
print(f"\n  fiber over b = (-1, 0): count = {fib.count}, "
      f"generic = {fib.is_generic}")
for p in fib.points:
    back = apply_map(m, p.lam, p.t)
    print(f"    lam = {p.lam}, t = {p.t}  ->  maps back to {back}")

# Over the discriminant the fiber degenerates: w^3 has a triple root.
fib0 = fiber_count(m, [0, 0])
print(f"  fiber over b = (0, 0): count = {fib0.count}, "
      f"discriminant = {fib0.discriminant}")

# The same identities hold for every degree; the exact arithmetic makes
# each check a polynomial-zero test rather than a numerical one.
print("\nhigher degrees:")
for n in range(2, 9):
    mn = build(n)
    ok = (verify_factor_identity(mn)
          and jacobian_identity(mn).matches
          and inverse_composition_reduces(mn)
          and ramification_check(mn))
    print(f"  n = {n}: all identities {'pass' if ok else 'FAIL'}"
          f"  (jacobian sign {jacobian_identity(mn).sign:+d})")
