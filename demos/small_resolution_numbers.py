"""The invariant package of a small resolution.

A plane-curve germ g(z, w) suspends to the threefold germ
x^2 + y^2 + g(z, w) = 0.  When g is reduced with ord g branches, the
suspension admits a small resolution whose exceptional set is a chain of
r = branches - 1 rational curves, and the numbers (tau, delta, r, b, a, b11, b21, ell21) obey a web of
exact relations.  Run with:  python3 demos/small_resolution_numbers.py
"""

from singkit import germ_from_dict, small_res_report, suspension

GERMS = [
    # the ordinary double point: every invariant collapses to 0 or 1
    {"g": "z^2 + w^2", "family": "a1_times", "n": 1},
    # z^2 + w^6 suspends to the compound A_1 germ x^2+y^2+z^2+w^6
    {"g": "z^2 + w^6", "family": "a1_times", "n": 3},
    # five distinct lines through the origin
    {"g": "z^5 - w^5", "family": "distinct_lines", "n": 5},
    # the same five lines after a one-parameter deformation (t = 1); the
    # branch count is supplied since the family is custom
    {"g": "z^5 - w^5 + z^3*w^3", "family": "custom", "branches": 5},
]

for data in GERMS:
    germ = germ_from_dict(data)
    inv, checks = small_res_report(germ)
    print(f"g = {data['g']}   (suspension {suspension(germ)})")
    print(f"  tau = {inv.tau}  mu = {inv.mu}  r = {inv.r}  delta = {inv.delta}")
    print(f"  b = {inv.b}  a = {inv.a}  (b11, b21, ell21) = "
          f"({inv.b11}, {inv.b21}, {inv.ell21})  odp = {inv.is_odp}")
    failed = [c["name"] for c in checks if not c["pass"]]
    print(f"  {len(checks)} consistency checks, failed: {failed or 'none'}")
    print()

# r is never an input: the exceptional set is a chain of branches - 1
# rational curves (Katz), so a = 2b + r - tau is mu - tau.  The deformed
# example is the interesting one: tau drops from 16 to 15 while mu,
# delta, r, b are unchanged, so a becomes 1.  That matches the
# disappearance of the quasi-homogeneous structure: a = mu - tau is 0
# exactly when the suspension carries weights in some coordinates
# (Saito).
#
# tau and mu are those of g: x^2 + y^2 adds nothing to either.  The
# relations delta = b + r, tau = 2b - a + r and tau = b11 + b21 + ell21
# hold by the definitions of b, a, b11, b21 and ell21, so they are not
# among the checks; every check printed above can fail, the custom
# germ's branches == ord g among them.
