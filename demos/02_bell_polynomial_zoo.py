"""The three Bell-polynomial families and their violation thresholds.

Prints the explicit term lists for small party counts, confirms the
textbook identities between the families, enumerates every deterministic
local strategy to recover the lhv bound 1, and shows the thresholds table
used to certify entanglement depth and nonseparability.
"""

from bellframes import polynomials as bp

print("=== Term lists ===")
for label, poly in [
    ("CHSH  (mk, n=2)", bp.make_polynomial("mk", 2)),
    ("mk, n=3", bp.make_polynomial("mk", 3)),
    ("svetlichny, n=3", bp.make_polynomial("svetlichny", 3)),
    ("mermin, n=4", bp.make_polynomial("mermin", 4)),
]:
    print(f"  {label}:")
    for term in poly.term_strings():
        print(f"      {term}")

print()
print("=== Family identities ===")
for n in (3, 5, 7):
    same = bp.make_polynomial("mermin", n).terms == bp.make_polynomial("mk", n).terms
    print(f"  mermin == mk at n={n}: {same}")
for n in (2, 4, 6, 8):
    same = bp.make_polynomial("svetlichny", n).terms == bp.make_polynomial("mk", n).terms
    print(f"  svetlichny == mk at n={n}: {same}")

print()
print("=== Exhaustive deterministic-strategy maxima (the lhv bound) ===")
for family in bp.FAMILIES:
    values = [bp.lhv_deterministic_max(bp.make_polynomial(family, n))
              for n in (2, 3, 4, 5)]
    print(f"  {family:11s}: n=2..5 -> {values}")

print()
print("=== Violation thresholds ===")
for family, n in [("mk", 3), ("mk", 5), ("svetlichny", 3), ("svetlichny", 5)]:
    table = bp.bounds_table(n, family)
    rows = ", ".join(f"{label}={value:.4f}" for label, value in table.thresholds)
    print(f"  {family} n={n}: lhv={table.lhv_bound}  {rows}")
