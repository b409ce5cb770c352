"""Walkthrough: binomial representations and the restriction decrement.

Every non-negative integer has a unique base-d expansion into binomial
coefficients with strictly decreasing numerators. Decrementing every
numerator gives the single-degree restriction bound.
"""
from math import comb

from greenhrt import green_bound, kappa, macaulay_rep, rep_compare, rep_value

print("Base-3 representations of small integers")
print("----------------------------------------")
for a in (0, 1, 4, 8, 10, 19, 100):
    rep = macaulay_rep(a, 3)
    print(f"  {a:>3} = {rep.expansion_str():<24} numerators {rep.numerators}, "
          f"padded {rep.padded()}")

print()
print("Round trip and the zero-binomial convention")
rep = macaulay_rep(8, 3)
print(f"  rep_value back from {rep.numerators}: {rep_value(rep)}")
print(f"  C(2, 3) uses the c<d convention: {comb(2, 3)}")

print()
print("kappa decrements every numerator")
for a in (8, 10, 19):
    rep = macaulay_rep(a, 3)
    decremented = "+".join(f"C({x - 1},{i})" for x, i in rep.terms())
    print(f"  kappa({a},3) = {decremented} = {kappa(a, 3)}")

print()
print("Padded numerator vectors sort exactly like the integers")
for a, b in ((8, 7), (12, 15), (9, 9)):
    cmp = {1: ">", 0: "=", -1: "<"}[rep_compare(a, b, 3)]
    print(f"  {a} {cmp} {b}   via {macaulay_rep(a, 3).padded()} vs {macaulay_rep(b, 3).padded()}")

print()
print("Single-component restriction bound (dimension after a generic cut)")
print("  a quotient slice of dimension h in degree d drops to at most kappa(h, d):")
for h, d in ((5, 2), (4, 2), (6, 2), (10, 3)):
    print(f"  h={h}, d={d}: bound {green_bound(h, d)}")

full = comb(3 + 2 - 1, 2)
print(f"  full space check: dim S_2 in 3 vars is {full}, "
      f"bound {green_bound(full, 2)} = dim of degree 2 in 2 vars")
