"""Walkthrough: the piecewise bound for quotients of graded free modules.

The bound fills the lowest-degree components of F to capacity and applies
the numerator decrement to the partial head component. Lexicographic
slices attain it, which can be verified by pure counting: restricting a
monomial module by x_n just filters out every x_n-multiple.
"""
from greenhrt import (
    FreeModuleShape,
    degree_slice,
    enumerate_module_monomials,
    lex_module_slice,
    module_bound,
    module_from_slice,
)

shape = FreeModuleShape(n=2, degrees=(0, 1))
m = 2
print(f"F = S(0) + S(-1) over k[x1,x2]; degree {m} slice")
print(f"  component degrees {shape.component_degrees(m)}, "
      f"capacities {shape.component_dims(m)}, dim F_{m} = {shape.dim(m)}")

def fmt(u):
    mono = "".join(f"x{i+1}^{e}" if e > 1 else (f"x{i+1}" if e else "")
                   for i, e in enumerate(u.monomial)) or "1"
    return f"{mono}*e{u.component}"

basis = enumerate_module_monomials(shape, m)
print("  monomial basis, largest first:", ", ".join(fmt(u) for u in basis))

print()
print("Piecewise bound across every possible quotient dimension h")
for h in range(shape.dim(m) + 1):
    bb = module_bound(h, m, shape)
    print(f"  h={h}: pivot j={bb.j}, head {bb.head} -> {bb.head_term}, "
          f"tail {list(bb.tail_terms)}, total {bb.total}")

print()
print("Lexicographic slices attain the bound exactly")
for k in range(shape.dim(m) + 1):
    slice_members = lex_module_slice(shape, m, k)
    module = module_from_slice(shape, slice_members)
    h = shape.dim(m) - k
    counted = degree_slice(module, m).xn_free_quotient_dim
    bound = module_bound(h, m, shape).total
    marker = "==" if counted == bound else "!="
    print(f"  slice of {k}: x2-free survivors {counted} {marker} bound {bound}"
          f"   [{', '.join(fmt(u) for u in slice_members) or 'empty'}]")
