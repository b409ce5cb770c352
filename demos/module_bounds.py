"""Walkthrough: the piecewise bound for quotients of graded free modules.

The bound fills the lowest-degree components of F to capacity and applies
the numerator decrement to the partial head component. Lexicographic
slices attain it, which can be verified by pure counting: restricting a
monomial module by x_n just filters out every x_n-multiple.
"""
from greenhrt import (
    FreeModuleShape,
    MonomialModule,
    degree_slice,
    lex_module,
    module_bound,
)

shape = FreeModuleShape(n=2, degrees=(0, 1))
m = 2
print(f"F = S(0) + S(-1) over k[x1,x2]; degree {m} slice")
print(f"  component degrees {shape.component_degrees(m)}, "
      f"capacities {shape.component_dims(m)}, dim F_{m} = {shape.dim(m)}")

def fmt(component, exps):
    mono = "".join(f"x{i+1}^{e}" if e > 1 else (f"x{i+1}" if e else "")
                   for i, e in enumerate(exps)) or "1"
    return f"{mono}*e{component}"

# The slice of the zero module lists F_m: one row of exponents per monomial.
basis = [
    fmt(component, row)
    for component, rows in enumerate(degree_slice(MonomialModule.zero(shape), m).exps, start=1)
    for row in rows.tolist()
]
print("  monomial basis, largest first:", ", ".join(basis))

print()
print("Piecewise bound across every possible quotient dimension h")
for h in range(shape.dim(m) + 1):
    bb = module_bound(h, m, shape)
    print(f"  h={h}: pivot j={bb.j}, head {bb.head} -> {bb.head_term}, "
          f"tail {list(bb.tail_terms)}, total {bb.total}")

print()
print("Lexicographic slices attain the bound exactly")
for k in range(shape.dim(m) + 1):
    module = lex_module(shape, m, k)
    h = shape.dim(m) - k
    counted = degree_slice(module, m).xn_free_quotient_dim
    bound = module_bound(h, m, shape).total
    marker = "==" if counted == bound else "!="
    print(f"  slice of {k}: x2-free survivors {counted} {marker} bound {bound}"
          f"   [{', '.join(basis[:k]) or 'empty'}]")
