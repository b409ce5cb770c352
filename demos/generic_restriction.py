"""Walkthrough: certifying restriction dimensions over a prime field.

Sampling random linear forms over F_32003 and computing exact ranks gives
an empirical check of the restriction bound: any sampled form can only
overestimate the generic quotient dimension, so observing dimension equal
to the bound certifies tightness for that module.
"""
import json
import random

from greenhrt import (
    FreeModuleShape,
    degree_slice,
    generic_restriction_dim,
    module_from_data,
    module_to_data,
    random_monomial_module,
)

module = module_from_data({"n": 3, "degrees": [0], "components": [[[2, 0, 0]]]})
print("Quotient of S by the square of a variable, degree 2")
report = generic_restriction_dim(module, 2, seed=1)
print(f"  per-trial quotient dims {list(report.dims)} -> generic {report.generic_dim}")
print(f"  theoretical bound {report.bound}; holds={report.holds} equality={report.equality}")
print("  wire format:", json.dumps(report.to_json_dict()))

print()
print("A rank-2 module with mixed generator degrees")
data = {
    "n": 2,
    "degrees": [0, 1],
    "components": [[[2, 0]], []],
}
module = module_from_data(data)
report = generic_restriction_dim(module, 2, seed=4)
print(f"  H(F/M, 2) = {degree_slice(module, 2).quotient_dim}")
print(f"  generic dim {report.generic_dim} vs bound {report.bound}; "
      f"top-slice: {report.expect_equality}, certified: {report.certified}")

print()
print("Seeded random modules never beat the bound")
rng = random.Random(99)
for trial in range(6):
    n = rng.randint(2, 3)
    r = rng.randint(1, 3)
    shape = FreeModuleShape(n=n, degrees=tuple(sorted(rng.randint(0, 2) for _ in range(r))))
    module = random_monomial_module(rng, shape, max_gens=3, max_degree=4)
    m = rng.randint(1, 4)
    report = generic_restriction_dim(module, m, seed=trial)
    print(f"  n={n} degrees={shape.degrees} m={m}: "
          f"generic {report.generic_dim} <= bound {report.bound}  "
          f"({'tight' if report.equality else 'strict'})")
print()
print("Caveat: prime-field sampling is a probabilistic certificate; the")
print("report keeps per-trial data so the evidence is auditable.")
print("Round trip of the description format:",
      module_to_data(module_from_data(data)) == data)
