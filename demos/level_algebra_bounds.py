"""Walkthrough: two lower bounds for generic linear sections of level algebras.

For a level algebra with Hilbert function (h_0, ..., h_c), the ideal cut
out by a generic linear form is bounded below degree by degree: hG comes
from the single-component restriction bound, hGM from the module bound
applied through the dual. Neither dominates; the comparison table bundled
with the package records published cases where the module side wins.
"""
from greenhrt import LevelHilbert, compare_bounds, load_level_table, reproduce_table

for h in ((1, 3, 3, 3, 2), (1, 3, 6, 8, 5, 2), (1, 3, 4, 4, 4, 3, 2)):
    lh = LevelHilbert(h=h)
    cmp = compare_bounds(lh)
    print(f"h   = {list(cmp.h)}")
    print(f"  hGM = {list(cmp.hGM)}")
    print(f"  hG  = {list(cmp.hG)}")
    print(f"  module bound wins at positions {sorted(cmp.win_positions)}")
    winners = [c for c in cmp.proposition_flags if c.all_hold]
    if winners:
        print(f"  sufficient conditions hold at i = {[c.i for c in winners]}")
    else:
        print("  sufficient conditions hold nowhere (a win is still possible)")
    print()

print("The conditions are sufficient but not necessary:")
lh = LevelHilbert(h=(1, 3, 6, 8, 5, 2))
check = compare_bounds(lh).proposition_flags[3]
print(f"  at i=3 for {list(lh.h)}: plateau={check.plateau} "
      f"(h_3={lh.h[3]} vs h_4={lh.h[4]}), yet the module bound wins there.")

print()
rows = load_level_table()
results = reproduce_table(rows)
print(f"Bundled dataset: {sum(r.ok for r in results)}/{len(results)} rows re-derive exactly")
for r in results[:3]:
    print(f"  pos {r.row.position}: h={','.join(map(str, r.row.h))} "
          f"hGM={list(r.comparison.hGM)} hG={list(r.comparison.hG)} ok={r.ok}")
print("  ...")
