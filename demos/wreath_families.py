"""The wreath-product families that realise every even depth.

Series A keeps a Klein four-group in the first block of S4 wr C_n and full
S4 copies elsewhere; its depth grows as 2n.  Series B starts from the
dihedral subgroup instead and grows as 4n.  Series C doubles the previous
ambient group with a wreath by C2 at each step, reaching depth 2^(step+1).

The n = 3 members take a few seconds each (the ambient group has 41472
elements and an exact 55-class character table).  Pass --big to include them.

Run from the repository root:  python demos/wreath_families.py [--big]
"""

import sys
import time

from subdepth import family

members = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 2)]
if "--big" in sys.argv[1:]:
    members += [("A", 3), ("B", 3)]

for series, n in members:
    t0 = time.time()
    fam = family(series, n)
    report = fam.report()
    status = "ok" if report.depth == fam.expected_depth else "MISMATCH"
    print(f"series {series}, member {n}: |G| = {fam.ambient.order:6d}, "
          f"|H| = {fam.subgroup.order:5d}, |core| = {fam.core.order:3d}  "
          f"depth {report.depth} (target {fam.expected_depth}, {status})  "
          f"[{time.time() - t0:.1f}s]")
    wit = ", ".join(w.cycle_string() for w in report.core.witnesses)
    print(f"   core = intersection of {report.core.conjugate_count} conjugates, "
          f"witnesses: {wit}")
