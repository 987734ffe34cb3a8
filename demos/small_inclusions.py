"""Tour of the depth machinery on three subgroups of S4.

The Klein four-subgroup is normal, so its depth is 2.  The dihedral subgroup
of order 8 has depth 4: the even criterion bites at m = 2 while no odd bound
does better.  The point stabiliser S3 has depth 5, the first value where an
odd bound wins.

Run from the repository root:  python demos/small_inclusions.py
"""

from subdepth import base_groups, ordinary_depth

bg = base_groups()

for name, sub in [("V4", bg.v4), ("D8", bg.d8), ("S3", bg.s3)]:
    report = ordinary_depth(bg.s4, sub)
    print(f"=== {name} inside S4 ===")
    print(f"depth: {report.depth}")
    print(f"  normal: {report.normal}, depth one: {report.depth_one}")
    print(f"  largest finite relation distance: {report.max_distance} "
          f"-> odd bound {report.odd_bound}")
    print(f"  largest m(chi): {report.max_m_chi} -> even bound {report.even_bound}")
    print(f"  matrix criterion: n = {report.matrix_n} with multiplier "
          f"{report.matrix_witness}")
    core = report.core
    print(f"  core bound: {core.bound} ({core.conjugate_count} conjugates"
          + (", central core)" if core.central else ")"))
    print("  inclusion matrix (rows = subgroup characters):")
    for row in report.entries:
        print("   ", " ".join(f"{v:2d}" for v in row))
    edges = sorted(sorted(e) for e in report.graph.edges)
    print(f"  relation graph edges: {edges}")
    print()
