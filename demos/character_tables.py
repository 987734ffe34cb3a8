"""Exact character tables three ways.

1. The modular (Dixon) engine on the dihedral group of order 8.
2. The outer-product construction for a direct product, checked against the
   Dixon engine on the same group.
3. The Clifford construction for S4 wr C2, the route ``character_table``
   takes for a cyclic wreath product, checked row for row against the Dixon
   engine as its oracle.

Run from the repository root:  python demos/character_tables.py
"""

import json

from subdepth import (base_groups, character_table, direct_product,
                      direct_product_table, dixon_character_table,
                      wreath_cyclic, wreath_cyclic_table)
from subdepth.chartab import table_to_obj

bg = base_groups()

print("== dihedral group of order 8, via the modular engine ==")
d8 = dixon_character_table(bg.d8)
for cls in d8.classes.classes:
    print(f"   class {cls.rep.cycle_string():12s} size {cls.size}")
for chi in d8.irreducibles:
    print("   ", [repr(v) for v in chi.values])

print("\n== direct product V4 x S4: outer product vs modular engine ==")
prod = direct_product([bg.v4, bg.s4])
outer = direct_product_table([character_table(bg.v4), character_table(bg.s4)], prod)
modular = dixon_character_table(prod)
print(f"   {len(outer.irreducibles)} irreducibles; tables equal: {outer == modular}")

print("\n== S4 wr C2: Clifford construction vs modular engine ==")
wr = wreath_cyclic(bg.s4, 2)
clifford = wreath_cyclic_table(character_table(bg.s4), wr.group, wr.shift, 2)
modular = dixon_character_table(wr.group)
print(f"   order {wr.group.order}, {len(clifford.irreducibles)} irreducibles; "
      f"tables equal: {clifford == modular}")
print(f"   degrees: {clifford.degrees()}")

print("\n== JSON export (first lines) ==")
text = json.dumps(table_to_obj(d8), sort_keys=True, indent=2)
print("\n".join(text.splitlines()[:12]))
print("   ...")
