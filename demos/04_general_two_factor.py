"""The general two-factor machinery on a non-cyclic factor.

Any abelian p-group contributes one idempotent per subgroup with a nontrivial
cyclic quotient, plus the full hat.  Crossing C3 x C3 with C11 gives fourteen
primitive idempotents, matching the number of squaring orbits.

Run:  python demos/04_general_two_factor.py
"""

from abelcodes import p_group_idempotents, family_two_factor, verify_primitivity
from abelcodes.cyclotomic import class_count

print("== idempotents of small p-groups ==")
for factors in ([3], [9], [3, 3]):
    recs = p_group_idempotents(factors)
    dims = [rec.predicted_dim for rec in recs]
    print(f"  factors {factors}: {len(recs)} idempotents, dimensions {dims}")

print("\n== (C3 x C3) x C11 ==")
fam = family_two_factor([3, 3], [11])
print(f"{len(fam.labels)} idempotents, dimension sum "
      f"{sum(fam.predicted_dims.values())} = {fam.group.order}")
print(f"squaring orbits: {class_count(fam.group)}")
for check in fam.verify_axioms():
    mark = "ok" if check["passed"] else "FAIL"
    print(f"  [{mark}] {check['name']}")

label = fam.labels[1]
report = verify_primitivity(fam.elements[label], fam.predicted_dims[label])
print(f"\nprimitivity of {label} (dim {report['dimension']}): "
      f"{report['primitive']}, {report['idempotents_found']} idempotents in its ideal")
