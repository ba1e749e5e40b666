"""The counting threshold and the full non-containment certificate.

There are only finitely many degree-4 reflection groups with an irreducible
factor of degree 3 or 4; computing their arrangements gives a hard ceiling
on how many planes such an arrangement can hold (H4 dominates with 722).
The wreath arrangement has m+2 planes, so any m >= 721 beats every one of
them by counting alone, in every position.  Groups with all factors of
degree <= 2 are excluded structurally instead, for every m >= 3, by a proof
from two lemmas that the certificate names (see verify.verify_theorem).

The small even cases are genuinely different: for m in {2, 4} the realified
wreath group consists of signed permutation matrices, and its arrangement
does sit inside the B4, D4 and F4 arrangements.

This demo recomputes the H4 arrangement exactly, from its four generating
reflections and with no enumeration of the group.
"""

import time

from rotref import compute_threshold, verify_theorem
from rotref.verify import survey_containments

t0 = time.perf_counter()
res = compute_threshold()
print(f"big-factor arrangement census ({time.perf_counter() - t0:.0f}s):")
for label, row in sorted(res.per_group.items()):
    print(f"  {label:<8} planes {row['planes']:>4}   members {row['total']:>5}")
print(f"\nm0 (plane counting): {res.m0_planes}")
print(f"m0 (total counting): {res.m0_total}")

print("\nthe certificate at m = m0:")
for line in verify_theorem(res.m0_planes).human_lines():
    print(f"  {line}")

print("\nthe small-m survey (standard positions):")
for row in survey_containments(2, 6, 6):
    listing = ", ".join(row["contained_in"]) or "none"
    print(f"  m = {row['m']}: contained in {listing}")
