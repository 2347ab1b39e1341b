#!/usr/bin/env python3
"""The structural semigroup two ways.

Algebraically it is the Rees matrix semigroup over the structure group with
columns indexed by the R-set, rows by a sign, and the minus row g0 * g^-1.
Dynamically it is the set of self-maps of the fixed-point fiber induced by
signed pairs of consecutive column maps.  Both constructions are built here
and reconciled: the matrix acts on the fiber, the raw map semigroup is
decomposed back into normalized matrix form, and the presentations agree.
Each stage takes what the one before it built: R-set, structure group,
column pairs, fiber semigroup, matrix presentation.
"""

from ellisub import (cycle_string, fiber_semigroup, gauge_renormalize,
                     gtwo_pairs, idempotent_generated,
                     little_structure_group, parse_substitution,
                     presentations_isomorphic, r_set, rees_decomposition,
                     simplify, structural_semigroup, structure_group,
                     verify_rees_isomorphism)
from ellisub.rees import as_transformation_semigroup, rees_to_json

sub, _ = simplify(parse_substitution("a -> abaa\nb -> bacb\nc -> ccbc"))
letters = sub.alphabet.letters

print("== the fiber and its maps")
rset = r_set(sub)
group = structure_group(rset)
pairs = gtwo_pairs(sub, rset, group)
action = fiber_semigroup(sub, rset, pairs)
fiber = action.fiber
print("fixed points:", ", ".join(fiber.labels(sub.alphabet)))
print(f"{action.semigroup.size} maps on {fiber.size} points")
green = action.green
print("minimal left ideals:", sorted(len(c) for c in green.l_classes))
print("minimal right ideals:", sorted(len(c) for c in green.r_classes))
print("idempotents:", len(green.idempotents))

print("\n== normalized matrix presentation")
matrix = structural_semigroup(rset, group, action)
print("sandwich rows:")
for row in matrix.sandwich:
    print("  [" + ", ".join(cycle_string(entry, letters) for entry in row) + "]")
print("little structure group order:", little_structure_group(matrix).order)
print("idempotent-generated part:", idempotent_generated(matrix).size, "elements")

print("\n== round trip through the raw semigroup")
realized, phi = as_transformation_semigroup(matrix, fiber)
print("matrix action reproduces the fiber maps:", realized == action.semigroup)
print("matrix embeds isomorphically:", verify_rees_isomorphism(action.semigroup, matrix, phi))
some_idempotent = action.semigroup.elements[green.idempotents[0]]
decomposition = rees_decomposition(action.semigroup, some_idempotent)
print("decomposition shape:",
      f"{len(decomposition.matrix.i_labels)} x |G| x {len(decomposition.matrix.lam_labels)}")
print("decomposition verified:",
      verify_rees_isomorphism(action.semigroup, decomposition.matrix,
                              decomposition.embedding))

print("\n== gauge freedom")
from ellisub.perms import identity, inverse
cols = [inverse(entry) for entry in matrix.sandwich[1]]
gauged, _ = gauge_renormalize(matrix, [identity(3), identity(3)], cols)
print("after gauging, minus row is the identity row:",
      [cycle_string(e, letters) for e in gauged.sandwich[1]])
print("still the same semigroup up to presentation:",
      presentations_isomorphic(matrix, gauged))

print("\n== JSON view")
import json
print(json.dumps(rees_to_json(matrix, letters), indent=2)[:400], "...")
