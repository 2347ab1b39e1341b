#!/usr/bin/env python3
"""The structural semigroup two ways.

Algebraically it is the Rees matrix semigroup over the structure group with
columns indexed by the R-set, rows by a sign, and the minus row g0 * g^-1.
Dynamically it is the set of self-maps of the fixed-point fiber induced by
signed pairs of consecutive column maps.  An analysis builds only the matrix
and reads the Green structure off its shape; the fiber maps are the action of
the matrix on the fiber, built here as ``--verify`` builds them.  The
signed-pair maps are also written out by hand and reconciled with them, and
the raw map semigroup is decomposed back into normalized matrix form.  Each
stage takes what the one before it built: R-set, structure group, matrix
presentation, fiber maps.
"""

from ellisub import (allowed_two_words, as_transformation_semigroup, columns,
                     cycle_string, green_structure, idempotent_generated,
                     little_structure_group, parse_substitution, r_set,
                     rees_decomposition, semigroup_closure, simplify,
                     structure_group, substitution_sandwich,
                     verify_rees_isomorphism)
from ellisub.perms import compose

sub, _ = simplify(parse_substitution("a -> abaa\nb -> bacb\nc -> ccbc"))
letters = sub.alphabet.letters

print("== normalized matrix presentation and its fiber semigroup")
rset = r_set(sub)
group = structure_group(rset)
matrix = substitution_sandwich(group, rset, rset[0])
fiber = allowed_two_words(sub)
semigroup, phi = as_transformation_semigroup(matrix, fiber)
print("fixed points:", ", ".join(fiber.labels(sub.alphabet)))
print(f"{semigroup.size} maps on {fiber.size} points")
green = green_structure(semigroup)
print("minimal left ideals:", sorted(len(c) for c in green.l_classes))
print("minimal right ideals:", sorted(len(c) for c in green.r_classes))
print("idempotents:", len(green.idempotents))
print("the Rees shape of the matrix predicts them:",
      matrix.green_summary() == green.summary())
print("sandwich rows:")
for row in matrix.sandwich:
    print("  [" + ", ".join(cycle_string(entry, letters) for entry in row) + "]")
print("little structure group order:", little_structure_group(matrix).order)
print("idempotent-generated part:", idempotent_generated(matrix).size, "elements")

print("\n== the signed-pair maps, by hand")
# [L.R; +] sends a.b to L(b).R(b), [L.R; -] sends a.b to L(a).R(a)
# the column pairs are the consecutive pairs of sub, translated by G
cols = columns(sub)
pairs = {(compose(a, g), compose(b, g)) for a, b in zip(cols, cols[1:]) for g in group.elements}
index = {pair: k for k, pair in enumerate(fiber.pairs)}
signed = set()
for left, right in pairs:
    signed.add(tuple(index[(left[b], right[b])] for a, b in fiber.pairs))
    signed.add(tuple(index[(left[a], right[a])] for a, b in fiber.pairs))
print(f"{len(signed)} signed-pair maps; the matrix action reproduces them:",
      tuple(sorted(signed)) == semigroup.elements)
print("they are closed under composition:",
      semigroup_closure(sorted(signed), degree=fiber.size) == semigroup)

print("\n== round trip through the raw semigroup")
print("matrix embeds isomorphically:", verify_rees_isomorphism(semigroup, matrix, phi))
some_idempotent = semigroup.elements[green.idempotents[0]]
decomposition = rees_decomposition(semigroup, some_idempotent)
print("decomposition shape:",
      f"{len(decomposition.matrix.i_labels)} x |G| x {len(decomposition.matrix.lam_labels)}")
print("decomposition verified:",
      verify_rees_isomorphism(semigroup, decomposition.matrix,
                              decomposition.embedding))
