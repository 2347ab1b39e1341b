#!/usr/bin/env python3
"""The structural semigroup two ways.

Algebraically it is the Rees matrix semigroup over the structure group with
columns indexed by the R-set, rows by a sign, and the minus row g0 * g^-1.
Dynamically it is the set of self-maps of the fixed-point fiber induced by
signed pairs of consecutive column maps.  An analysis builds only the matrix
and reads the Green structure off its shape; the fiber maps are the action
phi of the matrix on the fiber, all encoded here, which ``--verify`` never
does: it encodes only the maps it names.  The signed-pair maps are then
written out by hand, reconciled with the image of phi, and composed in
pairs, which adds no map.  Each stage takes what the one before it built:
R-set, structure group, matrix presentation, fiber action.
"""

from ellisub import (FiberAction, allowed_two_words, check_input, columns,
                     cycle_string, parse_substitution, r_set, structure_group,
                     substitution_power, substitution_sandwich)
from ellisub.perms import compose

checked = check_input(parse_substitution("a -> abaa\nb -> bacb\nc -> ccbc"))
# the analysis reads theta and n; the signed pairs below are read off the
# columns of the power tau = theta^n, written out here
sub = substitution_power(checked.original, checked.exponent)
letters = sub.alphabet.letters

print("== normalized matrix presentation")
rset = r_set(checked)
group = structure_group(rset).group
matrix = substitution_sandwich(group, rset, rset[0])
print(f"|I| = {len(rset)}, |G| = {group.order}: {matrix.size} elements")
print("sandwich rows:")
for row in matrix.sandwich:
    print("  [" + ", ".join(cycle_string(entry, letters) for entry in row) + "]")
green = matrix.green_summary()  # by Rees's theorem, from |I|, |G| and the two signs
print("minimal left ideals:", green["l_classes"])
print("minimal right ideals:", green["r_classes"])
print("idempotents:", green["idempotents"])

print("\n== its action phi on the fiber")
fiber = allowed_two_words(sub)
# FiberAction proves that the maps stay in the fiber, are distinct and
# multiply like M; encode then writes the map of each triple
action = FiberAction(matrix, fiber)
images = {action.encode(*x) for x in matrix.elements()}
print("fixed points:", ", ".join(fiber.labels(sub.alphabet)))
print(f"{len(images)} distinct maps on {fiber.size} points")
assert len(images) == matrix.size

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
print(f"{len(signed)} signed-pair maps; the matrix action reproduces them:", signed == images)
products = {compose(f, g) for f in signed for g in signed}
print(f"their {len(signed)}^2 products are signed-pair maps again:", products <= signed)
assert signed == images and products <= signed
