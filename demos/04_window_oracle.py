#!/usr/bin/env python3
"""The finite-window oracle: algebra recomputed from raw dynamics.

Letters of the two-sided fixed points are read off by digit walks, so shift
powers sigma^(nu * l^k) can be evaluated on the whole singular fiber without
materializing windows.  For a simplified substitution the map such a shift
induces is the same at every level k, so each is read once, off the rule
words, and the digit walks confirm it at levels 1 to 4; closing those
maps under composition rebuilds the structural semigroup with no reference
to column quotients or groups.  The comparison with the algebraic pipeline
names each map by its triple under the matrix action and decides by a walk
search in the structure group whether the triples generate the whole
matrix semigroup.
"""

from ellisub import (as_transformation_semigroup, global_description,
                     letter_at, limit_maps, oracle_equivalence,
                     parse_substitution, proximality_classes, simplify,
                     substitution_power)
from ellisub.oracle import induced_fiber_map

sub, _ = simplify(parse_substitution("a -> abba\nb -> baab"))
letters = sub.alphabet.letters

print("== reading a fixed point window")
print("block of a at level 3:", substitution_power(sub, 3).rule_word("a"))
window = "".join(letters[letter_at(sub, (1, 0), p)] for p in range(-8, 8))
print("window [-8, 8) of b.a:", window[:8], ".", window[8:])

print("\n== induced two-words")
for nu in (1, 2, 3, -1):
    a, b = letter_at(sub, (0, 0), nu - 1), letter_at(sub, (0, 0), nu)
    print(f"  sigma^{nu} of a.a sits over the two-word {letters[a]}{letters[b]}")

print("\n== stabilized limit maps")
result = limit_maps(sub)
print(f"{len(result.maps)} seed maps, all stabilized at level",
      set(result.stabilization_by_nu().values()))
print("closure size:", result.semigroup.size)

print("\n== equivalence with the algebraic semigroup")
report = global_description(sub)
_, phi = as_transformation_semigroup(report.matrix, report.fiber)
comparison = oracle_equivalence(sub, report.matrix, phi)
print("equal:", comparison.equal, "with", comparison.map_count, "maps")

print("\n== every level reads the same map")
# c_0 = c_(l-1) = id gives x[nu * l^k] = x[nu] and x[nu * l^k - 1] = x[nu - 1]
for nu in (1, 2, -1):
    maps = {induced_fiber_map(sub, result.fiber, nu, k) for k in range(1, 5)}
    print(f"  sigma^({nu} * 4^k) for k = 1..4: {len(maps)} distinct map")

print("\n== proximality structure of the fiber")
data = proximality_classes(sub)
labels = data.fiber.labels(sub.alphabet)
print("forward classes (shared right letter): ",
      [[labels[i] for i in c] for c in data.forward])
print("backward classes (shared left letter):",
      [[labels[i] for i in c] for c in data.backward])
