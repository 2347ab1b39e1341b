#!/usr/bin/env python3
"""The finite-window oracle: algebra recomputed from raw dynamics.

The two-sided fixed point a.b of a simplified substitution reads
x[p] = sigma^n(b)[p] to the right of the dot and x[-k] = sigma^n(a)[-k] to
its left, so a window is read off the rule words of a power.  For a
simplified substitution the map that a shift sigma^(nu * l^k) induces on the
fixed points is the same at every level k, so the oracle reads each once, off
the rule words; the written-out powers confirm it at levels 1 to 4.  The
comparison with the algebraic pipeline names each map by its triple,
decoding it through the matrix action, and decides whether the triples
generate the whole matrix semigroup by the order of their loop group: the
closure inside the structure group of the Schreier generators of the edges
of the row/column graph, formed one at a time, closed again only on one the
group misses, and stopped once the group has |G| elements.
"""

from ellisub import (FiberAction, check_input, cycle_string,
                     global_description, limit_maps, oracle_equivalence,
                     parse_substitution, substitution_power)

checked = check_input(parse_substitution("a -> abba\nb -> baab"))
sub = checked.power
letters = sub.alphabet.letters


def letter(blocks, pair, p):
    """Letter p of the fixed point a.b, from the level blocks of a power."""
    a, b = pair
    return blocks[b][p] if p >= 0 else blocks[a][p]


print("== reading a fixed point window")
blocks = substitution_power(sub, 3).rules
print("block of a at level 3:", substitution_power(sub, 3).rule_word("a"))
window = "".join(letters[letter(blocks, (1, 0), p)] for p in range(-8, 8))
print("window [-8, 8) of b.a:", window[:8], ".", window[8:])

print("\n== induced two-words")
for nu in (1, 2, 3, -1):
    a, b = letter(blocks, (0, 0), nu - 1), letter(blocks, (0, 0), nu)
    print(f"  sigma^{nu} of a.a sits over the two-word {letters[a]}{letters[b]}")

print("\n== limit maps, read once off the rule words")
result = limit_maps(sub)
distinct = sorted({m.fiber_map for m in result.maps})
print(f"{len(result.maps)} seed maps, {len(distinct)} distinct")

print("\n== every level reads the same map")
# c_0 = c_(l-1) = id gives x[nu * l^k] = x[nu] and x[nu * l^k - 1] = x[nu - 1]
index = {pair: k for k, pair in enumerate(result.fiber.pairs)}
for m in result.maps:
    maps = set()
    for k in range(1, 5):
        blocks = substitution_power(sub, k + 1).rules  # |nu| * 4^k < 4^(k+1)
        shift = m.nu * sub.length**k
        maps.add(tuple(index[(letter(blocks, pair, shift - 1), letter(blocks, pair, shift))]
                       for pair in result.fiber.pairs))
    print(f"  sigma^({m.nu} * 4^k) for k = 1..4: {len(maps)} distinct map")
    assert maps == {m.fiber_map}

print("\n== equivalence with the algebraic semigroup")
report = global_description(checked)
action = FiberAction(report.matrix, report.fiber)  # proves the action, builds no map
triples = set()
for m in result.maps:
    i, g, sign = action.decode(m.fiber_map)
    triples.add((i, g, sign))
    print(f"  sigma^({m.nu} * 4^k) is the triple "
          f"({cycle_string(report.rset[i], letters)}, {cycle_string(g, letters)}, {'+-'[sign]})")
comparison = oracle_equivalence(sub, report.matrix, action)
print(f"{len(triples)} triples; equal: {comparison.equal}, against the "
      f"{comparison.map_count} maps of the matrix action")
assert len(triples) == len(distinct)
assert comparison.equal and comparison.map_count == report.matrix.size
