#!/usr/bin/env python3
"""The finite-window oracle: algebra recomputed from raw dynamics.

The two-sided fixed point a.b of a simplified substitution reads
x[p] = sigma^n(b)[p] to the right of the dot and x[-k] = sigma^n(a)[-k] to
its left, so a window is read off the rule words of a power.  For a
simplified substitution the map that a shift sigma^(nu * L^k) induces on the
fixed points is the same at every level k, so it is read once, off the rule
words; the written-out powers confirm it at levels 1 to 4.  The maps of
sigma^nu and sigma^(nu - L) read one table of a column pair, and the oracle
builds the distinct tables from the columns of the input theta and the
exponent n alone, by a recursion over the levels, without writing the
power.  The comparison with the algebraic pipeline names each map by its
triple, decoding it through the matrix action, and decides whether the
triples generate the whole matrix semigroup by the order of their loop
group: the closure inside the structure group of the Schreier generators of
the edges of the row/column graph, formed one at a time, closed again only
on one the group misses, and stopped once the group has |G| elements.
"""

from ellisub import (FiberAction, check_input, cycle_string,
                     global_description, limit_maps, oracle_equivalence,
                     parse_substitution, substitution_power,
                     substitution_to_json)

checked = check_input(parse_substitution("a -> abba\nb -> baab"))
assert checked.exponent == 1  # simplified as given
sub = checked.original
letters = sub.alphabet.letters
length = sub.length


def letter(blocks, pair, p):
    """Letter p of the fixed point a.b, from the level blocks of a power."""
    a, b = pair
    return blocks[b][p] if p >= 0 else blocks[a][p]


print("== reading a fixed point window")
cubed = substitution_power(sub, 3)
blocks = cubed.rules
print("block of a at level 3:", substitution_to_json(cubed)["rules"]["a"])
window = "".join(letters[letter(blocks, (1, 0), p)] for p in range(-8, 8))
print("window [-8, 8) of b.a:", window[:8], ".", window[8:])

print("\n== induced two-words")
for nu in (1, 2, 3, -1):
    a, b = letter(blocks, (0, 0), nu - 1), letter(blocks, (0, 0), nu)
    print(f"  sigma^{nu} of a.a sits over the two-word {letters[a]}{letters[b]}")

print("\n== limit maps, read once off the rule words")
# for 0 < nu < L, sigma^nu puts letters nu-1, nu of rule(b) over a.b, and
# sigma^(nu - L) puts letters nu-1, nu of rule(a) over it
fiber = checked.fiber
index = {pair: k for k, pair in enumerate(fiber.pairs)}
by_shift = {}
for nu in range(1, length):
    for shift, side in ((nu, 1), (nu - length, 0)):
        by_shift[shift] = tuple(index[tuple(sub.rules[pair[side]][nu - 1:nu + 1])]
                                for pair in fiber.pairs)
distinct = sorted(set(by_shift.values()))
print(f"{len(by_shift)} seed maps, {len(distinct)} distinct")

print("\n== every level reads the same map")
# c_0 = c_(l-1) = id gives x[nu * l^k] = x[nu] and x[nu * l^k - 1] = x[nu - 1]
for nu, f in sorted(by_shift.items()):
    maps = set()
    for k in range(1, 5):
        blocks = substitution_power(sub, k + 1).rules  # |nu| * 4^k < 4^(k+1)
        shift = nu * length**k
        maps.add(tuple(index[(letter(blocks, pair, shift - 1), letter(blocks, pair, shift))]
                       for pair in fiber.pairs))
    print(f"  sigma^({nu} * 4^k) for k = 1..4: {len(maps)} distinct map")
    assert maps == {f}

print("\n== the oracle's tables, from the input's columns")
result = limit_maps(checked.original, checked.exponent)
pairs = result.map_pairs()
print(f"{len(result.tables)} tables, each the maps of sigma^nu and sigma^(nu - {length})")
assert set(pairs) == {(by_shift[nu], by_shift[nu - length]) for nu in range(1, length)}
assert sorted({f for pair in pairs for f in pair}) == distinct
long_power = check_input(parse_substitution("a -> bcd\nb -> dda\nc -> cab\nd -> abc"))
tables = limit_maps(long_power.original, long_power.exponent).tables
print(f"power {long_power.exponent} of a length-3 rule: {len(tables)} distinct tables "
      f"of {3**long_power.exponent - 1} column pairs, with no power written")

print("\n== equivalence with the algebraic semigroup")
report = global_description(checked)
action = FiberAction(report.matrix, report.fiber)  # proves the action, builds no map
triples = set()
for nu, f in sorted(by_shift.items()):
    i, g, sign = action.decode(f)
    triples.add((i, g, sign))
    print(f"  sigma^({nu} * 4^k) is the triple "
          f"({cycle_string(report.rset[i], letters)}, {cycle_string(g, letters)}, {'+-'[sign]})")
comparison = oracle_equivalence(checked.original, checked.exponent, report.matrix, action)
print(f"{len(triples)} triples; equal: {comparison.equal}, against the "
      f"{comparison.map_count} maps of the matrix action")
assert len(triples) == len(distinct)
assert comparison.equal and comparison.map_count == report.matrix.size
