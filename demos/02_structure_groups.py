#!/usr/bin/env python3
"""Structure groups and heights.

The R-set collects the quotients of consecutive column maps; it generates the
structure group, which one walk g -> g r over the R-set lists.  Products
g h^-1 of R-set elements generate the little structure group, whose normal
completion cuts out a cyclic quotient -- the generalized height, the period
of that walk's graph.  The classical height is recovered independently as
the period of the letter graph a -> r(a), which is the graph of allowed
two-letter words, and from return positions of the fixed point.  The input
is checked once, and each stage takes what the one before it built.
"""

from ellisub import (check_input, classical_height_bruteforce, cycle_string,
                     group_name, heights, parse_substitution, r_set,
                     structure_group)

EXAMPLES = {
    "thue_morse": "a -> abba\nb -> baab",
    "seven_two_words": "a -> abaa\nb -> bacb\nc -> ccbc",
    "nonnormal_little_group": "a -> abcca\nb -> babab\nc -> ccabc",
    "height_two": "a -> abacaaa\nb -> babbbcb\nc -> cccacbc",
    "dihedral": "a -> abadcba\nb -> badcbab\nc -> cdcbadc\nd -> dcbadcd",
}

for name, source in EXAMPLES.items():
    checked = check_input(parse_substitution(source))
    letters = checked.original.alphabet.letters
    rset = r_set(checked)
    graded = structure_group(rset)  # G, with the walks over G and over the letters
    group = graded.group
    hs = heights(checked, rset, graded)
    print(f"== {name} (analyzed power {checked.exponent})")
    print("  R-set:", ", ".join(cycle_string(g, letters) for g in rset))
    print(f"  structure group: order {group.order} ({group_name(group) or 'unnamed'})")
    # a subgroup is normal exactly when it equals its normal closure, which
    # contains it: when the two have the same order
    print(f"  little group: order {hs.little_group.order}, "
          f"normal in G: {hs.little_group.order == hs.normal_completion.order}")
    print(f"  normal completion: order {hs.normal_completion.order} "
          f"({group_name(hs.normal_completion) or 'unnamed'})")
    print(f"  generalized height {hs.height}, classical height {hs.classical_height} "
          f"(brute force check: {classical_height_bruteforce(checked)})")
    print()
