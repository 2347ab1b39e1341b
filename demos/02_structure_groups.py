#!/usr/bin/env python3
"""Structure groups and heights.

The R-set collects the quotients of consecutive column maps; it generates the
structure group.  Products g h^-1 of R-set elements generate the little
structure group, whose normal completion cuts out a cyclic quotient -- the
generalized height.  The classical height is recovered independently from a
letter grading and from return positions of the fixed point.  Each stage
takes what the one before it built.
"""

from ellisub import (classical_height_bruteforce, cycle_string, group_name,
                     heights, is_normal, parse_substitution, r_set, simplify,
                     structure_group)

EXAMPLES = {
    "thue_morse": "a -> abba\nb -> baab",
    "seven_two_words": "a -> abaa\nb -> bacb\nc -> ccbc",
    "nonnormal_little_group": "a -> abcca\nb -> babab\nc -> ccabc",
    "height_two": "a -> abacaaa\nb -> babbbcb\nc -> cccacbc",
    "dihedral": "a -> abadcba\nb -> badcbab\nc -> cdcbadc\nd -> dcbadcd",
}

for name, source in EXAMPLES.items():
    sub, exponent = simplify(parse_substitution(source))
    letters = sub.alphabet.letters
    rset = r_set(sub)
    group = structure_group(rset)
    hs = heights(sub, rset, group)
    print(f"== {name} (analyzed power {exponent})")
    print("  R-set:", ", ".join(cycle_string(g, letters) for g in rset))
    print(f"  structure group: order {group.order} ({group_name(group) or 'unnamed'})")
    print(f"  little group: order {hs.little_group.order}, "
          f"normal in G: {is_normal(hs.little_group, group)}")
    print(f"  normal completion: order {hs.normal_completion.order} "
          f"({group_name(hs.normal_completion) or 'unnamed'})")
    print(f"  generalized height {hs.height}, classical height {hs.classical_height} "
          f"(brute force check: {classical_height_bruteforce(sub, 3)})")
    print()
