"""Why the anticircuit property needs three forbidden patterns, not two.

A digraph has no alternating anticircuit exactly when it avoids the oriented
path D1 and the bidirected pair K2bidir as induced subdigraphs and has no
two-switch. Dropping the directed triangle D5 from that statement looks
harmless, because collapsing anticircuit roles seems to land on D1 or
K2bidir. It does not: the triangle realizes an anticircuit with coinciding
roles, avoids both small patterns, and is too small to hold a two-switch.
"""

from __future__ import annotations

from dcograph.mine import enumerate_digraphs
from dcograph.patterns import PATTERNS, has_anticircuit, has_two_switch, patterns_in


def two_pattern_claim(g) -> bool:
    return not patterns_in(g) & {"D1", "K2bidir"} and not has_two_switch(g)


def three_pattern_claim(g) -> bool:
    return two_pattern_claim(g) and "D5" not in patterns_in(g)


def main() -> None:
    two_bad = []
    three_bad = 0
    for n in range(1, 6):
        for g in enumerate_digraphs(n):
            truth = not has_anticircuit(g)
            if two_pattern_claim(g) != truth:
                two_bad.append(g)
            if three_pattern_claim(g) != truth:
                three_bad += 1

    print(f"two-pattern restatement: {len(two_bad)} counterexamples with n <= 5")
    print(f"three-pattern restatement: {three_bad} counterexamples with n <= 5")

    smallest = two_bad[0]
    print(f"\nsmallest counterexample: arcs {smallest.arcs}")
    print(f"isomorphic to D5: {smallest.isomorphic_to(PATTERNS['D5'])}")
    print(f"has anticircuit: {has_anticircuit(smallest)}")
    print(f"contains D1: {'D1' in patterns_in(smallest)}")
    print(f"contains K2bidir: {'K2bidir' in patterns_in(smallest)}")
    print(f"has two-switch: {has_two_switch(smallest)}")


if __name__ == "__main__":
    main()
