"""A fixed piece of exact arithmetic that measures how fast this machine is now.

Usage: yardstick.py   (prints its own duration in seconds)

On a shared host the same Python code runs up to twice as fast or as slow from
one few-second stretch to the next, with no steal time recorded.  run.py times
this loop in a fresh interpreter right after every operation and scales the
operation's time by it.  It uses only the standard library, never nervetower,
so no change to the program can move it.  Its mix (small-integer Fractions, a
gcd per operation, short-lived objects) is the kind of work that dominates
nervetower's own run time.
"""

import time
from fractions import Fraction

ROUNDS = 15000


def main() -> None:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, ROUNDS):
        acc = (Fraction(i % 97, 13) + Fraction(i, i + 7)) * Fraction(3, 5) \
            + acc.limit_denominator(1000)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
