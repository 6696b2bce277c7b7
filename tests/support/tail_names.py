"""The tail table built by normalizing every in-budget address: the reference
that the direct enumeration of normalized pairs in `oracles._tail_table` is
checked against.

Every (head, cycle) pair is walked in canonical order, normalized
(`words._normalize`) and skipped when its normalized pair was seen; each
remaining pair's limit point keeps the first Address that reaches it.
"""

from itertools import product

from nervetower.oracles import Budget, PointKey, SystemSpec, word_map
from nervetower.words import Address, Word, _normalize


def tail_table(spec: SystemSpec, budget: Budget) -> dict[PointKey, Address]:
    """Limit points of all in-budget eventually periodic addresses, in first
    visit order, each named by the Address that first reaches it."""
    m = spec.m
    table: dict[PointKey, Address] = {}
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    fixed: dict[tuple[int, ...], PointKey] = {}
    symbols = range(1, m + 1)
    heads = [h for length in range(budget.cert_preperiod_max + 1)
             for h in product(symbols, repeat=length)]
    cycles = [c for length in range(1, budget.cert_period_max + 1)
              for c in product(symbols, repeat=length)]
    for head in heads:
        for cycle in cycles:
            pair = _normalize(head, cycle)
            if pair in seen:
                continue
            seen.add(pair)
            pre, per = pair
            q = fixed.get(per)
            if q is None:
                q = fixed[per] = word_map(spec, Word._of(per, m)).fixed_point().homogeneous()
            point = word_map(spec, Word._of(pre, m)).apply(q)
            if point not in table:
                table[point] = Address._of(pre, per, m)
    return table
