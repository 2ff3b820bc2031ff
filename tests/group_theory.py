"""Group-theoretic facts the tests check the kernel against and no command
computes: element orders one at a time, commutativity, the normal subgroups,
the conjugates of a Sylow subgroup and Frobenius's count of n-th roots."""

from __future__ import annotations

from math import gcd
from typing import Iterable

import numpy as np

from freerep.errors import InvariantViolated, NotAGroup, NotConjugationClosed
from freerep.groups import Group, Subgroup, _normalizing, all_subgroups, conjugates


def element_order(G: Group, g: int) -> int:
    return G.element_orders()[g]


def is_abelian(G: Group) -> bool:
    return bool(np.array_equal(G.table, G.table.T))


def normal_subgroups(G: Group) -> list:
    """Normal subgroups, filtered from all_subgroups by conjugation-invariance."""
    return [H for H in all_subgroups(G) if H.is_normal()]


def sylow_conjugates(G: Group, P: Subgroup) -> list:
    """Distinct conjugates of a subgroup (as frozensets)."""
    out = set(map(frozenset, conjugates(G, P.elements).tolist()))
    return sorted(out, key=sorted)


def count_nth_roots(G: Group, C: Iterable[int], n: int) -> int:
    """|{x : x^n in C}| for a conjugation-closed C; a multiple of gcd(n|C|,|G|)."""
    cset = frozenset(int(x) for x in C)
    if not cset:
        return 0
    if not _normalizing(G, cset).all():
        raise NotConjugationClosed("set is not closed under conjugation")
    if n < 1:
        raise NotAGroup("n must be positive")
    count = sum(1 for x in range(G.order) if G.power(x, n) in cset)
    if count % gcd(n * len(cset), G.order):
        raise InvariantViolated("Frobenius divisibility violated")
    return count
