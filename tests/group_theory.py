"""Group-theoretic facts the tests check the kernel against and no command
computes: element orders one at a time, commutativity, every subgroup, the
normal subgroups, quotient tables and the kernels of homomorphisms, the
conjugates of a Sylow subgroup and Frobenius's count of n-th roots."""

from __future__ import annotations

from math import gcd
from typing import Iterable

import numpy as np

from freerep.errors import FreerepError, InvariantViolated, NotAGroup
from freerep.groups import (Group, Homomorphism, Subgroup, _generate, _normalizing,
                            conjugates, cyclic_subgroups, left_cosets)
from freerep.run import check_deadline


class NotNormal(FreerepError):
    pass


class NotConjugationClosed(FreerepError):
    pass


def element_order(G: Group, g: int) -> int:
    return G.element_orders()[g]


def is_abelian(G: Group) -> bool:
    return bool(np.array_equal(G.table, G.table.T))


def all_subgroups(G: Group) -> list:
    """Every subgroup exactly once, by cyclic seeds + pairwise join closure."""
    orders = G.element_orders()
    found = {sub.elset: [max(sub.elements, key=orders.__getitem__)]
             for sub in cyclic_subgroups(G)}  # frozenset -> at most log2 |H| generators
    queue, processed = list(found.items()), []
    while queue:
        check_deadline()
        key1, gens1 = queue.pop()
        for key2, gens2 in processed:
            if key1 <= key2 or key2 <= key1:
                continue
            joined, taken = _generate(G.table, gens1 + gens2)
            jkey = frozenset(joined)
            if jkey not in found:
                found[jkey] = taken
                queue.append((jkey, taken))
        processed.append((key1, gens1))
    subs = [Subgroup(G, key, validate=False) for key in found]
    subs.sort(key=lambda s: (len(s), s.elements))
    return subs


def quotient_group(G: Group, N: Subgroup) -> tuple:
    """(G/N, canonical projection).  Raises NotNormal if N is not normal.
    G/N is proved a group as the image of the verified onto projection."""
    if N.parent is not G:
        raise NotNormal("subgroup bound to a different parent")
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    reps, coset_of = left_cosets(G, N.elements)
    table = coset_of[G.table[np.ix_(reps, reps)]]
    labels = [G.label(r) for r in reps.tolist()] if G.labels else None
    Q = Group._derived(table, labels, f"quotient({G.origin}/{len(N)})")
    proj = Homomorphism(G, Q, coset_of.tolist())
    return Q, proj


def kernel(phi: Homomorphism) -> Subgroup:
    return Subgroup(phi.source, [g for g, h in enumerate(phi.map) if h == 0],
                    validate=False)


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
