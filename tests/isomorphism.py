"""The backtracking isomorphism search, kept as the oracle for the SL2(F_p)
matrix walk of freerep.groups.embed_sl2 and for the tests that compare
groups up to isomorphism.

generating_sequence greedily picks a short generating sequence of G, and
is_isomorphic tries every assignment of its elements to elements of H of
the same order and class size, extending each partial one multiplicatively
with _close_with_map until it conflicts or covers G.  inverse_map inverts
a bijective witness and verifies the inverse as a homomorphism.
"""

from __future__ import annotations

from typing import Optional

from freerep.errors import NotAGroup
from freerep.groups import Group, Homomorphism, subgroup_generated
from freerep.run import check_deadline


def generating_sequence(G: Group) -> list:
    """A short generating sequence, greedily maximizing subgroup growth."""
    if G.order == 1:
        return []
    orders = G.element_orders()
    by_order = sorted(range(1, G.order), key=lambda g: -orders[g])
    gens = []
    current = {0}
    while len(current) < G.order:
        best, best_closure = None, None
        scanned = 0
        for g in by_order:
            if g in current:
                continue
            closure = subgroup_generated(G, gens + [g]).elements
            if len(closure) == G.order:
                best, best_closure = g, closure
                break
            if best_closure is None or len(closure) > len(best_closure):
                best, best_closure = g, closure
            scanned += 1
            if scanned >= 40:
                break
        gens.append(best)
        current = set(best_closure)
    return gens


def _close_with_map(G: Group, H: Group, genpairs: list) -> Optional[dict]:
    """Extend {0:0} multiplicatively along genpairs; None on conflict."""
    m = {0: 0}
    frontier = [0]
    gcells, hcells = memoryview(G.table), memoryview(H.table)
    while frontier:
        new = []
        for x in frontier:
            hx = m[x]
            for g, h in genpairs:
                y = gcells[x, g]
                hy = hcells[hx, h]
                known = m.get(y)
                if known is None:
                    m[y] = hy
                    new.append(y)
                elif known != hy:
                    return None
        frontier = new
    return m


def is_isomorphic(G: Group, H: Group) -> Optional[Homomorphism]:
    """An isomorphism witness, or None.  Absence of a witness is a value."""
    if G.order != H.order:
        return None
    if G.order == 1:
        return Homomorphism(G, H, [0])
    if G.fingerprint() != H.fingerprint():
        return None
    gens = generating_sequence(G)
    gorders = G.element_orders()
    horders = H.element_orders()
    hclasses = H.conjugacy_classes()
    g_inv = [(gorders[g], len(G.class_of(g))) for g in gens]
    candidates = []
    for inv in g_inv:
        cand = [h for cls in hclasses
                for h in cls
                if (horders[h], len(cls)) == inv]
        candidates.append(cand)

    assignment = [None] * len(gens)

    def backtrack(i: int) -> Optional[dict]:
        check_deadline()
        if i == len(gens):
            m = _close_with_map(G, H, list(zip(gens, assignment)))
            if m and len(m) == G.order and len(set(m.values())) == G.order:
                return m
            return None
        for h in candidates[i]:
            assignment[i] = h
            m = _close_with_map(G, H, list(zip(gens[: i + 1], assignment[: i + 1])))
            if m is not None and len(set(m.values())) == len(m):
                result = backtrack(i + 1)
                if result is not None:
                    return result
        assignment[i] = None
        return None

    m = backtrack(0)
    if m is None:
        return None
    index_map = [m[g] for g in range(G.order)]
    return Homomorphism(G, H, index_map)


def inverse_map(phi: Homomorphism) -> Homomorphism:
    if not phi.is_bijective():
        raise NotAGroup("homomorphism is not bijective")
    inv = [0] * phi.target.order
    for g, h in enumerate(phi.map):
        inv[h] = g
    return Homomorphism(phi.target, phi.source, inv)
