"""Brute-force verification of the SL2(F_p) structure theory: the cyclic
subgroup census against its closed forms, the eigenvalue trichotomy,
conjugacy and normal subgroups, normalizer shape, and the Fermat pq-criterion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclotomic import is_prime
from .errors import BadParams
from .groups import (
    Group,
    Subgroup,
    normal_closure,
    normalizer,
    subgroup_generated,
    sylow_subgroup,
)

DEFAULT_PRIMES = (3, 5, 7, 11, 13)
OPT_IN_PRIMES = (17,)  # |SL2(F_17)| = 4896; behind an explicit opt-in

_groups: dict = {}


def sl2_group(p: int) -> Group:
    """Cached SL2(F_p) (construction cost dominates the census)."""
    if p not in _groups:
        from .constructors import sl2

        _groups[p] = sl2(p)
    return _groups[p]


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise BadParams(f"{p} is not an odd prime")


@dataclass(frozen=True)
class CensusRow:
    m: int
    predicted: int
    observed: int
    match: bool


def predicted_cyclic_count(p: int, m: int) -> int:
    """Closed form for the number of cyclic subgroups of order m in SL2(F_p):
    c_1 = c_2 = 1; for m > 2: m | p-1 -> p(p+1)/2, m | 2p -> p+1,
    m | p+1 -> p(p-1)/2, otherwise 0."""
    if m in (1, 2):
        return 1
    if (p - 1) % m == 0:
        return p * (p + 1) // 2
    if (2 * p) % m == 0:
        return p + 1
    if (p + 1) % m == 0:
        return p * (p - 1) // 2
    return 0


def _cyclic_subgroups_by_order(G: Group) -> dict:
    rows = G.rows
    seen = {}
    for g in range(G.order):
        elems = [0]
        x = g
        while x:
            elems.append(x)
            x = rows[x][g]
        key = frozenset(elems)
        if key not in seen:
            seen[key] = len(elems)
    by_order: dict = {}
    for key, size in seen.items():
        by_order.setdefault(size, []).append(key)
    return by_order


def cyclic_census(p: int) -> list:
    """One CensusRow per order 1..2p+..; every row must match."""
    _require_odd_prime(p)
    G = sl2_group(p)
    by_order = _cyclic_subgroups_by_order(G)
    top = max(p + 1, 2 * p)
    rows = []
    for m in range(1, top + 1):
        predicted = predicted_cyclic_count(p, m)
        observed = len(by_order.get(m, ()))
        if predicted or observed:
            rows.append(CensusRow(m, predicted, observed, predicted == observed))
    assert max(by_order) <= top
    return rows


def census_partition_identity(p: int) -> bool:
    """c_{p-1}(p-3) + c_{2p}(2p-2) + c_{p+1}(p-1) = |G| - 2."""
    total = (predicted_cyclic_count(p, p - 1) * (p - 3)
             + predicted_cyclic_count(p, 2 * p) * (2 * p - 2)
             + predicted_cyclic_count(p, p + 1) * (p - 1))
    return total == (p - 1) * p * (p + 1) - 2


def maximal_cyclic_orders(p: int) -> set:
    """Observed maximal cyclic orders; {p-1, 2p, p+1} for p > 3, {6, 4} at 3."""
    by_order = _cyclic_subgroups_by_order(sl2_group(p))
    maximal = set()
    keys = [(size, key) for size, keys in by_order.items() for key in keys]
    for size, key in keys:
        if not any(key < other for osize, other in keys if osize > size):
            maximal.add(size)
    return maximal


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def trichotomy_check(p: int) -> bool:
    """Eigenvalue count in F_p vs order: 2 <-> m | p-1; 1 <-> m | 2p;
    0 <-> m | p+1, for every element outside {I, -I}."""
    _require_odd_prime(p)
    G = sl2_group(p)
    orders = G.element_orders()
    for g, (a, b, c, d) in enumerate(G.matrices):
        if orders[g] <= 2:
            continue
        disc = ((a + d) * (a + d) - 4) % p
        eigencount = {0: 1, 1: 2, -1: 0}[_legendre(disc, p)]
        m = orders[g]
        expected = {2: (p - 1) % m == 0, 1: (2 * p) % m == 0,
                    0: (p + 1) % m == 0}
        for count, holds in expected.items():
            if (eigencount == count) != holds:
                return False
    return True


def _conjugate_key(G: Group, elems: tuple, g: int) -> frozenset:
    table, inv = G.table, G.inverse
    ginv = int(inv[g])
    return frozenset(int(table[table[g, x], ginv]) for x in elems)


def find_conjugator(G: Group, C1: Subgroup, C2: Subgroup) -> Optional[int]:
    """An explicit g with g C1 g^-1 = C2, by orbit search; None if none."""
    target = C2.elset
    base = C1.elements
    for g in range(G.order):
        if _conjugate_key(G, base, g) == target:
            return g
    return None


def conjugacy_and_normals_check(p: int) -> bool:
    """All equal-order cyclic subgroups are conjugate and meet in <= {+-I};
    normal subgroups are exactly {1}, {+-1}, G for p >= 5 (iso 2T at p = 3)."""
    _require_odd_prime(p)
    G = sl2_group(p)
    by_order = _cyclic_subgroups_by_order(G)
    minus = G.element_orders().index(2)
    small = frozenset((0, minus))
    for size, keys in by_order.items():
        if size <= 2:
            continue
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                if not (k1 & k2) <= small:
                    return False
        base = tuple(sorted(keys[0]))
        orbit = set()
        for g in range(G.order):
            orbit.add(_conjugate_key(G, base, g))
        if orbit != set(keys):
            return False

    if p == 3:
        from .quaternions import finite_quaternion_group, \
            hurwitz_tetrahedral_generators
        from .groups import is_isomorphic

        if not sylow_subgroup(G, 2).is_normal():
            return False
        model = finite_quaternion_group(hurwitz_tetrahedral_generators())
        return is_isomorphic(G, model) is not None

    # p >= 5: normal subgroups via normal closures of class representatives;
    # every normal subgroup is a join of closures of its elements
    closures = set()
    for cls in G.conjugacy_classes():
        N = normal_closure(G, [cls[0]])
        closures.add(N.elset)
    expected = {frozenset((0,)), small, frozenset(range(G.order))}
    return closures == expected


def _matrix_index(G: Group, mat: tuple) -> int:
    return G.matrices.index(mat)


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise BadParams(f"no primitive root mod {p}")


def normalizer_structure_check(p: int) -> bool:
    """N(C_p) has order (p-1)p and matches C_p x| C_{p-1} with the
    upper-triangular action b -> a^2 b."""
    _require_odd_prime(p)
    G = sl2_group(p)
    u = _matrix_index(G, (1, 1, 0, 1))
    C = subgroup_generated(G, [u])
    assert len(C) == p
    N = normalizer(G, C)
    if len(N) != (p - 1) * p:
        return False
    from .constructors import sd
    from .groups import is_isomorphic

    g = _primitive_root(p)
    model = sd(p, p - 1, (g * g) % p)
    return is_isomorphic(N.as_group(), model) is not None


def is_fermat_prime(p: int) -> bool:
    m = p - 1
    return m & (m - 1) == 0


def fermat_pq_witness(p: int) -> Optional[Subgroup]:
    """A noncyclic subgroup of order p*r (r an odd prime dividing p-1),
    present iff p is not a Fermat prime."""
    _require_odd_prime(p)
    if is_fermat_prime(p):
        return None
    r = next(q for q in range(3, p, 2) if (p - 1) % q == 0 and is_prime(q))
    G = sl2_group(p)
    g = _primitive_root(p)
    a = pow(g, (p - 1) // r, p)
    u = _matrix_index(G, (1, 1, 0, 1))
    t = _matrix_index(G, (a, 0, 0, pow(a, p - 2, p)))
    H = subgroup_generated(G, [u, t])
    assert len(H) == p * r, f"witness has order {len(H)}, wanted {p * r}"
    orders = G.element_orders()
    assert all(orders[x] != p * r for x in H.elements), "witness must be noncyclic"
    return H


def census_report(p: int) -> dict:
    """JSON-ready census summary for one prime."""
    rows = cyclic_census(p)
    G = sl2_group(p)
    return {
        "p": p,
        "group_order": G.order,
        "order_formula_holds": G.order == (p - 1) * p * (p + 1),
        "unique_involution": G.element_orders().count(2) == 1,
        "rows": [
            {"m": r.m, "predicted": r.predicted, "observed": r.observed,
             "match": r.match}
            for r in rows
        ],
        "all_match": all(r.match for r in rows),
    }
