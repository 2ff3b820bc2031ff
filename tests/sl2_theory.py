"""SL2(F_p) structure theory checked by brute force and isomorphism search:
the census partition identity, the maximal cyclic orders, the eigenvalue
trichotomy, the Fermat pq-criterion, the cyclic subgroups of each order
being conjugate and meeting in {+-I}, the normal subgroups being {1}, {+-I}
and G for p >= 5 (2T at p = 3), and the normalizer of the unipotent
subgroup being C_p x| C_(p-1)."""

from __future__ import annotations

from typing import Optional

from isomorphism import is_isomorphic

from freerep.constructors import sd
from freerep.cyclotomic import is_prime, prime_factors
from freerep.errors import BadParams, InvariantViolated
from freerep.groups import (
    Group,
    Subgroup,
    conjugates,
    cyclic_subgroups,
    normal_closure,
    normalizer,
    sl2_elements,
    subgroup_generated,
    sylow_subgroup,
)
from freerep.quaternions import finite_quaternion_group, hurwitz_tetrahedral_generators
from freerep.run import check_deadline
from freerep.sl2census import _require_odd_prime, predicted_cyclic_count, sl2_group


def census_partition_identity(p: int) -> bool:
    """c_{p-1}(p-3) + c_{2p}(2p-2) + c_{p+1}(p-1) = |G| - 2."""
    total = (predicted_cyclic_count(p, p - 1) * (p - 3)
             + predicted_cyclic_count(p, 2 * p) * (2 * p - 2)
             + predicted_cyclic_count(p, p + 1) * (p - 1))
    return total == (p - 1) * p * (p + 1) - 2


def maximal_cyclic_orders(p: int) -> set:
    """Observed maximal cyclic orders; {p-1, 2p, p+1} for p > 3, {6, 4} at 3."""
    subs = cyclic_subgroups(sl2_group(p))
    return {len(C) for C in subs
            if not any(C.elset < D.elset for D in subs if len(D) > len(C))}


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
    for g, (a, b, c, d) in enumerate(sl2_elements(p)[0]):
        check_deadline()
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


def find_conjugator(G: Group, C1: Subgroup, C2: Subgroup) -> Optional[int]:
    """An explicit g with g C1 g^-1 = C2, by orbit search; None if none."""
    for g, image in enumerate(conjugates(G, C1.elements).tolist()):
        if set(image) == C2.elset:
            return g
    return None


def _matrix_index(p: int, mat: tuple) -> int:
    return sl2_elements(p)[0].index(mat)


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise BadParams(f"no primitive root mod {p}")


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
    u = _matrix_index(p, (1, 1, 0, 1))
    t = _matrix_index(p, (a, 0, 0, pow(a, p - 2, p)))
    H = subgroup_generated(G, [u, t])
    if len(H) != p * r:
        raise InvariantViolated(f"witness has order {len(H)}, wanted {p * r}")
    orders = G.element_orders()
    if any(orders[x] == p * r for x in H.elements):
        raise InvariantViolated("witness must be noncyclic")
    return H


def conjugacy_and_normals_check(p: int) -> bool:
    """All equal-order cyclic subgroups are conjugate and meet in <= {+-I};
    normal subgroups are exactly {1}, {+-1}, G for p >= 5 (iso 2T at p = 3)."""
    _require_odd_prime(p)
    G = sl2_group(p)
    by_order: dict = {}
    for C in cyclic_subgroups(G):
        by_order.setdefault(len(C), []).append(C.elset)
    minus = G.element_orders().index(2)
    small = frozenset((0, minus))
    for size, keys in by_order.items():
        check_deadline()
        if size <= 2:
            continue
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                if not (k1 & k2) <= small:
                    return False
        orbit = set(map(frozenset, conjugates(G, sorted(keys[0])).tolist()))
        if orbit != set(keys):
            return False

    if p == 3:
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


def normalizer_structure_check(p: int) -> bool:
    """N(C_p) has order (p-1)p and matches C_p x| C_{p-1} with the
    upper-triangular action b -> a^2 b."""
    _require_odd_prime(p)
    G = sl2_group(p)
    u = _matrix_index(p, (1, 1, 0, 1))
    C = subgroup_generated(G, [u])
    if len(C) != p:
        raise InvariantViolated(f"the unipotent subgroup has order {len(C)}, not {p}")
    N = normalizer(G, C)
    if len(N) != (p - 1) * p:
        return False
    g = _primitive_root(p)
    model = sd(p, p - 1, (g * g) % p)
    return is_isomorphic(N.as_group(), model) is not None
