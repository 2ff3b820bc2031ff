"""SL2(F_p) structure checks by brute force and isomorphism search: the
cyclic subgroups of each order are conjugate and meet in {+-I}, the normal
subgroups are {1}, {+-I} and G for p >= 5 (2T at p = 3), and the normalizer
of the unipotent subgroup is C_p x| C_(p-1)."""

from __future__ import annotations

from isomorphism import is_isomorphic

from freerep.constructors import sd
from freerep.errors import InvariantViolated
from freerep.groups import (
    conjugates,
    cyclic_subgroups,
    normal_closure,
    normalizer,
    subgroup_generated,
    sylow_subgroup,
)
from freerep.quaternions import finite_quaternion_group, hurwitz_tetrahedral_generators
from freerep.run import check_deadline
from freerep.sl2census import _matrix_index, _primitive_root, _require_odd_prime, sl2_group


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
    u = _matrix_index(G, (1, 1, 0, 1))
    C = subgroup_generated(G, [u])
    if len(C) != p:
        raise InvariantViolated(f"the unipotent subgroup has order {len(C)}, not {p}")
    N = normalizer(G, C)
    if len(N) != (p - 1) * p:
        return False
    g = _primitive_root(p)
    model = sd(p, p - 1, (g * g) % p)
    return is_isomorphic(N.as_group(), model) is not None
