"""Core group kernel: construction, subgroups, Sylow theory, quotients,
isomorphism, n-th root counting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import pytest

from group_theory import count_nth_roots, element_order, normal_subgroups, sylow_conjugates
from isomorphism import is_isomorphic
from freerep.errors import InvariantViolated, NotAGroup, NotConjugationClosed, NotNormal
from freerep.groups import (
    Group,
    Subgroup,
    all_subgroups,
    build_group,
    center,
    centralizer,
    commutator_subgroup,
    cyclic_subgroups,
    derived_series,
    is_solvable,
    normalizer,
    quotient_group,
    subgroup_generated,
    sylow_subgroup,
    table_from_generators,
)
from freerep.constructors import (
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    sl2,
)


# -- independent oracles -------------------------------------------------------

def perm_group(perms):
    """Group from explicit permutations under composition (independent model)."""
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}

    def mult(i, j):
        a, b = perms[i], perms[j]
        return index[tuple(a[b[k]] for k in range(len(a)))]

    return build_group(mult, len(perms), origin="perm")


def s3():
    return perm_group(itertools.permutations(range(3)))


def brute_force_subgroups(G):
    """All subgroups by subset enumeration; usable only for tiny groups."""
    n = G.order
    out = []
    for size in range(1, n + 1):
        if n % size:
            continue
        for cand in itertools.combinations(range(1, n), size - 1):
            elems = (0,) + cand
            eset = set(elems)
            if all(G.mul(a, b) in eset for a in elems for b in elems):
                out.append(frozenset(elems))
    return set(out)


# -- build_group ---------------------------------------------------------------

def test_build_trivial_group():
    G = build_group(lambda i, j: 0, 1)
    assert G.order == 1
    assert G.mul(0, 0) == 0


def test_build_cyclic5_from_addition():
    G = build_group(lambda i, j: (i + j) % 5, 5)
    assert G.order == 5
    assert all(element_order(G, g) == 5 for g in range(1, 5))


def test_build_s3_from_permutations():
    G = s3()
    orders = sorted(G.element_orders())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_build_group_relocates_identity():
    # addition mod 4 with names shifted so the oracle identity is index 2
    shift = [2, 3, 0, 1]
    unshift = [2, 3, 0, 1]

    def mult(i, j):
        return unshift[(shift[i] + shift[j]) % 4]

    G = build_group(mult, 4)
    assert G.mul(0, 1) == 1 and G.mul(1, 0) == 1


def test_build_group_rejects_non_latin():
    with pytest.raises(NotAGroup):
        build_group(lambda i, j: 0, 2)


def test_build_group_rejects_nonassociative():
    # commutative loop of order 5 that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup, match="assoc"):
        build_group(lambda i, j: table[i][j], 5)


def test_table_from_generators_rejects_a_non_generating_set():
    # left multiplication by element 2 of C6 reaches only 0, 2 and 4
    with pytest.raises(InvariantViolated, match="generators reach 3 of 6"):
        table_from_generators(cyclic(6).table[[2]])


# -- element orders, subgroup generation --------------------------------------

def test_identity_has_order_one():
    assert element_order(cyclic(12), 0) == 1


def test_cyclic_generator_order():
    G = cyclic(12)
    assert element_order(G, 1) == 12


def test_q16_r_has_order_8():
    G = generalized_quaternion(16)
    r = G.labels.index("R")
    assert element_order(G, r) == 8


def test_subgroup_generated_empty_is_trivial():
    G = cyclic(6)
    H = subgroup_generated(G, [])
    assert H.elements == (0,)


def test_q8_generated_by_r_and_t():
    G = generalized_quaternion(8)
    r, t = G.labels.index("R"), G.labels.index("T")
    assert len(subgroup_generated(G, [r, t])) == 8


def test_order21_generated_by_two_order3_elements():
    G = sd(7, 3, 2)
    threes = [g for g in G.elements() if element_order(G, g) == 3]
    a = threes[0]
    b = next(g for g in threes if subgroup_generated(G, [g]).elset
             != subgroup_generated(G, [a]).elset)
    assert len(subgroup_generated(G, [a, b])) == 21


# -- all_subgroups -------------------------------------------------------------

def test_cp_has_two_subgroups():
    assert len(all_subgroups(cyclic(7))) == 2


def test_q8_subgroups_match_brute_force():
    G = generalized_quaternion(8)
    subs = all_subgroups(G)
    assert {s.elset for s in subs} == brute_force_subgroups(G)
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 2, 4, 4, 4, 8]


def test_c3xc3_has_six_subgroups():
    G = direct_product(cyclic(3), cyclic(3))
    subs = all_subgroups(G)
    assert len(subs) == 6
    assert sorted(len(s) for s in subs) == [1, 3, 3, 3, 3, 9]


def test_s3_subgroups_match_brute_force():
    G = s3()
    assert {s.elset for s in all_subgroups(G)} == brute_force_subgroups(G)


def test_d6_subgroups_match_brute_force():
    G = dihedral(6)
    assert {s.elset for s in all_subgroups(G)} == brute_force_subgroups(G)


def test_subgroups_sorted_and_unique():
    G = dihedral(4)
    subs = all_subgroups(G)
    keys = [(len(s), s.elements) for s in subs]
    assert keys == sorted(keys)
    assert len({s.elset for s in subs}) == len(subs)


# -- Sylow ---------------------------------------------------------------------

def test_sylow_c6():
    G = cyclic(6)
    P = sylow_subgroup(G, 2)
    assert len(P) == 2


def test_sylow_sl2_3_is_q8():
    G = sl2(3)
    P = sylow_subgroup(G, 2)
    assert len(P) == 8
    assert is_isomorphic(P.as_group(), generalized_quaternion(8)) is not None


def test_sylow_sl2_5_order5():
    G = sl2(5)
    assert len(sylow_subgroup(G, 5)) == 5


def test_sylow_trivial_when_p_does_not_divide():
    assert len(sylow_subgroup(cyclic(10), 3)) == 1


@pytest.mark.parametrize("G", [dihedral(6), sd(7, 3, 2), sl2(3), dicyclic(3)],
                         ids=lambda g: g.origin)
def test_sylow_counts(G):
    n = G.order
    for p in {f for f in range(2, n + 1) if n % f == 0 and
              all(f % d for d in range(2, int(f ** 0.5) + 1))}:
        P = sylow_subgroup(G, p)
        pk = len(P)
        conj = sylow_conjugates(G, P)
        assert (n // pk) % len(conj) == 0
        assert len(conj) % p == 1


# -- structure ops -------------------------------------------------------------

@dataclass
class StructureReport:
    center: Subgroup
    commutator_subgroup: Subgroup
    derived_series: list
    conjugacy_classes: list
    normal_subgroups: list
    is_solvable: bool
    is_perfect: bool


def structure_ops(G: Group) -> StructureReport:
    series = derived_series(G)
    return StructureReport(
        center=center(G),
        commutator_subgroup=commutator_subgroup(G),
        derived_series=series,
        conjugacy_classes=G.conjugacy_classes(),
        normal_subgroups=normal_subgroups(G),
        is_solvable=len(series[-1]) == 1,
        is_perfect=len(commutator_subgroup(G)) == G.order,
    )


def test_abelian_structure():
    G = cyclic(12)
    rep = structure_ops(G)
    assert len(rep.center) == 12
    assert len(rep.commutator_subgroup) == 1
    assert rep.is_solvable and not rep.is_perfect


def test_q8_structure():
    G = generalized_quaternion(8)
    # brute-force commutators: [x,y] over all pairs
    comms = {G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
             for x in G.elements() for y in G.elements()}
    assert comms == {0, G.power(G.labels.index("R"), 2)}
    rep = structure_ops(G)
    assert len(rep.center) == 2
    assert len(rep.commutator_subgroup) == 2
    assert rep.is_solvable


def test_sl2_5_structure():
    G = sl2(5)
    rep = structure_ops(G)
    assert rep.is_perfect and not rep.is_solvable
    assert sorted(len(N) for N in rep.normal_subgroups) == [1, 2, 120]


def test_derived_series_terminates():
    G = dihedral(6)
    series = derived_series(G)
    assert len(series[-1]) in (1, len(series[-2]) if len(series) > 1 else 1)
    assert is_solvable(G)


def test_centralizer_and_normalizer():
    G = dihedral(5)
    refl = next(g for g in G.elements() if element_order(G, g) == 2)
    Z = centralizer(G, [refl])
    assert len(Z) == 2
    rot = subgroup_generated(G, [1])
    assert len(normalizer(G, rot)) == 10


# -- quotients -----------------------------------------------------------------

def test_quotient_by_whole_group():
    G = cyclic(6)
    Q, proj = quotient_group(G, Subgroup(G, range(6)))
    assert Q.order == 1
    assert proj.kernel().elements == tuple(range(6))


def test_q8_mod_center_is_klein_four():
    G = generalized_quaternion(8)
    Q, proj = quotient_group(G, center(G))
    assert Q.order == 4
    assert all(element_order(Q, g) <= 2 for g in Q.elements())
    assert proj.kernel().elset == center(G).elset


def test_psl2_5_is_simple_order_60():
    G = sl2(5)
    Q, _ = quotient_group(G, center(G))
    assert Q.order == 60
    assert sorted(len(N) for N in normal_subgroups(Q)) == [1, 60]


def test_quotient_rejects_non_normal():
    G = s3()
    refl = next(g for g in G.elements() if element_order(G, g) == 2)
    with pytest.raises(NotNormal):
        quotient_group(G, subgroup_generated(G, [refl]))


# -- isomorphism ---------------------------------------------------------------

def test_c4_not_isomorphic_to_klein():
    assert is_isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2))) is None


def test_sl2_3_isomorphic_to_q8_semidirect_c3():
    # abstract 2T: Q8 x| C3 with the 3-cycle i -> j -> k action
    G = sl2(3)
    H = _binary_tetrahedral_by_hand()
    phi = is_isomorphic(G, H)
    assert phi is not None and phi.is_bijective()


def _binary_tetrahedral_by_hand():
    from freerep.quaternions import finite_quaternion_group, \
        hurwitz_tetrahedral_generators

    return finite_quaternion_group(hurwitz_tetrahedral_generators())


def test_q16_presentation_vs_quaternion_units():
    from freerep.quaternions import finite_quaternion_group
    from so3 import binary_dihedral_generators

    G = generalized_quaternion(16)
    H = finite_quaternion_group(binary_dihedral_generators(4))
    phi = is_isomorphic(G, H)
    assert phi is not None and phi.is_bijective()


@pytest.mark.parametrize("G", [cyclic(12), dihedral(4), generalized_quaternion(8),
                               sd(7, 3, 2)], ids=lambda g: g.origin)
def test_isomorphism_reflexive(G):
    phi = is_isomorphic(G, G)
    assert phi is not None and phi.is_bijective()


def test_isomorphism_symmetric():
    A, B = dicyclic(2), generalized_quaternion(8)
    assert (is_isomorphic(A, B) is None) == (is_isomorphic(B, A) is None)


def test_same_order_nonisomorphic():
    assert is_isomorphic(dihedral(4), generalized_quaternion(8)) is None
    assert is_isomorphic(dihedral(6), sd(3, 4, 2)) is None


# -- count_nth_roots -----------------------------------------------------------

def test_all_elements_are_order_n_roots_of_identity():
    G = dihedral(5)
    assert count_nth_roots(G, [0], G.order) == G.order


def test_s3_square_roots_of_identity():
    G = s3()
    brute = sum(1 for x in G.elements() if G.mul(x, x) == 0)
    assert brute == 4
    assert count_nth_roots(G, [0], 2) == 4
    assert count_nth_roots(G, [0], 2) % gcd(2, 6) == 0


def test_q8_square_roots_of_identity():
    G = generalized_quaternion(8)
    assert count_nth_roots(G, [0], 2) == 2


def test_count_nth_roots_rejects_unclosed_set():
    G = s3()
    refl = next(g for g in G.elements() if element_order(G, g) == 2)
    with pytest.raises(NotConjugationClosed):
        count_nth_roots(G, [refl], 2)


def test_frobenius_on_class():
    G = dihedral(6)
    cls = G.class_of(next(g for g in G.elements() if element_order(G, g) == 2))
    n = 2
    cnt = count_nth_roots(G, cls, n)
    assert cnt % gcd(n * len(cls), G.order) == 0


# -- misc invariants -----------------------------------------------------------

def test_lagrange_on_all_subgroups():
    G = dihedral(6)
    for H in all_subgroups(G):
        assert G.order % len(H) == 0


def test_subgroup_rejects_unclosed_set():
    G = cyclic(6)
    with pytest.raises(NotAGroup):
        Subgroup(G, [0, 1])


def test_cyclic_subgroups_deduplicated():
    G = cyclic(6)
    assert len(cyclic_subgroups(G)) == 4  # one per divisor


def test_subgroups_of_distinct_parents_never_equal():
    A, B = cyclic(6), cyclic(6)
    assert Subgroup(A, [0, 3]) != Subgroup(B, [0, 3])
    assert Subgroup(A, [0, 3]) == Subgroup(A, [0, 3])


def test_invalid_homomorphism_rejected():
    from freerep.groups import Homomorphism

    G, H = cyclic(4), cyclic(2)
    with pytest.raises(NotAGroup):
        Homomorphism(G, H, [0, 1, 1, 1])  # not multiplicative
    with pytest.raises(NotAGroup):
        Homomorphism(G, H, [1, 0, 1, 0])  # does not fix the identity


def test_homomorphism_with_two_entries_swapped_rejected():
    # verify checks phi(s * x) = phi(s) * phi(x) for generators s only; a
    # valid map with the images of two elements of different orders swapped
    # is no homomorphism, and each such swap must be caught
    from freerep.groups import Homomorphism

    for G in (cyclic(12), dihedral(6), sd(7, 9, 2), generalized_quaternion(16)):
        orders = G.element_orders()
        g = G.order - 1
        valid = [G.conj(g, x) for x in G.elements()]
        Homomorphism(G, G, valid)
        for x in range(1, G.order):
            for y in range(x + 1, G.order):
                if orders[x] != orders[y]:
                    swapped = list(valid)
                    swapped[x], swapped[y] = swapped[y], swapped[x]
                    with pytest.raises(NotAGroup, match="not multiplicative"):
                        Homomorphism(G, G, swapped)


def test_subgroup_generated_by_one_element_is_its_powers():
    G = dihedral(4)
    powers, x = [0], 1
    while x:
        powers.append(x)
        x = G.mul(x, 1)
    assert subgroup_generated(G, [1]).elements == tuple(sorted(powers))


def test_group_json_roundtrip():
    G = cyclic(4)
    data = G.to_json()
    assert data["order"] == 4
    assert data["table"][1][1] == 2
    assert data["origin"] == "C4"
