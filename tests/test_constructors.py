"""Named-group constructors: presentations, orders, and cross-validations."""

from __future__ import annotations

import pytest

from group_theory import element_order, is_abelian, normal_subgroups
from isomorphism import is_isomorphic
from freerep.errors import BadParams, BadSize, CapExceeded
from freerep.groups import (
    commutator_subgroup,
    subgroup_generated,
    sylow_subgroup,
)
from freerep.constructors import (
    SemidirectParams,
    binary_polyhedral,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    sl2,
)


def test_cyclic_one_is_trivial():
    assert cyclic(1).order == 1


def test_dihedral3_order_and_involutions():
    G = dihedral(3)
    assert G.order == 6
    assert G.element_orders().count(2) == 3


def test_direct_product_coprime_cyclics_is_cyclic():
    G = direct_product(cyclic(3), cyclic(5))
    assert is_isomorphic(G, cyclic(15)) is not None


def test_q8_element_order_census():
    G = generalized_quaternion(8)
    orders = sorted(G.element_orders())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_q16_unique_involution_and_index2_cyclic():
    G = generalized_quaternion(16)
    assert G.element_orders().count(2) == 1
    r = G.labels.index("R")
    assert len(subgroup_generated(G, [r])) == 8


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_quaternion_subgroup_chain(k):
    # Q_{2^k} contains a generalized quaternion subgroup of order 2^j, 3<=j<=k
    G = generalized_quaternion(2 ** k)
    r, t = G.labels.index("R"), G.labels.index("T")
    for j in range(3, k + 1):
        # <R^(2^(k-j)), T> has order 2^j and is generalized quaternion
        H = subgroup_generated(G, [G.power(r, 2 ** (k - j)), t])
        assert len(H) == 2 ** j
        assert is_isomorphic(H.as_group(), generalized_quaternion(2 ** j)) is not None


def test_generalized_quaternion_rejects_bad_size():
    with pytest.raises(BadSize):
        generalized_quaternion(12)
    with pytest.raises(BadSize):
        generalized_quaternion(4)


def test_sd_21_nonabelian():
    G = sd(7, 3, 2)
    assert G.order == 21
    assert not is_abelian(G)
    assert len(commutator_subgroup(G)) == 7


def test_sd_trivial_action_is_cyclic():
    G = sd(5, 4, 1)
    assert is_isomorphic(G, cyclic(20)) is not None


def test_sd_63():
    G = sd(7, 9, 2)
    assert G.order == 63
    # mu(G) = A*K where K = kernel of the action; computed via classifier later,
    # here just the centralizer of the commutator subgroup
    A = commutator_subgroup(G)
    assert len(A) == 7


def test_sd_rejects_bad_params():
    with pytest.raises(BadParams, match="gcd"):
        sd(9, 3, 2)
    with pytest.raises(BadParams, match="r"):
        sd(7, 3, 3)  # 3^3 = 27 = 6 mod 7
    with pytest.raises(BadParams):
        sd(8, 2, 3)  # 3^2 = 1 mod 8 ok, gcd(3-1?...) -- r valid, m,n not coprime


def test_sd_inverse_exponent_isomorphic():
    # replacing r by its inverse mod m gives an isomorphic group
    assert is_isomorphic(sd(7, 3, 2), sd(7, 3, 4)) is not None
    assert is_isomorphic(sd(35, 6, 4), sd(35, 6, 9)) is not None


def test_sl2_2_is_dihedral():
    G = sl2(2)
    assert G.order == 6
    assert G.element_orders().count(2) == 3
    assert is_isomorphic(G, dihedral(3)) is not None


def test_sl2_3_is_binary_tetrahedral():
    from freerep.quaternions import finite_quaternion_group, \
        hurwitz_tetrahedral_generators

    G = sl2(3)
    assert G.order == 24
    model = finite_quaternion_group(hurwitz_tetrahedral_generators())
    assert is_isomorphic(G, model) is not None


def test_sl2_5_order_and_perfect():
    G = sl2(5)
    assert G.order == 120
    assert len(commutator_subgroup(G)) == 120


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sl2_unique_involution(p):
    G = sl2(p)
    assert G.order == (p - 1) * p * (p + 1)
    assert G.element_orders().count(2) == 1


def test_sl2_odd_sylow_cycloidal_noncyclic_2sylow():
    G = sl2(5)
    P2 = sylow_subgroup(G, 2)
    assert len(P2) == 8
    assert P2.as_group().exponent_generator() is None  # not cyclic
    P3 = sylow_subgroup(G, 3)
    assert P3.as_group().is_cyclic()


def test_binary_polyhedral_2d2_is_q8():
    G = binary_polyhedral("2D", 2)
    assert is_isomorphic(G, generalized_quaternion(8)) is not None


def test_binary_octahedral():
    G = binary_polyhedral("2O")
    assert G.order == 48
    assert G.element_orders().count(3) == 8
    # unique index-2 subgroup isomorphic to 2T
    subs = [N for N in normal_subgroups(G) if len(N) == 24]
    assert len(subs) == 1
    assert is_isomorphic(subs[0].as_group(), sl2(3)) is not None


def test_binary_tetrahedral_four_c3s_none_normal():
    G = binary_polyhedral("2T")
    threes = {subgroup_generated(G, [g]).elset
              for g in G.elements() if element_order(G, g) == 3}
    assert len(threes) == 4
    assert all(len(N) != 3 for N in normal_subgroups(G))


def test_2dn_unique_involution():
    for n in (2, 3, 5, 7):
        G = binary_polyhedral("2D", n)
        assert G.order == 4 * n
        assert G.element_orders().count(2) == 1


def test_dicyclic_low_order():
    assert is_isomorphic(dicyclic(1), cyclic(4)) is not None


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        sl2(23)
    with pytest.raises(CapExceeded):
        cyclic(100000)


def test_semidirect_params_validation():
    with pytest.raises(BadParams):
        SemidirectParams(7, 3, 0).validate()
    SemidirectParams(7, 3, 2).validate()
