"""Exact quaternion arithmetic, the SO(3) double cover, and finite subgroups."""

from __future__ import annotations

from fractions import Fraction

import pytest

from isomorphism import is_isomorphic
from freerep.errors import BadParams, NotUnit
from freerep.constructors import cyclic, generalized_quaternion, sl2
from so3 import (
    I,
    J,
    K,
    ONE,
    NotQuaternionGroup,
    QuadFieldElement,
    binary_dihedral_generators,
    identify_so3_image,
    is_one,
    key,
    order10_icosian,
    quat,
    quaternion_of,
    rotation_of,
)
from freerep.quaternions import (
    binary_icosahedral_generators,
    binary_octahedral_generators,
    finite_quaternion_group,
    hurwitz_tetrahedral_generators,
)


def test_defining_relation_ij_is_k():
    assert I * J == K
    assert J * I == -K
    assert is_one(I * I) is False
    assert (I * I) == -ONE


def test_hurwitz_unit_norm_one():
    h = Fraction(1, 2)
    q = quat(h, h, h, h)
    assert q.norm() == QuadFieldElement.of(1)


def test_sqrt2_element_squares_to_i():
    s = QuadFieldElement.of(0, 2, Fraction(1, 2))  # sqrt(2)/2
    q = quat(s, s, 0, 0, d=2)
    assert q * q == I.lift(2)
    # order 8 by repeated exact multiplication
    x, k = q, 1
    while not is_one(x):
        x = x * q
        k += 1
    assert k == 8


def test_norm_multiplicative():
    a = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    b = quat(0, 1, 0, 0)
    assert (a * b).norm() == a.norm() * b.norm()


def test_conj_antihomomorphism():
    a, b = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), I
    assert (a * b).conj() == b.conj() * a.conj()


def test_inverse():
    a = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert is_one(a * a.inverse())
    with pytest.raises(ZeroDivisionError):
        quat(0).inverse()


# -- rotation_of ----------------------------------------------------------------

def test_rotation_of_one_is_identity():
    m = rotation_of(ONE)
    for i in range(3):
        for j in range(3):
            want = 1 if i == j else 0
            assert m.entries[i][j] == QuadFieldElement.of(want)


def test_rotation_of_i_is_diag_1_m1_m1():
    # conjugation by i: i -> i, j -> -j, k -> -k
    m = rotation_of(I)
    diag = [m.entries[t][t] for t in range(3)]
    assert [d.a for d in diag] == [1, -1, -1]
    off = [m.entries[i][j] for i in range(3) for j in range(3) if i != j]
    assert all(c.is_zero() for c in off)


def test_rotation_quarter_turn_cosine():
    # h = (1+i)/sqrt2 fixes the i-axis; the turning cosine is 2r^2-1 = 0
    s = QuadFieldElement.of(0, 2, Fraction(1, 2))
    h = quat(s, s, 0, 0, d=2)
    m = rotation_of(h)
    assert m.entries[0][0] == QuadFieldElement.of(1).lift(2)  # i fixed
    assert m.entries[1][1].is_zero()  # cos(angle) on the j axis = 2r^2-1 = 0


def test_rotation_of_is_even_under_negation():
    h = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert rotation_of(h).key() == rotation_of(-h).key()


def test_rotation_of_multiplicative():
    a = quat(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    b = I
    assert rotation_of(a * b).key() == (rotation_of(a) * rotation_of(b)).key()


def test_rotation_requires_unit():
    with pytest.raises(NotUnit):
        rotation_of(quat(2))


# -- finite quaternion groups ----------------------------------------------------

def test_ij_generate_q8():
    G = finite_quaternion_group([key(I), key(J)])
    assert G.order == 8
    assert is_isomorphic(G, generalized_quaternion(8)) is not None


def test_hurwitz_tetrahedral_closure_24():
    G = finite_quaternion_group(hurwitz_tetrahedral_generators())
    assert G.order == 24


def test_binary_octahedral_closure_48():
    G = finite_quaternion_group(binary_octahedral_generators())
    assert G.order == 48


def test_binary_icosahedral_closure_120_is_sl2_5():
    G = finite_quaternion_group(binary_icosahedral_generators())
    assert G.order == 120
    assert is_isomorphic(G, sl2(5)) is not None


def _closure_by_products(gens):
    """The former construction, kept as the oracle: breadth-first closure,
    then one exact quaternion product per table cell."""
    one = ONE.lift(gens[0].d)
    elems, index, frontier = [one], {one: 0}, [one]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    new.append(y)
        frontier = new
    return elems, [[index[a * b] for b in elems] for a in elems]


@pytest.mark.parametrize("gens", [hurwitz_tetrahedral_generators(),
                                  binary_octahedral_generators(),
                                  binary_icosahedral_generators()],
                         ids=["2T", "2O", "2I"])
def test_table_from_right_multiplications_matches_products(gens):
    G = finite_quaternion_group(gens)
    d = quaternion_of(G.quaternions[0]).d
    elems, table = _closure_by_products([quaternion_of(g).lift(d) for g in gens])
    assert G.quaternions == [key(q) for q in elems]
    assert G.table.tolist() == table


def test_quaternion_groups_have_unique_involution():
    for gens in (hurwitz_tetrahedral_generators(),
                 binary_octahedral_generators(),
                 [key(I), key(J)]):
        G = finite_quaternion_group(gens)
        assert G.element_orders().count(2) == 1


def test_binary_dihedral_generators_match_presentation():
    for n in (2, 4):
        G = finite_quaternion_group([key(q) for q in binary_dihedral_generators(n)])
        assert G.order == 4 * n
        assert is_isomorphic(G, generalized_quaternion(4 * n)) is not None
    with pytest.raises(BadParams):
        binary_dihedral_generators(3)


# -- identify_so3_image -----------------------------------------------------------

def test_q8_image_is_klein_four():
    G = finite_quaternion_group([key(I), key(J)])
    ident = identify_so3_image(G)
    assert ident.kind == "binary_dihedral"
    assert ident.parameter == 2
    assert ident.image_order == 4


def test_cyclic_order10_image_order5():
    q = order10_icosian()
    G = finite_quaternion_group([key(q)])
    assert G.order == 10
    ident = identify_so3_image(G)
    assert ident.kind == "cyclic"
    assert ident.image_order == 5


def test_2o_image_is_octahedral():
    G = finite_quaternion_group(binary_octahedral_generators())
    ident = identify_so3_image(G)
    assert ident.kind == "2O"
    assert ident.image_order == 24


def test_2d4_image_is_dihedral4():
    G = finite_quaternion_group([key(q) for q in binary_dihedral_generators(4)])
    ident = identify_so3_image(G)
    assert ident.kind == "binary_dihedral"
    assert ident.parameter == 4


def test_2t_and_2i_images():
    assert identify_so3_image(
        finite_quaternion_group(hurwitz_tetrahedral_generators())).kind == "2T"
    assert identify_so3_image(
        finite_quaternion_group(binary_icosahedral_generators())).kind == "2I"


def test_odd_cyclic_no_minus_one_injective():
    # order-5 subgroup: square of the order-10 icosian
    q = order10_icosian()
    G = finite_quaternion_group([key(q * q)])
    assert G.order == 5
    ident = identify_so3_image(G)
    assert ident.kind == "cyclic" and ident.image_order == 5


def test_identify_rejects_plain_group():
    with pytest.raises(NotQuaternionGroup):
        identify_so3_image(cyclic(4))


def test_double_cover_kernel_and_preimage_order():
    # kernel of rotation_of on a finite unit group containing -1 is {1,-1}
    G = finite_quaternion_group(hurwitz_tetrahedral_generators())
    keys = {}
    for idx, q in enumerate(G.quaternions):
        keys.setdefault(rotation_of(quaternion_of(q)).key(), []).append(idx)
    fibers = set(map(len, keys.values()))
    assert fibers == {2}  # two-to-one everywhere
    assert len(keys) == G.order // 2
