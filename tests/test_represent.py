"""Free linear representations: construction and exact verification."""

from __future__ import annotations

import pytest

from freerep.errors import (
    NotAGroup,
    NotCoprime,
    NotFaithful,
    NotFreelyRepresentable,
)
from freerep.groups import (
    Subgroup,
    all_subgroups,
    cyclic_subgroups,
    generating_sequence,
    subgroup_generated,
)
from freerep.constructors import (
    binary_polyhedral,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    sl2,
)
from freerep.cyclotomic import CyclotomicNumber
from freerep.quaternions import (
    finite_quaternion_group,
    hurwitz_tetrahedral_generators,
    binary_octahedral_generators,
    I,
    J,
)
from freerep.represent import (
    RepMatrix,
    Representation,
    build_free_representation,
    induced_representation,
    prime_order_hull,
    quaternion_embedding_rep,
    restrict,
    scalar_representation,
    tensor_product_rep,
    verify_free,
)


# -- RepMatrix basics ---------------------------------------------------------------

def test_det_of_scalar_companion():
    # diag(zeta5, zeta5) has determinant zeta5^2
    z = CyclotomicNumber.zeta(5)
    zero = CyclotomicNumber.zero(5)
    m = RepMatrix(5, [[z, zero], [zero, z]])
    assert m.det() == CyclotomicNumber.zeta(5, 2)


def test_det_singular():
    one = CyclotomicNumber.one(4)
    m = RepMatrix(4, [[one, one], [one, one]])
    assert m.det().is_zero()


# -- scalar representations ------------------------------------------------------------

def test_scalar_rep_trivial_group():
    rep = scalar_representation(cyclic(1))
    assert verify_free(rep).free  # vacuously


def test_scalar_rep_c6():
    rep = scalar_representation(cyclic(6), 1)
    report = verify_free(rep)
    assert report.free and report.annihilation_checked


def test_scalar_rep_c4_dim2():
    rep = scalar_representation(cyclic(4), 2)
    assert rep.degree == 2
    assert verify_free(rep).free


def test_regular_rep_of_c2_not_free():
    # permutation matrices fix the all-ones vector
    G = cyclic(2)
    one, zero = CyclotomicNumber.one(1), CyclotomicNumber.zero(1)
    images = [RepMatrix(1, [[one, zero], [zero, one]]),
              RepMatrix(1, [[zero, one], [one, zero]])]
    rep = Representation(G, 2, 1, images)
    rep.validate()
    report = verify_free(rep)
    assert not report.free
    assert report.failing_element == 1


def _small_representations():
    """Free and non-free representations of small groups: scalar ones, and
    the monomial ones induced from each cyclic subgroup."""
    reps = [scalar_representation(cyclic(n), d) for n in (1, 2, 5, 6, 12)
            for d in (1, 2)]
    for G in (cyclic(6), cyclic(12), dihedral(3), dihedral(4), dihedral(5),
              direct_product(cyclic(2), cyclic(2)), generalized_quaternion(8),
              generalized_quaternion(16), sd(7, 3, 2), sd(5, 4, 2)):
        for H in cyclic_subgroups(G):
            if len(H) > 1 or G.order <= 8:
                reps.append(induced_representation(G, H, 1))
    return reps


def test_norm_sum_verdict_matches_determinants():
    # free iff det(rho(g) - I) != 0 for every g != 1 (the definition),
    # against verify_free's prime-order norm sums
    verdicts = set()
    for rep in _small_representations():
        ident = RepMatrix.identity(rep.conductor, rep.degree)
        fixes = [g for g in range(1, rep.group.order)
                 if (rep.images[g] - ident).det().is_zero()]
        report = verify_free(rep)
        assert report.free == (not fixes), rep.group.origin
        if not report.free:
            assert report.failing_element in fixes
        verdicts.add(report.free)
    assert verdicts == {True, False}


# -- induced representations ------------------------------------------------------------

def test_induced_index_one_recovers_character():
    G = cyclic(6)
    rep = induced_representation(G, Subgroup(G, range(6)), 1)
    assert rep.degree == 1
    assert verify_free(rep).free


def test_induced_q8_from_c4_free():
    G = generalized_quaternion(8)
    r = G.labels.index("R")
    rep = induced_representation(G, subgroup_generated(G, [r]), 1)
    assert rep.degree == 2
    assert rep.conductor == 4
    assert verify_free(rep).free


def test_induced_sd63_from_mu_free():
    from freerep.classify import mcc_subgroup

    G = sd(7, 9, 2)
    mu = mcc_subgroup(G)
    rep = induced_representation(G, mu, 1)
    assert rep.degree == 3
    assert rep.conductor == 21
    assert verify_free(rep).free


def test_induced_character_exponent_choice_free():
    # any faithful character works
    G = generalized_quaternion(8)
    r = G.labels.index("R")
    rep = induced_representation(G, subgroup_generated(G, [r]), 3)
    assert verify_free(rep).free


def test_induced_s3_from_c3_not_free():
    G = dihedral(3)
    rot = subgroup_generated(G, [1])
    rep = induced_representation(G, rot, 1)
    report = verify_free(rep)
    assert not report.free
    assert G.element_order(report.failing_element) == 2


def test_induced_rejects_unfaithful_exponent():
    G = cyclic(6)
    with pytest.raises(NotFaithful):
        induced_representation(G, Subgroup(G, range(6)), 2)


# -- quaternion embedding ------------------------------------------------------------

def test_q8_embedding():
    G = finite_quaternion_group([I, J])
    rep = quaternion_embedding_rep(G)
    assert rep.degree == 2 and rep.conductor == 4
    # i maps to diag(i, -i)
    idx = G.quaternions.index(I)
    m = rep.images[idx]
    assert m.entries[0][0] == CyclotomicNumber.zeta(4)
    assert m.entries[1][1] == -CyclotomicNumber.zeta(4)
    assert m.entries[0][1].is_zero() and m.entries[1][0].is_zero()
    assert verify_free(rep).free


def test_2t_embedding_free():
    G = finite_quaternion_group(hurwitz_tetrahedral_generators())
    rep = quaternion_embedding_rep(G)
    assert rep.conductor == 4
    assert verify_free(rep).free


def test_2o_embedding_free():
    G = finite_quaternion_group(binary_octahedral_generators())
    rep = quaternion_embedding_rep(G)
    assert rep.conductor == 8
    assert verify_free(rep).free


# -- tensor products ----------------------------------------------------------------

def test_tensor_with_trivial_factor():
    A, B = cyclic(1), cyclic(3)
    rep = tensor_product_rep(scalar_representation(A), scalar_representation(B))
    assert rep.degree == 1
    assert verify_free(rep).free


def test_tensor_c2_c3():
    rep = tensor_product_rep(scalar_representation(cyclic(2)),
                             scalar_representation(cyclic(3)))
    assert rep.degree == 1
    assert rep.conductor == 6
    assert verify_free(rep).free


def test_tensor_q8_c7():
    G8 = finite_quaternion_group([I, J])
    rep = tensor_product_rep(quaternion_embedding_rep(G8),
                             scalar_representation(cyclic(7)))
    assert rep.degree == 2
    assert rep.conductor == 28
    assert verify_free(rep).free


def test_tensor_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        tensor_product_rep(scalar_representation(cyclic(2)),
                           scalar_representation(cyclic(4)))


# -- build_free_representation ---------------------------------------------------------

def test_build_c12():
    rep = build_free_representation(cyclic(12))
    assert rep.degree == 1
    assert verify_free(rep).free


def test_build_order63():
    rep = build_free_representation(sd(7, 9, 2))
    assert rep.degree == 3
    assert rep.conductor == 21
    assert verify_free(rep).free


def test_build_c5_times_q8():
    G = direct_product(cyclic(5), generalized_quaternion(8))
    rep = build_free_representation(G)
    assert verify_free(rep).free


def test_build_q16():
    rep = build_free_representation(generalized_quaternion(16))
    assert verify_free(rep).free


def test_build_2d7():
    rep = build_free_representation(binary_polyhedral("2D", 7))
    assert rep.degree == 2
    assert rep.conductor == 14
    assert verify_free(rep).free


def test_build_sl2_3_via_2t_model():
    rep = build_free_representation(sl2(3))
    assert rep is not None
    assert rep.degree == 2
    assert verify_free(rep).free


def test_validate_catches_wrong_image_off_the_generators():
    # validate checks rho(s) rho(h) == rho(sh) for generators s only; a
    # wrong image of an element that is not a generator must still fail it
    for G in (generalized_quaternion(16),
              direct_product(cyclic(5), generalized_quaternion(8))):
        rep = build_free_representation(G)
        gens = generating_sequence(G)
        others = [g for g in range(1, G.order) if g not in gens]
        for g in (others[0], others[-1]):
            images = list(rep.images)
            images[g] = RepMatrix.identity(rep.conductor, rep.degree)
            with pytest.raises(NotAGroup, match="not multiplicative"):
                Representation(G, rep.degree, rep.conductor, images).validate()


def test_build_rejects_non_fr():
    with pytest.raises(NotFreelyRepresentable):
        build_free_representation(dihedral(5))


def test_build_unsupported_bt_type_with_9():
    # Q8 x| C9 (C9 acting through C3 by i->j->k): binary tetrahedral type
    # with 9 | |G|; decision computed, construction deferred
    from freerep.classify import (
        BINARY_TETRAHEDRAL_TYPE,
        cycloidal_type,
        is_freely_representable,
    )
    from freerep.groups import build_group
    from freerep.quaternions import Quaternion

    Q = finite_quaternion_group([I, J])
    index = {q: i for i, q in enumerate(Q.quaternions)}
    # automorphism i -> j -> k -> i on quaternion coordinates
    alpha = [index[Quaternion(q.w, q.z, q.x, q.y)] for q in Q.quaternions]
    alpha_pow = [list(range(8)), alpha, [alpha[alpha[i]] for i in range(8)]]

    def mult(a, b):
        qa, ca = divmod(a, 9)
        qb, cb = divmod(b, 9)
        return Q.mul(qa, alpha_pow[ca % 3][qb]) * 9 + (ca + cb) % 9

    G = build_group(mult, 72, origin="Q8:C9")
    assert cycloidal_type(G) == BINARY_TETRAHEDRAL_TYPE
    assert G.order % 9 == 0
    assert is_freely_representable(G).answer
    assert build_free_representation(G) is None


# -- invariants ------------------------------------------------------------------------

def test_free_implies_faithful():
    rep = build_free_representation(sd(7, 9, 2))
    seen = set()
    for m in rep.images:
        key = tuple(tuple(c.coeffs for c in row) for row in m.entries)
        assert key not in seen
        seen.add(key)


def test_restriction_of_free_rep_is_free():
    G = generalized_quaternion(16)
    rep = build_free_representation(G)
    for H in all_subgroups(G):
        if 1 < len(H) < G.order:
            assert verify_free(restrict(rep, H)).free


def test_norm_annihilation_for_all_subgroups():
    from freerep.represent import RepMatrix as RM

    G = generalized_quaternion(8)
    rep = build_free_representation(G)
    for H in all_subgroups(G):
        if len(H) == 1:
            continue
        total = RM.zero(rep.conductor, rep.degree)
        for h in H.elements:
            total = total + rep.images[h]
        assert total.is_zero()


def test_degree_bound():
    for G in (cyclic(12), generalized_quaternion(8), sd(7, 9, 2)):
        rep = build_free_representation(G)
        assert rep.degree <= G.order


def test_prime_order_hull():
    G = sd(7, 9, 2)
    hull = prime_order_hull(G)
    assert len(hull) == 21


def test_representation_json():
    rep = build_free_representation(cyclic(4))
    data = rep.to_json("C4")
    assert data["degree"] == 1 and data["conductor"] == 4
    assert len(data["images"]) == 4


def test_representation_json_sparse_cyclotomic_entries():
    G = finite_quaternion_group([I, J])
    rep = quaternion_embedding_rep(G)
    data = rep.to_json()
    # the image of i is diag(i, -i): two sparse entries with vector coeffs
    idx = G.quaternions.index(I)
    entries = data["images"][idx]
    assert len(entries) == 2
    for i, j, coeffs in entries:
        assert i == j
        assert len(coeffs) == 2  # phi(4) rational strings
