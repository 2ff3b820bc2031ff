"""Free linear representations: construction and exact verification."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stdout
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from exact_fields import CyclotomicNumber, add, det, entries, is_zero, matrices, sub
from group_theory import all_subgroups, element_order
from freerep import represent
from freerep.cli import main, parse_group_spec
from freerep.errors import (
    InvariantViolated,
    NotAGroup,
    NotCoprime,
    NotFaithful,
    NotFreelyRepresentable,
)
from freerep.groups import (
    Subgroup,
    cyclic_subgroups,
    full_subgroup,
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
from freerep.quaternions import (
    finite_quaternion_group,
    hurwitz_tetrahedral_generators,
    binary_icosahedral_generators,
    binary_octahedral_generators,
)
from so3 import I, J, Quaternion, key, quaternion_of
from freerep.represent import (
    RepMatrix,
    Representation,
    _to_hurwitz_model,
    build_free_representation,
    induced_representation,
    prime_order_hull,
    quaternion_embedding_rep,
    scalar_representation,
    tensor_product_rep,
    verify_free,
)


# -- RepMatrix basics ---------------------------------------------------------------

def _matrix(conductor, entries):
    """RepMatrix (or stack) of nested lists of CyclotomicNumber, as
    numerators over their common denominator."""
    cells = np.array(entries, dtype=object)
    den = lcm(1, *(c.denominator for x in cells.flat for c in x.coeffs))
    num = [[int(c * den) for c in x.coeffs] for x in cells.flat]
    return RepMatrix(conductor, np.array(num).reshape(cells.shape + (-1,)), den)


def test_entries_round_trip():
    z, half = CyclotomicNumber.zeta(12, 5), CyclotomicNumber.rational(12, "1/2")
    want = [[z, half], [half * z, CyclotomicNumber.zero(12)]]
    m = _matrix(12, want)
    assert m.den == 2 and entries(m) == want


def test_batched_product_matches_entrywise_products():
    # one matrix times a whole stack, against CyclotomicNumber row-by-column
    reps = [quaternion_embedding_rep(finite_quaternion_group(gens))
            for gens in (binary_octahedral_generators(),
                         binary_icosahedral_generators())]
    reps.append(build_free_representation(
        direct_product(cyclic(5), generalized_quaternion(8))))
    for rep in reps:
        G, d = rep.group, rep.degree
        for s in (1, G.order - 1):
            a = entries(rep.images[s])
            batch = rep.images[s] * rep.images
            for h in range(G.order):
                b = entries(rep.images[h])
                want = [[sum((a[i][k] * b[k][j] for k in range(1, d)),
                             a[i][0] * b[0][j]) for j in range(d)]
                        for i in range(d)]
                assert entries(batch[h]) == want, (G.origin, s, h)


def test_det_of_scalar_companion():
    # diag(zeta5, zeta5) has determinant zeta5^2
    z = CyclotomicNumber.zeta(5)
    zero = CyclotomicNumber.zero(5)
    m = _matrix(5, [[z, zero], [zero, z]])
    assert det(m) == CyclotomicNumber.zeta(5, 2)


def test_det_singular():
    one = CyclotomicNumber.one(4)
    m = _matrix(4, [[one, one], [one, one]])
    assert det(m).is_zero()


# -- scalar representations ------------------------------------------------------------

def test_scalar_rep_trivial_group():
    rep = scalar_representation(cyclic(1))
    assert verify_free(rep).free  # vacuously


def test_scalar_rep_c6():
    rep = scalar_representation(cyclic(6), 1)
    report = verify_free(rep)
    assert report.free


def test_scalar_rep_c4_dim2():
    rep = scalar_representation(cyclic(4), 2)
    assert rep.degree == 2
    assert verify_free(rep).free


def test_regular_rep_of_c2_not_free():
    # permutation matrices fix the all-ones vector
    G = cyclic(2)
    one, zero = CyclotomicNumber.one(1), CyclotomicNumber.zero(1)
    images = _matrix(1, [[[one, zero], [zero, one]],
                         [[zero, one], [one, zero]]])
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
                 if det(sub(rep.images[g], ident)).is_zero()]
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
    assert element_order(G, report.failing_element) == 2


def test_induced_rejects_unfaithful_exponent():
    G = cyclic(6)
    with pytest.raises(NotFaithful):
        induced_representation(G, Subgroup(G, range(6)), 2)


# -- quaternion embedding ------------------------------------------------------------

def test_q8_embedding():
    G = finite_quaternion_group([key(I), key(J)])
    rep = quaternion_embedding_rep(G)
    assert rep.degree == 2 and rep.conductor == 4
    # i maps to diag(i, -i)
    idx = G.quaternions.index(key(I))
    m = rep.images[idx]
    assert entries(m)[0][0] == CyclotomicNumber.zeta(4)
    assert entries(m)[1][1] == -CyclotomicNumber.zeta(4)
    assert entries(m)[0][1].is_zero() and entries(m)[1][0].is_zero()
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
    rep = tensor_product_rep(scalar_representation(A), scalar_representation(B),
                             direct_product(A, B))
    assert rep.degree == 1
    assert verify_free(rep).free


def test_tensor_c2_c3():
    A, B = cyclic(2), cyclic(3)
    rep = tensor_product_rep(scalar_representation(A), scalar_representation(B),
                             direct_product(A, B))
    assert rep.degree == 1
    assert rep.conductor == 6
    assert verify_free(rep).free


def test_tensor_q8_c7():
    G8, C7 = finite_quaternion_group([key(I), key(J)]), cyclic(7)
    rep = tensor_product_rep(quaternion_embedding_rep(G8), scalar_representation(C7),
                             direct_product(G8, C7))
    assert rep.degree == 2
    assert rep.conductor == 28
    assert verify_free(rep).free


def test_tensor_of_two_nonscalar_reps_is_the_kronecker_product():
    # degrees 2 and 3, so the row and column order of the Kronecker index
    # matters; both argument orders, so both factors serve as the one whose
    # multiplication blocks are built
    q8 = quaternion_embedding_rep(finite_quaternion_group([key(I), key(J)]))
    F21 = sd(7, 3, 2)
    a7 = next(g for g in range(21) if element_order(F21, g) == 7)
    mono = induced_representation(F21, subgroup_generated(F21, [a7]), 1)
    for ra, rb in ((q8, mono), (mono, q8)):
        # validated on construction
        rep = tensor_product_rep(ra, rb, direct_product(ra.group, rb.group))
        assert (rep.degree, rep.conductor) == (6, 28)
        nb, db = rb.group.order, rb.degree
        for x in range(ra.group.order):
            a = entries(ra.images[x])
            for y in range(0, nb, 3):
                b = entries(rb.images[y])
                got = entries(rep.images[x * nb + y])
                for r in range(6):
                    for c in range(6):
                        (i1, i2), (j1, j2) = divmod(r, db), divmod(c, db)
                        assert got[r][c] == \
                            a[i1][j1].lift(28) * b[i2][j2].lift(28), (x, y, r, c)


def test_tensor_rejects_non_coprime():
    with pytest.raises(NotCoprime):
        A, B = cyclic(2), cyclic(4)
        tensor_product_rep(scalar_representation(A), scalar_representation(B),
                           direct_product(A, B))


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


@pytest.mark.parametrize("k", [5, 7, 11])
def test_odd_core_branch_matches_the_product_route(k):
    # the same table without factors reaches _binary_tetrahedral_rep with
    # the odd core C_k, where the product goes through tensor_product_rep
    product = direct_product(cyclic(k), sl2(3))
    G = full_subgroup(product).as_group()
    assert G.factors is None
    rep, want = build_free_representation(G), build_free_representation(product)
    assert rep.conductor == want.conductor
    assert rep.images.den == want.images.den
    assert np.array_equal(rep.images.num, want.images.num)
    assert verify_free(rep).free


@pytest.mark.parametrize("spec", [
    "C24", "prod(Q8,C3)", "prod(C2,C12)", "D12", "2D6", "sd(3,8,2)"])
def test_hurwitz_model_rejects_order_24_groups_that_are_not_2t(spec):
    # 2D6 is the dicyclic group of order 24
    H = parse_group_spec(spec).build()
    assert H.order == 24
    model = finite_quaternion_group(hurwitz_tetrahedral_generators())
    with pytest.raises(InvariantViolated, match="not 2T"):
        _to_hurwitz_model(H, model)
    assert _to_hurwitz_model(sl2(3), model).is_bijective()


def test_validate_catches_wrong_image_off_the_generators():
    # validate checks rho(s) rho(h) == rho(sh) for generators s only; a
    # wrong image of an element that is not a generator must still fail it
    for G in (generalized_quaternion(16),
              direct_product(cyclic(5), generalized_quaternion(8))):
        rep = build_free_representation(G)
        gens = G.generators()
        others = [g for g in range(1, G.order) if g not in gens]
        for g in (others[0], others[-1]):
            with pytest.raises(NotAGroup, match="not multiplicative"):
                _with_identity_at(rep, g).validate()


def _with_identity_at(rep, g):
    """rep with the image of g replaced by the identity matrix."""
    num = rep.images.num.copy()
    num[g] = RepMatrix.identity(rep.conductor, rep.degree).num * rep.images.den
    return Representation(rep.group, rep.degree, rep.conductor,
                          RepMatrix(rep.conductor, num, rep.images.den))


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

    Q = finite_quaternion_group([key(I), key(J)])
    index = {q: i for i, q in enumerate(Q.quaternions)}
    # automorphism i -> j -> k -> i on quaternion coordinates
    alpha = [index[key(Quaternion(q.w, q.z, q.x, q.y))]
             for q in map(quaternion_of, Q.quaternions)]
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
    for m in matrices(rep.images):
        key = tuple(tuple(c.coeffs for c in row) for row in entries(m))
        assert key not in seen
        seen.add(key)


def restrict(rep: Representation, H: Subgroup) -> Representation:
    """Restriction to a subgroup, over the subgroup's standalone Group."""
    if H.parent is not rep.group:
        raise NotAGroup("subgroup bound to a different group")
    out = Representation(H.as_group(), rep.degree, rep.conductor,
                         rep.images[H.elements])
    out.validate()
    return out


def test_restriction_of_free_rep_is_free():
    G = generalized_quaternion(16)
    rep = build_free_representation(G)
    for H in all_subgroups(G):
        if 1 < len(H) < G.order:
            assert verify_free(restrict(rep, H)).free


def test_norm_annihilation_for_all_subgroups():
    G = generalized_quaternion(8)
    rep = build_free_representation(G)
    for H in all_subgroups(G):
        if len(H) == 1:
            continue
        total = rep.images[0]
        for h in H.elements[1:]:
            total = add(total, rep.images[h])
        assert is_zero(total)


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
    G = finite_quaternion_group([key(I), key(J)])
    rep = quaternion_embedding_rep(G)
    data = rep.to_json()
    # the image of i is diag(i, -i): two sparse entries with vector coeffs
    idx = G.quaternions.index(key(I))
    entries = data["images"][idx]
    assert len(entries) == 2
    for i, j, coeffs in entries:
        assert i == j
        assert len(coeffs) == 2  # phi(4) rational strings


# -- oracles and regressions ------------------------------------------------------------

def test_multiplicative_on_all_pairs_entry_by_entry():
    # validate checks gens x G on integer arrays; rho(g) rho(h) == rho(gh)
    # on every pair, multiplied out with CyclotomicNumber, is its oracle
    for rep in _small_representations():
        G = rep.group
        rows = [[[(j, x) for j, x in enumerate(row) if not x.is_zero()]
                 for row in entries(m)] for m in matrices(rep.images)]
        for g in range(G.order):
            for h in range(G.order):
                product = []
                for a_row in rows[g]:
                    total = {}
                    for k, x in a_row:
                        for j, y in rows[h][k]:
                            total[j] = total[j] + x * y if j in total else x * y
                    product.append(sorted((j, x) for j, x in total.items()
                                          if not x.is_zero()))
                assert product == rows[G.mul(g, h)], (G.origin, g, h)


# sha256 of `freerep [--json] represent <spec>` stdout, recorded while the
# representation layer still computed with Fraction-based CyclotomicNumbers
REPRESENT_STDOUT_SHA256 = {
    ("sd(7,9,2)", "json"):
        "1ae3c0f9fd581c0d0e3e3fafbfc1fa13c6eb91d7ddde106e02da7824b74997c9",
    ("sd(7,9,2)", "text"):
        "5f1a9c174476ac78ed6e5240e4c219c4a75b6f54ecd917821eb25bd48cb1ca7d",
    ("2O", "json"):
        "e9191d8e9cc6b23fe6206259e23af48993e46fabdac23272f370152072e55c0c",
    ("2O", "text"):
        "ffd1bab27794ddf2168adeabed87fbf55a153726826fb62ab643cb03cb51f8dd",
    ("2T", "json"):
        "8c87da8db2b2445afd849c4bbecc534404aaf037ee108048bfca9ea5d81b41ae",
    ("2T", "text"):
        "9d8fb2ca606a7a9ef0489bdc6578ae06e464e65b5d8d8280bae835f2f87b2990",
    ("Q16", "json"):
        "db68f98174b7a326c9db0e208ee07907cbe7e821af79e293e63858438d03df3f",
    ("Q16", "text"):
        "6ddb179e43e7a011406a7f9bee965274b9f4567ce4569789f174afab5c8f13f5",
    ("prod(C7,Q8)", "json"):
        "6d3605f44bdae6e0f41ef983f46e80cbe9cfdaf1bd88a7a9a801506ae936cd68",
    ("prod(C7,Q8)", "text"):
        "6bd3637791715241647660e6e6fd5880f69df31c4520e9a566410dcb4e1deec0",
    ("prod(C5,Q8)", "json"):
        "5275e0ccdb5dd096b0403827c0e96969e09321896b3c234ca3f1cf2e7ea79607",
    ("prod(C5,Q8)", "text"):
        "6e78f07756617a1e64407fc4626f5c8a581dd7c7bb05d0810a4709ae486da419",
    ("C21", "json"):
        "39e8c274ab008d03788e32844fb8958adc77f19ffff516d58c77c7d4b4ad3ab1",
    ("C21", "text"):
        "c26c7f9b2fb9447de10256ac88bfdebd5a475003e816e828126c394f208c5e6f",
    ("D35", "json"):
        "3abeb02d0425367fd1f513f96718afe72c90b35370746695f93f0af5c9c10138",
    ("D35", "text"):
        "2f214fdc8d5ddb12c90b9092e4f6a3526804e96a5bad4a5919c7605a8254dd68",
    ("C8", "json"):
        "82ae6ae864b697660652a0b3f5aa4b56d4a4b7a3d99e22d1dc262f5f2aac09cf",
    ("C8", "text"):
        "6a575e8539f4ba7eecaff9988f56fe55cb3727e3c1c1ef22acdde55e6d061030",
    ("Q8", "json"):
        "0c0861870fdc54608aef33d4d8632149ef20174587e1176832fca6f60c2c834c",
    ("Q8", "text"):
        "90c33215f4a72f1165f07f8f93f6d66d2cc55dac68c0b9f06e6dfb37f7c861a7",
    ("2D25", "json"):
        "b0feacedeb25e1fe3b7fe0269b45a3643815b17fe54409549c016603d2925fcb",
    ("2D25", "text"):
        "5c58ff61908b6fad1911768ec11abe5171c9362a2d5ec973a429b2de440549ee",
    ("prod(C5,SL2(3))", "json"):
        "68ad323b0b8435fd96b91452ae051c197cfec8c5c1b3014c24a2f55b347692d0",
    ("prod(C5,SL2(3))", "text"):
        "8aee3cf717e08f269cafee22eacbe5d7eac19110ab1299fdffe7e39aa2f1cba6",
    ("prod(C7,SL2(5))", "json"):
        "4f5c6c66830f6868f88dffee2b7ffb7721019ac9e5acab61b7214808ccde3492",
    ("prod(C7,SL2(5))", "text"):
        "53edd4e4b39599e8702aa164f1e7d3dfe8ffa0c83d4b30f04022afc661d151d1",
    ("prod(C11,2T)", "json"):
        "a2cc08d3dd9d6f88a4e45c7407729ad4e23fe53c1d7b7a6af8d2fecdc9ba0a87",
    ("prod(C11,2T)", "text"):
        "14f8b1722b10e12f38e1e8e12abae166d0046d6e742ffdb3cb539d061284ee87",
    ("sd(7,27,2)", "json"):
        "5be57c9dbf2eb4becb1e8e1e9dec5acd690b1cc4bffec4a97383eee81fab8d4f",
    ("sd(7,27,2)", "text"):
        "2d9177ea0c91eae4375c34c0f291fc257c055eb902aff56a1ddf71c1a92e311b",
    # recorded while finite quaternion groups still labelled their elements
    # through Fraction-valued Quaternion objects
    ("prod(C5,2O)", "json"):
        "2a9d636b41bba536131e73865b491c86d7b3b7056c39d1385c14f15b596ffeb3",
    ("prod(C5,2O)", "text"):
        "1354a1724a4ef7e8adb0bc3bef8358d45e9173c9c2607e3c128fa31a5d68f62c",
    ("quat(q(1/2*r2,0,1/2*r2,0),q(1/2,-1/2,1/2,1/2))", "json"):
        "1da831dea6e893866e0fdb3aff0cc7bda0fe6ee408ce86ca6b83ad59b8505054",
    ("quat(q(1/2*r2,0,1/2*r2,0),q(1/2,-1/2,1/2,1/2))", "text"):
        "ffd1bab27794ddf2168adeabed87fbf55a153726826fb62ab643cb03cb51f8dd",
}


@pytest.mark.parametrize("spec,mode", sorted(REPRESENT_STDOUT_SHA256))
def test_represent_stdout_is_unchanged(spec, mode):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main((["--json"] if mode == "json" else []) + ["represent", spec]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == REPRESENT_STDOUT_SHA256[spec, mode]


def _scaled_rep(rep, k):
    """rep with numerators and denominator multiplied by k, as Python ints."""
    images = RepMatrix(rep.conductor, rep.images.num.astype(object) * k,
                       rep.images.den * k)
    return Representation(rep.group, rep.degree, rep.conductor, images)


def test_python_int_fallback_matches_int64(monkeypatch):
    # numerators and denominator times 2^40 push every product past int64,
    # so validate, verify_free and to_json run on Python ints; the answers
    # must not change, and a wrong image must still be caught
    chosen = []
    exact_dtype = represent._exact_dtype

    def spy(bound):
        chosen.append(exact_dtype(bound))
        return chosen[-1]

    monkeypatch.setattr(represent, "_exact_dtype", spy)
    D5 = dihedral(5)
    reps = [build_free_representation(G) for G in (
        sd(7, 9, 2), binary_polyhedral("2O"), generalized_quaternion(16),
        direct_product(cyclic(5), generalized_quaternion(8)))]
    reps.append(induced_representation(D5, subgroup_generated(D5, [1]), 1))
    for rep in reps:
        big = _scaled_rep(rep, 2 ** 40)
        for r, path in ((rep, np.int64), (big, object)):
            chosen.clear()
            r.validate()
            assert path in chosen
            assert path is object or object not in chosen
        assert big.images.num.dtype == object
        assert verify_free(big) == verify_free(rep)
        assert big.to_json() == rep.to_json()
        gens = rep.group.generators()
        g = next(x for x in range(rep.group.order - 1, 0, -1) if x not in gens)
        for r in (rep, big):
            with pytest.raises(NotAGroup, match="not multiplicative"):
                _with_identity_at(r, g).validate()
    report = verify_free(_scaled_rep(reps[-1], 2 ** 40))
    assert not report.free and report.failing_element == 5


def test_represent_survives_python_O():
    # the construction's invariants are explicit raises, so python -O keeps
    # them; the binary tetrahedral route runs through all of them
    code = textwrap.dedent("""
        import json, sys
        from freerep.cli import main
        if __debug__:
            sys.exit("not running under python -O")
        sys.exit(main(["--json", "represent", "prod(C5,SL2(3))"]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["verified_free"] is True
    assert (data["degree"], data["conductor"]) == (2, 20)
