"""Classification: Sylow profiles, odd core, cycloidal types, mu(G),
semiprime-cyclic scan, freely-representable verdicts."""

from __future__ import annotations

import importlib
import itertools
from collections import Counter

import pytest

from corpus import sd_triples
from group_theory import all_subgroups, is_abelian, normal_subgroups, quotient_group
from isomorphism import is_isomorphic
from freerep.cyclotomic import prime_factors
from freerep.errors import NotCycloidal, NotSylowCyclic
from freerep.cli import parse_group_spec
from freerep.groups import build_group, derived_series
from freerep.constructors import (
    binary_polyhedral,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    sl2,
)
from freerep.classify import (
    BINARY_OCTAHEDRAL_TYPE,
    BINARY_TETRAHEDRAL_TYPE,
    NON_SOLVABLE,
    NOT_CYCLOIDAL,
    QUATERNION_TYPE,
    SYLOW_CYCLIC,
    classify,
    cycloidal_type,
    is_freely_representable,
    is_semiprime_cyclic,
    is_sylow_cyclic,
    is_sylow_cycloidal,
    mcc_subgroup,
    odd_core,
    sylow_profile,
)
from freerep.normrel import find_norm_relation
from freerep.represent import build_free_representation, verify_free


def test_classify_computes_the_profile_and_the_odd_core_once(monkeypatch):
    # the package re-exports classify(), which shadows the module's name
    classify_module = importlib.import_module("freerep.classify")
    calls = []
    for name in ("sylow_subgroup", "normal_closure"):
        real = getattr(classify_module, name)
        monkeypatch.setattr(classify_module, name,
                            lambda *args, real=real: calls.append(real) or real(*args))
    # sd(7,9,2) is Sylow-cyclic and solvable, so mcc_subgroup and
    # cycloidal_type both ask for the Sylow profile and the odd core again
    classify(sd(7, 9, 2))
    in_classify = list(calls)
    calls.clear()
    G = sd(7, 9, 2)
    sylow_profile(G)
    odd_core(G)
    assert in_classify == calls


@pytest.mark.parametrize("spec", ["sd(7,9,2)", "C840", "2O", "prod(C7,SL2(5))"])
def test_classify_computes_the_derived_series_once(spec, monkeypatch):
    # cycloidal_type asks whether G is solvable and is_freely_representable
    # for its perfect core: both read the one derived series of G (the
    # Suzuki-Zassenhaus check of prod(C7,SL2(5)) adds the series of C7)
    steps = len(derived_series(parse_group_spec(spec).build())) - 1
    groups_module = importlib.import_module("freerep.groups")
    calls = []
    real = groups_module.commutator_of_subgroup
    monkeypatch.setattr(groups_module, "commutator_of_subgroup",
                        lambda *args: calls.append(args[0]) or real(*args))
    G = parse_group_spec(spec).build()
    classify(G)
    assert sum(H is G for H in calls) == steps


def s4():
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}

    def mult(i, j):
        a, b = perms[i], perms[j]
        return index[tuple(a[b[k]] for k in range(4))]

    return build_group(mult, 24, origin="S4")


# -- sylow_profile ----------------------------------------------------------------

def test_profile_c12():
    prof = sylow_profile(cyclic(12))
    assert prof[2].kind == "cyclic" and prof[2].order == 4
    assert prof[3].kind == "cyclic" and prof[3].order == 3


def test_profile_sl2_3():
    prof = sylow_profile(sl2(3))
    assert prof[2].kind == "generalized_quaternion" and prof[2].order == 8
    assert prof[3].kind == "cyclic"


def test_profile_s4_dihedral_sylow():
    prof = sylow_profile(s4())
    assert prof[2].kind == "other" and prof[2].order == 8
    assert prof[3].kind == "cyclic"


def test_sylow_cycloidal_definitions():
    assert is_sylow_cyclic(cyclic(30))
    assert not is_sylow_cyclic(generalized_quaternion(8))
    assert is_sylow_cycloidal(generalized_quaternion(8))
    assert not is_sylow_cycloidal(s4())
    assert not is_sylow_cycloidal(direct_product(cyclic(2), cyclic(2)))


# -- odd_core ---------------------------------------------------------------------

def test_odd_core_of_odd_group_is_whole():
    G = sd(7, 3, 2)
    assert len(odd_core(G)) == 21


def test_odd_core_of_2d7():
    G = dicyclic(7)  # binary dihedral of order 28
    assert len(odd_core(G)) == 7


def test_odd_core_of_2t_trivial():
    assert len(odd_core(sl2(3))) == 1


def test_odd_core_matches_enumeration():
    # oracle: maximum odd-order member of the full normal-subgroup list
    for G in (dihedral(6), dicyclic(5), sd(7, 3, 2), direct_product(cyclic(3), dihedral(4))):
        best = max((N for N in normal_subgroups(G) if len(N) % 2 == 1),
                   key=len)
        assert odd_core(G).elset == best.elset


# -- cycloidal_type ----------------------------------------------------------------

def test_type_sylow_cyclic():
    assert cycloidal_type(sd(7, 3, 2)) == SYLOW_CYCLIC
    assert cycloidal_type(cyclic(16)) == SYLOW_CYCLIC


def test_type_quaternion():
    assert cycloidal_type(direct_product(cyclic(7), generalized_quaternion(8))) \
        == QUATERNION_TYPE
    assert cycloidal_type(generalized_quaternion(32)) == QUATERNION_TYPE


def test_type_binary_tetrahedral():
    assert cycloidal_type(sl2(3)) == BINARY_TETRAHEDRAL_TYPE
    assert cycloidal_type(direct_product(cyclic(5), sl2(3))) \
        == BINARY_TETRAHEDRAL_TYPE


def test_type_binary_octahedral():
    G = binary_polyhedral("2O")
    assert cycloidal_type(G) == BINARY_OCTAHEDRAL_TYPE
    assert cycloidal_type(direct_product(cyclic(5), G)) == BINARY_OCTAHEDRAL_TYPE


def test_type_non_solvable():
    assert cycloidal_type(sl2(5)) == NON_SOLVABLE


def test_type_rejects_non_cycloidal():
    with pytest.raises(NotCycloidal):
        cycloidal_type(dihedral(4))


# -- mcc_subgroup -------------------------------------------------------------------

def test_mcc_of_cyclic_is_whole_group():
    G = cyclic(12)
    assert len(mcc_subgroup(G)) == 12


def test_mcc_of_order21():
    assert len(mcc_subgroup(sd(7, 3, 2))) == 7


def test_mcc_of_order63():
    G = sd(7, 9, 2)
    mu = mcc_subgroup(G)
    assert len(mu) == 21


def test_mcc_rejects_non_sylow_cyclic():
    with pytest.raises(NotSylowCyclic):
        mcc_subgroup(generalized_quaternion(8))


def test_mcc_is_unique_subgroup_of_its_order():
    # enumeration oracle: no other subgroup shares mu's order
    for G in (sd(7, 3, 2), dihedral(5), sd(5, 4, 2)):
        mu = mcc_subgroup(G)
        same_order = [H for H in all_subgroups(G) if len(H) == len(mu)]
        assert same_order == [mu]


# -- is_semiprime_cyclic ---------------------------------------------------------------

def test_q8_semiprime_cyclic():
    ok, wit = is_semiprime_cyclic(generalized_quaternion(8))
    assert ok and wit is None


def test_s3_not_semiprime_cyclic():
    G = dihedral(3)
    ok, wit = is_semiprime_cyclic(G)
    assert not ok
    assert len(wit) == 6
    assert wit.elset == frozenset(range(6))


def test_sl2_7_semiprime_witness_order21():
    ok, wit = is_semiprime_cyclic(sl2(7))
    assert not ok
    assert len(wit) == 21
    # witness verifies independently: noncyclic of semiprime order
    W = wit.as_group()
    assert not W.is_cyclic()


# -- is_freely_representable -------------------------------------------------------------

def test_cyclic_groups_fr():
    for n in (1, 2, 9, 30):
        assert is_freely_representable(cyclic(n)).answer


def test_dihedral5_not_fr():
    v = is_freely_representable(dihedral(5))
    assert not v.answer
    assert len(v.witness) == 10


def test_order63_fr():
    v = is_freely_representable(sd(7, 9, 2))
    assert v.answer
    assert v.criterion == "solvable_semiprime_cyclic"


def test_sl2_5_fr_nonsolvable_branch():
    v = is_freely_representable(sl2(5))
    assert v.answer
    assert v.criterion == "suzuki_zassenhaus_structure"
    assert len(v.supporting["sl2f5_factor"]) == 120


def test_sl2_5_times_c7_fr():
    G = direct_product(sl2(5), cyclic(7))
    v = is_freely_representable(G)
    assert v.answer
    assert len(v.supporting["odd_factor"]) == 7


def _sl2_5_extended_by_r():
    # <S, T, R> in SL2(F_25), F_25 = F_5[x]/(x^2 - 2) with a + b x stored as
    # (a, b): S and T generate SL2(F_5), and R = zeta * diag(2, 1) with
    # zeta = 2x, so zeta^2 = 2^-1 and det R = 1.  Wolf's type VI, order 240.
    def fmul(u, v):
        (a, b), (c, d) = u, v
        return (a * c + 2 * b * d) % 5, (a * d + b * c) % 5

    def mmul(m, k):
        return tuple(tuple(tuple((s + t) % 5 for s, t in zip(fmul(m[i][0], k[0][j]),
                                                              fmul(m[i][1], k[1][j])))
                           for j in range(2)) for i in range(2))

    one, zero, zeta = (1, 0), (0, 0), (0, 2)
    gens = [((zero, (4, 0)), (one, zero)), ((one, one), (zero, one)),
            ((fmul(zeta, (2, 0)), zero), (zero, zeta))]
    elems = [((one, zero), (zero, one))]
    index = {elems[0]: 0}
    for m in elems:
        for g in gens:
            y = mmul(m, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return build_group(lambda i, j: index[mmul(elems[i], elems[j])], len(elems),
                       origin="<SL2(5),R>")


def test_wolf_type_vi_takes_the_index_2_branch():
    G = _sl2_5_extended_by_r()
    assert G.order == 240
    v = is_freely_representable(G)
    assert (v.answer, v.criterion) == (True, "suzuki_zassenhaus_structure")
    assert {k: len(s) for k, s in v.supporting.items()} == \
        {"sl2f5_factor": 120, "odd_factor": 1, "index2_subgroup": 120}
    relation = find_norm_relation(G)
    assert relation.certificate is None and relation.ideal_dimension == 224
    # C7 x G: the odd part of the centralizer of SL2(5) is C7, and SL2(5) x C7
    # is the index-2 subgroup
    v = is_freely_representable(direct_product(cyclic(7), G))
    assert v.answer
    assert {len(s) for s in v.supporting.values()} == {120, 7, 840}


def test_sl2_7_not_fr():
    v = is_freely_representable(sl2(7))
    assert not v.answer
    assert len(v.witness) == 21


def test_quaternion_groups_fr():
    for size in (8, 16, 32):
        assert is_freely_representable(generalized_quaternion(size)).answer


def test_2t_2o_fr():
    assert is_freely_representable(binary_polyhedral("2T")).answer
    assert is_freely_representable(binary_polyhedral("2O")).answer


def _wolf_type_one(m, n, r):
    """Wolf's closed form: sd(m, n, r) is freely representable iff
    r^(n/q) = 1 mod p for all primes p | m and q | n."""
    return all(pow(r, n // q, p) == 1
               for p in prime_factors(m) for q in prime_factors(n))


def test_sd_verdicts_match_wolfs_closed_form():
    # a norm-relation certificate exists exactly on a "no"; every "yes"
    # comes with a free representation
    counts = Counter()
    for m, n, r in sd_triples(128):
        G = sd(m, n, r)
        expected = _wolf_type_one(m, n, r)
        assert is_freely_representable(G).answer == expected, G.origin
        assert (find_norm_relation(G).certificate is None) == expected, G.origin
        if expected:
            rep = build_free_representation(G)
            assert rep is not None and verify_free(rep).free, G.origin
        counts[expected] += 1
    assert counts == {True: 535, False: 143}


def test_solvable_order_4896_builds_no_sl2_table(monkeypatch):
    # a solvable group holds no perfect SL2(F_17), so the Fermat check that
    # builds one is never reached
    G = sd(17, 288, 3)

    def refuse(*args):
        raise AssertionError("SL2(F_p) table built")

    for module, name in (("constructors", "sl2"), ("sl2census", "sl2_group")):
        monkeypatch.setattr(importlib.import_module(f"freerep.{module}"), name, refuse)
    report = classify(G)
    assert report.fr_verdict.criterion == "solvable_semiprime_cyclic"
    assert report.cycloidal_type == SYLOW_CYCLIC


# -- classify -----------------------------------------------------------------------

def test_classify_q8():
    rep = classify(generalized_quaternion(8))
    assert rep.cycloidal_type == QUATERNION_TYPE
    assert rep.fr_verdict.answer
    assert rep.unique_involution is not None
    assert rep.mcc is None  # not Sylow-cyclic


def test_classify_order210_case():
    # A-order 35, r = 4: mu(G) = A of order 35, not freely representable
    G = sd(35, 6, 4)
    rep = classify(G)
    assert rep.cycloidal_type == SYLOW_CYCLIC
    assert len(rep.mcc) == 35
    assert not rep.fr_verdict.answer


def test_classify_2o():
    rep = classify(binary_polyhedral("2O"))
    assert rep.cycloidal_type == BINARY_OCTAHEDRAL_TYPE
    assert rep.fr_verdict.answer


def test_classify_builds_no_reference_group(monkeypatch):
    # the Sylow kinds and cycloidal types are read off invariants of G
    cases = [(binary_polyhedral("2O"), BINARY_OCTAHEDRAL_TYPE),
             (generalized_quaternion(128), QUATERNION_TYPE),
             (direct_product(cyclic(5), sl2(3)), BINARY_TETRAHEDRAL_TYPE),
             (direct_product(generalized_quaternion(16), sd(7, 9, 2)),
              QUATERNION_TYPE)]

    def refuse(*args):
        raise AssertionError("reference group built")

    for module, name in (("constructors", "generalized_quaternion"),
                         ("constructors", "binary_polyhedral"),
                         ("quaternions", "finite_quaternion_group"),
                         ("constructors", "sl2"),
                         ("sl2census", "sl2_group")):
        module = importlib.import_module(f"freerep.{module}")
        monkeypatch.setattr(module, name, refuse)
    for G, ctype in cases:
        report = classify(G)
        assert report.cycloidal_type == ctype, G.origin
        assert report.fr_verdict.answer, G.origin


def test_classify_invariants():
    for G in (cyclic(6), dihedral(4), sl2(3), sd(7, 3, 2)):
        rep = classify(G)
        assert (rep.cycloidal_type != NOT_CYCLOIDAL) == rep.is_sylow_cycloidal
        assert (rep.mcc is not None) == rep.is_sylow_cyclic


def test_classify_json():
    data = classify(generalized_quaternion(8)).to_json()
    assert data["cycloidal_type"] == "quaternion"
    assert data["freely_representable"]["answer"] == "yes"
    assert data["sylow_profile"]["2"]["kind"] == "generalized_quaternion"


# -- paper-backed structural properties ------------------------------------------------

def test_abelian_subgroups_cyclic_iff_cycloidal():
    for G in (generalized_quaternion(8), dihedral(4), sl2(3), cyclic(12),
              dihedral(3)):
        cycloidal = is_sylow_cycloidal(G)
        abelian_all_cyclic = all(
            H.as_group().is_cyclic()
            for H in all_subgroups(G)
            if is_abelian(H.as_group())
        )
        assert cycloidal == abelian_all_cyclic, G.origin


def test_square_free_order_fr_iff_cyclic():
    for G in (cyclic(30), dihedral(15), sd(7, 3, 2), cyclic(105), sd(5, 2, 4)):
        n = G.order
        assert all(n % (d * d) for d in range(2, n) if d * d <= n), \
            f"{G.origin} does not have square-free order"
        assert is_freely_representable(G).answer == G.is_cyclic(), G.origin


def test_square_free_members_of_corpus():
    from corpus import structural_corpus

    checked = 0
    for G in structural_corpus():
        n = G.order
        if any(n % (d * d) == 0 for d in range(2, n) if d * d <= n):
            continue
        assert is_freely_representable(G).answer == G.is_cyclic(), G.origin
        checked += 1
    assert checked >= 10


def test_g_and_g_mod_core_share_2sylow():
    from freerep.groups import sylow_subgroup

    for G in (dicyclic(7), dihedral(6), sl2(3),
              direct_product(cyclic(3), generalized_quaternion(8))):
        Q, _ = quotient_group(G, odd_core(G))
        P1 = sylow_subgroup(G, 2).as_group()
        P2 = sylow_subgroup(Q, 2).as_group()
        assert is_isomorphic(P1, P2) is not None, G.origin
