"""SL2(F_p) quantitative structure theory by brute force."""

from __future__ import annotations

import pytest

from group_theory import element_order
from sl2_theory import (
    census_partition_identity,
    conjugacy_and_normals_check,
    fermat_pq_witness,
    is_fermat_prime,
    maximal_cyclic_orders,
    normalizer_structure_check,
    trichotomy_check,
)

from freerep.groups import sl2_elements
from freerep.sl2census import (
    census_report,
    cyclic_census,
    predicted_cyclic_count,
    sl2_group,
)


def test_predicted_counts_formula_instances():
    assert predicted_cyclic_count(3, 3) == 4        # m | 2p
    assert predicted_cyclic_count(5, 4) == 15       # m | p-1: 5*6/2
    assert predicted_cyclic_count(7, 8) == 21       # m | p+1: 7*6/2
    assert predicted_cyclic_count(7, 5) == 0
    assert predicted_cyclic_count(11, 1) == 1
    assert predicted_cyclic_count(11, 2) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_census_matches(p):
    rows = cyclic_census(p)
    assert all(r.match for r in rows), [r for r in rows if not r.match]


def test_census_p3_m3():
    rows = {r.m: r for r in cyclic_census(3)}
    assert rows[3].predicted == 4 and rows[3].observed == 4


def test_partition_identity():
    for p in (3, 5, 7, 11, 13):
        assert census_partition_identity(p)


def test_maximal_cyclic_orders():
    assert maximal_cyclic_orders(3) == {6, 4}
    assert maximal_cyclic_orders(5) == {4, 10, 6}
    assert maximal_cyclic_orders(7) == {6, 14, 8}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_trichotomy(p):
    assert trichotomy_check(p)


def test_trichotomy_instances():
    G = sl2_group(5)
    unipotent = sl2_elements(5)[0].index((1, 1, 0, 1))
    assert element_order(G, unipotent) == 5  # one eigenvalue, order | 2p = 10
    G7 = sl2_group(7)
    diag = sl2_elements(7)[0].index((2, 0, 0, 4))  # 2*4 = 8 = 1 mod 7
    assert (7 - 1) % element_order(G7, diag) == 0  # two eigenvalues


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_conjugacy_and_normals(p):
    assert conjugacy_and_normals_check(p)


def test_explicit_conjugator_for_order6_subgroups_p5():
    from freerep.groups import subgroup_generated
    from sl2_theory import find_conjugator

    G = sl2_group(5)
    orders = G.element_orders()
    sixes = []
    for g in range(G.order):
        if orders[g] == 6:
            S = subgroup_generated(G, [g])
            if all(S.elset != T.elset for T in sixes):
                sixes.append(S)
        if len(sixes) == 2:
            break
    conj = find_conjugator(G, sixes[0], sixes[1])
    assert conj is not None
    assert {G.conj(conj, x) for x in sixes[0].elements} == sixes[1].elset


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_normalizer_structure(p):
    assert normalizer_structure_check(p)


def test_fermat_detection():
    assert is_fermat_prime(3) and is_fermat_prime(5) and is_fermat_prime(17)
    assert not is_fermat_prime(7) and not is_fermat_prime(11) \
        and not is_fermat_prime(13)


def test_fermat_witness_absent_for_3_and_5():
    assert fermat_pq_witness(3) is None
    assert fermat_pq_witness(5) is None


def test_fermat_witness_order21_at_7():
    H = fermat_pq_witness(7)
    assert H is not None and len(H) == 21
    assert not H.as_group().is_cyclic()


def test_fermat_witness_order33_at_11():
    H = fermat_pq_witness(11)
    assert H is not None and len(H) == 55  # smallest odd prime factor of 10 is 5
    assert not H.as_group().is_cyclic()


def test_fermat_witness_order39_at_13():
    H = fermat_pq_witness(13)
    assert H is not None and len(H) == 39
    assert not H.as_group().is_cyclic()


def test_census_report_json():
    data = census_report(5)
    assert data["group_order"] == 120
    assert data["order_formula_holds"] and data["unique_involution"]
    assert data["all_match"]


def test_sl2_17_poison_pill():
    # the opt-in prime: SL2(F_17) is semiprime-cyclic (17 is Fermat) and
    # non-solvable, yet not freely representable -- the embedded-Fermat branch
    from freerep.classify import is_freely_representable, is_semiprime_cyclic
    from freerep.groups import is_solvable

    G = sl2_group(17)
    assert G.order == 4896
    assert fermat_pq_witness(17) is None
    rows = cyclic_census(17)
    assert all(r.match for r in rows)
    ok, _ = is_semiprime_cyclic(G)
    assert ok
    assert not is_solvable(G)
    v = is_freely_representable(G)
    assert not v.answer
    assert v.criterion == "embedded_sl2_fermat"
    assert v.fermat_prime == 17
    assert len(v.witness) == 4896
