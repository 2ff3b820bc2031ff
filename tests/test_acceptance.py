"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from group_theory import (
    all_subgroups,
    count_nth_roots,
    element_order,
    is_abelian,
    normal_subgroups,
    quotient_group,
    sylow_conjugates,
)
from isomorphism import is_isomorphic
from freerep.groups import (
    center,
    commutator_subgroup,
    sl2_elements,
    subgroup_generated,
    sylow_subgroup,
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
from freerep.classify import (
    classify,
    is_freely_representable,
    is_sylow_cyclic,
    is_sylow_cycloidal,
    mcc_subgroup,
    odd_core,
)
from freerep.normrel import (
    NormRelationCertificate,
    find_norm_relation,
)
from freerep.represent import build_free_representation, verify_free
from freerep.sl2census import cyclic_census, sl2_group

from corpus import (
    norm_relation_corpus,
    octahedral_2o,
    quaternion_2t,
    structural_corpus,
    two_group_corpus,
)
from sl2_theory import fermat_pq_witness


def _ok(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_norm_relation_dichotomy():
    """Certificate exists iff not freely representable (orders <= 128)."""
    checked = 0
    for G in norm_relation_corpus():
        verdict = is_freely_representable(G)
        out = find_norm_relation(G)
        if verdict.answer:
            assert out.certificate is None, \
                f"{G.origin}: freely representable but a certificate was found"
            assert out.ideal_dimension < max(G.order, 1) or G.order == 1
        else:
            assert out.certificate is not None, \
                f"{G.origin}: not freely representable but no certificate"
            assert out.certificate.verified
        checked += 1
    _ok("criterion 1",
        f"norm-relation dichotomy exact on {checked} corpus groups <= 128")


def test_criterion_2_wada_and_parry():
    """The literal Wada and Parry identities verify exactly."""
    K = direct_product(cyclic(2), cyclic(2))
    s1, s2, s3 = 1, 2, 3
    assert K.mul(s1, s2) == s3
    half = Fraction(1, 2)
    H = [subgroup_generated(K, [s]) for s in (s1, s2, s3)]
    wada = NormRelationCertificate(K, [
        (H[0], {0: half}),
        (H[1], {0: half}),
        (H[2], {s1: -half}),
    ])
    assert wada.verify()

    P = direct_product(cyclic(3), cyclic(3))
    sigma, tau = 3, 1
    H1 = subgroup_generated(P, [sigma])
    H2 = subgroup_generated(P, [tau])
    H3 = subgroup_generated(P, [P.mul(sigma, tau)])
    H4 = subgroup_generated(P, [P.mul(sigma, P.mul(tau, tau))])
    third = Fraction(1, 3)
    mix = {sigma: -third, P.mul(sigma, tau): -third}
    parry = NormRelationCertificate(P, [
        (H1, {0: third}),
        (H2, {0: third}),
        (H3, {0: third}),
        (H4, mix),
    ])
    assert parry.verify()
    _ok("criterion 2", "Wada (C2xC2) and Parry (C3xC3) identities verify exactly")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_criterion_3_sl2_census(p):
    """Observed cyclic-subgroup counts equal the closed forms for every m."""
    G = sl2_group(p)
    assert G.order == (p - 1) * p * (p + 1)
    assert G.element_orders().count(2) == 1
    minus = sl2_elements(p)[0].index((p - 1, 0, 0, p - 1))
    assert element_order(G, minus) == 2
    rows = cyclic_census(p)
    bad = [r for r in rows if not r.match]
    assert not bad, f"p={p}: mismatched rows {bad}"
    _ok("criterion 3", f"SL2(F_{p}) census exact on {len(rows)} orders, "
        f"|G| = {G.order}, unique involution")


def test_criterion_4_fermat_criterion():
    """Witness absent for p in {3,5}, present for p in {7,11,13}."""
    for p in (3, 5):
        assert fermat_pq_witness(p) is None
    for p in (7, 11, 13):
        H = fermat_pq_witness(p)
        assert H is not None
        HG = H.as_group()
        assert not HG.is_cyclic()
        primes = sorted({q for q in range(2, len(H) + 1)
                         if len(H) % q == 0 and
                         all(q % d for d in range(2, int(q ** 0.5) + 1))})
        assert len(primes) == 2 and primes[0] * primes[1] == len(H)
        assert primes[0] == p or primes[1] == p
    _ok("criterion 4", "fermat_pq_witness absent at 3,5; verified noncyclic "
        "p*r witnesses at 7,11,13")


def test_criterion_5_order_63_landmark():
    """sd(7,9,2) is the smallest noncyclic freely representable odd order."""
    G = sd(7, 9, 2)
    verdict = is_freely_representable(G)
    assert verdict.answer
    assert not G.is_cyclic()
    assert len(mcc_subgroup(G)) == 21

    hits = []
    scanned = 0
    for m in range(3, 63, 2):
        for n in range(1, 63, 2):
            if m * n >= 63 or gcd(m, n) != 1:
                continue
            for r in range(2, m):
                if gcd(r, m) != 1 or pow(r, n, m) != 1:
                    continue
                H = sd(m, n, r)
                scanned += 1
                if not H.is_cyclic() and is_freely_representable(H).answer:
                    hits.append((m, n, r))
    assert hits == [], f"noncyclic freely representable below 63: {hits}"
    _ok("criterion 5", f"order-63 landmark: sd(7,9,2) freely representable "
        f"with |mu| = 21; no noncyclic hit among {scanned} smaller odd "
        "semidirect products")


def test_criterion_6_order_210_survey():
    """The paper's 12 classes with their mu-orders; only the cyclic one FR."""
    from freerep.cli import survey210

    data = survey210()
    assert data["class_count"] == 12
    assert data["distinct_fingerprints"] == 12
    assert data["all_match"]
    mu = {(r["A_order"], r["r_class"][0]): r["mu_order"] for r in data["rows"]}
    assert mu == {
        (1, 1): 210, (3, 2): 105, (5, 4): 105, (7, 6): 105, (7, 2): 70,
        (7, 3): 35, (15, 14): 105, (21, 20): 105, (35, 34): 105,
        (35, 4): 35, (35, 19): 35, (105, 104): 105,
    }
    fr = [r for r in data["rows"] if r["freely_representable"]]
    assert len(fr) == 1 and fr[0]["A_order"] == 1
    _ok("criterion 6", "order-210 survey: 12 classes, mu-orders exact, "
        "only the cyclic class freely representable")


def test_criterion_7_two_group_theorem():
    """Unique-involution corpus 2-groups are cyclic or generalized quaternion."""
    matched = 0
    for G in two_group_corpus():
        orders = G.element_orders()
        unique = orders.count(2) == 1
        if G.origin.startswith("D"):
            assert not unique, f"{G.origin}: dihedral 2-group with unique involution"
            continue
        if not unique:
            continue
        hit = (is_isomorphic(G, cyclic(G.order)) is not None
               or is_isomorphic(G, generalized_quaternion(G.order)) is not None)
        assert hit, f"{G.origin}: unique involution but neither cyclic nor GQ"
        matched += 1
    _ok("criterion 7", f"{matched} unique-involution 2-groups matched to "
        "cyclic or generalized quaternion; dihedral rejected")


def test_criterion_8_free_representation_certification():
    """build_free_representation + verify_free succeed exactly on the list."""
    targets = [cyclic(n) for n in range(1, 61)]
    targets += [
        generalized_quaternion(8),
        generalized_quaternion(16),
        quaternion_2t(),
        octahedral_2o(),
        sd(7, 9, 2),
        direct_product(cyclic(5), generalized_quaternion(8)),
        dicyclic(7),  # binary dihedral 2D_7
    ]
    for G in targets:
        rep = build_free_representation(G)
        assert rep is not None, f"{G.origin}: no representation produced"
        report = verify_free(rep)
        assert report.free, f"{G.origin}: representation not free"
    _ok("criterion 8", f"free representations built and exactly verified for "
        f"{len(targets)} groups (C_1..C_60, Q8, Q16, 2T, 2O, sd(7,9,2), "
        "C5xQ8, 2D7)")


def test_criterion_9_structure_property_suites():
    """Exhaustive structural properties on the corpus <= 200."""
    corpus = structural_corpus()

    frobenius_checks = 0
    for G in corpus:
        n = G.order
        for d in range(1, n + 1):
            if n % d == 0:
                assert count_nth_roots(G, [0], d) % d == 0, \
                    f"{G.origin}: Frobenius fails at divisor {d}"
                frobenius_checks += 1

    sylow_checks = 0
    for G in corpus:
        n = G.order
        for p in {q for q in range(2, n + 1) if n % q == 0 and
                  all(q % d for d in range(2, int(q ** 0.5) + 1))}:
            P = sylow_subgroup(G, p)
            conj = sylow_conjugates(G, P)
            assert len(conj) % p == 1, f"{G.origin}: Sylow count at {p}"
            assert (n // len(P)) % len(conj) == 0
            sylow_checks += 1

    sc_checks = 0
    for G in corpus:
        if not is_sylow_cyclic(G):
            continue
        if G.order > 150 and not G.is_cyclic():
            continue
        A = commutator_subgroup(G)
        B_order = G.order // len(A)
        assert len(A) % 2 == 1, f"{G.origin}: commutator subgroup must be odd"
        assert A.as_group().is_cyclic()
        assert gcd(len(A), B_order) == 1
        subs = all_subgroups(G)
        complements = [H for H in subs if len(H) == B_order]
        assert len(complements) == len(A), \
            f"{G.origin}: expected {len(A)} complements, got {len(complements)}"
        base = complements[0]
        orbit = {frozenset(G.conj(g, x) for x in base.elements)
                 for g in G.elements()}
        assert orbit == {H.elset for H in complements}
        # divisor conjugacy: subgroups of each order exist and are conjugate
        for d in range(1, G.order + 1):
            if G.order % d:
                continue
            of_d = [H for H in subs if len(H) == d]
            assert of_d, f"{G.origin}: no subgroup of order {d}"
            orbit = {frozenset(G.conj(g, x) for x in of_d[0].elements)
                     for g in G.elements()}
            assert orbit == {H.elset for H in of_d}, \
                f"{G.origin}: order-{d} subgroups not all conjugate"
        mu = mcc_subgroup(G)
        assert len(mu) > G.order // len(mu) or G.order == 1
        sc_checks += 1

    cycloidal_checks = 0
    for G in corpus:
        if G.order > 96:
            continue
        expected = is_sylow_cycloidal(G)
        abelian_cyclic = all(
            H.as_group().is_cyclic()
            for H in all_subgroups(G) if is_abelian(H.as_group()))
        assert expected == abelian_cyclic, G.origin
        cycloidal_checks += 1

    sylow2_iso_checks = 0
    for G in corpus:
        if G.order % 2:
            continue
        Q, _ = quotient_group(G, odd_core(G))
        P1 = sylow_subgroup(G, 2).as_group()
        P2 = sylow_subgroup(Q, 2).as_group()
        assert is_isomorphic(P1, P2) is not None, G.origin
        sylow2_iso_checks += 1

    _ok("criterion 9",
        f"{frobenius_checks} Frobenius divisors, {sylow_checks} Sylow counts, "
        f"{sc_checks} Sylow-cyclic structure suites, {cycloidal_checks} "
        f"abelian-cyclic equivalences, {sylow2_iso_checks} core-quotient "
        "2-Sylow isomorphisms: zero failures")


def test_criterion_10_non_solvable_branch():
    """SL2(F5) branch verdicts and PSL2 simplicity."""
    v5 = is_freely_representable(sl2(5))
    assert v5.answer and v5.criterion == "suzuki_zassenhaus_structure"

    G = direct_product(cyclic(7), sl2(5))
    v = is_freely_representable(G)
    assert v.answer and len(v.supporting["odd_factor"]) == 7

    v7 = is_freely_representable(sl2(7))
    assert not v7.answer and len(v7.witness) == 21

    for p in (5, 7):
        S = sl2(p)
        P, _ = quotient_group(S, center(S))
        normals = normal_subgroups(P)
        assert sorted(len(N) for N in normals) == [1, P.order], \
            f"PSL2(F_{p}) is not simple?"
    _ok("criterion 10", "SL2(F5) and C7xSL2(F5) freely representable; "
        "SL2(F7) refuted with an order-21 witness; PSL2(F5), PSL2(F7) simple")
