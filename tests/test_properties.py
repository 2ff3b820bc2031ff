"""Cross-cutting structural properties beyond the acceptance criteria."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
import textwrap
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from group_theory import all_subgroups, count_nth_roots, element_order, kernel, quotient_group
from isomorphism import inverse_map, is_isomorphic
from freerep.cli import survey210
from freerep.errors import CapExceeded, DeadlineExceeded, NotAGroup
from freerep.groups import (
    Group,
    _validate_table,
    center,
    commutator_of_subgroup,
    cyclic_subgroups,
    full_subgroup,
    normal_closure,
    normalizer,
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
from freerep.classify import classify, is_semiprime_cyclic, is_sylow_cyclic
from freerep.normrel import find_norm_relation
from freerep.represent import build_free_representation
from freerep.sl2census import census_report
from freerep.run import limits


def test_strong_frobenius_on_classes():
    # |{x : x^n in C}| is a multiple of gcd(n|C|, |G|) for conjugation-closed C
    for G in (dihedral(6), sd(7, 3, 2), sl2(3), generalized_quaternion(16)):
        for cls in G.conjugacy_classes():
            for n in (2, 3, 4, 6):
                cnt = count_nth_roots(G, cls, n)
                assert cnt % gcd(n * len(cls), G.order) == 0, (G.origin, cls, n)


def test_odd_pgroup_with_unique_prime_subgroup_is_cyclic():
    # checked over all odd-p subgroups of small corpus groups
    for G in (sd(7, 9, 2), cyclic(27), sd(35, 3, 11), dicyclic(9),
              direct_product(cyclic(3), cyclic(3))):
        for H in all_subgroups(G):
            size = len(H)
            p = next((q for q in (3, 5, 7) if size != 1
                      and size == q ** _valuation(size, q)), None)
            if p is None:
                continue
            HG = H.as_group()
            prime_subs = {frozenset(subgroup_generated(HG, [g]).elements)
                          for g in HG.elements() if element_order(HG, g) == p}
            if len(prime_subs) == 1:
                assert HG.is_cyclic(), f"{G.origin}: order-{size} subgroup"


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_largest_prime_sylow_normal_in_sylow_cyclic():
    for G in (sd(7, 3, 2), sd(7, 9, 2), dihedral(15), cyclic(30),
              sd(13, 4, 5), sd(35, 3, 11)):
        assert is_sylow_cyclic(G)
        q = max(p for p in range(2, G.order + 1)
                if G.order % p == 0 and all(p % d for d in range(2, p)))
        P = sylow_subgroup(G, q)
        assert P.is_normal(), f"{G.origin}: {q}-Sylow not normal"
        assert len(normalizer(G, P)) == G.order


def test_deadline_cancels_enumeration():
    G = dihedral(12)
    with limits(seconds=0):
        with pytest.raises(DeadlineExceeded):
            all_subgroups(G)
        with pytest.raises(DeadlineExceeded):
            find_norm_relation(G)


SL2_7 = sl2(7)  # built outside the deadline, so the stage itself must honour it
# SL2_7's table wrapped once per stage, so each stage starts with cold caches
COLD = {name: Group(SL2_7.table) for name in ("classes", "center", "normal", "cyclic")}
DERIVED = full_subgroup(SL2_7).as_group()  # no generators until first asked


@pytest.mark.parametrize("stage", [
    lambda: classify(sd(7, 9, 2)),
    lambda: build_free_representation(generalized_quaternion(16)),
    lambda: census_report(5),
    survey210,
    lambda: is_semiprime_cyclic(SL2_7),
    lambda: commutator_of_subgroup(SL2_7, full_subgroup(SL2_7)),
    lambda: COLD["classes"].conjugacy_classes(),
    lambda: center(COLD["center"]),
    lambda: full_subgroup(COLD["normal"]).is_normal(),
    lambda: cyclic_subgroups(COLD["cyclic"]),
    lambda: subgroup_generated(SL2_7, range(SL2_7.order)),
    lambda: DERIVED.generators(),
], ids=["classify", "build_free_representation", "census_report", "survey210",
        "is_semiprime_cyclic", "commutator_of_subgroup", "conjugacy_classes", "center",
        "is_normal", "cyclic_subgroups", "subgroup_generated", "generators"])
def test_every_stage_honours_the_deadline_without_the_cli(stage):
    with limits(seconds=0):
        with pytest.raises(DeadlineExceeded):
            stage()
    stage()  # the deadline ended with the block


def test_table_validation_honours_the_deadline():
    table = cyclic(12).table
    with limits(seconds=0):
        with pytest.raises(DeadlineExceeded):
            Group(table)
    Group(table)


def test_cap_replaces_each_stage_default():
    with limits(cap=300):
        with pytest.raises(CapExceeded):
            cyclic(301)  # tables default to 6000
        assert len(find_norm_relation(dihedral(150)).certificate.terms) > 0
    with pytest.raises(CapExceeded):
        find_norm_relation(dihedral(150))  # norm relations default to 256


def test_src_has_no_assert_statements():
    # python -O strips asserts, so every invariant the package checks must
    # be an explicit raise
    src = Path(__file__).resolve().parents[1] / "src" / "freerep"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _broken_cyclic_table(n: int, r1: int, c1: int) -> np.ndarray:
    """The C_n table (n even) with one intercalate swapped: still a Latin
    square with identity 0, no longer associative."""
    i = np.arange(n)
    table = (i[:, None] + i[None, :]) % n
    r2, c2 = r1 + n // 2, c1 + n // 2
    for r, c in ((r1, c1), (r1, c2), (r2, c1), (r2, c2)):
        table[r, c] = (table[r, c] + n // 2) % n
    return table


def _fails_associativity(table: np.ndarray, x: int, a: int, y: int) -> bool:
    return table[table[x, a], y] != table[x, table[a, y]]


BIG_ORDERS = [300, 600, 1030]
BIG_PLACES = ["first", "middle", "last"]


def _big_broken_table(n: int, where: str) -> np.ndarray:
    r1, c1 = {"first": (1, 2), "middle": (n // 4, n // 3),
              "last": (n // 2 - 1, n // 2 - 1)}[where]
    return _broken_cyclic_table(n, r1, c1)


@pytest.mark.parametrize("n", BIG_ORDERS)
@pytest.mark.parametrize("where", BIG_PLACES)
def test_associativity_check_catches_big_broken_table(n, where):
    # orders on both sides of the old line between exhaustive and sampled
    # checks; the swapped intercalate sits near the start, middle or end
    table = _big_broken_table(n, where)
    with pytest.raises(NotAGroup, match="assoc") as exc:
        Group(table)
    assert _fails_associativity(table, *exc.value.witness)


def _associative_brute_force(table: np.ndarray) -> bool:
    # (x*j)*k == x*(j*k) for every triple, one x at a time
    return all(np.array_equal(table[table[x]], table[x][table])
               for x in range(len(table)))


def _light_accepts(table: np.ndarray) -> bool:
    try:
        _validate_table(table)
    except NotAGroup as exc:
        assert exc.reason == "associativity fails"
        assert _fails_associativity(table, *exc.witness)
        return False
    return True


def test_light_matches_brute_force_on_corpus():
    from corpus import structural_corpus

    for G in structural_corpus():
        assert _associative_brute_force(G.table)
        assert _light_accepts(G.table), G.origin


def _perturbed_tables():
    # swap intercalates {r, r*t} x {c, t*c} for an involution t: the table
    # stays a Latin square with identity 0 and may or may not stay a group
    from corpus import structural_corpus

    rng = random.Random(2)
    groups = [G for G in structural_corpus() if 4 <= G.order <= 40 and G.order % 2 == 0]
    for _ in range(300):
        G = rng.choice(groups)
        table = G.table.copy()
        involutions = [t for t in range(G.order) if element_order(G, t) == 2]
        for _ in range(rng.randint(1, 3)):
            t = rng.choice(involutions)
            r1, c1 = (rng.choice([g for g in range(1, G.order) if g != t])
                      for _ in range(2))
            r2, c2 = table[r1, t], table[t, c1]
            u, v = table[r1, c1], table[r1, c2]
            if table[r2, c2] != u or table[r2, c1] != v:
                continue  # an earlier swap broke this intercalate
            table[r1, c1] = table[r2, c2] = v
            table[r1, c2] = table[r2, c1] = u
        yield G.origin, table


def test_light_matches_brute_force_on_perturbed_tables():
    verdicts = []
    for origin, table in _perturbed_tables():
        verdict = _associative_brute_force(table)
        assert _light_accepts(table) == verdict, (origin, table.tolist())
        verdicts.append(verdict)
    assert verdicts.count(False) >= 100


# a commutative loop of order 5 that is not associative
LOOP5 = np.array([
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
])


def _loop_product_tables():
    # G x LOOP5 with (g, m) at index g + |G| m: the first elements checked
    # lie in G x {e}, pass, and close to G x {e} only, so the failure shows
    # up only at a later element of the generating set
    from corpus import structural_corpus

    for G in structural_corpus():
        if G.order > 24:
            continue
        k = G.order
        g, m = np.arange(5 * k) % k, np.arange(5 * k) // k
        yield G.origin, G.table[g[:, None], g[None, :]] + k * LOOP5[m[:, None], m[None, :]]


def test_light_matches_brute_force_on_loop_products():
    for origin, table in _loop_product_tables():
        assert not _associative_brute_force(table)
        assert not _light_accepts(table), origin


def _rejection(make_group, table):
    try:
        make_group(table)
    except NotAGroup as exc:  # any other exception fails the test
        return type(exc), exc.reason
    return None


def _group_with_inverse_check(table):
    # Group.__init__ as it was: Light's test, then a check that each right
    # inverse is also a left inverse
    _validate_table(table)
    inv = np.argmin(table, axis=1)
    bad = np.flatnonzero(table[inv, np.arange(len(table))] != 0)
    if bad.size:
        raise NotAGroup("one-sided inverse", (int(bad[0]), int(inv[bad[0]])))


def test_tables_are_rejected_without_the_inverse_check():
    # Latin rows and columns, identity 0 and associativity already give
    # two-sided inverses, so every table the one-sided inverse check used
    # to stop is still stopped, for the same reason
    tables = [table for _, table in _perturbed_tables()]
    tables += [table for _, table in _loop_product_tables()]
    tables += [_big_broken_table(n, where) for n in BIG_ORDERS for where in BIG_PLACES]
    rejected = 0
    for table in tables:
        before = _rejection(_group_with_inverse_check, table)
        assert _rejection(Group, table) == before
        assert (before is None) == _associative_brute_force(table)
        rejected += before is not None
    assert rejected >= 100 + 9


def test_associativity_check_survives_python_O():
    # the check raises explicitly, so python -O cannot compile it away
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from freerep.errors import NotAGroup
        from freerep.groups import Group
        if __debug__:
            sys.exit("not running under python -O")
        n = 600
        i = np.arange(n)
        table = (i[:, None] + i[None, :]) % n
        for r, c in ((1, 2), (1, 302), (301, 2), (301, 302)):
            table[r, c] = (table[r, c] + n // 2) % n
        try:
            Group(table)
        except NotAGroup as exc:
            sys.exit(0 if exc.reason == "associativity fails" else 3)
        sys.exit(4)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _normal_closure_by_conjugating(G, seeds):
    # the conjugate-and-retry loop normal_closure used to run
    gens = list(dict.fromkeys(int(x) for x in seeds))
    while True:
        H = subgroup_generated(G, gens)
        sub = np.fromiter(H.elements, dtype=np.int64)
        mask = np.zeros(G.order, dtype=bool)
        mask[sub] = True
        all_g = np.arange(G.order)
        conj = G.table[G.table[np.ix_(all_g, sub)], G.inverse[all_g, None]]
        outside = conj[~mask[conj]]
        if outside.size == 0:
            return H
        gens.append(int(outside.flat[0]))


def test_normal_closure_matches_conjugation_loop_on_corpus():
    from corpus import structural_corpus

    rng = random.Random(3)
    for G in structural_corpus():
        seed_sets = [[cls[0]] for cls in G.conjugacy_classes()]
        seed_sets += [rng.sample(range(G.order), min(2, G.order)) for _ in range(3)]
        for seeds in seed_sets:
            N = normal_closure(G, seeds)
            assert N.is_normal()
            assert N.elset == _normal_closure_by_conjugating(G, seeds).elset, \
                (G.origin, seeds)


def test_isomorphism_reflexive_on_corpus():
    from corpus import structural_corpus

    for G in structural_corpus():
        if G.order > 100:
            continue
        phi = is_isomorphic(G, G)
        assert phi is not None and phi.is_bijective(), G.origin


def test_isomorphism_witness_fully_verified():
    phi = is_isomorphic(dicyclic(2), generalized_quaternion(8))
    assert phi is not None
    phi.verify()  # would raise if not a homomorphism
    assert phi.is_bijective()
    inv = inverse_map(phi)
    assert [inv(phi(g)) for g in range(8)] == list(range(8))


def test_quotient_projection_kernel():
    from freerep.groups import center

    G = generalized_quaternion(16)
    Z = center(G)
    Q, proj = quotient_group(G, Z)
    assert kernel(proj).elset == Z.elset
    assert Q.order == 8


def test_non_sylow_cyclic_cycloidal_has_unique_involution():
    from corpus import structural_corpus
    from freerep.classify import is_sylow_cycloidal

    hit = 0
    for G in structural_corpus():
        if not is_sylow_cycloidal(G) or is_sylow_cyclic(G):
            continue
        assert G.element_orders().count(2) == 1, G.origin
        hit += 1
    assert hit >= 8


def test_prime_field_multiplicative_group_cyclic():
    # F_p^x is cyclic: a primitive root exists for every prime p
    from sl2_theory import _primitive_root

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if p == 2:
            continue
        g = _primitive_root(p)
        powers = {pow(g, k, p) for k in range(p - 1)}
        assert powers == set(range(1, p))


def test_sd_mu_equals_a_times_kernel():
    # mu(G) = A*K with K the kernel of the action (order-63 landmark shape)
    from freerep.classify import mcc_subgroup

    G = sd(7, 9, 2)
    mu = mcc_subgroup(G)
    assert len(mu) == 21  # |A| * |K| = 7 * 3
    # K is the unique subgroup of order 3 inside mu
    orders = [element_order(G, g) for g in mu.elements]
    assert sorted(set(orders)) == [1, 3, 7, 21]
