"""The Cayley-table kernel against the loop versions it replaced.

Each reference below is the earlier implementation, kept as the oracle: the
SL2(F_p) table one row per element, the odd core by one closure per cyclic
subgroup, the commutator subgroup from n^2 index arrays, the conjugacy
classes by np.unique, the multiplication rows through table.tolist(), and
the Sylow lift through the table of N(P)/P.  Tables derived from a proved
group skip Light's test; the full test must still accept each of them.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from corpus import structural_corpus
from freerep.classify import odd_core
from freerep.constructors import sl2
from freerep.cyclotomic import prime_factors
from freerep.errors import NotAGroup
from freerep.groups import (
    Subgroup,
    _validate_table,
    center,
    commutator_subgroup,
    mulclose,
    normal_closure,
    normalizer,
    quotient_group,
    subgroup_generated,
    sylow_subgroup,
    trivial_subgroup,
)


def _sl2_by_rows(p):
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                if a:
                    mats.append((a, b, c, (1 + b * c) * pow(a, p - 2, p) % p))
                elif b:
                    mats.append((0, b, (p - pow(b, p - 2, p)) % p, c))
    eye = mats.index((1, 0, 0, 1))
    mats[0], mats[eye] = mats[eye], mats[0]
    arr = np.array(mats, dtype=np.int64)
    key_of = arr[:, 0] * p**3 + arr[:, 1] * p**2 + arr[:, 2] * p + arr[:, 3]
    index_of = np.full(p**4, -1, dtype=np.int32)
    index_of[key_of] = np.arange(len(mats), dtype=np.int32)
    a, b, c, d = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    table = np.empty((len(mats), len(mats)), dtype=np.int32)
    for i in range(len(mats)):
        ai, bi, ci, di = int(a[i]), int(b[i]), int(c[i]), int(d[i])
        pa = (ai * a + bi * c) % p
        pb = (ai * b + bi * d) % p
        pc = (ci * a + di * c) % p
        pd = (ci * b + di * d) % p
        table[i] = index_of[pa * p**3 + pb * p**2 + pc * p + pd]
    return table, mats


def _odd_core_by_cyclic_subgroups(G):
    orders = G.element_orders()
    seen = set()
    odd_closures = []
    for g in range(1, G.order):
        if orders[g] % 2 == 0:
            continue
        C = frozenset(mulclose(G, [g]))
        if C in seen:
            continue
        seen.add(C)
        N = normal_closure(G, [g])
        if len(N) % 2 == 1:
            odd_closures.append(N)
    core = trivial_subgroup(G)
    for N in odd_closures:
        if not N.elset <= core.elset:
            core = subgroup_generated(G, list(core.elements) + list(N.elements))
    return core


def _commutator_subgroup_by_index_arrays(G):
    n = G.order
    i = np.repeat(np.arange(n), n)
    j = np.tile(np.arange(n), n)
    comms = G.table[G.table[G.inverse[i], G.inverse[j]], G.table[i, j]]
    return subgroup_generated(G, [int(g) for g in np.unique(comms)])


def _classes_by_unique(G):
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if not seen[x]:
            orbit = np.unique(G.table[G.table[:, x], G.inverse])
            seen[orbit] = True
            classes.append(tuple(int(v) for v in orbit))
    return classes


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sl2_table_matches_the_row_loop(p):
    table, mats = _sl2_by_rows(p)
    G = sl2(p)
    assert np.array_equal(G.table, table)
    assert G.matrices == mats


def test_odd_core_matches_one_closure_per_cyclic_subgroup():
    for G in structural_corpus():
        assert odd_core(G).elset == _odd_core_by_cyclic_subgroups(G).elset, G.origin


def test_commutator_subgroup_matches_the_index_arrays():
    groups = structural_corpus() + [sl2(7)]
    for G in groups:
        assert commutator_subgroup(G).elset == \
            _commutator_subgroup_by_index_arrays(G).elset, G.origin


def test_conjugacy_classes_match_np_unique():
    for G in structural_corpus() + [sl2(7)]:
        assert G.conjugacy_classes() == _classes_by_unique(G), G.origin


def test_rows_match_the_table():
    for G in structural_corpus() + [sl2(13)]:
        old = [array("i", row) for row in G.table.tolist()]
        assert G.rows == old, G.origin
        assert all(list(G.rows[i]) == G.table[i].tolist() for i in range(G.order))


def _sylow_subgroup_by_quotients(G, p):
    # each step builds N(P) as a group and N(P)/P as a table, and lifts the
    # least element of the least coset of order p
    target = 1
    while G.order % (target * p) == 0:
        target *= p
    if target == 1:
        return trivial_subgroup(G)
    orders = G.element_orders()
    seed = next(g for g in range(G.order) if orders[g] % p == 0)
    P = subgroup_generated(G, [G.power(seed, orders[seed] // p)])
    while len(P) < target:
        N = normalizer(G, P)
        NG = N.as_group()
        pos = {g: i for i, g in enumerate(N.elements)}
        Q, proj = quotient_group(NG, Subgroup(NG, [pos[g] for g in P.elements]))
        q = next(q for q in range(Q.order) if Q.element_orders()[q] == p)
        P = subgroup_generated(G, list(P.elements) + [N.elements[proj.map.index(q)]])
    return P


def _sylow_corpus():
    return structural_corpus() + [sl2(7), sl2(11)]


def test_sylow_subgroup_matches_the_quotient_lift():
    for G in _sylow_corpus():
        for p in prime_factors(G.order):
            assert sylow_subgroup(G, p).elements == \
                _sylow_subgroup_by_quotients(G, p).elements, (G.origin, p)


def test_derived_tables_pass_the_full_validation():
    for G in _sylow_corpus():
        core = odd_core(G)
        subgroups = [sylow_subgroup(G, p) for p in prime_factors(G.order)]
        subgroups += [core, commutator_subgroup(G)]
        for H in subgroups:
            _validate_table(H.as_group().table)
        for N in (core, center(G)):
            Q, _ = quotient_group(G, N)
            _validate_table(Q.table)
            assert Q.order * len(N) == G.order, G.origin


def test_as_group_rejects_a_subset_that_is_not_closed():
    # {e, g} misses g^2, {g, g^2} misses g * g^2 = e, and {} misses e
    G = sl2(3)
    g = G.element_orders().index(3)
    for elements in ([0, g], [g, G.power(g, 2)], []):
        with pytest.raises(NotAGroup, match="not closed"):
            Subgroup(G, elements, validate=False).as_group()
