"""The Cayley-table kernel against the loop versions it replaced.

Each reference below is the earlier implementation, kept as the oracle: the
SL2(F_p) table one row per element, the odd core by one closure per cyclic
subgroup, the commutator subgroup from n^2 index arrays and from a block
mask, the conjugacy classes by np.unique, the Sylow lift through the table
of N(P)/P, the Latin-square check by sorting rows and columns, the cyclic
subgroups by a walk along each element's powers, the finite quaternion
groups by a closure on Fraction-valued quaternions, the closures,
normalizers, centralizers and commutators of subgroups by scalar loops over
the multiplication rows table.tolist(), and the semiprime scan by one capped
closure per pair of prime-order subgroups, and the Sylow profile and the
cycloidal type by isomorphism searches against reference groups, the type
from the table of G/O(G), and the dihedral, dicyclic and semidirect tables
by their all-pairs product formulas, and the conjugacy classes by one mask
per class, the center by the transposed table, normality by the conjugates
under all of G and the cyclic subgroups by the rows of powers of every
element, and the generating sets by one numpy pass per breadth-first level
of the closure and the discrete logarithms by a walk along the powers, and
the Suzuki-Zassenhaus structure by a search of G and its index-2 subgroups,
listed from every subgroup of the table of G/G'.
Tables derived from a proved group skip Light's test; the full test must
still accept each of them.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import gcd, log2

import numpy as np
import pytest

from corpus import octahedral_2o, sd_triples, structural_corpus
from group_theory import all_subgroups, quotient_group
from so3 import binary_dihedral_generators, order10_icosian
from test_classify import _sl2_5_extended_by_r
from test_properties import (
    BIG_ORDERS,
    BIG_PLACES,
    _big_broken_table,
    _fails_associativity,
    _loop_product_tables,
    _perturbed_tables,
)
from isomorphism import _close_with_map, is_isomorphic
from freerep.classify import (
    BINARY_OCTAHEDRAL_TYPE,
    BINARY_TETRAHEDRAL_TYPE,
    NON_SOLVABLE,
    NOT_CYCLOIDAL,
    QUATERNION_TYPE,
    SYLOW_CYCLIC,
    _suzuki_zassenhaus_structure,
    cycloidal_type,
    is_freely_representable,
    is_semiprime_cyclic,
    is_sylow_cycloidal,
    odd_core,
    sylow_profile,
)
from freerep.cli import parse_group_spec
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
from freerep.cyclotomic import is_prime, prime_factors
from freerep.errors import CapExceeded, NotAGroup, NotCycloidal, NotUnit
from freerep.groups import (
    BLOCK_ROWS,
    Group,
    Homomorphism,
    Subgroup,
    _normalizing,
    _sl2_walk,
    _validate_table,
    build_group,
    carry,
    center,
    centralizer,
    commutator_of_subgroup,
    commutator_subgroup,
    cyclic_subgroups,
    embed_sl2,
    full_subgroup,
    is_solvable,
    normal_closure,
    normalizer,
    perfect_core,
    sl2_elements,
    sl2_steps,
    subgroup_generated,
    sylow_subgroup,
    trivial_subgroup,
)
from freerep.represent import _discrete_log
from freerep.quaternions import (
    ONE,
    QUATERNION_CAP,
    I,
    J,
    _common_tag,
    binary_icosahedral_generators,
    binary_octahedral_generators,
    finite_quaternion_group,
    hurwitz_tetrahedral_generators,
    quat,
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
        C = subgroup_generated(G, [g]).elset
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
    assert sl2_elements(p)[0] == mats


def test_odd_core_matches_one_closure_per_cyclic_subgroup():
    for G in structural_corpus():
        assert odd_core(G).elset == _odd_core_by_cyclic_subgroups(G).elset, G.origin


def _commutator_subgroup_by_block_mask(G):
    # all n^2 commutators x^-1 y^-1 x y, BLOCK_ROWS values of x at a time
    table, inv = G.table, G.inverse
    hit = np.zeros(G.order, dtype=bool)
    for start in range(0, G.order, BLOCK_ROWS):
        x = slice(start, start + BLOCK_ROWS)
        hit[table[table[inv[x]][:, inv], table[x]]] = True
    return subgroup_generated(G, np.flatnonzero(hit).tolist())


def _derived_groups(G):
    # tables built by as_group and quotient_group, whose generators are
    # found without Light's test
    out = [sylow_subgroup(G, p).as_group() for p in prime_factors(G.order)]
    out += [odd_core(G).as_group(), quotient_group(G, center(G))[0]]
    return out


def test_commutator_subgroup_matches_the_index_arrays():
    groups = structural_corpus() + [sl2(7), sl2(11)]
    groups += [H for G in (sl2(5), sl2(7), sd(7, 9, 2), octahedral_2o())
               for H in _derived_groups(G)]
    for G in groups:
        derived = commutator_subgroup(G).elset
        assert derived == _commutator_subgroup_by_index_arrays(G).elset, G.origin
        assert derived == _commutator_subgroup_by_block_mask(G).elset, G.origin


def test_conjugacy_classes_match_np_unique():
    for G in structural_corpus() + [sl2(7)]:
        assert G.conjugacy_classes() == _classes_by_unique(G), G.origin


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


def _cyclic_subgroups_by_walk(G):
    # one walk along the powers of each element, kept at its first generator
    rows = G.table.tolist()
    seen = {}
    for g in range(G.order):
        elems = [0]
        x = g
        while x != 0:
            elems.append(x)
            x = rows[x][g]
        key = frozenset(elems)
        if key not in seen:
            seen[key] = Subgroup(G, elems, validate=False)
    return list(seen.values())


def test_cyclic_subgroups_match_the_walk():
    for G in structural_corpus() + [sl2(7), sl2(11), cyclic(840)]:
        assert [C.elements for C in cyclic_subgroups(G)] == \
            [C.elements for C in _cyclic_subgroups_by_walk(G)], G.origin


def _latin_then_light(table):
    # the validation as it was: identity 0, rows and columns sorted against
    # 0..n-1, then Light's test over a greedily grown generating set
    n = len(table)
    ident = np.arange(n)
    if not (np.array_equal(table[0], ident) and np.array_equal(table[:, 0], ident)):
        return False
    if not (np.array_equal(np.sort(table, axis=1), np.tile(ident, (n, 1)))
            and np.array_equal(np.sort(table, axis=0), np.tile(ident[:, None], (1, n)))):
        return False
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    checked = []
    while not inside.all():
        a = int(np.argmin(inside))
        if not np.array_equal(table[table[:, a]], table[:, table[a]]):
            return False
        checked.append(a)
        frontier = np.flatnonzero(inside)
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[table[np.ix_(frontier, checked)]] = True
            fresh &= ~inside
            inside |= fresh
            frontier = np.flatnonzero(fresh)
    return True


def _non_latin_tables():
    # group tables with one entry outside row 0 and column 0 copied from
    # elsewhere in its row, never over the 0: every row still holds a 0,
    # and the table is no longer Latin
    rng = random.Random(5)
    groups = [G for G in structural_corpus() if 4 <= G.order <= 64]
    for _ in range(200):
        G = rng.choice(groups)
        table = G.table.copy()
        r = rng.randrange(1, G.order)
        c1, c2 = rng.sample([c for c in range(1, G.order) if table[r, c] != 0], 2)
        table[r, c1] = table[r, c2]
        yield G.origin, table
    # random rows under the identity row and column, with a 0 in each row
    # and a repeated entry in some row
    for n in (3, 4, 6, 9, 16):
        for _ in range(20):
            table = np.array([[0] + [rng.randrange(n) for _ in range(n - 1)]
                              for _ in range(n)])
            table[0] = table[:, 0] = np.arange(n)
            for r in range(1, n):
                if 0 not in table[r]:
                    table[r, rng.randrange(1, n)] = 0
            if any(len(set(row)) < n for row in table.tolist()):
                yield f"random({n})", table


def _validation_tables():
    tables = [(G.origin, G.table) for G in structural_corpus()]
    tables += list(_perturbed_tables()) + list(_loop_product_tables())
    tables += [(f"broken({n},{where})", _big_broken_table(n, where))
               for n in BIG_ORDERS for where in BIG_PLACES]
    return tables + list(_non_latin_tables())


def test_validation_accepts_exactly_what_the_latin_sort_accepts():
    accepted = 0
    for origin, table in _validation_tables():
        try:
            _validate_table(table)
        except NotAGroup as exc:
            assert exc.reason == "associativity fails", origin
            assert _fails_associativity(table, *exc.witness), origin
            assert not _latin_then_light(table), origin
        else:
            assert _latin_then_light(table), origin
            accepted += 1
    assert accepted >= len(structural_corpus())


def test_non_latin_tables_fail_associativity_with_a_witness():
    rejected = 0
    for origin, table in _non_latin_tables():
        assert (table == 0).any(axis=1).all()
        with pytest.raises(NotAGroup, match="associativity fails") as exc:
            _validate_table(table)
        assert _fails_associativity(table, *exc.value.witness), origin
        rejected += 1
    assert rejected >= 280


def test_a_row_without_0_is_not_a_permutation():
    table = sl2(3).table.copy()
    table[5, table[5] == 0] = 7
    with pytest.raises(NotAGroup, match="row is not a permutation") as exc:
        _validate_table(table)
    assert exc.value.witness == 5


def test_validation_returns_the_inverse_and_a_short_generating_set():
    for G in structural_corpus():
        inverse, checked = _validate_table(G.table)
        assert np.array_equal(inverse, np.argmin(G.table, axis=1)), G.origin
        assert np.array_equal(G.inverse, inverse), G.origin
        assert len(checked) <= log2(G.order), G.origin
        assert len(subgroup_generated(G, checked)) == G.order, G.origin


def test_verify_reports_a_real_witness_past_the_first_block():
    # C300 x C2 with (a, b) at index a + 300 b, and the map (h, b) -> (h + b, b):
    # it respects every product x*y with x in C300 x {0}, the first 300 rows,
    # and fails on (0, 1)*(0, 1), since (1, 1)^2 is not the identity
    idx = np.arange(600)
    a, b = idx % 300, idx // 300
    G = Group((a[:, None] + a) % 300 + 300 * ((b[:, None] + b) % 2))
    m = (a + b) % 300 + 300 * b
    with pytest.raises(NotAGroup, match="not multiplicative") as exc:
        Homomorphism(G, G, m)
    i, j = exc.value.witness
    assert i >= BLOCK_ROWS
    assert m[G.mul(i, j)] != G.mul(m[i], m[j])
    assert Homomorphism(G, G, idx).is_bijective()


def _quaternion_group_by_fractions(gens):
    """(table, quaternions): the breadth-first closure on Quaternion objects,
    with the table filled column by column along the closure's tree."""
    d = _common_tag(g.d for g in gens)
    gens = [g.lift(d) for g in gens]
    for g in gens:
        if g.norm() != ONE.lift(d).w:
            raise NotUnit(f"generator {g} is not a unit quaternion")
    elems = [ONE.lift(d)]
    index = {elems[0]: 0}
    parent = [(0, 0)]
    right = [[] for _ in gens]
    a = 0
    while a < len(elems):
        for j, g in enumerate(gens):
            y = elems[a] * g
            if y not in index:
                if len(elems) + 1 > QUATERNION_CAP:
                    raise CapExceeded("closure above the cap")
                index[y] = len(elems)
                elems.append(y)
                parent.append((a, j))
            right[j].append(index[y])
        a += 1
    n = len(elems)
    right = np.array(right, dtype=np.int32).reshape(len(gens), n)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for b in range(1, n):
        a, j = parent[b]
        table[:, b] = right[j][table[:, a]]
    return table, elems


QUATERNION_GENERATORS = {
    "2T": hurwitz_tetrahedral_generators(),
    "2O": binary_octahedral_generators(),
    "2I": binary_icosahedral_generators(),
    "Q8": [I, J],
    "2D4": binary_dihedral_generators(4),
    "order10_icosian": [order10_icosian()],
    "parsed": parse_group_spec("quat(q(1/2*r2,0,1/2*r2,0),q(1/2,-1/2,1/2,1/2))").params,
}


@pytest.mark.parametrize("name", QUATERNION_GENERATORS)
def test_quaternion_group_matches_the_fraction_closure(name):
    gens = list(QUATERNION_GENERATORS[name])
    table, elems = _quaternion_group_by_fractions(gens)
    G = finite_quaternion_group(gens)
    assert np.array_equal(G.table, table)
    assert G.quaternions == elems
    assert G.labels == [str(q) for q in elems]


def test_quaternion_group_rejects_a_non_unit_generator():
    with pytest.raises(NotUnit):
        finite_quaternion_group([quat(1, 1, 0, 0)])
    with pytest.raises(NotUnit):
        _quaternion_group_by_fractions([quat(1, 1, 0, 0)])


def test_quaternion_group_of_infinite_order_exceeds_the_cap():
    gens = [quat(Fraction(3, 5), Fraction(4, 5))]
    with pytest.raises(CapExceeded):
        finite_quaternion_group(gens)
    with pytest.raises(CapExceeded):
        _quaternion_group_by_fractions(gens)


def _mulclose_by_rows(rows, gens, cap=None):
    elems = {0}
    frontier = [0]
    gens = list(dict.fromkeys(int(g) for g in gens))
    while frontier:
        new = []
        for x in frontier:
            row = rows[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        if cap is not None and len(elems) > cap:
            return None
        frontier = new
    return sorted(elems)


def _normalizer_by_rows(G, rows, H):
    inv = G.inverse.tolist()
    return [g for g in range(G.order)
            if all(rows[rows[g][h]][inv[g]] in H.elset for h in H.elements)]


def _centralizer_by_rows(G, rows, elems):
    return [g for g in range(G.order) if all(rows[g][x] == rows[x][g] for x in elems)]


def _commutator_of_subgroup_by_rows(G, rows, H):
    inv = G.inverse.tolist()
    gens = {rows[rows[inv[x]][inv[y]]][rows[x][y]] for x in H.elements for y in H.elements}
    gens.discard(0)
    return subgroup_generated(G, sorted(gens))


def _close_with_map_by_rows(grows, hrows, genpairs):
    m = {0: 0}
    frontier = [0]
    while frontier:
        new = []
        for x in frontier:
            grow, hrow = grows[x], hrows[m[x]]
            for g, h in genpairs:
                y, hy = grow[g], hrow[h]
                known = m.get(y)
                if known is None:
                    m[y] = hy
                    new.append(y)
                elif known != hy:
                    return None
        frontier = new
    return m


def _semiprime_scan_by_closures(G, rows):
    # (closure, (p, q)) for the first pair of prime-order subgroups, in
    # list order, whose closure has exactly pq elements and none of order pq
    primes = [C for C in cyclic_subgroups(G) if is_prime(len(C))]
    orders = G.element_orders()
    for i, C1 in enumerate(primes):
        for C2 in primes[i + 1:]:
            bound = len(C1) * len(C2)
            closure = _mulclose_by_rows(rows, [C1.elements[1], C2.elements[1]], bound)
            if closure is not None and len(closure) == bound \
                    and not any(orders[g] == bound for g in closure):
                return closure, (len(C1), len(C2))
    return None, None


def _oracle_corpus():
    return structural_corpus() + [
        sl2(7), sl2(11), binary_polyhedral("2I"), dihedral(250), sd(127, 7, 2),
        cyclic(840), parse_group_spec("prod(C11,2I)").build()]


def _some_subgroups(G):
    # a few cyclic subgroups, one Sylow subgroup per prime, the center and G'
    rng = random.Random(G.order)
    cyclics = cyclic_subgroups(G)
    subs = rng.sample(cyclics, min(6, len(cyclics)))
    subs += [sylow_subgroup(G, p) for p in prime_factors(G.order)]
    return subs + [center(G), commutator_subgroup(G)]


def test_closures_match_the_row_loop():
    for G in _oracle_corpus():
        rows = G.table.tolist()
        rng = random.Random(G.order)
        for _ in range(20):
            gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
            assert list(subgroup_generated(G, gens).elements) == \
                _mulclose_by_rows(rows, gens), (G.origin, gens)


def _greedy_generators_by_levels(table):
    # the least element outside the closure, the closure grown by one numpy
    # pass per breadth-first level
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    taken = []
    while not inside.all():
        taken.append(int(np.argmin(inside)))
        cols = table[:, taken]
        frontier = np.flatnonzero(inside)
        while frontier.size:
            fresh = np.zeros(n, dtype=bool)
            fresh[cols.take(frontier, axis=0)] = True
            fresh &= ~inside
            inside |= fresh
            frontier = np.flatnonzero(fresh)
    return taken


def test_generators_match_the_greedy_levels():
    groups = _oracle_corpus() + [_q8_by_c9()]
    groups += [H for G in (sl2(7), sd(7, 9, 2), octahedral_2o(), dicyclic(45))
               for H in _derived_groups(G)]
    for G in groups:
        greedy = _greedy_generators_by_levels(G.table)
        assert G.generators() == greedy, G.origin
        assert _validate_table(G.table)[1] == greedy, G.origin


def _discrete_log_by_walk(G, g):
    log = np.zeros(G.order, dtype=np.int64)
    x, k = g, 1
    while x:
        log[x] = k
        x, k = G.mul(x, g), k + 1
    return log


def test_discrete_log_matches_the_walk():
    for G in (cyclic(840), dicyclic(45), sl2(7), _q8_by_c9()):
        for g in random.Random(G.order).sample(range(G.order), 20) + [0]:
            assert np.array_equal(_discrete_log(G, g), _discrete_log_by_walk(G, g)), \
                (G.origin, g)


def test_normalizers_and_centralizers_match_the_row_loops():
    for G in _oracle_corpus():
        rows = G.table.tolist()
        for H in _some_subgroups(G):
            assert list(normalizer(G, H).elements) == \
                _normalizer_by_rows(G, rows, H), (G.origin, len(H))
            assert list(centralizer(G, H.elements).elements) == \
                _centralizer_by_rows(G, rows, H.elements), (G.origin, len(H))


def test_commutator_of_subgroup_matches_the_row_loop():
    for G in _oracle_corpus():
        rows = G.table.tolist()
        subs = _some_subgroups(G)
        if G.order <= 1000:
            subs.append(full_subgroup(G))
        for H in subs:
            assert commutator_of_subgroup(G, H).elements == \
                _commutator_of_subgroup_by_rows(G, rows, H).elements, (G.origin, len(H))


def test_close_with_map_matches_the_row_loop():
    # the SL2(F_p) matrix walk with S -> s, T -> t against the closure of
    # that assignment along the rows of the table of SL2(F_p): the walk
    # returns images exactly when the closure is a bijective homomorphism,
    # and then both send each matrix to the same element
    for p in (3, 5, 7, 11):
        G = sl2(p)
        rows = G.table.tolist()
        walk = _sl2_walk(p)
        S, T = (sl2_elements(p)[0].index(m) for m in sl2_steps(1, 0, 0, 1, p))
        # the walk indexes the matrices as the table does
        assert carry(G, *walk, [S, T]).tolist() == list(range(G.order)), G.origin
        rng = random.Random(G.order)
        orders = G.element_orders()
        fours = [g for g in range(G.order) if orders[g] == 4]
        ps = [g for g in range(G.order) if orders[g] == p]
        g = rng.randrange(G.order)
        images = [(S, T), (G.conj(g, S), G.conj(g, T)), (S, S), (T, S)]
        images += [(rng.choice(fours), rng.choice(ps)) for _ in range(12)]
        images += [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(4)]
        for s, t in images:
            got = carry(G, *walk, [s, t])
            expected = _close_with_map_by_rows(rows, rows, [(S, s), (T, t)])
            bijective = expected is not None and len(set(expected.values())) == G.order
            assert (got is not None) == bijective, (G.origin, s, t)
            if got is not None:
                assert [expected[x] for x in range(G.order)] == got.tolist(), \
                    (G.origin, s, t)


def test_close_with_map_returns_none_on_a_conflict():
    # an element g of order 3 in C6 sent to the involution t: g^3 = 1 would
    # go to t^3 = t, but 1 is already sent to 1
    G = cyclic(6)
    g = G.element_orders().index(3)
    t = G.element_orders().index(2)
    assert _close_with_map(G, G, [(g, t)]) is None
    assert _close_with_map_by_rows(G.table.tolist(), G.table.tolist(), [(g, t)]) is None


def test_semiprime_scan_matches_the_pairwise_closures():
    branches = set()
    for G in _oracle_corpus():
        ok, witness = is_semiprime_cyclic(G)
        closure, primes = _semiprime_scan_by_closures(G, G.table.tolist())
        assert ok == (closure is None), G.origin
        if closure is not None:
            assert list(witness.elements) == closure, G.origin
            p, q = primes
            branches.add("p = q" if p == q else "p < q" if p < q else "p > q")
    assert branches == {"p = q", "p < q", "p > q"}


def _sylow_profile_by_isomorphism(G):
    # {p: (order, kind)}: a noncyclic Sylow 2-subgroup with one involution is
    # matched against the model Q_(2^n) of its order
    orders = G.element_orders()
    profile = {}
    for p in prime_factors(G.order):
        P = sylow_subgroup(G, p)
        size = len(P)
        if any(orders[g] == size for g in P.elements):
            kind = "cyclic"
        elif p == 2 and size >= 8 and \
                sum(1 for g in P.elements if orders[g] == 2) == 1:
            match = is_isomorphic(P.as_group(), generalized_quaternion(size))
            kind = "generalized_quaternion" if match is not None else "other"
        else:
            kind = "other"
        profile[p] = (size, kind)
    return profile


def _cycloidal_type_by_quotient(G):
    # G/O(G) built as a table and matched against the models of its type
    profile = _sylow_profile_by_isomorphism(G)
    if any(kind != "cyclic" and (p, kind) != (2, "generalized_quaternion")
           for p, (_, kind) in profile.items()):
        return NOT_CYCLOIDAL
    if not is_solvable(G):
        return NON_SOLVABLE
    Q, _ = quotient_group(G, odd_core(G))
    n = Q.order
    if n & (n - 1) == 0 and Q.is_cyclic():
        return SYLOW_CYCLIC
    if n & (n - 1) == 0 and n >= 8 and \
            is_isomorphic(Q, generalized_quaternion(n)) is not None:
        return QUATERNION_TYPE
    if n == 24 and is_isomorphic(Q, sl2(3)) is not None:
        return BINARY_TETRAHEDRAL_TYPE
    if n == 48 and is_isomorphic(Q, octahedral_2o()) is not None:
        return BINARY_OCTAHEDRAL_TYPE
    raise NotCycloidal(f"G/O(G) of order {n} matches no cycloidal type")


def _q8_by_c9():
    # Q8 x| C9, the generator of C9 acting as i -> j -> k -> i: its C3 is
    # central, so O(G) = C3 and G/O(G) = 2T is no direct factor of G.
    # Q8 element 4s + a is (-1)^s times 1, i, j, k for a = 0..3
    def qmul(x, y):
        (s, a), (t, b) = divmod(x, 4), divmod(y, 4)
        if a == 0 or b == 0:
            return 4 * (s ^ t) + a + b
        if a == b:
            return 4 * (s ^ t ^ 1)
        return 4 * (s ^ t ^ ((b - a) % 3 != 1)) + 6 - a - b

    def act(c, y):
        s, a = divmod(y, 4)
        for _ in range(c % 3):
            a = a % 3 + 1 if a else 0
        return 4 * s + a

    def mult(x, y):
        (q, c), (r, d) = divmod(x, 9), divmod(y, 9)
        return 9 * qmul(q, act(c, r)) + (c + d) % 9

    return build_group(mult, 72, origin="Q8:C9")


def _cycloidal_type_corpus():
    odd = [cyclic(3), cyclic(5), cyclic(7), cyclic(9), sd(7, 3, 2)]
    two = [generalized_quaternion(8), generalized_quaternion(16), sl2(3),
           octahedral_2o()]
    return (structural_corpus() + [sd(*t) for t in sd_triples(128)]
            + two + [direct_product(A, B) for A in odd for B in two]
            + [_q8_by_c9(), binary_polyhedral("2I")])


def test_sylow_profile_and_cycloidal_type_match_the_isomorphism_searches():
    seen = set()
    for G in _cycloidal_type_corpus():
        profile = {p: (c.order, c.kind) for p, c in sylow_profile(G).items()}
        assert profile == _sylow_profile_by_isomorphism(G), G.origin
        ctype = cycloidal_type(G) if is_sylow_cycloidal(G) else NOT_CYCLOIDAL
        assert ctype == _cycloidal_type_by_quotient(G), G.origin
        seen.add(ctype)
    assert seen == {SYLOW_CYCLIC, QUATERNION_TYPE, BINARY_TETRAHEDRAL_TYPE,
                    BINARY_OCTAHEDRAL_TYPE, NON_SOLVABLE, NOT_CYCLOIDAL}


def test_q8_by_c9_is_of_binary_tetrahedral_type_with_no_direct_factor():
    G = _q8_by_c9()
    # 2T x C3, the one group of order 72 with a direct factor 2T, has no
    # element of order 9
    assert 9 in G.element_orders()
    assert len(odd_core(G)) == 3
    assert cycloidal_type(G) == BINARY_TETRAHEDRAL_TYPE


def _index2_subgroups(G):
    # the index-2 subgroups, lifted from the subgroups of G/G'
    A = commutator_subgroup(G)
    if (G.order // len(A)) % 2:
        return []
    Q, proj = quotient_group(G, A)
    out = []
    for H in all_subgroups(Q):
        if 2 * len(H) == Q.order:
            lifted = [g for g in G.elements() if proj(g) in H.elset]
            out.append(Subgroup(G, lifted, validate=False))
    return out


def _structure_by_index2_search(G):
    # G, then each index-2 subgroup H, as a group of its own
    for H in [None] + _index2_subgroups(G):
        HG = G if H is None else H.as_group()
        if HG.order % 120:
            continue
        E = perfect_core(HG)
        if len(E) != 120 or embed_sl2(HG, E.elements, 5) is None:
            continue
        orders = HG.element_orders()
        M = Subgroup(HG, [g for g in centralizer(HG, E.elements).elements
                          if orders[g] % 2 == 1])
        if len(E) * len(M) != HG.order or E.elset & M.elset != {0}:
            continue
        if gcd(len(M), 30) != 1 or not is_freely_representable(M.as_group()).answer:
            continue
        if H is not None:  # translate back into G's element indices
            E = Subgroup(G, [H.elements[i] for i in E.elements], validate=False)
            M = Subgroup(G, [H.elements[i] for i in M.elements], validate=False)
        out = {"sl2f5_factor": E, "odd_factor": M}
        if H is not None:
            out["index2_subgroup"] = H
        return out
    return None


def test_suzuki_zassenhaus_structure_matches_the_index_2_search():
    extended = _sl2_5_extended_by_r()
    specs = ["2I", "SL2(5)", "prod(C7,SL2(5))", "prod(C11,2I)", "prod(C49,SL2(5))",
             "prod(C3,SL2(5))", "SL2(7)", "prod(C2,SL2(5))"]
    groups = [parse_group_spec(s).build() for s in specs] + [
        extended, direct_product(cyclic(7), extended), direct_product(extended, cyclic(7))]
    found = {}
    for G in groups:
        want = _structure_by_index2_search(G)
        got = _suzuki_zassenhaus_structure(G, perfect_core(G))
        assert (got is None) == (want is None), G.origin
        if got is not None:
            assert got.keys() == want.keys(), G.origin
            assert all(got[k].elset == want[k].elset for k in got), G.origin
        found[G.origin] = None if got is None else len(got)
    # both None cases, and the index-2 branch on a group that is not freely
    # representable (two involutions), met directly
    assert found["prod(C3,SL2(5))"] is found["SL2(7)"] is None
    assert found["prod(C2,SL2(5))"] == found["<SL2(5),R>"] == 3
    assert not is_freely_representable(groups[specs.index("prod(C2,SL2(5))")]).answer


def _dihedral_by_formula(n):
    i = np.arange(2 * n, dtype=np.int32)
    r, t = i % n, i // n
    r1, t1 = r[:, None], t[:, None]
    r2, t2 = r[None, :], t[None, :]
    # rho^a tau^b * rho^c tau^d = rho^(a + c*(-1)^b) tau^(b+d)
    rr = (r1 + np.where(t1 == 1, -r2, r2)) % n
    tt = (t1 + t2) % 2
    return (rr + n * tt).astype(np.int32)


def _dicyclic_by_formula(m):
    n2 = 2 * m
    i = np.arange(4 * m, dtype=np.int32)
    r, t = i % n2, i // n2
    r1, t1 = r[:, None], t[:, None]
    r2, t2 = r[None, :], t[None, :]
    # R^a T^b * R^c T^d:  T R^c = R^-c T, and T^2 = R^m
    rr = (r1 + np.where(t1 == 1, -r2, r2)) % n2
    tsum = t1 + t2
    rr = (rr + np.where(tsum == 2, m, 0)) % n2
    tt = tsum % 2
    return (rr + n2 * tt).astype(np.int32)


def _sd_by_formula(m, n, r):
    i = np.arange(m * n, dtype=np.int64)
    ai, bj = i // n, i % n
    rpow = np.array([pow(r, int(j), m) for j in range(n)], dtype=np.int64)
    # (a^i1 b^j1)(a^i2 b^j2) = a^(i1 + i2*r^j1) b^(j1+j2)
    aa = (ai[:, None] + ai[None, :] * rpow[bj][:, None]) % m
    bb = (bj[:, None] + bj[None, :]) % n
    return (aa * n + bb).astype(np.int32)


# 1,641 triples in about 7 s; the 4,864 of order <= 600 agree too, but take
# about 45 s on a 2-core host
SD_FORMULA_LIMIT = 256


def test_dihedral_and_dicyclic_tables_match_the_formulas():
    for n in range(2, 200):
        assert dihedral(n).table.tobytes() == _dihedral_by_formula(n).tobytes(), n
    for m in range(1, 200):
        assert dicyclic(m).table.tobytes() == _dicyclic_by_formula(m).tobytes(), m


def test_sd_tables_match_the_formula():
    for m, n, r in sd_triples(SD_FORMULA_LIMIT):
        assert sd(m, n, r).table.tobytes() == _sd_by_formula(m, n, r).tobytes(), (m, n, r)


@pytest.mark.parametrize("build", [
    lambda: sd(17, 120, 2),
    lambda: dicyclic(500),
    lambda: dihedral(1000),
    lambda: direct_product(cyclic(40), dihedral(25)),
    lambda: cyclic(2000),
], ids=["sd", "dicyclic", "dihedral", "direct_product", "cyclic"])
def test_a_build_peaks_below_two_and_a_half_tables(build):
    # order 2040 or 2000: at most one n x n int32 temporary beside the table
    tracemalloc.start()
    try:
        G = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * G.table.nbytes, peak / G.table.nbytes


def _classes_by_masks(G):
    # one n-wide mask per class, the orbit of x under all n conjugations
    table, inv = G.table, G.inverse
    seen = np.zeros(G.order, dtype=bool)
    class_index = np.full(G.order, -1, dtype=np.int32)
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        hit = np.zeros(G.order, dtype=bool)
        hit[table[table[:, x], inv]] = True
        orbit = np.flatnonzero(hit)
        seen[orbit] = True
        class_index[orbit] = len(classes)
        classes.append(tuple(int(v) for v in orbit))
    return classes, class_index


def _center_by_transpose(G):
    eq = G.table == G.table.T
    return Subgroup(G, [int(g) for g in np.nonzero(eq.all(axis=1))[0]], validate=False)


def _is_normal_by_conjugates(H):
    # the n x |H| array of all conjugates g * h * g^-1
    return bool(_normalizing(H.parent, H.elements).all())


def _cyclic_subgroups_by_power_rows(G):
    # the d - 1 powers of every element of order d, kept at g if g is the
    # least of its powers g^k with (k, d) = 1
    orders = np.array(G.element_orders())
    found = {0: trivial_subgroup(G)}
    for d in set(G.element_orders()) - {1}:
        powers = [np.flatnonzero(orders == d)]
        for _ in range(d - 2):
            powers.append(G.table[powers[-1], powers[0]])
        powers = np.stack(powers, axis=1)  # one row g, g^2, ..., g^(d-1) per g
        least = powers[:, [k - 1 for k in range(1, d) if gcd(k, d) == 1]].min(axis=1)
        for row in powers[least == powers[:, 0]].tolist():
            found[row[0]] = Subgroup(G, [0, *row], validate=False)
    return [found[g] for g in sorted(found)]


@pytest.fixture(scope="module")
def invariant_corpus():
    # built once for the three tests below and released after this module;
    # the derived groups' generators come from the greedy fill, not from
    # Light's test
    big = [cyclic(840), sl2(13), sl2(17), cyclic(4896), dicyclic(1224),
           sd(17, 288, 3), parse_group_spec("prod(C7,SL2(5))").build(), _q8_by_c9()]
    derived = [H for G in (sl2(7), sd(7, 9, 2), octahedral_2o(), dicyclic(45))
               for H in _derived_groups(G)]
    return structural_corpus() + big + derived


def test_conjugacy_classes_match_the_class_masks(invariant_corpus):
    for G in invariant_corpus:
        classes, index = _classes_by_masks(G)
        assert G.conjugacy_classes() == classes, G.origin
        assert np.array_equal(G._class_index, index), G.origin


def test_center_and_normality_match_the_whole_table_passes(invariant_corpus):
    for G in invariant_corpus:
        assert center(G).elements == _center_by_transpose(G).elements, G.origin
        for H in _some_subgroups(G):
            assert H.is_normal() == _is_normal_by_conjugates(H), (G.origin, len(H))


def test_cyclic_subgroups_match_the_power_rows(invariant_corpus):
    for G in invariant_corpus:
        assert [C.elements for C in cyclic_subgroups(G)] == \
            [C.elements for C in _cyclic_subgroups_by_power_rows(G)], G.origin


@pytest.mark.parametrize("build", [lambda: cyclic(2000), lambda: dicyclic(500)],
                         ids=["cyclic", "dicyclic"])
@pytest.mark.parametrize("invariant", [
    lambda G: G.conjugacy_classes(),
    center,
    lambda G: full_subgroup(G).is_normal(),
    cyclic_subgroups,
], ids=["conjugacy_classes", "center", "is_normal", "cyclic_subgroups"])
def test_an_invariant_peaks_below_an_eighth_of_the_table(build, invariant):
    # order 2000, caches cold: no n x n temporary, nor n rows of powers
    G = build()
    tracemalloc.start()
    try:
        invariant(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < G.table.nbytes / 8, peak / G.table.nbytes
