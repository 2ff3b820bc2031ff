"""The SL2(F_p) matrix walk of embed_sl2 against the isomorphism search.

A positive answer indexes the matrices as constructors.sl2(p) does, so it is
re-checked as a homomorphism from that table, and the backtracking search of
the oracle must agree on every verdict."""

from __future__ import annotations

import tracemalloc

import pytest

from isomorphism import is_isomorphic

from freerep.classify import is_freely_representable
from freerep.cli import parse_group_spec
from freerep.constructors import cyclic, direct_product, sl2
from freerep.errors import BadParams, CapExceeded
from freerep.groups import (Homomorphism, _sl2_walk, carry, embed_sl2, perfect_core,
                            sl2_elements, subgroup_generated, sylow_subgroup)
from freerep.quaternions import (binary_icosahedral_generators, finite_quaternion_group,
                                 hurwitz_tetrahedral_generators)
from freerep.represent import _to_hurwitz_model


def _check_embedding(G, elements, p):
    """The walk's images, re-proved as an isomorphism onto elements."""
    images = embed_sl2(G, elements, p)
    assert images is not None, (G.origin, p)
    assert sorted(images.tolist()) == sorted(elements), G.origin
    Homomorphism(sl2(p), G, images)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_walk_finds_sl2_in_its_own_table(p):
    G = sl2(p)
    _check_embedding(G, G.elements(), p)
    if p <= 7:
        assert is_isomorphic(G, sl2(p)) is not None


def test_walk_finds_sl2_5_in_the_perfect_core_and_the_icosians():
    G = parse_group_spec("prod(C7,SL2(5))").build()
    E = perfect_core(G)
    assert len(E) == 120
    _check_embedding(G, E.elements, 5)
    assert is_isomorphic(E.as_group(), sl2(5)) is not None
    icosians = finite_quaternion_group(binary_icosahedral_generators())
    _check_embedding(icosians, icosians.elements(), 5)
    assert is_isomorphic(icosians, sl2(5)) is not None


@pytest.mark.parametrize("spec,p", [
    ("prod(C5,SL2(3))", 5), ("C120", 5), ("D60", 5),
    ("prod(C3,Q8)", 3), ("C24", 3), ("D168", 7)])
def test_walk_rejects_groups_of_the_same_order(spec, p):
    G = parse_group_spec(spec).build()
    assert G.order == (p - 1) * p * (p + 1)
    assert embed_sl2(G, G.elements(), p) is None, spec
    assert is_isomorphic(G, sl2(p)) is None, spec


def test_walk_finds_the_sl2_factor_of_a_larger_group():
    # SL2(F_5) x C2, element 2a + b for (a, b): its order-5 elements all lie
    # in the factor SL2(F_5) x {0}, and so do the images
    G = direct_product(sl2(5), cyclic(2))
    factor = [g for g in G.elements() if g % 2 == 0]
    _check_embedding(G, factor, 5)
    assert sorted(embed_sl2(G, G.elements(), 5).tolist()) == factor


def test_walk_needs_an_odd_prime():
    G = sl2(3)
    for p in (2, 9):
        with pytest.raises(BadParams):
            embed_sl2(G, G.elements(), p)


def test_too_few_elements_hold_no_embedding():
    # an embedding is injective: 404 elements cannot hold the 1030200 of
    # SL2(F_101), so the walk over them is never built
    walks = _sl2_walk.cache_info().misses
    assert embed_sl2(cyclic(404), range(404), 101) is None
    assert _sl2_walk.cache_info().misses == walks


def test_sl2_enumeration_stops_where_int32_codes_would_wrap():
    with pytest.raises(CapExceeded):
        sl2_elements(223)  # 223^4 >= 2^31


def test_sl2_17_is_recognised_without_a_second_table():
    # the walk maps 4896 matrices into G; a second table of SL2(F_17) and its
    # validation would need more than G.table itself
    G = sl2(17)
    tracemalloc.start()
    try:
        verdict = is_freely_representable(G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not verdict.answer
    assert verdict.criterion == "embedded_sl2_fermat"
    assert verdict.fermat_prime == 17
    assert peak < 0.5 * G.table.nbytes, peak / G.table.nbytes


@pytest.mark.parametrize("p", [3, 5])
def test_every_t_yields_every_embedding(p):
    # |Aut(SL2(F_p))| = |PGL2(F_p)| = p(p^2 - 1) isomorphisms onto SL2(F_p),
    # and the walk from every (t, s) of orders (p, 4) finds each of them
    G = sl2(p)
    orders = G.element_orders()
    found = set()
    for t in G.elements():
        for s in G.elements():
            if (orders[t], orders[s]) == (p, 4):
                phi = carry(G, *_sl2_walk(p), [s, t])
                if phi is not None:
                    found.add(tuple(phi.tolist()))
    assert len(found) == (p - 1) * p * (p + 1)


@pytest.mark.parametrize("spec", ["2T", "prod(C5,SL2(3))", "prod(C11,2T)", "prod(C7,2T)"])
def test_hurwitz_map_is_the_one_the_search_returns(spec):
    # represent --json prints images pulled back along this map, so it must
    # stay the isomorphism the backtracking search finds first
    G = parse_group_spec(spec).build()
    factor = [g for P in (sylow_subgroup(G, 2), sylow_subgroup(G, 3)) for g in P.elements]
    H = subgroup_generated(G, factor).as_group()
    model = finite_quaternion_group(hurwitz_tetrahedral_generators())
    assert _to_hurwitz_model(H, model).map == is_isomorphic(H, model).map, spec
