"""Brute-force verification of the SL2(F_p) structure theory: the cyclic
subgroup census against its closed forms, the eigenvalue trichotomy and the
Fermat pq-criterion.  The conjugacy, normal-subgroup and normalizer checks
live beside their tests, in tests/sl2_theory.py."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .cyclotomic import is_prime, prime_factors
from .errors import BadParams, InvariantViolated
from .groups import (
    Group,
    Subgroup,
    conjugates,
    cyclic_subgroups,
    subgroup_generated,
)
from .run import check_deadline, check_order

DEFAULT_PRIMES = (3, 5, 7, 11, 13)
OPT_IN_PRIMES = (17,)  # |SL2(F_17)| = 4896; behind an explicit opt-in
CENSUS_CAP = 2200  # census_report refuses SL2(F_p) above this order by default


@lru_cache(maxsize=None)
def sl2_group(p: int) -> Group:
    """Cached SL2(F_p) (construction cost dominates the census)."""
    from .constructors import sl2

    return sl2(p)


def _require_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise BadParams(f"{p} is not an odd prime")


@dataclass(frozen=True)
class CensusRow:
    m: int
    predicted: int
    observed: int
    match: bool


def predicted_cyclic_count(p: int, m: int) -> int:
    """Closed form for the number of cyclic subgroups of order m in SL2(F_p):
    c_1 = c_2 = 1; for m > 2: m | p-1 -> p(p+1)/2, m | 2p -> p+1,
    m | p+1 -> p(p-1)/2, otherwise 0."""
    if m in (1, 2):
        return 1
    if (p - 1) % m == 0:
        return p * (p + 1) // 2
    if (2 * p) % m == 0:
        return p + 1
    if (p + 1) % m == 0:
        return p * (p - 1) // 2
    return 0


def cyclic_census(p: int) -> list:
    """One CensusRow per order 1..2p+..; every row must match."""
    _require_odd_prime(p)
    counts = Counter(len(C) for C in cyclic_subgroups(sl2_group(p)))
    top = max(p + 1, 2 * p)
    rows = []
    for m in range(1, top + 1):
        check_deadline()
        predicted = predicted_cyclic_count(p, m)
        observed = counts[m]
        if predicted or observed:
            rows.append(CensusRow(m, predicted, observed, predicted == observed))
    if max(counts) > top:
        raise InvariantViolated(f"SL2(F_{p}) has a cyclic subgroup of order "
                                f"{max(counts)} > {top}")
    return rows


def census_partition_identity(p: int) -> bool:
    """c_{p-1}(p-3) + c_{2p}(2p-2) + c_{p+1}(p-1) = |G| - 2."""
    total = (predicted_cyclic_count(p, p - 1) * (p - 3)
             + predicted_cyclic_count(p, 2 * p) * (2 * p - 2)
             + predicted_cyclic_count(p, p + 1) * (p - 1))
    return total == (p - 1) * p * (p + 1) - 2


def maximal_cyclic_orders(p: int) -> set:
    """Observed maximal cyclic orders; {p-1, 2p, p+1} for p > 3, {6, 4} at 3."""
    subs = cyclic_subgroups(sl2_group(p))
    return {len(C) for C in subs
            if not any(C.elset < D.elset for D in subs if len(D) > len(C))}


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def trichotomy_check(p: int) -> bool:
    """Eigenvalue count in F_p vs order: 2 <-> m | p-1; 1 <-> m | 2p;
    0 <-> m | p+1, for every element outside {I, -I}."""
    _require_odd_prime(p)
    G = sl2_group(p)
    orders = G.element_orders()
    for g, (a, b, c, d) in enumerate(G.matrices):
        check_deadline()
        if orders[g] <= 2:
            continue
        disc = ((a + d) * (a + d) - 4) % p
        eigencount = {0: 1, 1: 2, -1: 0}[_legendre(disc, p)]
        m = orders[g]
        expected = {2: (p - 1) % m == 0, 1: (2 * p) % m == 0,
                    0: (p + 1) % m == 0}
        for count, holds in expected.items():
            if (eigencount == count) != holds:
                return False
    return True


def find_conjugator(G: Group, C1: Subgroup, C2: Subgroup) -> Optional[int]:
    """An explicit g with g C1 g^-1 = C2, by orbit search; None if none."""
    for g, image in enumerate(conjugates(G, C1.elements).tolist()):
        if set(image) == C2.elset:
            return g
    return None


def _matrix_index(G: Group, mat: tuple) -> int:
    return G.matrices.index(mat)


def _primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise BadParams(f"no primitive root mod {p}")


def is_fermat_prime(p: int) -> bool:
    m = p - 1
    return m & (m - 1) == 0


def fermat_pq_witness(p: int) -> Optional[Subgroup]:
    """A noncyclic subgroup of order p*r (r an odd prime dividing p-1),
    present iff p is not a Fermat prime."""
    _require_odd_prime(p)
    if is_fermat_prime(p):
        return None
    r = next(q for q in range(3, p, 2) if (p - 1) % q == 0 and is_prime(q))
    G = sl2_group(p)
    g = _primitive_root(p)
    a = pow(g, (p - 1) // r, p)
    u = _matrix_index(G, (1, 1, 0, 1))
    t = _matrix_index(G, (a, 0, 0, pow(a, p - 2, p)))
    H = subgroup_generated(G, [u, t])
    if len(H) != p * r:
        raise InvariantViolated(f"witness has order {len(H)}, wanted {p * r}")
    orders = G.element_orders()
    if any(orders[x] == p * r for x in H.elements):
        raise InvariantViolated("witness must be noncyclic")
    return H


def census_report(p: int) -> dict:
    """JSON-ready census summary for one prime, for |SL2(F_p)| up to the
    run's cap (CENSUS_CAP by default)."""
    check_order((p - 1) * p * (p + 1), CENSUS_CAP, "census_report")
    rows = cyclic_census(p)
    G = sl2_group(p)
    return {
        "p": p,
        "group_order": G.order,
        "order_formula_holds": G.order == (p - 1) * p * (p + 1),
        "unique_involution": G.element_orders().count(2) == 1,
        "rows": [
            {"m": r.m, "predicted": r.predicted, "observed": r.observed,
             "match": r.match}
            for r in rows
        ],
        "all_match": all(r.match for r in rows),
    }
