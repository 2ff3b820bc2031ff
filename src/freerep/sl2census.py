"""The cyclic subgroup census of SL2(F_p), counted by brute force and
compared with its closed forms.  The rest of the structure theory (the
eigenvalue trichotomy, the Fermat pq-criterion, conjugacy, normal subgroups
and normalizers) is checked beside its tests, in tests/sl2_theory.py."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import is_prime
from .errors import BadParams, InvariantViolated
from .groups import Group, cyclic_subgroups
from .run import check_deadline, check_order

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
