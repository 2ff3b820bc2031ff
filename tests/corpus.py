"""Shared constructor corpus for the acceptance and property suites."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

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
from freerep.quaternions import (
    I,
    J,
    finite_quaternion_group,
    hurwitz_tetrahedral_generators,
)
from so3 import binary_dihedral_generators


def _orders_within(groups, low, high):
    """groups, once every order lies in [low, high]; a raise, not an assert,
    so that the guard also holds under python -O."""
    bad = [G.origin for G in groups if not low <= G.order <= high]
    if bad:
        raise ValueError(f"corpus groups of order outside {low}..{high}: {bad}")
    return groups


@lru_cache(maxsize=None)
def quaternion_2t():
    return finite_quaternion_group(hurwitz_tetrahedral_generators())


@lru_cache(maxsize=None)
def quaternion_q8():
    return finite_quaternion_group([I, J])


@lru_cache(maxsize=None)
def octahedral_2o():
    return binary_polyhedral("2O")


def norm_relation_corpus():
    """Constructor outputs of order <= 128 for the dichotomy criterion."""
    out = []
    out += [cyclic(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 21,
                                24, 36, 63, 100, 128)]
    out += [dihedral(n) for n in (2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 21, 32,
                                  35, 64)]
    out += [generalized_quaternion(2 ** k) for k in range(3, 8)]
    out += [sd(7, 3, 2), sd(5, 4, 2), sd(7, 9, 2), sd(9, 2, 8), sd(13, 4, 5),
            sd(35, 3, 11), sd(15, 4, 2), sd(13, 3, 3)]
    out.append(sl2(3))
    out.append(direct_product(cyclic(2), cyclic(2)))
    out.append(direct_product(cyclic(3), cyclic(3)))
    out += [
        direct_product(cyclic(5), generalized_quaternion(8)),
        direct_product(cyclic(3), generalized_quaternion(8)),
        direct_product(cyclic(7), generalized_quaternion(8)),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(cyclic(2), cyclic(6)),
        direct_product(cyclic(5), dihedral(3)),
        direct_product(cyclic(6), cyclic(10)),
    ]
    out += [dicyclic(n) for n in (3, 5, 7)]
    out.append(quaternion_2t())
    out.append(octahedral_2o())
    return _orders_within(out, 1, 128)


def structural_corpus():
    """Constructor outputs of order <= 200 for the property suites."""
    out = []
    out += [cyclic(n) for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 21,
                                24, 36, 63, 100, 105, 128, 200)]
    out += [dihedral(n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16,
                                  21, 32, 35, 45, 64, 100)]
    out += [generalized_quaternion(2 ** k) for k in range(3, 8)]
    out += [dicyclic(n) for n in (3, 5, 7, 9, 15, 25)]
    out += [sd(7, 3, 2), sd(5, 4, 2), sd(7, 9, 2), sd(9, 2, 8), sd(13, 4, 5),
            sd(35, 3, 11), sd(15, 4, 2), sd(13, 3, 3), sd(11, 5, 3), sd(49, 3, 18)]
    out.append(sl2(3))
    out.append(quaternion_2t())
    out.append(quaternion_q8())
    out.append(octahedral_2o())
    out.append(direct_product(cyclic(2), cyclic(2)))
    out.append(direct_product(cyclic(3), cyclic(3)))
    out += [
        direct_product(cyclic(5), generalized_quaternion(8)),
        direct_product(cyclic(3), generalized_quaternion(8)),
        direct_product(cyclic(7), generalized_quaternion(8)),
        direct_product(cyclic(2), cyclic(4)),
        direct_product(cyclic(2), cyclic(6)),
        direct_product(cyclic(5), dihedral(3)),
        direct_product(cyclic(6), cyclic(10)),
        direct_product(cyclic(5), sl2(3)),
    ]
    return _orders_within(out, 1, 200)


def sd_triples(limit):
    """Every (m, n, r) that sd accepts with m * n <= limit: gcd(m, n) = 1,
    1 <= r < max(m, 2), gcd(r, m) = 1 and r^n = 1 mod m."""
    return [(m, n, r)
            for m in range(1, limit + 1)
            for n in range(1, limit // m + 1) if gcd(m, n) == 1
            for r in range(1, max(m, 2))
            if gcd(r, m) == 1 and pow(r, n, m) == 1 % m]


def two_group_corpus():
    """The corpus 2-groups of orders 8..64."""
    groups = []
    groups += [cyclic(2 ** k) for k in range(3, 7)]
    groups += [generalized_quaternion(2 ** k) for k in range(3, 7)]
    groups += [dihedral(2 ** k) for k in range(2, 6)]
    groups += [direct_product(cyclic(2), cyclic(4)),
               direct_product(cyclic(2), cyclic(8)),
               quaternion_q8(),
               finite_quaternion_group(binary_dihedral_generators(4))]
    return _orders_within(groups, 8, 64)
