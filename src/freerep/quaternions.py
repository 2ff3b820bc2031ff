"""Finite multiplicative groups of unit quaternions over Q, Q(sqrt 2) and
Q(sqrt 5), in exact integers.

A quaternion is one key of ten integers, (a_w, b_w, a_x, b_x, a_y, b_y,
a_z, b_z, D, d): its components w, x, y, z are (a + b sqrt d) / D with
D > 0 and the field tag d (1 for Q, where every b is 0; 2 or 5 for the
real quadratic field Q(sqrt d)), and the first nine are divided by their
gcd, so each quaternion has one key.  Only this module reads the slots of a
key:
the rest of the program makes keys with quaternion(), prints them with
label() and component(), and reads them with integer_components()."""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import BadParams, NotUnit
from .groups import Group, table_from_generators
from .run import check_order

QUATERNION_CAP = 1000  # largest closure finite_quaternion_group builds by default

# component k of p * q is the sum of s * p_i * q_j over (s, i, j) in
# _HAMILTON[k], where i, j are the offsets 0, 2, 4, 6 of w, x, y, z in a key
_HAMILTON = (((1, 0, 0), (-1, 2, 2), (-1, 4, 4), (-1, 6, 6)),
             ((1, 0, 2), (1, 2, 0), (1, 4, 6), (-1, 6, 4)),
             ((1, 0, 4), (-1, 2, 6), (1, 4, 0), (1, 6, 2)),
             ((1, 0, 6), (1, 2, 4), (-1, 4, 2), (1, 6, 0)))


def quaternion(nums: Sequence[int], den: int = 1, d: int = 1) -> tuple:
    """The key of the quaternion whose components are (a + b sqrt d) / den,
    for the eight numerators nums = (a_w, b_w, ..., a_z, b_z), den > 0 and
    the field tag d, with every b 0 when d = 1."""
    g = gcd(*nums, den)
    return (*(v // g for v in nums), den // g, d)


def _ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def component(q: tuple, c: int) -> str:
    """Component c (0, 1, 2, 3 for w, x, y, z) of q as a, b*rd or a+b*rd,
    with a and b reduced fractions."""
    a, b = q[2 * c:2 * c + 2]
    if b == 0:
        return _ratio(a, q[8])
    root = f"{_ratio(b, q[8])}*r{q[9]}"
    return root if a == 0 else f"{_ratio(a, q[8])}+{root}"


def label(q: tuple) -> str:
    """w+xi+yj+zk over the nonzero components, "+-" written "-"; "0" if none."""
    parts = [component(q, c) + sym for c, sym in enumerate(("", "i", "j", "k"))
             if q[2 * c] or q[2 * c + 1]]
    return "+".join(parts).replace("+-", "-") if parts else "0"


def integer_components(keys: Sequence[tuple]) -> tuple:
    """(rows, D, d): row 4e + c holds the integers (a, b) of component c of
    keys[e] as (a + b sqrt d) / D, with one D for all keys and d their tag."""
    den = lcm(*(q[8] for q in keys))
    rows = [(q[i] * (den // q[8]), q[i + 1] * (den // q[8]))
            for q in keys for i in range(0, 8, 2)]
    return rows, den, keys[0][9]


def _common_tag(keys: Sequence[tuple]) -> int:
    """The one field containing every key's field: Q embeds in both others."""
    tags = {q[9] for q in keys} - {1}
    if len(tags) > 1:
        raise BadParams(f"no common field for tags {sorted(tags)}")
    return tags.pop() if tags else 1


def _check_unit(q: tuple) -> None:
    """Norm 1: sum (a + b sqrt d)^2 = D^2, that is sum a^2 + d b^2 = D^2
    and sum a b = 0."""
    a, b, d = q[0:8:2], q[1:8:2], q[9]
    if (sum(x * x + d * y * y for x, y in zip(a, b)) != q[8] * q[8]
            or sum(x * y for x, y in zip(a, b)) != 0):
        raise NotUnit(f"generator {label(q)} is not a unit quaternion")


def _key_product(p: tuple, q: tuple) -> tuple:
    d = p[9]
    nums = []
    for terms in _HAMILTON:
        a = b = 0
        for sign, i, j in terms:
            (a1, b1), (a2, b2) = p[i:i + 2], q[j:j + 2]
            a += sign * (a1 * a2 + d * b1 * b2)
            b += sign * (a1 * b2 + b1 * a2)
        nums += (a, b)
    return quaternion(nums, p[8] * q[8], d)


def finite_quaternion_group(gens: Sequence[tuple]) -> Group:
    """Cayley table of the multiplicative group generated by the unit
    quaternion keys gens, lifted to their common field, on the elements in
    the order a breadth-first closure by right products finds them; the
    keys are G.quaternions and their labels G.labels."""
    d = _common_tag(gens)
    gens = [(*g[:9], d) for g in gens]
    for g in gens:
        _check_unit(g)
    elems = [quaternion((1, 0, 0, 0, 0, 0, 0, 0), 1, d)]
    index = {elems[0]: 0}
    right = [[] for _ in gens]  # right[j][a] = index of elems[a] * gens[j]
    a = 0
    while a < len(elems):
        for j, g in enumerate(gens):
            y = _key_product(elems[a], g)
            b = index.get(y)
            if b is None:
                check_order(len(elems) + 1, QUATERNION_CAP,
                            "finite_quaternion_group")
                b = index[y] = len(elems)
                elems.append(y)
            right[j].append(b)
        a += 1
    n = len(elems)
    # from the right multiplications the fill gives the transposed table
    table = table_from_generators(np.array(right, dtype=np.int32).reshape(len(gens), n))
    G = Group(table.T, labels=[label(q) for q in elems], origin=f"quat(order={n})")
    G.quaternions = elems
    return G


def hurwitz_tetrahedral_generators() -> list:
    """Generators of the binary tetrahedral group 2T inside the Hurwitz units:
    (1+i+j+k)/2 and i."""
    return [quaternion((1, 0, 1, 0, 1, 0, 1, 0), 2),
            quaternion((0, 0, 1, 0, 0, 0, 0, 0))]


def binary_octahedral_generators() -> list:
    """2T generators extended by (1+i)/sqrt(2) = (sqrt2 + sqrt2 i)/2 in Q(sqrt 2)."""
    return hurwitz_tetrahedral_generators() + [
        quaternion((0, 1, 0, 1, 0, 0, 0, 0), 2, 2)]


def binary_icosahedral_generators() -> list:
    """Icosian generators of 2I over Q(sqrt 5): (1+i+j+k)/2 and
    (tau i + tau^-1 j + k)/2 = ((1+sqrt5) i + (sqrt5-1) j + 2k)/4."""
    return [quaternion((1, 0, 1, 0, 1, 0, 1, 0), 2, 5),
            quaternion((0, 0, 1, 1, -1, 1, 2, 0), 4, 5)]
