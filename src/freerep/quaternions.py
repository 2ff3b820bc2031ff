"""Exact quaternion arithmetic over Q, Q(sqrt 2), Q(sqrt 5) and the finite
multiplicative quaternion groups it generates.

Quaternion and QuadFieldElement hold Fractions.  finite_quaternion_group keys
each element by nine integers instead, (a_w, b_w, ..., a_z, b_z, D) for the
components (a + b sqrt d) / D with D > 0, divided by their gcd: one key per
element, multiplied in integers.  Quaternions are made once per element at the
end, for the labels and G.quaternions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParams, NotUnit
from .groups import Group, table_from_generators
from .run import check_order

# Field tags: d=1 means Q; d=2, d=5 the real quadratic fields Q(sqrt d).
FIELD_TAGS = (1, 2, 5)
QUATERNION_CAP = 1000  # largest closure finite_quaternion_group builds by default


@dataclass(frozen=True)
class QuadFieldElement:
    """a + b*sqrt(d) with exact rational a, b and d in {1, 2, 5} (d=1: b=0)."""

    d: int
    a: Fraction
    b: Fraction

    @staticmethod
    def of(value, d: int = 1, root_part=0) -> "QuadFieldElement":
        if d not in FIELD_TAGS:
            raise BadParams(f"unsupported field tag {d}")
        a, b = Fraction(value), Fraction(root_part)
        if d == 1 and b != 0:
            raise BadParams("rational field has no root part")
        return QuadFieldElement(d, a, b)

    def lift(self, d: int) -> "QuadFieldElement":
        """View this element inside Q(sqrt d); only Q embeds everywhere."""
        if d == self.d:
            return self
        if self.d == 1:
            return QuadFieldElement(d, self.a, Fraction(0))
        raise BadParams(f"cannot lift from Q(sqrt {self.d}) to Q(sqrt {d})")

    def __add__(self, other):
        other = _coerce(other, self.d)
        return QuadFieldElement(self.d, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = _coerce(other, self.d)
        return QuadFieldElement(self.d, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QuadFieldElement(self.d, -self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other, self.d)
        return QuadFieldElement(
            self.d,
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "QuadFieldElement":
        nrm = self.a * self.a - self.d * self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("quadratic field element is zero")
        return QuadFieldElement(self.d, self.a / nrm, -self.b / nrm)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"r{self.d}"
        if self.a == 0:
            return f"{self.b}*{root}"
        return f"{self.a}+{self.b}*{root}"


def _coerce(value, d: int) -> QuadFieldElement:
    if isinstance(value, QuadFieldElement):
        if value.d == d:
            return value
        return value.lift(d)
    return QuadFieldElement(d, Fraction(value), Fraction(0))


def _common_tag(tags: Iterable[int]) -> int:
    tags = set(tags)
    tags.discard(1)
    if not tags:
        return 1
    if len(tags) > 1:
        raise BadParams(f"no common field for tags {sorted(tags)}")
    return tags.pop()


@dataclass(frozen=True)
class Quaternion:
    """w + x i + y j + z k with components in a common Q(sqrt d)."""

    w: QuadFieldElement
    x: QuadFieldElement
    y: QuadFieldElement
    z: QuadFieldElement

    @staticmethod
    def of(w, x=0, y=0, z=0, d: int = 1) -> "Quaternion":
        parts = [v if isinstance(v, QuadFieldElement) else QuadFieldElement.of(v)
                 for v in (w, x, y, z)]
        d = _common_tag([d] + [v.d for v in parts])
        return Quaternion(*[_coerce(v, d) for v in parts])

    @property
    def d(self) -> int:
        return self.w.d

    def lift(self, d: int) -> "Quaternion":
        return Quaternion(*(c.lift(d) for c in (self.w, self.x, self.y, self.z)))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        d = _common_tag([self.d, other.d])
        a, b = self.lift(d), other.lift(d)
        w1, x1, y1, z1 = a.w, a.x, a.y, a.z
        w2, x2, y2, z2 = b.w, b.x, b.y, b.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> QuadFieldElement:
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        nrm = self.norm()
        if nrm.is_zero():
            raise ZeroDivisionError("zero quaternion")
        inv = nrm.inverse()
        c = self.conj()
        return Quaternion(c.w * inv, c.x * inv, c.y * inv, c.z * inv)

    def __str__(self):
        parts = []
        for coeff, sym in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if not coeff.is_zero():
                parts.append(f"{coeff}{sym}" if sym else str(coeff))
        return "+".join(parts).replace("+-", "-") if parts else "0"


def quat(w, x=0, y=0, z=0, d: int = 1) -> Quaternion:
    return Quaternion.of(w, x, y, z, d=d)


ONE = quat(1)
I = quat(0, 1)
J = quat(0, 0, 1)
K = quat(0, 0, 0, 1)


# -- finite quaternion groups -------------------------------------------------

# component k of p * q is the sum of s * p_i * q_j over (s, i, j) in
# _HAMILTON[k], where i, j are the offsets 0, 2, 4, 6 of w, x, y, z in a key
_HAMILTON = (((1, 0, 0), (-1, 2, 2), (-1, 4, 4), (-1, 6, 6)),
             ((1, 0, 2), (1, 2, 0), (1, 4, 6), (-1, 6, 4)),
             ((1, 0, 4), (-1, 2, 6), (1, 4, 0), (1, 6, 2)),
             ((1, 0, 6), (1, 2, 4), (-1, 4, 2), (1, 6, 0)))


def _reduced(nums: list, den: int) -> tuple:
    g = gcd(*nums, den)
    return (*(v // g for v in nums), den // g)


def _key(q: Quaternion) -> tuple:
    parts = [v for c in (q.w, q.x, q.y, q.z) for v in (c.a, c.b)]
    den = lcm(*(v.denominator for v in parts))
    return _reduced([v.numerator * den // v.denominator for v in parts], den)


def _key_product(p: tuple, q: tuple, d: int) -> tuple:
    nums = []
    for terms in _HAMILTON:
        a = b = 0
        for sign, i, j in terms:
            (a1, b1), (a2, b2) = p[i:i + 2], q[j:j + 2]
            a += sign * (a1 * a2 + d * b1 * b2)
            b += sign * (a1 * b2 + b1 * a2)
        nums += (a, b)
    return _reduced(nums, p[8] * q[8])


def finite_quaternion_group(gens: Sequence[Quaternion]) -> Group:
    """Cayley table of the multiplicative group generated by unit quaternions,
    on the elements in the order a breadth-first closure by right products
    finds them; the closure multiplies integer keys (see the module doc)."""
    d = _common_tag(g.d for g in gens)
    gens = [g.lift(d) for g in gens]
    for g in gens:
        if not (g.norm() - _coerce(1, d)).is_zero():
            raise NotUnit(f"generator {g} is not a unit quaternion")
    keys = [_key(g) for g in gens]
    elems = [_key(ONE)]
    index = {elems[0]: 0}
    right = [[] for _ in gens]  # right[j][a] = index of elems[a] * gens[j]
    a = 0
    while a < len(elems):
        for j, g in enumerate(keys):
            y = _key_product(elems[a], g, d)
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
    quats = [Quaternion(*(QuadFieldElement(d, Fraction(k[i], k[8]), Fraction(k[i + 1], k[8]))
                          for i in range(0, 8, 2))) for k in elems]
    G = Group(table.T, labels=[str(q) for q in quats], origin=f"quat(order={n})")
    G.quaternions = quats
    return G


def hurwitz_tetrahedral_generators() -> list:
    """Generators of the binary tetrahedral group 2T inside the Hurwitz units."""
    h = Fraction(1, 2)
    return [quat(h, h, h, h), I]


def binary_octahedral_generators() -> list:
    """2T generators extended by (1+i)/sqrt(2) in Q(sqrt 2)."""
    s = QuadFieldElement.of(0, 2, Fraction(1, 2))  # sqrt(2)/2
    return hurwitz_tetrahedral_generators() + [quat(s, s, 0, 0, d=2)]


def binary_icosahedral_generators() -> list:
    """Icosian generators of 2I over Q(sqrt 5)."""
    h = Fraction(1, 2)
    tau = QuadFieldElement.of(h, 5, Fraction(1, 2))        # (1+sqrt5)/2
    tau_inv = QuadFieldElement.of(-h, 5, Fraction(1, 2))   # (sqrt5-1)/2
    half = QuadFieldElement.of(h, 5)
    return [
        quat(half, half, half, half, d=5),
        Quaternion(QuadFieldElement.of(0, 5), tau * half, tau_inv * half, half),
    ]
