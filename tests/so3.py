"""The Fraction-valued quaternions over Q, Q(sqrt 2) and Q(sqrt 5), kept as
the oracle of the integer keys of freerep.quaternions, and the double cover
of the unit quaternions onto SO(3), as exact rotation matrices, a unit
icosian of order 10 and the binary dihedral generators with exact roots of
unity: the tests check the classification of finite quaternion groups
against them.  key() and quaternion_of() convert between a Quaternion and
a key, and identify_so3_image classifies a quaternion-realized group by its
image in SO(3), the quotient by {1, -1}."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

from group_theory import quotient_group
from freerep.errors import BadParams, FreerepError, InvariantViolated, NotUnit
from freerep.groups import Group, Subgroup

# Field tags: d=1 means Q; d=2, d=5 the real quadratic fields Q(sqrt d).
FIELD_TAGS = (1, 2, 5)


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


def key(q: Quaternion) -> tuple:
    """The integer key of q: (a_w, b_w, ..., a_z, b_z, D, d) for the
    components (a + b sqrt d) / D, the first nine divided by their gcd."""
    parts = [v for c in (q.w, q.x, q.y, q.z) for v in (c.a, c.b)]
    den = lcm(*(v.denominator for v in parts))
    nums = [v.numerator * (den // v.denominator) for v in parts]
    g = gcd(*nums, den)
    return (*(v // g for v in nums), den // g, q.d)


def quaternion_of(k: tuple) -> Quaternion:
    """The Quaternion of the integer key k."""
    *nums, den, d = k
    return Quaternion(*(QuadFieldElement(d, Fraction(nums[i], den),
                                         Fraction(nums[i + 1], den))
                        for i in range(0, 8, 2)))


class NotQuaternionGroup(FreerepError):
    pass


@dataclass(frozen=True)
class RotationMatrix3:
    """Exact 3x3 rotation matrix over a quadratic field."""

    entries: tuple  # 3 rows of 3 QuadFieldElements

    def verify(self) -> None:
        """Exact field identities: M^T M = I and det M = 1."""
        e = self.entries
        for i in range(3):
            for j in range(3):
                dot = e[0][i] * e[0][j] + e[1][i] * e[1][j] + e[2][i] * e[2][j]
                want = 1 if i == j else 0
                if not (dot - _coerce(want, dot.d)).is_zero():
                    raise NotUnit(f"matrix not orthogonal at ({i},{j})")
        if not (self.det() - _coerce(1, e[0][0].d)).is_zero():
            raise NotUnit("matrix determinant is not 1")

    def det(self) -> QuadFieldElement:
        e = self.entries
        return (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))

    def __mul__(self, other: "RotationMatrix3") -> "RotationMatrix3":
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(1, 3)), a[i][0] * b[0][j])
                  for j in range(3))
            for i in range(3)
        )
        return RotationMatrix3(rows)

    def key(self) -> tuple:
        return tuple((c.a, c.b) for row in self.entries for c in row)


def rotation_of(h: Quaternion) -> RotationMatrix3:
    """Matrix of v -> h v h^-1 on the span of (i, j, k); requires norm 1."""
    nrm = h.norm()
    if not (nrm - _coerce(1, nrm.d)).is_zero():
        raise NotUnit(f"quaternion has norm {nrm}, expected 1")
    hc = h.conj()
    cols = []
    for axis in (I, J, K):
        img = h * axis.lift(h.d) * hc
        if not img.w.is_zero():
            raise InvariantViolated("conjugation left the pure quaternions")
        cols.append((img.x, img.y, img.z))
    rows = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
    mat = RotationMatrix3(rows)
    mat.verify()
    return mat


def order10_icosian() -> Quaternion:
    """A unit icosian of order 10 (a conjugate of zeta_10 in the quaternions)."""
    h = Fraction(1, 2)
    tau = QuadFieldElement.of(h, 5, Fraction(1, 2))
    tau_inv = QuadFieldElement.of(-h, 5, Fraction(1, 2))
    half = QuadFieldElement.of(h, 5)
    return Quaternion(tau * half, half, tau_inv * half, QuadFieldElement.of(0, 5))


def is_one(q: Quaternion) -> bool:
    return (q.w.a == 1 and q.w.b == 0
            and q.x.is_zero() and q.y.is_zero() and q.z.is_zero())


def binary_dihedral_generators(n: int) -> list:
    """<zeta_2n in span(1,i), j> for the n with exact 2n-th roots of unity.

    Only n = 2 (Q) and n = 4 (Q(sqrt 2)) fit inside the supported scalar
    fields; other binary dihedral groups are built by presentation instead.
    """
    if n == 2:
        return [I, J]
    if n == 4:
        s = QuadFieldElement.of(0, 2, Fraction(1, 2))
        return [quat(s, s, 0, 0, d=2), J]
    raise BadParams(f"zeta_{2 * n} is not exactly representable over Q, "
                    "Q(sqrt 2), or Q(sqrt 5)")


# -- classification of the SO(3) image ----------------------------------------


@dataclass(frozen=True)
class So3Identification:
    kind: str  # cyclic | binary_dihedral | 2T | 2O | 2I
    parameter: Optional[int]
    image_order: int


def identify_so3_image(G: Group) -> So3Identification:
    """Classify a quaternion-realized group by its rotation image."""
    if G.quaternions is None:
        raise NotQuaternionGroup("group carries no quaternion labels")
    quats = [quaternion_of(k) for k in G.quaternions]
    minus_one = None
    for idx, q in enumerate(quats):
        if (q.w.a, q.w.b) == (-1, 0) and q.x.is_zero() and q.y.is_zero() \
                and q.z.is_zero():
            minus_one = idx
            break
    if minus_one is None:
        image = G  # injective on groups without -1 (odd order)
    else:
        kernel = Subgroup(G, [0, minus_one])
        image, _ = quotient_group(G, kernel)
    return So3Identification(*_classify_so3(image), image_order=image.order)


def _classify_so3(L: Group) -> tuple:
    n = L.order
    orders = sorted(L.element_orders())
    if L.is_cyclic():
        return ("cyclic", n)
    if n == 12 and orders.count(3) == 8:
        return ("2T", None)
    if n == 24 and orders.count(3) == 8 and orders.count(4) == 6:
        return ("2O", None)
    if n == 60 and orders.count(5) == 24:
        return ("2I", None)
    if n % 2 == 0 and n >= 4:
        m = n // 2
        if m in orders:
            if orders.count(2) != (m if m % 2 else m + 1):
                raise InvariantViolated("dihedral involution census mismatch")
            return ("binary_dihedral", m)
    raise NotQuaternionGroup(f"image of order {n} is not a finite SO(3) subgroup")
