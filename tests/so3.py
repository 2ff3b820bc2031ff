"""The double cover of the unit quaternions onto SO(3), as exact rotation
matrices, a unit icosian of order 10 and the binary dihedral generators
with exact roots of unity: the tests check the classification of finite
quaternion groups against them.  identify_so3_image classifies a
quaternion-realized group by its image in SO(3), the quotient by {1, -1}."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from group_theory import quotient_group
from freerep.errors import BadParams, FreerepError, InvariantViolated, NotUnit
from freerep.groups import Group, Subgroup
from freerep.quaternions import I, J, K, QuadFieldElement, Quaternion, _coerce, quat


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
    quats = G.quaternions
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
