"""Construction and exact verification of free linear representations:
scalar representations of cyclic groups, induced monomial representations,
2-dimensional quaternion embeddings, and tensor products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import (
    NoQuaternionLabels,
    NotAGroup,
    NotCoprime,
    NotCyclic,
    NotFaithful,
    NotFreelyRepresentable,
)
from .cyclotomic import CyclotomicNumber
from .groups import (
    Group,
    Homomorphism,
    Subgroup,
    cyclic_subgroups,
    generating_sequence,
    is_isomorphic,
    subgroup_generated,
    sylow_subgroup,
)


class RepMatrix:
    """Square matrix over Q(zeta_n) with exact arithmetic."""

    __slots__ = ("degree", "conductor", "entries")

    def __init__(self, conductor: int, entries):
        self.conductor = conductor
        self.entries = [list(row) for row in entries]
        self.degree = len(self.entries)
        for row in self.entries:
            if len(row) != self.degree:
                raise NotAGroup("matrix is not square")

    @staticmethod
    def identity(conductor: int, degree: int) -> "RepMatrix":
        one = CyclotomicNumber.one(conductor)
        zero = CyclotomicNumber.zero(conductor)
        return RepMatrix(conductor, [
            [one if i == j else zero for j in range(degree)]
            for i in range(degree)
        ])

    @staticmethod
    def zero(conductor: int, degree: int) -> "RepMatrix":
        z = CyclotomicNumber.zero(conductor)
        return RepMatrix(conductor, [[z] * degree for _ in range(degree)])

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        d = self.degree
        a, b = self.entries, other.entries
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                acc = a[i][0] * b[0][j]
                for k in range(1, d):
                    term = a[i][k] * b[k][j]
                    if not term.is_zero():
                        acc = acc + term
                row.append(acc)
            out.append(row)
        return RepMatrix(self.conductor, out)

    def __add__(self, other: "RepMatrix") -> "RepMatrix":
        return RepMatrix(self.conductor, [
            [x + y for x, y in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other: "RepMatrix") -> "RepMatrix":
        return RepMatrix(self.conductor, [
            [x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __eq__(self, other):
        return (isinstance(other, RepMatrix)
                and self.conductor == other.conductor
                and self.entries == other.entries)

    def is_zero(self) -> bool:
        return all(c.is_zero() for row in self.entries for c in row)

    def det(self) -> CyclotomicNumber:
        """Exact determinant by fraction-full Gaussian elimination (the
        freeness tests' reference for verify_free's norm-sum criterion)."""
        d = self.degree
        m = [row[:] for row in self.entries]
        det = CyclotomicNumber.one(self.conductor)
        sign = 1
        for col in range(d):
            pivot = next((r for r in range(col, d) if not m[r][col].is_zero()),
                         None)
            if pivot is None:
                return CyclotomicNumber.zero(self.conductor)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                sign = -sign
            pv = m[col][col]
            det = det * pv
            pv_inv = pv.inverse()
            for r in range(col + 1, d):
                f = m[r][col] * pv_inv
                if f.is_zero():
                    continue
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        return det * Fraction(sign)

    def lift(self, conductor: int) -> "RepMatrix":
        if conductor == self.conductor:
            return self
        return RepMatrix(conductor, [
            [c.lift(conductor) for c in row] for row in self.entries
        ])

    def kron(self, other: "RepMatrix") -> "RepMatrix":
        n = lcm(self.conductor, other.conductor)
        a, b = self.lift(n), other.lift(n)
        da, db = a.degree, b.degree
        out = []
        for i1 in range(da):
            for i2 in range(db):
                row = []
                for j1 in range(da):
                    for j2 in range(db):
                        row.append(a.entries[i1][j1] * b.entries[i2][j2])
                out.append(row)
        return RepMatrix(n, out)


@dataclass
class Representation:
    """Per-element matrices forming a verified homomorphism into GL_d."""

    group: Group
    degree: int
    conductor: int
    images: list  # RepMatrix per element index

    def validate(self) -> None:
        G = self.group
        if len(self.images) != G.order:
            raise NotAGroup("one matrix per element required")
        if self.images[0] != RepMatrix.identity(self.conductor, self.degree):
            raise NotAGroup("identity must map to the identity matrix")
        # multiplicativity on gens x G proves it for all pairs by induction
        # on word length
        for s in generating_sequence(G):
            ms = self.images[s]
            for h in G.elements():
                if ms * self.images[h] != self.images[G.mul(s, h)]:
                    raise NotAGroup("representation not multiplicative", (s, h))

    def to_json(self, group_spec: str | None = None) -> dict:
        return {
            "group_spec": group_spec or self.group.origin,
            "degree": self.degree,
            "conductor": self.conductor,
            "images": [
                [
                    [i, j, [str(c) for c in entry.coeffs]]
                    for i, row in enumerate(mat.entries)
                    for j, entry in enumerate(row)
                    if not entry.is_zero()
                ]
                for mat in self.images
            ],
        }


@dataclass
class FreenessReport:
    free: bool
    failing_element: Optional[int]
    annihilation_checked: bool


def verify_free(rep: Representation) -> FreenessReport:
    """Free iff sum_{h in C} rho(h) = 0 for every prime-order cyclic C.

    Some g != 1 fixes a vector v != 0 iff a prime-order power of g does,
    and the vectors C fixes are the image of that norm sum divided by |C|.
    A failing C is reported by its smallest nonidentity element."""
    zero = RepMatrix.zero(rep.conductor, rep.degree)
    for C in cyclic_subgroups(rep.group):
        if not _is_prime(len(C)):
            continue
        total = zero
        for h in C.elements:
            total = total + rep.images[h]
        if not total.is_zero():
            return FreenessReport(False, C.elements[1], True)
    return FreenessReport(True, None, True)


# -- constructions -----------------------------------------------------------------


def scalar_representation(C: Group, dim: int = 1) -> Representation:
    """Generator of a cyclic group acts as zeta_N * identity."""
    gen = C.exponent_generator()
    if gen is None:
        raise NotCyclic(f"{C.origin} is not cyclic")
    n = C.order
    images: list = [None] * n
    x, k = 0, 0
    while True:
        z = CyclotomicNumber.zeta(n, k)
        images[x] = RepMatrix(n, [
            [z if i == j else CyclotomicNumber.zero(n) for j in range(dim)]
            for i in range(dim)
        ])
        x = C.mul(x, gen)
        k += 1
        if x == 0:
            break
    rep = Representation(C, dim, n, images)
    rep.validate()
    return rep


def induced_representation(G: Group, H: Subgroup, character_exponent: int = 1
                           ) -> Representation:
    """Monomial representation of degree [G:H] induced from a faithful
    character of a cyclic subgroup H."""
    if H.parent is not G:
        raise NotAGroup("subgroup bound to a different group")
    m = len(H)
    orders = G.element_orders()
    gen = next((h for h in H.elements if orders[h] == m), None)
    if gen is None:
        raise NotCyclic("induction base subgroup must be cyclic")
    if gcd(character_exponent, m) != 1:
        raise NotFaithful(
            f"character exponent {character_exponent} not coprime to {m}")
    dlog = {}
    x, k = 0, 0
    while True:
        dlog[x] = k
        x = G.mul(x, gen)
        k += 1
        if x == 0:
            break
    # left coset representatives, fixed as minimal element indices
    coset_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if coset_of[g] < 0:
            for h in H.elements:
                coset_of[G.mul(g, h)] = len(reps)
            reps.append(g)
    t = len(reps)
    zero = CyclotomicNumber.zero(m)
    images = []
    for g in range(G.order):
        mat = [[zero] * t for _ in range(t)]
        for i, gi in enumerate(reps):
            prod = G.mul(g, gi)
            j = coset_of[prod]
            h = G.mul(G.inv(reps[j]), prod)
            mat[j][i] = CyclotomicNumber.zeta(m, character_exponent * dlog[h])
        images.append(RepMatrix(m, mat))
    rep = Representation(G, t, m, images)
    rep.validate()
    return rep


# quadratic-field tag -> (conductor, sqrt image)
_SQRT_CONDUCTOR = {1: 4, 2: 8, 5: 20}


def _sqrt_in_cyclotomic(d: int, conductor: int) -> CyclotomicNumber:
    if d == 2:
        # sqrt2 = zeta8 + zeta8^-1
        return (CyclotomicNumber.zeta(conductor, conductor // 8)
                + CyclotomicNumber.zeta(conductor, -conductor // 8))
    if d == 5:
        # sqrt5 = 2*(zeta5 + zeta5^-1) + 1
        z = CyclotomicNumber.zeta(conductor, conductor // 5)
        zi = CyclotomicNumber.zeta(conductor, -(conductor // 5))
        return 2 * (z + zi) + CyclotomicNumber.one(conductor)
    raise NotAGroup(f"no square root for tag {d}")


def quaternion_embedding_rep(G: Group) -> Representation:
    """q = a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]] over Q(zeta_4/8/20)."""
    if G.quaternions is None:
        raise NoQuaternionLabels(f"{G.origin} carries no quaternion labels")
    tag = G.quaternions[0].d
    n = _SQRT_CONDUCTOR[tag]
    imag = CyclotomicNumber.zeta(n, n // 4)
    if tag == 1:
        def field(c):
            return CyclotomicNumber.rational(n, c.a)
    else:
        root = _sqrt_in_cyclotomic(tag, n)

        def field(c):
            return CyclotomicNumber.rational(n, c.a) + Fraction(c.b) * root

    images = []
    for q in G.quaternions:
        a, b, c, d = field(q.w), field(q.x), field(q.y), field(q.z)
        images.append(RepMatrix(n, [
            [a + b * imag, c + d * imag],
            [-c + d * imag, a - b * imag],
        ]))
    rep = Representation(G, 2, n, images)
    rep.validate()
    return rep


def tensor_product_rep(rep_a: Representation, rep_b: Representation,
                       product: Optional[Group] = None) -> Representation:
    """Kronecker-product representation of A x B for coprime |A|, |B|."""
    A, B = rep_a.group, rep_b.group
    if gcd(A.order, B.order) != 1:
        raise NotCoprime(f"|A| = {A.order} and |B| = {B.order} share a factor")
    if product is None:
        from .constructors import direct_product

        product = direct_product(A, B)
    if product.factors is None or product.factors[0] is not A \
            or product.factors[1] is not B:
        raise NotAGroup("tensor target must be the direct product of A and B")
    n = lcm(rep_a.conductor, rep_b.conductor)
    nb = B.order
    images = []
    for g in range(product.order):
        a, b = g // nb, g % nb
        images.append(rep_a.images[a].kron(rep_b.images[b]).lift(n))
    rep = Representation(product, rep_a.degree * rep_b.degree, n, images)
    rep.validate()
    return rep


# -- helpers -----------------------------------------------------------------------


def transport(rep: Representation, iso: Homomorphism) -> Representation:
    """Representation of iso.source pulled back along an isomorphism onto
    rep.group."""
    if iso.target is not rep.group or not iso.is_bijective():
        raise NotAGroup("transport needs an isomorphism onto the rep's group")
    out = Representation(
        iso.source, rep.degree, rep.conductor,
        [rep.images[iso(g)] for g in range(iso.source.order)])
    out.validate()
    return out


def restrict(rep: Representation, H: Subgroup) -> Representation:
    """Restriction to a subgroup, over the subgroup's standalone Group."""
    if H.parent is not rep.group:
        raise NotAGroup("subgroup bound to a different group")
    out = Representation(
        H.as_group(), rep.degree, rep.conductor,
        [rep.images[g] for g in H.elements])
    out.validate()
    return out


def prime_order_hull(G: Group) -> Subgroup:
    """Subgroup generated by all elements of prime order."""
    orders = G.element_orders()
    gens = [g for g in range(1, G.order)
            if _is_prime(orders[g])]
    return subgroup_generated(G, gens)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def build_free_representation(G: Group) -> Optional[Representation]:
    """Dispatch on the group's shape; any returned representation passes
    verify_free.  Returns None for shapes without a constructive route
    (binary tetrahedral type with 9 | |G|; binary octahedral type without
    quaternion labels)."""
    from .classify import (
        BINARY_TETRAHEDRAL_TYPE,
        QUATERNION_TYPE,
        SYLOW_CYCLIC,
        cycloidal_type,
        is_freely_representable,
        odd_core,
    )

    verdict = is_freely_representable(G)
    if not verdict.answer:
        raise NotFreelyRepresentable(f"{G.origin}: {verdict.criterion}")

    if G.is_cyclic():
        return scalar_representation(G, 1)
    if G.quaternions is not None:
        return quaternion_embedding_rep(G)
    if G.factors is not None:
        A, B = G.factors
        if gcd(A.order, B.order) == 1:
            rep_a = build_free_representation(A)
            rep_b = build_free_representation(B)
            if rep_a is not None and rep_b is not None:
                return tensor_product_rep(rep_a, rep_b, product=G)
    ctype = cycloidal_type(G)
    if ctype in (SYLOW_CYCLIC, QUATERNION_TYPE):
        hull = prime_order_hull(G)
        orders = G.element_orders()
        assert any(orders[h] == len(hull) for h in hull.elements), \
            "prime-order hull of a freely representable group must be cyclic"
        return induced_representation(G, hull, 1)
    if ctype == BINARY_TETRAHEDRAL_TYPE and G.order % 9 != 0:
        return _binary_tetrahedral_rep(G, odd_core(G))
    return None


def _binary_tetrahedral_rep(G: Group, core: Subgroup) -> Representation:
    """G = O(G) x H with H iso 2T (order prime to 9): tensor the odd part
    with the quaternion model of 2T pulled through an isomorphism witness."""
    from .constructors import direct_product
    from .quaternions import finite_quaternion_group, \
        hurwitz_tetrahedral_generators

    Q8 = sylow_subgroup(G, 2)
    C3 = sylow_subgroup(G, 3)
    H = subgroup_generated(G, list(Q8.elements) + list(C3.elements))
    assert len(H) == 24
    assert core.elset & H.elset == {0}
    assert len(core) * 24 == G.order
    OG = core.as_group()
    HG = H.as_group()
    product = direct_product(OG, HG)
    # explicit isomorphism G -> O(G) x H from the unique factorization g = o*h
    index_map = [0] * G.order
    for io, o in enumerate(core.elements):
        for ih, h in enumerate(H.elements):
            index_map[G.mul(o, h)] = io * 24 + ih
    iso = Homomorphism(G, product, index_map)
    assert iso.is_bijective()

    rep_o = build_free_representation(OG)
    assert rep_o is not None
    model = finite_quaternion_group(hurwitz_tetrahedral_generators())
    psi = is_isomorphic(HG, model)
    assert psi is not None
    rep_h = transport(quaternion_embedding_rep(model), psi)
    return transport(tensor_product_rep(rep_o, rep_h, product=product), iso)
