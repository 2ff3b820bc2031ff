"""Construction and exact verification of free linear representations:
scalar representations of cyclic groups, induced monomial representations,
2-dimensional quaternion embeddings, and tensor products.

A matrix over Q(zeta_n) is an integer array: the numerators of each entry's
coefficients on the power basis 1, zeta, ..., zeta^(phi(n)-1), over one
positive denominator.  A representation keeps its |G| images as one such
stack."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

import numpy as np

from .errors import (
    BadConductor,
    InvariantViolated,
    NoQuaternionLabels,
    NotAGroup,
    NotCoprime,
    NotCyclic,
    NotFaithful,
    NotFreelyRepresentable,
)
from .cyclotomic import cyclotomic_polynomial, euler_phi, is_prime
from .groups import (
    Group,
    Homomorphism,
    Subgroup,
    _generate,
    _levels,
    carry,
    cyclic_subgroups,
    left_cosets,
    subgroup_generated,
    sylow_subgroup,
)

# Arrays are int64 while every value is known to stay below this bound,
# which leaves room for one addition; otherwise Python ints (dtype=object).
_INT64_SAFE = 1 << 62

# integers per chunk of a stack multiplied at once by Representation.validate
_CHUNK = 1 << 14


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(map(abs, a.flat))
    return int(np.abs(a).max())


def _exact_dtype(bound: int):
    """The dtype for values of absolute value at most bound."""
    return np.int64 if bound < _INT64_SAFE else object


@lru_cache(maxsize=None)
def _field(n: int) -> tuple:
    """(zeta, tail, rho) for Q(zeta_n): row k of zeta holds the coefficients
    of zeta^k for 0 <= k < n, computed by shift-and-reduce with Phi_n; tail
    holds the coefficients of Phi_n below its leading 1; rho bounds both."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    tail = list(poly[:phi])
    rows, row = [], [1] + [0] * (phi - 1)
    for _ in range(n):
        rows.append(row)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, tail)]
    rho = max(abs(c) for r in rows for c in r)
    zeta, tail = (np.array(x, dtype=_exact_dtype(rho)) for x in (rows, tail))
    zeta.flags.writeable = tail.flags.writeable = False  # shared by every caller
    return zeta, tail, rho


def _mult_blocks(num: np.ndarray, n: int) -> np.ndarray:
    """Multiplication matrices of the entries of num (coefficients on the
    last axis): out[..., u, t] is coefficient u of zeta^t * entry."""
    _, tail, rho = _field(n)
    phi = num.shape[-1]
    # |coefficient of zeta^t * a| <= ||a||_1 * rho; a shift adds a factor rho + 1
    dtype = _exact_dtype(phi * _max_abs(num) * rho * (rho + 1))
    cur, tail = num.astype(dtype), tail.astype(dtype)
    out = np.empty(num.shape + (phi,), dtype=dtype)
    for t in range(phi):
        out[..., t] = cur
        shifted = np.zeros_like(cur)
        shifted[..., 1:] = cur[..., :-1]
        cur = shifted - cur[..., -1:] * tail
    return out


class RepMatrix:
    """Matrices over Q(zeta_n): integer numerators of shape (..., d, d, phi(n))
    on the power basis, over one positive integer denominator.  A stack of
    shape (N, d, d, phi) indexes like a list of N matrices."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num, den: int = 1):
        num = np.asarray(num)
        if num.dtype.kind not in "biuO":
            raise TypeError(f"numerators must be integers, not {num.dtype}")
        if num.dtype != object:
            num = num.astype(np.int64, copy=False)
        if (num.ndim < 3 or num.shape[-3] != num.shape[-2]
                or num.shape[-1] != euler_phi(conductor)):
            raise NotAGroup("matrix is not square over Q(zeta_n)")
        if den < 1:
            raise NotAGroup("denominator must be positive")
        self.conductor = conductor
        self.num = num
        self.den = int(den)

    @staticmethod
    def identity(conductor: int, degree: int) -> "RepMatrix":
        num = np.zeros((degree, degree, euler_phi(conductor)), dtype=np.int64)
        num[np.arange(degree), np.arange(degree), 0] = 1
        return RepMatrix(conductor, num)

    @property
    def degree(self) -> int:
        return self.num.shape[-2]

    def __len__(self) -> int:
        if self.num.ndim < 4:
            raise TypeError("a single matrix is not a stack")
        return self.num.shape[0]

    def __getitem__(self, index) -> "RepMatrix":
        """A matrix of a stack, or a sub-stack by slice or index list."""
        if self.num.ndim < 4:
            raise TypeError("a single matrix is not a stack")
        if isinstance(index, (list, tuple)):
            index = np.asarray(index, dtype=np.intp)
        return RepMatrix(self.conductor, self.num[index], self.den)

    def _check(self, other: "RepMatrix") -> None:
        if self.conductor != other.conductor:
            raise BadConductor(
                f"mixed conductors {self.conductor} and {other.conductor}")
        if self.degree != other.degree:
            raise NotAGroup("matrices of different degrees")

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        """self @ other for one matrix self and a matrix or stack other.

        Block (i, k) of the d*phi x d*phi integer multiplication matrix of
        self has column t = zeta^t * self[i, k]; one matmul applies it to
        every matrix of other."""
        if self.num.ndim != 3:
            raise TypeError("the left factor must be a single matrix")
        self._check(other)
        d, phi = self.degree, self.num.shape[-1]
        block = _mult_blocks(self.num, self.conductor)  # [i, k, u, t]
        block = block.transpose(0, 2, 1, 3).reshape(d * phi, d * phi)
        lead = other.num.shape[:-3]
        rhs = other.num.swapaxes(-1, -2).reshape(lead + (d * phi, d))
        dtype = _exact_dtype(d * phi * _max_abs(block) * _max_abs(other.num))
        out = np.matmul(block.astype(dtype, copy=False),
                        rhs.astype(dtype, copy=False))
        out = out.reshape(lead + (d, phi, d)).swapaxes(-1, -2)
        return RepMatrix(self.conductor, out, self.den * other.den)

    def _common(self, other: "RepMatrix") -> tuple:
        """Numerators of self and other over the lcm of their denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        dtype = _exact_dtype(ka * _max_abs(self.num) + kb * _max_abs(other.num))
        return (self.num.astype(dtype) * ka, other.num.astype(dtype) * kb, den)

    def __eq__(self, other):
        if (not isinstance(other, RepMatrix)
                or self.conductor != other.conductor
                or self.num.shape != other.num.shape):
            return False
        a, b, _ = self._common(other)
        return bool(np.array_equal(a, b))


@dataclass
class Representation:
    """A verified homomorphism into GL_d(Q(zeta_n)); images is the stack of
    the |G| matrices in element order."""

    group: Group
    degree: int
    conductor: int
    images: RepMatrix

    def validate(self) -> None:
        G, images = self.group, self.images
        if (images.num.ndim != 4 or len(images) != G.order
                or images.degree != self.degree
                or images.conductor != self.conductor):
            raise NotAGroup("one matrix per element required")
        if images[0] != RepMatrix.identity(self.conductor, self.degree):
            raise NotAGroup("identity must map to the identity matrix")
        # multiplicativity on gens x G proves it for all pairs by induction
        # on word length.  rho(s) * rho(h) has denominator D^2, so its
        # numerators must equal D times those of rho(sh).
        D = images.den
        step = max(1, _CHUNK // images.num[0].size)
        for s in G.generators():
            left, targets = images[s], G.table[s]
            for start in range(0, G.order, step):
                chunk = slice(start, start + step)
                got = (left * images[chunk]).num
                want = images.num[targets[chunk]]
                want = want.astype(_exact_dtype(D * _max_abs(want))) * D
                ok = (got == want).reshape(len(got), -1).all(axis=1)
                if not ok.all():
                    h = start + int(np.flatnonzero(~ok)[0])
                    raise NotAGroup("representation not multiplicative", (s, h))

    def to_json(self, group_spec: str | None = None) -> dict:
        D = self.images.den
        return {
            "group_spec": group_spec or self.group.origin,
            "degree": self.degree,
            "conductor": self.conductor,
            "images": [
                [
                    [i, j, [str(Fraction(c, D)) for c in entry]]
                    for i, row in enumerate(mat.tolist())
                    for j, entry in enumerate(row)
                    if any(entry)
                ]
                for mat in self.images.num
            ],
        }


@dataclass
class FreenessReport:
    free: bool
    failing_element: Optional[int]


def verify_free(rep: Representation) -> FreenessReport:
    """Free iff sum_{h in C} rho(h) = 0 for every prime-order cyclic C.

    Some g != 1 fixes a vector v != 0 iff a prime-order power of g does,
    and the vectors C fixes are the image of that norm sum divided by |C|.
    A failing C is reported by its smallest nonidentity element."""
    num = rep.images.num
    num = num.astype(_exact_dtype(rep.group.order * _max_abs(num)), copy=False)
    for C in cyclic_subgroups(rep.group):
        if is_prime(len(C)) and np.any(num[list(C.elements)].sum(axis=0)):
            return FreenessReport(False, C.elements[1])
    return FreenessReport(True, None)


# -- constructions -----------------------------------------------------------------


def _discrete_log(G: Group, g: int) -> np.ndarray:
    """k at index g^k for 0 <= k < the order of g, and 0 off <g>."""
    log = np.zeros(G.order, dtype=np.int64)
    powers = _generate(G.table, [g])[0]  # 1, g, g^2, ... in the order reached
    log[powers] = np.arange(len(powers))
    return log


def scalar_representation(C: Group, dim: int = 1) -> Representation:
    """Generator of a cyclic group acts as zeta_N * identity."""
    gen = C.exponent_generator()
    if gen is None:
        raise NotCyclic(f"{C.origin} is not cyclic")
    n = C.order
    zeta = _field(n)[0]
    num = np.zeros((n, dim, dim, zeta.shape[1]), dtype=zeta.dtype)
    diag = np.arange(dim)
    num[:, diag, diag] = zeta[_discrete_log(C, gen)][:, None, :]
    rep = Representation(C, dim, n, RepMatrix(n, num))
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
    dlog = _discrete_log(G, gen)
    reps, coset_of = left_cosets(G, H.elements)
    t = len(reps)
    # g * reps[i] = reps[j] * h puts zeta^(e * dlog h) at (j, i) of rho(g)
    prods = G.table[:, reps]
    js = coset_of[prods]
    hs = G.table[G.inverse[reps[js]], prods]
    zeta = _field(m)[0]
    num = np.zeros((G.order, t, t, zeta.shape[1]), dtype=zeta.dtype)
    num[np.arange(G.order)[:, None], js, np.arange(t)[None, :]] = \
        zeta[(character_exponent * dlog[hs]) % m]
    rep = Representation(G, t, m, RepMatrix(m, num))
    rep.validate()
    return rep


# quadratic-field tag -> (conductor n, sqrt(tag) as {power of zeta_n: coefficient}):
# sqrt2 = zeta8 + zeta8^-1, sqrt5 = 1 + 2*(zeta5 + zeta5^-1) with zeta5 = zeta20^4
_SQRT = {1: (4, {}), 2: (8, {1: 1, -1: 1}), 5: (20, {0: 1, 4: 2, -4: 2})}


def quaternion_embedding_rep(G: Group) -> Representation:
    """q = a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]] over Q(zeta_4/8/20)."""
    if G.quaternions is None:
        raise NoQuaternionLabels(f"{G.origin} carries no quaternion labels")
    n, sqrt_terms = _SQRT[G.quaternions[0].d]
    zeta = _field(n)[0].astype(object)
    root = np.zeros_like(zeta[0])
    for power, c in sqrt_terms.items():
        root = root + c * zeta[power % n]
    # component u + v*sqrt(tag) of each quaternion, over one denominator
    parts = [(c.a, c.b) for q in G.quaternions for c in (q.w, q.x, q.y, q.z)]
    den = lcm(1, *(f.denominator for uv in parts for f in uv))
    uv = np.array([[int(u * den), int(v * den)] for u, v in parts], dtype=object)
    a, b, c, d = (uv @ np.stack([zeta[0], root])).reshape(
        len(G.quaternions), 4, -1).swapaxes(0, 1)
    imag = _mult_blocks(zeta[n // 4], n).T  # v @ imag is zeta_4 * v
    bi, di = b @ imag, d @ imag
    num = np.stack([np.stack([a + bi, c + di], axis=1),
                    np.stack([di - c, a - bi], axis=1)], axis=1)
    num = num.astype(_exact_dtype(_max_abs(num)))
    rep = Representation(G, 2, n, RepMatrix(n, num, den))
    rep.validate()
    return rep


def _lift(images: RepMatrix, n: int) -> np.ndarray:
    """Numerators of images under Q(zeta_m) -> Q(zeta_n), zeta_m = zeta_n^(n/m):
    one integer matrix whose row i is the coefficient row of zeta_n^(i n/m)."""
    m = images.conductor
    if m == n:
        return images.num
    zeta, _, rho = _field(n)
    phi_m = images.num.shape[-1]
    lift = zeta[np.arange(phi_m) * (n // m)]
    dtype = _exact_dtype(phi_m * _max_abs(images.num) * rho)
    return images.num.astype(dtype) @ lift.astype(dtype)


def _entry_products(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Every product of an entry of x with an entry of y in Q(zeta_n), through
    the multiplication blocks of x: shape x.shape + y.shape[:-1]."""
    blocks = _mult_blocks(x, n)
    phi = x.shape[-1]
    dtype = _exact_dtype(phi * _max_abs(blocks) * _max_abs(y))
    out = (blocks.reshape(-1, phi).astype(dtype, copy=False)
           @ y.reshape(-1, phi).T.astype(dtype, copy=False))
    return out.reshape(x.shape + y.shape[:-1])


def _kronecker(a: RepMatrix, b: RepMatrix) -> RepMatrix:
    """The stack of a[x] (x) b[y] at index x * len(b) + y, over Q(zeta_n) for
    n the lcm of the two conductors."""
    n = lcm(a.conductor, b.conductor)
    num_a, num_b = _lift(a, n), _lift(b, n)
    # entry (i1 db + i2, j1 db + j2) of the product at x nb + y is
    # a[x,i1,j1] * b[y,i2,j2]; the multiplication blocks are built for the
    # stack with fewer entries
    if num_a.size <= num_b.size:
        out = _entry_products(num_a, num_b, n).transpose(0, 4, 1, 5, 2, 6, 3)
    else:
        out = _entry_products(num_b, num_a, n).transpose(4, 0, 5, 1, 6, 2, 3)
    degree = a.degree * b.degree
    num = out.reshape(len(a) * len(b), degree, degree, -1)
    return RepMatrix(n, num, a.den * b.den)


def tensor_product_rep(rep_a: Representation, rep_b: Representation,
                       product: Group) -> Representation:
    """Kronecker-product representation of A x B for coprime |A|, |B| on
    product, their direct_product."""
    A, B = rep_a.group, rep_b.group
    if gcd(A.order, B.order) != 1:
        raise NotCoprime(f"|A| = {A.order} and |B| = {B.order} share a factor")
    if product.factors is None or product.factors[0] is not A \
            or product.factors[1] is not B:
        raise NotAGroup("tensor target must be the direct product of A and B")
    images = _kronecker(rep_a.images, rep_b.images)
    rep = Representation(product, images.degree, images.conductor, images)
    rep.validate()
    return rep


# -- helpers -----------------------------------------------------------------------


def prime_order_hull(G: Group) -> Subgroup:
    """Subgroup generated by all elements of prime order."""
    orders = G.element_orders()
    gens = [g for g in range(1, G.order) if is_prime(orders[g])]
    return subgroup_generated(G, gens)


def build_free_representation(G: Group) -> Optional[Representation]:
    """Dispatch on the group's shape; any returned representation passes
    verify_free.  Returns None for shapes without a constructive route:
    non-solvable groups (2I, SL2(5), prod(C7,SL2(5))), the binary
    tetrahedral type with 9 | |G|, and the binary octahedral type without
    quaternion labels."""
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
        if not any(orders[h] == len(hull) for h in hull.elements):
            raise InvariantViolated(
                f"{G.origin}: prime-order hull of a freely representable "
                "group must be cyclic")
        return induced_representation(G, hull, 1)
    if ctype == BINARY_TETRAHEDRAL_TYPE and G.order % 9 != 0:
        return _binary_tetrahedral_rep(G, odd_core(G))
    return None


def _binary_tetrahedral_rep(G: Group, core: Subgroup) -> Representation:
    """G = O(G) x H with H iso 2T (order prime to 9): rho(o*h) is rho_O(o)
    tensored with the quaternion model of 2T at the image of h under
    _to_hurwitz_model."""
    from .quaternions import finite_quaternion_group, \
        hurwitz_tetrahedral_generators

    Q8 = sylow_subgroup(G, 2)
    C3 = sylow_subgroup(G, 3)
    H = subgroup_generated(G, list(Q8.elements) + list(C3.elements))
    # where[o_i * h_j] = i * 24 + j: G must be the bijective image of O(G) x H
    products = G.table[np.ix_(core.elements, H.elements)].ravel()
    where = np.full(G.order, -1, dtype=np.int64)
    where[products] = np.arange(products.size)
    if len(H) != 24 or len(core) * 24 != G.order or (where < 0).any():
        raise InvariantViolated(
            f"{G.origin}: not the direct product of its odd core and a "
            "subgroup of order 24")
    OG = core.as_group()
    rep_o = build_free_representation(OG)
    if rep_o is None:
        raise InvariantViolated(f"{OG.origin}: odd core has no representation")
    model = finite_quaternion_group(hurwitz_tetrahedral_generators())
    to_model = _to_hurwitz_model(H.as_group(), model)
    images_h = quaternion_embedding_rep(model).images[to_model.map]
    images = _kronecker(rep_o.images, images_h)[where]
    rep = Representation(G, images.degree, images.conductor, images)
    rep.validate()
    return rep


def _to_hurwitz_model(H: Group, model: Group) -> Homomorphism:
    """An isomorphism H -> model of two copies of 2T, fixed by the images of
    x, the first element of H of order 6, and y, the first of order 6
    outside <x> (together they generate 2T): the earliest pair of model
    elements of order 6, in conjugacy class order, whose map carried along
    the breadth-first tree of H over {x, y} is injective and multiplicative.
    That rule fixes the witnesses printed by `represent --json`."""
    orders, model_orders = H.element_orders(), model.element_orders()
    sixes = [g for g in H.elements() if orders[g] == 6]
    powers = subgroup_generated(H, sixes[:1])
    y = next((g for g in sixes if g not in powers), None)
    not_2t = InvariantViolated(f"{H.origin}: order-24 subgroup is not 2T")
    if y is None:
        raise not_2t
    perms = H.table[[sixes[0], y]]
    try:
        levels = list(_levels(perms))
    except InvariantViolated:
        raise not_2t from None
    candidates = [h for cls in model.conjugacy_classes() for h in cls
                  if model_orders[h] == 6]
    for a in candidates:
        for b in candidates:
            phi = carry(model, perms, levels, [a, b])
            if phi is not None:
                return Homomorphism(H, model, phi)
    raise not_2t
