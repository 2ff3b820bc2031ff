"""Constructors for the named groups: cyclic, dihedral, dicyclic/quaternion,
cyclic semidirect products, direct products, SL2(F_p), binary polyhedral.

The two-generator families (dihedral, dicyclic, semidirect, SL2) are filled
from their generators' permutations by groups.table_from_generators."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .cyclotomic import is_prime
from .errors import BadParams, BadSize, InvariantViolated
from .groups import (ORDER_CAP, Group, commutator_subgroup, sl2_elements,
                     subgroup_generated, table_from_generators)
from .run import check_order


def cyclic(n: int) -> Group:
    if n < 1:
        raise BadParams("cyclic order must be >= 1")
    check_order(n, ORDER_CAP, "cyclic")
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    return Group(table, labels=labels, origin=f"C{n}")


def _presentation_table(m: int, n: int, r: int, s: int, strides: tuple) -> np.ndarray:
    """Cayley table of <a, b | a^m = 1, b^n = a^s, b a b^-1 = a^r> on the
    normal forms a^i b^j, element i*strides[0] + j*strides[1]: the left
    multiplications a * a^i b^j = a^(i+1) b^j and b * a^i b^j = a^(ir) b^(j+1),
    with b^n = a^s, handed to table_from_generators."""
    i = np.arange(m)[:, None]
    j = np.arange(n)[None, :]

    def index(x, y):
        return x % m * strides[0] + y % n * strides[1]

    perms = np.empty((2, m * n), dtype=np.int32)
    perms[:, index(i, j)] = [index(i + 1, j), index(i * r + s * (j == n - 1), j + 1)]
    return table_from_generators(perms)


def dihedral(n: int) -> Group:
    """Dihedral group of order 2n: rho^n = 1, tau^2 = 1, tau rho tau = rho^-1."""
    if n < 2:
        raise BadParams("dihedral parameter must be >= 2")
    check_order(2 * n, ORDER_CAP, "dihedral")
    # element i + n*j  <->  rho^i tau^j
    table = _presentation_table(n, 2, -1, 0, (1, n))
    labels = [f"r^{a}t" if b else f"r^{a}" for b in (0, 1) for a in range(n)]
    labels[0] = "e"
    return Group(table, labels=labels, origin=f"D{n}")


def direct_product(G: Group, H: Group) -> Group:
    """Direct product with element (a, b) encoded as a*|H| + b."""
    order = G.order * H.order
    check_order(order, ORDER_CAP, "direct_product")
    a, b = np.divmod(np.arange(order, dtype=np.int32), H.order)
    table = G.table[np.ix_(a, a)]
    table *= H.order
    table += H.table[np.ix_(b, b)]
    labels = None
    if G.labels and H.labels:
        labels = [f"({G.label(int(x))},{H.label(int(y))})" for x, y in zip(a, b)]
    P = Group(table, labels=labels, origin=f"prod({G.origin},{H.origin})")
    P.factors = (G, H)
    return P


def dicyclic(m: int) -> Group:
    """Dicyclic group of order 4m on a cyclic part of order 2m:
    R^(2m) = 1, T^2 = R^m, T R T^-1 = R^-1."""
    if m < 1:
        raise BadParams("dicyclic parameter must be >= 1")
    n2 = 2 * m  # order of <R>
    order = 4 * m
    check_order(order, ORDER_CAP, "dicyclic")
    # element i + 2m*j  <->  R^i T^j
    table = _presentation_table(n2, 2, -1, m, (1, n2))
    labels = [f"R^{a}T" if b else f"R^{a}" for b in (0, 1) for a in range(n2)]
    labels[0] = "e"
    labels[n2] = "T"
    labels[1] = "R"
    G = Group(table, labels=labels, origin=f"dicyclic({order})")
    if G.element_orders().count(2) != 1:
        raise InvariantViolated("dicyclic group must have a unique involution")
    return G


def generalized_quaternion(size: int) -> Group:
    """Generalized quaternion group of order 2^k, k >= 3.

    Presentation: R^(2^(k-1)) = 1, T^2 = R^(2^(k-2)), T R T^-1 = R^-1;
    exactly one element of order 2.
    """
    if size < 8 or size & (size - 1):
        raise BadSize("generalized quaternion size must be a power of 2, >= 8")
    G = dicyclic(size // 4)
    G.origin = f"Q{size}"
    return G


@dataclass(frozen=True)
class SemidirectParams:
    """C_m x| C_n with b a b^-1 = a^r (r of order dividing n mod m)."""

    m: int
    n: int
    r: int

    def validate(self) -> None:
        if self.m < 1 or self.n < 1:
            raise BadParams("factor orders must be positive")
        if gcd(self.m, self.n) != 1:
            raise BadParams(f"gcd(m,n) = {gcd(self.m, self.n)} != 1")
        if not 1 <= self.r < max(self.m, 2):
            raise BadParams(f"action exponent r={self.r} outside [1, m)")
        if gcd(self.r, self.m) != 1:
            raise BadParams(f"gcd(r,m) = {gcd(self.r, self.m)} != 1")
        if pow(self.r, self.n, self.m) % self.m != 1 % self.m:
            raise BadParams(f"r^n = {pow(self.r, self.n, self.m)} != 1 mod m")


def semidirect_cyclic(params: SemidirectParams) -> Group:
    """Cyclic semidirect product of order m*n on pairs (a^i, b^j)."""
    params.validate()
    m, n, r = params.m, params.n, params.r
    check_order(m * n, ORDER_CAP, "semidirect_cyclic")
    # element i*n + j  <->  a^i b^j
    table = _presentation_table(m, n, r, 0, (n, 1))
    labels = [f"a^{x}b^{y}" for x in range(m) for y in range(n)]
    labels[0] = "e"
    G = Group(table, labels=labels, origin=f"sd({m},{n},{r})")
    # postcondition: commutator subgroup is <a^(r-1)>
    expected = subgroup_generated(G, [((r - 1) % m) * n])
    if commutator_subgroup(G).elset != expected.elset:
        raise InvariantViolated("semidirect commutator subgroup mismatch")
    return G


def sd(m: int, n: int, r: int) -> Group:
    return semidirect_cyclic(SemidirectParams(m, n, r))


def sl2(p: int) -> Group:
    """SL2(F_p): determinant-1 2x2 matrices over F_p; order (p-1)p(p+1)."""
    if not is_prime(p):
        raise BadParams(f"{p} is not prime")
    check_order((p - 1) * p * (p + 1), ORDER_CAP, "sl2")
    mats, perms = sl2_elements(p)
    labels = [f"[[{w},{x}],[{y},{z}]]" for w, x, y, z in mats]
    return Group(table_from_generators(perms), labels=labels, origin=f"SL2({p})")


def binary_polyhedral(kind: str, n: int | None = None) -> Group:
    """2T, 2O, 2I, or binary dihedral 2D_n.

    2T and 2I are delivered as SL2(F_3) and SL2(F_5); 2O is generated from
    exact unit quaternions over Q(sqrt 2), each element kept as one key of
    ten integers (see quaternions); 2D_n uses the dicyclic
    presentation (R^(2n) = 1, T^2 = R^n, T R T^-1 = R^-1), order 4n.
    """
    kind = kind.upper()
    if kind == "2T":
        G = sl2(3)
        G.origin = "2T"
        return G
    if kind == "2I":
        G = sl2(5)
        G.origin = "2I"
        return G
    if kind == "2O":
        from .quaternions import binary_octahedral_generators, finite_quaternion_group

        G = finite_quaternion_group(binary_octahedral_generators())
        G.origin = "2O"
        if G.order != 48:
            raise InvariantViolated(f"2O closed with {G.order} elements")
        return G
    if kind == "2D":
        if n is None or n < 2:
            raise BadParams("2D_n requires n >= 2")
        G = dicyclic(n)
        G.origin = f"2D{n}"
        return G
    raise BadParams(f"unknown binary polyhedral kind {kind!r}")
