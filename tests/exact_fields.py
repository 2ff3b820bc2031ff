"""The Fraction-object copies of the two exact algebras, kept as oracles for
the integer arrays the program computes on.

CyclotomicNumber is an element of Q(zeta_n) as a vector of phi(n) Fractions
reduced modulo Phi_n; entries and det read a RepMatrix through it, and add,
sub, is_zero and matrices are the matrix operations only the tests use.
GroupAlgebraElement is an element of Q[G] as a dense length-|G| vector of
Fractions; element and sparse convert between it and the {g: coefficient}
map of a certificate term, and contains asks a NormIdealBasis about it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from freerep.cyclotomic import cyclotomic_polynomial, euler_phi
from freerep.errors import BadConductor, ParentMismatch
from freerep.groups import Group, Subgroup
from freerep.normrel import NormIdealBasis
from freerep.represent import RepMatrix

ZERO = Fraction(0)
ONE = Fraction(1)


# -- Q(zeta_n) -------------------------------------------------------------------

class _Context:
    """Per-conductor reduction machinery (memoized)."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        poly = cyclotomic_polynomial(n)
        # Phi_n is monic; reduction row for x^phi
        self.head = [Fraction(-c) for c in poly[: self.phi]]
        self.rows = [None] * self.phi  # x^k for k < phi are basis vectors
        self._extend_to(2 * self.phi - 2)

    def _extend_to(self, k: int) -> None:
        """Reduction rows for x^e, phi <= e <= k."""
        while len(self.rows) <= k:
            prev = self.row(len(self.rows) - 1)
            shifted = [ZERO] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                shifted = [s + lead * h for s, h in zip(shifted, self.head)]
            self.rows.append(shifted)

    def row(self, e: int) -> list:
        if e < self.phi:
            out = [ZERO] * self.phi
            out[e] = ONE
            return out
        self._extend_to(e)
        return self.rows[e]

    def reduce(self, coeffs: list) -> list:
        """Reduce a polynomial (ascending, any length) modulo Phi_n."""
        out = list(coeffs[: self.phi]) + [ZERO] * max(0, self.phi - len(coeffs))
        for e in range(self.phi, len(coeffs)):
            c = coeffs[e]
            if c:
                row = self.row(e)
                out = [a + c * b for a, b in zip(out, row)]
        return out


_contexts: dict = {}


def _context(n: int) -> _Context:
    if n not in _contexts:
        if n < 1:
            raise BadConductor(f"conductor must be positive, got {n}")
        _contexts[n] = _Context(n)
    return _contexts[n]


class CyclotomicNumber:
    """Element of Q(zeta_n), stored reduced modulo Phi_n."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        ctx = _context(conductor)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != ctx.phi:
            coeffs = ctx.reduce(coeffs)
        self.conductor = conductor
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber(n, [ZERO] * _context(n).phi)

    @staticmethod
    def one(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber.rational(n, ONE)

    @staticmethod
    def rational(n: int, value) -> "CyclotomicNumber":
        ctx = _context(n)
        coeffs = [ZERO] * ctx.phi
        coeffs[0] = Fraction(value)
        return CyclotomicNumber(n, coeffs)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CyclotomicNumber":
        ctx = _context(n)
        e = power % n
        return CyclotomicNumber(n, list(ctx.row(e)))

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.conductor != other.conductor:
            raise BadConductor(
                f"mixed conductors {self.conductor} and {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicNumber(self.conductor,
                                    [c * a for a in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CyclotomicNumber(self.conductor, _context(self.conductor).reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Extended Euclid against Phi_n (irreducible over Q, so gcd = 1)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic number is zero")
        n = self.conductor
        mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [ZERO], [ONE]
        while _degree(r1) > 0:
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        lead = r1[_degree(r1)]
        inv_coeffs = [c / lead for c in s1]
        return CyclotomicNumber(n, _context(n).reduce(inv_coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lift(self, m: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m) via zeta_n = zeta_m^(m/n)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise BadConductor(f"{n} does not divide {m}")
        step = m // n
        out = CyclotomicNumber.zero(m)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + c * CyclotomicNumber.zeta(m, i * step)
        return out

    def __eq__(self, other):
        return (isinstance(other, CyclotomicNumber)
                and self.conductor == other.conductor
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(str(c) if i == 0 else
                             (f"{c}*z{self.conductor}^{i}" if i > 1
                              else f"{c}*z{self.conductor}"))
        return " + ".join(terms)


def _degree(p: list) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _polydivmod(num: list, den: list) -> tuple:
    num = list(num)
    dd = _degree(den)
    lead = den[dd]
    q = [ZERO] * max(1, len(num) - dd)
    for k in range(_degree(num), dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        f = c / lead
        q[k - dd] = f
        for i in range(dd + 1):
            num[k - dd + i] -= f * den[i]
    return q, num


def _polymul(a: list, b: list) -> list:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _polysub(a: list, b: list) -> list:
    size = max(len(a), len(b))
    a = list(a) + [ZERO] * (size - len(a))
    b = list(b) + [ZERO] * (size - len(b))
    return [x - y for x, y in zip(a, b)]


# -- matrices over Q(zeta_n) -----------------------------------------------------


def matrices(stack: RepMatrix):
    """The matrices of a stack, in order."""
    return (stack[i] for i in range(len(stack)))


def entries(m: RepMatrix) -> list:
    """The entries of a single matrix, as CyclotomicNumbers."""
    if m.num.ndim != 3:
        raise TypeError("entries are read from a single matrix")
    return [[CyclotomicNumber(m.conductor,
                              [Fraction(c, m.den) for c in coeffs])
             for coeffs in row] for row in m.num.tolist()]


def add(a: RepMatrix, b: RepMatrix) -> RepMatrix:
    x, y, den = a._common(b)
    return RepMatrix(a.conductor, x + y, den)


def sub(a: RepMatrix, b: RepMatrix) -> RepMatrix:
    x, y, den = a._common(b)
    return RepMatrix(a.conductor, x - y, den)


def is_zero(m: RepMatrix) -> bool:
    return not np.any(m.num)


def det(m: RepMatrix) -> CyclotomicNumber:
    """Exact determinant of a single matrix by fraction-full Gaussian
    elimination over CyclotomicNumber (the freeness tests' reference for
    verify_free's norm-sum criterion)."""
    conductor, d = m.conductor, m.degree
    m = entries(m)
    det = CyclotomicNumber.one(conductor)
    sign = 1
    for col in range(d):
        pivot = next((r for r in range(col, d) if not m[r][col].is_zero()),
                     None)
        if pivot is None:
            return CyclotomicNumber.zero(conductor)
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


# -- Q[G] ------------------------------------------------------------------------


class GroupAlgebraElement:
    """Element of Q[G] as a dense length-|G| vector of exact rationals."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: Group, coeffs=None):
        self.parent = parent
        if coeffs is None:
            self.coeffs = [ZERO] * parent.order
        else:
            self.coeffs = [Fraction(c) for c in coeffs]
            if len(self.coeffs) != parent.order:
                raise ParentMismatch("coefficient vector has wrong length")

    @staticmethod
    def unit(parent: Group) -> "GroupAlgebraElement":
        x = GroupAlgebraElement(parent)
        x.coeffs[0] = ONE
        return x

    @staticmethod
    def of_element(parent: Group, g: int, coeff=ONE) -> "GroupAlgebraElement":
        x = GroupAlgebraElement(parent)
        x.coeffs[g] = Fraction(coeff)
        return x

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.parent is not other.parent:
            raise ParentMismatch("elements of different group algebras")

    def __add__(self, other):
        self._check(other)
        return GroupAlgebraElement(
            self.parent, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return GroupAlgebraElement(
            self.parent, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c) -> "GroupAlgebraElement":
        c = Fraction(c)
        return GroupAlgebraElement(self.parent, [c * a for a in self.coeffs])

    def __mul__(self, other):
        """Convolution product: sum of x_g y_h on gh."""
        self._check(other)
        out = [ZERO] * self.parent.order
        support = self.support()
        other_support = other.support()
        products = self.parent.table[np.ix_(support, other_support)].tolist()
        for g, row in zip(support, products):
            cg = self.coeffs[g]
            for h, gh in zip(other_support, row):
                out[gh] += cg * other.coeffs[h]
        return GroupAlgebraElement(self.parent, out)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.parent is other.parent
                and self.coeffs == other.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def support(self) -> list:
        return [g for g, c in enumerate(self.coeffs) if c]

    def __repr__(self):
        terms = [f"{c}*{self.parent.label(g)}"
                 for g, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def norm_element(H: Subgroup) -> GroupAlgebraElement:
    """N(H): coefficient 1 on each element of H, 0 elsewhere."""
    x = GroupAlgebraElement(H.parent)
    for g in H.elements:
        x.coeffs[g] = ONE
    return x


def element(G: Group, coeff: dict) -> GroupAlgebraElement:
    """The element sum of c * g of a certificate term's {g: c} map."""
    x = GroupAlgebraElement(G)
    for g, c in coeff.items():
        x.coeffs[g] = Fraction(c)
    return x


def sparse(x: GroupAlgebraElement) -> dict:
    """The {g: c} map of the nonzero coefficients of x, ascending in g."""
    return {g: c for g, c in enumerate(x.coeffs) if c}


def contains(basis: NormIdealBasis, x: GroupAlgebraElement) -> bool:
    scale = lcm(*(c.denominator for c in x.coeffs))
    v = np.array([[c.numerator * (scale // c.denominator)
                   for c in x.coeffs]], dtype=object)
    return bool(basis.spans(v)[0])
