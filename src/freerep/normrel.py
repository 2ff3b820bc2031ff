"""Norm-relation-of-unity certificates: decide whether 1 lies in the left
ideal of Q[G] generated by nontrivial subgroup norms, and emit
machine-verifiable witnesses.  An element of Q[G] is an integer vector of
length |G| over one denominator; a certificate term is a subgroup and the
{g: coefficient} map of the nonzero coefficients of its left factor.

The ideal is eliminated modulo a prime below 2**26 and every answer is then
proved over Q with integer arithmetic: a certificate is reconstructed and
re-multiplied exactly; "no relation" is proved by reconstructing the echelon
basis and checking that every generator lies in its row space and 1 does
not."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import Optional

import numpy as np

from .cyclotomic import is_prime
from .errors import InvariantViolated, NotAPartition, ParentMismatch
from .groups import Group, cyclic_subgroups, full_subgroup, left_cosets
from .run import check_deadline, check_order

NORM_RELATION_CAP = 256

@dataclass
class NormRelationCertificate:
    """1 = sum of left_coefficient * N(subgroup), re-verified exactly."""

    group: Group
    terms: list  # of (Subgroup, {g: nonzero Fraction})
    verified: bool = False

    def verify(self) -> bool:
        """Is sum of coeff * N(sub) exactly 1?  Over one common denominator
        L: L * coeff is integer on its support g, and adds to the cells
        g * sub of one integer vector, which must be L at 1 and 0 elsewhere."""
        n = self.group.order
        for sub, coeff in self.terms:
            if sub.parent is not self.group:
                raise ParentMismatch("certificate term bound to wrong group")
            if not all(isinstance(g, (int, np.integer)) and not isinstance(g, bool)
                       and 0 <= g < n for g in coeff):
                raise ParentMismatch("coefficient key is not an element")
            if len(sub) == 1:
                self.verified = False
                return False
        L = lcm(*(c.denominator for _, coeff in self.terms
                  for c in coeff.values()))
        scaled = [[(g, c.numerator * (L // c.denominator))
                   for g, c in coeff.items()]
                  for _, coeff in self.terms]
        # |total[x]| is at most the sum of |L * c| over all terms
        mass = sum(abs(a) for pairs in scaled for _, a in pairs)
        total = np.zeros(n, dtype=np.int64 if max(mass, L) < 2 ** 63 else object)
        for (sub, _), pairs in zip(self.terms, scaled):
            if pairs:
                support, values = zip(*pairs)
                cells = self.group.table[np.ix_(support, sub.elements)]
                np.add.at(total, cells,
                          np.array(values, dtype=total.dtype)[:, None])
        self.verified = bool(total[0] == L and np.count_nonzero(total) == 1)
        return self.verified

    def to_json(self, group_spec: str | None = None) -> dict:
        return {
            "group_spec": group_spec or self.group.origin,
            "terms": [
                {
                    "subgroup_elements": list(sub.elements),
                    "coefficient": [[g, f"{c.numerator}/{c.denominator}"]
                                    for g, c in sorted(coeff.items())],
                }
                for sub, coeff in self.terms
            ],
            "verified": self.verified,
        }


@dataclass
class NormRelationOutcome:
    """find_norm_relation result: a certificate or absence + ideal dimension."""

    certificate: Optional[NormRelationCertificate]
    ideal_dimension: int


# Entries one gather of NormIdealBasis.spans_cosets may hold.
GATHER_ENTRIES = 2 ** 18


class NormIdealBasis:
    """Proved reduced echelon basis of the left ideal J spanned by {g * N(C)},
    C ranging over the prime-order cyclic subgroups: `rows` is the integer
    matrix denominator * R, where the rational matrix R has the identity at
    the `pivots` columns and its row space is exactly J."""

    def __init__(self, group: Group, pivots: list, denominator: int,
                 rows: np.ndarray):
        self.group = group
        self.pivots = pivots
        self.denominator = denominator
        self.rows = rows

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def spans(self, vectors: np.ndarray) -> np.ndarray:
        """Per row v of an integer matrix: is v in the row space of R?
        It is iff v = v[pivots] @ R, i.e. D*v == v[pivots] @ (D*R)."""
        return (vectors[:, self.pivots] @ self.rows
                == self.denominator * vectors).all(axis=1)

    def spans_cosets(self, cosets: list) -> bool:
        """Is the 0/1 vector v of every coset in the row space of R?  With
        D*I at the pivots, v[pivots] @ (D*R) is the sum of the rows whose
        pivot lies in the coset: one gather per block of same-size cosets,
        from the rows and one zero row standing for the other columns."""
        n, r = self.group.order, self.dimension
        padded = np.vstack([self.rows,
                            np.zeros((1, n), dtype=self.rows.dtype)])
        row_of = np.full(n, r)
        row_of[self.pivots] = np.arange(r)
        by_size: dict = {}
        for coset in cosets:
            by_size.setdefault(len(coset), []).append(coset)
        for size, same in by_size.items():
            step = max(1, GATHER_ENTRIES // (size * n))
            for i in range(0, len(same), step):
                block = np.array(same[i:i + step])
                scaled = np.zeros((len(block), n), dtype=padded.dtype)
                scaled[np.arange(len(block))[:, None], block] = \
                    self.denominator
                if not np.array_equal(padded[row_of[block]].sum(axis=1),
                                      scaled):
                    return False
        return True

# Residues stay below 2**26, so a product of two stays below 2**52 and
# REDUCE_EVERY rank-1 updates of them, left unreduced, stay below 2**62.
# 2**26 - 5 is prime.
MODULUS_LIMIT = 2 ** 26 - 4
REDUCE_EVERY = 2 ** 9


@dataclass
class _Echelon:
    """Fully reduced row echelon form mod p of the generators fed so far:
    rows[i] = sum_k combos[i, k] * (generator chosen[k]) mod p, with 1 at
    column pivots[i] and 0 at every other pivot column."""

    p: int
    chosen: list  # stream positions of the generators that raised the rank
    pivots: list
    rows: np.ndarray  # rank x n
    combos: np.ndarray  # rank x rank
    unit_row: Optional[int]  # the row equal to 1, once 1 is in the span


def _generator_stream(G: Group, subgroups: list) -> list:
    """Every generator g * N(C) as (subgroup index, g, elements of gC), with g
    the least element of its left coset, taken round-robin across the
    subgroups so the rank grows quickly."""
    per_subgroup = []
    for C in subgroups:
        reps = left_cosets(G, C.elements)[0]
        cosets = G.table[np.ix_(reps, C.elements)]
        per_subgroup.append(list(zip(reps.tolist(), cosets)))
    stream = []
    for depth in range(max(map(len, per_subgroup), default=0)):
        for ci, gens in enumerate(per_subgroup):
            if depth < len(gens):
                stream.append((ci, *gens[depth]))
    return stream


def _eliminate(stream: list, n: int, p: int, stop_at_unit: bool) -> _Echelon:
    """Feed the stream into a fully reduced echelon form mod p.  A generator
    is reduced against the rows whose pivot lies in its coset; inserting it
    is one rank-1 update of the rows and of their combinations.  The updates
    skip the reduction mod p: entries are reduced where they are read, and
    all of them every REDUCE_EVERY updates and at the end."""
    rows = np.zeros((n, n), dtype=np.int64)
    combos = np.zeros((n, n), dtype=np.int64)
    row_of = np.full(n, -1)  # pivot column -> row
    chosen: list = []
    pivots: list = []
    unit_row = None
    for pos, (_, _, coset) in enumerate(stream):
        check_deadline()
        hit = row_of[coset]
        hit = hit[hit >= 0]
        w = -(rows[hit] % p).sum(axis=0)
        w[coset] += 1
        w %= p
        support = np.flatnonzero(w)
        if not support.size:
            continue
        r, col = len(pivots), int(support[0])
        inv = pow(int(w[col]), -1, p)
        w = w * inv % p
        k = -(combos[hit, :r + 1] % p).sum(axis=0)
        k[r] += 1
        k = k % p * inv % p
        f = rows[:r, col] % p
        touched = np.flatnonzero(f)
        f = f[touched, None]
        rows[touched] -= f * w
        combos[touched, :r + 1] -= f * k
        rows[r], combos[r, :r + 1] = w, k
        row_of[col] = r
        chosen.append(pos)
        pivots.append(col)
        if (r + 1) % REDUCE_EVERY == 0:
            rows[:r] %= p
            combos[:r, :r + 1] %= p
        if stop_at_unit and row_of[0] >= 0 \
                and np.count_nonzero(rows[row_of[0]] % p) == 1:
            unit_row = int(row_of[0])
            break
    r = len(pivots)
    return _Echelon(p, chosen, pivots, rows[:r] % p, combos[:r, :r] % p,
                    unit_row)


def _rational(a: int, m: int) -> Optional[Fraction]:
    """The fraction u/v = a mod m with |u|, v <= sqrt(m/2), or None
    (Wang's rational reconstruction by the half-extended Euclid)."""
    bound = isqrt((m - 1) // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _rational_matrix(residues: np.ndarray, m: int) -> Optional[tuple]:
    """(D, D*X) for the rational matrix X = residues mod m, D the least
    common denominator; D*X is int64 when every product of one of its
    entries with a 0/1 vector fits, else Python integers.  None when some
    entry has no reconstruction."""
    distinct, where = np.unique(residues.ravel(), return_inverse=True)
    fracs = [_rational(int(a), m) for a in distinct.tolist()]
    if any(f is None for f in fracs):
        return None
    D = lcm(*(f.denominator for f in fracs))
    scaled = [f.numerator * (D // f.denominator) for f in fracs]
    biggest = max(map(abs, scaled), default=0)
    dtype = np.int64 if max(biggest, D) * (residues.shape[-1] + 1) < 2 ** 63 \
        else object
    return D, np.array(scaled, dtype=dtype)[where].reshape(residues.shape)


def _crt(a: np.ndarray, m: int, b: np.ndarray, p: int) -> np.ndarray:
    """The residues mod m*p that are a mod m and b mod p."""
    a = a.astype(object)
    return a + m * ((b.astype(object) - a) * pow(m, -1, p) % p)


def _chosen_product(stream: list, ech: _Echelon) -> np.ndarray:
    """combos @ V for the 0/1 matrix V of the chosen generators, as a
    scatter-add of combos columns over their cosets: the chosen cosets of
    one subgroup are disjoint.  Entries stay below 2**26 * |G|."""
    by_subgroup: dict = {}
    for k, pos in enumerate(ech.chosen):
        by_subgroup.setdefault(stream[pos][0], []).append(k)
    out = np.zeros(ech.rows.shape, dtype=np.int64)
    for ks in by_subgroup.values():
        cosets = np.array([stream[ech.chosen[k]][2] for k in ks])
        out[:, cosets.ravel()] += np.repeat(ech.combos[:, ks],
                                            cosets.shape[1], axis=1)
    return out


def _proves(basis: NormIdealBasis, stream: list, ech: _Echelon,
            exclude_unit: bool) -> bool:
    """Exact checks that J is the row space of the basis (and, if asked,
    that 1 is not in J)."""
    r, piv = len(ech.pivots), ech.pivots
    # 1. The chosen generators are independent mod p, hence over Q:
    #    rank J >= r.
    if not (np.array_equal(_chosen_product(stream, ech) % ech.p, ech.rows)
            and np.array_equal(ech.rows[:, piv], np.eye(r, dtype=np.int64))):
        return False
    # 2. R has the identity at the pivots and every generator lies in its
    #    row space: J is inside a space of dimension r, so equal to it.
    if basis.pivots != piv or not np.array_equal(
            basis.rows[:, piv], np.diag([basis.denominator] * r)):
        return False
    if not basis.spans_cosets([coset for _, _, coset in stream]):
        return False
    # 3. 1 is not in the row space, hence not in J.
    unit = np.zeros((1, basis.group.order), dtype=basis.rows.dtype)
    unit[0, 0] = 1
    return not (exclude_unit and basis.spans(unit)[0])


def _certificate(G: Group, subgroups: list, stream: list, chosen: list,
                 residues: np.ndarray, m: int
                 ) -> Optional[NormRelationCertificate]:
    """The certificate 1 = sum of c_k * (generator chosen[k]) for the
    reconstructed c, or None unless it verifies exactly.  Terms come in the
    stream order of their first generator."""
    per_subgroup: dict = {}
    for pos, a in zip(chosen, residues.tolist()):
        c = _rational(a, m)
        if c is None:
            return None
        if c:
            ci, g, _ = stream[pos]
            per_subgroup.setdefault(ci, {})[g] = c
    cert = NormRelationCertificate(
        G, [(subgroups[ci], x) for ci, x in per_subgroup.items()])
    return cert if cert.verify() else None


def _primes_below(limit: int):
    """Primes below limit, largest first."""
    return (q for q in range(limit - 1, 2, -1) if is_prime(q))


def _search(G: Group, *, stop_at_unit: bool, primes=None):
    """Eliminate mod successive primes until the answer is proved over Q.

    Returns a verified certificate when stop_at_unit is set and 1 is in J,
    else a proved NormIdealBasis.  A prime that divides a minor the
    elimination meets, or is too small for the numerators and denominators
    of the answer, leaves it unproved; the residues of primes that agree on
    the chosen generators and pivots are then combined by CRT.  Every entry
    is a ratio of minors of the 0/1 matrix of chosen generators, each at
    most sqrt(prod |C|) by Hadamard's bound, so past a modulus of
    2 * prod |C| every entry reconstructs and an unproved answer is a fault.
    """
    subgroups = [C for C in cyclic_subgroups(G) if is_prime(len(C))]
    stream = _generator_stream(G, subgroups)
    combined: dict = {}  # (chosen, pivots, unit found) -> (modulus, residues)
    for p in _primes_below(MODULUS_LIMIT) if primes is None else primes:
        ech = _eliminate(stream, G.order, p, stop_at_unit)
        found = ech.unit_row is not None
        residues = ech.combos[ech.unit_row] if found else ech.rows
        key = (tuple(ech.chosen), tuple(ech.pivots), found)
        m = p
        if key in combined:
            m, old = combined[key]
            residues, m = _crt(old, m, residues, p), m * p
        combined[key] = (m, residues)
        if found:
            cert = _certificate(G, subgroups, stream, ech.chosen, residues, m)
            if cert is not None:
                return cert
        else:
            rational = _rational_matrix(residues, m)
            if rational is not None:
                basis = NormIdealBasis(G, ech.pivots, *rational)
                if _proves(basis, stream, ech, stop_at_unit):
                    return basis
        if m > 2 * prod(len(stream[pos][2]) for pos in ech.chosen):
            raise InvariantViolated(
                f"norm ideal of {G.origin} unproved past the Hadamard bound")
    raise InvariantViolated(f"norm ideal of {G.origin}: primes exhausted")


def norm_ideal(G: Group) -> NormIdealBasis:
    """Proved echelon basis of the whole prime-order norm ideal J."""
    return _search(G, stop_at_unit=False)


def find_norm_relation(G: Group) -> NormRelationOutcome:
    """A verified norm-relation-of-unity certificate, or absence + dimension.

    The left ideal J is spanned by {g*N(C)} over prime-order cyclic C only;
    this is lossless because N(H) = (sum of coset reps) * N(C) for any
    prime-order C <= H.  When 1 is in J, J = Q[G] and its dimension is |G|.
    """
    check_order(G.order, NORM_RELATION_CAP, "find_norm_relation")
    found = _search(G, stop_at_unit=True)
    if isinstance(found, NormRelationCertificate):
        return NormRelationOutcome(found, G.order)
    return NormRelationOutcome(None, found.dimension)


def partition_relation(G: Group, parts: list) -> NormRelationCertificate:
    """Certificate from subgroups whose nonidentity parts partition G - {1}:
    sum N(C_i) = (k-1)*1 + N(G), so 1 = (sum N(C_i) - N(G)) / (k-1)."""
    if len(parts) < 2:
        raise NotAPartition("need at least two parts")
    covered: dict = {}
    for P in parts:
        if P.parent is not G:
            raise ParentMismatch("part bound to a different group")
        if len(P) == 1 or len(P) == G.order:
            raise NotAPartition("parts must be proper and nontrivial")
        for g in P.elements:
            if g == 0:
                continue
            if g in covered:
                raise NotAPartition(f"element {g} covered twice")
            covered[g] = True
    if len(covered) != G.order - 1:
        raise NotAPartition("parts do not cover the group")
    k = len(parts)
    c = Fraction(1, k - 1)
    terms = [(P, {0: c}) for P in parts]
    terms.append((full_subgroup(G), {0: -c}))
    cert = NormRelationCertificate(G, terms)
    if not cert.verify():
        raise InvariantViolated("partition relation failed verification")
    return cert
