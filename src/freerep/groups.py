"""Exact finite-group kernel on Cayley tables.

Elements of a group of order n are the indices 0..n-1, with the identity
always at index 0.  All operations are pure; Group and Subgroup instances
are immutable after construction and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import is_prime, prime_factors
from .errors import BadParams, CapExceeded, InvariantViolated, NotAGroup
from .run import check_deadline, check_order

# default cap on the group order, replaced by the run's cap when it has one
ORDER_CAP = 6000  # largest Cayley table we agree to build
BLOCK_ROWS = 256  # table rows handled at a time by the n x n array passes


class Group:
    """Finite group as an order-n Cayley table with identity at index 0."""

    __slots__ = (
        "order",
        "table",
        "inverse",
        "labels",
        "origin",
        "factors",
        "quaternions",
        "_orders",
        "_classes",
        "_class_index",
        "_fingerprint",
        "_center",
        "_commutator",
        "_perfect_core",
        "_generators",
        "_sylow_profile",
        "_odd_core",
    )

    def __init__(self, table: np.ndarray, labels=None, origin: str = "raw"):
        table = np.ascontiguousarray(table, dtype=np.int32)
        self._adopt(table, labels, origin, *_validate_table(table))

    @classmethod
    def _derived(cls, table: np.ndarray, labels, origin: str) -> "Group":
        """A table proved by its derivation from a proved group, without
        Light's test: see Subgroup.as_group."""
        grp = cls.__new__(cls)
        grp._adopt(np.ascontiguousarray(table, dtype=np.int32), labels, origin)
        return grp

    def _adopt(self, table: np.ndarray, labels, origin, inverse=None, gens=None) -> None:
        self.order = int(table.shape[0])
        self.table = table
        self.labels = list(labels) if labels is not None else None
        self.origin = origin
        self.factors = None  # set by direct_product for tensor dispatch
        self.quaternions = None  # element keys, set by finite_quaternion_group
        # caches, filled on first use
        self._orders = self._classes = self._class_index = None
        self._fingerprint = self._center = self._commutator = None
        self._perfect_core = None
        self._sylow_profile = None  # set by classify.sylow_profile
        self._odd_core = None  # set by classify.odd_core
        self.inverse = np.argmin(table, 1).astype(np.int32) if inverse is None else inverse
        self._generators = gens  # at most log2(n) elements, or None

    # -- basic operations -------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.table[self.table[g, x], self.inverse[g]])

    def power(self, g, k: int):
        """g^k by squaring, for an element g or an array of them."""
        if k < 0:
            g, k = self.inverse[g], -k
        result, base = np.zeros_like(g), g
        for bit in bin(k)[:1:-1]:
            result = self.table[result, base] if bit == "1" else result
            base = self.table[base, base]
        return result if np.ndim(g) else int(result)

    def elements(self) -> range:
        return range(self.order)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def element_orders(self) -> list:
        """Order of every element: step x <- x*g for all pending g at once."""
        if self._orders is None:
            orders = np.ones(self.order, dtype=np.int64)
            pending = np.arange(1, self.order)
            x, k = pending, 1
            while pending.size:
                x = self.table[x, pending]
                k += 1
                done = x == 0
                orders[pending[done]] = k
                pending, x = pending[~done], x[~done]
            self._orders = orders.tolist()
        return self._orders

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def generators(self) -> list:
        """At most log2(n) generators: those Light's test checked when the
        table was validated, else the same least elements outside the
        closure."""
        if self._generators is None:
            self._generators = _generate(self.table, range(self.order))[1]
        return self._generators

    def exponent_generator(self) -> Optional[int]:
        """The least element of full order, if the group is cyclic."""
        return self.element_orders().index(self.order) if self.is_cyclic() else None

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self) -> list:
        """Conjugacy classes as sorted tuples, ordered by minimum element: the
        orbits of the conjugations x -> s * x * s^-1 by the generators s."""
        if self._classes is None:
            label = _orbit_labels(self.order, [self.table[self.table[s], self.inverse[s]]
                                               for s in self.generators()])
            least = np.flatnonzero(label == np.arange(self.order))
            self._class_index = np.searchsorted(least, label).astype(np.int32)
            members = np.argsort(label, kind="stable").tolist()
            ends = np.cumsum(np.bincount(self._class_index)).tolist()
            self._classes = [tuple(members[a:b]) for a, b in zip([0] + ends, ends)]
        return self._classes

    def class_of(self, g: int) -> tuple:
        classes = self.conjugacy_classes()
        return classes[int(self._class_index[g])]

    def fingerprint(self) -> tuple:
        """Multiset of (element order, class size, centralizer order)."""
        if self._fingerprint is None:
            orders = self.element_orders()
            classes = self.conjugacy_classes()
            items = []
            for cls in classes:
                size = len(cls)
                cent = self.order // size
                items.extend((orders[g], size, cent) for g in cls)
            self._fingerprint = tuple(sorted(items))
        return self._fingerprint

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": self.table.tolist(),
            "labels": self.labels,
            "origin": self.origin,
        }

    def __repr__(self):
        return f"Group({self.origin}, order={self.order})"


def _validate_table(table: np.ndarray) -> tuple:
    """(inverse, checked); raise NotAGroup unless table has identity 0, a 0
    in every row and is associative, that is, unless it is a group table.

    Associativity is decided exactly by Light's test (Clifford & Preston,
    Algebraic Theory of Semigroups I, 1961, 1.2), which needs no Latin rows:
    the elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    products and contain 0, so once the right-multiplication closure of 0
    under those checked is the whole table, it is associative.  A monoid with
    a 0 in every row is a group (x*y == 0 == y*z gives x == (x*y)*z == z),
    hence Latin.  Each a checked, the least outside the closure, has a right
    inverse b, so x -> x*a is injective ((x*a)*b == x) and the closure, a
    subgroup, at least doubles: at most log2(n) are checked, and they generate.
    """
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("table is not square")
    n = table.shape[0]
    if n < 1:
        raise NotAGroup("empty table")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("entry out of range")
    ident = np.arange(n, dtype=np.int32)
    if not np.array_equal(table[0], ident) or not np.array_equal(table[:, 0], ident):
        raise NotAGroup("identity is not at index 0")
    inverse = np.argmin(table, axis=1).astype(np.int32)
    bad = np.flatnonzero(table[ident, inverse])
    if bad.size:
        raise NotAGroup("row is not a permutation", int(bad[0]))
    return inverse, _generate(table, range(n), _check_associative_at)[1]


def _generate(table: np.ndarray, gens: Iterable[int], check=lambda table, g: None) -> tuple:
    """(members, taken): the closure of 0 under right multiplication by gens,
    its elements in the order reached, and the g of gens taken in, each one
    not yet inside at its turn, after check(table, g); it stops once the
    closure is the table.  Over gens = range(n), each g taken is the least
    element outside.

    Dimino's walk: the closure H so far grows by g to a union of right
    cosets H * r, and (h * r) * s = h * (r * s) leaves one product r * s to
    test per coset representative r and generator s taken.  That identity
    needs only r to associate in the middle, which Light's test gives every
    product of checked elements, so check may be it on an unproved table."""
    n = table.shape[0]
    cells = memoryview(table)  # cells[x, g] is a Python int, read in place
    inside = bytearray(n)
    inside[0] = 1
    members, taken = [0], []
    for g in gens:
        if len(members) == n:
            break
        if inside[g]:
            continue
        check_deadline()
        check(table, g)
        taken.append(g)
        old, reps = members[:], [0]
        for r in reps:  # reps grows as the walk finds cosets
            for s in taken:
                y = cells[r, s]
                if not inside[y]:
                    reps.append(y)
                    for h in old:
                        x = cells[h, y]
                        if not inside[x]:
                            inside[x] = 1
                            members.append(x)
    return members, taken


def _check_associative_at(table: np.ndarray, a: int) -> None:
    """Raise NotAGroup unless (x*a)*y == x*(a*y) for all x, y."""
    col, row = table[:, a], table[a]
    for start in range(0, table.shape[0], BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        lhs = table.take(col[block], axis=0)
        rhs = table[block].take(row, axis=1)
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise NotAGroup("associativity fails", (start + int(x), a, int(y)))


def _levels(perms: np.ndarray):
    """The breadth-first tree from 0 under the permutations perms (perms[j][x]
    is the index of g_j * x), one level at a time: (frontier, steps) with one
    (j, parents, kids) per generator, kids = perms[j][parents] the elements
    first reached from the frontier by g_j.  Raises InvariantViolated once
    the walk ends unless the tree spans."""
    n = perms.shape[1]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=perms.dtype)
    while frontier.size:
        check_deadline()
        steps = []
        for j, perm in enumerate(perms):
            reach = perm[frontier]
            fresh = ~seen[reach]
            kids = reach[fresh]
            seen[kids] = True
            steps.append((j, frontier[fresh], kids))
        yield frontier, steps
        frontier = np.concatenate([kids for _, _, kids in steps])
    if not seen.all():
        raise InvariantViolated(f"generators reach {int(seen.sum())} of {n} elements")


def _orbit_labels(n: int, perms) -> np.ndarray:
    """The least element of each x's orbit under the permutations perms of
    0..n-1, at x: each edge x -> p(x) hooks the larger of its two labels onto
    the smaller, then labels jump to their roots, until no edge joins two."""
    label, before = np.arange(n), None
    while not np.array_equal(label, before):
        check_deadline()
        before = label.copy()
        for p in perms:
            np.minimum.at(label, np.maximum(label, label[p]), np.minimum(label, label[p]))
        while not np.array_equal(up := label[label], label):
            label = up
    return label


def table_from_generators(perms: np.ndarray) -> np.ndarray:
    """The Cayley table from the left multiplications by generators g_j
    (perms[j][x] is the index of g_j * x, 0 the identity): row g_j * a is
    perms[j][row a], filled a block at a time along the tree of _levels.
    From the right multiplications (x * g_j) it is the transpose."""
    n = perms.shape[1]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    rows = np.empty((min(n, BLOCK_ROWS), n), dtype=np.int32)  # one block, reused
    for _, steps in _levels(perms):
        for j, parents, kids in steps:
            for start in range(0, parents.size, BLOCK_ROWS):
                check_deadline()
                block = slice(start, start + BLOCK_ROWS)
                # parents are in range; "clip" gathers into rows, "raise" would copy
                got = table.take(parents[block], axis=0, out=rows[:parents[block].size],
                                 mode="clip")
                table[kids[block]] = perms[j][got]
    return table


def build_group(mult_oracle: Callable[[int, int], int], n: int, *,
                labels=None, origin: str = "oracle") -> Group:
    """Build a validated Group from a multiplication oracle on 0..n-1.

    The identity is relocated to index 0 if the oracle's identity differs.
    """
    if n < 1:
        raise NotAGroup("order must be positive")
    check_order(n, ORDER_CAP, "build_group")
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        check_deadline()
        for j in range(n):
            table[i, j] = mult_oracle(i, j)
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("oracle value out of range")
    ident = np.arange(n)
    e = None
    for i in range(n):
        if np.array_equal(table[i], ident) and np.array_equal(table[:, i], ident):
            e = i
            break
    if e is None:
        raise NotAGroup("no identity element")
    if e != 0:
        perm = np.arange(n)
        perm[0], perm[e] = e, 0  # swap names 0 <-> e
        table = perm[table[np.ix_(perm, perm)]]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[e] = labels[e], labels[0]
    return Group(table, labels=labels, origin=origin)


# -- subgroups --------------------------------------------------------------


class Subgroup:
    """A verified subgroup: a strictly sorted element-index set of a parent."""

    __slots__ = ("parent", "elements", "elset")

    def __init__(self, parent: Group, elements: Iterable[int], *, validate: bool = True):
        elems = tuple(sorted(set(int(x) for x in elements)))
        self.parent = parent
        self.elements = elems
        self.elset = frozenset(elems)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.parent.order
        if not self.elements or self.elements[0] != 0:
            raise NotAGroup("subgroup must contain the identity")
        if self.elements[-1] >= n:
            raise NotAGroup("subgroup element out of range")
        if n % len(self.elements) != 0:
            raise NotAGroup("Lagrange violation", len(self.elements))
        sub = np.fromiter(self.elements, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        mask[sub] = True
        if not mask[self.parent.table[np.ix_(sub, sub)]].all():
            raise NotAGroup("subgroup not closed under multiplication")

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.elset

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elset == other.elset
        )

    def __hash__(self):
        return hash((id(self.parent), self.elset))

    def __repr__(self):
        return f"Subgroup(order={len(self)}, of={self.parent.origin})"

    def is_normal(self) -> bool:
        """Is s * h * s^-1 in H for the generators s of G and every h in H?
        Then so is g * h * g^-1 for every g, by induction on word length."""
        return bool(_normalizing(self.parent, self.elements, self.parent.generators()).all())

    def as_group(self) -> Group:
        """Standalone Group on this subgroup's elements (index 0 stays identity),
        proved by closure: a nonempty closed subset of a finite group is one."""
        G = self.parent
        sub = np.fromiter(self.elements, dtype=np.int64)
        lookup = np.full(G.order, -1, dtype=np.int32)
        lookup[sub] = np.arange(len(sub), dtype=np.int32)
        table = lookup[G.table[np.ix_(sub, sub)]]
        if not sub.size or (table < 0).any():
            raise NotAGroup("subgroup not closed under multiplication")
        labels = [G.label(g) for g in self.elements] if G.labels else None
        grp = Group._derived(table, labels,
                             f"subgroup(order={len(sub)}, of={G.origin})")
        if G.quaternions is not None:
            grp.quaternions = [G.quaternions[g] for g in self.elements]
        return grp


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (0,), validate=False)


def full_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, range(G.order), validate=False)


def subgroup_generated(G: Group, gens: Sequence[int]) -> Subgroup:
    """Least subgroup containing gens: their closure by _generate."""
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < G.order:
            raise NotAGroup("generator out of range", g)
    return Subgroup(G, _generate(G.table, gens)[0], validate=False)


def conjugates(G: Group, elems: Sequence[int], by=slice(None)) -> np.ndarray:
    """Row i holds g * x * g^-1 for each x in elems, g = by[i] (g = i by default)."""
    check_deadline()
    table = G.table
    return table[table[by][:, list(elems)], G.inverse[by][:, None]]


def _normalizing(G: Group, elems: Sequence[int], by=slice(None)) -> np.ndarray:
    """Per g = by[i]: is g * x * g^-1 in elems for every x in elems?"""
    mask = np.zeros(G.order, dtype=bool)
    mask[list(elems)] = True
    return mask[conjugates(G, elems, by)].all(axis=1)


def left_cosets(G: Group, elems: Sequence[int]) -> tuple:
    """(reps, coset_of) for the left cosets gH of the subgroup H = elems:
    reps holds the least element of each coset in ascending order, and
    coset_of[g] is the index in reps of the coset that contains g."""
    least = G.table[:, list(elems)].min(axis=1)
    reps = np.flatnonzero(least == np.arange(G.order))
    return reps, np.searchsorted(reps, least)


def cyclic_subgroups(G: Group) -> list:
    """All cyclic subgroups once each, by least generator: the generators x^k,
    (k, |x|) = 1, of <x> are the orbit of x under x -> x^k for k generating the
    units mod the exponent.  Then g^(m + j) = g^j * g^m doubles m up to |g| - 1."""
    orders, every = np.array(G.element_orders()), np.arange(G.order)
    maps = [G.power(every, k) for k in _unit_generators(lcm(*orders.tolist()))]
    least = np.flatnonzero(_orbit_labels(G.order, maps) == every)
    found = {0: trivial_subgroup(G)}
    for d in set(orders[least].tolist()) - {1}:
        powers = least[orders[least] == d, None]  # the column g^1
        while powers.shape[1] < d - 1:
            check_deadline()
            m = powers.shape[1]
            powers = np.hstack([powers, G.table[powers[:, :d - 1 - m], powers[:, m - 1:m]]])
        for row in powers.tolist():
            found[row[0]] = Subgroup(G, [0, *row], validate=False)
    return [found[g] for g in sorted(found)]


def _unit_generators(e: int) -> set:
    """Units generating the units mod e: per prime power q of e, k = 1 mod e/q
    and k = -1, 5 mod q if q is even, else g, g + p mod q, g a primitive root mod p."""
    gens = set()
    for p in prime_factors(e):
        q = gcd(e, p ** e.bit_length())  # p^a exactly dividing e: g or g + p generates
        g = next(g for g in range(2, p + 1)
                 if all(pow(g, (p - 1) // r, p) != 1 for r in prime_factors(p - 1)))
        gens |= {1 + e // q * ((r - 1) * pow(e // q, -1, q) % q)
                 for r in ([-1, 5] if p == 2 else [g, g + p])}
    return gens - {1}


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    inside = _normalizing(G, H.elements)
    return Subgroup(G, np.flatnonzero(inside).tolist(), validate=False)


def centralizer(G: Group, elems: Iterable[int]) -> Subgroup:
    check_deadline()
    targets = list(dict.fromkeys(int(x) for x in elems))
    table = G.table
    commute = (table[:, targets] == table[targets].T).all(axis=1)
    return Subgroup(G, np.flatnonzero(commute).tolist(), validate=False)


def center(G: Group) -> Subgroup:
    if G._center is None:
        G._center = centralizer(G, G.generators())
    return G._center


def commutator_subgroup(G: Group) -> Subgroup:
    """G' is the normal closure N of [s, t] for s, t generators: G/N is abelian."""
    if G._commutator is None:
        table, inv = G.table, G.inverse
        s = np.array(G.generators(), dtype=np.int64)
        comms = table[table[inv[s][:, None], inv[s]], table[s[:, None], s]]  # [s, t]
        G._commutator = normal_closure(G, set(comms.ravel().tolist()) - {0})
    return G._commutator


def commutator_of_subgroup(G: Group, H: Subgroup) -> Subgroup:
    """Commutator subgroup of H, computed inside the parent G: generated by
    every x^-1 y^-1 x y, gathered BLOCK_ROWS values of x at a time."""
    table, inv = G.table, G.inverse
    h = np.array(H.elements, dtype=np.int64)
    hit = np.zeros(G.order, dtype=bool)
    for start in range(0, h.size, BLOCK_ROWS):
        check_deadline()
        x = h[start:start + BLOCK_ROWS]
        hit[table[table[np.ix_(inv[x], inv[h])], table[np.ix_(x, h)]]] = True
    hit[0] = False  # a generator 0 would only add lookups to the closure
    return subgroup_generated(G, np.flatnonzero(hit).tolist())


def derived_series(G: Group) -> list:
    """G >= G' >= G'' >= ... computed until stable."""
    series = [full_subgroup(G)]
    current = commutator_subgroup(G)
    while current.elset != series[-1].elset:
        series.append(current)
        current = commutator_of_subgroup(G, current)
    return series


def is_solvable(G: Group) -> bool:
    return len(perfect_core(G)) == 1


def perfect_core(G: Group) -> Subgroup:
    """Last term of the derived series (trivial iff solvable), kept on G."""
    if G._perfect_core is None:
        G._perfect_core = derived_series(G)[-1]
    return G._perfect_core


def normal_closure(G: Group, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the seed elements: the subgroup
    generated by their conjugacy classes, a conjugation-invariant set."""
    gens = {g for x in seeds for g in G.class_of(int(x))}
    return subgroup_generated(G, sorted(gens))


# -- Sylow theory ------------------------------------------------------------


def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown from a cyclic seed inside iterated normalizers:
    while p divides |N(P)/P|, P takes in the least g in N(P) - P with g^p in P."""
    if not is_prime(p):
        raise NotAGroup(f"{p} is not prime")
    target = 1
    while G.order % (target * p) == 0:
        target *= p
    if target == 1:
        return trivial_subgroup(G)
    orders = G.element_orders()
    seed = next(g for g in range(G.order) if orders[g] % p == 0)
    seed = G.power(seed, orders[seed] // p)
    P = subgroup_generated(G, [seed])
    while len(P) < target:
        check_deadline()
        N = np.fromiter(normalizer(G, P).elements, dtype=np.int64)
        power = G.power(N, p)
        in_P = np.zeros(G.order, dtype=bool)
        in_P[list(P.elements)] = True
        lift = int(N[np.argmax(~in_P[N] & in_P[power])])
        P = subgroup_generated(G, list(P.elements) + [lift])
    return P


# -- homomorphisms -----------------------------------------------------------


class Homomorphism:
    """A verified homomorphism given by an index map."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: Group, target: Group, index_map: Sequence[int]):
        self.source = source
        self.target = target
        self.map = list(int(x) for x in index_map)
        self.verify()

    def verify(self) -> None:
        """phi(s * x) == phi(s) * phi(x) for s in source.generators() and
        every x proves it for all pairs, by induction on word length."""
        if len(self.map) != self.source.order:
            raise NotAGroup("homomorphism map has wrong length")
        if self.map[0] != 0:
            raise NotAGroup("homomorphism does not fix the identity")
        m = np.fromiter(self.map, dtype=np.int64)
        if m.min() < 0 or m.max() >= self.target.order:
            raise NotAGroup("homomorphism image out of range")
        gens = np.array(self.source.generators(), dtype=np.int64)
        lhs = m[self.source.table[gens]]
        rhs = self.target.table[m[gens][:, None], m]
        if not np.array_equal(lhs, rhs):
            i, x = np.argwhere(lhs != rhs)[0]
            raise NotAGroup("map is not multiplicative", (int(gens[i]), int(x)))

    def __call__(self, g: int) -> int:
        return self.map[g]

    def is_bijective(self) -> bool:
        return (self.source.order == self.target.order
                and len(set(self.map)) == self.source.order)


# -- SL2(F_p) recognition ------------------------------------------------------


def sl2_steps(a, b, c, d, p: int) -> tuple:
    """S * m and T * m mod p for m = [[a,b],[c,d]], S = [[0,-1],[1,0]] and
    T = [[1,1],[0,1]], which generate SL2(F_p); entries are ints or arrays."""
    return (-c % p, -d % p, a, b), ((a + c) % p, (b + d) % p, c, d)


def sl2_elements(p: int) -> tuple:
    """(mats, perms) for SL2(F_p): mats the determinant-1 matrices (a, b, c, d)
    in lexicographic order but for I and the first swapped, so that I is 0,
    and perms[j][k] the index of g_j * mats[k] for (g_0, g_1) = (S, T) of
    sl2_steps.  A matrix's index among all p^4 quadruples is its code."""
    if p**4 >= 2**31:  # the int32 codes would wrap
        raise CapExceeded(f"sl2: p = {p} is above the int32 table's range")
    shape = (p,) * 4
    i = np.arange(p, dtype=np.int32)
    ad = (np.multiply.outer(i, i) % p).astype(np.int16)  # also bc, on axes b, c
    codes = np.flatnonzero((ad[:, None, None, :] - ad[None, :, :, None]) % p == 1)
    eye = int(np.searchsorted(codes, p**3 + 1))  # the code of I
    codes[[0, eye]] = codes[[eye, 0]]
    index_of = np.full(p**4, -1, dtype=np.int32)
    index_of[codes] = np.arange(codes.size, dtype=np.int32)
    mats = np.unravel_index(codes, shape)
    steps = [np.ravel_multi_index(m, shape) for m in sl2_steps(*mats, p)]
    return list(zip(*(m.tolist() for m in mats))), index_of[np.stack(steps)]


@lru_cache(maxsize=None)
def _sl2_walk(p: int) -> tuple:
    """(perms, levels): the S/T permutations of sl2_elements(p) and their
    breadth-first tree from I."""
    perms = sl2_elements(p)[1]
    return perms, list(_levels(perms))


def carry(G: Group, perms: np.ndarray, levels: list, images: Sequence[int]
          ) -> Optional[np.ndarray]:
    """The map phi into G with phi(0) = 0 and phi(g_j * m) = images[j] * phi(m),
    carried along levels, the list of _levels(perms): None at the first level
    holding an edge m -> g_j * m that breaks it, or if phi is not injective.
    An unbroken phi is a homomorphism on the group the g_j generate, by
    induction on word length."""
    table, images = G.table, np.asarray(images)
    phi = np.zeros(perms.shape[1], dtype=np.int64)
    for frontier, steps in levels:
        check_deadline()
        for j, parents, kids in steps:
            phi[kids] = table[images[j], phi[parents]]
        if not np.array_equal(table[images[:, None], phi[frontier]],
                              phi[perms[:, frontier]]):
            return None
    hit = np.zeros(G.order, dtype=bool)
    hit[phi] = True
    return phi if np.count_nonzero(hit) == phi.size else None


def embed_sl2(G: Group, elements: Sequence[int], p: int) -> Optional[np.ndarray]:
    """An embedding phi of SL2(F_p) (p an odd prime) into G with S and T sent
    into elements, as the images of the matrices indexed as in sl2_elements
    and constructors.sl2(p), or None: T goes to t, the first element of
    order p in elements, and S to each element s of order 4 in turn, until
    the first embedding.  Each candidate s stops at its first level with a
    conflicting edge.  Fewer elements than |SL2(F_p)| hold no embedding.

    Sound: phi(I) = 1 and phi(g * m) = phi(g) * phi(m) for g in {S, T} and
    every m give, by induction on word length, a homomorphism on <S, T> =
    SL2(F_p), an embedding when injective.  Complete: one is found whenever
    elements is a subgroup isomorphic to SL2(F_p), so None then proves it is
    not.  If psi is an isomorphism onto it, psi^-1(t) has order p, so its
    only eigenvalue is 1 and, not being I, it is A T A^-1 for some A in
    GL2(F_p).  Conjugation by A is an automorphism of the normal subgroup
    SL2(F_p), so m -> psi(A m A^-1) is an isomorphism sending T to t and S
    to an element of order 4, which the scan reaches."""
    if p == 2 or not is_prime(p):
        raise BadParams(f"{p} is not an odd prime")
    if len(elements) < (p - 1) * p * (p + 1):
        return None
    orders = G.element_orders()
    t = next((g for g in elements if orders[g] == p), None)
    if t is None:
        return None
    walk = _sl2_walk(p)
    for s in elements:
        if orders[s] == 4:
            phi = carry(G, *walk, [s, t])
            if phi is not None:
                return phi
    return None
