"""Structural classification: Sylow profiles, odd core O(G), MCC subgroup,
solvable cycloidal types via G/O(G), semiprime-cyclic scan, and the
freely-representable verdict with independently checkable witnesses.

Two theorems name the shapes without building a reference group.  Burnside:
a p-group with a unique subgroup of order p is cyclic or generalized
quaternion, so a noncyclic Sylow 2-subgroup with one involution is
generalized quaternion.  Wolf: a solvable Sylow-cycloidal G has G/O(G) a
cyclic 2-group, a generalized quaternion group, 2T (order 24) or 2O (order
48), so |G/O(G)| and the Sylow 2-kind decide the type.

The semiprime scan applies Wolf's criterion (no noncyclic group of order
pq, p <= q primes, is freely representable) pair by pair: for x, y of
orders p, q, <x, y> is one iff x y x^-1 y^-1 is 1 if p == q (groups of
order p^2 are abelian), and in <y> - {1} if p < q (a group of order pq has
a normal Sylow q-subgroup, so x y x^-1 is in <y>, and is cyclic iff abelian)."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

import numpy as np

from .cyclotomic import is_prime, prime_factors
from .errors import InvariantViolated, NotCycloidal, NotSylowCyclic
from .groups import (
    BLOCK_ROWS,
    Group,
    Subgroup,
    all_subgroups,
    centralizer,
    center,
    commutator_subgroup,
    cyclic_subgroups,
    embed_sl2,
    full_subgroup,
    is_solvable,
    normal_closure,
    perfect_core,
    quotient_group,
    subgroup_generated,
    sylow_subgroup,
    trivial_subgroup,
)
from .run import check_deadline

FERMAT_PRIMES = (3, 5, 17, 257, 65537)


# -- Sylow profile ---------------------------------------------------------------


@dataclass(frozen=True)
class SylowClass:
    prime: int
    order: int
    kind: str  # cyclic | generalized_quaternion | other


def sylow_profile(G: Group) -> dict:
    """One Sylow subgroup per prime, classified by shape (module docstring:
    noncyclic with one involution is generalized quaternion); computed once
    per group."""
    if G._sylow_profile is not None:
        return G._sylow_profile
    profile = {}
    orders = G.element_orders()
    for p in prime_factors(G.order):
        P = sylow_subgroup(G, p)
        size = len(P)
        if any(orders[g] == size for g in P.elements):
            kind = "cyclic"
        elif p == 2 and sum(1 for g in P.elements if orders[g] == 2) == 1:
            kind = "generalized_quaternion"
        else:
            kind = "other"
        profile[p] = SylowClass(p, size, kind)
    G._sylow_profile = profile
    return profile


def is_sylow_cyclic(G: Group) -> bool:
    return all(c.kind == "cyclic" for c in sylow_profile(G).values())


def is_sylow_cycloidal(G: Group) -> bool:
    return all(
        c.kind == "cyclic" or (c.prime == 2 and c.kind == "generalized_quaternion")
        for c in sylow_profile(G).values()
    )


# -- odd core ---------------------------------------------------------------------


def odd_core(G: Group) -> Subgroup:
    """O(G): the maximum normal subgroup of odd order; computed once per group.

    Computed as the join of the normal closures of odd-order elements whose
    closure stays odd; every normal odd-order subgroup is such a join, so the
    result provably contains them all.  Conjugate elements have the same
    normal closure, so one element per conjugacy class is enough.
    """
    if G._odd_core is not None:
        return G._odd_core
    orders = G.element_orders()
    core = trivial_subgroup(G)
    for cls in G.conjugacy_classes()[1:]:
        check_deadline()
        if orders[cls[0]] % 2 == 0 or cls[0] in core.elset:
            continue
        N = normal_closure(G, [cls[0]])
        if len(N) % 2 == 0:
            continue
        core = subgroup_generated(G, list(core.elements) + list(N.elements))
        if len(core) % 2 == 0:
            raise InvariantViolated("join of odd normal subgroups must stay odd")
    if not core.is_normal():
        raise InvariantViolated("the odd core must be normal")
    G._odd_core = core
    return core


# -- cycloidal type ----------------------------------------------------------------


SYLOW_CYCLIC = "sylow_cyclic"
QUATERNION_TYPE = "quaternion"
BINARY_TETRAHEDRAL_TYPE = "binary_tetrahedral"
BINARY_OCTAHEDRAL_TYPE = "binary_octahedral"
NON_SOLVABLE = "non_solvable"
NOT_CYCLOIDAL = "not_cycloidal"


def cycloidal_type(G: Group) -> str:
    """Which of the four solvable types (or non-solvable) G belongs to.

    The solvable types are keyed by G/O(G), which by Wolf's theorem (module
    docstring) is a cyclic 2-group, generalized quaternion, 2T or 2O.  When
    n = |G/O(G)| is a power of two, G/O(G) is isomorphic to a Sylow
    2-subgroup, whose kind Burnside's theorem reads off its involutions.
    """
    if not is_sylow_cycloidal(G):
        raise NotCycloidal(f"{G.origin} is not Sylow-cycloidal")
    if not is_solvable(G):
        return NON_SOLVABLE
    n = G.order // len(odd_core(G))
    if n & (n - 1) == 0:  # odd Sylow subgroups are cyclic: only 2 can differ
        return SYLOW_CYCLIC if is_sylow_cyclic(G) else QUATERNION_TYPE
    if n == 24:
        return BINARY_TETRAHEDRAL_TYPE
    if n == 48:
        return BINARY_OCTAHEDRAL_TYPE
    raise NotCycloidal(f"G/O(G) of order {n} matches no cycloidal type")


# -- MCC subgroup -------------------------------------------------------------------


def mcc_subgroup(G: Group) -> Subgroup:
    """mu(G) for Sylow-cyclic G: the maximum cyclic characteristic subgroup,
    computed as the centralizer of G' and cross-checked against G'Z(G)."""
    if not is_sylow_cyclic(G):
        raise NotSylowCyclic(f"{G.origin} is not Sylow-cyclic")
    A = commutator_subgroup(G)
    mu = centralizer(G, A.elements)
    orders = G.element_orders()
    if not any(orders[g] == len(mu) for g in mu.elements):
        raise InvariantViolated("mu(G) must be cyclic")
    if not mu.is_normal():
        raise InvariantViolated("mu(G) must be normal (hence unique of its order)")
    Z = center(G)
    product = {G.mul(a, z) for a in A.elements for z in Z.elements}
    if product != set(mu.elements):
        raise InvariantViolated("mu(G) != G'Z(G)")
    if G.order > 1 and len(mu) <= G.order // len(mu):
        raise InvariantViolated("|mu(G)| must exceed its index")
    return mu


# -- semiprime-cyclic scan -----------------------------------------------------------


def is_semiprime_cyclic(G: Group) -> tuple:
    """(True, None) or (False, W): W the first noncyclic <x, y> of order pq,
    x, y the least generators of two prime-order subgroups in the order of
    cyclic_subgroups.  The commutators that decide the k x k pairs (module
    docstring) are gathered BLOCK_ROWS rows at a time; W is re-checked."""
    primes = [C for C in cyclic_subgroups(G) if is_prime(len(C))]
    gens = np.array([C.elements[1] for C in primes], dtype=np.int64)
    size = np.array([len(C) for C in primes], dtype=np.int64)
    owner = np.full(G.order, -1, dtype=np.int64)  # g's prime-order subgroup
    for i, C in enumerate(primes):
        owner[list(C.elements[1:])] = i
    table, pair = G.table, np.arange(len(primes))
    for start in range(0, len(primes), BLOCK_ROWS):
        check_deadline()
        i = pair[start:start + BLOCK_ROWS, None]
        comm = table[table[gens[i], gens], G.inverse[table[gens, gens[i]]]]
        larger = np.where(size[i] > size, i, pair)  # the subgroup of order q
        hit = np.where(size[i] == size, comm == 0, owner[comm] == larger) & (pair > i)
        if hit.any():
            r, j = np.unravel_index(np.argmax(hit), hit.shape)
            W = Subgroup(G, subgroup_generated(G, gens[[start + r, j]]).elements)
            orders = [G.element_orders()[g] for g in W.elements]
            if len(W) != size[start + r] * size[j] or len(W) in orders:
                raise InvariantViolated("semiprime witness is not noncyclic of order pq")
            return False, W
    return True, None


# -- the freely-representable verdict -------------------------------------------------


@dataclass
class FreelyRepresentableVerdict:
    answer: bool
    criterion: str
    witness: Optional[Subgroup] = None
    fermat_prime: Optional[int] = None
    supporting: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"answer": "yes" if self.answer else "no",
               "criterion": self.criterion}
        if self.witness is not None:
            out["witness_order"] = len(self.witness)
            out["witness_elements"] = list(self.witness.elements)
        if self.fermat_prime is not None:
            out["fermat_prime"] = self.fermat_prime
        if self.supporting:
            out["supporting"] = {k: len(v) for k, v in self.supporting.items()}
        return out


def _index2_subgroups(G: Group) -> list:
    """Index-2 subgroups, via the abelianization (no full enumeration)."""
    A = commutator_subgroup(G)
    if (G.order // len(A)) % 2:
        return []
    Q, proj = quotient_group(G, A)
    out = []
    for H in all_subgroups(Q):
        if 2 * len(H) == Q.order:
            lifted = [g for g in G.elements() if proj(g) in H.elset]
            out.append(Subgroup(G, lifted, validate=False))
    return out


def _odd_part_of_centralizer(HG: Group, E: Subgroup) -> Subgroup:
    cent = centralizer(HG, E.elements)
    orders = HG.element_orders()
    odd = [g for g in cent.elements if orders[g] % 2 == 1]
    return Subgroup(HG, odd)


def _suzuki_zassenhaus_structure(G: Group) -> Optional[dict]:
    """Find H of index <= 2 with H = E x M, E iso SL2(F5), M odd order
    prime to 30 and freely representable.  Subgroups come back in G's
    own index space."""
    candidates = [None] + _index2_subgroups(G)  # None stands for G itself
    for H in candidates:
        HG = G if H is None else H.as_group()
        if HG.order % 120:
            continue
        E = perfect_core(HG)
        if len(E) != 120:
            continue
        if embed_sl2(HG, E.elements, 5) is None:
            continue
        M = _odd_part_of_centralizer(HG, E)
        if len(E) * len(M) != HG.order:
            continue
        if E.elset & M.elset != {0}:
            continue
        if gcd(len(M), 30) != 1:
            continue
        if not is_freely_representable(M.as_group()).answer:
            continue
        if H is not None:  # translate back into G's element indices
            E = Subgroup(G, [H.elements[i] for i in E.elements], validate=False)
            M = Subgroup(G, [H.elements[i] for i in M.elements], validate=False)
        out = {"sl2f5_factor": E, "odd_factor": M}
        if H is not None:
            out["index2_subgroup"] = H
        return out
    return None


def _embedded_fermat_sl2(G: Group) -> Optional[tuple]:
    """Search for an SL2(F_p) with Fermat p >= 17 inside G.

    Under the order cap only |G| = |SL2(F_17)| = 4896 is reachable, in which
    case the embedding must be an isomorphism, found by the matrix walk of
    groups.embed_sl2 without a table of SL2(F_17).
    """
    for p in FERMAT_PRIMES:
        if p < 17:
            continue
        size = (p - 1) * p * (p + 1)
        if size > G.order:
            break
        if size == G.order and embed_sl2(G, G.elements(), p) is not None:
            return p, full_subgroup(G)
    return None


def is_freely_representable(G: Group) -> FreelyRepresentableVerdict:
    """Uniform decision: semiprime-cyclic scan, then solvable yes (a
    solvable group contains no perfect SL2(F_p)), then the Fermat poison
    pill, then the Suzuki-Zassenhaus structure for non-solvable yes."""
    ok, witness = is_semiprime_cyclic(G)
    if not ok:
        return FreelyRepresentableVerdict(
            False, "noncyclic_semiprime_subgroup", witness=witness)
    if is_solvable(G):
        return FreelyRepresentableVerdict(True, "solvable_semiprime_cyclic")
    hit = _embedded_fermat_sl2(G)
    if hit is not None:
        p, sub = hit
        return FreelyRepresentableVerdict(
            False, "embedded_sl2_fermat", witness=sub, fermat_prime=p)
    structure = _suzuki_zassenhaus_structure(G)
    if structure is None:
        raise NotCycloidal(
            "non-solvable semiprime-cyclic group without Suzuki-Zassenhaus "
            "structure; this contradicts the classification")
    supporting = {k: v for k, v in structure.items() if v is not None}
    return FreelyRepresentableVerdict(
        True, "suzuki_zassenhaus_structure", supporting=supporting)


# -- aggregate report -----------------------------------------------------------------


@dataclass
class ClassificationReport:
    group: Group
    sylow_profile: dict
    is_sylow_cyclic: bool
    is_sylow_cycloidal: bool
    odd_core: Subgroup
    cycloidal_type: str
    mcc: Optional[Subgroup]
    unique_involution: Optional[int]
    semiprime_cyclic: bool
    semiprime_witness: Optional[Subgroup]
    fr_verdict: FreelyRepresentableVerdict

    def to_json(self) -> dict:
        return {
            "origin": self.group.origin,
            "order": self.group.order,
            "sylow_profile": {
                str(p): {"kind": c.kind, "order": c.order}
                for p, c in self.sylow_profile.items()
            },
            "is_sylow_cyclic": self.is_sylow_cyclic,
            "is_sylow_cycloidal": self.is_sylow_cycloidal,
            "odd_core_order": len(self.odd_core),
            "cycloidal_type": self.cycloidal_type,
            "mcc_order": len(self.mcc) if self.mcc is not None else None,
            "unique_involution": self.unique_involution,
            "normal_order2_subgroup":
                [0, self.unique_involution]
                if self.unique_involution is not None else None,
            "semiprime_cyclic": self.semiprime_cyclic,
            "semiprime_witness_order":
                len(self.semiprime_witness) if self.semiprime_witness else None,
            "freely_representable": self.fr_verdict.to_json(),
        }


def classify(G: Group) -> ClassificationReport:
    profile = sylow_profile(G)
    sc = is_sylow_cyclic(G)
    scq = is_sylow_cycloidal(G)
    core = odd_core(G)
    ctype = cycloidal_type(G) if scq else NOT_CYCLOIDAL
    mu = mcc_subgroup(G) if sc else None
    orders = G.element_orders()
    involutions = [g for g in G.elements() if orders[g] == 2]
    unique_inv = involutions[0] if len(involutions) == 1 else None
    verdict = is_freely_representable(G)
    # the verdict's criterion names the semiprime scan exactly when it failed
    ok = verdict.criterion != "noncyclic_semiprime_subgroup"
    witness = None if ok else verdict.witness

    # internal cross-checks
    if verdict.answer:
        if not scq:
            raise InvariantViolated(
                "freely representable groups must be Sylow-cycloidal")
        if G.order % 2 == 0 and unique_inv is None:
            raise InvariantViolated(
                "even freely representable groups have a unique involution")
    if scq and not sc and unique_inv is None:
        raise InvariantViolated(
            "non-Sylow-cyclic cycloidal groups have a unique involution")
    if sc and verdict.answer != all(len(mu) % p == 0
                                    for p in prime_factors(G.order)):
        raise InvariantViolated(
            "Sylow-cyclic verdict disagrees with the mu(G) divisibility criterion")

    return ClassificationReport(
        group=G,
        sylow_profile=profile,
        is_sylow_cyclic=sc,
        is_sylow_cycloidal=scq,
        odd_core=core,
        cycloidal_type=ctype,
        mcc=mu,
        unique_involution=unique_inv,
        semiprime_cyclic=ok,
        semiprime_witness=witness,
        fr_verdict=verdict,
    )
