"""Group-algebra arithmetic and norm-relation certificates."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest

from corpus import norm_relation_corpus, structural_corpus
from exact_fields import GroupAlgebraElement, contains, element, norm_element, sparse
from group_theory import all_subgroups, element_order
from freerep import normrel
from freerep.cyclotomic import is_prime
from freerep.errors import NotAPartition, ParentMismatch
from freerep.groups import (
    Subgroup,
    cyclic_subgroups,
    subgroup_generated,
)
from freerep.constructors import (
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    sd,
    sl2,
)
from freerep.normrel import (
    NormIdealBasis,
    NormRelationCertificate,
    find_norm_relation,
    norm_ideal,
    partition_relation,
)


def klein_four():
    return direct_product(cyclic(2), cyclic(2))


def c3xc3():
    return direct_product(cyclic(3), cyclic(3))


# -- algebra ops -----------------------------------------------------------------

def test_norm_of_trivial_subgroup_is_unit():
    G = cyclic(4)
    triv = Subgroup(G, [0])
    assert norm_element(triv) == GroupAlgebraElement.unit(G)


def test_left_invariance_of_norm():
    G = generalized_quaternion(8)
    H = subgroup_generated(G, [G.labels.index("R")])
    nh = norm_element(H)
    for g in H.elements:
        assert GroupAlgebraElement.of_element(G, g) * nh == nh


def test_norm_squared_is_order_times_norm():
    G = cyclic(6)
    H = subgroup_generated(G, [2])  # C3
    nh = norm_element(H)
    assert nh * nh == nh.scale(len(H))


def test_parent_mismatch_rejected():
    x = GroupAlgebraElement.unit(cyclic(3))
    y = GroupAlgebraElement.unit(cyclic(3))
    with pytest.raises(ParentMismatch):
        _ = x + y  # distinct Group instances


def test_convolution_matches_definition():
    G = dihedral(3)
    x = GroupAlgebraElement(G, [1, 2, 0, 0, 0, 0])
    y = GroupAlgebraElement(G, [0, 1, 1, 0, 0, 0])
    expected = [0] * 6
    for g, cg in enumerate(x.coeffs):
        for h, ch in enumerate(y.coeffs):
            expected[G.mul(g, h)] += cg * ch
    assert (x * y).coeffs == expected


# -- find_norm_relation ------------------------------------------------------------

def test_klein_four_has_certificate():
    out = find_norm_relation(klein_four())
    assert out.certificate is not None
    assert out.certificate.verified


def test_c3xc3_has_certificate():
    out = find_norm_relation(c3xc3())
    assert out.certificate is not None
    assert out.certificate.verify()


def test_q8_has_no_certificate():
    out = find_norm_relation(generalized_quaternion(8))
    assert out.certificate is None
    assert out.ideal_dimension < 8


def test_order21_nonabelian_has_certificate():
    out = find_norm_relation(sd(7, 3, 2))
    assert out.certificate is not None
    assert out.certificate.verified


def test_cyclic_groups_have_no_certificate():
    for n in (1, 2, 5, 12):
        out = find_norm_relation(cyclic(n))
        assert out.certificate is None, f"C{n} wrongly got a certificate"


def test_dihedral_has_certificate():
    out = find_norm_relation(dihedral(5))
    assert out.certificate is not None


def test_s4_like_sl23_no_certificate():
    out = find_norm_relation(sl2(3))
    assert out.certificate is None
    assert out.ideal_dimension < 24


# -- explicit identities (Wada, Parry) ----------------------------------------------

def _klein_with_subgroups():
    G = klein_four()
    nontrivial = [g for g in G.elements() if g != 0]
    s1, s2, s3 = nontrivial
    subs = [subgroup_generated(G, [s]) for s in (s1, s2, s3)]
    return G, s1, subs


def test_wada_relation_verifies():
    # 2*1 = N H1 + N H2 - s1 N H3, divided by 2
    G, s1, (H1, H2, H3) = _klein_with_subgroups()
    half = Fraction(1, 2)
    cert = NormRelationCertificate(G, [
        (H1, {0: half}),
        (H2, {0: half}),
        (H3, {s1: -half}),
    ])
    assert cert.verify()


def test_wada_relation_with_unit_in_place_of_sigma_fails():
    # 2*1 = N H1 + N H2 - N H3 expands to a wrong sum
    G, s1, (H1, H2, H3) = _klein_with_subgroups()
    half = Fraction(1, 2)
    cert = NormRelationCertificate(G, [
        (H1, {0: half}),
        (H2, {0: half}),
        (H3, {0: -half}),
    ])
    assert not cert.verify()


def _c3xc3_lines():
    G = c3xc3()
    sigma, tau = 3, 1  # (1,0) encoded 3, (0,1) encoded 1
    H1 = subgroup_generated(G, [sigma])
    H2 = subgroup_generated(G, [tau])
    H3 = subgroup_generated(G, [G.mul(sigma, tau)])
    H4 = subgroup_generated(G, [G.mul(sigma, G.mul(tau, tau))])
    return G, sigma, tau, [H1, H2, H3, H4]


def test_parry_relation_verifies():
    # 3*1 = N H1 + N H2 + N H3 - (sigma + sigma tau) N H4
    G, sigma, tau, (H1, H2, H3, H4) = _c3xc3_lines()
    third = Fraction(1, 3)
    mix = {sigma: -third, G.mul(sigma, tau): -third}
    cert = NormRelationCertificate(G, [
        (H1, {0: third}),
        (H2, {0: third}),
        (H3, {0: third}),
        (H4, mix),
    ])
    assert cert.verify()


def test_c3xc3_simple_relation_verifies():
    # 3*1 = N H1 + N H2 + N H3 + N H4 - N G
    G, _, _, lines = _c3xc3_lines()
    third = Fraction(1, 3)
    terms = [(H, {0: third}) for H in lines]
    terms.append((Subgroup(G, range(9)), {0: -third}))
    assert NormRelationCertificate(G, terms).verify()


# -- partition_relation ---------------------------------------------------------------

def test_partition_cpxcp_lines():
    G, _, _, lines = _c3xc3_lines()
    cert = partition_relation(G, lines)
    assert cert.verified
    # k = p+1 parts, denominator p
    assert len(cert.terms) == 5  # 4 lines + N(G)


def test_partition_dihedral3():
    G = dihedral(3)
    rot = subgroup_generated(G, [1])
    refls = [subgroup_generated(G, [g]) for g in G.elements()
             if element_order(G, g) == 2]
    cert = partition_relation(G, [rot] + refls)
    assert cert.verified


def test_partition_order21():
    G = sd(7, 3, 2)
    A = subgroup_generated(G, [G.labels.index("a^1b^0")])
    threes = {subgroup_generated(G, [g]).elset
              for g in G.elements() if element_order(G, g) == 3}
    parts = [A] + [Subgroup(G, s) for s in threes]
    assert len(parts) == 8
    cert = partition_relation(G, parts)
    assert cert.verified


def test_partition_rejects_non_partition():
    G = cyclic(6)
    H2 = subgroup_generated(G, [3])
    H3 = subgroup_generated(G, [2])
    # C6 = C2 u C3 misses the two generators of order 6
    with pytest.raises(NotAPartition):
        partition_relation(G, [H2, H3])


# -- ideal structure ---------------------------------------------------------------

def test_two_sidedness_spot_check():
    # N(H) * g lies in the left ideal
    G = dihedral(4)
    basis = norm_ideal(G)
    H = subgroup_generated(G, [G.labels.index("r^1t")])
    nh = norm_element(H)
    for g in (1, 5):
        prod = nh * GroupAlgebraElement.of_element(G, g)
        assert contains(basis, prod)


@pytest.mark.parametrize("G", [dihedral(4), generalized_quaternion(8),
                               cyclic(12), sd(7, 3, 2), sl2(2)],
                         ids=lambda g: g.origin)
def test_prime_order_generator_reduction_lossless(G):
    # the prime-cyclic-norm ideal contains every nontrivial subgroup norm
    basis = norm_ideal(G)
    for H in all_subgroups(G):
        if len(H) == 1:
            continue
        assert contains(basis, norm_element(H)), \
            f"N(H) outside prime-cyclic ideal for |H|={len(H)}"


def test_dichotomy_at_order_210():
    # inside the 256 cap: both survey-style groups refute free
    # representability and certificates must exist and verify
    for G in (sd(105, 2, 104), sd(7, 30, 2)):
        out = find_norm_relation(G)
        assert out.certificate is not None and out.certificate.verified


def test_certificate_json():
    out = find_norm_relation(klein_four())
    data = out.certificate.to_json("prod(C2,C2)")
    assert data["verified"] is True
    assert data["group_spec"] == "prod(C2,C2)"
    assert all("subgroup_elements" in t and "coefficient" in t
               for t in data["terms"])


# -- ideal dimension -------------------------------------------------------------------

def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclic_ideal_dimension_closed_form(n):
    # dim J = |G| minus the squared degrees of the fixed-point-free
    # irreducibles; for C_n these are the phi(n) faithful characters
    out = find_norm_relation(cyclic(n))
    assert out.certificate is None
    assert out.ideal_dimension == n - _phi(n)


@pytest.mark.parametrize("G", [dihedral(3), dihedral(35), sd(35, 3, 11)],
                         ids=lambda g: g.origin)
def test_ideal_dimension_is_order_when_certificate_exists(G):
    # 1 in J makes J all of Q[G]
    out = find_norm_relation(G)
    assert out.certificate is not None and out.certificate.verified
    assert out.ideal_dimension == G.order


def test_find_norm_relation_survives_python_O():
    # verification gates the result explicitly, so python -O keeps it
    code = textwrap.dedent("""
        import json, sys
        from freerep.constructors import dihedral
        from freerep.normrel import find_norm_relation
        if __debug__:
            sys.exit("not running under python -O")
        out = find_norm_relation(dihedral(3))
        print(json.dumps({"verified": out.certificate.to_json()["verified"],
                          "ideal_dimension": out.ideal_dimension}))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"verified": True, "ideal_dimension": 6}


# -- the former Fraction elimination, kept as the oracle ---------------------------------

class _FractionRow:
    __slots__ = ("vec", "pivot", "combo")

    def __init__(self, vec, pivot, combo):
        self.vec = vec
        self.pivot = pivot
        self.combo = combo


class _FractionBasis:
    """Reduced echelon basis over Q with Fraction rows and per-row
    combinations over the generators, fed in the search's stream order."""

    def __init__(self, G):
        self.group = G
        self.subgroups = [C for C in cyclic_subgroups(G)
                          if is_prime(len(C))]
        self.rows = []
        self.generators = []  # (subgroup_index, coset_rep)

    def _reduce(self, vec, combo):
        for row in self.rows:
            c = vec[row.pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, row.vec)]
                for j, rc in row.combo.items():
                    combo[j] = combo.get(j, Fraction(0)) - c * rc
        return vec, combo

    def _insert(self, vec, combo):
        support = [(abs(c.numerator) + c.denominator, g)
                   for g, c in enumerate(vec) if c]
        if not support:
            return False
        _, pivot = min(support)
        inv = 1 / vec[pivot]
        vec = [inv * c for c in vec]
        combo = {j: inv * c for j, c in combo.items() if c}
        new = _FractionRow(vec, pivot, combo)
        for row in self.rows:
            c = row.vec[pivot]
            if c:
                row.vec = [a - c * b for a, b in zip(row.vec, vec)]
                for j, rc in combo.items():
                    row.combo[j] = row.combo.get(j, Fraction(0)) - c * rc
        self.rows.append(new)
        return True

    def feed_all(self):
        """The unit's generator combination once 1 is in the span, else None."""
        G = self.group
        n = G.order
        unit_red = [Fraction(1)] + [Fraction(0)] * (n - 1)
        unit_combo = {}
        gen_streams = []
        for ci, C in enumerate(self.subgroups):
            seen = [False] * n
            reps = []
            for g in range(n):
                if not seen[g]:
                    for h in C.elements:
                        seen[G.mul(g, h)] = True
                    reps.append(g)
            gen_streams.append((ci, C, reps))
        order = []
        depth = 0
        remaining = sum(len(reps) for _, _, reps in gen_streams)
        while len(order) < remaining:
            for ci, C, reps in gen_streams:
                if depth < len(reps):
                    order.append((ci, C, reps[depth]))
            depth += 1
        for ci, C, g in order:
            vec = [Fraction(0)] * n
            for h in C.elements:
                vec[G.mul(g, h)] = Fraction(1)
            gen_index = len(self.generators)
            self.generators.append((ci, g))
            vec, combo = self._reduce(vec, {gen_index: Fraction(1)})
            if self._insert(vec, combo):
                new = self.rows[-1]
                c = unit_red[new.pivot]
                if c:
                    unit_red = [a - c * b for a, b in zip(unit_red, new.vec)]
                    for j, rc in new.combo.items():
                        unit_combo[j] = unit_combo.get(j, Fraction(0)) - c * rc
                if all(v == 0 for v in unit_red):
                    return {j: -c for j, c in unit_combo.items() if c}
        return None


def _oracle(G):
    """(certificate or None, dimension of J) by the Fraction elimination."""
    basis = _FractionBasis(G)
    combo = basis.feed_all()
    if combo is None:
        return None, len(basis.rows)
    per_subgroup = {}
    for gen_index, coeff in combo.items():
        ci, g = basis.generators[gen_index]
        bucket = per_subgroup.setdefault(ci, GroupAlgebraElement(G))
        bucket.coeffs[g] += coeff
    terms = [(basis.subgroups[ci], sparse(coeff))
             for ci, coeff in per_subgroup.items() if not coeff.is_zero()]
    cert = NormRelationCertificate(G, terms)
    assert cert.verify()
    return cert, G.order


def test_modular_search_matches_fraction_oracle_on_corpus():
    for G in norm_relation_corpus():
        expected, dimension = _oracle(G)
        out = find_norm_relation(G)
        assert out.ideal_dimension == dimension, G.origin
        if expected is None:
            assert out.certificate is None, G.origin
        else:
            assert json.dumps(out.certificate.to_json()) \
                == json.dumps(expected.to_json()), G.origin


# -- retries, CRT and tampered proofs ------------------------------------------------------

def _small_primes(used: list):
    for q in range(11, 10 ** 5):
        if all(q % d for d in range(2, isqrt(q) + 1)):
            used.append(q)
            yield q


def test_small_primes_retry_and_combine_to_the_same_answer(monkeypatch):
    # primes from 11 up fail to reconstruct entries such as 1/3 alone, so
    # the search must retry and combine residues by CRT; the proved answer
    # is the one the default prime gives
    combined = []
    crt = normrel._crt
    monkeypatch.setattr(normrel, "_crt",
                        lambda *args: combined.append(1) or crt(*args))
    retried = []
    for G in norm_relation_corpus():
        expected = normrel._search(G, stop_at_unit=True)
        used = []
        got = normrel._search(G, stop_at_unit=True, primes=_small_primes(used))
        if len(used) > 1:
            retried.append(G.origin)
        if isinstance(expected, NormRelationCertificate):
            assert got.to_json() == expected.to_json(), G.origin
        else:
            # the pivots may differ mod a small prime; the space may not
            assert isinstance(got, NormIdealBasis), G.origin
            assert got.dimension == expected.dimension, G.origin
            assert got.spans(expected.rows).all(), G.origin
            assert expected.spans(got.rows).all(), G.origin
    assert retried and combined


def _proof_parts(G):
    subgroups = [C for C in cyclic_subgroups(G) if is_prime(len(C))]
    stream = normrel._generator_stream(G, subgroups)
    ech = normrel._eliminate(stream, G.order, normrel.MODULUS_LIMIT - 1, True)
    D, rows = normrel._rational_matrix(ech.rows, ech.p)
    all_generators = np.zeros((len(stream), G.order), dtype=np.int64)
    for i, (_, _, coset) in enumerate(stream):
        all_generators[i, coset] = 1
    return stream, ech, NormIdealBasis(G, list(ech.pivots), D, rows), \
        all_generators


@pytest.mark.parametrize("G", [cyclic(12), generalized_quaternion(16),
                               sd(7, 9, 2), sl2(3)],
                         ids=lambda g: g.origin)
def test_tampered_no_relation_proof_is_rejected(G):
    stream, ech, basis, gens = _proof_parts(G)
    assert normrel._proves(basis, stream, ech, True)
    for i in range(basis.dimension):
        dropped = NormIdealBasis(G, basis.pivots[:i] + basis.pivots[i + 1:],
                                 basis.denominator,
                                 np.delete(basis.rows, i, axis=0))
        assert not normrel._proves(dropped, stream, ech, True)
        assert not dropped.spans(gens).all()
    rng = np.random.default_rng(0)
    for _ in range(20):
        i = int(rng.integers(basis.dimension))
        j = int(rng.integers(G.order))
        changed = NormIdealBasis(G, basis.pivots, basis.denominator,
                                 basis.rows.copy())
        changed.rows[i, j] += 1
        assert not normrel._proves(changed, stream, ech, True)


# -- the elimination that reduces mod p at every update, kept as the oracle --------

def _eliminate_reducing_every_update(stream, n, p, stop_at_unit):
    """The former _eliminate: every update of the echelon form is reduced
    mod p at once."""
    rows = np.zeros((n, n), dtype=np.int64)
    combos = np.zeros((n, n), dtype=np.int64)
    row_of = np.full(n, -1)
    chosen, pivots = [], []
    unit_row = None
    for pos, (_, _, coset) in enumerate(stream):
        hit = row_of[coset]
        hit = hit[hit >= 0]
        w = -rows[hit].sum(axis=0)
        w[coset] += 1
        w %= p
        support = np.flatnonzero(w)
        if not support.size:
            continue
        r, col = len(pivots), int(support[0])
        inv = pow(int(w[col]), -1, p)
        w = w * inv % p
        k = -combos[hit, :r + 1].sum(axis=0)
        k[r] += 1
        k = k % p * inv % p
        touched = np.flatnonzero(rows[:r, col])
        f = rows[touched, col, None]
        rows[touched] = (rows[touched] - f * w) % p
        combos[touched, :r + 1] = (combos[touched, :r + 1] - f * k) % p
        rows[r], combos[r, :r + 1] = w, k
        row_of[col] = r
        chosen.append(pos)
        pivots.append(col)
        if stop_at_unit and row_of[0] >= 0 \
                and np.count_nonzero(rows[row_of[0]]) == 1:
            unit_row = int(row_of[0])
            break
    r = len(pivots)
    return normrel._Echelon(p, chosen, pivots, rows[:r].copy(),
                            combos[:r, :r].copy(), unit_row)


def _both_corpora():
    return list({G.origin: G for G in norm_relation_corpus()
                 + structural_corpus()}.values())


def _stream(G):
    subgroups = [C for C in cyclic_subgroups(G) if is_prime(len(C))]
    return normrel._generator_stream(G, subgroups)


def _first_prime():
    return next(normrel._primes_below(normrel.MODULUS_LIMIT))


def _assert_same_echelon(got, want, origin):
    assert got.chosen == want.chosen, origin
    assert got.pivots == want.pivots, origin
    assert np.array_equal(got.rows, want.rows), origin
    assert np.array_equal(got.combos, want.combos), origin
    assert got.unit_row == want.unit_row, origin


@pytest.mark.parametrize("reduce_every", [normrel.REDUCE_EVERY, 3])
def test_lazy_elimination_matches_the_reducing_oracle(reduce_every,
                                                      monkeypatch):
    # every third update reduced in full puts most corpus runs through
    # many full reductions; at the default no corpus rank reaches one
    monkeypatch.setattr(normrel, "REDUCE_EVERY", reduce_every)
    p = _first_prime()
    for G in _both_corpora():
        stream = _stream(G)
        for stop in (True, False):
            _assert_same_echelon(
                normrel._eliminate(stream, G.order, p, stop),
                _eliminate_reducing_every_update(stream, G.order, p, stop),
                G.origin)


def test_lazy_elimination_matches_past_a_full_reduction():
    # rank 792 > REDUCE_EVERY: the form is reduced in full mid-stream
    G = direct_product(cyclic(7), sl2(5))
    stream, p = _stream(G), _first_prime()
    got = normrel._eliminate(stream, G.order, p, False)
    assert len(got.pivots) == 792 > normrel.REDUCE_EVERY
    _assert_same_echelon(
        got, _eliminate_reducing_every_update(stream, G.order, p, False),
        G.origin)


def test_one_prime_proves_every_corpus_answer():
    # residues below 2**26 reconstruct fractions up to about 5792; the
    # corpus needs no second prime ("primes exhausted" otherwise)
    p = _first_prime()
    for G in _both_corpora():
        for stop in (True, False):
            normrel._search(G, stop_at_unit=stop, primes=[p])


# -- sparse checks against the dense products -----------------------------------------

def _dense(n, cosets, dtype=np.int64):
    """The 0/1 generator vectors of the given cosets, one per row."""
    v = np.zeros((len(cosets), n), dtype=dtype)
    for i, coset in enumerate(cosets):
        v[i, coset] = 1
    return v


def test_sparse_checks_match_the_dense_products():
    p = _first_prime()
    rng = np.random.default_rng(1)
    for G in _both_corpora():
        n, stream = G.order, _stream(G)
        ech = normrel._eliminate(stream, n, p, False)
        chosen = _dense(n, [stream[pos][2] for pos in ech.chosen])
        assert np.array_equal(normrel._chosen_product(stream, ech),
                              ech.combos @ chosen), G.origin
        basis = norm_ideal(G)
        cosets = [coset for _, _, coset in stream]
        gens = _dense(n, cosets)
        assert basis.spans_cosets(cosets) and basis.spans(gens).all()
        if not basis.dimension:
            continue
        tampered = [basis]
        if n <= 48:
            # python integers, as _rational_matrix gives for large entries
            big = NormIdealBasis(G, basis.pivots, basis.denominator * 2 ** 70,
                                 basis.rows.astype(object) * 2 ** 70)
            assert big.spans_cosets(cosets), G.origin
            tampered.append(big)
        for proved in tampered:
            changed = NormIdealBasis(G, proved.pivots, proved.denominator,
                                     proved.rows.copy())
            changed.rows[rng.integers(basis.dimension), rng.integers(n)] += 1
            dense = changed.spans(gens.astype(changed.rows.dtype))
            assert not dense.all(), G.origin
            assert [changed.spans_cosets([c]) for c in cosets] \
                == dense.tolist(), G.origin


# -- the integer certificate check --------------------------------------------------

def _verify_by_fractions(cert):
    """The former verify: the Q[G] sum of coeff * N(sub), compared with 1."""
    total = GroupAlgebraElement(cert.group)
    for sub, coeff in cert.terms:
        total = total + element(cert.group, coeff) * norm_element(sub)
    return total == GroupAlgebraElement.unit(cert.group)


def test_certificate_with_one_changed_coefficient_fails():
    certified = 0
    for G in norm_relation_corpus():
        cert = find_norm_relation(G).certificate
        if cert is None:
            continue
        certified += 1
        assert cert.verify() and _verify_by_fractions(cert), G.origin
        for t, (sub, coeff) in enumerate(cert.terms):
            coeff = element(G, coeff)
            outside = [g for g in range(G.order) if not coeff.coeffs[g]]
            for g in coeff.support()[:1] + outside[:1]:
                changed = GroupAlgebraElement(G, coeff.coeffs)
                changed.coeffs[g] += Fraction(1, 7)
                terms = list(cert.terms)
                terms[t] = (sub, sparse(changed))
                wrong = NormRelationCertificate(G, terms)
                assert not wrong.verify() and not wrong.verified, G.origin
                assert not _verify_by_fractions(wrong), G.origin
    assert certified >= 10


def test_certificate_check_with_python_integers():
    # coefficients of 2**70 push the sum past int64
    cert = find_norm_relation(klein_four()).certificate
    G, H = cert.group, cert.terms[0][0]
    big = Fraction(2 ** 70, 3)
    terms = cert.terms + [(H, {1: big}), (H, {1: -big})]
    assert NormRelationCertificate(G, terms).verify()
    terms[-1] = (H, {1: 1 - big})
    assert not NormRelationCertificate(G, terms).verify()


def test_certificate_check_rejects_trivial_and_foreign_terms():
    G = klein_four()
    unit = {0: Fraction(1)}
    cert = NormRelationCertificate(G, [(Subgroup(G, [0]), unit)])
    assert not cert.verify() and not cert.verified
    other = klein_four()
    with pytest.raises(ParentMismatch):
        NormRelationCertificate(G, [(Subgroup(other, [0, 1]), unit)]).verify()


@pytest.mark.parametrize("key", [-1, 4, 2.0, True, "1"])
def test_certificate_check_rejects_keys_outside_the_group(key):
    # the last klein term is -1/2 * 2 * N({0, 1}), and 3 * {0, 1} is the same
    # coset, so numpy, reading key -1 as element 3, would pass the
    # certificate; key 4 = |G| lies past the table; 2.0 equals an element
    # but is no index, and True would index as a boolean
    cert = find_norm_relation(klein_four()).certificate
    G, (*kept, (sub, coeff)) = cert.group, cert.terms
    assert sub.elements == (0, 1) and coeff == {2: Fraction(-1, 2)}
    assert NormRelationCertificate(G, [*kept, (sub, {3: coeff[2]})]).verify()
    wrong = NormRelationCertificate(G, [*kept, (sub, {key: coeff[2]})])
    with pytest.raises(ParentMismatch):
        wrong.verify()
    assert not wrong.verified
