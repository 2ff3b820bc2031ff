"""Command-line front end: group-spec mini-language, analysis commands,
JSON/text reports, and the order-210 survey."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    CapExceeded,
    DeadlineExceeded,
    FreerepError,
    InvariantViolated,
    NotFreelyRepresentable,
    ParseError,
)
from .groups import Group, Homomorphism
from .classify import classify, is_freely_representable, mcc_subgroup
from .normrel import find_norm_relation
from .represent import build_free_representation, verify_free
from .run import limits
from .sl2census import census_report


# -- group-spec grammar -------------------------------------------------------
#
#   spec := atom | "prod(" spec "," spec ")" | "sd(" int "," int "," int ")"
#   atom := "C" int | "D" int | "Q" int | "SL2(" prime ")"
#         | "2T" | "2O" | "2I" | "2D" int | "quat(" qlist ")"
#
# Case-insensitive.  Quaternion literals: q(w,x,y,z) with components
# a, a/b, a/b*r2, a/b*r5 (r2 = sqrt 2, r5 = sqrt 5).

# kind -> (keyword, integer arguments, canonical format, constructor,
# its leading arguments).  A keyword ending in "(" takes its integers in
# parentheses.  The parser tries the kinds in this order, after prod and quat.
# The constructor is looked up on freerep.constructors when a spec is built,
# so a function rebound there is the one called.
_ATOMS = {
    "sd": ("sd(", 3, "sd({},{},{})", "sd", ()),
    "SL2": ("sl2(", 1, "SL2({})", "sl2", ()),
    "2T": ("2t", 0, "2T", "binary_polyhedral", ("2T",)),
    "2O": ("2o", 0, "2O", "binary_polyhedral", ("2O",)),
    "2I": ("2i", 0, "2I", "binary_polyhedral", ("2I",)),
    "2D": ("2d", 1, "2D{}", "binary_polyhedral", ("2D",)),
    "C": ("c", 1, "C{}", "cyclic", ()),
    "D": ("d", 1, "D{}", "dihedral", ()),
    "Q": ("q", 1, "Q{}", "generalized_quaternion", ()),
}


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    params: tuple = ()
    children: tuple = ()

    def canonical(self) -> str:
        if self.kind == "prod":
            return f"prod({self.children[0].canonical()},{self.children[1].canonical()})"
        if self.kind in _ATOMS:
            return _ATOMS[self.kind][2].format(*self.params)
        if self.kind == "quat":
            return "quat({})".format(",".join(_quat_literal(q)
                                              for q in self.params))
        raise ParseError(f"unknown spec kind {self.kind}", 0)

    def build(self) -> Group:
        from . import constructors as cons

        if self.kind == "prod":
            return cons.direct_product(self.children[0].build(),
                                       self.children[1].build())
        if self.kind in _ATOMS:
            _, _, _, constructor, leading = _ATOMS[self.kind]
            return getattr(cons, constructor)(*leading, *self.params)
        if self.kind == "quat":
            from .quaternions import finite_quaternion_group

            return finite_quaternion_group(list(self.params))
        raise ParseError(f"unknown spec kind {self.kind}", 0)


def _quat_literal(q) -> str:
    return "q({},{},{},{})".format(q.w, q.x, q.y, q.z)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self) -> None:
        while self.peek().isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek().lower() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.peek().isalnum():
            self.pos += 1
        return self.text[start:self.pos].lower()

    def spec(self) -> GroupSpec:
        self.skip_ws()
        rest = self.text[self.pos:].lower()
        if rest.startswith("prod("):
            self.pos += 5
            a = self.spec()
            self.expect(",")
            b = self.spec()
            self.expect(")")
            return GroupSpec("prod", children=(a, b))
        if rest.startswith("quat("):
            self.pos += 5
            quats = [self.quaternion()]
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                quats.append(self.quaternion())
                self.skip_ws()
            self.expect(")")
            return GroupSpec("quat", params=tuple(quats))
        for kind, (keyword, arity, *_) in _ATOMS.items():
            if rest.startswith(keyword):
                self.pos += len(keyword)
                params = []
                for i in range(arity):
                    if i:
                        self.expect(",")
                    params.append(self.integer())
                if keyword.endswith("("):
                    self.expect(")")
                if kind == "Q" and (params[0] < 8 or params[0] & (params[0] - 1)):
                    raise self.error("Q requires a power of 2 that is >= 8")
                return GroupSpec(kind, params=tuple(params))
        raise self.error("expected a group spec")

    def quaternion(self):
        from .quaternions import Quaternion

        self.skip_ws()
        if self.word() != "q":
            raise self.error("expected quaternion literal q(w,x,y,z)")
        self.expect("(")
        comps = [self.component()]
        for _ in range(3):
            self.expect(",")
            comps.append(self.component())
        self.expect(")")
        d = 1
        for c in comps:
            if c.d != 1:
                if d not in (1, c.d):
                    raise self.error("mixed quadratic fields in quaternion")
                d = c.d
        return Quaternion.of(*comps, d=d)

    def component(self):
        from .quaternions import QuadFieldElement

        self.skip_ws()
        value = self._signed_fraction()
        self.skip_ws()
        if self.peek() == "*":
            self.pos += 1
            tag = self.word()
            if tag not in ("r2", "r5"):
                raise self.error("expected r2 or r5")
            d = int(tag[1])
            return QuadFieldElement.of(0, d, value)
        return QuadFieldElement.of(value)

    def _signed_fraction(self) -> Fraction:
        num = self.integer()
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def finish(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")


def parse_group_spec(text: str) -> GroupSpec:
    parser = _Parser(text)
    spec = parser.spec()
    parser.finish()
    return spec


# -- the order-210 survey -----------------------------------------------------

# expected mu-orders per (A-order, canonical class representative r)
_SURVEY_EXPECTED = {
    (1, 1): 210, (3, 2): 105, (5, 4): 105, (7, 6): 105, (7, 2): 70,
    (7, 3): 35, (15, 14): 105, (21, 20): 105, (35, 34): 105, (35, 4): 35,
    (35, 19): 35, (105, 104): 105,
}


def survey210() -> dict:
    """Reproduce the classification of the 12 groups of order 210."""
    from .constructors import cyclic, sd

    cases = []  # (m, sorted tuple of merged r values)
    for m in (1, 3, 5, 7, 15, 21, 35, 105):
        n = 210 // m
        if m == 1:
            cases.append((1, (1,)))
            continue
        valid = [r for r in range(2, m)
                 if gcd(r, m) == 1 and pow(r, n, m) == 1 and gcd(r - 1, m) == 1]
        merged = []
        seen = set()
        for r in valid:
            if r in seen:
                continue
            rinv = pow(r, -1, m)
            cls = tuple(sorted({r, rinv}))
            seen.update(cls)
            merged.append(cls)
        cases.extend((m, cls) for cls in merged)

    rows = []
    built = {}
    for m, cls in cases:
        G = cyclic(210) if m == 1 else sd(m, 210 // m, cls[0])
        built[(m, cls)] = G
        mu = mcc_subgroup(G)
        fr = is_freely_representable(G)
        expected = _SURVEY_EXPECTED.get((m, cls[0]))
        # duplicates merged by r <-> r^-1 really are isomorphic, by
        # a^i b^j -> a^i b^-j, with element a^i b^j at index i*n + j
        if len(cls) == 2:
            n = 210 // m
            flip = [i * n + (-j) % n for i in range(m) for j in range(n)]
            if not Homomorphism(G, sd(m, n, cls[1]), flip).is_bijective():
                raise InvariantViolated(f"sd({m},{n},r) for r in {cls} "
                                        "are not isomorphic")
        rows.append({
            "A_order": m,
            "r_class": list(cls),
            "mu_order": len(mu),
            "freely_representable": fr.answer,
            "expected_mu_order": expected,
            "matches_expected": expected == len(mu),
        })

    fingerprints = [built[key].fingerprint() for key in built]
    distinct = len(set(fingerprints))
    return {
        "class_count": len(rows),
        "distinct_fingerprints": distinct,
        "rows": rows,
        "all_match": all(r["matches_expected"] for r in rows)
        and len(rows) == 12 and distinct == 12
        and sum(r["freely_representable"] for r in rows) == 1,
    }


# -- commands -------------------------------------------------------------------


def cmd_analyze(spec_text: str, as_json: bool) -> str:
    spec = parse_group_spec(spec_text)
    G = spec.build()
    report = classify(G)
    data = report.to_json()
    data["group_spec"] = spec.canonical()
    if as_json:
        return json.dumps(data, indent=2)
    lines = [
        f"group {spec.canonical()} of order {G.order}",
        "sylow profile: " + ", ".join(
            f"{p}: {c.kind}({c.order})"
            for p, c in sorted(report.sylow_profile.items())),
        f"sylow-cyclic: {report.is_sylow_cyclic}; "
        f"sylow-cycloidal: {report.is_sylow_cycloidal}",
        f"odd core order: {len(report.odd_core)}",
        f"cycloidal type: {report.cycloidal_type}",
        f"mu(G) order: {len(report.mcc) if report.mcc else '-'}",
        f"unique involution: {report.unique_involution}",
        f"semiprime-cyclic: {report.semiprime_cyclic}",
        "freely representable: "
        + ("yes" if report.fr_verdict.answer else "no")
        + f" ({report.fr_verdict.criterion})",
    ]
    if report.fr_verdict.witness is not None:
        lines.append(f"witness subgroup of order {len(report.fr_verdict.witness)}")
    return "\n".join(lines)


def cmd_norm_relation(spec_text: str, as_json: bool) -> str:
    spec = parse_group_spec(spec_text)
    G = spec.build()
    out = find_norm_relation(G)
    if out.certificate is None:
        if as_json:
            return json.dumps({
                "group_spec": spec.canonical(),
                "certificate": None,
                "ideal_dimension": out.ideal_dimension,
                "freely_representable": True,
            }, indent=2)
        return (f"none (freely representable); "
                f"norm ideal has dimension {out.ideal_dimension} < {G.order}")
    cert = out.certificate
    if as_json:
        return json.dumps(cert.to_json(spec.canonical()), indent=2)
    lines = [f"norm relation of unity for {spec.canonical()} "
             f"({len(cert.terms)} terms, verified={cert.verified}):"]
    for sub, coeff in cert.terms:
        terms = " + ".join(f"{c}*{G.label(g)}" for g, c in sorted(coeff.items()))
        lines.append(f"  [{terms}] * N(subgroup of order {len(sub)})")
    return "\n".join(lines)


def cmd_represent(spec_text: str, as_json: bool) -> str:
    spec = parse_group_spec(spec_text)
    G = spec.build()
    try:
        rep = build_free_representation(G)
    except NotFreelyRepresentable as exc:
        if as_json:
            return json.dumps({"group_spec": spec.canonical(),
                               "representation": None,
                               "reason": str(exc)}, indent=2)
        return f"not freely representable: {exc}"
    if rep is None:
        if as_json:
            return json.dumps({"group_spec": spec.canonical(),
                               "representation": None,
                               "reason": "unsupported shape"}, indent=2)
        return "freely representable, but no constructive route (unsupported shape)"
    report = verify_free(rep)
    if not report.free:
        raise InvariantViolated(
            f"{spec.canonical()}: constructed representation is not free "
            f"(element {report.failing_element} fixes a vector)")
    if as_json:
        data = rep.to_json(spec.canonical())
        data["verified_free"] = report.free
        return json.dumps(data, indent=2)
    return (f"free representation of degree {rep.degree} over "
            f"Q(zeta_{rep.conductor}); the norm sum of every "
            f"prime-order cyclic subgroup vanishes")


def cmd_census(p: int, as_json: bool) -> str:
    data = census_report(p)
    if as_json:
        return json.dumps(data, indent=2)
    lines = [f"SL2(F_{p}): order {data['group_order']} "
             f"(formula holds: {data['order_formula_holds']}, "
             f"unique involution: {data['unique_involution']})",
             f"{'m':>4} {'predicted':>10} {'observed':>10} match"]
    for row in data["rows"]:
        lines.append(f"{row['m']:>4} {row['predicted']:>10} "
                     f"{row['observed']:>10} {str(row['match']).lower()}")
    lines.append(f"all match: {data['all_match']}")
    return "\n".join(lines)


def cmd_survey210(as_json: bool) -> str:
    data = survey210()
    if as_json:
        return json.dumps(data, indent=2)
    lines = [f"{'|A|':>4} {'r class':>10} {'mu order':>9} {'FR':>4} match"]
    for row in data["rows"]:
        lines.append(
            f"{row['A_order']:>4} {str(row['r_class']):>10} "
            f"{row['mu_order']:>9} {'yes' if row['freely_representable'] else 'no':>4} "
            f"{str(row['matches_expected']).lower()}")
    lines.append(f"classes: {data['class_count']}; all match: {data['all_match']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freerep",
        description="Decide free representability, emit norm-relation "
                    "certificates, and build exact free representations.")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--cap", type=int, default=None,
                        help="refuse any group of order above N in every "
                             "stage (default: each stage's own cap)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="soft time limit in seconds, checked in the "
                             "long loops of every stage")
    parser.add_argument("command", choices=(
        "analyze", "norm-relation", "represent", "census", "survey210"))
    parser.add_argument("operand", nargs="?",
                        help="a group spec (analyze, norm-relation, "
                             "represent) or a prime p (census)")
    args = parser.parse_args(argv)
    given = args.operand
    if (given is None) != (args.command == "survey210"):
        parser.error(f"{args.command} takes "
                     + ("no operand" if given is not None else "one operand"))
    if args.command == "census":
        try:
            given = int(given)
        except ValueError:
            parser.error(f"census: invalid int value: {given!r}")

    try:
        with limits(seconds=args.deadline, cap=args.cap):
            if args.command == "analyze":
                text = cmd_analyze(given, args.json)
            elif args.command == "norm-relation":
                text = cmd_norm_relation(given, args.json)
            elif args.command == "represent":
                text = cmd_represent(given, args.json)
            elif args.command == "census":
                text = cmd_census(given, args.json)
            else:
                text = cmd_survey210(args.json)
    except FreerepError as exc:
        print(json.dumps({"kind": type(exc).__name__, "detail": str(exc),
                          "offending_input": str(
                              args.command if given is None else given)}),
              file=sys.stderr)
        return 2 if isinstance(exc, (CapExceeded, DeadlineExceeded)) else 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left (| head): exit as SIGPIPE would, with no flush error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
