"""The benchmark's workloads and the checks on their outputs.

A call is the argument list of one `freerep --json ...` invocation, paired
with the facts the mathematics settles about its answer.  The checks read
only those facts from the parsed JSON: never the human-readable text, never
values the program is known to report wrongly (such as `ideal_dimension`
when a certificate exists), so a later correctness fix cannot show up as a
benchmark failure.

Why each workload exists is written up in README.md.
"""

from __future__ import annotations

import json

# Facts per call:
#   fr           -- the freely-representable verdict
#   mcc_order    -- |mu(G)| where it is pinned
#   order        -- |G|, to check ideal_dimension < |G| when no relation exists
#   ideal_dim    -- n - phi(n), the closed form for cyclic C_n
# census and survey210 calls carry no facts: their own self-checks
# (all_match, order_formula_holds, unique_involution) must all hold.

DECIDE = [
    (["analyze", "C200"], {"fr": True}),
    (["analyze", "D100"], {"fr": False}),
    (["analyze", "Q128"], {"fr": True}),
    (["analyze", "2D25"], {"fr": True}),
    (["analyze", "sd(7,9,2)"], {"fr": True, "mcc_order": 21}),
    (["analyze", "sd(35,3,11)"], {"fr": False}),
    (["analyze", "sd(49,3,18)"], {"fr": False}),
    (["analyze", "prod(C5,SL2(3))"], {"fr": True}),
    (["analyze", "SL2(7)"], {"fr": False}),
    (["analyze", "2O"], {"fr": True}),
    (["analyze", "D210"], {"fr": False}),
    (["analyze", "prod(C3,SL2(5))"], {"fr": False}),
    (["analyze", "prod(C7,SL2(5))"], {"fr": True}),
    (["analyze", "C840"], {"fr": True}),
    (["analyze", "prod(Q16,sd(7,9,2))"], {"fr": True}),
    (["survey210"], {}),
]

CERTIFY = [
    # no relation exists: the search runs the full elimination
    (["norm-relation", "C210"], {"fr": True, "order": 210, "ideal_dim": 162}),
    (["norm-relation", "SL2(5)"], {"fr": True, "order": 120}),
    (["norm-relation", "sd(7,9,2)"], {"fr": True, "order": 63}),
    (["norm-relation", "C128"], {"fr": True, "order": 128, "ideal_dim": 64}),
    # a certificate exists: the search stops as soon as 1 is in the ideal
    (["norm-relation", "D64"], {"fr": False}),
    (["norm-relation", "D35"], {"fr": False}),
    (["norm-relation", "prod(C2,C2)"], {"fr": False}),
    (["norm-relation", "prod(C3,C3)"], {"fr": False}),
    (["norm-relation", "sd(35,3,11)"], {"fr": False}),
    (["represent", "sd(7,9,2)"], {"fr": True}),
    (["represent", "2O"], {"fr": True}),
    (["represent", "2T"], {"fr": True}),
    (["represent", "Q16"], {"fr": True}),
    (["represent", "prod(C7,Q8)"], {"fr": True}),
    (["represent", "prod(C5,Q8)"], {"fr": True}),
    (["represent", "C21"], {"fr": True}),
    (["represent", "D35"], {"fr": False}),
]

SL2 = [
    (["census", "7"], {}),
    (["census", "11"], {}),
    (["census", "13"], {}),
    (["analyze", "SL2(11)"], {"fr": False}),
]

WORKLOADS = {"decide": DECIDE, "certify": CERTIFY, "sl2": SL2}


def kind(argv: list, facts: dict) -> str:
    """The end-to-end bucket a call's time is summed into."""
    if argv[0] == "norm-relation":
        return "no_relation" if facts["fr"] else "certificate"
    return argv[0].replace("-", "_")


def check(argv: list, facts: dict, code, stdout: str) -> str | None:
    """Why the call's output is wrong, or None if every fact holds."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _problem(argv, facts, json.loads(stdout))
    except ValueError:
        return "stdout is not JSON"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _problem(argv: list, facts: dict, data: dict) -> str | None:
    command = argv[0]
    if command == "analyze":
        answer = data["freely_representable"]["answer"]
        if answer != ("yes" if facts["fr"] else "no"):
            return f"verdict {answer!r}"
        if "mcc_order" in facts and data["mcc_order"] != facts["mcc_order"]:
            return f"mcc_order {data['mcc_order']}"
    elif command == "norm-relation":
        if facts["fr"]:
            if "terms" in data or data.get("certificate") is not None:
                return "certificate for a freely representable group"
            dim = data["ideal_dimension"]
            if not dim < facts["order"]:
                return f"ideal_dimension {dim} not below |G|"
            if "ideal_dim" in facts and dim != facts["ideal_dim"]:
                return f"ideal_dimension {dim}, expected {facts['ideal_dim']}"
        elif not data.get("terms") or data.get("verified") is not True:
            return "no verified certificate"
    elif command == "represent":
        if facts["fr"]:
            if data.get("verified_free") is not True:
                return "representation not verified free"
        elif data.get("representation", False) is not None:
            return "representation for a group that is not freely representable"
    elif command == "census":
        p = int(argv[1])
        if data["group_order"] != p * (p * p - 1):
            return f"group_order {data['group_order']}"
        for key in ("all_match", "order_formula_holds", "unique_involution"):
            if data[key] is not True:
                return f"{key} is {data[key]!r}"
    elif command == "survey210":
        if data["all_match"] is not True:
            return "all_match is not true"
    else:
        return f"unknown command {command!r}"
    return None
