"""Self-tests of the benchmark: its output checks, its tracer, its metric names.

    python3 -m pytest perfbench -q
"""

import importlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import freerep.cli  # noqa: E402
from child import run_calls  # noqa: E402
from run import Run  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def cli_json(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert freerep.cli.main(["--json", *argv]) == 0
    return json.loads(out.getvalue())


def problems(calls) -> list:
    return [c["problem"] for c in run_calls(calls, freerep.cli.main)]


def test_correct_outputs_pass():
    assert problems([(["analyze", "sd(7,9,2)"], {"fr": True, "mcc_order": 21}),
                     (["norm-relation", "D35"], {"fr": False}),
                     (["norm-relation", "C21"], {"fr": True, "order": 21, "ideal_dim": 9}),
                     (["represent", "C21"], {"fr": True}),
                     (["represent", "D35"], {"fr": False}),
                     (["census", "5"], {})]) == [None] * 6


def test_checker_flags_wrong_verdict():
    assert problems([(["analyze", "C21"], {"fr": False})]) == ["verdict 'yes'"]
    assert problems([(["norm-relation", "C21"], {"fr": False})]) == ["no verified certificate"]
    assert problems([(["norm-relation", "C21"], {"fr": True, "order": 21, "ideal_dim": 8})]) \
        == ["ideal_dimension 9, expected 8"]


def test_checker_flags_unverified_certificate():
    data = cli_json("norm-relation", "D35")
    assert check(["norm-relation", "D35"], {"fr": False}, 0, json.dumps(data)) is None
    data["verified"] = False
    assert check(["norm-relation", "D35"], {"fr": False}, 0, json.dumps(data)) \
        == "no verified certificate"


def test_checker_flags_nonzero_exit():
    # a parse error exits 1; the census of SL2(17) exceeds the default cap and exits 2
    assert problems([(["analyze", "X9"], {"fr": True}),
                     (["census", "17"], {})]) == ["exit code 1", "exit code 2"]


def test_planted_wrong_answer_is_counted(monkeypatch):
    real = freerep.cli.classify

    def wrong(G):
        report = real(G)
        report.fr_verdict.answer = not report.fr_verdict.answer
        return report

    monkeypatch.setattr(freerep.cli, "classify", wrong)
    results = run_calls([(["analyze", "C21"], {"fr": True}),
                         (["represent", "C21"], {"fr": True})], freerep.cli.main)
    assert [bool(r["problem"]) for r in results] == [True, False]


def _bindings() -> dict:
    """Every name bound in a freerep module or class, with the object's id."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "freerep":
            continue
        for name, value in vars(mod).items():
            out[(mod_name, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, name, attr)] = id(member)
    return out


def test_tracer_restores_every_wrapped_name():
    for module in {module for targets in SPANS.values() for module, _ in targets}:
        importlib.import_module("freerep." + module)  # the tracer imports them too
    # `freerep.classify` is the re-exported function, so modules come from sys.modules
    importers = [sys.modules["freerep." + name] for name in ("groups", "classify", "sl2census")]
    before = _bindings()
    original = importers[0].normal_closure
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        for mod in importers:
            assert mod.normal_closure is not original
        assert sum(before[k] != v for k, v in _bindings().items() if k in before) > 50
        with redirect_stdout(io.StringIO()):
            tracer.call(freerep.cli.main, ["--json", "analyze", "SL2(3)"])
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert tracer.counts["groups.normal_closure_calls"] > 0


def test_metric_names_match_declaration():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for name in end_to_end | per_layer | {w["name"] for w in declared["workloads"]}:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)

    call = {"seconds": 1.0, "speed": 1.0, "peak_rss_mib": 1.0, "layers": Tracer().metrics()}
    run = Run("decide", 0, 1)
    run.passes = {"plain": [[call]], "traced": [[call]]}
    run.setups = [0.1]
    assert set(run.end_to_end()) == end_to_end
    assert set(run.per_layer()) == per_layer
