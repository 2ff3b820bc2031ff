"""Group-spec parser and command-line behavior."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isomorphism import is_isomorphic
from freerep.errors import ParseError
from freerep.cli import main, parse_group_spec, survey210
from freerep.constructors import cyclic, generalized_quaternion, sd


# -- parser ----------------------------------------------------------------------

def test_parse_c12():
    spec = parse_group_spec("C12")
    G = spec.build()
    assert G.order == 12
    assert is_isomorphic(G, cyclic(12)) is not None


def test_parse_sd():
    spec = parse_group_spec("sd(7,9,2)")
    assert spec.build().order == 63


def test_parse_prod_nested():
    spec = parse_group_spec("prod(C5,2O)")
    G = spec.build()
    assert G.order == 240


def test_parse_case_insensitive():
    assert parse_group_spec("q16").build().order == 16
    assert parse_group_spec("sl2(3)").build().order == 24
    assert parse_group_spec("2t").build().order == 24


def test_parse_quat_literal():
    spec = parse_group_spec("quat(q(0,1,0,0),q(0,0,1,0))")
    G = spec.build()
    assert is_isomorphic(G, generalized_quaternion(8)) is not None


def test_parse_quat_sqrt2():
    spec = parse_group_spec("quat(q(1/2*r2,1/2*r2,0,0),q(0,0,1,0))")
    assert spec.build().order == 16


def test_parse_roundtrip_canonical():
    for text in ("C12", "D6", "Q16", "SL2(5)", "2T", "2O", "2I", "2D7",
                 "sd(7,9,2)", "prod(C5,Q8)", "Prod(c5, sL2(3))",
                 "quat(q(0,1,0,0),q(0,0,1,0))"):
        spec = parse_group_spec(text)
        assert parse_group_spec(spec.canonical()) == spec


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_group_spec("prod(C2;C2)")
    assert err.value.position == 7
    with pytest.raises(ParseError):
        parse_group_spec("Q12")  # not a power of two
    with pytest.raises(ParseError):
        parse_group_spec("C12 junk")


# -- commands --------------------------------------------------------------------

def test_cmd_analyze_q8(capsys):
    assert main(["analyze", "Q8"]) == 0
    out = capsys.readouterr().out
    assert "cycloidal type: quaternion" in out
    assert "freely representable: yes" in out


def test_cmd_analyze_json(capsys):
    assert main(["--json", "analyze", "D5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["freely_representable"]["answer"] == "no"
    assert data["group_spec"] == "D5"


def test_cmd_norm_relation_fr_group(capsys):
    assert main(["norm-relation", "Q8"]) == 0
    out = capsys.readouterr().out
    assert "none (freely representable)" in out


def test_cmd_norm_relation_json_verified(capsys):
    assert main(["--json", "norm-relation", "D3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] is True


def test_cmd_represent_json(capsys):
    assert main(["--json", "represent", "C6"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 1
    assert data["verified_free"] is True


def test_cmd_represent_not_fr(capsys):
    assert main(["represent", "D4"]) == 0
    assert "not freely representable" in capsys.readouterr().out


def test_cmd_census(capsys):
    assert main(["census", "3"]) == 0
    out = capsys.readouterr().out
    assert "all match: True" in out


def test_parse_error_exit_code(capsys):
    assert main(["analyze", "nonsense!!"]) == 1
    err = capsys.readouterr().err
    data = json.loads(err)
    assert data["kind"] == "ParseError"
    assert data["offending_input"] == "nonsense!!"


@pytest.mark.parametrize("spec,code,kind,detail", [
    ("quat(q(1,1,0,0))", 1, "NotUnit",
     "generator 1+1i is not a unit quaternion"),
    ("quat(q(3/5,4/5,0,0))", 2, "CapExceeded",
     "finite_quaternion_group: order 1001 exceeds cap 1000"),
    ("quat(q(1/2*r2,1/2*r2,0,0),q(0,0,0,1*r5))", 1, "BadParams",
     "no common field for tags [2, 5]"),
    ("quat(q(1/2*r2,0,0,1/2*r5))", 1, "ParseError",
     "mixed quadratic fields in quaternion (at position 25)"),
], ids=["not-unit", "infinite-order", "fields-across", "fields-within"])
def test_quaternion_spec_errors(spec, code, kind, detail, capsys):
    # the stderr JSON of each quaternion error path, as first recorded
    assert main(["analyze", spec]) == code
    assert json.loads(capsys.readouterr().err) == {
        "kind": kind, "detail": detail, "offending_input": spec}


def test_census_error_names_its_argument(capsys):
    assert main(["--json", "census", "2"]) == 1
    data = json.loads(capsys.readouterr().err)
    assert data["kind"] == "BadParams"
    assert data["offending_input"] == "2"


@pytest.mark.parametrize("argv", [["census", "x"], ["analyze"],
                                  ["survey210", "C5"]],
                         ids=["census-not-int", "analyze-no-spec",
                              "survey210-with-operand"])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: freerep" in capsys.readouterr().err


def test_cap_error_exit_code(capsys):
    assert main(["census", "17"]) == 2  # opt-in required
    data = json.loads(capsys.readouterr().err)
    assert data["kind"] == "CapExceeded"


def test_construction_error_exit_code(capsys):
    assert main(["analyze", "sd(9,3,2)"]) == 1  # gcd(m,n) != 1
    data = json.loads(capsys.readouterr().err)
    assert data["kind"] == "BadParams"


def test_norm_relation_cap_flag(capsys):
    # D200 has order 400 > default norm-relation cap 256
    assert main(["norm-relation", "D200"]) == 2
    data = json.loads(capsys.readouterr().err)
    assert data["kind"] == "CapExceeded"


# -- run limits: one meaning of --deadline and --cap in every command -----------

# one call per command, with the order of the largest group it builds
LIMITED_CALLS = [
    (["analyze", "sd(7,9,2)"], 63),
    (["norm-relation", "D35"], 70),
    (["represent", "Q16"], 16),
    (["census", "5"], 120),
    (["survey210"], 210),
]
LIMITED_IDS = [argv[0] for argv, _ in LIMITED_CALLS]


@pytest.mark.parametrize("argv,order", LIMITED_CALLS, ids=LIMITED_IDS)
def test_deadline_zero_exits_2(argv, order, capsys):
    assert main(["--deadline", "0", *argv]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "DeadlineExceeded"
    assert main(argv) == 0  # the deadline ended with the call


@pytest.mark.parametrize("argv,order", LIMITED_CALLS, ids=LIMITED_IDS)
def test_cap_below_the_order_exits_2(argv, order, capsys):
    assert main(["--cap", str(order - 1), *argv]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "CapExceeded"
    assert main(["--cap", str(order), *argv]) == 0


@pytest.mark.parametrize("flags", [["--deadline", "-1"], ["--cap", "0"]])
def test_limits_out_of_range_exit_1(flags, capsys):
    assert main([*flags, "analyze", "C6"]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "BadParams"


def test_sl2_of_a_huge_modulus_fails_fast(capsys):
    # 10^400 is beyond the exact primality test; 10^18 + 3 is a prime whose
    # SL2 is far above the cap, found without waiting for the deadline
    assert main(["analyze", "SL2(1" + "0" * 400 + ")"]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == "BadParams"
    assert main(["--deadline", "1", "analyze", "SL2(1000000000000000003)"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "CapExceeded"


def test_cap_opts_in_to_the_sl2_17_census(capsys):
    assert main(["--cap", "5000", "census", "17"]) == 0
    out = capsys.readouterr().out
    assert "order 4896" in out and "all match: True" in out


def test_text_and_json_verdicts_agree(capsys):
    main(["analyze", "sd(7,9,2)"])
    text = capsys.readouterr().out
    main(["--json", "analyze", "sd(7,9,2)"])
    data = json.loads(capsys.readouterr().out)
    assert ("freely representable: yes" in text) == \
        (data["freely_representable"]["answer"] == "yes")


def _env(**extra):
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cli(argv, **env):
    return subprocess.run([sys.executable, "-m", "freerep.cli", *argv],
                          env=_env(**env), capture_output=True)


def test_analyze_does_not_import_numpy_ma():
    # numpy.ma loads on the first np.unique of a process, about 15 ms of
    # every fresh analyze call
    code = ("import sys\n"
            "from freerep.cli import main\n"
            "main(['analyze', 'sd(7,9,2)'])\n"
            "sys.exit(3 if 'numpy.ma' in sys.modules else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# the calls whose answers depend on element orders that a closure discovers
HASH_SEED_CALLS = [["analyze", "2O"], ["represent", "2O"], ["represent", "2T"],
                   ["census", "7"], ["census", "11"],
                   ["--json", "norm-relation", "sd(35,3,11)"]]


@pytest.mark.parametrize("argv", HASH_SEED_CALLS, ids=" ".join)
def test_stdout_does_not_depend_on_the_hash_seed(argv):
    runs = [_cli(argv, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_a_reader_that_leaves_early_gets_no_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "freerep.cli", "--cap", "1000", "norm-relation", "D250"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child can write: its print hits EPIPE
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert err == b""


# -- survey ----------------------------------------------------------------------

def test_survey210_shape():
    data = survey210()
    assert data["class_count"] == 12
    assert data["all_match"] is True
    fr_rows = [r for r in data["rows"] if r["freely_representable"]]
    assert len(fr_rows) == 1 and fr_rows[0]["A_order"] == 1


def test_survey210_mu_orders():
    data = survey210()
    got = {(r["A_order"], r["r_class"][0]): r["mu_order"]
           for r in data["rows"]}
    assert got == {
        (1, 1): 210, (3, 2): 105, (5, 4): 105, (7, 6): 105, (7, 2): 70,
        (7, 3): 35, (15, 14): 105, (21, 20): 105, (35, 34): 105,
        (35, 4): 35, (35, 19): 35, (105, 104): 105,
    }


def test_cmd_survey210(capsys):
    assert main(["survey210"]) == 0
    out = capsys.readouterr().out
    assert "classes: 12; all match: True" in out


# -- stdout stays byte-identical -------------------------------------------------

# sha256 of stdout, recorded before the run limits became one context: one
# analyze spec per verdict criterion but the SL2(17) poison pill (14 s) and
# per cycloidal type, norm relations with and without a certificate
CLI_STDOUT_SHA256 = {
    (("analyze", "C12"), "json"):
        "d811117876fced137f8e1d0ac835c9a97b4c0fc78f701ae8d2da18fed1bac377",
    (("analyze", "C12"), "text"):
        "cce6216a7df0dfbdc65df9f27029af211f316448f2f46c379ed8f811da1be7f8",
    (("analyze", "Q16"), "json"):
        "0a9e5e0c7615415453b5aaebd9c97416f686a85398540087a39839bdeee9552c",
    (("analyze", "Q16"), "text"):
        "c1c6ae5a2340a9fad8ba6c3411321485d5a9fd2a9964c7c4725974d5f035ef34",
    (("analyze", "prod(C5,SL2(3))"), "json"):
        "228c1c86af387660a6c4c24228b5ba9d94af688acd088a97886e794b03ec7a8c",
    (("analyze", "prod(C5,SL2(3))"), "text"):
        "2fd0c87960c1d89d8cf903205ae205752b4ec84fb49fa69228b40d9794826984",
    (("analyze", "2O"), "json"):
        "a21f721504bb2f5798e94bfd30060d2aec902ce2f89ec91c7ff97e0d6af6160f",
    (("analyze", "2O"), "text"):
        "b30ead3feb68195de48d69240fd3188139d40f48d52aafb1f62a90f1f250884d",
    (("analyze", "SL2(5)"), "json"):
        "a390fbc8df8c60d301edd5f23913bd341846221186efc0115fc4c6dfcd06b4f4",
    (("analyze", "SL2(5)"), "text"):
        "ca07a0a488f002105ec76f9a550ef14109a5c72d4d1c11811f40c26e30065887",
    (("analyze", "D6"), "json"):
        "134bf753f1b162db2c0b6fc42a0670574e6dc048109709868e2f518d1fd54df2",
    (("analyze", "D6"), "text"):
        "9a55dc15d27ec6d8f3a22e5e29a8748ffaa9a9cc69d6f4af61a2ec3174eb8491",
    (("analyze", "sd(35,3,11)"), "json"):
        "4836094a929e8b6442d41ced06405f9e1430ed89374f77bc332118919b7bda39",
    (("analyze", "sd(35,3,11)"), "text"):
        "85f8f67b54a94f98978a667c5642c1f6d9b7e07a3afe2032b655c94f22f5228c",
    (("norm-relation", "D35"), "json"):
        "ecb8ec0471de5229cd60983d8c8a0d6f5e6d96acc70e8777dcad31e463adca54",
    (("norm-relation", "D35"), "text"):
        "b331de3382673c8010e62007bfeef759beabb0e843ed6af27498bda43139e157",
    (("norm-relation", "sd(7,9,2)"), "json"):
        "b1389c69879c88eca007186f3f1bb368d7bd8a77ae9cca6157d52f246807156e",
    (("norm-relation", "sd(7,9,2)"), "text"):
        "ba8efd224641a9f942bef8cb0d7aa75553f341f607a250cf5c36104f197556bb",
    (("norm-relation", "prod(C2,C2)"), "json"):
        "3e22017320f2ee94e842ecde882aacee8c22dc51ae65e9ad7a80be2073069b86",
    (("norm-relation", "prod(C2,C2)"), "text"):
        "eed9111a86d4a31331385f954fda711291c37d8a9e213395ca89d15b22133b4f",
    # recorded while certificate terms were dense Q[G] vectors: the other
    # certificates of the benchmark's certify workload
    (("norm-relation", "D64"), "json"):
        "5d81f1df5bcd151bc7680e8ef7248aaa2d33179412ade927261c85f925805aff",
    (("norm-relation", "D64"), "text"):
        "8da15f2420f6987045ea828cad4d6810a6be66aaefa311420ed1e5332ea6c5bd",
    (("norm-relation", "prod(C3,C3)"), "json"):
        "847606e92dfbe6d5d6769c93adc391a3baab0f1b45751b55a10a489390c183c6",
    (("norm-relation", "prod(C3,C3)"), "text"):
        "f4ad588311cddf2a7808aee013bb8bfce2648b750b17556f553d0a17ce9cd8a5",
    (("norm-relation", "sd(35,3,11)"), "json"):
        "31120f339534090874c850efa538d855e899094973c9ad122f95584491e5d23f",
    (("norm-relation", "sd(35,3,11)"), "text"):
        "8c8e605b9d01ab1a997ba6a9af066d0d6da551d4d8da18378e22d05ed9f070c8",
    (("norm-relation", "Q8"), "json"):
        "76ca9f4cb31e8a67f1bc563489956efbe39f921127d0674f46665d33c97bca93",
    (("norm-relation", "Q8"), "text"):
        "3606a799d626190d7319d7627b0fd27426974630b26669374b5c65ea0061aff7",
    (("census", "5"), "json"):
        "893863b291c6ba808cb91502d8329ecb3ec6aabe9282e9c0fa946e4c59230d37",
    (("census", "5"), "text"):
        "c459286b315366260e649ed2da51a25f1ba534bf73f9e7eaf3fd23e33b5981da",
    (("survey210",), "json"):
        "1885d6dc685176403e8e2c80602e9c0ce3ad77871e51736fbf6e993db66888d9",
    (("survey210",), "text"):
        "e48a82e5fd096e2fd9f0f39e6edaea38bf5cf1ab5c6c88e00b56e4be07e650f5",
    # recorded before the Cayley-table kernel moved to byte rows and blocked
    # SL2(F_p) tables: every call of the benchmark's sl2 workload
    (("census", "7"), "json"):
        "ad13fa55b30f9dcc1d011cc1c71099f27acef47f035373df1a1e8dcccf40a43c",
    (("census", "7"), "text"):
        "0d93d094548c79b4a018a2353bfa72092bff06f1537a830240c0b0a752aead99",
    (("census", "11"), "json"):
        "4d675a4b4770c4cbb6900466ddc2746bc13e34d9cdc8a59252c77353bae9717b",
    (("census", "11"), "text"):
        "da2cd5c9e42d4c5438c361eb886c5d20d5e2c7824226e1986d127821d8437e08",
    (("census", "13"), "json"):
        "f7fc3a1bb9c66499c3db7bac1ea8d81515b10e3e65f5da3c596144f09580f784",
    (("census", "13"), "text"):
        "7e76b63501bdfa34f70fe99a3edf3b257f967d1feb7f4e5d86978bd4c4b4d8d9",
    (("analyze", "SL2(7)"), "json"):
        "4cf6c34d7a3264bc178375865260fbd8ee0405b8202d130fea338e19df9b9992",
    (("analyze", "SL2(7)"), "text"):
        "53b9e62ce2a947be2c0c8a9ad49f11a549e5467881d207bd850dcad1ed15cf7c",
    (("analyze", "SL2(11)"), "json"):
        "433c72df450eca6b578831319e1e15aa61054534ba2ad534a4410fbcc76432c2",
    (("analyze", "SL2(11)"), "text"):
        "4c7973b2fd7aa2f6d60c20cd3fd73c5c2e21c10d09ca473ae648c231219d602b",
    # recorded at the parent of the generator-orbit kernels (conjugacy classes,
    # normality, center, cyclic subgroups): the other analyze calls of the
    # benchmark's decide workload, and the order-4896 sd(17,288,3)
    (("analyze", "C200"), "json"):
        "e75d07fcfff86a4d8990a4db4704c9ef168a2f1b05f3fb9fc746208d8f67a110",
    (("analyze", "C200"), "text"):
        "1b67e4fe7c349d84f269acb1528fea6a53c258ad7d32765b7c60fabde1665adf",
    (("analyze", "D100"), "json"):
        "87bf763372c79043b0308eced559b8ef82c53d770b29be78eb041bcaba8133e7",
    (("analyze", "D100"), "text"):
        "e3b265fd8c8310d25777854ec1bbeb676580d015e02e4b70fee358d0979409c7",
    (("analyze", "Q128"), "json"):
        "f07813da6c3e3bd89344c7e718c7416c9f18fa982860a4671333aa08583f542c",
    (("analyze", "Q128"), "text"):
        "244f27e3273a4a4faf146d63237c10bf86bb9c41b2169aef593ff286e99c23be",
    (("analyze", "2D25"), "json"):
        "9c2c63907badd29d63d56f97f1441c8ab6b66d171119ec4d3988391e0b50e565",
    (("analyze", "2D25"), "text"):
        "dfe1ba1d7023870e5b06c7028435ed081cf87296170b3daf69fc5d44665d8d2b",
    (("analyze", "sd(7,9,2)"), "json"):
        "11c6f38bd0fb802534a5bf9b679b2c4bea9dc6af563d981ae6074b9193588324",
    (("analyze", "sd(7,9,2)"), "text"):
        "1a4b349263b769be7f71d5e8c09c8ac7e369b5a9a313a1fccb766308692d9a26",
    (("analyze", "sd(49,3,18)"), "json"):
        "90d4aa363cf7b5f5f1f2312406b9a036de594fa8e801ba20c6bda4d84f61d145",
    (("analyze", "sd(49,3,18)"), "text"):
        "de76e6182d1390c782f02343917741f2439b737e14a9b928997caa20a736a4bd",
    (("analyze", "D210"), "json"):
        "1bcc2cd3a1a33bf20fdfb0b0e440c9a4a37ea06efc7ee97c3ce592b416d95550",
    (("analyze", "D210"), "text"):
        "c8a144b7f0fbe2eaa5ee44ea09fe23146a7309a3cf8594edd3007c17e5bc12e7",
    (("analyze", "prod(C3,SL2(5))"), "json"):
        "9035b7e851eca44710114d94ff47c56ccd38b8b621c9a7db235f00c90576474b",
    (("analyze", "prod(C3,SL2(5))"), "text"):
        "50970c7fd13723d956e84152b6991faae07d8bf916bdf4af8d3e61494b54a79a",
    (("analyze", "prod(C7,SL2(5))"), "json"):
        "ffe99b635b7e1602e4a6cdc7f62b771a7aa5c5d4543f0acf7f137bddc4cf4e8d",
    (("analyze", "prod(C7,SL2(5))"), "text"):
        "76dda4f178fc48dd9dc7e300203c7149d2d8f2e38fecb37bdb79c6fdabcc4f28",
    (("analyze", "C840"), "json"):
        "0ebc411d7d54747b30bb321ebf7ca7082f1294e1a4d940c3693e28b41462f193",
    (("analyze", "C840"), "text"):
        "b32852a69530daacab5e7a8549a8cba79dc31bedc0844e2862381eb73e79800c",
    (("analyze", "prod(Q16,sd(7,9,2))"), "json"):
        "21d71e3b4f950f990a0d3de3d5a29dcbc38380fee5806cc864ba37bd0c440710",
    (("analyze", "prod(Q16,sd(7,9,2))"), "text"):
        "586c5b4641c2f71b5e31aa35b7851fee3c21ceba8658dce882f40680d3c90dcf",
    (("analyze", "sd(17,288,3)"), "json"):
        "6aa8c7d1acd0cc7b6c73db4835f88d4dec2410cbd40d4739ed6aaa3de2a8cb24",
    # recorded while finite quaternion groups still labelled their elements
    # through Fraction-valued Quaternion objects
    (("analyze", "quat(q(0,1,0,0),q(0,0,1,0))"), "json"):
        "f9ae1b732578ba2e80b48ac163cce13112dea7dd322ea9a8f3f2c25a19fdfc0b",
    (("analyze", "quat(q(0,1,0,0),q(0,0,1,0))"), "text"):
        "0cb631c77496b029d562eabe10afb5b25848867a61ad4da692c9caa5ade9017f",
    (("analyze", "quat(q(1/2,1/2,1/2,1/2),q(0,1,0,0))"), "json"):
        "77e9f8587a91978da00c9af265fbd02730c61af934f98d35d3a08d2a36986ecd",
    (("analyze", "quat(q(1/2,1/2,1/2,1/2),q(0,1,0,0))"), "text"):
        "66f0c5dc92ed758bad935d30afbccf941102d04646b273893d9561f12c723c39",
}


@pytest.mark.parametrize("argv,mode", sorted(CLI_STDOUT_SHA256),
                         ids=[" ".join(argv) + "-" + mode
                              for argv, mode in sorted(CLI_STDOUT_SHA256)])
def test_cli_stdout_is_unchanged(argv, mode, capsys):
    assert main((["--json"] if mode == "json" else []) + list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_STDOUT_SHA256[argv, mode]
