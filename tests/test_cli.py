import hashlib
import json
import subprocess
import sys

import pytest

import bsnakes
from bsnakes.cli import build_parser, main
from bsnakes.core import parse_sp
from bsnakes.relations import ConventionError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_snakes_text(capsys):
    code, out, _ = run(capsys, "snakes", "--set", "1,2")
    assert code == 0
    assert out == "[1-2]\n[2-1]\n[21]\ncount: 3\n"


def test_snakes_empty_set(capsys):
    code, out, _ = run(capsys, "snakes", "--set", "")
    assert code == 0
    assert out == "[]\ncount: 1\n"


def test_snakes_json(capsys):
    code, out, _ = run(capsys, "snakes", "--set", "1,2,3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 11
    assert len(obj["snakes"]) == 11
    assert obj["snakes"][0] == [1, -3, -2]


def test_normal_form_text(capsys):
    code, out, _ = run(capsys, "normal-form", "[-2-3]")
    assert code == 0
    assert out == "[2-3] - [3-2] + [32]\n"


def test_normal_form_trivial(capsys):
    code, out, _ = run(capsys, "normal-form", "[21]")
    assert code == 0
    assert out == "[21]\n"


def test_normal_form_eleven_terms(capsys):
    code, out, _ = run(capsys, "normal-form", "[1/23]")
    assert code == 0
    assert out.count("[") == 11


def test_normal_form_backends_and_oracle(capsys):
    for backend in ("rewrite", "solve"):
        code, out, _ = run(capsys, "normal-form", "[1/23]",
                           "--backend", backend, "--check-oracle")
        assert code == 0
    code, out, _ = run(capsys, "normal-form", "[1/23]", "--json", "--check-oracle")
    obj = json.loads(out)
    assert obj["cross_checked"] is True
    assert obj["snake_basis"] is True
    assert len(obj["terms"]) == 11


def test_normal_form_set_validation(capsys):
    code, _, err = run(capsys, "normal-form", "[21]", "--set", "1,3")
    assert code == 2
    assert "does not match" in err
    code, _, _ = run(capsys, "normal-form", "[21]", "--set", "1,2")
    assert code == 0


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "normal-form", "bad")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "snakes", "--set", "1,x")
    assert code == 2


@pytest.mark.parametrize("text", ["\u0661,\u0662", "1_0", "+1"])
def test_set_takes_ascii_decimal_integers_only(capsys, text):
    # int() alone reads Arabic-Indic digits, "1_0" as 10 and "+1" as 1
    code, out, err = run(capsys, "snakes", "--set", text)
    assert code == 2 and out == ""
    assert "bad index set" in err
    code, out, _ = run(capsys, "snakes", "--set", " 1, 2 ")
    assert code == 0 and out.endswith("count: 3\n")


def test_check_oracle_honours_the_lifted_cap(capsys, monkeypatch):
    # the r = 6 solve backend takes minutes, so it is replaced by the
    # rewrite result; the simplicial oracle itself runs at r = 6
    real = bsnakes.cli.normal_form

    def rewrite_only(x, backend="rewrite", cap=None):
        return real(x, backend="rewrite", cap=cap)

    monkeypatch.setattr(bsnakes.cli, "normal_form", rewrite_only)
    code, out, err = run(capsys, "normal-form", "--check-oracle", "--unsafe-cap", "6",
                         "--json", "[21/43/65]")
    assert (code, err) == (0, "")
    assert json.loads(out)["cross_checked"] is True


def test_cap_error_exit_2(capsys):
    code, _, err = run(capsys, "springer", "--r", "9")
    assert code == 2
    assert "cap" in err
    # every cap error names the cap it exceeds; cup lifts only its union cap
    for argv, message in [
        (("snakes", "--set", "1,2,3,4,5,6,7,8"), "|I| = 8 exceeds enumeration cap 7"),
        (("cup", "[81/72/63/54]", "[]"), "|I1 u I2| = 8 exceeds enumeration cap 7"),
        (("cup", "[81/72/63/54]", "[]", "--unsafe-cap", "8"), "r = 8 exceeds rewrite cap 7"),
    ]:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_convention_error_exit_3(capsys, monkeypatch):
    # A broken internal invariant is neither a usage error (2) nor a failed
    # verification (1), and it leaves no partial output on stdout.
    def broken(alpha, beta):
        raise ConventionError("no rewriting rule applies to non-snake (1, 2)")

    monkeypatch.setattr(bsnakes.cli, "cup_basis", broken)
    code, out, err = run(capsys, "cup", "[1-4]", "[32]", "--json")
    assert code == 3
    assert out == ""
    assert err == "internal error: no rewriting rule applies to non-snake (1, 2)\n"


def test_convention_error_in_verify_exit_3(capsys, monkeypatch):
    # A check that meets a broken invariant does not report it as a failed
    # verification: the error reaches main and exits 3.
    real = bsnakes.normalform.normal_form

    def broken(x, backend="rewrite", cap=None):
        if backend == "solve" and x == parse_sp("[21]"):
            raise ConventionError("non-snake column (1, 2) survived reduction")
        return real(x, backend=backend, cap=cap)

    monkeypatch.setattr(bsnakes.normalform, "normal_form", broken)
    code, out, err = run(capsys, "verify", "--n", "2", "--lemma",
                         "normal-form-agreement")
    assert code == 3
    assert out == ""
    assert err == "internal error: non-snake column (1, 2) survived reduction\n"


def test_cup_text(capsys):
    code, out, _ = run(capsys, "cup", "[1-4]", "[32]")
    assert code == 0
    assert out == "-[1-4/-2-3] - [1-4/32]\n"
    code, out, _ = run(capsys, "cup", "[1]", "[2]")
    assert code == 0
    assert out == "0\n"


def test_cup_five_letter_product(capsys):
    code, out, _ = run(capsys, "cup", "[51]", "[2/-4-3]")
    assert code == 0
    assert out == "-[2/-5-1/-4-3] + [2/-4-3/-5-1] - [2/15/-4-3] - [2/15/34]\n"


def test_cup_json(capsys):
    code, out, _ = run(capsys, "cup", "[1-4]", "[32]", "--json")
    obj = json.loads(out)
    assert obj["product"]["support"] == [1, 2, 3, 4]
    assert len(obj["product"]["terms"]) == 2


@pytest.mark.parametrize("n,expected", [
    (1, "1 1\n"), (2, "1 5 0\n"), (3, "1 12 11 0\n"),
])
def test_betti_text(capsys, n, expected):
    code, out, _ = run(capsys, "betti", "--n", str(n))
    assert code == 0
    assert out == expected


def test_unsafe_cap_reaches_every_check_beneath(capsys):
    code, out, _ = run(capsys, "betti", "--n", "8", "--unsafe-cap", "8")
    assert (code, out) == (0, "1 92 4606 97580 447625 0 0 0 0\n")
    code, out, _ = run(capsys, "verify", "--n", "6", "--unsafe-cap", "6",
                       "--lemma", "snake-cycle-basis", "--json")
    assert code == 0
    assert json.loads(out) == [{"check": "snake-cycle-basis", "instances": 64,
                                "failures": []}]


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--n", "3", "--json")
    assert json.loads(out) == {"n": 3, "betti": [1, 12, 11, 0]}


def test_springer_text_and_table(capsys):
    code, out, _ = run(capsys, "springer", "--r", "5")
    assert code == 0 and out == "springer(5) = 361\n"
    code, out, _ = run(capsys, "springer", "--r", "3", "--table")
    assert out.splitlines() == ["springer(0) = 1", "springer(1) = 1",
                                "springer(2) = 3", "springer(3) = 11"]
    code, out, _ = run(capsys, "springer", "--r", "4", "--json")
    assert json.loads(out) == {"r": 4, "value": 57}
    code, out, _ = run(capsys, "springer", "--r", "3", "--table", "--json")
    assert code == 0 and json.loads(out) == {"r": 3, "values": [1, 1, 3, 11]}


@pytest.mark.parametrize("command,flag", [
    (("verify",), "--n"),
    (("betti",), "--n"),
    (("ring-table",), "--n"),
    (("springer", "--table"), "--r"),
    (("experiment", "coeffs"), "--r"),
], ids=["verify", "betti", "ring-table", "springer", "experiment"])
def test_negative_sizes_are_usage_errors(capsys, command, flag):
    for text in ("-1", "+1"):  # sizes take ASCII digits only, like index sets
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, text])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"argument {flag}: expected a nonnegative integer, got '{text}'" in err
    assert run(capsys, *command, flag, "0")[0] == 0  # the empty index set


@pytest.mark.parametrize("argv", [
    ("snakes", "--set", "1,2"),
    ("springer", "--r", "3"),
    ("normal-form", "[1/23]"),
    ("cup", "[1]", "[32]"),
    ("betti", "--n", "2"),
    ("ring-table", "--n", "2"),
    ("verify", "--n", "2"),
    ("experiment", "coeffs", "--r", "2"),
], ids=lambda argv: argv[0])
def test_unsafe_cap_is_a_nonnegative_integer(capsys, argv):
    for text in ("-1", "+1", "x"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--unsafe-cap", text])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert ("argument --unsafe-cap: expected a nonnegative integer, "
                f"got '{text}'") in err
    assert run(capsys, *argv, "--unsafe-cap", "0")[0] == 0  # 0 keeps the default caps


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    assert "all checks passed" in out
    for name in ("betti-identity", "relations-vanish", "join-factorization", "cup-topology"):
        assert f"{name}: PASS" in out


def test_verify_lemma_filter(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--lemma", "join-factorization")
    assert code == 0
    assert out.splitlines()[0].startswith("join-factorization: PASS")
    code, out, _ = run(capsys, "verify", "--n", "3", "--lemma", "betti")
    assert code == 0
    assert out.splitlines()[0].startswith("betti-identity: PASS")
    code, _, err = run(capsys, "verify", "--n", "3", "--lemma", "nonsense")
    assert code == 2


def test_verify_full_with_lemma_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--full", "--lemma", "betti")
    assert code == 2 and out == ""
    assert "--full" in err and "--lemma" in err


def test_verify_full_json(capsys):
    # --full adds the hat-complex sweeps at |I| <= 5 after the n = 2 checks
    code, out, _ = run(capsys, "verify", "--n", "2", "--full", "--json")
    report = json.loads(out)
    assert code == 0 and len(report) == 9
    assert all(r["failures"] == [] for r in report)
    assert [(r["check"], r["instances"]) for r in report[-2:]] == [
        ("betti-identity", 80), ("relations-vanish", 28490)]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(r["failures"] == [] for r in report)
    assert {r["check"] for r in report} >= {"normal-form-agreement", "retraction-equivalence"}


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "--n", "5")
    assert code == 2 and "cap" in err


def test_experiment_coeffs(capsys):
    code, out, _ = run(capsys, "experiment", "coeffs", "--r", "3")
    assert code == 0
    assert "all coefficients in {-1,0,1}" in out
    code, out, _ = run(capsys, "experiment", "coeffs", "--r", "2", "--json")
    obj = json.loads(out)
    assert obj["all_in_unit_range"] is True and obj["words"] == 8


def test_ring_table_text_and_json(capsys):
    code, out, _ = run(capsys, "ring-table", "--n", "1")
    assert code == 0
    assert "[1] * [1] = 0" in out
    assert "[] * [1] = [1]" in out
    code, out, _ = run(capsys, "ring-table", "--n", "1", "--json")
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4  # two basis elements, ordered pairs
    assert lines[0]["left"]["word"] == []


def test_byte_identical_reruns(capsys):
    first = run(capsys, "verify", "--n", "2", "--json")
    second = run(capsys, "verify", "--n", "2", "--json")
    assert first == second
    a = run(capsys, "normal-form", "[1/23]")
    b = run(capsys, "normal-form", "[1/23]")
    assert a == b


# sha256 of stdout: the JSON bytes and the ring-table text are part of the
# contract, so a change to them must come with a deliberate new pin here
STDOUT_SHA256 = {
    ("ring-table", "--n", "3", "--json"):
        "f7c2e96d736dd98ba9eff54dfee2f202c1eda62b871b023be3bdc08cb6fbc8ef",
    ("experiment", "coeffs", "--r", "5", "--json"):
        "d05a8ed5f596074208cbee65fc2e2c04113580e6db57d9e9399410744bb8fb07",
    ("verify", "--n", "3", "--json"):
        "fd29c560768fc3bef3a1a397006d7b50e512e700ba1929df75df71e8c422fba3",
    ("verify", "--n", "4", "--json"):
        "0757ddbe6e78f040319a99a753977c9780bfddf13a21ccab40ecc04ce6671a21",
    ("normal-form", "--check-oracle", "--json", "[1/23]"):
        "ecd41def56b4b98353b4690d8029e2a9f43deeabdc825d74dba1406b0d9fd356",
    ("ring-table", "--n", "4", "--json"):
        "ee71a9f95c1f57fe3d9250425d1e07d34aa8be84eea733224ef48b107ff5bece",
    ("ring-table", "--n", "3"):
        "2c2e95bf1a7b9e284ef3cf728dd13aa4c5b9c99ffe29b1c92331515b33f080e0",
    # single products on a 7-set, pruned by a 3-, a 1- and a 2-letter factor
    ("cup", "[6/13]", "[2-7/5-4]", "--unsafe-cap", "7", "--json"):
        "335da96b69321fe019e995b7a402471e1b9c820a28b27ef5bbc80994a8afa668",
    ("cup", "[62/5-4/7-3]", "[1]", "--unsafe-cap", "7", "--json"):
        "3e7823e40f7e51f6127f0056d99762be378506fd9e38f9de9c69186de1316d39",
    ("cup", "[62]", "[3/-47/15]", "--unsafe-cap", "7", "--json"):
        "19d66890eecf63b83e7c58180d18999aefec907abd2b0266d8c86735db6c92c1",
    ("snakes", "--set", "1,2,3,4,5,6,7", "--json"):
        "0faf4cd15d109e2b2ac5de62c4986d99d09bae74afa68801038de63753af4155",
}


def _pin_id(argv):
    # the first pin of a subcommand is named by the subcommand alone
    first = next(a for a in STDOUT_SHA256 if a[0] == argv[0])
    return argv[0] if argv == first else " ".join(argv)


@pytest.mark.parametrize("argv", STDOUT_SHA256, ids=_pin_id)
def test_json_stdout_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "bsnakes.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0


def test_public_contract():
    assert sorted(bsnakes.__all__) == [
        "BSnake", "CapExceeded", "ConventionError", "IndexSet", "LinComb",
        "NestedChainComplex", "ParseError", "RestrictionContext", "RingElement",
        "SignedPermutation", "SignedSubset", "SimplicialChain", "bar", "betti",
        "betti_table", "boundary_matrix", "canonicalize", "chain_of",
        "coefficient", "coefficient_range_experiment", "cup", "cup_basis",
        "enumerate_signed_perms", "enumerate_snakes", "f_set", "format_sp",
        "full_subcomplex", "h1", "h2", "h3", "h4", "h5", "hat_complex",
        "index_set", "is_restrictable", "is_snake", "join_image", "kappa",
        "normal_form", "normal_form_lincomb", "order_lt", "parse_sp",
        "reduced_betti", "relation_matrix", "restrict_p", "retract_pi",
        "ring_table", "signed_subset", "solve_in_snake_cycles", "springer",
        "star", "subperm", "verify_suite",
    ]
    assert all(hasattr(bsnakes, name) for name in bsnakes.__all__)
    commands = next(a.choices for a in build_parser()._actions
                    if a.dest == "command")
    assert set(commands) == {"snakes", "normal-form", "cup", "betti", "ring-table",
                             "springer", "verify", "experiment"}
