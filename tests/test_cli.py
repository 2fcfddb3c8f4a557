import json
import re

import jsonschema
import pytest

from orthologic import parse_lattice
from orthologic.cli import build_parser, main
from orthologic.reporting import REPORT_SCHEMA

MALFORMED_DOCS = [
    "",
    "garbage\n",
    "elements a a\n",
    "elements a b\ncover a c\n",
    "elements x y\ncover x y\ncover y x\n",
    "elements 0 a b 1\ncover 0 a\ncover 0 b\ncover a 1\ncover b 1\northo a b\n",
    "elements \x00\n",
    "cover a b\n",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["exit_code"] == code
    return code, report


# ---------------------------------------------------------------------------
# exit-code contract


def test_check_mo2_exits_zero(capsys):
    code, report = run_json(capsys, "check", "MO2")
    assert code == 0
    assert report["results"]["properties"]["orthomodular"]
    assert report["results"]["center_is_trivial"]


def test_check_o6_exits_one_with_witness(capsys):
    code, report = run_json(capsys, "check", "O6")
    assert code == 1
    assert not report["results"]["properties"]["orthomodular"]
    witnesses = {w["property"]: w["elements"] for w in report["witnesses"]}
    assert witnesses["orthomodular"] == ["a", "b"]


def test_check_missing_file_exits_two(capsys):
    code, report = run_json(capsys, "check", "missing.lat")
    assert code == 2
    assert "error" in report


def test_check_file_input(tmp_path, capsys):
    doc = tmp_path / "b4.lat"
    doc.write_text("elements 0 p q 1\ncover 0 p\ncover 0 q\ncover p 1\ncover q 1\northo p q\northo 0 1\n")
    code, report = run_json(capsys, "check", str(doc))
    assert code == 0
    assert report["inputs"]["lattice"]["source"].startswith("file:")


def test_check_custom_requirements(capsys):
    code, _ = run_json(capsys, "check", "O6", "--require", "lattice,bounded,orthocomplemented")
    assert code == 0


# ---------------------------------------------------------------------------
# states / compat / product


def test_states_b8(capsys):
    code, report = run_json(capsys, "states", "B8")
    assert code == 0
    assert report["results"]["count"] == 3
    assert len(report["results"]["states"]) == 3
    assert report["results"]["theorem_consistent"]


def test_states_mo2(capsys):
    code, report = run_json(capsys, "states", "MO2")
    assert code == 0
    assert report["results"]["count"] == 0
    assert report["results"]["center_is_trivial"]


def test_states_on_non_oml_is_an_input_error(capsys):
    code, report = run_json(capsys, "states", "O6")
    assert code == 2
    assert "NotOrthomodular" in report["error"]


def test_compat_incompatible_pair(capsys):
    code, report = run_json(capsys, "compat", "MO2", "a", "b")
    assert code == 0
    results = report["results"]
    assert results["routes_agree"]
    assert not results["compatible_by_identity"]
    assert not results["decomposition_exists"]


def test_compat_complement_pair_decomposition(capsys):
    code, report = run_json(capsys, "compat", "MO2", "a", "a'")
    assert code == 0
    assert report["results"]["decomposition"] == {
        "a_part": "a",
        "b_part": "a'",
        "common": "0",
    }


def test_compat_on_o6_definitional_only(capsys):
    code, report = run_json(capsys, "compat", "O6", "a", "b")
    assert code == 0
    assert "notice" in report["results"]
    assert report["results"]["compatible_by_definition"] is False


def test_compat_unknown_element(capsys):
    code, report = run_json(capsys, "compat", "MO2", "a", "zz")
    assert code == 2


def test_product_document_reparses(capsys):
    code, report = run_json(capsys, "product", "MO2", "B2")
    assert code == 0
    assert report["results"]["size"] == 12
    product = parse_lattice(report["results"]["document"])
    assert product.n == 12


@pytest.mark.parametrize("order", ["bad-first", "bad-second"])
def test_product_records_each_input_under_its_role(tmp_path, capsys, order):
    # a document that fails to parse is still recorded as "first" or "second"
    bad = tmp_path / "bad.lat"
    bad.write_text("elements a b\nbottom a\nbottom b\n")
    pair = (str(bad), "B2") if order == "bad-first" else ("B2", str(bad))
    code, report = run_json(capsys, "product", *pair)
    assert code == 2
    roles = ["first"] if order == "bad-first" else ["first", "second"]
    assert sorted(report["inputs"]) == roles
    assert report["inputs"][roles[-1]]["source"] == f"file:{bad}"


# ---------------------------------------------------------------------------
# quantum / wigner / detect


def test_quantum_preset(capsys):
    code, report = run_json(capsys, "quantum", "--preset", "qubit-zx")
    assert code == 0
    results = report["results"]
    assert results["size"] == 6
    assert results["isomorphic_to_MO2"]
    assert results["order_roundtrip"] and results["complement_roundtrip"]


def test_quantum_generators_file(tmp_path, capsys):
    payload = {
        "generators": [
            [[1, 0], [0, 0]],
            [[0.5, 0.5], [0.5, 0.5]],
        ],
        "names": ["Z0", "X+"],
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "quantum", "--generators", str(path))
    assert code == 0
    assert report["results"]["size"] == 6


def test_quantum_bad_generator_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run_json(capsys, "quantum", "--generators", str(path))
    assert code == 2


def test_wigner_cnot(capsys):
    code, report = run_json(capsys, "wigner", "--preset", "cnot")
    assert code == 0
    results = report["results"]
    assert results["cross_implication"] and results["m_below_full_question"]
    assert results["tradeoff"][0] == pytest.approx(1.0, abs=1e-9)
    assert results["tradeoff"][1] == pytest.approx(0.5, abs=1e-9)


def test_wigner_identity_fails(capsys):
    code, report = run_json(capsys, "wigner", "--preset", "identity")
    assert code == 1
    assert not report["results"]["cross_implication"]


def test_wigner_scenario_file(tmp_path, capsys):
    cnot = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    payload = {
        "system_dim": 2,
        "friend_dim": 2,
        "coupling": cnot,
        "ready": [1, 0],
        "question": [[0, 0], [0, 1]],
        "record": [[0, 0], [0, 1]],
        "alt_question": [[0.5, 0.5], [0.5, 0.5]],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    code, report = run_json(capsys, "wigner", "--scenario", str(path))
    assert code == 0


def test_detect_and_rerun_bytes(capsys):
    args = ("detect", "--rounds", "100000", "--seed", "42", "--fraction", "1.0")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    first, second = json.loads(out1), json.loads(out2)
    jsonschema.validate(first, REPORT_SCHEMA)
    assert abs(first["results"]["disagreement_rate"] - 0.25) < 0.01
    assert first["results"]["detected"]
    first.pop("timing_seconds"), second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_detect_none_strategy(capsys):
    code, report = run_json(
        capsys, "detect", "--rounds", "1000", "--seed", "3", "--strategy", "none"
    )
    assert code == 0
    assert report["results"]["disagreements"] == 0


def test_detect_requires_seed(capsys):
    assert main(["detect", "--rounds", "10"]) == 2


def test_detect_rejects_bad_fraction(capsys):
    code, report = run_json(
        capsys, "detect", "--rounds", "10", "--seed", "1", "--fraction", "2.0"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# robustness and rendering


@pytest.mark.parametrize("doc", MALFORMED_DOCS)
def test_malformed_documents_never_crash(tmp_path, capsys, doc):
    path = tmp_path / "bad.lat"
    path.write_text(doc)
    for command in ("check", "states"):
        code, report = run_json(capsys, command, str(path))
        assert code == 2
        assert "error" in report


def test_catalog_listing(capsys):
    code, out = run(capsys, "--catalog")
    assert code == 0
    assert "MO2xB2" in out.split()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_text_rendering(capsys):
    code, out = run(capsys, "--text", "check", "B8")
    assert code == 0
    assert "status: pass" in out
    assert "orthologic check" in out


def test_style_flag_also_works_after_the_subcommand(capsys):
    code, out = run(capsys, "check", "B8", "--text")
    assert code == 0
    assert "status: pass" in out


def test_error_reports_schema_validate(capsys):
    code, report = run_json(capsys, "check", "nowhere.lat")
    assert code == 2
    jsonschema.validate(report, REPORT_SCHEMA)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "MO2"),
        ("states", "B8"),
        ("compat", "MO2", "a", "b"),
        ("product", "MO2", "B2"),
        ("quantum", "--preset", "qubit-zx"),
        ("wigner", "--preset", "cnot"),
    ],
)
def test_deterministic_commands_are_byte_identical_modulo_timing(capsys, argv):
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    first, second = json.loads(out1), json.loads(out2)
    first.pop("timing_seconds"), second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


PARSER_REUSE_SEQUENCE = [
    ("--text", "check", "B8"),
    ("check", "O6", "--require", "lattice,bounded,orthocomplemented"),
    ("check", "O6"),
    ("detect", "--rounds", "10"),
    ("--catalog",),
    ("states", "MO2xB2"),
    ("compat", "MO2", "a", "b"),
    ("product", "MO2", "B2"),
    ("quantum", "--preset", "qubit-z"),
    ("wigner", "--preset", "identity"),
    ("detect", "--rounds", "1000", "--seed", "7", "--fraction", "0.5"),
    (),
    ("check", "MO2", "--text"),
    ("compat", "--help"),
]


def test_one_parser_serves_a_sequence_of_calls(capsys):
    def call(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, re.sub(r'("timing_seconds": |timing: )[-+.e0-9]+', r"\1", out), err

    reused = [call(argv) for argv in PARSER_REUSE_SEQUENCE]
    assert build_parser.cache_info().currsize == 1
    assert [code for code, _, _ in reused] == [0, 0, 1, 2, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0]
    for argv, outcome in zip(PARSER_REUSE_SEQUENCE, reused):
        build_parser.cache_clear()
        assert call(argv) == outcome, argv
