import copy
import functools
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from orthologic import catalog, direct_product, parse_lattice, serialize_lattice
from orthologic import lattice as lattice_module
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


def run_json_input(capsys, tmp_path, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    flag = "--generators" if command == "quantum" else "--scenario"
    return run_json(capsys, command, flag, str(path))


GENERATORS = {"generators": [[[1, 0], [0, 0]], [[0.5, 0.5], [0.5, 0.5]]], "names": ["Z0", "X+"]}
SCENARIO = {
    "system_dim": 2,
    "friend_dim": 2,
    "coupling": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "ready": [1, 0],
    "question": [[0, 0], [0, 1]],
    "record": [[0, 0], [0, 1]],
    "alt_question": [[0.5, 0.5], [0.5, 0.5]],
}
HUGE = 10**400  # a JSON integer no float can hold


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


def test_check_names_the_dual_law_witness(tmp_path, capsys):
    path = tmp_path / "dual-first.lat"
    path.write_text(oracles.DUAL_FIRST_DOCUMENT)
    code, report = run_json(capsys, "check", str(path))
    assert code == 1
    assert {"property": "orthomodular", "elements": ["e1", "e0"]} in report["witnesses"]


def test_check_custom_requirements(capsys):
    code, _ = run_json(capsys, "check", "O6", "--require", "lattice,bounded,orthocomplemented")
    assert code == 0


def test_check_unknown_requirement_is_an_input_error(capsys):
    code, report = run_json(capsys, "check", "MO2", "--require", "lattice,modular")
    assert code == 2
    assert report["error"].startswith("ValueError: unknown --require properties ['modular']")


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
    code, report = run_json_input(capsys, tmp_path, "quantum", json.dumps(GENERATORS))
    assert code == 0
    assert report["results"]["size"] == 6


def test_quantum_bad_generator_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run_json(capsys, "quantum", "--generators", str(path))
    assert code == 2


NON_FINITE = {"nan": float("nan"), "inf": float("inf")}


@pytest.mark.parametrize("bad", NON_FINITE)
def test_quantum_non_finite_generator_is_refused(tmp_path, capsys, bad):
    payload = {"generators": [[[1, 0], [0, NON_FINITE[bad]]]]}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(payload))  # a bare NaN/Infinity token, as json allows
    code, report = run_json(capsys, "quantum", "--generators", str(path))
    assert code == 2
    assert report["error"].startswith("BadProjector: projector has non-finite entries")


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
    code, report = run_json_input(capsys, tmp_path, "wigner", json.dumps(SCENARIO))
    assert code == 0


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "field, error",
    [("coupling", "ValueError"), ("ready", "ValueError"), ("alt_question", "BadProjector")],
)
def test_wigner_non_finite_scenario_is_refused(tmp_path, capsys, field, error, bad):
    payload = copy.deepcopy(SCENARIO)
    row = payload[field] if field == "ready" else payload[field][-1]
    row[-1] = NON_FINITE[bad]
    code, report = run_json_input(capsys, tmp_path, "wigner", json.dumps(payload))
    assert code == 2
    assert re.match(rf"{error}: .* has non-finite entries", report["error"])


@pytest.mark.parametrize(
    "entry", [True, [True, False], ["1", "0"]], ids=["number", "pair", "string-pair"]
)
@pytest.mark.parametrize("command", ["quantum", "wigner"])
def test_boolean_matrix_entry_is_refused(tmp_path, capsys, command, entry):
    # json true is not the number 1, and "1" is not either, in either entry form
    matrix = [[entry, 0], [0, 0]]
    payload = {"generators": [matrix]} if command == "quantum" else {**SCENARIO, "question": matrix}
    code, report = run_json_input(capsys, tmp_path, command, json.dumps(payload))
    assert code == 2
    assert report["error"].startswith("ValueError: matrix entry must be a number or [re, im]")


MALFORMED_JSON = [
    ("quantum", {"generators": [[[HUGE, 0], [0, 0]]]}, "[0][0] is too large for a float"),
    ("quantum", [GENERATORS["generators"]], "'generators' list"),
    ("quantum", "generators", "'generators' list"),
    ("quantum", 5, "'generators' list"),
    ("quantum", {"names": ["Z0"]}, "'generators' list"),
    ("quantum", {**GENERATORS, "names": "ab"}, "'names'"),
    ("quantum", {**GENERATORS, "names": {"a": 1}}, "'names'"),
    ("quantum", {**GENERATORS, "names": 5}, "'names'"),
    ("quantum", {"generators": [5]}, "list of rows"),
    ("quantum", {"generators": [[5]]}, "list of rows"),
    ("wigner", {**SCENARIO, "question": [[HUGE, 0], [0, 1]]}, "'question'"),
    ("wigner", [SCENARIO], "JSON object"),
    ("wigner", {**SCENARIO, "coupling": 5}, "'coupling'"),
    ("wigner", {**SCENARIO, "ready": 5}, "'ready'"),
] + [
    ("wigner", {**SCENARIO, "system_dim": dim}, "'system_dim'")
    for dim in ["2", 2.9, 2.0, True, None, [2]]
]


@pytest.mark.parametrize("command, payload, field", MALFORMED_JSON)
def test_malformed_json_names_the_field(tmp_path, capsys, command, payload, field):
    code, report = run_json_input(capsys, tmp_path, command, json.dumps(payload))
    assert code == 2
    assert report["error"].startswith("ValueError: ")
    assert field in report["error"]


@pytest.mark.parametrize("command", ["quantum", "wigner"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    code, report = run_json_input(capsys, tmp_path, command, "[" * 100_000 + "]" * 100_000)
    assert code == 2
    assert report["error"].startswith("ValueError: ")


def test_library_type_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    # only validated input errors exit 2; a bug inside the library surfaces
    def broken(*args, **kwargs):
        raise TypeError("a bug, not an input error")

    monkeypatch.setattr("orthologic.cli.projector_lattice", broken)
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(GENERATORS))
    with pytest.raises(TypeError, match="a bug"):
        main(["quantum", "--generators", str(path)])


def _json_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _json_paths(child, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _json_inputs(draw):
    # any JSON value, or a valid payload with one of its values replaced by one
    command = draw(st.sampled_from(["quantum", "wigner"]))
    if draw(st.booleans()):
        return command, draw(_JSON_VALUES)
    valid = GENERATORS if command == "quantum" else SCENARIO
    path = draw(st.sampled_from(list(_json_paths(valid))))
    return command, _replaced(valid, path, draw(_JSON_VALUES))


@settings(
    max_examples=45, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=_json_inputs())
@example(case=("quantum", {"generators": [[[HUGE, 0], [0, 0]]]}))
@example(case=("quantum", {**GENERATORS, "names": "ab"}))
def test_any_json_input_ends_in_a_report(tmp_path, capsys, case):
    command, payload = case
    code, _ = run_json_input(capsys, tmp_path, command, json.dumps(payload))
    assert code in (0, 1, 2)
    if code != 2:  # an accepted input has the documented shape; nothing is coerced
        if command == "quantum":
            names = payload.get("names")
            assert isinstance(payload["generators"], list)
            assert names is None or isinstance(names, list)
            assert all(isinstance(name, str) for name in names or [])
        else:
            assert all(type(payload[key]) is int for key in ("system_dim", "friend_dim"))


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
    code, report = run_json(capsys, "detect", "--rounds", "10")
    assert code == 2
    assert report["error"] == "UsageError: the following arguments are required: --seed"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("detect", "--rounds", "abc", "--seed", "1"), "argument --rounds: invalid int value: 'abc'"),
        (("bogus",), "argument command: invalid choice: 'bogus' (choose from "),
        ((), "the following arguments are required: command"),
        (("--text", "check"), "the following arguments are required: lattice"),
    ],
)
def test_usage_errors_end_in_a_report(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == report["exit_code"] == 2 and not report["passed"]
    assert report["error"].startswith("UsageError: " + message)
    assert report["arguments"] == list(argv) and report["command"] == ""
    assert captured.err.startswith("usage: orthologic")


def test_help_prints_help_and_no_report(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: orthologic") and '"exit_code"' not in out


def test_a_closed_stdout_ends_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "orthologic", "product", "MO2", "MO2xB2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()  # the reader is gone before the report is written
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 0
    assert err == b""


def _limit_address_space():  # runs in the child only
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


def _refused_under_400_mb(*argv) -> str:
    """Run the CLI in a child under a 400 MB address space; the error of its exit-2 report."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [sys.executable, "-m", "orthologic", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert child.returncode == 2, child.stderr
    report = json.loads(child.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["exit_code"] == 2
    return report["error"]


def test_product_above_the_cap_ends_in_a_report_under_400_mb(tmp_path):
    # B8^3 x B8^3 has 262,144 elements: its order table alone would be 64 GiB
    cube = serialize_lattice(functools.reduce(direct_product, [catalog("B8")] * 3))
    paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for path in paths:
        path.write_text(cube)
    error = _refused_under_400_mb("product", *paths)
    assert error.startswith("TooLarge: direct product of 512 x 512")


def test_document_above_the_cap_ends_in_a_report_under_400_mb(tmp_path):
    # 0 < a < 1 for every other element: one element more than the cap
    n = lattice_module._MAX_ELEMENTS + 1
    atoms = [f"a{i}" for i in range(n - 2)]
    path = tmp_path / "wide.lat"
    path.write_text(
        "elements 0 1 " + " ".join(atoms) + "\n"
        + "".join(f"cover 0 {a}\ncover {a} 1\n" for a in atoms)
    )
    error = _refused_under_400_mb("check", path)
    assert error.startswith(f"TooLarge: {n} elements exceeds the {n - 1}-element cap")


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
