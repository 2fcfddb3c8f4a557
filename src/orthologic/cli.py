"""Command-line surface: check, states, compat, product, quantum, wigner, detect.

Exit codes: 0 all checked properties hold, 1 a checked property fails,
2 input or usage error.  Reports are JSON by default (``--text`` for a
human-readable rendering) and follow ``reporting.REPORT_SCHEMA``.  A usage
error is reported in JSON, with an empty ``command``, because the command
line that would choose otherwise was not read.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    center,
    check_incompatible_lemma,
    compatible_decomposition,
    compatible_via_definition,
)
from .errors import NotOrthomodular, OrthologicError
from .lattice import (
    CATALOG_NAMES,
    Lattice,
    catalog,
    classify,
    direct_product,
    find_order_isomorphism,
    parse_lattice,
    serialize_lattice,
)
from .protocol import STRATEGIES, ProtocolConfig, run_detection_protocol
from .quantum import (
    TOL,
    _reconstruction,
    infer_complement,
    matrix_from_json,
    projector_lattice,
    qubit_z_lattice,
    qubit_zx_lattice,
    qutrit_commuting_lattice,
)
from .reporting import digest, render_json, render_text
from .states import enumerate_dispersion_free
from .wigner import (
    _PRESETS as WIGNER_PRESETS,
    scenario_from_json,
    scenario_preset,
    tradeoff,
    verify_class_relations,
)

REQUIRED_PROPERTIES = ("lattice", "bounded", "orthocomplemented", "orthomodular")
QUANTUM_PRESETS = {
    "qubit-zx": qubit_zx_lattice,
    "qubit-z": qubit_z_lattice,
    "qutrit-commuting": qutrit_commuting_lattice,
}


def _record(inputs: dict, key: str, source: str, text: str | None = None) -> str:
    """Record an input under ``key`` as its source and the sha256 of its text.

    The text defaults to the file a ``file:`` source names, else to the
    source string itself (a preset is identified by its name); it is returned.
    """
    if text is None:
        kind, _, name = source.partition(":")
        text = Path(name).read_text(encoding="utf-8") if kind == "file" else source
    inputs[key] = {"source": source, "sha256": digest(text)}
    return text


def _load_json(path: str, inputs: dict, key: str):
    try:
        return json.loads(_record(inputs, key, f"file:{path}"))
    except RecursionError:
        raise ValueError(f"{key} file nests JSON too deeply") from None


def _load_lattice(token: str, inputs: dict, key: str = "lattice") -> Lattice:
    if token in CATALOG_NAMES:
        lat = catalog(token)
        _record(inputs, key, f"catalog:{token}", serialize_lattice(lat))
        return lat
    return parse_lattice(_record(inputs, key, f"file:{token}"))


def _witnesses(lattice: Lattice, report) -> list[dict]:
    return [
        {"property": prop, "elements": [lattice.names[i] for i in elems]}
        for prop, elems in report.witnesses
    ]


def _flag_map(report) -> dict:
    return {
        "lattice": report.is_lattice,
        "bounded": report.is_bounded,
        "orthocomplemented": report.is_orthocomplemented,
        "orthomodular": report.is_orthomodular,
        "distributive": report.is_distributive,
    }


def _cmd_check(args, inputs):
    lat = _load_lattice(args.lattice, inputs)
    report = classify(lat)
    flags = _flag_map(report)
    results = {"size": lat.n, "properties": flags}
    if report.is_orthomodular:
        middle = center(lat)
        results["center"] = [lat.names[i] for i in middle.members]
        results["center_is_trivial"] = middle.is_trivial
        lemma_ok, lemma_witness = check_incompatible_lemma(lat)
        results["incompatibility_propagates_upward"] = lemma_ok
        if lemma_witness is not None:
            results["lemma_witness"] = [lat.names[i] for i in lemma_witness]
    else:
        results["notice"] = "center and lemma checks need an orthomodular lattice"
    unknown = [name for name in args.require if name not in flags]
    if unknown:
        raise ValueError(f"unknown --require properties {unknown}; known: {', '.join(flags)}")
    passed = all(flags[name] for name in args.require)
    return results, _witnesses(lat, report), passed


def _cmd_states(args, inputs):
    lat = _load_lattice(args.lattice, inputs)
    report = enumerate_dispersion_free(lat)
    results = {
        "size": lat.n,
        "count": len(report.states),
        "states": [
            {name: int(v) for name, v in state.as_mapping(lat).items()}
            for state in report.states
        ],
        "center_is_trivial": report.center_is_trivial,
        "theorem_consistent": report.theorem_consistent,
    }
    return results, [], report.theorem_consistent


def _cmd_compat(args, inputs):
    lat = _load_lattice(args.lattice, inputs)
    a, b = lat.index(args.a), lat.index(args.b)
    by_def = compatible_via_definition(lat, a, b)
    results = {"pair": [args.a, args.b], "compatible_by_definition": by_def}
    try:
        decomposition = compatible_decomposition(lat, a, b)
    except NotOrthomodular:
        results["notice"] = (
            "lattice is not orthomodular; only the definitional route applies"
        )
        return results, [], True
    # the decomposition exists exactly when the identity holds
    by_identity = decomposition is not None
    results["compatible_by_identity"] = by_identity
    results["decomposition_exists"] = by_identity
    if by_identity:
        results["decomposition"] = {
            "a_part": lat.names[decomposition.a_part],
            "b_part": lat.names[decomposition.b_part],
            "common": lat.names[decomposition.common],
        }
    agree = by_def == by_identity
    results["routes_agree"] = agree
    return results, [], agree


def _cmd_product(args, inputs):
    first = _load_lattice(args.first, inputs, "first")
    second = _load_lattice(args.second, inputs, "second")
    product = direct_product(first, second)
    report = classify(product)
    results = {
        "size": product.n,
        "properties": _flag_map(report),
        "document": serialize_lattice(product),
    }
    # a product of certified ortholattices is one; only the scanned laws can fail
    return results, _witnesses(product, report), True


def _quantum_input(args, inputs):
    if args.preset is not None:
        _record(inputs, "generators", f"preset:{args.preset}")
        return QUANTUM_PRESETS[args.preset]()
    payload = _load_json(args.generators, inputs, "generators")
    if not isinstance(payload, dict) or not isinstance(payload.get("generators"), list):
        raise ValueError("generators file must be a JSON object with a 'generators' list")
    names = payload.get("names")
    if not (names is None or isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError("'names' must be a list of strings, one per generator")
    mats = [matrix_from_json(m) for m in payload["generators"]]
    return projector_lattice(mats, names=names)


def _cmd_quantum(args, inputs):
    pl = _quantum_input(args, inputs)
    report = classify(pl.lattice)
    order, complements = _reconstruction(pl)
    order_ok = bool(np.array_equal(order, pl.lattice.leq))
    # rows in order, as one infer_complement each: the first without a unique
    # complement raises, and the first mismatch ends the walk
    mismatched = np.flatnonzero(complements != pl.lattice.ortho)
    if mismatched.size and complements[mismatched[0]] < 0:
        infer_complement(pl, int(mismatched[0]))  # raises NoComplement or NotUnique
    complement_ok = not mismatched.size
    results = {
        "dimension": pl.dim,
        "size": pl.n,
        "elements": list(pl.lattice.names),
        "properties": _flag_map(report),
        "order_roundtrip": order_ok,
        "complement_roundtrip": complement_ok,
    }
    if args.preset == "qubit-zx":
        results["isomorphic_to_MO2"] = (
            find_order_isomorphism(pl.lattice, catalog("MO2")) is not None
        )
    passed = report.is_orthomodular and order_ok and complement_ok
    return results, _witnesses(pl.lattice, report), passed


def _cmd_wigner(args, inputs):
    if args.preset is not None:
        _record(inputs, "scenario", f"preset:{args.preset}")
        scenario = scenario_preset(args.preset)
    else:
        scenario = scenario_from_json(_load_json(args.scenario, inputs, "scenario"))
    relations = verify_class_relations(scenario)
    detect_only, know_then_detect = tradeoff(scenario, check=False)
    results = {**asdict(relations), "tradeoff": [detect_only, know_then_detect]}
    passed = (
        relations.cross_implication
        and relations.m_below_full_question
        and relations.n_incompatible_with_full
        and relations.n_incompatible_with_m
        and abs(detect_only - 1.0) <= TOL
    )
    return results, [], passed


def _cmd_detect(args, inputs):
    strategy = args.strategy
    if strategy is None:
        strategy = "intercept-resend" if args.fraction > 0 else "none"
    config = ProtocolConfig(
        rounds=args.rounds,
        seed=args.seed,
        eavesdrop_fraction=args.fraction,
        strategy=strategy,
    )
    _record(inputs, "config", "arguments", json.dumps(asdict(config), sort_keys=True))
    stats = run_detection_protocol(config)
    results = {"strategy": strategy, "eavesdrop_fraction": args.fraction, **asdict(stats)}
    # a disagreement without any eavesdropping would be a soundness bug
    passed = strategy != "none" or stats.disagreements == 0
    return results, [], passed


class UsageError(Exception):
    """A command line argparse rejects, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's usage text still goes to stderr; the report carries the message
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


def _style_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand-level flag from clobbering a top-level one
    style = argparse.ArgumentParser(add_help=False)
    group = style.add_mutually_exclusive_group()
    group.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="JSON report (default)",
    )
    group.add_argument(
        "--text",
        action="store_true",
        default=argparse.SUPPRESS,
        help="human-readable report",
    )
    return style


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    style = _style_flags()
    parser = _Parser(
        prog="orthologic",
        description="Finite orthomodular-lattice toolkit and contextuality checker",
        parents=[style],
    )
    parser.add_argument(
        "--catalog", action="store_true", help="list built-in lattices and exit"
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add_command(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[style])

    p = add_command("check", "classify a lattice and report witnesses")
    p.add_argument("lattice", help="catalog name or document path")
    p.add_argument(
        "--require",
        default=",".join(REQUIRED_PROPERTIES),
        type=lambda s: tuple(s.split(",")),
        help="comma-separated properties that must hold for exit 0",
    )
    p.set_defaults(fn=_cmd_check)

    p = add_command("states", "enumerate dispersion-free states")
    p.add_argument("lattice")
    p.set_defaults(fn=_cmd_states)

    p = add_command("compat", "compatibility of two elements, three routes")
    p.add_argument("lattice")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_compat)

    p = add_command("product", "direct product of two lattices")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_product)

    p = add_command("quantum", "projector closure and order round-trip")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=QUANTUM_PRESETS)
    source.add_argument("--generators", help="JSON file with projector matrices")
    p.set_defaults(fn=_cmd_quantum)

    p = add_command("wigner", "joint-system measurement scenario checks")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=WIGNER_PRESETS)
    source.add_argument("--scenario", help="JSON scenario file")
    p.set_defaults(fn=_cmd_wigner)

    p = add_command("detect", "seeded interaction-detection protocol")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fraction", type=float, default=0.0)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.set_defaults(fn=_cmd_detect)

    return parser


def _emit(text: str) -> None:
    """Print ``text``; a reader that has closed stdout gets nothing more."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout now writes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    started = time.perf_counter()
    inputs: dict = {}
    report = {"command": "", "arguments": list(argv), "inputs": inputs}
    results, witnesses, passed, args = {}, [], False, None
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.catalog:
            _emit("\n".join(CATALOG_NAMES))
            return 0
        if args.command is None:
            parser.error("the following arguments are required: command")
        report["command"] = args.command
        results, witnesses, passed = args.fn(args, inputs)
        exit_code = 0 if passed else 1
    except SystemExit as exc:  # --help has printed its text
        return int(exc.code or 0)
    except (UsageError, OrthologicError, OSError, ValueError) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        exit_code = 2
    report.update(
        results=results,
        witnesses=witnesses,
        passed=passed,
        exit_code=exit_code,
        timing_seconds=time.perf_counter() - started,
        version=__version__,
    )
    text_mode = getattr(args, "text", False)
    _emit(render_text(report) if text_mode else render_json(report))
    return exit_code


def entrypoint() -> None:
    sys.exit(main())
