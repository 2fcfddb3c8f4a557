"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
Criterion 3 fails by design of the checked claim itself: upward propagation
of incompatibility admits genuine counterexamples (see the assertion message
for the full analysis), so the honest outcome is a red criterion, not a
weakened test.
"""

import itertools
import json
import time
from contextlib import contextmanager

import jsonschema
import numpy as np
import pytest

import oracles
from orthologic import (
    ProtocolConfig,
    catalog,
    center,
    check_incompatible_lemma,
    classify,
    cnot_scenario,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    direct_product,
    detectability,
    enumerate_dispersion_free,
    infer_complement,
    infer_order,
    is_compatible,
    is_order_isomorphic,
    isolated_check,
    ket_projector,
    projector_lattice,
    qubit_zx_lattice,
    qutrit_commuting_lattice,
    random_density_matrix,
    run_detection_protocol,
    sequence_probability,
    tradeoff,
    unary_nogo_certify,
    verify_class_relations,
    verify_cross_implication,
)
from orthologic.cli import main
from orthologic.reporting import REPORT_SCHEMA

OML_NAMES = ("B2", "B4", "B8", "MO2", "MO3", "MO2xB2")
TOL = 1e-9


@contextmanager
def criterion(number, description, budget_seconds):
    timer = {"start": time.perf_counter()}
    failures = []
    yield failures
    elapsed = time.perf_counter() - timer["start"]
    verdict = "PASS" if not failures else "FAIL"
    print(
        f"\ncriterion {number:2d} [{verdict}] {description}"
        f" ({elapsed:.2f}s, budget {budget_seconds:.0f}s)"
    )
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_axiom_suite():
    with criterion(1, "axiom suite over the catalog", 1.0) as failures:
        for name in ("B2", "B4", "B8"):
            if not classify(catalog(name)).all_true:
                failures.append(f"{name} should satisfy every property")
        for name in ("MO2", "MO3"):
            report = classify(catalog(name))
            if not (report.is_orthomodular and not report.is_distributive):
                failures.append(f"{name} should be orthomodular, non-distributive")
        o6 = catalog("O6")
        report = classify(o6)
        if not (report.is_orthocomplemented and not report.is_orthomodular):
            failures.append("O6 should be orthocomplemented but not orthomodular")
        a, b = dict(report.witnesses)["orthomodular"]
        if not (o6.le(a, b) and o6.join[a, o6.meet[o6.oc(a), b]] != b):
            failures.append("O6 witness does not re-check")


def test_criterion_02_compatibility_equivalence():
    with criterion(2, "three compatibility routes coincide", 5.0) as failures:
        for name in OML_NAMES:
            lat = catalog(name)
            for a, b in itertools.product(range(lat.n), repeat=2):
                by_def = compatible_via_definition(lat, a, b)
                by_identity = is_compatible(lat, a, b)
                decomposition = compatible_decomposition(lat, a, b)
                if not (by_def == by_identity == (decomposition is not None)):
                    failures.append(f"routes disagree on {name} ({a}, {b})")
                    break
                if decomposition is None and lat.n <= 12:
                    if oracles.exhaustive_decomposition_exists(lat, a, b):
                        failures.append(
                            f"exhaustive search found a decomposition on {name} ({a}, {b})"
                        )
                        break


def test_criterion_03_incompatibility_propagation_lemma():
    description = "upward incompatibility propagation has no counterexample"
    with criterion(3, description, 10.0) as failures:
        lattices = [(name, catalog(name)) for name in OML_NAMES]
        for first, second in itertools.product(OML_NAMES, repeat=2):
            product = direct_product(catalog(first), catalog(second))
            if product.n <= 48:
                lattices.append((f"{first}x{second}", product))
        counterexamples = []
        for label, lat in lattices:
            ok, witness = check_incompatible_lemma(lat)
            if ok:
                continue
            a, b, c = witness
            relation = compatibility_relation(lat)
            genuine = (
                lat.le(a, b)
                and a != b
                and not relation[a, c]
                and relation[b, c]
            )
            if not genuine:
                failures.append(f"{label}: reported witness {witness} is not genuine")
            else:
                counterexamples.append(
                    f"{label}:{tuple(lat.names[i] for i in witness)}"
                )
        if counterexamples:
            failures.append(
                "the checked claim (a < b and a incompatible with c implies b "
                "incompatible with c) is false as a general statement: any central "
                "element, the top included, is compatible with every c yet can sit "
                "above incompatible elements, and the scan found genuine "
                "counterexamples (each re-verified through the compatibility "
                f"relation) on {len(counterexamples)} lattices: "
                + "; ".join(counterexamples[:6])
                + ("; ..." if len(counterexamples) > 6 else "")
                + " -- see ROADMAP.md, Standing constraints, for the full analysis"
            )


def test_elements_compatible_with_one_element_form_a_sub_oml():
    # the correctly stated lemma beside criterion 3: in an orthomodular
    # lattice the elements compatible with c are closed under meet, join
    # and orthocomplement
    rng = np.random.default_rng(17)
    lattices = [catalog(name) for name in OML_NAMES]
    lattices += [
        direct_product(catalog(first), catalog(second))
        for first, second in itertools.product(OML_NAMES, repeat=2)
    ]
    lattices += [
        oracles.relabelled(oracles.greechie_pasting(oracles.greechie_ring(k)), rng)
        for k in (5, 6, 7, 12)
    ]
    proper = 0
    for lat in lattices:
        relation = compatibility_relation(lat)
        for c in range(lat.n):
            inside = relation[c]
            members = np.flatnonzero(inside)
            grid = np.ix_(members, members)
            assert inside[lat.meet[grid]].all() and inside[lat.join[grid]].all()
            assert inside[lat.ortho[members]].all()
            proper += members.size < lat.n
    assert proper > 0  # not every element is central


def test_criterion_04_dispersion_free_states():
    with criterion(4, "dispersion-free enumeration and the center theorem", 10.0) as failures:
        expected = {"B4": 2, "B8": 3, "MO2": 0, "MO3": 0, "MO2xB2": 1}
        for name, count in expected.items():
            report = enumerate_dispersion_free(catalog(name))
            if len(report.states) != count:
                failures.append(f"{name}: expected {count} states, got {len(report.states)}")
            if not report.theorem_consistent:
                failures.append(f"{name}: theorem-consistent flag is false")
        for name in OML_NAMES:
            lat = catalog(name)
            got = [
                tuple(int(v) for v in state.values)
                for state in enumerate_dispersion_free(lat).states
            ]
            brute = oracles.brute_force_dispersion_free(
                lat, compat=compatibility_relation(lat)
            )
            if got != brute:
                failures.append(f"{name}: enumeration disagrees with 2^n brute force")


def test_criterion_05_unary_nogo_certification():
    with criterion(5, "unary probability no-go on the 1/100 grid", 1.0) as failures:
        if not unary_nogo_certify("1/100"):
            failures.append("certification failed on the 1/100 grid")


def test_criterion_06_quantum_closures_and_roundtrip():
    with criterion(6, "projector closures and order/complement round-trip", 1.0) as failures:
        zx = qubit_zx_lattice()
        if zx.n != 6 or not is_order_isomorphic(zx.lattice, catalog("MO2")):
            failures.append("qubit Z/X closure is not a 6-element MO2")
        qutrit = qutrit_commuting_lattice()
        if qutrit.n != 8 or not is_order_isomorphic(qutrit.lattice, catalog("B8")):
            failures.append("commuting qutrit closure is not an 8-element B8")
        for pl, label in ((zx, "qubit"), (qutrit, "qutrit")):
            if not np.array_equal(infer_order(pl), pl.lattice.leq):
                failures.append(f"{label}: inferred order differs from subspace order")
            if any(
                infer_complement(pl, a) != pl.lattice.oc(a) for a in range(pl.n)
            ):
                failures.append(f"{label}: inferred complement differs from I - P")


def test_criterion_07_sequence_probabilities():
    with criterion(7, "sequence normalization, isolation, detectability", 1.0) as failures:
        zx = qubit_zx_lattice()
        plane4 = projector_lattice(
            [ket_projector([1, 0, 0, 0]), ket_projector([1, 1, 0, 0])]
        )
        rng = np.random.default_rng(2024)
        for pl in (zx, qutrit_commuting_lattice(), plane4):
            for _ in range(8):
                rho = random_density_matrix(pl.dim, rng)
                schedule = [int(rng.integers(0, pl.n)) for _ in range(3)]
                total = sum(
                    sequence_probability(pl, rho, list(zip(schedule, answers)))
                    for answers in itertools.product((True, False), repeat=3)
                )
                if abs(total - 1.0) > TOL:
                    failures.append(f"normalization off by {abs(total - 1.0):.2e}")
        rho0 = ket_projector([1, 0])
        z0i, z1i, xpi = zx.index("Z0"), zx.index("Z1"), zx.index("X+")
        checks = [
            (isolated_check(zx, rho0, z0i), 1.0),
            (isolated_check(zx, rho0, z0i, xpi), 0.5),
            (isolated_check(zx, rho0, z0i, z1i), 1.0),
            (detectability(zx, z0i, xpi), 0.5),
        ]
        for got, want in checks:
            if abs(got - want) > TOL:
                failures.append(f"expected {want}, got {got}")


def test_criterion_08_wigner_scenario():
    with criterion(8, "measurement scenario: implication, classes, trade-off", 1.0) as failures:
        scenario = cnot_scenario()
        if not verify_cross_implication(scenario):
            failures.append("cross-implication fails on the CNOT preset")
        report = verify_class_relations(scenario)
        if not report.m_below_full_question:
            failures.append("m is not below the joint measured question")
        if not (report.n_full_commutator > 0.1 and report.n_m_commutator > 0.1):
            failures.append("commutator norms are not both above 0.1")
        detect_only, know_then_detect = tradeoff(scenario)
        if abs(detect_only - 1.0) > TOL or abs(know_then_detect - 0.5) > TOL:
            failures.append(f"trade-off ({detect_only}, {know_then_detect}) != (1.0, 0.5)")


def test_criterion_09_detection_protocol():
    with criterion(9, "seeded interaction-detection protocol", 5.0) as failures:
        quiet = run_detection_protocol(ProtocolConfig(rounds=100_000, seed=11))
        if quiet.disagreements != 0:
            failures.append("quiet channel produced disagreements")
        full = ProtocolConfig(
            rounds=100_000, seed=42, eavesdrop_fraction=1.0, strategy="intercept-resend"
        )
        stats = run_detection_protocol(full)
        if abs(stats.disagreement_rate - 0.25) > 0.01:
            failures.append(f"full interception rate {stats.disagreement_rate}")
        half = ProtocolConfig(
            rounds=100_000, seed=42, eavesdrop_fraction=0.5, strategy="intercept-resend"
        )
        if abs(run_detection_protocol(half).disagreement_rate - 0.125) > 0.01:
            failures.append("half interception rate off")
        if run_detection_protocol(full) != stats:
            failures.append("rerun with a fixed seed was not bit-identical")


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "CLI exit codes, schema, crash safety", 1.0) as failures:
        cases = [(["check", "MO2"], 0), (["check", "O6"], 1), (["check", "missing.lat"], 2)]
        for argv, want in cases:
            code = main(argv)
            out = capsys.readouterr().out
            if code != want:
                failures.append(f"{argv} exited {code}, expected {want}")
            try:
                jsonschema.validate(json.loads(out), REPORT_SCHEMA)
            except Exception as exc:  # noqa: BLE001 - report any schema break
                failures.append(f"{argv} report does not validate: {exc}")
        for doc in ("", "garbage\n", "elements a a\n", "cover x y\n", "\x00\x01"):
            path = tmp_path / "bad.lat"
            path.write_text(doc)
            code = main(["check", str(path)])
            capsys.readouterr()
            if code != 2:
                failures.append(f"malformed document exited {code}, expected 2")
