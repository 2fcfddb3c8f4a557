import numpy as np
import pytest

from orthologic import (
    BadProjector,
    DimensionMismatch,
    PreconditionFailed,
    Scenario,
    class_m,
    class_n,
    cnot_scenario,
    full_question,
    identity_scenario,
    interaction_equivalence,
    scenario_from_json,
    swap_scenario,
    tradeoff,
    verify_class_relations,
    verify_cross_implication,
    x_plus,
    z0,
    z1,
)
from orthologic.quantum import ket_projector, matrix_to_json, validate_projector

TOL = 1e-9

KET_00 = np.zeros(4)
KET_00[0] = 1
KET_11 = np.zeros(4)
KET_11[3] = 1
BELL = np.zeros(4)
BELL[0] = BELL[3] = 1 / np.sqrt(2)


def with_alt(scenario, alt):
    return Scenario(
        system_dim=scenario.system_dim,
        friend_dim=scenario.friend_dim,
        coupling=scenario.coupling,
        ready=scenario.ready,
        question=scenario.question,
        record=scenario.record,
        alt_question=alt,
    )


# ---------------------------------------------------------------------------
# carrying questions across the interaction


def test_identity_coupling_fixes_everything():
    scenario = identity_scenario()
    p = np.kron(x_plus(), z0())
    assert np.allclose(interaction_equivalence(scenario, p), p)


def test_cnot_moves_pointer_states():
    scenario = cnot_scenario()
    moved = interaction_equivalence(scenario, np.kron(z1(), z0()))
    assert np.allclose(moved, np.outer(KET_11, KET_11), atol=TOL)
    entangled = interaction_equivalence(scenario, np.kron(x_plus(), z0()))
    assert np.allclose(entangled, np.outer(BELL, BELL), atol=TOL)


def test_interaction_equivalence_preserves_projector_structure():
    rng = np.random.default_rng(11)
    scenario = cnot_scenario()
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = ket_projector(v)
        moved = interaction_equivalence(scenario, p)
        validate_projector(moved, dim=4)
        assert abs(np.trace(moved).real - np.trace(p).real) < TOL  # rank kept


def test_interaction_equivalence_validates_input():
    scenario = cnot_scenario()
    with pytest.raises(DimensionMismatch):
        interaction_equivalence(scenario, z0())
    with pytest.raises(BadProjector):
        interaction_equivalence(scenario, np.eye(4) * 0.3)


# ---------------------------------------------------------------------------
# cross implication


def test_cross_implication_cnot_true():
    assert verify_cross_implication(cnot_scenario())


def test_cross_implication_identity_false():
    # the friend's record never correlates without a coupling
    assert not verify_cross_implication(identity_scenario())


def test_cross_implication_swap_true():
    # conjugation moves the system question onto the friend, where the
    # record picks it up, so this wiring still measures
    assert verify_cross_implication(swap_scenario())


def test_statistics_match_across_representatives():
    # for measuring scenarios the pre- and post-interaction representatives
    # of the class m answer identically on every (system state) x ready
    for scenario in (cnot_scenario(), swap_scenario()):
        u = scenario.coupling
        ready = scenario.ready_projector
        pre = np.kron(scenario.question, ready)
        post = class_m(scenario)
        tomography = [
            ket_projector(v)
            for v in ([1, 0], [0, 1], [1, 1], [1, 1j])
        ]
        for system_state in tomography:
            prep = np.kron(system_state, ready)
            before = np.trace(pre @ prep).real
            evolved = u @ prep @ u.conj().T
            after = np.trace(post @ evolved).real
            assert before == pytest.approx(after, abs=TOL)


# ---------------------------------------------------------------------------
# class relations


def test_class_relations_cnot():
    report = verify_class_relations(cnot_scenario())
    assert report.cross_implication
    assert report.m_below_full_question
    assert report.n_full_commutator == pytest.approx(np.sqrt(0.5), abs=TOL)
    assert report.n_m_commutator == pytest.approx(np.sqrt(0.5), abs=TOL)
    assert report.n_incompatible_with_full and report.n_incompatible_with_m
    assert not report.degenerate


def test_class_relations_degenerate_alt():
    scenario = with_alt(cnot_scenario(), z1())
    report = verify_class_relations(scenario)
    assert report.degenerate
    assert not report.n_incompatible_with_full  # n == m commutes with (a, 1)
    assert not report.n_incompatible_with_m
    assert np.allclose(class_n(scenario), class_m(scenario), atol=TOL)


def test_class_relations_identity_coupling():
    report = verify_class_relations(identity_scenario())
    assert report.m_below_full_question  # a (x) ready still sits under a (x) 1
    assert report.n_incompatible_with_full  # disturbance persists uncoupled
    assert not report.cross_implication  # but it is not a measurement


def test_class_m_and_full_question_shapes():
    scenario = cnot_scenario()
    assert np.allclose(class_m(scenario), np.outer(KET_11, KET_11), atol=TOL)
    assert np.allclose(full_question(scenario), np.kron(z1(), np.eye(2)), atol=TOL)
    assert np.allclose(class_n(scenario), np.outer(BELL, BELL), atol=TOL)


# ---------------------------------------------------------------------------
# the detect-versus-know trade-off


def test_tradeoff_cnot():
    detect_only, know_then_detect = tradeoff(cnot_scenario())
    assert detect_only == pytest.approx(1.0, abs=TOL)
    assert know_then_detect == pytest.approx(0.5, abs=TOL)


def test_tradeoff_compatible_alt_keeps_certainty():
    detect_only, know_then_detect = tradeoff(with_alt(cnot_scenario(), z0()))
    assert detect_only == pytest.approx(1.0, abs=TOL)
    assert know_then_detect == pytest.approx(1.0, abs=TOL)


def test_tradeoff_requires_measurement_scenario():
    with pytest.raises(PreconditionFailed):
        tradeoff(identity_scenario())
    detect_only, know_then_detect = tradeoff(identity_scenario(), check=False)
    assert detect_only == pytest.approx(1.0, abs=TOL)
    assert know_then_detect == pytest.approx(0.5, abs=TOL)


def test_tradeoff_second_component_never_exceeds_first():
    for scenario in (cnot_scenario(), swap_scenario(), with_alt(cnot_scenario(), z0())):
        detect_only, know_then_detect = tradeoff(scenario, check=False)
        assert know_then_detect <= detect_only + TOL
        report = verify_class_relations(scenario)
        strictly_less = know_then_detect < detect_only - TOL
        assert strictly_less == report.n_incompatible_with_full


# ---------------------------------------------------------------------------
# scenario construction


def test_scenario_rejects_non_unitary_coupling():
    with pytest.raises(ValueError):
        Scenario(
            system_dim=2,
            friend_dim=2,
            coupling=np.eye(4) * 2,
            ready=np.array([1.0, 0.0]),
            question=z1(),
            record=z1(),
            alt_question=x_plus(),
        )


def test_scenario_rejects_unnormalized_ready():
    with pytest.raises(ValueError):
        Scenario(
            system_dim=2,
            friend_dim=2,
            coupling=np.eye(4),
            ready=np.array([1.0, 1.0]),
            question=z1(),
            record=z1(),
            alt_question=x_plus(),
        )


def test_scenario_rejects_wrong_coupling_shape():
    with pytest.raises(DimensionMismatch):
        Scenario(
            system_dim=2,
            friend_dim=3,
            coupling=np.eye(4),
            ready=np.array([1.0, 0.0, 0.0]),
            question=z1(),
            record=basis_projector_3(),
            alt_question=x_plus(),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field, error",
    [("coupling", ValueError), ("ready", ValueError), ("alt_question", BadProjector)],
)
def test_scenario_rejects_non_finite_entries(field, error, bad):
    source = cnot_scenario()
    fields = {
        "coupling": source.coupling.copy(),
        "ready": source.ready.copy(),
        "alt_question": source.alt_question.copy(),
    }
    fields[field].flat[-1] = bad
    with pytest.raises(error, match="non-finite"):
        Scenario(system_dim=2, friend_dim=2, question=z1(), record=z1(), **fields)


@pytest.mark.parametrize(
    "field, error",
    [("coupling", ValueError), ("ready", ValueError), ("alt_question", BadProjector)],
)
def test_scenario_rejects_entries_above_modulus_one(field, error):
    # 1e200 is finite, but its square overflows: the check must refuse it before any product
    source = cnot_scenario()
    fields = {
        "coupling": source.coupling.copy(),
        "ready": source.ready.copy(),
        "alt_question": source.alt_question.copy(),
    }
    fields[field].flat[-1] = 1e200
    with pytest.raises(error):
        Scenario(system_dim=2, friend_dim=2, question=z1(), record=z1(), **fields)


def basis_projector_3():
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = 1
    return p


def test_scenario_json_roundtrip():
    source = cnot_scenario()
    payload = {
        "system_dim": 2,
        "friend_dim": 2,
        "coupling": matrix_to_json(source.coupling),
        "ready": [[1.0, 0.0], [0.0, 0.0]],
        "question": matrix_to_json(source.question),
        "record": matrix_to_json(source.record),
        "alt_question": matrix_to_json(source.alt_question),
    }
    rebuilt = scenario_from_json(payload)
    assert verify_cross_implication(rebuilt)
    assert tradeoff(rebuilt) == pytest.approx((1.0, 0.5), abs=TOL)


def test_scenario_json_missing_field():
    with pytest.raises(ValueError):
        scenario_from_json({"system_dim": 2})
