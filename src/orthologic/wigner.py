"""Measurement as an interaction inside an isolated joint system.

A friend couples to a system through one unitary; question classes of the
joint system are carried across the interaction by conjugation.  The class
of the measured question restricted to the friend's ready state (``m``),
the same construction for an incompatible question (``n``), and the plain
joint question (``a``, trivial on the friend) let the disturbance trade-off
be computed directly: certifying the interaction via ``n`` and reading the
record via the joint question are mutually exclusive at certainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PreconditionFailed
from .quantum import TOL, matrix_from_json, validate_projector, x_plus, z1

__all__ = [
    "ClassRelationReport",
    "Scenario",
    "class_m",
    "class_n",
    "cnot_scenario",
    "full_question",
    "identity_scenario",
    "interaction_equivalence",
    "scenario_from_json",
    "swap_scenario",
    "tradeoff",
    "verify_class_relations",
    "verify_cross_implication",
]


@dataclass(frozen=True, eq=False)
class Scenario:
    """One measurement interaction between a system and a friend.

    ``question`` is the measured class on the system, ``record`` the
    friend's pointer projector, and ``alt_question`` an alternative system
    class used to probe the interaction (class ``n``).  ``coupling`` acts on
    the kron-ordered joint space system (x) friend.
    """

    system_dim: int
    friend_dim: int
    coupling: np.ndarray
    ready: np.ndarray
    question: np.ndarray
    record: np.ndarray
    alt_question: np.ndarray

    def __post_init__(self):
        d1, d2 = self.system_dim, self.friend_dim
        joint = d1 * d2
        u = np.asarray(self.coupling, dtype=complex)
        if not np.isfinite(u).all():
            raise ValueError("coupling has non-finite entries")
        if u.shape != (joint, joint):
            raise DimensionMismatch(
                f"coupling must be {joint}x{joint}, got {u.shape}"
            )
        # entries of a unitary, like those of a unit vector, have modulus at
        # most 1; checking that first keeps the products below finite
        bounded = np.abs(u).max(initial=0.0) <= 1 + TOL
        if not bounded or np.linalg.norm(u.conj().T @ u - np.eye(joint)) > TOL:
            raise ValueError("coupling is not unitary within tolerance")
        ready = np.asarray(self.ready, dtype=complex)
        if not np.isfinite(ready).all():
            raise ValueError("ready state has non-finite entries")
        if ready.shape != (d2,):
            raise DimensionMismatch(f"ready state must have dimension {d2}")
        if np.abs(ready).max(initial=0.0) > 1 + TOL or abs(np.linalg.norm(ready) - 1.0) > TOL:
            raise ValueError("ready state is not normalized")
        object.__setattr__(self, "coupling", u)
        object.__setattr__(self, "ready", ready)
        for name, dim in (("question", d1), ("alt_question", d1), ("record", d2)):
            object.__setattr__(self, name, validate_projector(getattr(self, name), dim=dim))

    @property
    def joint_dim(self) -> int:
        return self.system_dim * self.friend_dim

    @property
    def ready_projector(self) -> np.ndarray:
        return np.outer(self.ready, self.ready.conj())


def interaction_equivalence(scenario: Scenario, projector) -> np.ndarray:
    """Carry a joint-system question across the interaction: U P U+."""
    p = validate_projector(projector, dim=scenario.joint_dim)
    u = scenario.coupling
    moved = u @ p @ u.conj().T
    return validate_projector(moved, dim=scenario.joint_dim)


def _pre_true(scenario: Scenario) -> np.ndarray:
    return np.kron(scenario.question, scenario.ready_projector)


def _pre_false(scenario: Scenario) -> np.ndarray:
    complement = np.eye(scenario.system_dim) - scenario.question
    return np.kron(complement, scenario.ready_projector)


def class_m(scenario: Scenario) -> np.ndarray:
    """Post-interaction representative of (measured question, ready friend)."""
    return interaction_equivalence(scenario, _pre_true(scenario))


def class_n(scenario: Scenario) -> np.ndarray:
    """Post-interaction representative of (alternative question, ready friend)."""
    return interaction_equivalence(
        scenario, np.kron(scenario.alt_question, scenario.ready_projector)
    )


def full_question(scenario: Scenario) -> np.ndarray:
    """The measured class paired with the trivial friend question."""
    return np.kron(scenario.question, np.eye(scenario.friend_dim))


def _implication_certain(scenario: Scenario, pre, post) -> bool:
    # conditional probability of the post-interaction question given the
    # pre-interaction answer, at the maximally mixed joint preparation
    weight = float(np.trace(pre).real)
    if weight <= TOL:
        return True
    u = scenario.coupling
    evolved = u @ pre @ u.conj().T
    hit = float(np.trace(post @ evolved).real)
    return abs(hit / weight - 1.0) <= TOL


def verify_cross_implication(scenario: Scenario) -> bool:
    """Does answering the system question fix both later joint inquiries?

    The true branch of (question, ready) must make the interaction-carried
    system question and the friend's record certain; the false branch must
    make their complements certain.  This is what distinguishes a coupling
    that measures from one that merely evolves.
    """
    eye = np.eye(scenario.joint_dim)
    carried = interaction_equivalence(scenario, full_question(scenario))
    record = np.kron(np.eye(scenario.system_dim), scenario.record)
    pre_t, pre_f = _pre_true(scenario), _pre_false(scenario)
    return (
        _implication_certain(scenario, pre_t, carried)
        and _implication_certain(scenario, pre_t, record)
        and _implication_certain(scenario, pre_f, eye - carried)
        and _implication_certain(scenario, pre_f, eye - record)
    )


@dataclass(frozen=True)
class ClassRelationReport:
    """Order and compatibility facts among the classes m, n, and (a, 1).

    Commutator entries are Frobenius norms; incompatibility flags compare
    them against ``TOL``.  ``degenerate`` marks the collapse n == m that
    happens when the alternative question equals the measured one;
    ``cross_implication`` repeats the measurement check so a report is
    self-contained.
    """

    m_below_full_question: bool
    n_full_commutator: float
    n_m_commutator: float
    n_incompatible_with_full: bool
    n_incompatible_with_m: bool
    degenerate: bool
    cross_implication: bool


def verify_class_relations(scenario: Scenario) -> ClassRelationReport:
    """Check m <= (a, 1) and the two incompatibility claims about n."""
    m = class_m(scenario)
    n = class_n(scenario)
    full = full_question(scenario)
    below = np.linalg.norm(full @ m - m) <= TOL
    comm_full = float(np.linalg.norm(n @ full - full @ n))
    comm_m = float(np.linalg.norm(n @ m - m @ n))
    degenerate = np.linalg.norm(scenario.alt_question - scenario.question) <= TOL
    return ClassRelationReport(
        m_below_full_question=bool(below),
        n_full_commutator=comm_full,
        n_m_commutator=comm_m,
        n_incompatible_with_full=comm_full > TOL,
        n_incompatible_with_m=comm_m > TOL,
        degenerate=bool(degenerate),
        cross_implication=verify_cross_implication(scenario),
    )


def tradeoff(scenario: Scenario, *, check: bool = True) -> tuple[float, float]:
    """Certify-isolation probability with and without reading the record.

    Prepares an eigenstate of the alternative question together with the
    ready friend, couples them, and probes the class ``n``.  The first
    component is the plain probe (certain for any valid scenario); the
    second asks the joint measured question first, which spoils certainty
    exactly when ``n`` and the joint question are incompatible.
    """
    if check and not verify_cross_implication(scenario):
        raise PreconditionFailed(
            "scenario fails the cross-implication check; pass check=False to "
            "compute the trade-off anyway"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(scenario.alt_question)
    if eigenvalues[-1] < 0.5:
        raise PreconditionFailed("alternative question has rank zero")
    prepared = eigenvectors[:, -1]
    psi = scenario.coupling @ np.kron(prepared, scenario.ready)
    n = class_n(scenario)
    detect_only = float(np.real(psi.conj() @ n @ psi))
    full = full_question(scenario)
    eye = np.eye(scenario.joint_dim)
    know_then_detect = 0.0
    for e in (full, eye - full):
        branch = e @ psi
        know_then_detect += float(np.real(branch.conj() @ n @ branch))
    return (min(1.0, detect_only), min(1.0, know_then_detect))


# ---------------------------------------------------------------------------
# presets and input


def _cnot() -> np.ndarray:
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    hold = np.diag([1.0, 0.0]).astype(complex)
    act = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(hold, np.eye(2, dtype=complex)) + np.kron(act, flip)


def _swap() -> np.ndarray:
    u = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            u[j * 2 + i, i * 2 + j] = 1.0
    return u


def _qubit_scenario(coupling: np.ndarray) -> Scenario:
    return Scenario(
        system_dim=2,
        friend_dim=2,
        coupling=coupling,
        ready=np.array([1.0, 0.0]),
        question=z1(),
        record=z1(),
        alt_question=x_plus(),
    )


def cnot_scenario() -> Scenario:
    """Pointer CNOT controlled by the system; the minimal measurement coupling."""
    return _qubit_scenario(_cnot())


def identity_scenario() -> Scenario:
    """No coupling at all; fails cross-implication (record stays uncorrelated)."""
    return _qubit_scenario(np.eye(4, dtype=complex))


def swap_scenario() -> Scenario:
    """Coupling that moves the system state onto the friend wholesale."""
    return _qubit_scenario(_swap())


_PRESETS = {
    "cnot": cnot_scenario,
    "identity": identity_scenario,
    "swap": swap_scenario,
}


def scenario_preset(name: str) -> Scenario:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown scenario preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None


def _dimension(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"dimension must be a JSON integer, got {type(value).__name__}")
    return value


_SCENARIO_FIELDS = {
    "system_dim": _dimension,
    "friend_dim": _dimension,
    "coupling": matrix_from_json,
    "ready": lambda row: matrix_from_json([row])[0],
    "question": matrix_from_json,
    "record": matrix_from_json,
    "alt_question": matrix_from_json,
}


def scenario_from_json(obj) -> Scenario:
    """Build a scenario from a parsed JSON object.

    Dimensions must be JSON integers; the matrices, and the ready state as
    one row, are read by :func:`matrix_from_json`.  A missing or malformed
    field raises ``ValueError`` naming it.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(obj).__name__}")
    fields = {}
    for key, read in _SCENARIO_FIELDS.items():
        if key not in obj:
            raise ValueError(f"scenario is missing the {key!r} field")
        try:
            fields[key] = read(obj[key])
        except ValueError as exc:
            raise ValueError(f"{exc} (scenario field {key!r})") from None
    return Scenario(**fields)
