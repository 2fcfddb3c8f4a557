"""Spans around orthologic's public functions, installed from outside the package.

Each listed function is replaced, in every ``orthologic`` module namespace
that binds it, by a wrapper that records a span: name, start, end, parent
span and job id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the time covered by its child spans; calls run
on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

# layer (module) -> public functions wrapped in it
LAYERS = {
    "lattice": (
        "lattice_from_leq",
        "classify",
        "direct_product",
        "parse_lattice",
        "serialize_lattice",
        "generated_sublattice",
        "is_distributive_subset",
    ),
    "analysis": (
        "require_orthomodular",
        "compatibility_relation",
        "is_compatible",
        "compatible_via_definition",
        "compatible_decomposition",
        "incompatibility_witness",
        "center",
        "check_incompatible_lemma",
    ),
    "states": ("enumerate_dispersion_free", "is_state"),
    "quantum": (
        "projector_lattice",
        "infer_order",
        "infer_complement",
        "sequence_probability",
        "validate_density_matrix",
        "validate_projector",
    ),
    "wigner": ("verify_class_relations", "tradeoff"),
    "protocol": ("run_detection_protocol",),
    "cli": ("main",),
    "reporting": ("render_json", "digest"),
}

# the self-time table folds reporting into cli; "client" is the benchmark's
# own time inside a job (the job span's self time)
TABLE_LAYERS = ("lattice", "analysis", "states", "quantum", "wigner", "protocol", "cli", "client")

# functions whose first argument is a lattice; distinct lattices are counted
# so that repeated scans of one lattice show as a ratio above 1
PER_LATTICE = ("analysis.require_orthomodular", "analysis.compatibility_relation")


def _observe(counts: Counter, name: str, args, result) -> None:
    if name == "lattice.lattice_from_leq":
        counts["lattice.elements_built"] += result.n
    elif name == "quantum.projector_lattice":
        counts["quantum.closure_elements"] += result.n
    elif name == "states.enumerate_dispersion_free":
        counts["states.solutions"] += len(result.states)
    elif name == "protocol.run_detection_protocol":
        counts["protocol.rounds"] += args[0].rounds
    elif name == "cli.main":
        counts[f"cli.exit_code.{result}"] += 1


class Tracer:
    """Records spans for the wrapped functions and the benchmark's jobs."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job id)
        self.job = None
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._seen = {name: weakref.WeakSet() for name in PER_LATTICE}
        self._distinct: Counter = Counter()
        self._patched: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if name in self._seen and args[0] not in self._seen[name]:
            self._seen[name].add(args[0])
            self._distinct[name] += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[0], self.job)
            )
        _observe(self.counts, name, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every listed function wherever an orthologic module binds it."""
        originals = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"orthologic.{layer}")
            for fname in names:
                originals[id(getattr(module, fname))] = f"{layer}.{fname}"
        wrappers = {}
        modules = [
            m for key, m in sys.modules.items()
            if key == "orthologic" or key.startswith("orthologic.")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function time and calls, derived counts, and layer self time."""
        out: dict[str, tuple[float, str]] = {}
        for layer, names in LAYERS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                out[f"{key}.s"] = (self.total[key], "s")
                out[f"{key}.self_s"] = (self.self_time[key], "s")
                out[f"{key}.calls"] = (self.calls[key], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        counts = self.counts
        out["lattice.elements_built"] = (counts["lattice.elements_built"], "count")
        out["analysis.om_scans_per_lattice"] = (
            ratio(self.calls["analysis.require_orthomodular"],
                  self._distinct["analysis.require_orthomodular"]), "ratio")
        out["analysis.relations_per_lattice"] = (
            ratio(self.calls["analysis.compatibility_relation"],
                  self._distinct["analysis.compatibility_relation"]), "ratio")
        out["states.solutions"] = (counts["states.solutions"], "count")
        out["states.verifications_per_solution"] = (
            ratio(self.calls["states.is_state"], counts["states.solutions"]), "ratio")
        out["quantum.closure_elements"] = (counts["quantum.closure_elements"], "count")
        out["protocol.rounds_per_s"] = (
            ratio(counts["protocol.rounds"], self.total["protocol.run_detection_protocol"]),
            "1/s")
        for code in (0, 1, 2):
            out[f"cli.exit_code.{code}"] = (counts[f"cli.exit_code.{code}"], "count")
        for layer, seconds in self.layer_self_time().items():
            out[f"layer.{layer}.self_s"] = (seconds, "s")
        return out

    def layer_self_time(self) -> dict[str, float]:
        table = dict.fromkeys(TABLE_LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            layer = name.split(".")[0]
            table["cli" if layer == "reporting" else layer] += seconds
        return table

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one ``[id, name, start, end, parent, job]`` per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
