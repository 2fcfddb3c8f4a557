"""The four workloads: seeded inputs, the timed calls, and their expected answers.

Every workload is a closed loop: the client starts a job only after the
previous one returned.  A workload builder does the set-up (inputs from the
seed, and for ``point-queries`` the n=256 lattice) and returns an endless
iterator of passes; a pass is a list of jobs.  Each pass of the fixed
workloads gets freshly permuted documents and freshly drawn generators from
the seeded stream, because search and scan times depend on element order:
a run then averages over many orders instead of riding on one.

The fixed passes have an odd number of jobs (5, 7, 15), so that neither the
median nor the 90th percentile (by nearest rank) falls on the border between
two job kinds: both always land on the same job kind however many passes a
run makes.

Expected answers come from :mod:`model` and from closed forms, never from
orthologic's own output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import orthologic
from orthologic import cli

from model import Document, Product

TOL = 1e-9
DETECT_ROUNDS = 4_000_000
# intercept-resend disagreement counts must lie within this many binomial
# standard deviations of rounds * fraction / 4 (false alarm rate ~1e-9)
DETECT_SIGMAS = 6.0


class Mismatch(Exception):
    """An answer differs from its expected value."""


def expect(condition, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass(frozen=True)
class Job:
    label: str
    call: Callable[[], object]  # the timed call into orthologic
    check: Callable[[object], None]  # raises Mismatch on a wrong answer

    def failure(self, outcome) -> str | None:
        """Why ``outcome`` is wrong, or None when it is the expected answer."""
        try:
            self.check(outcome)
        except Mismatch as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed answer: {type(exc).__name__}: {exc}"
        return None


class CliOutcome(NamedTuple):
    code: int
    text: str

    def report(self) -> dict:
        report = json.loads(self.text)
        expect(report["exit_code"] == self.code, "report exit code differs from the return code")
        return report


def answer_digest(outcome) -> str:
    """Digest of an answer that ignores the report's wall-clock field."""
    if isinstance(outcome, CliOutcome):
        report = json.loads(outcome.text)
        report.pop("timing_seconds", None)
        text = json.dumps([outcome.code, report], sort_keys=True)
    else:
        text = repr(outcome)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_cli(argv: list[str]) -> CliOutcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)  # looked up per call, so a traced run sees the wrapper
    return CliOutcome(code, out.getvalue())


def cli_job(label: str, argv: list[str], check: Callable[[CliOutcome], None]) -> Job:
    return Job(label, lambda: _run_cli(argv), check)


def _write(text: str, suffix: str) -> str:
    """Write an input file into the working directory, named by its content."""
    name = hashlib.sha256(text.encode()).hexdigest()[:16] + suffix
    Path(name).write_text(text, encoding="utf-8")
    return name


def _expect_refused(out: CliOutcome, error: str) -> None:
    expect(out.code == 2, f"exit {out.code}, expected 2")
    expect(out.report().get("error", "").startswith(error), f"error is not {error}")


# ---------------------------------------------------------------------------
# exact-scan: classify, center and lemma scans on n = 64..256 documents


def check_job(product: Product, rng: random.Random) -> Job:
    doc = Document(product, rng)
    path = _write(doc.text, ".lat")
    by_name = {product.name(x): x for x in product.elements}
    flags = {
        "lattice": True,
        "bounded": True,
        "orthocomplemented": True,
        "orthomodular": product.orthomodular,
        "distributive": product.distributive,
    }

    def check(out: CliOutcome) -> None:
        report = out.report()
        results = report["results"]
        expect(out.code == (0 if product.orthomodular else 1), f"exit {out.code}")
        expect(results["size"] == product.n, "size")
        expect(results["properties"] == flags, f"properties {results['properties']}")
        witnesses = {
            w["property"]: [by_name[e] for e in w["elements"]] for w in report["witnesses"]
        }
        expect(set(witnesses) == {k for k, v in flags.items() if not v}, "witnessed properties")
        if not product.distributive:
            expect(product.violates_distributive(*witnesses["distributive"]),
                   "distributivity witness does not violate the law")
        if not product.orthomodular:
            expect(product.violates_orthomodular(*witnesses["orthomodular"]),
                   "orthomodularity witness does not violate the law")
            expect("notice" in results and "center" not in results, "center on a non-OML")
            return
        center = {product.name(x) for x in product.center()}
        expect(set(results["center"]) == center, "center differs from C(L1) x C(L2)")
        expect(results["center_is_trivial"] == (len(center) == 2), "center_is_trivial")
        # the upward-propagation claim fails in every non-Boolean OML
        expect(results["incompatibility_propagates_upward"] == product.distributive, "lemma verdict")
        if not product.distributive:
            a, b, c = (by_name[e] for e in results["lemma_witness"])
            expect(a != b and product.leq(a, b), "lemma witness: a < b")
            expect(not product.compatible(a, c) and product.compatible(b, c),
                   "lemma witness: a incompatible, b compatible with c")

    return cli_job(f"check {product.label}", ["check", path], check)


def product_job(product: Product, rng: random.Random) -> Job:
    """``product <document> B4``; the expected order is product x B4."""
    doc = Document(product, rng)
    path = _write(doc.text, ".lat")
    full = Product(tuple(f.label for f in product.factors) + ("B4",))

    def check(out: CliOutcome) -> None:
        results = out.report()["results"]
        expect(out.code == 0, f"exit {out.code}")
        expect(results["size"] == full.n, "size")
        expect(results["properties"] == {
            "lattice": True, "bounded": True, "orthocomplemented": True,
            "orthomodular": full.orthomodular, "distributive": full.distributive,
        }, f"properties {results['properties']}")
        lines = [line.split() for line in results["document"].splitlines()]
        kinds = [line[0] for line in lines]
        expect(len(lines[0]) - 1 == full.n, "document element count")
        expect(kinds.count("cover") == full.cover_count(), "document cover count")
        expect(kinds.count("ortho") == full.n // 2, "document ortho count")

    return cli_job(f"product {product.label} B4", ["product", path, "B4"], check)


def _passes(make_pass):
    """The first pass is built during set-up, the others between passes."""
    first = make_pass()
    return itertools.chain([first], (make_pass() for _ in itertools.count()))


def exact_scan(seed: int):
    """Five jobs at n = 64..256; the order closure, tables and scans do the work."""
    rng = random.Random(seed)
    checks = [
        Product(("MO3", "B8")),  # n=64, the small end
        Product(("O6", "B8", "B4")),  # n=192, exit 1 with witnesses
        Product(("MO3", "B8", "B4")),  # n=256, OML, lemma fails
        Product(("B8", "B8", "B4")),  # n=256, Boolean, every scan passes
    ]
    factor = Product(("MO3", "B8"))  # 64 x 4: builds and serializes n=256
    return _passes(lambda: [check_job(p, rng) for p in checks] + [product_job(factor, rng)])


# ---------------------------------------------------------------------------
# state-search: dispersion-free enumeration on n <= 64


def states_job(product: Product, rng: random.Random) -> Job:
    doc = Document(product, rng)
    path = _write(doc.text, ".lat")

    def check(out: CliOutcome) -> None:
        if product.n > 64:
            _expect_refused(out, "TooLarge")
            return
        results = out.report()["results"]
        expect(out.code == 0, f"exit {out.code}")
        expected = product.dispersion_free_states()
        expect(results["count"] == len(expected), f"count {results['count']} != {len(expected)}")
        as_set = {tuple(sorted(s.items())) for s in results["states"]}
        expect(as_set == {tuple(sorted(s.items())) for s in expected}, "state values")
        expect(results["center_is_trivial"] is (len(product.center()) == 2), "center_is_trivial")
        # an OML with a trivial center has no dispersion-free state
        expect(results["theorem_consistent"] is True, "theorem_consistent")

    return cli_job(f"states {product.label}", ["states", path], check)


def state_search(seed: int):
    """Seven ``states`` jobs: the backtracking search and its re-verification."""
    rng = random.Random(seed)
    labels = [
        ("B8", "B8"),  # 6 states, n=64
        ("B4", "B4", "B4"),  # 6 states spread over three factors
        ("B2", "B4", "B8"),  # 6 states, factors of three sizes
        ("MO3", "B8"),  # 3 states: MO3 contributes none
        ("MO2", "B2", "B4"),  # 3 states at n=48
        ("MO3", "MO2"),  # no states at all, nontrivial center
        ("MO2", "MO2", "B2"),  # n=72 is above the enumeration cap: exit 2
    ]
    products = [Product(lab) for lab in labels]
    return _passes(lambda: [states_job(p, rng) for p in products])


# ---------------------------------------------------------------------------
# models: projector closure and reconstruction, Wigner presets, detection


def _generators_json(vectors) -> dict:
    mats = [np.outer(v, v.conj()) for v in vectors]
    return {
        "generators": [
            [[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats
        ],
        "names": [f"g{i}" for i in range(len(mats))],
    }


def _random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def quantum_job(label: str, vectors, check) -> Job:
    path = _write(json.dumps(_generators_json(vectors)), ".json")
    return cli_job(f"quantum {label}", ["quantum", "--generators", path], check)


def commuting_job(dim: int, gen: np.random.Generator) -> Job:
    """dim - 1 orthogonal rays in a random basis: 2^dim elements, Boolean."""
    basis = _random_unitary(gen, dim)

    def check(out: CliOutcome) -> None:
        results = out.report()["results"]
        expect(out.code == 0, f"exit {out.code}")
        expect(results["size"] == 2**dim and len(results["elements"]) == 2**dim, "size")
        expect(all(results["properties"].values()), f"properties {results['properties']}")
        expect(results["order_roundtrip"] and results["complement_roundtrip"], "round-trips")

    return quantum_job(f"commuting d={dim}", [basis[:, j] for j in range(dim - 1)], check)


def mo3_job(gen: np.random.Generator) -> Job:
    """Z, X and Y rays of a qubit, rotated: three blocks glued at 0 and 1, shaped like MO3."""
    u = _random_unitary(gen, 2)
    rays = [np.array([1, 0]), np.array([1, 1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2)]

    def check(out: CliOutcome) -> None:
        results = out.report()["results"]
        expect(out.code == 0, f"exit {out.code}")
        expect(results["size"] == 8, "size")
        props = results["properties"]
        expect(props["orthomodular"] and not props["distributive"], f"properties {props}")
        expect(results["order_roundtrip"] and results["complement_roundtrip"], "round-trips")

    return quantum_job("qubit MO3", [u @ r for r in rays], check)


def capped_job(gen: np.random.Generator) -> Job:
    """Four generic qutrit rays: the closure is infinite and hits the 64-element cap."""
    rays = [v / np.linalg.norm(v) for v in gen.normal(size=(4, 3)) + 1j * gen.normal(size=(4, 3))]
    return quantum_job("qutrit generic", rays,
                       lambda out: _expect_refused(out, "ClosureTooLarge"))


# closed forms for the presets: system question Z1, friend ready in |0>,
# alternative question X+.  [n, (Z1 x I)] and [n, m] have norm 1/sqrt(2)
# whenever they do not vanish.
_R = 1 / math.sqrt(2)
WIGNER_EXPECTED = {
    # CNOT measures: cross-implication holds, reading the record halves detection
    "cnot": (0, dict(cross_implication=True, m_below_full_question=True,
                     n_full_commutator=_R, n_m_commutator=_R, tradeoff=[1.0, 0.5])),
    # no coupling: the record stays uncorrelated, so the measurement check fails
    "identity": (1, dict(cross_implication=False, m_below_full_question=True,
                         n_full_commutator=_R, n_m_commutator=_R, tradeoff=[1.0, 0.5])),
    # SWAP moves the system onto the friend: m leaves (Z1 x I) and n commutes with it
    "swap": (1, dict(cross_implication=True, m_below_full_question=False,
                     n_full_commutator=0.0, n_m_commutator=_R, tradeoff=[1.0, 1.0])),
}


def wigner_job(preset: str) -> Job:
    code, fields = WIGNER_EXPECTED[preset]

    def check(out: CliOutcome) -> None:
        results = out.report()["results"]
        expect(out.code == code, f"exit {out.code}")
        for key, value in fields.items():
            got = results[key]
            if isinstance(value, bool):
                expect(got is value, key)
            else:
                expect(np.allclose(got, value, rtol=0, atol=TOL), f"{key} {got}")
        expect(results["n_incompatible_with_full"] == (fields["n_full_commutator"] > 0),
               "n_incompatible_with_full")
        expect(results["n_incompatible_with_m"] is True, "n_incompatible_with_m")
        expect(results["degenerate"] is False, "degenerate")

    return cli_job(f"wigner {preset}", ["wigner", "--preset", preset], check)


def detect_job(fraction: float, seed: int, rounds: int) -> Job:
    argv = ["detect", "--rounds", str(rounds), "--seed", str(seed), "--fraction", str(fraction)]

    def check(out: CliOutcome) -> None:
        results = out.report()["results"]
        expect(out.code == 0, f"exit {out.code}")
        expect(results["compared"] == rounds, "compared")
        if fraction == 0:
            expect(results["disagreements"] == 0 and not results["detected"],
                   "disagreement without an eavesdropper")
            return
        p = fraction / 4
        spread = DETECT_SIGMAS * math.sqrt(rounds * p * (1 - p))
        expect(abs(results["disagreements"] - rounds * p) <= spread,
               f"{results['disagreements']} disagreements, expected {rounds * p:.0f}")
        expect(results["detected"], "detected")

    return cli_job(f"detect f={fraction}", argv, check)


def models(seed: int):
    """Fifteen jobs: closure and the Lüders oracle dominate time, the protocol memory.

    Six jobs are faster than a d=4 closure and six slower, so the median is
    the middle one of three d=4 closures (in three random bases), away from
    the page-fault-bound detect jobs, whose times scatter; three d=5
    closures hold the 90th percentile.
    """
    gen = np.random.default_rng(seed)

    def one_pass():
        jobs = [commuting_job(d, gen) for d in (4, 4, 4, 5, 5, 5, 6)]
        jobs += [mo3_job(gen), capped_job(gen)]
        jobs += [wigner_job(p) for p in ("cnot", "identity", "swap")]
        jobs += [detect_job(f, int(gen.integers(2**32)), DETECT_ROUNDS) for f in (0.0, 0.5, 1.0)]
        return jobs

    return _passes(one_pass)


# ---------------------------------------------------------------------------
# point-queries: a seeded stream of library calls on one n=256 lattice

# calls per block of twenty.  Two thirds are the ~2 ms orthomodularity-bound
# queries, so the median sits inside them; center (~2.5 ms) holds the 90th
# percentile; the definitional and closure calls vary widely with the pair.
QUERY_MIX = (
    ("is_compatible", 8),
    ("compatible_decomposition", 4),
    ("incompatibility_witness", 2),
    ("center", 2),
    ("compatible_via_definition", 2),
    ("generated_sublattice", 2),
)


class QueryOracle:
    """Expected answers for library queries on one generated document."""

    def __init__(self, doc: Document):
        self.product = doc.product
        self.order = doc.order
        self.index = doc.index
        self._witness = {}

    def compatible(self, a: int, b: int) -> bool:
        return self.product.compatible(self.order[a], self.order[b])

    def decomposition(self, a: int, b: int):
        if not self.compatible(a, b):
            return None
        p, x, y = self.product, self.order[a], self.order[b]
        return (self.index[p.meet(x, p.ortho(y))], self.index[p.meet(y, p.ortho(x))],
                self.index[p.meet(x, y)])

    def witness(self, q: int):
        if q not in self._witness:
            bad = [i for i in range(len(self.order)) if not self.compatible(q, i)]
            self._witness[q] = bad[0] if bad else None
        return self._witness[q]

    def center(self) -> tuple[int, ...]:
        return tuple(sorted(self.index[x] for x in self.product.center()))

    def generated(self, seed) -> tuple[int, ...]:
        members = self.product.generated({self.order[i] for i in seed})
        return tuple(sorted(self.index[x] for x in members))


def query_job(lattice, oracle: QueryOracle, kind: str, a: int, b: int) -> Job:
    args = {
        "incompatibility_witness": (a,),
        "center": (),
        "generated_sublattice": ((a, b),),
    }.get(kind, (a, b))

    def call():
        return getattr(orthologic, kind)(lattice, *args)  # looked up per call for tracing

    def check(got) -> None:
        if kind in ("is_compatible", "compatible_via_definition"):
            expect(got is oracle.compatible(a, b), f"{kind}({a}, {b})")
        elif kind == "compatible_decomposition":
            want = oracle.decomposition(a, b)
            have = None if got is None else (got.a_part, got.b_part, got.common)
            expect(have == want, f"decomposition({a}, {b}) {have} != {want}")
        elif kind == "incompatibility_witness":
            expect(got == oracle.witness(a), f"witness({a})")
        elif kind == "center":
            expect(got.members == oracle.center() and not got.is_trivial, "center")
        else:
            expect(got == oracle.generated((a, b)), f"generated({a}, {b})")

    return Job(f"query {kind}", call, check)


def point_queries(seed: int):
    """Build MO3 x B8 x B4 (n=256) once, then stream seeded query blocks."""
    rng = random.Random(seed)
    doc = Document(Product(("MO3", "B8", "B4")), rng)
    lattice = orthologic.parse_lattice(doc.text)
    oracle = QueryOracle(doc)
    kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]

    def block():
        rng.shuffle(kinds)
        return [query_job(lattice, oracle, k, rng.randrange(lattice.n), rng.randrange(lattice.n))
                for k in kinds]

    return _passes(block)


WORKLOADS = {
    "exact-scan": exact_scan,
    "state-search": state_search,
    "models": models,
    "point-queries": point_queries,
}
