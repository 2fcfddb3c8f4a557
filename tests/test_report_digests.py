"""CLI report bytes, pinned by digest.

Each command runs in a fresh directory that holds the documents below under
relative file names.  The sha256 of its report, with the value of
``timing_seconds`` blanked, must match ``report_digests.json``.  After a
deliberate change to a report, rewrite that file with

    PYTHONPATH=src python tests/test_report_digests.py

``wigner`` is left out: its reports carry floats that depend on BLAS.  The
floats of a ``detect`` report are exact: the given fraction and
``disagreements / rounds``.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import oracles
from orthologic import catalog, direct_product, serialize_lattice
from orthologic.cli import main

DIGESTS = Path(__file__).with_name("report_digests.json")


def shuffled_product(factors, seed):
    """The product document with its element order and later lines shuffled by ``seed``."""
    product = functools.reduce(direct_product, map(catalog, factors))
    head, *body = serialize_lattice(product).splitlines()
    keyword, *names = head.split()
    rng = random.Random(seed)
    rng.shuffle(names)
    rng.shuffle(body)
    return "\n".join([" ".join([keyword, *names]), *body]) + "\n"


DOCUMENTS = {
    "ten.lat": oracles.DUAL_FIRST_DOCUMENT,
    "mo2xb2.lat": shuffled_product(("MO2", "B2"), 1),
    "o6xb2.lat": shuffled_product(("O6", "B2"), 2),
    "mo3xb4.lat": shuffled_product(("MO3", "B4"), 3),
    "o6xmo2.lat": shuffled_product(("O6", "MO2"), 4),
    "b8xmo2.lat": shuffled_product(("B8", "MO2"), 5),
}
LATTICES = ("B2", "B4", "B8", "MO2", "MO3", "O6", "MO2xB2", *DOCUMENTS)
# n = 64..256: not orthomodular, an OML whose lemma fails, and a Boolean cube
DOCUMENTS |= {
    "o6xb8xb4.lat": shuffled_product(("O6", "B8", "B4"), 6),
    "mo3xb8xb4.lat": shuffled_product(("MO3", "B8", "B4"), 7),
    "b8xb8xb4.lat": shuffled_product(("B8", "B8", "B4"), 8),
    "mo3xb8.lat": shuffled_product(("MO3", "B8"), 9),
}


def generators_file(vectors):
    """A ``quantum --generators`` file of the rays ``vectors``, named g0, g1, ..."""
    mats = [np.outer(v, v.conj()) for v in vectors]
    return json.dumps({
        "generators": [[[[float(z.real), float(z.imag)] for z in row] for row in m] for m in mats],
        "names": [f"g{i}" for i in range(len(mats))],
    })


def gaussian_integers(seed, shape):
    """Seeded Gaussian integers with a nonzero last axis.

    The rays below are built from them with elementwise operations only, so
    their bits, and the digest of each generators file, do not depend on BLAS.
    """
    rng = np.random.default_rng(seed)
    while True:
        v = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
        if v.any(axis=-1).all():
            return v


def squared_norm(v):
    return (v.real**2 + v.imag**2).sum(axis=-1, keepdims=True)


def reflection(dim, seed):
    """A seeded random basis: the columns of the Householder reflection I - 2 v v^H / (v^H v)."""
    v = gaussian_integers(seed, dim)
    return np.eye(dim) - 2 * np.outer(v, v.conj()) / squared_norm(v)


def unit_rays(seed, shape):
    v = gaussian_integers(seed, shape)
    return v / np.sqrt(squared_norm(v))


def rotated_zxy_rays(seed):
    u = reflection(2, seed)
    r = np.sqrt(0.5)
    return [u[:, 0] * a + u[:, 1] * b for a, b in ((1, 0), (r, r), (r, 1j * r))]


# the benchmark's closure shapes: d - 1 commuting rays (B16, B32, B64), the Z, X and Y
# rays of a rotated qubit (MO3), and four generic qutrit rays past the 64-element cap
QUANTUM_GENERATORS = {
    **{f"commuting-d{d}.json": list(reflection(d, d).T[: d - 1]) for d in (4, 5, 6)},
    "qubit-mo3.json": rotated_zxy_rays(2),
    "qutrit-generic.json": list(unit_rays(3, (4, 3))),
}
DOCUMENTS |= {name: generators_file(rays) for name, rays in QUANTUM_GENERATORS.items()}

COMMANDS = [
    *(("check", name) for name in LATTICES),
    *(("states", name) for name in LATTICES),
    ("--text", "check", "O6"),
    ("--text", "check", "ten.lat"),
    ("--text", "check", "mo3xb4.lat"),
    ("product", "MO2", "B2"),
    ("product", "O6", "MO2"),
    ("product", "ten.lat", "B2"),
    ("product", "mo2xb2.lat", "B2"),
    ("product", "o6xb2.lat", "B4"),
    ("check", "o6xb8xb4.lat"),
    ("check", "mo3xb8xb4.lat"),
    ("check", "b8xb8xb4.lat"),
    ("product", "mo3xb8.lat", "B4"),
    ("compat", "MO2", "a", "b"),
    ("compat", "MO2", "a", "a'"),
    ("compat", "MO2", "a", "1"),
    ("compat", "MO3", "b", "c'"),
    ("compat", "B8", "p", "qr"),
    ("compat", "O6", "a", "b"),
    ("compat", "O6", "a", "b'"),
    ("compat", "MO2xB2", "(a,1)", "(b,0)"),
    ("compat", "ten.lat", "e1", "e0"),
    ("compat", "ten.lat", "e1", "e2"),
    ("compat", "ten.lat", "e3", "e5"),
    ("compat", "mo2xb2.lat", "(a,0)", "(a',1)"),
    ("compat", "mo3xb4.lat", "(a,p)", "(b,q)"),
    ("compat", "mo3xb4.lat", "(c,1)", "(c',p)"),
    ("compat", "o6xmo2.lat", "(a,b)", "(b,b')"),
    ("compat", "b8xmo2.lat", "(pq,a)", "(r,1)"),
    ("compat", "b8xmo2.lat", "(p,a)", "(q,b)"),
    ("compat", "mo2xb2.lat", "(a,0)", "nowhere"),
    ("quantum", "--preset", "qubit-zx"),
    ("quantum", "--preset", "qubit-z"),
    ("quantum", "--preset", "qutrit-commuting"),
    *(("quantum", "--generators", name) for name in QUANTUM_GENERATORS),
    *(
        ("detect", "--rounds", "4099", "--seed", seed, "--fraction", fraction)
        for seed in ("0", "7")
        for fraction in ("0", "0.5", "1")
    ),
]


def command_id(argv):
    return " ".join(argv)


def report_digest(argv):
    """sha256 of the report ``argv`` prints in the current directory, timing blanked."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(list(argv))
    text = re.sub(r'("timing_seconds": |timing: )[-+.e0-9]+', r"\1", out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def write_documents(directory):
    for name, text in DOCUMENTS.items():
        Path(directory, name).write_text(text)


@pytest.mark.parametrize("argv", COMMANDS, ids=command_id)
def test_report_bytes_match_the_pinned_digest(tmp_path, monkeypatch, argv):
    write_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(DIGESTS.read_text())
    assert report_digest(argv) == pinned[command_id(argv)], command_id(argv)


def test_every_pinned_command_is_run():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(command_id, COMMANDS))


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        write_documents(workdir)
        os.chdir(workdir)
        digests = {command_id(argv): report_digest(argv) for argv in COMMANDS}
        os.chdir(home)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
