"""Golden CLI bytes: every subcommand, in text and ``--json``, on a fixed
corpus of documents, hashed to one digest per document.  A change that
keeps what the CLI prints and returns keeps every digest.  A change that
alters the output on purpose records the new digests with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json

The corpus is the fixtures, plain, shared, mixed and coupled W(2..3), and
40 ``random_pid`` draws.  The W(k) documents and the draws carry a random
realization, so ``solve`` has tables to read.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys

import numpy as np

from pidcheck.cli import main, parse_document
from pidcheck.generate import random_pid
from pidcheck.oracle import random_realization

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))  # conftest, when run as a script
from conftest import serialize_document, w_family  # noqa: E402

GOLDEN = HERE / "golden_cli.json"
FIXTURES = HERE.parent / "fixtures"


def corpus() -> dict[str, str]:
    """Document name -> document text."""
    docs = {p.stem: p.read_text() for p in sorted(FIXTURES.glob("*.pid"))}
    for k in (2, 3):
        for variant in (False, True, "mixed", "coupled"):
            d = w_family(k, shared=variant)
            name = f"w{k}-" + {False: "plain", True: "shared"}.get(variant, variant)
            docs[name] = serialize_document(d, random_realization(d, k))
    for seed in range(40):
        d = random_pid(np.random.default_rng(seed))
        docs[f"draw{seed}"] = serialize_document(d, random_realization(d, seed))
    return docs


def invocations(text: str) -> list[list[str]]:
    """The argument lists run on one document, without file and --json."""
    d, _ = parse_document(text)
    argvs = [
        ["validate"], ["order"], ["schemas"], ["check"], ["suggest"],
        ["solve"], ["solve", "--schema", "1"], ["fuzz", "--trials", "2", "--seed", "1"],
        ["export-dot"], ["export-dot", "--annotate"],
    ]
    for dec in d.decision_ids:
        argvs += [
            ["relevant", "-d", dec], ["required", "-d", dec],
            ["required", "-d", dec, "--schema", "1"], ["baselines", "-d", dec],
        ]
        argvs += [["significant", "-a", a, "-d", dec] for a in d.chance_ids]
    return argvs


def digest(name: str, text: str) -> str:
    """The SHA-256 over every invocation's arguments, exit code, stdout and
    stderr.  The document is read from ``<name>.pid`` in the working
    directory, so the file name the CLI echoes is the same everywhere."""
    path = f"{name}.pid"
    pathlib.Path(path).write_text(text)
    h = hashlib.sha256()
    for argv in invocations(text):
        for flags in ([], ["--json"]):
            full = [argv[0], path, *argv[1:], *flags]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(full)
            h.update(json.dumps([full, code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def test_cli_bytes_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    got = {name: digest(name, text) for name, text in corpus().items()}
    assert sorted(got) == sorted(expected)
    assert [name for name in got if got[name] != expected[name]] == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        print(json.dumps({name: digest(name, text) for name, text in corpus().items()}, indent=1))
