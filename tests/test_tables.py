"""The pure-Python table checks against the numpy checks they replaced
(`conftest.reference_*`): the same first error message, or none, on
malformed realizations, in documents and in memory."""
import copy
import json
import math
import pathlib
import random

import numpy as np

from conftest import reference_document_error, reference_validated_error, serialize_document
from pidcheck.cli import parse_document, realization_from_raw
from pidcheck.generate import random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.oracle import CPT_ROW_TOL, InvalidRealization, Realization, random_realization

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _base_documents() -> list:
    """(diagram, realization tables) for the fixtures with a realization
    and for random draws with a random realization."""
    out = []
    for path in sorted(FIXTURES.glob("*.pid")):
        raw = json.loads(path.read_text())
        if "realization" in raw:
            out.append((parse_document(path.read_text())[0], raw["realization"]))
    for seed in range(12):
        d = random_pid(np.random.default_rng(70_000 + seed), max_carrier=6, n_values=2)
        doc = json.loads(serialize_document(d, random_realization(d, seed)))
        out.append((d, doc["realization"]))
    return out


JUNK = [True, False, "0.5", None, [0.5], {"a": 1}, math.nan, math.inf, -math.inf,
        0, 1, 2, -1, 2**53 + 1, 10**400, -(10**400),
        math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), -0.0, 1.0, 0.0, 1 + 1e-12, -1e-300]


def _edit(rng: random.Random, d, raw: dict) -> None:
    """One random edit of a realization's tables, in place."""
    key = rng.choice(["cpts", "utilities"])
    tables = raw.setdefault(key, {})
    kind = rng.choice(["entry", "entry", "entry", "count", "count", "delete", "extra", "table", "map"])
    if kind == "map":
        raw[key] = rng.choice([None, [], "x", 1])
        return
    if not isinstance(tables, dict):
        return
    if kind == "extra":
        tables[rng.choice([n.id for n in d.nodes] + ["nowhere"])] = [0.5, 0.5]
        return
    if not tables:
        return
    name = rng.choice(sorted(tables))
    flat = tables[name]
    if kind == "delete":
        del tables[name]
    elif kind == "table":
        tables[name] = rng.choice([None, 0.5, "abc", {"x": 0.5}, [[0.5, 0.5]], []])
    elif not isinstance(flat, list):
        return
    elif kind == "count":
        if flat and rng.random() < 0.5:
            del flat[rng.randrange(len(flat))]
        else:
            flat.insert(rng.randrange(len(flat) + 1), rng.choice([0.0, 0.5, 1.0]))
    elif flat:
        flat[rng.randrange(len(flat))] = copy.deepcopy(rng.choice(JUNK))


def _malformed_corpus():
    rng = random.Random(20_240_811)
    documents = _base_documents()
    for d, raw in documents:
        yield d, copy.deepcopy(raw)
        for _ in range(60):
            edited = copy.deepcopy(raw)
            for _ in range(rng.choice([1, 1, 2, 3])):
                _edit(rng, d, edited)
            yield d, edited
    for raw in ([1, 2], None, "realization"):
        yield documents[0][0], raw


def _error(fn, *args) -> str | None:
    try:
        fn(*args)
    except InvalidRealization as exc:
        return str(exc)
    return None


def test_documents_match_reference():
    messages, overflows = [], 0
    for d, raw in _malformed_corpus():
        raw = json.loads(json.dumps(raw))  # what a document holds
        try:
            want = reference_document_error(d, raw)
        except OverflowError:
            # numpy ended in a traceback; the check names the entry.
            assert "too large for a float" in _error(realization_from_raw, d, raw)
            overflows += 1
            continue
        assert _error(realization_from_raw, d, raw) == want, raw
        messages.append(want)
    assert overflows and None in messages
    for fragment in ("not a flat list of numbers", "non-finite", "entries, expected", "outside [0, 1]",
                     "do not sum to 1", "missing CPT", "missing utility", "must be an object",
                     "given for non-"):
        assert any(m and fragment in m for m in messages), fragment


def _row_near(rng: random.Random, n: int, target: float) -> list[float]:
    """A row of ``n`` entries whose numpy sum is within a few ulp of
    ``target``."""
    row = [rng.uniform(0.5, 1.0) for _ in range(n)]
    total = math.fsum(row)
    row = [x / total for x in row]
    for _ in range(4):
        row[-1] += target - float(np.sum(np.array(row)))
    return row


def _one_cpt_diagram(n: int):
    states = tuple(f"s{i}" for i in range(n))
    return validate_nodes([
        Node("P", Kind.CHANCE, ("p1", "p2"), ()),
        Node("A", Kind.CHANCE, states, ("P",)),
        Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
        Node("U", Kind.VALUE, None, ("A", "D")),
    ])


def test_row_sums_at_the_tolerance_match_reference():
    rng = random.Random(7)
    verdicts = {}
    for n in list(range(1, 40)) + list(range(120, 140)) + [255, 256, 257, 299, 300]:
        d = _one_cpt_diagram(n)
        for sign in (1, -1):
            for k in range(-3, 4):
                target = 1.0 + sign * CPT_ROW_TOL + k * math.ulp(1.0)
                rows = [_row_near(rng, n, target), _row_near(rng, n, 1.0)]
                rng.shuffle(rows)
                raw = {
                    "cpts": {"P": [0.5, 0.5], "A": rows[0] + rows[1]},
                    "utilities": {"U": [0.0] * (2 * n)},
                }
                want = reference_document_error(d, raw)
                assert _error(realization_from_raw, d, raw) == want, (n, target)
                cpts = {"P": np.array([0.5, 0.5]), "A": np.array(rows)}
                utilities = {"U": np.zeros((n, 2))}
                assert _error(Realization(cpts, utilities).validated, d) == want, (n, target)
                verdicts[want] = verdicts.get(want, 0) + 1
    # Both sides of the boundary are reached, beyond the one-entry rows
    # that fail the range check instead.
    assert verdicts.get(None, 0) > 100
    assert verdicts.get("CPT rows for 'A' do not sum to 1", 0) > 100


def test_in_memory_tables_match_reference():
    rng = random.Random(11)
    for d, raw in _base_documents():
        for _ in range(30):
            cpts = {c: np.array(t, dtype=float) for c, t in raw["cpts"].items()}
            utilities = {v: np.array(t, dtype=float) for v, t in raw["utilities"].items()}
            for c in cpts:
                shape = tuple(len(d.states(p)) for p in d.parents(c)) + (len(d.states(c)),)
                cpts[c] = cpts[c].reshape(shape)
            for v in utilities:
                utilities[v] = utilities[v].reshape(tuple(len(d.states(p)) for p in d.parents(v)))
            tables = rng.choice([cpts, utilities])
            if tables:
                name = rng.choice(sorted(tables))
                edit = rng.choice(["delete", "flatten", "entry", "entry"])
                if edit == "delete":
                    del tables[name]
                elif edit == "flatten":
                    tables[name] = tables[name].reshape(-1)
                elif tables[name].size:
                    tables[name].reshape(-1)[rng.randrange(tables[name].size)] = rng.choice(
                        [math.nan, math.inf, -1e-300, math.nextafter(1.0, 2.0), 0.0, 1.0, 0.25]
                    )
            want = reference_validated_error(d, cpts, utilities)
            assert _error(Realization(cpts, utilities).validated, d) == want


def test_random_realizations_validate():
    for seed in range(200):
        d = random_pid(np.random.default_rng(80_000 + seed), max_carrier=7, n_values=2)
        r = random_realization(d, seed)  # validates
        assert reference_validated_error(d, r.cpts, r.utilities) is None
