import contextlib
import copy
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import conftest
from conftest import fingerprint, reference_fuzz, serialize_document, w_family, with_arcs
from pidcheck import analysis, cli, figures, oracle, ordering
from pidcheck.cli import export_dot, main, parse_document
from pidcheck.generate import random_pid
from pidcheck.model import Kind, Node, validate_nodes

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


# Every subcommand with a JSON form, with the options fig6 needs.
SUBCOMMANDS = [
    ("validate",),
    ("order",),
    ("schemas",),
    ("check",),
    ("relevant", "-d", "D"),
    ("required", "-d", "D"),
    ("significant", "-a", "A", "-d", "D"),
    ("solve",),
    ("suggest",),
    ("fuzz", "--trials", "1"),
    ("baselines", "-d", "D"),
]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["command"] == argv[0]
    return code, payload


class TestDocumentFormat:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_round_trip_on_corpus(self, path):
        text = path.read_text()
        d1, r1 = parse_document(text, source=str(path))
        again = serialize_document(d1, r1 and r1.realization())
        d2, r2 = parse_document(again)
        assert d1 == d2
        if r1 is None:
            assert r2 is None
        else:
            assert fingerprint(r1.realization()) == fingerprint(r2.realization())

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixture_matches_its_builder(self, path):
        # Each file is in the layout `serialize_document` writes of what
        # `figures` loads from it, and fig4_psi2 is fig4 with U replaced.
        if path.stem == "fig4_psi2":
            d, r = figures.fig4(), figures.fig4_realization((3.0, 0.0))
        else:
            d = figures.ALL_FIGURES[path.stem]()
            maker = figures.FIGURE_REALIZATIONS.get(path.stem)
            r = maker() if maker is not None else None
        assert path.read_text() == serialize_document(d, r)

    def test_derived_fixtures_edit_the_arcs_of_their_base(self):
        def without_arc(d, tail, head):
            return validate_nodes([
                Node(n.id, n.kind, n.states, tuple(p for p in n.parents if (p, n.id) != (tail, head)))
                for n in d.nodes
            ])

        assert figures.fig4_derived() == without_arc(figures.fig4(), "D1", "D2")
        assert figures.fig8_modified() == without_arc(with_arcs(figures.fig8(), [("A", "D")]), "D4", "U")

    def test_realization_length_mismatch_reported(self, tmp_path, capsys):
        doc = json.loads(serialize_document(figures.fig3(), figures.fig3_realization()))
        doc["realization"]["cpts"]["A"] = [0.5, 0.5]
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", bad)
        assert code == 1
        assert "cpt for 'A'" in err


def _recorder(fn, calls: list):
    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return recorded


def _fig4_doc_with(realization_edit) -> dict:
    doc = json.loads(serialize_document(figures.fig4(), figures.fig4_realization()))
    realization_edit(doc)
    return doc


class TestMalformedRealization:
    """Bad realization tables are rejected when the document is parsed, with
    an error line and exit 1 instead of a traceback."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["realization"]["utilities"]["U"].__setitem__(0, float("inf")), "non-finite"),
            (lambda doc: doc["realization"]["utilities"]["U"].__setitem__(0, float("nan")), "non-finite"),
            (lambda doc: doc["realization"]["utilities"]["U"].__setitem__(0, "abc"), "not a flat list of numbers"),
            (lambda doc: doc["realization"]["cpts"].__setitem__("C", {"s1": 0.5}), "not a flat list of numbers"),
            (lambda doc: doc.__setitem__("realization", [1, 2]), "realization must be an object"),
            (lambda doc: doc["realization"]["utilities"]["U"].__setitem__(0, 10**400), "too large for a float"),
        ],
        ids=["infinity", "nan", "non-numeric", "dict-table", "realization-not-object", "oversized-integer"],
    )
    def test_rejected_at_parse(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps(_fig4_doc_with(edit)))
        for command in ("validate", "solve"):
            code, out, err = run(capsys, command, bad)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {bad}: ") and message in err, err
            assert err.count("\n") == 1

    def test_overflow_in_solve_is_an_error(self, tmp_path, capsys):
        def huge(doc):
            for table in doc["realization"]["utilities"].values():
                table[:] = [1e308] * len(table)

        bad = tmp_path / "huge.pid"
        bad.write_text(json.dumps(_fig4_doc_with(huge)))
        # A warning would reach stderr ahead of the error line in a real run.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "solve", bad)
        assert [str(w.message) for w in caught] == []
        assert code == 1 and out == ""
        assert err == "error: evaluation failure: non-finite table entries\n"


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out, _ = run(capsys, "validate", FIXTURES / "fig1.pid")
        assert code == 0 and "valid" in out

    def test_validate_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.pid"
        empty.write_text("")
        code, _, err = run(capsys, "validate", empty)
        assert code == 1
        assert "parse error" in err and "empty.pid:1" in err

    def test_deeply_nested_document(self, tmp_path, capsys):
        deep = tmp_path / "deep.pid"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        for command in ("validate", "check"):
            code, out, err = run(capsys, command, deep)
            assert code == 1 and out == ""
            assert err == f"error: {deep}: parse error: nested too deeply\n"

    def test_validation_failure_names_file_and_node(self, tmp_path, capsys):
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps({"nodes": [
            {"id": "A", "kind": "chance", "states": [], "parents": []}]}))
        code, _, err = run(capsys, "validate", bad)
        assert code == 1
        assert "bad.pid" in err and "'A'" in err

    def test_duplicate_state_label_rejected(self, tmp_path, capsys):
        bad = tmp_path / "dup.pid"
        bad.write_text(json.dumps({"nodes": [
            {"id": "A", "kind": "chance", "states": ["a", "a"], "parents": []},
            {"id": "D", "kind": "decision", "states": ["d1", "d2"], "parents": ["A"]},
            {"id": "U", "kind": "value", "parents": ["A", "D"]}]}))
        for command in ("validate", "check", "solve"):
            code, out, err = run(capsys, command, bad)
            assert code == 1 and out == ""
            assert err == f"error: {bad}: duplicate state label on node 'A'\n"

    def test_document_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "utf16.pid"
        bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        for command in ("validate", "check", "order"):
            code, out, err = run(capsys, command, bad)
            assert code == 1 and out == ""
            assert err == f"error: {bad}: parse error: not UTF-8 text (invalid start byte at byte 0)\n"

    @pytest.mark.parametrize(
        "nodes, violation",
        [
            ([{"id": "A\ud800", "kind": "chance", "states": ["a1", "a2"]}], "node #0 has no usable id"),
            ([{"id": "A", "kind": "chance", "states": ["a1", "\udc80"]}], "malformed state list on node 'A'"),
            ([{"id": "A", "kind": "chance", "states": ["a1", "a2"]},
              {"id": "B", "kind": "chance", "states": ["b1", "b2"], "parents": ["A\ud800"]}],
             "malformed parent list on node 'B'"),
        ],
        ids=["id", "state", "parent"],
    )
    def test_lone_surrogate_rejected(self, tmp_path, capsys, nodes, violation):
        # JSON can spell a lone surrogate, which no output stream can write.
        bad = tmp_path / "surrogate.pid"
        bad.write_text(json.dumps({"nodes": nodes}))
        for command in ("validate", "order", "check"):
            code, out, err = run(capsys, command, bad)
            assert code == 1 and out == ""
            assert err == f"error: {bad}: {violation}\n"

    def test_check_welldefined_exits_zero(self, capsys):
        for name in ["fig1", "fig2", "fig3", "fig4", "fig5"]:
            code, _, _ = run(capsys, "check", FIXTURES / f"{name}.pid")
            assert code == 0, name

    def test_check_ambiguous_exits_two(self, capsys):
        for name in ["fig6", "fig7", "fig8", "two_witness"]:
            code, _, _ = run(capsys, "check", FIXTURES / f"{name}.pid")
            assert code == 2, name

    def test_unknown_decision_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "required", FIXTURES / "fig2.pid", "-d", "nope")
        assert code == 1 and "no decision node" in err


class TestValueNodeWithChild:
    """A value node has no children, so a document with an arc out of one
    ends every subcommand in exit 1 at validation."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_every_subcommand_exits_one(self, tmp_path, capsys, path):
        doc = json.loads(path.read_text())
        ids = [n["id"] for n in doc["nodes"]]
        values = [n["id"] for n in doc["nodes"] if n["kind"] == "value"]
        assert values
        for v in values:
            for i, head in enumerate(ids):
                if head == v:
                    continue
                mutated = copy.deepcopy(doc)
                mutated["nodes"][i]["parents"].append(v)
                f = tmp_path / f"{v}-{head}.pid"
                f.write_text(json.dumps(mutated))
                for argv in SUBCOMMANDS + [("export-dot",), ("export-dot", "--annotate")]:
                    for json_flag in ((), ("--json",)):
                        code, out, err = run(capsys, argv[0], f, *argv[1:], *json_flag)
                        assert code == 1, (v, head, argv)
                        assert err.startswith("error: "), (v, head, argv)
                        assert f"value node with child: arc ({v!r}, {head!r})" in err


class TestSubcommandOutputs:
    def test_order_fig1_lists_caption_pairs(self, capsys):
        code, payload = run_json(capsys, "order", FIXTURES / "fig1.pid")
        assert code == 0
        assert payload["precedes"]["B"][0] == "D1"
        got = {tuple(p) for p in payload["incompatible"]}
        assert got == {("F", "D4"), ("D2", "D3"), ("D2", "D4"), ("D3", "D4")}

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_order_lists_the_pairs_once(self, monkeypatch, capsys, json_flag):
        calls = []
        listing = ordering.PartialOrder.incompatible_pairs

        def counted(self, **kwargs):
            calls.append(kwargs)
            return listing(self, **kwargs)

        monkeypatch.setattr(ordering.PartialOrder, "incompatible_pairs", counted)
        code, _, _ = run(capsys, "order", FIXTURES / "fig1.pid", *json_flag)
        # only the JSON output prints the chance-chance pairs
        assert code == 0 and calls == [{"with_decision_only": not json_flag}]

    def test_schemas_limit(self, capsys):
        code, payload = run_json(capsys, "schemas", FIXTURES / "fig1.pid", "--limit", "3")
        assert code == 0 and len(payload["schemas"]) == 3

    def test_schemas_limit_zero_lists_nothing(self, capsys):
        assert run(capsys, "schemas", FIXTURES / "fig1.pid", "--limit", "0") == (0, "", "")
        code, payload = run_json(capsys, "schemas", FIXTURES / "fig1.pid", "--limit", "0")
        assert code == 0 and payload["schemas"] == []

    def test_required_fig2_excludes_b(self, capsys):
        code, payload = run_json(capsys, "required", FIXTURES / "fig2.pid", "-d", "D1")
        assert code == 0 and payload["required"] == []

    def test_relevant_fig4(self, capsys):
        code, payload = run_json(capsys, "relevant", FIXTURES / "fig4.pid", "-d", "D1")
        assert code == 0 and payload["relevant"] == ["U", "Up"]

    def test_significant_fig6(self, capsys):
        code, payload = run_json(capsys, "significant", FIXTURES / "fig6.pid", "-a", "A", "-d", "D")
        assert code == 0 and payload["significant"] is True
        assert payload["witness"]["utility"] == "U1"

    def test_significant_is_exact(self, tmp_path, capsys):
        # The first schema of each distinct past of D0 misses this witness.
        d = random_pid(np.random.default_rng(153), max_carrier=8, max_decisions=4)
        path = tmp_path / "draw153.pid"
        path.write_text(serialize_document(d))
        code, payload = run_json(capsys, "significant", path, "-a", "X3", "-d", "D0")
        assert code == 0 and payload["significant"] is True
        code, payload = run_json(capsys, "check", path)
        assert code == 2 and ["X3", "D0"] in [[w["chance"], w["decision"]] for w in payload["witnesses"]]

    def test_significant_rejects_compatible_pair(self, capsys):
        code, _, err = run(capsys, "significant", FIXTURES / "fig2.pid", "-a", "B", "-d", "D1")
        assert code == 1 and "pair not incompatible" in err

    def test_solve_fig4_reports_strategy_and_meu(self, capsys):
        code, payload = run_json(capsys, "solve", FIXTURES / "fig4.pid")
        assert code == 0
        assert payload["meu"] == pytest.approx(12.5)
        assert payload["rules"]["D1"][0]["max"] == ["d1"]

    def test_solve_over_table_limit_is_an_error(self, tmp_path, capsys):
        # The decision rule over 25 binary observations has 2^26 cells.
        observed = [f"X{i}" for i in range(25)]
        doc = {
            "nodes": [{"id": x, "kind": "chance", "states": ["a", "b"], "parents": []} for x in observed]
            + [
                {"id": "D", "kind": "decision", "states": ["d1", "d2"], "parents": observed},
                {"id": "U", "kind": "value", "parents": ["D"]},
            ],
            "realization": {"cpts": {x: [0.5, 0.5] for x in observed}, "utilities": {"U": [0.0, 1.0]}},
        }
        big = tmp_path / "big.pid"
        big.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", big)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit of 16777216 cells" in err

    def test_suggest_over_recheck_limit_is_an_error(self, tmp_path, capsys, monkeypatch):
        # suggest on W(3)-shared runs 158 rechecks.
        path = tmp_path / "w3_shared.pid"
        path.write_text(serialize_document(w_family(3, shared=True)))
        monkeypatch.setattr(analysis, "MAX_RECHECKS", 158)
        code, payload = run_json(capsys, "suggest", path)
        assert code == 0 and len(payload["proposals"]) == 152
        monkeypatch.setattr(analysis, "MAX_RECHECKS", 157)
        code, out, err = run(capsys, "suggest", path)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit of 157 rechecks" in err

    def test_check_over_scan_state_limit_is_an_error(self, tmp_path, capsys, monkeypatch):
        # The significance pass on coupled W(3), one bare component, visits
        # 20 states.
        path = tmp_path / "w3_coupled.pid"
        path.write_text(serialize_document(w_family(3, shared="coupled")))
        monkeypatch.setattr(analysis, "MAX_SCAN_STATES", 20)
        code, payload = run_json(capsys, "check", path)
        assert code == 0 and payload["welldefined"] is True
        monkeypatch.setattr(analysis, "MAX_SCAN_STATES", 19)
        for command in ("check", "suggest"):
            code, out, err = run(capsys, command, path)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "limit of 19 states" in err

    @pytest.mark.parametrize(
        "argv, inductions",
        [
            (["fuzz", "fig1.pid", "--trials", "1"], 1),
            (["relevant", "fig1.pid", "-d", "D1", "--schema", "1"], 1),
            (["required", "fig1.pid", "-d", "D1", "--schema", "1"], 1),
            (["baselines", "fig2.pid", "-d", "D1"], 1),
        ],
        ids=["fuzz", "relevant", "required", "baselines"],
    )
    def test_partial_order_induced_once(self, monkeypatch, capsys, argv, inductions):
        calls = []
        induce = ordering.induce_partial_order

        def counted(*args, **kwargs):
            calls.append(args)
            return induce(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("pidcheck") and getattr(module, "induce_partial_order", None) is induce:
                monkeypatch.setattr(module, "induce_partial_order", counted)
        code, _, _ = run(capsys, argv[0], FIXTURES / argv[1], *argv[2:])
        assert code == 0
        assert len(calls) == inductions

    def test_solve_needs_realization(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES / "fig1.pid")
        assert code == 1 and "no realization" in err

    def test_solve_with_schema_index(self, capsys):
        code, payload = run_json(capsys, "solve", FIXTURES / "fig6.pid", "--schema", "1")
        assert code == 0
        assert payload["schema"]["order"] == ["D", "A", "D2"]

    def test_schema_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "solve", FIXTURES / "fig6.pid", "--schema", "99")
        assert code == 1 and "out of range" in err

    def test_suggest_fig6(self, capsys):
        code, payload = run_json(capsys, "suggest", FIXTURES / "fig6.pid")
        assert code == 0
        fixing = [p for p in payload["proposals"] if p["welldefined"]]
        assert fixing and all(len(p["constraints"]) == 1 for p in fixing[:2])

    def test_suggest_on_welldefined_input(self, capsys):
        code, payload = run_json(capsys, "suggest", FIXTURES / "fig2.pid")
        assert code == 0 and payload["proposals"] == []

    def test_fuzz_smoke(self, capsys):
        code, payload = run_json(capsys, "fuzz", FIXTURES / "fig6.pid", "--trials", "3")
        assert code == 0 and payload["ok"] is True

    def test_fuzz_validates_each_realization_once(self, capsys, monkeypatch):
        checks, solves = [], []
        monkeypatch.setattr(oracle, "check_tables", _recorder(oracle.check_tables, checks))
        monkeypatch.setattr(cli, "solve_schemas", _recorder(cli.solve_schemas, solves))
        assert run(capsys, "fuzz", FIXTURES / "fig1.pid", "--trials", "50")[0] == 0
        assert run(capsys, "fuzz", FIXTURES / "fig8.pid", "--trials", "2")[0] == 0
        # one call per batch, over every schema: 8 for fig1, 300 for fig8
        assert [(len(realizations), len(schemas)) for _, realizations, schemas in solves] == [(50, 8), (2, 300)]
        assert len(checks) == 52  # one per trial

    def test_solve_checks_the_tables_once(self, capsys, monkeypatch):
        checks = []
        monkeypatch.setattr(oracle, "check_tables", _recorder(oracle.check_tables, checks))
        monkeypatch.setattr(cli, "check_tables", _recorder(cli.check_tables, checks))
        assert run(capsys, "solve", FIXTURES / "fig4.pid")[0] == 0
        assert len(checks) == 1  # when the document is read
        d, tables = cli.load_file(str(FIXTURES / "fig4.pid"))
        assert len(checks) == 2
        realization = tables.realization()
        assert realization.validated(d) is realization
        assert len(checks) == 2
        # tables from elsewhere are still checked, once per diagram
        other = oracle.Realization(realization.cpts, realization.utilities)
        other.validated(d)
        other.validated(d)
        assert len(checks) == 3

    def test_suggest_analyses_the_diagram_once(self, capsys, monkeypatch):
        analyses, closures = [], []
        monkeypatch.setattr(analysis.Analysis, "__init__", _recorder(analysis.Analysis.__init__, analyses))
        monkeypatch.setattr(analysis, "base_closure", _recorder(analysis.base_closure, closures))
        code, payload = run_json(capsys, "suggest", FIXTURES / "fig8.pid")
        assert code == 0 and payload["proposals"]
        assert len(analyses) == len(closures) == 1

    def test_long_chain(self, tmp_path, capsys):
        # A 3,000-node chance chain whose nodes all come after the one
        # decision validates and checks.
        nodes = [{"id": "C0", "kind": "chance", "states": ["a", "b"], "parents": []}]
        nodes += [
            {"id": f"C{i}", "kind": "chance", "states": ["a", "b"], "parents": [f"C{i - 1}"]}
            for i in range(1, 3000)
        ]
        nodes.append({"id": "D", "kind": "decision", "states": ["a", "b"], "parents": ["C2999"]})
        nodes.append({"id": "U", "kind": "value", "parents": ["C0", "D"]})
        path = tmp_path / "chain.pid"
        path.write_text(json.dumps({"nodes": nodes}))
        assert run(capsys, "validate", path)[0] == 0
        assert run(capsys, "check", path)[0] == 0

    def test_long_chain_of_decisions(self, tmp_path, capsys):
        # Each decision observes the one before it.
        nodes = [
            {"id": f"D{i}", "kind": "decision", "states": ["a", "b"], "parents": [f"D{i - 1}"] if i else []}
            for i in range(1200)
        ]
        nodes.append({"id": "U", "kind": "value", "parents": ["D1199"]})
        path = tmp_path / "decisions.pid"
        path.write_text(json.dumps({"nodes": nodes}))
        for argv in (["check"], ["schemas"], ["relevant", "-d", "D0"], ["required", "-d", "D1199"], ["suggest"]):
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert code == 0 and err == "", argv
        assert out.endswith("already welldefined; nothing to suggest\n")

    def test_baselines_fig2(self, capsys):
        code, payload = run_json(capsys, "baselines", FIXTURES / "fig2.pid", "-d", "D1")
        assert code == 0
        assert payload["required"] == []
        assert "B" in payload["bayes_ball"]
        assert "B" in payload["elimination_neighbors"]

    def test_check_fig1_lists_incompatible_pairs(self, capsys):
        code, payload = run_json(capsys, "check", FIXTURES / "fig1.pid")
        assert code == 0 and payload["welldefined"] is True
        got = {tuple(p) for p in payload["incompatible"]}
        assert got == {("F", "D4"), ("D2", "D3"), ("D2", "D4"), ("D3", "D4")}

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
    def test_json_shape_on_every_subcommand(self, capsys, argv):
        code, payload = run_json(capsys, argv[0], FIXTURES / "fig6.pid", *argv[1:])
        assert code in (0, 2)
        assert isinstance(payload, dict)


class TestFuzzAgainstReference:
    """`fuzz` solves a batch of trials per schema.  Its output equals that of
    `reference_fuzz`, one lone solve per (trial, schema), also when checks
    fail and when the trials span several batches."""

    def assert_matches_reference(self, capsys, path, trials, seed):
        d, _ = cli.load_file(str(path))
        want_code, want_text, want_payload = reference_fuzz(d, trials, seed)
        argv = ("fuzz", path, "--trials", trials, "--seed", seed)
        assert run(capsys, *argv) == (want_code, want_text, "")
        code, payload = run_json(capsys, *argv)
        assert code == want_code
        assert {k: payload[k] for k in want_payload} == want_payload
        return want_payload["failures"]

    def assert_error_matches_reference(self, capsys, path, trials, seed):
        d, _ = cli.load_file(str(path))
        with pytest.raises(oracle.EvaluationError) as exc:
            reference_fuzz(d, trials, seed)
        argv = ("fuzz", path, "--trials", trials, "--seed", seed)
        want = (1, "", f"error: {exc.value}\n")
        assert run(capsys, *argv) == want
        assert run(capsys, *argv, "--json") == want
        return str(exc.value)

    @pytest.fixture
    def no_required(self, monkeypatch):
        monkeypatch.setattr(analysis.Analysis, "required_variables", lambda self, schema, dec: frozenset())
        monkeypatch.setattr(
            analysis.Analysis, "required_sets", lambda self, schema: dict.fromkeys(schema.decision_sequence, frozenset())
        )

    @pytest.fixture
    def some_differ(self, monkeypatch):
        """`rules_differ` that calls some comparable rules different, by the
        other rule's values in each trial, so the verdict varies with trial
        and schema.  It is the one comparator: `fuzz` calls it over a batch,
        and `strategies_equal`, which `reference_fuzz` calls, on one trial."""
        real = oracle.rules_differ

        def compare(rule, other, tol=oracle.DEFAULT_TIE_TOL):
            differ = real(rule, other, tol)
            if differ is None:
                return None
            return differ | np.array([int(values.sum()) % 3 == 0 for values in other.values])

        monkeypatch.setattr(oracle, "rules_differ", compare)
        monkeypatch.setattr(cli, "rules_differ", compare)

    @pytest.mark.parametrize("trials", [0, 1, 7])
    def test_required_failures(self, capsys, no_required, trials):
        failures = self.assert_matches_reference(capsys, FIXTURES / "fig1.pid", trials, 3)
        assert bool(failures) == (trials > 0)

    @pytest.mark.parametrize("trials", [0, 1, 7])
    def test_strategies_differ(self, capsys, some_differ, trials):
        failures = self.assert_matches_reference(capsys, FIXTURES / "fig1.pid", trials, 5)
        assert bool(failures) == (trials > 0)

    @pytest.mark.parametrize("limit, per_batch", [("MAX_TABLE_CELLS", 1), ("MAX_TABLE_CELLS", 3), ("MAX_BATCH", 3)])
    def test_batch_boundaries(self, capsys, monkeypatch, no_required, some_differ, limit, per_batch):
        d, _ = cli.load_file(str(FIXTURES / "fig1.pid"))
        cells = math.prod(len(d.states(v)) for v in d.carrier_ids) if limit == "MAX_TABLE_CELLS" else 1
        monkeypatch.setattr(oracle, limit, per_batch * cells)
        solves = []
        monkeypatch.setattr(cli, "solve_schemas", _recorder(cli.solve_schemas, solves))
        failures = self.assert_matches_reference(capsys, FIXTURES / "fig1.pid", 7, 1)
        assert any("differ" in f for f in failures) and any("oracle_required" in f for f in failures)
        sizes = [len(realizations) for _, realizations, _ in solves]
        batches = [min(per_batch, 7 - start) for start in range(0, 7, per_batch)]
        assert sizes == batches * 2


    def test_many_schemas_in_small_batches(self, capsys, monkeypatch, tmp_path, no_required, some_differ):
        d = random_pid(np.random.default_rng(124), max_carrier=8, max_decisions=4)  # welldefined, 41 schemas
        path = tmp_path / "draw.pid"
        path.write_text(serialize_document(d))
        monkeypatch.setattr(oracle, "MAX_BATCH", 3)
        failures = self.assert_matches_reference(capsys, path, 7, 4)
        assert any("differ" in f for f in failures) and any("oracle_required" in f for f in failures)

    def test_failures_in_schema_order(self, capsys, monkeypatch, no_required):
        """fig8's 300 schemas are visited schema 0 first, then by reversed
        order, and the failures still come out in schema order."""
        d, _ = cli.load_file(str(FIXTURES / "fig8.pid"))
        schemas = list(ordering.enumerate_schemas(d))
        solves = []
        monkeypatch.setattr(cli, "solve_schemas", _recorder(cli.solve_schemas, solves))
        failures = self.assert_matches_reference(capsys, FIXTURES / "fig8.pid", 2, 0)
        visited = solves[0][2]
        assert visited[0] == schemas[0] and visited != schemas and sorted(visited, key=schemas.index) == schemas
        assert len(set(failures)) > 1

    def test_table_limit_without_decisions(self, capsys, monkeypatch, tmp_path):
        """A schema without decisions is eliminated in full, so a chance
        step over the table limit still fails."""
        d = validate_nodes([
            Node("A", Kind.CHANCE, ("a0", "a1"), ()),
            Node("B", Kind.CHANCE, ("b0", "b1", "b2"), ("A",)),
            Node("C", Kind.CHANCE, ("c0", "c1"), ("A", "B")),
            Node("U", Kind.VALUE, None, ("C",)),
        ])
        path = tmp_path / "chance.pid"
        path.write_text(serialize_document(d))
        monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 8)
        assert "needs 12 cells" in self.assert_error_matches_reference(capsys, path, 3, 0)

    def test_table_limit_mid_list(self, capsys, monkeypatch):
        """Every admissible schema has the same largest table, so a schema
        that puts every chance node first is inserted mid-list: only it
        needs more than 128 cells."""
        enumerate_schemas = ordering.enumerate_schemas

        def with_wide(d, po=None):
            schemas = list(enumerate_schemas(d, po))
            first = schemas[0]
            wide = ordering.OrderSchema(first.decision_sequence, tuple((c, 0) for c, _ in first.slots))
            return iter(schemas[:150] + [wide] + schemas[150:])

        monkeypatch.setattr(cli, "enumerate_schemas", with_wide)
        monkeypatch.setattr(conftest, "enumerate_schemas", with_wide)
        monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 128)
        assert "needs 256 cells" in self.assert_error_matches_reference(capsys, FIXTURES / "fig8.pid", 3, 0)

    def test_non_finite_trial(self, capsys, monkeypatch):
        random_realization = oracle.random_realization

        def realization(d, seed):
            r = random_realization(d, seed)
            if seed != 5:
                return r
            utilities = {v: t.copy() for v, t in r.utilities.items()}
            next(iter(utilities.values())).reshape(-1)[-1] = np.inf
            return oracle.Realization(r.cpts, utilities).validated(d)

        monkeypatch.setattr(cli, "random_realization", realization)
        monkeypatch.setattr(conftest, "random_realization", realization)
        monkeypatch.setattr(oracle, "MAX_BATCH", 3)  # trial 3 opens the second batch
        assert "non-finite" in self.assert_error_matches_reference(capsys, FIXTURES / "fig8.pid", 7, 2)


class TestFuzzWork:
    def test_steps_and_oracle_sets(self, capsys, monkeypatch):
        """`fuzz` visits the schemas so that those that end alike come
        together, ends each elimination at the first decision, and computes
        an oracle required set only where the structural set does not cover
        the rule's past.  Visiting in schema order, solving every schema
        down to its MEU and computing one set per fresh rule take 1,430
        steps and 591 sets on fig8 with 2 trials, and 61 steps on fig1 with
        50 trials."""
        splits, sets = [], []
        monkeypatch.setattr(oracle, "_split", _recorder(oracle._split, splits))
        monkeypatch.setattr(cli, "required_per_trial", _recorder(cli.required_per_trial, sets))
        assert run(capsys, "fuzz", FIXTURES / "fig8.pid", "--trials", "2")[0] == 0
        assert len(splits) // 2 <= 662 and len(sets) <= 238, (len(splits) // 2, len(sets))
        del splits[:]
        assert run(capsys, "fuzz", FIXTURES / "fig1.pid", "--trials", "50")[0] == 0
        assert len(splits) // 2 <= 51, len(splits) // 2


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_answers_as_a_fresh_process(self, capsys, monkeypatch):
        # One process: a usage error first, then three commands on the same
        # parser.  Each must print and exit as `python -m pidcheck.cli` does.
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
        argvs = [
            ["relevant", str(FIXTURES / "fig1.pid")],
            ["check", str(FIXTURES / "fig6.pid")],
            ["fuzz", str(FIXTURES / "fig1.pid"), "--trials", "1"],
            ["relevant", str(FIXTURES / "fig1.pid"), "-d", "D1"],
        ]
        codes = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "pidcheck.cli", *argv],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [1, 2, 0, 0]

    @pytest.mark.parametrize("argv", [
        ("fuzz", "fig1.pid", "--seed", "-1"),
        ("fuzz", "fig1.pid", "--trials", "-3"),
        ("schemas", "fig1.pid", "--limit", "-2"),
    ], ids=lambda a: a[2])
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        command, name, option, value = argv
        code, out, err = run(capsys, command, FIXTURES / name, option, value)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: argument {option}: invalid non-negative int value: '{value}'\n")

    @pytest.mark.parametrize("argv", [("relevant", "-d", "D"), ("required", "-d", "D"), ("solve",)], ids=lambda a: a[0])
    def test_negative_schema_index_is_a_usage_error(self, capsys, monkeypatch, argv):
        # It is refused while parsing, before any schema is enumerated.
        def refuse(*args, **kwargs):
            raise AssertionError("schemas enumerated")

        monkeypatch.setattr(cli, "enumerate_schemas", refuse)
        code, out, err = run(capsys, argv[0], FIXTURES / "fig6.pid", *argv[1:], "--schema", "-1")
        assert (code, out) == (1, "")
        assert err.endswith("error: argument --schema: invalid non-negative int value: '-1'\n")

    def test_count_that_is_no_int_reads_as_before(self, capsys):
        code, _, err = run(capsys, "schemas", FIXTURES / "fig1.pid", "--limit", "x")
        assert code == 1
        assert err.endswith("error: argument --limit: invalid int value: 'x'\n")


class TestArgvDispatch:
    """A first argument naming a subcommand goes straight to its parser;
    every outcome matches the full parser's path byte for byte."""

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--json"], ["check"], ["check", "{fig6}", "extra"], ["check", "{fig6}", "--bogus"],
        ["relevant", "{fig6}"], ["relevant", "{fig6}", "-d"], ["schemas", "{fig6}", "--limit", "x"],
        ["--help"], ["-h"], ["check", "--help"], ["relevant", "{fig6}", "-h"], ["check", "--he"],
        ["check", "{fig6}", "--json"], ["check", "--json", "{fig6}"], ["relevant", "{fig6}", "-d", "D", "--json"],
        ["check", "--", "{fig6}"], ["check", "{fig6}", "--", "x"], ["check", "-"],
    ], ids=lambda a: " ".join(a).replace("{fig6}", "F") or "no-arguments")
    def test_same_bytes_as_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [a.replace("{fig6}", str(FIXTURES / "fig6.pid")) for a in argv]
        got = self._outcome(capsys, argv)
        monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert got == self._outcome(capsys, argv)


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_TEXT = st.one_of(
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f", "Ä", "\u2028", "\ud800", "\U0001f600", "a"])),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**30), st.integers(max_value=-(10**30)),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    _TEXT, _TEXT.map(_Str), st.sampled_from(list(Kind)),
)
_KEYS = st.one_of(_TEXT, st.integers(), st.floats(), st.booleans(), st.none(), st.sampled_from(list(Kind)))
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.lists(inner, max_size=4).map(_List),
    st.lists(_TEXT, max_size=4), st.dictionaries(_KEYS, inner, max_size=4),
    st.dictionaries(_KEYS, inner, max_size=4).map(_Dict),
), max_leaves=25)


class TestJsonWriter:
    @given(_PAYLOADS)
    @settings(max_examples=500)
    def test_writes_what_json_writes(self, payload):
        assert cli.to_json(payload) == json.dumps(payload, indent=2)

    _STRINGS = ["a", 'q"', "\u00c4"]

    @pytest.mark.parametrize("payload", [
        {"x": _STRINGS, "y": [_STRINGS, {"z": _STRINGS}]},
        [_STRINGS, _STRINGS],
        [("a", "b"), ["a", "b"], {"k": ("a", "b"), "l": ["a", "b"]}, [("a", "b"), ["a", "b"]]],
        [["a", 1], ["a", "b"], ["a", "b", 2.5], ("a", None), ["a", ["b"]], ["a", {"b": "c"}], ["a", True]],
        [True, False, None, [None], [False, True], {"t": True, "f": False, "n": None}],
    ], ids=["same-list-two-depths", "one-list-twice", "equal-lists-and-tuples", "one-non-str-item", "constants"])
    def test_reused_lists_and_constants(self, payload):
        # A list of strings is rendered once per content and indentation;
        # True, False and None are written by identity.
        assert cli.to_json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("bad", [{(1, 2): 0}, {"a": object()}, [1, {2}]], ids=["tuple-key", "object", "set"])
    def test_refuses_what_json_refuses(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli.to_json(bad)

    def test_escaped_ids_through_every_json_command(self, tmp_path, capsys):
        # No fixture has an id that needs escaping; these ids need it in
        # every form JSON has: non-ASCII, a quote, a control character and
        # a backslash.
        nodes = [
            Node("Ä", Kind.CHANCE, ("ü", 'q"'), ()),
            Node('a"b', Kind.DECISION, ("d1", "d\\2"), ("Ä",)),
            Node("tab\t", Kind.DECISION, ("d1", "d2"), ()),
            Node("back\\slash", Kind.VALUE, None, ('a"b', "tab\t", "Ä")),
        ]
        d = validate_nodes(nodes)
        path = tmp_path / "escaped.pid"
        path.write_text(serialize_document(d, oracle.random_realization(d, 0)))
        argvs = [
            ["validate"], ["order"], ["schemas"], ["check"], ["suggest"], ["solve"],
            ["fuzz", "--trials", "2"], ["relevant", "-d", 'a"b'], ["required", "-d", "tab\t"],
            ["significant", "-a", "Ä", "-d", "tab\t"], ["baselines", "-d", 'a"b'],
        ]
        for argv in argvs:
            code, out, err = run(capsys, argv[0], path, *argv[1:], "--json")
            assert code in (0, 2) and err == "", (argv, err)
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            assert "\\u00c4" in out or argv[0] in ("validate", "fuzz"), argv


class TestExportDot:
    def test_fig1_shapes(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "fig1.pid")
        assert code == 0
        assert out.count("shape=box") == 4
        assert out.count("shape=diamond") == 1
        assert out.count("shape=circle") == 5

    def test_empty_diagram(self):
        assert export_dot(validate_nodes([])) == "digraph pid {\n}\n"

    def test_ids_are_escaped(self):
        d = validate_nodes(
            [
                Node('A\\x', Kind.CHANCE, ("s1", "s2"), ()),
                Node('D1"q', Kind.DECISION, ("d1", "d2"), ('A\\x',)),
            ]
        )
        out = export_dot(d)
        assert '  "A\\\\x" [shape=circle];' in out
        assert '  "D1\\"q" [shape=box];' in out
        assert '  "A\\\\x" -> "D1\\"q";' in out

    @pytest.mark.parametrize("annotate", [(), ("--annotate",)], ids=["plain", "annotate"])
    def test_json_flag_is_ignored(self, capsys, annotate):
        # export-dot always writes DOT
        plain = run(capsys, "export-dot", FIXTURES / "fig6.pid", *annotate)
        assert run(capsys, "export-dot", FIXTURES / "fig6.pid", *annotate, "--json") == plain

    def test_annotated_fig6_highlights_pair(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "fig6.pid", "--annotate")
        assert code == 0
        assert '"A" [shape=circle, style=filled' in out
        assert '"D" [shape=box, style=filled' in out
        assert '"A" -> "D2" [style=dashed]' in out


# ---------------------------------------------------------------------------
# no input crashes the CLI

FIXTURE_DOCS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.pid"))]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
MUTATION_COMMANDS = [
    ("validate",),
    ("order",),
    ("schemas", "--limit", "3"),
    ("check",),
    ("solve",),
    ("suggest",),
    ("export-dot", "--annotate"),
]


def _scalars(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [s for child in node for s in _scalars(child)]
    return [node]


@st.composite
def mutated_documents(draw):
    """A fixture document after one or two edits: a value replaced by
    junk or by a scalar of the document (an id, a label, a number), a key
    or list item deleted, or a list item duplicated.  The edited value is
    found by descending a drawn number of levels from the root, so whole
    node lists, nodes and tables are edited as often as single entries."""
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 2))):
        container, key, value = None, None, doc
        for _ in range(draw(st.integers(1, 4))):
            if not isinstance(value, (dict, list)) or not value:
                break
            container = value
            key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
            value = container[key]
        if container is None:
            break
        edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "duplicate" and isinstance(value, list) and value:
            value.append(copy.deepcopy(draw(st.sampled_from(value))))
        elif edit == "delete":
            del container[key]
        else:
            container[key] = draw(st.one_of(st.sampled_from(_scalars(doc) or [None]), JUNK))
    return doc


TABLE_ENTRIES = st.one_of(st.floats(-1, 2), st.integers(-2, 2), st.just(0.5))


@st.composite
def generated_documents(draw):
    """A document drawn from scratch: up to six nodes of drawn kinds, with
    distinct state labels and parents among the earlier chance and decision
    nodes.  In half the documents one in four draws of each part breaks a
    rule instead: a state list that is empty, repeats a label or sits on a
    value node, or parents drawn from every id and a dangling one, which
    makes cycles and arcs out of value nodes.  Half the documents carry a
    realization whose tables have the shape the diagram asks for, with
    uniform rows or drawn numbers, or in a faulty document a drawn
    length."""
    faulty = draw(st.booleans())

    def rarely() -> bool:
        return faulty and draw(st.integers(0, 3)) == 0

    ids = [f"N{i}" for i in range(draw(st.integers(0, 6)))]
    nodes = []
    for node_id in ids:
        kind = draw(st.sampled_from(["chance", "decision", "value"]))
        node = {"id": node_id, "kind": kind}
        if rarely():
            node["states"] = draw(st.lists(st.sampled_from(["s0", "s1", "s2"]), max_size=3))
        elif kind != "value":
            node["states"] = [f"s{k}" for k in range(draw(st.integers(1, 3)))]
        pool = ids + ["ghost"] if rarely() else [n["id"] for n in nodes if n["kind"] != "value"]
        node["parents"] = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)) if pool else []
        nodes.append(node)
    doc = {"nodes": nodes}
    if draw(st.booleans()):
        states = {n["id"]: len(n.get("states", ())) for n in nodes}
        tables = {"cpts": {}, "utilities": {}}
        for n in nodes:
            if n["kind"] == "decision":
                continue
            own = [] if n["kind"] == "value" else [states[n["id"]]]
            size = math.prod([states.get(p, 0) for p in n["parents"]] + own)
            if rarely():
                size = draw(st.integers(0, 9))
            if n["kind"] != "value" and not rarely():
                entries = [1 / max(1, states[n["id"]])] * size
            else:
                entries = draw(st.lists(TABLE_ENTRIES, min_size=size, max_size=size))
            tables["utilities" if n["kind"] == "value" else "cpts"][n["id"]] = entries
        doc["realization"] = tables
    return doc


@pytest.fixture(scope="module")
def mutation_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "doc.pid"


@given(doc=mutated_documents())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_never_crash(mutation_file, doc):
    _assert_exits_cleanly(mutation_file, doc)


@given(doc=generated_documents())
@settings(max_examples=300, deadline=None)
def test_generated_documents_never_crash(mutation_file, doc):
    _assert_exits_cleanly(mutation_file, doc)


def _assert_exits_cleanly(mutation_file, doc):
    """Every command in MUTATION_COMMANDS exits 0, 1 or 2 on ``doc``, with
    an ``error:`` line on exit 1."""
    mutation_file.write_text(json.dumps(doc))
    for command, *rest in MUTATION_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(mutation_file), *rest])
        assert code in (0, 1, 2), (command, doc)
        if code == 1:
            assert err.getvalue().startswith("error: "), (command, doc, err.getvalue())
            if command == "validate":
                # Every command loads the document as `validate` does, so
                # the others would stop at the same error.
                break
