import json
import pathlib

import numpy as np
import pytest

from pidcheck import figures
from pidcheck.cli import export_dot, main, parse_document, serialize_document
from pidcheck.generate import random_pid

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


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
        again = serialize_document(d1, r1)
        d2, r2 = parse_document(again)
        assert d1 == d2
        if r1 is None:
            assert r2 is None
        else:
            assert r1.fingerprint() == r2.fingerprint()

    def test_realization_length_mismatch_reported(self, tmp_path, capsys):
        doc = json.loads(serialize_document(figures.fig3(), figures.fig3_realization()))
        doc["realization"]["cpts"]["A"] = [0.5, 0.5]
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", bad)
        assert code == 1
        assert "cpt for 'A'" in err


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
        ],
        ids=["infinity", "nan", "non-numeric", "dict-table", "realization-not-object"],
    )
    def test_rejected_at_parse(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps(_fig4_doc_with(edit)))
        for command in ("validate", "solve"):
            code, out, err = run(capsys, command, bad)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {bad}: ") and message in err, err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflow_in_solve_is_an_error(self, tmp_path, capsys):
        def huge(doc):
            for table in doc["realization"]["utilities"].values():
                table[:] = [1e308] * len(table)

        bad = tmp_path / "huge.pid"
        bad.write_text(json.dumps(_fig4_doc_with(huge)))
        code, _, err = run(capsys, "solve", bad)
        assert code == 1 and err.startswith("error: ") and "non-finite" in err


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

    def test_validation_failure_names_file_and_node(self, tmp_path, capsys):
        bad = tmp_path / "bad.pid"
        bad.write_text(json.dumps({"nodes": [
            {"id": "A", "kind": "chance", "states": [], "parents": []}]}))
        code, _, err = run(capsys, "validate", bad)
        assert code == 1
        assert "bad.pid" in err and "'A'" in err

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


class TestSubcommandOutputs:
    def test_order_fig1_lists_caption_pairs(self, capsys):
        code, payload = run_json(capsys, "order", FIXTURES / "fig1.pid")
        assert code == 0
        assert payload["precedes"]["B"][0] == "D1"
        got = {tuple(p) for p in payload["incompatible"]}
        assert got == {("F", "D4"), ("D2", "D3"), ("D2", "D4"), ("D3", "D4")}

    def test_schemas_limit(self, capsys):
        code, payload = run_json(capsys, "schemas", FIXTURES / "fig1.pid", "--limit", "3")
        assert code == 0 and len(payload["schemas"]) == 3

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
        # The collapsed pass alone calls this pair not significant.
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

    def test_long_chain(self, tmp_path, capsys):
        nodes = [{"id": "C0", "kind": "chance", "states": ["a", "b"], "parents": []}]
        nodes += [
            {"id": f"C{i}", "kind": "chance", "states": ["a", "b"], "parents": [f"C{i - 1}"]}
            for i in range(1, 1200)
        ]
        nodes.append({"id": "D", "kind": "decision", "states": ["a", "b"], "parents": ["C1199"]})
        nodes.append({"id": "U", "kind": "value", "parents": ["C0", "D"]})
        path = tmp_path / "chain.pid"
        path.write_text(json.dumps({"nodes": nodes}))
        assert run(capsys, "validate", path)[0] == 0
        assert run(capsys, "check", path)[0] == 0

    def test_check_exact_flag_matches_default(self, capsys):
        for name in ["fig1", "fig6", "fig7"]:
            _, default = run_json(capsys, "check", FIXTURES / f"{name}.pid")
            _, exact = run_json(capsys, "check", FIXTURES / f"{name}.pid", "--exact")
            assert default == exact, name

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

    @pytest.mark.parametrize(
        "argv",
        [
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
        ],
        ids=lambda a: a[0],
    )
    def test_json_shape_on_every_subcommand(self, capsys, argv):
        code, payload = run_json(capsys, argv[0], FIXTURES / "fig6.pid", *argv[1:])
        assert code in (0, 2)
        assert isinstance(payload, dict)


class TestExportDot:
    def test_fig1_shapes(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "fig1.pid")
        assert code == 0
        assert out.count("shape=box") == 4
        assert out.count("shape=diamond") == 1
        assert out.count("shape=circle") == 5

    def test_empty_diagram(self):
        from pidcheck.model import validate_nodes

        assert export_dot(validate_nodes([])) == "digraph pid {\n}\n"

    def test_ids_are_escaped(self):
        from pidcheck.model import Kind, Node, validate_nodes

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

    def test_annotated_fig6_highlights_pair(self, capsys):
        code, out, _ = run(capsys, "export-dot", FIXTURES / "fig6.pid", "--annotate")
        assert code == 0
        assert '"A" [shape=circle, style=filled' in out
        assert '"D" [shape=box, style=filled' in out
        assert '"A" -> "D2" [style=dashed]' in out
