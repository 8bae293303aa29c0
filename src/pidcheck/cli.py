"""Command-line surface and file formats.

A diagram document is a JSON object with a ``nodes`` list ({id, kind,
states?, parents}) and an optional ``realization`` ({cpts, utilities}) whose
tables are flat row-major lists: axes follow the node's declared parent
order, the node's own state varying fastest.  Reals round-trip exactly
(shortest repr).  Exit codes: 0 success, 1 parse/validation/usage error,
2 reserved for "not welldefined".
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from . import analysis as _analysis
from .dsep import NotTotalOrder, bayes_ball_requisite, elimination_neighbors
from .model import Diagram, InvalidDiagram, Kind, validate
from .oracle import (
    Comparison,
    EvaluationError,
    InvalidRealization,
    Realization,
    random_realization,
    required_from_strategy,
    solve,
    strategies_equal,
)
from .ordering import InconsistentOrder, enumerate_schemas, induce_partial_order

SCHEMA_VERSION = 1
DEFAULT_TRIALS = int(os.environ.get("PIDCHECK_TRIALS", "200"))


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# document format


def _table(what: str, node_id: str, flat: Any, shape: tuple[int, ...]) -> np.ndarray:
    if not isinstance(flat, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in flat
    ):
        raise InvalidRealization(f"{what} for {node_id!r} is not a flat list of numbers")
    arr = np.asarray(flat, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidRealization(f"{what} for {node_id!r} has non-finite entries")
    if arr.size != int(np.prod(shape)):
        raise InvalidRealization(
            f"{what} for {node_id!r} has {arr.size} entries, expected {int(np.prod(shape))}"
        )
    return arr.reshape(shape)


def _table_map(raw: dict, key: str) -> dict:
    tables = raw.get(key, {})
    if not isinstance(tables, dict):
        raise InvalidRealization(f"realization {key!r} must be an object")
    return tables


def realization_from_raw(d: Diagram, raw: Any) -> Realization:
    if not isinstance(raw, dict):
        raise InvalidRealization("realization must be an object")
    cpts: dict[str, np.ndarray] = {}
    utilities: dict[str, np.ndarray] = {}
    for node_id, flat in _table_map(raw, "cpts").items():
        if node_id not in d or d.kind(node_id) is not Kind.CHANCE:
            raise InvalidRealization(f"cpt given for non-chance node {node_id!r}")
        shape = tuple(len(d.states(p)) for p in d.parents(node_id)) + (
            len(d.states(node_id)),
        )
        cpts[node_id] = _table("cpt", node_id, flat, shape)
    for node_id, flat in _table_map(raw, "utilities").items():
        if node_id not in d or d.kind(node_id) is not Kind.VALUE:
            raise InvalidRealization(f"utility given for non-value node {node_id!r}")
        shape = tuple(len(d.states(p)) for p in d.parents(node_id))
        utilities[node_id] = _table("utility", node_id, flat, shape)
    return Realization(cpts, utilities).validated(d)


def parse_document(text: str, source: str = "<string>") -> tuple[Diagram, Realization | None]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}:{exc.lineno}:{exc.colno}: parse error: {exc.msg}")
    if not isinstance(raw, dict):
        raise CliError(f"{source}: document must be a JSON object")
    try:
        diagram = validate(raw)
    except InvalidDiagram as exc:
        lines = "\n".join(f"{source}: {v}" for v in exc.violations)
        raise CliError(lines)
    realization = None
    if "realization" in raw and raw["realization"] is not None:
        try:
            realization = realization_from_raw(diagram, raw["realization"])
        except InvalidRealization as exc:
            raise CliError(f"{source}: {exc}")
    return diagram, realization


def serialize_document(d: Diagram, realization: Realization | None = None) -> str:
    doc: dict[str, Any] = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                **({"states": list(n.states)} if n.states is not None else {}),
                "parents": list(n.parents),
            }
            for n in d.nodes
        ]
    }
    if realization is not None:
        doc["realization"] = {
            "cpts": {k: [float(x) for x in v.reshape(-1)] for k, v in realization.cpts.items()},
            "utilities": {
                k: [float(x) for x in v.reshape(-1)] for k, v in realization.utilities.items()
            },
        }
    return json.dumps(doc, indent=2) + "\n"


def load_file(path: str) -> tuple[Diagram, Realization | None]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}")
    return parse_document(text, source=path)


# ---------------------------------------------------------------------------
# DOT export


def _dot_id(node_id: str) -> str:
    """A DOT quoted-string id."""
    return '"' + node_id.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(d: Diagram, report: _analysis.Report | None = None, annotate: bool = False) -> str:
    shapes = {Kind.CHANCE: "circle", Kind.DECISION: "box", Kind.VALUE: "diamond"}
    significant_nodes: set[str] = set()
    if annotate and report is not None:
        for a, dec in report.significant_pairs:
            significant_nodes.update((a, dec))
    lines = ["digraph pid {"]
    for n in d.nodes:
        attrs = [f"shape={shapes[n.kind]}"]
        if n.id in significant_nodes:
            attrs.append('style=filled, fillcolor="orangered"')
        lines.append(f'  {_dot_id(n.id)} [{", ".join(attrs)}];')
    for tail, head in d.arcs():
        attrs = ""
        if annotate and d.kind(head) is Kind.DECISION:
            attrs = " [style=dashed]"
        lines.append(f"  {_dot_id(tail)} -> {_dot_id(head)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


def emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _schema_payload(schema) -> dict:
    return {
        "decisions": list(schema.decision_sequence),
        "slots": {c: s for c, s in schema.slots},
        "order": list(schema.induced_order()),
    }


def _witness_payload(w: _analysis.Witness) -> dict:
    return {
        "chance": w.chance,
        "decision": w.decision,
        "utility": w.utility,
        "clause": w.clause,
        "later_decision": w.later_decision,
        "chain_node": w.chain_node,
        "schema": _schema_payload(w.schema),
    }


def _report_payload(report: _analysis.Report) -> dict:
    return {
        "welldefined": report.welldefined,
        "canonical_schema": _schema_payload(report.schema),
        "relevant": {k: list(v) for k, v in report.relevant.items()},
        "required": {k: list(v) for k, v in report.required.items()},
        "incompatible": [list(p) for p in report.incompatible_pairs],
        "pairs_checked": [list(p) for p in report.pairs_checked],
        "witnesses": [_witness_payload(w) for w in report.witnesses],
    }


def _pick_schema(d: Diagram, index: int):
    for i, schema in enumerate(enumerate_schemas(d)):
        if i == index:
            return schema
    raise CliError(f"schema index {index} out of range")


def _require_decision(d: Diagram, name: str) -> str:
    if name not in d or d.kind(name) is not Kind.DECISION:
        raise CliError(f"no decision node named {name!r}")
    return name


def _require_chance(d: Diagram, name: str) -> str:
    if name not in d or d.kind(name) is not Kind.CHANCE:
        raise CliError(f"no chance node named {name!r}")
    return name


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    d, realization = load_file(args.file)
    emit(
        args,
        {
            "valid": True,
            "nodes": len(d.nodes),
            "arcs": len(d.arcs()),
            "has_realization": realization is not None,
        },
        f"{args.file}: valid diagram with {len(d.nodes)} nodes and {len(d.arcs())} arcs\n",
    )
    return 0


def cmd_order(args) -> int:
    d, _ = load_file(args.file)
    po = induce_partial_order(d)
    precedes = {x: list(d.sort_ids(po.succ[x])) for x in po.carrier if po.succ[x]}
    pairs = po.incompatible_pairs()
    chance_pairs = tuple(
        p
        for p in po.incompatible_pairs(with_decision_only=False)
        if p not in pairs
    )
    text_lines = ["precedence:"]
    for x, ys in precedes.items():
        text_lines.append(f"  {x} < {{{', '.join(ys)}}}")
    text_lines.append("incompatible pairs (involving a decision):")
    for a, b in pairs:
        text_lines.append(f"  ({a}, {b})")
    emit(
        args,
        {
            "precedes": precedes,
            "incompatible": [list(p) for p in pairs],
            "incompatible_chance_chance": [list(p) for p in chance_pairs],
        },
        "\n".join(text_lines) + "\n",
    )
    return 0


def cmd_schemas(args) -> int:
    d, _ = load_file(args.file)
    out = []
    for i, schema in enumerate(enumerate_schemas(d)):
        if args.limit is not None and i >= args.limit:
            break
        out.append(_schema_payload(schema))
    text = "\n".join(
        f"[{i}] decisions: {' '.join(s['decisions'])}  order: {' < '.join(s['order'])}"
        for i, s in enumerate(out)
    )
    emit(args, {"schemas": out}, text + "\n")
    return 0


def cmd_check(args) -> int:
    d, _ = load_file(args.file)
    report = _analysis.check_welldefined(d, exact=args.exact)
    verdict = "welldefined" if report.welldefined else "NOT welldefined"
    lines = [f"{args.file}: {verdict}"]
    lines.append(
        "incompatible pairs: "
        + (", ".join(f"({a}, {b})" for a, b in report.incompatible_pairs) or "none")
    )
    lines.append(
        "(chance, decision) pairs checked: "
        + (", ".join(f"({a}, {b})" for a, b in report.pairs_checked) or "none")
    )
    for w in report.witnesses:
        via = f" via {w.later_decision}" if w.later_decision else ""
        lines.append(
            f"  significant: {w.chance} for {w.decision} (utility {w.utility}, clause {w.clause}{via})"
        )
    emit(args, _report_payload(report), "\n".join(lines) + "\n")
    return 0 if report.welldefined else 2


def cmd_relevant(args) -> int:
    d, _ = load_file(args.file)
    dec = _require_decision(d, args.decision)
    ctx = _analysis.AnalysisContext.build(d, None if args.schema is None else _pick_schema(d, args.schema))
    rel = d.sort_ids(_analysis.relevant_utilities(ctx, dec))
    emit(
        args,
        {"decision": dec, "relevant": list(rel), "schema": _schema_payload(ctx.schema)},
        f"relevant utilities for {dec}: {{{', '.join(rel)}}}\n",
    )
    return 0


def cmd_required(args) -> int:
    d, _ = load_file(args.file)
    dec = _require_decision(d, args.decision)
    ctx = _analysis.AnalysisContext.build(d, None if args.schema is None else _pick_schema(d, args.schema))
    req = d.sort_ids(_analysis.required_variables(ctx, dec))
    emit(
        args,
        {"decision": dec, "required": list(req), "schema": _schema_payload(ctx.schema)},
        f"required variables for {dec}: {{{', '.join(req)}}}\n",
    )
    return 0


def cmd_significant(args) -> int:
    d, _ = load_file(args.file)
    a = _require_chance(d, args.chance)
    dec = _require_decision(d, args.decision)
    try:
        w = _analysis.is_significant(d, a, dec)
    except ValueError as exc:
        raise CliError(str(exc))
    if w is None:
        emit(args, {"significant": False, "witness": None}, f"({a}, {dec}): not significant\n")
    else:
        emit(
            args,
            {"significant": True, "witness": _witness_payload(w)},
            f"({a}, {dec}): significant (utility {w.utility}, clause {w.clause})\n",
        )
    return 0


def cmd_solve(args) -> int:
    d, realization = load_file(args.file)
    if realization is None:
        raise CliError(f"{args.file}: no realization in document; solve needs tables")
    schema = _pick_schema(d, args.schema if args.schema is not None else 0)
    strategy, meu = solve(d, realization, schema)
    lines = [f"MEU: {meu!r}", f"order: {' < '.join(schema.induced_order())}"]
    rules_payload = {}
    for dec in d.decision_ids:
        rule = strategy.rules[dec]
        lines.append(f"decision {dec} over ({', '.join(rule.pred_vars)}):")
        table = []
        if rule.pred_vars:
            configs = np.ndindex(*rule.choices.shape)
        else:
            configs = [()]
        for config in configs:
            labels = {
                v: d.states(v)[config[j]] for j, v in enumerate(rule.pred_vars)
            }
            chosen = sorted(rule.choices[config])
            value = float(rule.values[config])
            table.append({"given": labels, "max": chosen, "value": value})
            shown = ", ".join(f"{k}={v}" for k, v in labels.items()) or "-"
            lines.append(f"  [{shown}] -> {{{', '.join(chosen)}}} (value {value!r})")
        rules_payload[dec] = table
    emit(args, {"meu": meu, "schema": _schema_payload(schema), "rules": rules_payload}, "\n".join(lines) + "\n")
    return 0


def cmd_suggest(args) -> int:
    d, _ = load_file(args.file)
    report = _analysis.check_welldefined(d)
    proposals = _analysis.suggest_resolutions(d, report)
    payload = [
        {
            "constraints": [list(c) for c in p.constraints],
            "welldefined": p.welldefined,
        }
        for p in proposals
    ]
    lines = []
    if report.welldefined:
        lines.append(f"{args.file}: already welldefined; nothing to suggest")
    for p in proposals:
        cs = "; ".join(
            (f"observe {x} before {y}" if kind == "observe" else f"constrain {x} before {y}")
            for kind, x, y in p.constraints
        )
        lines.append(f"[{'fixes' if p.welldefined else 'insufficient'}] {cs}")
    emit(args, {"welldefined": report.welldefined, "proposals": payload}, "\n".join(lines) + "\n")
    return 0


def cmd_fuzz(args) -> int:
    d, _ = load_file(args.file)
    po = induce_partial_order(d)
    schemas = list(enumerate_schemas(d, po))
    analysis = _analysis.Analysis(d)
    report = _analysis.check_welldefined(d)
    failures: list[str] = []
    checked = 0
    for t in range(args.trials):
        r = random_realization(d, args.seed + t)
        strategies = [solve(d, r, s)[0] for s in schemas]
        for schema, strategy in zip(schemas, strategies):
            for dec in d.decision_ids:
                oracle_set = required_from_strategy(strategy, dec)
                struct = analysis.required_variables(schema, dec)
                checked += 1
                if not oracle_set <= struct:
                    failures.append(
                        f"trial {t}: oracle_required({dec}) = {sorted(oracle_set)} "
                        f"not within required_variables = {sorted(struct)}"
                    )
        if report.welldefined:
            base = strategies[0]
            for other in strategies[1:]:
                if strategies_equal(base, other) is Comparison.DIFFERENT:
                    failures.append(f"trial {t}: strategies differ across schemas")
    ok = not failures
    text = (
        f"fuzz: {args.trials} realizations x {len(schemas)} schemas, {checked} oracle checks: "
        + ("all consistent" if ok else f"{len(failures)} failures")
        + ("\n" + "\n".join(failures) if failures else "")
    )
    emit(args, {"ok": ok, "failures": failures, "checks": checked}, text + "\n")
    return 0 if ok else 1


def cmd_export_dot(args) -> int:
    d, _ = load_file(args.file)
    report = _analysis.check_welldefined(d) if args.annotate else None
    sys.stdout.write(export_dot(d, report, annotate=args.annotate))
    return 0


def cmd_baselines(args) -> int:
    """Diagnostic: exact required set next to the two over-approximations."""
    d, _ = load_file(args.file)
    dec = _require_decision(d, args.decision)
    ctx = _analysis.AnalysisContext.build(d)
    req = d.sort_ids(_analysis.required_variables(ctx, dec))
    neighbors = d.sort_ids(elimination_neighbors(d, dec, ctx.schema))
    try:
        ball = list(d.sort_ids(bayes_ball_requisite(d, dec)))
    except NotTotalOrder:
        ball = None
    payload = {"decision": dec, "required": list(req), "elimination_neighbors": list(neighbors), "bayes_ball": ball}
    text = (
        f"required: {{{', '.join(req)}}}\n"
        f"elimination neighbors: {{{', '.join(neighbors)}}}\n"
        f"bayes-ball requisite: "
        + ("not a total order" if ball is None else f"{{{', '.join(ball)}}}")
    )
    emit(args, payload, text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidcheck",
        description="Analyze partial influence diagrams: temporal order, "
        "welldefinedness, relevant utilities, required variables, and exact "
        "strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="diagram document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="check diagram invariants")
    add("order", cmd_order, help="print the induced partial order and incompatible pairs")
    p = add("schemas", cmd_schemas, help="enumerate admissible order schemas")
    p.add_argument("--limit", type=int, default=None)
    p = add("check", cmd_check, help="welldefinedness verdict (exit 0 yes, 2 no)")
    p.add_argument("--exact", action="store_true", help="scan every schema per pair")
    p = add("relevant", cmd_relevant, help="relevant utility nodes for a decision")
    p.add_argument("-d", "--decision", required=True)
    p.add_argument("--schema", type=int, default=None, help="schema index from `schemas`")
    p = add("required", cmd_required, help="required past variables for a decision")
    p.add_argument("-d", "--decision", required=True)
    p.add_argument("--schema", type=int, default=None)
    p = add("significant", cmd_significant, help="is a chance node significant for a decision?")
    p.add_argument("-a", "--chance", required=True)
    p.add_argument("-d", "--decision", required=True)
    p = add("solve", cmd_solve, help="exact strategies and MEU (needs a realization)")
    p.add_argument("--schema", type=int, default=None)
    p = add("fuzz", cmd_fuzz, help="random-realization differential suite")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    add("suggest", cmd_suggest, help="ordering constraints that repair an ambiguous diagram")
    p = add("export-dot", cmd_export_dot, help="Graphviz export")
    p.add_argument("--annotate", action="store_true", help="dash informational arcs, color significant pairs")
    p = add("baselines", cmd_baselines, help="required set vs the two published over-approximations")
    p.add_argument("-d", "--decision", required=True)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        InvalidDiagram, InconsistentOrder, InvalidRealization, NotTotalOrder, EvaluationError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
