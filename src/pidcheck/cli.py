"""Command-line surface and file formats.

A diagram document is a JSON object with a ``nodes`` list ({id, kind,
states?, parents}) and an optional ``realization`` ({cpts, utilities}) whose
tables are flat row-major lists: axes follow the node's declared parent
order, the node's own state varying fastest.  Reals round-trip exactly
(shortest repr).  Every command checks the tables when it reads a
document; they become numpy arrays only for `solve`, so the structural
commands never import numpy.  Exit codes: 0 success, 1
parse/validation/usage error, 2 reserved for "not welldefined".
A first argument naming a subcommand goes straight to that subcommand's
parser (`parse_args`), `--json` output is written by `to_json`, byte for
byte what ``json.dumps(payload, indent=2)`` writes, and text output is
rendered only when it is printed.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Any, Callable, NamedTuple, Sequence

from . import analysis as _analysis
from .dsep import NotTotalOrder, bayes_ball_requisite, elimination_neighbors
from .model import Diagram, InvalidDiagram, Kind, validate
from .oracle import (
    EvaluationError,
    InvalidRealization,
    Realization,
    batch_trials,
    check_tables,
    random_realization,
    required_per_trial,
    rules_differ,
    solve,
    solve_schemas,
    table_shape,
)
from .ordering import (
    InconsistentOrder,
    PartialOrder,
    canonical_schema,
    enumerate_schemas,
    induce_partial_order,
)

SCHEMA_VERSION = 1
DEFAULT_TRIALS = 200


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# document format


class FlatTable(NamedTuple):
    shape: tuple[int, ...]
    values: list[float]   # row-major


class ParsedRealization(NamedTuple):
    """A document's realization after every check of `check_tables` against
    ``diagram``, its tables kept as flat lists: numpy arrays are built only
    to solve."""

    diagram: Diagram
    cpts: dict[str, FlatTable]
    utilities: dict[str, FlatTable]

    def realization(self) -> Realization:
        """The tables as arrays, already validated for ``diagram``: they
        hold the same shapes and values that passed the check."""
        import numpy as np

        def arrays(tables: dict[str, FlatTable]) -> dict:
            return {k: np.array(t.values, dtype=float).reshape(t.shape) for k, t in tables.items()}

        return Realization(arrays(self.cpts), arrays(self.utilities), _valid_for=self.diagram)


def _table(what: str, node_id: str, flat: Any, shape: tuple[int, ...]) -> FlatTable:
    if not isinstance(flat, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in flat
    ):
        raise InvalidRealization(f"{what} for {node_id!r} is not a flat list of numbers")
    try:
        values = [float(x) for x in flat]
    except OverflowError:
        raise InvalidRealization(
            f"{what} for {node_id!r} has an integer entry too large for a float"
        ) from None
    if not all(math.isfinite(x) for x in values):
        raise InvalidRealization(f"{what} for {node_id!r} has non-finite entries")
    if len(values) != math.prod(shape):
        raise InvalidRealization(
            f"{what} for {node_id!r} has {len(values)} entries, expected {math.prod(shape)}"
        )
    return FlatTable(shape, values)


def _table_map(raw: dict, key: str) -> dict:
    tables = raw.get(key, {})
    if not isinstance(tables, dict):
        raise InvalidRealization(f"realization {key!r} must be an object")
    return tables


def realization_from_raw(d: Diagram, raw: Any) -> ParsedRealization:
    if not isinstance(raw, dict):
        raise InvalidRealization("realization must be an object")
    cpts: dict[str, FlatTable] = {}
    utilities: dict[str, FlatTable] = {}
    for node_id, flat in _table_map(raw, "cpts").items():
        if node_id not in d or d.kind(node_id) is not Kind.CHANCE:
            raise InvalidRealization(f"cpt given for non-chance node {node_id!r}")
        cpts[node_id] = _table("cpt", node_id, flat, table_shape(d, node_id))
    for node_id, flat in _table_map(raw, "utilities").items():
        if node_id not in d or d.kind(node_id) is not Kind.VALUE:
            raise InvalidRealization(f"utility given for non-value node {node_id!r}")
        utilities[node_id] = _table("utility", node_id, flat, table_shape(d, node_id))
    check_tables(d, cpts, utilities, lambda t: t.values)
    return ParsedRealization(d, cpts, utilities)


def parse_document(text: str, source: str = "<string>") -> tuple[Diagram, ParsedRealization | None]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}:{exc.lineno}:{exc.colno}: parse error: {exc.msg}")
    except RecursionError:
        raise CliError(f"{source}: parse error: nested too deeply")
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


def load_file(path: str) -> tuple[Diagram, ParsedRealization | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: parse error: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return parse_document(text, source=path)


# ---------------------------------------------------------------------------
# DOT export


def _dot_id(node_id: str) -> str:
    """A DOT quoted-string id."""
    return '"' + node_id.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(d: Diagram, report: _analysis.Report | None = None) -> str:
    """Graphviz source for ``d``.  Given a check report, informational arcs
    are dashed and the nodes of significant pairs filled."""
    shapes = {Kind.CHANCE: "circle", Kind.DECISION: "box", Kind.VALUE: "diamond"}
    significant_nodes: set[str] = set()
    if report is not None:
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
        if report is not None and d.kind(head) is Kind.DECISION:
            attrs = " [style=dashed]"
        lines.append(f"  {_dot_id(tail)} -> {_dot_id(head)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


_quote = json.encoder.encode_basestring_ascii


def to_json(x: Any, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)``, written directly: json's encoder takes
    an indent only in pure Python.  ``pad`` is the newline and indentation
    of ``x``'s own lines, all joined once.  Strings go through json's C
    escaping, a list of strings in one join made once per content and
    indentation; other scalars but bools, None and exact ints are json's."""
    out: list[str] = []
    _write(x, pad, out.append, {})
    return "".join(out)


def _write(x: Any, pad: str, put: Callable[[str], None], lists: dict[tuple[tuple, str], str]) -> None:
    """:func:`to_json`'s text of ``x``, passed piece by piece to ``put``;
    ``lists`` maps (items, pad) to the text of a list of strings."""
    inner = pad + "  "
    if isinstance(x, str):
        put(_quote(x))
    elif isinstance(x, (list, tuple)):
        if x and type(x[0]) is str:
            try:  # a list of strings
                key = (tuple(x), pad)
                if key not in lists:
                    lists[key] = "[" + inner + ("," + inner).join(map(_quote, x)) + pad + "]"
                put(lists[key])
                return
            except TypeError:  # an item that is no str, or none that hashes
                pass
        sep = "[" + inner
        for v in x:
            put(sep)
            _write(v, inner, put, lists)
            sep = "," + inner
        put(pad + "]" if x else "[]")
    elif isinstance(x, dict):
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
                k = json.dumps(k)
            put(sep + _quote(k) + ": ")
            _write(v, inner, put, lists)
            sep = "," + inner
        put(pad + "}" if x else "{}")
    elif x is True or x is False or x is None:
        put("true" if x else "null" if x is None else "false")
    elif type(x) is int:
        put(int.__repr__(x))
    else:
        put(json.dumps(x))  # a float, an int subclass, or json's TypeError


def emit(args, payload: dict, text: Callable[[], str]) -> None:
    """Print ``payload`` as indented JSON under ``--json``, else the text
    that ``text()`` renders: each command renders only what it prints."""
    if args.json:
        print(to_json({"schema_version": SCHEMA_VERSION, "command": args.command, **payload}))
    elif out := text():
        print(out, end="" if out.endswith("\n") else "\n")


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


def _pick_schema(d: Diagram, index: int, po: PartialOrder | None = None):
    for i, schema in enumerate(enumerate_schemas(d, po)):
        if i == index:
            return schema
    raise CliError(f"schema index {index} out of range")


def _require(d: Diagram, name: str, kind: Kind) -> str:
    if name not in d or d.kind(name) is not kind:
        raise CliError(f"no {kind.value} node named {name!r}")
    return name


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    d, realization = load_file(args.file)
    nodes, arcs = len(d.nodes), len(d.arcs())
    emit(args, {"valid": True, "nodes": nodes, "arcs": arcs, "has_realization": realization is not None},
         lambda: f"{args.file}: valid diagram with {nodes} nodes and {arcs} arcs\n")
    return 0


def cmd_order(args) -> int:
    d, _ = load_file(args.file)
    po = induce_partial_order(d)
    precedes = {x: list(d.sort_ids(po.succ[x])) for x in po.carrier if po.succ[x]}
    decisions = set(d.decision_ids)
    pairs, chance_pairs = [], []
    for x, y in po.incompatible_pairs(with_decision_only=not args.json):  # text prints no chance-chance pair
        (pairs if x in decisions or y in decisions else chance_pairs).append((x, y))

    def text() -> str:
        lines = ["precedence:", *(f"  {x} < {{{', '.join(ys)}}}" for x, ys in precedes.items())]
        lines += ["incompatible pairs (involving a decision):", *(f"  ({a}, {b})" for a, b in pairs)]
        return "\n".join(lines) + "\n"
    payload = {"precedes": precedes, "incompatible": [list(p) for p in pairs]}
    emit(args, {**payload, "incompatible_chance_chance": [list(p) for p in chance_pairs]}, text)
    return 0


def cmd_schemas(args) -> int:
    d, _ = load_file(args.file)
    out = []
    for i, schema in enumerate(enumerate_schemas(d)):
        if args.limit is not None and i >= args.limit:
            break
        out.append(_schema_payload(schema))
    emit(args, {"schemas": out}, lambda: "".join(
        f"[{i}] decisions: {' '.join(s['decisions'])}  order: {' < '.join(s['order'])}\n"
        for i, s in enumerate(out)
    ))
    return 0


def cmd_check(args) -> int:
    d, _ = load_file(args.file)
    report = _analysis.check_welldefined(d)

    def text() -> str:
        incompatible, checked = (", ".join(f"({a}, {b})" for a, b in ps) or "none"
                                 for ps in (report.incompatible_pairs, report.pairs_checked))
        lines = [f"{args.file}: {'welldefined' if report.welldefined else 'NOT welldefined'}",
                 f"incompatible pairs: {incompatible}", f"(chance, decision) pairs checked: {checked}"]
        lines += [f"  significant: {w.chance} for {w.decision} (utility {w.utility}, clause {w.clause}"
                  + (f" via {w.later_decision})" if w.later_decision else ")") for w in report.witnesses]
        return "\n".join(lines) + "\n"
    emit(args, _report_payload(report), text)
    return 0 if report.welldefined else 2


def cmd_outcome(args) -> int:
    """`relevant` and `required`: one outcome set of a decision."""
    d, _ = load_file(args.file)
    dec = _require(d, args.decision, Kind.DECISION)
    analysis = _analysis.Analysis(d)
    schema = canonical_schema(d, analysis.po) if args.schema is None else _pick_schema(d, args.schema, analysis.po)
    if args.command == "relevant":
        found, what = analysis.relevant_utilities(schema, dec), "relevant utilities"
    else:
        found, what = analysis.required_variables(schema, dec), "required variables"
    ids = d.sort_ids(found)
    emit(args, {"decision": dec, args.command: list(ids), "schema": _schema_payload(schema)},
         lambda: f"{what} for {dec}: {{{', '.join(ids)}}}\n")
    return 0


def cmd_significant(args) -> int:
    d, _ = load_file(args.file)
    a = _require(d, args.chance, Kind.CHANCE)
    dec = _require(d, args.decision, Kind.DECISION)
    try:
        w = _analysis.Analysis(d).is_significant(a, dec)
    except ValueError as exc:
        raise CliError(str(exc))
    emit(args, {"significant": w is not None, "witness": w and _witness_payload(w)},
         lambda: f"({a}, {dec}): not significant\n" if w is None
         else f"({a}, {dec}): significant (utility {w.utility}, clause {w.clause})\n")
    return 0


def cmd_solve(args) -> int:
    d, tables = load_file(args.file)
    if tables is None:
        raise CliError(f"{args.file}: no realization in document; solve needs tables")
    schema = _pick_schema(d, args.schema if args.schema is not None else 0)
    strategy, meu = solve(d, tables.realization(), schema)
    rules_payload = {}
    for dec in d.decision_ids:
        rule = strategy.rules[dec]
        rules_payload[dec] = [
            {"given": {v: d.states(v)[config[j]] for j, v in enumerate(rule.pred_vars)},
             "max": sorted(rule.choices[config]), "value": float(rule.values[config])}
            for config in itertools.product(*map(range, rule.choices.shape))
        ]

    def text() -> str:
        lines = [f"MEU: {meu!r}", f"order: {' < '.join(schema.induced_order())}"]
        for dec, table in rules_payload.items():
            lines.append(f"decision {dec} over ({', '.join(strategy.rules[dec].pred_vars)}):")
            for row in table:
                shown = ", ".join(f"{k}={v}" for k, v in row["given"].items()) or "-"
                lines.append(f"  [{shown}] -> {{{', '.join(row['max'])}}} (value {row['value']!r})")
        return "\n".join(lines) + "\n"
    emit(args, {"meu": meu, "schema": _schema_payload(schema), "rules": rules_payload}, text)
    return 0


def cmd_suggest(args) -> int:
    d, _ = load_file(args.file)
    analysis = _analysis.Analysis(d)
    pairs = analysis.significant_pairs()
    proposals = _analysis.suggest_resolutions(d, pairs, analysis=analysis)
    payload = [{"constraints": p.constraints, "welldefined": p.welldefined} for p in proposals]

    def text() -> str:
        lines = [f"{args.file}: already welldefined; nothing to suggest"] if not pairs else []
        for p in proposals:
            cs = "; ".join(f"{'observe' if kind == 'observe' else 'constrain'} {x} before {y}" for kind, x, y in p.constraints)
            lines.append(f"[{'fixes' if p.welldefined else 'insufficient'}] {cs}")
        return "\n".join(lines) + "\n"
    emit(args, {"welldefined": not pairs, "proposals": payload}, text)
    return 0


def cmd_fuzz(args) -> int:
    d, _ = load_file(args.file)
    analysis = _analysis.Analysis(d)
    schemas = list(enumerate_schemas(d, analysis.po))
    welldefined = analysis.first_significant_pair() is None
    # Schema 0, the base of the comparisons, first; then the rest by their
    # reversed orders, so that schemas that end alike come together and each
    # order suffix is eliminated once.  Failures are reported in schema
    # order.  An error fires at schema 0 or nowhere, as in schema order:
    # every admissible schema ends in the chance nodes after every decision,
    # in declaration order, and then its last decision's rule spans all the
    # rest and sums every utility factor, so all schemas meet the same error.
    visit = [0, *sorted(range(1, len(schemas)), key=lambda i: schemas[i].induced_order()[::-1])]
    required = [analysis.required_sets(schemas[i]) for i in visit]
    failures: list[str] = []
    size = batch_trials(d)
    for start in range(0, args.trials, size):
        trials = range(start, min(start + size, args.trials))
        realizations = [random_realization(d, args.seed + t) for t in trials]
        found: dict[int, list[tuple[int, str]]] = {t: [] for t in trials}
        differ = dict.fromkeys(trials, 0)
        # Per decision, the oracle's required set of its latest rule in each
        # trial, None until a check needs it, and the trials in which that
        # rule differs from schema 0's.  A rule that a schema shares with the
        # previous one keeps both.
        oracle_sets: dict[str, list[frozenset[str]] | None] = {}
        differing: dict[str, list[int]] = {}
        base = None
        solved = solve_schemas(d, realizations, [schemas[i] for i in visit], meu=False)
        for i, struct, (rules, _, fresh) in zip(visit, required, solved):
            for dec in fresh:
                oracle_sets[dec] = None
            for dec in d.decision_ids:
                # The oracle's set lies within the past, so a structural set
                # that covers the past covers it.
                if struct[dec].issuperset(rules[dec].pred_vars):
                    continue
                if oracle_sets[dec] is None:
                    oracle_sets[dec] = required_per_trial(rules[dec])
                for t, got in zip(trials, oracle_sets[dec]):
                    if not got <= struct[dec]:
                        line = (
                            f"trial {t}: oracle_required({dec}) = {sorted(got)} "
                            f"not within required_variables = {sorted(struct[dec])}"
                        )
                        found[t].append((i, line))
            if base is None:
                base = rules
            elif welldefined:
                # Strategies differ iff the rules of some decision do; rules
                # over different pasts are not compared.
                for dec in d.decision_ids:
                    if dec in fresh or dec not in differing:
                        verdict = rules_differ(base[dec], rules[dec])
                        differing[dec] = [] if verdict is None else [t for t, x in zip(trials, verdict.tolist()) if x]
                for t in set().union(*differing.values()):
                    differ[t] += 1
        for t in trials:
            # A stable sort: one schema's lines stay in decision order.
            failures += [line for _, line in sorted(found[t], key=lambda f: f[0])]
            failures += [f"trial {t}: strategies differ across schemas"] * differ[t]
    checked = args.trials * len(schemas) * len(d.decision_ids)
    ok = not failures
    emit(args, {"ok": ok, "failures": failures, "checks": checked}, lambda: (
        f"fuzz: {args.trials} realizations x {len(schemas)} schemas, {checked} oracle checks: "
        + ("all consistent" if ok else f"{len(failures)} failures")
        + ("\n" + "\n".join(failures) if failures else "") + "\n"
    ))
    return 0 if ok else 1


def cmd_export_dot(args) -> int:
    d, _ = load_file(args.file)
    report = _analysis.check_welldefined(d) if args.annotate else None
    sys.stdout.write(export_dot(d, report))
    return 0


def cmd_baselines(args) -> int:
    """Diagnostic: exact required set next to the two over-approximations."""
    d, _ = load_file(args.file)
    dec = _require(d, args.decision, Kind.DECISION)
    analysis = _analysis.Analysis(d)
    schema = canonical_schema(d, analysis.po)
    req = d.sort_ids(analysis.required_variables(schema, dec))
    neighbors = d.sort_ids(elimination_neighbors(d, dec, schema))
    try:
        ball = list(d.sort_ids(bayes_ball_requisite(d, analysis.po, dec)))
    except NotTotalOrder:
        ball = None
    payload = {"decision": dec, "required": list(req), "elimination_neighbors": list(neighbors), "bayes_ball": ball}
    emit(args, payload, lambda: (
        f"required: {{{', '.join(req)}}}\n"
        f"elimination neighbors: {{{', '.join(neighbors)}}}\n"
        f"bayes-ball requisite: "
        + ("not a total order" if ball is None else f"{{{', '.join(ball)}}}") + "\n"
    ))
    return 0


def _count(text: str) -> int:
    """The argparse type of --limit, --schema, --trials and --seed: an int
    that is not negative.  Text that is no int gets the message of ``type=int``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by
    every call in the process; parsing leaves it unchanged.  Its
    ``commands`` maps each subcommand to that subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="pidcheck",
        description="Analyze partial influence diagrams: temporal order, "
        "welldefinedness, relevant utilities, required variables, and exact "
        "strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add(name, fn, **kwargs):
        p = parser.commands[name] = sub.add_parser(name, **kwargs)
        p.add_argument("file", help="diagram document (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="check diagram invariants")
    add("order", cmd_order, help="print the induced partial order and incompatible pairs")
    p = add("schemas", cmd_schemas, help="enumerate admissible order schemas")
    p.add_argument("--limit", type=_count, default=None)
    add("check", cmd_check, help="welldefinedness verdict (exit 0 yes, 2 no)")
    p = add("relevant", cmd_outcome, help="relevant utility nodes for a decision")
    p.add_argument("-d", "--decision", required=True)
    p.add_argument("--schema", type=_count, default=None, help="schema index from `schemas`")
    p = add("required", cmd_outcome, help="required past variables for a decision")
    p.add_argument("-d", "--decision", required=True)
    p.add_argument("--schema", type=_count, default=None)
    p = add("significant", cmd_significant, help="is a chance node significant for a decision?")
    p.add_argument("-a", "--chance", required=True)
    p.add_argument("-d", "--decision", required=True)
    p = add("solve", cmd_solve, help="exact strategies and MEU (needs a realization)")
    p.add_argument("--schema", type=_count, default=None)
    p = add("fuzz", cmd_fuzz, help="random-realization differential suite")
    p.add_argument("--trials", type=_count, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=_count, default=0)
    add("suggest", cmd_suggest, help="ordering constraints that repair an ambiguous diagram")
    p = add("export-dot", cmd_export_dot, help="Graphviz export")
    p.add_argument("--annotate", action="store_true", help="dash informational arcs, color significant pairs")
    p = add("baselines", cmd_baselines, help="required set vs the two published over-approximations")
    p.add_argument("-d", "--decision", required=True)
    return parser


def parse_args(argv: Sequence[str]):
    """``build_parser().parse_args(argv)``, with a first argument that names
    a subcommand passed straight to that subcommand's parser.  Anything
    else, and arguments left over, take the full parser's path and usage."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        if exc.code != 2:  # --help
            raise
        return 1  # a usage error: argparse's 2 means "not welldefined" here
    try:
        return args.fn(args)
    except (
        CliError, InvalidDiagram, InconsistentOrder, InvalidRealization, NotTotalOrder, EvaluationError,
        _analysis.RepairBudgetExceeded, _analysis.ScanBudgetExceeded,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
