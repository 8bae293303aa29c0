"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately re-derive everything from first principles
with different data structures than the package, so agreement is evidence
rather than tautology.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce
from typing import Any, Mapping, Sequence

import hypothesis
import numpy as np
import pytest

from pidcheck import analysis as analysis_module
from pidcheck import oracle
from pidcheck.analysis import Analysis, Proposal, Report, Witness
from pidcheck.model import Diagram, Kind, Node, validate_nodes
from pidcheck.oracle import (
    CPT_ROW_TOL,
    Comparison,
    DecisionRule,
    EvaluationError,
    InvalidRealization,
    Realization,
    Strategy,
    random_realization,
    required_from_strategy,
    solve,
)
from pidcheck.ordering import (
    InconsistentOrder,
    OrderSchema,
    PartialOrder,
    enumerate_schemas,
    induce_partial_order,
)

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("suite")


# ---------------------------------------------------------------------------
# documents and arc edits


def serialize_document(d: Diagram, realization: Realization | None = None) -> str:
    """The document text of ``d`` and its tables, in the layout of the
    committed fixtures."""
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


def with_arcs(d: Diagram, arcs) -> Diagram:
    """``d`` with each (tail, head) arc appended to its head's parents,
    unless there already, checked by `validate_nodes`."""
    parents = {n.id: n.parents for n in d.nodes}
    for tail, head in arcs:
        if tail not in parents[head]:
            parents[head] += (tail,)
    return validate_nodes([Node(n.id, n.kind, n.states, parents[n.id]) for n in d.nodes])


# ---------------------------------------------------------------------------
# reference loader: document and node validation as separate passes, with
# the cycle found by depth-first search alone


def _reference_find_cycle(ids: Sequence[str], parents: Mapping[str, Sequence[str]]) -> list[str] | None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
    children: dict[str, list[str]] = {i: [] for i in ids}
    for i in ids:
        for p in parents[i]:
            if p in children:
                children[p].append(i)
    for root in ids:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        path = [root]
        stack = [iter(children[root])]
        while stack:
            for c in stack[-1]:
                if color[c] == GREY:
                    return path[path.index(c):] + [c]
                if color[c] == WHITE:
                    color[c] = GREY
                    path.append(c)
                    stack.append(iter(children[c]))
                    break
            else:
                color[path.pop()] = BLACK
                stack.pop()
    return None


def reference_node_violations(nodes: Sequence[Node]) -> list[str]:
    """Every violation `validate_nodes` reports for ``nodes``, in its order:
    duplicate ids; per node its duplicate parents, dangling parents and
    state-list faults; value nodes with children; then, only if there is
    nothing else, a cycle."""
    violations: list[str] = []
    seen: set[str] = set()
    for n in nodes:
        if n.id in seen:
            violations.append(f"duplicate id: {n.id!r}")
        seen.add(n.id)
    by_id = {n.id: n for n in nodes}
    for n in nodes:
        if len(set(n.parents)) != len(n.parents):
            violations.append(f"duplicate parent entry on node {n.id!r}")
        for p in n.parents:
            if p not in by_id:
                violations.append(f"dangling parent: arc ({p!r}, {n.id!r})")
        if n.kind is Kind.VALUE:
            if n.states is not None:
                violations.append(f"value node with state list: {n.id!r}")
        else:
            if not n.states:
                violations.append(f"empty state list: {n.id!r}")
            elif len(set(n.states)) != len(n.states):
                violations.append(f"duplicate state label on node {n.id!r}")
    for n in nodes:
        for p in n.parents:
            if p in by_id and by_id[p].kind is Kind.VALUE:
                violations.append(f"value node with child: arc ({p!r}, {n.id!r})")
    if not violations:
        cycle = _reference_find_cycle([n.id for n in nodes], {n.id: n.parents for n in nodes})
        if cycle is not None:
            violations.append("cycle: " + " -> ".join(cycle))
    return violations


def _reference_text(value) -> bool:
    return isinstance(value, str) and not any("\ud800" <= ch <= "\udfff" for ch in value)


def reference_document_violations(description: Mapping) -> list[str]:
    """Every violation `model.validate` reports for a parsed document."""
    raw_nodes = description.get("nodes")
    if not isinstance(raw_nodes, list):
        return ["missing or malformed 'nodes' list"]
    violations: list[str] = []
    nodes: list[Node] = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, Mapping):
            violations.append(f"node #{i} is not a mapping")
            continue
        node_id = raw.get("id")
        if not _reference_text(node_id) or not node_id:
            violations.append(f"node #{i} has no usable id")
            continue
        kind_raw = raw.get("kind")
        try:
            kind = Kind(kind_raw)
        except ValueError:
            violations.append(f"unknown kind {kind_raw!r} on node {node_id!r}")
            continue
        states_raw = raw.get("states")
        if states_raw is not None and not (
            isinstance(states_raw, list) and all(_reference_text(s) for s in states_raw)
        ):
            violations.append(f"malformed state list on node {node_id!r}")
            continue
        parents_raw = raw.get("parents", [])
        if not (isinstance(parents_raw, list) and all(_reference_text(p) for p in parents_raw)):
            violations.append(f"malformed parent list on node {node_id!r}")
            continue
        states = None if states_raw is None else tuple(states_raw)
        nodes.append(Node(node_id, kind, states, tuple(parents_raw)))
    return violations + reference_node_violations(nodes)


# ---------------------------------------------------------------------------
# brute-force reachability and d-connection, read off the nodes' parent lists


def all_arcs(d: Diagram) -> list[tuple[str, str]]:
    return [(p, n.id) for n in d.nodes for p in n.parents]


def bare_arcs(d: Diagram) -> list[tuple[str, str]]:
    """The arcs that do not end at a decision."""
    return [(p, n.id) for n in d.nodes if n.kind is not Kind.DECISION for p in n.parents]


def bf_reachable(arcs, sources) -> set[str]:
    """Every node at the head of a directed path of one or more arcs from a
    source, by sweeping the whole arc list until nothing is added."""
    out: set[str] = set()
    while True:
        new = {h for t, h in arcs if (t in sources or t in out) and h not in out}
        if not new:
            return out
        out |= new


def moral_d_connected(arcs, source: str, targets, conditioning) -> bool:
    """True iff an active trail links ``source`` to a target outside the
    conditioning set, decided by the moralized ancestral graph (Lauritzen,
    Dawid, Larsen & Leimer, Networks 1990): keep the source, the targets,
    the conditioning set and their ancestors, link every two parents of a
    kept node, drop directions, and look for a path from the source to a
    target that avoids the conditioning set.  A source that is its own
    target is connected."""
    assert source not in conditioning
    targets = set(targets) - set(conditioning)
    keep = {source} | targets | set(conditioning)
    keep |= bf_reachable([(h, t) for t, h in arcs], keep)
    links: dict[str, set[str]] = {v: set() for v in keep}
    for v in keep:
        parents = [t for t, h in arcs if h == v]
        for a, b in [(p, v) for p in parents] + list(itertools.combinations(parents, 2)):
            links[a].add(b)
            links[b].add(a)
    seen, stack = {source}, [source]
    while stack:
        v = stack.pop()
        if v in targets:
            return True
        for w in links[v] - seen:
            if w not in conditioning:
                seen.add(w)
                stack.append(w)
    return False


# ---------------------------------------------------------------------------
# naive partial-order fixpoint (independent of ordering.induce_partial_order)


def _closed(ps: set) -> set:
    """The transitive closure of the pairs ``ps``, by naive fixpoint."""
    ps = set(ps)
    while True:
        extra_pairs = {
            (x, z)
            for (x, y) in ps
            for (y2, z) in ps
            if y == y2 and (x, z) not in ps
        }
        if not extra_pairs:
            return ps
        ps |= extra_pairs


def naive_base_pairs(d: Diagram, extra=()) -> set[tuple[str, str]]:
    """The pairs of induction clauses (a) and (b) plus ``extra``, closed by
    naive fixpoint."""
    carrier = list(d.carrier_ids)
    decisions = [v for v in carrier if d.kind(v) is Kind.DECISION]
    pairs: set[tuple[str, str]] = set(extra)
    for dec in decisions:
        for p in d.parents(dec):
            if p in carrier:
                pairs.add((p, dec))
    arcs = all_arcs(d)
    for dec in decisions:
        for y in bf_reachable(arcs, {dec}):
            if y in carrier:
                pairs.add((dec, y))
    return _closed(pairs)


def naive_partial_order(d: Diagram, extra=()) -> dict[str, set[str]]:
    carrier = list(d.carrier_ids)
    decisions = [v for v in carrier if d.kind(v) is Kind.DECISION]
    chance = [v for v in carrier if d.kind(v) is Kind.CHANCE]
    pairs = naive_base_pairs(d, extra)
    for a in chance:
        if not any((a, dj) in pairs for dj in decisions):
            pairs |= {(di, a) for di in decisions}
    pairs = _closed(pairs)
    while True:
        new = {
            (di, a)
            for di in decisions
            for a in chance
            if (a, di) not in pairs
            and (di, a) not in pairs
            and any((di, dj) in pairs and (a, dj) in pairs for dj in decisions)
        }
        if not new:
            break
        pairs = _closed(pairs | new)
    out: dict[str, set[str]] = {v: set() for v in carrier}
    for x, y in pairs:
        out[x].add(y)
    return out


# ---------------------------------------------------------------------------
# brute-force admissible-order enumeration


def all_admissible_orders(po: PartialOrder):
    carrier = list(po.carrier)

    def rec(remaining: list[str], acc: list[str]):
        if not remaining:
            yield tuple(acc)
            return
        for v in remaining:
            if any(v in po.succ[u] for u in remaining if u != v):
                continue
            acc.append(v)
            yield from rec([u for u in remaining if u != v], acc)
            acc.pop()

    yield from rec(carrier, [])


def is_admissible(po: PartialOrder, order: Sequence[str]) -> bool:
    """True iff ``order`` (a permutation of the carrier) violates no
    precedence pair."""
    if sorted(order) != sorted(po.carrier):
        raise ValueError("order is not a permutation of the carrier set")
    pos = {v: i for i, v in enumerate(order)}
    return all(
        pos[x] < pos[y] for x in po.carrier for y in po.succ[x]
    )


def schema_of(d: Diagram, order: Sequence[str]) -> OrderSchema:
    """The schema induced by a total order: its decision subsequence plus,
    for each chance node, the number of decisions appearing before it."""
    seq = tuple(v for v in order if d.kind(v) is Kind.DECISION)
    count = 0
    slot_map: dict[str, int] = {}
    for v in order:
        if d.kind(v) is Kind.DECISION:
            count += 1
        else:
            slot_map[v] = count
    slots = tuple((c, slot_map[c]) for c in d.chance_ids)
    return OrderSchema(seq, slots)


def swap_graph_connected(po: PartialOrder) -> bool:
    """BFS over admissible total orders with adjacent-incompatible swaps."""
    orders = list(all_admissible_orders(po))
    if not orders:
        return True
    seen = {orders[0]}
    queue = [orders[0]]
    while queue:
        o = queue.pop()
        for i in range(len(o) - 1):
            if po.incompatible(o[i], o[i + 1]):
                swapped = o[:i] + (o[i + 1], o[i]) + o[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return len(seen) == len(orders)


# ---------------------------------------------------------------------------
# reference pair scan: filter the full schema stream for each pair


def full_stream_pair_schemas(analysis, a: str, dec: str):
    """Every admissible schema placing ``a`` in the slot immediately before
    ``dec``, found by filtering the whole schema stream."""
    for schema in enumerate_schemas(analysis.diagram, analysis.po):
        if schema.slot_of[a] == schema.position(dec) - 1:
            yield schema


def exact_witnesses(d: Diagram) -> tuple:
    """The first firing schema of every incompatible (chance, decision)
    pair, found by running ``significant_rel`` over the filtered full schema
    stream, in report order (decision, then chance, in declaration order)."""
    analysis = Analysis(d)
    witnesses = []
    for dec in d.decision_ids:
        for a in d.chance_ids:
            if not analysis.po.incompatible(a, dec):
                continue
            for schema in full_stream_pair_schemas(analysis, a, dec):
                w = analysis.significant_rel(schema, a, dec)
                if w is not None:
                    witnesses.append(w)
                    break
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# reference significance pass: one backward pass over the whole carrier,
# every component's placements tracked jointly


def reference_significant(analysis: Analysis) -> frozenset[tuple[str, str]]:
    """The significant (chance, decision) pairs of ``analysis``, by one
    backward pass over decision positions on the whole diagram.  A state is
    the upward-closed set of placed carrier nodes plus the outcomes of the
    placed decisions; (A, D) is significant iff some step placing D puts A
    in required(D) while A precedes no decision of D's past.  Raises
    ``ScanBudgetExceeded`` past ``MAX_SCAN_STATES`` states.  The rules
    take and return masks over the bare view, so outcomes are held as
    masks and every past is converted at the call."""

    def admit(states: int) -> None:
        if states > analysis_module.MAX_SCAN_STATES:
            raise analysis_module.ScanBudgetExceeded(
                "the significance pass needs more than the limit of "
                f"{analysis_module.MAX_SCAN_STATES} states"
            )

    d, po = analysis.diagram, analysis.po
    carrier = frozenset(d.carrier_ids)
    pairs = {(a, dec) for dec in d.decision_ids for a in d.chance_ids if po.incompatible(a, dec)}
    pending = set(pairs)
    decisions_after = {v: po.succ[v] & set(d.decision_ids) for v in carrier}
    # a slot's chance nodes with their successors first
    chance = sorted(d.chance_ids, key=lambda c: len(po.succ[c]))
    states: set[tuple[frozenset[str], frozenset]] = {(frozenset(), frozenset())}
    visited = len(states)
    while states and pending:
        step: set[tuple[frozenset[str], frozenset]] = set()
        for placed, later in states:
            free = carrier - placed
            for dec in d.decision_ids:
                if dec not in free or not decisions_after[dec] <= placed:
                    continue
                slots = [po.succ[dec] & free]
                for c in chance:
                    if c in free and c not in slots[0] and decisions_after[c] <= placed:
                        need = po.succ[c] & free
                        slots += [s | {c} for s in slots if need <= s]
                        admit(visited + len(slots))
                for slot in slots:
                    past = free - slot - {dec}
                    rel, req = analysis._outcome(d.bare.index[dec], d.bare.mask_of(past), later)
                    for a in d.bare.ids_of(req):
                        if decisions_after[a].isdisjoint(past):
                            pending.discard((a, dec))
                    step.add((carrier - past, later | {(d.bare.index[dec], rel, req)}))
                admit(visited + len(step))
        visited += len(step)
        states = step
    return frozenset(pairs - pending)


# ---------------------------------------------------------------------------
# reference rules: the relevant/required recursion run down each schema's
# decision sequence, memoized per (decision, schema suffix)


class ReferenceRules:
    """The rules of ``pidcheck.analysis`` evaluated schema by schema: every
    later decision's sets are recomputed for the schema at hand, and every
    candidate gets its own d-connection queries, answered on the moralized
    ancestral graph rather than by the package's ball passing."""

    def __init__(self, d: Diagram):
        self.diagram = d
        self.po = induce_partial_order(d)
        self.bare = bare_arcs(d)
        self._bare_desc = {v: bf_reachable(self.bare, {v}) for v in d.ids}
        self._relevant_memo: dict[tuple, frozenset[str]] = {}
        self._required_memo: dict[tuple, frozenset[str]] = {}
        self._clause_memo: dict[tuple, tuple | None] = {}

    @staticmethod
    def _suffix_key(schema, dec: str) -> tuple:
        k = schema.position(dec)
        later_slots = tuple((c, s - k) for c, s in schema.slots if s >= k)
        return (dec, schema.decision_sequence[k - 1:], later_slots)

    def relevant_utilities(self, schema, dec: str) -> frozenset[str]:
        key = self._suffix_key(schema, dec)
        if key in self._relevant_memo:
            return self._relevant_memo[key]
        rel: set[str] = set()
        desc = self._bare_desc[dec]
        for v in self.diagram.value_ids:  # direct influence on the payoff
            if v in desc:
                rel.add(v)
        for later in schema.decision_sequence[schema.position(dec):]:
            later_rel = self.relevant_utilities(schema, later)
            missing = [v for v in later_rel if v not in rel]
            if not missing:
                continue
            later_req = self.required_variables(schema, later)
            feeds = dec in later_req or any(
                x in later_req
                for x in schema.pred(later)
                if self.diagram.kind(x) is Kind.CHANCE and x in desc
            )
            if feeds:
                rel.update(missing)
        out = frozenset(rel)
        self._relevant_memo[key] = out
        return out

    def required_variables(self, schema, dec: str) -> frozenset[str]:
        key = self._suffix_key(schema, dec)
        if key in self._required_memo:
            return self._required_memo[key]
        result = frozenset(x for x in schema.pred(dec) if self.clause(schema, dec, x) is not None)
        self._required_memo[key] = result
        return result

    def clause(self, schema, dec: str, x: str) -> tuple | None:
        """(clause, utility, later decision, chain node) of the first clause
        that makes x required for ``dec`` under ``schema``, or None."""
        memo_key = (self._suffix_key(schema, dec), x)
        if memo_key not in self._clause_memo:
            self._clause_memo[memo_key] = self._required_one(schema, dec, x)
        return self._clause_memo[memo_key]

    def _required_one(self, schema, dec: str, x: str) -> tuple | None:
        pred = schema.pred(dec)
        rel = self.relevant_utilities(schema, dec)
        conditioning = (pred | {dec}) - {x}
        if moral_d_connected(self.bare, x, rel, conditioning):
            psi = next(v for v in self.diagram.value_ids
                       if v in rel and moral_d_connected(self.bare, x, {v}, conditioning))
            return ("direct", psi, None, None)
        for later in schema.decision_sequence[schema.position(dec):]:
            common = rel & self.relevant_utilities(schema, later)
            if not common:
                continue
            later_req = self.required_variables(schema, later)
            psi = self.diagram.sort_ids(common)[0]
            if x in later_req:
                return ("later-required", psi, later, None)
            for y in self.diagram.sort_ids(schema.pred(later)):
                if (
                    self.diagram.kind(y) is Kind.CHANCE
                    and y in later_req
                    and y != x
                    and moral_d_connected(self.bare, x, {y}, conditioning)
                ):
                    return ("later-chain", psi, later, y)
        return None

    def witnesses(self) -> tuple:
        """The witness of every significant incompatible (chance, decision)
        pair: its first firing schema in the filtered full schema stream, in
        report order."""
        d = self.diagram
        out = []
        for dec in d.decision_ids:
            for a in d.chance_ids:
                if not self.po.incompatible(a, dec):
                    continue
                for schema in full_stream_pair_schemas(self, a, dec):
                    hit = self.clause(schema, dec, a)
                    if hit is not None:
                        clause, psi, later, chain = hit
                        out.append(Witness(a, dec, schema, psi, clause, later, chain))
                        break
        return tuple(out)


def replay_witness(d: Diagram, w: Witness) -> bool:
    """Re-derive a witness verdict from its trace alone: the clause's sets
    come from a fresh analysis, its d-connections from the moralized
    ancestral graph."""
    analysis = Analysis(d)
    bare = bare_arcs(d)
    conditioning = (w.schema.pred(w.decision) | {w.decision}) - {w.chance}
    if w.utility not in analysis.relevant_utilities(w.schema, w.decision):
        return False
    if w.clause == "direct":
        return moral_d_connected(bare, w.chance, {w.utility}, conditioning)
    if w.later_decision is None:
        return False
    later_rel = analysis.relevant_utilities(w.schema, w.later_decision)
    later_req = analysis.required_variables(w.schema, w.later_decision)
    if w.utility not in later_rel:
        return False
    if w.clause == "later-required":
        return w.chance in later_req
    if w.clause == "later-chain":
        return (
            w.chain_node is not None
            and w.chain_node in later_req
            and w.chain_node in w.schema.pred(w.later_decision)
            and moral_d_connected(bare, w.chance, {w.chain_node}, conditioning)
        )
    return False


# ---------------------------------------------------------------------------
# reference repair search: a fresh Analysis check per recheck, on a
# diagram validated in full by validate_nodes


def reference_suggest(d: Diagram, report: Report) -> tuple[Proposal, ...]:
    """The greedy repair search of ``suggest_resolutions`` with nothing
    shared between rechecks."""
    if report.welldefined:
        return ()
    proposals: list[Proposal] = []
    seen: set[tuple] = set()

    def recheck(constraints):
        parents = {n.id: n.parents for n in d.nodes}
        for kind, x, y in constraints:
            if kind == "observe" and x not in parents[y]:
                parents[y] += (x,)
        current = validate_nodes([Node(n.id, n.kind, n.states, parents[n.id]) for n in d.nodes])
        return Analysis(current).constrained([c for c in constraints if c[0] == "precede"]).check()

    def grow(constraints, rep: Report, depth: int) -> None:
        if constraints in seen:
            return
        seen.add(constraints)
        proposals.append(Proposal(constraints=constraints, welldefined=rep.welldefined))
        if rep.welldefined or depth <= 0 or not rep.witnesses:
            return
        w = rep.witnesses[0]
        for option in (("observe", w.chance, w.decision), ("precede", w.decision, w.chance)):
            try:
                nxt = constraints + (option,)
                grow(nxt, recheck(nxt), depth - 1)
            except InconsistentOrder:
                continue

    for w in report.witnesses:
        for option in (("observe", w.chance, w.decision), ("precede", w.decision, w.chance)):
            try:
                rep = recheck((option,))
            except InconsistentOrder:
                continue
            grow((option,), rep, depth=len(report.witnesses) + 1)
    proposals.sort(key=lambda p: (not p.welldefined, len(p.constraints)))
    return tuple(proposals)


# ---------------------------------------------------------------------------
# W(k): k independent S_i -> D_i -> U_i triples.  The shared variant adds a
# hidden H -> S_i and H into every U_i, which makes every (S_i, D_j) with
# i != j significant through the direct clause.  The mixed variant adds H to
# triples 0 and 1 only, so of the k(k-1) incompatible pairs exactly (S0, D1)
# and (S1, D0) are significant, through the direct clause.  The coupled
# variant adds H into every U_i and a hidden S_i -> C_i -> U_i: the bare graph
# is then one component, yet every U_i is a collider between the triples, so
# no pair is significant.


def w_family(k: int, shared: bool | str = False) -> Diagram:
    """W(k); ``shared`` is True for W(k)-shared, "mixed" for mixed W(k) and
    "coupled" for coupled W(k)."""
    binary, act = ("s1", "s2"), ("d1", "d2")
    coupled = shared == "coupled"

    def hidden(i: int) -> tuple[str, ...]:
        return ("H",) if shared is True or coupled or (shared == "mixed" and i < 2) else ()

    nodes = [Node("H", Kind.CHANCE, binary, ())] if shared else []
    nodes += [Node(f"S{i}", Kind.CHANCE, binary, () if coupled else hidden(i)) for i in range(k)]
    if coupled:
        nodes += [Node(f"C{i}", Kind.CHANCE, binary, (f"S{i}",)) for i in range(k)]
    nodes += [Node(f"D{i}", Kind.DECISION, act, (f"S{i}",)) for i in range(k)]
    nodes += [
        Node(f"U{i}", Kind.VALUE, None, (f"D{i}",) + hidden(i) + ((f"C{i}",) if coupled else ()))
        for i in range(k)
    ]
    return validate_nodes(nodes)


def w_family_expected(k: int, shared: bool | str = False) -> dict:
    """The check verdict, pairs and witnesses of W(k), known by construction."""
    pairs = sorted((f"S{i}", f"D{j}") for i in range(k) for j in range(k) if i != j)
    sharing = range(k) if shared is True else range(2) if shared == "mixed" else ()
    witnesses = sorted(
        (f"S{i}", f"D{j}", f"U{j}", "direct") for i in sharing for j in sharing if i != j
    )
    return {"welldefined": not witnesses, "pairs": pairs, "witnesses": witnesses}


# ---------------------------------------------------------------------------
# brute-force d-separation over simple trails


def bf_d_connected(view, src: str, dst: str, z: set[str]) -> bool:
    if src == dst:
        return True
    arcs = set(view.arc_list)
    neighbors: dict[str, set[str]] = {v: set() for v in view.node_ids}
    for t, h in arcs:
        neighbors[t].add(h)
        neighbors[h].add(t)
    children: dict[str, set[str]] = {v: set() for v in view.node_ids}
    for t, h in arcs:
        children[t].add(h)

    def descendants(v: str) -> set[str]:
        out, stack = set(), [v]
        while stack:
            u = stack.pop()
            for c in children[u]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    def trail_active(path: list[str]) -> bool:
        for i in range(1, len(path) - 1):
            prev, v, nxt = path[i - 1], path[i], path[i + 1]
            collider = (prev, v) in arcs and (nxt, v) in arcs
            if collider:
                if v not in z and not (descendants(v) & z):
                    return False
            else:
                if v in z:
                    return False
        return True

    def rec(path: list[str]) -> bool:
        last = path[-1]
        if last == dst:
            return trail_active(path)
        for nbr in neighbors[last]:
            if nbr in path:
                continue
            if rec(path + [nbr]):
                return True
        return False

    return rec([src])


# ---------------------------------------------------------------------------
# brute-force strategy enumeration (exact MEU by exhaustion)


def bf_best_meu(d: Diagram, realization, schema) -> float:
    order = schema.induced_order()
    chance = [v for v in order if d.kind(v) is Kind.CHANCE]
    decisions = [v for v in order if d.kind(v) is Kind.DECISION]
    pred = {dec: tuple(order[: order.index(dec)]) for dec in decisions}

    def configs(var_list):
        return itertools.product(*(range(len(d.states(v))) for v in var_list))

    function_spaces = []
    for dec in decisions:
        domain = list(configs(pred[dec]))
        n_states = len(d.states(dec))
        function_spaces.append(
            [dict(zip(domain, pick)) for pick in itertools.product(range(n_states), repeat=len(domain))]
        )

    state_index = {v: {s: i for i, s in enumerate(d.states(v))} for v in order}

    def expected_utility(profile) -> float:
        total = 0.0
        for chance_config in configs(chance):
            assignment: dict[str, int] = dict(zip(chance, chance_config))
            for dec, fn in zip(decisions, profile):
                key = tuple(assignment[v] for v in pred[dec])
                assignment[dec] = fn[key]
            weight = 1.0
            for c in chance:
                idx = tuple(assignment[p] for p in d.parents(c)) + (assignment[c],)
                weight *= realization.cpts[c][idx]
            util = 0.0
            for v in d.value_ids:
                idx = tuple(assignment[p] for p in d.parents(v))
                util += float(realization.utilities[v][idx]) if idx else float(realization.utilities[v])
            total += weight * util
        return total

    return max(expected_utility(p) for p in itertools.product(*function_spaces))


# ---------------------------------------------------------------------------
# dense reference solver: one joint table over the whole carrier, reduced
# axis by axis (independent of the factored oracle.solve)


def _embed(table, vars_of_table, axis_index, ndim):
    """View of ``table`` broadcast over the global axis layout."""
    src = list(range(len(vars_of_table)))
    dest_axes = [axis_index[v] for v in vars_of_table]
    order = np.argsort(dest_axes)
    t = np.transpose(table, axes=[src[i] for i in order])
    shape = [1] * ndim
    for v in vars_of_table:
        shape[axis_index[v]] = table.shape[list(vars_of_table).index(v)]
    return t.reshape(shape)


def dense_solve(d: Diagram, r, schema, tie_tol: float = 1e-9):
    """Eliminate variables in reverse schema order (sum over chance,
    max over decisions), recording for every decision its full
    decision-function table over the past, and return the total maximum
    expected utility."""
    r.validated(d)
    order = schema.induced_order()
    if sorted(order) != sorted(d.carrier_ids):
        raise ValueError("schema does not cover this diagram's chance and decision nodes")
    axis_index = {v: i for i, v in enumerate(order)}
    cards = [len(d.states(v)) for v in order]
    ndim = len(order)

    # Overflow shows up as non-finite entries, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.ones(tuple(cards))
        for c in d.chance_ids:
            vars_of = tuple(d.parents(c)) + (c,)
            weight = weight * _embed(r.cpts[c], vars_of, axis_index, ndim)
        util = np.zeros(tuple(cards))
        for v in d.value_ids:
            vars_of = tuple(d.parents(v))
            table = r.utilities[v]
            if table.ndim == 0:
                util = util + float(table)
            else:
                util = util + _embed(table, vars_of, axis_index, ndim)
        acc = weight * util
    if not np.all(np.isfinite(acc)):
        raise EvaluationError("evaluation failure: non-finite table entries")

    # Parallel reduction of the bare joint weight gives the probability mass
    # of each observed prefix: chance axes are summed; a decision axis is
    # averaged, i.e. an uninstantiated decision counts as a chance node with
    # an even prior.  Dividing by it turns accumulated joint values into
    # conditional expected utilities without ever disturbing a maximizer
    # (the divisor carries no axis for the decision being maximized).
    w_acc = weight
    rules: dict[str, DecisionRule] = {}
    for i in range(ndim - 1, -1, -1):
        v = order[i]
        if d.kind(v) is Kind.CHANCE:
            acc = acc.sum(axis=-1)
            w_acc = w_acc.sum(axis=-1)
            continue
        w_past = w_acc.mean(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(w_past[..., None] > 0.0, acc / w_past[..., None], 0.0)
        if not np.all(np.isfinite(rho)):
            raise EvaluationError("evaluation failure: non-finite expected utility")
        best = rho.max(axis=-1)
        tol = tie_tol * np.maximum(1.0, np.abs(best))
        ties = rho >= (best - tol)[..., None]
        rules[v] = DecisionRule(
            decision=v,
            pred_vars=tuple(order[:i]),
            states=d.states(v),
            ties=ties,
            values=best,
        )
        acc = acc.max(axis=-1)
        w_acc = w_past
    meu = float(acc)
    if not np.isfinite(meu):
        raise EvaluationError("evaluation failure: non-finite MEU")
    return Strategy(schema=schema, rules=rules), meu


# ---------------------------------------------------------------------------
# random significance search: an incomplete, realization-level check of a
# significant pair, kept for the tests that pin counterexamples


def with_slot(schema: OrderSchema, chance_id: str, slot: int) -> OrderSchema:
    slots = tuple((c, slot if c == chance_id else s) for c, s in schema.slots)
    return OrderSchema(schema.decision_sequence, slots)


def _rule_differs_with_extra_coord(rich: DecisionRule, poor: DecisionRule, extra: str) -> tuple | None:
    """First configuration where the richer table (past includes ``extra``)
    fails to be constant in ``extra`` and equal to the poorer table."""
    axis = rich.pred_vars.index(extra)
    moved = np.moveaxis(rich.ties, axis, -2)
    perm = [poor.pred_vars.index(v) for v in rich.pred_vars if v != extra]
    poor_ties = poor.ties.transpose(perm + [len(perm)])
    differs = np.any(moved != poor_ties[..., None, :], axis=-1)
    hits = np.argwhere(differs.reshape(-1, differs.shape[-1]))
    if len(hits) == 0:
        return None
    j, k = hits[0]
    return (int(j), int(k))


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A realization plus an order-schema pair under which the decision
    function changes when the chance node crosses the decision."""

    chance: str
    decision: str
    realization: Realization
    schema_before: OrderSchema
    schema_after: OrderSchema
    trial: int
    detail: tuple


def _swap_schemas(a: str, dec: str, schemas) -> list[tuple[OrderSchema, OrderSchema]]:
    out = []
    for s in schemas:
        k = s.position(dec)
        if s.slot_of[a] == k - 1:
            out.append((s, with_slot(s, a, k)))
    return out


def significance_search(
    d: Diagram,
    a: str,
    dec: str,
    trials: int = 200,
    seed: int = 0,
    try_first=(),
) -> Counterexample | None:
    """Random search for a realization under which observing ``a`` just
    before ``dec`` changes the optimal decision function.

    For every candidate realization and every admissible schema placing
    ``a`` immediately before ``dec``, solve, shift ``a`` to just after
    ``dec``, solve again, and compare the decision function on the common
    past: the richer table must be constant in ``a``'s coordinate and match
    the poorer one.  Returns the first discrepancy (lowest trial index), or
    None - random search is incomplete, so None is inconclusive.
    """
    po = induce_partial_order(d)
    if not po.incompatible(a, dec):
        raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
    pairs = _swap_schemas(a, dec, list(enumerate_schemas(d, po)))

    def check(r: Realization) -> tuple | None:
        for before, after in pairs:
            s_before, _ = solve(d, r, before)
            s_after, _ = solve(d, r, after)
            diff = _rule_differs_with_extra_coord(s_before.rules[dec], s_after.rules[dec], a)
            if diff is not None:
                return (before, after, diff)
        return None

    first = list(try_first)

    def candidates():
        yield from enumerate(first)
        for t in range(trials):
            trial_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
            yield len(first) + t, random_realization(d, trial_seed)

    for trial, r in candidates():
        if check(r) is None:
            continue
        r = _minimize_counterexample(d, r, check)
        before, after, detail = check(r)  # re-derive on the minimized tables
        return Counterexample(
            chance=a,
            decision=dec,
            realization=r,
            schema_before=before,
            schema_after=after,
            trial=trial,
            detail=detail,
        )
    return None


def _minimize_counterexample(d: Diagram, r: Realization, check) -> Realization:
    """Greedily round CPT entries to {0, 1/2, 1} while the discrepancy
    persists, to shrink reproduction fixtures."""
    grid = np.array([0.0, 0.5, 1.0])
    cpts = {k: v.copy() for k, v in r.cpts.items()}
    for c in sorted(cpts):
        table = cpts[c]
        rows = table.reshape(-1, table.shape[-1])
        for i in range(rows.shape[0]):
            original = rows[i].copy()
            rounded = grid[np.abs(rows[i][:, None] - grid[None, :]).argmin(axis=1)]
            total = rounded.sum()
            if total <= 0:
                continue
            rows[i] = rounded / total
            if check(Realization(cpts, r.utilities)) is None:
                rows[i] = original
    return Realization(cpts, r.utilities).validated(d)


# ---------------------------------------------------------------------------
# reference per-schema elimination: `oracle.solve_many` as it was before
# `oracle.solve_schemas` shared eliminations across schemas, one full
# elimination per call with factor axes in schema order


# A factor's variables are sorted by schema position; its table's first axis
# is the trial, and the others follow the variables.
_RefFactor = tuple[tuple[str, ...], "np.ndarray"]


def _ref_check_cells(scope: Sequence[str], cards: Mapping[str, int]) -> None:
    cells = 1
    for v in scope:
        cells *= cards[v]
    if cells > oracle.MAX_TABLE_CELLS:
        raise EvaluationError(
            f"evaluation failure: a table over {len(scope)} variables needs {cells} cells, "
            f"over the oracle limit of {oracle.MAX_TABLE_CELLS} cells"
        )


def _ref_aligned(factors: Sequence[_RefFactor], scope: Sequence[str], cards: Mapping[str, int]) -> list[np.ndarray]:
    """Each factor's table reshaped to broadcast over the trial axis and the
    axes of ``scope``, a sorted superset of its variables."""
    return [
        table.reshape([table.shape[0]] + [cards[v] if v in vars_of else 1 for v in scope])
        for vars_of, table in factors
    ]


def _ref_product(phis: Sequence[_RefFactor], scope: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    import numpy as np

    tables = _ref_aligned(phis, scope, cards)
    if not tables:
        return np.ones((1,) * (len(scope) + 1))
    return reduce(np.multiply, tables[1:], tables[0])


def _ref_utility(psis: Sequence[_RefFactor], scope: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    import numpy as np

    tables = _ref_aligned(psis, scope, cards)
    if not tables:
        return np.zeros((1,) * (len(scope) + 1))
    total = reduce(np.add, tables[1:], tables[0])
    if not np.isfinite(total).all():
        raise EvaluationError("evaluation failure: non-finite table entries")
    return total


def _ref_split(factors: list[_RefFactor], v: str) -> tuple[list[_RefFactor], list[_RefFactor]]:
    """(factors over ``v``, the others)."""
    return [f for f in factors if v in f[0]], [f for f in factors if v not in f[0]]


def reference_solve_many(
    d: Diagram, realizations: Sequence[Realization], schema: OrderSchema
) -> list[tuple[Strategy, float]]:
    """Eliminate variables in reverse schema order (sum over chance,
    max over decisions), recording for every decision its full
    decision-function table over the past, and return, per realization,
    the strategy and the total maximum expected utility.  Raises
    EvaluationError on non-finite tables and on any table over
    MAX_TABLE_CELLS per realization."""
    import numpy as np

    for r in realizations:
        r.validated(d)
    if not realizations:
        return []
    order = schema.induced_order()
    if sorted(order) != sorted(d.carrier_ids):
        raise ValueError("schema does not cover this diagram's chance and decision nodes")
    position = {v: i for i, v in enumerate(order)}
    cards = {v: len(d.states(v)) for v in order}
    n = len(realizations)

    def scope_of(factors: Sequence[_RefFactor]) -> tuple[str, ...]:
        # Every factor lies in the prefix ending at the variable being
        # eliminated, so that variable comes last.
        return tuple(sorted({v for vars_of, _ in factors for v in vars_of}, key=position.__getitem__))

    def factor(vars_of: tuple[str, ...], tables: list[np.ndarray]) -> _RefFactor:
        perm = sorted(range(len(vars_of)), key=lambda j: position[vars_of[j]])
        if n == 1:  # no copy: the trial axis is added to a view
            return tuple(vars_of[j] for j in perm), tables[0].transpose(perm)[None]
        return tuple(vars_of[j] for j in perm), np.stack(tables).transpose([0] + [j + 1 for j in perm])

    phis = [factor(d.parents(c) + (c,), [r.cpts[c] for r in realizations]) for c in d.chance_ids]
    psis = [factor(d.parents(v), [r.utilities[v] for r in realizations]) for v in d.value_ids]
    # Per decision: its past, and the tie and value tables with the trial axis first.
    rules: dict[str, tuple[tuple[str, ...], np.ndarray, np.ndarray]] = {}
    # Overflow shows up as non-finite entries.  Every utility factor ends up
    # in some _utility sum, which reports them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(order) - 1, -1, -1):
            v = order[i]
            phi_v, phis = _ref_split(phis, v)
            psi_v, psis = _ref_split(psis, v)
            if d.kind(v) is Kind.CHANCE:
                # phi' = sum_v prod(phi_v); psi' = sum_v prod(phi_v) sum(psi_v) / phi'.
                scope = scope_of(phi_v + psi_v)
                _ref_check_cells(scope, cards)
                joint = _ref_product(phi_v, scope, cards)
                marginal = joint.sum(axis=-1)
                phi_scope = scope_of(phi_v)[:-1]
                phis.append((phi_scope, marginal.reshape([n] + [cards[u] for u in phi_scope])))
                if psi_v:
                    expected = (joint * _ref_utility(psi_v, scope, cards)).sum(axis=-1)
                    psis.append((scope[:-1], np.where(marginal > 0.0, expected / marginal, 0.0)))
                continue
            # Every remaining factor lies in order[:i + 1].  Descendants of
            # the decision all come after it, so the weight of the past does
            # not depend on it, and the summed utility factors are the
            # expected utility wherever the past has positive weight.
            scope = order[: i + 1]
            _ref_check_cells(scope, cards)
            possible = _ref_product(phis + phi_v, scope, cards).any(axis=-1)
            rho = np.zeros([n] + [cards[u] for u in scope])
            np.copyto(rho, _ref_utility(psis + psi_v, scope, cards), where=possible[..., None])
            best = rho.max(axis=-1)
            tol = oracle.DEFAULT_TIE_TOL * np.maximum(1.0, np.abs(best))
            rules[v] = (tuple(order[:i]), rho >= (best - tol)[..., None], best)
            if phi_v:
                scope = scope_of(phi_v)
                phis.append((scope[:-1], _ref_product(phi_v, scope, cards).mean(axis=-1)))
            if psi_v:
                scope = scope_of(psi_v)
                psis.append((scope[:-1], _ref_utility(psi_v, scope, cards).max(axis=-1)))
        # Without chance and value nodes the product has no trial axis.
        meus = _ref_product(phis, (), cards) * _ref_utility(psis, (), cards) * np.ones(n)
    if not np.isfinite(meus).all():
        raise EvaluationError("evaluation failure: non-finite MEU")
    return [
        (
            Strategy(
                schema=schema,
                rules={
                    dec: DecisionRule(dec, pred_vars, d.states(dec), ties[k], values[k])
                    for dec, (pred_vars, ties, values) in rules.items()
                },
            ),
            meu,
        )
        for k, meu in enumerate(meus.tolist())
    ]


def trial_strategies(
    d: Diagram, schema: OrderSchema, rules: Mapping[str, oracle.BatchedRule], meus: Sequence[float]
) -> list[tuple[Strategy, float]]:
    """Per trial, the strategy and MEU of one `solve_schemas` step, in the
    form `reference_solve_many` gives them: each rule a view of its trial
    with the past in schema order.  Asserts that each batched past is the
    decision's schema past in declaration order."""
    order = schema.induced_order()
    out = []
    for k, meu in enumerate(meus):
        strategy = {}
        for dec, rule in rules.items():
            past = order[: order.index(dec)]
            assert rule.pred_vars == tuple(v for v in d.carrier_ids if v in past)
            perm = [rule.pred_vars.index(v) for v in past]
            ties, values = rule.ties[k].transpose(perm + [len(perm)]), rule.values[k].transpose(perm)
            strategy[dec] = DecisionRule(dec, past, d.states(dec), ties, values)
        out.append((Strategy(schema, strategy), meu))
    return out


# ---------------------------------------------------------------------------
# reference checks on one rule, one past variable at a time, independent of
# the batched `oracle.required_per_trial` and `oracle.rules_differ`


def naive_required(rule: DecisionRule) -> frozenset[str]:
    """The past variables along whose axis some slice of the maximizer
    table differs from the first."""
    out: set[str] = set()
    for axis, var in enumerate(rule.pred_vars):
        first = rule.ties[(slice(None),) * axis + (slice(0, 1),)]
        if (rule.ties != first).any():
            out.add(var)
    return frozenset(out)


def naive_rules_differ(rule1: DecisionRule, rule2: DecisionRule, tol: float) -> bool | None:
    """None if the pasts differ as sets, else whether the maximizer tables
    differ or some value differs by more than ``tol`` relative to
    ``rule1``'s (absolute below 1), with the axes aligned by variable."""
    if set(rule1.pred_vars) != set(rule2.pred_vars):
        return None
    perm = [rule2.pred_vars.index(v) for v in rule1.pred_vars]
    if not np.array_equal(rule1.ties, rule2.ties.transpose(perm + [len(perm)])):
        return True
    scale = np.maximum(1.0, np.abs(rule1.values))
    return bool(np.any(np.abs(rule1.values - rule2.values.transpose(perm)) > tol * scale))


# ---------------------------------------------------------------------------
# reference fuzz: one lone per-schema elimination per (trial, schema), as
# `pidcheck fuzz` did before it solved a batch of trials per schema


def reference_fuzz(d: Diagram, trials: int, seed: int) -> tuple[int, str, dict]:
    """Exit code, text output and JSON payload (without the version and
    command keys) of `pidcheck fuzz`.  `Analysis.required_variables` and
    `oracle.strategies_equal` are looked up on each call, the latter
    compares through `oracle.rules_differ`, the comparator `fuzz` calls,
    and `enumerate_schemas` and `random_realization` are looked up in this
    module, so a test can patch them for this and the command alike.  An
    EvaluationError propagates."""
    analysis = Analysis(d)
    schemas = list(enumerate_schemas(d, analysis.po))
    # The verdict alone: recovering witnesses would read the required sets
    # that a test may patch.
    welldefined = not analysis.significant_pairs()
    failures: list[str] = []
    checked = 0
    for t in range(trials):
        r = random_realization(d, seed + t)
        strategies = [reference_solve_many(d, [r], s)[0][0] for s in schemas]
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
        if welldefined:
            base = strategies[0]
            for other in strategies[1:]:
                if oracle.strategies_equal(base, other) is Comparison.DIFFERENT:
                    failures.append(f"trial {t}: strategies differ across schemas")
    ok = not failures
    text = (
        f"fuzz: {trials} realizations x {len(schemas)} schemas, {checked} oracle checks: "
        + ("all consistent" if ok else f"{len(failures)} failures")
        + ("\n" + "\n".join(failures) if failures else "")
    )
    return (0 if ok else 1), text + "\n", {"ok": ok, "failures": failures, "checks": checked}


# ---------------------------------------------------------------------------
# reference table checks: the numpy checks that the document parser and
# `Realization.validated` ran before they were written in pure Python.  Each
# returns the first error message, or None.


def _reference_table(what: str, node_id: str, flat, shape: tuple[int, ...]) -> np.ndarray:
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


def _reference_validate(d: Diagram, cpts: dict, utilities: dict) -> None:
    for c in d.chance_ids:
        if c not in cpts:
            raise InvalidRealization(f"missing CPT for chance node {c!r}")
        expected = tuple(len(d.states(p)) for p in d.parents(c)) + (len(d.states(c)),)
        t = cpts[c]
        if t.shape != expected:
            raise InvalidRealization(f"CPT for {c!r} has shape {t.shape}, expected {expected}")
        if (t < 0).any() or (t > 1).any():
            raise InvalidRealization(f"CPT for {c!r} has entries outside [0, 1]")
        if not (np.abs(t.sum(axis=-1) - 1.0) <= CPT_ROW_TOL).all():
            raise InvalidRealization(f"CPT rows for {c!r} do not sum to 1")
    for v in d.value_ids:
        if v not in utilities:
            raise InvalidRealization(f"missing utility table for value node {v!r}")
        expected = tuple(len(d.states(p)) for p in d.parents(v))
        t = utilities[v]
        if t.shape != expected:
            raise InvalidRealization(f"utility table for {v!r} has shape {t.shape}, expected {expected}")


def reference_validated_error(d: Diagram, cpts: dict, utilities: dict) -> str | None:
    """`Realization(cpts, utilities).validated(d)` as numpy checked it."""
    try:
        _reference_validate(d, cpts, utilities)
    except InvalidRealization as exc:
        return str(exc)
    return None


def reference_document_error(d: Diagram, raw) -> str | None:
    """`cli.realization_from_raw(d, raw)` as numpy checked it.  An integer
    too large for a float raised OverflowError there."""
    try:
        if not isinstance(raw, dict):
            raise InvalidRealization("realization must be an object")

        def table_map(key: str) -> dict:
            tables = raw.get(key, {})
            if not isinstance(tables, dict):
                raise InvalidRealization(f"realization {key!r} must be an object")
            return tables

        cpts, utilities = {}, {}
        for node_id, flat in table_map("cpts").items():
            if node_id not in d or d.kind(node_id) is not Kind.CHANCE:
                raise InvalidRealization(f"cpt given for non-chance node {node_id!r}")
            shape = tuple(len(d.states(p)) for p in d.parents(node_id)) + (len(d.states(node_id)),)
            cpts[node_id] = _reference_table("cpt", node_id, flat, shape)
        for node_id, flat in table_map("utilities").items():
            if node_id not in d or d.kind(node_id) is not Kind.VALUE:
                raise InvalidRealization(f"utility given for non-value node {node_id!r}")
            shape = tuple(len(d.states(p)) for p in d.parents(node_id))
            utilities[node_id] = _reference_table("utility", node_id, flat, shape)
        _reference_validate(d, cpts, utilities)
    except InvalidRealization as exc:
        return str(exc)
    return None


def fingerprint(r) -> bytes:
    """The tables of a realization as bytes, for equality checks."""
    parts = []
    for k in sorted(r.cpts):
        parts.append(k.encode())
        parts.append(r.cpts[k].tobytes())
    for k in sorted(r.utilities):
        parts.append(k.encode())
        parts.append(r.utilities[k].tobytes())
    return b"|".join(parts)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
