"""Shared test helpers: independent brute-force oracles and generators.

The oracles here deliberately re-derive everything from first principles
with different data structures than the package, so agreement is evidence
rather than tautology.
"""
from __future__ import annotations

import itertools

import hypothesis
import numpy as np
import pytest

from pidcheck.analysis import Analysis, Proposal, Report, check_welldefined
from pidcheck.model import Diagram, Kind, Node, validate_nodes
from pidcheck.oracle import DecisionRule, EvaluationError, Strategy
from pidcheck.ordering import InconsistentOrder, PartialOrder, enumerate_schemas

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("suite")


# ---------------------------------------------------------------------------
# naive partial-order fixpoint (independent of ordering.induce_partial_order)


def naive_partial_order(d: Diagram, extra=()) -> dict[str, set[str]]:
    carrier = list(d.carrier_ids)
    decisions = [v for v in carrier if d.kind(v) is Kind.DECISION]
    chance = [v for v in carrier if d.kind(v) is Kind.CHANCE]
    pairs: set[tuple[str, str]] = set(extra)

    for dec in decisions:
        for p in d.parents(dec):
            if p in carrier:
                pairs.add((p, dec))
    for dec in decisions:
        for y in d.descendants(dec):
            if y in carrier:
                pairs.add((dec, y))

    def closed(ps: set) -> set:
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

    pairs = closed(pairs)
    for a in chance:
        if not any((a, dj) in pairs for dj in decisions):
            pairs |= {(di, a) for di in decisions}
    pairs = closed(pairs)
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
        pairs = closed(pairs | new)
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
            if any(po.precedes(u, v) for u in remaining if u != v):
                continue
            acc.append(v)
            yield from rec([u for u in remaining if u != v], acc)
            acc.pop()

    yield from rec(carrier, [])


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
    """The exact single-pair query on every incompatible (chance, decision)
    pair, keeping the witnesses in report order (decision, then chance, in
    declaration order)."""
    analysis = Analysis(d)
    witnesses = (
        analysis.is_significant(a, dec, exact=True)
        for dec in d.decision_ids
        for a in d.chance_ids
        if analysis.po.incompatible(a, dec)
    )
    return tuple(w for w in witnesses if w is not None)


def first_per_past(schemas, dec: str):
    """The first schema of each distinct past of ``dec``."""
    seen = set()
    for schema in schemas:
        past = schema.pred(dec)
        if past not in seen:
            seen.add(past)
            yield schema


# ---------------------------------------------------------------------------
# reference repair search: a fresh check_welldefined per recheck, one
# validated Diagram per observe constraint


def reference_suggest(d: Diagram, report: Report) -> tuple[Proposal, ...]:
    """The greedy repair search of ``suggest_resolutions`` with nothing
    shared between rechecks."""
    if report.welldefined:
        return ()
    proposals: list[Proposal] = []
    seen: set[tuple] = set()

    def recheck(constraints):
        current, extra = d, []
        for kind, x, y in constraints:
            if kind == "observe":
                current = current.with_arc(x, y)
            else:
                extra.append((x, y))
        return check_welldefined(current, extra_constraints=extra)

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
# i != j significant through the direct clause.


def w_family(k: int, shared: bool = False) -> Diagram:
    binary, act = ("s1", "s2"), ("d1", "d2")
    hidden = ("H",) if shared else ()
    nodes = [Node("H", Kind.CHANCE, binary, ())] if shared else []
    nodes += [Node(f"S{i}", Kind.CHANCE, binary, hidden) for i in range(k)]
    nodes += [Node(f"D{i}", Kind.DECISION, act, (f"S{i}",)) for i in range(k)]
    nodes += [Node(f"U{i}", Kind.VALUE, None, (f"D{i}",) + hidden) for i in range(k)]
    return validate_nodes(nodes)


def w_family_expected(k: int, shared: bool = False) -> dict:
    """The check verdict, pairs and witnesses of W(k), known by construction."""
    pairs = sorted((f"S{i}", f"D{j}") for i in range(k) for j in range(k) if i != j)
    witnesses = sorted(
        (f"S{i}", f"D{j}", f"U{j}", "direct") for i in range(k) for j in range(k) if i != j
    ) if shared else []
    return {"welldefined": not shared, "pairs": pairs, "witnesses": witnesses}


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
