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

from pidcheck.model import Diagram, Kind, Node, validate_nodes
from pidcheck.ordering import PartialOrder, enumerate_schemas

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


def first_per_past(schemas, dec: str):
    """The first schema of each distinct past of ``dec``."""
    seen = set()
    for schema in schemas:
        past = schema.pred(dec)
        if past not in seen:
            seen.add(past)
            yield schema


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
