"""Diagram data model: typed DAG of chance, decision and value nodes.

A diagram is immutable after construction.  It builds its two views,
`graph` (every arc) and `bare` (no informational arcs), once, on first use,
and `moral_view` returns a new view.  A set of a view's nodes is an int bit
mask: node i is bit ``1 << i``.  A diagram's views number the chance and
decision nodes first, in declaration order, as the partial order numbers
its carrier, and the value nodes after them, so one mask format serves the
order, the rules and the d-connection walk.  A view builds its parent and
child masks with itself and its descendant masks once, on first use; a
cached value is always the same, so diagrams and views stay safe to share
between threads.
"""
from __future__ import annotations

import itertools
import re
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Kind(str, Enum):
    CHANCE = "chance"
    DECISION = "decision"
    VALUE = "value"


class Node(NamedTuple):
    id: str
    kind: Kind
    states: tuple[str, ...] | None
    parents: tuple[str, ...]


class InvalidDiagram(ValueError):
    """Raised by :func:`validate`; carries the full list of violations."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class Diagram:
    """An ordered collection of nodes whose parent lists define all arcs.

    Node iteration order is declaration order; every set-valued result in
    this package is reported in declaration order for determinism.
    """

    def __init__(self, nodes: Sequence[Node]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        self._by_id = {n.id: n for n in self.nodes}
        self._index = {n.id: i for i, n in enumerate(self.nodes)}

    # -- basic accessors ------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def kind(self, node_id: str) -> Kind:
        return self._by_id[node_id].kind

    def states(self, node_id: str) -> tuple[str, ...]:
        states = self._by_id[node_id].states
        if states is None:
            raise KeyError(f"node {node_id!r} has no state space")
        return states

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self._by_id[node_id].parents

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def chance_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.CHANCE)

    @cached_property
    def decision_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.DECISION)

    @cached_property
    def value_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.VALUE)

    @cached_property
    def carrier_ids(self) -> tuple[str, ...]:
        """Chance and decision nodes, the carrier set of the temporal order."""
        return tuple(n.id for n in self.nodes if n.kind is not Kind.VALUE)

    def arcs(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, n.id) for n in self.nodes for p in n.parents)

    @cached_property
    def graph(self) -> GraphView:
        """The view with every arc."""
        return GraphView(self.carrier_ids + self.value_ids, self.arcs())

    @cached_property
    def bare(self) -> GraphView:
        """The view without informational arcs (arcs into decisions)."""
        arcs = ((p, n.id) for n in self.nodes if n.kind is not Kind.DECISION for p in n.parents)
        return GraphView(self.carrier_ids + self.value_ids, tuple(arcs))

    def sort_ids(self, ids: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(ids, key=self._index.__getitem__))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagram) and self.nodes == other.nodes

    def __repr__(self) -> str:
        return f"Diagram({', '.join(self.ids)})"


class GraphView:
    """Node and arc set derived from a diagram under a stated transformation.

    Node i is ``node_ids[i]`` and bit ``1 << i`` of every mask over the
    view, and ``index`` maps a node to its position.  The node set is the
    source diagram's (value nodes may be absent after moralization).
    ``parents[i]`` and ``children[i]`` are masks; for undirected views every
    edge is stored in both directions.  ``descendants[i]`` is the mask of
    the nodes at the end of one or more arcs from node i, built for every
    node in one pass on first use; it is defined for acyclic views only.
    Views compare by identity.
    """

    def __init__(self, node_ids: tuple[str, ...], arc_list: tuple[tuple[str, str], ...]):
        self.node_ids = node_ids
        self.arc_list = arc_list
        self.index = index = {v: i for i, v in enumerate(node_ids)}
        parents, children = [0] * len(node_ids), [0] * len(node_ids)
        for t, h in arc_list:
            parents[index[h]] |= 1 << index[t]
            children[index[t]] |= 1 << index[h]
        self.parents = tuple(parents)
        self.children = tuple(children)

    def mask_of(self, nodes: Iterable[str]) -> int:
        """The mask of ``nodes``."""
        return sum(1 << self.index[v] for v in nodes)

    def ids_of(self, mask: int) -> tuple[str, ...]:
        """The nodes of ``mask``, in position order."""
        return tuple(self.node_ids[i] for i in bits(mask))

    @cached_property
    def descendants(self) -> tuple[int, ...]:
        children = self.children
        # Kahn's order: every node after its parents
        waiting = [p.bit_count() for p in self.parents]
        order = [v for v, w in enumerate(waiting) if not w]
        for v in order:
            for c in bits(children[v]):
                waiting[c] -= 1
                if not waiting[c]:
                    order.append(c)
        desc = list(children)
        for v in reversed(order):
            for c in bits(children[v]):
                desc[v] |= desc[c]
        return tuple(desc)


# ---------------------------------------------------------------------------
# validation


def _find_cycle(ids: Sequence[str], parents: Mapping[str, Sequence[str]]) -> list[str] | None:
    WHITE, GREY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
    children: dict[str, list[str]] = {i: [] for i in ids}
    for i in ids:
        for p in parents[i]:
            if p in children:
                children[p].append(i)

    # Depth-first with an explicit stack of child iterators, so chains of
    # any length stay within the interpreter's recursion limit.
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


def validate_nodes(nodes: Sequence[Node]) -> Diagram:
    """Check every diagram invariant, reporting all violations at once.

    Violations checked: duplicate ids, dangling parent references, empty
    state lists on chance/decision nodes, duplicate state labels, state
    lists on value nodes, value nodes with children, and cycles in the arc
    relation.
    """
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
        cycle = _find_cycle([n.id for n in nodes], {n.id: n.parents for n in nodes})
        if cycle is not None:
            violations.append("cycle: " + " -> ".join(cycle))
    if violations:
        raise InvalidDiagram(violations)
    return Diagram(nodes)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _text(value: object) -> bool:
    """True iff ``value`` is a str that encodes as UTF-8: it holds no
    surrogate, which JSON can spell and no output stream writes."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def validate(description: Mapping) -> Diagram:
    """Build a Diagram from a raw description (the parsed ``nodes`` list).

    Accepts anything shaped like ``{"nodes": [{"id", "kind", "states"?,
    "parents"?}, ...]}`` and raises :class:`InvalidDiagram` listing every
    violation found, not just the first.
    """
    violations: list[str] = []
    raw_nodes = description.get("nodes")
    if not isinstance(raw_nodes, list):
        raise InvalidDiagram(["missing or malformed 'nodes' list"])
    nodes: list[Node] = []
    for i, raw in enumerate(raw_nodes):
        if not isinstance(raw, Mapping):
            violations.append(f"node #{i} is not a mapping")
            continue
        node_id = raw.get("id")
        if not _text(node_id) or not node_id:
            violations.append(f"node #{i} has no usable id")
            continue
        kind_raw = raw.get("kind")
        try:
            kind = Kind(kind_raw)
        except ValueError:
            violations.append(f"unknown kind {kind_raw!r} on node {node_id!r}")
            continue
        states_raw = raw.get("states")
        states: tuple[str, ...] | None
        if states_raw is None:
            states = None
        elif isinstance(states_raw, list) and all(_text(s) for s in states_raw):
            states = tuple(states_raw)
        else:
            violations.append(f"malformed state list on node {node_id!r}")
            continue
        parents_raw = raw.get("parents", [])
        if not (isinstance(parents_raw, list) and all(_text(p) for p in parents_raw)):
            violations.append(f"malformed parent list on node {node_id!r}")
            continue
        nodes.append(Node(node_id, kind, states, tuple(parents_raw)))
    if violations:
        # Still run the structural checks so one report covers everything.
        try:
            validate_nodes(nodes)
        except InvalidDiagram as exc:
            violations.extend(exc.violations)
        raise InvalidDiagram(violations)
    return validate_nodes(nodes)


# ---------------------------------------------------------------------------
# graph transformations


def moral_view(d: Diagram) -> GraphView:
    """Moral graph: informational arcs removed, co-parents of any remaining
    node linked, value nodes removed, directions dropped."""
    bare = d.bare
    edges: set[tuple[str, str]] = set()
    for v, mask in zip(bare.node_ids, bare.parents):
        co = bare.ids_of(mask)  # none for a decision
        for a, b in itertools.chain(((p, v) for p in co), itertools.combinations(co, 2)):
            edges.update(((a, b), (b, a)))
    keep = frozenset(d.carrier_ids)
    kept_edges = tuple((a, b) for a, b in sorted(edges) if a in keep and b in keep)
    return GraphView(d.carrier_ids, kept_edges)
