"""Diagram data model: typed DAG of chance, decision and value nodes.

A diagram is immutable after construction.  All graph transformations
(`strip_barren`, `strip_informational`, `moral_view`) are pure functions
returning new objects, so diagrams and views are safe to share between
threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence


class Kind(str, Enum):
    CHANCE = "chance"
    DECISION = "decision"
    VALUE = "value"


@dataclass(frozen=True)
class Node:
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
        self._children: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for p in n.parents:
                self._children[p].append(n.id)
        self._index = {n.id: i for i, n in enumerate(self.nodes)}

    # -- basic accessors ------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def kind(self, node_id: str) -> Kind:
        return self._by_id[node_id].kind

    def states(self, node_id: str) -> tuple[str, ...]:
        states = self._by_id[node_id].states
        if states is None:
            raise KeyError(f"node {node_id!r} has no state space")
        return states

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self._by_id[node_id].parents

    def children(self, node_id: str) -> tuple[str, ...]:
        return tuple(self._children[node_id])

    def declaration_index(self, node_id: str) -> int:
        return self._index[node_id]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def chance_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.CHANCE)

    @property
    def decision_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.DECISION)

    @property
    def value_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.kind is Kind.VALUE)

    @property
    def carrier_ids(self) -> tuple[str, ...]:
        """Chance and decision nodes, the carrier set of the temporal order."""
        return tuple(n.id for n in self.nodes if n.kind is not Kind.VALUE)

    def arcs(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, n.id) for n in self.nodes for p in n.parents)

    def descendants(self, node_id: str) -> set[str]:
        """All nodes reachable from ``node_id`` by directed arcs (any type)."""
        out: set[str] = set()
        stack = list(self._children[node_id])
        while stack:
            v = stack.pop()
            if v not in out:
                out.add(v)
                stack.extend(self._children[v])
        return out

    def sort_ids(self, ids: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(ids, key=self._index.__getitem__))

    # -- functional edits (used by fixtures and resolution suggestions) --

    def with_arc(self, tail: str, head: str) -> "Diagram":
        nodes = []
        for n in self.nodes:
            if n.id == head and tail not in n.parents:
                nodes.append(Node(n.id, n.kind, n.states, n.parents + (tail,)))
            else:
                nodes.append(n)
        return validate_nodes(nodes)

    def without_arc(self, tail: str, head: str) -> "Diagram":
        nodes = []
        for n in self.nodes:
            if n.id == head:
                nodes.append(
                    Node(n.id, n.kind, n.states, tuple(p for p in n.parents if p != tail))
                )
            else:
                nodes.append(n)
        return validate_nodes(nodes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diagram) and self.nodes == other.nodes

    def __repr__(self) -> str:
        return f"Diagram({', '.join(self.ids)})"


@dataclass(frozen=True)
class GraphView:
    """Node and arc set derived from a diagram under a stated transformation.

    The node set always equals the source diagram's node set (value nodes may
    be absent after moralization).  For undirected views every edge is stored
    in both directions.
    """

    node_ids: tuple[str, ...]
    kinds: Mapping[str, Kind]
    arc_list: tuple[tuple[str, str], ...]
    directed: bool

    def parents_of(self, node_id: str) -> tuple[str, ...]:
        return tuple(t for t, h in self.arc_list if h == node_id)

    def children_of(self, node_id: str) -> tuple[str, ...]:
        return tuple(h for t, h in self.arc_list if t == node_id)

    def neighbors_of(self, node_id: str) -> tuple[str, ...]:
        seen = []
        for t, h in self.arc_list:
            if t == node_id and h not in seen:
                seen.append(h)
            elif h == node_id and t not in seen:
                seen.append(t)
        return tuple(seen)

    def has_edge(self, a: str, b: str) -> bool:
        if self.directed:
            return (a, b) in self.arc_list
        return (a, b) in self.arc_list or (b, a) in self.arc_list


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
    state lists on chance/decision nodes, state lists on value nodes, value
    nodes with children, and cycles in the arc relation.
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
    for n in nodes:
        if n.kind is Kind.VALUE:
            continue
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
        if not isinstance(node_id, str) or not node_id:
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
        elif isinstance(states_raw, list) and all(isinstance(s, str) for s in states_raw):
            states = tuple(states_raw)
        else:
            violations.append(f"malformed state list on node {node_id!r}")
            continue
        parents_raw = raw.get("parents", [])
        if not (isinstance(parents_raw, list) and all(isinstance(p, str) for p in parents_raw)):
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


def strip_barren(d: Diagram) -> Diagram:
    """Remove every barren chance/decision node.

    A node is barren iff it has no children or all its children are barren;
    informational arcs count as ordinary child links, and value nodes are
    never barren.  Idempotent, and never removes an ancestor of a value node
    (a value node blocks barrenness from propagating past it).
    """
    barren: set[str] = set()
    # Reverse-topological sweep: a node can be decided once its children are.
    order = _topological(d)
    for node_id in reversed(order):
        if d.kind(node_id) is Kind.VALUE:
            continue
        kids = d.children(node_id)
        if all(k in barren for k in kids):
            barren.add(node_id)
    kept = [
        Node(n.id, n.kind, n.states, tuple(p for p in n.parents if p not in barren))
        for n in d.nodes
        if n.id not in barren
    ]
    return validate_nodes(kept)


def _topological(d: Diagram) -> list[str]:
    indeg = {n.id: len(n.parents) for n in d.nodes}
    ready = [n.id for n in d.nodes if indeg[n.id] == 0]
    out: list[str] = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        for c in d.children(v):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return out


def strip_informational(d: Diagram) -> GraphView:
    """The view of ``d`` without informational arcs (arcs into decisions)."""
    arcs = tuple(
        (p, n.id) for n in d.nodes if n.kind is not Kind.DECISION for p in n.parents
    )
    return GraphView(
        node_ids=d.ids,
        kinds={n.id: n.kind for n in d.nodes},
        arc_list=arcs,
        directed=True,
    )


def moral_view(d: Diagram) -> GraphView:
    """Moral graph: informational arcs removed, co-parents of any remaining
    node linked, value nodes removed, directions dropped."""
    bare = strip_informational(d)
    edges: set[tuple[str, str]] = set()

    def add(a: str, b: str) -> None:
        if a != b:
            edges.add((a, b))
            edges.add((b, a))

    for t, h in bare.arc_list:
        add(t, h)
    for n in d.nodes:
        if n.kind is Kind.DECISION:
            continue
        co = bare.parents_of(n.id)
        for i in range(len(co)):
            for j in range(i + 1, len(co)):
                add(co[i], co[j])
    keep = tuple(i for i in d.ids if d.kind(i) is not Kind.VALUE)
    keep_set = set(keep)
    kept_edges = tuple(
        (a, b) for a, b in sorted(edges) if a in keep_set and b in keep_set
    )
    return GraphView(
        node_ids=keep,
        kinds={i: d.kind(i) for i in keep},
        arc_list=kept_edges,
        directed=False,
    )
