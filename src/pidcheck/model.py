"""Diagram data model: typed DAG of chance, decision and value nodes.

A diagram is immutable after construction.  It has two views, `graph`
(every arc) and `bare` (no informational arcs), and `moral_view` returns a
new view.  A set of a view's nodes is an int bit mask: node i is bit
``1 << i``.  A diagram's views number the chance and decision nodes first, in
declaration order, as the partial order numbers its carrier, and the value
nodes after them, so one mask format serves the order, the rules and the
d-connection walk.  `validate_nodes` checks the nodes in one pass that
numbers them and builds the masks of `graph`, whose Kahn order tells
whether the arcs close a cycle.  `bare` and the descendant masks are built
on first use, along that order; a cached value is always the same, so
diagrams and views stay safe to share between threads.
"""
from __future__ import annotations

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

    def __init__(self, nodes: tuple[Node, ...], by_id: dict[str, Node], graph: GraphView):
        self.nodes = nodes  # checked by validate_nodes, which builds the rest
        self._by_id = by_id
        self._index = {n.id: i for i, n in enumerate(self.nodes)}
        self.graph = graph  # the view with every arc

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
    def bare(self) -> GraphView:
        """The view without informational arcs (arcs into decisions)."""
        g = self.graph
        dmask = g.mask_of(self.decision_ids)
        parents = tuple(0 if dmask >> i & 1 else m for i, m in enumerate(g.parents))
        bare = GraphView(g.node_ids, parents, tuple(m & ~dmask for m in g.children))
        bare.order = g.order  # an order of every arc is one of a subset
        return bare

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
    ``parents[i]`` and ``children[i]`` are masks; undirected views store
    each edge both ways.  ``order`` lists the positions with every node
    after its parents, all of them iff the view is acyclic, and
    ``descendants[i]``, the mask of the nodes at the end of one or more
    arcs from node i, is built along it on first use.  Views compare by
    identity.
    """

    def __init__(self, node_ids: tuple[str, ...], parents: tuple[int, ...], children: tuple[int, ...]):
        self.node_ids = node_ids
        self.index = {v: i for i, v in enumerate(node_ids)}
        self.parents = parents
        self.children = children

    def mask_of(self, nodes: Iterable[str]) -> int:
        """The mask of ``nodes``."""
        return sum(1 << self.index[v] for v in nodes)

    def ids_of(self, mask: int) -> tuple[str, ...]:
        """The nodes of ``mask``, in position order."""
        return tuple(self.node_ids[i] for i in bits(mask))

    @cached_property
    def arc_list(self) -> tuple[tuple[str, str], ...]:
        """By head, then tail, in position order."""
        return tuple((t, h) for h, m in zip(self.node_ids, self.parents) for t in self.ids_of(m))

    @cached_property
    def order(self) -> list[int]:  # Kahn's
        children = self.children
        waiting = [p.bit_count() for p in self.parents]
        order = [v for v, w in enumerate(waiting) if not w]
        for v in order:
            for c in bits(children[v]):
                waiting[c] -= 1
                if not waiting[c]:
                    order.append(c)
        return order

    @cached_property
    def descendants(self) -> tuple[int, ...]:
        children, desc = self.children, list(self.children)
        for v in reversed(self.order):
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
    relation.  One pass checks the nodes and builds the view with every
    arc; a depth-first search names a cycle only if that view has one.
    """
    nodes = tuple(nodes)
    violations: list[str] = []
    by_id = {n.id: n for n in nodes}
    if len(by_id) < len(nodes):
        seen: set[str] = set()
        for n in nodes:
            if n.id in seen:
                violations.append(f"duplicate id: {n.id!r}")
            seen.add(n.id)
    ids = tuple([n.id for n in nodes if n.kind is not Kind.VALUE] + [n.id for n in nodes if n.kind is Kind.VALUE])
    index = {v: i for i, v in enumerate(ids)}
    parents, children, value_parents = [0] * len(ids), [0] * len(ids), []
    for n in nodes:
        i, mask = index[n.id], 0
        if len(set(n.parents)) != len(n.parents):
            violations.append(f"duplicate parent entry on node {n.id!r}")
        for p in n.parents:
            j = index.get(p)
            if j is None:
                violations.append(f"dangling parent: arc ({p!r}, {n.id!r})")
                continue
            mask |= 1 << j
            children[j] |= 1 << i
            if by_id[p].kind is Kind.VALUE:
                value_parents.append(f"value node with child: arc ({p!r}, {n.id!r})")
        parents[i] = mask
        if n.kind is Kind.VALUE:
            if n.states is not None:
                violations.append(f"value node with state list: {n.id!r}")
        elif not n.states:
            violations.append(f"empty state list: {n.id!r}")
        elif len(set(n.states)) != len(n.states):
            violations.append(f"duplicate state label on node {n.id!r}")
    violations += value_parents
    graph = GraphView(ids, tuple(parents), tuple(children))
    if not violations and len(graph.order) < len(ids):
        cycle = _find_cycle([n.id for n in nodes], {n.id: n.parents for n in nodes})
        violations.append("cycle: " + " -> ".join(cycle))
    if violations:
        raise InvalidDiagram(violations)
    return Diagram(nodes, by_id, graph)


_SURROGATE = re.compile(r"[\ud800-\udfff]")
_KINDS = {k.value: k for k in Kind}


def _texts(values: object) -> bool:
    """True iff ``values`` is a list of str that encode as UTF-8: they hold
    no surrogate, which JSON can spell and no output stream writes."""
    try:
        text = "".join(values) if isinstance(values, list) else None
    except TypeError:  # an item that is no str
        return False
    return text is not None and (text.isascii() or not _SURROGATE.search(text))


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
        if type(raw) is not dict and not isinstance(raw, Mapping):
            violations.append(f"node #{i} is not a mapping")
            continue
        node_id = raw.get("id")
        if not node_id or not _texts([node_id]):
            violations.append(f"node #{i} has no usable id")
            continue
        kind_raw = raw.get("kind")
        kind = _KINDS.get(kind_raw) if isinstance(kind_raw, str) else None
        if kind is None:
            violations.append(f"unknown kind {kind_raw!r} on node {node_id!r}")
            continue
        states_raw = raw.get("states")
        states: tuple[str, ...] | None
        if states_raw is None:
            states = None
        elif _texts(states_raw):
            states = tuple(states_raw)
        else:
            violations.append(f"malformed state list on node {node_id!r}")
            continue
        parents_raw = raw.get("parents", [])
        if not _texts(parents_raw):
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
    bare, n = d.bare, len(d.carrier_ids)
    edges = [0] * n
    for v, mask in enumerate(bare.parents):  # no parent is a value node
        own = 1 << v if v < n else 0
        for p in bits(mask):
            edges[p] |= (mask | own) & ~(1 << p)
        if own:
            edges[v] |= mask
    return GraphView(d.carrier_ids, tuple(edges), tuple(edges))
