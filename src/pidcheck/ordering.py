"""Temporal structure of a partial influence diagram.

Induces the partial precedence order over chance and decision nodes,
answers incompatibility queries, and enumerates admissible total orderings
through canonical order schemas (a decision permutation plus a slot
assignment for every chance node).  Same-slot chance permutations are
collapsed because summations commute; decision permutations are kept
because the downstream analysis is sequence-sensitive.

An order is held as one int bit mask per carrier node (the chance and
decision nodes, in declaration order): bit j of node i's mask is set iff
node i precedes node j.  Node i is bit ``1 << i`` of any mask, so a
precedence query is a bit test and a set of nodes is an int.  The
transpose ``before`` holds per node the mask of its predecessors.  Built
once per order, on first use, it answers every "what comes before"
question here: decision sequences, slot ranges and incompatible pairs.

Induction is incremental.  The closure of clauses (a) and (b), which reads
only the diagram, is computed once per diagram (:func:`base_closure`); a
caller that induces several orders of one diagram passes it in.  Its pairs
are exactly the (x, y) joined by a directed path that starts at a decision
or whose first arc enters one: each base pair is such a path, each path of
the second kind is an arc into some D then a path out of D, and two such
paths that meet join into one that starts like the first.  So it needs no
closure pass: a decision precedes its descendants, and a parent of a
decision D precedes D and D's descendants.  Every other pair is added to
a closed relation R one product at a time: the closure of R plus the
pairs (x, y) for every x in a set T and y in a set H is R plus every pair
(u, v) with u equal to or before some x in T and v equal to or after some
y in H, since a path through the new pairs can always be cut to use one
of them once (from its first tail to its last head).  So each addition is
one OR of H and its successors into the mask of each node at or before T,
and the relation stays closed after every addition, cycles included.
Clause (c) is one product, every decision before every late node; an
extra pair or a clause (d) pair has one head.  The closure of a union
does not depend on the order in which its pairs are added, so the
relation is the one a full closure pass after each clause would give.

A schema places chance node A in the slot immediately before decision D
exactly when every decision that precedes A comes before D, and D comes
before every decision that A precedes.  Pinning (A, D) adds those pairs to
the order on the decisions and fixes A's slot.  For an incompatible pair
the added pairs close no cycle.  Each has D at one end, so a cycle passes D
once and returns to it along the order: E < D < F <= E, E < D < x <= E or
y < D < F <= y, with E < A < F, which gives A < A, D < A or A < D.
The linear extensions of the stronger order are exactly those of the order
that can host the pair, and a depth-first search that tries decisions in
declaration order lists either set in lexicographic order.  So the pinned
sequences, and the pinned schemas, are the unpinned ones that can host the
pair, in the same order.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator

from .model import Diagram, bits


class InconsistentOrder(ValueError):
    """The induced precedence relation orders some pair both ways."""


class PartialOrder:
    """Transitively closed precedence relation over chance+decision nodes.

    ``masks[i]`` is the set of successors of ``carrier[i]`` as a bit mask
    over carrier positions (module docstring), ``index`` maps a node to
    its position, and ``decisions`` is the mask of the decisions.
    ``before`` is its transpose and ``succ`` a read-only view of the same
    relation as sets of node ids; both are built on first use.

    Equality and hashing compare the carrier only, not the relation: two
    orders of one diagram are always equal.  Compare ``masks`` to tell them
    apart."""

    def __init__(self, carrier: tuple[str, ...], index: dict[str, int], decisions: int, masks: tuple[int, ...]):
        self.carrier = carrier
        self.index = index
        self.decisions = decisions
        self.masks = masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialOrder):
            return NotImplemented
        return self.carrier == other.carrier

    def __hash__(self) -> int:
        return hash(self.carrier)

    @property
    def chance(self) -> int:
        """The mask of the chance nodes."""
        return ((1 << len(self.carrier)) - 1) & ~self.decisions

    @cached_property
    def before(self) -> tuple[int, ...]:
        """``before[i]`` is the mask of the nodes that precede ``carrier[i]``."""
        before = [0] * len(self.masks)
        for i, m in enumerate(self.masks):
            for j in bits(m):
                before[j] |= 1 << i
        return tuple(before)

    @cached_property
    def succ(self) -> dict[str, frozenset[str]]:
        ids = self.carrier
        return {x: frozenset(ids[j] for j in bits(m)) for x, m in zip(ids, self.masks)}

    def incompatible(self, x: str, y: str) -> bool:
        """True iff neither node precedes the other (x != y)."""
        if x == y:
            raise ValueError("incompatibility is defined for distinct nodes")
        i, j = self.index[x], self.index[y]
        return not (self.masks[i] >> j & 1 or self.masks[j] >> i & 1)

    def incompatible_pairs(self, *, with_decision_only: bool = True) -> tuple[tuple[str, str], ...]:
        """All incompatible pairs in declaration order.

        By default chance-chance pairs are omitted: their relative order can
        never change a strategy (summations commute), so only pairs touching
        a decision bear on welldefinedness.
        """
        # Per node i, in declaration order, the later nodes neither after nor
        # before it, but for a chance node i only the later decisions by default.
        ids, masks, before = self.carrier, self.masks, self.before
        everyone = (1 << len(ids)) - 1
        ends = self.decisions if with_decision_only else everyone
        pairs = []
        for i, x in enumerate(ids):
            bit = 1 << i
            later = everyone & ~(masks[i] | before[i] | (bit << 1) - 1)
            pairs.extend((x, ids[j]) for j in bits(later if ends & bit else later & ends))
        return tuple(pairs)


def base_closure(d: Diagram) -> PartialOrder:
    """Clauses (a) and (b) of :func:`induce_partial_order`, closed: the
    order every order of ``d`` starts from.  Each of its pairs follows a
    directed path of the diagram, so it orders no node before itself.  It
    holds no reference to the diagram; whoever induces several orders of a
    diagram keeps it next to the diagram (``Analysis`` does)."""
    carrier, graph = d.carrier_ids, d.graph
    index = {v: i for i, v in enumerate(carrier)}  # the graph's positions (see ``model``)
    everyone = (1 << len(carrier)) - 1
    decisions = sum(1 << index[dec] for dec in d.decision_ids)
    succ = [0] * len(carrier)
    for i in bits(decisions):  # clause (b), closed already
        succ[i] = graph.descendants[i] & everyone
    for i in bits(decisions):  # clause (a), closed through the decision
        for p in bits(graph.parents[i]):  # a chance node or a decision
            succ[p] |= 1 << i | succ[i]
    return PartialOrder(carrier=carrier, index=index, decisions=decisions, masks=tuple(succ))


def induce_partial_order(
    d: Diagram, extra: Iterable[tuple[str, str]] = (), base: PartialOrder | None = None
) -> PartialOrder:
    """Smallest transitively closed relation satisfying the four induction
    clauses:

    (a) Y comes before D for every arc (Y, D) into a decision D;
    (b) D comes before every node reachable from D by a directed path;
    (c) every decision comes before a chance node that never precedes a
        decision (such a node is observed late or never);
    (d) D comes before chance node A whenever A does not precede D and some
        later decision is preceded by both.

    Clause (d) references the relation being built, so it is applied in
    rounds, each read off the relation closed after the previous one, until
    stable.  ``extra`` injects additional base pairs (used to test
    candidate ordering constraints).  ``base`` is ``base_closure(d)``, passed
    in by callers that induce several orders of ``d``; every pair beyond it
    is added incrementally (module docstring).

    Raises :class:`InconsistentOrder` if the closure orders some node
    before itself, naming the first such node in declaration order.  A
    closed relation that orders two nodes both ways orders each before
    itself, so that is every inconsistency.
    """
    if base is None:
        base = base_closure(d)
    index, decisions = base.index, base.decisions
    succ = list(base.masks)

    def add(tails: int, heads: int) -> None:
        """Close under the pairs (x, y) for every x in the mask ``tails``
        and y in the mask ``heads``."""
        after = heads
        for y in bits(heads):
            after |= succ[y]
        for u, su in enumerate(succ):
            if (su | 1 << u) & tails:
                succ[u] = su | after

    for x, y in extra:
        if x not in index or y not in index:
            raise ValueError(f"constraint ({x!r}, {y!r}) references unknown node")
        add(1 << index[x], 1 << index[y])

    # Clause (c): whether a chance node ever precedes a decision is fixed by
    # the closure so far (its outgoing relations can only start at an
    # informational arc or an extra constraint), so apply it once.
    chance = list(bits(base.chance))
    add(decisions, sum(1 << a for a in chance if not succ[a] & decisions))

    each_decision = [(di, 1 << di) for di in bits(decisions)]
    while True:  # clause (d), round-based so the result is order-independent
        new = []
        for a in chance:
            sa, ba = succ[a], 1 << a
            tails = 0
            for di, bdi in each_decision:
                sdi = succ[di]
                if not (sa & bdi or sdi & ba) and sdi & sa & decisions:
                    tails |= bdi
            if tails:
                new.append((tails, a))
        if not new:
            break
        for tails, a in new:
            add(tails, 1 << a)

    for i, s in enumerate(succ):
        if s >> i & 1:
            raise InconsistentOrder(f"inconsistent order: {base.carrier[i]!r} precedes itself")
    return PartialOrder(base.carrier, index, decisions, tuple(succ))


class OrderSchema:
    """Canonical representative of a class of admissible total orderings.

    ``decision_sequence`` is a permutation of all decision nodes and
    ``slots`` maps each chance node to an integer in 0..n: slot k means
    observed after the k-th decision of the sequence and before the
    (k+1)-th; slot n means observed last or never.  Chance nodes within a
    slot are kept in declaration order, which affects only reporting.
    Schemas compare and hash by value; ``slot_of`` and the induced order
    are built once, on first use.
    """

    def __init__(self, decision_sequence: tuple[str, ...], slots: tuple[tuple[str, int], ...]):
        self.decision_sequence = decision_sequence
        self.slots = slots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderSchema):
            return NotImplemented
        return self.decision_sequence == other.decision_sequence and self.slots == other.slots

    def __hash__(self) -> int:
        return hash((self.decision_sequence, self.slots))

    def __repr__(self) -> str:
        return f"OrderSchema(decision_sequence={self.decision_sequence!r}, slots={self.slots!r})"

    @cached_property
    def slot_of(self) -> dict[str, int]:
        return dict(self.slots)

    @cached_property
    def _induced_order(self) -> tuple[str, ...]:
        out: list[str] = [c for c, s in self.slots if s == 0]
        for k, dec in enumerate(self.decision_sequence, start=1):
            out.append(dec)
            out.extend(c for c, s in self.slots if s == k)
        return tuple(out)

    def induced_order(self) -> tuple[str, ...]:
        return self._induced_order

    def position(self, dec: str) -> int:
        """1-based index of a decision in the sequence."""
        return self.decision_sequence.index(dec) + 1

    def pred(self, dec: str) -> frozenset[str]:
        """Everything observed or decided before ``dec``: chance nodes in
        earlier slots plus earlier decisions (no-forgetting)."""
        k = self.position(dec)
        earlier_chance = {c for c, s in self.slots if s < k}
        return frozenset(earlier_chance | set(self.decision_sequence[: k - 1]))


def decision_sequences(po: PartialOrder, *, pin: tuple[str, str] | None = None) -> Iterator[tuple[str, ...]]:
    """The decision sequences of :func:`enumerate_schemas`, in its order:
    the linear extensions of ``po`` restricted to decisions, in
    lexicographic (declaration) order.  With ``pin=(a, dec)``, an
    incompatible (chance, decision) pair, only those that can place ``a``
    in the slot immediately before ``dec`` (module docstring)."""
    # per node: the nodes before it, of which only the decisions are read
    before = list(po.before)
    if pin is not None:
        a, dec = po.index[pin[0]], po.index[pin[1]]
        for e in bits(po.masks[a] & po.decisions):  # a < e, so dec < e
            before[e] |= 1 << dec
        before[dec] |= before[a]  # e < a, so e < dec

    # Depth-first with an explicit stack of candidate iterators, one per
    # placed decision, so chains of any length stay within the
    # interpreter's recursion limit.
    remaining, seq = po.decisions, []
    stack = [bits(remaining)]
    if not remaining:
        yield ()
    while stack:
        for i in stack[-1]:
            if not before[i] & remaining:
                remaining ^= 1 << i
                seq.append(po.carrier[i])
                if not remaining:
                    yield tuple(seq)
                stack.append(bits(remaining))
                break
        else:
            stack.pop()
            if seq:
                remaining |= 1 << po.index[seq.pop()]


def enumerate_schemas(
    d: Diagram, po: PartialOrder | None = None, *, pin: tuple[str, str] | None = None
) -> Iterator[OrderSchema]:
    """Yield every admissible order schema exactly once, lexicographically
    by decision sequence then by slot vector (chance in declaration order).
    With ``pin=(a, dec)``, only those that place ``a`` in the slot
    immediately before ``dec``, in the same order.

    Under a sequence, a chance node's admissible slots are the k whose
    first k decisions hold every decision before the node and none after
    it: from the largest position of a decision before it to the smallest
    position of a decision after it, minus 1.  A linear extension makes
    that range non-empty.
    """
    if po is None:
        po = induce_partial_order(d)
    index, chance, decisions = po.index, d.chance_ids, po.decisions
    # per chance node: the mask of the decisions before it and of those after it
    spans = [(po.before[index[c]] & decisions, po.masks[index[c]] & decisions) for c in chance]
    for seq in decision_sequences(po, pin=pin):
        at, end = {index[v]: k for k, v in enumerate(seq, start=1)}, len(seq) + 1  # 1-based positions
        choices = [
            range(max((at[e] for e in bits(before)), default=0), min((at[f] for f in bits(after)), default=end))
            for before, after in spans
        ]
        if pin is not None:
            choices[chance.index(pin[0])] = [seq.index(pin[1])]
        for combo in itertools.product(*choices):
            yield OrderSchema(seq, tuple(zip(chance, combo)))


def canonical_schema(d: Diagram, po: PartialOrder | None = None) -> OrderSchema:
    return next(enumerate_schemas(d, po))
