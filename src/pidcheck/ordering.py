"""Temporal structure of a partial influence diagram.

Induces the partial precedence order over chance and decision nodes,
answers incompatibility queries, and enumerates admissible total orderings
through canonical order schemas (a decision permutation plus a slot
assignment for every chance node).  Same-slot chance permutations are
collapsed because summations commute; decision permutations are kept
because the downstream analysis is sequence-sensitive.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import Diagram, Kind


class InconsistentOrder(ValueError):
    """The induced precedence relation orders some pair both ways."""


@dataclass(frozen=True)
class PartialOrder:
    """Transitively closed precedence relation over chance+decision nodes.

    Equality and hashing compare the carrier only, not the relation: two
    orders of one diagram are always equal.  Compare ``succ`` to tell them
    apart."""

    carrier: tuple[str, ...]
    kinds: dict[str, Kind] = field(compare=False)
    succ: dict[str, frozenset[str]] = field(compare=False)

    def precedes(self, x: str, y: str) -> bool:
        return y in self.succ[x]

    def incompatible(self, x: str, y: str) -> bool:
        """True iff neither node precedes the other (x != y)."""
        if x == y:
            raise ValueError("incompatibility is defined for distinct nodes")
        return not self.precedes(x, y) and not self.precedes(y, x)

    def incompatible_pairs(self, *, with_decision_only: bool = True) -> tuple[tuple[str, str], ...]:
        """All incompatible pairs in declaration order.

        By default chance-chance pairs are omitted: their relative order can
        never change a strategy (summations commute), so only pairs touching
        a decision bear on welldefinedness.
        """
        out = []
        for i, x in enumerate(self.carrier):
            for y in self.carrier[i + 1:]:
                if with_decision_only and (
                    self.kinds[x] is Kind.CHANCE and self.kinds[y] is Kind.CHANCE
                ):
                    continue
                if self.incompatible(x, y):
                    out.append((x, y))
        return tuple(out)


def induce_partial_order(
    d: Diagram, extra: Iterable[tuple[str, str]] = ()
) -> PartialOrder:
    """Smallest transitively closed relation satisfying the four induction
    clauses:

    (a) Y comes before D for every arc (Y, D) into a decision D;
    (b) D comes before every node reachable from D by a directed path;
    (c) every decision comes before a chance node that never precedes a
        decision (such a node is observed late or never);
    (d) D comes before chance node A whenever A does not precede D and some
        later decision is preceded by both.

    Clause (d) references the relation being built, so it is re-applied in
    rounds after each closure pass until stable.  ``extra`` injects
    additional base pairs (used to test candidate ordering constraints).

    Raises :class:`InconsistentOrder` if the closure derives both X before Y
    and Y before X.
    """
    carrier = d.carrier_ids
    carrier_set = set(carrier)
    decisions = d.decision_ids
    chance = d.chance_ids
    succ: dict[str, set[str]] = {v: set() for v in carrier}

    def close() -> None:
        # Warshall over the (small) carrier.
        for k in carrier:
            sk = succ[k]
            for i in carrier:
                if k in succ[i]:
                    succ[i] |= sk

    for dec in decisions:  # clause (a)
        for p in d.parents(dec):
            if p in carrier_set:
                succ[p].add(dec)
    for dec in decisions:  # clause (b)
        succ[dec] |= d.graph.descendants(dec) & carrier_set
    for x, y in extra:
        if x not in carrier_set or y not in carrier_set:
            raise ValueError(f"constraint ({x!r}, {y!r}) references unknown node")
        succ[x].add(y)
    close()

    # Clause (c): whether a chance node ever precedes a decision is fixed by
    # the closure so far (its outgoing relations can only start at an
    # informational arc or an extra constraint), so apply it once.
    for a in chance:
        if not any(dj in succ[a] for dj in decisions):
            for dec in decisions:
                succ[dec].add(a)
    close()

    while True:  # clause (d), round-based so the result is order-independent
        new = []
        for di in decisions:
            for a in chance:
                if a in succ[di] or di in succ[a]:
                    continue
                if any(dj in succ[di] and dj in succ[a] for dj in decisions):
                    new.append((di, a))
        if not new:
            break
        for di, a in new:
            succ[di].add(a)
        close()

    for x in carrier:
        if x in succ[x]:
            raise InconsistentOrder(f"inconsistent order: {x!r} precedes itself")
        for y in succ[x]:
            if x in succ[y]:
                raise InconsistentOrder(
                    f"inconsistent order: both {x!r} and {y!r} precede each other"
                )
    return PartialOrder(
        carrier=carrier,
        kinds={v: d.kind(v) for v in carrier},
        succ={v: frozenset(s) for v, s in succ.items()},
    )


@dataclass(frozen=True)
class OrderSchema:
    """Canonical representative of a class of admissible total orderings.

    ``decision_sequence`` is a permutation of all decision nodes and
    ``slots`` maps each chance node to an integer in 0..n: slot k means
    observed after the k-th decision of the sequence and before the
    (k+1)-th; slot n means observed last or never.  Chance nodes within a
    slot are kept in declaration order, which affects only reporting.
    """

    decision_sequence: tuple[str, ...]
    slots: tuple[tuple[str, int], ...]

    @cached_property
    def slot_of(self) -> dict[str, int]:
        return dict(self.slots)

    def induced_order(self) -> tuple[str, ...]:
        out: list[str] = [c for c, s in self.slots if s == 0]
        for k, dec in enumerate(self.decision_sequence, start=1):
            out.append(dec)
            out.extend(c for c, s in self.slots if s == k)
        return tuple(out)

    def position(self, dec: str) -> int:
        """1-based index of a decision in the sequence."""
        return self.decision_sequence.index(dec) + 1

    def pred(self, dec: str) -> frozenset[str]:
        """Everything observed or decided before ``dec``: chance nodes in
        earlier slots plus earlier decisions (no-forgetting)."""
        k = self.position(dec)
        earlier_chance = {c for c, s in self.slots if s < k}
        return frozenset(earlier_chance | set(self.decision_sequence[: k - 1]))

    def decisions_after(self, dec: str) -> tuple[str, ...]:
        return self.decision_sequence[self.position(dec):]


def _decision_extensions(po: PartialOrder, decisions: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """Linear extensions of the precedence relation restricted to decisions,
    in lexicographic (declaration) order."""
    remaining = list(decisions)

    def rec(prefix: list[str], remaining: list[str]) -> Iterator[tuple[str, ...]]:
        if not remaining:
            yield tuple(prefix)
            return
        for dec in remaining:
            if any(po.precedes(other, dec) for other in remaining if other != dec):
                continue
            rest = [x for x in remaining if x != dec]
            prefix.append(dec)
            yield from rec(prefix, rest)
            prefix.pop()

    yield from rec([], remaining)


class SequenceSlots(NamedTuple):
    """One linear extension of the decision order, with what every schema
    under it shares: the 1-based position of each decision and the
    admissible slot interval of each chance node (declaration order), which
    lies after every decision that precedes the node and before every
    decision it precedes."""

    decisions: tuple[str, ...]
    position: dict[str, int]
    ranges: tuple[tuple[int, int], ...]


def decision_sequences(d: Diagram, po: PartialOrder) -> Iterator[SequenceSlots]:
    """The decision sequences of :func:`enumerate_schemas`, in its order."""
    chance = d.chance_ids
    for seq in _decision_extensions(po, d.decision_ids):
        pos = {dec: i for i, dec in enumerate(seq, start=1)}
        # Sequence extensions guarantee lo <= hi for every chance node.
        ranges = tuple(
            (
                max((pos[dec] for dec in seq if po.precedes(dec, c)), default=0),
                min((pos[dec] - 1 for dec in seq if po.precedes(c, dec)), default=len(seq)),
            )
            for c in chance
        )
        yield SequenceSlots(seq, pos, ranges)


def enumerate_schemas(d: Diagram, po: PartialOrder | None = None) -> Iterator[OrderSchema]:
    """Yield every admissible order schema exactly once, lexicographically
    by decision sequence then by slot vector (chance in declaration order).
    """
    if po is None:
        po = induce_partial_order(d)
    chance = d.chance_ids
    for seq, _, ranges in decision_sequences(d, po):
        for combo in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)):
            yield OrderSchema(seq, tuple(zip(chance, combo)))


def canonical_schema(d: Diagram, po: PartialOrder | None = None) -> OrderSchema:
    return next(enumerate_schemas(d, po))
