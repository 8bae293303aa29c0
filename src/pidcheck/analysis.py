"""Structural analysis of partial influence diagrams.

For a decision D under an admissible order schema, a utility node is
*relevant* if its table can change D's optimal decision function, and a past
variable is *required* if its state can.  Both notions are characterized by
a pair of mutually recursive graph rules:

  relevant(psi, D):  a directed path D -> psi exists once informational arcs
      are dropped; or some later decision D' has psi relevant and D feeds it
      (D is required for D', or D has a bare directed path to a chance node
      in D''s past that is required for D').
  required(X, D):    X is actively d-connected to a relevant utility given
      D and its past; or some later decision D' shares a relevant utility
      with D and X feeds it (X required for D', or X actively d-connected
      to a chance node in D''s past that is required for D').

A chance node A incompatible with D is *significant* when, placed in the
slot immediately before D under some admissible schema, the same clauses
fire for A.  A diagram is a welldefined decision scenario iff no
incompatible (chance, decision) pair is significant.

The recursions move strictly forward in the decision sequence, and at D
they read only D, its past as a set, and the (relevant, required) outcome
of every later decision: D's *outcome class*.  The rules are memoized per
outcome class, and the outcomes under a schema are worked out by walking its
decision sequence backward.  Besides the class, the rules read only the
graph without informational arcs (the "bare" graph) and the node ids, kinds
and declaration order.  A repair constraint changes none of these: it is
one more base pair of the partial order.  Forcing D before A is the pair
(D, A).  Observing A before D is the pair (A, D), and that is exact: the
order induced on the diagram plus the arc A -> D equals the order induced
on the diagram with the extra pair (A, D).
  - Clauses (a) and (b) close to the same relation either way.  Clause (a)
    on the arc is the pair itself.  Split a directed path of the extended
    diagram at its added arcs: each piece is an original path that starts
    at a decision (the path's start, or the head of an added arc) and ends
    at a chance tail or at the path's end.  So every clause-(b) pair of the
    extended diagram follows from the original clause (b) and the added
    pairs by transitivity, and the converse holds since adding arcs removes
    no path.
  - Clauses (c) and (d) read only that closure and the node kinds.
  - An arc that would close a cycle means that D reaches A, so D < A, and
    the pair raises InconsistentOrder where the arc would make the diagram
    invalid.  The repair search never proposes such an arc: it observes A
    before D only for a pair that is incompatible under the constraints it
    extends.
So an analysis derived under repair constraints
(:meth:`Analysis.constrained`) keeps its parent's diagram, memo, bare
components and closure of induction clauses (a) and (b), builds no
diagram, and only the partial order, the schema space and the
significance pass are its own.  Otherwise instances are
independent; a family of derived analyses is meant for one thread.

The rules never leave a connected component of the bare graph.  A directed
path, an active trail and a shared utility all stay inside one, so by
induction down the decision sequence every decision's relevant utilities
and required variables lie in its own component, and its outcome depends
only on the part of its past, and the outcomes of the later decisions, in
that component.  A pair whose chance node and decision lie in different
components is therefore never significant.  The components are computed
once per diagram.

Significance is decided by one backward pass over decision positions for
each component C that holds an incompatible (chance, decision) pair; the
other components are never visited.  A state is the set of C's carrier
nodes placed so far, upward-closed in the partial order restricted to C,
plus the outcomes of the placed decisions of C.  A step places one
decision D of C and the chance nodes of C in the slot after it, and equal
states merge.  D's past within C is then the set P of unplaced nodes of C,
so every schema that completes the state gives D the same outcome class.
(A, D) is significant iff some step placing D puts A in required(D) while A
precedes no node of P.

In code every node set is a bit mask.  The order and the diagram's views
number the nodes alike (see ``model``): the carrier first, so a mask of
carrier nodes means the same to the order, the rules and the d-connection
walk, then the value nodes.  A slot, a past, a relevant or required set and
every precedence test are int operations, and an outcome is the triple
(decision position, relevant mask, required mask).  Node ids are built
only for output.  A state is a pair of ints: the mask of the placed nodes
and an index into a table that interns each set of outcomes once.  The
rules have one memo, keyed by (decision position, past mask, outcome
index), which the pass and every walk down a schema's decision sequence
step through: a step hashes a tuple of three ints, and only a miss asks
the rules.  Positions are fixed by the diagram, not by the order, so the
memo and the table hold under every constrained order and are shared with
the derived analyses.

Why that test.  Every base pair of the induced order has a decision at one
end (clauses (a)-(d), and the repair constraints, each of which pairs a
chance node with a decision), so a chance node A that precedes a node y
precedes a decision e with e = y or e < y.  A schema puts A in the slot
immediately before D iff A precedes no decision of D's past, and that past
is downward-closed.  So if A precedes a node of P, the decision e on the
way lies in D's past in every completion, even when e is outside C, and A
cannot sit immediately before D.  Testing only the decisions of P is not enough: with A < E < X
for a decision E outside C and X in P, it would accept A.

Why every state extends to a full admissible schema.  P is downward-closed
in C, and the past Q = down-closure of P and D in the full order, minus D,
meets C in P.  Every linear extension of the order restricted to a subset
extends to one of the full order (a cycle in the union would have to run
forward along the restricted order all the way round), so Q, then D, then
the placed nodes of C in the order the pass placed them, merged with the
rest of the diagram, is an admissible order.  A precedes no decision of Q
exactly when it precedes no node of P, and then Q's decisions can all come
before A, which puts A in the slot immediately before D.  Conversely every
admissible schema restricts to a sequence of steps in each component.  So
the passes answer as a scan of every schema would, on every input.

MAX_SCAN_STATES caps the states summed over all passes of one analysis.

A repair recheck reads only :meth:`Analysis.significant_pairs`, never a
witness (only ``check`` and ``is_significant`` recover one), and is memoized
per constraint set.  A set is enough: the order is built from a set of pairs.
"""
from __future__ import annotations

import copy
from functools import cached_property
from typing import Collection, Iterable, NamedTuple

from .model import Diagram, Kind, bits
from .dsep import active_reach
from .ordering import (
    InconsistentOrder,
    OrderSchema,
    PartialOrder,
    base_closure,
    canonical_schema,
    enumerate_schemas,
    induce_partial_order,
)


# The most rechecks one suggest_resolutions call may run.
MAX_RECHECKS = 1 << 13


class RepairBudgetExceeded(ValueError):
    """The repair search needs more than MAX_RECHECKS rechecks."""


# The most states the significance pass of one analysis may visit.
MAX_SCAN_STATES = 1 << 16


class ScanBudgetExceeded(ValueError):
    """The significance pass needs more than MAX_SCAN_STATES states."""


# A decision's position with the masks of its relevant utilities and of its
# required variables.
Outcome = tuple[int, int, int]


class Witness(NamedTuple):
    """Evidence that a chance node is significant for a decision: the schema,
    the relevant utility, and which clause fired with what intermediates.
    Replaying the trace against the diagram re-derives the verdict."""

    chance: str
    decision: str
    schema: OrderSchema
    utility: str
    clause: str  # "direct" | "later-required" | "later-chain"
    later_decision: str | None = None
    chain_node: str | None = None


class Proposal(NamedTuple):
    """A set of ordering constraints and the verdict after applying them.

    Each constraint is ("observe", A, D) - add an informational arc A -> D -
    or ("precede", D, A) - restrict the temporal order so D comes first.
    """

    constraints: tuple[tuple[str, str, str], ...]
    welldefined: bool


class Report(NamedTuple):
    welldefined: bool
    schema: OrderSchema
    relevant: dict[str, tuple[str, ...]]
    required: dict[str, tuple[str, ...]]
    incompatible_pairs: tuple[tuple[str, str], ...]  # every pair touching a decision
    pairs_checked: tuple[tuple[str, str], ...]  # the (chance, decision) subset
    witnesses: tuple[Witness, ...]

    @property
    def significant_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((w.chance, w.decision) for w in self.witnesses)


class Analysis:
    """Shared machinery for one diagram: the components of its bare view,
    the partial order, the memoized rules and the significance pass.

    The rules have one memo, keyed by (decision position, past mask,
    later-outcome index), which the significance pass and every schema walk
    share.  Entries are reproducible from scratch; the memo is a pure
    speedup.  Analyses derived by :meth:`constrained` share it, the
    diagram, the base closure of the order and the bare components with
    their parent, and drop the parent's significance pass.  The base closure lives here, so
    it goes when the last analysis of the diagram does.
    """

    def __init__(self, d: Diagram):
        self.diagram = d
        self._extra: tuple[tuple[str, str], ...] = ()  # the base pairs of the repair constraints
        self._base = base_closure(d)
        self.po: PartialOrder = induce_partial_order(d, base=self._base)
        self._components = _carrier_components(d)
        # The rules' memo: (decision, past, later) -> (outcome, next later)
        # (see _step); later indexes _laters, which _later_ids inverts.
        self._steps: dict[tuple[int, int, int], tuple[Outcome, int]] = {}
        self._laters: list[frozenset[Outcome]] = [frozenset()]
        self._later_ids: dict[frozenset[Outcome], int] = {frozenset(): 0}

    def constrained(self, constraints: Iterable[tuple[str, str, str]]) -> Analysis:
        """The analysis of this diagram under extra repair constraints
        (see :class:`Proposal`), each a base pair of the partial order:
        ("observe", A, D) is the pair (A, D) and ("precede", D, A) the pair
        (D, A).  The pair orders as the arc A -> D would (module
        docstring), so the derived analysis keeps this diagram, its bare
        components and memo, and has its own partial order, schemas
        and significance pass.  Raises :class:`InconsistentOrder` if the
        constraints contradict the order, which is also what an observe
        arc closing a cycle does, and ``ValueError`` on an unknown kind."""
        pairs = []
        for kind, x, y in constraints:
            if kind not in ("observe", "precede"):
                raise ValueError(f"unknown constraint kind {kind!r}")
            pairs.append((x, y))
        # a shallow copy shares the diagram, its base closure, its components and the memo
        derived = copy.copy(self)
        derived._extra = self._extra + tuple(pairs)
        derived.po = induce_partial_order(self.diagram, derived._extra, self._base)
        vars(derived).pop("_significant", None)  # it follows the order
        return derived

    # -- the rules ---------------------------------------------------------

    def _outcome(self, dec: int, past: int, later: Collection[Outcome]) -> tuple[int, int]:
        """The masks (relevant, required) of the decision at position
        ``dec`` with the past ``past``, given the outcomes of the decisions
        after it in any order."""
        bare, base = self.diagram.bare, self._base
        desc = bare.descendants[dec]
        # dec's value descendants, numbered after the carrier: direct
        # influence on the payoff
        rel = desc >> len(base.carrier) << len(base.carrier)
        for _, later_rel, later_req in later:
            # dec feeds the later decision: it is required there, or has a
            # bare directed path to a node required there (no decision has
            # bare parents, so that node is a chance node)
            if (desc | 1 << dec) & later_req:
                rel |= later_rel
        # x is required iff some later decision sharing a utility with dec
        # requires it (later-required), or the clauses' d-connection queries
        # hold: x d-connected, given the rest of the past and dec, to a
        # relevant utility (direct) or to a chance node that such a decision
        # requires (later-chain).  x is d-connected to a target given
        # Z - {x} iff a ball passed from the target given Z arrives at x, so
        # one ball from every target answers all x.  The ball also arrives
        # at each chance target itself, which is required anyway, and passes
        # nowhere from an observed target, which d-connects to nothing.
        shared = 0
        for _, later_rel, later_req in later:
            if rel & later_rel:
                shared |= later_req
        reached = active_reach(bare, rel | shared & base.chance, past | 1 << dec)
        return rel, past & (shared | reached)

    def _step(self, dec: int, past: int, later: int) -> tuple[Outcome, int]:
        """:meth:`_outcome`, memoized: for the decision at carrier position
        ``dec``, the past ``past`` as a mask and the later outcomes
        ``_laters[later]``, the decision's outcome and the index of the
        later outcomes with its own added."""
        key = (dec, past, later)
        hit = self._steps.get(key)
        if hit is None:
            outcomes = self._laters[later]
            outcome = (dec, *self._outcome(dec, past, outcomes))
            grown = outcomes | {outcome}
            nxt = self._later_ids.get(grown)
            if nxt is None:
                nxt = self._later_ids[grown] = len(self._laters)
                self._laters.append(grown)
            hit = self._steps[key] = (outcome, nxt)
        return hit

    def _clause(
        self,
        schema: OrderSchema,
        x: str,
        dec: str,
        rel: int,
        later: list[Outcome],
    ) -> Witness | None:
        """The witness of the first clause that makes x required for ``dec``
        under ``schema``, given the mask of its relevant utilities ``rel``
        and the later outcomes ``later``, tried in order; None if none
        fires.  The utility and the chain node named are the first in
        declaration order.

        The d-connection conditioning set is the decision plus its past with
        x removed (a source cannot condition itself; the decision is being
        taken, hence known).
        """
        bare = self.diagram.bare
        ids, source = bare.node_ids, 1 << bare.index[x]
        conditioning = (bare.mask_of(schema.pred(dec)) | 1 << bare.index[dec]) & ~source
        # x is d-connected to a target outside the conditioning set iff one
        # ball from x arrives there, so one ball answers every query below
        reach = active_reach(bare, source, conditioning)
        if rel & reach:
            return Witness(x, dec, schema, ids[next(bits(rel & reach))], "direct")
        for later_dec, later_rel, later_req in later:
            common = rel & later_rel
            if not common:
                continue
            psi = ids[next(bits(common))]
            if later_req & source:
                return Witness(x, dec, schema, psi, "later-required", ids[later_dec])
            chain = later_req & self._base.chance & reach & ~(conditioning | source)
            if chain:
                return Witness(x, dec, schema, psi, "later-chain", ids[later_dec], ids[next(bits(chain))])
        return None

    def _walk(self, schema: OrderSchema, start: int) -> tuple[Outcome, ...]:
        """The outcomes of the decisions of ``schema`` from 0-based position
        ``start`` on, in sequence order, worked out from the last one back."""
        index, seq = self.po.index, schema.decision_sequence
        slots = [0] * (len(seq) + 1)
        for c, k in schema.slots:
            slots[k] |= 1 << index[c]
        past, later, outcomes = (1 << len(index)) - 1, 0, []
        for k in range(len(seq) - 1, start - 1, -1):
            # seq[k]'s past: seq[k + 1]'s without seq[k] and the slot after it
            past &= ~(1 << index[seq[k]] | slots[k + 1])
            outcome, later = self._step(index[seq[k]], past, later)
            outcomes.append(outcome)
        return tuple(outcomes[::-1])

    def relevant_utilities(self, schema: OrderSchema, dec: str) -> frozenset[str]:
        return frozenset(self.diagram.bare.ids_of(self._walk(schema, schema.position(dec) - 1)[0][1]))

    def required_variables(self, schema: OrderSchema, dec: str) -> frozenset[str]:
        return frozenset(self.diagram.bare.ids_of(self._walk(schema, schema.position(dec) - 1)[0][2]))

    def required_sets(self, schema: OrderSchema) -> dict[str, frozenset[str]]:
        """`required_variables` of every decision of ``schema``, from one walk."""
        bare = self.diagram.bare
        return {bare.node_ids[dec]: frozenset(bare.ids_of(req)) for dec, _, req in self._walk(schema, 0)}

    def significant_rel(self, schema: OrderSchema, a: str, dec: str) -> Witness | None:
        """Significance of chance node ``a`` for ``dec`` under one schema
        that places ``a`` in the slot immediately before ``dec``."""
        if not self.po.incompatible(a, dec):
            raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
        if schema.slot_of[a] != schema.position(dec) - 1:
            raise ValueError(
                f"schema does not place {a!r} immediately before {dec!r}"
            )
        (_, rel, _), *later = self._walk(schema, schema.position(dec) - 1)
        return self._clause(schema, a, dec, rel, later)

    # -- significance ---------------------------------------------------------

    @cached_property
    def _significant(self) -> frozenset[tuple[str, str]]:
        """The significant (chance, decision) pairs, by one backward pass
        per bare component that holds an incompatible pair, as the module
        docstring describes.  Raises :class:`ScanBudgetExceeded` once the
        passes are known to need more than MAX_SCAN_STATES states in all."""
        significant: set[tuple[str, str]] = set()
        visited = 0
        for carrier in self._components:
            found, visited = self._component_pass(carrier, visited)
            significant |= found
        return frozenset(significant)

    def _component_pass(self, carrier: int, visited: int) -> tuple[set[tuple[str, str]], int]:
        """The significant pairs of the bare component whose carrier is the
        mask ``carrier``, by the backward pass over its decision positions,
        and ``visited`` plus the states the pass visited."""

        def admit(states: int) -> None:
            if states > MAX_SCAN_STATES:
                raise ScanBudgetExceeded(
                    f"the significance pass needs more than the limit of {MAX_SCAN_STATES} states"
                )

        po, masks, before = self.po, self.po.masks, self.po.before
        dmask, cmask = carrier & self._base.decisions, carrier & self._base.chance
        decisions = list(bits(dmask))
        chance = list(bits(cmask))
        # per decision, the mask of the chance nodes incompatible with it
        # whose pair is not known significant yet
        pending = {dec: cmask & ~(masks[dec] | before[dec]) for dec in decisions}
        pairs = dict(pending)
        if not any(pending.values()):
            return set(), visited
        decisions_after = {v: masks[v] & dmask for v in bits(carrier)}
        # a slot's chance nodes with their successors first
        chance.sort(key=lambda c: masks[c].bit_count())
        steps = self._steps
        states: set[tuple[int, int]] = {(0, 0)}
        visited += len(states)
        while states and any(pending.values()):
            step: set[tuple[int, int]] = set()
            for placed, later in states:
                free = carrier & ~placed
                for dec in decisions:
                    if not free >> dec & 1 or decisions_after[dec] & ~placed:
                        continue
                    # The slot after dec: every free successor of dec, plus
                    # an upward-closed set of free chance nodes that precede
                    # no free decision, dec included.  Each slot makes a
                    # distinct state of the next level.
                    first = masks[dec] & free
                    slots = [first]
                    for c in chance:
                        if free >> c & 1 and not first >> c & 1 and not decisions_after[c] & ~placed:
                            need, bit = masks[c] & free, 1 << c
                            slots += [s | bit for s in slots if not need & ~s]
                            admit(visited + len(slots))
                    rest = free & ~(1 << dec)
                    for slot in slots:
                        past = rest & ~slot
                        (_, _, req), nxt = steps.get((dec, past, later)) or self._step(dec, past, later)
                        hits = req & pending[dec]
                        if hits:
                            for a in bits(hits):
                                if not masks[a] & past:
                                    pending[dec] &= ~(1 << a)
                        step.add((carrier & ~past, nxt))
                    admit(visited + len(step))
            visited += len(step)
            states = step
        ids = po.carrier
        return {(ids[a], ids[dec]) for dec in decisions for a in bits(pairs[dec] & ~pending[dec])}, visited

    def is_significant(self, a: str, dec: str) -> Witness | None:
        """Existential significance over admissible schemas placing ``a``
        immediately before ``dec``.  The significance pass decides it; for
        a significant pair, the first such schema in :func:`enumerate_schemas`
        order on which a clause fires gives the witness, read from the
        schemas pinned to the pair.  A clause fires exactly where ``a`` is
        required for ``dec``, so each schema costs one memoized walk."""
        if self.diagram.kind(a) is not Kind.CHANCE or self.diagram.kind(dec) is not Kind.DECISION:
            raise ValueError("significance is defined for (chance, decision) pairs")
        if not self.po.incompatible(a, dec):
            raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
        if (a, dec) not in self._significant:
            return None
        source = 1 << self.po.index[a]
        for schema in enumerate_schemas(self.diagram, self.po, pin=(a, dec)):
            if self._walk(schema, schema.position(dec) - 1)[0][2] & source:
                w = self.significant_rel(schema, a, dec)
                if w is None:
                    raise AssertionError(f"no clause fires where {a!r} is required for {dec!r}")
                return w
        raise AssertionError(f"no schema fires for the significant pair ({a!r}, {dec!r})")

    # -- the verdict ----------------------------------------------------------

    def significant_pairs(self) -> tuple[tuple[str, str], ...]:
        """The significant pairs of :meth:`check` in its report order, read
        from the significance pass without recovering a witness: empty iff
        the diagram is welldefined."""
        index = self.po.index
        return tuple(sorted(self._significant, key=lambda pair: (index[pair[1]], index[pair[0]])))

    def check(self) -> Report:
        """Welldefinedness verdict: the diagram is a welldefined scenario iff
        no incompatible (chance, decision) pair is significant.  Classic
        diagrams have no such pairs and always come back welldefined.  Pairs
        and witnesses are in report order: by decision, then by chance node,
        in declaration order."""
        po, bare = self.po, self.diagram.bare
        ids, masks, before, chance = po.carrier, po.masks, po.before, po.chance
        pairs = tuple(
            (ids[a], ids[dec])
            for dec in bits(po.decisions)
            for a in bits(chance & ~(masks[dec] | before[dec]))
        )
        found = (self.is_significant(a, dec) for a, dec in pairs)
        witnesses = tuple(w for w in found if w is not None)
        schema = canonical_schema(self.diagram, po)
        outcomes = {dec: (rel, req) for dec, rel, req in self._walk(schema, 0)}
        return Report(
            welldefined=not witnesses,
            schema=schema,
            relevant={ids[dec]: bare.ids_of(outcomes[dec][0]) for dec in bits(po.decisions)},
            required={ids[dec]: bare.ids_of(outcomes[dec][1]) for dec in bits(po.decisions)},
            incompatible_pairs=po.incompatible_pairs(),
            pairs_checked=pairs,
            witnesses=witnesses,
        )


def _carrier_components(d: Diagram) -> tuple[int, ...]:
    """The chance and decision nodes of each connected component of the
    bare graph that holds any, in declaration order of its first node, as
    masks over the carrier positions."""
    bare = d.bare
    carrier = (1 << len(d.carrier_ids)) - 1
    seen, out = 0, []
    for start in range(len(d.carrier_ids)):
        if seen >> start & 1:
            continue
        part = frontier = 1 << start
        while frontier:
            reached = 0
            for v in bits(frontier):
                reached |= bare.parents[v] | bare.children[v]
            frontier = reached & ~part
            part |= frontier
        seen |= part
        out.append(part & carrier)
    return tuple(out)


def check_welldefined(d: Diagram) -> Report:
    """The verdict of :meth:`Analysis.check` on ``d``."""
    return Analysis(d).check()


def suggest_resolutions(
    d: Diagram, report: Report, *, analysis: Analysis | None = None
) -> tuple[Proposal, ...]:
    """For each witness pair (A, D), propose observing A before D (an
    informational arc) and forcing D before A (a pure ordering constraint),
    re-checking the diagram under each.  Proposals that do not reach a
    welldefined verdict on their own are greedily extended one constraint
    at a time.  Sorted by constraint count, so single-constraint fixes come
    first.

    ``report`` is the check of ``d``, and ``analysis`` the unconstrained
    analysis of ``d`` that made it, if the caller has one.  Every recheck
    runs on an analysis derived from it (or from a new one), so they all
    share its memo.  A recheck reads only the first significant pair, which
    follows from the diagram and the induced order alone, so it is found
    once per order, and each constraint set is analysed once.  Raises
    :class:`RepairBudgetExceeded` before a recheck beyond MAX_RECHECKS,
    counting a set as often as it is reached."""
    if report.welldefined:
        return ()
    base = analysis if analysis is not None else Analysis(d)
    proposals: list[Proposal] = []
    rechecks = 0
    # constraint set, and induced order -> the first significant pair, None
    # or "inconsistent"; never the exception, whose traceback holds
    # analyses.  An order is keyed by its masks.
    verdicts: dict[frozenset[tuple[str, str, str]], tuple[str, str] | str | None] = {}
    by_order: dict[tuple[int, ...], tuple[str, str] | None] = {}

    def recheck(constraints: tuple[tuple[str, str, str], ...]) -> tuple[str, str] | str | None:
        nonlocal rechecks
        if rechecks == MAX_RECHECKS:
            raise RepairBudgetExceeded(
                f"suggest needs more than the limit of {MAX_RECHECKS} rechecks"
            )
        rechecks += 1
        key = frozenset(constraints)
        if key not in verdicts:
            try:
                derived = base.constrained(constraints)
            except InconsistentOrder:
                verdicts[key] = "inconsistent"
                return verdicts[key]
            order = derived.po.masks
            if order not in by_order:
                pairs = derived.significant_pairs()
                by_order[order] = pairs[0] if pairs else None
            verdicts[key] = by_order[order]
        return verdicts[key]

    # Each constraint tuple is grown at most once: the roots come from
    # distinct witnesses, and a tuple extends only the first significant
    # pair of its own recheck.
    def branch(
        constraints: tuple[tuple[str, str, str], ...], pairs: Iterable[tuple[str, str]], depth: int
    ) -> None:
        for a, dec in pairs:
            for option in (("observe", a, dec), ("precede", dec, a)):
                nxt = constraints + (option,)
                first = recheck(nxt)
                if first == "inconsistent":
                    continue
                proposals.append(Proposal(constraints=nxt, welldefined=first is None))
                if first is not None and depth > 0:
                    branch(nxt, (first,), depth - 1)

    branch((), report.significant_pairs, len(report.witnesses) + 1)
    proposals.sort(key=lambda p: (not p.welldefined, len(p.constraints)))
    return tuple(proposals)
