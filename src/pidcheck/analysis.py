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

The recursions move strictly forward in the decision sequence, so results
are memoized per (decision, schema suffix); everything before the decision
enters only as a set, which the suffix determines by complement.  Memo
tables live inside one Analysis instance; distinct instances are fully
independent, so concurrent runs need no coordination.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator

from .model import Diagram, GraphView, Kind, strip_informational
from .dsep import active_reach
from .ordering import (
    InconsistentOrder,
    OrderSchema,
    PartialOrder,
    SequenceSlots,
    canonical_schema,
    decision_sequences,
    induce_partial_order,
)


@dataclass(frozen=True)
class Witness:
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


@dataclass(frozen=True)
class Proposal:
    """A set of ordering constraints and the verdict after applying them.

    Each constraint is ("observe", A, D) - add an informational arc A -> D -
    or ("precede", D, A) - restrict the temporal order so D comes first.
    """

    constraints: tuple[tuple[str, str, str], ...]
    welldefined: bool


@dataclass(frozen=True)
class Report:
    welldefined: bool
    schema: OrderSchema
    relevant: dict[str, tuple[str, ...]]
    required: dict[str, tuple[str, ...]]
    incompatible_pairs: tuple[tuple[str, str], ...]  # every pair touching a decision
    pairs_checked: tuple[tuple[str, str], ...]  # the (chance, decision) subset
    witnesses: tuple[Witness, ...]
    suggestions: tuple[Proposal, ...] | None = None  # filled by suggest_resolutions

    def with_suggestions(self, proposals: tuple[Proposal, ...]) -> "Report":
        return replace(self, suggestions=proposals)

    @property
    def significant_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((w.chance, w.decision) for w in self.witnesses)


class Analysis:
    """Shared machinery for one diagram: the stripped view, the partial
    order, and memo tables reused across schemas.

    Memo keys are (decision, suffix signature): the relevant/required sets
    of a decision depend only on what comes at or after it, because the
    past enters the rules solely as the complement set.  Entries are
    reproducible from scratch; the cache is a pure speedup.
    """

    def __init__(self, d: Diagram, extra_constraints: Iterable[tuple[str, str]] = ()):
        self.diagram = d
        self.po: PartialOrder = induce_partial_order(d, extra_constraints)
        self.bare: GraphView = strip_informational(d)
        self._bare_desc: dict[str, set[str]] = {}
        self._relevant_memo: dict[tuple, frozenset[str]] = {}
        self._required_memo: dict[tuple, frozenset[str]] = {}

    # -- graph helpers ----------------------------------------------------

    def bare_descendants(self, node: str) -> set[str]:
        if node not in self._bare_desc:
            out: set[str] = set()
            stack = [node]
            while stack:
                v = stack.pop()
                for c in self.bare.children_of(v):
                    if c not in out:
                        out.add(c)
                        stack.append(c)
            self._bare_desc[node] = out
        return self._bare_desc[node]

    def d_conn(self, source: str, targets: frozenset[str], conditioning: frozenset[str]) -> bool:
        if source in targets:
            return True
        if not targets:
            return False
        res = active_reach(self.bare, frozenset({source}), conditioning - {source})
        return bool(res.reachable & targets)

    @staticmethod
    def _suffix_key(schema: OrderSchema, dec: str) -> tuple:
        k = schema.position(dec)
        later_slots = tuple(
            (c, s - k) for c, s in schema.slots if s >= k
        )
        return (dec, schema.decision_sequence[k - 1:], later_slots)

    # -- the rules ---------------------------------------------------------

    def relevant_utilities(self, schema: OrderSchema, dec: str) -> frozenset[str]:
        key = self._suffix_key(schema, dec)
        if key in self._relevant_memo:
            return self._relevant_memo[key]
        rel: set[str] = set()
        desc = self.bare_descendants(dec)
        for v in self.diagram.value_ids:  # direct influence on the payoff
            if v in desc:
                rel.add(v)
        for later in schema.decisions_after(dec):
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

    def required_variables(self, schema: OrderSchema, dec: str) -> frozenset[str]:
        key = self._suffix_key(schema, dec)
        if key in self._required_memo:
            return self._required_memo[key]
        pred = schema.pred(dec)
        rel = self.relevant_utilities(schema, dec)
        out: set[str] = set()
        for x in self.diagram.sort_ids(pred):
            if self._required_one(schema, dec, x, pred, rel) is not None:
                out.add(x)
        result = frozenset(out)
        self._required_memo[key] = result
        return result

    def _required_one(
        self,
        schema: OrderSchema,
        dec: str,
        x: str,
        pred: frozenset[str],
        rel: frozenset[str],
    ) -> tuple | None:
        """Clause that fires for candidate x, or None.

        The d-connection conditioning set is the decision plus its past with
        x removed (a source cannot condition itself; the decision is being
        taken, hence known).
        """
        conditioning = (pred | {dec}) - {x}
        if self.d_conn(x, rel, conditioning):
            psi = next(v for v in self.diagram.value_ids
                       if v in rel and self.d_conn(x, frozenset({v}), conditioning))
            return ("direct", psi, None, None)
        for later in schema.decisions_after(dec):
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
                    and self.d_conn(x, frozenset({y}), conditioning)
                ):
                    return ("later-chain", psi, later, y)
        return None

    def significant_rel(self, schema: OrderSchema, a: str, dec: str) -> Witness | None:
        """Significance of chance node ``a`` for ``dec`` under one schema
        that places ``a`` in the slot immediately before ``dec``."""
        if not self.po.incompatible(a, dec):
            raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
        if schema.slot_of[a] != schema.position(dec) - 1:
            raise ValueError(
                f"schema does not place {a!r} immediately before {dec!r}"
            )
        pred = schema.pred(dec)
        rel = self.relevant_utilities(schema, dec)
        hit = self._required_one(schema, dec, a, pred, rel)
        if hit is None:
            return None
        clause, psi, later, chain = hit
        return Witness(
            chance=a,
            decision=dec,
            schema=schema,
            utility=psi,
            clause=clause,
            later_decision=later,
            chain_node=chain,
        )

    # -- schema scans -------------------------------------------------------

    @cached_property
    def _sequences(self) -> tuple[SequenceSlots, ...]:
        return tuple(decision_sequences(self.diagram, self.po))

    def _pair_schemas(self, a: str, dec: str, exact: bool) -> Iterator[OrderSchema]:
        """The admissible schemas placing ``a`` in the slot immediately
        before ``dec``, in :func:`enumerate_schemas` order, generated
        directly: ``a`` is pinned and the other chance nodes range freely.

        With ``exact`` false, only the first schema of each distinct past of
        ``dec`` is kept.  Within one sequence that is the lowest slot vector
        with the same split of chance nodes into before and after ``dec``,
        so each chance node needs at most two slots: its lowest, and its
        lowest at or after ``dec``.
        """
        chance = self.diagram.chance_ids
        ai = chance.index(a)
        seen_pasts: set[frozenset[str]] = set()
        for seq, pos, ranges in self._sequences:
            k = pos[dec]
            lo, hi = ranges[ai]
            if not lo <= k - 1 <= hi:
                continue
            if exact:
                choices = [range(lo, hi + 1) for lo, hi in ranges]
            else:
                choices = [(lo, k) if lo < k <= hi else (lo,) for lo, hi in ranges]
            choices[ai] = (k - 1,)
            earlier = frozenset(seq[: k - 1])
            for combo in itertools.product(*choices):
                if not exact:
                    past = earlier.union(c for c, s in zip(chance, combo) if s < k)
                    if past in seen_pasts:
                        continue
                    seen_pasts.add(past)
                yield OrderSchema(seq, tuple(zip(chance, combo)), chance)

    def is_significant(self, a: str, dec: str, exact: bool = True) -> Witness | None:
        """Existential significance over admissible schemas placing ``a``
        immediately before ``dec``.

        The default scans every such schema and answers any single pair
        exactly.  ``exact=False`` evaluates one representative per distinct
        past of ``dec`` instead, collapsing schemas that differ only in the
        ordering of what follows the decision (the past enters the rules as
        a set).  That is sound only once every later incompatible pair has
        been cleared, which :func:`check_welldefined` arranges; on its own
        it can miss a witness.
        """
        if self.diagram.kind(a) is not Kind.CHANCE or self.diagram.kind(dec) is not Kind.DECISION:
            raise ValueError("significance is defined for (chance, decision) pairs")
        if not self.po.incompatible(a, dec):
            raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
        for schema in self._pair_schemas(a, dec, exact):
            w = self.significant_rel(schema, a, dec)
            if w is not None:
                return w
        return None


def relevant_utilities(ctx: "AnalysisContext", dec: str) -> frozenset[str]:
    return ctx.analysis.relevant_utilities(ctx.schema, dec)


def required_variables(ctx: "AnalysisContext", dec: str) -> frozenset[str]:
    return ctx.analysis.required_variables(ctx.schema, dec)


def significant_rel(ctx: "AnalysisContext", a: str, dec: str) -> Witness | None:
    return ctx.analysis.significant_rel(ctx.schema, a, dec)


@dataclass
class AnalysisContext:
    """One diagram, one schema: the unit the per-decision queries run in."""

    analysis: Analysis
    schema: OrderSchema

    @classmethod
    def build(cls, d: Diagram, schema: OrderSchema | None = None) -> "AnalysisContext":
        analysis = Analysis(d)
        if schema is None:
            schema = canonical_schema(d, analysis.po)
        return cls(analysis, schema)


def is_significant(d: Diagram, a: str, dec: str, exact: bool = True) -> Witness | None:
    """Significance of one (chance, decision) pair; see
    :meth:`Analysis.is_significant`."""
    return Analysis(d).is_significant(a, dec, exact=exact)


def _decision_depth_order(analysis: Analysis) -> list[str]:
    """Decisions ordered latest-first: repeatedly peel a maximal decision.

    Pairs whose decision is latest are investigated first; once every later
    pair is insignificant, the ordering of the suffix cannot matter, which
    is what licenses the collapsed scan.
    """
    decisions = list(analysis.diagram.decision_ids)
    out: list[str] = []
    remaining = decisions[:]
    while remaining:
        for dec in remaining:
            if not any(analysis.po.precedes(dec, other) for other in remaining if other != dec):
                out.append(dec)
                remaining.remove(dec)
                break
    return out


def check_welldefined(
    d: Diagram,
    exact: bool = False,
    extra_constraints: Iterable[tuple[str, str]] = (),
) -> Report:
    """Welldefinedness verdict: the diagram is a welldefined scenario iff no
    incompatible (chance, decision) pair is significant.  Classic diagrams
    have no such pairs and always come back welldefined.

    The default run scans pairs latest-decision-first with the collapsed
    pass (``is_significant(..., exact=False)``: one schema per distinct
    past), which is sound while every later pair is insignificant; the
    moment any pair fires, the whole sweep is redone exactly.  Exact and
    default mode therefore emit identical reports.
    """
    analysis = Analysis(d, extra_constraints)
    pairs: list[tuple[str, str]] = []
    for dec in _decision_depth_order(analysis):
        for a in d.chance_ids:
            if analysis.po.incompatible(a, dec):
                pairs.append((a, dec))
    if not exact:
        exact = any(
            analysis.is_significant(a, dec, exact=False) is not None for a, dec in pairs
        )
    witnesses: list[Witness] = []
    if exact:
        for a, dec in pairs:
            w = analysis.is_significant(a, dec, exact=True)
            if w is not None:
                witnesses.append(w)
    schema = canonical_schema(d, analysis.po)
    relevant = {
        dec: d.sort_ids(analysis.relevant_utilities(schema, dec))
        for dec in d.decision_ids
    }
    required = {
        dec: d.sort_ids(analysis.required_variables(schema, dec))
        for dec in d.decision_ids
    }
    witnesses.sort(key=lambda w: (d.declaration_index(w.decision), d.declaration_index(w.chance)))
    return Report(
        welldefined=not witnesses,
        schema=schema,
        relevant=relevant,
        required=required,
        incompatible_pairs=analysis.po.incompatible_pairs(),
        pairs_checked=tuple(sorted(pairs, key=lambda p: (d.declaration_index(p[1]), d.declaration_index(p[0])))),
        witnesses=tuple(witnesses),
    )


def replay_witness(d: Diagram, w: Witness) -> bool:
    """Re-derive a witness verdict from its trace alone."""
    analysis = Analysis(d)
    pred = w.schema.pred(w.decision)
    conditioning = (pred | {w.decision}) - {w.chance}
    rel = analysis.relevant_utilities(w.schema, w.decision)
    if w.utility not in rel:
        return False
    if w.clause == "direct":
        return analysis.d_conn(w.chance, frozenset({w.utility}), conditioning)
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
            and analysis.d_conn(w.chance, frozenset({w.chain_node}), conditioning)
        )
    return False


def _apply_constraints(
    d: Diagram, constraints: Iterable[tuple[str, str, str]]
) -> tuple[Diagram, list[tuple[str, str]]]:
    extra: list[tuple[str, str]] = []
    current = d
    for kind, x, y in constraints:
        if kind == "observe":
            current = current.with_arc(x, y)
        elif kind == "precede":
            extra.append((x, y))
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")
    return current, extra


def suggest_resolutions(d: Diagram, report: Report) -> tuple[Proposal, ...]:
    """For each witness pair (A, D), propose observing A before D (an
    informational arc) and forcing D before A (a pure ordering constraint),
    re-checking the diagram under each.  Proposals that do not reach a
    welldefined verdict on their own are greedily extended one constraint
    at a time.  Sorted by constraint count, so single-constraint fixes come
    first."""
    if report.welldefined:
        return ()
    proposals: list[Proposal] = []
    seen: set[tuple] = set()

    def recheck(constraints: tuple[tuple[str, str, str], ...]) -> Report:
        nd, extra = _apply_constraints(d, constraints)
        return check_welldefined(nd, extra_constraints=extra)

    def grow(constraints: tuple[tuple[str, str, str], ...], rep: Report, depth: int) -> None:
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
