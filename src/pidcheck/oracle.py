"""Exact evaluation of realized diagrams by factored variable elimination.

Each chance node's CPT is a probability factor and each utility table a
utility factor.  Variables are eliminated in reverse schema order: a chance
node is summed out of the product of the probability factors over it, which
also averages the utility factors over it; a decision is maximized after its
rule is recorded over the full past.  Only the rule tables span a whole
prefix; every other table spans the variables one elimination step touches,
and no table may exceed MAX_TABLE_CELLS.  No junction tree.

`solve_schemas` is the one elimination; `solve` calls it on one schema and
one realization.  It solves several realizations at once: each table has a
leading trial axis, and products, last-axis sums, means and maxima and the
tie test all work trial by trial, so each trial's rules and MEU are bit for
bit those of a lone `solve`.  MAX_TABLE_CELLS bounds the tables of one
trial; `batch_trials` realizations keep the batched tables within it too,
and their number within MAX_BATCH.

It also shares eliminations across schemas.  A factor's axes follow its
variables in declaration (carrier) order, whatever the schema; a step moves
the axis of the variable it eliminates last, so every sum still runs over a
last axis of a freshly computed table.  The factor list starts in
declaration order and each step splits it stably and appends, so the list,
the order of every elementwise product and sum, and every table depend only
on the sequence of variables eliminated so far, the order suffix, and not
on the order of the prefix still waiting.  A decision's table spans its
past as a set, in declaration order, and is handed out so, as one
`BatchedRule` for the whole batch; `solve` alone builds a `DecisionRule`,
a view with its past in schema order.  Two schemas whose orders end alike
therefore take the same steps, with the same bits, until that suffix is
used up.  The routine resumes each schema from the state after the longest
suffix it shares with the previous one.  It looks one schema ahead and
keeps only the states along the suffix that the next schema shares, so
memory holds at most one path.  An error fires at the same schema, with
the same message, as a solve per schema.  Solving never mutates its
inputs, nor a table it has handed out.

Since the bits do not depend on the visiting order, a caller may pick it:
`fuzz` sorts the schemas by their reversed orders, so that each distinct
suffix is eliminated once.  A rules-only walk (``meu=False``) ends each
schema at its first decision, since the chance nodes before it feed only
the MEU.  It hands out the rules of the full walk.  Where the utilities
are far from overflow, as those of `random_realization` (0..100) are, it
also raises every error of the full walk, at the same schema: the first
decision's step sums every utility factor left, so it meets any
non-finite entry, and its rule table spans every variable left, so no
later table is larger; later steps only average and maximize finite
entries.  A schema without decisions is still eliminated in full.

The checks on rules run over the trial axis too: `required_per_trial`
takes one comparison per past variable and `rules_differ` one per table
for every trial of a batch, aligning the axes by variable.  A lone
strategy is the one-trial case: `required_from_strategy` and
`strategies_equal` call them on the rule with a trial axis of length one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from itertools import compress
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .model import Diagram, Kind
from .ordering import OrderSchema

# numpy is imported inside the functions that compute, so that the
# structural commands, which import this module, never load it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TIE_TOL = 1e-9
CPT_ROW_TOL = 1e-12
# Largest table, factor or decision rule, that solve allocates.
MAX_TABLE_CELLS = 1 << 24
# Most realizations in one batch.  Each costs Python objects that no cell
# count sees, and past a few dozen a batch saves no more per-call overhead.
MAX_BATCH = 64


class EvaluationError(ArithmeticError):
    """Numeric failure (overflow/NaN) while evaluating a realization."""


class InvalidRealization(ValueError):
    pass


def _row_sum(values: Sequence[float], lo: int, n: int) -> float:
    """``sum(values[lo:lo + n])`` in numpy's pairwise order, so that a CPT
    row sums to ``t.sum(axis=-1)`` bit for bit: a plain loop below 8
    entries, eight interleaved accumulators up to 128, and above that the
    two halves, cut at a multiple of 8."""
    if n < 8:
        s = 0.0
        for i in range(lo, lo + n):
            s += values[i]
        return s
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            s += values[i]
        return s
    half = n // 2
    half -= half % 8
    return _row_sum(values, lo, half) + _row_sum(values, lo + half, n - half)


def table_shape(d: Diagram, v: str) -> tuple[int, ...]:
    """The axes of ``v``'s table: its parents' state counts in declared
    order, then, for a chance node's CPT, its own."""
    own = (len(d.states(v)),) if d.kind(v) is Kind.CHANCE else ()
    return tuple(len(d.states(p)) for p in d.parents(v)) + own


def check_tables(
    d: Diagram,
    cpts: Mapping[str, Any],
    utilities: Mapping[str, Any],
    values_of: Callable[[Any], Sequence[float]],
) -> None:
    """The rules every realization of ``d`` passes, in pure Python and in
    the order they are reported: per chance node, a CPT of the right shape
    whose entries lie in [0, 1] and whose rows sum to 1 within
    CPT_ROW_TOL; then per value node, a utility table of the right shape.
    A table has a ``shape``, and ``values_of`` gives its entries in
    row-major order."""
    for c in d.chance_ids:
        if c not in cpts:
            raise InvalidRealization(f"missing CPT for chance node {c!r}")
        expected = table_shape(d, c)
        t = cpts[c]
        if t.shape != expected:
            raise InvalidRealization(f"CPT for {c!r} has shape {t.shape}, expected {expected}")
        values = values_of(t)
        if any(x < 0 or x > 1 for x in values):
            raise InvalidRealization(f"CPT for {c!r} has entries outside [0, 1]")
        n = expected[-1]
        # NaN rows fail the comparison.
        if not all(abs(_row_sum(values, i, n) - 1.0) <= CPT_ROW_TOL for i in range(0, len(values), n)):
            raise InvalidRealization(f"CPT rows for {c!r} do not sum to 1")
    for v in d.value_ids:
        if v not in utilities:
            raise InvalidRealization(f"missing utility table for value node {v!r}")
        expected = table_shape(d, v)
        t = utilities[v]
        if t.shape != expected:
            raise InvalidRealization(f"utility table for {v!r} has shape {t.shape}, expected {expected}")


@dataclass(frozen=True, eq=False)
class Realization:
    """Conditional probability tables for chance nodes and utility tables
    for value nodes.  Table axes follow the node's declared parent order,
    with the node's own state last (fastest-varying in the flat layout)."""

    cpts: dict[str, np.ndarray]
    utilities: dict[str, np.ndarray]
    # The diagram the tables last passed `validated` against, or, given at
    # construction, a diagram they are known to pass `check_tables` for.
    _valid_for: Diagram | None = field(default=None, kw_only=True, repr=False)

    def validated(self, d: Diagram) -> "Realization":
        """Self, after `check_tables` against ``d``; the check runs once
        per diagram, so the tables must not change after it."""
        if self._valid_for is not d:
            check_tables(d, self.cpts, self.utilities, lambda t: t.reshape(-1).tolist())
            object.__setattr__(self, "_valid_for", d)
        return self


def random_realization(d: Diagram, seed: int) -> Realization:
    """Deterministic function of (diagram, seed): CPT rows are normalized
    independent uniforms, utilities are uniform integers in 0..100 so ties
    stay detectable and rare."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cpts: dict[str, np.ndarray] = {}
    for c in d.chance_ids:
        raw = rng.uniform(1e-6, 1.0, size=table_shape(d, c))
        cpts[c] = raw / raw.sum(axis=-1, keepdims=True)
    utilities: dict[str, np.ndarray] = {}
    for v in d.value_ids:
        utilities[v] = rng.integers(0, 101, size=table_shape(d, v)).astype(float)
    return Realization(cpts, utilities).validated(d)


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """Full decision-function table for one decision: per configuration of
    its past, the set of maximizing alternatives and the maximum expected
    utility.  Maximizer sets are never empty; on zero-probability pasts
    every alternative ties and the value is 0 by convention."""

    decision: str
    pred_vars: tuple[str, ...]
    states: tuple[str, ...]
    ties: np.ndarray     # bool array, shape = pred cards + (len(states),)
    values: np.ndarray   # float array, shape = pred cards

    @cached_property
    def choices(self) -> np.ndarray:
        """Object array of frozenset[str] maximizer sets, shape = pred cards."""
        import numpy as np

        choices = np.empty(self.values.shape, dtype=object)
        flat = choices.reshape(-1)
        for j, row in enumerate(self.ties.reshape(-1, len(self.states)).tolist()):
            flat[j] = frozenset(s for s, tied in zip(self.states, row) if tied)
        return choices


@dataclass(frozen=True, eq=False)
class Strategy:
    schema: OrderSchema
    rules: dict[str, DecisionRule]


@dataclass(frozen=True, eq=False)
class BatchedRule:
    """One decision's rule in every realization of a batch: the tie and
    value tables of a `DecisionRule` with a leading trial axis.  The past
    need not be in schema order; `solve_schemas` gives it in declaration
    order."""

    decision: str
    pred_vars: tuple[str, ...]
    ties: np.ndarray     # bool array, shape = (trials,) + pred cards + (len(states),)
    values: np.ndarray   # float array, shape = (trials,) + pred cards


def _batched(rule: DecisionRule) -> BatchedRule:
    """``rule`` as a batch of one trial."""
    return BatchedRule(rule.decision, rule.pred_vars, rule.ties[None], rule.values[None])


# A factor's variables are carrier indices in ascending (declaration) order;
# its table's first axis is the trial, and the others follow the variables.
Factor = tuple[tuple[int, ...], "np.ndarray"]


def _check_cells(scope: Sequence[int], cards: Sequence[int]) -> None:
    cells = 1
    for v in scope:
        cells *= cards[v]
    if cells > MAX_TABLE_CELLS:
        raise EvaluationError(
            f"evaluation failure: a table over {len(scope)} variables needs {cells} cells, "
            f"over the oracle limit of {MAX_TABLE_CELLS} cells"
        )


def _scope(factors: Sequence[Factor], v: int) -> tuple[int, ...]:
    """The variables of ``factors`` other than ``v`` in declaration order,
    then ``v``."""
    union = {u for vars_of, _ in factors for u in vars_of}
    union.discard(v)
    return (*sorted(union), v)


def _aligned(factors: Sequence[Factor], scope: Sequence[int], cards: Sequence[int]) -> list[np.ndarray]:
    """Each factor's table as a view that broadcasts over the trial axis and
    the axes of ``scope``, a superset of its variables in declaration order
    but for the last one, whose axis moves last."""
    last = scope[-1] if scope else None
    out = []
    for vars_of, table in factors:
        if vars_of == scope:
            out.append(table)
            continue
        if last in vars_of and vars_of[-1] != last:
            j = vars_of.index(last) + 1
            table = table.transpose([*range(j), *range(j + 1, table.ndim), j])
        out.append(table.reshape([table.shape[0]] + [cards[u] if u in vars_of else 1 for u in scope]))
    return out


def _product(phis: Sequence[Factor], scope: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    import numpy as np

    tables = _aligned(phis, scope, cards)
    if not tables:
        return np.ones((1,) * (len(scope) + 1))
    return reduce(np.multiply, tables[1:], tables[0])


def _utility(psis: Sequence[Factor], scope: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    import numpy as np

    tables = _aligned(psis, scope, cards)
    if not tables:
        return np.zeros((1,) * (len(scope) + 1))
    total = reduce(np.add, tables[1:], tables[0])
    if not np.isfinite(total).all():
        raise EvaluationError("evaluation failure: non-finite table entries")
    return total


def _split(factors: list[Factor], v: int) -> tuple[list[Factor], list[Factor]]:
    """(factors over ``v``, the others), as new lists."""
    return [f for f in factors if v in f[0]], [f for f in factors if v not in f[0]]


def solve(d: Diagram, r: Realization, schema: OrderSchema) -> tuple[Strategy, float]:
    """`solve_schemas` on the one realization ``r`` and schema ``schema``:
    the strategy, each rule a view with its past in schema order, and the
    maximum expected utility."""
    rules, meus, _ = next(solve_schemas(d, (r,), (schema,)))
    position = {v: j for j, v in enumerate(schema.induced_order())}
    strategy = {}
    for dec, rule in rules.items():
        past = tuple(sorted(rule.pred_vars, key=position.__getitem__))
        perm = [rule.pred_vars.index(v) for v in past]
        ties, values = rule.ties[0].transpose(perm + [len(perm)]), rule.values[0].transpose(perm)
        strategy[dec] = DecisionRule(dec, past, d.states(dec), ties, values)
    return Strategy(schema, strategy), meus[0]


def batch_trials(d: Diagram) -> int:
    """How many realizations of ``d`` one `solve_schemas` call may carry: at
    most MAX_BATCH, and at least one.  No table spans more than the carrier,
    so the batched tables stay within MAX_TABLE_CELLS whenever the carrier's
    state space does."""
    cells = math.prod(len(d.states(v)) for v in d.carrier_ids)
    return max(1, min(MAX_BATCH, MAX_TABLE_CELLS // cells))


def solve_schemas(
    d: Diagram, realizations: Sequence[Realization], schemas: Iterable[OrderSchema], *, meu: bool = True
) -> Iterator[tuple[dict[str, BatchedRule], list[float] | None, tuple[str, ...]]]:
    """Per schema, eliminate variables in reverse schema order (sum over
    chance, max over decisions), recording for every decision its full
    decision-function table over the past, and yield the rules, one
    `BatchedRule` per decision in elimination order with its past in
    declaration order; per realization, the total maximum expected
    utility; and the decisions whose rules this schema did not share with
    the previous one, in elimination order (module docstring).  A shared
    rule is the same object as before.  With ``meu=False`` each schema's
    walk ends at its first decision and the MEUs are None.  Raises
    EvaluationError, at the first schema that meets one, on non-finite
    tables and on any table over MAX_TABLE_CELLS per realization."""
    import numpy as np

    for r in realizations:
        r.validated(d)
    if not realizations:
        yield from (({}, [] if meu else None, ()) for _ in schemas)
        return
    carrier = d.carrier_ids
    covered = sorted(carrier)
    rank = {v: j for j, v in enumerate(carrier)}
    cards = [len(d.states(v)) for v in carrier]
    is_chance = [d.kind(v) is Kind.CHANCE for v in carrier]
    n = len(realizations)

    def factor(vars_of: tuple[str, ...], tables: list[np.ndarray]) -> Factor:
        ranks = [rank[v] for v in vars_of]
        perm = sorted(range(len(ranks)), key=ranks.__getitem__)
        if n == 1:  # no copy: the trial axis is added to a view
            return tuple(ranks[j] for j in perm), tables[0].transpose(perm)[None]
        return tuple(ranks[j] for j in perm), np.stack(tables).transpose([0] + [j + 1 for j in perm])

    phis = [factor(d.parents(c) + (c,), [r.cpts[c] for r in realizations]) for c in d.chance_ids]
    psis = [factor(d.parents(v), [r.utilities[v] for r in realizations]) for v in d.value_ids]
    # The states that the next schema resumes from: entry j holds the
    # factors left after the last j variables of the order are eliminated.
    stack: list[tuple[list[Factor], list[Factor]]] = [(phis, psis)]
    # Per variable eliminated on the current path, in elimination order, the
    # decision's rule, or None for a chance node.  Entries of both lists are
    # never changed once pushed.
    path: list[BatchedRule | None] = []
    pending = iter(schemas)
    following = next(pending, None)
    upcoming = () if following is None else following.induced_order()
    previous: tuple[str, ...] = ()
    while following is not None:
        order = upcoming
        following = next(pending, None)
        upcoming = () if following is None else following.induced_order()
        if sorted(order) != covered:
            raise ValueError("schema does not cover this diagram's chance and decision nodes")
        ranks = tuple(map(rank.__getitem__, order))
        m = len(ranks)
        # A rules-only walk ends at the first decision; one without
        # decisions is eliminated in full.
        stop = 0 if meu else next((i for i, v in enumerate(ranks) if not is_chance[v]), 0)
        # A walk that ended early kept fewer states than the shared suffix.
        kept = min(_shared_suffix(order, previous), len(stack) - 1)
        # The next schema resumes after the suffix it shares with this one,
        # so only the states up to there are kept.
        keep = _shared_suffix(order, upcoming)
        phis, psis = stack[kept]
        del stack[keep + 1:]
        del path[kept:]
        previous = order
        fresh = []
        # Overflow shows up as non-finite entries.  Every utility factor
        # ends up in some _utility sum, which reports them.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(m - 1 - kept, stop - 1, -1):
                v = ranks[i]
                phi_v, phis = _split(phis, v)
                psi_v, psis = _split(psis, v)
                rule = None
                if is_chance[v]:
                    # phi' = sum_v prod(phi_v); psi' = sum_v prod(phi_v) sum(psi_v) / phi'.
                    scope = _scope(phi_v + psi_v, v)
                    _check_cells(scope, cards)
                    joint = _product(phi_v, scope, cards)
                    marginal = joint.sum(axis=-1)
                    phi_scope = _scope(phi_v, v)[:-1] if psi_v else scope[:-1]
                    phis.append((phi_scope, marginal.reshape([n] + [cards[u] for u in phi_scope])))
                    if psi_v:
                        expected = (joint * _utility(psi_v, scope, cards)).sum(axis=-1)
                        psis.append((scope[:-1], np.where(marginal > 0.0, expected / marginal, 0.0)))
                else:
                    # Every remaining factor lies in the past and v.
                    # Descendants of the decision all come after it, so the
                    # weight of the past does not depend on it, and the
                    # summed utility factors are the expected utility
                    # wherever the past has positive weight.
                    scope = (*sorted(ranks[:i]), v)
                    _check_cells(scope, cards)
                    possible = _product(phis + phi_v, scope, cards).any(axis=-1)
                    rho = np.zeros([n] + [cards[u] for u in scope])
                    np.copyto(rho, _utility(psis + psi_v, scope, cards), where=possible[..., None])
                    best = rho.max(axis=-1)
                    tol = DEFAULT_TIE_TOL * np.maximum(1.0, np.abs(best))
                    dec = carrier[v]
                    past = tuple(carrier[u] for u in scope[:-1])
                    rule = BatchedRule(dec, past, rho >= (best - tol)[..., None], best)
                    fresh.append(dec)
                    if phi_v:
                        scope = _scope(phi_v, v)
                        phis.append((scope[:-1], _product(phi_v, scope, cards).mean(axis=-1)))
                    if psi_v:
                        scope = _scope(psi_v, v)
                        psis.append((scope[:-1], _utility(psi_v, scope, cards).max(axis=-1)))
                path.append(rule)
                if m - i <= keep:
                    stack.append((phis, psis))
            meus = None
            if meu:
                # Without chance and value nodes the product has no trial axis.
                total = _product(phis, (), cards) * _utility(psis, (), cards) * np.ones(n)
                if not np.isfinite(total).all():
                    raise EvaluationError("evaluation failure: non-finite MEU")
                meus = total.tolist()
        yield {rule.decision: rule for rule in path if rule is not None}, meus, tuple(fresh)


def _shared_suffix(a: Sequence[str], b: Sequence[str]) -> int:
    """The length of the longest common suffix of ``a`` and ``b``."""
    n = 0
    while n < len(a) and n < len(b) and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


class Comparison(Enum):
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    DIFFERENT = "different"


def rules_differ(rule: BatchedRule, other: BatchedRule, tol: float = DEFAULT_TIE_TOL) -> np.ndarray | None:
    """Per trial, whether two rules of one decision differ: in some
    maximizer set, or in some value by more than ``tol`` relative to
    ``rule``'s (absolute below 1), with the axes aligned by variable.  None
    if the pasts differ as sets: the rules are then incomparable."""
    import numpy as np

    ties, values = other.ties, other.values
    if other.pred_vars != rule.pred_vars:
        if set(other.pred_vars) != set(rule.pred_vars):
            return None
        perm = [0] + [other.pred_vars.index(v) + 1 for v in rule.pred_vars]
        ties, values = ties.transpose(perm + [len(perm)]), values.transpose(perm)
    axes = tuple(range(1, values.ndim))
    moved = np.abs(rule.values - values) > tol * np.maximum(1.0, np.abs(rule.values))
    return (rule.ties != ties).any(axis=axes + (values.ndim,)) | moved.any(axis=axes)


def required_per_trial(rule: BatchedRule) -> list[frozenset[str]]:
    """Per trial, the past variables whose state changes the maximizer set
    of the decision function, everything else fixed: one comparison per
    past variable over the whole batch.  A sound witness set: always a
    subset of the structurally required set."""
    ties, past = rule.ties, rule.pred_vars
    axes = tuple(range(1, ties.ndim))
    # Per past variable, per trial: does some slice along its axis differ
    # from the first?
    changes = [
        (ties != ties[(slice(None),) * j + (slice(0, 1),)]).any(axis=axes).tolist() for j in range(1, len(past) + 1)
    ]
    if not changes:
        return [frozenset()] * len(ties)
    return [frozenset(compress(past, row)) for row in zip(*changes)]


def strategies_equal(s1: Strategy, s2: Strategy, tol: float = DEFAULT_TIE_TOL) -> Comparison:
    """Compare two strategies decision by decision, by `rules_differ`.

    Equality is asserted only for decisions whose past variable sets
    coincide (the tables are then compared pointwise, maximizer sets
    exactly and values within ``tol``); decisions with different pasts are
    skipped.  Returns DIFFERENT on any disagreement, EQUAL if every
    decision was comparable and agreed, INCOMPARABLE otherwise.
    """
    skipped = False
    for dec, rule1 in s1.rules.items():
        differ = rules_differ(_batched(rule1), _batched(s2.rules[dec]), tol)
        if differ is None:
            skipped = True
        elif differ[0]:
            return Comparison.DIFFERENT
    return Comparison.INCOMPARABLE if skipped else Comparison.EQUAL


def required_from_strategy(strategy: Strategy, dec: str) -> frozenset[str]:
    """`required_per_trial` for the one realization the strategy was
    solved under."""
    return required_per_trial(_batched(strategy.rules[dec]))[0]
