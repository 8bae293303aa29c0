"""Exact evaluation of realized diagrams by factored variable elimination.

Each chance node's CPT is a probability factor and each utility table a
utility factor.  Variables are eliminated in reverse schema order: a chance
node is summed out of the product of the probability factors over it, which
also averages the utility factors over it; a decision is maximized after its
rule is recorded over the full past.  Only the rule tables span a whole
prefix; every other table spans the variables one elimination step touches,
and no table may exceed MAX_TABLE_CELLS.  No junction tree.

Everything here is pure: solving never mutates its inputs, and search
trials are independent, so callers may parallelize them as long as the
lowest-trial-index counterexample is the one kept.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .model import Diagram, Kind
from .ordering import OrderSchema, enumerate_schemas, induce_partial_order

# numpy is imported inside the functions that compute, so that the
# structural commands, which import this module, never load it.
if TYPE_CHECKING:
    import numpy as np

DEFAULT_TIE_TOL = 1e-9
CPT_ROW_TOL = 1e-12
# Largest table, factor or decision rule, that solve allocates.
MAX_TABLE_CELLS = 1 << 24


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
    # The diagram the tables last passed `validated` against.
    _valid_for: Diagram | None = field(default=None, init=False, repr=False)

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


# A factor's variables are sorted by schema position and its table's axes
# follow them.
Factor = tuple[tuple[str, ...], "np.ndarray"]


def _check_cells(scope: Sequence[str], cards: Mapping[str, int]) -> None:
    cells = 1
    for v in scope:
        cells *= cards[v]
    if cells > MAX_TABLE_CELLS:
        raise EvaluationError(
            f"evaluation failure: a table over {len(scope)} variables needs {cells} cells, "
            f"over the oracle limit of {MAX_TABLE_CELLS} cells"
        )


def _aligned(factors: Sequence[Factor], scope: Sequence[str], cards: Mapping[str, int]) -> list[np.ndarray]:
    """Each factor's table reshaped to broadcast over the axes of ``scope``,
    a sorted superset of its variables."""
    return [table.reshape([cards[v] if v in vars_of else 1 for v in scope]) for vars_of, table in factors]


def _product(phis: Sequence[Factor], scope: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    import numpy as np

    tables = _aligned(phis, scope, cards)
    if not tables:
        return np.ones((1,) * len(scope))
    return reduce(np.multiply, tables[1:], tables[0])


def _utility(psis: Sequence[Factor], scope: Sequence[str], cards: Mapping[str, int]) -> np.ndarray:
    import numpy as np

    tables = _aligned(psis, scope, cards)
    if not tables:
        return np.zeros((1,) * len(scope))
    total = reduce(np.add, tables[1:], tables[0])
    if not np.isfinite(total).all():
        raise EvaluationError("evaluation failure: non-finite table entries")
    return total


def _split(factors: list[Factor], v: str) -> tuple[list[Factor], list[Factor]]:
    """(factors over ``v``, the others)."""
    return [f for f in factors if v in f[0]], [f for f in factors if v not in f[0]]


def solve(d: Diagram, r: Realization, schema: OrderSchema) -> tuple[Strategy, float]:
    """Eliminate variables in reverse schema order (sum over chance,
    max over decisions), recording for every decision its full
    decision-function table over the past, and return the total maximum
    expected utility.  Raises EvaluationError on non-finite tables and on
    any table over MAX_TABLE_CELLS."""
    import numpy as np

    r.validated(d)
    order = schema.induced_order()
    if sorted(order) != sorted(d.carrier_ids):
        raise ValueError("schema does not cover this diagram's chance and decision nodes")
    position = {v: i for i, v in enumerate(order)}
    cards = {v: len(d.states(v)) for v in order}

    def scope_of(factors: Sequence[Factor]) -> tuple[str, ...]:
        # Every factor lies in the prefix ending at the variable being
        # eliminated, so that variable comes last.
        return tuple(sorted({v for vars_of, _ in factors for v in vars_of}, key=position.__getitem__))

    def factor(vars_of: tuple[str, ...], table: np.ndarray) -> Factor:
        perm = sorted(range(len(vars_of)), key=lambda j: position[vars_of[j]])
        return tuple(vars_of[j] for j in perm), table.transpose(perm)

    phis = [factor(d.parents(c) + (c,), r.cpts[c]) for c in d.chance_ids]
    psis = [factor(d.parents(v), r.utilities[v]) for v in d.value_ids]
    rules: dict[str, DecisionRule] = {}
    # Overflow shows up as non-finite entries.  Every utility factor ends up
    # in some _utility sum, which reports them.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(len(order) - 1, -1, -1):
            v = order[i]
            phi_v, phis = _split(phis, v)
            psi_v, psis = _split(psis, v)
            if d.kind(v) is Kind.CHANCE:
                # phi' = sum_v prod(phi_v); psi' = sum_v prod(phi_v) sum(psi_v) / phi'.
                scope = scope_of(phi_v + psi_v)
                _check_cells(scope, cards)
                joint = _product(phi_v, scope, cards)
                marginal = joint.sum(axis=-1)
                phi_scope = scope_of(phi_v)[:-1]
                phis.append((phi_scope, marginal.reshape([cards[u] for u in phi_scope])))
                if psi_v:
                    expected = (joint * _utility(psi_v, scope, cards)).sum(axis=-1)
                    psis.append((scope[:-1], np.where(marginal > 0.0, expected / marginal, 0.0)))
                continue
            # Every remaining factor lies in order[:i + 1].  Descendants of
            # the decision all come after it, so the weight of the past does
            # not depend on it, and the summed utility factors are the
            # expected utility wherever the past has positive weight.
            scope = order[: i + 1]
            _check_cells(scope, cards)
            possible = _product(phis + phi_v, scope, cards).any(axis=-1)
            rho = np.zeros([cards[u] for u in scope])
            np.copyto(rho, _utility(psis + psi_v, scope, cards), where=possible[..., None])
            best = rho.max(axis=-1)
            tol = DEFAULT_TIE_TOL * np.maximum(1.0, np.abs(best))
            rules[v] = DecisionRule(
                decision=v,
                pred_vars=tuple(order[:i]),
                states=d.states(v),
                ties=rho >= (best - tol)[..., None],
                values=best,
            )
            if phi_v:
                scope = scope_of(phi_v)
                phis.append((scope[:-1], _product(phi_v, scope, cards).mean(axis=-1)))
            if psi_v:
                scope = scope_of(psi_v)
                psis.append((scope[:-1], _utility(psi_v, scope, cards).max(axis=-1)))
        meu = float(_product(phis, (), cards) * _utility(psis, (), cards))
    if not np.isfinite(meu):
        raise EvaluationError("evaluation failure: non-finite MEU")
    return Strategy(schema=schema, rules=rules), meu


class Comparison(Enum):
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    DIFFERENT = "different"


def strategies_equal(s1: Strategy, s2: Strategy, tol: float = DEFAULT_TIE_TOL) -> Comparison:
    """Compare two strategies decision by decision.

    Equality is asserted only for decisions whose past variable sets
    coincide (the tables are then compared pointwise, maximizer sets
    exactly and values within ``tol``); decisions with different pasts are
    skipped.  Returns DIFFERENT on any disagreement, EQUAL if every
    decision was comparable and agreed, INCOMPARABLE otherwise.
    """
    import numpy as np

    skipped = False
    for dec, rule1 in s1.rules.items():
        rule2 = s2.rules[dec]
        if set(rule1.pred_vars) != set(rule2.pred_vars):
            skipped = True
            continue
        # Align axis order before comparing.
        perm = [rule2.pred_vars.index(v) for v in rule1.pred_vars]
        values2 = rule2.values.transpose(perm)
        if not np.array_equal(rule1.ties, rule2.ties.transpose(perm + [len(perm)])):
            return Comparison.DIFFERENT
        scale = np.maximum(1.0, np.abs(rule1.values))
        if np.any(np.abs(rule1.values - values2) > tol * scale):
            return Comparison.DIFFERENT
    return Comparison.INCOMPARABLE if skipped else Comparison.EQUAL


def required_from_strategy(strategy: Strategy, dec: str) -> frozenset[str]:
    """Past variables whose state changes the maximizer set of the decision
    function, everything else fixed, for the realization the strategy was
    solved under.  A sound witness set: always a subset of the structurally
    required set."""
    rule = strategy.rules[dec]
    out: set[str] = set()
    for axis, var in enumerate(rule.pred_vars):
        first = rule.ties[(slice(None),) * axis + (slice(0, 1),)]
        if (rule.ties != first).any():
            out.add(var)
    return frozenset(out)


def _rule_differs_with_extra_coord(rich: DecisionRule, poor: DecisionRule, extra: str) -> tuple | None:
    """First configuration where the richer table (past includes ``extra``)
    fails to be constant in ``extra`` and equal to the poorer table."""
    import numpy as np

    axis = rich.pred_vars.index(extra)
    moved = np.moveaxis(rich.ties, axis, -2)
    perm = [poor.pred_vars.index(v) for v in rich.pred_vars if v != extra]
    poor_ties = poor.ties.transpose(perm + [len(perm)])
    differs = np.any(moved != poor_ties[..., None, :], axis=-1)
    hits = np.argwhere(differs.reshape(-1, differs.shape[-1]))
    if len(hits) == 0:
        return None
    j, k = hits[0]
    return (int(j), int(k))


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A realization plus an order-schema pair under which the decision
    function changes when the chance node crosses the decision."""

    chance: str
    decision: str
    realization: Realization
    schema_before: OrderSchema
    schema_after: OrderSchema
    trial: int
    detail: tuple


def _swap_schemas(
    a: str, dec: str, schemas: Sequence[OrderSchema]
) -> list[tuple[OrderSchema, OrderSchema]]:
    out = []
    for s in schemas:
        k = s.position(dec)
        if s.slot_of[a] == k - 1:
            out.append((s, s.with_slot(a, k)))
    return out


def significance_search(
    d: Diagram,
    a: str,
    dec: str,
    trials: int = 200,
    seed: int = 0,
    try_first: Iterable[Realization] = (),
) -> Counterexample | None:
    """Random search for a realization under which observing ``a`` just
    before ``dec`` changes the optimal decision function.

    For every candidate realization and every admissible schema placing
    ``a`` immediately before ``dec``, solve, shift ``a`` to just after
    ``dec``, solve again, and compare the decision function on the common
    past: the richer table must be constant in ``a``'s coordinate and match
    the poorer one.  Returns the first discrepancy (lowest trial index), or
    None - random search is incomplete, so None is inconclusive.
    """
    import numpy as np

    po = induce_partial_order(d)
    if not po.incompatible(a, dec):
        raise ValueError(f"pair not incompatible: ({a!r}, {dec!r})")
    pairs = _swap_schemas(a, dec, list(enumerate_schemas(d, po)))

    def check(r: Realization) -> tuple | None:
        for before, after in pairs:
            s_before, _ = solve(d, r, before)
            s_after, _ = solve(d, r, after)
            diff = _rule_differs_with_extra_coord(
                s_before.rules[dec], s_after.rules[dec], a
            )
            if diff is not None:
                return (before, after, diff)
        return None

    first = list(try_first)

    def candidates() -> Iterator[tuple[int, Realization]]:
        yield from enumerate(first)
        for t in range(trials):
            trial_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
            yield len(first) + t, random_realization(d, trial_seed)

    for trial, r in candidates():
        if check(r) is None:
            continue
        r = _minimize_counterexample(d, r, check)
        before, after, detail = check(r)  # re-derive on the minimized tables
        return Counterexample(
            chance=a,
            decision=dec,
            realization=r,
            schema_before=before,
            schema_after=after,
            trial=trial,
            detail=detail,
        )
    return None


def _minimize_counterexample(d: Diagram, r: Realization, check) -> Realization:
    """Greedily round CPT entries to {0, 1/2, 1} while the discrepancy
    persists, to shrink reproduction fixtures."""
    import numpy as np

    grid = np.array([0.0, 0.5, 1.0])
    cpts = {k: v.copy() for k, v in r.cpts.items()}
    for c in sorted(cpts):
        table = cpts[c]
        rows = table.reshape(-1, table.shape[-1])
        for i in range(rows.shape[0]):
            original = rows[i].copy()
            rounded = grid[np.abs(rows[i][:, None] - grid[None, :]).argmin(axis=1)]
            total = rounded.sum()
            if total <= 0:
                continue
            rows[i] = rounded / total
            if check(Realization(cpts, r.utilities)) is None:
                rows[i] = original
    return Realization(cpts, r.utilities).validated(d)
