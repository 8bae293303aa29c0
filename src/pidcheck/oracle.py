"""Exact evaluation of realized diagrams by table-based variable elimination.

Variables are eliminated in reverse schema order, summing over chance slots
and maximizing over decisions while the summed utility accumulates.  The
formulation is division-free: joint chance weights are propagated instead of
conditionals, which never changes a maximizer because the weight of the past
is constant at each maximization.  No junction tree; tables are dense over
the full prefix, which doubles as a reference implementation at desk scale.

Everything here is pure: solving never mutates its inputs, and search
trials are independent, so callers may parallelize them as long as the
lowest-trial-index counterexample is the one kept.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .model import Diagram, Kind
from .ordering import OrderSchema, enumerate_schemas, induce_partial_order

DEFAULT_TIE_TOL = 1e-9
CPT_ROW_TOL = 1e-12


class EvaluationError(ArithmeticError):
    """Numeric failure (overflow/NaN) while evaluating a realization."""


class InvalidRealization(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Realization:
    """Conditional probability tables for chance nodes and utility tables
    for value nodes.  Table axes follow the node's declared parent order,
    with the node's own state last (fastest-varying in the flat layout)."""

    cpts: dict[str, np.ndarray]
    utilities: dict[str, np.ndarray]

    def validated(self, d: Diagram) -> "Realization":
        for c in d.chance_ids:
            if c not in self.cpts:
                raise InvalidRealization(f"missing CPT for chance node {c!r}")
            expected = tuple(len(d.states(p)) for p in d.parents(c)) + (len(d.states(c)),)
            t = self.cpts[c]
            if t.shape != expected:
                raise InvalidRealization(
                    f"CPT for {c!r} has shape {t.shape}, expected {expected}"
                )
            if np.any(t < 0) or np.any(t > 1):
                raise InvalidRealization(f"CPT for {c!r} has entries outside [0, 1]")
            rows = t.reshape(-1, t.shape[-1])
            if not np.allclose(rows.sum(axis=1), 1.0, atol=CPT_ROW_TOL, rtol=0):
                raise InvalidRealization(f"CPT rows for {c!r} do not sum to 1")
        for v in d.value_ids:
            if v not in self.utilities:
                raise InvalidRealization(f"missing utility table for value node {v!r}")
            expected = tuple(len(d.states(p)) for p in d.parents(v))
            t = self.utilities[v]
            if t.shape != expected:
                raise InvalidRealization(
                    f"utility table for {v!r} has shape {t.shape}, expected {expected}"
                )
        return self

    def fingerprint(self) -> bytes:
        parts = []
        for k in sorted(self.cpts):
            parts.append(k.encode())
            parts.append(self.cpts[k].tobytes())
        for k in sorted(self.utilities):
            parts.append(k.encode())
            parts.append(self.utilities[k].tobytes())
        return b"|".join(parts)


def random_realization(d: Diagram, seed: int) -> Realization:
    """Deterministic function of (diagram, seed): CPT rows are normalized
    independent uniforms, utilities are uniform integers in 0..100 so ties
    stay detectable and rare."""
    rng = np.random.default_rng(seed)
    cpts: dict[str, np.ndarray] = {}
    for c in d.chance_ids:
        shape = tuple(len(d.states(p)) for p in d.parents(c)) + (len(d.states(c)),)
        raw = rng.uniform(1e-6, 1.0, size=shape)
        cpts[c] = raw / raw.sum(axis=-1, keepdims=True)
    utilities: dict[str, np.ndarray] = {}
    for v in d.value_ids:
        shape = tuple(len(d.states(p)) for p in d.parents(v))
        utilities[v] = rng.integers(0, 101, size=shape).astype(float)
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
    choices: np.ndarray  # object array of frozenset[str], shape = pred cards
    values: np.ndarray   # float array, same shape


@dataclass(frozen=True, eq=False)
class Strategy:
    schema: OrderSchema
    rules: dict[str, DecisionRule]


def _embed(table: np.ndarray, vars_of_table: Sequence[str], axis_index: Mapping[str, int], ndim: int) -> np.ndarray:
    """View of ``table`` broadcast over the global axis layout."""
    src = list(range(len(vars_of_table)))
    dest_axes = [axis_index[v] for v in vars_of_table]
    order = np.argsort(dest_axes)
    t = np.transpose(table, axes=[src[i] for i in order])
    shape = [1] * ndim
    for v in vars_of_table:
        shape[axis_index[v]] = table.shape[list(vars_of_table).index(v)]
    return t.reshape(shape)


def solve(
    d: Diagram,
    r: Realization,
    schema: OrderSchema,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> tuple[Strategy, float]:
    """Eliminate variables in reverse schema order (sum over chance,
    max over decisions), recording for every decision its full
    decision-function table over the past, and return the total maximum
    expected utility."""
    r.validated(d)
    order = schema.induced_order()
    if sorted(order) != sorted(d.carrier_ids):
        raise ValueError("schema does not cover this diagram's chance and decision nodes")
    axis_index = {v: i for i, v in enumerate(order)}
    cards = [len(d.states(v)) for v in order]
    ndim = len(order)

    # Overflow shows up as non-finite entries, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.ones(tuple(cards))
        for c in d.chance_ids:
            vars_of = tuple(d.parents(c)) + (c,)
            weight = weight * _embed(r.cpts[c], vars_of, axis_index, ndim)
        util = np.zeros(tuple(cards))
        for v in d.value_ids:
            vars_of = tuple(d.parents(v))
            table = r.utilities[v]
            if table.ndim == 0:
                util = util + float(table)
            else:
                util = util + _embed(table, vars_of, axis_index, ndim)
        acc = weight * util
    if not np.all(np.isfinite(acc)):
        raise EvaluationError("evaluation failure: non-finite table entries")

    # Parallel reduction of the bare joint weight gives the probability mass
    # of each observed prefix: chance axes are summed; a decision axis is
    # averaged, i.e. an uninstantiated decision counts as a chance node with
    # an even prior.  Dividing by it turns accumulated joint values into
    # conditional expected utilities without ever disturbing a maximizer
    # (the divisor carries no axis for the decision being maximized).
    w_acc = weight
    rules: dict[str, DecisionRule] = {}
    for i in range(ndim - 1, -1, -1):
        v = order[i]
        if d.kind(v) is Kind.CHANCE:
            acc = acc.sum(axis=-1)
            w_acc = w_acc.sum(axis=-1)
            continue
        w_past = w_acc.mean(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(w_past[..., None] > 0.0, acc / w_past[..., None], 0.0)
        if not np.all(np.isfinite(rho)):
            raise EvaluationError("evaluation failure: non-finite expected utility")
        best = rho.max(axis=-1)
        tol = tie_tol * np.maximum(1.0, np.abs(best))
        ties = rho >= (best - tol)[..., None]
        states = d.states(v)
        choices = np.empty(tuple(cards[:i]), dtype=object)
        flat_ties = ties.reshape(-1, ties.shape[-1])
        flat_choices = choices.reshape(-1)
        for j in range(flat_ties.shape[0]):
            flat_choices[j] = frozenset(states[k] for k in np.nonzero(flat_ties[j])[0])
        rules[v] = DecisionRule(
            decision=v,
            pred_vars=tuple(order[:i]),
            states=states,
            choices=choices,
            values=best,
        )
        acc = acc.max(axis=-1)
        w_acc = w_past
    meu = float(acc)
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
    skipped = False
    for dec, rule1 in s1.rules.items():
        rule2 = s2.rules[dec]
        if set(rule1.pred_vars) != set(rule2.pred_vars):
            skipped = True
            continue
        # Align axis order before comparing.
        perm = [rule2.pred_vars.index(v) for v in rule1.pred_vars]
        choices2 = np.transpose(rule2.choices, axes=perm) if perm else rule2.choices
        values2 = np.transpose(rule2.values, axes=perm) if perm else rule2.values
        if rule1.choices.shape != choices2.shape:
            return Comparison.DIFFERENT
        if not all(
            a == b for a, b in zip(rule1.choices.reshape(-1), choices2.reshape(-1))
        ):
            return Comparison.DIFFERENT
        scale = np.maximum(1.0, np.abs(rule1.values))
        if np.any(np.abs(rule1.values - values2) > tol * scale):
            return Comparison.DIFFERENT
    return Comparison.INCOMPARABLE if skipped else Comparison.EQUAL


def oracle_required(
    d: Diagram, r: Realization, schema: OrderSchema, dec: str
) -> frozenset[str]:
    """Past variables whose state changes the maximizer set of the decision
    function, everything else fixed, for this single realization.  A sound
    witness set: always a subset of the structurally required set."""
    strategy, _ = solve(d, r, schema)
    return required_from_strategy(strategy, dec)


def required_from_strategy(strategy: Strategy, dec: str) -> frozenset[str]:
    rule = strategy.rules[dec]
    out: set[str] = set()
    for axis, var in enumerate(rule.pred_vars):
        moved = np.moveaxis(rule.choices, axis, 0)
        base = np.asarray(moved[0], dtype=object).reshape(-1)
        for k in range(1, moved.shape[0]):
            sl = np.asarray(moved[k], dtype=object).reshape(-1)
            if any(a != b for a, b in zip(base, sl)):
                out.add(var)
                break
    return frozenset(out)


def _rule_differs_with_extra_coord(rich: DecisionRule, poor: DecisionRule, extra: str) -> tuple | None:
    """First configuration where the richer table (past includes ``extra``)
    fails to be constant in ``extra`` and equal to the poorer table."""
    axis = rich.pred_vars.index(extra)
    moved = np.moveaxis(rich.choices, axis, -1)
    perm = [poor.pred_vars.index(v) for v in rich.pred_vars if v != extra]
    poor_choices = np.transpose(poor.choices, axes=perm) if perm else poor.choices
    flat_rich = moved.reshape(-1, moved.shape[-1])
    flat_poor = poor_choices.reshape(-1)
    for j in range(flat_rich.shape[0]):
        for k in range(flat_rich.shape[1]):
            if flat_rich[j][k] != flat_poor[j]:
                return (j, k)
    return None


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
    minimize: bool = True,
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
        hit = check(r)
        if hit is None:
            continue
        before, after, detail = hit
        if minimize:
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
