"""One active-trail reach over a diagram view (`active_reach`), plus the
two published baselines used for differential testing: the Decision
Bayes-ball requisite set and the moral-graph elimination neighborhood.  Both
baselines over-approximate the exact required set and are never used for
verdicts.
"""
from __future__ import annotations

from collections import deque

from .model import Diagram, GraphView, moral_view
from .ordering import OrderSchema, PartialOrder


class NotTotalOrder(ValueError):
    """The diagram does not force a total order on its decisions."""


def active_reach(view: GraphView, sources: frozenset[str], conditioning: frozenset[str]) -> frozenset[str]:
    """Ball-passing BFS returning every node a ball passed from the sources
    arrives at given the conditioning set (colliders open iff they or a
    descendant are conditioned), observed or not.

    An arrival at an observed node does not extend any trail, but it does
    witness an active trail ENDING there, which is exactly what requisite
    queries need.  The unobserved arrivals are the nodes actively reachable
    from the sources.
    """
    parents, children = view.parents_of, view.children_of
    anc_z = view.ancestors(conditioning)

    UP, DOWN = 0, 1  # up: arrived from a child; down: arrived from a parent
    queue: deque[tuple[str, int]] = deque()
    visited: set[tuple[str, int]] = set()
    arrived: set[str] = set()

    for s in sources:
        queue.append((s, UP))
    while queue:
        v, direction = queue.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        arrived.add(v)
        observed = v in conditioning
        if direction == UP:
            if not observed:
                for p in parents(v):
                    queue.append((p, UP))
                for c in children(v):
                    queue.append((c, DOWN))
        else:
            if not observed:
                for c in children(v):
                    queue.append((c, DOWN))
            if v in anc_z:  # collider with itself or a descendant observed
                for p in parents(v):
                    queue.append((p, UP))
    return frozenset(arrived)


def bayes_ball_requisite(d: Diagram, po: PartialOrder, dec: str) -> frozenset[str]:
    """Decision Bayes-ball baseline: observed past nodes that receive the
    ball when it is passed from the value descendants of ``dec``, with the
    whole past (and the decision itself) observed.  ``po`` is the partial
    order induced on ``d``.

    Runs on the full diagram, informational arcs included and later
    decisions treated as chance nodes, which is what makes it an
    over-approximation of the exact required set.  Only defined on classic
    diagrams (total decision order).
    """
    decisions = d.decision_ids
    for i, a in enumerate(decisions):
        for b in decisions[i + 1:]:
            if po.incompatible(a, b):
                raise NotTotalOrder(f"not a total order: {a!r} and {b!r} are incompatible")
    pred = frozenset(x for x in d.carrier_ids if po.precedes(x, dec))
    sources = d.graph.descendants(dec).intersection(d.value_ids)
    if not sources:
        return frozenset()
    # All arcs, informational included; decisions act as plain nodes.
    return pred & active_reach(d.graph, sources, pred | {dec})


def elimination_neighbors(d: Diagram, dec: str, schema: OrderSchema) -> frozenset[str]:
    """Moral-graph baseline: past variables connected to the decision in the
    moral graph through a path whose intermediate nodes all lie outside the
    decision's past.  Such nodes become neighbors of the decision by the
    time it is eliminated in reverse temporal order."""
    pred = schema.pred(dec)
    moral = moral_view(d)
    out: set[str] = set()
    seen = {dec}
    stack = [dec]
    while stack:
        v = stack.pop()
        for w in moral.children_of(v):
            if w in seen:
                continue
            seen.add(w)
            if w in pred:
                out.add(w)  # endpoint reached; do not pass through the past
            else:
                stack.append(w)
    return frozenset(out)
