"""One active-trail reach over a diagram view (`active_reach`), on bit masks
over the view's nodes, plus the two published baselines used for
differential testing: the Decision Bayes-ball requisite set and the
moral-graph elimination neighborhood.  Both baselines over-approximate the
exact required set and are never used for verdicts; they take and return
node ids and convert at their edges.
"""
from __future__ import annotations

from .model import Diagram, GraphView, bits, moral_view
from .ordering import OrderSchema, PartialOrder


class NotTotalOrder(ValueError):
    """The diagram does not force a total order on its decisions."""


def active_reach(view: GraphView, sources: int, conditioning: int) -> int:
    """The mask of every node a ball passed from the nodes of the mask
    ``sources`` arrives at given the mask ``conditioning``, observed or not.

    An arrival at an observed node does not extend any trail, but it does
    witness an active trail ENDING there, which is exactly what requisite
    queries need.  The unobserved arrivals are the nodes actively reachable
    from the sources.

    This is Shachter's Bayes-ball (UAI 1998).  An unobserved node passes a
    ball that came from a child on to its parents and children, and one
    that came from a parent on to its children; an observed node bounces a
    ball that came from a parent back to its parents and stops one from a
    child.  So a collider opens iff it or a descendant is observed: the
    ball runs down to the observed descendant and back up.  The walk is
    breadth-first over two frontier masks, ``up`` for the arrivals from a
    child (the sources count as such) and ``down`` for those from a
    parent, and visits each (node, direction) pair once.
    """
    parents, children = view.parents, view.children
    up, down = sources, 0
    went_up = went_down = 0
    while up or down:
        went_up |= up
        went_down |= down
        next_up = next_down = 0
        for v in bits(up & ~conditioning | down & conditioning):
            next_up |= parents[v]
        for v in bits((up | down) & ~conditioning):
            next_down |= children[v]
        up, down = next_up & ~went_up, next_down & ~went_down
    return went_up | went_down


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
    ids, masks, before, decisions = po.carrier, po.masks, po.before, po.decisions
    for a in bits(decisions):
        # the decisions incompatible with a, all later than a: an earlier
        # one would have raised on its own turn
        loose = decisions & ~(masks[a] | before[a] | 1 << a)
        if loose:
            b = next(bits(loose))
            raise NotTotalOrder(f"not a total order: {ids[a]!r} and {ids[b]!r} are incompatible")
    i = po.index[dec]
    pred = before[i]
    # dec's value descendants: the view numbers the value nodes after the carrier
    sources = d.graph.descendants[i] >> len(ids) << len(ids)
    if not sources:
        return frozenset()
    # All arcs, informational included; decisions act as plain nodes.
    return frozenset(d.graph.ids_of(pred & active_reach(d.graph, sources, pred | 1 << i)))


def elimination_neighbors(d: Diagram, dec: str, schema: OrderSchema) -> frozenset[str]:
    """Moral-graph baseline: past variables connected to the decision in the
    moral graph through a path whose intermediate nodes all lie outside the
    decision's past.  Such nodes become neighbors of the decision by the
    time it is eliminated in reverse temporal order."""
    moral = moral_view(d)
    pred = moral.mask_of(schema.pred(dec))
    out = 0
    seen = frontier = 1 << moral.index[dec]
    while frontier:
        reached = 0
        for v in bits(frontier):
            reached |= moral.children[v]
        reached &= ~seen
        seen |= reached
        out |= reached & pred
        frontier = reached & ~pred  # an endpoint in the past is not passed through
    return frozenset(moral.ids_of(out))
