"""Topological models of predictor compositions (§IV-A).

A complete predictor pipeline is represented as an ordering of sub-components
where the ordering specifies which sub-component provides the final
prediction.  ``p_b > p_a`` means ``p_b`` wins any cycle where the final
prediction is ambiguous.  Arbitration schemes that *learn* to choose among
sub-predictors are expressed with bracketed child lists::

    TOURNEY3 > [GBIM2, LBIM2]

Three node kinds model this:

- :class:`Leaf` — a single sub-component.
- :class:`Override` — ``hi > lo``: ``hi`` receives ``lo``'s prediction as
  ``predict_in`` (when available at ``hi``'s response stage) and the
  composer muxes ``hi`` over ``lo`` on a per-slot hit basis.
- :class:`Arbitrate` — a selector receiving multiple ``predict_in`` vectors.

A topology's *staged* predictions are the final prediction the subset
with latency ``<= d`` would emit at every stage ``d``; this is the semantic
core of the COBRA composer.  The node classes define that wiring, and
:class:`EvaluationPlan` flattens it into lookup and merge steps, which the
composer does once per composition and runs per packet.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.events import PredictRequest
from repro.core.interface import InterfaceError, PredictorComponent
from repro.core.prediction import PredictionVector

_new_tuple = tuple.__new__

#: Attribution filled in telemetry mode, parallel to the plan's value
#: slots: per-slot provider names for every produced vector (None for a
#: value no step produced, such as the fall-through default).
Attribution = List[Optional[List[Optional[str]]]]


def merge_by_hit(
    winner: PredictionVector, fallback: PredictionVector
) -> PredictionVector:
    """Per-slot mux: take the winner's slot where it hit, else the fallback's.

    This is the control-flow-redirection multiplexing the composer generates
    between ordered sub-components (§IV-B): the higher-priority prediction
    provides the final prediction in any cycle where it exists.  Slots are
    immutable values, so the merged vector holds the input slots themselves.
    This runs once per override edge per fetch packet, and mostly changes
    nothing: the winner passed the fallback through, or every slot it did
    not hit already equals the fallback's.  Then the winner itself is the
    result, and no vector is built.
    """
    if winner is not fallback:
        fallback_slots = fallback.slots
        for w, f in zip(winner.slots, fallback_slots):
            if not w.hit and w != f:
                return _new_tuple(
                    PredictionVector,
                    (
                        winner.fetch_pc,
                        tuple(
                            [
                                (w if w.hit else f)
                                for w, f in zip(winner.slots, fallback_slots)
                            ]
                        ),
                    ),
                )
    return winner


def _notation(component: PredictorComponent) -> str:
    """Render one component in the paper's ``BASElatency`` notation.

    Uses the library base name recorded by the parser when available: a
    duplicate instance is named e.g. ``bim2``, and rendering the instance
    name would produce ``BIM22`` — which re-parses as ``BIM`` at latency 22.
    """
    base = getattr(component, "base_name", None) or component.name.upper()
    return f"{base}{component.latency}"


class TopologyNode(abc.ABC):
    """A node in the topological representation of a predictor design."""

    @abc.abstractmethod
    def components(self) -> Iterator[PredictorComponent]:
        """All sub-components in this sub-topology, in evaluation order."""

    @abc.abstractmethod
    def _emit(self, plan: "EvaluationPlan", depth: int) -> List[int]:
        """Append this sub-topology's steps to ``plan``.

        Returns the symbolic staged result: entry ``d - 1`` is the plan
        value holding the prediction at stage ``d`` (:data:`_NO_VALUE` where
        the sub-topology has none yet).
        """

    @property
    def max_latency(self) -> int:
        return max(c.latency for c in self.components())

    def describe(self) -> str:
        """Render the topology back into the paper's notation."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@lru_cache(maxsize=65536)
def _shared_fallthrough(fetch_pc: int, width: int) -> PredictionVector:
    """A canonical fall-through vector for default predict_in wiring.

    Vectors are immutable, so one is shared across queries.
    """
    return PredictionVector.fallthrough(fetch_pc, width)


# ----------------------------------------------------------------------
# Evaluation plan
# ----------------------------------------------------------------------
#: Plan value slots that exist before any step runs: the request's
#: fall-through vector, and a slot that always holds None.
_FALLTHROUGH = 0
_NO_VALUE = 1

# Step kinds.  A lookup step's kind selects its attribution rule.
_LEAF, _OVERRIDE, _ARBITRATE, _MERGE = range(4)


class EvaluationPlan:
    """A topology flattened into straight-line steps for one depth.

    Which component feeds which, at which stage ``predict_in`` is taken,
    and where the composer muxes by hit are all fixed by the topology and
    the component latencies.  The plan resolves them once: each step is a
    component lookup or a :func:`merge_by_hit` over numbered value slots,
    and ``stages`` names the slot holding each stage's prediction.  The
    node classes emit the steps (:meth:`TopologyNode._emit`) in evaluation
    order — a sub-topology before the component it feeds, arbitration
    children in listed order — and a merge once per distinct lower value,
    so running the plan performs each lookup and merge of the staged
    semantics exactly once, in a fixed order.

    Steps are ``(component, sources, out, name, kind, predict_in)``; ``sources`` is one slot for leaf and override lookups
    and a tuple for arbitration lookups and merges (winner, fallback).
    ``predict_in`` is the step's own input list, refilled on every run
    instead of built per packet (None for merges).
    """

    __slots__ = ("steps", "stages", "filled_stages", "n_values", "_blank")

    def __init__(self, root: TopologyNode, depth: int):
        self.steps: List[tuple] = []
        self._blank: List[Optional[PredictionVector]] = [None, None]
        stages = root._emit(self, depth)
        #: Number of value slots (the length of :meth:`run`'s result).
        self.n_values = len(self._blank)
        #: Value slot per stage, None stages on :data:`_NO_VALUE`.
        self.stages: Tuple[int, ...] = tuple(stages)
        #: The same with None stages on the fall-through default.
        self.filled_stages: Tuple[int, ...] = tuple(
            _FALLTHROUGH if value == _NO_VALUE else value for value in stages
        )

    # -- building ------------------------------------------------------
    def _new_value(self) -> int:
        self._blank.append(None)
        return len(self._blank) - 1

    def lookup(self, component: PredictorComponent, sources, kind: int) -> int:
        out = self._new_value()
        predict_in = [None] * (len(sources) if kind == _ARBITRATE else 1)
        self.steps.append(
            (
                component,
                sources,
                out,
                component.name,
                kind,
                predict_in,
            )
        )
        return out

    def merge(self, winner: int, fallback: int) -> int:
        out = self._new_value()
        self.steps.append((None, (winner, fallback), out, None, _MERGE, None))
        return out

    @staticmethod
    def first_available(staged: List[int], stage: int) -> int:
        """The sub-topology's value at ``stage``, or the fall-through default.

        A component may use any ``predict_in(d)`` with ``d <= n`` (§III-F);
        it gets the most recent one available at its response stage.
        """
        for d in range(stage, 0, -1):
            value = staged[d - 1]
            if value != _NO_VALUE:
                return value
        return _FALLTHROUGH

    # -- running -------------------------------------------------------
    def run(
        self,
        req: PredictRequest,
        metas: Dict[str, object],
        attribution: Optional[Attribution] = None,
    ) -> List[Optional[PredictionVector]]:
        """Run every step for ``req``; return the value slots.

        Records each component's metadata in ``metas``, keyed by
        component name.  Metadata is opaque here: it is stored as the
        lookup returned it, and its width is the contract harness's check
        (CON001), not the run path's.  Index the result with
        :attr:`stages` or :attr:`filled_stages`.

        ``attribution``, when supplied (telemetry mode), is a list as long
        as the value slots, all None; each step fills its output slot's
        entry with a per-slot provider list: entry ``i`` names the
        component that supplied slot ``i``'s prediction, or None for the
        fall-through default.  Provider identity follows the same muxing
        the vectors themselves do — a pass-through slot keeps its upstream
        provider — so the map is exact for any vector the composer hands
        to the frontend.  It is keyed by value slot, not by vector, so a
        step that returns an input vector itself (a lookup that predicts
        nothing, a merge that changes nothing) still gets its own entry.
        """
        values = self._blank.copy()
        values[_FALLTHROUGH] = _shared_fallthrough(req.fetch_pc, req.width)
        for component, sources, out, name, kind, predict_in in self.steps:
            if kind == _MERGE:
                winner, fallback = sources
                vector = merge_by_hit(values[winner], values[fallback])
            else:
                if kind == _ARBITRATE:
                    for position, source in enumerate(sources):
                        predict_in[position] = values[source]
                else:
                    predict_in[0] = values[sources]
                vector, metas[name] = component.lookup(req, predict_in)
            values[out] = vector
            if attribution is not None:
                _attribute(attribution, values, sources, out, name, kind)
        return values


def _attribute(
    attribution: Attribution,
    values: List[Optional[PredictionVector]],
    sources,
    out: int,
    name: Optional[str],
    kind: int,
) -> None:
    """Record the per-slot providers of the vector one step produced."""
    slots = values[out].slots
    if kind == _LEAF:
        providers = [name if slot.hit else None for slot in slots]
    elif kind == _OVERRIDE:
        # Slots the component left untouched (equal to its predict_in) keep
        # their upstream provider; slots it changed are its own.
        predict_in = values[sources]
        upstream = attribution[sources]
        providers = [
            (upstream[i] if upstream else None)
            if slots[i] == predict_in.slots[i]
            else name
            for i in range(len(slots))
        ]
    elif kind == _ARBITRATE:
        # A slot equal to one of the arbitrated inputs is that child's
        # prediction (the selector chose it); anything else is the
        # selector's own.
        providers = []
        for i, slot in enumerate(slots):
            provider: Optional[str] = name
            for source in sources:
                if slot == values[source].slots[i]:
                    child_providers = attribution[source]
                    provider = child_providers[i] if child_providers else None
                    break
            providers.append(provider)
    else:
        # A merge: the winner's provider where it hit, else the fallback's.
        winner = values[sources[0]]
        winner_providers = attribution[sources[0]]
        fallback_providers = attribution[sources[1]]
        providers = [
            winner_providers[i]
            if winner.slots[i].hit
            else (fallback_providers[i] if fallback_providers else None)
            for i in range(len(slots))
        ]
    attribution[out] = providers


class Leaf(TopologyNode):
    """A single sub-component with no inputs from other sub-components."""

    def __init__(self, component: PredictorComponent):
        if component.n_inputs != 1:
            raise InterfaceError(
                f"{component.name}: arbitration components (n_inputs="
                f"{component.n_inputs}) cannot be topology leaves"
            )
        self.component = component

    def components(self) -> Iterator[PredictorComponent]:
        yield self.component

    def _emit(self, plan, depth):
        out = plan.lookup(self.component, _FALLTHROUGH, _LEAF)
        staged = [_NO_VALUE] * depth
        for d in range(self.component.latency, depth + 1):
            staged[d - 1] = out
        return staged

    def describe(self) -> str:
        return _notation(self.component)


class Override(TopologyNode):
    """``hi > lo``: ``hi`` provides the final prediction where it hits."""

    def __init__(self, hi: PredictorComponent, lo: TopologyNode):
        if hi.n_inputs != 1:
            raise InterfaceError(
                f"{hi.name}: a component taking {hi.n_inputs} predict_in "
                f"inputs must head an Arbitrate node, not an Override"
            )
        self.hi = hi
        self.lo = lo

    def components(self) -> Iterator[PredictorComponent]:
        yield from self.lo.components()
        yield self.hi

    def _emit(self, plan, depth):
        staged = self.lo._emit(plan, depth)
        predict_in = plan.first_available(staged, self.hi.latency)
        out = plan.lookup(self.hi, predict_in, _OVERRIDE)
        result = list(staged)
        # Consecutive stages usually share one value (a component's output
        # is replicated across every stage >= its latency), so the merge is
        # computed once per distinct value, not once per stage.
        prev_below = prev_merged = None
        for d in range(self.hi.latency, depth + 1):
            below = staged[d - 1]
            if below == _NO_VALUE:
                result[d - 1] = out
            elif below != prev_below:
                # hi wins per slot where it (or anything it passed through
                # from its own predict_in) hit; otherwise the slower
                # sub-topology's more recent prediction stands.
                prev_below = below
                prev_merged = plan.merge(out, below)
                result[d - 1] = prev_merged
            else:
                result[d - 1] = prev_merged
        return result

    def describe(self) -> str:
        return f"{_notation(self.hi)} > {self.lo.describe()}"


class Arbitrate(TopologyNode):
    """A selector choosing among two or more sub-topologies (§IV-A1).

    Before the selector responds, the first-listed child provides the
    provisional final prediction; this tie-break is a composer convention
    (the paper leaves the pre-arbitration prediction unspecified).
    """

    def __init__(self, selector: PredictorComponent, children: List[TopologyNode]):
        if len(children) < 2:
            raise InterfaceError(
                f"{selector.name}: arbitration requires >= 2 children, "
                f"got {len(children)}"
            )
        if selector.n_inputs != len(children):
            raise InterfaceError(
                f"{selector.name}: selector takes {selector.n_inputs} "
                f"predict_in inputs but the topology supplies {len(children)}"
            )
        self.selector = selector
        self.children = children

    def components(self) -> Iterator[PredictorComponent]:
        for child in self.children:
            yield from child.components()
        yield self.selector

    def _emit(self, plan, depth):
        child_staged = [child._emit(plan, depth) for child in self.children]
        predict_ins = tuple(
            plan.first_available(staged, self.selector.latency)
            for staged in child_staged
        )
        out = plan.lookup(self.selector, predict_ins, _ARBITRATE)
        result = list(child_staged[0])
        for d in range(self.selector.latency, depth + 1):
            result[d - 1] = out
        return result

    def describe(self) -> str:
        sel = _notation(self.selector)
        inner = ", ".join(
            f"({c.describe()})" if isinstance(c, (Override, Arbitrate)) else c.describe()
            for c in self.children
        )
        return f"{sel} > [{inner}]"


def validate_topology(root: TopologyNode) -> Tuple[PredictorComponent, ...]:
    """Check a topology for contract violations; return its components.

    Enforces unique component names and the Fig. 2 history-timing rule
    (already enforced per-component, but re-checked here so hand-built
    component objects cannot slip through).
    """
    seen: Dict[str, PredictorComponent] = {}
    for component in root.components():
        if component.name in seen and seen[component.name] is not component:
            raise InterfaceError(
                f"duplicate component name {component.name!r} in topology"
            )
        if component.name in seen:
            raise InterfaceError(
                f"component {component.name!r} appears twice in the topology"
            )
        if component.latency < 2 and (
            component.uses_global_history or component.uses_local_history
        ):
            raise InterfaceError(
                f"{component.name}: latency-1 components cannot use histories"
            )
        seen[component.name] = component
    return tuple(seen.values())
