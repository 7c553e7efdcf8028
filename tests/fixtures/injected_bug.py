"""A deliberately broken component the differential fuzzer must catch.

:class:`PhantomPhase` predicts every conditional branch from the parity
of its own lookup count — and *lies* about being ``branchless_inert``.
Its state (the lookup counter) advances on every packet, including
packets with no control flow, so the replay backend's branchless-skip
fast path changes how many lookups it sees and its predictions phase-
shift relative to the full commit-order walk.  The ``backends`` oracle
(trace-vs-replay bit identity) catches exactly this class of bug; the
tests assert it does, and that the minimizer shrinks the failing case to
a small bound.

Everything here stays out of the shipped library — the fixture registers
``PHANTOM`` into a private copy of ``standard_library()``.
"""

from __future__ import annotations

from repro.components.library import standard_library
from repro.core.composer import ComposedPredictor, ComposerConfig, compose
from repro.core.interface import PredictorComponent, StorageReport

#: The topology the fixture campaign runs (the honest BIM backs targets
#: and gives the phantom something to override).
INJECTED_TOPOLOGY = "PHANTOM2 > BIM2"


class PhantomPhase(PredictorComponent):
    """Direction prediction keyed to lookup-call parity.

    The lie: ``branchless_inert`` stays at its default True, but every
    ``lookup`` — branchy packet or not — advances ``_lookups``, which
    decides the predicted direction.  Skipping branchless packets
    therefore changes this component's observable behavior.  It declares
    no metadata and returns 0, an empty image.
    """

    def __init__(self, name: str, latency: int = 2):
        super().__init__(name, latency)
        self._lookups = 0

    def lookup(self, req, predict_in):
        self._lookups += 1
        phase = bool(self._lookups & 1)
        slots = tuple(
            slot if slot.is_jump else slot.with_direction(phase)
            for slot in predict_in[0].slots
        )
        return predict_in[0]._replace(slots=slots), 0

    def storage(self) -> StorageReport:
        return StorageReport(self.name, flop_bits=32, breakdown={"phase": 32})


def injected_library():
    """A private standard library with the broken PHANTOM registered."""
    library = standard_library()
    library.register("PHANTOM", PhantomPhase)
    return library


def build_injected_predictor() -> ComposedPredictor:
    """Module-level (hence picklable) factory for the buggy composition."""
    return compose(INJECTED_TOPOLOGY, injected_library(), ComposerConfig())
