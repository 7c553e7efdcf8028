"""Deliberately broken components: one contract violation per class.

Each class trips exactly one CON rule in the ``repro check --components``
harness (plus TOP003 for :class:`MiscountedMeta`, which lies about its
metadata layout).  :class:`InputMutator` trips none: prediction vectors
are immutable, so its write into ``predict_in`` raises at the first
lookup.  The analysis tests register these into a fresh
:class:`~repro.core.parser.ComponentLibrary` and assert the expected rule
fires; they are never part of the shipped library.
"""

import random

from repro.components.base import MetaCodec
from repro.core.interface import PredictorComponent, StorageReport


class _Base(PredictorComponent):
    """Shared honest implementations so each subclass breaks one thing."""

    def lookup(self, req, predict_in):
        return predict_in[0], 0

    def storage(self):
        return StorageReport(self.name, sram_bits=64, breakdown={"t": 64})


class WideMeta(_Base):
    """CON001: metadata wider than the declared meta_bits.

    Its metadata is a hand-packed int, so the int is its image.
    """

    def __init__(self, name, latency):
        super().__init__(name, latency, meta_bits=4)

    def lookup(self, req, predict_in):
        return predict_in[0], 0xFF


class InputMutator(_Base):
    """Writes into the incoming vector: immutable slots make this raise."""

    def __init__(self, name, latency):
        super().__init__(name, latency)

    def lookup(self, req, predict_in):
        for slot in predict_in[0].slots:
            slot.hit = True
            slot.taken = True
        return predict_in[0], 0


class JumpClobberer(_Base):
    """CON002: drops incoming jump targets instead of passing them through."""

    def __init__(self, name, latency):
        super().__init__(name, latency)

    def lookup(self, req, predict_in):
        taken = (req.fetch_pc & 1) == 0
        slots = tuple(
            slot._replace(hit=True, is_jump=False, taken=taken, target=None)
            for slot in predict_in[0].slots
        )
        return predict_in[0]._replace(slots=slots), 0


class HistorySniffer(_Base):
    """CON003: reads the global history without declaring it, so it can be
    built at latency 1 where the history is physically unavailable."""

    def __init__(self, name, latency):
        super().__init__(name, latency, meta_bits=1)

    def lookup(self, req, predict_in):
        parity = bin(req.ghist).count("1") & 1
        slots = tuple(
            slot if slot.is_jump else slot.with_direction(bool(parity))
            for slot in predict_in[0].slots
        )
        return predict_in[0]._replace(slots=slots), parity


class FireWithoutRepair(_Base):
    """CON005: fire mutates state and on_repair does not undo it."""

    # Honest about learning on every packet (CON008 is not the bug here).
    branchless_inert = False

    def __init__(self, name, latency):
        super().__init__(name, latency)
        self._speculative = 0

    def fire(self, bundle):
        self._speculative += 1


class WrongStorage(_Base):
    """CON006: breakdown does not sum to the declared totals."""

    def __init__(self, name, latency):
        super().__init__(name, latency)

    def storage(self):
        return StorageReport(
            self.name, sram_bits=128, flop_bits=8, breakdown={"table": 100}
        )


class Flaky(_Base):
    """CON007: consults the process-global RNG during lookup."""

    def __init__(self, name, latency):
        # Declares a history so latency-1 builds are rejected outright and
        # the randomness is attributed to CON007, not CON003.
        super().__init__(name, latency, meta_bits=8, uses_global_history=True)

    def lookup(self, req, predict_in):
        return predict_in[0], random.getrandbits(8)


class BranchlessLearner(_Base):
    """CON008: learns on every committed packet — including packets with
    no control flow — while leaving ``branchless_inert`` at its default
    True, so the replay fast path would silently diverge."""

    def __init__(self, name, latency):
        super().__init__(name, latency)
        self._fetches = 0

    def on_update(self, bundle):
        self._fetches += 1


class _InvertingKernel:
    """Batch kernel that predicts the opposite of its scalar component."""

    def __init__(self, component):
        self.c = component

    def lookup(self, ctx, state):
        import numpy as np

        out = state.copy()
        sel = ctx.lane_valid & ~out.is_jump
        out.hit = out.hit | sel
        # The scalar lookup predicts taken on every non-jump slot; the
        # kernel predicts not-taken on the same slots.
        out.taken = np.where(sel, False, out.taken)
        return out

    def mutates(self, ctx):
        import numpy as np

        return np.zeros(ctx.P, dtype=bool)

    def commit(self, ctx, accepted):
        pass


class KernelLiar(_Base):
    """CON009: advertises a columnar kernel whose batched lookup inverts
    every direction the scalar lookup predicts, so the batch-kernel replay
    path would silently diverge from the scalar walker."""

    def __init__(self, name, latency):
        super().__init__(name, latency)

    def lookup(self, req, predict_in):
        slots = tuple(
            slot if slot.is_jump else slot.with_direction(True)
            for slot in predict_in[0].slots
        )
        return predict_in[0]._replace(slots=slots), 0

    def columnar_kernel(self):
        return _InvertingKernel(self)


class MiscountedMeta(_Base):
    """TOP003: declares fewer meta_bits than its codec's image is wide."""

    def __init__(self, name, latency):
        self._codec = MetaCodec([("ctr", 2, 5)])  # 10 bits
        super().__init__(name, latency, meta_bits=6)

    def lookup(self, req, predict_in):
        return predict_in[0], 0


#: Factories keyed by the rule each one violates.
VIOLATIONS = {
    "CON001": ("WMETA", WideMeta),
    "CON002": ("CLOB", JumpClobberer),
    "CON003": ("SNIFFER", HistorySniffer),
    "CON005": ("NOREPAIR", FireWithoutRepair),
    "CON006": ("BADSTORE", WrongStorage),
    "CON007": ("FLAKY", Flaky),
    "CON008": ("BRLEARN", BranchlessLearner),
    "CON009": ("KLIAR", KernelLiar),
}
