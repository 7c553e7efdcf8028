"""The COBRA predictor sub-component interface (§III).

A sub-component is a pipelined predictor that:

- is queried with a fetch PC at cycle 0 and responds at a fixed latency
  ``p >= 1`` (§III-A);
- may consume global/local history only if its latency is ``>= 2``, since
  histories arrive at the end of the first cycle (§III-B);
- produces a superscalar :class:`~repro.core.prediction.PredictionVector`
  (§III-C);
- declares a metadata bit-length and produces an opaque metadata value at
  predict time, which the framework returns verbatim at fire, mispredict,
  repair, and update time (§III-D);
- observes any subset of the five events (§III-E);
- receives predictions from other sub-components via ``predict_in`` and
  either passes them through, overrides fields of them, or arbitrates among
  several of them (§III-F).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.core.events import PredictRequest, UpdateBundle
from repro.core.prediction import PredictionVector


@dataclass
class StorageReport:
    """Bit-accurate storage accounting for the synthesis model (§V-A).

    ``sram_bits`` covers synchronous memories that a physical implementation
    would map to SRAM macros; ``flop_bits`` covers state held in registers.
    ``breakdown`` attributes bits to named structures within the component.
    """

    name: str
    sram_bits: int = 0
    flop_bits: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)
    #: Bits read from SRAM per prediction access (row width across all
    #: banks); drives the energy model (§VI-A).
    access_bits: int = 0

    @property
    def total_bits(self) -> int:
        return self.sram_bits + self.flop_bits

    def merged(self, other: "StorageReport", name: str) -> "StorageReport":
        combined = dict(self.breakdown)
        for key, bits in other.breakdown.items():
            combined[key] = combined.get(key, 0) + bits
        return StorageReport(
            name,
            sram_bits=self.sram_bits + other.sram_bits,
            flop_bits=self.flop_bits + other.flop_bits,
            breakdown=combined,
            access_bits=self.access_bits + other.access_bits,
        )


class InterfaceError(Exception):
    """Raised when a component or topology violates the COBRA contract."""


class PredictorComponent(abc.ABC):
    """Abstract base class for COBRA predictor sub-components.

    Class attributes
    ----------------
    branchless_inert:
        True (the default) declares that driving the component through a
        packet containing no control-flow instruction — a lookup followed by
        ``fire``/``on_update`` with an all-False ``br_mask`` and no CFI —
        leaves its architectural state exactly as it was.  Every library
        component satisfies this (counters, tags, and histories only move on
        branch lanes), and the trace-driven backends exploit it to skip
        branchless packets entirely.  A component that learns from non-branch packets
        must set this to False; the contract is enforced by rule CON008 of
        ``repro check --components``.
    spec:
        The :class:`~repro.spec.ComponentSpec` the component was built
        from, or None (the default) for a component with no declarative
        description.  Library components
        (:class:`~repro.components.base.SpecComponent`) set it at
        construction and read their metadata codec, storage report and
        history demand off it; the contract harness, the kernel
        generator, the RTL emitter and ``repro check --spec`` read it
        too.  It describes state only: batch replay is declared by
        :meth:`columnar_kernel` and branchless inertness by
        ``branchless_inert``.

    Parameters
    ----------
    name:
        Instance name; must be unique within a composed pipeline.
    latency:
        Response cycle ``p >= 1`` after the query.
    meta_bits:
        Bit-length of the metadata's image (:meth:`meta_image`), which is
        what the history file stores per prediction.
    uses_global_history, uses_local_history:
        Whether ``lookup`` consumes the ``ghist`` / ``lhist`` request
        fields.  Components with ``latency == 1`` must not use histories.
    n_inputs:
        Number of ``predict_in`` vectors the component consumes.  Chained
        (override) components take one; arbitration schemes such as the
        tournament selector take two or more (§III-F).
    """

    #: See the class docstring; checked dynamically by CON008.
    branchless_inert: bool = True
    #: See the class docstring; set per instance by ``SpecComponent``.
    spec = None

    def __init__(
        self,
        name: str,
        latency: int,
        meta_bits: int = 0,
        uses_global_history: bool = False,
        uses_local_history: bool = False,
        n_inputs: int = 1,
    ):
        if latency < 1:
            raise InterfaceError(f"{name}: latency must be >= 1, got {latency}")
        if latency < 2 and (uses_global_history or uses_local_history):
            raise InterfaceError(
                f"{name}: histories arrive at the end of cycle 1 (Fig. 2); a "
                f"latency-{latency} component cannot consume them"
            )
        if meta_bits < 0:
            raise InterfaceError(f"{name}: meta_bits must be >= 0")
        if n_inputs < 1:
            raise InterfaceError(f"{name}: n_inputs must be >= 1")
        self.name = name
        self.latency = latency
        self.meta_bits = meta_bits
        self.uses_global_history = uses_global_history
        self.uses_local_history = uses_local_history
        self.n_inputs = n_inputs
        #: True for target-providing structures (BTBs).  Table I's storage
        #: column counts direction-prediction state only; targets are
        #: accounted separately.
        self.provides_targets = False
        #: Consumes the path history (§IV-B3 extension); same Fig. 2 timing
        #: as the other histories, so latency-1 components may not use it.
        self.uses_path_history = False
        #: Library base name in the paper's notation (set by the topology
        #: parser; defaults to the instance name for hand-built components).
        self.base_name = name.upper()
        #: History-length demands: how many bits of each history this
        #: component's hashes actually consume.  Components that declare a
        #: history should set these after ``super().__init__`` so the static
        #: analyzer can reconcile them against the composed core's history
        #: provider lengths (``repro check``, rule TOP006).  Zero means "any
        #: length satisfies me".
        self.required_ghist_bits = 0
        self.required_lhist_bits = 0
        self.required_phist_bits = 0

    # ------------------------------------------------------------------
    # Predict
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def lookup(
        self,
        req: PredictRequest,
        predict_in: Sequence[PredictionVector],
    ) -> Tuple[PredictionVector, int]:
        """Form this component's prediction.

        ``predict_in`` holds ``n_inputs`` incoming predictions (the final
        predictions of the sub-topologies feeding this component at this
        component's response stage).  Implementations must *pass through*
        ``predict_in[0]`` slots for which they form no prediction, and
        replace the slots for which they do (§III-F); vectors and slots are
        immutable, so a lookup that predicts nothing may return
        ``predict_in[0]`` itself.

        Returns the outgoing prediction vector and the metadata: an
        opaque value the framework stores and hands back, unread, in every
        event's ``bundle.meta``.  Its bit image (:meth:`meta_image`) must
        fit ``meta_bits``; ``repro check`` enforces that (CON001), the
        run path does not.
        """

    # ------------------------------------------------------------------
    # Events (default no-ops; components opt into the subset they need)
    # ------------------------------------------------------------------
    def fire(self, bundle: UpdateBundle) -> None:
        """Speculative update at predict time (e.g. loop counters)."""

    def on_mispredict(self, bundle: UpdateBundle) -> None:
        """Fast update, immediately after a branch misprediction resolves."""

    def on_repair(self, bundle: UpdateBundle) -> None:
        """Restore local state corrupted by a misspeculated ``fire``."""

    def on_update(self, bundle: UpdateBundle) -> None:
        """Slow commit-time update for a committing packet."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def storage(self) -> StorageReport:
        """Bit-accurate storage report for the synthesis model."""

    def columnar_kernel(self):
        """Batch-prediction capability (rule CON009).

        A component that can reproduce its scalar ``lookup`` with a
        vectorized pass over trace columns returns a kernel object from
        :mod:`repro.kernels.components`; the trace-driven backends then
        batch-predict whole branch segments between mispredicts.  The
        default — None — keeps the component on the scalar path, which is
        always correct.  This hook is the only batch-replay declaration:
        the segment engine's eligibility gate reads nothing else.  A
        returned kernel must match the scalar lookup bit for bit;
        ``repro check --components`` enforces that with a seeded stimulus
        sweep (CON009), and the differential fuzzer cross-checks
        whole-run counts.
        """
        return None

    def meta_image(self, meta) -> int:
        """The bits the history file would store for ``meta``.

        The default takes ``meta`` to be a hand-packed integer and returns
        it; :class:`~repro.components.base.SpecComponent` packs its
        positional tuple.
        """
        return meta

    def check_meta(self, meta) -> int:
        """Validate that ``meta``'s bit image fits the declared width.

        Returns the image; raises :class:`InterfaceError` when it is
        negative, wider than ``meta_bits``, or cannot be formed (a field
        out of its range, a wrong field or lane count).  Mirrors the
        hardware reality that the history file stores exactly
        ``meta_bits`` bits per prediction: a component producing wider
        metadata than it declared is a contract violation, not a silent
        truncation.  The contract harness calls it (CON001); the run path
        stores metadata unchecked.
        """
        try:
            image = self.meta_image(meta)
            fits = image >= 0 and not image >> self.meta_bits
        except (TypeError, ValueError) as exc:
            raise InterfaceError(
                f"{self.name}: metadata {meta!r} does not fit its layout: {exc}"
            ) from None
        if not fits:
            raise InterfaceError(
                f"{self.name}: metadata {image:#x} does not fit the declared "
                f"{self.meta_bits} bits"
            )
        return image

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, latency={self.latency})"
