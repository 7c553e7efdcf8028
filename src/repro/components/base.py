"""Shared building blocks for predictor sub-components.

:class:`MetaCodec` gives components a declarative way to pack structured
per-prediction state into the interface's fixed-width metadata integer
(§III-D), mirroring how RTL implementations concatenate bitfields.

:class:`SpecComponent` is the base of every library component: its
:class:`~repro.spec.ComponentSpec`, built and validated once at
construction and kept as the ``spec`` attribute, supplies the codec, the
storage report and the history demand.

:class:`IndexScheme` implements the parameterized indexing option of the
counter tables (§III-G1): "indexed by a global history, local history, PC,
or any hashed combination of the above".
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro._util import fold_history, hash_pc, mask
from repro.core.interface import InterfaceError, PredictorComponent, StorageReport
from repro.spec import ComponentSpec

FieldSpec = Tuple[str, int, int]  # (name, bits, count)


class MetaCodec:
    """Packs named bitfields (scalars or fixed-length vectors) into an int.

    Fields are packed LSB-first in declaration order.  A field declared with
    ``count > 1`` packs a vector of that many ``bits``-wide lanes — the
    common case for superscalar components that store one counter per fetch
    slot.  A field missing from :meth:`pack` packs as 0.

    Example::

        codec = MetaCodec([("hit", 1, 1), ("ctr", 2, 4)])
        meta = codec.pack(hit=1, ctr=[3, 0, 1, 2])
        fields = codec.unpack(meta)   # {"hit": 1, "ctr": [3, 0, 1, 2]}
    """

    def __init__(self, fields: Sequence[Union[Tuple[str, int], FieldSpec]]):
        self._fields: List[FieldSpec] = []
        offset = 0
        self._offsets: Dict[str, Tuple[int, int, int]] = {}
        for spec in fields:
            if len(spec) == 2:
                name, bits = spec  # type: ignore[misc]
                count = 1
            else:
                name, bits, count = spec  # type: ignore[misc]
            if bits <= 0 or count <= 0:
                raise ValueError(f"field {name!r}: bits and count must be positive")
            if name in self._offsets:
                raise ValueError(f"duplicate metadata field {name!r}")
            self._fields.append((name, bits, count))
            self._offsets[name] = (offset, bits, count)
            offset += bits * count
        self.width = offset
        # pack/unpack run once per component per prediction — the layout
        # is flattened ahead of time so the hot loops do no dict lookups
        # or mask arithmetic.
        self._layout = [
            (name, bits, count, self._offsets[name][0])
            for name, bits, count in self._fields
        ]
        #: Unpack order: ``(name, offset, lane_mask, lane_shifts)``, with
        #: ``lane_shifts`` None for scalars.
        self._unpack_layout = tuple(
            (
                name,
                offset,
                mask(bits),
                None if count == 1 else tuple(offset + i * bits for i in range(count)),
            )
            for name, bits, count, offset in self._layout
        )

    def pack(self, **values) -> int:
        meta = 0
        for name, bits, count, offset in self._layout:
            value = values.pop(name, 0)
            if count == 1:
                if value.__class__ is not int:
                    value = int(value)
                if value >> bits:  # negative, or wider than the field
                    raise ValueError(
                        f"field {name!r}: value {value} exceeds {bits} bits"
                    )
                meta |= value << offset
                continue
            if len(value) != count:
                raise ValueError(
                    f"field {name!r} expects {count} lanes, got {len(value)}"
                )
            for lane in value:
                if lane.__class__ is not int:
                    lane = int(lane)
                if lane >> bits:
                    raise ValueError(
                        f"field {name!r}: value {lane} exceeds {bits} bits"
                    )
                meta |= lane << offset
                offset += bits
        if values:
            raise ValueError(f"unknown metadata fields: {sorted(values)}")
        return meta

    def unpack(self, meta: int) -> Dict[str, Union[int, List[int]]]:
        out: Dict[str, Union[int, List[int]]] = {}
        for name, offset, lane_mask, lane_shifts in self._unpack_layout:
            if lane_shifts is None:
                out[name] = (meta >> offset) & lane_mask
            else:
                lanes = []
                for shift in lane_shifts:
                    lanes.append((meta >> shift) & lane_mask)
                out[name] = lanes
        return out


class SpecComponent(PredictorComponent):
    """A component declared once, by the spec it builds at construction.

    A subclass sets its sizing attributes, builds its
    :class:`~repro.spec.ComponentSpec` and passes it here.  A spec that
    fails :meth:`~repro.spec.ComponentSpec.validate` raises
    :class:`~repro.core.interface.InterfaceError` naming each problem;
    a valid one is stored as :attr:`spec`, and every interface
    declaration is read off that one object:

    - the :class:`MetaCodec` (``self._codec``) from ``spec.meta_fields``,
      and ``meta_bits`` from the codec;
    - ``uses_*_history`` and ``required_*_bits`` from the spec's history
      bits, and ``n_inputs`` from the spec;
    - :meth:`storage` is :func:`~repro.derive.tables.derived_storage` of
      the spec.
    """

    def __init__(self, name: str, latency: int, spec: ComponentSpec):
        problems = spec.validate()
        if problems:
            raise InterfaceError(f"{name}: malformed spec: {'; '.join(problems)}")
        self.spec = spec
        self._codec = MetaCodec(
            [(field.name, field.bits, field.count) for field in spec.meta_fields]
        )
        super().__init__(
            name,
            latency,
            meta_bits=self._codec.width,
            uses_global_history=spec.ghist_bits > 0,
            uses_local_history=spec.lhist_bits > 0,
            n_inputs=spec.n_inputs,
        )
        if latency < 2 and spec.phist_bits:
            raise InterfaceError(
                f"{name}: path history arrives at the end of cycle 1"
            )
        self.uses_path_history = spec.phist_bits > 0
        self.required_ghist_bits = spec.ghist_bits
        self.required_lhist_bits = spec.lhist_bits
        self.required_phist_bits = spec.phist_bits

    def storage(self) -> StorageReport:
        # Imported here: repro.derive imports this module.
        from repro.derive.tables import derived_storage

        return derived_storage(self.name, self.spec)


class IndexScheme:
    """Computes set indices for counter tables from PC and histories.

    Supported schemes:

    - ``"pc"``      — hashed fetch PC only.
    - ``"ghist"``   — folded global history only (Alpha-21264 global table).
    - ``"lhist"``   — folded local history XOR a short PC hash (two-level
      local predictor second stage).
    - ``"gshare"``  — PC hash XOR folded global history (GShare).
    - ``"gselect"`` — PC hash bits concatenated with the low global-history
      bits, half the index each (GSelect).
    - ``"phist"``   — folded path history only.
    - ``"pshare"``  — PC hash XOR folded path history.
    """

    SCHEMES = ("pc", "ghist", "lhist", "gshare", "gselect", "phist", "pshare")

    def __init__(self, scheme: str, index_bits: int, history_bits: int = 0):
        if scheme not in self.SCHEMES:
            raise ValueError(
                f"unknown index scheme {scheme!r}; choose from {self.SCHEMES}"
            )
        if scheme != "pc" and history_bits <= 0:
            raise ValueError(f"scheme {scheme!r} requires history_bits > 0")
        self.scheme = scheme
        self.index_bits = index_bits
        self.history_bits = history_bits

    @property
    def uses_global_history(self) -> bool:
        return self.scheme in ("ghist", "gshare", "gselect")

    @property
    def uses_local_history(self) -> bool:
        return self.scheme == "lhist"

    @property
    def uses_path_history(self) -> bool:
        return self.scheme in ("phist", "pshare")

    def index_fn(self, key: str = "packet", fetch_width: int = 1):
        """This scheme as a declarative :class:`repro.spec.IndexFn`."""
        from repro.spec import IndexFn

        return IndexFn(
            self.scheme,
            self.index_bits,
            self.history_bits,
            key=key,
            fetch_width=fetch_width,
        )

    def index(self, packet_pc: int, ghist: int, lhist: int, phist: int = 0) -> int:
        bits = self.index_bits
        if self.scheme == "pc":
            return hash_pc(packet_pc, bits)
        if self.scheme == "ghist":
            return fold_history(ghist, self.history_bits, bits)
        if self.scheme == "gshare":
            return hash_pc(packet_pc, bits) ^ fold_history(
                ghist, self.history_bits, bits
            )
        if self.scheme == "gselect":
            # GSelect [McFarling 1993]: concatenate PC bits with history
            # bits instead of XORing them.
            hist_part = bits // 2
            pc_part = bits - hist_part
            return (hash_pc(packet_pc, pc_part) << hist_part) | (
                ghist & ((1 << hist_part) - 1)
            )
        if self.scheme == "phist":
            return fold_history(phist, self.history_bits, bits)
        if self.scheme == "pshare":
            return hash_pc(packet_pc, bits) ^ fold_history(
                phist, self.history_bits, bits
            )
        # "lhist": fold the local history and mix in a little PC so distinct
        # branches with identical histories do not always collide.
        return fold_history(lhist, self.history_bits, bits) ^ hash_pc(
            packet_pc, max(bits - 2, 1)
        )
