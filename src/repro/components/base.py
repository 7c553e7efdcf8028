"""Shared building blocks for predictor sub-components.

:class:`MetaCodec` renders a component's positional metadata tuple as the
fixed-width bit image the history file stores (§III-D), mirroring how RTL
implementations concatenate bitfields.

:class:`SpecComponent` is the base of every library component: its
:class:`~repro.spec.ComponentSpec`, built and validated once at
construction and kept as the ``spec`` attribute, supplies the codec, the
storage report and the history demand.

:class:`IndexScheme` names the parameterized indexing option of the
counter tables (§III-G1): "indexed by a global history, local history, PC,
or any hashed combination of the above"; its :meth:`~IndexScheme.index_fn`
is the closed form (:class:`repro.spec.IndexFn`) the tables evaluate.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.core.interface import InterfaceError, PredictorComponent, StorageReport
from repro.spec import ComponentSpec

FieldSpec = Tuple[str, int, int]  # (name, bits, count)


class MetaCodec:
    """The bit image of a component's metadata layout (§III-D).

    A layout is a list of named bitfields, scalars or fixed-length vectors
    (``count > 1`` lanes of ``bits`` each — the common case for superscalar
    components that store one counter per fetch slot).  Components hand
    the history file their metadata as a positional tuple in layout order:
    an int per scalar field, a sequence of ``count`` ints per vector
    field.  The framework stores and returns that tuple untouched; only
    where the bits themselves are observed — the contract harness
    (CON001) — is it rendered by :meth:`image`, packed LSB-first in
    declaration order.  ``width`` is what ``meta_bits`` declares and
    TOP003 checks.

    Example::

        codec = MetaCodec([("hit", 1, 1), ("ctr", 2, 4)])
        codec.image((1, [3, 0, 1, 2]))  # 0b10_01_00_11_1
    """

    def __init__(self, fields: Sequence[Union[Tuple[str, int], FieldSpec]]):
        self._fields: List[FieldSpec] = []
        names = set()
        for spec in fields:
            if len(spec) == 2:
                name, bits = spec  # type: ignore[misc]
                count = 1
            else:
                name, bits, count = spec  # type: ignore[misc]
            if bits <= 0 or count <= 0:
                raise ValueError(f"field {name!r}: bits and count must be positive")
            if name in names:
                raise ValueError(f"duplicate metadata field {name!r}")
            names.add(name)
            self._fields.append((name, bits, count))
        self.width = sum(bits * count for _, bits, count in self._fields)

    def image(self, values: Sequence) -> int:
        """Pack positional ``values``, checking every field fits its bits."""
        if len(values) != len(self._fields):
            raise ValueError(
                f"expected {len(self._fields)} metadata fields, got {len(values)}"
            )
        meta = offset = 0
        for (name, bits, count), value in zip(self._fields, values):
            if count == 1:
                value = (value,)
            elif len(value) != count:
                raise ValueError(
                    f"field {name!r} expects {count} lanes, got {len(value)}"
                )
            for lane in value:
                lane = int(lane)
                if lane >> bits:  # negative, or wider than the field
                    raise ValueError(
                        f"field {name!r}: value {lane} exceeds {bits} bits"
                    )
                meta |= lane << offset
                offset += bits
        return meta


class SpecComponent(PredictorComponent):
    """A component declared once, by the spec it builds at construction.

    A subclass sets its sizing attributes, builds its
    :class:`~repro.spec.ComponentSpec` and passes it here.  A spec that
    fails :meth:`~repro.spec.ComponentSpec.validate` raises
    :class:`~repro.core.interface.InterfaceError` naming each problem;
    a valid one is stored as :attr:`spec`, and every interface
    declaration is read off that one object:

    - the :class:`MetaCodec` (``self._codec``) from ``spec.meta_fields``,
      and ``meta_bits`` from the codec.  ``lookup`` returns its metadata
      as a tuple in ``spec.meta_fields`` order, and :meth:`meta_image`
      renders that tuple's bits;
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

    def meta_image(self, meta: tuple) -> int:
        """``meta``'s bit image, checked field by field (``ValueError``)."""
        return self._codec.image(meta)

    def storage(self) -> StorageReport:
        # Imported here: repro.derive imports this module.
        from repro.derive.tables import derived_storage

        return derived_storage(self.name, self.spec)


class IndexScheme:
    """How a counter table indexes from the PC and histories.

    :meth:`index_fn` gives the scheme's closed form as a
    :class:`repro.spec.IndexFn`, which tables evaluate.  Supported schemes:

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
