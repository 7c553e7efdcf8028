"""The paper's three evaluated predictor designs (§V-A, Table I, Fig. 7).

Topologies, in the paper's notation::

    TAGE-L:     LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1
    B2:         GTAG3 > BTB2 > BIM2
    Tournament: TOURNEY3 > [GBIM2 > BTB2, LBIM2]

Sizing follows Table I:

- **Tournament** — 32-bit global and 256 x 32-bit local histories, 2K-entry
  BTB with a 16K-entry 2-bit BHT (the global-indexed bimodal), 1K
  tournament counters.
- **B2** — 16-bit global history, 2K partially tagged + 16K untagged
  counters, 2K-entry BTB.
- **TAGE-L** — 64-bit global history, 7 TAGE tables, 2K-entry BTB with a
  32-entry uBTB, 256-entry loop predictor (plus the PC-indexed backing
  bimodal the topology names).
"""

from __future__ import annotations

from typing import Optional

from repro.components.library import standard_library
from repro.components.tage import default_tables
from repro.core.composer import ComposedPredictor, ComposerConfig, compose

TAGE_L_TOPOLOGY = "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"
B2_TOPOLOGY = "GTAG3 > BTB2 > BIM2"
TOURNEY_TOPOLOGY = "TOURNEY3 > [GBIM2 > BTB2, LBIM2]"

#: Preset registry: name -> builder.
PRESET_NAMES = ("tage_l", "b2", "tourney")


def _config(
    fetch_width: int, global_history_bits: int, **overrides
) -> ComposerConfig:
    fields = dict(
        fetch_width=fetch_width,
        global_history_bits=global_history_bits,
    )
    fields.update(overrides)
    return ComposerConfig(**fields)


def tage_l(
    fetch_width: int = 4,
    tage_latency: int = 3,
    tage_sets: int = 1024,
    **config_overrides,
) -> ComposedPredictor:
    """The TAGE-L design: TAGE + loop corrector over BTB/BIM/uBTB.

    ``tage_latency`` reproduces the §VI-A physical-design ablation: the
    original 2-cycle arbitration versus the pipelined 3-cycle version.
    """
    if tage_latency < 2:
        raise ValueError("TAGE consumes global history; latency must be >= 2")
    library = standard_library(
        fetch_width=fetch_width,
        global_history_bits=64,
        tage_tables=default_tables(n_sets=tage_sets),
    )
    topology = f"LOOP3 > TAGE{tage_latency} > BTB2 > BIM2 > UBTB1"
    config = _config(fetch_width, 64, **config_overrides)
    return compose(topology, library, config)


def b2(fetch_width: int = 4, **config_overrides) -> ComposedPredictor:
    """The B2 design: the original BOOM-style GTAG + backing bimodal."""
    library = standard_library(
        fetch_width=fetch_width,
        global_history_bits=16,
        gtag_history_bits=16,
    )
    config = _config(fetch_width, 16, **config_overrides)
    return compose(B2_TOPOLOGY, library, config)


def tourney(fetch_width: int = 4, **config_overrides) -> ComposedPredictor:
    """The Tournament design: Alpha-21264-style chooser over global/local."""
    library = standard_library(
        fetch_width=fetch_width,
        global_history_bits=32,
        tourney_history_bits=32,
        local_history_bits=32,
        lbim_sets=1024,
    )
    config = _config(
        fetch_width,
        32,
        local_history_entries=256,
        local_history_bits=32,
        **config_overrides,
    )
    return compose(TOURNEY_TOPOLOGY, library, config)


def preset_name(spec: str) -> Optional[str]:
    """The preset ``spec`` names, or None if it names none.

    Matching ignores case and accepts ``-`` for ``_`` (``TAGE-L`` is
    ``tage_l``).
    """
    key = spec.lower().replace("-", "_")
    return key if key in PRESET_NAMES else None


def build(name: str, fetch_width: int = 4, **kwargs) -> ComposedPredictor:
    """Build a preset by name (``tage_l``, ``b2``, ``tourney``)."""
    builders = {"tage_l": tage_l, "b2": b2, "tourney": tourney}
    key = preset_name(name)
    if key is None:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return builders[key](fetch_width=fetch_width, **kwargs)
