"""COBRA core: the predictor interface, topology model, and composer.

This package is the paper's primary contribution, reproduced at cycle
level: the sub-component interface (§III), the topological representation
of predictor compositions (§IV-A), the composer that generates a complete
pipeline with its management structures (§IV-B), and the events connecting
them (§III-E).
"""

from repro.core.composer import (
    ComposedPredictor,
    ComposerConfig,
    ComposerStats,
    MispredictResponse,
    PredictResult,
    compose,
)
from repro.core.events import PredictRequest, UpdateBundle
from repro.core.history import GlobalHistoryProvider, LocalHistoryProvider
from repro.core.history_file import HistoryFile, HistoryFileEntry, HistoryFileError
from repro.core.interface import InterfaceError, PredictorComponent, StorageReport
from repro.core.parser import ComponentLibrary, TopologyParseError, parse_topology
from repro.core.prediction import (
    PreDecodedSlot,
    PredictionVector,
    SlotPrediction,
    packet_span,
)
from repro.core.repair import RepairStateMachine
from repro.core.visualize import render_pipeline, render_timing
from repro.core.topology import (
    Arbitrate,
    Leaf,
    Override,
    TopologyNode,
    validate_topology,
)

__all__ = [
    "ComposedPredictor",
    "ComposerConfig",
    "ComposerStats",
    "MispredictResponse",
    "PreDecodedSlot",
    "PredictResult",
    "compose",
    "PredictRequest",
    "UpdateBundle",
    "GlobalHistoryProvider",
    "LocalHistoryProvider",
    "HistoryFile",
    "HistoryFileEntry",
    "HistoryFileError",
    "InterfaceError",
    "PredictorComponent",
    "StorageReport",
    "ComponentLibrary",
    "TopologyParseError",
    "parse_topology",
    "PredictionVector",
    "SlotPrediction",
    "packet_span",
    "RepairStateMachine",
    "Arbitrate",
    "Leaf",
    "Override",
    "TopologyNode",
    "validate_topology",
    "render_pipeline",
    "render_timing",
]
