"""The COBRA sub-component library (§III-G).

Starter implementations of commonly used predictor sub-components, all
conforming to the :class:`~repro.core.interface.PredictorComponent`
interface: bimodal counter tables with parameterized indexing, a large
2-cycle BTB and a small 1-cycle micro-BTB, a tournament selector, TAGE, and
a loop predictor — plus perceptron and statistical-corrector components,
which the paper notes "may be implemented similarly".
"""

from repro.components.base import IndexScheme, MetaCodec, SpecComponent
from repro.components.bimodal import HBIM
from repro.components.btb import BTB, MicroBTB
from repro.components.gtag import GTag
from repro.components.ittage import ITTAGE
from repro.components.loop import LoopPredictor
from repro.components.perceptron import Perceptron
from repro.components.statistical_corrector import StatisticalCorrector
from repro.components.tage import TAGE, TageTableConfig, geometric_history_lengths
from repro.components.tournament import Tourney
from repro.components.twolevel import TwoLevel
from repro.components.ras import ReturnAddressStack
from repro.components.library import standard_library

__all__ = [
    "IndexScheme",
    "MetaCodec",
    "SpecComponent",
    "HBIM",
    "BTB",
    "MicroBTB",
    "GTag",
    "ITTAGE",
    "LoopPredictor",
    "Perceptron",
    "StatisticalCorrector",
    "TAGE",
    "TageTableConfig",
    "geometric_history_lengths",
    "Tourney",
    "TwoLevel",
    "ReturnAddressStack",
    "standard_library",
]
