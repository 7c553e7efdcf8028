"""Evaluation harness: run workloads on cores, collect MPKI/IPC (§V-B).

This plays the role of the paper's FireSim simulations plus the Linux
``perf`` measurements: :func:`run_workload` attaches a composed predictor to
the host-core model, runs a workload to completion, and returns the metrics
Fig. 10 reports.  ``run_workload(..., backend="trace")`` runs the same
predictor under the trace-driven software-simulator methodology the paper
argues *against* (§II-B, :mod:`repro.backends.trace`), so the modelling
gap is itself measurable.
"""

from repro.eval.cache import ResultCache
from repro.eval.metrics import RunResult, harmonic_mean
from repro.eval.parallel import EvalJob, ParallelRunner, job_cache_key
from repro.eval.runner import run_workload, run_suite
from repro.eval.comparison import EvaluatedSystem, evaluated_systems
from repro.eval.golden import check_goldens, update_goldens
from repro.eval.profiler import (
    AttributedSite,
    SiteReport,
    coverage,
    format_attribution,
    format_profile,
    site_attribution,
    top_offenders,
)
from repro.eval.sweep import (
    DesignPoint,
    evaluate_designs,
    format_points,
    pareto_frontier,
)

__all__ = [
    "ResultCache",
    "EvalJob",
    "ParallelRunner",
    "job_cache_key",
    "RunResult",
    "harmonic_mean",
    "run_workload",
    "run_suite",
    "EvaluatedSystem",
    "evaluated_systems",
    "AttributedSite",
    "SiteReport",
    "check_goldens",
    "coverage",
    "format_attribution",
    "format_profile",
    "site_attribution",
    "top_offenders",
    "update_goldens",
    "DesignPoint",
    "evaluate_designs",
    "format_points",
    "pareto_frontier",
]
