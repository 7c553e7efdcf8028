"""Vectorized columnar prediction kernels.

Batch ports of the table-based component lookups that predict whole
branch segments between mispredicts in one numpy pass over
:class:`~repro.workloads.traces.BranchTrace` columns.  Components opt in
through :meth:`~repro.core.interface.PredictorComponent.columnar_kernel`
(the CON009 capability, mirroring ``branchless_inert``/CON008); the
replay backend falls back to the scalar walker automatically whenever a
predictor carries a kernel-less component, telemetry, or a stale
no-replay history window.
"""
