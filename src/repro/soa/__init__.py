"""Incremental window analytics (``analyze --figure windows``).

``repro.soa`` holds :class:`IncrementalWindowMetrics`, which maintains
per-window degree histograms, reciprocity and clustering under edge
deltas between consecutive windows, bit-identical to the full CSR
kernels, and :func:`observe_incremental`, its drop-in driver mirroring
:func:`repro.core.timeseries.observe` (see DESIGN §12).
"""

from repro.soa.incremental import IncrementalWindowMetrics, observe_incremental

__all__ = [
    "IncrementalWindowMetrics",
    "observe_incremental",
]
