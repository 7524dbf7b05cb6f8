"""Incremental window analytics (``analyze --figure windows``).

``repro.soa`` holds :class:`IncrementalWindowMetrics`, which maintains
per-window degree histograms, reciprocity and clustering under edge
deltas between consecutive windows, bit-identical to the full CSR
kernels.  :func:`repro.core.experiments.windowed_structure` drives it
over a trace (see DESIGN §12).
"""

from repro.soa.incremental import IncrementalWindowMetrics

__all__ = [
    "IncrementalWindowMetrics",
]
