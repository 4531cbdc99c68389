"""Floating-point holonomy probe: loop transport and the span of its logarithms."""

from .transport import (
    DOCUMENT,
    FloatMetric,
    SingularMetricError,
    holonomy_span,
    parallel_transport,
    probe_report,
    standard_loops,
)
