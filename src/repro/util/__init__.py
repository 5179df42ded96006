"""Small shared utilities: units, statistics, deterministic RNG, timing,
and the shared background-:class:`~repro.util.service.Service` contract."""

from repro.util.service import Service, ServiceMixin, StepLoop, stop_all
from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    KIB,
    MIB,
    GIB,
    TIB,
    format_bytes,
    format_rate,
    format_seconds,
    parse_size,
)
from repro.util.stats import RunningStats, percentile, summarize
from repro.util.timing import Timer, measure_throughput

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "format_bytes",
    "format_rate",
    "format_seconds",
    "parse_size",
    "RunningStats",
    "percentile",
    "summarize",
    "Timer",
    "measure_throughput",
    "Service",
    "ServiceMixin",
    "StepLoop",
    "stop_all",
]
