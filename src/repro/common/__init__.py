"""Shared low-level building blocks for the tagless DRAM cache reproduction.

The :mod:`repro.common` package collects the pieces that every other
subsystem depends on but that carry no simulation logic of their own:

- :mod:`repro.common.addressing` -- page/line address arithmetic for the
  48-bit physical address space used throughout the paper.
- :mod:`repro.common.config` -- dataclass descriptions of the simulated
  machine, with presets transcribed from Tables 3, 4 and 6 of the paper.
- :mod:`repro.common.stats` -- counter/aggregation helpers used by every
  simulated component to expose its behaviour to the experiment harness.
- :mod:`repro.common.rng` -- deterministic random-stream helpers so traces
  and experiments are reproducible run to run.
- :mod:`repro.common.errors` -- the exception hierarchy.
"""

from repro.common.addressing import (
    AddressSpace,
    BYTES_PER_KB,
    BYTES_PER_MB,
    BYTES_PER_GB,
    CACHE_LINE_BYTES,
    LINES_PER_PAGE,
    PAGE_BYTES,
    line_index_in_page,
    line_of_address,
    page_of_address,
)
from repro.common.config import (
    CoreConfig,
    DRAMCacheConfig,
    DRAMEnergyConfig,
    DRAMTimingConfig,
    OnDieCacheConfig,
    SRAMTagConfig,
    SystemConfig,
    TLBConfig,
    default_system,
)
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
)

__all__ = [
    "AddressSpace",
    "BYTES_PER_KB",
    "BYTES_PER_MB",
    "BYTES_PER_GB",
    "CACHE_LINE_BYTES",
    "LINES_PER_PAGE",
    "PAGE_BYTES",
    "line_index_in_page",
    "line_of_address",
    "page_of_address",
    "CoreConfig",
    "DRAMCacheConfig",
    "DRAMEnergyConfig",
    "DRAMTimingConfig",
    "OnDieCacheConfig",
    "SRAMTagConfig",
    "SystemConfig",
    "TLBConfig",
    "default_system",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
]
