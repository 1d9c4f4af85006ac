"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``workloads``   -- list the SPEC/PARSEC workload models and the mixes;
- ``run``         -- simulate one workload, mix or tenant-scenario file
  on one design and print the headline metrics (optionally as JSON);
  a scenario adds its per-tenant QoS and resize tables; ``--trace`` and
  ``--timeseries`` capture a Perfetto trace and a windowed time series;
- ``experiment``  -- regenerate one of the paper's figures end to end;
- ``campaign``    -- run, resume or report a factor x level x repetition
  study with statistical reduction;
- ``profile``     -- cProfile one simulation run and rank the hot spots;
- ``report``      -- render a time-series artifact as sparklines;
- ``status``      -- reconstruct a campaign directory's health;
- ``merge-trace`` -- merge Perfetto traces into one timeline;
- ``validate``    -- grade the paper's headline claims against this build;
- ``check``       -- run structural invariants, reference differentials
  and cross-design bounds (``repro.validate``).
"""

from repro.cli.main import main

__all__ = ["main"]
