"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

- ``workloads``  -- list the SPEC/PARSEC workload models and the mixes;
- ``run``        -- simulate one workload (or mix) on one design and
  print the headline metrics (optionally as JSON); ``--trace`` and
  ``--timeseries`` capture a Perfetto trace and a windowed time series;
- ``experiment`` -- regenerate one of the paper's figures end to end;
- ``sweep``      -- cartesian design x workload x size sweep to JSONL;
- ``profile``    -- cProfile one simulation run and rank the hot spots;
- ``validate``   -- grade the paper's headline claims against this build;
- ``check``      -- run structural invariants, reference differentials
  and cross-design bounds (``repro.validate``).
"""

from repro.cli.main import main

__all__ = ["main"]
