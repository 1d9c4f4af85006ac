"""Ablation: GIPT placement and update cost (Sections 3.2 and 3.4).

The paper states the GIPT "can be placed in either in-package or
off-package DRAM" because it is touched only at TLB misses and
evictions, and it charges each fill a conservative two full memory
writes.  This ablation measures both claims:

- placement: off-package (default) vs in-package GIPT;
- the size claim: storage bytes vs cache capacity (the <0.25 % line).
"""

from repro.core.gipt import gipt_storage_megabytes


def test_ablation_gipt(bench_figure):
    data = bench_figure("ablation_gipt", 80_000).to_dict()
    ipcs = {label: row["ipc"] for label, row in data["placement"].items()}
    # Placement is a wash (the paper's scalability argument): the GIPT
    # is off the access path, so either DRAM works.
    off, in_pkg = ipcs["off-package"], ipcs["in-package"]
    assert abs(off - in_pkg) / off < 0.05
    # The 1 GB point matches Section 3.2's 2.56 MB / <0.26 %.
    assert gipt_storage_megabytes(1.0) == 2.5625
