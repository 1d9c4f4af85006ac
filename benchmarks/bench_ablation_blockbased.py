"""Ablation: the block-based design class (Table 2's third column).

Runs the Alloy-style direct-mapped block cache alongside the paper's
page-based designs on two contrasting workloads:

- ``libquantum`` (pure streaming, strong spatial locality): page-based
  caching shines -- one 4 KB fill serves 64 future blocks -- while the
  block cache re-misses line after line;
- ``omnetpp`` (pointer chasing, weak spatial locality): block caching's
  minimal over-fetch closes much of the gap.

This quantifies the "high DRAM row buffer locality / minimal
over-fetching" rows of Table 2.
"""


def test_ablation_blockbased(bench_figure):
    data = bench_figure("ablation_blockbased", 80_000).to_dict()
    norm = {(program, design): value
            for program, row in data["normalized_ipc"].items()
            for design, value in row.items()}
    # Streaming: page-granularity wins big over block-granularity.
    assert norm[("libquantum", "tagless")] > norm[("libquantum", "alloy")]
    # Tagless never loses to the block cache on these workloads.
    for program in ("libquantum", "omnetpp"):
        assert norm[(program, "tagless")] >= norm[(program, "alloy")] * 0.98
