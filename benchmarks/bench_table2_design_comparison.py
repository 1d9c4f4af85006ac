"""Table 2, quantified: the design-requirement comparison.

The paper's Table 2 rates page-based-with-SRAM-tags vs tagless
qualitatively (tag storage, hit ratio, hit latency, row-buffer locality,
over-fetching).  This benchmark measures each criterion on a live run of
a representative workload so the qualitative table becomes numbers:

- tag storage: on-die SRAM bytes dedicated to tags;
- hit ratio: DRAM-cache hits / L3 accesses;
- hit latency: the Figure 8 metric;
- row-buffer locality: in-package row-hit rate of page streams;
- over-fetching: off-package bytes moved per L3 demand access.
"""


def test_table2_design_comparison(bench_figure):
    metrics = bench_figure("table2", 80_000).to_dict()["designs"]
    # "Small tag storage: best" -- zero for tagless.
    assert metrics["tagless"]["tag_mb"] == 0.0
    assert metrics["sram"]["tag_mb"] == 4.0
    # "High hit ratio: best" -- fully associative >= 16-way.
    assert (metrics["tagless"]["hit_ratio"]
            >= metrics["sram"]["hit_ratio"] - 0.01)
    # "Low hit latency: best" -- no tag check on the access path.
    assert metrics["tagless"]["l3_latency"] < metrics["sram"]["l3_latency"]
