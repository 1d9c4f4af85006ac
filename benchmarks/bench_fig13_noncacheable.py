"""Figure 13 / Section 5.4: non-cacheable pages on 459.GemsFDTD.

Pages with fewer than 32 accesses (fewer than half their 64 blocks
touched) are flagged NC so they bypass the DRAM cache.  Paper: +7.1 %
IPC over tagless without NC, from reduced bandwidth pollution and a
higher hit ratio for the pages that remain.
"""


def test_fig13_noncacheable(bench_figure):
    data = bench_figure("fig13", 150_000).to_dict()

    assert data["nc_pages"] > 0, "GemsFDTD must have low-reuse pages"
    # NC classification helps (paper: +7.1 %); any clear positive gain
    # reproduces the conclusion.
    assert data["gain_percent"] > 0.5
