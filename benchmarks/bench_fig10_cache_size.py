"""Figure 10: IPC sensitivity to DRAM cache size (256 MB/512 MB/1 GB),
normalised to bank-interleaving.

Paper: at 256 MB both caches *lose* to BI by ~30 % (thrashing page
migrations); from 512 MB up the caches win, with tagless ahead at the
large end.
"""


def test_fig10_cache_size(bench_figure):
    result = bench_figure("fig10", 50_000)

    def geomean_ipc(size, design):
        return result.geomean("ipc_sum", design, baseline="bi",
                              cache_mb=size)

    # The crossover: both designs below BI at 256 MB, above it at 1 GB.
    for design in ("sram", "tagless"):
        assert geomean_ipc(256, design) < 1.0
        assert geomean_ipc(1024, design) > 1.0
    # Monotone improvement with capacity for the tagless cache.  (The
    # SRAM-tag series may dip slightly at the top because the BI
    # normaliser also improves with a larger in-package region.)
    tagless_series = [geomean_ipc(size, "tagless")
                      for size in result.levels["cache_mb"]]
    assert tagless_series == sorted(tagless_series)
    assert geomean_ipc(512, "sram") > geomean_ipc(256, "sram")
    # Tagless benefits most from the large cache (paper: consistently
    # outperforms SRAM-tag for large sizes).
    assert geomean_ipc(1024, "tagless") >= geomean_ipc(
        1024, "sram") * 0.99
