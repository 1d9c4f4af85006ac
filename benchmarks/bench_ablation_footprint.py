"""Ablation: footprint-style partial fills (extension, paper ref [21]).

The paper names footprint caching as the complementary fix for
page-granularity over-fetching.  This ablation measures the extension on
the bandwidth-bound regime where it matters: a small (256 MB) cache
under a four-program mix, where full 4 KB fills saturate the off-package
channel.  Expected trade-off: footprint fills cut off-package read
traffic substantially; IPC improves when the channel is the bottleneck
and the footprint-miss penalty stays small.
"""


def test_ablation_footprint(bench_figure):
    data = bench_figure("ablation_footprint", 50_000).to_dict()
    for cache_mb in (256, 512):
        points = data["cache_mb"][cache_mb]
        full_ipc, full_rd = (points["full-fill"]["ipc"],
                             points["full-fill"]["offpkg_read_mb"])
        fp_ipc, fp_rd = (points["footprint"]["ipc"],
                         points["footprint"]["offpkg_read_mb"])
        # The headline property: footprint fills reduce off-package
        # read traffic under pressure.
        assert fp_rd < full_rd
        # And they never cost much IPC (bounded under-fetch penalty).
        assert fp_ipc > full_ipc * 0.85
