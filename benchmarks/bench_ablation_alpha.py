"""Ablation: the free-block budget alpha (Section 3.1 / Figure 3).

The paper keeps alpha = 1 free block so that a cache fill never waits
for an eviction.  This ablation sweeps alpha: larger budgets trade
usable cache capacity for slack in the asynchronous evictor.  The
expectation -- and the design argument for alpha = 1 -- is that the IPC
curve is nearly flat: the free queue hides eviction latency already,
so extra free blocks only shrink the cache.
"""


def test_ablation_alpha(bench_figure):
    data = bench_figure("ablation_alpha", 50_000).to_dict()
    ipcs = {alpha: row["ipc"] for alpha, row in data["alpha"].items()}
    # alpha=1 suffices: growing the free pool never helps by much.
    assert ipcs[64] <= ipcs[1] * 1.05
    assert min(ipcs.values()) >= max(ipcs.values()) * 0.85
