"""Figure 11: tagless-cache replacement policy, FIFO vs LRU.

Paper: LRU outperforms FIFO "only marginally, by 1.6 % on average",
justifying the cheap FIFO header-pointer scheme.
"""


def test_fig11_replacement(bench_figure):
    # Longer traces than the other figures: replacement only matters
    # once the singleton stream has filled the cache and evictions flow.
    result = bench_figure("fig11", 140_000)

    # LRU's edge is small (paper: ~1.6 %); FIFO must never be
    # catastrophically worse.
    gain = result.to_dict()["mean_gain_percent"]
    assert -2.0 <= gain <= 10.0
