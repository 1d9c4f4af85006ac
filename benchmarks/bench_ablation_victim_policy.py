"""Ablation: victim-selection policy, extended beyond Figure 11.

Figure 11 compares FIFO and LRU; this ablation adds CLOCK (the
second-chance approximation Section 5.2 alludes to) and runs at a
*smaller* cache (512 MB) where replacement actually matters, unlike the
1 GB point where all policies coincide.
"""


def test_ablation_victim_policy(bench_figure):
    data = bench_figure("ablation_victim_policy", 50_000).to_dict()
    ipcs = {(mix, policy): value
            for mix, row in data["ipc"].items()
            for policy, value in row.items()}
    for mix in ("MIX3", "MIX5"):
        fifo = ipcs[(mix, "fifo")]
        for policy in ("clock", "lru"):
            # Smarter policies may win under pressure but FIFO must stay
            # competitive (the paper's argument for its simplicity).
            assert ipcs[(mix, policy)] >= fifo * 0.9
