"""Figure 12: multi-threaded PARSEC (4 threads, shared address space).

Paper: streamcluster and facesim (high page reuse, high MPKI) gain --
streamcluster the most; swaptions and fluidanimate (singleton-heavy,
low MPKI) see little to no improvement.
"""


def test_fig12_parsec(bench_figure):
    result = bench_figure("fig12", 60_000)

    programs = result.levels["workload"]
    ipc = {p: result.normalized("ipc_sum", workload=p) for p in programs}
    # streamcluster is the biggest winner of the four.
    gains = {p: ipc[p]["tagless"] for p in programs}
    assert max(gains, key=gains.get) == "streamcluster"
    # swaptions barely moves (low MPKI -> memory system irrelevant).
    assert gains["swaptions"] < 1.10
    # The reuse-heavy programs gain substantially and tagless beats the
    # SRAM-tag baseline on them (paper: +0.6 % for streamcluster, EDP
    # win for facesim).
    for program in ("streamcluster", "facesim"):
        assert gains[program] > 1.10
        assert ipc[program]["tagless"] >= ipc[program]["sram"] * 0.99
        edp = result.normalized("edp", workload=program)
        assert edp["tagless"] < edp["sram"]
