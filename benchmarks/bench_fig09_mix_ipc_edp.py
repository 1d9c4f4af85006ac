"""Figure 9: IPC and EDP of the eight multi-programmed mixes (Table 5).

Paper: SRAM-tag +34.9 % and tagless +38.4 % IPC over No-L3; EDP
reductions 31.5 % and 43.5 %; BI only +11.2 %.
"""


def test_fig09_mix_ipc_edp(bench_figure):
    result = bench_figure("fig9", 70_000)

    designs = result.levels["design"]
    gm = {d: result.geomean("ipc_sum", d) for d in designs}
    assert gm["no-l3"] < gm["bi"] < gm["sram"] < gm["ideal"]
    assert gm["tagless"] > gm["bi"]          # caches beat OS-oblivious BI
    assert gm["tagless"] > 1.15              # a substantial win over No-L3
    edp = {d: result.geomean("edp", d) for d in designs}
    assert edp["tagless"] < edp["sram"] < edp["no-l3"]  # Figure 9b order
