"""Figure 7: IPC and EDP of 11 single-programmed SPEC CPU 2006 programs
across the five designs, normalised to No-L3.

Paper's headline numbers for this figure: BI +4.0 % IPC, SRAM-tag
+16.4 %, tagless +24.9 % (within 11.8 % of ideal); tagless beats
SRAM-tag on EDP by 26.5 %.  The *shape* asserted below: strict design
ordering on the geomean and a large tagless EDP win.
"""


def test_fig07_spec_ipc_edp(bench_figure):
    result = bench_figure("fig7", 100_000)

    # Shape checks (the paper's ordering, not its absolute numbers).
    designs = result.levels["design"]
    gm = {d: result.geomean("ipc_sum", d) for d in designs}
    assert gm["no-l3"] < gm["bi"] < gm["sram"] < gm["tagless"] <= gm["ideal"]
    edp = {d: result.geomean("edp", d) for d in designs}
    assert edp["tagless"] < edp["sram"] < edp["no-l3"]
    # BI is a small improvement (paper: ~4 %).
    assert 1.0 < gm["bi"] < 1.12
