"""Figure 8: average L3 access latency, SRAM-tag vs tagless.

Paper: the tagless cache is consistently lower thanks to the deleted
tag check -- up to 16.7 % for 462.libquantum, 9.9 % geomean reduction.
"""


def test_fig08_l3_latency(bench_figure):
    result = bench_figure("fig8", 100_000)

    # Tagless must be lower for every single program (paper:
    # "consistently yields lower latency").
    for program in result.levels["workload"]:
        latency = {d: result.value("mean_l3_latency_cycles",
                                   workload=program, design=d)
                   for d in ("sram", "tagless")}
        assert latency["tagless"] < latency["sram"], program
