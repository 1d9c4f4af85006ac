"""Energy breakdown behind Figure 7b/9b: where each design's joules go.

The EDP results rest on component energies; this benchmark prints the
full per-component breakdown for one representative workload so the
"zero energy waste for cache tags" claim (abstract) is visible as a
line item rather than an aggregate.
"""


def test_energy_breakdown(bench_figure):
    result = bench_figure("energy_breakdown", 80_000)
    breakdowns = {design: result.value("energy", design=design)
                  for design in result.levels["design"]}
    # The abstract's claim, as a line item: only the SRAM-tag design
    # burns tag energy.
    assert breakdowns["sram"].tag_j > 0
    for design in ("no-l3", "bi", "tagless", "ideal"):
        assert breakdowns[design].tag_j == 0.0
    # Every design moves energy: totals are positive and finite.
    for design, e in breakdowns.items():
        assert e.total_j > 0
    # The tagless design spends less total energy than the SRAM-tag
    # design on this workload (faster run + no tag power).
    assert breakdowns["tagless"].total_j < breakdowns["sram"].total_j
