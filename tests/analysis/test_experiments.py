"""Figure runner tests (tiny configurations for speed)."""

import dataclasses
import json
import os
import re

import pytest

from repro.analysis.experiments import FIGURES, run_figure

_REPO = os.path.join(os.path.dirname(__file__), "..", "..")


@pytest.fixture(scope="module")
def tiny_single():
    return run_figure(
        "fig7", accesses=6_000,
        workload=("sphinx3", "libquantum"),
        design=("no-l3", "sram", "tagless"),
    )


def test_single_programmed_structure(tiny_single):
    assert tiny_single.levels["workload"] == ("sphinx3", "libquantum")
    norm = tiny_single.normalized("ipc_sum", workload="sphinx3")
    assert norm["no-l3"] == pytest.approx(1.0)
    assert set(norm) == {"no-l3", "sram", "tagless"}


def test_single_programmed_tables_render(tiny_single):
    ipc, edp = tiny_single.tables()
    assert "Figure 7a" in ipc
    assert "Figure 7b" in edp
    assert "geomean" in ipc
    # Figure 8 reads the same grid through its own renderer.
    (latency,) = dataclasses.replace(tiny_single, name="fig8").tables()
    assert "Figure 8" in latency


def test_geomeans_positive(tiny_single):
    for design in tiny_single.levels["design"]:
        assert tiny_single.geomean("ipc_sum", design) > 0
        assert tiny_single.geomean("edp", design) > 0


def test_multi_programmed_runner():
    result = run_figure("fig9", accesses=4_000, workload=("MIX1",),
                        design=("no-l3", "tagless"))
    norm = result.normalized("ipc_sum", workload="MIX1")
    assert norm["no-l3"] == pytest.approx(1.0)
    assert norm["tagless"] > 0
    assert "MIX1" in result.tables()[0]


def test_cache_size_sweep_runner():
    result = run_figure("fig10", accesses=4_000, cache_mb=(512, 1024),
                        workload=("MIX1",))
    for size in (512, 1024):
        norm = result.normalized("ipc_sum", baseline="bi", cache_mb=size,
                                 workload="MIX1")
        assert norm["bi"] == pytest.approx(1.0)
    assert "512MB" in result.tables()[0]


def test_replacement_runner():
    result = run_figure("fig11", accesses=4_000, workload=("MIX1",))
    lru_over_fifo = result.normalized(
        "ipc_sum", over="replacement", baseline="fifo", workload="MIX1"
    )["lru"]
    assert lru_over_fifo > 0
    assert "fifo" in result.tables()[0].lower()


def test_parsec_runner():
    result = run_figure("fig12", accesses=4_000, workload=("streamcluster",),
                        design=("no-l3", "tagless"))
    norm = result.normalized("ipc_sum", workload="streamcluster")
    assert norm["tagless"] > 0
    assert "streamcluster" in result.tables()[0]


def test_noncacheable_runner():
    result = run_figure("fig13", accesses=20_000)
    data = result.to_dict()
    assert data["nc_pages"] > 0
    assert data["baseline_ipc"] > 0
    assert data["with_nc_ipc"] > 0
    assert "Figure 13" in result.tables()[0]


def test_harness_dispatch_matches_serial(tmp_path):
    from repro.harness import Harness, ResultCache

    kwargs = dict(accesses=3_000, workload=("sphinx3",),
                  design=("no-l3", "tagless"))
    serial = run_figure("fig7", **kwargs)
    cache = ResultCache(str(tmp_path))
    parallel = run_figure("fig7", **kwargs,
                          harness=Harness(jobs=2, cache=cache))
    assert serial.tables() == parallel.tables()
    # A warm rerun replays every point from the cache, same tables.
    warm = run_figure("fig7", **kwargs, harness=Harness(jobs=1, cache=cache))
    assert warm.tables() == serial.tables()
    assert cache.stats.hits == 2


def test_failed_point_reports_harness_error():
    from repro.harness import HarnessError

    with pytest.raises(HarnessError):
        run_figure("fig7", accesses=2_000, workload=("sphinx3",),
                   design=("no-l3", "bogus"))


def test_result_objects_serialize_to_dict(tiny_single):
    data = tiny_single.to_dict()
    assert data["programs"] == ["sphinx3", "libquantum"]
    assert data["normalized_ipc"]["sphinx3"]["no-l3"] == pytest.approx(1.0)
    assert set(data["geomean_ipc"]) == set(tiny_single.levels["design"])
    json.dumps(data)  # must be JSON-clean

    mix = run_figure("fig9", accesses=4_000, workload=("MIX1",),
                     design=("no-l3", "tagless"))
    assert mix.to_dict()["normalized_ipc"]["MIX1"]["no-l3"] == (
        pytest.approx(1.0)
    )


@pytest.mark.parametrize("doc", [
    "README.md", "EXPERIMENTS.md",
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
])
def test_documented_figure_names_exist(doc):
    with open(os.path.join(_REPO, doc)) as handle:
        names = re.findall(r"repro\.cli experiment ([\w-]+)", handle.read())
    assert names
    assert set(names) <= set(FIGURES)
