"""Figure runner tests (tiny configurations for speed)."""

import dataclasses
import json
import os
import re

import pytest

from repro.analysis.experiments import FIGURES, expand_figure, run_figure
from repro.campaign import CampaignSpec, expand
from repro.cli.main import main
from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec
from repro.harness import jobs as jobs_module

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


class TestMachinePathFactors:
    """Figure factors named by a dotted SystemConfig path."""

    def test_cell_level_reaches_system_config(self):
        levels, jobs = expand_figure("ablation_alpha")
        assert [job.system_config().dram_cache.alpha
                for job in jobs.values()] == list(levels["dram_cache.alpha"])

    def test_set_of_another_path_reaches_every_cell(self):
        machine = MachineSpec(overrides={"core.model": "window"})
        _levels, jobs = expand_figure("ablation_footprint", machine=machine)
        for (cache_mb, footprint), job in jobs.items():
            config = job.system_config()
            assert config.core.model == "window"
            assert config.dram_cache.footprint_caching is footprint
            assert job.cache_megabytes == cache_mb

    def test_set_of_the_same_path_is_refused(self):
        machine = MachineSpec(overrides={"dram_cache.alpha": 2})
        with pytest.raises(ConfigurationError, match="dram_cache.alpha"):
            expand_figure("ablation_alpha", machine=machine)

    def test_pooled_cells_keep_their_overrides(self):
        from repro.harness import Harness

        # At this length the GIPT placement is the one machine factor
        # that moves the numbers, so a worker that lost a cell's
        # override would change the table.
        result = run_figure("ablation_gipt", accesses=600,
                            harness=Harness(jobs=2))
        with open(os.path.join(_REPO, "tests", "analysis", "golden",
                               "ablation_gipt.txt")) as handle:
            assert "\n\n".join(result.tables()) + "\n" == handle.read()

    def test_cli_refuses_the_same_path_in_one_line(self, tmp_path):
        artifact = tmp_path / "alpha.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "ablation_alpha", "--set",
                  "dram_cache.alpha=2", "--no-cache",
                  "--artifact", str(artifact)])
        message = exit_info.value.code
        assert isinstance(message, str) and "\n" not in message
        assert "dram_cache.alpha" in message
        assert not artifact.exists()


@pytest.mark.parametrize("study", ["smoke", "gipt_override_smoke",
                                   "multitenant_smoke"])
def test_campaign_cache_keys_survive_the_shared_mapping(study, monkeypatch):
    """Campaign jobs address the cache entries they always did.

    ``golden/campaign_keys.json`` holds each study's expanded cache
    keys under a pinned code fingerprint, taken before campaigns and
    figures shared :func:`~repro.campaign.compile.job_fields`.
    """
    monkeypatch.chdir(_REPO)
    monkeypatch.setattr(jobs_module, "_FINGERPRINT", "pinned")
    spec = CampaignSpec.from_file(
        os.path.join("benchmarks", "studies", f"{study}.json"))
    with open(os.path.join(_REPO, "tests", "analysis", "golden",
                           "campaign_keys.json")) as handle:
        golden = json.load(handle)[study]
    assert [job.spec.cache_key() for job in expand(spec)] == golden
