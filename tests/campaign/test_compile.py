"""Campaign expansion and execution through the harness."""

import pytest

from repro.campaign.compile import (
    CampaignRun,
    expand,
    results_from_artifact,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec
from repro.common.errors import ConfigurationError
from repro.harness.artifacts import RunArtifact
from repro.harness.runner import Harness

STUDY = {
    "name": "unit",
    "repetitions": 2,
    "factors": {
        "design": ["tagless", "no-l3"],
        "workload": ["mcf"],
    },
    "fixed": {"accesses": 1500, "cache_mb": 256, "scale": 512},
    "metrics": ["ipc"],
    "baseline": "no-l3",
}


def study(**overrides) -> CampaignSpec:
    data = dict(STUDY)
    data.update(overrides)
    return CampaignSpec.from_dict(data)


def test_run_campaign_checks_scenarios_before_dispatch(tmp_path):
    class RecordingHarness(Harness):
        def run(self, specs):
            raise AssertionError("dispatched despite a missing scenario")

    spec = study(factors={"design": ["tagless"]}, baseline=None,
                 fixed={"scenario": str(tmp_path / "nowhere.json"),
                        "cores": 2})
    with pytest.raises(ConfigurationError, match="cannot read scenario"):
        run_campaign(spec, RecordingHarness())


class TestExpand:
    def test_grid_times_repetitions(self):
        jobs = expand(study())
        assert len(jobs) == 4  # 2 designs x 1 workload x 2 reps
        assert [j.repetition for j in jobs] == [0, 1, 0, 1]

    def test_field_mapping(self):
        job = expand(study())[0]
        assert job.spec.design == "tagless"
        assert job.spec.workload == "mcf"
        assert job.spec.accesses == 1500
        assert job.spec.cache_megabytes == 256
        assert job.spec.capacity_scale == 512
        assert job.spec.base_seed == job.seed

    def test_designs_pair_seeds(self):
        jobs = expand(study())
        tagless = [j for j in jobs if j.spec.design == "tagless"]
        nol3 = [j for j in jobs if j.spec.design == "no-l3"]
        assert [j.seed for j in tagless] == [j.seed for j in nol3]
        # ...but distinct cache keys: the design differs.
        assert (tagless[0].spec.cache_key() != nol3[0].spec.cache_key())

    def test_repetitions_get_distinct_cache_keys(self):
        jobs = expand(study())
        assert jobs[0].spec.cache_key() != jobs[1].spec.cache_key()

    def test_core_count_inference(self):
        mix = study(factors={"design": ["tagless"], "workload": ["MIX1"]},
                    baseline=None)
        assert expand(mix)[0].spec.num_cores == 4
        single = study()
        assert expand(single)[0].spec.num_cores == 1

    def test_requires_design(self):
        with pytest.raises(ConfigurationError, match="'design'"):
            expand(study(factors={"workload": ["mcf"]}, baseline=None))

    def test_requires_workload(self):
        with pytest.raises(ConfigurationError, match="'workload'"):
            expand(study(factors={"design": ["tagless"]}, baseline=None))

    def test_rejects_unknown_design(self):
        bad = study(factors={"design": ["tagless", "hal9000"],
                             "workload": ["mcf"]}, baseline=None)
        with pytest.raises(ConfigurationError, match="hal9000"):
            expand(bad)


class TestRunCampaign:
    def test_collects_all_cells(self):
        spec = study()
        run = run_campaign(spec, Harness())
        assert all(outcome.ok for outcome in run.outcomes)
        results = run.cell_results()
        assert set(results) == {0, 1}
        for reps in results.values():
            assert set(reps) == {0, 1}
            for metrics in reps.values():
                assert metrics["ipc"] > 0

    def test_repetitions_vary_metrics(self):
        run = run_campaign(study(), Harness())
        results = run.cell_results()
        assert results[0][0]["ipc"] != results[0][1]["ipc"]

    def test_counters_shape(self):
        run = run_campaign(study(), Harness())
        counters = run.counters()
        assert counters["jobs"] == 4
        assert counters["computed"] == 4
        assert counters["errors"] == 0
        assert counters["resumed"] == 0

    def test_failed_points_shrink_cells(self):
        spec = study(factors={"design": ["tagless"], "workload": ["mcf"]},
                     baseline=None)
        run = run_campaign(spec, Harness())
        # Fake one failed repetition.
        run.outcomes[1].error = "boom"
        run.outcomes[1].status = "error"
        results = run.cell_results()
        assert set(results[0]) == {0}
        assert run.counters()["errors"] == 1


class TestResultsFromArtifact:
    def test_round_trip(self, tmp_path):
        spec = study()
        path = str(tmp_path / "jobs.jsonl")
        artifact = RunArtifact(path, name="campaign-unit")
        run = run_campaign(spec, Harness(observer=artifact))
        artifact.close()
        _jobs, replayed, _dropped = results_from_artifact(spec, path)
        assert replayed == run.cell_results()

    def test_ignores_foreign_rows(self, tmp_path):
        spec = study()
        path = str(tmp_path / "jobs.jsonl")
        artifact = RunArtifact(path, name="campaign-unit")
        run_campaign(spec, Harness(observer=artifact))
        artifact.close()
        # A spec with different fixed settings matches nothing.
        other = study(fixed={"accesses": 999, "cache_mb": 256,
                             "scale": 512})
        _jobs, replayed, _dropped = results_from_artifact(other, path)
        assert replayed == {}

    def test_tolerates_torn_trailing_line(self, tmp_path):
        spec = study()
        path = str(tmp_path / "jobs.jsonl")
        artifact = RunArtifact(path, name="campaign-unit")
        run = run_campaign(spec, Harness(observer=artifact))
        artifact.close()
        with open(path, "a") as handle:
            handle.write('{"record": "job", "status": "ok"')  # torn
        _jobs, replayed, _dropped = results_from_artifact(spec, path)
        assert replayed == run.cell_results()


class TestMachineFactors:
    """Dotted override paths and 'preset' as campaign factors."""

    def machine_study(self, **overrides) -> CampaignSpec:
        data = {
            "name": "machine-unit",
            "repetitions": 2,
            "factors": {
                "design": ["tagless", "no-l3"],
                "dram_cache.gipt_in_package": [False, True],
            },
            "fixed": {"workload": "mcf", "accesses": 1500,
                      "cache_mb": 256, "scale": 512},
            "metrics": ["ipc"],
            "baseline": "no-l3",
        }
        data.update(overrides)
        return CampaignSpec.from_dict(data)

    def test_dotted_factor_expands_into_machine(self):
        jobs = expand(self.machine_study())
        assert len(jobs) == 8  # 2 designs x 2 gipt levels x 2 reps
        placements = {
            job.spec.system_config().dram_cache.gipt_in_package
            for job in jobs
        }
        assert placements == {False, True}
        # The default level compiles to the default machine, so its
        # cache keys are the ones a machine-less build would compute.
        default_jobs = [j for j in jobs
                        if j.cell.get("dram_cache.gipt_in_package") is False]
        assert all(j.spec.machine.is_default for j in default_jobs)

    def test_dotted_factor_changes_cache_keys(self):
        jobs = expand(self.machine_study())
        by_gipt = {}
        for job in jobs:
            level = job.cell.get("dram_cache.gipt_in_package")
            by_gipt.setdefault(level, set()).add(job.spec.cache_key())
        assert by_gipt[False].isdisjoint(by_gipt[True])

    def test_dotted_factor_joins_seed_pairing(self):
        """Seeds pair across designs but differ across machine levels."""
        jobs = expand(self.machine_study())
        def seeds(design, gipt):
            return [j.seed for j in jobs
                    if j.spec.design == design
                    and j.cell.get("dram_cache.gipt_in_package") is gipt]
        assert seeds("tagless", True) == seeds("no-l3", True)
        assert seeds("tagless", True) != seeds("tagless", False)

    def test_preset_factor(self):
        spec = self.machine_study(factors={
            "design": ["tagless", "no-l3"],
            "preset": ["table3", "window-core"],
        })
        jobs = expand(spec)
        models = {job.spec.system_config().core.model for job in jobs}
        assert models == {"mlp", "window"}

    def test_fixed_dotted_path(self):
        spec = self.machine_study(
            factors={"design": ["tagless", "no-l3"]},
            fixed={"workload": "mcf", "accesses": 1500, "cache_mb": 256,
                   "scale": 512, "core.model": "window"},
        )
        for job in expand(spec):
            assert job.spec.system_config().core.model == "window"

    def test_bad_machine_levels_rejected_at_spec_load(self):
        with pytest.raises(ConfigurationError, match="expects a bool"):
            self.machine_study(factors={
                "design": ["tagless"],
                "dram_cache.gipt_in_package": [0, 1],
            }, baseline=None)
        with pytest.raises(ConfigurationError, match="unknown override"):
            self.machine_study(factors={
                "design": ["tagless"],
                "dram_cache.no_such": [1],
            }, baseline=None)
        with pytest.raises(ConfigurationError, match="frozen"):
            self.machine_study(factors={
                "design": ["tagless"],
                "dram_cache.page_bytes": [8192],
            }, baseline=None)
        with pytest.raises(ConfigurationError, match="preset"):
            self.machine_study(factors={
                "design": ["tagless"],
                "preset": ["skylake"],
            }, baseline=None)

    def test_override_study_runs_end_to_end(self):
        spec = CampaignSpec.from_dict({
            "name": "gipt-e2e",
            "repetitions": 2,
            "factors": {
                "design": ["tagless", "no-l3"],
                "dram_cache.gipt_in_package": [False, True],
            },
            "fixed": {"workload": "mcf", "accesses": 1200,
                      "cache_mb": 256, "scale": 512},
            "metrics": ["ipc"],
            "baseline": "no-l3",
            "bootstrap_resamples": 100,
        })
        run = run_campaign(spec, Harness())
        assert all(outcome.ok for outcome in run.outcomes)
        results = run.cell_results()
        assert set(results) == {0, 1, 2, 3}


class TestDroppedUnknownRows:
    def test_unknown_key_rows_counted_not_misfiled(self, tmp_path):
        spec = study()
        path = str(tmp_path / "jobs.jsonl")
        artifact = RunArtifact(path, name="campaign-unit")
        run = run_campaign(spec, Harness(observer=artifact))
        artifact.close()
        # Rewrite one ok row with a field from a "newer build": under
        # the old silent-drop from_dict it would still match a current
        # job and misfile that result; now it must be skipped + counted.
        import json as _json

        records = [_json.loads(line)
                   for line in open(path).read().splitlines()]
        first_job = next(r for r in records if r.get("record") == "job")
        first_job["spec"]["future_knob"] = 123
        with open(path, "w") as handle:
            for record in records:
                handle.write(_json.dumps(record) + "\n")
        _jobs, replayed, dropped = results_from_artifact(spec, path)
        assert dropped == 1
        # The doctored row's (cell, repetition) slot is absent, not
        # filled with the foreign result.
        total = sum(len(reps) for reps in replayed.values())
        assert total == len(run.outcomes) - 1
