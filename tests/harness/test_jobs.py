"""JobSpec tests: inference, validation, hashing, execution."""

import dataclasses
import json
import os
import warnings

import pytest

from repro.common import rng
from repro.common.errors import ConfigurationError
from repro.harness.jobs import JobSpec, execute_job, infer_workload_kind


def test_workload_kind_inference():
    assert infer_workload_kind("sphinx3") == "spec"
    assert infer_workload_kind("MIX3") == "mix"
    assert infer_workload_kind("streamcluster") == "parsec"
    assert JobSpec(design="tagless", workload="MIX1").workload_kind == "mix"


def test_unknown_workload_rejected():
    with pytest.raises(ConfigurationError):
        JobSpec(design="tagless", workload="not-a-program")
    with pytest.raises(ConfigurationError):
        JobSpec(design="tagless", workload="sphinx3", workload_kind="magic")


def test_invalid_knobs_rejected():
    with pytest.raises(ConfigurationError):
        JobSpec(design="tagless", workload="sphinx3", accesses=-1)
    with pytest.raises(ConfigurationError):
        JobSpec(design="tagless", workload="sphinx3", warmup_fraction=1.0)
    # Zero-length runs are legal degenerate cases, not config errors.
    assert JobSpec(design="tagless", workload="sphinx3", accesses=0)


def test_spec_is_hashable_and_round_trips():
    spec = JobSpec(design="sram", workload="MIX2", accesses=5_000,
                   cache_megabytes=512, num_cores=4)
    assert hash(spec) == hash(JobSpec.from_dict(spec.to_dict()))
    assert JobSpec.from_dict(spec.to_dict()) == spec
    assert spec.label == "sram/MIX2@512MB"


def test_cache_key_stable_across_instances():
    make = lambda: JobSpec(design="tagless", workload="sphinx3",
                           accesses=4_000, warmup_fraction=0.25)
    assert make().cache_key() == make().cache_key()


@pytest.mark.parametrize("change", [
    {"design": "sram"},
    {"workload": "mcf"},
    {"accesses": 4_001},
    {"cache_megabytes": 512},
    {"replacement": "lru"},
    {"capacity_scale": 128},
    {"warmup_fraction": 0.5},
    {"nc_threshold": 32},
    {"base_seed": 1234},
])
def test_cache_key_changes_with_any_knob(change):
    base = JobSpec(design="tagless", workload="sphinx3", accesses=4_000)
    changed = dataclasses.replace(base, **change)
    assert base.cache_key() != changed.cache_key()


def test_cache_key_tracks_library_base_seed(monkeypatch):
    spec = JobSpec(design="tagless", workload="sphinx3", accesses=4_000)
    before = spec.cache_key()
    monkeypatch.setattr(rng, "BASE_SEED", rng.BASE_SEED + 1)
    assert spec.cache_key() != before


def test_explicit_base_seed_pins_the_key(monkeypatch):
    spec = JobSpec(design="tagless", workload="sphinx3", accesses=4_000,
                   base_seed=7)
    before = spec.cache_key()
    monkeypatch.setattr(rng, "BASE_SEED", rng.BASE_SEED + 1)
    assert spec.cache_key() == before


def test_bindings_follow_workload_kind():
    single = JobSpec(design="tagless", workload="sphinx3", accesses=2_000)
    assert len(single.bindings()) == 1
    mix = JobSpec(design="tagless", workload="MIX1", accesses=2_000,
                  num_cores=4)
    mix_bindings = mix.bindings()
    assert len(mix_bindings) == 4
    assert {b.process_id for b in mix_bindings} == {0, 1, 2, 3}
    parsec = JobSpec(design="tagless", workload="streamcluster",
                     accesses=2_000, num_cores=4)
    parsec_bindings = parsec.bindings()
    assert len(parsec_bindings) == 4
    # Threads share one address space.
    assert {b.process_id for b in parsec_bindings} == {0}


def test_execute_job_produces_metrics():
    spec = JobSpec(design="tagless", workload="sphinx3", accesses=3_000)
    result = execute_job(spec)
    assert result.design_name == "tagless"
    assert result.ipc_sum > 0
    assert result.total_energy_j > 0


def test_execute_job_nc_threshold_changes_outcome():
    base = JobSpec(design="tagless", workload="GemsFDTD", accesses=8_000)
    flagged = dataclasses.replace(base, nc_threshold=32)
    plain = execute_job(base)
    with_nc = execute_job(flagged)
    assert plain.ipc_sum != with_nc.ipc_sum


def test_execute_job_restores_overridden_seed():
    spec = JobSpec(design="tagless", workload="sphinx3", accesses=2_000,
                   base_seed=99)
    before = rng.BASE_SEED
    default = execute_job(
        JobSpec(design="tagless", workload="sphinx3", accesses=2_000)
    )
    reseeded = execute_job(spec)
    assert rng.BASE_SEED == before
    # A different base seed re-rolls the trace, so metrics move.
    assert reseeded.ipc_sum != default.ipc_sum


def test_cache_key_tracks_code_fingerprint(monkeypatch):
    from repro.harness import jobs as jobs_mod

    spec = JobSpec(design="tagless", workload="sphinx3", accesses=4_000)
    before = spec.cache_key()
    monkeypatch.setattr(jobs_mod, "_FINGERPRINT",
                        jobs_mod.code_fingerprint() + ".bumped")
    assert spec.cache_key() != before


def test_zero_access_job_executes_cleanly():
    import math

    result = execute_job(
        JobSpec(design="tagless", workload="sphinx3", accesses=0)
    )
    assert result.stats["accesses"] == 0.0
    assert result.ipc_sum == 0.0
    assert not math.isnan(result.edp)
    assert result.mean_l3_latency_cycles == 0.0


class TestMachineField:
    """JobSpec.machine: threading, hashing back-compat, strict parsing."""

    def test_default_cache_key_matches_pre_machine_schema(self):
        """A default-machine spec must hash exactly what the pre-machine
        schema hashed: the payload with no 'machine' key at all."""
        import hashlib
        import json

        from repro.harness.jobs import SCHEMA_VERSION, code_fingerprint

        spec = JobSpec(design="tagless", workload="sphinx3",
                       accesses=4_000)
        payload = dataclasses.asdict(spec)
        payload.pop("timeout_s", None)
        payload.pop("machine", None)  # the pre-machine payload shape
        payload.pop("scenario", None)  # ...and pre-tenant-scenario
        payload["base_seed"] = spec.effective_seed
        payload["schema"] = SCHEMA_VERSION
        payload["code"] = code_fingerprint()
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        legacy_key = hashlib.sha256(text.encode()).hexdigest()
        assert spec.cache_key() == legacy_key

    def test_machine_override_changes_cache_key(self):
        from repro.common.machine import MachineSpec

        base = JobSpec(design="tagless", workload="sphinx3", accesses=4_000)
        flipped = dataclasses.replace(
            base,
            machine=MachineSpec(
                overrides={"dram_cache.gipt_in_package": True}
            ),
        )
        preset = dataclasses.replace(
            base, machine=MachineSpec(preset="window-core")
        )
        assert base.cache_key() != flipped.cache_key()
        assert base.cache_key() != preset.cache_key()
        assert flipped.cache_key() != preset.cache_key()

    def test_machine_coercions(self):
        from repro.common.machine import DEFAULT_MACHINE, MachineSpec

        assert JobSpec(design="tagless", workload="sphinx3",
                       machine=None).machine is DEFAULT_MACHINE
        by_name = JobSpec(design="tagless", workload="sphinx3",
                          machine="window-core")
        assert by_name.machine == MachineSpec(preset="window-core")
        by_dict = JobSpec(
            design="tagless", workload="sphinx3",
            machine={"overrides": {"core.model": "window"}},
        )
        assert dict(by_dict.machine.overrides) == {"core.model": "window"}
        with pytest.raises(ConfigurationError):
            JobSpec(design="tagless", workload="sphinx3", machine=42)

    def test_machine_reaches_system_config(self):
        spec = JobSpec(design="tagless", workload="sphinx3",
                       machine={"overrides":
                                {"dram_cache.gipt_in_package": True}})
        assert spec.system_config().dram_cache.gipt_in_package is True
        default = JobSpec(design="tagless", workload="sphinx3")
        assert default.system_config().dram_cache.gipt_in_package is False

    def test_round_trip_preserves_machine(self):
        spec = JobSpec(design="tagless", workload="sphinx3",
                       machine={"preset": "window-core",
                                "overrides": {"core.rob_entries": 96}})
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert (JobSpec.from_dict(spec.to_dict()).cache_key()
                == spec.cache_key())

    def test_label_tags_non_default_machine(self):
        plain = JobSpec(design="tagless", workload="sphinx3")
        custom = JobSpec(design="tagless", workload="sphinx3",
                         machine="gipt-in-package")
        assert "#" not in plain.label
        assert custom.label.startswith(plain.label)
        assert "#" in custom.label

    def test_from_dict_strict_refuses_unknown_keys(self):
        spec = JobSpec(design="tagless", workload="sphinx3")
        data = spec.to_dict()
        data["from_the_future"] = 7
        with pytest.raises(ConfigurationError, match="unknown field"):
            JobSpec.from_dict(data, strict=True)

    def test_from_dict_default_warns_on_unknown_keys(self):
        spec = JobSpec(design="tagless", workload="sphinx3")
        data = spec.to_dict()
        data["from_the_future"] = 7
        with pytest.warns(RuntimeWarning, match="from_the_future"):
            rebuilt = JobSpec.from_dict(data)
        assert rebuilt == spec

    @pytest.mark.parametrize("engine", [None, "batched"])
    def test_retired_engine_key_is_ignored(self, engine):
        """Rows written while ``engine`` was a field still parse, in
        strict mode too, to the same job and without a warning."""
        spec = JobSpec(design="tagless", workload="sphinx3")
        data = {**spec.to_dict(), "engine": engine}
        assert JobSpec.unknown_keys(data) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert JobSpec.from_dict(data, strict=True) == spec
            assert JobSpec.from_dict(data) == spec

    def test_unknown_keys_helper(self):
        spec = JobSpec(design="tagless", workload="sphinx3")
        assert JobSpec.unknown_keys(spec.to_dict()) == []
        assert JobSpec.unknown_keys({**spec.to_dict(), "b": 1, "a": 2}) \
            == ["a", "b"]


class TestCoreCount:
    """``num_cores`` left unset resolves from the workload kind: one
    core for a SPEC program, four for every other kind.  The resolved
    value is what the figure runners, ``sweep`` and campaigns used to
    pass by hand, so every existing cache key is unchanged."""

    REPO = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

    @staticmethod
    def explicit_cores(spec):
        """The core count earlier builds wrote out for this spec."""
        return 1 if spec.workload_kind == "spec" else 4

    def assert_key_unchanged(self, spec):
        explicit = JobSpec.from_dict(
            {**spec.to_dict(), "num_cores": self.explicit_cores(spec)}
        )
        assert spec.num_cores == explicit.num_cores
        assert spec.to_dict() == explicit.to_dict()
        assert spec.cache_key() == explicit.cache_key()

    @pytest.mark.parametrize("workload, cores", [
        ("sphinx3", 1), ("MIX1", 4), ("streamcluster", 4),
    ])
    def test_resolved_from_kind(self, workload, cores):
        spec = JobSpec(design="tagless", workload=workload)
        assert spec.num_cores == cores
        assert spec.to_dict()["num_cores"] == cores
        assert spec.system_config().num_cores == cores

    def test_tenants_default_to_four_cores(self, tmp_path):
        scenario = tmp_path / "mt.json"
        scenario.write_text(json.dumps({
            "name": "mt", "tenants": 2, "profiles": ["mcf"],
            "tenant_accesses": 100, "quantum": 50,
        }))
        spec = JobSpec(design="tagless", workload="mt",
                       scenario=str(scenario))
        assert spec.workload_kind == "tenants"
        assert spec.num_cores == 4

    @pytest.mark.parametrize("workload", ["sphinx3", "MIX1",
                                          "streamcluster"])
    def test_explicit_count_wins(self, workload):
        spec = JobSpec(design="tagless", workload=workload, num_cores=2)
        assert spec.num_cores == 2
        assert spec.cache_key() != JobSpec(
            design="tagless", workload=workload).cache_key()

    @pytest.mark.parametrize("study", ["smoke.json",
                                       "multitenant_smoke.json"])
    def test_campaign_keys_unchanged(self, study, monkeypatch):
        from repro.campaign import CampaignSpec, expand

        # Study files name their scenario relative to the repository.
        monkeypatch.chdir(self.REPO)
        campaign = CampaignSpec.from_file(
            os.path.join("benchmarks", "studies", study)
        )
        jobs = expand(campaign)
        assert jobs
        for job in jobs:
            self.assert_key_unchanged(job.spec)

    @pytest.mark.parametrize("runner, kwargs", [
        ("run_single_programmed", {}),
        ("run_multi_programmed", {}),
        ("run_cache_size_sweep", {}),
        ("run_replacement_study", {}),
        ("run_parsec", {}),
        ("run_noncacheable_study", {}),
    ])
    def test_figure_runner_keys_unchanged(self, runner, kwargs):
        from repro.analysis import experiments

        class Captured(Exception):
            pass

        class CapturingHarness:
            """Records the runner's specs instead of executing them."""

            def run_strict(self, specs):
                self.specs = list(specs)
                raise Captured

        harness = CapturingHarness()
        with pytest.raises(Captured):
            getattr(experiments, runner)(accesses=1_000, harness=harness,
                                         **kwargs)
        assert harness.specs
        for spec in harness.specs:
            self.assert_key_unchanged(spec)
