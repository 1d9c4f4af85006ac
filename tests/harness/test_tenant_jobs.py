"""Tenant-scenario jobs: kind inference, content-hashed cache keys,
and end-to-end execution through the harness."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.machine import MachineSpec
from repro.harness.jobs import JobSpec, execute_job

#: Small TLBs keep total TLB reach far below the cache so the resize
#: floor stays permissive at unit-test cache sizes.
SMALL_TLB = MachineSpec(overrides={"tlb.l1_entries": 8,
                                   "tlb.l2_entries": 16})


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "mt.json"
    path.write_text(json.dumps({
        "name": "mt-unit",
        "tenants": 6,
        "profiles": ["mcf", "sphinx3"],
        "tenant_accesses": 400,
        "quantum": 100,
        "capacity_scale": 512,
        "seed": 11,
        "resize": [[800, 0.75], [2000, 1.0]],
        "max_remap_per_resize": 4,
    }))
    return str(path)


def tenant_spec(scenario_file, **overrides):
    kwargs = dict(
        design="tagless-resizable",
        workload="mt-unit",
        scenario=scenario_file,
        cache_megabytes=512,
        num_cores=2,
        capacity_scale=512,
        machine=SMALL_TLB,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


class TestSpecWiring:
    def test_scenario_implies_tenants_kind(self, scenario_file):
        assert tenant_spec(scenario_file).workload_kind == "tenants"

    def test_tenants_kind_requires_scenario(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            JobSpec(design="tagless", workload="mt",
                    workload_kind="tenants")

    def test_bindings_refuse_tenant_jobs(self, scenario_file):
        with pytest.raises(ConfigurationError):
            tenant_spec(scenario_file).bindings()

    def test_shared_traces_stand_down(self, scenario_file):
        from repro.harness.shm import TraceArena

        arena = TraceArena()
        try:
            assert arena.share_for(tenant_spec(scenario_file)) is None
        finally:
            arena.close()


class TestCacheKeys:
    def test_key_hashes_scenario_content_not_path(self, scenario_file,
                                                  tmp_path):
        copy = tmp_path / "renamed.json"
        copy.write_text(open(scenario_file).read())
        assert (tenant_spec(scenario_file).cache_key()
                == tenant_spec(str(copy)).cache_key())

    def test_key_tracks_scenario_edits(self, scenario_file, tmp_path):
        before = tenant_spec(scenario_file).cache_key()
        data = json.loads(open(scenario_file).read())
        data["quantum"] = 150
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        assert tenant_spec(str(edited)).cache_key() != before

    def test_scenario_jobs_never_collide_with_plain_jobs(self,
                                                         scenario_file):
        plain = JobSpec(design="tagless", workload="sphinx3",
                        accesses=4_000)
        assert plain.cache_key() != tenant_spec(scenario_file).cache_key()
        # And a scenarioless key is reproducible (the popped field does
        # not leak path-dependent state into the payload).
        assert plain.cache_key() == JobSpec(
            design="tagless", workload="sphinx3", accesses=4_000
        ).cache_key()

    def test_key_ignores_fields_the_replay_never_reads(self, scenario_file,
                                                      monkeypatch):
        """The scenario file sets a tenant replay's length, warmup and
        threads, so specs differing only in ``accesses``,
        ``warmup_fraction``, ``parsec_threads`` or ``nc_threshold``
        share a key; a plain spec keeps the key those fields give it."""
        import repro.harness.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "_FINGERPRINT", "pinned")
        unread = dict(accesses=7, warmup_fraction=0.9, parsec_threads=2,
                      nc_threshold=3)
        key = tenant_spec(scenario_file).cache_key()
        for name, value in unread.items():
            assert tenant_spec(scenario_file,
                               **{name: value}).cache_key() == key
        assert tenant_spec(scenario_file, **unread).cache_key() == key
        # Keys of plain specs, taken before tenant keys left these out.
        assert JobSpec(design="tagless", workload="sphinx3", accesses=4_000,
                       warmup_fraction=0.5, nc_threshold=3).cache_key() == (
            "a0bad902d7f3e8079b532e68c404ba66121fe54a6274f7e353ae456926eeaded")
        assert JobSpec(design="tagless", workload="streamcluster",
                       parsec_threads=2).cache_key() == (
            "6f494c25838acafcf7f0c305a461712a2667fa5831867bf45ebeb1a3847d02ce")


class TestExecution:
    def test_execute_reports_tenants_and_resizes(self, scenario_file):
        result = execute_job(tenant_spec(scenario_file, validate=True))
        assert result.tenants is not None
        assert len(result.tenants) == 6
        for tenant in result.tenants:
            assert tenant["instructions"] > 0
            assert tenant["p99_demand_ns"] >= tenant["p50_demand_ns"]
        assert result.resize_events is not None
        assert all(e["remapped"] <= 4 for e in result.resize_events)
        assert result.stats["context_switches"] > 0

    def test_execution_is_deterministic(self, scenario_file):
        a = execute_job(tenant_spec(scenario_file))
        b = execute_job(tenant_spec(scenario_file))
        assert a.stats == b.stats
        assert a.tenants == b.tenants

    def test_fixed_design_ignores_resize_schedule(self, scenario_file):
        result = execute_job(tenant_spec(scenario_file, design="tagless"))
        assert result.resize_events is None
        assert result.tenants is not None
