"""Campaign status tests: artifact-only reconstruction must be exact.

``repro status <dir>`` sees nothing but ``spec.json`` and
``jobs.jsonl``; these tests prove that is enough -- the reconstructed
counters equal :meth:`CampaignRun.counters` bit for bit on clean runs,
on faulted runs, and across resume chains (where dedup-by-key with the
last row winning is what keeps a heal from double-counting).
"""

import json
import os

import pytest

from repro.campaign import (
    CampaignSpec,
    campaign_status,
    render_status,
    run_campaign,
)
from repro.harness import Harness, RunArtifact, job_health

STUDY = {
    "name": "status-unit",
    "repetitions": 2,
    "factors": {"design": ["tagless", "no-l3"],
                "workload": ["sphinx3"]},
    "fixed": {"accesses": 2_000},
    "metrics": ["ipc"],
}


def _run_into(out_dir, spec, jobs=1, **harness_kwargs):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "spec.json"), "w") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
    artifact = RunArtifact(os.path.join(out_dir, "jobs.jsonl"),
                           name=f"campaign-{spec.name}")
    harness = Harness(jobs=jobs, observer=artifact, **harness_kwargs)
    run = run_campaign(spec, harness)
    artifact.close()
    return run


class TestReconstruction:
    def test_clean_run_counters_match_exactly(self, tmp_path):
        spec = CampaignSpec.from_dict(STUDY)
        run = _run_into(str(tmp_path), spec, jobs=2)
        status = campaign_status(str(tmp_path))
        assert status.counters == run.counters()
        assert status.name == spec.name
        assert status.spec_hash == spec.spec_hash()
        assert status.expected == status.seen == 4
        assert status.cells == 2 and status.repetitions == 2
        assert status.missing == 0
        assert status.complete
        assert not status.failures
        assert status.job_wall_time_s > 0.0

    def test_faulted_run_is_reported_not_hidden(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "flaky:tagless/sphinx3:99")
        spec = CampaignSpec.from_dict(STUDY)
        run = _run_into(str(tmp_path), spec)
        status = campaign_status(str(tmp_path))
        assert status.counters == run.counters()
        assert status.counters["errors"] == 2  # both tagless reps
        assert len(status.failures) == 2
        assert all(f["status"] == "error" for f in status.failures)
        assert not status.complete

    def test_unstarted_campaign_has_zero_seen(self, tmp_path):
        spec = CampaignSpec.from_dict(STUDY)
        with open(tmp_path / "spec.json", "w") as handle:
            json.dump(spec.to_dict(), handle)
        status = campaign_status(str(tmp_path))
        assert status.seen == 0 and status.missing == 4
        assert status.counters["jobs"] == 0
        assert not status.complete

    def test_not_a_campaign_dir_raises(self, tmp_path):
        with pytest.raises(OSError):
            campaign_status(str(tmp_path))

    def test_resume_chain_dedupes_to_the_healed_row(self, tmp_path,
                                                    monkeypatch):
        # First run: tagless points fail.  Heal: clear the fault,
        # re-run into a second artifact, and chain the rows onto the
        # campaign's jobs.jsonl -- the failed points' keys reappear
        # with status ok, and last-row-wins dedup must prefer them.
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "flaky:tagless/sphinx3:99")
        spec = CampaignSpec.from_dict(STUDY)
        _run_into(str(tmp_path), spec)
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        heal_dir = tmp_path / "heal"
        _run_into(str(heal_dir), spec)
        with open(tmp_path / "jobs.jsonl", "a") as chained, \
                open(heal_dir / "jobs.jsonl") as healed:
            chained.write(healed.read())
        status = campaign_status(str(tmp_path))
        assert status.seen == 4
        assert status.counters["errors"] == 0
        assert not status.failures
        assert status.complete

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        spec = CampaignSpec.from_dict(STUDY)
        run = _run_into(str(tmp_path), spec, jobs=2)
        with open(tmp_path / "jobs.jsonl", "a") as handle:
            handle.write('{"record": "job", "key": "abc", "status": "o')
        status = campaign_status(str(tmp_path))
        assert status.counters == run.counters()


class TestCounterSemantics:
    def _row(self, status="ok", cache="off", retries=0):
        return (status, cache, retries)

    def test_error_rollup_matches_campaign_run(self):
        rows = [
            self._row(),
            self._row(status="timeout"),
            self._row(status="worker-crashed"),
            self._row(status="error", retries=2),
            self._row(cache="hit"),
            self._row(cache="resume"),
        ]
        counters = job_health(rows)
        assert counters == {
            "jobs": 6, "errors": 3, "timeouts": 1, "worker_crashes": 1,
            "retries": 2, "resumed": 1, "cache_hits": 1, "computed": 1,
        }

    def test_cached_rows_do_not_count_as_computed(self):
        counters = job_health([self._row(cache="hit")])
        assert counters["computed"] == 0
        assert counters["cache_hits"] == 1


class TestRendering:
    def test_render_mentions_the_load_bearing_numbers(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "flaky:tagless/sphinx3:99")
        spec = CampaignSpec.from_dict(STUDY)
        _run_into(str(tmp_path), spec)
        text = render_status(campaign_status(str(tmp_path)))
        assert "status-unit" in text
        assert "2 cells x 2 repetitions = 4 points" in text
        assert "2 errors" in text
        assert text.count("fail") >= 2

    def test_to_dict_is_json_safe(self, tmp_path):
        spec = CampaignSpec.from_dict(STUDY)
        _run_into(str(tmp_path), spec, jobs=2)
        payload = campaign_status(str(tmp_path)).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["complete"] is True
