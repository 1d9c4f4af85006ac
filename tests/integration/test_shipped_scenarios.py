"""Every shipped multi-tenant example fits the machine it documents.

A tenant schedule whose private VPN windows span more pages than the
machine's off-package DRAM is refused by ``Simulator.run_tenants``; this
catches that for each campaign spec with a ``scenario`` and for each
``repro.cli run <design> <file>.json`` command in the docs, before
anyone runs them.
"""

import glob
import json
import os
import re
import shlex

import pytest

from repro.campaign.compile import expand
from repro.campaign.spec import CampaignSpec
from repro.cli.main import _machine_from_args, _point_spec, build_parser
from repro.workloads.tenants import TenantScenarioSpec, build_schedule

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _scenario_studies():
    """Campaign specs (files with ``factors``) whose jobs name a scenario."""
    paths = []
    for folder in ("examples/studies", "benchmarks/studies"):
        for path in sorted(glob.glob(os.path.join(_REPO, folder, "*.json"))):
            with open(path) as handle:
                if "factors" not in json.load(handle):
                    continue
            if any(job.spec.scenario
                   for job in expand(CampaignSpec.from_file(path))):
                paths.append(os.path.relpath(path, _REPO))
    return paths


#: A documented ``repro.cli run <design> <file>.json ...`` command.
_TENANT_RUN = re.compile(r"repro\.cli (run\s+\S+\s+\S+\.json\b.*)")


def _documented_tenant_commands():
    commands = []
    for doc in ("README.md", "EXPERIMENTS.md"):
        with open(os.path.join(_REPO, doc)) as handle:
            text = handle.read().replace("\\\n", " ")
        for line in text.splitlines():
            match = _TENANT_RUN.search(line)
            if match:
                commands.append((doc, " ".join(match.group(1).split())))
    return commands


def _assert_fits(spec):
    schedule = build_schedule(
        TenantScenarioSpec.from_file(spec.scenario),
        num_cores=spec.num_cores, base_seed=spec.effective_seed,
    )
    assert (schedule.total_span_pages
            <= spec.system_config().off_package_pages), spec.label


@pytest.mark.parametrize("study", _scenario_studies())
def test_campaign_scenarios_fit_the_machine(study, monkeypatch):
    monkeypatch.chdir(_REPO)
    for job in expand(CampaignSpec.from_file(study)):
        _assert_fits(job.spec)


@pytest.mark.parametrize("doc,command", _documented_tenant_commands())
def test_documented_tenant_commands_fit_the_machine(doc, command,
                                                    monkeypatch):
    monkeypatch.chdir(_REPO)
    args = build_parser().parse_args(shlex.split(command))
    spec = _point_spec(args, args.design, args.workload, args.accesses,
                       machine=_machine_from_args(args))
    assert spec.workload_kind == "tenants"
    _assert_fits(spec)


def test_the_scans_find_the_shipped_examples():
    assert "examples/studies/multitenant.json" in _scenario_studies()
    assert len(_documented_tenant_commands()) >= 2
