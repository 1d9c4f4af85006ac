"""Campaign-scale experimentation: declarative studies with statistics.

A campaign is a study described once in a JSON/TOML file -- factors x
levels x seeded repetitions -- compiled to harness jobs, executed
through the fault-tolerant pool (caching, timeouts, retries, resume all
inherited), and reduced to effect-size/confidence-interval reports::

    from repro.campaign import CampaignSpec, run_campaign, reduce_campaign
    from repro.harness import Harness

    spec = CampaignSpec.from_file("examples/study_tagless_vs_sram.json")
    run = run_campaign(spec, Harness(jobs=4))
    report = reduce_campaign(spec, run.cell_results())

The ``repro campaign run|resume|report`` CLI wraps the same pipeline
with a per-study directory (spec copy, resumable JSONL artifact, and
Markdown/CSV/JSON reports).
"""

from repro.campaign.compile import (
    CampaignJob,
    CampaignRun,
    expand,
    results_from_artifact,
    run_campaign,
)
from repro.campaign.report import (
    REPORT_SCHEMA,
    StudyReport,
    reduce_campaign,
    render_markdown,
    validate_report,
    write_reports,
)
from repro.campaign.spec import (
    FACTOR_FIELDS,
    METRIC_KEYS,
    CampaignSpec,
    Cell,
)
from repro.campaign.status import (
    CampaignStatus,
    campaign_status,
    render_status,
)
from repro.campaign.stats import (
    PairedComparison,
    SampleSummary,
    bootstrap_interval,
    cliffs_delta,
    cohens_d,
    paired_speedup,
    summarize,
    t_interval,
    t_ppf,
)

__all__ = [
    "CampaignJob",
    "CampaignRun",
    "CampaignSpec",
    "CampaignStatus",
    "Cell",
    "FACTOR_FIELDS",
    "METRIC_KEYS",
    "PairedComparison",
    "REPORT_SCHEMA",
    "SampleSummary",
    "StudyReport",
    "bootstrap_interval",
    "campaign_status",
    "cliffs_delta",
    "cohens_d",
    "expand",
    "render_status",
    "paired_speedup",
    "reduce_campaign",
    "render_markdown",
    "results_from_artifact",
    "run_campaign",
    "summarize",
    "t_interval",
    "t_ppf",
    "validate_report",
    "write_reports",
]
