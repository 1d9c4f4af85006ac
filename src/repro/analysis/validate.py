"""Machine-checkable validation of the paper's headline claims.

``python -m repro.cli validate`` runs a reduced version of the full
evaluation and grades each reproduced claim PASS/FAIL, printing the
evidence.  This is the repository's self-check: the benchmarks regenerate
the numbers, this module asserts the *shapes* the paper stakes out:

1. design ordering: No-L3 < BI < SRAM-tag < tagless <= ideal (IPC);
2. BI alone is a small improvement;
3. tagless beats SRAM-tag on EDP (no tag energy);
4. tagless has lower average L3 latency than SRAM-tag on every program;
5. multi-programmed: both caches win big; tagless >= SRAM-tag on EDP;
6. PARSEC: streamcluster gains most, swaptions barely moves;
7. NC pages help GemsFDTD;
8. GIPT size: 2.56 MB per 1 GB, ~0.25 % overhead;
9. Table 6 tag latencies are exact.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.analysis.experiments import run_figure
from repro.analysis.report import format_table
from repro.common.addressing import BYTES_PER_MB
from repro.common.config import tag_array_parameters
from repro.core.gipt import gipt_storage_megabytes


@dataclasses.dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    evidence: str


class ValidationReport:
    """Outcome of one validation run."""

    def __init__(self, results: List[ClaimResult]):
        self.results = results

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> str:
        rows = [
            [r.claim_id, "PASS" if r.passed else "FAIL", r.description,
             r.evidence]
            for r in self.results
        ]
        return format_table(
            "Validation: the paper's claims vs this build",
            ["claim", "verdict", "description", "evidence"],
            rows,
        )


def run_validation(
    single_accesses: int = 40_000,
    mix_accesses: int = 30_000,
) -> ValidationReport:
    """Run the reduced evaluation and grade every claim."""
    claims: List[ClaimResult] = []

    def record(claim_id: str, description: str, passed: bool,
               evidence: str) -> None:
        claims.append(ClaimResult(claim_id, description, passed, evidence))

    # --- single-programmed subset (claims 1-4) -----------------------
    single = run_figure(
        "fig7", accesses=single_accesses,
        workload=("sphinx3", "milc", "GemsFDTD", "libquantum"),
    )
    designs = single.levels["design"]
    gm = {d: single.geomean("ipc_sum", d) for d in designs}
    record(
        "ordering",
        "No-L3 < BI < SRAM < tagless <= ideal (geomean IPC)",
        gm["no-l3"] < gm["bi"] < gm["sram"] < gm["tagless"]
        <= gm["ideal"] * 1.001,
        " / ".join(f"{d}={gm[d]:.3f}" for d in designs),
    )
    record(
        "bi-small",
        "OS-oblivious BI is only a small improvement (paper: +4.0%)",
        1.0 < gm["bi"] < 1.12,
        f"bi={gm['bi']:.3f}",
    )
    edp = {d: single.geomean("edp", d) for d in designs}
    record(
        "edp",
        "tagless EDP < SRAM-tag EDP < No-L3 (paper: -26.5% vs SRAM)",
        edp["tagless"] < edp["sram"] < 1.0,
        f"sram={edp['sram']:.3f} tagless={edp['tagless']:.3f}",
    )
    programs = single.levels["workload"]
    latency = {
        (p, d): single.value("mean_l3_latency_cycles", workload=p, design=d)
        for p in programs for d in ("sram", "tagless")
    }
    record(
        "l3-latency",
        "tagless avg L3 latency below SRAM-tag for every program "
        "(paper: -9.9% geomean)",
        all(latency[p, "tagless"] < latency[p, "sram"] for p in programs),
        ", ".join(
            f"{p}:{latency[p, 'tagless'] / latency[p, 'sram'] - 1:+.1%}"
            for p in programs
        ),
    )

    # --- multi-programmed subset (claim 5) ----------------------------
    mixes = run_figure("fig9", accesses=mix_accesses,
                       workload=("MIX1", "MIX5"))
    mix_gm = {d: mixes.geomean("ipc_sum", d) for d in mixes.levels["design"]}
    mix_edp = {d: mixes.geomean("edp", d) for d in mixes.levels["design"]}
    record(
        "mixes",
        "multi-programmed: caches win big; tagless EDP <= SRAM "
        "(paper: +34.9/+38.4% IPC)",
        mix_gm["sram"] > 1.1 and mix_gm["tagless"] > 1.1
        and mix_edp["tagless"] <= mix_edp["sram"] * 1.02,
        f"sram={mix_gm['sram']:.3f} tagless={mix_gm['tagless']:.3f} "
        f"edp {mix_edp['sram']:.3f}/{mix_edp['tagless']:.3f}",
    )

    # --- PARSEC subset (claim 6) --------------------------------------
    parsec = run_figure("fig12", accesses=mix_accesses,
                        workload=("swaptions", "streamcluster"))
    sc = parsec.normalized("ipc_sum", workload="streamcluster")["tagless"]
    sw = parsec.normalized("ipc_sum", workload="swaptions")["tagless"]
    record(
        "parsec",
        "streamcluster gains a lot, swaptions barely moves "
        "(paper: +24.0% vs ~0%)",
        sc > 1.10 and sw < 1.10 and sc > sw,
        f"streamcluster={sc:.3f} swaptions={sw:.3f}",
    )

    # --- NC case study (claim 7) ---------------------------------------
    nc = run_figure("fig13", accesses=single_accesses * 2).to_dict()
    record(
        "nc-pages",
        "flagging low-reuse GemsFDTD pages NC helps (paper: +7.1%)",
        nc["gain_percent"] > 0.0,
        f"gain={nc['gain_percent']:+.1f}% ({nc['nc_pages']} NC pages)",
    )

    # --- structural claims (8-9) ---------------------------------------
    gipt_mb = gipt_storage_megabytes(1.0, num_cores=4)
    record(
        "gipt-size",
        "GIPT: 2.56 MB per 1 GB cache, ~0.25% overhead (Section 3.2)",
        abs(gipt_mb - 2.5625) < 0.01,
        f"{gipt_mb:.4f} MB",
    )
    table6 = [
        tag_array_parameters(mb * BYTES_PER_MB)[1]
        for mb in (128, 256, 512, 1024)
    ]
    record(
        "table6",
        "SRAM tag latencies match Table 6 exactly",
        table6 == [5, 6, 9, 11],
        f"cycles={table6}",
    )

    return ValidationReport(claims)
