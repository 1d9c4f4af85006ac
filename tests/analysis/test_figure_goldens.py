"""Byte-identity goldens for the paper figures and the validate scorecard.

Every :data:`~repro.analysis.experiments.FIGURES` entry's text tables
and ``--json`` payload at a short trace length, the ``repro validate``
scorecard, and the ordered job list each figure dispatches at its
default trace length are checked in under ``golden/``.  A refactor of
the figure machinery must leave all of them byte-identical: the same
jobs run (so every warm result-cache entry still hits) and the same
numbers come out.

After an intended change to the simulated numbers, regenerate with::

    PYTHONPATH=src python tests/analysis/test_figure_goldens.py
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import FIGURES
from repro.cli.main import main
from repro.harness.runner import Harness

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIGURE_NAMES = tuple(FIGURES)
#: Per-core trace length of the figure goldens (the CI parallel check
#: reruns fig9 at this length).
GOLDEN_ACCESSES = 600
#: Figures pinned at another length, where 600 accesses leave a factor
#: without effect: at 600, every alpha level evicts nothing and prints
#: one identical row (at 12,000 the levels evict 7/10/22/74 pages), and
#: footprint caching never misses, so its rows match the full fills
#: (the CI parallel check reruns ablation_footprint at 12,000).  The
#: victim policies print one row up to 12,000 accesses and part only
#: at the figure's own length, 50,000.
GOLDEN_LENGTHS = {"ablation_alpha": 12_000, "ablation_footprint": 12_000,
                  "ablation_victim_policy": 50_000}
#: ``(figure, factor)`` pairs whose levels print the same values at the
#: figure's golden length.  Fig 11's FIFO and LRU print the same IPC on
#: all eight mixes at 600, 12,000 and 40,000 accesses; at the figure's
#: own 140,000 only MIX3 and MIX5 part, a 13 s run.
SAME_ACROSS_LEVELS = {("fig11", "replacement")}
VALIDATE_ACCESSES = 2000


def _cli(argv):
    """Run the CLI in-process; return ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def figure_outputs(figure, workdir):
    """The figure's text stdout, its ``--json`` payload and the
    :class:`~repro.analysis.experiments.FigureResult` the text run
    rendered.

    The JSON run replays the text run's points from a shared result
    cache, so both come from one set of simulations.  The volatile
    ``harness`` health block is dropped from the payload.
    """
    accesses = GOLDEN_LENGTHS.get(figure, GOLDEN_ACCESSES)
    common = ["experiment", figure, "--accesses", str(accesses),
              "--cache-dir", os.path.join(workdir, "cache"),
              "--artifact", os.path.join(workdir, f"{figure}.jsonl")]
    results = []
    run_figure = experiments.run_figure

    def recording_run_figure(*args, **kwargs):
        results.append(run_figure(*args, **kwargs))
        return results[-1]

    with mock.patch.object(experiments, "run_figure", recording_run_figure):
        _, text = _cli(common)
    _, raw = _cli(common + ["--json"])
    data = json.loads(raw)
    data.pop("harness")
    return text, json.dumps(data, indent=2) + "\n", results[0]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """``figure -> figure_outputs(figure)``, each figure run once per
    module, so the byte-identity and knob tests share one simulation."""
    runs = {}

    def run(figure):
        if figure not in runs:
            runs[figure] = figure_outputs(
                figure, str(tmp_path_factory.mktemp(figure)))
        return runs[figure]

    return run


def validate_output():
    return _cli(["validate", "--accesses", str(VALIDATE_ACCESSES)])[1]


class _Captured(Exception):
    pass


def figure_jobs(figure, workdir):
    """``JobSpec.to_dict()`` of every job the figure dispatches, in order,
    at its default trace length (captured, never executed)."""
    captured = []

    def capture(self, specs):
        captured.extend(spec.to_dict() for spec in specs)
        raise _Captured

    with mock.patch.object(Harness, "run_strict", capture), \
            pytest.raises(_Captured):
        _cli(["experiment", figure, "--no-cache",
              "--artifact", os.path.join(workdir, f"{figure}.jobs.jsonl")])
    return "".join(json.dumps(spec, sort_keys=True) + "\n"
                   for spec in captured)


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return handle.read()


@pytest.mark.parametrize("figure", FIGURE_NAMES)
def test_figure_tables_and_json_byte_identical(figure, golden_run):
    text, payload, _ = golden_run(figure)
    assert text == _golden(f"{figure}.txt")
    assert payload == _golden(f"{figure}.json")


@pytest.mark.parametrize("figure", FIGURE_NAMES)
def test_every_factor_changes_a_rendered_value(figure, golden_run):
    """A knob the golden cannot see is a knob it cannot pin: for each
    factor with more than one level, rendering every cell with its
    first level's result must change the figure's text (or leave it
    unrenderable), except for the :data:`SAME_ACROSS_LEVELS` pairs,
    where it must not."""
    text, _, result = golden_run(figure)
    for position, (factor, levels) in enumerate(result.levels.items()):
        if len(levels) < 2:
            continue
        collapsed = dataclasses.replace(result, results={
            cell: result.results[
                cell[:position] + (levels[0],) + cell[position + 1:]]
            for cell in result.results})
        try:
            unchanged = "\n\n".join(collapsed.tables()) + "\n" == text
        except KeyError:
            # The renderer reads a stat only the level's own results
            # carry (table2's per-design counters): the level shows.
            unchanged = False
        assert unchanged == ((figure, factor) in SAME_ACROSS_LEVELS), factor


def test_every_alpha_level_renders_its_own_row():
    """The alpha golden runs the eviction paths: no two alpha levels
    print the same row."""
    rows = [line.split(None, 1)[1]
            for line in _golden("ablation_alpha.txt").splitlines()
            if line.split(None, 1)[0].isdigit()]
    assert len(rows) == 4
    assert len(set(rows)) == len(rows)


def test_footprint_rows_differ_where_footprints_miss():
    """The footprint golden runs the partial-size fill and stream paths:
    at 256 MB the footprint row misses and reads less off package than
    the full-fill row.  At 512 MB MIX5 fits in the cache and the two
    rows match (measured at 12,000 accesses)."""
    rows = {}
    for line in _golden("ablation_footprint.txt").splitlines():
        cells = line.split()
        if cells and cells[0].endswith("MB") and cells[0][:-2].isdigit():
            rows[(cells[0], cells[1])] = cells[2:]
    assert len(rows) == 4
    assert rows[("256MB", "full-fill")] != rows[("256MB", "footprint")]
    assert float(rows[("256MB", "footprint")][2]) > 0
    assert rows[("512MB", "full-fill")] == rows[("512MB", "footprint")]


def test_victim_policies_print_different_ipcs():
    """The victim-policy golden runs each policy's replacement choices:
    FIFO, CLOCK and LRU read three different IPCs on every mix
    (MIX3 1.597/2.030/2.096 at 50,000 accesses)."""
    lines = _golden("ablation_victim_policy.txt").splitlines()
    mixes = {}
    for line in lines:
        cells = line.split()
        if cells and cells[0].startswith("MIX"):
            mixes[cells[0]] = cells[1:]
    assert sorted(mixes) == ["MIX3", "MIX5"]
    for cells in mixes.values():
        assert len(cells) == 3
        assert len(set(cells)) == 3


@pytest.mark.parametrize("figure", FIGURE_NAMES)
def test_figure_job_manifest_unchanged(figure, tmp_path):
    assert figure_jobs(figure, str(tmp_path)) == \
        _golden(f"{figure}.jobs.jsonl")


def test_validate_scorecard_byte_identical():
    assert validate_output() == _golden("validate.txt")


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    outputs = {"validate.txt": validate_output()}
    with tempfile.TemporaryDirectory() as workdir:
        for figure in FIGURE_NAMES:
            text, payload, _ = figure_outputs(figure, workdir)
            outputs[f"{figure}.txt"] = text
            outputs[f"{figure}.json"] = payload
            outputs[f"{figure}.jobs.jsonl"] = figure_jobs(figure, workdir)
    for name, content in outputs.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as handle:
            handle.write(content)
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
