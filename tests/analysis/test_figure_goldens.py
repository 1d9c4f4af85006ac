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
import io
import json
import os
import sys
import tempfile
from unittest import mock

import pytest

from repro.analysis.experiments import FIGURES
from repro.cli.main import main
from repro.harness.runner import Harness

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIGURE_NAMES = tuple(FIGURES)
#: Per-core trace length of the figure goldens (the CI parallel check
#: reruns fig9 and ablation_footprint at this length).
GOLDEN_ACCESSES = 600
VALIDATE_ACCESSES = 2000


def _cli(argv):
    """Run the CLI in-process; return ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def figure_outputs(figure, workdir):
    """The figure's text stdout and its ``--json`` payload.

    The JSON run replays the text run's points from a shared result
    cache, so both come from one set of simulations.  The volatile
    ``harness`` health block is dropped from the payload.
    """
    common = ["experiment", figure, "--accesses", str(GOLDEN_ACCESSES),
              "--cache-dir", os.path.join(workdir, "cache"),
              "--artifact", os.path.join(workdir, f"{figure}.jsonl")]
    _, text = _cli(common)
    _, raw = _cli(common + ["--json"])
    data = json.loads(raw)
    data.pop("harness")
    return text, json.dumps(data, indent=2) + "\n"


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
def test_figure_tables_and_json_byte_identical(figure, tmp_path):
    text, payload = figure_outputs(figure, str(tmp_path))
    assert text == _golden(f"{figure}.txt")
    assert payload == _golden(f"{figure}.json")


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
            text, payload = figure_outputs(figure, workdir)
            outputs[f"{figure}.txt"] = text
            outputs[f"{figure}.json"] = payload
            outputs[f"{figure}.jobs.jsonl"] = figure_jobs(figure, workdir)
    for name, content in outputs.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as handle:
            handle.write(content)
        print(f"wrote {os.path.join(GOLDEN_DIR, name)}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
