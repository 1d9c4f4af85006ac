"""Fixtures for the command-line tests."""

import json

import pytest


@pytest.fixture
def write_study(tmp_path):
    """Write a campaign study file; returns a function giving its path.

    Keyword arguments are the study's factors (name -> levels);
    ``fixed`` holds its fixed settings.  One repetition and the ``ipc``
    metric unless told otherwise, so a study is a plain grid of points.
    """
    def write(name="unit", *, fixed=None, repetitions=1, **factors):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "name": name,
            "repetitions": repetitions,
            "factors": factors,
            "fixed": fixed or {},
            "metrics": ["ipc"],
        }))
        return str(path)
    return write
