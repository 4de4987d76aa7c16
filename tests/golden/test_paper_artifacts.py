"""The paper's artifacts against their golden renderings.

A fresh run of :mod:`tests.golden.paper_artifacts` must reproduce
``paper_artifacts.json`` exactly: the Fig. 1 / Fig. 5 SQL, the Fig. 5
and Fig. 7 plan texts, the Fig. 9 decision log, ``repro explain`` of
every example flock, and the mined survivors and plan text of the
Fig. 2, 3, 4 and 10 flocks under each strategy.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.paper_artifacts import GOLDEN, build, render

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def actual():
    return json.loads(render(build()))  # through JSON, like the file


def test_golden_covers_the_same_artifacts(actual):
    assert sorted(actual) == sorted(EXPECTED)


@pytest.mark.parametrize("artifact", sorted(EXPECTED))
def test_artifact_matches_golden(actual, artifact):
    assert actual[artifact] == EXPECTED[artifact]
