"""The in-memory FILTER step against its golden output.

A fresh run of every case in :mod:`tests.golden.step_survivors` must
reproduce ``step_survivors.json`` exactly: survivor rows in the same
column-array order, the same aggregate values, answer sizes, stage
actuals and dynamic decision logs.
"""

from __future__ import annotations

import json

import pytest

from tests.golden.step_survivors import GOLDEN, build, render

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def actual():
    return json.loads(render(build()))  # through JSON, like the file


def test_golden_covers_the_same_cases(actual):
    assert sorted(actual) == sorted(EXPECTED)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_step_matches_golden(actual, case):
    assert actual[case] == EXPECTED[case]
