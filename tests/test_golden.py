"""The outputs recorded in golden.json (see golden.py) are reproduced."""

import json

import pytest

import golden


@pytest.fixture(scope="module")
def runs():
    return json.loads(golden.GOLDEN.read_text()), golden.compute()


def test_values_match_on_any_machine(runs):
    recorded, got = runs
    assert golden.value_problems(recorded, got) == []


def test_hashes_match_on_the_recording_machine(runs):
    recorded, got = runs
    here = golden.machine()
    if recorded["machine"] != here:
        pytest.skip(f"golden.json was recorded on {recorded['machine']}, this is {here}; "
                    "float32 GEMM bits differ between BLAS builds and cores")
    assert golden.hash_problems(recorded, got) == []
