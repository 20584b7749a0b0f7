"""Every artifact family writes the one canonical JSON form."""

import importlib
import json

import pytest

from repro.bench.perfsuite import work_section_text
from repro.canonical import dumps_canonical

PAYLOAD = {"b": [1, 2.5, None], "a": {"z": "t3d", "y": True}, "é": 0}

WRITERS = [
    ("repro.runner.artifact", "dumps_artifact"),
    ("repro.tuner.table", "dumps_tuning"),
    ("repro.obs.drift", "dumps_drift_artifact"),
    ("repro.obs.ledger", "dumps_ledger"),
    ("repro.obs.capture", "dumps_replay_frames"),
    ("repro.bench.perfsuite", "dumps_perf_artifact"),
]


def test_dumps_canonical_form():
    text = dumps_canonical(PAYLOAD)
    assert text == json.dumps(PAYLOAD, indent=2, sort_keys=True) + "\n"
    assert text.startswith('{\n  "a": {\n    "y": true,')
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert json.loads(text) == PAYLOAD
    # Key order in the input never reaches the bytes.
    assert dumps_canonical(dict(reversed(list(PAYLOAD.items())))) == text


@pytest.mark.parametrize("module, name", WRITERS)
def test_public_writer_is_canonical(module, name):
    writer = getattr(importlib.import_module(module), name)
    assert writer(PAYLOAD) == dumps_canonical(PAYLOAD)


def test_work_section_text_is_canonical():
    artifact = {"schema": "repro-perf/1", "sim_version": 2,
                "suite": "smoke", "throughput": {"wall_s": 0.5},
                "work": {"micro/x": {"events_fired": 3}}}
    identity = {key: artifact[key]
                for key in ("schema", "sim_version", "suite", "work")}
    assert work_section_text(artifact) == dumps_canonical(identity)
