"""Every artifact family writes the one canonical JSON form."""

import importlib
import json

import pytest

from repro.bench.perfsuite import work_section_text
from repro.canonical import dumps_canonical, write_canonical

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


LOADERS = [
    ("repro.runner.artifact", "write_artifact", "load_artifact",
     "ARTIFACT_SCHEMA", "a sweep artifact"),
    ("repro.tuner.table", "write_tuning", "load_tuning",
     "TUNING_SCHEMA", "a tuning artifact"),
    ("repro.obs.drift", "write_drift_artifact", "load_drift_artifact",
     "DRIFT_SCHEMA", "a drift artifact"),
    ("repro.obs.capture", "write_replay_frames", "load_replay_frames",
     "REPLAY_SCHEMA", "a replay document"),
    ("repro.bench.perfsuite", "write_perf_artifact", "load_perf_artifact",
     "PERF_SCHEMA", "an engine-perf artifact"),
]


@pytest.mark.parametrize("module, writer, loader, schema, noun", LOADERS)
def test_loader_round_trips_its_writer(tmp_path, module, writer, loader,
                                       schema, noun):
    family = importlib.import_module(module)
    payload = dict(PAYLOAD, schema=getattr(family, schema))
    path = getattr(family, writer)(payload, tmp_path / "artifact.json")
    assert path.read_text("utf-8") == dumps_canonical(payload)
    assert getattr(family, loader)(path) == payload
    assert getattr(family, loader)(str(path)) == payload


@pytest.mark.parametrize("module, writer, loader, schema, noun", LOADERS)
def test_loader_rejects_wrong_schema(tmp_path, module, writer, loader,
                                     schema, noun):
    family = importlib.import_module(module)
    path = write_canonical({"schema": "other/1"}, tmp_path / "x.json")
    with pytest.raises(ValueError) as raised:
        getattr(family, loader)(path)
    assert str(raised.value) == (
        f"{path} is not {noun} (schema 'other/1', expected "
        f"{getattr(family, schema)!r})")


def test_each_schema_tag_is_spelled_once():
    from repro.obs.ledger import ARTIFACT_FAMILIES

    tags = [getattr(importlib.import_module(module), schema)
            for module, _, _, schema, _ in LOADERS]
    assert sorted(tags) == sorted(
        tag for tag in ARTIFACT_FAMILIES.values() if tag is not None)
    assert len(set(tags)) == len(tags)
