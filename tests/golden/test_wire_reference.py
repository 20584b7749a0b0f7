"""The one wire against the frozen output of the process-per-hop wire.

``wire_reference.json`` was written by the wire this package carried
before every message went through NIC bookings and the fabric's route
chain (see :mod:`tests.golden.wire_reference`).  Tier-1 checks a subset
of its cases — the differential harness's fault-free points, one case
per fault preset, traced and metered runs — and that observing a run
never changes what it simulates.  CI checks the whole matrix with
``python -m tests.golden.wire_reference --check``.
"""

import pytest

from repro.faults import fault_preset
from repro.mpi import MpiWorld
from repro.obs.perf import WorkMeter

from .wire_reference import (
    OBSERVER_ARTIFACTS,
    OBSERVERS,
    case_id,
    load_reference,
    matches,
    matrix,
    tier1_cases,
)


@pytest.fixture(scope="module")
def reference():
    return load_reference()


def test_reference_covers_the_matrix(reference):
    cases = matrix()
    plain = [case for case in cases
             if case[5:] == ("none", "plain")]
    assert len(plain) == 696
    assert list(reference) == [case_id(case) for case in cases]
    assert OBSERVER_ARTIFACTS <= set(cases)


@pytest.mark.parametrize("case", tier1_cases(), ids=case_id)
def test_case_matches_reference(case, reference):
    assert matches(case, reference), case_id(case)


def test_observer_artifact_matches_its_twins(reference):
    for case in OBSERVER_ARTIFACTS:
        assert matches(case, reference), case_id(case)


def _work(case, observer):
    machine, op, nbytes, p, seed, faults, _ = case
    plan = None if faults == "none" else fault_preset(faults)
    world = MpiWorld(machine, p, seed=seed, faults=plan,
                     **OBSERVERS[observer])
    meter = WorkMeter()
    world.env.work = meter
    elapsed = world.run_collective(op, nbytes)
    return elapsed, meter.snapshot()


@pytest.mark.parametrize(
    "case", [case for case in tier1_cases() if case[-1] == "plain"],
    ids=case_id)
def test_observers_run_the_same_code(case):
    """Tracing and metrics take the path the plain run takes: the same
    time, the same short-circuited transfers, every work counter equal
    — the event queue's included."""
    plain = _work(case, "plain")
    for observer in ("trace", "metrics", "both"):
        assert _work(case, observer) == plain, observer
