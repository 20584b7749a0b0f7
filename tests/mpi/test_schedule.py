"""Tests for compiled collective schedules and their cache."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.core.measurement import QUICK_CONFIG, measure_collective
from repro.faults import FaultPlan, RetryConfig
from repro.machines import SP2, T3D
from repro.mpi import DeliveryError, MpiWorld
from repro.mpi.collectives import get_algorithm
from repro.mpi.schedule import (
    POST,
    SCHEDULES,
    SEND,
    ScheduleCache,
    ScheduleScope,
    compile_schedule,
)
from tests.mpi.schedule_check import check


def _renamed(spec, name):
    return replace(spec, name=name)


def test_schedules_are_reused_across_the_runs_of_a_cell():
    spec = _renamed(SP2, "sp2-reuse")
    p = 8
    before = SCHEDULES.compiles
    measure_collective(spec, "broadcast", 1024, p, QUICK_CONFIG)
    # Every rank compiles the barrier and the broadcast once, though
    # the cell runs several worlds and several calls per world.
    assert QUICK_CONFIG.runs > 1
    assert SCHEDULES.compiles - before == 2 * p
    measure_collective(spec, "broadcast", 1024, p, QUICK_CONFIG)
    assert SCHEDULES.compiles - before == 2 * p


def test_equal_specs_share_schedules_and_different_ones_do_not():
    scope = ScheduleScope(SP2, 4, is_world=True)
    assert scope == ScheduleScope(replace(SP2), 4, is_world=True)
    assert hash(scope) == hash(ScheduleScope(replace(SP2), 4, True))
    cheaper = replace(SP2, software=replace(SP2.software,
                                            reduce_round_us=1.0))
    assert scope != ScheduleScope(cheaper, 4, is_world=True)
    assert scope != ScheduleScope(SP2, 4, is_world=False)
    assert scope != ScheduleScope(T3D, 4, is_world=True)
    # An identity node mapping is the same scope as none at all.
    assert scope == ScheduleScope(SP2, 4, True, world_ranks=[0, 1, 2, 3])
    assert scope != ScheduleScope(SP2, 4, True, world_ranks=[3, 2, 1, 0])


def test_node_mapping_is_resolved_at_compile_time():
    reversed_scope = ScheduleScope(SP2, 4, True, world_ranks=[3, 2, 1, 0])
    steps = compile_schedule(get_algorithm("binomial_broadcast"),
                             reversed_scope, 0, 64)
    # Local rank 0 (node 3) sends to local ranks 2 and 1: nodes 1, 2.
    assert [step[2] for step in steps if step[0] == SEND] == [1, 2]
    leaf = compile_schedule(get_algorithm("binomial_broadcast"),
                            reversed_scope, 3, 64)
    assert [step[2] for step in leaf if step[0] == POST] == [1]


def test_reordered_world_communicator_runs_on_its_nodes():
    world = MpiWorld("sp2", 4, seed=3)

    def program(ctx):
        reordered = yield from ctx.comm_split(0, key=-ctx.rank)
        yield from reordered.bcast(256, root=0)
        return reordered.world_rank

    assert world.run(program) == [0, 1, 2, 3]
    # The reordered root (node 3) sent two of the three messages.
    assert world.machine.nodes[3].nic.messages_sent == 2


def _phases(name, scope, nbytes):
    algorithm = get_algorithm(name)
    return {step[1] for rank in range(scope.size)
            for step in compile_schedule(algorithm, scope, rank, nbytes)
            if step[0] in (SEND, POST)}


@pytest.mark.parametrize("composite, first, second, second_bytes", [
    ("reduce_broadcast_allreduce", "binomial_reduce",
     "binomial_broadcast", 64),
    ("gather_broadcast_allgather", "linear_gather",
     "binomial_broadcast", 8 * 64),
])
def test_composite_shifts_its_second_stage_phases(composite, first, second,
                                                  second_bytes):
    """The stages share a sequence number, so the second stage's
    phases sit past the first's (each phase is one trace span)."""
    from repro.mpi.collectives.composite import _SECOND_STAGE
    scope = ScheduleScope(SP2, 8, is_world=True)
    shifted = {phase + _SECOND_STAGE
               for phase in _phases(second, scope, second_bytes)}
    assert _phases(composite, scope, 64) == \
        _phases(first, scope, 64) | shifted


def test_cache_is_bounded_by_steps():
    cache = ScheduleCache(max_steps=40)
    scope = ScheduleScope(SP2, 8, is_world=True)
    for nbytes in range(50):
        for rank in range(8):
            cache.get("binomial_broadcast", scope, rank, nbytes, 0)
            assert cache.steps <= cache.max_steps
    assert cache.compiles == 50 * 8
    assert 0 < len(cache) < 50 * 8
    # The newest schedules survive eviction.
    compiles = cache.compiles
    cache.get("binomial_broadcast", scope, 7, 49, 0)
    assert cache.compiles == compiles


def test_oversized_schedule_runs_without_being_stored():
    cache = ScheduleCache(max_steps=10)
    scope = ScheduleScope(SP2, 16, is_world=True)
    steps = cache.get("posted_alltoall", scope, 0, 64, 0)
    assert len(steps) == 3 * 15
    assert len(cache) == 0 and cache.steps == 0
    assert cache.get("posted_alltoall", scope, 0, 64, 0) == steps
    assert cache.compiles == 2


def test_cache_keeps_no_machine_spec_alive():
    spec = _renamed(SP2, "sp2-transient")
    spec_ref = weakref.ref(spec)
    world = MpiWorld(spec, 4, seed=1)
    before = SCHEDULES.compiles
    world.run_collective("allreduce", 512)
    assert SCHEDULES.compiles > before
    world_ref = weakref.ref(world)
    del world, spec
    gc.collect()
    assert world_ref() is None
    assert spec_ref() is None


def test_unknown_algorithm_is_a_key_error():
    cache = ScheduleCache(max_steps=100)
    with pytest.raises(KeyError, match="quantum_broadcast"):
        cache.get("quantum_broadcast", ScheduleScope(SP2, 4, True), 0, 8,
                  0)
    assert len(cache) == 0


# -- the static check catches broken schedules --------------------------

def _collides(s, nbytes, root=0):
    if s.rank == 0:
        for dst in (1, 1):
            s.send(0, dst, nbytes, "broadcast")
    elif s.rank == 1:
        s.recv(0, 0, "broadcast")
        s.recv(0, 0, "broadcast")


def _deadlocks(s, nbytes, root=0):
    partner = 1 - s.rank
    s.recv(0, partner, "broadcast")
    s.send(0, partner, nbytes, "broadcast")


def _unmatched(s, nbytes, root=0):
    if s.rank == 0:
        s.send(0, 1, nbytes, "broadcast")


def _never_waited(s, nbytes, root=0):
    if s.rank == 0:
        s.send(0, 1, nbytes, "broadcast")
    else:
        s.post(0, 0)


def _barrier_skipped(s, nbytes, root=0):
    if s.rank == 0:
        s.hardware_barrier()


@pytest.mark.parametrize("algorithm, message", [
    (_collides, "phase collisions"),
    (_deadlocks, "deadlock"),
    (_unmatched, "unmatched sends"),
    (_never_waited, "other than once"),
    (_barrier_skipped, "deadlock"),
])
def test_schedule_check_rejects_broken_algorithms(algorithm, message):
    with pytest.raises(AssertionError, match=message):
        check(algorithm, 2, 64)


# -- communicator ids are per machine -----------------------------------

def _traced_failure():
    plan = FaultPlan(name="hopeless", loss_probability=0.98,
                     retry=RetryConfig(timeout_us=500.0, max_retries=2))
    world = MpiWorld("sp2", 8, seed=3, trace=True, faults=plan)
    with pytest.raises(DeliveryError) as excinfo:
        world.run_collective("allreduce", 4096)
    spans = [(span.name, span.category, span.start, span.end, span.node,
              repr(sorted(span.detail.items())))
             for span in world.tracer.spans()]
    records = [(record.time, record.category, record.node,
                repr(sorted(record.detail.items())))
               for record in world.tracer.records()]
    return world.comm.comm_id, spans, records, str(excinfo.value)


def test_same_world_twice_gives_identical_trace_and_error_text():
    first = _traced_failure()
    # Communicators built in between must not shift the second
    # world's ids, tags, span details or error text.
    splitter = MpiWorld("sp2", 4, seed=0)

    def program(ctx):
        sub = yield from ctx.comm_split(ctx.rank % 2)
        return sub.comm.comm_id

    assert splitter.run(program) == [1, 2, 1, 2]
    second = _traced_failure()
    assert first[0] == second[0] == 0
    assert first[1] and first[2]
    assert first == second
