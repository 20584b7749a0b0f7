"""Semantic tests for the collective algorithms.

These verify mechanism (message counts, tree shapes, synchronization
semantics), not absolute timing.
"""

import math

import pytest

from repro.mpi import MpiWorld
from repro.mpi.collectives import algorithm_names, get_algorithm


def run_collective(machine, nodes, op, nbytes=64, seed=3, **kwargs):
    w = MpiWorld(machine, nodes, seed=seed, **kwargs)

    def program(ctx):
        yield from ctx.collective(op, nbytes)
        return ctx.env.now

    finish_times = w.run(program)
    return w, finish_times


ALL_OPS = ("barrier", "broadcast", "gather", "scatter", "reduce", "scan",
           "alltoall", "allreduce", "allgather", "reduce_scatter")


@pytest.mark.parametrize("machine", ["sp2", "t3d", "paragon"])
@pytest.mark.parametrize("op", ALL_OPS)
def test_every_op_completes_on_every_machine(machine, op):
    w, finish = run_collective(machine, 8, op)
    assert all(t > 0 for t in finish)


@pytest.mark.parametrize("op", ALL_OPS)
def test_non_power_of_two_sizes(op):
    for nodes in (3, 5, 7, 12):
        w, finish = run_collective("sp2", nodes, op)
        assert all(t > 0 for t in finish)


def test_two_node_degenerate_case():
    for op in ALL_OPS:
        w, finish = run_collective("t3d", 2, op)
        assert all(t > 0 for t in finish)


# ---------------------------------------------------------------------------
# Message-count invariants (f(m, p) from Section 3)
# ---------------------------------------------------------------------------

def delivered_messages(machine, nodes, op, nbytes=32):
    w, _ = run_collective(machine, nodes, op, nbytes)
    return w.comm.transport.messages_delivered


@pytest.mark.parametrize("nodes", [2, 4, 8, 13, 16])
def test_broadcast_moves_p_minus_1_messages(nodes):
    assert delivered_messages("sp2", nodes, "broadcast") == nodes - 1


@pytest.mark.parametrize("nodes", [2, 4, 8, 13])
def test_gather_scatter_reduce_move_p_minus_1_messages(nodes):
    for op in ("gather", "scatter", "reduce"):
        assert delivered_messages("sp2", nodes, op) == nodes - 1


@pytest.mark.parametrize("nodes", [2, 4, 8, 9])
def test_alltoall_moves_p_times_p_minus_1_messages(nodes):
    assert delivered_messages("sp2", nodes, "alltoall") == \
        nodes * (nodes - 1)
    assert delivered_messages("paragon", nodes, "alltoall") == \
        nodes * (nodes - 1)


@pytest.mark.parametrize("nodes", [2, 4, 8])
def test_software_barrier_message_count(nodes):
    # Binomial gather up + binomial broadcast down: 2 (p-1) messages.
    assert delivered_messages("sp2", nodes, "barrier") == 2 * (nodes - 1)


def test_hardware_barrier_moves_no_messages():
    assert delivered_messages("t3d", 8, "barrier") == 0


@pytest.mark.parametrize("nodes", [2, 4, 8, 16])
def test_scan_message_count_recursive_doubling(nodes):
    # Round with mask 2**r carries (p - 2**r) messages.
    expected = sum(nodes - mask
                   for mask in (1 << r for r in range(20))
                   if mask < nodes)
    assert delivered_messages("sp2", nodes, "scan") == expected


# ---------------------------------------------------------------------------
# Algorithm structure
# ---------------------------------------------------------------------------

def test_registry_contains_all_algorithms():
    names = algorithm_names()
    for expected in ("binomial_broadcast", "binomial_reduce",
                     "binary_tree_reduce", "recursive_doubling_scan",
                     "offloaded_scan", "linear_gather", "linear_scatter",
                     "posted_alltoall", "pairwise_exchange_alltoall",
                     "sequential_alltoall", "tree_barrier",
                     "hardware_barrier"):
        assert expected in names


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError):
        get_algorithm("quantum_broadcast")


def test_duplicate_registration_rejected():
    from repro.mpi.collectives.base import collective_algorithm
    with pytest.raises(ValueError):
        @collective_algorithm("binomial_broadcast")
        def duplicate(ctx, seq, nbytes, root=0):  # pragma: no cover
            yield


def test_broadcast_root_finishes_before_leaves():
    w = MpiWorld("sp2", 16, seed=3)

    def program(ctx):
        yield from ctx.bcast(1024, root=0)
        return ctx.env.now

    finish = w.run(program)
    assert finish[0] < max(finish[1:])


def test_broadcast_nonzero_root():
    w = MpiWorld("sp2", 8, seed=3)

    def program(ctx):
        yield from ctx.bcast(128, root=5)
        return ctx.env.now

    finish = w.run(program)
    assert finish[5] == min(finish)


def test_gather_root_is_the_bottleneck():
    w = MpiWorld("paragon", 16, seed=3)

    def program(ctx):
        yield from ctx.gather(1024, root=0)
        return ctx.env.now

    finish = w.run(program)
    assert finish[0] == max(finish)


def test_scatter_leaves_finish_in_send_order_tail():
    w = MpiWorld("sp2", 8, seed=3)

    def program(ctx):
        yield from ctx.scatter(64, root=0)
        return ctx.env.now

    finish = w.run(program)
    # The root issues sends in rank order, so the last rank cannot
    # finish before the first.
    assert finish[7] >= finish[1] - 1e-9


def _with_algorithm(machine, op, algorithm):
    from dataclasses import replace
    from repro.machines import get_machine_spec
    spec = get_machine_spec(machine)
    return replace(spec, name=f"{spec.name}-{algorithm}",
                   algorithms={**dict(spec.algorithms), op: algorithm})


@pytest.mark.parametrize("machine, op, algorithm, message", [
    ("sp2", "scan", "offloaded_scan", "no offloaded combining path"),
    ("sp2", "barrier", "hardware_barrier", "no hardware barrier network"),
    ("paragon", "barrier", "hardware_barrier",
     "no hardware barrier network"),
])
def test_missing_hardware_fails_at_the_collective_call(machine, op,
                                                       algorithm, message):
    from repro.mpi import MpiError
    w = MpiWorld(_with_algorithm(machine, op, algorithm), 4, seed=3)
    # The schedule compiles before the call's entry cost: the call
    # itself raises, before any simulated time passes.
    call = w.comm.contexts[0].collective(op, 8)
    with pytest.raises(MpiError, match=message):
        next(call)
    assert w.now == 0.0

    def program(ctx):
        yield from ctx.collective(op, 8)

    with pytest.raises(MpiError, match=message):
        MpiWorld(_with_algorithm(machine, op, algorithm), 4,
                 seed=3).run(program)


def test_sub_communicator_barrier_compiles_to_the_tree():
    """The T3D's barrier wire is machine-wide: a sub-communicator's
    barrier compiles to exactly the software tree's steps (the runtime
    fallback is covered in test_comm_split)."""
    from repro.machines import T3D
    from repro.mpi.schedule import (
        HW_BARRIER,
        ScheduleScope,
        compile_schedule,
    )
    hardware = get_algorithm("hardware_barrier")
    tree = get_algorithm("tree_barrier")
    sub = ScheduleScope(T3D, 4, is_world=False, world_ranks=[1, 3, 5, 7])
    world = ScheduleScope(T3D, 8, is_world=True)
    for rank in range(4):
        assert compile_schedule(hardware, sub, rank, 0) == \
            compile_schedule(tree, sub, rank, 0)
    assert compile_schedule(hardware, world, 0, 0) == ((HW_BARRIER,),)


def test_collective_sequence_fence_orders_operations():
    # Two back-to-back broadcasts must not overlap: the global finish
    # time of the first bounds the start of the second's messages.
    w = MpiWorld("sp2", 8, seed=3)
    marks = {}

    def program(ctx):
        yield from ctx.bcast(256)
        if ctx.rank == 0:
            marks["first_done_root"] = ctx.env.now
        yield from ctx.bcast(256)
        return ctx.env.now

    finish = w.run(program)
    # Root waited for the fence before its second call finished.
    assert finish[0] > marks["first_done_root"]


def test_unknown_collective_rejected():
    from repro.mpi import MpiError
    w = MpiWorld("sp2", 4, seed=3)

    def program(ctx):
        yield from ctx.collective("alltoallv", 8)

    with pytest.raises(MpiError):
        w.run(program)


def test_invalid_root_rejected():
    w = MpiWorld("sp2", 4, seed=3)

    def program(ctx):
        yield from ctx.bcast(8, root=4)

    with pytest.raises(Exception):
        w.run(program)


# ---------------------------------------------------------------------------
# Composite extensions
# ---------------------------------------------------------------------------

def test_allreduce_message_count():
    # reduce (p-1) + broadcast (p-1).
    assert delivered_messages("sp2", 8, "allreduce") == 2 * 7


def test_allgather_message_count():
    assert delivered_messages("sp2", 8, "allgather") == 2 * 7


def test_reduce_scatter_message_count():
    # Composite: reduce (p-1) + scatter (p-1).
    assert delivered_messages("sp2", 8, "reduce_scatter") == 2 * 7


def test_ring_reduce_scatter_variant():
    from dataclasses import replace
    from repro.machines import T3D
    spec = replace(T3D, name="t3d-ring",
                   algorithms={**dict(T3D.algorithms),
                               "reduce_scatter": "ring_reduce_scatter"})
    w, finish = run_collective(spec, 8, "reduce_scatter", 4096)
    assert w.comm.transport.messages_delivered == 8 * 7
    assert all(t > 0 for t in finish)


def test_ring_reduce_scatter_beats_composite_for_long_blocks():
    from dataclasses import replace
    from repro.machines import SP2
    ring_spec = replace(SP2, name="sp2-ring",
                        algorithms={**dict(SP2.algorithms),
                                    "reduce_scatter":
                                        "ring_reduce_scatter"})
    _, composite = run_collective(SP2, 16, "reduce_scatter", 32768)
    _, ring = run_collective(ring_spec, 16, "reduce_scatter", 32768)
    assert max(ring) < max(composite)


def test_allgather_broadcast_carries_full_buffer():
    # allgather of m bytes must take longer than gather + broadcast of
    # m bytes because the downstream broadcast carries p*m.
    def timed(op, nbytes):
        w, finish = run_collective("t3d", 8, op, nbytes)
        return max(finish)

    assert timed("allgather", 4096) > timed("gather", 4096)
