"""Correctness sweep over the algorithm zoo and the schedule check.

The static schedule check (:mod:`tests.mpi.schedule_check`) compiles
every rank's schedule and verifies the step lists — every send matched
by exactly one posted receive, no deadlock, every byte accounted — so
tests can assert *exact* byte movement at awkward communicator sizes
(non-power-of-two p, nonzero roots) without a full simulation.  The
real-simulator tests then lock in end-to-end completion on every
machine.
"""

import pytest

from repro.machines import PARAGON, SP2, T3D, get_machine_spec
from repro.mpi import MpiWorld
from repro.mpi.collectives import algorithm_names, get_algorithm
from repro.mpi.collectives.zoo import (
    make_segmented_broadcast,
    make_segmented_reduce,
)
from tests.mpi.schedule_check import check, check_algorithm

AWKWARD_SIZES = [3, 5, 7, 12]
ROOTS = [0, 1, -1]  # -1 means p - 1

ZOO = {
    "recursive_doubling_allgather": "allgather",
    "recursive_doubling_allreduce": "allreduce",
    "recursive_halving_reduce_scatter": "reduce_scatter",
    "rabenseifner_allreduce": "allreduce",
    "segmented_binomial_broadcast": "broadcast",
    "segmented_binomial_reduce": "reduce",
}


# -- the static schedule check over every registered algorithm ----------

@pytest.mark.parametrize("name", algorithm_names())
def test_every_algorithm_passes_the_schedule_check(name):
    # p in {2, 3, 5, 7, 8, 12, 16}, root in {0, 1, p - 1}, on every
    # machine that can compile the algorithm.
    assert check_algorithm(name) > 0


def _root(p, root):
    return p - 1 if root == -1 else root


# -- exact byte accounting at awkward sizes -----------------------------

@pytest.mark.parametrize("p", AWKWARD_SIZES + [2, 4, 8, 16])
@pytest.mark.parametrize("nbytes", [0, 1, 10, 4096])
def test_recursive_doubling_allgather_byte_exact(p, nbytes):
    tallies = check(get_algorithm("recursive_doubling_allgather"),
                    p, nbytes)
    core = 1 << (p.bit_length() - 1)
    for tally in tallies:
        if tally.rank < core:
            # A core rank obtains every other rank's block exactly
            # once (a folded twin's via the fold exchange).
            assert tally.received_bytes == (p - 1) * nbytes
        else:
            # A folded rank contributes its block and gets the full
            # gathered result back.
            assert tally.sent_bytes == nbytes
            assert tally.received_bytes == p * nbytes


@pytest.mark.parametrize("p", AWKWARD_SIZES + [2, 4, 8, 16])
@pytest.mark.parametrize(
    "name", ["recursive_doubling_allreduce", "rabenseifner_allreduce"])
def test_allreduce_zoo_conserves_and_combines(p, name):
    nbytes = 4096
    tallies = check(get_algorithm(name), p, nbytes)
    total_sent = sum(tally.sent_bytes for tally in tallies)
    total_received = sum(tally.received_bytes for tally in tallies)
    assert total_sent == total_received
    core = 1 << (p.bit_length() - 1)
    extra = p - core
    for tally in tallies:
        if tally.rank >= core:
            # Folded ranks hand their vector over and receive the
            # reduced result — exactly nbytes each way.
            assert tally.sent_bytes == nbytes
            assert tally.received_bytes == nbytes
            assert tally.combined_bytes == 0
    combined = sum(tally.combined_bytes for tally in tallies)
    if name == "rabenseifner_allreduce":
        # Reduce-scatter + allgather is combine-minimal: p vectors
        # reduce into one, p - 1 vector combines in total (the
        # per-round group sums telescope to core - 1, plus the folds).
        assert combined == (p - 1) * nbytes
    else:
        # Recursive doubling redundantly combines the full vector on
        # every core rank every round — that is its price for halving
        # the latency of short messages.
        rounds = core.bit_length() - 1
        assert combined == (core * rounds + extra) * nbytes


@pytest.mark.parametrize("p", AWKWARD_SIZES + [2, 4, 8, 16])
def test_recursive_halving_reduce_scatter_byte_exact(p):
    nbytes = 64  # per result block; each rank contributes p * nbytes
    tallies = check(get_algorithm("recursive_halving_reduce_scatter"),
                    p, nbytes)
    core = 1 << (p.bit_length() - 1)
    assert sum(tally.combined_bytes for tally in tallies) == \
        (p - 1) * p * nbytes
    for tally in tallies:
        if tally.rank >= core:
            assert tally.sent_bytes == p * nbytes
            assert tally.received_bytes == nbytes


@pytest.mark.parametrize("p", AWKWARD_SIZES)
@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("nbytes", [0, 10, 4096, 10000])
def test_segmented_broadcast_byte_exact(p, root, nbytes):
    root = _root(p, root)
    tallies = check(get_algorithm("segmented_binomial_broadcast"),
                    p, nbytes, root)
    for tally in tallies:
        # Every non-root receives the message exactly once, segmented
        # or not — the pipelined tree must not duplicate or drop bytes.
        expected = 0 if tally.rank == root else nbytes
        assert tally.received_bytes == expected


@pytest.mark.parametrize("p", AWKWARD_SIZES)
@pytest.mark.parametrize("root", ROOTS)
def test_segmented_reduce_byte_exact(p, root):
    nbytes = 10000  # three segments at the default segment size
    root = _root(p, root)
    tallies = check(get_algorithm("segmented_binomial_reduce"),
                    p, nbytes, root)
    for tally in tallies:
        expected = 0 if tally.rank == root else nbytes
        assert tally.sent_bytes == expected
    assert sum(tally.combined_bytes for tally in tallies) == \
        (p - 1) * nbytes


@pytest.mark.parametrize("segment", [1, 100, 4096, 1 << 20])
def test_segment_size_is_tunable(segment):
    p, nbytes = 5, 10000
    broadcast = make_segmented_broadcast(segment)
    tallies = check(broadcast, p, nbytes)
    assert all(tally.received_bytes == nbytes
               for tally in tallies if tally.rank != 0)
    import math
    expected_segments = max(1, math.ceil(nbytes / segment))
    leaf = max(tally.rank for tally in tallies)
    assert tallies[leaf].messages_received == expected_segments

    reduce_ = make_segmented_reduce(segment)
    tallies = check(reduce_, p, nbytes)
    # The root combines one operand per direct child; the interior
    # ranks handle the rest — (p - 1) contributions overall.
    assert sum(tally.combined_bytes for tally in tallies) == \
        (p - 1) * nbytes


def test_segment_factory_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_segmented_broadcast(0)
    with pytest.raises(ValueError):
        make_segmented_reduce(-1)


# -- real-simulator completion on every machine -------------------------

def _spec_with(spec, op, algorithm):
    from dataclasses import replace
    return replace(spec, name=f"{spec.name}-zoo",
                   algorithms={**dict(spec.algorithms), op: algorithm})


@pytest.mark.parametrize("spec", [SP2, T3D, PARAGON],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_runs_on_every_machine(spec, name):
    op = ZOO[name]
    world = MpiWorld(_spec_with(spec, op, name), 12, seed=5)
    elapsed = world.run_collective(op, 4096)
    assert elapsed > 0


@pytest.mark.parametrize("p", AWKWARD_SIZES)
@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("name", ["segmented_binomial_broadcast",
                                  "segmented_binomial_reduce"])
def test_segmented_trees_complete_at_nonzero_roots(p, root, name):
    op = ZOO[name]
    world = MpiWorld(_spec_with(SP2, op, name), p, seed=5)
    elapsed = world.run_collective(op, 10000, root=_root(p, root))
    assert elapsed > 0


def test_rabenseifner_beats_composed_allreduce_long_messages():
    tuned = _spec_with(SP2, "allreduce", "rabenseifner_allreduce")
    baseline = MpiWorld(SP2, 16, seed=5).run_collective("allreduce",
                                                        262144)
    improved = MpiWorld(tuned, 16, seed=5).run_collective("allreduce",
                                                          262144)
    assert improved < baseline


def test_recursive_doubling_beats_composed_allreduce_short_messages():
    tuned = _spec_with(SP2, "allreduce", "recursive_doubling_allreduce")
    baseline = MpiWorld(SP2, 16, seed=5).run_collective("allreduce", 16)
    improved = MpiWorld(tuned, 16, seed=5).run_collective("allreduce",
                                                          16)
    assert improved < baseline


def test_decision_table_threads_through_world():
    """MpiWorld(decision_table=...) flips the dispatched algorithm."""

    class OneCellTable:
        def lookup(self, machine, op, nbytes, p):
            if op == "allgather":
                return "ring_allgather"
            return None

    spec = get_machine_spec("t3d")
    world = MpiWorld("t3d", 8, seed=3,
                     decision_table=OneCellTable())
    world.run_collective("allgather", 1024)
    # Ring allgather: every rank sends p - 1 blocks.
    assert all(node.nic.messages_sent == 7
               for node in world.machine.nodes)
    # The spec object handed to MpiWorld was not mutated.
    assert getattr(spec, "_decision_table", None) is None
