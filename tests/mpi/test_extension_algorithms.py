"""Tests for the improved (further-work) collective algorithms."""

from dataclasses import replace

import pytest

from repro.mpi import MpiWorld
from repro.machines import SP2, T3D


def _with_algorithm(spec, op, algorithm):
    return replace(spec, name=f"{spec.name}-ext",
                   algorithms={**dict(spec.algorithms), op: algorithm})


def run_op(spec, nodes, op, nbytes, seed=9):
    world = MpiWorld(spec, nodes, seed=seed)

    def program(ctx):
        yield from ctx.collective(op, nbytes)
        return ctx.env.now

    finish = world.run(program)
    return world, max(finish)


@pytest.mark.parametrize("nodes", [2, 4, 7, 8, 16])
def test_vandegeijn_broadcast_completes(nodes):
    spec = _with_algorithm(SP2, "broadcast",
                           "scatter_allgather_broadcast")
    world, _ = run_op(spec, nodes, "broadcast", 4096)
    # Scatter: p-1 messages; ring: p (p-1) messages.
    expected = (nodes - 1) + nodes * (nodes - 1)
    assert world.comm.transport.messages_delivered == expected


def test_vandegeijn_wins_long_messages_on_sp2():
    binomial = run_op(SP2, 16, "broadcast", 262144)[1]
    vdg_spec = _with_algorithm(SP2, "broadcast",
                               "scatter_allgather_broadcast")
    vandegeijn = run_op(vdg_spec, 16, "broadcast", 262144)[1]
    assert vandegeijn < binomial


def test_binomial_wins_short_messages_on_sp2():
    binomial = run_op(SP2, 16, "broadcast", 4)[1]
    vdg_spec = _with_algorithm(SP2, "broadcast",
                               "scatter_allgather_broadcast")
    vandegeijn = run_op(vdg_spec, 16, "broadcast", 4)[1]
    assert binomial < vandegeijn


@pytest.mark.parametrize("nodes", [2, 3, 8, 12])
def test_ring_allgather_completes(nodes):
    spec = _with_algorithm(T3D, "allgather", "ring_allgather")
    world, _ = run_op(spec, nodes, "allgather", 1024)
    assert world.comm.transport.messages_delivered == \
        nodes * (nodes - 1)


def test_ring_allgather_beats_gather_broadcast_for_long_blocks():
    composed = run_op(T3D, 16, "allgather", 65536)[1]
    ring_spec = _with_algorithm(T3D, "allgather", "ring_allgather")
    ring = run_op(ring_spec, 16, "allgather", 65536)[1]
    assert ring < composed


@pytest.mark.parametrize("nodes", [2, 4, 8, 11, 16])
def test_binomial_gather_completes(nodes):
    spec = _with_algorithm(SP2, "gather", "binomial_tree_gather")
    world, _ = run_op(spec, nodes, "gather", 512)
    # Binomial gather: one message per non-root vertex of the tree.
    assert world.comm.transport.messages_delivered == nodes - 1


def test_binomial_gather_lower_latency_at_scale():
    linear = run_op(SP2, 64, "gather", 4)[1]
    tree_spec = _with_algorithm(SP2, "gather", "binomial_tree_gather")
    tree = run_op(tree_spec, 64, "gather", 4)[1]
    assert tree < linear


def test_binomial_gather_aggregates_subtree_bytes():
    # The root's children forward whole subtree segments: total bytes
    # through the transport exceed (p-1) * m.
    spec = _with_algorithm(SP2, "gather", "binomial_tree_gather")
    world = MpiWorld(spec, 8, seed=9)
    sizes = []

    def program(ctx):
        yield from ctx.collective("gather", 100)
        return None

    world.run(program)
    nic_bytes = sum(node.nic.messages_sent for node in
                    world.machine.nodes)
    assert nic_bytes == 7  # 7 messages, but carrying 700 bytes total


# -- non-divisible sizes and awkward communicators (regression) ---------

def _check(name, p, nbytes, root=0):
    from tests.mpi.schedule_check import check
    from repro.mpi.collectives import get_algorithm
    return check(get_algorithm(name), p, nbytes, root)


@pytest.mark.parametrize("p", [3, 5, 7, 12])
@pytest.mark.parametrize("root", [0, 1, -1])
@pytest.mark.parametrize("nbytes", [11, 101, 4097])
def test_vandegeijn_moves_exactly_nbytes_when_indivisible(p, root,
                                                          nbytes):
    """Regression: the uniform ceil(nbytes/p) chunk over-sent whenever
    p did not divide nbytes; blocks must sum to exactly nbytes."""
    assert nbytes % p != 0
    root = p - 1 if root == -1 else root
    tallies = _check("scatter_allgather_broadcast", p, nbytes, root)
    for tally in tallies:
        # Scatter leg: each non-root receives its own block from the
        # root; ring leg: everyone receives the other p - 1 blocks.
        # Together each rank takes delivery of exactly nbytes — the
        # root already holds its own block, so one block less.
        if tally.rank == root:
            assert tally.received_bytes == nbytes - \
                _own_block(nbytes, p, tally.rank, root)
        else:
            assert tally.received_bytes == nbytes


def _own_block(nbytes, p, rank, root):
    from repro.mpi.collectives.extensions import block_counts
    from repro.mpi.collectives import virtual_rank
    return block_counts(nbytes, p)[virtual_rank(rank, root, p)]


@pytest.mark.parametrize("nbytes", [4096, 4100])
def test_vandegeijn_total_bytes_match_divisible_case(nbytes):
    """The indivisible case must move the same per-rank volume as the
    divisible one (plus the 4-byte remainder), not p extra bytes per
    ring step."""
    p = 8
    tallies = _check("scatter_allgather_broadcast", p, nbytes)
    total = sum(tally.sent_bytes for tally in tallies)
    # Scatter moves (p-1)/p of the message, the ring moves (p-1)
    # copies of it: total = (p-1)/p * nbytes + (p-1) * nbytes.
    from repro.mpi.collectives.extensions import block_counts
    counts = block_counts(nbytes, p)
    expected = (nbytes - counts[0]) + (p - 1) * nbytes
    assert total == expected


@pytest.mark.parametrize("p", [3, 5, 7, 12])
@pytest.mark.parametrize("root", [0, 1, -1])
def test_extension_algorithms_awkward_sizes_and_roots(p, root):
    """Satellite audit: every extension algorithm completes with exact
    byte accounting at non-power-of-two p and nonzero roots."""
    root = p - 1 if root == -1 else root
    nbytes = 1000

    tallies = _check("ring_allgather", p, nbytes, root)
    assert all(tally.received_bytes == (p - 1) * nbytes
               for tally in tallies)

    tallies = _check("ring_reduce_scatter", p, nbytes, root)
    assert all(tally.combined_bytes == (p - 1) * nbytes
               for tally in tallies)

    tallies = _check("binomial_tree_gather", p, nbytes, root)
    assert sum(tally.messages_sent for tally in tallies) == p - 1
    # Subtree aggregation: the root takes delivery of every other
    # rank's block exactly once, however the tree folds.
    assert tallies[root].received_bytes == (p - 1) * nbytes
    assert tallies[root].sent_bytes == 0


@pytest.mark.parametrize("p", [3, 5, 7, 12])
@pytest.mark.parametrize("root", [0, 1, -1])
def test_vandegeijn_nonzero_root_completes_on_simulator(p, root):
    root = p - 1 if root == -1 else root
    spec = _with_algorithm(SP2, "broadcast",
                           "scatter_allgather_broadcast")
    world = MpiWorld(spec, p, seed=9)
    elapsed = world.run_collective("broadcast", 4097, root=root)
    assert elapsed > 0
    expected = (p - 1) + p * (p - 1)
    assert world.comm.transport.messages_delivered == expected
