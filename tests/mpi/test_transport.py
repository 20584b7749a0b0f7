"""Tests for the point-to-point transport: matching, costs, pipelines."""

import pytest

from repro.faults import FaultPlan, RetryConfig
from repro.mpi import DeliveryError, MpiWorld, RankError
from repro.obs.perf import WorkMeter

from ..golden.wire_reference import case_id, load_reference, matches


def world(machine="t3d", nodes=4, **kwargs):
    return MpiWorld(machine, nodes, seed=7, **kwargs)


def test_send_recv_delivers():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 256, tag=5)
            return None
        if ctx.rank == 1:
            envelope = yield from ctx.recv(0, tag=5)
            return (envelope.src, envelope.nbytes)
        return None

    results = w.run(program)
    assert results[1] == (0, 256)


def test_tag_matching_selects_correct_message():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 64, tag="a")
            yield from ctx.send(1, 128, tag="b")
            return None
        if ctx.rank == 1:
            second = yield from ctx.recv(0, tag="b")
            first = yield from ctx.recv(0, tag="a")
            return (first.nbytes, second.nbytes)
        return None

    results = w.run(program)
    assert results[1] == (64, 128)


def test_fifo_between_identical_envelopes():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            for _ in range(3):
                yield from ctx.send(1, 8, tag=0)
            return None
        if ctx.rank == 1:
            order = []
            for _ in range(3):
                envelope = yield from ctx.recv(0, tag=0)
                order.append(envelope.sent_at)
            return order
        return None

    results = w.run(program)
    assert results[1] == sorted(results[1])


def test_unexpected_message_costs_more():
    # Receiver that posts late (unexpected) pays more than one that
    # posts early (expected), all else equal.
    def program_factory(post_late):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4096, tag=0)
                return None
            if ctx.rank == 1:
                if post_late:
                    yield from ctx.delay(2000.0)  # message arrives first
                    start = ctx.env.now
                    yield from ctx.recv(0, tag=0)
                    return ctx.env.now - start
                receive = ctx.irecv(0, tag=0)
                yield from ctx.delay(2000.0)
                start = ctx.env.now
                yield from ctx.wait(receive)
                return ctx.env.now - start
            return None
        return program

    late = world().run(program_factory(True))[1]
    early = world().run(program_factory(False))[1]
    assert late > early


def test_unexpected_counter_increments():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 16, tag=0)
            return None
        if ctx.rank == 1:
            yield from ctx.delay(5000.0)
            yield from ctx.recv(0, tag=0)
        return None

    w.run(program)
    assert w.comm.transport.unexpected_arrivals == 1


def test_invalid_rank_rejected():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(9, 4)
        return None

    with pytest.raises(Exception) as excinfo:
        w.run(program)
    assert isinstance(excinfo.value.__cause__, RankError) or \
        isinstance(excinfo.value, RankError)


def test_negative_size_rejected():
    w = world()

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, -4)
        return None

    with pytest.raises(Exception):
        w.run(program)


def test_longer_messages_take_longer():
    def elapsed_for(nbytes):
        w = world("sp2")

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes, tag=0)
                return None
            if ctx.rank == 1:
                start = ctx.env.now
                yield from ctx.recv(0, tag=0)
                return ctx.env.now - start
            return None

        return w.run(program)[1]

    assert elapsed_for(65536) > elapsed_for(1024) > elapsed_for(4)


def test_t3d_message_faster_than_sp2():
    # T3D's fast messaging hardware gives lower one-way latency.
    def latency(machine):
        w = world(machine)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, 4, tag=0)
                return None
            if ctx.rank == 1:
                yield from ctx.recv(0, tag=0)
                return ctx.env.now
            return None

        return w.run(program)[1]

    assert latency("t3d") < latency("sp2")
    assert latency("t3d") < latency("paragon")


def test_sender_not_blocked_by_wire():
    # The sender's local cost must be far below the end-to-end latency
    # (that is what lets a scatter root pipeline).
    w = world("paragon")

    def program(ctx):
        if ctx.rank == 0:
            start = ctx.env.now
            yield from ctx.send(1, 4, tag=0)
            return ctx.env.now - start
        if ctx.rank == 1:
            yield from ctx.recv(0, tag=0)
            return ctx.env.now
        return None

    results = w.run(program)
    sender_cost, receiver_done = results[0], results[1]
    assert sender_cost < receiver_done / 1.5


def test_pending_introspection():
    w = world()
    transport = w.comm.transport

    def program(ctx):
        if ctx.rank == 1:
            ctx.irecv(0, tag=99)
        if ctx.rank == 2:
            yield from ctx.delay(1.0)
        return None
        yield  # pragma: no cover

    w.run(program)
    assert transport.pending_posted(1) == 1
    assert transport.pending_unexpected(1) == 0


def _count_carries(w):
    """Wrap the fabric's entry point; return the per-attempt count."""
    fabric = w.machine.fabric
    carried = []
    carry = fabric.carry

    def counting_carry(*args, **kwargs):
        carried.append(args[:2])
        return carry(*args, **kwargs)

    fabric.carry = counting_carry
    return w.comm.transport, carried


def test_one_attempt_per_message_without_faults():
    w = world("sp2", 8)
    transport, carried = _count_carries(w)
    meter = WorkMeter()
    w.env.work = meter
    w.run_collective("allreduce", 4096)
    assert w.machine.injector is None
    assert transport.messages_delivered > 0
    assert len(carried) == transport.messages_delivered
    assert meter.retransmissions == 0


def _lossy_world():
    plan = FaultPlan(name="lossy", loss_probability=0.3,
                     retry=RetryConfig(timeout_us=500.0, max_retries=20))
    return world("sp2", 8, faults=plan)


def test_lossy_attempts_retry_until_delivered():
    w = _lossy_world()
    transport, carried = _count_carries(w)
    meter = WorkMeter()
    w.env.work = meter
    w.run_collective("allreduce", 4096)
    retransmits = w.machine.injector.retransmits
    assert retransmits > 0
    assert meter.retransmissions == retransmits
    assert meter.transfers_shortcircuited > 0
    # Every attempt enters the fabric exactly once.
    assert len(carried) == transport.messages_delivered + retransmits
    assert meter.transfers_booked == len(carried)


def _delivery_failure():
    plan = FaultPlan(name="hopeless", loss_probability=0.98,
                     retry=RetryConfig(timeout_us=500.0, max_retries=2))
    w = world("sp2", 8, faults=plan)
    meter = WorkMeter()
    w.env.work = meter
    with pytest.raises(DeliveryError) as excinfo:
        w.run_collective("allreduce", 4096)
    error = excinfo.value
    return (w.env.now, error.src, error.dst, error.attempts,
            w.machine.injector.retransmits), meter


def test_gives_up_where_the_process_per_hop_wire_did():
    outcome, meter = _delivery_failure()
    assert meter.transfers_shortcircuited > 0
    assert outcome[3] == 3  # the first attempt and both retries
    # The process-per-hop wire gave up on the same message at the same
    # instant, after the same retransmissions.
    assert outcome == (3863.996359074996, 5, 4, 3, 8)
    # A plan that leaves no route: the give-up the wire reference holds.
    case = ("sp2", "allreduce", 4096, 5, 0, "single-link-outage", "plain")
    reference = load_reference()
    assert "undeliverable" in reference[case_id(case)]["elapsed"]
    assert matches(case, reference)
