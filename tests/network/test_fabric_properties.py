"""Property-based tests of the fabric: conservation and completion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import LinkParameters, Mesh2D, NetworkFabric, \
    OmegaNetwork, Torus3D
from repro.sim import Environment, Tracer

PARAMS = LinkParameters(hop_latency_us=0.05, bandwidth_mbs=200.0)

TOPOLOGIES = {
    "mesh": lambda: Mesh2D(4, 4),
    "torus": lambda: Torus3D(2, 4, 2),
    "omega": lambda: OmegaNetwork(16, radix=4),
}


@st.composite
def transfer_sets(draw):
    count = draw(st.integers(1, 15))
    return [(draw(st.integers(0, 15)), draw(st.integers(0, 15)),
             draw(st.sampled_from([0, 64, 4096])))
            for _ in range(count)]


def carry(fabric, src, dst, nbytes, finished):
    """Issue one transfer now; append ``(src, dst, nbytes, release)``
    to ``finished`` once its route is released."""
    def released(release, aborted):
        assert not aborted
        finished.append((src, dst, nbytes, release))

    release = fabric.carry(src, dst, nbytes, released)
    if release is not None:
        released(release, False)


@given(st.sampled_from(sorted(TOPOLOGIES)), transfer_sets())
@settings(max_examples=50, deadline=None)
def test_all_transfers_complete_and_bytes_conserved(kind, transfers):
    env = Environment()
    topology = TOPOLOGIES[kind]()
    fabric = NetworkFabric(env, topology, PARAMS)
    finished = []
    for src, dst, nbytes in transfers:
        carry(fabric, src, dst, nbytes, finished)
    env.run()
    assert len(finished) == len(transfers)
    # Every link was given back.
    for link_id in topology.links():
        resource = fabric.link(link_id).resource
        assert resource.count == 0 and resource.queue_length == 0

    # Byte conservation: each link carried exactly the bytes of the
    # messages routed over it.
    expected = {}
    for src, dst, nbytes in transfers:
        for link in topology.route(src, dst):
            expected[link] = expected.get(link, 0) + nbytes
    observed = fabric.utilisation()
    for link, nbytes in expected.items():
        observed_bytes = observed.get(link, 0)
        assert observed_bytes == nbytes, (link, observed_bytes, nbytes)
    # No link carried traffic that was never routed over it.
    for link, nbytes in observed.items():
        assert expected.get(link, 0) == nbytes


@given(st.sampled_from(sorted(TOPOLOGIES)), st.integers(0, 15),
       st.integers(0, 15), st.integers(0, 1 << 16))
@settings(max_examples=50, deadline=None)
def test_uncontended_time_matches_formula(kind, src, dst, nbytes):
    env = Environment()
    topology = TOPOLOGIES[kind]()
    fabric = NetworkFabric(env, topology, PARAMS)
    finished = []
    carry(fabric, src, dst, nbytes, finished)
    env.run()
    (release,) = [entry[3] for entry in finished]
    if src == dst:
        assert release == 0.0
    else:
        assert release == fabric.transfer_time(src, dst, nbytes)


@given(transfer_sets())
@settings(max_examples=30, deadline=None)
def test_contention_never_speeds_things_up(transfers):
    def total_time(contention):
        env = Environment()
        fabric = NetworkFabric(env, Mesh2D(4, 4), PARAMS,
                               contention=contention)
        finished = []
        for src, dst, nbytes in transfers:
            carry(fabric, src, dst, nbytes, finished)
        env.run()
        return max(entry[3] for entry in finished)

    assert total_time(True) >= total_time(False) - 1e-9


@given(st.sampled_from(sorted(TOPOLOGIES)), transfer_sets())
@settings(max_examples=30, deadline=None)
def test_a_link_is_held_by_one_transfer_at_a_time(kind, transfers):
    """Booked or chained, the occupancy spans of one link never
    overlap: contention serializes."""
    env = Environment()
    tracer = Tracer(enabled=True)
    fabric = NetworkFabric(env, TOPOLOGIES[kind](), PARAMS, tracer=tracer)
    finished = []
    for src, dst, nbytes in transfers:
        carry(fabric, src, dst, nbytes, finished)
    env.run()
    held = {}
    for span in tracer.spans("link"):
        held.setdefault(span.name, []).append((span.start, span.end))
    for intervals in held.values():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end
