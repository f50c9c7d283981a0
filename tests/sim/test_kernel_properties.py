"""Property-based tests of discrete-event kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=60))
def test_events_fire_in_nondecreasing_time_order(delays):
    """The kernel must process timeouts in time order, ties FIFO."""
    sim = Simulator()
    fired = []
    for idx, d in enumerate(delays):
        sim.timeout(d).callbacks.append(
            lambda e, idx=idx, d=d: fired.append((d, idx)))
    sim.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # FIFO among equal times: indices of equal-delay events stay ordered.
    for i in range(len(fired) - 1):
        if fired[i][0] == fired[i + 1][0]:
            assert fired[i][1] < fired[i + 1][1]


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30))
def test_clock_never_goes_backwards(delays):
    sim = Simulator()
    observed = []

    def body(d):
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.process(body(d))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == max(delays)


@given(st.data())
@settings(max_examples=50)
def test_chained_processes_accumulate_delays(data):
    """A pipeline of processes each sleeping d_i finishes at sum(d_i)."""
    sim = Simulator()
    delays = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=10))

    def stage(i):
        yield sim.timeout(delays[i])
        if i + 1 < len(delays):
            val = yield sim.process(stage(i + 1))
            return val + delays[i]
        return delays[i]

    proc = sim.process(stage(0))
    total = sim.run_until_complete(proc)
    assert abs(total - sum(delays)) < 1e-6
    assert abs(sim.now - sum(delays)) < 1e-6


_DELAYS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(min_value=0.0, max_value=20.0,
                              allow_nan=False, allow_infinity=False))
_OPS = st.lists(st.one_of(st.tuples(st.just("call_at"), _DELAYS),
                          st.tuples(st.just("timeout"), _DELAYS),
                          st.tuples(st.just("succeed"), st.just(0.0)),
                          st.tuples(st.just("run"), _DELAYS)),
                max_size=60)


@given(ops=_OPS)
@settings(max_examples=200)
def test_entries_fire_in_when_then_push_order(ops):
    """Random interleavings of ``call_at``, ``timeout``, ``succeed()``
    at now and ``run(until=)`` fire in exactly the order of a sorted
    ``(when, push order)`` list, each at its own ``when``."""
    sim = Simulator()
    pushed = []
    fired = []

    def record(label):
        fired.append((sim.now, label))

    for kind, delay in ops:
        when = sim.now + delay
        label = len(pushed)
        if kind == "run":
            assert sim.run(until=when) == when == sim.now
            continue
        if kind == "call_at":
            sim.call_at(when, record, label)
        elif kind == "timeout":
            sim.timeout(delay).callbacks.append(
                lambda ev, label=label: record(label))
        else:
            when = sim.now
            ev = sim.event()
            ev.callbacks.append(lambda ev, label=label: record(label))
            ev.succeed()
        pushed.append((when, label))
    sim.run()
    assert fired == sorted(pushed)


@given(n=st.integers(min_value=1, max_value=40))
def test_all_of_fires_at_max_time(n):
    sim = Simulator()
    events = [sim.timeout(float(i % 7)) for i in range(n)]
    cond = sim.all_of(events)
    fired_at = []
    cond.callbacks.append(lambda e: fired_at.append(sim.now))
    sim.run()
    assert fired_at == [float(max(i % 7 for i in range(n)))]
