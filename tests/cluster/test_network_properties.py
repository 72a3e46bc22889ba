"""Property-based tests for the processor-sharing link."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Engine, SharedLink


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),  # start offset
            st.floats(min_value=1.0, max_value=1e6),  # bytes
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=10.0, max_value=1e4),  # bandwidth
)
@settings(max_examples=120, deadline=None)
def test_conservation_and_ordering(transfers, bandwidth):
    """Work conservation: the last completion can be no earlier than
    total bytes / bandwidth past the first start, and no transfer
    finishes before its solo time."""
    engine = Engine()
    link = SharedLink(engine, bandwidth=bandwidth)
    completions = {}

    def start(index, nbytes):
        link.transfer(nbytes, lambda: completions.__setitem__(index, engine.now))

    for index, (offset, nbytes) in enumerate(transfers):
        engine.schedule(offset, start, index, nbytes)
    engine.run()

    assert len(completions) == len(transfers)
    total_bytes = sum(nbytes for _, nbytes in transfers)
    first_start = min(offset for offset, _ in transfers)
    last_completion = max(completions.values())
    # The link never moves more than `bandwidth` bytes per unit time.
    assert last_completion >= first_start + total_bytes / bandwidth - 1e-6
    # No transfer beats its solo transfer time.
    for index, (offset, nbytes) in enumerate(transfers):
        assert completions[index] >= offset + nbytes / bandwidth - 1e-6


@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=1e3, max_value=1e9),
)
@settings(max_examples=60, deadline=None)
def test_equal_simultaneous_transfers_finish_together(count, nbytes):
    """k equal transfers started together finish together at the
    aggregate time k * bytes / bandwidth."""
    engine = Engine()
    bandwidth = 350e6
    link = SharedLink(engine, bandwidth=bandwidth)
    done = []
    for _ in range(count):
        link.transfer(nbytes, lambda: done.append(engine.now))
    engine.run()
    assert len(done) == count
    expected = count * nbytes / bandwidth
    assert max(done) == pytest.approx(expected, rel=1e-6)
    assert min(done) == pytest.approx(expected, rel=1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0),  # start offset
            st.floats(min_value=1.0, max_value=1e6),  # bytes
        ),
        max_size=6,
    ),
    st.floats(min_value=0.0, max_value=30.0),  # batch admission time
    st.integers(min_value=1, max_value=70),  # multiplicity
    st.floats(min_value=1.0, max_value=1e9),  # batch bytes per copy
    st.sampled_from(["complete", "cancel", "cancel_all"]),
    st.floats(min_value=0.0, max_value=1.0),  # when to cancel, in solo times
    st.floats(min_value=10.0, max_value=1e4),  # bandwidth
)
@settings(max_examples=150, deadline=None)
def test_batched_transfer_equals_single_admissions(
    history, at, count, nbytes, ending, cancel_frac, bandwidth
):
    """One admission of multiplicity k behaves exactly like k single
    admissions at one instant on the same link history: the batch
    finishes at the very same time (compared with ==), holds k active
    shares, and moves the same bytes whether it completes, is
    cancelled, or dies in cancel_all."""

    def run(batched):
        engine = Engine()
        link = SharedLink(engine, bandwidth=bandwidth)
        finished = []
        seen = {}

        def start_batch():
            done = lambda: finished.append(engine.now)
            if batched:
                items = [link.transfer(nbytes, done, count=count)]
            else:
                items = [link.transfer(nbytes, done) for _ in range(count)]
            seen["active"] = link.active_transfers
            if ending == "cancel":
                engine.schedule(cancel_at, lambda: [link.cancel(i) for i in items])

        cancel_at = cancel_frac * count * nbytes / bandwidth
        for offset, size in history:
            engine.schedule(offset, link.transfer, size, lambda: None)
        engine.schedule(at, start_batch)
        if ending == "cancel_all":
            engine.schedule(at + cancel_at, link.cancel_all)
        engine.run()
        return finished, seen["active"], link.active_transfers, link.bytes_delivered

    batch_done, batch_active, batch_left, batch_bytes = run(True)
    single_done, single_active, single_left, single_bytes = run(False)
    assert batch_active == single_active
    assert batch_left == single_left == 0
    if single_done:
        assert single_done == [single_done[0]] * count
        assert batch_done == [single_done[0]]
    else:
        assert batch_done == []
    assert batch_bytes == pytest.approx(single_bytes, rel=1e-9)
