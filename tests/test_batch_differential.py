"""Differential harness for the batched dense engine.

:func:`~repro.core.batch.simulate_dense_batch` promises per-item results
*identical* to B independent solo runs.  Hypothesis drives randomized
networks, per-item stimulus schedules, and per-item transient-fault
models (strategies shared via ``tests/differential.py``), and asserts
spike-for-spike equality against both reference executions:

* **sequential dense** — exact equality on everything, including stop
  reason, final tick, and full recorded rasters;
* **event-driven** — the same exact equality, compared with
  ``assert_identical``, stop metadata included.

Per-item telemetry hooks must likewise observe exactly the solo event
stream (spike, delivery, and fault-event totals).
"""

from hypothesis import given, settings, strategies as st

from repro.core import simulate_dense, simulate_event_driven
from repro.core.batch import simulate_dense_batch
from repro.telemetry import TraceRecorder
from tests.differential import (
    MAX_STEPS,
    assert_identical,
    batch_cases,
    fault_models,
)


@given(batch_cases())
@settings(max_examples=60)
def test_batched_matches_sequential_dense(case):
    """Fault-free: batched items are bit-identical to solo dense runs."""
    net, stimuli, terminal, watch = case
    compiled = net.compile()
    batch = simulate_dense_batch(
        compiled, stimuli, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        record_spikes=True,
    )
    for b, stim in enumerate(stimuli):
        solo = simulate_dense(
            compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
            record_spikes=True,
        )
        assert_identical(batch[b], solo, label=f"item {b}")


@given(batch_cases())
@settings(max_examples=40)
def test_batched_plain_fast_path_matches_sequential_dense(case):
    """The vectorized no-faults/no-hooks/no-recording path is still exact."""
    net, stimuli, terminal, watch = case
    compiled = net.compile()
    batch = simulate_dense_batch(
        compiled, stimuli, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
    )
    for b, stim in enumerate(stimuli):
        solo = simulate_dense(
            compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        )
        assert_identical(batch[b], solo, label=f"item {b}")


@given(batch_cases())
@settings(max_examples=40)
def test_batched_matches_event_driven(case):
    """Cross-engine: batched dense vs the event engine, per item."""
    net, stimuli, terminal, watch = case
    compiled = net.compile()
    batch = simulate_dense_batch(
        compiled, stimuli, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        record_spikes=True,
    )
    for b, stim in enumerate(stimuli):
        ev = simulate_event_driven(
            compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
            record_spikes=True,
        )
        assert_identical(batch[b], ev, label=f"item {b}")


@given(batch_cases(), st.data())
@settings(max_examples=60)
def test_batched_matches_sequential_dense_under_faults(case, data):
    """The tentpole invariant: per-item fault binding realizes exactly the
    faults each item's solo run would (counter-based RNG makes fault
    decisions pure in (seed, tick, entity))."""
    net, stimuli, terminal, watch = case
    models = [data.draw(fault_models(n=net.n_neurons)) for _ in stimuli]
    compiled = net.compile()
    batch = simulate_dense_batch(
        compiled, stimuli, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
        record_spikes=True, faults=models,
    )
    for b, stim in enumerate(stimuli):
        solo = simulate_dense(
            compiled, stim, max_steps=MAX_STEPS, terminal=terminal, watch=watch,
            record_spikes=True, faults=models[b],
        )
        assert_identical(batch[b], solo, label=f"item {b}")


@given(batch_cases(), st.data())
@settings(max_examples=30)
def test_batched_hook_totals_match_solo_runs(case, data):
    """Per-item hooks see exactly the solo event stream: spike, delivery,
    and fault-event totals all agree with independent dense runs."""
    net, stimuli, _terminal, _watch = case
    models = [data.draw(fault_models(n=net.n_neurons)) for _ in stimuli]
    compiled = net.compile()
    recorders = [TraceRecorder() for _ in stimuli]
    simulate_dense_batch(
        compiled, stimuli, max_steps=MAX_STEPS, faults=models, hooks=recorders,
    )
    for b, stim in enumerate(stimuli):
        solo_rec = TraceRecorder()
        simulate_dense(
            compiled, stim, max_steps=MAX_STEPS, faults=models[b], hooks=solo_rec,
        )
        assert recorders[b].total_spikes == solo_rec.total_spikes, f"item {b}"
        assert recorders[b].total_deliveries == solo_rec.total_deliveries, f"item {b}"
        assert recorders[b].fault_totals() == solo_rec.fault_totals(), f"item {b}"
