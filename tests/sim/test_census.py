"""The run-loop census: what it counts, and that it changes nothing.

``Simulator.run(..., census=d)`` fills ``d`` with (count, ns) per
callback function, per compiled span and for the whole loop
(:mod:`repro.sim.census`). The counts must add up to the events the run
executed, the run must compute exactly what it computes without a
census, and the pairs must add across calls.
"""

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.scenarios import scenario_config
from repro.net.channel import DirectedLink
from repro.runtime.runner import run_deployment
from repro.sim import census as run_census
from repro.sim.kernel import Simulator


@pytest.mark.parametrize("name", ["fig6_loss", "churn_smoke", "agg_heavy"])
def test_a_census_counts_every_event_and_changes_nothing(name):
    plain, plain_report = run_deployment(scenario_config(name))
    census = {}
    deployment, report = run_deployment(scenario_config(name), census=census)
    assert report_fingerprint(report) == report_fingerprint(plain_report)
    executed = deployment.sim.events_executed
    assert executed == plain.sim.events_executed
    assert deployment.sim.events_scheduled == plain.sim.events_scheduled
    assert run_census.event_total(census) == executed
    events, ns = census[run_census.RUN]
    assert events == executed
    assert ns >= sum(ns for _label, _count, ns in run_census.callbacks(census))


def test_callbacks_are_keyed_by_their_function_and_spans_by_name():
    census = {}
    run_deployment(scenario_config("churn_smoke"), census=census)
    # A compiled method's key is its descriptor; a Python one's its
    # function.
    assert DirectedLink.__dict__["_arrive"] in census
    # A timer's events are the timer's, whatever it calls.
    assert "Timer._fire" in {run_census.label(key) for key in census}
    spans = {name for name, _calls, _ns in run_census.spans(census)}
    assert {"NodeCore._complete -> deliver", "NodeCore._complete -> route",
            "send -> validate", "send -> aggregate",
            "NodeCore._on_link_receive -> aggregated receive"} <= spans
    lossy = {}
    run_deployment(scenario_config("fig6_loss"), census=lossy)
    calls, _ns = lossy["DirectedLink._arrive -> loss hook"]
    assert calls == lossy[DirectedLink.__dict__["_arrive"]][0]


def test_pairs_add_across_calls_and_a_raising_callback_counts():
    sim = Simulator(seed=1)

    def tick():
        pass

    def boom():
        raise RuntimeError("boom")

    for at in (1.0, 2.0, 3.0):
        sim.schedule_at(at, tick)
    sim.schedule_at(4.0, boom)
    census = {}
    assert sim.run(until=2.5, census=census) == 2
    assert census[tick][0] == 2
    with pytest.raises(RuntimeError):
        sim.run(census=census)
    assert census[tick][0] == 3
    assert census[boom][0] == 1
    assert run_census.event_total(census) == sim.events_executed == 4
    assert census[run_census.RUN][0] == 4


def test_a_census_must_be_a_dict():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    with pytest.raises(TypeError):
        sim.run(census=[])
    assert sim.pending() == 1


def test_rows_give_time_per_decided_value():
    census = {}
    _deployment, report = run_deployment(scenario_config("fig6_loss"),
                                         census=census)
    rows = run_census.rows(census, report.decided)
    assert rows[-1][0] == "(loop itself)"
    assert [row[0] for row in rows if row[0].startswith("> ")] == [
        "> " + name for name, _calls, _ns in run_census.spans(census)]
    assert all(len(row) == len(run_census.HEADERS) for row in rows)
