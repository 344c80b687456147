"""Wake-up designs: paper idle figures, exact energy accounting, ranking."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nfcbms import wakeup as wk
from nfcbms.errors import OverlappingSessions, RangeViolation

ED = wk.Method.ED
EH = wk.Method.EH


def default_model() -> wk.PowerModel:
    return wk.PowerModel()


# --- idle power ---


def test_idle_power_event_detection_is_117_81_uw():
    assert wk.idle_power(default_model(), ED) == pytest.approx(117.81, rel=1e-12)


def test_idle_power_energy_harvesting_is_98_34_uw():
    assert wk.idle_power(default_model(), EH) == pytest.approx(98.34, rel=1e-12)


def test_supply_voltage_consistent_with_current_quotient():
    # supply default is the quotient of the two published idle figures
    model = default_model()
    total_idle_ua = model.bpc_vlps_current_ua + model.ntag_standby_current_ua
    assert wk.idle_power(model, ED) / total_idle_ua == pytest.approx(3.3, rel=1e-12)


def test_eh_idle_strictly_below_ed_for_1000_random_models():
    rng = random.Random(77)
    for _ in range(1000):
        ed_lat = rng.uniform(0.1, 100)
        model = wk.PowerModel(
            supply_voltage_v=rng.uniform(1.8, 5.0),
            bpc_vlps_current_ua=rng.uniform(1, 500),
            bpc_active_current_ma=rng.uniform(1, 100),
            ntag_standby_current_ua=rng.uniform(0.1, 100),
            ntag_active_current_ma=rng.uniform(0.5, 50),
            ed_wakeup_latency_ms=ed_lat,
            eh_wakeup_latency_ms=ed_lat + rng.uniform(0, 400),
        )
        assert wk.idle_power(model, EH) < wk.idle_power(model, ED)


def test_model_invariants_enforced():
    with pytest.raises(RangeViolation):
        wk.idle_power(wk.PowerModel(supply_voltage_v=0), ED)
    with pytest.raises(RangeViolation):
        wk.idle_power(
            wk.PowerModel(ed_wakeup_latency_ms=50, eh_wakeup_latency_ms=5), ED
        )


@pytest.mark.parametrize("value", ["1", True, None])
@pytest.mark.parametrize("field, build", [
    ("duration_days", lambda v: wk.StorageScenario(v)),
    ("start_s", lambda v: wk.Readout(v, 5)),
    ("length_s", lambda v: wk.Readout(10, v)),
])
def test_scenario_refuses_a_value_that_is_not_a_number(field, build, value):
    # refused when built, never simulated: "1" * US_PER_DAY would be an 86 GB string
    with pytest.raises(RangeViolation, match=f"^{field} must be a number, not {type(value).__name__}$"):
        build(value)


def test_scenario_stores_its_numbers_as_floats():
    scenario = wk.StorageScenario(1, (wk.Readout(10, 5),))
    (readout,) = scenario.readouts
    assert {type(v) for v in (scenario.duration_days, readout.start_s, readout.length_s)} == {float}
    read = wk.StorageScenario.from_json({"duration_days": 1, "readouts": [{"start_s": 10, "length_s": 5}]})
    assert read == scenario


def test_scenario_refuses_readouts_that_are_not_readouts():
    # a JSON-style dict is refused when the scenario is built, not when it is simulated
    with pytest.raises(RangeViolation, match="^readouts entry must be a Readout, not dict$"):
        wk.StorageScenario(1, ({"start_s": 10, "length_s": 5},))
    with pytest.raises(RangeViolation, match="^readouts must be a list of Readout, not dict$"):
        wk.StorageScenario(1, {"start_s": 10, "length_s": 5})


def test_scenario_stores_a_list_of_readouts_as_a_tuple():
    listed = wk.StorageScenario(1, [wk.Readout(10, 5)])
    held = wk.StorageScenario(1, (wk.Readout(10, 5),))
    assert listed.readouts == (wk.Readout(10, 5),)
    assert listed == held
    assert hash(listed) == hash(held)


# values of every JSON type but a number, and of any JSON type
NOT_A_NUMBER = (st.text(max_size=3) | st.booleans() | st.none() | st.lists(st.integers(0, 9), max_size=2)
                | st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2))
ANY_JSON = NOT_A_NUMBER | st.integers() | st.floats()
NUMBERS = st.integers(0, 10**6) | st.floats(0, 1e6)


FAULTS = ("duration_days", "readouts", "entry")  # in the order the constructor checks them


@pytest.mark.parametrize("first", FAULTS)
@settings(max_examples=100)
@given(duration=NUMBERS, readouts=st.lists(st.builds(wk.Readout, NUMBERS, NUMBERS), max_size=4), data=st.data())
def test_listed_and_tupled_readouts_take_one_route(first, duration, readouts, data):
    assert wk.StorageScenario(duration, readouts) == wk.StorageScenario(duration, tuple(readouts))
    # the duration, the readouts or one readout of another type, perhaps with a later fault too:
    # both forms name the first
    rest = FAULTS[FAULTS.index(first) + 1:]
    later = [data.draw(st.sampled_from(rest))] if rest and data.draw(st.booleans()) else []
    texts = {}
    for name in [first] + later:
        if name == "duration_days":
            duration = data.draw(NOT_A_NUMBER)
            texts[name] = f"duration_days must be a number, not {type(duration).__name__}"
        elif name == "readouts":
            readouts = data.draw(ANY_JSON.filter(lambda v: type(v) is not list))
            texts[name] = f"readouts must be a list of Readout, not {type(readouts).__name__}"
        elif type(readouts) is list:
            value, at = data.draw(ANY_JSON), data.draw(st.integers(0, len(readouts)))
            readouts = readouts[:at] + [value] + readouts[at:]
            texts[name] = f"readouts entry must be a Readout, not {type(value).__name__}"
    for form in (readouts, tuple(readouts) if type(readouts) is list else readouts):
        with pytest.raises(RangeViolation) as raised:
            wk.StorageScenario(duration, form)
        assert str(raised.value) == texts[first]


# --- simulation ---


def test_zero_readout_day_is_constant_idle_profile():
    scenario = wk.StorageScenario(duration_days=1)
    trace = wk.simulate(default_model(), scenario, ED)
    assert trace.avg_power_uw == pytest.approx(117.81, rel=1e-12)
    assert trace.active_energy_uj == 0
    assert trace.idle_energy_uj == pytest.approx(117.81 * 86400, rel=1e-12)
    assert [e.state for e in trace.events] == ["idle"]


def test_eh_energy_strictly_lower_same_scenario():
    scenario = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(start_s=3600, length_s=60),)
    )
    model = default_model()
    ed_trace = wk.simulate(model, scenario, ED)
    eh_trace = wk.simulate(model, scenario, EH)
    assert eh_trace.total_energy_uj < ed_trace.total_energy_uj


def closed_form_nwus(model: wk.PowerModel, method: wk.Method, sessions: list) -> int:
    """Independent sum of P_state * dt over a one-day piecewise profile, in nW*us."""
    duration_us = 86_400_000_000
    latency_us = model.wakeup_latency_us(method)
    active_us = sum(round(length * 1e6) for length in sessions)
    wake_us = latency_us * len(sessions)
    idle_us = duration_us - active_us - wake_us
    return (
        model.idle_nw(method) * idle_us
        + model.wakeup_nw(method) * wake_us
        + model.session_nw() * active_us
    )


def test_single_session_day_matches_closed_form():
    model = default_model()
    scenario = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(start_s=43200, length_s=60),)
    )
    for method in (ED, EH):
        trace = wk.simulate(model, scenario, method)
        expected = closed_form_nwus(model, method, [60]) / 1e9
        assert trace.total_energy_uj == pytest.approx(expected, rel=1e-9)
        assert trace.avg_power_uw == pytest.approx(expected / 86400, rel=1e-9)


def test_energy_totals_match_event_integral_exactly():
    model = default_model()
    scenario = wk.StorageScenario(
        duration_days=2,
        readouts=(wk.Readout(3600, 120), wk.Readout(90000, 45), wk.Readout(150000, 300)),
    )
    for method in (ED, EH):
        trace = wk.simulate(model, scenario, method)
        times = [e.time_us for e in trace.events] + [trace.duration_us]
        integral_nwus = sum(
            e.power_nw * (times[i + 1] - times[i]) for i, e in enumerate(trace.events)
        )
        assert trace.total_energy_uj == pytest.approx(integral_nwus / 1e9, rel=1e-9)


def event_integral_nwus(trace: wk.WakeupTrace) -> tuple[int, int]:
    """Idle and active energy in nW*us, integrated event by event over the trace."""
    until = [e.time_us for e in trace.events[1:]] + [trace.duration_us]
    idle = active = 0
    for event, end in zip(trace.events, until):
        span = (end - event.time_us) * event.power_nw
        if event.state == "idle":
            idle += span
        else:
            active += span
    return idle, active


# windows as (idle gap before it, session length) in seconds
windows_s = st.lists(
    st.tuples(st.floats(0, 50_000), st.floats(0.001, 3_600)), max_size=12
)


@given(windows_s, st.floats(1, 50_000), st.sampled_from(list(wk.Method)))
def test_closed_form_energies_equal_the_event_integral(windows, tail_s, method):
    readouts, clock = [], 0.0
    for gap, length in windows:
        readouts.append(wk.Readout(clock + gap, length))
        clock += gap + length + 0.1  # room for the wake-up latency (50 ms at most)
    scenario = wk.StorageScenario((clock + tail_s) / 86_400, tuple(readouts))
    trace = wk.simulate(default_model(), scenario, method)
    idle, active = event_integral_nwus(trace)
    assert trace.idle_energy_uj == idle / 1e9
    assert trace.active_energy_uj == active / 1e9
    assert trace.avg_power_uw == (idle + active) / trace.duration_us / 1000


def test_adding_a_session_never_decreases_energy():
    model = default_model()
    base = wk.StorageScenario(duration_days=1, readouts=(wk.Readout(3600, 60),))
    more = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(3600, 60), wk.Readout(7200, 60))
    )
    for method in (ED, EH):
        assert (
            wk.simulate(model, more, method).total_energy_uj
            > wk.simulate(model, base, method).total_energy_uj
        )


# the wake-up flowchart of each design, as (state, next state) pairs
ALLOWED_TRANSITIONS = {
    ED: {
        ("idle", "wakeup"),  # RF field detected, event pin asserts
        ("wakeup", "session"),  # controller awake, link open
        ("session", "idle"),  # field gone, back to VLPS + standby
    },
    EH: {
        ("idle", "harvest_wakeup"),  # field powers the tag, tag boots
        ("harvest_wakeup", "session"),  # controller awake, now powers the tag
        ("session", "idle"),
    },
}


def test_trace_transitions_follow_the_flowchart():
    model = default_model()
    scenario = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(3600, 60), wk.Readout(7200, 30))
    )
    for method in (ED, EH):
        trace = wk.simulate(model, scenario, method)
        states = [e.state for e in trace.events]
        assert states[0] == "idle"
        for a, b in zip(states, states[1:]):
            assert (a, b) in ALLOWED_TRANSITIONS[method]


def test_event_times_non_decreasing():
    trace = wk.simulate(
        default_model(),
        wk.StorageScenario(duration_days=1, readouts=(wk.Readout(10, 5), wk.Readout(100, 5))),
        EH,
    )
    times = [e.time_us for e in trace.events]
    assert times == sorted(times)


def test_overlapping_sessions_rejected():
    model = default_model()
    scenario = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(1000, 60), wk.Readout(1030, 60))
    )
    with pytest.raises(OverlappingSessions):
        wk.simulate(model, scenario, ED)
    past_end = wk.StorageScenario(duration_days=1, readouts=(wk.Readout(86399, 10),))
    with pytest.raises(OverlappingSessions):
        wk.simulate(model, past_end, ED)


def test_overlap_accounts_for_wakeup_latency():
    # back-to-back windows that only collide once the EH latency is added
    model = wk.PowerModel(ed_wakeup_latency_ms=5, eh_wakeup_latency_ms=2000)
    scenario = wk.StorageScenario(
        duration_days=1, readouts=(wk.Readout(1000, 60), wk.Readout(1061, 60))
    )
    wk.simulate(model, scenario, ED)  # fits
    with pytest.raises(OverlappingSessions):
        wk.simulate(model, scenario, EH)


# --- comparison report ---


def test_compare_default_eh_wins_power_ed_wins_latency():
    report = wk.compare_methods(
        default_model(),
        wk.StorageScenario(duration_days=1, readouts=(wk.Readout(3600, 60),)),
    )
    assert report["lower_avg_power"] == "eh"
    assert report["lower_wakeup_latency"] == "ed"


def test_compare_latency_tie_reported():
    model = wk.PowerModel(ed_wakeup_latency_ms=10, eh_wakeup_latency_ms=10)
    report = wk.compare_methods(model, wk.StorageScenario(duration_days=1))
    assert report["lower_wakeup_latency"] == "tie"


@pytest.mark.parametrize("per_day, lower", [(583, "eh"), (584, "ed")])
def test_default_ranking_flips_at_the_wakeup_budget(per_day, lower):
    # docs/formats.md, "Wake-up budget": N* is about 583.7 for 50-ms sessions
    scenario = wk.StorageScenario(
        duration_days=1,
        readouts=tuple(wk.Readout(i * 86400 / per_day, 0.05) for i in range(per_day)),
    )
    assert wk.compare_methods(default_model(), scenario)["lower_avg_power"] == lower


@st.composite
def power_models(draw) -> wk.PowerModel:
    ed_latency_ms = draw(st.floats(0.001, 1_000))
    return wk.PowerModel(
        supply_voltage_v=draw(st.floats(0.5, 12)),
        bpc_vlps_current_ua=draw(st.floats(0.001, 1_000)),
        bpc_active_current_ma=draw(st.floats(0.001, 1_000)),
        ntag_standby_current_ua=draw(st.floats(0.001, 1_000)),
        ntag_active_current_ma=draw(st.floats(0.001, 1_000)),
        ed_wakeup_latency_ms=ed_latency_ms,
        eh_wakeup_latency_ms=ed_latency_ms + draw(st.floats(0, 1_000)),
    )


@settings(deadline=None)  # up to 10 000 readouts a day, simulated once per design
@given(power_models(), st.floats(0.001, 86_400), st.integers(0, 10_000))
# one 22-hour readout leaves ED 1 nW*us above EH: averaged as floats, the two read as a tie
@example(wk.PowerModel(1.0, 100.0, 1.0, 0.001, 0.001, 0.001, 7.979), 79_219.800998, 1)
def test_lower_avg_power_is_the_sign_of_the_integer_energy_difference(model, length_s, per_day):
    spacing_s = 86_400 / max(per_day, 1)
    assume(model.eh_wakeup_latency_ms / 1000 + length_s + 1e-3 < spacing_s)  # no overlap, none past the end
    scenario = wk.StorageScenario(
        duration_days=1,
        readouts=tuple(wk.Readout(i * spacing_s, length_s) for i in range(per_day)),
    )
    ed, eh = (closed_form_nwus(model, m, [length_s] * per_day) for m in (ED, EH))
    lower = "eh" if ed > eh else "ed" if ed < eh else "tie"
    assert wk.compare_methods(model, scenario)["lower_avg_power"] == lower


def test_duty_cycled_methods_below_1mw_baseline_above():
    # ten minutes of sessions per day with the default active currents
    model = default_model()
    scenario = wk.StorageScenario(
        duration_days=1,
        readouts=tuple(wk.Readout(i * 3600, 60) for i in range(10)),
    )
    report = wk.compare_methods(model, scenario)
    assert report["methods"]["ed"]["avg_power_uw"] < 1000
    assert report["methods"]["eh"]["avg_power_uw"] < 1000
    assert report["always_on_baseline_uw"] > 1000


def test_trace_jsonl_shape():
    trace = wk.simulate(
        default_model(),
        wk.StorageScenario(duration_days=1, readouts=(wk.Readout(3600, 60),)),
        EH,
    )
    import json

    lines = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    assert {"time_us", "state", "power_uw", "method"} <= set(lines[0])
    assert lines[0]["method"] == "eh"
