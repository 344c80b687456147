"""Discrete-event simulation of the stored-pack wake-up designs.

Two designs are modeled.  Event detection (ED) keeps the tag in standby,
powered by the pack controller's very-low-power-stop state, and the
tag's event pin wakes the controller when a reader field appears.
Energy harvesting (EH) powers the tag off entirely while idle; the
reader's field boots the tag, which then wakes the controller, and for
the rest of the session the controller supplies the tag.

Time is tracked in integer microseconds and power in integer nanowatts,
so every energy total is an exact integral of the piecewise-constant
power profile; floats only appear at the reporting boundary.

Measured idle figures for the modeled parts: 29.8 uA for the controller
in VLPS and 5.9 uA for the tag in standby at 3.3 V, i.e. 117.81 uW idle
for ED and 98.34 uW for EH.  Active currents and wake-up latencies are
artifact defaults (no published figures); they are configurable and
flagged as such in the config schema.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Real

from .errors import OverlappingSessions, RangeViolation

US_PER_DAY = 86_400_000_000
MAX_TIME_US = 2**63 - 1  # times are signed 64-bit microsecond counts
MAX_NW = 2**63 - 1  # and power levels signed 64-bit nanowatt counts


class Method(str, Enum):
    ED = "ed"
    EH = "eh"


@dataclass(frozen=True)
class PowerModel:
    supply_voltage_v: float = 3.3
    bpc_vlps_current_ua: float = 29.8
    bpc_active_current_ma: float = 20.0  # artifact default, not a measured figure
    ntag_standby_current_ua: float = 5.9
    ntag_active_current_ma: float = 5.0  # artifact default, not a measured figure
    ed_wakeup_latency_ms: float = 5.0  # artifact default, not a measured figure
    eh_wakeup_latency_ms: float = 50.0  # artifact default, not a measured figure

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # NaN, infinities and integers beyond the float range all fail the comparison;
            # a bool is a Real, but not a number a model file may give
            if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= sys.float_info.max:
                raise RangeViolation(f"{f.name} must be a finite number, got {value!r}")
            if value <= 0:
                raise RangeViolation(f"{f.name} must be strictly positive")
        if self.eh_wakeup_latency_ms < self.ed_wakeup_latency_ms:
            raise RangeViolation("harvesting wake-up cannot be faster than the event pin")
        # every derived level must fit 64 bits; each raises RangeViolation if not
        for method in Method:
            self.idle_nw(method)
            self.wakeup_nw(method)
            self.wakeup_latency_us(method)
        self.session_nw()
        self.always_on_nw()

    # all internal power levels are integer nanowatts, at most MAX_NW

    def _nw(self, current_ua: float) -> int:
        nw = self.supply_voltage_v * current_ua * 1000
        if not nw <= MAX_NW:
            raise RangeViolation(f"the power model gives {nw:g} nW, beyond a signed 64-bit integer")
        return round(nw)

    def idle_nw(self, method: Method) -> int:
        if method == Method.ED:
            return self._nw(self.bpc_vlps_current_ua + self.ntag_standby_current_ua)
        return self._nw(self.bpc_vlps_current_ua)  # tag fully disabled

    def wakeup_nw(self, method: Method) -> int:
        if method == Method.ED:
            return self.session_nw()
        # during harvesting the tag runs on field energy, not the battery
        return self._nw(self.bpc_active_current_ma * 1000)

    def session_nw(self) -> int:
        return self._nw(self.bpc_active_current_ma * 1000 + self.ntag_active_current_ma * 1000)

    def always_on_nw(self) -> int:
        return self._nw(self.bpc_active_current_ma * 1000 + self.ntag_standby_current_ua)

    def wakeup_latency_ms(self, method: Method) -> float:
        return self.ed_wakeup_latency_ms if method == Method.ED else self.eh_wakeup_latency_ms

    def wakeup_latency_us(self, method: Method) -> int:
        return _whole_us(self.wakeup_latency_ms(method), 1000, f"{method.value}_wakeup_latency_ms")


def idle_power(model: PowerModel, method: Method) -> float:
    """Idle-state power draw in microwatts."""
    return model.idle_nw(method) / 1000


@dataclass(frozen=True)
class Readout:
    start_s: float
    length_s: float


@dataclass(frozen=True)
class StorageScenario:
    duration_days: float
    readouts: tuple = ()

    @classmethod
    def from_json(cls, obj: dict) -> "StorageScenario":
        return cls(
            duration_days=_json_number(obj["duration_days"], "duration_days"),
            readouts=tuple(
                Readout(_json_number(r["start_s"], "start_s"), _json_number(r["length_s"], "length_s"))
                for r in obj.get("readouts", ())
            ),
        )


def _json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; a string, bool or null raises TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a number, not {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class TraceEvent:
    time_us: int
    state: str
    power_nw: int

    @property
    def power_uw(self) -> float:
        return self.power_nw / 1000


@dataclass
class WakeupTrace:
    method: Method
    duration_us: int
    events: list = field(default_factory=list)
    idle_energy_uj: float = 0.0
    active_energy_uj: float = 0.0
    avg_power_uw: float = 0.0

    @property
    def total_energy_uj(self) -> float:
        return self.idle_energy_uj + self.active_energy_uj

    def to_jsonl(self) -> str:
        import json

        return "\n".join(
            json.dumps(
                {
                    "time_us": e.time_us,
                    "state": e.state,
                    "power_uw": e.power_uw,
                    "method": self.method.value,
                }
            )
            for e in self.events
        )


def _whole_us(value: float, unit_us: int, what: str) -> int:
    """``value`` units of ``unit_us`` microseconds, rounded to whole microseconds.

    Raises RangeViolation unless the result is finite and fits ``MAX_TIME_US``.
    """
    us = value * unit_us
    if not abs(us) <= MAX_TIME_US:  # NaN fails the comparison too
        raise RangeViolation(f"{what} is not a finite time within range: {value!r}")
    return round(us)


def simulate(model: PowerModel, scenario: StorageScenario, method: Method) -> WakeupTrace:
    """Run one storage period and integrate the power profile exactly."""
    duration_us = _whole_us(scenario.duration_days, US_PER_DAY, "duration_days")
    if duration_us <= 0:
        raise RangeViolation("duration must be at least one microsecond")
    latency_us = model.wakeup_latency_us(method)
    wake_state = "wakeup" if method == Method.ED else "harvest_wakeup"

    windows = []
    for r in scenario.readouts:
        start = _whole_us(r.start_s, 1_000_000, "readout start_s")
        length = _whole_us(r.length_s, 1_000_000, "readout length_s")
        if length <= 0 or start < 0:
            raise RangeViolation("readout windows need positive length and start >= 0")
        end = start + latency_us + length
        if end > duration_us:
            raise OverlappingSessions("readout runs past the end of the storage period")
        windows.append((start, end, length))
    windows.sort()
    for (_, prev_end, _), (next_start, _, _) in zip(windows, windows[1:]):
        if next_start < prev_end:
            raise OverlappingSessions("readout windows overlap (wake-up latency included)")

    idle_nw = model.idle_nw(method)
    wake_nw = model.wakeup_nw(method)
    session_nw = model.session_nw()

    trace = WakeupTrace(method=method, duration_us=duration_us)
    events = trace.events
    events.append(TraceEvent(0, "idle", idle_nw))
    for start, end, length in windows:
        events.append(TraceEvent(start, wake_state, wake_nw))
        events.append(TraceEvent(start + latency_us, "session", session_nw))
        events.append(TraceEvent(end, "idle", idle_nw))

    # each window draws wake-up power for the latency, then session power;
    # the rest of the period is idle
    active_nwus = sum(latency_us * wake_nw + length * session_nw for _, _, length in windows)
    idle_nwus = idle_nw * (duration_us - sum(end - start for start, end, _ in windows))

    trace.idle_energy_uj = idle_nwus / 1e9
    trace.active_energy_uj = active_nwus / 1e9
    trace.avg_power_uw = (idle_nwus + active_nwus) / duration_us / 1000
    return trace


def compare_methods(model: PowerModel, scenario: StorageScenario) -> dict:
    """Simulate both designs and rank them by power and by latency."""
    return compare_traces(model, {m: simulate(model, scenario, m) for m in Method})


# each design's (pros, cons)
_PROS_CONS = {
    Method.ED: (("wake-up via the tag event pin is fast",),
                ("tag must be powered at all times", "higher idle power draw")),
    Method.EH: (("tag draws nothing while idle", "controller supplies the tag only during sessions"),
                ("wake-up waits on field energy harvesting",)),
}


def _lower(ed: float, eh: float) -> str:
    """The design whose figure is lower, or "tie"."""
    if ed == eh:
        return "tie"
    return "ed" if ed < eh else "eh"


def compare_traces(model: PowerModel, traces: dict) -> dict:
    """Rank the two designs' traces of one scenario by power and by latency."""
    return {
        "methods": {
            m.value: {
                "idle_power_uw": model.idle_nw(m) / 1000,
                "avg_power_uw": traces[m].avg_power_uw,
                "total_energy_uj": traces[m].total_energy_uj,
                "wakeup_latency_ms": model.wakeup_latency_ms(m),
                "pros": list(_PROS_CONS[m][0]),
                "cons": list(_PROS_CONS[m][1]),
            }
            for m in Method
        },
        "always_on_baseline_uw": model.always_on_nw() / 1000,
        "lower_avg_power": _lower(traces[Method.ED].avg_power_uw, traces[Method.EH].avg_power_uw),
        "lower_wakeup_latency": _lower(model.ed_wakeup_latency_ms, model.eh_wakeup_latency_ms),
    }
