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

from dataclasses import dataclass, field
from enum import Enum

from .errors import OverlappingSessions, RangeViolation

US_PER_DAY = 86_400_000_000


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

    def validate(self) -> None:
        for name in (
            "supply_voltage_v",
            "bpc_vlps_current_ua",
            "bpc_active_current_ma",
            "ntag_standby_current_ua",
            "ntag_active_current_ma",
            "ed_wakeup_latency_ms",
            "eh_wakeup_latency_ms",
        ):
            if getattr(self, name) <= 0:
                raise RangeViolation(f"{name} must be strictly positive")
        if self.eh_wakeup_latency_ms < self.ed_wakeup_latency_ms:
            raise RangeViolation("harvesting wake-up cannot be faster than the event pin")

    # all internal power levels are integer nanowatts

    def _nw(self, current_ua: float) -> int:
        return round(self.supply_voltage_v * current_ua * 1000)

    def idle_nw(self, method: Method) -> int:
        if method == Method.ED:
            return self._nw(self.bpc_vlps_current_ua + self.ntag_standby_current_ua)
        return self._nw(self.bpc_vlps_current_ua)  # tag fully disabled

    def wakeup_nw(self, method: Method) -> int:
        if method == Method.ED:
            return self._nw(
                self.bpc_active_current_ma * 1000 + self.ntag_active_current_ma * 1000
            )
        # during harvesting the tag runs on field energy, not the battery
        return self._nw(self.bpc_active_current_ma * 1000)

    def session_nw(self) -> int:
        return self._nw(self.bpc_active_current_ma * 1000 + self.ntag_active_current_ma * 1000)

    def always_on_nw(self) -> int:
        return self._nw(self.bpc_active_current_ma * 1000 + self.ntag_standby_current_ua)

    def wakeup_latency_us(self, method: Method) -> int:
        ms = self.ed_wakeup_latency_ms if method == Method.ED else self.eh_wakeup_latency_ms
        return round(ms * 1000)


def idle_power(model: PowerModel, method: Method) -> float:
    """Idle-state power draw in microwatts."""
    model.validate()
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
            duration_days=float(obj["duration_days"]),
            readouts=tuple(
                Readout(float(r["start_s"]), float(r["length_s"]))
                for r in obj.get("readouts", ())
            ),
        )


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


_IDLE_STATES = frozenset({"idle"})


def simulate(model: PowerModel, scenario: StorageScenario, method: Method) -> WakeupTrace:
    """Run one storage period and integrate the power profile exactly."""
    model.validate()
    if scenario.duration_days <= 0:
        raise RangeViolation("duration must be positive")
    duration_us = round(scenario.duration_days * US_PER_DAY)
    latency_us = model.wakeup_latency_us(method)
    wake_state = "wakeup" if method == Method.ED else "harvest_wakeup"

    windows = []
    for r in scenario.readouts:
        start = round(r.start_s * 1_000_000)
        length = round(r.length_s * 1_000_000)
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

    idle_nwus = 0
    active_nwus = 0
    for ev, nxt in zip(events, events[1:]):
        span = (nxt.time_us - ev.time_us) * ev.power_nw
        if ev.state in _IDLE_STATES:
            idle_nwus += span
        else:
            active_nwus += span
    tail = (duration_us - events[-1].time_us) * events[-1].power_nw
    if events[-1].state in _IDLE_STATES:
        idle_nwus += tail
    else:
        active_nwus += tail

    trace.idle_energy_uj = idle_nwus / 1e9
    trace.active_energy_uj = active_nwus / 1e9
    trace.avg_power_uw = (idle_nwus + active_nwus) / duration_us / 1000
    return trace


def compare_methods(model: PowerModel, scenario: StorageScenario) -> dict:
    """Simulate both designs and rank them by power and by latency."""
    traces = {m: simulate(model, scenario, m) for m in Method}
    ed, eh = traces[Method.ED], traces[Method.EH]

    if ed.avg_power_uw == eh.avg_power_uw:
        lower_power = "tie"
    else:
        lower_power = "eh" if eh.avg_power_uw < ed.avg_power_uw else "ed"
    if model.ed_wakeup_latency_ms == model.eh_wakeup_latency_ms:
        lower_latency = "tie"
    else:
        lower_latency = "ed" if model.ed_wakeup_latency_ms < model.eh_wakeup_latency_ms else "eh"

    return {
        "methods": {
            "ed": {
                "idle_power_uw": model.idle_nw(Method.ED) / 1000,
                "avg_power_uw": ed.avg_power_uw,
                "total_energy_uj": ed.total_energy_uj,
                "wakeup_latency_ms": model.ed_wakeup_latency_ms,
                "pros": ["wake-up via the tag event pin is fast"],
                "cons": [
                    "tag must be powered at all times",
                    "higher idle power draw",
                ],
            },
            "eh": {
                "idle_power_uw": model.idle_nw(Method.EH) / 1000,
                "avg_power_uw": eh.avg_power_uw,
                "total_energy_uj": eh.total_energy_uj,
                "wakeup_latency_ms": model.eh_wakeup_latency_ms,
                "pros": [
                    "tag draws nothing while idle",
                    "controller supplies the tag only during sessions",
                ],
                "cons": ["wake-up waits on field energy harvesting"],
            },
        },
        "always_on_baseline_uw": model.always_on_nw() / 1000,
        "lower_avg_power": lower_power,
        "lower_wakeup_latency": lower_latency,
    }
