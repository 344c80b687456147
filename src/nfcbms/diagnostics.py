"""Diagnostic payloads and topology planning.

Three readout use cases exist: active sensor readout inside a pack,
idle diagnostic readout of a single stored pack, and active diagnostic
readout where the BMS controller aggregates every pack controller's
report before answering an external reader.

Units are integer-exact on the wire: state of charge/health in
permille, cell voltages in millivolt, temperatures in signed
deci-kelvin.

Packet layout (big endian), defined by this artifact:

    header : use_case(1) | origin(1) | sequence_no(4) | report_count(2)
    report : pack_id(8) | timestamp(8) | soc(2) | soh(2) | flags(2)
             | n_cells(1) | cell_mv(2)*n_cells | n_temps(1) | temp_dk(2)*n_temps
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum, IntFlag
from functools import cache

from .errors import DuplicatePackId, EmptyInput, RangeViolation, Truncated, checked, checked_items

PACK_ID_LEN = 8
MAX_CELLS = 32
MAX_CELL_MV = 5000
SOC_SOH_MAX = 1000
_HEADER = struct.Struct(">BBIH")  # use_case | origin | sequence_no | report_count
_REPORT_FIXED = struct.Struct(">8sQHHHB")  # pack_id | timestamp | soc | soh | flags | n_cells
HEADER_LEN = _HEADER.size
REPORT_FIXED_LEN = _REPORT_FIXED.size
MAX_REPORTS = 0xFFFF  # report_count is two bytes


class UseCase(IntEnum):
    ACTIVE_SENSOR = 1
    IDLE_DIAG = 2
    ACTIVE_DIAG = 3


class Origin(IntEnum):
    BPC = 1
    BMS_CONTROLLER = 2


class StatusFlags(IntFlag):
    FAULT = 0x0001
    OVERTEMP = 0x0002
    UNDERVOLT = 0x0004
    BALANCING = 0x0008
    STORED = 0x0010


@dataclass(frozen=True, slots=True)
class BpcReport:
    """One pack controller's status snapshot."""

    pack_id: bytes
    timestamp: int
    soc_permille: int
    soh_permille: int
    cell_voltages_mv: tuple
    temperatures_dk: tuple
    status_flags: int = 0

    def __post_init__(self) -> None:
        cells, temps = self.cell_voltages_mv, self.temperatures_dk
        if type(cells) is list:  # the JSON view's lists are stored as the wire's tuples
            object.__setattr__(self, "cell_voltages_mv", cells := tuple(cells))
        if type(temps) is list:
            object.__setattr__(self, "temperatures_dk", temps := tuple(temps))
        # all types, then all ranges: one type test, and a walk in the JSON reader's order if it fails
        if not (type(self.pack_id) is bytes and type(cells) is type(temps) is tuple and type(self.timestamp)
                is type(self.soc_permille) is type(self.soh_permille) is type(self.status_flags) is int
                and {int}.issuperset(map(type, cells)) and {int}.issuperset(map(type, temps))):
            checked(self.pack_id, "pack_id", (bytes,), "bytes")
            for name in ("timestamp", "soc_permille", "soh_permille"):
                checked(getattr(self, name), name)
            checked_items(cells, "cell_voltages_mv", (int,), "integers", "an integer")
            checked_items(temps, "temperatures_dk", (int,), "integers", "an integer")
            checked(self.status_flags, "status_flags")
        if len(self.pack_id) != PACK_ID_LEN:
            raise RangeViolation("pack_id must be 8 bytes")
        if not 0 <= self.timestamp < 1 << 64:
            raise RangeViolation("timestamp out of range")
        if not 0 <= self.soc_permille <= SOC_SOH_MAX:
            raise RangeViolation(f"soc_permille {self.soc_permille} > {SOC_SOH_MAX}")
        if not 0 <= self.soh_permille <= SOC_SOH_MAX:
            raise RangeViolation(f"soh_permille {self.soh_permille} > {SOC_SOH_MAX}")
        if not 1 <= len(cells) <= MAX_CELLS:
            raise RangeViolation("cell count must be 1..32")
        if min(cells) < 0 or max(cells) > MAX_CELL_MV:
            raise RangeViolation("cell voltage outside 0..5000 mV")
        if len(temps) > 255:
            raise RangeViolation("too many temperature entries")
        if temps and (min(temps) < -(1 << 15) or max(temps) >= 1 << 15):
            raise RangeViolation("temperature outside signed 16-bit range")
        if not 0 <= self.status_flags < 1 << 16:
            raise RangeViolation("status_flags outside 16-bit range")


@dataclass(frozen=True)
class DiagPacket:
    use_case: UseCase
    origin: Origin
    reports: tuple
    sequence_no: int

    def __post_init__(self) -> None:
        checked(self.use_case, "use_case", (UseCase,), "a UseCase")
        checked(self.origin, "origin", (Origin,), "an Origin")
        checked(self.reports, "reports", (tuple,), "a tuple")
        if not 0 <= checked(self.sequence_no, "sequence_no") < 1 << 32:
            raise RangeViolation("sequence_no outside 32-bit range")
        if not self.reports:
            raise EmptyInput("packet carries no reports")
        if len(self.reports) > MAX_REPORTS:
            raise RangeViolation(f"{len(self.reports)} reports, a packet carries at most {MAX_REPORTS}")
        if self.use_case == UseCase.IDLE_DIAG and len(self.reports) != 1:
            raise RangeViolation("idle diagnostic packets carry exactly one report")
        seen = set()
        for r in self.reports:
            if checked(r, "report", (BpcReport,), "a BpcReport").pack_id in seen:
                raise DuplicatePackId(f"pack id {r.pack_id.hex()} appears twice")
            seen.add(r.pack_id)


def collect_from_bpcs(reports: list, seq: int) -> DiagPacket:
    """Aggregate per-pack reports into one active-diagnostic packet."""
    return DiagPacket(
        use_case=UseCase.ACTIVE_DIAG,
        origin=Origin.BMS_CONTROLLER,
        reports=tuple(reports),
        sequence_no=seq,
    )


def idle_packet(report: BpcReport, seq: int) -> DiagPacket:
    """Single stored-pack readout packet."""
    return DiagPacket(
        use_case=UseCase.IDLE_DIAG, origin=Origin.BPC, reports=(report,), sequence_no=seq
    )


@cache
def _array(code: str, n: int) -> struct.Struct:
    """The prepared struct of ``n`` big-endian 16-bit values, ``H`` unsigned
    or ``h`` signed; built on first use, one per count."""
    return struct.Struct(f">{n}{code}")


def encode_diag(packet: DiagPacket) -> bytes:
    out = bytearray(
        _HEADER.pack(int(packet.use_case), int(packet.origin), packet.sequence_no, len(packet.reports))
    )
    for r in packet.reports:
        cells, temps = r.cell_voltages_mv, r.temperatures_dk
        out += _REPORT_FIXED.pack(
            r.pack_id, r.timestamp, r.soc_permille, r.soh_permille, r.status_flags, len(cells)
        )
        out += _array("H", len(cells)).pack(*cells)
        out.append(len(temps))
        out += _array("h", len(temps)).pack(*temps)
    return bytes(out)


def decode_diag(raw: bytes) -> DiagPacket:
    if len(raw) < HEADER_LEN:
        raise Truncated("packet shorter than header")
    use_case_v, origin_v, seq, count = _HEADER.unpack_from(raw)
    try:
        use_case = UseCase(use_case_v)
        origin = Origin(origin_v)
    except ValueError as exc:
        raise RangeViolation(str(exc)) from None
    pos = HEADER_LEN
    reports = []
    for _ in range(count):
        if len(raw) - pos < REPORT_FIXED_LEN:
            raise Truncated("report header runs past end of input")
        pack_id, ts, soc, soh, flags, n_cells = _REPORT_FIXED.unpack_from(raw, pos)
        pos += REPORT_FIXED_LEN
        if len(raw) - pos < 2 * n_cells + 1:
            raise Truncated("cell voltages run past end of input")
        volts = _array("H", n_cells).unpack_from(raw, pos)
        pos += 2 * n_cells
        n_temps = raw[pos]
        pos += 1
        if len(raw) - pos < 2 * n_temps:
            raise Truncated("temperatures run past end of input")
        temps = _array("h", n_temps).unpack_from(raw, pos)
        pos += 2 * n_temps
        reports.append(BpcReport(pack_id, ts, soc, soh, volts, temps, flags))
    if pos != len(raw):
        raise Truncated("unexpected trailing bytes")
    return DiagPacket(use_case=use_case, origin=origin, reports=tuple(reports), sequence_no=seq)


# --- JSON views (CLI reports and the passport store); the constructors check each value ---


def report_to_json(r: BpcReport) -> dict:
    return {
        "pack_id": r.pack_id.hex(),
        "timestamp": r.timestamp,
        "soc_permille": r.soc_permille,
        "soh_permille": r.soh_permille,
        "cell_voltages_mv": list(r.cell_voltages_mv),
        "temperatures_dk": list(r.temperatures_dk),
        "status_flags": r.status_flags,
    }


def report_from_json(obj: dict) -> BpcReport:
    return BpcReport(
        pack_id=bytes.fromhex(checked(obj["pack_id"], "pack_id", (str,), "a string")),
        timestamp=obj["timestamp"],
        soc_permille=obj["soc_permille"],
        soh_permille=obj["soh_permille"],
        cell_voltages_mv=obj["cell_voltages_mv"],
        temperatures_dk=obj["temperatures_dk"],
        status_flags=obj.get("status_flags", 0),
    )


def packet_to_json(p: DiagPacket) -> dict:
    return {
        "use_case": p.use_case.name,
        "origin": p.origin.name,
        "sequence_no": p.sequence_no,
        "reports": [report_to_json(r) for r in p.reports],
    }


def packet_from_json(obj: dict) -> DiagPacket:
    return DiagPacket(
        use_case=UseCase[obj["use_case"]],
        origin=Origin[obj["origin"]],
        reports=tuple(report_from_json(r) for r in obj["reports"]),
        sequence_no=obj["sequence_no"],
    )


# --- topology planning ---


class Topology(IntEnum):
    CENTRALIZED = 1
    MODULATED = 2
    DISTRIBUTED = 3
    DECENTRALIZED = 4


@dataclass(frozen=True)
class InterfacePlan:
    ntag_count: int
    reader_count: int
    idle_feasible: bool
    note: str = ""


def topology_plan(
    topology: Topology,
    module_count: int = 1,
    subsystems: list | None = None,
) -> InterfacePlan:
    """NFC interface counts needed to serve every use case.

    ``module_count`` is the number of follower/pack modules.  A
    decentralized system is planned from its per-subsystem makeup, so it
    takes ``subsystems`` as ``[(topology, module_count), ...]`` and the
    counts grow linearly with what the subsystems need.
    """
    if checked(topology, "topology", (Topology,), "a Topology") == Topology.DECENTRALIZED:
        if not subsystems:
            raise EmptyInput("a decentralized plan needs its subsystem list")
        plans = [topology_plan(t, n) for t, n in subsystems]
        return InterfacePlan(
            ntag_count=sum(p.ntag_count for p in plans),
            reader_count=sum(p.reader_count for p in plans),
            idle_feasible=all(p.idle_feasible for p in plans),
            note="linear sum over subsystems",
        )
    if checked(module_count, "module_count") < 1:
        raise RangeViolation("module_count must be >= 1")
    if topology == Topology.CENTRALIZED:
        return InterfacePlan(
            ntag_count=1,
            reader_count=1,
            idle_feasible=False,
            note="idle readout infeasible unless the controller is stored with the packs",
        )
    # modulated and distributed: every follower needs a tag and an internal
    # reader, the main module needs a tag, plus the one external reader
    return InterfacePlan(
        ntag_count=module_count + 1,
        reader_count=module_count + 1,
        idle_feasible=True,
    )
