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

from .errors import DuplicatePackId, EmptyInput, RangeViolation, Truncated

PACK_ID_LEN = 8
MAX_CELLS = 32
MAX_CELL_MV = 5000
SOC_SOH_MAX = 1000
HEADER_LEN = 8
REPORT_FIXED_LEN = 23
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


@dataclass(frozen=True)
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
        if len(self.pack_id) != PACK_ID_LEN:
            raise RangeViolation("pack_id must be 8 bytes")
        if not 0 <= self.timestamp < 1 << 64:
            raise RangeViolation("timestamp out of range")
        if not 0 <= self.soc_permille <= SOC_SOH_MAX:
            raise RangeViolation(f"soc_permille {self.soc_permille} > {SOC_SOH_MAX}")
        if not 0 <= self.soh_permille <= SOC_SOH_MAX:
            raise RangeViolation(f"soh_permille {self.soh_permille} > {SOC_SOH_MAX}")
        if not 1 <= len(self.cell_voltages_mv) <= MAX_CELLS:
            raise RangeViolation("cell count must be 1..32")
        if any(not 0 <= v <= MAX_CELL_MV for v in self.cell_voltages_mv):
            raise RangeViolation("cell voltage outside 0..5000 mV")
        if len(self.temperatures_dk) > 255:
            raise RangeViolation("too many temperature entries")
        if any(not -(1 << 15) <= t < 1 << 15 for t in self.temperatures_dk):
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
        if not 0 <= self.sequence_no < 1 << 32:
            raise RangeViolation("sequence_no outside 32-bit range")
        if not self.reports:
            raise EmptyInput("packet carries no reports")
        if len(self.reports) > MAX_REPORTS:
            raise RangeViolation(f"{len(self.reports)} reports, a packet carries at most {MAX_REPORTS}")
        if self.use_case == UseCase.IDLE_DIAG and len(self.reports) != 1:
            raise RangeViolation("idle diagnostic packets carry exactly one report")
        seen = set()
        for r in self.reports:
            if r.pack_id in seen:
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


def encode_diag(packet: DiagPacket) -> bytes:
    out = bytearray(
        struct.pack(
            ">BBIH",
            int(packet.use_case),
            int(packet.origin),
            packet.sequence_no,
            len(packet.reports),
        )
    )
    for r in packet.reports:
        out += struct.pack(
            ">8sQHHHB",
            r.pack_id,
            r.timestamp,
            r.soc_permille,
            r.soh_permille,
            r.status_flags,
            len(r.cell_voltages_mv),
        )
        out += struct.pack(f">{len(r.cell_voltages_mv)}H", *r.cell_voltages_mv)
        out += struct.pack(">B", len(r.temperatures_dk))
        if r.temperatures_dk:
            out += struct.pack(f">{len(r.temperatures_dk)}h", *r.temperatures_dk)
    return bytes(out)


def decode_diag(raw: bytes) -> DiagPacket:
    if len(raw) < HEADER_LEN:
        raise Truncated("packet shorter than header")
    use_case_v, origin_v, seq, count = struct.unpack_from(">BBIH", raw, 0)
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
        pack_id, ts, soc, soh, flags, n_cells = struct.unpack_from(">8sQHHHB", raw, pos)
        pos += REPORT_FIXED_LEN
        if len(raw) - pos < 2 * n_cells + 1:
            raise Truncated("cell voltages run past end of input")
        volts = struct.unpack_from(f">{n_cells}H", raw, pos)
        pos += 2 * n_cells
        n_temps = raw[pos]
        pos += 1
        if len(raw) - pos < 2 * n_temps:
            raise Truncated("temperatures run past end of input")
        temps = struct.unpack_from(f">{n_temps}h", raw, pos)
        pos += 2 * n_temps
        reports.append(
            BpcReport(
                pack_id=pack_id,
                timestamp=ts,
                soc_permille=soc,
                soh_permille=soh,
                cell_voltages_mv=volts,
                temperatures_dk=temps,
                status_flags=flags,
            )
        )
    if pos != len(raw):
        raise Truncated("unexpected trailing bytes")
    return DiagPacket(use_case=use_case, origin=origin, reports=tuple(reports), sequence_no=seq)


# --- JSON views (CLI reports and the passport store) ---


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


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _json_ints(value, what: str) -> tuple:
    if type(value) is not list:
        raise TypeError(f"{what} must be a list of integers, not {type(value).__name__}")
    return tuple(json_int(v, f"{what} entry") for v in value)


def report_from_json(obj: dict) -> BpcReport:
    return BpcReport(
        pack_id=bytes.fromhex(obj["pack_id"]),
        timestamp=json_int(obj["timestamp"], "timestamp"),
        soc_permille=json_int(obj["soc_permille"], "soc_permille"),
        soh_permille=json_int(obj["soh_permille"], "soh_permille"),
        cell_voltages_mv=_json_ints(obj["cell_voltages_mv"], "cell_voltages_mv"),
        temperatures_dk=_json_ints(obj["temperatures_dk"], "temperatures_dk"),
        status_flags=json_int(obj.get("status_flags", 0), "status_flags"),
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
        sequence_no=json_int(obj["sequence_no"], "sequence_no"),
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
    if topology == Topology.DECENTRALIZED:
        if not subsystems:
            raise EmptyInput("a decentralized plan needs its subsystem list")
        plans = [topology_plan(t, n) for t, n in subsystems]
        return InterfacePlan(
            ntag_count=sum(p.ntag_count for p in plans),
            reader_count=sum(p.reader_count for p in plans),
            idle_feasible=all(p.idle_feasible for p in plans),
            note="linear sum over subsystems",
        )
    if module_count < 1:
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
