"""Diagnostic payloads: aggregation, codec, topology planning."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from itertools import cycle, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nfcbms import diagnostics as dg
from nfcbms.errors import DuplicatePackId, EmptyInput, RangeViolation, Truncated


def make_report(n: int = 0, cells: int = 4) -> dg.BpcReport:
    return dg.BpcReport(
        pack_id=bytes([n]) * 8,
        timestamp=1_700_000_000 + n,
        soc_permille=875,
        soh_permille=990,
        cell_voltages_mv=tuple(3700 + i for i in range(cells)),
        temperatures_dk=(2931, 2945),
        status_flags=int(dg.StatusFlags.STORED),
    )


# --- aggregation ---


def test_collect_preserves_order():
    reports = [make_report(1), make_report(2), make_report(3)]
    packet = dg.collect_from_bpcs(reports, seq=9)
    assert packet.use_case == dg.UseCase.ACTIVE_DIAG
    assert packet.origin == dg.Origin.BMS_CONTROLLER
    assert packet.sequence_no == 9
    assert [r.pack_id for r in packet.reports] == [r.pack_id for r in reports]


def test_collect_duplicate_pack_id_rejected():
    with pytest.raises(DuplicatePackId):
        dg.collect_from_bpcs([make_report(1), make_report(1)], seq=0)


def test_collect_empty_rejected():
    with pytest.raises(EmptyInput):
        dg.collect_from_bpcs([], seq=0)


def test_collect_single_report_is_valid():
    # centralized topology degenerate case: one controller, one packet
    packet = dg.collect_from_bpcs([make_report(1)], seq=0)
    assert len(packet.reports) == 1


def test_idle_packet_carries_exactly_one_report():
    packet = dg.idle_packet(make_report(1), seq=3)
    assert packet.use_case == dg.UseCase.IDLE_DIAG
    with pytest.raises(RangeViolation):
        dg.DiagPacket(
            use_case=dg.UseCase.IDLE_DIAG,
            origin=dg.Origin.BPC,
            reports=(make_report(1), make_report(2)),
            sequence_no=0,
        )


@pytest.mark.parametrize(
    "use_case, origin, reports, detail",
    [
        (dg.Origin.BPC, dg.Origin.BPC, (make_report(1),), "use_case must be a UseCase, not Origin"),
        (dg.UseCase.IDLE_DIAG, dg.UseCase.IDLE_DIAG, (make_report(1),), "origin must be an Origin, not UseCase"),
        (dg.UseCase.IDLE_DIAG, dg.Origin.BPC, [make_report(1)], "reports must be a tuple, not list"),
        (dg.UseCase.ACTIVE_DIAG, dg.Origin.BMS_CONTROLLER, (make_report(1), dg.report_to_json(make_report(2))),
         "report must be a BpcReport, not dict"),
    ],
    ids=["use-case-an-origin", "origin-a-use-case", "reports-a-list", "report-a-dict"],
)
def test_packet_refuses_a_field_of_another_type(use_case, origin, reports, detail):
    # the JSON view writes use_case and origin by name, so an origin given as a use case
    # would be written as a line the store reader refuses
    with pytest.raises(RangeViolation, match=f"^{detail}$"):
        dg.DiagPacket(use_case, origin, reports, 0)


def test_packet_carries_at_most_65535_reports():
    # report_count is two bytes
    def packet(reports):
        return dg.DiagPacket(
            use_case=dg.UseCase.ACTIVE_DIAG,
            origin=dg.Origin.BMS_CONTROLLER,
            reports=tuple(reports),
            sequence_no=0,
        )

    # pack ids are distinct within a packet
    reports = [replace(make_report(1), pack_id=n.to_bytes(8, "big")) for n in range(dg.MAX_REPORTS + 1)]
    packet(reports[:-1])
    with pytest.raises(RangeViolation, match="at most 65535"):
        packet(reports)


# --- codec ---


def test_golden_one_report_packet():
    packet = dg.idle_packet(
        dg.BpcReport(
            pack_id=bytes.fromhex("0102030405060708"),
            timestamp=1_700_000_000,
            soc_permille=875,
            soh_permille=990,
            cell_voltages_mv=(3701, 3702, 3703, 3704),
            temperatures_dk=(2931, 2945),
            status_flags=0x0010,
        ),
        seq=7,
    )
    assert dg.encode_diag(packet).hex() == (
        "0201000000070001"
        "0102030405060708"
        "000000006553f100"
        "036b03de0010"
        "040e750e760e770e78"
        "020b730b81"
    )


def test_roundtrip_fixed():
    packet = dg.collect_from_bpcs([make_report(1), make_report(2)], seq=77)
    assert dg.decode_diag(dg.encode_diag(packet)) == packet


report_strategy = st.builds(
    dg.BpcReport,
    pack_id=st.binary(min_size=8, max_size=8),
    timestamp=st.integers(min_value=0, max_value=(1 << 64) - 1),
    soc_permille=st.integers(min_value=0, max_value=1000),
    soh_permille=st.integers(min_value=0, max_value=1000),
    cell_voltages_mv=st.lists(
        st.integers(min_value=0, max_value=5000), min_size=1, max_size=32
    ).map(tuple),
    temperatures_dk=st.lists(
        st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1), max_size=8
    ).map(tuple),
    status_flags=st.integers(min_value=0, max_value=0xFFFF),
)


@given(
    st.lists(report_strategy, min_size=1, max_size=5, unique_by=lambda r: r.pack_id),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_roundtrip_random_packets(reports, seq):
    packet = dg.DiagPacket(
        use_case=dg.UseCase.ACTIVE_DIAG,
        origin=dg.Origin.BMS_CONTROLLER,
        reports=tuple(reports),
        sequence_no=seq,
    )
    decoded = dg.decode_diag(dg.encode_diag(packet))
    assert decoded == packet


def test_soc_out_of_range_rejected():
    with pytest.raises(RangeViolation):
        dg.BpcReport(
            pack_id=bytes(8),
            timestamp=0,
            soc_permille=1001,
            soh_permille=0,
            cell_voltages_mv=(3700,),
            temperatures_dk=(),
        )


# --- construction checks every field once ---


def around(lo: int, hi: int):
    """Integers at and just past both bounds of ``lo..hi``."""
    return st.sampled_from([lo - 1, lo, hi, hi + 1])


def inside(lo: int, hi: int):
    """Integers at both bounds of ``lo..hi``, and anywhere between."""
    return st.sampled_from([lo, hi]) | st.integers(lo, hi)


def report_fields(ints) -> dict:
    """A strategy per BpcReport field; ``ints(lo, hi)`` draws every integer,
    length included, for its documented range ``lo..hi``."""

    def sized(lo, hi, element):
        # a few drawn values repeated to the drawn length keep long tuples cheap
        return st.tuples(ints(lo, hi), st.lists(element, min_size=1, max_size=4)).map(
            lambda t: tuple(islice(cycle(t[1]), max(t[0], 0)))
        )

    return {
        "pack_id": ints(8, 8).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        "timestamp": ints(0, (1 << 64) - 1),
        "soc_permille": ints(0, 1000),
        "soh_permille": ints(0, 1000),
        "cell_voltages_mv": sized(1, 32, ints(0, 5000)),
        "temperatures_dk": sized(0, 255, ints(-(1 << 15), (1 << 15) - 1)),
        "status_flags": ints(0, 0xFFFF),
    }


def in_documented_range(f: dict) -> bool:
    return (
        len(f["pack_id"]) == 8
        and 0 <= f["timestamp"] <= (1 << 64) - 1
        and 0 <= f["soc_permille"] <= 1000
        and 0 <= f["soh_permille"] <= 1000
        and 1 <= len(f["cell_voltages_mv"]) <= 32
        and all(0 <= v <= 5000 for v in f["cell_voltages_mv"])
        and len(f["temperatures_dk"]) <= 255
        and all(-(1 << 15) <= t <= (1 << 15) - 1 for t in f["temperatures_dk"])
        and 0 <= f["status_flags"] <= 0xFFFF
    )


valid_reports = st.fixed_dictionaries(report_fields(inside)).map(lambda f: dg.BpcReport(**f))


@pytest.mark.parametrize("edge", sorted(report_fields(around)))
@settings(max_examples=40)
@given(data=st.data())
def test_report_builds_iff_every_field_is_in_range(edge, data):
    # one field drawn at or just past its bounds, the others anywhere in range
    strategies = dict(report_fields(inside), **{edge: report_fields(around)[edge]})
    fields = data.draw(st.fixed_dictionaries(strategies))
    if in_documented_range(fields):
        dg.BpcReport(**fields)
    else:
        with pytest.raises(RangeViolation):
            dg.BpcReport(**fields)


@given(
    st.sampled_from(dg.UseCase),
    st.sampled_from(dg.Origin),
    st.lists(valid_reports, max_size=3),
    around(0, (1 << 32) - 1),
)
def test_packet_builds_iff_in_range_and_round_trips(use_case, origin, reports, seq):
    in_range = (
        0 <= seq <= (1 << 32) - 1
        and len(reports) >= 1
        and (use_case != dg.UseCase.IDLE_DIAG or len(reports) == 1)
        and len({r.pack_id for r in reports}) == len(reports)
    )
    if not in_range:
        with pytest.raises((RangeViolation, EmptyInput, DuplicatePackId)):
            dg.DiagPacket(use_case, origin, tuple(reports), seq)
        return
    packet = dg.DiagPacket(use_case, origin, tuple(reports), seq)
    assert dg.decode_diag(dg.encode_diag(packet)) == packet
    assert dg.packet_from_json(json.loads(json.dumps(dg.packet_to_json(packet)))) == packet


# values of every JSON type but an integer: what a field of another type may hold in a reports file
NOT_AN_INTEGER = (st.text(max_size=3) | st.floats() | st.booleans() | st.none()
                  | st.lists(st.integers(0, 9), max_size=2)
                  | st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2))
ANY_JSON = NOT_AN_INTEGER | st.integers()
FIELDS = ("pack_id", "timestamp", "soc_permille", "soh_permille", "cell_voltages_mv", "temperatures_dk",
          "status_flags")  # the JSON reader's order
LISTS = ("cell_voltages_mv", "temperatures_dk")
# per field: values of another type, and the noun of its type rule
WRONG = {"pack_id": (ANY_JSON, "bytes"),
         **dict.fromkeys(LISTS, (ANY_JSON.filter(lambda v: type(v) is not list), "a list of integers"))}


def listed(fields: dict) -> dict:
    """The JSON view of report fields: each tuple of integers a list."""
    return {name: list(v) if type(v) is tuple else v for name, v in fields.items()}


@pytest.mark.parametrize("first", FIELDS)
@settings(max_examples=100)
@given(report=valid_reports, data=st.data())
def test_the_json_lists_and_the_wire_tuples_take_one_route(first, report, data):
    wire = {name: getattr(report, name) for name in FIELDS}
    assert dg.BpcReport(**listed(wire)) == dg.BpcReport(**wire) == report
    # a field of another JSON type (a list's entry, or the list itself), perhaps with one more after
    # it in the reader's order: both forms name the first, and no range check ever sees a wrong type
    rest = FIELDS[FIELDS.index(first) + 1:]
    later = [data.draw(st.sampled_from(rest))] if rest and data.draw(st.booleans()) else []
    texts = {}
    for name in [first] + later:
        if name in LISTS and data.draw(st.booleans()):
            value, at = data.draw(NOT_AN_INTEGER), data.draw(st.integers(0, len(wire[name])))
            wire[name] = wire[name][:at] + (value,) + wire[name][at:]
            texts[name] = f"{name} entry must be an integer, not {type(value).__name__}"
            continue
        wrong, noun = WRONG.get(name, (NOT_AN_INTEGER, "an integer"))
        wire[name] = value = data.draw(wrong)
        texts[name] = f"{name} must be {noun}, not {type(value).__name__}"
    if "soc_permille" not in texts and data.draw(st.booleans()):
        wire["soc_permille"] = 5000  # out of range: checked after every type
    for fields in (wire, listed(wire)):
        with pytest.raises(RangeViolation) as raised:
            dg.BpcReport(**fields)
        assert str(raised.value) == texts[first]


def test_the_codec_prepares_one_struct_per_count_on_first_use():
    # a fresh process: importing builds none, a round trip builds one per count it meets, cells and temperatures
    script = (
        "from nfcbms import diagnostics as dg\n"
        "before = dg._array.cache_info().currsize\n"
        "packet = dg.collect_from_bpcs([dg.BpcReport(bytes([n]) * 8, 0, 0, 0, (3700,) * 4, (2931, 2945))"
        " for n in range(3)], seq=0)\n"
        "assert dg.decode_diag(dg.encode_diag(packet)) == packet\n"
        "print(before, dg._array.cache_info().currsize)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "0 2\n", "")


def test_decode_truncated():
    raw = dg.encode_diag(dg.collect_from_bpcs([make_report(1)], seq=0))
    with pytest.raises(Truncated):
        dg.decode_diag(raw[:-1])
    with pytest.raises(Truncated):
        dg.decode_diag(raw + b"\x00")
    with pytest.raises(Truncated):
        dg.decode_diag(raw[:5])


def test_decode_repeated_pack_id_rejected():
    raw = bytearray(dg.encode_diag(dg.collect_from_bpcs([make_report(1), make_report(2)], seq=0)))
    second = dg.HEADER_LEN + dg.REPORT_FIXED_LEN + 2 * 4 + 1 + 2 * 2  # past report 1 of 4 cells, 2 temps
    assert raw[second:second + 8] == bytes([2]) * 8
    raw[second:second + 8] = bytes([1]) * 8
    with pytest.raises(DuplicatePackId, match=f"pack id {'01' * 8} appears twice"):
        dg.decode_diag(bytes(raw))


def test_decode_bad_use_case():
    raw = bytearray(dg.encode_diag(dg.collect_from_bpcs([make_report(1)], seq=0)))
    raw[0] = 0x77
    with pytest.raises(RangeViolation):
        dg.decode_diag(bytes(raw))


def test_decode_soc_out_of_range():
    raw = bytearray(dg.encode_diag(dg.collect_from_bpcs([make_report(1)], seq=0)))
    # soc lives right after the header (8) + pack_id (8) + timestamp (8)
    raw[24:26] = (1001).to_bytes(2, "big")
    with pytest.raises(RangeViolation):
        dg.decode_diag(bytes(raw))


def test_json_roundtrip():
    packet = dg.collect_from_bpcs([make_report(4), make_report(5)], seq=2)
    assert dg.packet_from_json(dg.packet_to_json(packet)) == packet


# --- topology ---


def test_topology_centralized():
    plan = dg.topology_plan(dg.Topology.CENTRALIZED, 1)
    assert (plan.ntag_count, plan.reader_count, plan.idle_feasible) == (1, 1, False)


def test_topology_distributed_four_modules():
    plan = dg.topology_plan(dg.Topology.DISTRIBUTED, 4)
    assert (plan.ntag_count, plan.reader_count, plan.idle_feasible) == (5, 5, True)


def test_topology_modulated_matches_distributed_rule():
    assert dg.topology_plan(dg.Topology.MODULATED, 3) == dg.topology_plan(
        dg.Topology.DISTRIBUTED, 3
    )


def test_topology_decentralized_sums_subsystems():
    plan = dg.topology_plan(
        dg.Topology.DECENTRALIZED,
        subsystems=[(dg.Topology.DISTRIBUTED, 2), (dg.Topology.DISTRIBUTED, 3)],
    )
    two = dg.topology_plan(dg.Topology.DISTRIBUTED, 2)
    three = dg.topology_plan(dg.Topology.DISTRIBUTED, 3)
    assert plan.ntag_count == two.ntag_count + three.ntag_count == 7
    assert plan.reader_count == two.reader_count + three.reader_count == 7
    assert plan.idle_feasible


def test_topology_monotone_in_module_count():
    for topology in (dg.Topology.MODULATED, dg.Topology.DISTRIBUTED):
        counts = [dg.topology_plan(topology, n).ntag_count for n in range(1, 10)]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


def test_decentralized_requires_subsystems():
    with pytest.raises(EmptyInput):
        dg.topology_plan(dg.Topology.DECENTRALIZED)


@pytest.mark.parametrize(("topology", "module_count", "subsystems", "detail"), [
    (dg.Topology.MODULATED, 2.5, None, "module_count must be an integer, not float"),
    (dg.Topology.DISTRIBUTED, True, None, "module_count must be an integer, not bool"),
    (dg.Topology.CENTRALIZED, 1.0, None, "module_count must be an integer, not float"),
    (99, 3, None, "topology must be a Topology, not int"),
    (3, 3, None, "topology must be a Topology, not int"),
    (dg.Topology.CENTRALIZED, 0, None, "module_count must be >= 1"),
    (dg.Topology.DISTRIBUTED, -2, None, "module_count must be >= 1"),
    (dg.Topology.DECENTRALIZED, 1, [(dg.Topology.DISTRIBUTED, 2.0)], "module_count must be an integer, not float"),
    (dg.Topology.DECENTRALIZED, 1, [(2, 2)], "topology must be a Topology, not int"),
])
def test_topology_plan_rejects_what_it_cannot_plan(topology, module_count, subsystems, detail):
    with pytest.raises(RangeViolation, match=f"^{detail}$"):
        dg.topology_plan(topology, module_count, subsystems)
