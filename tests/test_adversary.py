"""Adversary harness: honest delivery, blocked attacks, determinism."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from nfcbms import adversary as adv, diagnostics as dg, sndef


def small_setup(seed: int = 1):
    rng = random.Random(seed)
    reader_cfg, controller_cfg = adv._session_configs(rng)
    workload = adv._random_workload(rng, 2)
    return reader_cfg, controller_cfg, workload


def test_honest_session_delivers_everything():
    reader_cfg, controller_cfg, workload = small_setup()
    outcome = adv.run_session(adv.LinkChannel(), reader_cfg, controller_cfg, workload)
    assert outcome.established
    assert outcome.packets_delivered == len(workload)
    assert outcome.first_failure is None
    assert outcome.secrecy_hits == []
    assert outcome.frames_on_link == 5 + len(workload)


def test_replayed_message2_blocked_at_message3():
    reader_cfg, controller_cfg, workload = small_setup(2)
    rng = random.Random(3)
    prior = adv._harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    strategy = adv.Replay(frame_index=2, prior_frames=prior)
    outcome = adv.run_session(
        adv.LinkChannel(strategy=strategy), reader_cfg, controller_cfg, workload
    )
    assert not outcome.established
    assert outcome.first_failure.frame_no == 3
    assert outcome.first_failure.operation == "reader_answer"
    assert outcome.first_failure.error == "AuthFailure"


def test_replayed_record_frame_blocked_with_tag_mismatch():
    reader_cfg, controller_cfg, workload = small_setup(4)
    rng = random.Random(5)
    prior = adv._harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    strategy = adv.Replay(frame_index=6, prior_frames=prior)
    outcome = adv.run_session(
        adv.LinkChannel(strategy=strategy), reader_cfg, controller_cfg, workload
    )
    assert outcome.established  # handshake itself was honest
    assert outcome.packets_delivered == 0
    assert outcome.first_failure.frame_no == 6
    assert outcome.first_failure.error == "TagMismatch"


def test_reflect_blocked_by_direction_asymmetry():
    reader_cfg, controller_cfg, workload = small_setup(6)
    outcome = adv.run_session(
        adv.LinkChannel(strategy=adv.Reflect()), reader_cfg, controller_cfg, workload
    )
    assert not outcome.established
    assert outcome.first_failure.frame_no == 4
    assert outcome.first_failure.operation == "controller_key_confirm"
    assert outcome.first_failure.error == "AuthFailure"


def test_bitflip_on_sealed_record_flagged():
    reader_cfg, controller_cfg, workload = small_setup(7)
    strategy = adv.BitFlip(frame_index=6, bit_index=777)
    outcome = adv.run_session(
        adv.LinkChannel(strategy=strategy), reader_cfg, controller_cfg, workload
    )
    assert outcome.first_failure is not None
    assert outcome.first_failure.frame_no == 6
    assert outcome.first_failure.error in ("TagMismatch", "Truncated", "BadFlags", "UnknownType")


def test_eavesdrop_sees_no_plaintext():
    reader_cfg, controller_cfg, workload = small_setup(8)
    strategy = adv.Eavesdrop()
    outcome = adv.run_session(
        adv.LinkChannel(strategy=strategy), reader_cfg, controller_cfg, workload
    )
    assert outcome.established
    assert outcome.secrecy_hits == []
    assert len(strategy.observed) == outcome.frames_on_link


def test_secrecy_scan_catches_a_leak():
    # sanity-check the detector itself with a deliberately leaky blob
    plaintext = dg.encode_diag(small_setup(9)[2][0])
    hits = adv.scan_secrecy(b"noise" + plaintext + b"noise", [plaintext])
    assert hits


def test_chosen_challenge_gets_double_transform_only():
    rng = random.Random(10)
    _, controller_cfg = adv._session_configs(rng)
    from nfcbms import secure_channel as sc

    strategy = adv.ChosenChallenge(probes=[sc.new_nonce(rng).bytes for _ in range(3)])
    outcome = adv.run_chosen_challenge(controller_cfg, strategy, rng)
    assert not outcome.established_controller
    assert outcome.first_failure.frame_no == 4
    assert len(strategy.responses) == 3
    for probe, response in strategy.responses:
        plain = (controller_cfg.principal_id + probe).ljust(32, b"\x00")
        single = sc._aes_cbc(controller_cfg.master.bytes, bytes(16), plain, decrypt=False)
        double = sc.double_encrypt(controller_cfg.master, plain, pad=False)
        assert response == double
        assert response != single


def test_suite_zero_successes_small():
    report = adv.run_attack_suite(21, runs_per_strategy=5)
    assert report.total_successes == 0
    for name, sreport in report.strategies.items():
        assert sreport.runs == 5
        assert sreport.leaks == 0
        if name != "eavesdrop":
            assert sum(sreport.blocked_at.values()) == 5, name


def test_suite_deterministic_under_seed():
    a = adv.run_attack_suite(33, runs_per_strategy=3)
    b = adv.run_attack_suite(33, runs_per_strategy=3)
    assert a.to_json() == b.to_json()
    c = adv.run_attack_suite(34, runs_per_strategy=3)
    assert a.to_json() != c.to_json()


def test_failure_locality_names_message_and_error():
    report = adv.run_attack_suite(55, runs_per_strategy=4)
    for name, sreport in report.strategies.items():
        if name == "eavesdrop":
            continue
        assert sreport.blocked_at, name
        assert sreport.errors, name
        demo = sreport.demo
        assert demo["first_failure"] is not None
        assert demo["first_failure"]["message"] >= 2


def test_canonical_demo_block_points():
    assert adv.canonical_demo("replay", 1).first_failure.frame_no == 3
    assert adv.canonical_demo("reflect", 1).first_failure.frame_no == 4
    assert adv.canonical_demo("chosen-challenge", 1).first_failure.frame_no == 4
    assert adv.canonical_demo("bitflip", 1).first_failure.frame_no == 5
    assert adv.canonical_demo("eavesdrop", 1).first_failure is None


def test_oversize_packet_is_recorded_not_raised():
    # 200 reports of 12 cells and 2 temperatures encode to 10408 bytes,
    # which seal and frame to 10456, over the 8192-byte NDEF cap
    reports = [
        dg.BpcReport(
            pack_id=n.to_bytes(8, "big"), timestamp=1 << 33, soc_permille=500, soh_permille=900,
            cell_voltages_mv=(3600,) * 12, temperatures_dk=(2930, 2940), status_flags=0,
        )
        for n in range(1, 201)
    ]
    reader_cfg, controller_cfg, workload = small_setup(11)
    workload = workload + [dg.collect_from_bpcs(reports, seq=2)]
    channel = adv.LinkChannel()
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    assert outcome.established
    assert outcome.packets_delivered == 2
    failure = outcome.first_failure
    assert (failure.frame_no, failure.operation, failure.error) == (8, "seal_record", "OversizeMessage")
    assert failure.detail == "encoded message is 10456 bytes, cap is 8192"
    assert outcome.frames_on_link == 7  # the oversize packet never reached the link
    assert "detail" not in outcome.to_json()["first_failure"]


@dataclass
class AppendRecord:
    """Append a second record to one frame in transit."""

    frame_index: int

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        if frame_no != self.frame_index:
            return wire
        records = sndef.decode_message(wire).records
        extra = sndef.NdefRecord(sndef.RecordType.DIAG_PLAIN, b"extra")
        return sndef.encode_message(sndef.NdefMessage(records + [extra]))


# a failure is reported at the message the receiving step would send
@pytest.mark.parametrize("frame_index, message, operation", [
    (1, 2, "controller_respond"),
    (2, 3, "reader_answer"),
    (5, 5, "controller_finalize"),
    (6, 6, "open_record"),
])
def test_link_frame_with_two_records_is_rejected(frame_index, message, operation):
    reader_cfg, controller_cfg, workload = small_setup(12)
    channel = adv.LinkChannel(strategy=AppendRecord(frame_index))
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    failure = outcome.first_failure
    assert (failure.frame_no, failure.operation, failure.error) == (message, operation, "BadFlags")
    assert outcome.packets_delivered == 0
