"""Adversary harness: honest delivery, blocked attacks, determinism."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import reference_crypto as ref
from nfcbms import adversary as adv, cli, diagnostics as dg, handshake as hs, secure_channel as sc, sndef
from nfcbms.errors import TagMismatch


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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("packets", [0, 1])
def test_the_link_driver_puts_the_direct_drivers_handshake_on_the_link(seed, packets):
    rng = random.Random(seed)
    reader_cfg, controller_cfg = adv._session_configs(rng)
    channel = adv.LinkChannel()
    adv.drive_session(channel, reader_cfg, controller_cfg, adv._random_workload(rng, packets))
    assert len(channel.transcript) == len(hs.FLOW) + packets
    handshake_frames = channel.transcript[:len(hs.FLOW)]
    on_link = [adv._unwrap(f.delivered, sndef.RecordType.HANDSHAKE) for f in handshake_frames]
    reader = hs.HandshakeState.reader(
        reader_cfg.principal_id, controller_cfg.principal_id, reader_cfg.master, random.Random(reader_cfg.seed)
    )
    controller = hs.HandshakeState.controller(
        controller_cfg.principal_id, reader_cfg.principal_id, controller_cfg.master,
        random.Random(controller_cfg.seed),
    )
    assert on_link == hs.run_honest_handshake(reader, controller)
    assert [f.direction for f in handshake_frames] == [direction for _, direction, _ in hs.FLOW]


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
    channel = adv.LinkChannel()  # the honest link
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    assert outcome.established
    assert outcome.secrecy_hits == []
    # passive: the adversary saw every frame and changed none
    assert len(channel.transcript) == outcome.frames_on_link == 5 + len(workload)
    assert all(f.sent == f.delivered for f in channel.transcript)
    # the eavesdrop entry plays that same honest session, and does not win
    played, won = adv.STRATEGIES["eavesdrop"](reader_cfg, controller_cfg, workload, random.Random(0), False)
    assert played == outcome
    assert not won and played.secrecy_hits == []


def test_secrecy_scan_catches_a_leak():
    # sanity-check the detector itself with a deliberately leaky blob
    plaintext = dg.encode_diag(small_setup(9)[2][0])
    hits = adv.scan_secrecy(b"noise" + plaintext + b"noise", [plaintext])
    assert hits


def test_chosen_challenge_gets_double_transform_only():
    rng = random.Random(10)
    _, controller_cfg = adv._session_configs(rng)
    probes = [sc.new_nonce(rng).bytes for _ in range(3)]
    outcome = adv.run_chosen_challenge(controller_cfg, probes, rng)
    assert not outcome.established_controller
    assert outcome.first_failure.frame_no == 4
    assert outcome.secrecy_hits == []
    key = controller_cfg.master.bytes
    for probe in probes:
        # each probe meets a fresh controller of the same config, as in the play, and is answered
        controller = controller_cfg.endpoint(hs.Role.CONTROLLER, b"ADVR")
        response = controller.controller_respond(hs.frame(1, b"ADVR", probe))[hs.FRAME_HEADER_LEN + 16:]
        plain = (controller_cfg.principal_id + probe).ljust(32, b"\x00")
        single = ref.cbc_encrypt(key, bytes(16), plain)
        double = ref.cbc_encrypt(key, bytes(16), single)
        assert response == double
        assert response != single


def test_a_single_pass_oracle_wins_chosen_challenge_and_fails_attack(monkeypatch, capsys):
    """The canary: a controller that answers message 1 with one CBC pass."""
    respond = hs.HandshakeState.controller_respond

    def respond_with_one_pass(self, msg1):
        head = respond(self, msg1)[:hs.FRAME_HEADER_LEN + 16]
        return head + ref.cbc_encrypt(self.master.bytes, bytes(16), hs.challenge_plain(self.self_id, self.ch_r))

    monkeypatch.setattr(hs.HandshakeState, "controller_respond", respond_with_one_pass)
    report = adv.run_attack_suite(3, runs_per_strategy=5, strategies=("chosen-challenge",))
    played = report.strategies["chosen-challenge"]
    assert (played.successes, played.leaks, report.total_successes) == (5, 5, 5)
    assert cli.main(["attack", "--strategy", "chosen-challenge", "--runs", "5", "--seed", "3"]) == cli.EXIT_PROTOCOL
    assert json.loads(capsys.readouterr().out)["report"]["total_successes"] == 5


def seal_in_the_clear(state, plaintext, add_data, rng):
    """A record channel that skips encryption: the padded plaintext is sent as is, its tags still chained."""
    iv, sec_data = rng.randbytes(sc.BLOCK), sc.pkcs7_pad(plaintext)
    state.last_tag_sent = sc._chained_tag(state.keys.mac, sec_data, iv, add_data, state.last_tag_sent)
    return sc.SecureRecord(iv, sec_data, add_data, state.last_tag_sent)


def open_in_the_clear(state, record):
    expected = sc._chained_tag(state.keys.mac, record.sec_data, record.iv, record.add_data, state.last_tag_received)
    if expected != record.tag:
        raise TagMismatch("record tag does not verify at this chain position")
    state.last_tag_received = record.tag
    return sc.pkcs7_unpad(record.sec_data)


def open_without_the_tag(state, record):
    """A reader that decrypts a record without checking its tag."""
    state.last_tag_received = record.tag
    return sc.pkcs7_unpad(state.keys.enc.cbc_decrypt(record.iv, record.sec_data))


@pytest.mark.parametrize("name, weakness, seeds, runs, counts", [
    # counts at seed 3: (successes, leaks); a channel in the clear also lets replay win 3 of 10 and bitflip 4
    ("eavesdrop", {"seal_record": seal_in_the_clear, "open_record": open_in_the_clear}, (0, 1, 2), 10, (10, 10)),
    # most flips still break the padding or the packet; no other strategy wins
    ("bitflip", {"open_record": open_without_the_tag}, (50, 63, 101), 40, (3, 0)),
], ids=["eavesdrop-channel-in-the-clear", "bitflip-tag-unchecked"])
def test_a_planted_weakness_wins_its_play_and_fails_attack(name, weakness, seeds, runs, counts, monkeypatch, capsys):
    """The canaries: each judge says `won` once the record channel is weakened, in the test only."""
    assert not any(adv._run(name, random.Random(seed))[1] for seed in seeds)
    for attr, weak in weakness.items():
        monkeypatch.setattr(sc, attr, weak)
    for seed in seeds:
        outcome, won = adv._run(name, random.Random(seed))
        assert won and outcome.established, seed
    report = adv.run_attack_suite(3, runs_per_strategy=runs, strategies=(name,))
    played = report.strategies[name]
    assert (played.successes, played.leaks) == counts
    assert report.total_successes == counts[0]
    assert cli.main(["attack", "--strategy", name, "--runs", str(runs), "--seed", "3"]) == cli.EXIT_PROTOCOL
    assert json.loads(capsys.readouterr().out)["report"]["total_successes"] == counts[0]


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
        # a well-formed two-record NDEF message: MB on the first record only, ME on the last only
        extra = sndef.encode_message(sndef.RecordType(wire[0]), b"extra")
        return bytes([wire[0], sndef.FLAG_MB]) + wire[2:] + bytes([extra[0], sndef.FLAG_ME]) + extra[2:]


@dataclass
class Retype:
    """Swap one frame's record type, HANDSHAKE <-> SNDEF_SECURE, in transit."""

    frame_index: int

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        if frame_no != self.frame_index:
            return wire
        (record,) = sndef.decode_message(wire).records
        handshake, secure = sndef.RecordType.HANDSHAKE, sndef.RecordType.SNDEF_SECURE
        retyped = secure if record.type_code == handshake else handshake
        return sndef.encode_message(retyped, record.payload)


# a failure is reported at the message the receiving step would send, and
# the operation is that step (docs/formats.md, "Link")
LINK_FAILURE_POINTS = [
    (1, 2, "controller_respond"),
    (2, 3, "reader_answer"),
    (5, 5, "controller_finalize"),
    (6, 6, "open_record"),
]


@pytest.mark.parametrize("frame_index, message, operation", LINK_FAILURE_POINTS)
def test_link_frame_with_two_records_is_rejected(frame_index, message, operation):
    reader_cfg, controller_cfg, workload = small_setup(12)
    channel = adv.LinkChannel(strategy=AppendRecord(frame_index))
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    failure = outcome.first_failure
    assert (failure.frame_no, failure.operation, failure.error) == (message, operation, "BadFlags")
    assert failure.detail == "final record lacks ME"
    assert outcome.packets_delivered == 0


@pytest.mark.parametrize("frame_index, message, operation", LINK_FAILURE_POINTS)
def test_link_frame_of_the_wrong_record_type_is_rejected(frame_index, message, operation):
    reader_cfg, controller_cfg, workload = small_setup(12)
    channel = adv.LinkChannel(strategy=Retype(frame_index))
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    failure = outcome.first_failure
    assert (failure.frame_no, failure.operation, failure.error) == (message, operation, "UnknownType")
    wanted, got = ("SNDEF_SECURE", "HANDSHAKE") if frame_index >= 6 else ("HANDSHAKE", "SNDEF_SECURE")
    assert failure.detail == f"expected {wanted}, got {got}"
    assert outcome.packets_delivered == 0


# --- the transcript blob: every link byte once ---


def windows(data: bytes) -> list:
    return [data[i:i + adv.SECRECY_WINDOW] for i in range(len(data) - adv.SECRECY_WINDOW + 1)]


frame_copies = st.one_of(
    st.binary(max_size=40).map(lambda sent: (sent, sent)),  # delivered unchanged
    st.tuples(st.binary(max_size=40), st.binary(max_size=40)).filter(lambda copies: copies[0] != copies[1]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(frame_copies, min_size=1, max_size=6))
def test_the_blob_holds_each_unchanged_frame_once_and_loses_only_its_own_seam(frames):
    channel = adv.LinkChannel()
    for n, (sent, delivered) in enumerate(frames, start=1):
        channel.transcript.append(adv.FrameLog(n, "controller->reader", sent, delivered))
    blob = channel.transcript_blob()
    old = b"".join(sent + delivered for sent, delivered in frames)
    assert len(blob) == sum(len(s) + len(d) * (s != d) for s, d in frames)
    # (a) no window appears that sent | delivered lacks, if no unchanged frame is shorter than 7 bytes
    if all(len(s) >= adv.SECRECY_WINDOW - 1 for s, d in frames if s == d):
        assert all(window in old for window in windows(blob))
    # (b) every window of sent | delivered is kept, except those across an unchanged frame's own seam
    seams, at = [], 0
    for sent, delivered in frames:
        if sent == delivered:
            seams.append(at + len(sent))
        at += len(sent) + len(delivered)
    for i, window in enumerate(windows(old)):
        if not any(i < seam < i + adv.SECRECY_WINDOW for seam in seams):
            assert window in blob


def test_an_honest_bulk_session_puts_each_link_byte_in_the_blob_once():
    reader_cfg, controller_cfg, _ = small_setup(14)
    channel = adv.LinkChannel()
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, bulk_workload(random.Random(14)))
    assert outcome.established and outcome.secrecy_hits == []
    assert channel.transcript_blob() == b"".join(f.sent for f in channel.transcript)


def test_a_bitflip_session_keeps_both_copies_of_the_flipped_frame_only():
    reader_cfg, controller_cfg, workload = small_setup(7)
    channel = adv.LinkChannel(strategy=adv.BitFlip(frame_index=3, bit_index=200))
    adv.run_session(channel, reader_cfg, controller_cfg, workload)
    assert [f.frame_no for f in channel.transcript if f.sent != f.delivered] == [3]
    assert channel.transcript_blob() == b"".join(
        f.sent + f.delivered if f.frame_no == 3 else f.sent for f in channel.transcript
    )


# --- the secrecy scan against its window-by-window reference ---


def reference_scan(transcript_blob: bytes, plaintexts: list) -> list:
    """The quadratic scan, kept verbatim: the linear one must match it exactly."""
    hits = []
    for plain in plaintexts:
        for i in range(len(plain) - adv.SECRECY_WINDOW + 1):
            window = plain[i:i + adv.SECRECY_WINDOW]
            if window in transcript_blob:
                hits.append(window.hex())
                break  # one hit per plaintext is enough evidence
    return hits


# the longest plaintext that is still checked window by window only
LONGEST_DIRECT = adv.SCAN_DIRECT_MAX_WINDOWS + adv.SECRECY_WINDOW - 1


def blob_of(pieces: list) -> bytes:
    """The transcript blob of frames whose sent and delivered copies are
    ``pieces[0], pieces[1]``, then ``pieces[2], pieces[3]`` and so on."""
    channel = adv.LinkChannel()
    for n in range(0, len(pieces), 2):
        channel.transcript.append(
            adv.FrameLog(n // 2 + 1, "controller->reader", pieces[n], pieces[n + 1])
        )
    return channel.transcript_blob()


def plant(pieces: list, j: int, window: bytes, cut: int) -> None:
    """Split ``window`` over the boundary between pieces ``j`` and ``j + 1``."""
    pieces[j] += window[:cut]
    pieces[j + 1] = window[cut:] + pieces[j + 1]


@st.composite
def scan_inputs(draw):
    """Frames and plaintexts over a 1-4 symbol alphabet, so windows recur
    often, and maybe one plaintext's first or last window planted across a
    sent/delivered boundary (even ``j``) or a frame boundary (odd ``j``).
    About half the examples mix in 2-4 plaintexts above the threshold,
    which share the session's one set, and plant the leak in one of them."""
    symbols = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    to_symbols = bytes(symbols[b % len(symbols)] for b in range(256))

    def text(lengths):
        return lengths.flatmap(
            lambda n: st.binary(min_size=n, max_size=n).map(lambda b: b.translate(to_symbols))
        )

    lengths = st.one_of(
        st.integers(0, adv.SECRECY_WINDOW),  # no window, or exactly one
        st.integers(LONGEST_DIRECT - 1, LONGEST_DIRECT + 2),  # both sides of the threshold
        st.integers(0, 300),
    )
    plaintexts = draw(st.lists(text(lengths), max_size=4))
    frames = draw(st.integers(1, 6))
    pieces = draw(st.lists(text(st.integers(0, 40)), min_size=2 * frames, max_size=2 * frames))
    if draw(st.booleans()):
        leaky = draw(st.lists(text(st.integers(LONGEST_DIRECT + 1, 300)), min_size=2, max_size=4))
        plaintexts = draw(st.permutations(plaintexts + leaky))
        where = draw(st.sampled_from(["first", "last"]))
    else:
        leaky = [p for p in plaintexts if len(p) >= adv.SECRECY_WINDOW]
        where = draw(st.sampled_from(["none", "first", "last"]))
    if leaky and where != "none":
        plain = draw(st.sampled_from(leaky))
        window = plain[:adv.SECRECY_WINDOW] if where == "first" else plain[-adv.SECRECY_WINDOW:]
        plant(pieces, draw(st.integers(0, len(pieces) - 2)), window,
              draw(st.integers(0, adv.SECRECY_WINDOW)))
    return blob_of(pieces), plaintexts


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
def test_scan_secrecy_equals_the_window_by_window_reference(inputs):
    blob, plaintexts = inputs
    assert adv.scan_secrecy(blob, plaintexts) == reference_scan(blob, plaintexts)


@pytest.mark.parametrize("length", [adv.SECRECY_WINDOW, LONGEST_DIRECT, LONGEST_DIRECT + 1, 8000])
@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("boundary", [0, 1], ids=["sent|delivered", "frame|frame"])
def test_scan_names_a_window_planted_across_a_boundary(length, where, boundary):
    rng = random.Random(length)
    plain = rng.randbytes(length)
    window = plain[:adv.SECRECY_WINDOW] if where == "first" else plain[-adv.SECRECY_WINDOW:]
    pieces = [rng.randbytes(40) for _ in range(4)]
    plant(pieces, boundary, window, 3)
    blob = blob_of(pieces)
    plaintexts = [plain[:adv.SECRECY_WINDOW - 1], plain, rng.randbytes(length)]
    assert adv.scan_secrecy(blob, plaintexts) == reference_scan(blob, plaintexts) == [window.hex()]


@pytest.mark.parametrize("leaking", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_scan_names_every_leaking_long_plaintext_in_plaintext_order(leaking):
    rng = random.Random(sum(leaking))
    plaintexts = [rng.randbytes(LONGEST_DIRECT + 1 + 100 * n) for n in range(4)]
    pieces = [rng.randbytes(40) for _ in range(6)]
    windows = [plaintexts[n][-adv.SECRECY_WINDOW:] for n in leaking]
    plant(pieces, 3, windows[1], 5)  # the later plaintext's leak goes on the wire first
    plant(pieces, 4, windows[0], 2)
    blob = blob_of(pieces)
    expected = [window.hex() for window in windows]
    assert adv.scan_secrecy(blob, plaintexts) == reference_scan(blob, plaintexts) == expected


class SearchCountingBlob(bytes):
    """A transcript that counts the substring searches made in it."""

    searches = 0

    def __contains__(self, window) -> bool:
        self.searches += 1
        return super().__contains__(window)


@pytest.mark.parametrize("lengths, transcript_walks", [
    ([], 0),
    ([0, adv.SECRECY_WINDOW - 1, adv.SECRECY_WINDOW, LONGEST_DIRECT], 0),
    ([LONGEST_DIRECT + 1], 1),
    ([LONGEST_DIRECT + 1, LONGEST_DIRECT], 1),
    ([LONGEST_DIRECT, 300, LONGEST_DIRECT + 1, 8000], 1),
], ids=["none", "all-short", "one-long", "long-and-short", "mixed"])
def test_a_clean_scan_walks_the_transcript_once_and_only_for_long_plaintexts(
    monkeypatch, lengths, transcript_walks
):
    rng = random.Random(len(lengths))
    plaintexts = [rng.randbytes(n) for n in lengths]
    blob = SearchCountingBlob(blob_of([rng.randbytes(200) for _ in range(4)]))
    viewed = []
    blocks, words = adv._blocks, adv._words
    monkeypatch.setattr(adv, "_blocks", lambda data: viewed.append((data, "blocks")) or blocks(data))
    monkeypatch.setattr(adv, "_words", lambda data, width: viewed.append((data, width)) or words(data, width))
    assert adv.scan_secrecy(blob, plaintexts) == []
    if not transcript_walks:
        assert viewed == []
    else:  # one set of the link's aligned blocks, each plaintext's 4-byte windows checked against it once
        assert viewed == [(blob, "blocks"), *((plain, adv.BLOCK) for plain in plaintexts)]
        assert blob.searches == 0  # the set covered the short plaintexts too: no window-by-window search


@pytest.mark.parametrize("tail", range(adv.BLOCK), ids=lambda tail: f"length%4={tail}")
@pytest.mark.parametrize("phase", range(adv.BLOCK), ids=lambda phase: f"offset%4={phase}")
def test_scan_finds_a_window_at_every_offset_in_every_blob_length(phase, tail):
    rng = random.Random(adv.BLOCK * phase + tail)
    plain = rng.randbytes(LONGEST_DIRECT + 1)
    window = plain[40:40 + adv.SECRECY_WINDOW]
    # the window starts at ``phase`` mod 4 and ends 0-3 bytes before the blob does; where
    # phase + suffix < 4 its only aligned block is the blob's last full one
    suffix = (tail - phase) % adv.BLOCK
    blob = rng.randbytes(100 + phase) + window + rng.randbytes(suffix)
    assert len(blob) % adv.BLOCK == tail and blob.index(window) % adv.BLOCK == phase
    plaintexts = [rng.randbytes(LONGEST_DIRECT + 1), plain]
    assert adv.scan_secrecy(blob, plaintexts) == reference_scan(blob, plaintexts) == [window.hex()]


def test_a_frame_header_word_in_a_plaintext_is_no_leak_and_costs_no_search():
    rng = random.Random(27)
    header = bytes.fromhex("00000027")
    pieces = [rng.randbytes(12) + header + rng.randbytes(24)] + [rng.randbytes(40) for _ in range(3)]
    blob = SearchCountingBlob(blob_of(pieces))
    plaintexts = [rng.randbytes(100) + header + rng.randbytes(100)]
    assert int.from_bytes(header, sys.byteorder) in set(adv._blocks(blob))  # the plaintext meets the block set
    assert reference_scan(bytes(blob), plaintexts) == []
    assert adv.scan_secrecy(blob, plaintexts) == []
    assert blob.searches == 0


@pytest.mark.parametrize("unit", [b"\x00", b"\x5a", bytes.fromhex("00000027")],
                         ids=["all-zero", "one-symbol", "4-periodic"])
def test_a_repetitive_link_hashes_no_more_windows_than_it_has(monkeypatch, unit):
    rng = random.Random(len(unit))
    pieces = []
    for length in (60, 400, 3000):  # each frame delivered as a run of ``unit``
        pieces += [rng.randbytes(40), unit * (length // len(unit))]
    blob = blob_of(pieces)
    symbols = b"\x00\x00\x00\x00\x27\x5a" + rng.randbytes(2)

    def zero_heavy(n: int, planted: bytes = b"") -> bytes:
        text = bytes(rng.choice(symbols) for _ in range(n))
        return text[:n // 2] + planted + text[n // 2:]

    run = unit * adv.SECRECY_WINDOW
    plaintexts = [zero_heavy(LONGEST_DIRECT + 1), zero_heavy(300, run[:adv.BLOCK]),
                  zero_heavy(2000, run[:adv.SECRECY_WINDOW]), zero_heavy(500)]
    hashed = []  # the link windows the scan hashes: through the window helper, or as the met blocks' windows
    words, met_windows = adv._words, adv._met_windows

    def counting_words(data, width=adv.SECRECY_WINDOW):
        if width == adv.SECRECY_WINDOW and not any(data is plain for plain in plaintexts):
            hashed.append(len(data) - width + 1)
        return words(data, width)

    def counting_met_windows(data, values):
        near = met_windows(data, values)
        hashed.append(len(near or ()))
        return near

    monkeypatch.setattr(adv, "_words", counting_words)
    monkeypatch.setattr(adv, "_met_windows", counting_met_windows)
    assert adv.scan_secrecy(blob, plaintexts) == reference_scan(blob, plaintexts) != []
    assert 0 < sum(hashed) <= len(blob) - adv.SECRECY_WINDOW + 1


@dataclass
class LeakOnto:
    """Append ``leak`` to one frame in transit."""

    frame_index: int
    leak: bytes

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        return wire + self.leak if frame_no == self.frame_index else wire


def bulk_workload(rng: random.Random) -> list:
    """Twelve packets of 1 to 180 eight-cell reports: 52 B to 7928 B encoded."""
    return [
        dg.collect_from_bpcs([
            dg.BpcReport(
                pack_id=rng.randbytes(8), timestamp=rng.randrange(1 << 33, 1 << 40),
                soc_permille=rng.randrange(1001), soh_permille=rng.randrange(1001),
                cell_voltages_mv=tuple(rng.randrange(5001) for _ in range(8)),
                temperatures_dk=(rng.randrange(2500, 3500), rng.randrange(2500, 3500)),
                status_flags=int(dg.StatusFlags.STORED),
            )
            for _ in range(count)
        ], seq=seq)
        for seq, count in enumerate((1, 2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 180))
    ]


def test_planted_leak_in_a_bulk_session_is_found():
    reader_cfg, controller_cfg, _ = small_setup(13)
    workload = bulk_workload(random.Random(13))
    plaintexts = [dg.encode_diag(p) for p in workload]
    leak = plaintexts[-1][4000:4016]
    channel = adv.LinkChannel(strategy=LeakOnto(5 + len(workload), leak))  # the last record
    outcome = adv.run_session(channel, reader_cfg, controller_cfg, workload)
    assert outcome.established
    assert outcome.packets_delivered == len(workload) - 1
    expected = [leak[:adv.SECRECY_WINDOW].hex()]
    assert outcome.secrecy_hits == reference_scan(channel.transcript_blob(), plaintexts) == expected
