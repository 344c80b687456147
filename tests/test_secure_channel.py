"""Secure channel: KDF, double transforms, chained records."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

import reference_crypto as ref
from nfcbms import handshake as hs, secure_channel as sc
from nfcbms.errors import (
    BadLength,
    InvalidNonce,
    KeyDerivationError,
    PaddingError,
    TagMismatch,
)

KEY = sc.MasterKey(bytes(16))
CH_R = sc.Nonce(bytes([1]) * 16)
CH_T = sc.Nonce(bytes([2]) * 16)


def make_pair(seed: int = 0) -> tuple[sc.ChannelState, sc.ChannelState]:
    rng = random.Random(seed)
    keys = sc.SessionKeys(k_enc=rng.randbytes(16), k_mac=rng.randbytes(16))
    return sc.ChannelState.for_keys(keys), sc.ChannelState.for_keys(keys)


# --- key derivation ---


def test_derive_deterministic():
    a = sc.derive_session_keys(KEY, CH_R, CH_T)
    b = sc.derive_session_keys(KEY, CH_R, CH_T)
    assert a == b


def test_derive_matches_cmac_reference():
    # frozen from the reference CMAC over the documented KDF layout
    keys = sc.derive_session_keys(KEY, CH_R, CH_T)
    assert keys.k_enc.hex() == "fcb7bfeeb52f0fcd94cdc318c9949184"
    assert keys.k_mac.hex() == "28afa527d3ba7218fbe8ee3f46299eda"
    # and recomputed live against the oracle
    assert keys.k_enc == ref.cmac(KEY.bytes, b"\x01SKEYENC" + CH_R.bytes + CH_T.bytes + b"\x00\x80")
    assert keys.k_mac == ref.cmac(KEY.bytes, b"\x02SKEYMAC" + CH_R.bytes + CH_T.bytes + b"\x00\x80")


def test_derive_rejects_equal_nonces():
    with pytest.raises(InvalidNonce):
        sc.derive_session_keys(KEY, CH_R, sc.Nonce(CH_R.bytes))


def test_nonce_rejects_all_zero():
    with pytest.raises(InvalidNonce):
        sc.Nonce(bytes(16))


def test_derive_depends_on_every_input():
    base = sc.derive_session_keys(KEY, CH_R, CH_T)
    other_key = sc.MasterKey(bytes([9]) * 16)
    assert sc.derive_session_keys(other_key, CH_R, CH_T) != base
    assert sc.derive_session_keys(KEY, sc.Nonce(bytes([3]) * 16), CH_T) != base
    assert sc.derive_session_keys(KEY, CH_R, sc.Nonce(bytes([4]) * 16)) != base


def test_key_separation_over_1000_random_inputs():
    rng = random.Random(1001)
    for _ in range(1000):
        keys = sc.derive_session_keys(
            sc.MasterKey(rng.randbytes(16)), sc.new_nonce(rng), sc.new_nonce(rng)
        )
        assert keys.k_enc != keys.k_mac


def _reference_keys(master: bytes, ch_r: bytes, ch_t: bytes) -> sc.SessionKeys:
    return sc.SessionKeys(
        k_enc=ref.cmac(master, b"\x01SKEYENC" + ch_r + ch_t + b"\x00\x80"),
        k_mac=ref.cmac(master, b"\x02SKEYMAC" + ch_r + ch_t + b"\x00\x80"),
    )


_NONCE = st.binary(min_size=16, max_size=16).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    # two candidate key values for up to three master objects, so two objects may share bytes
    key_values=st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=2),
    masters=st.lists(st.integers(0, 1), min_size=1, max_size=3),
    pairs=st.lists(st.tuples(_NONCE, _NONCE).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3),
    calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=12),
)
def test_derivation_memo_returns_the_kdf_keys_and_shares_only_a_repeat(key_values, masters, pairs, calls):
    # any interleaving of derivations: each result is the reference KDF's, and a result is the
    # object returned before only when the same master object derived the same challenges last
    objects = [sc.MasterKey(key_values[i]) for i in masters]
    last = {}  # master index -> (challenges, keys) of its last derivation
    returned = []  # every result, kept alive so identities are not reused
    for m, p in calls:
        m, (ch_r, ch_t) = m % len(objects), pairs[p % len(pairs)]
        keys = sc.derive_session_keys(objects[m], sc.Nonce(ch_r), sc.Nonce(ch_t))
        assert keys == _reference_keys(objects[m].bytes, ch_r, ch_t)
        if m in last and last[m][0] == ch_r + ch_t:
            assert keys is last[m][1]
        else:
            assert all(keys is not k for k in returned)
        last[m] = ch_r + ch_t, keys
        returned.append(keys)


def test_derive_rejects_equal_nonces_right_after_a_derivation_with_them():
    sc.derive_session_keys(KEY, CH_R, CH_T)
    for ch in (CH_R, CH_T):
        with pytest.raises(InvalidNonce):
            sc.derive_session_keys(KEY, ch, sc.Nonce(ch.bytes))
    assert sc.derive_session_keys(KEY, CH_R, CH_T) == _reference_keys(KEY.bytes, CH_R.bytes, CH_T.bytes)


# --- double transforms ---


def test_double_encrypt_roundtrip_random():
    # payloads of 16-31 bytes pad to the transform's two blocks
    rng = random.Random(2)
    for _ in range(20):
        p = rng.randbytes(rng.randrange(16, 32))
        padded = ref.pkcs7_pad(p)
        assert sc.double_decrypt(KEY, sc.double_encrypt(KEY, padded)) == padded
        assert ref.pkcs7_unpad(padded) == p


def test_double_encrypt_matches_reference_chain():
    padded = ref.pkcs7_pad(b"handshake oracle check")
    out = sc.double_encrypt(KEY, padded)
    assert out.hex() == "e7aba827c5460ae95c5f025e0789d5c0c0e7f4fc1265648ff6ca081854f3f302"
    assert out == ref.cbc_encrypt(KEY.bytes, bytes(16), ref.cbc_encrypt(KEY.bytes, bytes(16), padded))


def test_single_pass_decrypt_is_not_enough():
    padded = ref.pkcs7_pad(b"handshake oracle check")
    out = sc.double_encrypt(KEY, padded)
    once = ref.cbc_decrypt(KEY.bytes, bytes(16), out)
    assert once != padded


def test_raw_transforms_invert_on_block_aligned_data():
    rng = random.Random(3)
    for _ in range(20):
        x = rng.randbytes(32)
        assert sc.double_encrypt(KEY, sc.double_decrypt(KEY, x)) == x
        assert sc.double_decrypt(KEY, sc.double_encrypt(KEY, x)) == x


def test_direction_asymmetry_over_1000_vectors():
    rng = random.Random(4)
    for _ in range(1000):
        x = rng.randbytes(32)
        assert sc.double_encrypt(KEY, x) != sc.double_decrypt(KEY, x)


def test_double_decrypt_rejects_bad_length():
    # the transforms take exactly two blocks: no padding, no other length
    for n in (0, 15, 16, 31, 33, 48):
        with pytest.raises(BadLength):
            sc.double_decrypt(KEY, bytes(n))
        with pytest.raises(BadLength):
            sc.double_encrypt(KEY, bytes(n))


@settings(max_examples=60, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), x=st.binary(min_size=32, max_size=32))
def test_double_transforms_are_inverse_reference_chains(key, x):
    master = sc.MasterKey(key)
    enc, dec = sc.double_encrypt(master, x), sc.double_decrypt(master, x)
    assert enc == ref.cbc_encrypt(key, bytes(16), ref.cbc_encrypt(key, bytes(16), x))
    assert dec == ref.cbc_decrypt(key, bytes(16), ref.cbc_decrypt(key, bytes(16), x))
    assert sc.double_decrypt(master, enc) == x == sc.double_encrypt(master, dec)


def test_double_decrypt_frozen_vector():
    # the reader-side transform of (id | nonce) zero-extended to 32 bytes
    plain = (b"NR__" + bytes([2]) * 16).ljust(32, b"\x00")
    out = sc.double_decrypt(KEY, plain)
    assert out.hex() == "d564780b3be2495b8b7384a1fd7240448c3b0ee7273aeb47bdb98b95822caa70"
    assert out == ref.cbc_decrypt(KEY.bytes, bytes(16), ref.cbc_decrypt(KEY.bytes, bytes(16), plain))


# --- chained tags ---


def test_chained_tag_frozen_vector():
    k_mac = bytes(range(16))
    mac = sc.SessionKeys(k_enc=bytes(16), k_mac=k_mac).mac
    sec = bytes.fromhex("00112233445566778899aabbccddeeff" * 2)
    iv = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")
    tag = mac.cmac(sec + iv + b"BMS" + bytes(16))
    assert tag.hex() == "c4b39604554b21997a3fa47b09ec1e78"
    tag2 = mac.cmac(sec + iv + b"BMS" + tag)
    assert tag2.hex() == "ba3e412b1104039d4a5ea08dd93e5d9c"
    assert tag == ref.cmac(k_mac, sec + iv + b"BMS" + bytes(16))
    assert tag2 == ref.cmac(k_mac, sec + iv + b"BMS" + tag)


def test_chained_tag_sensitive_to_add_data():
    keys = sc.SessionKeys(k_enc=bytes(16), k_mac=bytes(range(16)))

    def seal(add_data: bytes) -> sc.SecureRecord:
        # one seed, so every record has the same IV and sec_data
        return sc.seal_record(sc.ChannelState.for_keys(keys), b"x", add_data, random.Random(0))

    base = seal(b"AAAA")
    for i in range(4):
        mutated = bytearray(b"AAAA")
        mutated[i] ^= 1
        record = seal(bytes(mutated))
        assert (record.iv, record.sec_data) == (base.iv, base.sec_data)
        assert record.tag != base.tag


# --- record channel ---


def test_seal_open_roundtrip():
    sender, receiver = make_pair()
    rng = random.Random(7)
    for i in range(5):
        plain = f"record number {i}".encode()
        rec = sc.seal_record(sender, plain, b"hdr", rng)
        assert sc.open_record(receiver, rec) == plain


@settings(max_examples=40, deadline=None)
@given(
    keys=st.tuples(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    .filter(lambda k: k[0] != k[1]),
    messages=st.lists(
        st.tuples(st.binary(max_size=300), st.binary(max_size=24)), min_size=1, max_size=6
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_sealed_sequences_match_the_reference_and_open_in_order(keys, messages, seed):
    k_enc, k_mac = keys
    channel_keys = sc.SessionKeys(k_enc, k_mac)
    sender, receiver = sc.ChannelState.for_keys(channel_keys), sc.ChannelState.for_keys(channel_keys)
    rng = random.Random(seed)
    previous = sc.CHAIN_SENTINEL
    records = []
    for plain, add in messages:
        rec = sc.seal_record(sender, plain, add, rng)
        assert rec.sec_data == ref.cbc_encrypt(k_enc, rec.iv, ref.pkcs7_pad(plain))
        assert rec.tag == ref.cmac(k_mac, rec.sec_data + rec.iv + add + previous)
        previous = rec.tag
        records.append(rec)
    assert [sc.open_record(receiver, rec) for rec in records] == [p for p, _ in messages]


def test_seal_golden_record_from_composed_oracles():
    keys = sc.SessionKeys(k_enc=bytes(range(16)), k_mac=bytes(range(16, 32)))
    state = sc.ChannelState.for_keys(keys)
    rec = sc.seal_record(state, b"stored pack 0x01 status nominal", b"DIAG", random.Random(42))
    assert rec.iv.hex() == "9d79b1a37f31801cd11a6706fb40d6bd"
    assert rec.sec_data.hex() == (
        "ac0b47e42c3ba08615e3faef56de6165b45477e73c5da4a2e24847d8398deec6"
    )
    assert rec.tag.hex() == "c72af6c4f289bcb6ff8c291213f2e705"
    # cross-check the full composition against the reference oracles
    expected_sec = ref.cbc_encrypt(keys.k_enc, rec.iv, ref.pkcs7_pad(b"stored pack 0x01 status nominal"))
    assert rec.sec_data == expected_sec
    assert rec.tag == ref.cmac(keys.k_mac, expected_sec + rec.iv + b"DIAG" + bytes(16))


def test_two_seals_of_identical_plaintext_differ():
    sender, _ = make_pair()
    rng = random.Random(8)
    a = sc.seal_record(sender, b"same payload", b"", rng)
    b = sc.seal_record(sender, b"same payload", b"", rng)
    assert a.iv != b.iv
    assert a.tag != b.tag


def test_replay_of_previous_record_rejected():
    sender, receiver = make_pair()
    rng = random.Random(9)
    rec1 = sc.seal_record(sender, b"first", b"", rng)
    assert sc.open_record(receiver, rec1) == b"first"
    with pytest.raises(TagMismatch):
        sc.open_record(receiver, rec1)


def test_single_bit_flip_rejected():
    sender, receiver = make_pair()
    rec = sc.seal_record(sender, b"tamper me", b"", random.Random(10))
    flipped = bytearray(rec.sec_data)
    flipped[0] ^= 1
    with pytest.raises(TagMismatch):
        sc.open_record(receiver, sc.SecureRecord(rec.iv, bytes(flipped), rec.add_data, rec.tag))


def test_chain_soundness_reorder_duplicate_omit():
    rng = random.Random(11)
    records = []
    sender, _ = make_pair(5)
    for i in range(5):
        records.append(sc.seal_record(sender, f"r{i}".encode(), b"", rng))

    def fresh_receiver():
        _, receiver = make_pair(5)
        return receiver

    # reorder: second record first
    r = fresh_receiver()
    with pytest.raises(TagMismatch):
        sc.open_record(r, records[1])

    # duplicate
    r = fresh_receiver()
    sc.open_record(r, records[0])
    with pytest.raises(TagMismatch):
        sc.open_record(r, records[0])

    # omission: skip record 1
    r = fresh_receiver()
    sc.open_record(r, records[0])
    with pytest.raises(TagMismatch):
        sc.open_record(r, records[2])


def test_a_dropped_middle_record_is_caught_a_dropped_suffix_is_not():
    # the chain catches a gap, but no record carries a count or an
    # end-of-stream mark, so a reader that stops early sees no error
    rng = random.Random(12)
    sender, _ = make_pair(6)
    records = [sc.seal_record(sender, f"r{i}".encode(), b"", rng) for i in range(3)]

    _, receiver = make_pair(6)
    sc.open_record(receiver, records[0])
    with pytest.raises(TagMismatch):
        sc.open_record(receiver, records[2])

    _, receiver = make_pair(6)
    assert [sc.open_record(receiver, rec) for rec in records[:2]] == [b"r0", b"r1"]


def test_tag_checked_before_padding():
    # invalid tag AND invalid padding: TagMismatch must win, proving no
    # decryption output is produced before verification
    sender, receiver = make_pair(12)
    rec = sc.seal_record(sender, b"payload", b"", random.Random(13))
    garbage = sc.SecureRecord(rec.iv, bytes(32), rec.add_data, bytes(16))
    with pytest.raises(TagMismatch):
        sc.open_record(receiver, garbage)


def test_forged_tag_over_unpadded_ciphertext_hits_padding_error():
    # an attacker who somehow held k_mac could authenticate garbage; the
    # channel still refuses to return unpadded plaintext
    keys = sc.SessionKeys(k_enc=bytes(range(16)), k_mac=bytes(range(16, 32)))
    receiver = sc.ChannelState.for_keys(keys)
    iv = bytes(16)
    sec = ref.cbc_encrypt(keys.k_enc, iv, b"no padding here!")  # 16 raw bytes
    tag = ref.cmac(keys.k_mac, sec + iv + b"" + bytes(16))
    with pytest.raises(PaddingError):
        sc.open_record(receiver, sc.SecureRecord(iv, sec, b"", tag))
    # the receive chain must not have advanced
    assert receiver.last_tag_received == bytes(16)


def test_roundtrip_up_to_4kib():
    sender, receiver = make_pair(14)
    rng = random.Random(15)
    for size in (1, 15, 16, 17, 1024, 4096):
        plain = rng.randbytes(size)
        assert sc.open_record(receiver, sc.seal_record(sender, plain, b"", rng)) == plain


def test_master_key_repr_redacted():
    key = sc.MasterKey(bytes.fromhex("00112233445566778899aabbccddeeff"))
    assert "00112233" not in repr(key)
    keys = sc.derive_session_keys(KEY, CH_R, CH_T)
    assert keys.k_enc.hex() not in repr(keys)


# --- keyed primitives held by their keys ---

# block counts drawn often besides the 1-512 range: one block, the two of
# a challenge transform, and 16 and 17, where a record's padding adds a block
_EDGE_BLOCKS = [1, 2, 16, 17]


def _fresh_cbc(key: bytes, iv: bytes, data: bytes, *, decrypt: bool) -> bytes:
    cipher = Cipher(algorithms.AES(key), modes.CBC(iv))
    op = cipher.decryptor() if decrypt else cipher.encryptor()
    return op.update(data) + op.finalize()


@settings(max_examples=150, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    ivs=st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=2),
    blocks=st.lists(
        st.one_of(st.sampled_from(_EDGE_BLOCKS), st.integers(1, 512)), min_size=2, max_size=2
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_keyed_cbc_equals_fresh_cipher(key, ivs, blocks, seed):
    # two calls each way on one holder: the running encryptor's chain and
    # the reused ECB decryptor carry nothing over between calls
    aes = sc._Aes(key)
    rng = random.Random(seed)
    for iv, n in zip(ivs, blocks):
        data = rng.randbytes(16 * n)
        assert aes.cbc_encrypt(iv, data) == _fresh_cbc(key, iv, data, decrypt=False)
        assert aes.cbc_decrypt(iv, data) == _fresh_cbc(key, iv, data, decrypt=True)


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    iv=st.binary(min_size=16, max_size=16),
    data=st.integers(1, 17).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)
    ),
)
def test_keyed_cbc_matches_reference(key, iv, data):
    aes = sc._Aes(key)
    assert aes.cbc_encrypt(iv, data) == ref.cbc_encrypt(key, iv, data)
    assert aes.cbc_decrypt(iv, data) == ref.cbc_decrypt(key, iv, data)


_CALL = st.one_of(
    st.tuples(st.just("cbc_encrypt"), st.integers(0, 2), st.integers(0, 600)),
    st.tuples(st.just("cbc_decrypt"), st.integers(0, 2), st.integers(0, 40)),
    st.tuples(st.just("cmac"), st.just(0), st.integers(0, 80)),
)


@settings(max_examples=100, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    ivs=st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=3),
    calls=st.lists(_CALL, min_size=2, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_running_encryptor_survives_any_mix_of_calls(key, ivs, calls, seed):
    # IVs are drawn from a short list, so some repeat; an empty input and the
    # other primitives in between must not move the encryptor's chain
    aes = sc._Aes(key)
    rng = random.Random(seed)
    for name, which, n in calls:
        iv = ivs[which % len(ivs)]
        if name == "cmac":
            data = rng.randbytes(n)
            assert aes.cmac(data) == ref.cmac(key, data)
            continue
        data = rng.randbytes(16 * n)
        decrypt = name == "cbc_decrypt"
        expected = _fresh_cbc(key, iv, data, decrypt=decrypt) if n else b""
        assert getattr(aes, name)(iv, data) == expected


def test_interleaved_handshakes_under_one_master_key_match_sequential_ones():
    # every endpoint shares the master key's one CBC encryptor, whose chain
    # runs across sessions: stepping two sessions in turn changes no frame
    reader_id, controller_id = b"NR__", b"MN__"
    steps = ("controller_respond", "reader_answer", "controller_key_confirm", "reader_key_confirm")

    def sessions(master):
        return [
            (hs.HandshakeState.reader(reader_id, controller_id, master, random.Random(seed)),
             hs.HandshakeState.controller(controller_id, reader_id, master, random.Random(seed + 1)))
            for seed in (30, 40)
        ]

    sequential = []
    for reader, controller in sessions(sc.MasterKey(bytes(range(16)))):
        sequential += hs.run_honest_handshake(reader, controller)
    pairs = sessions(sc.MasterKey(bytes(range(16))))
    last = [reader.reader_start() for reader, _ in pairs]
    frames = [list(last)]
    for step in steps:
        last = [
            getattr(reader if step.startswith("reader") else controller, step)(frame)
            for (reader, controller), frame in zip(pairs, last)
        ]
        frames.append(last)
    for (_, controller), frame in zip(pairs, last):
        controller.controller_finalize(frame)
        assert controller.phase == hs.Phase.ESTABLISHED
    interleaved = [frames[step][session] for session in (0, 1) for step in range(5)]
    assert interleaved == sequential


@settings(max_examples=50, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    messages=st.lists(st.binary(max_size=80), min_size=2, max_size=4),
)
def test_keyed_cmac_copies_leak_nothing_between_macs(key, messages):
    aes = sc._Aes(key)
    for msg in messages + messages[:1]:
        assert aes.cmac(msg) == ref.cmac(key, msg)


def test_keyed_cbc_refuses_unaligned_input_and_stays_usable():
    aes = sc._Aes(bytes(range(16)))
    with pytest.raises(BadLength):
        aes.cbc_encrypt(bytes(16), bytes(17))
    with pytest.raises(BadLength):
        aes.cbc_decrypt(bytes(16), bytes(15))
    data = bytes(range(32))
    assert aes.cbc_encrypt(bytes(16), data) == ref.cbc_encrypt(bytes(range(16)), bytes(16), data)
    assert aes.cbc_decrypt(bytes(16), data) == ref.cbc_decrypt(bytes(range(16)), bytes(16), data)
    assert aes.cbc_encrypt(bytes(16), b"") == aes.cbc_decrypt(bytes(16), b"") == b""


def test_keyed_cbc_stays_in_step_after_a_call_that_raises_or_overlaps():
    key, iv, data = bytes(range(16)), bytes(range(16, 32)), bytes(range(48))
    aes = sc._Aes(key)
    assert aes.cbc_encrypt(iv, data) == ref.cbc_encrypt(key, iv, data)

    class Interrupted:  # the update runs, the call never returns
        def update(self, block):
            enc.update(block)
            raise RuntimeError("interrupted")

    class Overlapped:  # another call on the key runs while this one updates
        def update(self, block):
            nested.append(aes.cbc_encrypt(iv, data[:16]))
            return enc.update(block)

    nested = []
    for wrapper in (Interrupted, Overlapped):
        enc, cbc_last = aes._cbc
        aes._cbc = wrapper(), cbc_last
        try:
            out = aes.cbc_encrypt(iv, data)
        except RuntimeError:
            pass
        else:
            assert out == ref.cbc_encrypt(key, iv, data)
        for _ in range(2):
            assert aes.cbc_encrypt(iv, data) == ref.cbc_encrypt(key, iv, data)
    assert nested and set(nested) == {ref.cbc_encrypt(key, iv, data[:16])}


def test_mac_key_builds_no_cipher_contexts():
    sender, receiver = make_pair(16)
    sc.open_record(receiver, sc.seal_record(sender, b"x", b"", random.Random(17)))
    assert "_mac" in vars(sender.keys.mac)
    assert "_cbc" not in vars(sender.keys.mac) and "_ecb_dec" not in vars(sender.keys.mac)
    assert "_mac" not in vars(sender.keys.enc)


def test_keys_and_their_contexts_die_with_the_key_objects():
    rng = random.Random(18)
    master = sc.MasterKey(rng.randbytes(16))
    reader = hs.HandshakeState.reader(b"NR__", b"MN__", master, random.Random(19))
    controller = hs.HandshakeState.controller(b"MN__", b"NR__", master, random.Random(20))
    hs.run_honest_handshake(reader, controller)  # both challenge transforms, records both ways
    keys = reader.session_keys
    # both endpoints hold the one pair that the master keeps as its last derivation
    assert controller.session_keys is keys and vars(master)["_last_derived"][1] is keys
    record = sc.seal_record(controller.channel, b"pack 7", b"DIAG", rng)
    assert sc.open_record(reader.channel, record) == b"pack 7"
    # the contexts exist now, and repr still shows no key bytes
    assert {"aes"} <= set(vars(master)) and {"enc", "mac"} <= set(vars(keys))
    assert {"_cbc", "_ecb_dec"} <= set(vars(master.aes)) and {"_cbc", "_ecb_dec"} <= set(vars(keys.enc))
    assert "_mac" in vars(keys.mac)
    assert repr(master) == "MasterKey(<redacted>)" and repr(keys) == "SessionKeys(<redacted>)"
    assert master.bytes.hex() not in repr(master) and keys.k_mac.hex() not in repr(keys)
    refs = [weakref.ref(o) for o in (master, keys, master.aes, keys.enc, keys.mac)]
    del master, keys, reader, controller, record
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize(("build", "error", "detail"), [
    (lambda: sc.SessionKeys(bytes(15), bytes([1]) * 16), BadLength, "session keys must be 16 bytes each"),
    (lambda: sc.SessionKeys(bytes([1]) * 16, bytes([1]) * 16), KeyDerivationError,
     "encryption and MAC key must differ"),
    (lambda: sc.Nonce(bytes(15)), BadLength, "nonce must be 16 bytes"),
    (lambda: sc.SecureRecord(bytes(15), bytes(16), b"", bytes(16)), BadLength, "record IV must be 16 bytes"),
    (lambda: sc.SecureRecord(bytes(16), bytes(16), b"", bytes(15)), BadLength, "record tag must be 16 bytes"),
    (lambda: sc.SecureRecord(bytes(16), bytes(17), b"", bytes(16)), BadLength,
     "sec_data must be a positive multiple of 16 bytes"),
    (lambda: sc.pkcs7_unpad(bytes(17)), PaddingError, "ciphertext length not block aligned"),
], ids=["short-key", "equal-keys", "short-nonce", "short-iv", "short-tag", "ragged-sec-data", "ragged-unpad"])
def test_channel_values_refuse_bad_shapes(build, error, detail):
    with pytest.raises(error, match=f"^{detail}$"):
        build()
