"""Walk through one mutual-authentication handshake, message by message.

Run:  python demos/01_handshake_walkthrough.py
"""

import random

from nfcbms import handshake as hs, secure_channel as sc

key = sc.MasterKey(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
reader = hs.HandshakeState.reader(b"NRD1", b"MNC1", key, random.Random(7))
controller = hs.HandshakeState.controller(b"MNC1", b"NRD1", key, random.Random(8))

print("== message 1: reader opens with its challenge nonce (plaintext) ==")
m1 = reader.reader_start()
print(f"   {m1.hex()}")
print(f"   ch_r = {m1[hs.FRAME_HEADER_LEN:].hex()}")

print("== message 2: controller answers with double ENCRYPTION, adds its own nonce ==")
m2 = controller.controller_respond(m1)
print(f"   ch_t = {m2[hs.FRAME_HEADER_LEN:][:16].hex()}")
print(f"   EE(id | ch_r) = {m2[hs.FRAME_HEADER_LEN + 16:].hex()}")

print("== message 3: reader answers with double DECRYPTION (direction asymmetry) ==")
m3 = reader.reader_answer(m2)
print(f"   DD(id | ch_t) = {m3[hs.FRAME_HEADER_LEN:].hex()}")
print("   both sides now derive the session key pair from (K_M, ch_r, ch_t)")

print("== message 4: controller seals its transcript view with the session keys ==")
m4 = controller.controller_key_confirm(m3)
print(f"   sealed record, {len(m4[hs.FRAME_HEADER_LEN:])} bytes (covers raw msg1 | msg3)")

print("== message 5: reader confirms in the opposite direction ==")
m5 = reader.reader_key_confirm(m4)
controller.controller_finalize(m5)
print(f"   sealed record, {len(m5[hs.FRAME_HEADER_LEN:])} bytes (covers raw msg2 | msg4)")

print()
print(f"reader phase     : {reader.phase.name}")
print(f"controller phase : {controller.phase.name}")
print(f"identical keys   : {reader.session_keys == controller.session_keys}")

print()
print("the confirmation records double as channel bring-up; app traffic")
print("continues the same tag chains:")
rec = sc.seal_record(controller.channel, b"SoH check: pack nominal", b"", controller.rng)
print(f"   opened on reader side: {sc.open_record(reader.channel, rec)!r}")
