"""Byte-identity of the DTLS record layer against a reference implementation.

The reference below is the straightforward form of the record
protection: a fresh ``hmac.new`` object per record for the keystream
block and another for the MAC over ``seq || ciphertext``, and a
byte-by-byte XOR. ``DtlsSession`` keys its HMAC state once per session;
every wire record must still match the reference byte for byte.
"""

import hashlib
import hmac
import struct

import pytest

from repro.net.clock import EventLoop
from repro.util.errors import DtlsRecordError
from repro.webrtc.dtls import CONTENT_APPDATA, DTLS_VERSION, _HmacKey

from tests.webrtc.test_dtls import make_pair

PAYLOAD_LENGTHS = (0, 1, 31, 32, 33, 16009)
SEQUENCE_NUMBERS = (5, 255, 256, 65_536, 2**32 + 7, 2**48 - 1)
MAC_LEN = 16


def reference_keys(session) -> tuple[bytes, bytes]:
    """(client write key, server write key) from the session's public values."""
    publics = sorted([session.certificate.public_key, session.remote_public_key])
    randoms = sorted([session.local_random, session.remote_random])
    master = hashlib.sha256(b"master" + publics[0] + publics[1] + randoms[0] + randoms[1]).digest()
    client_key = hmac.new(master, b"client-write", hashlib.sha256).digest()
    server_key = hmac.new(master, b"server-write", hashlib.sha256).digest()
    return client_key, server_key


def reference_record(key: bytes, seq: int, payload: bytes) -> bytes:
    """One application-data record, built the per-record ``hmac.new`` way."""
    seq_bytes = struct.pack("!Q", seq)
    block = hmac.new(key, seq_bytes, hashlib.sha256).digest()
    pad = (block * (len(payload) // len(block) + 1))[: len(payload)]
    ciphertext = bytes(p ^ k for p, k in zip(payload, pad))
    mac = hmac.new(key, seq_bytes + ciphertext, hashlib.sha256).digest()[:MAC_LEN]
    header = struct.pack("!BHHQH", CONTENT_APPDATA, DTLS_VERSION, 1, seq, len(ciphertext) + MAC_LEN)
    return header + ciphertext + mac


def payload_of(length: int) -> bytes:
    return bytes((7 * i + 3) & 0xFF for i in range(length))


@pytest.fixture
def established():
    loop = EventLoop()
    a, b, pipe = make_pair(loop)
    a.start()
    loop.run(5.0)
    assert a.established and b.established
    wire = {"a": [], "b": []}
    pipe.a_to_b_hook = lambda data: wire["a"].append(data) or data
    pipe.b_to_a_hook = lambda data: wire["b"].append(data) or data
    return loop, a, b, wire, pipe


class TestWireBytes:
    @pytest.mark.parametrize("length", PAYLOAD_LENGTHS)
    def test_client_records_match_reference(self, established, length):
        loop, a, b, wire, _pipe = established
        client_key, _ = reference_keys(a)
        received = []
        b.on_data = received.append
        payload = payload_of(length)
        for seq in SEQUENCE_NUMBERS:
            a._send_seq = seq
            a.send_application(payload)
        loop.run(1.0)
        assert wire["a"] == [reference_record(client_key, seq, payload) for seq in SEQUENCE_NUMBERS]
        assert received == [payload] * len(SEQUENCE_NUMBERS)
        assert b.auth_failures == 0

    def test_server_records_match_reference(self, established):
        loop, a, b, wire, _pipe = established
        _, server_key = reference_keys(b)
        received = []
        a.on_data = received.append
        payloads = [payload_of(length) for length in PAYLOAD_LENGTHS]
        first_seq = b._send_seq
        for payload in payloads:
            b.send_application(payload)
        loop.run(1.0)
        expected = [
            reference_record(server_key, first_seq + i, payload)
            for i, payload in enumerate(payloads)
        ]
        assert wire["b"] == expected
        assert received == payloads

    @pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 100])
    def test_precomputed_key_matches_hmac_new(self, key_len):
        key = bytes(range(key_len))
        message = [b"seq-bytes", b"", b"x" * 1000]
        assert _HmacKey(key).mac(*message) == hmac.new(key, b"".join(message), hashlib.sha256).digest()


class TestTamperStillDetected:
    @pytest.mark.parametrize("where", ["ciphertext", "mac"])
    def test_flipped_byte_bumps_auth_failures(self, established, where):
        loop, a, b, _wire, pipe = established
        errors, received = [], []
        b.on_error = errors.append
        b.on_data = received.append
        offset = 13 + 5 if where == "ciphertext" else -3  # the header is 13 bytes

        def flip(data: bytes) -> bytes:
            mutable = bytearray(data)
            mutable[offset] ^= 0x01
            return bytes(mutable)

        pipe.a_to_b_hook = flip
        a.send_application(payload_of(64))
        loop.run(1.0)
        assert b.auth_failures == 1
        assert received == []
        assert len(errors) == 1 and isinstance(errors[0], DtlsRecordError)
