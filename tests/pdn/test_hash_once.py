"""Each segment payload is hashed at most once per peer, and the digests
the SDK announces and the player records describe the bytes they name.

The loader hashes a payload when it acquires it (CDN body or P2P
delivery), keeps that digest next to the cache entry, and hands it to
the player with the bytes. These tests count the SHA-256 calls the SDK
and the player make over payload-sized inputs and check every recorded
or announced digest against a fresh hash of the bytes it stands for.
"""

import hashlib
import sys
import types

import pytest

from repro.attacks.malicious_sdk import ReplayPeer
from repro.core.testbed import build_test_bed
from repro.environment import Environment
from repro.pdn import sdk as sdk_module
from repro.pdn.provider import PEER5
from repro.pdn.sdk import PdnClient
from repro.streaming import player as player_module
from repro.streaming.http import HttpResponse
from repro.streaming.player import CdnLoader, VideoPlayer

SEGMENT_BYTES = 4096
SEGMENTS = 8


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PayloadHashCounter:
    """Stands in for ``hashlib`` in the SDK and player modules.

    Every SHA-256 call over a payload-sized input is recorded with the
    object that made it (the caller's ``self``) and the input object,
    which is kept alive so ``id`` values are never reused.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[object, bytes]] = []

    def sha256(self, data: bytes = b""):
        if len(data) == SEGMENT_BYTES:
            owner = sys._getframe(1).f_locals.get("self")
            self.calls.append((owner, data))
        return hashlib.sha256(data)

    def per_owner_and_object(self) -> dict[tuple[int, int], int]:
        counts: dict[tuple[int, int], int] = {}
        for owner, data in self.calls:
            key = (id(owner), id(data))
            counts[key] = counts.get(key, 0) + 1
        return counts


@pytest.fixture
def counter(monkeypatch):
    counting = PayloadHashCounter()
    shim = types.SimpleNamespace(sha256=counting.sha256)
    monkeypatch.setattr(sdk_module, "hashlib", shim)
    monkeypatch.setattr(player_module, "hashlib", shim)
    return counting


def make_bed(seed: int):
    env = Environment(seed=seed)
    bed = build_test_bed(
        env, PEER5, video_segments=SEGMENTS, segment_seconds=2.0, segment_bytes=SEGMENT_BYTES
    )
    return env, bed


def make_sdk(env, bed, name: str, cls=PdnClient) -> PdnClient:
    host = env.add_viewer_host(name, "US")
    return cls(
        loop=env.loop,
        rand=env.rand,
        host=host,
        http=env.http_client(host),
        provider=bed.provider,
        credential=bed.api_key,
        page_origin=f"https://{bed.site.domain}",
        video_url=bed.video_url,
        rtc_config=env.rtc_config(),
        name=name,
    )


def watch(env, bed, name: str, cls=PdnClient):
    """Start an SDK + player; return them and a log of every delivery."""
    sdk = make_sdk(env, bed, name, cls)
    assert sdk.start()
    deliveries: list[tuple[int, bytes | None, str, str | None]] = []
    fetch = sdk.fetch_segment

    def logged_fetch(base_url, uri, index, on_done):
        def done(data, source, digest):
            deliveries.append((index, data, source, digest))
            on_done(data, source, digest)

        fetch(base_url, uri, index, done)

    sdk.fetch_segment = logged_fetch
    player = VideoPlayer(env.loop, sdk, bed.video_url, name=name)
    player.start()
    return sdk, player, deliveries


def capture_haves(sdk: PdnClient) -> list[tuple[tuple[str, int], str, bytes | None]]:
    """Every ``have`` the SDK sends: (key, digest, cached bytes when sent)."""
    sent = []
    send = sdk._send_control

    def logged_send(link, message):
        if message.get("type") == "have":
            key = (message["r"], message["index"])
            sent.append((key, message["digest"], sdk.cached_bytes(key)))
        send(link, message)

    sdk._send_control = logged_send
    return sent


class TestHashOnce:
    def test_each_payload_hashed_at_most_once_per_peer(self, counter):
        env, bed = make_bed(31)
        _, player_a, _ = watch(env, bed, "alice")
        env.run(4.0)
        _, player_b, _ = watch(env, bed, "bob")
        env.run(60.0)
        assert player_a.finished and player_b.finished
        assert player_b.stats.bytes_from_p2p > 0  # the P2P path ran
        assert counter.calls
        assert {type(owner) for owner, _ in counter.calls} == {PdnClient}
        assert max(counter.per_owner_and_object().values()) == 1
        # One hash per segment each peer acquired: nothing at play time.
        assert len(counter.calls) == 2 * SEGMENTS

    def test_cdn_loader_hashes_once_and_player_never(self, counter):
        env, bed = make_bed(32)
        loader = CdnLoader(env.http_client(env.add_viewer_host("cdn-only", "US")))
        player = VideoPlayer(env.loop, loader, bed.video_url, name="cdn-only")
        player.start()
        env.run(60.0)
        assert player.finished
        assert len(counter.calls) == SEGMENTS
        assert {type(owner) for owner, _ in counter.calls} == {CdnLoader}
        assert player.stats.played_digests() == [s.digest for s in bed.video.segments]


class TestDigestsDescribeTheirBytes:
    def test_played_digest_is_hash_of_played_bytes(self):
        """A replaying neighbour serves authentic bytes in the wrong
        place; the player must record the digest of what it got."""
        env, bed = make_bed(33)
        replayer, _, _ = watch(env, bed, "replayer", cls=ReplayPeer)
        env.run(4.0)
        _, victim, deliveries = watch(env, bed, "victim")
        env.run(60.0)
        assert victim.finished
        delivered = {index: data for index, data, _, _ in deliveries if data is not None}
        for index, data, _source, digest in deliveries:
            assert digest == (sha(data) if data is not None else None)
        for played in victim.stats.played:
            assert played.digest == sha(delivered[played.index])
        authentic = [s.digest for s in bed.video.segments]
        assert replayer.replays_served > 0
        assert victim.stats.played_digests() != authentic  # the replay reached the screen

    def test_haves_carry_digest_of_cached_bytes_across_restore(self):
        env, bed = make_bed(34)
        sdk_a, player_a, _ = watch(env, bed, "alice")
        haves = capture_haves(sdk_a)
        env.run(30.0)
        assert player_a.finished

        # Re-store segment 2 under the same key with polluted bytes, as a
        # poisoned CDN answer would.
        base = bed.video_url.rsplit("/", 1)[0] + "/"
        target = bed.video.segments[2]
        polluted = b"P" * SEGMENT_BYTES
        get = sdk_a.http.get
        sdk_a.http.get = lambda url, headers=None: (
            HttpResponse(200, polluted) if url.endswith(target.filename) else get(url, headers)
        )
        sdk_a._fetch_from_cdn(base, target.filename, target.index, lambda d, s, h: None)
        assert sdk_a.cached_bytes((base, target.index)) is polluted

        # A neighbour that connects now hears about the polluted copy.
        before = len(haves)
        watch(env, bed, "bob")
        env.run(5.0)
        late = haves[before:]
        assert late
        for key, digest, cached in haves:
            assert cached is not None and digest == sha(cached)
        late_digests = {key: digest for key, digest, _ in late}
        assert late_digests[(base, target.index)] == sha(polluted) != target.digest
