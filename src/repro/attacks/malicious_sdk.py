"""Malicious SDK variants — attacker behaviours beyond proxy tricks.

The pollution attack needs no SDK modification (the fake CDN poisons an
unmodified client), but §V-B's robustness arguments are about attackers
who *do* control their client:

- :class:`ReplayPeer` answers a request for segment *k* with the bytes
  of a different segment it legitimately holds (optionally from another
  video) — the replay attack the IM's (content, video id, position)
  binding must defeat;
- :class:`ImFlooder` spams fabricated IM reports to inflate the
  server's CDN verification cost — what the §V-B blacklist bounds.
"""

from __future__ import annotations

from repro.pdn.sdk import DATA_CHANNEL, NeighborLink, PdnClient, _data_frame


class ReplayPeer(PdnClient):
    """Serves *mismatched* segments: request k, receive segment f(k).

    The substitution map defaults to "previous segment" — a recorded,
    perfectly authentic chunk of the same video, just in the wrong
    place. Without position-bound integrity metadata the victim plays
    it; with the §V-B IM the SIM check fails and the sender is banned.
    """

    def __init__(self, *args, substitution=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.substitution = substitution or (lambda index: max(0, index - 1))
        self.replays_served = 0

    def _serve_request(self, link: NeighborLink, key: tuple[str, int]) -> None:
        rendition, index = key
        source_index = self.substitution(index)
        data = self.cached_bytes((rendition, source_index))
        if data is None or not self.policy.upload_allowed(self.connection_type):
            super()._serve_request(link, key)
            return
        self.replays_served += 1
        self.stats.p2p_requests_served += 1
        self.stats.bytes_p2p_up += len(data)
        link.bytes_up += len(data)
        # Announce it as segment `index` on the wire: a replay.
        link.pc.send(DATA_CHANNEL, _data_frame(key, data))


class ImFlooder:
    """Floods fabricated IM reports through a joined session."""

    def __init__(self, sdk: PdnClient) -> None:
        self.sdk = sdk
        self.reports_sent = 0

    def flood(self, indices, rounds: int = 5) -> None:
        """Send the fabricated IM reports."""
        for round_number in range(rounds):
            for index in indices:
                self.sdk._post(
                    "/v2/im_report",
                    {"index": index, "digest": f"{round_number:064x}"},
                )
                self.reports_sent += 1
