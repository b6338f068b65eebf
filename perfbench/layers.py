"""Which functions of ``repro`` the traced run wraps, and the per-layer metrics.

:func:`install_layers` puts a span around the public entry points of
each layer (the table below) and a census on the objects that keep
per-layer counters. :func:`layer_metrics` folds the per-process
summaries of one traced run into the metric names listed in
``BENCHMARK.json`` under ``per_layer`` — :data:`PER_LAYER` is that list.

Span names are the layer's module path; a layer's ``*_s`` metric is the
summed *self* time of its spans, so nested layers never count twice.
"""

from __future__ import annotations

import importlib
import re
from multiprocessing.connection import Connection
from typing import Any

from tracer import Tracer

#: The registered experiments the ``paper`` workload runs, in registry
#: order. A registry that differs fails the reference check by name.
EXPERIMENTS = (
    "detect", "detection-quality", "free-riding", "risk-matrix", "resources",
    "bandwidth", "ip-leak", "consent", "propagation", "chaos",
    "scenario-matrix", "swarm-scale", "token-defense", "im-checking", "ecdn",
)

#: (module, attribute path, span name): one span per call.
SPANS = (
    ("repro.streaming.video", "VideoSegment.digest", "streaming.video.digest"),
    ("repro.defenses.integrity", "compute_im", "defenses.integrity.compute_im"),
    ("repro.webrtc.dtls", "DtlsSession.handle_datagram", "webrtc.dtls"),
    ("repro.webrtc.dtls", "DtlsSession.send_application", "webrtc.dtls"),
    ("repro.webrtc.stun", "encode_stun", "webrtc.stun"),
    ("repro.webrtc.stun", "decode_stun", "webrtc.stun"),
    ("repro.webrtc.ice", "IceAgent.gather", "webrtc.ice"),
    ("repro.webrtc.ice", "IceAgent.set_remote", "webrtc.ice"),
    ("repro.webrtc.ice", "IceAgent.start_checks", "webrtc.ice"),
    ("repro.webrtc.ice", "IceAgent.handle_stun", "webrtc.ice"),
    ("repro.webrtc.ice", "IceAgent.refresh", "webrtc.ice"),
    ("repro.webrtc.datachannel", "DataChannelLayer.send", "webrtc.datachannel"),
    ("repro.webrtc.datachannel", "DataChannelLayer.handle_record", "webrtc.datachannel"),
    ("repro.pdn.sdk", "PdnClient.fetch_segment", "pdn.sdk.fetch"),
    ("repro.pdn.signaling", "PdnSignalingServer.handle_request", "pdn.signaling"),
    ("repro.streaming.cdn", "CdnEdge.handle_request", "streaming.cdn"),
    ("repro.detection.scanner", "WebsiteScanner.scan", "detection.scanner"),
    ("repro.detection.scanner", "ApkScanner.scan", "detection.scanner"),
    ("repro.detection.dynamic", "DynamicConfirmer.confirm_site", "detection.dynamic"),
    ("repro.detection.dynamic", "DynamicConfirmer.confirm_app", "detection.dynamic"),
    ("repro.web.corpus", "CorpusBuilder.materialize_site", "web.corpus"),
    ("repro.web.corpus", "CorpusBuilder.materialize_app", "web.corpus"),
    ("repro.web.browser", "Browser.open", "web.browser"),
    ("repro.web.browser", "Browser.run_app", "web.browser"),
    ("repro.scenarios.timeline", "materialize", "scenarios.materialize"),
    ("repro.net.network", "Network.send_datagram", "net.network.send"),
    ("repro.net.network", "ShardNetwork.send_indexed", "net.network.send"),
    ("repro.net.shard", "ShardWorker.run_window", "net.shard.window"),
)

#: The detection pipeline's stage classes and their ``name``; each
#: ``process`` call is a ``detection.stages.<name>`` span.
STAGES = (
    ("GenerateShard", "generate"),
    ("CategorizeAndSearch", "categorize+search"),
    ("SignatureScan", "signature-scan"),
    ("ConfirmDynamic", "confirm"),
    ("Report", "report"),
)

#: EventLoop dispatch entry points: ``net.clock.dispatch`` spans that
#: also count the events each outermost call fired.
DISPATCH = ("run_all", "run_until", "step", "run_until_window")


def stage_span(stage_name: str) -> str:
    """``detection.stages.<name>`` with the name made metric-safe."""
    return "detection.stages." + re.sub(r"[^A-Za-z0-9_.-]", "-", stage_name)


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _dispatch_hook(tracer: Tracer):
    """Count events fired by each loop's outermost dispatch call."""
    depth: dict[int, int] = {}

    def hook(args, kwargs):
        loop = args[0]
        key = id(loop)
        level = depth.get(key, 0)
        depth[key] = level + 1
        before = loop.events_fired if level == 0 else 0

        def done():
            depth[key] = level
            if level == 0:
                tracer.count("clock.events", loop.events_fired - before)
        return args, kwargs, done
    return hook


def _verify_hook(tracer: Tracer):
    """Count integrity rejections through the ``deliver(ok)`` callback."""
    def hook(args, kwargs):
        args = list(args)
        if "deliver" in kwargs:
            inner = kwargs["deliver"]
        else:
            inner = args[4]  # (self, sdk, index, data, deliver, ...)

        def deliver(ok: bool) -> None:
            if not ok:
                tracer.count("integrity.rejects")
            inner(ok)
        if "deliver" in kwargs:
            kwargs["deliver"] = deliver
        else:
            args[4] = deliver
        return tuple(args), kwargs, None
    return hook


def _network_census(net) -> dict[str, float]:
    """A network's datagram totals and its loop's ``wheel_stats()`` counters."""
    wheel = net.loop.wheel_stats()
    return {
        "net.sent": net.datagrams_sent,
        "net.delivered": net.datagrams_delivered,
        "net.dropped": net.datagrams_dropped,
        **{f"clock.{key}": wheel[key]
           for key in ("scheduled", "overflow", "batched", "batch_drains")},
    }


def install_census(tracer: Tracer) -> None:
    """Count datagrams per Network only: the untraced runs' one hook.

    It costs one constructor wrapper and one finaliser per network, and
    nothing per datagram.
    """
    from repro.net.network import Network

    tracer.track(Network, _network_census)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer in the tables above and arm the censuses."""
    install_census(tracer)
    from repro.defenses.integrity import ClientIntegrity
    from repro.detection import stages
    from repro.net.clock import EventLoop
    from repro.pdn.sdk import PdnClient
    from repro.streaming.cdn import CdnEdge
    from repro.streaming.player import VideoPlayer

    for module, path, name in SPANS:
        owner, attr = _resolve(module, path)
        if isinstance(owner, type):
            tracer.wrap_method(owner, attr, name)
        else:
            tracer.wrap_function(module, attr, name)
    for cls_name, stage_name in STAGES:
        tracer.wrap_method(getattr(stages, cls_name), "process", stage_span(stage_name))
    hook = _dispatch_hook(tracer)
    for attr in DISPATCH:
        tracer.wrap_method(EventLoop, attr, "net.clock.dispatch", hook)
    tracer.wrap_method(ClientIntegrity, "verify_p2p_segment",
                       "defenses.integrity.verify", _verify_hook(tracer))
    # The shard coordinator blocks in recv() until the slowest shard
    # answers; workers also recv (their next command), hence owner_only.
    recv_owner = next(k for k in Connection.__mro__ if "recv" in k.__dict__)
    tracer.wrap_method(recv_owner, "recv", "net.shard.barrier_wait", owner_only=True)
    tracer.track(VideoPlayer, lambda p: {"player.stalls": p.stats.stalls})
    tracer.track(PdnClient, lambda c: {"sdk.bytes_p2p": c.stats.bytes_p2p_down,
                                       "sdk.bytes_cdn": c.stats.bytes_cdn})
    tracer.track(CdnEdge, lambda e: {"cdn.hits": e.hits, "cdn.misses": e.misses})


# -- per-layer metrics ---------------------------------------------------------

#: span name -> (count metric or None, self-time metric or None)
SPAN_METRICS = {
    "streaming.video.digest": ("streaming.video.digest_calls", "streaming.video.digest_s"),
    "defenses.integrity.compute_im": (None, "defenses.integrity.compute_im_s"),
    "defenses.integrity.verify": ("defenses.integrity.verifies", None),
    "webrtc.dtls": ("webrtc.dtls.records", "webrtc.dtls.s"),
    "webrtc.stun": ("webrtc.stun.msgs", "webrtc.stun.s"),
    "webrtc.ice": (None, "webrtc.ice.s"),
    "webrtc.datachannel": ("webrtc.datachannel.msgs", "webrtc.datachannel.s"),
    "pdn.sdk.fetch": ("pdn.sdk.fetches", "pdn.sdk.fetch_s"),
    "pdn.signaling": ("pdn.signaling.requests", "pdn.signaling.s"),
    "streaming.cdn": ("streaming.cdn.requests", "streaming.cdn.s"),
    "detection.scanner": ("detection.scanner.scans", "detection.scanner.s"),
    "detection.dynamic": ("detection.dynamic.confirms", "detection.dynamic.s"),
    "web.corpus": ("web.corpus.materialize_calls", "web.corpus.s"),
    "web.browser": ("web.browser.opens", "web.browser.s"),
    "scenarios.materialize": (None, "scenarios.materialize_s"),
    "net.clock.dispatch": (None, "net.clock.dispatch_s"),
    "net.network.send": ("net.network.sends", "net.network.send_s"),
    "net.shard.window": ("net.shard.windows", "net.shard.window_s"),
    "net.shard.barrier_wait": (None, "net.shard.barrier_wait_s"),
}
for _, _stage in STAGES:
    SPAN_METRICS[stage_span(_stage)] = (None, stage_span(_stage) + ".s")

#: Root span of every measured unit; its self time is what no layer
#: accounts for.
ROOT_SPAN = "bench.run"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer_names() -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for name in EXPERIMENTS:
        out += [(f"harness.exp.{name}.wall_s", "s"), (f"harness.exp.{name}.rss_mib", "MiB")]
    for count_name, time_name in SPAN_METRICS.values():
        if count_name:
            out.append((count_name, "count"))
        if time_name:
            out.append((time_name, "s"))
    out += [
        ("defenses.integrity.rejects", "count"),
        ("pdn.sdk.p2p_ratio", "ratio"),
        ("streaming.cdn.hit_ratio", "ratio"),
        ("streaming.player.stalls", "count"),
        ("net.clock.events", "count"),
        ("net.clock.heap_share", "ratio"),
        ("net.clock.batch_per_drain", "dgram/drain"),
        ("net.network.delivered", "count"),
        ("net.network.drops", "count"),
        ("net.network.delivery_ratio", "ratio"),
        ("net.shard.cross_dgrams", "count"),
        ("net.shard.events_per_dgram", "events/dgram"),
        ("bench.trace_overhead_ratio", "ratio"),
        ("bench.unattributed_s", "s"),
    ]
    return out


#: Every per-layer metric a traced run prints: (name, unit).
PER_LAYER = _per_layer_names()


def merge_summaries(summaries: list[dict]) -> dict[str, Any]:
    """Sum span folds, counters and censuses over processes."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    census: dict[str, float] = {}
    for summary in summaries:
        for name, cell in summary["spans"].items():
            acc = spans.setdefault(name, {"count": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += cell[key]
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in summary["census"].items():
            census[key] = census.get(key, 0) + value
    return {"spans": spans, "counters": counters, "census": census}


def layer_metrics(merged: dict[str, Any], extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from merged summaries plus ``extra``.

    ``extra`` carries what the benchmark measures itself: per-experiment
    wall and RSS, shard-report figures and the trace overhead.
    """
    spans, counters, census = merged["spans"], merged["counters"], merged["census"]
    values: dict[str, float] = {}
    for span_name, (count_name, time_name) in SPAN_METRICS.items():
        cell = spans.get(span_name, {"count": 0, "self_s": 0.0})
        if count_name:
            values[count_name] = cell["count"]
        if time_name:
            values[time_name] = cell["self_s"]
    scheduled = census.get("clock.scheduled", 0)
    overflow = census.get("clock.overflow", 0)
    p2p = census.get("sdk.bytes_p2p", 0)
    hits = census.get("cdn.hits", 0)
    values.update({
        "defenses.integrity.rejects": counters.get("integrity.rejects", 0),
        "pdn.sdk.p2p_ratio": _ratio(p2p, p2p + census.get("sdk.bytes_cdn", 0)),
        "streaming.cdn.hit_ratio": _ratio(hits, hits + census.get("cdn.misses", 0)),
        "streaming.player.stalls": census.get("player.stalls", 0),
        "net.clock.events": counters.get("clock.events", 0),
        "net.clock.heap_share": _ratio(overflow, scheduled + overflow),
        "net.clock.batch_per_drain": _ratio(census.get("clock.batched", 0),
                                            census.get("clock.batch_drains", 0)),
        "net.network.delivered": census.get("net.delivered", 0),
        "net.network.drops": census.get("net.dropped", 0),
        "net.network.delivery_ratio": _ratio(census.get("net.delivered", 0),
                                             census.get("net.sent", 0)),
        "bench.unattributed_s": spans.get(ROOT_SPAN, {"self_s": 0.0})["self_s"],
    })
    for name, unit in PER_LAYER:
        values.setdefault(name, 0.0)
    values.update(extra)
    return {name: values[name] for name, _ in PER_LAYER}
