"""Reference implementation: the one-event-per-send pump chain.

Before the send plane, a shard drove its precomputed traffic program by
scheduling one anonymous loop event per send: each ``_pump`` event fired
send ``i`` and then scheduled send ``i + 1``. That chain is the
definition of the order the send plane must reproduce, so it lives on
here as a test oracle — :class:`PumpChainWorker` is a
:class:`~repro.net.shard.ShardWorker` whose program runs through it.
"""

from repro.net.shard import ShardWorker


class PumpChainWorker(ShardWorker):
    """A shard whose sends are one queued pump event each."""

    def _start_program(self) -> None:
        if len(self.program):
            self.loop.schedule_fast(self.program.when[0], self._pump, ())

    def _pump(self) -> None:
        """Execute one precomputed send, then chain to the next."""
        program = self.program
        i = self._cursor
        self._cursor = i + 1
        self.net.send_indexed(
            program.src[i], program.dst[i], program.u_latency[i], program.u_fault[i]
        )
        i += 1
        if i < len(program.when):
            self.loop.schedule_fast(program.when[i], self._pump, ())


# Report the chain's events under the callsite they had when the chain
# lived in repro.net.shard (the one the send plane keeps), so dispatch
# traces of the two compare entry for entry.
PumpChainWorker._pump.__module__ = ShardWorker._pump.__module__
PumpChainWorker._pump.__qualname__ = ShardWorker._pump.__qualname__
