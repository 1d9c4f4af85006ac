"""Data-bus occupancy model for one DRAM channel.

The simulator approximates queuing delay with a per-channel
*next-free-time*: each demand transfer occupies the bus for its streaming
time, and a demand request arriving while the bus is busy waits until it
frees up.  This first-order model is what reproduces the paper's
multi-programmed results -- four cores hammering one 12.8 GB/s
off-package channel queue heavily, while DRAM-cache hits ride the
51.2 GB/s in-package channel.

Background traffic -- free-queue write-backs, cache lay-ins, posted
stores -- is handled the way real memory controllers handle writes:
**demand has priority**.  Background transfers are buffered and drained
in idle slots, so a demand request is delayed by at most one in-flight
background burst (the preemption window), not by the whole backlog.
Background bandwidth and energy are still fully accounted, so a design
that over-fetches (the page-based over-fetching problem of Section 2.1)
still pays for it wherever *demand* transfers share the same bus --
which is exactly how its cost manifests on real hardware.
"""

from __future__ import annotations


class ChannelScheduler:
    """Tracks when each channel's data bus next becomes free.

    Pages interleave across channels: every DRAM verb puts page ``p`` on
    channel ``p % num_channels``.
    """

    __slots__ = (
        "num_channels",
        "preemption_ns",
        "_free_at_ns",
        "_bg_until_ns",
        "queue_ns_total",
        "requests",
        "demand_busy_ns",
        "background_busy_ns",
    )

    def __init__(self, num_channels: int, preemption_ns: float = 0.0):
        if num_channels <= 0:
            raise ValueError("a DRAM device needs at least one channel")
        self.num_channels = num_channels
        #: Longest time a demand request can be delayed by in-flight
        #: background traffic (one burst; the controller preempts after).
        self.preemption_ns = preemption_ns
        self._free_at_ns = [0.0] * num_channels
        self._bg_until_ns = [0.0] * num_channels
        self.queue_ns_total = 0.0
        self.requests = 0
        self.demand_busy_ns = 0.0
        self.background_busy_ns = 0.0

    def occupy(self, channel: int, now_ns: float, busy_ns: float) -> float:
        """Reserve the bus for a demand transfer; returns queuing delay.

        The request starts when the requester is ready, all earlier
        demand transfers have drained, and any in-flight background
        burst has been preempted (bounded by ``preemption_ns``).
        ``DRAMDevice.access_block`` and the fused kernel
        (``repro.cpu.batched._run_kernel``) write this body out inline
        and must change with it.
        """
        start = self._free_at_ns[channel]
        if start < now_ns:
            start = now_ns
        bg_until = self._bg_until_ns[channel]
        if bg_until > start:
            # Preempt the burst: min(bg_until, start + preemption_ns).
            start += self.preemption_ns
            if bg_until < start:
                start = bg_until
        queue_ns = start - now_ns
        self._free_at_ns[channel] = start + busy_ns
        self.queue_ns_total += queue_ns
        self.requests += 1
        self.demand_busy_ns += busy_ns
        return queue_ns

    def block(self, channel: int, start_ns: float, busy_ns: float) -> None:
        """Make the channel unconditionally busy (refresh): demand and
        background alike wait it out.  Not counted as a request."""
        begin = max(start_ns, self._free_at_ns[channel])
        self._free_at_ns[channel] = begin + busy_ns

    def occupy_background(self, channel: int, now_ns: float, busy_ns: float) -> None:
        """Buffer bus time for traffic nobody waits on (write-backs,
        lay-ins).  Drains behind demand traffic; delays demand by at most
        the preemption window.  ``DRAMDevice.write_back_block`` and the
        fused kernel (``repro.cpu.batched._run_kernel``) write this body
        out inline and must change with it."""
        # max(now_ns, background tail, demand tail), as comparisons.
        bg_until = self._bg_until_ns
        start = now_ns
        if bg_until[channel] > start:
            start = bg_until[channel]
        free_at = self._free_at_ns[channel]
        if free_at > start:
            start = free_at
        bg_until[channel] = start + busy_ns
        self.background_busy_ns += busy_ns

    def free_at(self, channel: int) -> float:
        return self._free_at_ns[channel]

    def background_until(self, channel: int) -> float:
        return self._bg_until_ns[channel]

    def mean_queue_ns(self) -> float:
        """Average queuing delay per demand request."""
        if self.requests == 0:
            return 0.0
        return self.queue_ns_total / self.requests

    def reset(self) -> None:
        self._free_at_ns = [0.0] * self.num_channels
        self._bg_until_ns = [0.0] * self.num_channels
        self.queue_ns_total = 0.0
        self.requests = 0
        self.demand_busy_ns = 0.0
        self.background_busy_ns = 0.0
