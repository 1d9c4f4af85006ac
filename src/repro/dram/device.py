"""Facade combining bank, channel and energy models into one DRAM device.

The rest of the simulator talks to DRAM exclusively through two verbs:

- :meth:`DRAMDevice.access_block` -- a demand 64 B read or write (an on-die
  cache miss being serviced);
- :meth:`DRAMDevice.stream_page` -- a 4 KB bulk transfer (cache fill or
  write-back), which is what page-granularity caching turns most
  off-package traffic into.

Both return the core-visible latency in nanoseconds; both may instead be
*asynchronous*, in which case bus time and energy are charged but the
caller observes zero latency (the tagless design's free-queue evictions).
"""

from __future__ import annotations

from repro.common.addressing import CACHE_LINE_BYTES, PAGE_BYTES
from repro.common.config import DRAMEnergyConfig, DRAMTimingConfig
from repro.common.stats import Counters
from repro.dram.bank import BankArray
from repro.dram.channel import ChannelScheduler
from repro.dram.energy import EnergyAccount


class DRAMDevice(Counters):
    """One DRAM device (in-package or off-package) with full accounting."""

    #: Reported first; the bank, channel, refresh and energy figures
    #: follow (see :meth:`stats`).
    COUNTERS = ("demand_accesses", "demand_latency_ns")

    def __init__(
        self,
        timing: DRAMTimingConfig,
        energy: DRAMEnergyConfig,
    ):
        self.timing = timing
        self.banks = BankArray(timing)
        # Demand may preempt an in-flight background burst after about
        # two cache lines' worth of streaming.
        self.channels = ChannelScheduler(
            timing.channels,
            preemption_ns=2 * timing.transfer_ns(CACHE_LINE_BYTES),
        )
        self.energy = EnergyAccount(energy)
        #: Optional repro.common.stats.Histogram armed by installed
        #: telemetry (repro.obs); None keeps the demand paths at a
        #: single predicate per access.
        self.latency_histogram = None
        self.demand_accesses = 0
        self.demand_latency_ns = 0.0
        self._next_refresh_ns = timing.trefi_ns
        self.refreshes = 0
        # Per-device constants of the closed-page 64 B demand path,
        # hoisted out of access_block (the expressions match the general
        # path exactly, so the floats are identical).
        self._block_transfer_ns = timing.transfer_ns(CACHE_LINE_BYTES)
        self._block_service_ns = (
            timing.row_empty_ns(CACHE_LINE_BYTES) + timing.controller_ns
        )
        self._block_nj = energy.access_nj(CACHE_LINE_BYTES, 1)
        # Full-page transfer time, for the fill/stream paths (footprint
        # fills pass other sizes and take the computed branch).
        self._page_transfer_ns = timing.transfer_ns(PAGE_BYTES)

    def _catch_up_refresh(self, now_ns: float) -> None:
        """Issue every refresh due by ``now_ns`` (tREFI cadence, tRFC
        busy time on every channel).  Idle stretches are jumped over --
        refreshes nobody contends with cost nothing to simulate."""
        if now_ns < self._next_refresh_ns:
            return
        trefi = self.timing.trefi_ns
        trfc = self.timing.trfc_ns
        while self._next_refresh_ns <= now_ns:
            start = self._next_refresh_ns
            for channel in range(self.channels.num_channels):
                self.channels.block(channel, start, trfc)
            self.refreshes += 1
            self._next_refresh_ns += trefi

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def access_block(
        self,
        now_ns: float,
        page_number: int,
        is_write: bool = False,
        open_page: bool = False,
    ) -> float:
        """Service one 64 B demand access; returns its latency in ns.

        Block-granularity demand traffic is modelled with a closed-page
        policy (activate + column access, precharge hidden): with several
        requesters and refresh interleaving their streams, real
        controllers see little row reuse for 64 B traffic -- the very
        observation (Section 2.1) that block-based DRAM caches fail to
        exploit row-buffer locality.  Callers with a genuinely sequential
        pattern (the GIPT, whose header-pointer walk the paper calls out
        as highly local) pass ``open_page=True`` to use the tracked
        row-buffer state instead.
        """
        if now_ns >= self._next_refresh_ns:
            self._catch_up_refresh(now_ns)
        if open_page:
            service_ns, activations = self.banks.access(
                page_number, CACHE_LINE_BYTES
            )
            service_ns += self.timing.controller_ns
            return self._finish_demand(
                now_ns, page_number, CACHE_LINE_BYTES, is_write, service_ns,
                activations,
            )
        # Closed-page fast path: every timing/energy quantity is a
        # per-device constant, and the channel reservation
        # (ChannelScheduler.occupy) is inlined verbatim.
        channels = self.channels
        channel = page_number % channels.num_channels
        free_at = channels._free_at_ns
        start = free_at[channel]
        if start < now_ns:
            start = now_ns
        bg_until = channels._bg_until_ns[channel]
        if bg_until > start:
            start = min(bg_until, start + channels.preemption_ns)
        queue_ns = start - now_ns
        free_at[channel] = start + self._block_transfer_ns
        channels.queue_ns_total += queue_ns
        channels.requests += 1
        channels.demand_busy_ns += self._block_transfer_ns
        energy = self.energy
        energy.dynamic_nj += self._block_nj
        energy.activations += 1
        if is_write:
            energy.write_bytes += CACHE_LINE_BYTES
        else:
            energy.read_bytes += CACHE_LINE_BYTES
        latency = queue_ns + self._block_service_ns
        self.demand_accesses += 1
        self.demand_latency_ns += latency
        histogram = self.latency_histogram
        if histogram is not None:
            histogram.observe(latency)
        return latency

    def posted_write_block(
        self, now_ns: float, page_number: int, open_page: bool = True
    ) -> float:
        """A 64 B write the requester does not wait for (posted store).

        Returns the device service latency -- what the writer pays to
        hand the data to the controller's write buffer -- while the bus
        occupancy is charged in the background.  Used for GIPT updates:
        the paper charges two memory writes per fill but notes the
        header pointer's sequential pattern makes them highly local.
        """
        if open_page:
            service_ns, activations = self.banks.access(
                page_number, CACHE_LINE_BYTES
            )
        else:
            service_ns = self.timing.row_empty_ns(CACHE_LINE_BYTES)
            activations = 1
        channel = self.channels.channel_of_page(page_number)
        self.channels.occupy_background(
            channel, now_ns, self._block_transfer_ns
        )
        self.energy.charge(CACHE_LINE_BYTES, activations, is_write=True)
        return service_ns

    def fill_page(
        self, now_ns: float, page_number: int, num_bytes: int = PAGE_BYTES
    ) -> float:
        """Demand-fill a page (or a predicted footprint of it), critical
        block first.

        The requester waits only for the first 64 B (activate + column
        access); the rest of the transfer streams behind it, occupying
        the channel and burning its energy.  One activation serves the
        whole row -- the row-efficiency argument for page-granularity
        caching.  ``num_bytes`` < 4 KB models footprint-style partial
        fills (extension; see :mod:`repro.core.footprint`).
        """
        if not (CACHE_LINE_BYTES <= num_bytes <= PAGE_BYTES):
            raise ValueError(
                f"fill size {num_bytes} outside [{CACHE_LINE_BYTES}, "
                f"{PAGE_BYTES}]"
            )
        self._catch_up_refresh(now_ns)
        service_ns = self._block_service_ns
        transfer_ns = (self._page_transfer_ns if num_bytes == PAGE_BYTES
                       else self.timing.transfer_ns(num_bytes))
        channel = self.channels.channel_of_page(page_number)
        queue_ns = self.channels.occupy(channel, now_ns, transfer_ns)
        self.energy.charge(num_bytes, 1, is_write=False)
        latency = queue_ns + service_ns
        self.demand_accesses += 1
        self.demand_latency_ns += latency
        histogram = self.latency_histogram
        if histogram is not None:
            histogram.observe(latency)
        return latency

    def stream_page(
        self,
        now_ns: float,
        page_number: int,
        is_write: bool = False,
        asynchronous: bool = False,
        num_bytes: int = PAGE_BYTES,
    ) -> float:
        """Transfer a page -- or part of one -- (write-back or lay-in).

        When ``asynchronous`` is true (the common case: free-queue
        evictions, the in-package half of a fill) the bus and energy are
        charged but 0.0 latency is returned.  The synchronous variant
        waits for the full stream -- used when a caller genuinely cannot
        proceed until the last byte (and by tests).  ``num_bytes`` < 4 KB
        models footprint-limited transfers.
        """
        if not (CACHE_LINE_BYTES <= num_bytes <= PAGE_BYTES):
            raise ValueError(
                f"stream size {num_bytes} outside [{CACHE_LINE_BYTES}, "
                f"{PAGE_BYTES}]"
            )
        self._catch_up_refresh(now_ns)
        transfer_ns = (self._page_transfer_ns if num_bytes == PAGE_BYTES
                       else self.timing.transfer_ns(num_bytes))
        channel = self.channels.channel_of_page(page_number)
        if asynchronous:
            self.channels.occupy_background(channel, now_ns, transfer_ns)
            self.energy.charge(num_bytes, 1, is_write)
            return 0.0
        service_ns = self.timing.row_empty_ns(num_bytes)
        queue_ns = self.channels.occupy(channel, now_ns, transfer_ns)
        self.energy.charge(num_bytes, 1, is_write)
        latency = queue_ns + service_ns
        self.demand_accesses += 1
        self.demand_latency_ns += latency
        histogram = self.latency_histogram
        if histogram is not None:
            histogram.observe(latency)
        return latency

    def _finish_demand(
        self,
        now_ns: float,
        page_number: int,
        num_bytes: int,
        is_write: bool,
        service_ns: float,
        activations: int,
    ) -> float:
        transfer_ns = self.timing.transfer_ns(num_bytes)
        channel = self.channels.channel_of_page(page_number)
        queue_ns = self.channels.occupy(channel, now_ns, transfer_ns)
        self.energy.charge(num_bytes, activations, is_write)
        latency = queue_ns + service_ns
        self.demand_accesses += 1
        self.demand_latency_ns += latency
        histogram = self.latency_histogram
        if histogram is not None:
            histogram.observe(latency)
        return latency

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def mean_demand_latency_ns(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_latency_ns / self.demand_accesses

    def stats(self, prefix: str = "") -> dict:
        """Flat statistics dictionary for the experiment harness."""
        out = super().stats(prefix)
        out.update(self.banks.stats(prefix))
        out[f"{prefix}queue_ns_total"] = self.channels.queue_ns_total
        out[f"{prefix}refreshes"] = float(self.refreshes)
        out.update(self.energy.as_dict(prefix))
        return out

    def reset(self) -> None:
        """Clear all state and statistics (fresh device)."""
        self.banks = BankArray(self.timing)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero counters but keep warm state (open rows survive).

        Used at the warmup/measurement boundary: the simulation clock
        restarts at zero, so channel reservations, the refresh clock
        (next deadline and refresh count) and the energy account are
        cleared too.
        """
        super().reset_stats()
        self.banks.reset_stats()
        self.channels.reset()
        self.energy = EnergyAccount(self.energy.config)
        self._next_refresh_ns = self.timing.trefi_ns
        self.refreshes = 0
