"""Facade combining bank, channel and energy models into one DRAM device.

The rest of the simulator talks to DRAM exclusively through five verbs:

- :meth:`DRAMDevice.access_block` -- a demand 64 B read or write (an on-die
  cache miss being serviced);
- :meth:`DRAMDevice.fill_page` -- a demand page fill, critical block
  first;
- :meth:`DRAMDevice.stream_page` -- a 4 KB bulk transfer (cache lay-in or
  write-back), which is what page-granularity caching turns most
  off-package traffic into;
- :meth:`DRAMDevice.posted_write_block` -- a 64 B posted store (GIPT
  updates);
- :meth:`DRAMDevice.write_back_block` -- a 64 B background write (dirty
  on-die victims, block lay-ins).

The demand verbs return the core-visible latency in nanoseconds;
background traffic charges bus time and energy but the caller observes
no latency (the tagless design's free-queue evictions).  Each verb's
timing and energy constants are computed once in ``__init__`` with the
expressions the general formulas evaluate and handed to
``ChannelScheduler``/``EnergyAccount``, so the floats match the general
composition bit for bit.  The two 64 B verbs that run per access,
``access_block`` and ``write_back_block``, write the channel
reservation and energy charge out inline.
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
        # A 64 B access that activates no row (a row hit, or a write
        # nobody waits on).
        self._block_wb_nj = energy.access_nj(CACHE_LINE_BYTES, 0)
        # Full-page transfer time and energy (one activation), for the
        # fill/stream paths (footprint fills pass other sizes and take
        # the computed branch).
        self._page_transfer_ns = timing.transfer_ns(PAGE_BYTES)
        self._page_nj = energy.access_nj(PAGE_BYTES, 1)

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
            service_ns, activations = self.banks.access(page_number)
            service_ns += self.timing.controller_ns
            nj = self._block_nj if activations else self._block_wb_nj
        else:
            # Closed page: every timing/energy quantity is a per-device
            # constant.
            service_ns = self._block_service_ns
            activations = 1
            nj = self._block_nj
        # ChannelScheduler.occupy, inlined.
        channels = self.channels
        channel = page_number % channels.num_channels
        free_at = channels._free_at_ns
        start = free_at[channel]
        if start < now_ns:
            start = now_ns
        bg_until = channels._bg_until_ns[channel]
        if bg_until > start:
            start += channels.preemption_ns
            if bg_until < start:
                start = bg_until
        queue_ns = start - now_ns
        free_at[channel] = start + self._block_transfer_ns
        channels.queue_ns_total += queue_ns
        channels.requests += 1
        channels.demand_busy_ns += self._block_transfer_ns
        # EnergyAccount.charge, inlined.
        energy = self.energy
        energy.dynamic_nj += nj
        energy.activations += activations
        if is_write:
            energy.write_bytes += CACHE_LINE_BYTES
        else:
            energy.read_bytes += CACHE_LINE_BYTES
        latency = queue_ns + service_ns
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
            service_ns, activations = self.banks.access(page_number)
        else:
            service_ns = self.timing.row_empty_ns(CACHE_LINE_BYTES)
            activations = 1
        channels = self.channels
        channels.occupy_background(
            page_number % channels.num_channels, now_ns,
            self._block_transfer_ns,
        )
        self.energy.charge(
            CACHE_LINE_BYTES, activations, True,
            self._block_nj if activations else self._block_wb_nj,
        )
        return service_ns

    def write_back_block(self, now_ns: float, page_number: int) -> None:
        """A 64 B write nobody waits on: bus time and energy, no latency.

        Dirty on-die victims heading home, blocks laid into a DRAM
        cache behind their demand read.  No row is activated and no
        refresh is caught up: the write drains in idle bus slots.
        """
        # ChannelScheduler.occupy_background and EnergyAccount.charge,
        # inlined: this runs once per dirty on-die victim.
        channels = self.channels
        channel = page_number % channels.num_channels
        bg_until = channels._bg_until_ns
        start = now_ns
        if bg_until[channel] > start:
            start = bg_until[channel]
        free_at = channels._free_at_ns[channel]
        if free_at > start:
            start = free_at
        bg_until[channel] = start + self._block_transfer_ns
        channels.background_busy_ns += self._block_transfer_ns
        energy = self.energy
        energy.dynamic_nj += self._block_wb_nj
        energy.write_bytes += CACHE_LINE_BYTES

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
        if num_bytes == PAGE_BYTES:
            transfer_ns = self._page_transfer_ns
            nj = self._page_nj
        else:
            transfer_ns, nj = self._partial_page_costs(num_bytes, "fill")
        if now_ns >= self._next_refresh_ns:
            self._catch_up_refresh(now_ns)
        channels = self.channels
        queue_ns = channels.occupy(
            page_number % channels.num_channels, now_ns, transfer_ns
        )
        self.energy.charge(num_bytes, 1, False, nj)
        latency = queue_ns + self._block_service_ns
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
        if num_bytes == PAGE_BYTES:
            transfer_ns = self._page_transfer_ns
            nj = self._page_nj
        else:
            transfer_ns, nj = self._partial_page_costs(num_bytes, "stream")
        if now_ns >= self._next_refresh_ns:
            self._catch_up_refresh(now_ns)
        channels = self.channels
        channel = page_number % channels.num_channels
        self.energy.charge(num_bytes, 1, is_write, nj)
        if asynchronous:
            channels.occupy_background(channel, now_ns, transfer_ns)
            return 0.0
        service_ns = self.timing.row_empty_ns(num_bytes)
        queue_ns = channels.occupy(channel, now_ns, transfer_ns)
        latency = queue_ns + service_ns
        self.demand_accesses += 1
        self.demand_latency_ns += latency
        histogram = self.latency_histogram
        if histogram is not None:
            histogram.observe(latency)
        return latency

    def _partial_page_costs(self, num_bytes: int, verb: str) -> tuple:
        """``(transfer_ns, nj)`` of a one-activation transfer of part of
        a page (footprint caching)."""
        if not (CACHE_LINE_BYTES <= num_bytes <= PAGE_BYTES):
            raise ValueError(
                f"{verb} size {num_bytes} outside [{CACHE_LINE_BYTES}, "
                f"{PAGE_BYTES}]"
            )
        return (self.timing.transfer_ns(num_bytes),
                self.energy.config.access_nj(num_bytes, 1))

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
