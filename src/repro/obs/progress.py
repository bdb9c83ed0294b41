"""Live fleet health: ``--progress`` rendering.

The parent's :class:`ProgressReporter` renders throttled status lines
to **stderr** (stdout stays reports-only, per the CLI contract): items
done, throughput, ETA, and retry/quarantine counts.  While the
supervised pool runs, each line also shows worker liveness, which the
supervisor reads off its own bookkeeping: the workers it holds, and
how many have owned their item past
:data:`repro.mc.supervisor.STALL_AFTER` — the watchdog's clock.

Purity: progress output is stderr chatter computed *from* the run; it
feeds nothing back in, so reports stay byte-identical with it on or
off (the CI purity diff includes ``--progress``).

The reporter takes an injectable ``clock`` so tests can drive the
throttle deterministically.
"""

from __future__ import annotations

import sys
import time

#: Minimum seconds between rendered progress lines.
DEFAULT_INTERVAL = 1.0


class ProgressReporter:
    """Throttled fleet-status lines on stderr.

    ``begin(total, resolved)`` fixes the denominator (``resolved`` items
    never reach the pool: cache hits, journal replays, quarantines);
    ``tick(stats, busy, workers, stalled)`` is called after each inline
    item or from the supervisor's poll loop and renders at most once per
    ``interval``; ``finish(stats)`` renders the unconditional final line.
    """

    def __init__(self, stream=None, interval: float = DEFAULT_INTERVAL,
                 clock=time.monotonic):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.clock = clock
        self.total = 0
        self.resolved = 0
        self._t0 = clock()
        self._last_render = float("-inf")
        self.lines_rendered = 0

    # -- lifecycle -----------------------------------------------------------

    def begin(self, total: int, resolved: int = 0) -> None:
        self.total = total
        self.resolved = resolved
        self._t0 = self.clock()
        self._render(done=resolved, busy=0, stats=None, final=False,
                     force=True)

    def tick(self, stats, busy: int = 0, workers: int = 0,
             stalled: int = 0) -> None:
        """Throttled render; ``stats`` is the supervisor's RunStats, and
        ``workers`` the size of its pool (0 when items run inline), of
        which ``stalled`` have held their item too long."""
        now = self.clock()
        if now - self._last_render < self.interval:
            return
        done = self.resolved + getattr(stats, "completed", 0) \
            + getattr(stats, "quarantined", 0)
        self._render(done=done, busy=busy, stats=stats, final=False,
                     workers=workers, stalled=stalled)

    def finish(self, stats=None) -> None:
        done = self.resolved
        if stats is not None:
            done += getattr(stats, "completed", 0) \
                + getattr(stats, "quarantined", 0)
        else:
            done = self.total
        self._render(done=done, busy=0, stats=stats, final=True, force=True)

    # -- rendering -----------------------------------------------------------

    def _render(self, *, done: int, busy: int, stats, final: bool,
                force: bool = False, workers: int = 0,
                stalled: int = 0) -> None:
        now = self.clock()
        if not force and now - self._last_render < self.interval:
            return
        self._last_render = now
        elapsed = max(now - self._t0, 1e-9)
        fresh_done = max(0, done - self.resolved)
        rate = fresh_done / elapsed
        parts = []
        pct = (100.0 * done / self.total) if self.total else 100.0
        parts.append(f"{done}/{self.total} items ({pct:.0f}%)")
        if final:
            parts.append(f"{rate:.1f} items/s" if fresh_done else "all "
                         "resolved from cache")
        else:
            parts.append(f"{rate:.1f} items/s")
            remaining = max(0, self.total - done)
            if rate > 0 and remaining:
                parts.append(f"eta {remaining / rate:.0f}s")
            if busy:
                parts.append(f"{busy} in flight")
            if workers:
                parts.append(f"workers {workers - stalled}/{workers} live"
                             + (f" ({stalled} stalled)" if stalled else ""))
        if stats is not None:
            retried = getattr(stats, "retried", 0)
            quarantined = getattr(stats, "quarantined", 0)
            if retried:
                parts.append(f"retries {retried}")
            if quarantined:
                parts.append(f"quarantined {quarantined}")
        label = "progress" if not final else "progress(done)"
        try:
            self.stream.write(f"{label}: " + ", ".join(parts) + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
        self.lines_rendered += 1
