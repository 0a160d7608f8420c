"""Chrome trace-event JSON exporter (Perfetto / chrome://tracing).

Renders two time bases into one trace file:

* **simulated time** (pid 1) — packet journeys, RTL busy/idle windows
  and tracepoint instants, with 1 tick = 1 ps mapped to the trace's
  microsecond timestamps (so 1 simulated µs reads as 1 µs in the UI);
* **host time** (pid 2) — self-profiling of event-queue callbacks,
  timestamped by wall clock relative to tracer creation.

The output is the standard JSON object format::

    {"traceEvents": [...], "displayTimeUnit": "ns"}

loadable directly in https://ui.perfetto.dev.  Events are buffered in
memory and written by :meth:`finish`; per-callback host events are
capped (aggregates are always complete) so a long run cannot produce an
unboundedly large file.
"""

from __future__ import annotations

import json
import time
from typing import Optional, TextIO, Union

__all__ = ["ChromeTracer", "PID_SIM", "PID_HOST"]

PID_SIM = 1
PID_HOST = 2

_TICKS_PER_US = 1e6  # 1 tick = 1 ps


class ChromeTracer:
    """Collects trace events and serialises them on :meth:`finish`."""

    #: cap on individually-recorded host callback slices (aggregates in
    #: ``host_totals`` keep counting past the cap)
    HOST_EVENT_CAP = 50_000

    def __init__(
        self,
        path: Optional[str] = None,
        stream: Optional[TextIO] = None,
    ) -> None:
        self.path = path
        self.stream = stream
        self.enabled = True
        self.events: list[dict] = []
        self.host_totals: dict[str, list] = {}  # name -> [count, seconds]
        self._tids: dict[tuple[int, str], int] = {}
        # Coalesced windows (RTL busy/batched): per track, the span being
        # extended, as (name, start_tick, end_tick, period).
        self._windows: dict[str, tuple[str, int, int, int]] = {}
        self._host_t0 = time.perf_counter()
        self._host_recorded = 0
        self._finished = False
        self._meta(PID_SIM, "simulated time")
        self._meta(PID_HOST, "host self-profile")

    # -- track bookkeeping ------------------------------------------------

    def _meta(self, pid: int, name: str) -> None:
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    def _tid(self, pid: int, track: Union[int, str]) -> int:
        if isinstance(track, int):
            return track
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        return tid

    # -- simulated-time events --------------------------------------------

    def instant(self, name: str, track: Union[int, str], tick: int,
                args: Optional[dict] = None) -> None:
        if not self.enabled:
            return
        self.events.append({
            "name": name, "ph": "i", "s": "t",
            "pid": PID_SIM, "tid": self._tid(PID_SIM, track),
            "ts": tick / _TICKS_PER_US,
            "args": args or {},
        })

    def span(self, name: str, track: Union[int, str], start_tick: int,
             end_tick: int, args: Optional[dict] = None) -> None:
        """A complete ("X") slice on the simulated-time process."""
        if not self.enabled:
            return
        self.events.append({
            "name": name, "ph": "X",
            "pid": PID_SIM, "tid": self._tid(PID_SIM, track),
            "ts": start_tick / _TICKS_PER_US,
            "dur": max(end_tick - start_tick, 0) / _TICKS_PER_US,
            "args": args or {},
        })

    def window(self, name: str, track: str, start_tick: int, end_tick: int,
               period: int) -> None:
        """Extend *track*'s open window, or emit it and open a new one.

        Back-to-back windows of one name coalesce into a single span
        whose ``cycles`` argument counts *period* ticks.  The open span
        is held here, not by the caller, so that whoever ends tracing
        (:meth:`close_windows`) can emit it.
        """
        if not self.enabled:
            return
        cur = self._windows.get(track)
        if cur is not None and cur[0] == name and cur[2] == start_tick:
            start_tick = cur[1]
        elif cur is not None:
            self.span(cur[0], track, cur[1], cur[2],
                      args={"cycles": (cur[2] - cur[1]) // cur[3]})
        self._windows[track] = (name, start_tick, end_tick, period)

    def close_windows(self, tick: Optional[int] = None) -> None:
        """Emit every open window, ending no later than *tick*."""
        for track, (name, start, end, period) in self._windows.items():
            if tick is not None and tick < end:
                end = tick
            self.span(name, track, start, end,
                      args={"cycles": (end - start) // period})
        self._windows.clear()

    def counter(self, name: str, tick: int, values: dict) -> None:
        if not self.enabled:
            return
        self.events.append({
            "name": name, "ph": "C", "pid": PID_SIM, "tid": 0,
            "ts": tick / _TICKS_PER_US, "args": values,
        })

    # -- host-time self-profiling (EventQueue.profiler protocol) -----------

    def host_event(self, name: str, tick: int, t0: float, dur: float) -> None:
        """One event-queue callback: *t0* from ``perf_counter``, *dur*
        seconds.  Called from the event loop's hot path when installed."""
        total = self.host_totals.get(name)
        if total is None:
            self.host_totals[name] = [1, dur]
        else:
            total[0] += 1
            total[1] += dur
        if not self.enabled or self._host_recorded >= self.HOST_EVENT_CAP:
            return
        self._host_recorded += 1
        self.events.append({
            "name": name, "ph": "X",
            "pid": PID_HOST, "tid": self._tid(PID_HOST, "event callbacks"),
            "ts": (t0 - self._host_t0) * 1e6,
            "dur": dur * 1e6,
            "args": {"sim_tick": tick},
        })

    # -- output ------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "traceEvents": self.events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.trace",
                "host_callback_totals": {
                    name: {"count": c, "seconds": round(s, 6)}
                    for name, (c, s) in sorted(self.host_totals.items())
                },
            },
        }
        return json.dumps(doc)

    def finish(self) -> Optional[str]:
        """Write the trace; returns the path written to, if any."""
        if self._finished:
            return self.path
        self._finished = True
        self.close_windows()
        text = self.to_json()
        if self.stream is not None:
            self.stream.write(text)
        elif self.path is not None:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return self.path
