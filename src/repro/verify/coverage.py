"""Coverage collection: statement, toggle and FSM coverage.

Three coverage models, all **backend-identical by construction**:

* *statement* coverage counters are emitted by the elaborator straight
  into the generated process source (``v[k] = v[k] + 1`` before every
  procedural assignment), so the interpreter and the codegen backend
  execute the very same increments — identical stimulus must yield
  bit-identical counts (``tests/verify/test_coverage_backends.py``
  enforces this invariant over every bundled design);
* *toggle* coverage observes the visible signal values once per cycle
  and accumulates 0→1 / 1→0 transition masks per signal;
* *FSM* coverage uses the state registers the elaborator detected
  (:class:`~repro.rtl.kernel.FSMInfo`) and records visited states and
  taken edges.

Toggle and FSM coverage never look at backend internals — only at
``sim.values`` — so the existing differential invariant (both backends
produce identical values) carries the identity over to them for free.

A collector registers with :func:`repro.trace.control.register_coverage` so
trace windows gate coverage accumulation together with text tracing and
waveforms; statement counters keep incrementing inside the kernel (they
are baked into the source) but hits accumulated while disabled are
subtracted out.
"""

from __future__ import annotations

import json
from typing import Optional

from ..rtl.kernel import CoveragePoint, FSMInfo
from ..trace.control import register_coverage


class CoverageCollector:
    """Accumulates coverage from one
    :class:`~repro.rtl.simulator.RTLSimulator`.

    Call :meth:`sample` once after reset and once after every tick;
    statement counters are read live from the simulator state, so only
    toggle and FSM coverage depend on the sampling cadence.
    """

    def __init__(self, sim, enabled: bool = True,
                 follow_trace_window: bool = False) -> None:
        module = sim.module
        self.sim = sim
        self.enabled = enabled
        self.points: list[CoveragePoint] = list(module.coverage_points)
        self.fsms: list[FSMInfo] = list(module.fsm_infos)
        self._signals = module.visible_signals()
        self._prev: Optional[list[int]] = None
        self._t01: dict[str, int] = {s.name: 0 for s in self._signals}
        self._t10: dict[str, int] = {s.name: 0 for s in self._signals}
        self._fsm_states: dict[str, set] = {f.signal: set() for f in self.fsms}
        self._fsm_edges: dict[str, set] = {f.signal: set() for f in self.fsms}
        self._fsm_prev: dict[str, Optional[int]] = {
            f.signal: None for f in self.fsms
        }
        # statement hits observed while disabled are excluded, so the
        # collector honours trace windows even though the counters are
        # baked into the generated kernel source
        self._stmt_excluded = [0] * len(self.points)
        self._stmt_at_disable: Optional[list[int]] = None
        if not enabled:
            self._stmt_at_disable = self._raw_stmt_counts()
        if follow_trace_window:
            register_coverage(self)

    # -- control (trace-window protocol) ------------------------------------

    def enable(self) -> None:
        if self.enabled:
            return
        self.enabled = True
        if self._stmt_at_disable is not None:
            now = self._raw_stmt_counts()
            for i, at in enumerate(self._stmt_at_disable):
                self._stmt_excluded[i] += now[i] - at
            self._stmt_at_disable = None
        # toggle/FSM sampling restarts from the next sample
        self._prev = None
        for f in self.fsms:
            self._fsm_prev[f.signal] = None

    def disable(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        self._stmt_at_disable = self._raw_stmt_counts()

    # -- accumulation ------------------------------------------------------

    def _raw_stmt_counts(self) -> list[int]:
        v = self.sim.values
        return [v[p.index] for p in self.points]

    def sample(self) -> None:
        """Observe the current signal values (one call per cycle)."""
        if not self.enabled:
            return
        v = self.sim.values
        cur = [v[s.index] & s.mask for s in self._signals]
        prev = self._prev
        if prev is not None:
            for i, s in enumerate(self._signals):
                was, now = prev[i], cur[i]
                if was != now:
                    self._t01[s.name] |= ~was & now
                    self._t10[s.name] |= was & ~now
        self._prev = cur
        for f in self.fsms:
            state = v[f.index] & ((1 << f.width) - 1)
            self._fsm_states[f.signal].add(state)
            last = self._fsm_prev[f.signal]
            if last is not None and last != state:
                self._fsm_edges[f.signal].add((last, state))
            self._fsm_prev[f.signal] = state

    # -- results -----------------------------------------------------------

    def statement_hits(self) -> list[int]:
        raw = self._raw_stmt_counts()
        hits = [raw[i] - self._stmt_excluded[i] for i in range(len(raw))]
        if self._stmt_at_disable is not None:
            for i, at in enumerate(self._stmt_at_disable):
                hits[i] -= raw[i] - at
        return hits

    def covered_keys(self) -> set:
        """Every covered item as a hashable key (fuzz-loop currency)."""
        keys: set = set()
        for i, hits in enumerate(self.statement_hits()):
            if hits:
                keys.add(("stmt", i))
        for s in self._signals:
            t01, t10 = self._t01[s.name], self._t10[s.name]
            for bit in range(s.width):
                if (t01 >> bit) & 1:
                    keys.add(("t01", s.name, bit))
                if (t10 >> bit) & 1:
                    keys.add(("t10", s.name, bit))
        for f in self.fsms:
            for st in self._fsm_states[f.signal]:
                keys.add(("fsm_state", f.signal, st))
            for edge in self._fsm_edges[f.signal]:
                keys.add(("fsm_edge", f.signal, edge))
        return keys

    def report(self) -> "CoverageReport":
        stmt_points = [
            {
                "label": p.label,
                "file": p.file,
                "line": p.line,
                "hits": hits,
            }
            for p, hits in zip(self.points, self.statement_hits())
        ]
        toggle_signals = []
        for s in sorted(self._signals, key=lambda s: s.name):
            full = (1 << s.width) - 1
            t01 = self._t01[s.name] & full
            t10 = self._t10[s.name] & full
            toggle_signals.append({
                "name": s.name,
                "width": s.width,
                "t01_bits": bin(t01).count("1"),
                "t10_bits": bin(t10).count("1"),
            })
        fsm_entries = []
        for f in sorted(self.fsms, key=lambda f: f.signal):
            declared = sorted(f.states)
            visited = sorted(self._fsm_states[f.signal])
            edges = sorted(self._fsm_edges[f.signal])
            fsm_entries.append({
                "signal": f.signal,
                "declared_states": declared,
                "visited_states": visited,
                "edges": [list(e) for e in edges],
            })
        return CoverageReport(
            design=self.sim.module.name,
            backend=self.sim.backend,
            statement=stmt_points,
            toggle=toggle_signals,
            fsm=fsm_entries,
        )


class CoverageReport:
    """Deterministic coverage summary with text and JSON renderings."""

    def __init__(self, design: str, backend: str, statement: list[dict],
                 toggle: list[dict], fsm: list[dict]) -> None:
        self.design = design
        self.backend = backend
        self.statement = statement
        self.toggle = toggle
        self.fsm = fsm

    # -- summary numbers ---------------------------------------------------

    @property
    def statement_covered(self) -> int:
        return sum(1 for p in self.statement if p["hits"])

    @property
    def statement_total(self) -> int:
        return len(self.statement)

    @property
    def statement_pct(self) -> float:
        if not self.statement:
            return 100.0
        return 100.0 * self.statement_covered / self.statement_total

    @property
    def toggle_covered(self) -> int:
        return sum(s["t01_bits"] + s["t10_bits"] for s in self.toggle)

    @property
    def toggle_total(self) -> int:
        return sum(2 * s["width"] for s in self.toggle)

    @property
    def toggle_pct(self) -> float:
        if not self.toggle_total:
            return 100.0
        return 100.0 * self.toggle_covered / self.toggle_total

    @property
    def fsm_state_covered(self) -> int:
        return sum(
            len(set(f["visited_states"]) & set(f["declared_states"]))
            for f in self.fsm
        )

    @property
    def fsm_state_total(self) -> int:
        return sum(len(f["declared_states"]) for f in self.fsm)

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "backend": self.backend,
            "statement": {
                "points": self.statement,
                "covered": self.statement_covered,
                "total": self.statement_total,
                "pct": round(self.statement_pct, 2),
            },
            "toggle": {
                "signals": self.toggle,
                "covered_bits": self.toggle_covered,
                "total_bits": self.toggle_total,
                "pct": round(self.toggle_pct, 2),
            },
            "fsm": {
                "fsms": self.fsm,
                "states_covered": self.fsm_state_covered,
                "states_total": self.fsm_state_total,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = [f"coverage: {self.design} ({self.backend} backend)"]
        lines.append(
            f"  statement: {self.statement_covered}/{self.statement_total} "
            f"({self.statement_pct:.1f}%)"
        )
        for p in self.statement:
            mark = " " if p["hits"] else "!"
            lines.append(
                f"    {mark} {p['file']}:{p['line']} [{p['label']}] "
                f"hits={p['hits']}"
            )
        lines.append(
            f"  toggle: {self.toggle_covered}/{self.toggle_total} bits "
            f"({self.toggle_pct:.1f}%)"
        )
        if self.fsm:
            lines.append(
                f"  fsm: {self.fsm_state_covered}/{self.fsm_state_total} "
                "states"
            )
            for f in self.fsm:
                lines.append(
                    f"    {f['signal']}: visited "
                    f"{f['visited_states']} of {f['declared_states']}, "
                    f"{len(f['edges'])} edge(s)"
                )
        else:
            lines.append("  fsm: no state machines detected")
        return "\n".join(lines)
