"""CLI glue for the resilience subsystem.

The CLI parses ``--inject`` / ``--watchdog`` / ``--checkpoint-every`` /
``--restore-from`` before any system exists, so :func:`park` parks
``functools.partial(arm, ...)`` on
:data:`repro.soc.simobject.startup_hooks`; the first simulation that
starts runs it.  The parsed fault plan is also kept in
:data:`worker_plan`, where the sweep runner's pool workers (which
inherit it on fork) look up their ``worker-kill``/``worker-hang``
faults.

Attachment order matters and is fixed: fault injector, watchdog,
periodic checkpointer, then restore.  The restoring process re-creates
the same objects in the same order before loading the checkpoint, so the
structure digest matches as long as the same flags are passed.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, Optional

from ..soc.event import Event, EventPriority
from ..soc.simobject import VALUE, SimObject, Simulation, startup_hooks
from .faults import FaultInjector, FaultPlan
from .serialize import checkpoint_document, write_checkpoint
from .watchdog import Watchdog

#: the ``--inject`` plan, read by pool workers for worker-side faults
worker_plan: Optional[FaultPlan] = None


def park(plan: Optional[FaultPlan], **hooks) -> None:
    """:func:`arm` for the first simulation that starts (per process:
    pool workers inherit the list on fork), with *plan* as the
    :data:`worker_plan`."""
    global worker_plan
    worker_plan = plan
    startup_hooks.append(functools.partial(arm, plan=plan, **hooks))


def arm(sim: Simulation, plan: Optional[FaultPlan],
        watchdog: Optional[dict], checkpoints: Optional[tuple[int, str]],
        restore: Optional[str]) -> None:
    """Attach the CLI's resilience hooks to the started *sim*: a fault
    injector for *plan*, a :class:`Watchdog` built with the *watchdog*
    keyword arguments, a :class:`PeriodicCheckpointer` for
    *checkpoints* ``(every_cycles, directory)``, then a restore from
    *restore*.  Each ``None`` is skipped."""

    # Simulation.startup has already run init()/startup() over the tree,
    # so late-attached objects bring themselves up explicitly.
    def bring_up(obj: SimObject) -> None:
        obj.init()
        obj.startup()

    if plan is not None:
        bring_up(FaultInjector(sim, plan))
    if watchdog is not None:
        bring_up(Watchdog(sim, **watchdog))
    if checkpoints is not None:
        every, directory = checkpoints
        bring_up(PeriodicCheckpointer(sim, every_cycles=every,
                                      directory=directory))
    if restore is not None:
        # sim is already started, so this goes straight to the engine.
        sim.restore(restore)


def latest_checkpoint(directory) -> Optional[str]:
    """Newest ``ckpt-NNNN.ckpt`` in *directory*, or None."""
    try:
        names = sorted(
            n for n in os.listdir(directory)
            if n.startswith("ckpt-") and n.endswith(".ckpt")
        )
    except FileNotFoundError:
        return None
    if not names:
        return None
    return os.path.join(directory, names[-1])


def enable_point_checkpoints(sim: Simulation,
                             every_cycles: int = 500_000):
    """Opt a sweep worker's simulation into checkpoint-based resume.

    Call after building the system (before or after ``startup``).  If
    ``run_points`` was given ``checkpoint_dir=``, the worker runs with
    ``REPRO_POINT_CKPT_DIR`` set to a per-point directory: a
    :class:`PeriodicCheckpointer` is attached there and, when a
    previous (killed or timed-out) attempt left checkpoints behind, the
    newest one is restored so the retry resumes instead of starting
    over.  Returns the checkpointer, or None when the contract is not
    active (e.g. a plain local run).
    """
    from ..parallel.runner import POINT_CKPT_ENV

    directory = os.environ.get(POINT_CKPT_ENV)
    if not directory:
        return None
    ckpt = PeriodicCheckpointer(sim, every_cycles=every_cycles,
                                directory=directory)
    if sim._started:
        ckpt.init()
        ckpt.startup()
    resume_from = latest_checkpoint(directory)
    if resume_from is not None:
        sim.startup()
        sim.restore(resume_from)
    return ckpt


class PeriodicCheckpointer(SimObject):
    """Takes a checkpoint every N cycles: saves ``ckpt-NNNN.ckpt`` into
    *directory*, and hands each document to *on_rung* if given.  With
    no directory nothing is written (a campaign experiment only digests
    its rungs), but the object, its event and its count are the same, so
    the object tree matches the run that wrote them."""

    ckpt_state = (("_index", VALUE),
                  ("last_path", "last_checkpoint_path", VALUE),
                  ("manifest", VALUE))
    ckpt_events = {"ckpt": "_event"}

    def __init__(
        self,
        sim: Simulation,
        every_cycles: int,
        directory: Optional[str],
        name: str = "checkpointer",
        parent: Optional[SimObject] = None,
        on_rung: Optional[Callable[[dict], None]] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        if every_cycles <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.every_cycles = every_cycles
        self.directory = None if directory is None else os.fspath(directory)
        self.on_rung = on_rung
        self._event = Event(self._take, f"{name}.ckpt")
        self._index = 0
        self._saving = False
        self.last_checkpoint_path: Optional[str] = None
        # [path, tick-at-save] per checkpoint.  IO vetoes can slide a
        # save past its nominal cycle, so campaign restores must consult
        # the recorded tick, not ``index * every_cycles``.
        self.manifest: list[list] = []
        self.st_saved = self.stats.scalar("saved", "checkpoints taken")

    def startup(self) -> None:
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self.schedule_cycles(self._event, self.every_cycles,
                             EventPriority.STATS)

    def stop(self) -> None:
        if self._event.scheduled:
            self.sim.eventq.deschedule(self._event)

    def _take(self) -> None:
        # Re-arm BEFORE saving so the snapshot itself contains the next
        # periodic checkpoint event — a restored run keeps checkpointing.
        self.schedule_cycles(self._event, self.every_cycles,
                             EventPriority.STATS)
        if self._saving:
            # A vetoed save drains the event queue looking for a
            # checkpointable instant; when vetoes persist for a whole
            # period (a wedged access under fault injection) the drain
            # reaches the *next* periodic instant.  Nesting another
            # save here recurses until the host stack blows — skip, the
            # outer save is still hunting for the same instant.
            return
        index = self._index
        self._index += 1
        # Counted before the document is built: the count it holds
        # includes this save, so a run restored from it counts as the
        # uninterrupted run does.
        self.st_saved.inc()
        self._saving = True
        try:
            doc = checkpoint_document(self.sim)
        finally:
            self._saving = False
        if self.directory is not None:
            path = os.path.join(self.directory, f"ckpt-{index:04d}.ckpt")
            write_checkpoint(doc, path)
            self.last_checkpoint_path = path
            self.manifest.append([path, doc["meta"]["tick"]])
        if self.on_rung is not None:
            self.on_rung(doc)
