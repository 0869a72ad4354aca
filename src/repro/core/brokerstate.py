"""The campaign broker's state machine: every rule, no socket, no clock.

:class:`BrokerState` holds all the state
:class:`~repro.core.broker.EmbeddedBroker` serves -- the campaign
records, the leases, the worker registry with its expiry times, crash
counts, quarantine and the deficit round-robin (DRR) balances that pick
the campaign the next lease comes from -- and every rule that changes
it.  It reads no clock and takes no lock: time comes in as data, so a
step is a pure ``(state, frame, now) -> (state, reply)``, and tests
drive TTLs, quarantine and fair scheduling on a made-up ``now`` with no
socket, thread or sleep.  Three entry points take time as data:

* :meth:`BrokerState.handle` answers one command frame, or says "not
  yet" (``None``) for a ``take`` or ``take_any`` that would wait;
* :meth:`BrokerState.expire` fails every worker silent past its TTL;
* :meth:`BrokerState.connection_lost` fails the worker whose
  connection ended without a goodbye.

Every durable change is one entry through :meth:`BrokerState.reduce`,
handed to :attr:`BrokerState.record` first (the broker journals it
there: the write-ahead rule).  Replaying the recorded entries on a fresh state, or
on a :meth:`~BrokerState.snapshot` plus the entries after it, rebuilds
the durable state exactly -- a ``lease`` entry carries its grant time,
so replay reads nothing but the entries.

A frame with a field of the wrong type gets an error reply naming the
field and changes nothing: each op checks what it reads before it
commits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["BROKER_PROTOCOL", "DRR_QUANTUM", "BrokerState"]

#: One command frame: ``{"type": "cmd", "op": ..., **fields}``.
Frame = Mapping[str, Any]

#: Broker wire-protocol version; a worker's hello and a coordinator's
#: ping must match it exactly.  Version 3 entries are lane runs (each
#: assignment maps a structure to a tuple of DDTs).  Version 4 names a
#: campaign id in every op where version 3 named a queue.  Version 5
#: queues, leases and returns single lane runs where version 4 moved
#: chunks of them.  Version 6 queues each run as ``{"token", "run"}``,
#: the run a :class:`~repro.core.transport.LaneRun`, where version 5
#: spelled it out in five keys.  An older peer is refused instead of
#: misreading every item.
BROKER_PROTOCOL = 6

#: Base deficit-round-robin quantum, in lane runs per visit.  Each
#: running campaign banks ``DRR_QUANTUM * priority`` runs every time the
#: scheduler's rotation reaches it, and leases one run per unit of
#: deficit -- so the leased-run ratio between two busy campaigns
#: follows their priority ratio.
DRR_QUANTUM = 8.0

#: The :class:`_Campaign` fields a snapshot keeps.
_DURABLE = ("id", "spec", "priority", "state", "tasks", "results", "seen", "delivered")
#: The :class:`BrokerState` attributes it keeps besides the campaigns.
_DURABLE_STATE = (
    "leases", "seen_workers", "crashes", "quarantined", "requeues", "dup_results"
)


@dataclass(eq=False)
class _Campaign:
    """One tenant's whole broker state; ``withdraw`` drops it in one step.

    Everything but ``consumer`` and ``deficit`` is durable (snapshots
    keep the :data:`_DURABLE` fields); those two restart empty after a
    replay.
    """

    id: str
    #: the announced :class:`~repro.core.engine.EnvSpec` workers hydrate.
    spec: Any = None
    priority: float = 1.0
    #: ``"running"`` until the coordinator concludes it, then ``"done"``.
    state: str = "running"
    #: lane runs waiting for a lease, FIFO.
    tasks: deque = field(default_factory=deque)
    #: result frames waiting for the coordinator, FIFO.
    results: deque = field(default_factory=deque)
    #: every result token accepted so far (duplicate rejection).
    seen: set = field(default_factory=set)
    #: token -> result frame taken by the coordinator, not yet acked.
    delivered: dict = field(default_factory=dict)
    #: the connection taking results; a new one gets the unacked again.
    consumer: Any = None
    #: deficit round-robin balance, in lane runs.
    deficit: float = 0.0


@dataclass(eq=False)
class _Worker:
    """Registry entry of one heartbeating worker (runtime only).

    Leases live on the state, not here: a journaled lease must survive a
    restart, and after a restart the worker holding it is *not yet*
    connected.
    """

    meta: dict
    expires_at: float
    #: the connection it registered on last; losing it fails the worker.
    conn: Any = None


class _BadField(ValueError):
    """A command field of the wrong type; the op answers with it."""


def _field(
    message: Frame, name: str, valid: Callable[[Any], bool], expected: str,
    default: Any = None,
) -> Any:
    """``message[name]``, or ``default`` when it is absent or ``None``;
    :class:`_BadField` naming the field when ``valid`` refuses it."""
    value = message.get(name)
    if value is None:
        return default
    if not valid(value):
        raise _BadField(f"{name!r} must be {expected}, not {value!r:.60}")
    return value


def _number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mapping(value: Any) -> bool:
    return isinstance(value, Mapping)


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _tokens(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_hashable, value))


class BrokerState:
    """The broker's state and rules, with time passed in as data.

    Parameters
    ----------
    heartbeat_ttl:
        Seconds a worker may go silent before :meth:`expire` presumes it
        crashed: its leased runs are requeued at the *front* of their
        campaign's queue and its crash counted.  Announced to workers in
        the hello reply, which heartbeat at ``ttl / 3``; *every* op from
        a registered worker re-arms its TTL, so the TTL only needs to
        outlast a single lane run (a capacity-1 worker cannot heartbeat
        while simulating inline).  A spuriously expired worker heals on
        its next heartbeat (re-registered, crash count kept) and the
        duplicate-token rejection keeps its twice-run runs
        single-delivery, so results survive a too-small TTL -- it only
        costs repeat work and, eventually, quarantine.
    quarantine_after:
        Crash count at which a worker id is quarantined; its hellos,
        heartbeats and takes are refused from then on.
    """

    def __init__(
        self, *, heartbeat_ttl: float = 15.0, quarantine_after: int = 2
    ) -> None:
        if heartbeat_ttl <= 0:
            raise ValueError("heartbeat_ttl must be > 0")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.heartbeat_ttl = heartbeat_ttl
        self.quarantine_after = quarantine_after
        #: called with every durable entry before :meth:`reduce` applies
        #: it: the broker sets its journal's append here.
        self.record: Callable[[tuple], Any] = lambda entry: None
        #: campaign id -> its whole state: the tenant registry.
        self.campaigns: dict[str, _Campaign] = {}
        #: worker id -> {(campaign id, run token): (run, grant time)};
        #: requeued at the queue front when the worker dies, or when the
        #: broker restarts on its journal.  Keyed by campaign too:
        #: campaigns number their runs independently, and one worker may
        #: hold runs of several.  The grant time only ages leases in
        #: ``status``.
        self.leases: dict[str, dict[tuple[str, Any], tuple[dict, float]]] = {}
        self.seen_workers: set[str] = set()
        self.crashes: dict[str, int] = {}
        self.quarantined: list[str] = []
        self.requeues = 0
        self.dup_results = 0
        #: the registered workers (runtime only).
        self.workers: dict[str, _Worker] = {}
        #: the campaign deficit round-robin is serving (runtime only).
        self.drr_current: str | None = None

    # ------------------------------------------------------------------
    # the three entry points
    # ------------------------------------------------------------------
    def handle(self, message: Frame, conn: Any, now: float) -> "dict | None":
        """Answer one command frame at time ``now``.

        ``conn`` names the connection the frame came on (any object,
        compared by identity).  A ``take`` or ``take_any`` with nothing
        to hand out and a ``timeout`` above 0 returns ``None`` -- not
        yet -- and commits nothing: ask again once the state changed,
        and with ``timeout`` 0 once the timeout has passed.
        """
        if message.get("type") != "cmd":
            return {"ok": False, "error": "expected a cmd frame"}
        op = str(message.get("op"))
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(message, conn, now)
        except _BadField as exc:
            return {"ok": False, "error": f"{op}: {exc}"}

    def expire(self, now: float) -> None:
        """Fail every worker whose TTL ran out before ``now``."""
        for worker_id in [w for w, e in self.workers.items() if e.expires_at < now]:
            self._fail(worker_id)

    def connection_lost(self, conn: Any) -> None:
        """Fail the worker registered on ``conn``, unless it said goodbye
        or registered on another connection since."""
        for worker_id in [w for w, e in self.workers.items() if e.conn is conn]:
            self._fail(worker_id)

    # ------------------------------------------------------------------
    # durable state: snapshot, replay, recovery
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The durable state, as a journal snapshot keeps it (no copies:
        the journal pickles it at once)."""
        state = {name: getattr(self, name) for name in _DURABLE_STATE}
        state["campaigns"] = {
            cid: {name: getattr(c, name) for name in _DURABLE}
            for cid, c in self.campaigns.items()
        }
        return state

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Take the durable state of a :meth:`snapshot`."""
        for name in _DURABLE_STATE:
            setattr(self, name, snapshot[name])
        self.campaigns = {
            cid: _Campaign(**fields) for cid, fields in snapshot["campaigns"].items()
        }

    def recover(self) -> None:
        """After a restart: hand every lease and unacknowledged delivery
        back to its queue front (one ``recover`` entry, if any)."""
        campaigns = self.campaigns.values()
        if any(self.leases.values()) or any(c.delivered for c in campaigns):
            self._commit(("recover",))

    def _commit(self, entry: tuple) -> Any:
        """Record one durable change, then apply it (the write-ahead rule)."""
        self.record(entry)
        return self.reduce(entry)

    def reduce(self, entry: tuple) -> Any:
        """Apply one durable change, live or in replay.

        Every mutation of durable state funnels through here, so a
        replay of the recorded entries reconstructs *exactly* the state
        the live broker had.  The ops check that a named campaign exists
        before committing, so every entry names a campaign the reducer
        knows.
        """
        op = entry[0]
        if op == "lease":
            _, cid, worker_id, granted = entry
            run = self.campaigns[cid].tasks.popleft()
            self.leases.setdefault(worker_id, {})[(cid, run["token"])] = (run, granted)
            return run
        if op == "take":
            # The coordinator acknowledges what it saw, then takes up
            # to ``limit`` results; they stay delivered until acked.
            _, cid, acks, limit = entry
            campaign = self.campaigns[cid]
            for token in acks:
                campaign.delivered.pop(token, None)
            items = []
            while campaign.results and len(items) < limit:
                item = campaign.results.popleft()
                campaign.delivered[item["token"]] = item
                items.append(item)
            return items
        if op == "result":
            _, cid, token, payload, worker_id = entry
            campaign = self.campaigns[cid]
            # A result ends its run's lease.
            self.leases.get(worker_id, {}).pop((cid, token), None)
            if token in campaign.seen:
                self.dup_results += 1
                return True  # duplicate: deliver exactly once
            campaign.seen.add(token)
            campaign.results.append(
                {"token": token, "payload": payload, "worker": worker_id}
            )
            return False
        if op == "put":
            _, cid, runs = entry
            self.campaigns[cid].tasks.extend(runs)
        elif op == "announce":
            # Open (or re-open) one campaign on a fresh record; the
            # id-liveness check happens at the op layer.
            announced = entry[1]
            self._drop_campaign(announced["id"])
            self.campaigns[announced["id"]] = _Campaign(
                announced["id"], announced["spec"], announced["priority"]
            )
        elif op == "conclude":
            self.campaigns[entry[1]].state = "done"
        elif op == "withdraw":
            self._drop_campaign(entry[1])
        elif op == "drop":
            _, worker_id, clean = entry
            self._requeue_leases(worker_id, count=not clean)
            if not clean:
                crashes = self.crashes.get(worker_id, 0) + 1
                self.crashes[worker_id] = crashes
                if (
                    crashes >= self.quarantine_after
                    and worker_id not in self.quarantined
                ):
                    self.quarantined.append(worker_id)
        elif op == "seen":
            self.seen_workers.add(entry[1])
        elif op == "reclaim":
            self._reclaim(self.campaigns[entry[1]])
        elif op == "recover":
            # Broker restart: every un-acked delivery goes back to its
            # result queue front, then every lease to its run queue
            # front.  Requeues are counted (they are real repeat work)
            # but no crashes -- workers are blameless.
            for campaign in self.campaigns.values():
                self._reclaim(campaign)
            for worker_id in list(self.leases):
                self._requeue_leases(worker_id, count=True)
        else:
            raise ValueError(f"unknown journal entry {op!r}")
        return None

    def _requeue_leases(self, worker_id: str, count: bool) -> None:
        """Hand a departing worker's leased runs back, at the queue front.

        ``count`` tells a presumed crash (tracked on the ``requeues``
        counter the drills assert on) from a clean goodbye.
        """
        held = self.leases.pop(worker_id, None) or {}
        for (cid, _token), (run, _granted) in reversed(list(held.items())):
            self.campaigns[cid].tasks.appendleft(run)
            if count:
                self.requeues += 1

    def _drop_campaign(self, cid: str) -> None:
        """Drop one campaign's record and every lease on its runs;
        every other tenant's state is untouched."""
        self.campaigns.pop(cid, None)
        if self.drr_current == cid:
            self.drr_current = None
        for worker_id, held in list(self.leases.items()):
            for key in [key for key in held if key[0] == cid]:
                del held[key]
            if not held:
                del self.leases[worker_id]

    @staticmethod
    def _reclaim(campaign: _Campaign) -> None:
        """Redeliver every un-acked result, at the result queue front."""
        campaign.results.extendleft(reversed(campaign.delivered.values()))
        campaign.delivered.clear()

    # ------------------------------------------------------------------
    # helpers of the ops
    # ------------------------------------------------------------------
    def _fail(self, worker_id: str) -> None:
        """Presume one worker crashed: requeue its leases, count the crash.

        Its connection is left alone: a dead worker's socket ends on its
        own, while a slow-but-alive worker re-registers on its next
        heartbeat (its crash already counted).
        """
        if self.workers.pop(worker_id, None) is not None:
            self._commit(("drop", worker_id, False))

    def _campaign(self, message: Frame) -> _Campaign | None:
        """The record of the campaign ``message`` names, if announced."""
        cid = message.get("campaign")
        return self.campaigns.get(cid) if isinstance(cid, str) else None

    @staticmethod
    def _unknown_campaign(message: Frame) -> dict[str, Any]:
        return {"ok": False, "error": f"unknown campaign {message.get('campaign')!r}"}

    def _running(self) -> int:
        return sum(c.state == "running" for c in self.campaigns.values())

    def _leased_runs(self) -> dict[str, int]:
        """Lane runs currently leased, per campaign id."""
        leased: dict[str, int] = {}
        for held in self.leases.values():
            for cid, _token in held:
                leased[cid] = leased.get(cid, 0) + 1
        return leased

    def _drr_pick(self) -> _Campaign | None:
        """Pick the campaign the next ``take_any`` lease comes from.

        Stateful deficit round-robin: the current campaign keeps serving
        while its banked deficit covers one run; otherwise the rotation
        moves on, each visited campaign banking ``DRR_QUANTUM *
        priority`` runs, until one can afford a run.  Every visit banks
        a positive amount, so the loop ends.
        """
        active = [
            campaign
            for _cid, campaign in sorted(self.campaigns.items())
            if campaign.state == "running" and campaign.tasks
        ]
        if not active:
            return None
        ids = [campaign.id for campaign in active]
        if self.drr_current in ids:
            index = ids.index(self.drr_current)
            if active[index].deficit >= 1:
                return active[index]
            index += 1
        else:
            index = 0
        while True:
            campaign = active[index % len(active)]
            campaign.deficit += DRR_QUANTUM * max(campaign.priority, 0.01)
            if campaign.deficit >= 1:
                self.drr_current = campaign.id
                return campaign
            index += 1

    def _touch(self, worker_id: str, now: float) -> None:
        """Any op from a registered worker is proof of life: re-arm its
        TTL, so a capacity-1 worker blocked in one long inline run only
        needs the TTL to outlast that run."""
        entry = self.workers.get(worker_id)
        if entry is not None:
            entry.expires_at = now + self.heartbeat_ttl

    def _fleet(self) -> dict[str, Any]:
        return {
            "live": {w: dict(e.meta) for w, e in self.workers.items()},
            "seen": sorted(self.seen_workers),
            "crashes": dict(self.crashes),
            "quarantined": list(self.quarantined),
            "requeues": self.requeues,
            "dup_results": self.dup_results,
            "pending": {
                cid: len(c.tasks) for cid, c in self.campaigns.items() if c.tasks
            },
        }

    def _quarantined_reply(self, worker_id: str) -> dict[str, Any] | None:
        if worker_id not in self.quarantined:
            return None
        return {
            "ok": False,
            "quarantined": True,
            "error": f"worker {worker_id!r} is quarantined",
        }

    def _register(
        self, worker_id: str, meta: dict[str, Any], conn: Any, now: float
    ) -> dict[str, Any]:
        refused = self._quarantined_reply(worker_id)
        if refused is not None:
            return refused
        entry = self.workers.get(worker_id)
        if entry is None:
            entry = self.workers[worker_id] = _Worker(meta, now)
        elif meta:
            entry.meta = meta
        entry.expires_at = now + self.heartbeat_ttl
        entry.conn = conn
        if worker_id not in self.seen_workers:
            self._commit(("seen", worker_id))
        return {"ok": True, "ttl": self.heartbeat_ttl, "running": self._running()}

    # ------------------------------------------------------------------
    # ops: ``_op_<name>(message, conn, now)``
    # ------------------------------------------------------------------
    def _op_ping(self, message: Frame, conn: Any, now: float) -> dict:
        return {"ok": True, "proto": BROKER_PROTOCOL}

    def _op_put(self, message: Frame, conn: Any, now: float) -> dict:
        """Queue lane runs on their campaign (one entry).

        ``runs`` must be a non-empty list of runs, each a dict with its
        own hashable ``token``: a result ends a lease by token, so a run
        without one could never be released.
        """
        runs = message.get("runs")
        if not (
            isinstance(runs, list)
            and runs
            and all(
                isinstance(run, dict) and "token" in run and _hashable(run["token"])
                for run in runs
            )
        ):
            return {
                "ok": False,
                "error": 'put needs "runs": a non-empty list of lane runs, '
                "each with a hashable token",
            }
        campaign = self._campaign(message)
        if campaign is None:
            return self._unknown_campaign(message)
        self._commit(("put", campaign.id, runs))
        return {"ok": True, "size": len(campaign.tasks)}

    def _op_take(self, message: Frame, conn: Any, now: float) -> dict | None:
        """Collect a campaign's results for its coordinator.

        ``ack`` lists the tokens of the previous take's results, so a
        restarted broker knows which deliveries the coordinator saw; up
        to ``max`` results come back, and with none to give, the take
        waits up to ``timeout`` seconds for the first.  The reply
        carries the fleet too.
        """
        acks = list(_field(message, "ack", _tokens, "a list of tokens", ()))
        limit = max(1, _field(message, "max", _integer, "an integer", 1))
        timeout = _field(message, "timeout", _number, "a number of seconds", 0.0)
        campaign = self._campaign(message)
        if campaign is None:
            return self._unknown_campaign(message)
        if campaign.consumer is not conn and campaign.delivered:
            # A *new* consumer connection (the coordinator reconnected):
            # whatever the previous connection took but never
            # acknowledged was lost in flight -- hand it back first.
            self._commit(("reclaim", campaign.id))
        campaign.consumer = conn
        if not campaign.results and timeout > 0:
            return None
        items = []
        if acks or campaign.results:
            items = self._commit(("take", campaign.id, acks, limit))
        return {"ok": True, "items": items, "fleet": self._fleet()}

    def _op_take_any(self, message: Frame, conn: Any, now: float) -> dict | None:
        """Lease one lane run from whichever running campaign DRR picks.

        The worker op: the worker subscribes to the broker, not a
        campaign, and every reply names the campaign the run came from,
        so its result is pushed back to the right one.  Only a worker
        that said hello may lease (its lease must be requeued if it
        dies).  ``running`` counts running campaigns -- workers exit
        once they have observed at least one campaign and the count
        returns to zero.

        With no run to lease, the take waits up to ``timeout`` seconds;
        when the caller sends the ``running`` count it last saw, the
        take returns at once, without an item, whenever the broker's
        count differs from it, so an announce, conclude or withdraw ends
        the wait instead of the timeout.
        """
        worker_id = str(message.get("worker"))
        timeout = _field(message, "timeout", _number, "a number of seconds", 0.0)
        seen = _field(message, "running", _integer, "an integer")
        refused = self._quarantined_reply(worker_id)
        if refused is not None:
            return refused
        if worker_id not in self.workers:
            return {
                "ok": False,
                "error": f"worker {worker_id!r} must say hello before leasing",
            }
        self._touch(worker_id, now)
        running = self._running()
        campaign = self._drr_pick()
        if campaign is not None:
            run = self._commit(("lease", campaign.id, worker_id, now))
            campaign.deficit -= 1
            return {
                "ok": True, "item": run, "campaign": campaign.id, "running": running
            }
        if timeout > 0 and seen in (None, running):
            return None
        return {"ok": True, "item": None, "campaign": None, "running": running}

    def _op_campaigns(self, message: Frame, conn: Any, now: float) -> dict:
        """The tenant registry, announcements included (specs travel as
        pickle, like every frame) -- what workers hydrate environments
        from and coordinators poll during teardown."""
        leased = self._leased_runs()
        campaigns = {
            cid: {
                "id": cid,
                "spec": c.spec,
                "priority": c.priority,
                "state": c.state,
                "tasks_pending": len(c.tasks),
                "leased": leased.get(cid, 0),
            }
            for cid, c in self.campaigns.items()
        }
        return {"ok": True, "campaigns": campaigns, "running": self._running()}

    def _op_announce(self, message: Frame, conn: Any, now: float) -> dict:
        """Register one campaign ``{id, spec, priority}`` (one entry).

        A re-announcement of a *live* (running) id is refused: distinct
        coordinators must never silently cross-wire one campaign, and a
        reconnecting coordinator re-announces only after its campaign
        concluded or was withdrawn.  Re-announcing a concluded id starts
        it from a fresh record.  A priority must be a positive finite
        number: deficit round-robin banks ``DRR_QUANTUM * priority`` per
        visit until a campaign can afford a run.
        """
        campaign = _field(message, "campaign", _mapping, "a mapping", {})
        cid = campaign.get("id")
        if not cid or not isinstance(cid, str):
            return {"ok": False, "error": "announce requires a campaign id"}
        priority = _field(
            campaign, "priority", lambda p: _number(p) and p > 0,
            "a finite number > 0", 1.0,
        )
        existing = self.campaigns.get(cid)
        if existing is not None and existing.state == "running":
            return {
                "ok": False,
                "error": f"campaign {cid!r} is already live on this broker",
            }
        spec, priority = campaign.get("spec"), float(priority)
        self._commit(("announce", {"id": cid, "spec": spec, "priority": priority}))
        return {"ok": True, "campaign": cid}

    def _op_conclude(self, message: Frame, conn: Any, now: float) -> dict:
        """Mark one campaign done (idempotent)."""
        campaign = self._campaign(message)
        if campaign is not None and campaign.state != "done":
            self._commit(("conclude", campaign.id))
        return {"ok": True}

    def _op_withdraw(self, message: Frame, conn: Any, now: float) -> dict:
        """Drop one campaign's record and leases (idempotent)."""
        campaign = self._campaign(message)
        if campaign is not None:
            self._commit(("withdraw", campaign.id))
        return {"ok": True}

    def _op_push_result(self, message: Frame, conn: Any, now: float) -> dict:
        """Accept one lane run's result for its campaign (one entry).

        A result for a campaign the broker no longer knows (withdrawn,
        its leases with it) is answered and dropped, leaving no state.
        """
        token = _field(message, "token", _hashable, "a hashable token")
        worker_id = _field(message, "worker", _hashable, "a hashable worker id")
        if worker_id is not None:
            self._touch(str(worker_id), now)
        campaign = self._campaign(message)
        if campaign is None:
            return {"ok": True, "dropped": True}
        # A requeued run that both the presumed-dead and the replacement
        # worker completed -- or a reconnecting worker replaying its
        # last un-replied push -- is delivered exactly once.
        dup = self._commit(
            ("result", campaign.id, token, message.get("payload"), worker_id)
        )
        return {"ok": True, "dup": dup}

    def _op_hello(self, message: Frame, conn: Any, now: float) -> dict:
        """Register a worker.

        A hello naming a live id with another ``pid`` comes from a new
        process: its predecessor died, possibly before the broker read
        its connection's end, so that incarnation is failed first (its
        leases requeued, its crash counted).  A same-pid hello -- the
        worker re-registering after a reconnect -- keeps its leases.
        """
        if message.get("proto") != BROKER_PROTOCOL:
            return {"ok": False, "error": "broker protocol mismatch"}
        worker_id = str(message.get("worker"))
        meta = dict(_field(message, "meta", _mapping, "a mapping", {}))
        entry = self.workers.get(worker_id)
        if entry is not None and meta.get("pid") != entry.meta.get("pid"):
            self._fail(worker_id)
        return self._register(worker_id, meta, conn, now)

    def _op_heartbeat(self, message: Frame, conn: Any, now: float) -> dict:
        # Carries the meta too, so a worker whose entry expired while it
        # was briefly silent transparently re-registers.
        meta = dict(_field(message, "meta", _mapping, "a mapping", {}))
        return self._register(str(message.get("worker")), meta, conn, now)

    def _op_goodbye(self, message: Frame, conn: Any, now: float) -> dict:
        """Clean departure: no crash penalty, leases requeued silently."""
        worker_id = str(message.get("worker"))
        if self.workers.pop(worker_id, None) is not None or self.leases.get(worker_id):
            self._commit(("drop", worker_id, True))
        return {"ok": True}

    def _op_fleet(self, message: Frame, conn: Any, now: float) -> dict:
        return {"ok": True, "fleet": self._fleet()}

    def _op_status(self, message: Frame, conn: Any, now: float) -> dict:
        """One JSON-safe snapshot of broker health for ``--status`` (the
        broker adds its uptime and journal position)."""
        leases = {
            str(worker_id): {
                "count": len(held),
                "oldest_age_s": round(
                    now - min(granted for _run, granted in held.values()), 3
                ),
            }
            for worker_id, held in self.leases.items()
            if held
        }
        leased = self._leased_runs()
        campaigns = {
            str(cid): {
                "state": c.state,
                "priority": c.priority,
                "tasks_pending": len(c.tasks),
                "results_pending": len(c.results),
                "results_seen": len(c.seen),
                "unacked": len(c.delivered),
                "leased_points": leased.get(cid, 0),
            }
            for cid, c in self.campaigns.items()
        }
        states = {c.state for c in self.campaigns.values()}
        status = {
            "proto": BROKER_PROTOCOL,
            # "done" only once *every* registered campaign concluded,
            # None with no campaign registered.
            "state": (
                None if not states else "done" if states == {"done"} else "running"
            ),
            "campaigns": campaigns,
            "leases": leases,
            "fleet": self._fleet(),
            "heartbeat_ttl": self.heartbeat_ttl,
            "quarantine_after": self.quarantine_after,
        }
        return {"ok": True, "status": status}
