"""The four benchmark workloads.

``serve_steady`` and ``serve_churn`` are open loops: frames fall due on
a fixed schedule whether or not the server kept up, and latency runs
from a frame's due time to the return of the pump that completed it.
``eval_cold`` and ``train_fit`` are closed loops: the next unit of work
starts when the previous one returns.  Everything runs in this one
process and thread: no engine worker pool, no forked evaluation, no
fleet, so the numbers measure the program and not the host scheduler.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np

import repro.core.evaluation as evaluation
import repro.datasets as datasets
from repro.bench.config import TRAIN_ALPHA0, BenchConfig
from repro.bench.methods import table_methods
from repro.core.problem import AfterProblem
from repro.models import POSHGNN
from repro.models.poshgnn.loss import resolve_alpha
from repro.serving import (ReplayDriver, SessionEngine, WorkloadGenerator,
                           WorkloadPlan, WorkloadSpec, stream_episode)

import checks
from harness import Measured, Unit, Workload, percentile

CHURN_SPEC = Path(__file__).resolve().parent / "churn_spec.json"

#: Model-free Table II-IV baselines, evaluated in the table's order.
#: GraFrank is left out: its BPR negative sampling
#: (``GraFrankRecommender._bpr_epoch``) loops forever when a user is
#: befriended by every other user, which 3 of 120 seeded N = 200 smm
#: rooms are, so about one eval_cold seed in 13 would never finish.
EVAL_METHODS = ("Random", "Nearest", "MvAGC")


def _room(users: int, steps: int, seed: int):
    return datasets.generate_room(
        "smm", datasets.RoomConfig(num_users=users, num_steps=steps),
        seed=seed)


def _sleep_until(due: float, switch) -> None:
    now = time.perf_counter()
    if now < due:
        time.sleep(due - now)
        switch.idle(now, time.perf_counter())


class _ServingLedger:
    """Per-step bookkeeping shared by the two open-loop workloads."""

    def __init__(self, slo_ms: float):
        self.slo_ms = slo_ms
        self.latencies_ms: list = []
        self.waits: list = []        # (unit start, wait ms)
        self.lags: list = []         # (unit start, generator lag ms)
        self.units: list = []
        self.unit_tickets: list = []  # (unit start, submitted, shed, degraded)
        self.pumps: list = []        # (pump start, steps)
        self.submitted = 0
        self.processed = 0
        self.shed = 0

    def count(self, tickets, records) -> None:
        self.submitted += len(tickets)
        self.processed += sum(1 for r in records if not r.shed)
        self.shed += sum(1 for r in records if r.shed)

    def measured(self, wall_s: float) -> Measured:
        return Measured(
            latencies_ms=self.latencies_ms, slo_ms=self.slo_ms,
            attempted=sum(t[1] for t in self.unit_tickets),
            missed=sum(t[2] for t in self.unit_tickets),
            wall_s=wall_s, units=self.units)

    def layer_extras(self, since: float) -> dict:
        tickets = [t for t in self.unit_tickets if t[0] >= since]
        submitted = sum(t[1] for t in tickets)
        pumps = [p for p in self.pumps if p[0] >= since]
        waits = [w for start, w in self.waits if start >= since]
        lags = [lag for start, lag in self.lags if start >= since]
        return {
            "serving.engine.steps_per_pump":
                sum(p[1] for p in pumps) / len(pumps) if pumps else 0.0,
            "serving.engine.queue_wait_p50_ms":
                percentile(waits, 50) if waits else 0.0,
            "serving.engine.shed_frac":
                sum(t[2] for t in tickets) / submitted if submitted else 0.0,
            "serving.engine.degraded_frac":
                sum(t[3] for t in tickets) / submitted if submitted else 0.0,
            "loadgen.lag_p99_ms": percentile(lags, 99) if lags else 0.0,
        }


# ----------------------------------------------------------------------
class ServeSteady(Workload):
    """64 POSHGNN sessions over 4 paper-scale rooms, one frame per tick.

    Each session's client (one target user's device) sends its room's
    current frame once per ``period_s`` at its own phase offset, since
    clients are not synchronised.  The server wakes every ``server_tick_s``,
    submits every frame that fell due since its last wake-up and pumps
    once, so each pump is one uniform ``(B, N, N)`` group drawn from all
    four rooms.  A session that reaches its horizon is closed and
    re-opened.  The offered rate sits well under the engine's capacity
    on this class of host, so the run measures service time, not a
    growing queue.
    """

    name = "serve_steady"
    DEFAULTS = {"rooms": 4, "targets": 16, "users": 200, "steps": 10,
                "period_s": 0.4, "server_tick_s": 0.075, "slo_ms": 250.0,
                "check_sessions": 4}
    required_spans = (
        "datasets.generate_room", "geometry.convert_rooms",
        "geometry.visibility", "core.scene.frames",
        "core.utility.step_utility", "models.poshgnn.recommend",
        "models.poshgnn.mia", "models.poshgnn.pdr", "models.poshgnn.lwp",
        "serving.engine.submit", "serving.engine.pump",
        "serving.session.open_close")

    def setup(self) -> None:
        s = {**self.DEFAULTS, **self.scale}
        self.s = s
        rng = np.random.default_rng(self.seed)
        self.model = POSHGNN(seed=self.seed)
        self.engine = SessionEngine()
        self.clients = []
        for r in range(s["rooms"]):
            room = _room(s["users"], s["steps"], 1000 * self.seed + r)
            for target in room.sample_targets(s["targets"], rng):
                client = {"id": f"r{r}/t{int(target)}", "room": room,
                          "problem": AfterProblem(room, int(target)),
                          "frame": 0}
                self.engine.open_session(client["problem"], self.model,
                                         session_id=client["id"])
                self.clients.append(client)
        # Seeded phase offsets spread the clients evenly over the period.
        count = len(self.clients)
        slots = rng.permutation(count) + rng.uniform(0.0, 1.0, size=count)
        self.offsets = slots * s["period_s"] / count
        self.digests: dict = {}
        self.first_results: dict = {}
        self.ledger = _ServingLedger(s["slo_ms"])
        # Warm-up, untimed: client i streams i mod (T+1) frames ahead, so
        # later re-opens are staggered instead of aligned.
        horizon = s["steps"] + 1
        for frame in range(horizon):
            due = [c for i, c in enumerate(self.clients)
                   if i % horizon > frame]
            if due:
                self._serve(due)

    def _serve(self, clients) -> tuple:
        """Submit one frame per client, pump once, roll over finished sessions."""
        tickets = []
        for client in clients:
            positions = client["room"].trajectory.positions[client["frame"]]
            tickets.append(self.engine.submit(client["id"], positions))
            client["frame"] += 1
        pump_start = time.perf_counter()
        records = self.engine.pump()
        done = time.perf_counter()
        self.ledger.count(tickets, records)
        for client in clients:
            if client["frame"] == client["room"].horizon + 1:
                self._rollover(client)
        return tickets, records, pump_start, done

    def _rollover(self, client) -> None:
        """Close a session that reached its horizon and re-open it."""
        session_id = client["id"]
        result = self.engine.close_session(session_id).result()
        self.digests.setdefault(session_id, []).append(
            checks.episode_digest(result))
        self.first_results.setdefault(session_id, result)
        self.engine.open_session(client["problem"], self.model,
                                 session_id=session_id)
        client["frame"] = 0

    def run(self, seconds: float, switch) -> Measured:
        ledger = self.ledger
        period, tick = self.s["period_s"], self.s["server_tick_s"]
        start = time.perf_counter()
        due = start + self.offsets
        wake = start + tick
        while wake <= start + seconds:
            _sleep_until(wake, switch)
            switch.poll(len(ledger.units))
            unit_start = time.perf_counter()
            ledger.lags.append((unit_start, (unit_start - wake) * 1000.0))
            ready = np.flatnonzero(due <= unit_start)
            tickets, records, pump_start, done = self._serve(
                [self.clients[i] for i in ready])
            ledger.pumps.append((unit_start, len(records)))
            for index, ticket in zip(ready, tickets):
                if ticket.status != "shed":
                    ledger.latencies_ms.append((done - due[index]) * 1000.0)
                    ledger.waits.append(
                        (unit_start, (pump_start - due[index]) * 1000.0))
            due[ready] += period
            unit_end = time.perf_counter()
            ledger.unit_tickets.append((
                unit_start, len(tickets),
                sum(1 for t in tickets if t.status == "shed"),
                sum(1 for t in tickets if t.status == "degraded")))
            ledger.units.append(Unit(
                unit_start, unit_end, unit_end - unit_start,
                sum(1 for r in records if not r.shed)))
            wake += tick
        wall = ledger.units[-1].end - start
        ledger.count([], self.engine.drain())
        return ledger.measured(wall)

    def check(self) -> list:
        failures = checks.tickets_balance(
            self.name, self.ledger.submitted, self.ledger.processed,
            self.ledger.shed)
        failures += checks.digests_agree(self.name, self.digests)
        if not self.first_results:
            failures.append(f"{self.name}: no session finished an episode")
        by_id = {client["id"]: client for client in self.clients}
        finished = sorted(self.first_results)
        for session_id in finished[::max(
                1, len(finished) // self.s["check_sessions"])][
                :self.s["check_sessions"]]:
            alone = stream_episode(by_id[session_id]["problem"],
                                   self.model.session_clone())
            failures += checks.episodes_equal(
                f"{self.name} {session_id} vs stream_episode",
                alone, self.first_results[session_id])
        return failures

    def layer_extras(self, since: float) -> dict:
        return self.ledger.layer_extras(since)


# ----------------------------------------------------------------------
class _TimedStack:
    """The serving surface :meth:`ReplayDriver.run_plan` drives, timed.

    Forwards every call to a real engine, adds its duration to the
    server's busy time, and remembers this tick's tickets and the
    return time of its last pump.
    """

    def __init__(self, engine: SessionEngine, ledger: _ServingLedger):
        self.engine = engine
        self.ledger = ledger
        self.busy = 0.0
        self.tickets: list = []
        self.records: list = []
        self.pump_start = 0.0
        self.pump_done = 0.0

    def _timed(self, method, *args):
        start = time.perf_counter()
        try:
            return method(*args)
        finally:
            self.busy += time.perf_counter() - start

    def open_session(self, problem, recommender, *, session_id):
        return self._timed(lambda: self.engine.open_session(
            problem, recommender, session_id=session_id))

    def close_session(self, session_id):
        return self._timed(self.engine.close_session, session_id)

    def churn_session(self, session_id, change):
        return self._timed(self.engine.churn_session, session_id, change)

    def merge_sessions(self, primary, secondary, merge):
        return self._timed(self.engine.merge_sessions, primary, secondary,
                           merge)

    def split_session(self, session_id, split, recommender):
        return self._timed(self.engine.split_session, session_id, split,
                           recommender)

    def submit(self, session_id, positions):
        ticket = self._timed(self.engine.submit, session_id, positions)
        self.tickets.append(ticket)
        return ticket

    def pump(self):
        self.pump_start = time.perf_counter()
        records = self._timed(self.engine.pump)
        self.pump_done = time.perf_counter()
        self.records += records
        self.ledger.pumps.append((self.pump_start, len(records)))
        return records

    def drain(self):
        records = self._timed(self.engine.drain)
        self.records += records
        return records


class _TickClock:
    """Paces :meth:`ReplayDriver.run_plan` as an open loop.

    Each room's client sends the frame of plan tick ``k`` at ``start +
    (k + phase) * period``, since clients are not synchronised.  The
    ``n`` rooms of a tick, in session-id order, take the phases
    ``(rank + offset) / n`` for a seeded ``offset``, so they spread
    evenly over the tick whichever rooms the plan has open, and the
    seed does not decide where the long-lived rooms sit in the tick
    (with a fixed phase per room that moved the median wait by a fifth
    between seeds).  The server handles tick ``k`` at ``start + (k + 1) * period``:
    ``run_plan`` applies the tick's events, submits every room's frame
    and pumps, then calls this clock as its sampler, which books the
    tick and sleeps until the next one whatever the server did before
    it.
    """

    def __init__(self, stack: _TimedStack, ledger: _ServingLedger,
                 switch, start: float, period: float, ticks: int,
                 offset: float):
        self.stack = stack
        self.ledger = ledger
        self.switch = switch
        self.start = start
        self.period = period
        self.ticks = ticks
        self.offset = offset
        self.tick = 0               # global tick across plan cycles
        self.unit_start = start
        self.busy_mark = 0.0

    def wake(self, tick: int) -> float:
        return self.start + (tick + 1) * self.period

    def dues(self, tick: int, rooms: list) -> dict:
        """When each of the tick's rooms sent its frame, by room."""
        return {room: self.start + (tick + (rank + self.offset)
                                    / len(rooms)) * self.period
                for rank, room in enumerate(sorted(rooms))}

    def begin_tick(self) -> None:
        _sleep_until(self.wake(self.tick), self.switch)
        self.switch.poll(self.tick)
        self.unit_start = time.perf_counter()
        self.ledger.lags.append((
            self.unit_start,
            (self.unit_start - self.wake(self.tick)) * 1000.0))
        self.busy_mark = self.stack.busy

    def sample(self, now: float) -> None:
        """End of plan tick ``now``: book its steps, then wait for the next."""
        self.end_tick()
        if int(now) + 1 < self.ticks:
            self.begin_tick()

    def end_tick(self, advance: bool = True) -> None:
        """Book the steps and busy time since the last booking as one unit."""
        stack, ledger = self.stack, self.ledger
        tickets, records = stack.tickets, stack.records
        ledger.count(tickets, records)
        dues = self.dues(self.tick, [t.session_id for t in tickets])
        for ticket in tickets:
            if ticket.status != "shed":
                due = dues[ticket.session_id]
                ledger.latencies_ms.append((stack.pump_done - due) * 1000.0)
                ledger.waits.append(
                    (self.unit_start, (stack.pump_start - due) * 1000.0))
        unit_end = time.perf_counter()
        ledger.unit_tickets.append((
            self.unit_start, len(tickets),
            sum(1 for t in tickets if t.status == "shed"),
            sum(1 for t in tickets if t.status == "degraded")))
        # Every plan cycle repeats the same events, frames and pumps.
        ledger.units.append(Unit(
            self.unit_start, unit_end, stack.busy - self.busy_mark,
            sum(1 for r in records if not r.shed),
            kind=self.tick % self.ticks if advance else "drain"))
        stack.tickets, stack.records = [], []
        self.unit_start, self.busy_mark = unit_end, stack.busy
        if advance:
            self.tick += 1


class ServeChurn(Workload):
    """A seeded workload-DSL plan with churn, merges and splits.

    The spec in ``churn_spec.json`` keeps about ten rooms of 8-32 users
    open over one universe; the plan is replayed tick by tick through
    :meth:`ReplayDriver.run_plan` against an in-process engine, one
    tick per ``period_s``, for as many whole plan cycles as fit in the
    run.  Clients send at their own phase within the tick and the
    server handles each tick at its end (see :class:`_TickClock`).
    """

    name = "serve_churn"
    DEFAULTS = {"period_s": 0.05, "slo_ms": 250.0, "warmup_ticks": 4,
                "spec": {}}
    required_spans = (
        "datasets.generate_room", "serving.workload.schedule",
        "geometry.convert_rooms", "geometry.visibility",
        "core.scene.frames", "core.utility.step_utility",
        "models.poshgnn.recommend", "serving.engine.submit",
        "serving.engine.pump", "serving.engine.drain",
        "serving.session.churn", "serving.session.open_close")

    def setup(self) -> None:
        s = {**self.DEFAULTS, **self.scale}
        self.s = s
        raw = {**json.loads(CHURN_SPEC.read_text()), **s["spec"],
               "seed": self.seed}
        spec = WorkloadSpec.from_dict(raw)
        self.plan = WorkloadGenerator(spec).schedule()
        self.model = POSHGNN(seed=self.seed)
        self.ledger = _ServingLedger(s["slo_ms"])
        self.cycles: list = []
        warm = dataclasses.replace(spec, ticks=s["warmup_ticks"])
        warm_plan = WorkloadPlan(
            spec=warm, universe=self.plan.universe,
            events=[e for e in self.plan.events if e.tick < warm.ticks])
        ReplayDriver(SessionEngine()).run_plan(warm_plan, self.model)

    def run(self, seconds: float, switch) -> Measured:
        ticks = self.plan.spec.ticks
        period = self.s["period_s"]
        cycles = max(1, round(seconds / (ticks * period)))
        engine = SessionEngine()
        stack = _TimedStack(engine, self.ledger)
        start = time.perf_counter()
        offset = np.random.default_rng(self.seed).uniform()
        clock = _TickClock(stack, self.ledger, switch, start, period,
                           ticks, offset)
        driver = ReplayDriver(stack)
        for _ in range(cycles):
            clock.begin_tick()
            outcome = driver.run_plan(self.plan, self.model, sampler=clock)
            clock.end_tick(advance=False)   # run_plan's closing drain
            self.cycles.append(outcome)
        wall = time.perf_counter() - start
        return self.ledger.measured(wall)

    def check(self) -> list:
        reference = ReplayDriver(SessionEngine()).run_plan(self.plan,
                                                           self.model)
        failures = checks.tickets_balance(
            self.name, self.ledger.submitted, self.ledger.processed,
            self.ledger.shed)
        for index, outcome in enumerate(self.cycles):
            failures += checks.plan_results_equal(
                f"{self.name} cycle {index}", reference.results,
                outcome.results)
        return failures

    def layer_extras(self, since: float) -> dict:
        return self.ledger.layer_extras(since)


# ----------------------------------------------------------------------
class EvalCold(Workload):
    """The paper-table evaluation path over the model-free baselines.

    Each room pass clears the room's caches, then evaluates the three
    baselines in table order for the room's K targets with the default
    serial batched engine: the first call of a pass pays the cold DOG
    build, the other two run warm.  Each call is a unit whose kind is
    its (room, baseline) pair.
    """

    name = "eval_cold"
    DEFAULTS = {"rooms": 3, "users": 200, "steps": 20, "targets": 8,
                "slo_ms": 1000.0}
    required_spans = (
        "datasets.generate_room", "geometry.prebuild_dogs",
        "geometry.visibility", "core.scene.frames",
        "core.utility.step_utility", "core.evaluation.evaluate_targets",
        "models.baselines.recommend")

    def setup(self) -> None:
        s = {**self.DEFAULTS, **self.scale}
        self.s = s
        config = BenchConfig(seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.passes = []
        for r in range(s["rooms"]):
            room = _room(s["users"], s["steps"], 1000 * self.seed + r)
            # Half MR, half VR targets: an MR target's episode costs more,
            # and an unstratified draw of 8 made the pass cost swing by
            # half between seeds.
            half = s["targets"] // 2
            mr = np.flatnonzero(room.interfaces_mr)
            vr = np.flatnonzero(~room.interfaces_mr)
            targets = np.concatenate([
                rng.choice(mr, size=half, replace=False),
                rng.choice(vr, size=s["targets"] - half, replace=False)])
            train = [t for t in range(room.num_users)
                     if t not in set(targets.tolist())][:config.train_targets]
            methods = table_methods(config)
            methods = {name: methods[name] for name in methods
                       if name in EVAL_METHODS}
            for method in methods.values():
                method.fit([AfterProblem(room, t) for t in train])
            self.passes.append({"index": r, "room": room,
                                "targets": targets, "methods": methods})
        self.digests: dict = {}
        self.first: dict = {}
        self.calls: list = []       # (start, cold, seconds)
        self._pass(self.passes[0])  # warm-up, untimed

    def _pass(self, room_pass, record: bool = False) -> list:
        room = room_pass["room"]
        room.clear_caches()
        units = []
        for index, (name, method) in enumerate(room_pass["methods"].items()):
            start = time.perf_counter()
            result = evaluation.evaluate_targets(room, method,
                                                 room_pass["targets"])
            end = time.perf_counter()
            if not record:
                continue
            units.append(Unit(start, end, end - start,
                              len(result.episodes) * (room.horizon + 1),
                              kind=(room_pass["index"], name)))
            self.calls.append((start, index == 0, end - start))
            key = (id(room_pass), name)
            self.digests.setdefault(key, []).append(
                [checks.episode_digest(e) for e in result.episodes])
            self.first.setdefault(key, result)
        return units

    def run(self, seconds: float, switch) -> Measured:
        start = time.perf_counter()
        units = []
        while time.perf_counter() - start < seconds:
            for room_pass in self.passes:
                switch.poll(len(units))
                units += self._pass(room_pass, record=True)
        wall = time.perf_counter() - start
        return Measured(
            latencies_ms=[u.busy * 1000.0 for u in units],
            slo_ms=self.s["slo_ms"], attempted=len(units), missed=0,
            wall_s=wall, units=units, closed_loop=True)

    def check(self) -> list:
        failures = checks.digests_agree(
            self.name, {f"room{i}/{name}": self.digests[(id(p), name)]
                        for i, p in enumerate(self.passes)
                        for name in p["methods"]})
        room_pass = self.passes[self.seed % len(self.passes)]
        slot = self.seed % len(room_pass["targets"])
        target = int(room_pass["targets"][slot])
        for name, method in room_pass["methods"].items():
            alone = stream_episode(AfterProblem(room_pass["room"], target),
                                   method)
            failures += checks.episodes_equal(
                f"{self.name} {name} target {target} vs stream_episode",
                alone, self.first[(id(room_pass), name)].episodes[slot])
        return failures

    def layer_extras(self, since: float) -> dict:
        cold = [s for start, c, s in self.calls if c and start >= since]
        warm = [s for start, c, s in self.calls if not c and start >= since]
        return {"core.evaluation.cold_s": float(np.mean(cold)) if cold else 0.0,
                "core.evaluation.warm_s": float(np.mean(warm)) if warm else 0.0}


# ----------------------------------------------------------------------
class TrainFit(Workload):
    """``POSHGNN.fit`` called as the bench drivers call it.

    One smm room at the bench defaults (N=100, T=40), three training
    targets, the default restarts x preservation caps, alpha resolved
    from ``TRAIN_ALPHA0["smm"]`` and a fixed epoch count.  A unit is the
    time between successive epoch completions.  Every epoch trains the
    same problems with the same shapes, so all epochs are one kind of
    unit, except the first of each restart attempt: the fit's first
    epoch also builds the model, and a later attempt's first epoch also
    scores the attempt before it.  The scoring and selection after the
    last epoch are a unit of their own.
    """

    name = "train_fit"
    DEFAULTS = {"users": 100, "steps": 40, "epochs": 3, "slo_ms": 2000.0}
    required_spans = (
        "datasets.generate_room", "training.fit", "training.train_episode",
        "nn.backward", "nn.optim_step", "core.evaluation.evaluate_episode",
        "models.poshgnn.mia", "models.poshgnn.pdr", "models.poshgnn.lwp")

    def setup(self) -> None:
        s = {**self.DEFAULTS, **self.scale}
        self.s = s
        config = BenchConfig(seed=self.seed)
        room = _room(s["users"], s["steps"], 1000 * self.seed)
        rng = np.random.default_rng(self.seed + 1)
        eval_targets = room.sample_targets(config.eval_targets, rng)
        train = [t for t in range(room.num_users)
                 if t not in set(eval_targets.tolist())]
        self.problems = [AfterProblem(room, t, beta=config.beta,
                                      max_render=config.max_render)
                         for t in train[:config.train_targets]]
        self.alpha = resolve_alpha(self.problems, "auto",
                                   alpha0=TRAIN_ALPHA0["smm"])
        self.histories: list = []
        self.states: list = []
        self.epoch_marks: list = []   # (start, seconds)
        POSHGNN(seed=self.seed).fit(self.problems, restarts=1, epochs=1,
                                    alpha=self.alpha)   # warm-up, untimed

    def run(self, seconds: float, switch) -> Measured:
        step_count = sum(p.horizon + 1 for p in self.problems)
        start = time.perf_counter()
        units = []
        fits = 0
        while time.perf_counter() - start < seconds:
            switch.poll(fits)
            last = time.perf_counter()
            previous = None

            def on_epoch_end(_trainer, epoch, _history):
                nonlocal last, previous
                now = time.perf_counter()
                if previous is None:
                    kind = "first"
                elif epoch <= previous:
                    kind = "after_scoring"
                else:
                    kind = "epoch"
                self.epoch_marks.append((last, now - last))
                units.append(Unit(last, now, now - last, step_count,
                                  kind=kind))
                previous, last = epoch, now

            model = POSHGNN(seed=self.seed)
            history = model.fit(self.problems, epochs=self.s["epochs"],
                                alpha=self.alpha, on_epoch_end=on_epoch_end)
            fit_end = time.perf_counter()
            # The final restart scoring and selection follow the last epoch.
            units.append(Unit(last, fit_end, fit_end - last, 0, kind="tail"))
            fits += 1
            self.histories.append(history["loss"])
            self.states.append(checks.state_digest(model.state_dict()))
        wall = time.perf_counter() - start
        latencies = [seconds_ * 1000.0 for _, seconds_ in self.epoch_marks]
        return Measured(
            latencies_ms=latencies, slo_ms=self.s["slo_ms"],
            attempted=len(latencies), missed=0,
            wall_s=wall, units=units, closed_loop=True)

    def check(self) -> list:
        failures = []
        for index, losses in enumerate(self.histories):
            failures += checks.loss_history_ok(f"{self.name} fit {index}",
                                               losses)
        failures += checks.digests_agree(self.name,
                                         {"fitted state": self.states})
        print(f"train_fit fitted-state digest: {self.states[0]}")
        return failures

    def layer_extras(self, since: float) -> dict:
        epochs = [seconds for start, seconds in self.epoch_marks
                  if start >= since]
        return {"training.epoch_s": float(np.mean(epochs)) if epochs else 0.0,
                "training.epochs": len(epochs)}


WORKLOADS = {cls.name: cls for cls in (ServeSteady, ServeChurn, EvalCold,
                                       TrainFit)}
