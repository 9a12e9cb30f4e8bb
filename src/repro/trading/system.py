"""The end-to-end real-time trading system on RT-Seed.

Implements the Section II-A application exactly:

* **mandatory part** — obtain the exchange rate (EUR/USD) for this
  period from the (simulated) trading company;
* **parallel optional parts** — one anytime analyzer each (technical
  and/or fundamental), refining estimates until completion or the
  optional deadline;
* **wind-up part** — collect whatever the parts published, make a
  trading decision (bid / ask / wait-and-see), and send it to the
  broker.
"""

import statistics

from repro.core.middleware import RTSeed
from repro.core.task import Task
from repro.hardware.loads import BackgroundLoad
from repro.model.task_model import ParallelExtendedImpreciseTask
from repro.simkernel.errors import JobAbortError
from repro.simkernel.syscalls import ClockNanosleep, Compute
from repro.simkernel.time_units import MSEC, SEC
from repro.trading.broker import BrokerDisconnectedError, OrderSide, SimBroker
from repro.trading.feed import MarketFeed
from repro.trading.fundamental import FundamentalAnalyzer, synthetic_macro
from repro.trading.indicators import (
    AnytimeBollinger,
    AnytimeMACD,
    AnytimeMomentum,
    AnytimeRSI,
)
from repro.trading.strategy import DecisionKind, WeightedVote


def default_analyzers(seed=0):
    """The default panel: four technical + one fundamental analyzer."""
    return [
        AnytimeBollinger(),
        AnytimeRSI(),
        AnytimeMomentum(),
        AnytimeMACD(),
        FundamentalAnalyzer(synthetic_macro(seed), seed=seed),
    ]


class TradingTask(Task):
    """The parallel-extended imprecise trading task.

    :param feed: market data source.
    :param analyzers: one anytime analyzer per parallel optional part.
    :param broker: order sink.
    :param strategy: decision aggregator for the wind-up part.
    :param history_length: ticks of history handed to the analyzers.
    :param fetch_cost: mandatory-part compute (network fetch + parse).
    :param decide_cost: wind-up-part compute (aggregate + order I/O).
    :param order_units: order size for bid/ask decisions.
    :param retry_policy: optional
        :class:`~repro.core.resilience.RetryPolicy`; with it (and a
        ``network``), fetch timeouts are retried with backoff inside the
        slack before the optional deadline, and the job is aborted in a
        controlled way when no further attempt fits.
    """

    def __init__(self, name, feed, analyzers, broker,
                 strategy=None, period=1 * SEC, history_length=120,
                 fetch_cost=60 * MSEC, decide_cost=50 * MSEC,
                 order_units=1_000.0, risk_manager=None, network=None,
                 retry_policy=None):
        if not analyzers:
            raise ValueError("need at least one analyzer")
        super().__init__(name, period, n_parallel=len(analyzers))
        self.feed = feed
        self.analyzers = list(analyzers)
        # one refinement step's request per analyzer, yielded on every
        # step (the kernel never mutates a request)
        self._steps = [
            Compute(analyzer.step_cost, tag=f"analyze[{analyzer.name}]")
            for analyzer in self.analyzers
        ]
        self.broker = broker
        self.strategy = strategy or WeightedVote()
        self.history_length = history_length
        self.fetch_cost = float(fetch_cost)
        self.decide_cost = float(decide_cost)
        self.order_units = order_units
        self.risk_manager = risk_manager
        #: optional :class:`~repro.trading.network.NetworkModel`; when
        #: set, the mandatory part's cost is the sampled fetch latency
        #: instead of the flat ``fetch_cost``.
        self.network = network
        self.retry_policy = retry_policy
        #: (job_index, Decision, Order-or-None) per job, in order.
        self.decisions = []
        #: orders the risk manager vetoed: (job_index, RiskDecision).
        self.risk_vetoes = []
        #: orders lost to broker faults: (job_index, reason) per failure.
        self.broker_failures = []
        #: optional :class:`~repro.obs.bus.ProbeBus` (duck-typed);
        #: :class:`RealTimeTradingSystem` wires it to the middleware's
        #: bus so decisions and orders appear on the trace with their
        #: tick-to-order latency.
        self.probes = None

    def _fetch_with_retry(self, ctx):
        """One fetch, retried with backoff inside the deadline budget.

        Each timed-out attempt has already cost its latency; before
        retrying, the policy checks that backoff + a worst-case attempt
        still fits before the optional deadline — otherwise the job is
        aborted (:class:`JobAbortError`) instead of blowing through it.
        """
        policy = self.retry_policy
        worst = self.network.worst_case()
        bus = self.probes
        attempt = 0
        while True:
            latency, timed_out = self.network.fetch_outcome(
                ctx.job_index, attempt
            )
            yield ctx.compute(latency, tag="fetch")
            if not timed_out:
                return
            attempt += 1
            now = yield ctx.now()
            reason = policy.abort_reason(attempt, now,
                                         ctx.optional_deadline, worst)
            if reason is not None:
                raise JobAbortError(
                    f"fetch (job {ctx.job_index}): {reason}"
                )
            backoff = policy.next_backoff(attempt)
            if bus is not None and bus.active:
                bus.publish("trading.fetch_retry", job=ctx.job_index,
                            attempt=attempt, backoff=backoff)
            yield ClockNanosleep(now + backoff)

    def exec_mandatory(self, ctx):
        if self.network is not None and self.retry_policy is not None:
            yield from self._fetch_with_retry(ctx)
        else:
            cost = self.fetch_cost
            if self.network is not None:
                # fetch_outcome keeps the fault proxy in the loop even
                # without a retry policy; a timeout then simply costs
                # its budget and the (cached) data is used as fetched.
                cost, _timed_out = self.network.fetch_outcome(
                    ctx.job_index
                )
            yield ctx.compute(cost, tag="fetch")
        tick_index = self.feed.index_at(ctx.release)
        ctx.scratch["tick_index"] = tick_index
        ctx.scratch["tick"] = self.feed.tick(tick_index)
        ctx.scratch["history"] = self.feed.history(
            tick_index, self.history_length
        )

    def exec_optional(self, ctx, part_index):
        analyzer = self.analyzers[part_index]
        step = self._steps[part_index]
        if hasattr(analyzer, "tick_index"):
            analyzer.tick_index = ctx.scratch["tick_index"]
        state = analyzer.start(ctx.scratch["history"])
        while not state.done:
            yield step
            estimate = analyzer.refine(state)
            ctx.publish(part_index, estimate)

    def exec_windup(self, ctx):
        yield ctx.compute(self.decide_cost, tag="decide")
        estimates = [
            ctx.collect().get(part_index)
            for part_index in range(self.n_parallel)
        ]
        decision = self.strategy.decide(estimates)
        order = None
        tick = ctx.scratch["tick"]
        side = None
        if decision.kind is DecisionKind.BID:
            side = OrderSide.BUY
        elif decision.kind is DecisionKind.ASK:
            side = OrderSide.SELL
        if side is not None:
            if self.risk_manager is not None:
                self.risk_manager.observe_equity(
                    self.broker.account.equity(tick.mid)
                )
                verdict = self.risk_manager.check(
                    self.broker.account, side, self.order_units
                )
                if verdict.verdict.value == "block":
                    self.risk_vetoes.append((ctx.job_index, verdict))
                    side = None
            if side is not None:
                try:
                    order = self.broker.submit(ctx.deadline, side,
                                               self.order_units, tick)
                except BrokerDisconnectedError as error:
                    # injected broker outage: the order is lost, the
                    # system records the failure and trades on.
                    self.broker_failures.append((ctx.job_index,
                                                 str(error)))
                    bus = self.probes
                    if bus is not None and bus.active:
                        bus.publish("trading.broker_error",
                                    job=ctx.job_index,
                                    side=side.name.lower(),
                                    reason=str(error))
                    order = None
        self.decisions.append((ctx.job_index, decision, order))
        bus = self.probes
        if bus is not None and bus.active:
            bus.publish("trading.decision", job=ctx.job_index,
                        kind=decision.kind.name.lower(),
                        confidence=decision.confidence)
            if order is not None:
                # the bus stamps publish time; `release` lets consumers
                # derive the tick-to-order latency of this job
                bus.publish("trading.order", job=ctx.job_index,
                            side=side.name.lower(),
                            units=self.order_units,
                            release=ctx.release)

    def to_model(self):
        """Analytic model: WCET bounds with a small margin, full optional
        demand as the per-part refinement total."""
        optionals = []
        for analyzer in self.analyzers:
            steps = len(getattr(analyzer, "windows", [])) or \
                getattr(analyzer, "rounds", 4)
            optionals.append(steps * analyzer.step_cost)
        mandatory_bound = (
            self.network.worst_case() if self.network is not None
            else self.fetch_cost * 1.5
        )
        return ParallelExtendedImpreciseTask(
            self.name,
            mandatory_bound,
            optionals,
            self.decide_cost * 1.5,
            self.period,
        )


class TradingReport:
    """Outcome of a trading run."""

    def __init__(self, task, task_result, broker, last_tick):
        self.task = task
        self.task_result = task_result
        self.broker = broker
        self.last_tick = last_tick

    @property
    def decisions(self):
        return self.task.decisions

    @property
    def decision_counts(self):
        counts = {kind: 0 for kind in DecisionKind}
        for _job, decision, _order in self.task.decisions:
            counts[decision.kind] += 1
        return counts

    @property
    def mean_confidence(self):
        values = [d.confidence for _j, d, _o in self.task.decisions]
        return statistics.fmean(values) if values else 0.0

    @property
    def qos(self):
        """Mean optional execution time per job (the paper's QoS)."""
        probes = self.task_result.probes
        if not probes:
            return 0.0
        return statistics.fmean(
            p.optional_time_executed for p in probes
        )

    def summary(self):
        trading = self.broker.summary(self.last_tick)
        counts = self.decision_counts
        return {
            "jobs": len(self.task_result.probes),
            "deadline_misses": len(self.task_result.deadline_misses),
            "qos_ms": self.qos / MSEC,
            "mean_confidence": self.mean_confidence,
            "bids": counts[DecisionKind.BID],
            "asks": counts[DecisionKind.ASK],
            "waits": counts[DecisionKind.WAIT],
            **trading,
        }


class RealTimeTradingSystem:
    """Wire feed + analyzers + broker onto RT-Seed and run.

    :param n_seconds: trading duration (jobs; the task period is 1 s).
    :param analyzers: anytime analyzer panel (defaults to
        :func:`default_analyzers`).
    :param policy: optional-part assignment policy name.
    :param load: background load (for overhead studies).
    :param optional_deadline: relative OD; default ``D - w`` with the
        modeled wind-up bound.
    :param network: optional
        :class:`~repro.trading.network.NetworkModel` for the mandatory
        fetch (sampled latency instead of the flat cost).
    :param retry_policy: optional
        :class:`~repro.core.resilience.RetryPolicy` for fetch timeouts
        (needs ``network``).
    :param watchdog: optional
        :class:`~repro.core.resilience.OverrunWatchdog`.
    :param degrade: optional
        :class:`~repro.core.resilience.DegradedModeController`.
    """

    def __init__(self, n_seconds=60, seed=0, analyzers=None,
                 policy="one_by_one", load=BackgroundLoad.NONE,
                 topology=None, cost_model="xeonphi", strategy=None,
                 optional_deadline=None, history_length=120,
                 network=None, retry_policy=None, watchdog=None,
                 degrade=None):
        self.feed = MarketFeed(seed=seed)
        self.broker = SimBroker()
        self.analyzers = analyzers or default_analyzers(seed)
        self.task = TradingTask(
            "trader",
            self.feed,
            self.analyzers,
            self.broker,
            strategy=strategy,
            history_length=history_length,
            network=network,
            retry_policy=retry_policy,
        )
        self.middleware = RTSeed(topology=topology, load=load,
                                 cost_model=cost_model, seed=seed,
                                 watchdog=watchdog, degrade=degrade)
        self.task.probes = self.middleware.probes
        self.middleware.add_task(
            self.task,
            n_jobs=n_seconds,
            policy=policy,
            optional_deadline=optional_deadline,
        )
        self.n_seconds = n_seconds

    def start(self):
        """Plan + spawn without running (snapshot-layer split; see
        :meth:`repro.core.middleware.RTSeed.start`)."""
        self.middleware.start()

    def finish(self):
        """Drain the kernel and build the report (requires
        :meth:`start`)."""
        result = self.middleware.finish()
        last_index = self.feed.index_at(self.n_seconds * SEC)
        return TradingReport(
            self.task,
            result.tasks[self.task.name],
            self.broker,
            self.feed.tick(last_index),
        )

    def run(self):
        self.start()
        return self.finish()
