"""Integration tests: the trading system on RT-Seed."""

import hashlib

import pytest

from repro.core.task import TaskContext
from repro.simkernel import Topology
from repro.simkernel.cpu import uniform_share
from repro.simkernel.time_units import MSEC, SEC
from repro.trading.broker import SimBroker
from repro.trading.feed import MarketFeed
from repro.trading.indicators import AnytimeBollinger, AnytimeMomentum
from repro.trading.strategy import DecisionKind
from repro.trading.system import (
    RealTimeTradingSystem,
    TradingTask,
    default_analyzers,
)

pytestmark = pytest.mark.tier1


def small_machine():
    return Topology(4, 4, share_fn=uniform_share, background_weight=0.0)


def make_system(**kwargs):
    kwargs.setdefault("topology", small_machine())
    kwargs.setdefault("cost_model", "zero")
    kwargs.setdefault("analyzers",
                      [AnytimeBollinger(), AnytimeMomentum()])
    kwargs.setdefault("n_seconds", 20)
    return RealTimeTradingSystem(**kwargs)


def test_default_analyzer_panel():
    panel = default_analyzers(seed=0)
    names = [a.name for a in panel]
    assert names == ["bollinger", "rsi", "momentum", "macd", "fundamental"]


def test_system_meets_deadlines_and_decides_every_job():
    system = make_system()
    report = system.run()
    summary = report.summary()
    assert summary["jobs"] == 20
    assert summary["deadline_misses"] == 0
    assert len(report.decisions) == 20
    counts = report.decision_counts
    assert sum(counts.values()) == 20


def test_system_deterministic_per_seed():
    first = make_system(seed=5).run()
    second = make_system(seed=5).run()
    assert [d.kind for _j, d, _o in first.decisions] == \
        [d.kind for _j, d, _o in second.decisions]
    assert first.summary()["equity"] == second.summary()["equity"]


def test_orders_flow_to_broker():
    system = make_system(n_seconds=40, seed=2)
    report = system.run()
    traded = [o for _j, _d, o in report.decisions if o is not None]
    assert len(traded) == report.broker.trade_count
    counts = report.decision_counts
    assert counts[DecisionKind.BID] + counts[DecisionKind.ASK] >= \
        len(traded)


def test_qos_increases_with_optional_deadline():
    """A later OD gives the analyzers more time -> higher QoS."""
    tight = make_system(seed=1, optional_deadline=300 * MSEC).run()
    loose = make_system(seed=1, optional_deadline=900 * MSEC).run()
    assert loose.qos >= tight.qos


def test_short_od_degrades_to_waiting():
    """With almost no optional time the vote lacks confidence and the
    system takes the wait-and-see attitude (low-QoS decisions, not
    crashes)."""
    system = make_system(seed=1, optional_deadline=70 * MSEC)
    report = system.run()
    assert report.summary()["deadline_misses"] == 0
    counts = report.decision_counts
    assert counts[DecisionKind.WAIT] == 20


def test_trading_task_to_model_bounds():
    task = TradingTask(
        "t",
        MarketFeed(seed=0),
        [AnytimeBollinger()],
        SimBroker(),
    )
    model = task.to_model()
    assert model.mandatory > task.fetch_cost
    assert model.windup > task.decide_cost
    assert model.n_parallel == 1
    # optional demand covers every refinement step
    assert model.optionals[0] == pytest.approx(
        len(AnytimeBollinger.windows) * AnytimeBollinger.step_cost
    )


def test_trading_task_requires_analyzers():
    with pytest.raises(ValueError):
        TradingTask("t", MarketFeed(), [], SimBroker())


def test_mandatory_part_fetches_tick_for_release_time():
    feed = MarketFeed(seed=0)
    task = TradingTask("t", feed, [AnytimeBollinger()], SimBroker())
    ctx = TaskContext(task, 0, 7 * SEC, 7.8 * SEC, 8 * SEC)
    list(task.exec_mandatory(ctx))
    assert ctx.scratch["tick_index"] == 7
    assert ctx.scratch["tick"].mid == pytest.approx(feed.mid(7))
    assert len(ctx.scratch["history"]) == 8  # only 8 ticks exist yet


def test_full_default_panel_runs_on_phi():
    """Default five-analyzer panel on the full Xeon Phi with overheads."""
    system = RealTimeTradingSystem(n_seconds=10, seed=0)
    report = system.run()
    assert report.summary()["jobs"] == 10
    assert report.summary()["deadline_misses"] == 0
    assert report.qos > 0


def test_risk_manager_vetoes_orders():
    """A tiny position cap blocks entries beyond the first order."""
    from repro.trading.risk import RiskManager

    from repro.trading.system import TradingTask
    from repro.core.middleware import RTSeed

    feed = MarketFeed(seed=7)
    broker = SimBroker(max_position=100_000)
    task = TradingTask(
        "trader",
        feed,
        [AnytimeMomentum()],
        broker,
        risk_manager=RiskManager(max_position=1_000.0),
        order_units=1_000.0,
    )
    middleware = RTSeed(topology=small_machine(), cost_model="zero")
    middleware.add_task(task, n_jobs=40, optional_cpus=[1])
    middleware.run()
    traded = [o for _j, _d, o in task.decisions if o is not None]
    # the cap admits at most one net position's worth per direction
    assert abs(broker.account.position) <= 1_000.0
    if len(traded) < sum(
        1 for _j, d, _o in task.decisions
        if d.kind is not DecisionKind.WAIT
    ):
        assert task.risk_vetoes


class RecordingAnalyzer:
    """Anytime-analyzer proxy that records every estimate ``refine``
    returns.  Passed to ``RealTimeTradingSystem(analyzers=...)``;
    attribute reads and writes (``tick_index``, ``step_cost``, ...) go
    to the wrapped analyzer."""

    def __init__(self, inner, estimates):
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_estimates", estimates)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)

    def refine(self, state):
        estimate = self._inner.refine(state)
        self._estimates.append(estimate)
        return estimate


def _exact_text(value):
    """A value's type and every bit, as text (``float.hex`` for
    floats, numpy's included)."""
    text = value.hex() if isinstance(value, float) else repr(value)
    return f"{type(value).__name__}:{text}"


def test_panel_estimates_keep_their_bits_over_a_run():
    """Every estimate of the default panel over a 60 s run, in the
    order the run refines them.  No trade document carries a technical
    analyzer's signal (a decision publishes its kind and confidence,
    and a technical analyzer's confidence is its step count), so this
    hash is what pins the panel's arithmetic over a whole run.  In this
    run every analyzer of the panel refines, MACD included."""
    estimates = []
    analyzers = [RecordingAnalyzer(analyzer, estimates)
                 for analyzer in default_analyzers(seed=0)]
    RealTimeTradingSystem(n_seconds=60, seed=0,
                          analyzers=analyzers).run()
    assert {estimate.analyzer for estimate in estimates} \
        == {"bollinger", "rsi", "momentum", "macd", "fundamental"}
    lines = []
    for estimate in estimates:
        fields = [estimate.analyzer, _exact_text(estimate.signal),
                  _exact_text(estimate.confidence)]
        fields += [f"{key}={_exact_text(value)}"
                   for key, value in sorted(estimate.detail.items())]
        lines.append(" ".join(fields))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(estimates), digest[:16]) == (1045, "db9b583876ef4941")
