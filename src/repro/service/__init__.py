"""The serving layer: many views, live traffic, adaptive strategies.

The paper's conclusion is a *decision procedure* — which maintenance
strategy is cheapest depends on workload parameters (`P`, `l`, `f`,
`f_v`) that shift at runtime.  This package turns the one-shot
experiment harness into a long-lived **view server**:

* :mod:`repro.service.server` — :class:`ViewServer` hosts many named
  views over one shared :class:`~repro.engine.database.Database` and
  serves interleaved update/query traffic from multiple logical
  clients, sharing deferred refreshes per base relation.
* :mod:`repro.service.router` — :class:`AdaptiveRouter` keeps running
  workload statistics per view, re-runs the paper's advisor on live
  estimates, and migrates views between strategies with hysteresis.
* :mod:`repro.service.scheduler` — refresh policies beyond the paper's
  on-demand refresh: periodic every-*j*-queries and asynchronous
  background refresh, priced with :mod:`repro.core.policies`.
* :mod:`repro.service.metrics` — a counter/gauge/histogram registry
  recording per-view, per-strategy latency, refresh cost, AD-file
  depth, Bloom-filter screening and strategy migrations; exportable as
  JSON and as an ASCII dashboard.
* :mod:`repro.service.cache` — :class:`QueryResultCache`, a versioned
  (epoch-invalidated) result cache in front of the materialized read
  path; opt-in so the default cost accounting stays paper-faithful.
* :mod:`repro.service.spec` — a serving stack described as data:
  :func:`build_server` stands a spec up in this process (the cluster
  partitions the same spec over shard workers), :func:`demo_spec`
  produces the demo data.
* :mod:`repro.service.traffic` — multi-client, multi-phase workload
  generation (drifting update probability), the demo server, and
  :func:`run_traffic`, the one replay loop over any placement.
* :mod:`repro.service.cli` — the ``repro-serve`` entry point.
"""

from .cache import QueryResultCache
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSchemaError,
    validate_metrics,
)
from .router import AdaptiveRouter, RouterConfig, StrategySwitch, WorkloadStats
from .scheduler import RefreshPolicy, RefreshScheduler, StalenessReport
from .server import ViewServer
from .spec import build_server, demo_spec
from .traffic import (
    PhaseSpec,
    Request,
    ServiceDemo,
    TrafficSummary,
    demo_server,
    drifting_traffic,
    run_traffic,
)

__all__ = [
    "AdaptiveRouter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSchemaError",
    "PhaseSpec",
    "QueryResultCache",
    "RefreshPolicy",
    "RefreshScheduler",
    "Request",
    "RouterConfig",
    "ServiceDemo",
    "StalenessReport",
    "StrategySwitch",
    "TrafficSummary",
    "ViewServer",
    "WorkloadStats",
    "build_server",
    "demo_server",
    "demo_spec",
    "drifting_traffic",
    "run_traffic",
    "validate_metrics",
]
