"""repro.serve — the micro-batching request service.

The analytical core answers exactly the queries a licensing office issues
thousands of times a day — CTP ratings, license decisions, threshold
reviews — and PR 1's batch kernels answer them fastest in bulk.  This
package turns many small concurrent requests into few large batch calls:

* :mod:`repro.serve.schemas` — JSON payloads -> canonical, cacheable
  request objects (validated up front, never inside a batch);
* :mod:`repro.serve.batching` — the micro-batching queue: bounded,
  deadline-aware, greedy-coalescing (:class:`MicroBatcher`);
* :mod:`repro.serve.cache` — the LRU response cache keyed on canonical
  payloads under the catalog's invalidation count;
* :mod:`repro.serve.plan` — the multi-query planner: a heterogeneous
  batch compiled into few fused columnar ops (CSE on canonical keys,
  cross-endpoint reuse, per-slot error isolation) behind ``POST
  /batch`` and every per-endpoint micro-batcher;
* :mod:`repro.serve.rpc` — the ``repro mcp`` stdio JSON-RPC 2.0
  bridge for MCP hosts and shell pipelines;
* :mod:`repro.serve.server` — the transport-free
  :class:`ServiceEngine` plus the stdlib ``ThreadingHTTPServer`` front
  end (``repro serve``);
* :mod:`repro.serve.prefork` — the pre-forked worker fleet sharing one
  port (``repro serve --workers N``);
* :mod:`repro.serve.client` — the stdlib client used by tests, CI, and
  the serving benchmarks (stale keep-alive connections retry once,
  transparently).

See DESIGN.md, "Serving architecture" for the backpressure /
graceful-degradation contract (429 / 504 / structured 400s).
"""

from repro.serve.batching import MicroBatcher
from repro.serve.cache import MISS, LRUCache
from repro.serve.client import ServeClient, ServeResponse
from repro.serve.plan import (
    QueryPlan,
    build_plan,
    execute_plan,
    plan_stats,
)
from repro.serve.prefork import (
    PreforkServer,
    reuseport_available,
    run_prefork_server,
)
from repro.serve.rpc import rpc_response, run_stdio_bridge
from repro.serve.schemas import (
    ENDPOINTS,
    LicenseRequest,
    MachineRequest,
    RateRequest,
    ReviewRequest,
    ThresholdAtRequest,
    parse_request,
)
from repro.serve.server import (
    ServeConfig,
    ServeServer,
    ServiceEngine,
    error_body,
    run_server,
)

__all__ = [
    "MicroBatcher",
    "LRUCache",
    "MISS",
    "ServeClient",
    "ServeResponse",
    "ENDPOINTS",
    "RateRequest",
    "LicenseRequest",
    "MachineRequest",
    "ReviewRequest",
    "ThresholdAtRequest",
    "parse_request",
    "ServeConfig",
    "ServeServer",
    "ServiceEngine",
    "error_body",
    "run_server",
    "PreforkServer",
    "reuseport_available",
    "run_prefork_server",
    "QueryPlan",
    "build_plan",
    "execute_plan",
    "plan_stats",
    "rpc_response",
    "run_stdio_bridge",
]
