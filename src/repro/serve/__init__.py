"""``repro-gradual serve``: a fault-tolerant persistent evaluation service.

The package splits along the process boundary:

* :mod:`repro.serve.protocol` — the newline-delimited JSON wire format and
  request validation (shared by server and client);
* :mod:`repro.serve.pool` — the persistent worker pool: warm interned
  tables and hot images, crash detection with bounded retry, cooperative
  deadlines, worker recycling, and the ``worker_kill`` fault hook;
* :mod:`repro.serve.server` — the asyncio front end: admission control
  with load shedding, metrics, and graceful SIGTERM drain;
* :mod:`repro.serve.client` — a small synchronous client (tests, smoke,
  benchmarks).
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "client": ("ServeClient",),
    "pool": ("WorkerPool",),
    "protocol": ("TERMINAL_KINDS", "decode_line", "encode_line"),
    "server": ("ServeConfig", "Server", "serve"),
})

__all__ = [
    "ServeClient",
    "ServeConfig",
    "Server",
    "TERMINAL_KINDS",
    "WorkerPool",
    "decode_line",
    "encode_line",
    "serve",
]
