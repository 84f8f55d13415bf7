"""Oracle serving layer: persistent artifacts + concurrent query service.

The ROADMAP's north star is a long-lived system answering ground-truth
queries (Thms. 3-5 vertex/edge 4-cycle counts, Def. 10 clustering) for
heavy traffic.  The paper makes that cheap -- every answer comes from
factor-sized chain tables, never from the materialized product -- and
this package turns the in-memory :class:`~repro.kronecker.oracle.GroundTruthOracle`
into infrastructure:

* :mod:`repro.serve.artifact` -- a versioned, checksummed on-disk
  oracle artifact (schema ``repro.serve/3``): ``save_oracle`` /
  ``load_oracle`` round-trip the tables of every chain factor, at any
  depth, so a server boots without recomputing anything;
  ``load_oracle(..., mmap=True)`` maps the arrays zero-copy for
  multi-process sharing.
* :mod:`repro.serve.service` -- :class:`OracleService`, an in-process
  front-end over the batched oracle APIs: ``answer()`` on the caller's
  thread, a byte-budgeted LRU result cache, and an in-flight cap with
  typed :class:`Overloaded` load-shedding.
* :mod:`repro.serve.http` -- the JSON API (``/v1/degree``,
  ``/v1/squares/vertex``, ``/v1/squares/edge``, ``/v1/wings``,
  ``/v1/clustering``, ``/v1/global``, ``/healthz``, ``/metrics``),
  fully instrumented through :mod:`repro.obs`.
* :mod:`repro.serve.wire` -- the compact length-prefixed binary batch
  protocol (schema ``repro.wire/1``) plus the pooled
  :class:`~repro.serve.wire.WireClient`.
* :mod:`repro.serve.prefork` -- the front end: N workers sharing one
  mmap'd oracle and one listening socket, JSON and wire sniffed on the
  same port, SIGTERM drain, respawn-on-crash, per-worker metrics
  merged on shutdown.

CLI: ``python -m repro pack FACTOR FACTOR [FACTOR ...]`` builds
artifacts from two or more factor specs;
``python -m repro serve [--workers-procs N]`` boots the pre-fork front
end (one worker by default).
See docs/serving.md for the artifact format, endpoint/wire reference,
and capacity numbers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ARTIFACT_SCHEMA": ".artifact",
    "ORACLE_FILE": ".artifact",
    "SIDECAR_FILE": ".artifact",
    "ArtifactError": ".artifact",
    "ArtifactIntegrityError": ".artifact",
    "artifact_info": ".artifact",
    "load_oracle": ".artifact",
    "oracle_arrays": ".artifact",
    "save_oracle": ".artifact",
    "INVALID_SQUARES": ".service",
    "OracleService": ".service",
    "Overloaded": ".service",
    "HandlerContext": ".http",
    "PreforkServer": ".prefork",
    "WireClient": ".wire",
})
