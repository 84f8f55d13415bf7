"""Command-line interface: ``python -m repro <command> ...``.

Wraps the library's workflows for shell users.  ``generate``,
``shards``, ``pack`` and ``stats`` take the same ``FACTOR FACTOR
[FACTOR ...]`` list: two specs form the Assumption-1 product
(``--assumption``, connectivity check), three or more the chain
``A ⊗ B ⊗ C ⊗ ...`` as given.

* ``generate`` -- stream a Kronecker chain from factor specs and write
  it as an edge list, optionally with a per-edge ground-truth column
  (``u v squares`` per line) produced *during* generation.
* ``stats`` -- print exact ground-truth statistics of a 2-factor
  product (sizes, parts, global 4-cycles, degree summary, optional
  diameter) without materializing it; ``--check`` additionally
  materializes and verifies against direct counting.
* ``shards`` -- fault-tolerant parallel generation of a Kronecker chain
  into degree-balanced, checksummed
  ``repro.edges/1`` shards with a ``manifest.json``; supports
  ``--resume`` after a crash, bounded ``--retries`` with backoff,
  deterministic ``--fault-rate`` injection for drills, and ``--verify``
  end-to-end checksum validation (see docs/fault_tolerance.md).
* ``verify`` -- differential verification: cross-check the chain
  engine, the paper's printed ``sp.kron`` forms, oracle and streaming
  against the brute-force referee in :mod:`repro.refcheck` over seeded random and
  adversarial factor corpora; exits 4 on any divergence and can write
  the machine-readable witness report (``--report-out``).
* ``pack`` -- build a persistent, checksummed oracle artifact
  (``oracle.npz`` + ``artifact.json``, schema ``repro.serve/3``: the
  tables of every chain factor) from factor specs, so a server can
  boot without recomputing anything.
* ``serve`` -- boot the pre-fork ground-truth query server over a
  packed artifact: JSON HTTP and binary wire protocols on one port, a
  byte-budgeted LRU result cache, and per-worker load shedding (see
  docs/serving.md).
* ``table1`` / ``fig5`` -- regenerate the §IV artifacts.
* ``top`` -- live console dashboard over a ``--events-out`` JSONL log
  (shard progress, edges/sec, ETA, retry/shed counters) or a served
  ``/metrics`` endpoint.

Every workload subcommand takes ``--profile`` / ``--metrics-out`` /
``--events-out`` (see docs/observability.md); ``serve`` additionally
installs a live metrics registry unconditionally.

Factor specification mini-language (``FACTOR`` arguments)::

    path:N           path graph P_N                (bipartite)
    cycle:N          cycle C_N                     (bipartite iff N even)
    star:K           star with K leaves            (bipartite)
    complete:N       complete graph K_N            (non-bipartite, N >= 3)
    biclique:MxN     complete bipartite K_{M,N}
    grid:RxC         R x C lattice                 (bipartite)
    pa:N:M[:SEED]    preferential attachment       (non-bipartite for M >= 2)
    konect-unicode   the calibrated synthetic stand-in
    file:PATH        edge list from disk (0-based, whitespace separated)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Only the instrumentation layer is imported here; each subcommand imports
# what it runs, so ``repro serve`` boots without the generation stack.
from repro.obs import (
    disable,
    enable,
    events_to,
    get_metrics,
    get_tracer,
    instrument,
    is_enabled,
)

__all__ = ["main", "parse_factor"]


def parse_factor(spec: str):
    """Parse a factor spec (see module docstring) into a graph."""
    from repro import generators

    if spec == "konect-unicode":
        return generators.konect_unicode_like()
    if spec.startswith("file:"):
        from repro.graphs import read_edge_list

        return read_edge_list(spec[len("file:") :])
    name, _, rest = spec.partition(":")
    try:
        if name == "path":
            return generators.path_graph(int(rest))
        if name == "cycle":
            return generators.cycle_graph(int(rest))
        if name == "star":
            return generators.star_graph(int(rest))
        if name == "complete":
            return generators.complete_graph(int(rest))
        if name == "biclique":
            if "x" not in rest:
                raise argparse.ArgumentTypeError(
                    f"malformed factor spec {spec!r}: expected biclique:MxN (e.g. biclique:3x4)"
                )
            m, n = rest.split("x")
            return generators.complete_bipartite(int(m), int(n))
        if name == "grid":
            if "x" not in rest:
                raise argparse.ArgumentTypeError(
                    f"malformed factor spec {spec!r}: expected grid:RxC (e.g. grid:2x3)"
                )
            r, c = rest.split("x")
            return generators.grid_graph(int(r), int(c))
        if name == "pa":
            parts = rest.split(":")
            n, m = int(parts[0]), int(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 0
            return generators.scale_free_nonbipartite_factor(n, m, seed=seed)
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"malformed factor spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown factor spec {spec!r}")


def _build_chain(args):
    """The chain the ``FACTOR`` specs name, and its certificate.

    Returns ``(chain, bk)``.  Two specs form the Assumption-1 product
    (``--assumption``, connectivity check): ``bk`` is its
    :class:`~repro.kronecker.assumptions.BipartiteKronecker` and
    ``chain`` is ``bk.chain = [M, B]``.  Three or more are taken as
    given, so the 2-factor flags are refused for them and ``bk`` is
    None.
    """
    from repro.graphs.bipartite import BipartiteGraph
    from repro.kronecker.multifactor import KroneckerChain

    if len(args.factors) < 2:
        raise ValueError(f"{args.command} needs two or more factor specs, got {len(args.factors)}")
    if len(args.factors) == 2:
        from repro.kronecker import Assumption, make_bipartite_product

        bk = make_bipartite_product(
            *(parse_factor(spec) for spec in args.factors),
            Assumption.SELF_LOOPS_FACTOR if args.assumption == "ii"
            else Assumption.NON_BIPARTITE_FACTOR,
            require_connected=not args.allow_disconnected,
        )
        return bk.chain, bk
    if args.assumption != "i" or args.allow_disconnected:
        raise ValueError(
            "--assumption and --allow-disconnected apply to two factor specs only; "
            f"a chain of {len(args.factors)} factors is taken as given"
        )
    graphs = [parse_factor(spec) for spec in args.factors]
    return KroneckerChain.from_graphs(
        [g.graph if isinstance(g, BipartiteGraph) else g for g in graphs]
    ), None


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """The shared instrumentation flags; every subcommand gets them."""
    p.add_argument(
        "--profile",
        action="store_true",
        help="trace spans + metrics and print the run summary to stderr",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the machine-readable JSON run record to PATH",
    )
    p.add_argument(
        "--events-out",
        metavar="PATH",
        help="append structured JSONL telemetry events to PATH (tail with 'repro top')",
    )


def _add_factor_args(p: argparse.ArgumentParser) -> None:
    """The shared ``FACTOR`` list and its 2-factor flags (see :func:`_build_chain`)."""
    p.add_argument(
        "factors",
        nargs="+",
        metavar="FACTOR",
        help="two or more factor specs; two form the Assumption-1 product "
        "(--assumption), three or more the chain A (x) B (x) C (x) ...",
    )
    p.add_argument(
        "--assumption",
        choices=["i", "ii"],
        default="i",
        help="i: C = A(x)B with A non-bipartite; ii: C = (A+I)(x)B with A bipartite",
    )
    p.add_argument(
        "--allow-disconnected",
        action="store_true",
        help="skip the factor-connectivity check (formulas hold regardless)",
    )
    _add_obs_args(p)


def _cmd_generate(args) -> int:
    import numpy as np

    from repro.kronecker import stream_edges

    tracer = get_tracer()
    with tracer.span("generate.build_product"):
        chain, _ = _build_chain(args)
    edges_written = get_metrics().counter("generate.edges_written_total")
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        with tracer.span("generate.write_edges", ground_truth=bool(args.ground_truth)) as sp:
            out.write(f"# repro kronecker product: n={chain.n} m={chain.m}\n")
            if args.ground_truth:
                out.write("# columns: u v squares_at_edge\n")
                for p, q, dia in stream_edges(chain, attach_ground_truth=True):
                    keep = p <= q
                    for u, v, d in zip(p[keep].tolist(), q[keep].tolist(), np.asarray(dia)[keep].tolist()):
                        out.write(f"{u} {v} {d}\n")
                    edges_written.inc(int(keep.sum()))
            else:
                out.write("# columns: u v\n")
                for p, q in stream_edges(chain):
                    keep = p <= q
                    for u, v in zip(p[keep].tolist(), q[keep].tolist()):
                        out.write(f"{u} {v}\n")
                    edges_written.inc(int(keep.sum()))
            sp.set(n=chain.n, m=chain.m)
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"wrote {chain.m} edges (n={chain.n})", file=sys.stderr)
    return 0


def _cmd_shards(args) -> int:
    from repro.parallel import (
        MANIFEST_NAME,
        FaultInjector,
        RetryBudgetExceeded,
        RetryPolicy,
        generate_chain_shards,
        load_manifest,
        verify_shards,
    )

    tracer = get_tracer()
    with tracer.span("shards.build_product"):
        chain, _ = _build_chain(args)
    injector = None
    if args.fault_rate > 0.0:
        injector = FaultInjector(rate=args.fault_rate, seed=args.fault_seed, mode=args.fault_mode)
    policy = RetryPolicy(max_retries=args.retries)
    try:
        paths = generate_chain_shards(
            chain,
            args.out_dir,
            n_shards=args.shards,
            n_workers=args.workers,
            ground_truth=args.ground_truth,
            codec=args.codec,
            resume=args.resume,
            retry=policy,
            fault_injector=injector,
        )
    except RetryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: completed shards are recorded in the manifest; "
            "re-run with --resume to continue from them",
            file=sys.stderr,
        )
        return 3
    manifest_path = Path(args.out_dir) / MANIFEST_NAME
    manifest = load_manifest(manifest_path)
    entries = sum(e.entries for e in manifest.shards.values())
    nbytes = sum(e.bytes for e in manifest.shards.values())
    print(
        f"{len(manifest.shards)}/{len(paths)} shards complete in {args.out_dir}: "
        f"{entries:,} entries, {nbytes:,} bytes",
        file=sys.stderr,
    )
    print(f"manifest: {manifest_path}", file=sys.stderr)
    if args.verify:
        with tracer.span("shards.verify"):
            verify_shards(args.out_dir)
        print("verify: all shard checksums match the manifest", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    from repro.kronecker import global_squares_product
    from repro.kronecker.degrees import product_degree_summary
    from repro.kronecker.distances import product_diameter

    if len(args.factors) > 2:
        raise ValueError(
            "stats reports the parts and diameter of a 2-factor product; "
            f"got {len(args.factors)} factor specs"
        )
    tracer = get_tracer()
    with tracer.span("stats.build_product"):
        _, bk = _build_chain(args)
    gauges = get_metrics()
    gauges.gauge("stats.product_vertices").set(bk.n)
    gauges.gauge("stats.product_edges").set(bk.m)
    print(f"product         : {bk.n:,} vertices, {bk.m:,} undirected edges")
    print(f"parts           : |U_C| = {bk.U.size:,}, |W_C| = {bk.W.size:,}")
    with tracer.span("stats.global_squares") as sp:
        total = global_squares_product(bk)
        sp.set(squares=total)
    gauges.gauge("stats.global_squares").set(total)
    print(f"global 4-cycles : {total:,}")
    with tracer.span("stats.degree_summary"):
        summary = product_degree_summary(bk).format()
    print(f"degrees         : {summary}")
    if args.diameter:
        with tracer.span("stats.diameter"):
            try:
                print(f"diameter        : {product_diameter(bk)}")
            except ValueError:
                print("diameter        : undefined (product disconnected)")
    if args.check:
        from repro.analytics import global_squares

        with tracer.span("stats.direct_check"):
            direct = global_squares(bk.materialize())
        status = "OK" if direct == total else f"MISMATCH (direct {direct:,})"
        print(f"direct check    : {status}")
        if direct != total:  # pragma: no cover - formulas are proven
            return 1
    return 0


def _cmd_verify(args) -> int:
    from repro.refcheck import run_verification

    report = run_verification(
        tier=args.tier,
        seed=args.seed,
        trials=args.trials,
        max_factor_size=args.max_factor_size,
        assumption=args.assumption,
        include_adversarial=not args.no_adversarial,
        include_chains=not args.no_chains,
        perturb=args.perturb,
    )
    print(report.format())
    if args.report_out:
        report.write(args.report_out)
        print(f"wrote divergence report to {args.report_out}", file=sys.stderr)
    return 0 if report.passed else 4


def _cmd_pack(args) -> int:
    from repro.kronecker import GroundTruthOracle
    from repro.serve import artifact_info, save_oracle

    tracer = get_tracer()
    with tracer.span("pack.build_product"):
        chain, _ = _build_chain(args)
    with tracer.span("pack.build_oracle"):
        oracle = GroundTruthOracle(chain)
    out = save_oracle(oracle, args.out_dir)
    info = artifact_info(out)
    print(f"packed oracle artifact: {out}", file=sys.stderr)
    print(
        f"  schema {info['schema']}  product n={info['product']['n']:,} "
        f"m={info['product']['m']:,}  {info['oracle_bytes']:,} bytes",
        file=sys.stderr,
    )
    print(f"  {info['checksum']}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    # Serving is instrumented unconditionally: production telemetry
    # (latency quantiles, status counters, /metrics?format=prometheus)
    # must not require restarting the server with --profile.  When
    # _run_instrumented already installed a live registry, reuse it so
    # the shutdown run record sees the same series the server did.
    fresh_registry = not is_enabled()
    if fresh_registry:
        enable()
    try:
        return _serve_instrumented(args)
    finally:
        if fresh_registry:
            disable()


def _serve_instrumented(args) -> int:
    """The pre-fork front end (see repro.serve.prefork)."""
    import signal

    from repro.serve.prefork import PreforkServer

    with get_tracer().span("serve.startup", artifact=str(args.artifact)) as sp:
        server = PreforkServer(
            args.artifact,
            host=args.host,
            port=args.port,
            workers=args.workers_procs,
            protocol=args.protocol,
            max_queue=args.max_queue,
            cache_bytes=int(args.cache_mb * (1 << 20)),
            grace=args.grace,
            mmap=not args.no_mmap,
        ).start()
        oracle = server.oracle
        sp.set(n=oracle.n, m=oracle.m, port=server.port)
    print(
        f"serving ground-truth oracle on http://{server.host}:{server.port} "
        f"(n={oracle.n:,}, m={oracle.m:,}; {server.workers} pre-fork workers, "
        f"protocol={server.protocol}, mmap={'on' if server.mmap else 'off'}; "
        "Ctrl-C to stop)",
        file=sys.stderr,
        flush=True,
    )

    # SIGTERM (CI teardown, process managers) gets the same graceful
    # shutdown as Ctrl-C: drained workers, stats line, metrics-out record.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        stats = server.stop()
    print(
        f"serve: shut down after {stats['requests']:,} requests "
        f"({stats['queries']:,} queries, {stats['hits']:,} cache hits, "
        f"{stats['shed']:,} shed; {stats['workers_reported']}/{stats['workers']} "
        f"workers reported, {stats['respawns']} respawned)",
        file=sys.stderr,
    )
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments import table1_unicode

    factor = parse_factor(args.factor) if args.factor else None
    print(table1_unicode(factor).format())
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments import fig5_degree_vs_squares
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    factor = parse_factor(args.factor) if args.factor else konect_unicode_like()
    bk = make_bipartite_product(
        factor, factor, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    print(fig5_degree_vs_squares(bk, "factor A").format(n_bins=args.bins))
    return 0


def _cmd_design(args) -> int:
    from repro.kronecker.design import DesignTarget, design_product

    target = DesignTarget(
        n_vertices=args.vertices,
        n_edges=args.edges,
        global_squares=args.squares,
    )
    results = design_product(target, top_k=args.top)
    print(f"targets: n={args.vertices or '-'} m={args.edges or '-'} squares={args.squares or '-'}")
    print(f"best {len(results)} Assumption-1(ii) factor pairs:")
    for cand in results:
        print(f"  {cand.format()}")
    return 0


def _cmd_report(args) -> int:
    """Regenerate every paper artifact in one run."""
    from repro.experiments import (
        fig1_connectivity_table,
        fig2_closed_walk_identity,
        fig3_example_squares,
        fig4_edge_walk_identity,
        fig5_degree_vs_squares,
        table1_unicode,
    )
    from repro.generators import konect_unicode_like
    from repro.kronecker import Assumption, make_bipartite_product

    factor = parse_factor(args.factor) if args.factor else konect_unicode_like()
    bk = make_bipartite_product(
        factor, factor, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )
    sections = [
        fig1_connectivity_table().format(),
        fig2_closed_walk_identity(factor.graph if hasattr(factor, "graph") else factor).format(),
        fig3_example_squares().format(),
        fig4_edge_walk_identity(factor.graph if hasattr(factor, "graph") else factor).format(),
        table1_unicode(factor).format(),
        fig5_degree_vs_squares(bk, "factor A").format(n_bins=args.bins),
    ]
    print(("\n\n" + "=" * 78 + "\n\n").join(sections))
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    if bool(args.events) == bool(args.url):
        print("error: pass exactly one of --events PATH or --url URL", file=sys.stderr)
        return 2
    return run_top(
        events=args.events,
        url=args.url,
        interval=args.interval,
        once=args.once,
        duration=args.duration,
    )


def _at_least(kind, minimum):
    """An argparse ``type`` for a finite ``kind`` value >= ``minimum``
    (rejected at parse time, exit 2, before anything is loaded or bound)."""

    def parse(text: str):
        value = kind(text)
        if not minimum <= value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be a finite value >= {minimum}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bipartite Kronecker graphs with exact 4-cycle ground truth",
        epilog=__doc__.split("Factor specification", 1)[-1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="stream a product to an edge-list file")
    _add_factor_args(g)
    g.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    g.add_argument(
        "--ground-truth",
        action="store_true",
        help="append each edge's exact 4-cycle count as a third column",
    )
    g.set_defaults(fn=_cmd_generate)

    sh = sub.add_parser(
        "shards",
        help="fault-tolerant parallel generation of a chain of two or more factors "
        "into checksummed, degree-balanced repro.edges/1 shard files",
    )
    _add_factor_args(sh)
    sh.add_argument("-o", "--out-dir", required=True, help="shard output directory")
    sh.add_argument("--shards", type=int, default=4, help="number of shard files")
    sh.add_argument(
        "--workers",
        type=_at_least(int, 1),
        default=None,
        help="worker processes, >= 1 (default: auto)",
    )
    sh.add_argument(
        "--ground-truth",
        action="store_true",
        help="attach exact per-entry 4-cycle counts to every shard",
    )
    sh.add_argument(
        "--codec",
        choices=["raw", "deflate"],
        default="raw",
        help="block compression of the shard files",
    )
    sh.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already recorded (and checksum-intact) in the manifest",
    )
    sh.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget per shard before giving up (with exponential backoff)",
    )
    sh.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="deterministic per-attempt worker fault probability (crash drills)",
    )
    sh.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault-injection schedule"
    )
    sh.add_argument(
        "--fault-mode",
        choices=["raise", "kill"],
        default="raise",
        help="injected faults raise in the worker or hard-kill it (os._exit)",
    )
    sh.add_argument(
        "--verify",
        action="store_true",
        help="after generation, re-read every shard and verify manifest checksums",
    )
    sh.set_defaults(fn=_cmd_shards)

    s = sub.add_parser(
        "stats", help="exact statistics of a 2-factor product without materializing"
    )
    _add_factor_args(s)
    s.add_argument("--diameter", action="store_true", help="also compute the exact diameter")
    s.add_argument("--check", action="store_true", help="materialize and verify (small products)")
    s.set_defaults(fn=_cmd_stats)

    v = sub.add_parser(
        "verify",
        help="differential verification against a brute-force referee (exit 4 on divergence)",
    )
    v.add_argument(
        "--tier",
        choices=["standard", "scale", "wings"],
        default="standard",
        help="verification tier: the 2-factor formula corpus (default), the "
        "extreme-scale tier (streamed deep-chain shards vs a brute-force "
        "referee), or the wings tier (Rem. 1 support bounds vs brute "
        "set-intersection supports and batch-peeled wing numbers)",
    )
    v.add_argument("--seed", type=int, default=0, help="seed for the random factor corpus")
    v.add_argument(
        "--trials", type=int, default=50, help="number of seeded random factor pairs"
    )
    v.add_argument(
        "--max-factor-size",
        type=int,
        default=6,
        metavar="N",
        help="cap on factor vertex counts (the brute-force referee is "
        "quadratic in the product size; keep this small)",
    )
    v.add_argument(
        "--assumption",
        choices=["i", "ii", "both"],
        default="both",
        help="which Assumption-1 regimes to draw factor pairs under",
    )
    v.add_argument(
        "--report-out",
        metavar="PATH",
        help="write the machine-readable JSON divergence report to PATH",
    )
    v.add_argument(
        "--perturb",
        choices=["none", "beta-sign", "wing-support"],
        default="none",
        help="deliberately corrupt the ground-truth engine for the run "
        "(engine self-test: the corruption must be caught, exit 4)",
    )
    v.add_argument(
        "--no-adversarial", action="store_true", help="skip the adversarial corpora"
    )
    v.add_argument(
        "--no-chains", action="store_true", help="skip the multi-factor chain checks"
    )
    _add_obs_args(v)
    v.set_defaults(fn=_cmd_verify)

    pk = sub.add_parser(
        "pack",
        help="build a persistent, checksummed oracle artifact from factor specs",
    )
    _add_factor_args(pk)
    pk.add_argument("-o", "--out-dir", required=True, help="artifact output directory")
    pk.set_defaults(fn=_cmd_pack)

    sv = sub.add_parser(
        "serve",
        help="serve ground-truth queries over HTTP from a packed artifact",
        # No prefix matching: "--workers" must not resolve to "--workers-procs".
        allow_abbrev=False,
    )
    sv.add_argument("--artifact", required=True, help="artifact directory written by pack")
    sv.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    sv.add_argument(
        "--port", type=int, default=8571, help="bind port (0 = ephemeral, printed at startup)"
    )
    sv.add_argument(
        "--max-queue",
        type=_at_least(int, 0),
        default=1024,
        help="per-worker cap on requests in progress; beyond it requests "
        "shed with HTTP 503 / wire status OVERLOADED",
    )
    sv.add_argument(
        "--cache-mb",
        type=_at_least(float, 0),
        default=2.0,  # repro.serve.service.DEFAULT_CACHE_BYTES, not imported to parse
        metavar="MIB",
        help="per-worker LRU result-cache budget in MiB; each entry is "
        "charged its answer bytes + request index bytes + fixed overhead, and "
        "answers larger than the budget go uncached (0 disables caching; "
        "default %(default)g)",
    )
    sv.add_argument(
        "--workers-procs",
        type=int,
        default=1,
        metavar="N",
        help="pre-fork N serving processes (N >= 1) sharing one mmap'd "
        "oracle and one port; size N to the machine's cores",
    )
    sv.add_argument(
        "--protocol",
        choices=["json", "wire", "both"],
        default="both",
        help="protocols the port speaks: JSON HTTP, the binary wire "
        "protocol (repro.wire/1), or both via first-byte sniffing",
    )
    sv.add_argument(
        "--grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-drain window on SIGTERM: in-flight "
        "requests get this long to complete before workers exit",
    )
    sv.add_argument(
        "--no-mmap",
        action="store_true",
        help="load the artifact eagerly instead of mmap zero-copy "
        "(costs one artifact copy per worker)",
    )
    _add_obs_args(sv)
    sv.set_defaults(fn=_cmd_serve)

    t = sub.add_parser("table1", help="regenerate the paper's Table I")
    t.add_argument("--factor", help="factor spec (default: konect-unicode stand-in)")
    _add_obs_args(t)
    t.set_defaults(fn=_cmd_table1)

    f = sub.add_parser("fig5", help="regenerate the paper's Fig 5 series")
    f.add_argument("--factor", help="factor spec (default: konect-unicode stand-in)")
    f.add_argument("--bins", type=int, default=12, help="log bins in the text rendering")
    _add_obs_args(f)
    f.set_defaults(fn=_cmd_fig5)

    d = sub.add_parser("design", help="search factor pairs for target product statistics")
    d.add_argument("--vertices", type=int, help="target product vertex count")
    d.add_argument("--edges", type=int, help="target product edge count")
    d.add_argument("--squares", type=int, help="target product global 4-cycle count")
    d.add_argument("--top", type=int, default=5, help="how many candidates to print")
    _add_obs_args(d)
    d.set_defaults(fn=_cmd_design)

    r = sub.add_parser("report", help="regenerate every paper artifact in one run")
    r.add_argument("--factor", help="factor spec (default: konect-unicode stand-in)")
    r.add_argument("--bins", type=int, default=12, help="log bins for the Fig 5 rendering")
    _add_obs_args(r)
    r.set_defaults(fn=_cmd_report)

    tp = sub.add_parser(
        "top",
        help="live console dashboard over an event log or a served /metrics",
    )
    tp.add_argument(
        "--events",
        metavar="PATH",
        help="JSONL event log to tail (written by --events-out)",
    )
    tp.add_argument(
        "--url",
        metavar="URL",
        help="base URL of a running 'repro serve' to poll (e.g. http://127.0.0.1:8571)",
    )
    tp.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    tp.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing; for scripts/tests)",
    )
    tp.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (default: run until Ctrl-C)",
    )
    tp.set_defaults(fn=_cmd_top)
    return parser


def _run_instrumented(args) -> int:
    """Run one command under a scoped tracer/registry and export the run.

    ``--profile`` prints the human span/metric tree to stderr;
    ``--metrics-out PATH`` writes the JSON run record.  The record is
    written even when the command fails (status is in the root span).
    """
    # Imported here, not at the top: the run record pulls in
    # ``platform`` and ``subprocess``, which no served request needs.
    from repro.obs.record import build_run_record, render_run_record, write_run_record

    with instrument() as (tracer, metrics):
        root = tracer.span(f"cli.{args.command}")
        try:
            with root:
                rc = args.fn(args)
        except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
            _print_error(exc)
            rc = 2
        record = build_run_record(
            f"repro {args.command}",
            tracer=tracer,
            metrics=metrics,
            config={
                k: v for k, v in vars(args).items() if k != "fn" and v is not None
            },
            extra={"exit_code": rc},
        )
    if args.profile:
        render_run_record(record, file=sys.stderr)
    if args.metrics_out:
        write_run_record(record, args.metrics_out)
        print(f"wrote run record to {args.metrics_out}", file=sys.stderr)
    return rc


def _print_error(exc) -> None:
    print(f"error: {exc}", file=sys.stderr)
    print(
        "usage: python -m repro <command> --help  (factor specs: path:N, cycle:N, "
        "star:K, complete:N, biclique:MxN, grid:RxC, pa:N:M[:SEED], konect-unicode, "
        "file:PATH)",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    ``python -m repro`` wraps this in ``sys.exit``, so error paths
    (malformed factor specs included) surface as a clean
    ``SystemExit(2)`` with a usage message — never a raw traceback.
    """
    args = build_parser().parse_args(argv)
    with events_to(getattr(args, "events_out", None)):
        if getattr(args, "profile", False) or getattr(args, "metrics_out", None):
            return _run_instrumented(args)
        try:
            return args.fn(args)
        except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
            _print_error(exc)
            return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
