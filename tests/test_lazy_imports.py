"""Lazy package re-exports: what ``repro serve`` loads, and that the
public surface of every package is unchanged."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

PACKAGES = [
    "repro",
    "repro.analytics",
    "repro.experiments",
    "repro.generators",
    "repro.graphs",
    "repro.kronecker",
    "repro.obs",
    "repro.parallel",
    "repro.refcheck",
    "repro.serve",
    "repro.utils",
]

#: Modules the serving stack never runs; the boot must not import them.
#: A loaded oracle reads its chain's factor tables (numpy arrays), so the
#: graph model, the analytics counters, the printed-form referee
#: (``repro.refcheck``) and scipy stay out too.
NOT_SERVED = (
    "repro.generators",
    "repro.graphs",
    "repro.analytics",
    "repro.parallel.generate",
    "repro.refcheck",
    "repro.experiments",
    "repro.validation",
    "scipy",
)


#: Stdlib modules no serving process needs -- the HTTP/TLS/email stack
#: behind ``http.server``, what the run record uses, and ``hashlib``,
#: whose ``_hashlib`` maps OpenSSL's libcrypto (artifact checksums use
#: CPython's builtin SHA-256) -- plus the run record itself.  numpy 2
#: imports ``platform`` on its own (``numpy.lib._utils_impl``), so the
#: guard counts only what the serving stack loads beyond a bare
#: ``import numpy``.
NOT_BOOTED = (
    "http.server",
    "http.client",
    "email",
    "ssl",
    "socketserver",
    "mimetypes",
    "platform",
    "subprocess",
    "hashlib",
    "_hashlib",
    "repro.obs.record",
)


def _not_booted(loaded: list[str]) -> list[str]:
    """The :data:`NOT_BOOTED` modules (or submodules) in ``loaded`` that
    a bare ``import numpy`` does not load."""
    numpy_only = set(_run("import json, sys\nimport numpy\nprint(json.dumps(sorted(sys.modules)))\n"))
    prefixes = tuple(name + "." for name in NOT_BOOTED)
    return sorted(
        m for m in set(loaded) - numpy_only if m in NOT_BOOTED or m.startswith(prefixes)
    )


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON line."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_serve_boot_loads_only_the_serving_stack():
    loaded = _run(
        "import json, sys\n"
        "import repro.cli, repro.serve.prefork\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.serve.prefork" in loaded and "repro.kronecker.oracle" in loaded
    unwanted = [m for m in loaded if m.startswith(NOT_SERVED)]
    assert not unwanted, unwanted
    stdlib = _not_booted(loaded)
    assert not stdlib, stdlib


#: One request per HTTP endpoint (a 400 and a 404 among them) and the
#: statuses they answer, pipelined on one keep-alive connection.
_HTTP_PROBES = (
    ("GET /healthz", b"", 200),
    ("GET /metrics", b"", 200),
    ("GET /metrics?format=prometheus", b"", 200),
    ("GET /v1/global", b"", 200),
    ("POST /v1/degree", b'{"ps": [0, 1]}', 200),
    ("POST /v1/squares/vertex", b'{"ps": [0, 1]}', 200),
    ("POST /v1/squares/edge", b'{"ps": [0], "qs": [7]}', 200),
    ("POST /v1/wings", b'{"ps": [0], "qs": [7]}', 200),
    ("POST /v1/clustering", b'{"ps": [0], "qs": [7]}', 200),
    ("POST /v1/degree", b"{not json", 400),
    ("GET /v1/nonsense", b"", 404),
)


def test_answering_every_kind_imports_nothing_new(tmp_path):
    """Everything a query needs is imported before the workers fork: no
    wire kind and no HTTP endpoint imports a module, and none loads
    scipy or the stdlib HTTP stack."""
    art = tmp_path / "art"
    subprocess.run(
        [sys.executable, "-m", "repro", "pack", "complete:3", "biclique:2x3", "-o", str(art)],
        env=ENV,
        capture_output=True,
        check=True,
        timeout=120,
    )
    http_requests = b"".join(
        f"{line} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        for line, body, _ in _HTTP_PROBES
    )
    result = _run(
        "import io, json, re, socket, sys\n"
        "import repro.cli, repro.serve.prefork\n"
        "from repro.serve import wire\n"
        "from repro.serve.artifact import load_oracle\n"
        "from repro.serve.http import HandlerContext\n"
        "from repro.serve.prefork import PreforkServer, _WorkerProcess\n"
        "from repro.serve.service import OracleService\n"
        f"svc = OracleService(load_oracle({str(art)!r}, mmap=True))\n"
        f"worker = _WorkerProcess(PreforkServer({str(art)!r}), 0, False)\n"
        "worker.service, worker.ctx = svc, HandlerContext(svc)\n"
        "def serve(payload):\n"
        "    # One connection through the worker's sniff and loop; the\n"
        "    # answers wait in the socket buffer until the loop sees EOF.\n"
        "    with socket.create_server(('127.0.0.1', 0)) as listener:\n"
        "        client = socket.create_connection(listener.getsockname())\n"
        "        conn, _ = listener.accept()\n"
        "    with client:\n"
        "        client.sendall(payload)\n"
        "        client.shutdown(socket.SHUT_WR)\n"
        "        worker._serve_connection(conn)\n"
        "        with client.makefile('rb') as rfile:\n"
        "            return rfile.read()\n"
        "frames = [wire.encode_request(k, [0, 1]) for k in ('degree', 'vertex_squares')]\n"
        "frames += [wire.encode_request(k, [0, 1], [7, 8]) for k in wire.PAIR_KINDS]\n"
        "frames.append(wire.encode_request('global'))\n"
        "serve(b'')  # the client's own imports (create_connection loads the idna codec)\n"
        "before = set(sys.modules)\n"
        "wire_out = serve(b''.join(frames))\n"
        f"http_out = serve({http_requests!r})\n"
        "svc.oracle.max_wing_bound()\n"
        "new = sorted(set(sys.modules) - before)\n"
        "stream = io.BytesIO(wire_out)\n"
        "answers = [wire.read_response(stream) for _ in frames]  # raises on an error frame\n"
        "print(json.dumps({\n"
        "    'new': new,\n"
        "    'loaded': sorted(sys.modules),\n"
        "    'wire': stream.read() == b'',\n"
        "    'http': [int(s) for s in re.findall(rb'HTTP/1\\.1 (\\d+) [^\\r]*\\r\\n', http_out)],\n"
        "}))\n"
    )
    assert result["wire"], "the wire answers did not end where the last frame did"
    assert result["http"] == [status for _, _, status in _HTTP_PROBES]
    assert result["new"] == []
    assert not [m for m in result["loaded"] if m.startswith("scipy")]
    stdlib = _not_booted(result["loaded"])
    assert not stdlib, stdlib


def _scipy_modules(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_ground_truth_shards_never_load_scipy(tmp_path):
    """Generating with ground truth reads factor CSR arrays and numpy
    walk tables only: neither the library call nor the CLI, with two or
    with more factors, loads scipy."""
    library = _run(
        "import json, sys\n"
        "from repro.generators import preferential_attachment\n"
        "from repro.kronecker.multifactor import KroneckerChain\n"
        "from repro.parallel import generate_chain_shards\n"
        "chain = KroneckerChain.from_graphs(\n"
        "    [preferential_attachment(16, 2, seed=11 + t) for t in range(3)])\n"
        f"paths = generate_chain_shards(chain, {str(tmp_path / 'lib')!r}, n_shards=4,\n"
        "                               n_workers=2, ground_truth=True)\n"
        "print(json.dumps({'shards': len(paths), 'loaded': sorted(sys.modules)}))\n"
    )
    assert library["shards"] == 4
    assert not _scipy_modules(library["loaded"])
    runs = [
        ["pa:64:2", "biclique:3x4"],
        ["konect-unicode", "konect-unicode", "--assumption", "ii", "--allow-disconnected"],
    ]
    argvs = [
        ["shards", *specs, "--ground-truth", "-o", str(tmp_path / f"cli{k}")]
        for k, specs in enumerate(runs)
    ]
    cli = _run(
        "import json, sys\n"
        "from repro.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(json.dumps({'codes': codes, 'loaded': sorted(sys.modules)}))\n"
    )
    assert cli["codes"] == [0, 0]
    assert not _scipy_modules(cli["loaded"])
    shutil.rmtree(tmp_path)  # the unicode product's shards are ~200 MB


def test_derived_graphs_never_load_scipy():
    """Loop removal, subgraphs and relabelling remap entry keys in numpy,
    so the degeneracy of a looped graph and a bipartite graph's
    canonical relabelling load no scipy."""
    result = _run(
        "import json, sys\n"
        "from repro.generators.classic import cycle_graph\n"
        "from repro.graphs.degeneracy import degeneracy\n"
        "from repro.generators import konect_unicode_like\n"
        "looped = cycle_graph(5).with_all_self_loops()\n"
        "sub = looped.subgraph([0, 1, 2])\n"
        "print(json.dumps({'degeneracy': degeneracy(looped), 'sub_m': sub.m,\n"
        "                  'canonical_n': konect_unicode_like().canonical()[0].n,\n"
        "                  'loaded': sorted(sys.modules)}))\n"
    )
    assert result["degeneracy"] == 2
    assert result["sub_m"] == 5
    assert result["canonical_n"] == 868
    assert not _scipy_modules(result["loaded"])


def test_direct_counter_never_loads_scipy():
    """The direct 4-cycle counter reads the numpy walk tables, so vertex,
    closed-walk and global counts load no scipy."""
    result = _run(
        "import json, sys\n"
        "from repro.analytics import global_squares, vertex_squares_matrix\n"
        "from repro.analytics.fourcycles import closed_walks4\n"
        "from repro.generators import preferential_attachment\n"
        "g = preferential_attachment(200, 3, seed=0)\n"
        "s = vertex_squares_matrix(g)\n"
        "print(json.dumps({'ok': bool((2 * s <= closed_walks4(g)).all()),\n"
        "                  'global': global_squares(g), 'sum': int(s.sum()),\n"
        "                  'loaded': sorted(sys.modules)}))\n"
    )
    assert result["ok"]
    assert 4 * result["global"] == result["sum"] > 0
    assert not _scipy_modules(result["loaded"])


def test_shadowed_names_stay_functions_after_their_submodules_import():
    """``graphs.degeneracy``, ``generators.rmat`` and
    ``analytics.projection`` name both a submodule and a function in it;
    importing the submodule must not rebind the package attribute."""
    kinds = _run(
        "import json\n"
        "import repro.graphs.degeneracy, repro.generators.rmat, repro.analytics.projection\n"
        "from repro.graphs import degeneracy\n"
        "from repro.generators import rmat\n"
        "from repro.analytics import projection\n"
        "print(json.dumps([type(f).__name__ for f in (degeneracy, rmat, projection)]))\n"
    )
    assert kinds == ["function"] * 3


@pytest.mark.parametrize("name", PACKAGES)
def test_public_names_resolve_and_are_listed(name):
    pkg = importlib.import_module(name)
    listed = dir(pkg)
    missing = [n for n in pkg.__all__ if n not in listed]
    assert not missing, missing
    for public in pkg.__all__:
        assert getattr(pkg, public) is not None, public
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(pkg, "no_such_name")


def test_kronecker_star_import_exports_its_surface():
    import repro.kronecker as kronecker

    namespace: dict = {}
    exec("from repro.kronecker import *", namespace)
    assert {n: namespace[n] for n in kronecker.__all__} == {
        n: getattr(kronecker, n) for n in kronecker.__all__
    }
