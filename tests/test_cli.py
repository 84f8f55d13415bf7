"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main, parse_factor
from repro.graphs import Graph, is_bipartite, read_edge_list


class TestParseFactor:
    @pytest.mark.parametrize(
        "spec,n,m",
        [
            ("path:5", 5, 4),
            ("cycle:6", 6, 6),
            ("star:4", 5, 4),
            ("complete:4", 4, 6),
            ("grid:2x3", 6, 7),
        ],
    )
    def test_named_families(self, spec, n, m):
        g = parse_factor(spec)
        graph = g.graph if hasattr(g, "graph") else g
        assert (graph.n, graph.m) == (n, m)

    def test_biclique(self):
        bg = parse_factor("biclique:3x4")
        assert bg.m == 12

    def test_pa_with_seed_deterministic(self):
        a = parse_factor("pa:20:2:7")
        b = parse_factor("pa:20:2:7")
        assert a == b

    def test_konect(self):
        bg = parse_factor("konect-unicode")
        assert bg.n == 868

    def test_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\n")
        g = parse_factor(f"file:{p}")
        assert g.m == 2

    @pytest.mark.parametrize("bad", ["nope:3", "path:x", "biclique:3", "grid:ax2"])
    def test_malformed(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_factor(bad)


class TestStatsCommand:
    def test_basic(self, capsys):
        rc = main(["stats", "cycle:5", "path:4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "global 4-cycles : 10" in out
        assert "20 vertices" in out

    def test_check_passes(self, capsys):
        rc = main(["stats", "cycle:3", "path:3", "--check"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_diameter(self, capsys):
        rc = main(["stats", "cycle:5", "path:4", "--diameter"])
        assert rc == 0
        assert "diameter        : 5" in capsys.readouterr().out

    def test_assumption_ii(self, capsys):
        rc = main(["stats", "path:4", "path:5", "--assumption", "ii", "--check"])
        assert rc == 0
        assert "54" in capsys.readouterr().out

    def test_invalid_factor_combination(self, capsys):
        # bipartite A under assumption i -> validation error -> exit 2
        rc = main(["stats", "path:3", "path:4"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_three_specs_are_a_usage_error(self, capsys):
        """Part sizes and the diameter are 2-factor answers."""
        assert main(["stats", "cycle:5", "path:4", "path:3"]) == 2
        assert "2-factor product" in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["generate", "cycle:3", "path:3", "-o", str(out)])
        assert rc == 0
        g = read_edge_list(out)
        from repro.generators import cycle_graph, path_graph
        from tests.shard_referee import kron_graph

        expected = kron_graph([cycle_graph(3), path_graph(3)])
        # read_edge_list infers n from max index; isolated top vertices
        # may be dropped, so compare edges.
        assert sorted(g.edges()) == sorted(expected.edges())

    def test_ground_truth_column(self, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["generate", "cycle:3", "path:3", "--ground-truth", "-o", str(out)])
        assert rc == 0
        from repro.analytics import edge_squares_matrix
        from repro.generators import cycle_graph, path_graph
        from tests.shard_referee import kron_graph

        dia = edge_squares_matrix(kron_graph([cycle_graph(3), path_graph(3)]))
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                continue
            u, v, d = (int(x) for x in line.split())
            assert dia[u, v] == d

    def test_stdout_output(self, capsys):
        rc = main(["generate", "cycle:3", "path:2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# repro kronecker product" in out

    def test_three_factor_chain_with_ground_truth(self, tmp_path):
        """Three specs stream the chain as given, each edge once with its ◇."""
        out = tmp_path / "c.txt"
        rc = main(["generate", "cycle:3", "path:3", "star:2", "--ground-truth", "-o", str(out)])
        assert rc == 0
        from repro.analytics import edge_squares_matrix
        from repro.generators import cycle_graph, path_graph, star_graph
        from tests.shard_referee import kron_graph

        C = kron_graph([cycle_graph(3), path_graph(3), star_graph(2)])
        dia = edge_squares_matrix(C)
        rows = [[int(x) for x in line.split()]
                for line in out.read_text().splitlines() if not line.startswith("#")]
        assert sorted((u, v) for u, v, _ in rows) == sorted(C.edges())
        assert all(dia[u, v] == d for u, v, d in rows)

    @pytest.mark.parametrize("argv", [["cycle:3"], ["cycle:3", "path:3", "star:2", "--assumption", "ii"]])
    def test_factor_list_usage_errors(self, argv, capsys):
        assert main(["generate", *argv]) == 2
        assert "error" in capsys.readouterr().err


class TestArtifactCommands:
    def test_table1_custom_factor(self, capsys):
        rc = main(["table1", "--factor", "biclique:3x4"])
        assert rc == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig5_custom_factor(self, capsys):
        rc = main(["fig5", "--factor", "biclique:3x4", "--bins", "5"])
        assert rc == 0
        assert "Fig 5" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--backend", "numpy"],
        ["serve", "--artifact", "art", "--backend", "numpy"],
        ["generate", "complete:3", "path:4", "--backend", "numpy"],
        ["shards", "complete:3", "path:4", "--out-dir", "d", "--backend", "numpy"],
        ["stats", "complete:3", "path:4", "--backend", "numpy"],
        ["pack", "complete:3", "path:4", "-o", "art", "--backend", "numpy"],
    ],
    ids=lambda argv: argv[0],
)
def test_backend_flag_is_gone(argv, capsys):
    """There is one kernel path, so no subcommand takes ``--backend``."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend numpy" in capsys.readouterr().err
