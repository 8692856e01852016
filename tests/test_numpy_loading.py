"""numpy is an import of the array layers, not of the package: importing
gridcross, generating the layered and tiled drawings and naive counting
leave it unloaded, and the kernel, the bucket certificates, the candidate
table and the totient sieve load it on first use. Each case runs in a fresh interpreter,
since pytest has loaded numpy in this one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridcross import layered_complete_bipartite, serialize_graph

SRC = Path(__file__).resolve().parent.parent / "src"
DRAWING = "from gridcross import layered_complete_bipartite; g = layered_complete_bipartite(2, 3)\n"


def numpy_loaded(code):
    """Whether numpy is in sys.modules after `code` runs in a fresh interpreter."""
    probe = code + "\nimport sys; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def cli(*argv):
    return f"from gridcross.cli import main\nassert main({list(argv)!r}) == 0\n"


@pytest.mark.parametrize("code", [
    "import gridcross\n",
    cli("gen", "--kind", "bipartite", "--k", "2", "--dim", "3"),
    cli("gen", "--kind", "tiled", "--k", "2", "--side", "4", "--dim", "3"),
], ids=["import", "gen-bipartite", "gen-tiled"])
def test_numpy_free_entry_points_leave_numpy_unloaded(code):
    assert not numpy_loaded(code)


def test_naive_cross_leaves_numpy_unloaded(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(layered_complete_bipartite(2, 3)))
    assert not numpy_loaded(cli("cross", str(path), "--method", "naive"))


@pytest.mark.parametrize("code", [
    DRAWING + "from gridcross import count_crossings_pruned; count_crossings_pruned(g)\n",
    DRAWING + "from gridcross import certify, lower_bound_essential_pgrid\n"
              "certify(g); lower_bound_essential_pgrid(g)\n",
    "from gridcross import build_conflict_graph; build_conflict_graph((2, 2))\n",
    "from gridcross import random_proper_graph; random_proper_graph((3, 3), 4, 1)\n",
    "from gridcross import totient_sieve; totient_sieve(10)\n",
], ids=["pruned", "certificates", "conflict-graph", "random-graph", "sieve"])
def test_array_layers_load_numpy(code):
    assert numpy_loaded(code)
