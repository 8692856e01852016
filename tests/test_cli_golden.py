"""CLI output bytes pinned across versions.

Each command's stdout is pinned by its sha256, so a change that alters any
byte of the output fails here, not only a change that makes reruns differ.
Commands whose output passes through math.log (growth3d, growth_hd,
nt --check) are left out, so the digests do not depend on the platform's
libm. After an intended output change, re-pin a command with the digest
its failing assertion reports.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from gridcross.cli import main

GRAPHS = {
    "layered-k4": ["gen", "--kind", "bipartite", "--k", "4", "--dim", "3"],
    "random-5x5x2": ["gen", "--kind", "random", "--sides", "5x5x2", "--edges", "20",
                     "--seed", "7"],
    # two crossing edges with gcd-2 steps: no essential-pgrid certificate
    "non-primitive": '{"dim":2,"vertices":[[0,0],[4,6],[0,6],[4,0]],"edges":[[0,1],[2,3]]}',
}

GOLDEN = [
    (["gen", "--kind", "bipartite", "--k", "3", "--dim", "3"],
     "8695ce7c41bcecb8448b0ddbe8f1208312c6e935f8d318b9c8f8d63cabbf2f8e"),
    (["gen", "--kind", "tiled", "--k", "2", "--side", "4", "--dim", "3"],
     "a7c36d1e85d0160f7cba9f798da669329517dac92cc62ae3867fd88c45f1af3b"),
    (["gen", "--kind", "random", "--sides", "5x5", "--edges", "14", "--seed", "7"],
     "5a0b239ddc74b04ac4237b4facbc7feeff78426bb3e60fcc6b8800e9387aea8e"),
    (["cross", "{layered-k4}", "--method", "pruned"],
     "6e617782e901503a2e3ebdcfc9db2499d38e303ab77aa28085cf7c3f5b12ceb9"),
    (["cross", "{layered-k4}", "--method", "naive"],
     "d3ea8484b53acebcbdd93b2caf398c21ea1ec9180e596d41ece1236968a053e2"),
    (["cross", "{layered-k4}", "--method", "all-certificates"],
     "9e19ffc7c851dde8cb00254aa372405bc9748806a1a8f197854b37ffceded16a"),
    (["cross", "{random-5x5x2}", "--method", "pruned"],
     "c022c344efcbe31121dd4bdbc5b5dec651b49d6f25834e397d1ea5964a4409ca"),
    (["cross", "{random-5x5x2}", "--method", "naive"],
     "c13f104dc721a5ac0c3f8e4ab16c2e29963d004813212fdc4e25cdab21dc0c0d"),
    (["cross", "{random-5x5x2}", "--method", "all-certificates"],
     "eee946631865847f63e443428233eafb1f38c30e0cd792bd0260c7b9ed28a6e6"),
    (["enum", "--sides", "2x2x2"],
     "808bef8600e1ec70c6708b2604ac691bcd5632986feee826f19c4b2bbecd4131"),
    (["enum", "--sides", "3x3"],
     "b2ad8b7cacb1d7eb0b8565b7912b1efe422685bab4b1c4ad337d3beca6b1b9a9"),
    (["enum", "--sides", "1"],  # volume 1: no ncs_upper key
     "5b6862b0d04696bb6d4c9cbc79bd3abade98a680d38595236b582733fd44773a"),
    (["enum", "--sides", "2x5"],  # volume above the tree cap: no spanning_trees key
     "5be86dd6e893775fca6e879fbbdf50e5129e096cc3da03fddcdc1e790948c537"),
    (["cross", "{non-primitive}", "--method", "all-certificates"],  # essential-pgrid null
     "6c7946f9686af535ab8089ba14d1b60a42f1a675d5cf644d7d5584c2e18fdf4e"),
    (["nt", "--n-max", "300"],
     "d65279c042b1ab55a6680c39d7d5bdeed482f5731a63c3b82c477918a972d6e9"),
    (["experiment", "--kind", "totients", "--n-max", "60"],
     "8b582fc6da595646180bfd8886bd7bf0a16dc74e8335a6b61a5feac61b4999f2"),
    (["experiment", "--kind", "totients", "--n-max", "60", "--format", "json"],
     "b1a3dbdef8ee11755baffdb364b3a6e0cdae7e351df4c58d95921d42354c4815"),
    (["experiment", "--kind", "certificates", "--sides", "4x4,2x2x2,3x3x2", "--edges", "9",
      "--seeds", "5,6,7"],
     "cf7669533a530666f837bdddaab0780f5936585eca6550ca03b67db5c3ee0050"),
    (["experiment", "--kind", "enumeration", "--sides", "2x2,1x3,3x3,2x2x2"],
     "d898727a317a8b0f925ac290f1010d14f8a0218ad341777cfaa30b422cdf6812"),
]


def _stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def graph_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, spec in GRAPHS.items():
        path = root / f"{name}.json"
        path.write_bytes(spec.encode("utf-8") if isinstance(spec, str) else _stdout(spec))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_stdout_matches_pinned_digest(argv, digest, graph_paths):
    argv = [graph_paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    assert hashlib.sha256(_stdout(argv)).hexdigest() == digest
