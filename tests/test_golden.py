"""Golden `--stable` output: the sha256 of stdout for a fixed set of calls.

The digests were captured before the analysis pipeline was reorganised
(one cached cyclic-subgroup pass, one family dispatch, one certificate
checker), so any change to the bytes a user sees fails here.  The
quaternion:64 and quaternion:512 digests were captured while the
quaternion path was still found by a Hamiltonian search; the written-down
path replacing it prints the same bytes from order 16 up.  The specs
reach every constructive branch (degenerate, cyclic, quaternion,
dihedral, semidihedral, class descent on an abelian, a non-abelian and a
product group), the exact search (`analyze cyclic:6`, `lambda cyclic:12
--method exact`), and a scrambled ingested table.  The `file:` spec is
relative to tests/data because `analyze` echoes it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from pglambda.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("analyze cyclic:1 --stable", "192aea29c15a04ab1b24531033404cb28fa5cd7830acabde4e499884e6bb5f4f"),
    ("analyze cyclic:16 --stable", "17587b8a4b5aad9c05d29a6842f96f7835e0f16c6108209ad5736e917b45fc9e"),
    ("analyze quaternion:16 --stable", "87fe4b8f6099f4c864e37c6266a170de21a703b99008392157c06511d09a6c53"),
    ("analyze dihedral:32 --stable", "df133f0085333912ce639f3cac96892f09cf70ab22412dccacc55ca8fbd9ea47"),
    ("analyze semidihedral:32 --stable", "ebdec84037a9fd615734413505a82f6e738904af04f0937e26e28022072fe877"),
    ("analyze elemab:3,2 --stable", "bd0cb9c15b7c27cd199e6a949602b672f870aa7e5a988fe0a160787bc885729e"),
    ("analyze heisenberg:3 --stable", "69a72fd8cc9450758eaa083c2c8df5fbf64a4ca62839422a28f647e39a402187"),
    ("analyze product:cyclic:2,cyclic:8 --stable", "7a5f573dfbc29e1fc6f9ca41354f933743d46356b1ff597633e6a145fe1f6d59"),
    ("lambda cyclic:1 --stable", "2f01b9728a71ef6e50c8e12313a8ec51594da9e6a50cd91900e0e6da1fdad8d4"),
    ("lambda cyclic:16 --stable", "8344d3a7c3131874bce2f4dbe9bfe9e63a0cf6ba94941b89b754238600c039f3"),
    ("lambda quaternion:16 --stable", "0af7d60cacbe9628eb444a7196af50bf907ea93e7237ece4386939d1aa5bf3c9"),
    ("lambda quaternion:64 --stable", "887e3173c83e10098106ffe612cb4e5c0ff5246c891e2c498fb62d34bedb07c5"),
    ("analyze quaternion:512 --stable", "f00fc7c445beafdf4d24e4eb03bb589221693605cec1d6cccda85fc54c3309e3"),
    ("lambda dihedral:32 --stable", "b38ecf15bf572c28662adfacba39a89659bdd7bcf40157e04b3e23181da0c09f"),
    ("lambda semidihedral:32 --stable", "a5cba7be207830bc107cc68e7f08f9f5bb2fed69da4697606926a06e1bdf3ae9"),
    ("lambda elemab:3,2 --stable", "c62ff538a6e5b62f7608706c053d4b3cc067beeec7c39154354b3eaccf489d12"),
    ("lambda heisenberg:3 --stable", "afc95b041d10b1dd7a2b71b43459d5152d9b60810590aa2ae01a7deea1576bc3"),
    ("lambda product:cyclic:2,cyclic:8 --stable", "a33cf8d04a1897a1e77d538b3b9fd6a8d32ae8901c7a546e6fd35e4dffb6e73c"),
    ("analyze cyclic:6 --stable", "f9da5d2701519bbfb71b81f36a0ad072059c2631acefd6f35b221475e240867d"),
    ("lambda cyclic:12 --method exact --stable", "229ab0b24d1bce736b740d88f90e4f8b7b8943e496854d07f704d2f1fb72c072"),
    ("analyze file:semidihedral16-scrambled.txt --stable", "8566f9ec490c60c6d37e76cc09a5a568876b14f16aa8e3e1fb46619c8d707898"),
    ("lambda file:semidihedral16-scrambled.txt --stable", "07763c778eddc20160d23515c00dbd382e92ffc77b0a29449eb6419ca364c8a3"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stable_stdout_is_byte_identical(command, digest, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
