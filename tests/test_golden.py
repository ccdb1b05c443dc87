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
relative to tests/data because `analyze` echoes it; so is the witness
CSV that `check` reads.  Every exact
certificate, `analyze cyclic:6` included, was captured again when the
exact search came to order twin modules and to name the floor that
refutes λ − 1.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from pglambda import Graph, exact_lambda
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
    ("analyze cyclic:6 --stable", "9c501390cf3a686926727355eb903735418212ef078787d3034cabb5d03d8b0c"),
    ("lambda cyclic:12 --method exact --stable", "a7f419c995fb7e917e18fdfb7099e31cddea8a537e68cf51c242ca9faf4a9b95"),
    ("analyze file:semidihedral16-scrambled.txt --stable", "8566f9ec490c60c6d37e76cc09a5a568876b14f16aa8e3e1fb46619c8d707898"),
    ("lambda file:semidihedral16-scrambled.txt --stable", "07763c778eddc20160d23515c00dbd382e92ffc77b0a29449eb6419ca364c8a3"),
]


# `lambda SPEC --method exact --stable` for every other catalogue group of
# order ≤ 32.
GOLDEN += [
    ("lambda cyclic:2 --method exact --stable",
     "69f1b1e59e59edcc91a88d9911829b56c8d33e4d110974df0fc622af718b5aa9"),
    ("lambda cyclic:3 --method exact --stable",
     "9d81ddbeeea4f2fa4d3ff19678f54d2d270309112e3b538b1ef31cede2bb298e"),
    ("lambda cyclic:4 --method exact --stable",
     "d4fc6b69ca7dd455e5a6ce9e8940b429824aaa45bd9ec770713498b722d3056e"),
    ("lambda elemab:2,2 --method exact --stable",
     "1895efd1e65d6ba9c04961c5487936e714375a99107468616c3b2f46879ad376"),
    ("lambda cyclic:5 --method exact --stable",
     "124688098f5c9b8cfe5cc87aad499c53d4a559cb284079efd6fdb1a0654bedb0"),
    ("lambda cyclic:6 --method exact --stable",
     "503dd9578b062fd229978994146def44e96a036f3a8c7e93fe688f498dcb4416"),
    ("lambda cyclic:7 --method exact --stable",
     "5fefab9d173a67f3a402be60dda5b32cb91e180becf2d53198b3c74c58b19f82"),
    ("lambda cyclic:8 --method exact --stable",
     "1332a75b32f1c2d314625286b87c54b72bfccd90eb178cccff6b0ffe86b3246f"),
    ("lambda dihedral:8 --method exact --stable",
     "bc65e9c9e4bdeee51fc2ea2ddc00688ed943aea73d9e23845eb189646f955b90"),
    ("lambda elemab:2,3 --method exact --stable",
     "4d44c73c2703f5a568e116a13d41f7ecdc105f5d7cd3fdc907303a54e868f050"),
    ("lambda product:cyclic:2,cyclic:4 --method exact --stable",
     "c4638271aba9450124670747f33cc01ebfc6e09b36f4f1d83c0d5e1891b6cd79"),
    ("lambda quaternion:8 --method exact --stable",
     "b8401fac6a41de0d9801f3dce9c47205d1c8c5fe939cebb0f4e616f3bc819d53"),
    ("lambda cyclic:9 --method exact --stable",
     "f0d7743aad89bf426fa3caf11975ae79479c0bb8a19ac1252c19c6c66279f19c"),
    ("lambda elemab:3,2 --method exact --stable",
     "31bcc898a454c4b9f4ab7f15888abe96b6e86feec86b1cfcba07fe3381f81501"),
    ("lambda cyclic:10 --method exact --stable",
     "d3bca64daed2675de675b2122ab2f30a22eefa1bf64339cb616db71b4d3574e7"),
    ("lambda cyclic:11 --method exact --stable",
     "3d846971ccdf5e2b37c13bf63dd2a5dae4a659627f49b31e2b73326156380a95"),
    ("lambda product:cyclic:2,cyclic:6 --method exact --stable",
     "7e0f86fc6f9d1e3a7a5ae059793514957881745230c132b48e79474bf35fbc91"),
    ("lambda cyclic:13 --method exact --stable",
     "b4bc4a7321a916efc5ac571c5b90bea41027e2013c02f603f4eb5bae2c6d5dfa"),
    ("lambda cyclic:15 --method exact --stable",
     "7f2a0b15fa991c5c96b2bb4d91ff154e3a2c76fbec8f7a6febd9dbd37987bf39"),
    ("lambda cyclic:16 --method exact --stable",
     "c8586da6a8d13fbad2e9d7a889e0e76ce9e6a95301340e1b8b5f3c93c4007b8f"),
    ("lambda dihedral:16 --method exact --stable",
     "f91cc3a3878b0c690eea6e335528b2f3ff63a0033ca30a06bac50637d03f73b9"),
    ("lambda elemab:2,4 --method exact --stable",
     "a4da388625a7586b4f40414a33d740046e0c6f6204998fd166f1b1981a6b8d7a"),
    ("lambda product:cyclic:2,cyclic:8 --method exact --stable",
     "4660f832ebcbced83bfc07327a241f63349a1021486dd71b3f8611c29e757486"),
    ("lambda product:cyclic:4,cyclic:4 --method exact --stable",
     "bacc7a9f466378fe9cce1976fdf46aa1d27c64c6d31461830a21b33122f1b6c3"),
    ("lambda quaternion:16 --method exact --stable",
     "5bb34a339f9cfd65af7da13de1d09955cd0d411a8327c2d48d959ef0bf7ab26f"),
    ("lambda semidihedral:16 --method exact --stable",
     "85b48802810a1ada7f6a76c59d6e78cb59eadeea14628af56257c5586a4f7c73"),
    ("lambda cyclic:25 --method exact --stable",
     "80b26886b66cafeac3788b1942bc40b76c888585c22c6f1fa82879ba3d55dd16"),
    ("lambda elemab:5,2 --method exact --stable",
     "ae7bc6ef818a27fc06a3de4fecd391d93f0b0693252bd0ee99121a7d69895280"),
    ("lambda cyclic:27 --method exact --stable",
     "36038bcf08acbb3e255597c999d28fbafe1940b3853a7ca8039218fff2b3ea93"),
    ("lambda elemab:3,3 --method exact --stable",
     "7f0a9ca46b45f9477dc39f58c9a80d950584767acfff9a5a09421ba01e5e040b"),
    ("lambda heisenberg:3 --method exact --stable",
     "1c286af10003e2524360d35dad462eb00e92a16170d9ce70d326c110908f1294"),
    ("lambda product:cyclic:3,cyclic:9 --method exact --stable",
     "af4c955dec86826088c4b2e875772fa52d5e8ecced74f408ebae4e14b1216347"),
    ("lambda cyclic:32 --method exact --stable",
     "2ac2cad86d6f536ceb735d1a87a710b8a73c3821a2800f44d34f479fe9767b5a"),
    ("lambda dihedral:32 --method exact --stable",
     "162eb852e343de5e076b522200481df27687e12a3bcaf45de9982d3c239a6030"),
    ("lambda elemab:2,5 --method exact --stable",
     "fc6eba24e2be2e7b70720bddf91f3adf8bd09f5a3fd47d9a9b0907e0cff28fe2"),
    ("lambda product:cyclic:2,cyclic:16 --method exact --stable",
     "3ec9dffb421cedec784e85bd782e1728dfb46485524ce3f2d95e68478f861d56"),
    ("lambda product:cyclic:4,cyclic:8 --method exact --stable",
     "8d148ffc84b15616496cb2b22a2ac7d5817b8a413ac2051b25b28e5aa431a673"),
    ("lambda quaternion:32 --method exact --stable",
     "6ddb313e7bf3bbfec720868a0c580649e3d7f7eaceb6783d7d3c8e22248ddbf3"),
    ("lambda semidihedral:32 --method exact --stable",
     "e79fd8bb0cc77518580ba0a9ffd67f4a18ad68a07b4375ae9de2a72137a211f3"),
]


# `lambda SPEC --method exact --search-cap 512 --stable` on the p-groups of
# order 64–512 that the benchmark cross-checks, and on the other order-512
# families.
GOLDEN += [
    ("lambda cyclic:64 --method exact --search-cap 512 --stable",
     "b4887ae835cbba0a86da9aeac034eb01f6038de9b856c803d12e275352704f21"),
    ("lambda quaternion:64 --method exact --search-cap 512 --stable",
     "5b4db4086a34a3281f90f3aa4cc0cc92a697a2f97e56c08a7a4dbc7587b5d601"),
    ("lambda heisenberg:5 --method exact --search-cap 512 --stable",
     "dc1d4fc0659554b078fd417d792858eff0200e0a1460a4fd985596ea175f79e3"),
    ("lambda semidihedral:128 --method exact --search-cap 512 --stable",
     "ecd8409c1653a69152b69739b39b61da7adcf6707cb94158dcf4aeb280ecc82e"),
    ("lambda dihedral:256 --method exact --search-cap 512 --stable",
     "953cd29573bcebd7733e7492edb66e6be9ad0490e40cc9921f64e4eea2fa4e92"),
    ("lambda quaternion:256 --method exact --search-cap 512 --stable",
     "f6c2c3de190b27b42ef4dea0cd4ef55667831e3816f8438fefe0711df91fec3d"),
    ("lambda elemab:3,5 --method exact --search-cap 512 --stable",
     "021db66cadb39d039b76d2a5c9f30904bc38479eb2efab739ff0910b4491dfe9"),
    ("lambda heisenberg:7 --method exact --search-cap 512 --stable",
     "6329b0f04cba00c642af048aaece1a8ab34561e1aa9f47d4e013ebc8f916adc3"),
    ("lambda cyclic:512 --method exact --search-cap 512 --stable",
     "c4fa7941e60e4f43e20b0ba753c9fcbe266345b300dd4fc05db56fdba1ae45d9"),
    ("lambda elemab:2,9 --method exact --search-cap 512 --stable",
     "272e8db516bd7c17923abb3da02bccfdadce49adb03d1380eb29a8b47d65f866"),
    ("lambda dihedral:512 --method exact --search-cap 512 --stable",
     "18cfe9c7db2ca1a664a70f537ea2ab14d1bc12bb661307222d02ca9ac208b958"),
    ("lambda semidihedral:512 --method exact --search-cap 512 --stable",
     "87990736d5f1e7ffe823037689e211244016b2d4dd2a2775183f10543aeab105"),
    ("lambda quaternion:512 --method exact --search-cap 512 --stable",
     "120aad7ffc544cb0f40c5b06c6f4e9de35e93451dfd3fa0432e11f0ecc595437"),
    ("lambda product:cyclic:16,cyclic:32 --method exact --search-cap 512 --stable",
     "3c6d4b51796466b8f53b36ffb02344db918adba8a548010cfccea3f586a17ad9"),
]


# `suite`, `check` and `export`: the JSON and `--pretty` suite reports, a
# check of the witness `lambda cyclic:8 --witness-csv` writes, and each
# export format.
GOLDEN += [
    ("suite --max-order 32 --stable",
     "3fad32f5863664ab159be345c39da694b2f469332bcaedec04168ed584761eba"),
    ("suite --max-order 8 --pretty",
     "61fe4101bd9b827611f34710433f7e1fc78506a6f2f65bce7a2687afc6cebf11"),
    ("check cyclic:8 cyclic8-witness.csv --stable",
     "06ead4eae00d890e0bf9359c8d220a5d74a9da77070d32a6b9111a77d41e1815"),
    ("export dihedral:16 --format dot",
     "e7b53d467dc69d3a351f639635cf55fd1ea2db02110306a4f8217e2946a0b7e4"),
    ("export dihedral:16 --format edges",
     "b6dfcd1a9f95ed57f239aae63c1346781ea9e040d1a5f6a6fe11506c8e76d1d3"),
    ("export dihedral:16 --format cayley",
     "d450f6f484d802cbc6e3ad10bdc64e8547850fed32540f4ccce8a85e0d2136b0"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stable_stdout_is_byte_identical(command, digest, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _random_graph(rng: random.Random) -> Graph:
    """A graph on 1–10 vertices of diameter at most 2: a random base graph
    on the first k, then each further vertex but the last an open twin or
    a closed twin of an earlier one, the last universal, and the vertices
    shuffled."""
    n = rng.randint(1, 10)
    k = rng.randint(1, n)
    p = rng.random()
    nb = [0] * n
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < p:
                nb[u] |= 1 << v
                nb[v] |= 1 << u
    for v in range(k, n - 1):
        closed = rng.randrange(2)
        w = rng.randrange(v)
        nb[v] = nb[w]
        for x in range(n):
            if nb[w] >> x & 1:
                nb[x] |= 1 << v
        if closed:
            nb[v] |= 1 << w
            nb[w] |= 1 << v
    last = n - 1
    for x in range(last):
        nb[x] |= 1 << last
    nb[last] = (1 << last) - 1
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v in range(n):
        for x in range(n):
            if nb[v] >> x & 1:
                out[perm[v]] |= 1 << perm[x]
    return Graph(n, out)


def test_exact_certificates_on_random_graphs_are_unchanged():
    # One sha256 over (value, witness, evidence) of exact_lambda on 2,000
    # seeded random graphs of diameter at most 2.
    rng = random.Random(20240601)
    digest = hashlib.sha256()
    for _ in range(2000):
        cert = exact_lambda(_random_graph(rng))
        digest.update(repr((cert.value, cert.witness, cert.evidence)).encode())
    assert digest.hexdigest() == (
        "77bd48dfaa943269129efa90a567ae3b79d13ef2030ff6d0c9af6f8667f2806a")
