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
    ("analyze cyclic:6 --stable", "f9da5d2701519bbfb71b81f36a0ad072059c2631acefd6f35b221475e240867d"),
    ("lambda cyclic:12 --method exact --stable", "229ab0b24d1bce736b740d88f90e4f8b7b8943e496854d07f704d2f1fb72c072"),
    ("analyze file:semidihedral16-scrambled.txt --stable", "8566f9ec490c60c6d37e76cc09a5a568876b14f16aa8e3e1fb46619c8d707898"),
    ("lambda file:semidihedral16-scrambled.txt --stable", "07763c778eddc20160d23515c00dbd382e92ffc77b0a29449eb6419ca364c8a3"),
]


# `lambda SPEC --method exact --stable` for every other catalogue group of
# order ≤ 32, captured before the exact oracle started from its path-cover
# floor, which must leave every witness and evidence record unchanged.
GOLDEN += [
    ("lambda cyclic:2 --method exact --stable",
     "3cacb9d6b9639fa3ce60b66e7f3b4fcf993d9b139a1ebad0315f776a198fc5c7"),
    ("lambda cyclic:3 --method exact --stable",
     "d1a3c8c454b21dc662a26a82345b65c7b27209e8b04184a95cd043d3aa686397"),
    ("lambda cyclic:4 --method exact --stable",
     "18f85822475ee8a39e51b77b13e3a5a3ae0681b8835354bfa7433be6b3799d99"),
    ("lambda elemab:2,2 --method exact --stable",
     "97fe6b1a9735314ee0524dd7b99bd5fa25fd6b4b22d8c52508e42fd214c7c72a"),
    ("lambda cyclic:5 --method exact --stable",
     "df34701194aa78924b264db507588da4785417a6432630e0efe1dd420fccb3f4"),
    ("lambda cyclic:6 --method exact --stable",
     "299252ffc8b2ba69b68ba5d0417d934c5a5490b06ff90bbd7d5970804f065c85"),
    ("lambda cyclic:7 --method exact --stable",
     "e12d372b3ce08a45ed716d444eed0efb41f50a4a592e4c83281371b71b45ea25"),
    ("lambda cyclic:8 --method exact --stable",
     "5b0547b8e585839f860a352c3f06043972f47f44338dff14915b2eecf960ac7f"),
    ("lambda dihedral:8 --method exact --stable",
     "8200221cc782e01315ffd972cde10255a2d1a7e02438e2bf60da910e1b97c426"),
    ("lambda elemab:2,3 --method exact --stable",
     "7f07dd61e4aee3e219c94c40511e4ed9312a6c504578c17e47e5ef55b4b75825"),
    ("lambda product:cyclic:2,cyclic:4 --method exact --stable",
     "89d2648bb3f4e74b37db7c42f01554005fc304b78ca6d19e8d34814216044426"),
    ("lambda quaternion:8 --method exact --stable",
     "5117690f35927e6f738e5f9ad1409ffede1d2cede2ac0baa5c92fc926b18ee22"),
    ("lambda cyclic:9 --method exact --stable",
     "b968cd57c2b5e2390bf5004c7f675159f8b0809c530c84c0c00ea961566c161e"),
    ("lambda elemab:3,2 --method exact --stable",
     "cd7c05866a0296b5507fd5afe4ddea63e62dc55cc2c9b2979d0a3601942cb6aa"),
    ("lambda cyclic:10 --method exact --stable",
     "2f5632afe0886d41fc3d36080cd41e397b21452634160a640d5aceb298c5fa83"),
    ("lambda cyclic:11 --method exact --stable",
     "368b9924784a7a17e0739c6d2dcef299f1d929ad528bf25d5f3db1cb8ae205ab"),
    ("lambda product:cyclic:2,cyclic:6 --method exact --stable",
     "18e632a79a7d38adb9e3b953043db4cf561aeeacdf368f6890953fc6d10edb39"),
    ("lambda cyclic:13 --method exact --stable",
     "aad9dce33b5b1b960b6a5c819e079eb742379050fb77b1c6fd1c62e937ab6791"),
    ("lambda cyclic:15 --method exact --stable",
     "2dbab1a86c25a470901d045a9682d8c4909be9c21f9904c2d6afd9da934ebfde"),
    ("lambda cyclic:16 --method exact --stable",
     "9b6dfb5b419966e79d23f56f8bb6d4d83608d86cd7e314ec604130f67fd9b66c"),
    ("lambda dihedral:16 --method exact --stable",
     "83cd0fc5f2cf9346140551f8c037da583ac6616d8dbe0022606dd9f0cf1bafa9"),
    ("lambda elemab:2,4 --method exact --stable",
     "7661a866cfecbedc2c77840e4408650773d24350c0ce93e976e6ac8430590645"),
    ("lambda product:cyclic:2,cyclic:8 --method exact --stable",
     "c8c0ddb9801b526c041c9931eed3c2d47562d59ebbc981c490f3c9619e4d39cb"),
    ("lambda product:cyclic:4,cyclic:4 --method exact --stable",
     "abee710786980f857739e24cee9a40020156d66c5e098b21880eabb522421532"),
    ("lambda quaternion:16 --method exact --stable",
     "613b8346c5b791ab5492a41f1aa297da213e084294a321a631946cbd476f81c9"),
    ("lambda semidihedral:16 --method exact --stable",
     "32c2a8390e61e15cc3abfdd4fef8d9eab634dc0666d180e918ce1c8cf934b3c0"),
    ("lambda cyclic:25 --method exact --stable",
     "172856a9d307945941f1bdd6715250ecd544ab712b3bc7321fbc963ef73a1060"),
    ("lambda elemab:5,2 --method exact --stable",
     "63d275117d164565437ce8ff737f3ba7523fcb26097f525952a9e9bd9ad1c5da"),
    ("lambda cyclic:27 --method exact --stable",
     "16a53c49a185f812ac90201b74e556d458da3ba208e60bad2504983c5a995505"),
    ("lambda elemab:3,3 --method exact --stable",
     "d867e3477bba12b3424801d7444a1b0c695ad13b862cbffc79de4ea5325ee2d4"),
    ("lambda heisenberg:3 --method exact --stable",
     "d867e3477bba12b3424801d7444a1b0c695ad13b862cbffc79de4ea5325ee2d4"),
    ("lambda product:cyclic:3,cyclic:9 --method exact --stable",
     "107710d26eec4836e9ac5976964fd5e4e5a23215f93f3ad8b7bf263cfb3d3f03"),
    ("lambda cyclic:32 --method exact --stable",
     "7b2b7fdc54bd1967a1db3a34bfb14260e8e77a6335ddf2711a72dfb651d03175"),
    ("lambda dihedral:32 --method exact --stable",
     "1c83e88ab68b1382f5d9594e5ad054bf85d667d26ada526dc6f7e532cc646155"),
    ("lambda elemab:2,5 --method exact --stable",
     "523f24922eca94150170a14867c2fe2a7732a803f988725e3f83aea8456fbe83"),
    ("lambda product:cyclic:2,cyclic:16 --method exact --stable",
     "88cdc177082d3952ada4ffdfce06840e0e9f31faca64f22a5d4261637599b078"),
    ("lambda product:cyclic:4,cyclic:8 --method exact --stable",
     "6a36551b8156f5e94e1c53e173f8b66f2b23a750de5b429a6b3dce3ce6dfa612"),
    ("lambda quaternion:32 --method exact --stable",
     "78e313d1e8ebbd85a387dd6c8da96214c4ad0a5b8d700268183bcf18c59cd68a"),
    ("lambda semidihedral:32 --method exact --stable",
     "e20da8dd2bf1dfb383d053fab385aeecf768fa3e5e36f0e6af4929db37b82fbf"),
]


# `lambda SPEC --method exact --search-cap 512 --stable` on the p-groups of
# order 64–512 that the benchmark cross-checks, and on the other order-512
# families, captured before the exact oracle searched one domain per twin
# module, which must leave every witness and evidence record unchanged.
GOLDEN += [
    ("lambda cyclic:64 --method exact --search-cap 512 --stable",
     "20c6d6c098fb424ee83b211aaf7726ea52a342cc8c09cb05203858cb5a8984e7"),
    ("lambda quaternion:64 --method exact --search-cap 512 --stable",
     "783e55640b115dc31ad2cea66f75e632730c3cc59aab48583c7a2302f5449010"),
    ("lambda heisenberg:5 --method exact --search-cap 512 --stable",
     "05769fef1cb0ffb7effdcc9c949280a673e0f3f13e8df862ddb6da1f63885244"),
    ("lambda semidihedral:128 --method exact --search-cap 512 --stable",
     "868ad29e02f530c3ec23744228f4726c7d196a49eb36e6f2f601a3c634ab8c08"),
    ("lambda dihedral:256 --method exact --search-cap 512 --stable",
     "cfaaa2a377dbf7da6f6b8e1c718cffd5918c30cb50f4d7d4b3e1e7d7d7b13fd4"),
    ("lambda quaternion:256 --method exact --search-cap 512 --stable",
     "0b6e2ab59c2e1e36adb4c101c0c512fea5fa11ddcf9b3037475010427ebf399c"),
    ("lambda elemab:3,5 --method exact --search-cap 512 --stable",
     "8eac11e698d6fa36e38f3e5aeff8eda26fa909436b44159225bef139746c94ee"),
    ("lambda heisenberg:7 --method exact --search-cap 512 --stable",
     "1117ca07f09cbb6cc8781035c8f1f472fdd6e2f27ec8f752a50f412e84fbc295"),
    ("lambda cyclic:512 --method exact --search-cap 512 --stable",
     "5e3ad24f031ae3cfc340e6e2955a8579b96161707973074dd09ee46ba4ec9bec"),
    ("lambda elemab:2,9 --method exact --search-cap 512 --stable",
     "9e30ee49644970f6d461f12b33d16bbb79c7c73b1396f5141eb58226d4c863c6"),
    ("lambda dihedral:512 --method exact --search-cap 512 --stable",
     "8c18e4f1192b01fbf0643a8bc1f2b40579b3a0ad9a998fe668b084d909239791"),
    ("lambda semidihedral:512 --method exact --search-cap 512 --stable",
     "03f8828fe47fe75eaa3f6fef72798f5f72beecd345310fd75df64860e8a5b077"),
    ("lambda quaternion:512 --method exact --search-cap 512 --stable",
     "a8f9c98047972dd13fde05a943291026d4c9dfe933abbf2c68b074367e082c38"),
    ("lambda product:cyclic:16,cyclic:32 --method exact --search-cap 512 --stable",
     "41bdf4222ce0b667dfc7ec003f4175067be9cdf50d7716b9e41f0bde525ec4a5"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stable_stdout_is_byte_identical(command, digest, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _random_graph(rng: random.Random) -> Graph:
    """A graph on 1–10 vertices: a random base graph on the first k, then
    each further vertex an isolated vertex, an open twin or a closed twin
    of an earlier one, and the vertices shuffled."""
    n = rng.randint(1, 10)
    k = rng.randint(1, n)
    p = rng.random()
    nb = [0] * n
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < p:
                nb[u] |= 1 << v
                nb[v] |= 1 << u
    for v in range(k, n):
        kind = rng.randrange(3)  # 0 open twin, 1 closed twin, 2 isolated
        if kind == 2:
            continue
        w = rng.randrange(v)
        nb[v] = nb[w]
        for x in range(n):
            if nb[w] >> x & 1:
                nb[x] |= 1 << v
        if kind == 1:
            nb[v] |= 1 << w
            nb[w] |= 1 << v
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
    # seeded random graphs, captured with the per-vertex search.
    rng = random.Random(20240601)
    digest = hashlib.sha256()
    for _ in range(2000):
        cert = exact_lambda(_random_graph(rng))
        digest.update(repr((cert.value, cert.witness, cert.evidence)).encode())
    assert digest.hexdigest() == (
        "a5bed2f01ae6aeb499262d36a25ffa17ce242a1adf2a7e45f6c3e1074f974db3")
