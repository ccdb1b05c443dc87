"""Golden stdout: the sha256 of stdout for a fixed set of calls, `analyze`
with `--stable` (no timing field) and the other commands as they are.

The digests were captured before the analysis pipeline was reorganised
(one cached cyclic-subgroup pass, one family dispatch, one certificate
checker), so any change to the bytes a user sees fails here.  The
quaternion:64 and quaternion:512 digests were captured while the
quaternion path was still found by a Hamiltonian search; the written-down
path replacing it prints the same bytes from order 16 up.  The specs
reach every constructive branch (cyclic, the trivial group included,
quaternion, dihedral, semidihedral, class descent on an abelian, a
non-abelian and a product group), the exact search (`analyze
cyclic:6`, `lambda cyclic:12 --method exact`), and a scrambled ingested
table.  The `file:` spec is
relative to tests/data because `analyze` echoes it; so is the witness
CSV that `check` reads, and the corrupted witness whose failing check
(exit 2) is pinned on its own.  Every exact
certificate, `analyze cyclic:6` included, was captured again when the
exact search came to order twin modules and to name the floor that
refutes λ − 1.  Every `analyze` and `lambda` digest was captured again
when the six evidence kinds became one, `clique-deficiency`, beside
`exhaustive-search-at-span`: only each certificate's `evidence` object
changed, and exit codes, λ, witnesses and every other field did not.
`lambda`, `check` and `suite` once took `--stable` too, which changed
none of their bytes; their digests predate its removal.  The six
dihedral and semidihedral `analyze` and `lambda` digests were captured
again when one coset alternation came to build those paths: only each
constructive certificate's `labels` and `construction` changed.  The
two `cyclic:1` digests were captured again when the trivial group came
to take the cyclic branch: only `construction.kind` changed, from
`degenerate` to `cyclic-even-spacing`.  The seventeen `lambda … --method
exact` digests on 2-groups whose involutions form a twin module were
captured again when the exact search came to try tight modules first:
only each certificate's `labels` changed, and λ and its evidence did not.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from pglambda import Graph, exact_lambda
from pglambda.cli import main
from pglambda.labelling import certificate_doc

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("analyze cyclic:1 --stable", "4d2ff7a9ac3c4091b288c2102573ed8016eff2f61786456be085f1b82695c804"),
    ("analyze cyclic:16 --stable", "489215fc00c609e5fc48a46c24a8c95771f398e29eead46ca426c64c9febe32c"),
    ("analyze quaternion:16 --stable", "d6c3ea42fe58f1c5ac6c89bae6b80f2a003b18639811c6044e580e67e6e73510"),
    ("analyze dihedral:32 --stable", "f5526f3ab63ff251cbe5ed34f531775af813d08d1dfd0f423b932a7b629d5805"),
    ("analyze semidihedral:32 --stable", "ab58d8e2b8265b758d9a592c273b8487680c1c19634e971995f52a53d40fa0e8"),
    ("analyze elemab:3,2 --stable", "48fece28297250461dd040340d764a647f5ebc1a1a49af30107dd8ed70103514"),
    ("analyze heisenberg:3 --stable", "ba04d0dd2f9841853c721f52288485e524316273801e5ce1a07ff34c5c49e73a"),
    ("analyze product:cyclic:2,cyclic:8 --stable", "80201453e20c47a5f577ec5a3347126a6c01a7ab76b6c773c5a8b70c6d23558d"),
    ("lambda cyclic:1", "6266ee3b0ab6bee4fe2f4de0238e9fd1c442c140f6d53e6775587ab127594ee3"),
    ("lambda cyclic:16", "64d2d8c3540aac61f49585ff96b46731c134f196480d9c84593671b2bebb44dc"),
    ("lambda quaternion:16", "c1980b1d1be7fc433c35bb89964be9e1f989a5463be3156719362373eba12a1c"),
    ("lambda quaternion:64", "50f5f2b8d0f7f074a97c08204456ea79cc2f66b1ee7654b186151f255f658780"),
    ("analyze quaternion:512 --stable", "da7ad4e3cf7d06f53fe646d8a95b7ad43fc659a229fbb329113a71a0bd2a14d1"),
    ("lambda dihedral:32", "5cd40c8f6d20c987ddbecc0965752410832133ed1da9d4822aade10250892e1d"),
    ("lambda semidihedral:32", "4f086937002a57103a46094dc380021a99d0d1d21458ed564a5f3c2b7d9642cf"),
    ("lambda elemab:3,2", "1416370393e293926846a7c49fcad87d5c5c018ad07a6eeeab53e206e98c7b62"),
    ("lambda heisenberg:3", "b27a7bb08cf6eb729357f99ae9dc379e1cafd2cf82232ebe2642cc06e7a8dac0"),
    ("lambda product:cyclic:2,cyclic:8", "27a439f33acca9cdcbea2728b25d5a879803507338370ac18dc4bbab1f782e41"),
    ("analyze cyclic:6 --stable", "61601778d15c6df08c2bc623ebfc08bcd0cad4f3682cde953fc140d285e9bfa0"),
    ("lambda cyclic:12 --method exact", "97987384ac3e359ed8f0ecc84531228fb162ca98cdbcc061bafcc50a30012029"),
    ("analyze file:semidihedral16-scrambled.txt --stable", "2974f1e9ca2d413708b2f84c7ef35ee09553605eceb865d8ea30d59ba8f38cac"),
    ("lambda file:semidihedral16-scrambled.txt", "fe2c4f8a3bb7d39b1bf8f1ebb62b14834318acef64b4651927f0228846292e96"),
]


# `lambda SPEC --method exact` for every other catalogue group of
# order ≤ 32.
GOLDEN += [
    ("lambda cyclic:2 --method exact",
     "eda0b8b3c5323b8b14e024e7e01c19473f59e43093a53d6de0a40525a5f05008"),
    ("lambda cyclic:3 --method exact",
     "a0c0e07a40fdf05bba252c04902154f2cea80895e74c563d1799a620ff420fba"),
    ("lambda cyclic:4 --method exact",
     "c768185ea64c02682790771d98a5dff6efd47e7d978de70e8943ed74fbea7b73"),
    ("lambda elemab:2,2 --method exact",
     "274f0ed1f539d13f3562ad0e67c0688075b5395c224e10cb0d32efaf53b8865b"),
    ("lambda cyclic:5 --method exact",
     "1bac9b67d13ba2a545cee17d31470dec7ba79511e8d5bf648af771dc0f82e3d0"),
    ("lambda cyclic:6 --method exact",
     "8a1e8a0ade4c6b28ba48c793de5255424a41db1e70609c7e44541f5574b226b5"),
    ("lambda cyclic:7 --method exact",
     "0ffbcd88a42a611cca4ea16069eddb7f4eb683c49a83ca9c76ef8aed3d2e79bc"),
    ("lambda cyclic:8 --method exact",
     "ebb521428fa2f68933d713ec45b94f77d22f8898be004092e8684e8ba2c93fbc"),
    ("lambda dihedral:8 --method exact",
     "163eaa7523e5e51400dc8832978b76d4580f372ee227a5708a02529916d6ae5d"),
    ("lambda elemab:2,3 --method exact",
     "2df6069c999df430bb56c79b690e7f624ee11c04e26779aedd3ecebf4ac512c9"),
    ("lambda product:cyclic:2,cyclic:4 --method exact",
     "f93879e2f7320d267fb97b239d1d44545f98ad264e44d271f982cc1b828b373d"),
    ("lambda quaternion:8 --method exact",
     "5c01fb5dca2f74819e6e496f2f601bc128fd6bc17c3db912d0c913314d272de3"),
    ("lambda cyclic:9 --method exact",
     "9d5ebb0f6615694ccb5ca02c98b35ed8a5607726dd9387f164e930f21555ff13"),
    ("lambda elemab:3,2 --method exact",
     "a030bbbd9890ab9586f52c2740f808c5dae0ee17660de62c9e0ee5084c51c418"),
    ("lambda cyclic:10 --method exact",
     "fdb0f40c28c86a3535ddf3fcdb8ad5bb3443232bba00cb9a4e5927b5844a350a"),
    ("lambda cyclic:11 --method exact",
     "8c92f69c76dc1ca470c83fda1e7e2259daae1467ce0e39fa7ef751efa7413b67"),
    ("lambda product:cyclic:2,cyclic:6 --method exact",
     "b9a126f8372bd1da16b0a3aa2598bf2440f3a0893b8287937e4f913768fbfc97"),
    ("lambda cyclic:13 --method exact",
     "a1b35553323a4946b6115acdba0cc0ba36752ae1f5cbd45bc22d7b3afa4ad954"),
    ("lambda cyclic:15 --method exact",
     "8e665171c3e4ca542990ab92d25290b99436b3b20679284c6ac46a0b4ce82843"),
    ("lambda cyclic:16 --method exact",
     "75c968c95dbe441e69f41870fa0c7b45c5259ab85f28971f49d4239a0fc19610"),
    ("lambda dihedral:16 --method exact",
     "ab719dfb5572edd820db7a0dd84d8fe5e4a59eb04023ae99edee194998993b0b"),
    ("lambda elemab:2,4 --method exact",
     "f8d27d63de9b473cfe74cd36585b8716d5005d8a97aa68fd73fb5a905323a825"),
    ("lambda product:cyclic:2,cyclic:8 --method exact",
     "8c694f4bc0998b6a428bdc218107a1efe2784a53fb87bbd55cd6aeeb738dabd5"),
    ("lambda product:cyclic:4,cyclic:4 --method exact",
     "2a1e77c2281cc3f1df0b74bfa0d126212e4f55c8e55693d61a928ff207166215"),
    ("lambda quaternion:16 --method exact",
     "1550ce5493722a66275a968ba511d9665e1066f4077e983126f56f2361ef7672"),
    ("lambda semidihedral:16 --method exact",
     "8e9e6fe1f65e9f2769bd1d0e44e07b98a5728ebee2b13400db6db116d640cd02"),
    ("lambda cyclic:25 --method exact",
     "316dc251120ff6700d165f67009337afbfb14b6b2297729d49ae86833e89d854"),
    ("lambda elemab:5,2 --method exact",
     "651deeeb9dbd03ecc4034ea4d9aee0ee9096005279a43f68e68ac6d87574caf3"),
    ("lambda cyclic:27 --method exact",
     "9c3b11641d70b22f49875fdbf21e6ac8273b9aea086a126134e1ad9b23951472"),
    ("lambda elemab:3,3 --method exact",
     "0229f9d6316e03c43d4a09cacf46b5a0a58a0a9907d8bdfdd305e9d4e2735410"),
    ("lambda heisenberg:3 --method exact",
     "b451971776d1e54c9adea5d48b90d57e426ca378f9cef2b3137c7fa6432770d7"),
    ("lambda product:cyclic:3,cyclic:9 --method exact",
     "bc4b7a4036bc164e19398dc4ede53fed33d405ddfc8c086f2881a4367a6e478b"),
    ("lambda cyclic:32 --method exact",
     "749cc872182100c3e04e59d531127d32c51fa22365a04361b95a373cf9b51bfd"),
    ("lambda dihedral:32 --method exact",
     "b9837fb886f062cc3637738bc30d7c10f305d72bd805c95d4ef7b7e3c079f930"),
    ("lambda elemab:2,5 --method exact",
     "fa25995d1445b81623ea69daf87a6ba61959cdc4139efad506c130c4d2e93b2c"),
    ("lambda product:cyclic:2,cyclic:16 --method exact",
     "e36ab4803e041fd8722902548ab5a1f2739d3bbb362e1a846ef50ff9869734a3"),
    ("lambda product:cyclic:4,cyclic:8 --method exact",
     "f0b0c763008ac63a54d51fc9c04e906c4a785868d121005f226eaac4258eabd8"),
    ("lambda quaternion:32 --method exact",
     "115aa6a5d8ebcaabbc83bbabf223134d84b37ed5cad09379006a1b5242f5d365"),
    ("lambda semidihedral:32 --method exact",
     "c1c4805610d7376b1dd6129a0e430f54bf6b0b7157a736f18a20b7b827d8b7b2"),
]


# `lambda SPEC --method exact --search-cap 512` on the p-groups of
# order 64–512 that the benchmark cross-checks, and on the other order-512
# families.
GOLDEN += [
    ("lambda cyclic:64 --method exact --search-cap 512",
     "9a396e7b20fcfdfa1abecf1254f817029daccaca4e06616d38ca463f678b41ca"),
    ("lambda quaternion:64 --method exact --search-cap 512",
     "cecb5b51fa00896cea22c6a2dd21f3d15be10ecb79d5b4248d83e672f273328d"),
    ("lambda heisenberg:5 --method exact --search-cap 512",
     "035ee234604dc237ba9656a84249d27ef2219cc551cdd45c5d7965b1ecbee357"),
    ("lambda semidihedral:128 --method exact --search-cap 512",
     "895dc2ace7f4184e4d1a966bb2812f72ac57e8b61de83ea7e5d5ae423dd714db"),
    ("lambda dihedral:256 --method exact --search-cap 512",
     "ed5474ab221fd9330dcc58869528b052548a4f663fd347242d92adcff2d0f9b7"),
    ("lambda quaternion:256 --method exact --search-cap 512",
     "9c6d6345ab4de9c9226600d1d5e436757207902106785ce650a65ac445ee946c"),
    ("lambda elemab:3,5 --method exact --search-cap 512",
     "4610f4c766c0272f7c792f75305af7468d529845a0706de22ad8405c2239e193"),
    ("lambda heisenberg:7 --method exact --search-cap 512",
     "8630d51bf82627ad5b6aa87c59c4e5dec9a6b1f48bf8c0357b47610d73e89409"),
    ("lambda cyclic:512 --method exact --search-cap 512",
     "3e7abb163f0bae09cae8d51df19ff2a59fcb6a82a9d4181d826a9a90b992e843"),
    ("lambda elemab:2,9 --method exact --search-cap 512",
     "63cfa27cc9dcf4f328f74c5c2995ae94c44ed186d57410182a71d45c704cbedd"),
    ("lambda dihedral:512 --method exact --search-cap 512",
     "2d775ee95e6f8229b43ba3e75435bf87031633892a2712114061f9544265a203"),
    ("lambda semidihedral:512 --method exact --search-cap 512",
     "a84391bc45d6e7fbdecb9cbd747123126333db70d3313904c3a0d8f9f93a6f83"),
    ("lambda quaternion:512 --method exact --search-cap 512",
     "787879b8dc37917b942e83334379e81672b3a43aaa86338218c0a0058d4ce093"),
    ("lambda product:cyclic:16,cyclic:32 --method exact --search-cap 512",
     "e75776d547dc20e0641569583842e66ae7c82648ad35ebf887749e481b556b13"),
]


# The two quick calls whose power graph refuted the floor of three
# candidate cliques (71, where λ = 72), so that the search backtracked.
# Captured again when the floor became the best clique of closed-twin
# classes, which is 72: only the evidence changed, from a refutation of
# span 71 to a clique, and λ and the labels did not.
GOLDEN += [
    ("lambda cyclic:45 --method exact --search-cap 45 --time-budget 10",
     "bba1358f83f78540ce3d1a05e529df5ac6a664c402a3d8855402db092d06477e"),
    ("lambda product:cyclic:5,cyclic:9 --method exact --search-cap 45 --time-budget 10",
     "a5c26558c927840119bf4d0573f95220473f87994e3e6599b72fa8bf6663ceb0"),
]


# `suite`, `check` and `export`: the JSON and `--pretty` suite reports, a
# check of the witness `lambda cyclic:8 --witness-csv` writes, and each
# export format.
GOLDEN += [
    ("suite --max-order 32",
     "3fad32f5863664ab159be345c39da694b2f469332bcaedec04168ed584761eba"),
    ("suite --max-order 8 --pretty",
     "61fe4101bd9b827611f34710433f7e1fc78506a6f2f65bce7a2687afc6cebf11"),
    ("check cyclic:8 cyclic8-witness.csv",
     "06ead4eae00d890e0bf9359c8d220a5d74a9da77070d32a6b9111a77d41e1815"),
    ("export dihedral:16 --format dot",
     "e7b53d467dc69d3a351f639635cf55fd1ea2db02110306a4f8217e2946a0b7e4"),
    ("export dihedral:16 --format edges",
     "b6dfcd1a9f95ed57f239aae63c1346781ea9e040d1a5f6a6fe11506c8e76d1d3"),
    ("export dihedral:16 --format cayley",
     "d450f6f484d802cbc6e3ad10bdc64e8547850fed32540f4ccce8a85e0d2136b0"),
]


# The benchmark's suite call; a suite call whose lower-hook suite reports
# counterexamples, on the groups whose element orders are not prime
# powers; and `lambda --pretty` on an exact and a constructive certificate,
# the indented form of the certificate JSON.
GOLDEN += [
    ("suite --max-order 81 --time-budget 2.0",
     "69efe384e82e4864b1431a07a24ac4d81297fce34acb39b8da54a5320a05f165"),
    ("suite --max-order 16 --group cyclic:6 --group cyclic:30 "
     "--group product:cyclic:2,cyclic:10",
     "3ff54cf26c2a5edf245fafaae13f62c6a62f782771913b15ba23c357eb44a894"),
    ("lambda cyclic:12 --method exact --pretty",
     "fece6df628d9f770fc0919ac35e449cf079de922c9419d79c336a87f5dbc7225"),
    ("lambda semidihedral:16 --pretty",
     "8c68f54d1a6bf4cd215c61ce3c9cdc98f53b6ac08f206287ba5e2e09532b2d4f"),
]


# A product with a table-backed factor; family groups multiply by formula,
# and the factor by lookup in the table it was read with.  Captured again
# when `auto` came to search every non-p-group: λ = 48 with its exact
# certificate replaced "lambda": null and the note that it was not computed.
GOLDEN += [
    ("analyze product:file:semidihedral16-scrambled.txt,cyclic:3 --stable",
     "a561b4973d9afa0066554e8b94eb4f70c6b84fc825b44e114a015cab28f396fe"),
]


# `lambda SPEC --method constructive` on the largest descent and coset
# alternation subjects, so that each written-down path is pinned up to
# order 512: two elementary abelian groups, a Heisenberg group and a
# product on the descent, and the order-512 dihedral and semidihedral
# groups on the alternation.
GOLDEN += [
    ("lambda elemab:2,9 --method constructive",
     "625bbe9124a3a43183dc58efac9363625b5de6ceea0980745ccc663e2c891669"),
    ("lambda elemab:3,5 --method constructive",
     "16679c7992d67a604adcc40daa496c826cf41d832ce41b675bd8fde3724cee5e"),
    ("lambda heisenberg:7 --method constructive",
     "f1bb435162ff1158e62bb32abca072c520461769802e0954f9b9c07d9aab96b1"),
    ("lambda product:cyclic:16,cyclic:32 --method constructive",
     "712f7a657439e1264cd8c65ff267cb98ae38144db8aeb7fa509a4efc07c2a55d"),
    ("lambda dihedral:512 --method constructive",
     "10780a306a06fe784bf1a2cad69696370df886617a627222a700d7f0a210e676"),
    ("lambda semidihedral:512 --method constructive",
     "be052d19bf4956964e70ccdb69459cd42bdfa81418032b9ff7a2eec7ade54bb7"),
]


# `export --format dot` on the element-naming families: the digit-vector
# names of an elementary abelian and a Heisenberg group, alone and as a
# product factor.
GOLDEN += [
    ("export elemab:3,2 --format dot",
     "a38bddfe30ed9e4416908fda21768ef3e49d904d58c2a461f61ae2b2398f6878"),
    ("export heisenberg:3 --format dot",
     "9ad63d2c3820f65b894c668045527423e6a78cec3e0a44a614059075f9a4315e"),
    ("export product:cyclic:2,heisenberg:3 --format dot",
     "dd06c1f1e74ceb1ccd0f1c500cd549e866aabc29bf189a04c0a5d34e2029b528"),
]


# A suite call whose family-class-numbers suite reads each maximal-class
# family at order 512, and at its least order: quaternion:8 and
# semidihedral:16, where the last exception to one class per order meets m.
GOLDEN += [
    ("suite --max-order 8 --group dihedral:512 --group quaternion:512 "
     "--group semidihedral:512 --group quaternion:8 --group semidihedral:16 "
     "--search-cap 16",
     "8a11e29087f1bfe031ed8657cf4218ef88fd5d46f51a3b1ddaadcf2b2388ee24"),
]


# A suite call over larger subjects: the class-number congruences at orders
# 243-512 and the lower hook over up to 512 classes (elemab:2,9), and its
# counterexamples, of orders (6, 2, 3) and (10, 2, 5), on four non-p-groups.
GOLDEN += [
    ("suite --max-order 1 --group elemab:3,5 --group heisenberg:7 "
     "--group elemab:2,9 --group product:cyclic:16,cyclic:32 --group cyclic:210 "
     "--group product:cyclic:6,cyclic:10 --group product:cyclic:3,dihedral:16 "
     "--group product:cyclic:5,quaternion:16",
     "b63a12663af5113b60185e1cdcab59e1e0848f0735d26ae653a8326a119b9b7e"),
]


def _test_id(command: str) -> str:
    """The call's test id: the command as it was written when the JSON
    forms of lambda, check and suite also took --stable, so that each test
    keeps its name."""
    if command.split()[0] in ("lambda", "check", "suite") and "--pretty" not in command:
        return command + " --stable"
    return command


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[_test_id(c) for c, _ in GOLDEN])
def test_stable_stdout_is_byte_identical(command, digest, capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_a_failing_check_prints_the_same_violations(capsys, monkeypatch):
    # the dihedral:8 witness with x³ relabelled 2: two edges 1 apart
    # (required 2) and a distance-2 pair on one label (required 1)
    monkeypatch.chdir(DATA)
    code = main(["check", "dihedral:8", "dihedral8-corrupt-witness.csv"])
    out = capsys.readouterr().out
    assert code == 2
    assert '"required": 2' in out and '"required": 1' in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "776e9c974605241137645cb3670983673d68979ba6c84898fd05607395ee78ad")


def test_a_search_refutation_serializes_the_same():
    # no command prints exhaustive-search-at-span evidence: the graph of
    # test_exact_lambda_refutes_the_floor_of_a_graph_that_backtracks, whose
    # λ = 14 lies above every clique's floor, is the one that shows it.
    # Captured again when tight modules came first: only the labels changed
    cert = exact_lambda(Graph([1018, 893, 1018, 983, 1007, 983, 959, 893, 255, 255]))
    text = json.dumps(certificate_doc(cert), sort_keys=True)
    assert '"kind": "exhaustive-search-at-span"' in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "8ba5a7e2d4ebd8049a6692b8950118334e7376b9888bc03fc151ccc10a6ebf43")


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
    return Graph(out)


def test_exact_certificates_on_random_graphs_are_unchanged():
    # Three sha256 digests of exact_lambda on 2,000 seeded random graphs of
    # diameter at most 2: one over (value, witness), captured again when
    # tight modules came first among the search's moves; one over the
    # evidence, captured again when the floor became the best twin-class
    # clique (144 graphs searched before, 130 after), and again when search
    # evidence dropped its span, which was always bound − 1; and one over
    # the values alone, captured before the move order changed, which no
    # change of witness may move.
    rng = random.Random(20240601)
    certified, evidence, values = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for _ in range(2000):
        cert = exact_lambda(_random_graph(rng))
        certified.update(repr((cert.value, cert.witness)).encode())
        evidence.update(repr(cert.evidence).encode())
        values.update(repr(cert.value).encode())
    assert certified.hexdigest() == (
        "48e542bb8f538c8d56fc607eea37479938e99e0fc587aae2c91bf6a7c3668529")
    assert evidence.hexdigest() == (
        "dc070939cff6c75c60d9a03aadea9c0574256179c2cdbc7a9763e8d6135a4a05")
    assert values.hexdigest() == (
        "0dcc73040cbd033e3ada40169dec2a66038c6dcd92aed18077cf31391dda8a9a")
