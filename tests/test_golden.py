"""Behaviour lock: SHA-256 digests of the CLI's text, JSON and DOT output.

The digests were captured before the integer-form refactor of the core and
pin every byte the commands print: `ideals T --json`, `hasse T --dot -`
and `info T` for all 32 types of rank at most 8 and for A9, A10 and A11,
`tables --json`, `verify --all --json` and `young l --list` for
l = 1..11, and `verify T --json` for A9, A10 and A11.  A refactor that changes any output, even by one character,
fails here.  The A9-A11 digests, the longest coset walks, were captured
later than the rest, before the vector-action rewrite of the coset walk.

The commands run in-process through `cli.main`, so they share the caches
the rest of the suite fills.
"""

import hashlib

import pytest

from abideal import cli

# type: (ideals T --json, hasse T --dot -, info T)
PER_TYPE = {
    "A1": (
        "b8e77acd94d57ce9cc33c7737d0924a5c8f5b7295cf63a8a545858676c660610",
        "a89ff4d19fb25ae4aebeced34679b8a05637e81285b9880bf43ecbda65deb0f1",
        "46c2c78e654b778a948c82897502ff915752ebaa813479a76538d94d40f53766",
    ),
    "A2": (
        "e049a91ee10e092cc80f43d1188b202fd7476cbbd20a078862af69abda86e626",
        "ca8afa8170e7d8e6b147c41cc1519e25d8b5b7779eb6c217474990f084c39895",
        "6c3c1a130066f89875fc00d7d9249941e856040d34d5930c5f1341ebbb98a3ff",
    ),
    "A3": (
        "4c75f307b78825622261d5ad33f73f29a20c82481319979c51fd218c0b22d7cb",
        "9fa305fd7bc53a411da5b2a477a01f9e68d2fb390515372b2bf054991a288364",
        "cd2495d81045eff44ad1d3b34f145551bf4b473675534b53c63f1d02eaca2a13",
    ),
    "A4": (
        "27c44fdef9986bcfeeda62c7e4cdb97a99ebdf76b77be494ae652af52cc0aa2e",
        "489167aa9a50b8a2e3c75edd46fe5556d342c09814a35e337a2722cd61f1f8f6",
        "68d19cae5ba30f96a08957cad81343a52e9cb328b41ff37ed21de2816f425da1",
    ),
    "A5": (
        "a7aa8278af51f41ce69d8579f8adebd4e117a648dc7cfa796e30b0d8f622d904",
        "dfcd83babc1ef8b1adee01bbd5b98e25327847e8ec4b71bd4c9cf9ee4ff07fc4",
        "e64afee3c83059a170e70ed0cb9f1ba267e6b4df83dc583847612a82985b6cd5",
    ),
    "A6": (
        "708118cad02a55bb6caf428adf098042231c08047f8a24c9e54bf5d0ce41d0ee",
        "ec8f5d218fe451e6941b9c6338a67133ddb8e41d2c044c5170807dd1b754eb54",
        "d24382ebe9dd8736bd1418c74164d00597db9dad2858f550badcdadafb6405e3",
    ),
    "A7": (
        "47697b28b1ac56174b35d87032a041f7bd866f5031988165de5efdd679801ec4",
        "a95db1fc53d4d047b22010b8d0d2597b681f49d5ff955dacefb1af24c1159c31",
        "c228df649d52656fa32f3e41082c507161d1b8eb7050a703603573aef9e2bd94",
    ),
    "A8": (
        "e8f83cb3c0306295774ff7a68fa190c206f8ab52f0470528054157fc56c74504",
        "01ff261b0372d88b5fa0b154d46697fde914e5e7022b5925e15ad41ef06c68f8",
        "01648db0d31d9c1d8edc31f0124aa299cf0df378fc720e3ab96d3a8df16f136d",
    ),
    "A9": (
        "80cc274bf960ac91b8ec11f57517b2ddeb30a1cec0e8a9836a867a722c0b1920",
        "ae67b48b373e17b055771652358e16ee2c92f37966c9d74f653d839892451d33",
        "0fd189c62674506ec591295e49c72204ddefc93ba2b2218e9906dbb0732ea217",
    ),
    "A10": (
        "a0763991cfc876be0f276b274f2528ac7dcbc8acb5c0c3808dd004b6223ab205",
        "a21afab324c20805c96f1b18d60a261dfc0a286acee52d339bd3edd8c03b1e01",
        "7f993158f9b051b4d5b2ae679bb38f775624c8ffbf017bb857b6468650110d2f",
    ),
    "A11": (
        "4b4d6747b3c3f94e1f73ba9432809c21d2b315afb531bbc1192d478c6a9c51d1",
        "0325d3f9c6f6a415eefa4858faedd178684ec9c0e249564d3d80fe103baa0ebf",
        "557b6cc1b0b4c032fdd44668c5376f7ba58999eb4bccdbf0eb44520bf410ba03",
    ),
    "B2": (
        "178f3681c3df41b447ed088f1900c4ffc3a0bc9eb7eaef676482c65f25cfd5a2",
        "d79682d0e77407fe48794d884e4aa084773c6a5184f22ac7d878f502153f5544",
        "9f126c4994a7193b0f52090cb18e3d878b94f8fc42f381fac11a1981575f35e5",
    ),
    "B3": (
        "3d9927008e5ef3e150965d02bb9c6aff88c79ec30adba58b7dad197a143c7016",
        "0807cb6e8e8c8cd98fc4c84162c44d682d9ad1bf219352aec758cc256fc0e3c2",
        "a223e6ff02df7b9371e547cb4b70f19042c4fbecd4b206274eece190a8078535",
    ),
    "B4": (
        "d4d839a57500b1c728b292680c303265dc7a579473024d4b77a5916fa7896f28",
        "44a880febf60f378742e703a11fbcf4bad656fc1e14d5567016d92ffab834614",
        "2180014a5fe24f148a9e6f03df3be7249b240980565d260a2dbd683864b19f1f",
    ),
    "B5": (
        "b8fb1ad747aac0c9f1ec11cabf3af9ab4aaaa61a9c746818e0521f3e343c2738",
        "030eaafceead9a0849abe2a37b879b3ccdc65dd283abd4511902a907f4f4dc12",
        "2b150779ade583e882a69814c7e6a1e1f8f8805e3a96e2baad8eccc44974be26",
    ),
    "B6": (
        "a032d77adc09cc6c0f96001781e8ad17f789c28cb97f1136f7dc5e0556b417d3",
        "72544b048c979d32fb987452a440558d2e304029125a90cc0a9bcb768d8b0128",
        "fe8b508b18f09e3e25c0865448825f53dc0a9703c5bdb138e21c62ff56aba115",
    ),
    "B7": (
        "755adde6609cb688a70112ec47def421293bac73104115c5125c832f03566e07",
        "e3aef8fdf94c820789bfc2ef75f0e5660ab257f75dafe1ac7f5c51c526b4a041",
        "fdea91068b5970c01d1a025b850e888cb7802077e6c25ca92faee8691fa6b0b3",
    ),
    "B8": (
        "f0c7d882593324cf763b811eeba81793c7a44137a65357b78e050fdce64cc979",
        "43b465ac2a96e0a7c9432d1b8bedceb686dcfb5382c600de50dd6f89cdf87aca",
        "144bed537a9ee19cffbefc5f51655e2d7014e06f110084bae5b51a00379173b7",
    ),
    "C2": (
        "c97ea4e864f3a92928ba7651b0e0b5be680662921a31d61f3c45fcdb5a0a0b7c",
        "fbc05e3c0093b51c930a14efacabad0aba55a3e1be4e10007340c65a415775f8",
        "7d96cc8e394e7858a21ba8813a12be7f15d780bb3a8eacd8c6fe23bd6b3e3e9e",
    ),
    "C3": (
        "0eddd83403bfda5c44d4c4354ed29bf99acfe6fe4b98776cc7c375b5580d9852",
        "0b77c7d2e53444b09d2c79a2146c61e8ded1dd8f89ab28ed13677a9fabb62621",
        "26bb0d97d7e3d3465e5e6c25fed090b87469120ddb2dd2c61a3344807109e2d7",
    ),
    "C4": (
        "8499cf4b41ea8babb180fc253c48f6c35e0ceb75025fbaa54d652c8127658187",
        "0e09d44cce4e082dfc9fa4998e54762acb0af3374b85bea6525814e9ae1419a3",
        "b8321b54fa2d6636d377e5eb7fed32e08e14d80be282e1a21b4cf0f9e793bfa2",
    ),
    "C5": (
        "28513ec98e137ad3ae89e3de9cb4ce0472b90cf3152187e3ed9768ea8c845b3e",
        "e3c217e18784e6baf2444026c9b089048404454a697a8b0913aaaddc94464686",
        "742b4e1af1a51e4b0ea28f966df83b8e11cd3e86a7a20e404a5abd76a854126c",
    ),
    "C6": (
        "1c32bd4b137bf413d18a68a4e29c67fe967f98fd2beef3438ca19b28a5e18b24",
        "e86595d1988da61834fc54f1560a5ed52cdb8abc572a575d3f000b71385bac76",
        "83095827016c67de04c0fa66b95a54c7594074087a79769228595659384b969c",
    ),
    "C7": (
        "2b8c97fe588af7112f90c8ece13fcd3aff3b873420f9f40cb5376afab82211b2",
        "362f787b2a720efc053db7454cee7cd291d7a0b51283e4ce820c03a385cd26f3",
        "b75bf4c842970d7553dce0eeafaf7a5dc1455a7bf813e95fc83dc8cec35d9608",
    ),
    "C8": (
        "af490ef9595d11959aaead9f927718a5cf2d2a6794ff229a2cc52770fb8743a6",
        "e920535e5aedb4f77ef357d1e9ea795aaff496f2c9643778a69bdae5fd7bcbd4",
        "85119f9280d9d60e2ee9667760b06bfaf082f8396786e584558dc59d3a9b1642",
    ),
    "D4": (
        "cd752396af68dc1cafbe06b290517babd28461ba996626c9fb47bed86e766d38",
        "dbe70bde9362c20527dfcdc860f79fe8367b7face2b9c8fec829e163e221fd1e",
        "67f3cc26ddf09ee31ba87109f7c001d6609bb62cf04009fea6e81cd90529f8d9",
    ),
    "D5": (
        "98d5f96fde8abd4929dfadf8437e3313cda8997e0a4ee885bbb55b1eb9e37d4a",
        "2730b42b751e3c36ba8bd79e8878626fe25aee6963c6cfe6f6d8a0d9ddf14254",
        "aca901a8bd4e4c14053208fe6d23dfdc1a6fa54e1712c27b46dad172ca56d545",
    ),
    "D6": (
        "1a51de1ec181e0b7f6c9f37b63b8f07b1ae79e6a757fd6166c8eb15b89128848",
        "c0a62e60bbeab43d6eb62e56f07ce22768c9b5129b7a87edf6d8e6dd623ba49d",
        "2dc6370271561a1cac2970d1f5d69f469ffdf08c750bb9885a36d8dea768e991",
    ),
    "D7": (
        "951395df7e3677d9b07f4796174882511935eee17042b251f5acc1b99203dba0",
        "f20d5ed711a29e3ebbb28d6896d2fc4b2c506b9cc4c65c7e2264de50ec11d563",
        "d15de2fe5dee255dce3a5013f5eace3e283953fff4a177ce061cfd7f07283ca3",
    ),
    "D8": (
        "3ad4ff489e35435c762823218d8be08ca1e564ca17989ff97da949f3249545ce",
        "13ecb4ddba4e0b491e5a611cf51678064263bf14e4b1129d0032baf0ea9178a9",
        "2ef362d61d903e60385c6ba4232b9ea225a9e74bbb457b3c2278901378d23af0",
    ),
    "E6": (
        "732510e57679b4fc4f89d3fe64f7d247ff7dd6a7966888ba09319e734645649d",
        "c6533b5b6abd94f12610fc06b9a74a9335d4bd8576b0f7d4e8a1261b09a0045d",
        "b71811adaf3fbd4d6d1959436fa9ffc90e38cb5a4986bacb231731e1072d8e49",
    ),
    "E7": (
        "9753940cfc8d5a6ff7534e3cd1732cae8f33e2367f7e8984820d8dff22822c21",
        "7313fb1b7c4abafb0c7a9933ae23376211b9311ba54e7e6e3ddc2e6f90641de7",
        "c37e63d45a0b796aaf29196378b3b013d005a27a1ae6a4d260db5a6e599f8aee",
    ),
    "E8": (
        "31c7b9df3eea94b1fca841bd9b132e98d754d39b98e85a38b039fcdf6205fd29",
        "1fff67e98f3c2dbbfa4289552a62abe376f9bca107f5b41e7cb040166d177b8e",
        "d4fe20c0d073fdbc434f4a759808dcb942645a14efeac4891349dd7c62e84e5b",
    ),
    "F4": (
        "f06d6d039bc7d8b4bc2f3c6c04aad39c733be454d8b3c691da690e0e5d34ce18",
        "aaf6a062b3a07cad40ca507204796c4333a029a6996978ec49ed097ec4102a63",
        "7f843805d3c52f5c19387f08fc7fc697b97cd8f94f4d3c990e437cf504ab7aad",
    ),
    "G2": (
        "01279a4b98c0a3c98b7b0e4ec0ca35e89ecbc7d982f17c55f16cc1b50f72860f",
        "46d2d47bd3d784b537041f853713eac081ce9130a35c6895cc46c4440365b247",
        "ddf15b0c73a791c62541df499c226625480f46f623ed88e19bbcaf9a0840dbc6",
    ),
}

YOUNG_LIST = {
    1: "5c580be52d1baa6be29fabd1a555b4ef498765f5cea7ea52a9687dd5befeb047",
    2: "7685119e1f2c014cac1a6d639aeb1491bd7bcc06c15435767e514a908f29d5c9",
    3: "640865985dc02e2821f56d0dc3bfc770412d1121d0b45672063f8ba501ef3066",
    4: "8115992e639fa9621decaf9bab282a39cf1eedc2433a8f66d2bb2c6c331b3b8b",
    5: "9a0a00f9aee2cc1323ea25aa29978b88bb5da6ceef7bcb7f68032cbf70b22d43",
    6: "3312efef33cf0cf51c5a301727f5dadab031bb4ab3bce7af4d298b61854278f8",
    7: "b7b56cb64df8f5b0e4d4b4e21333a05030ef8f5c927036bd2e58ae73d80067d8",
    8: "6589214c460d733c7a2393c743ab7fb0f81e0d056e57d29a56b244cd00209e33",
    9: "1fc290e4e58eadcc484a48bc83c561fb5dc65d37193a744b07c59bd5e701a95d",
    10: "1f59e37ba90690a263f28e2567da826993ce5dfcecd0b7866bbbd71a7be27161",
    11: "b8d5ce4470763f61b024c67f4a24a7fb1ebf74cd3c060ecb02f89874b205769a",
}

TABLES_JSON = "71e7afdbf1d7fa99845da5a847af218fc7814f5118f9091701a7e28b6dcca9ec"
VERIFY_ALL_JSON = "56fe67f8c74224105192400a0a9e21f6f0418325d1734bd1775774bb00eea66b"

# verify T --json past rank 8, where the Hasse graphs have 512-2048 nodes;
# captured before the Hasse checks moved onto bitmasks.
VERIFY_JSON = {
    "A9": "ac3abe90e2d0143ead3eaea17b6eb880979587cf112a073faa0e901b900c72f8",
    "A10": "0abf41efdb3ef36d1234dda97371f56eb197134d2e722df558f6cff6ee324f32",
    "A11": "4a74b8a66c1a8082be18c151605782a584a4d60c7a9f7960cbf2c5bc33dfd581",
}


def _digest(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(PER_TYPE))
def test_ideals_json_digest(capsys, label):
    assert _digest(capsys, ["ideals", label, "--json"]) == PER_TYPE[label][0]


@pytest.mark.parametrize("label", sorted(PER_TYPE))
def test_hasse_dot_digest(capsys, label):
    assert _digest(capsys, ["hasse", label, "--dot", "-"]) == PER_TYPE[label][1]


@pytest.mark.parametrize("label", sorted(PER_TYPE))
def test_info_digest(capsys, label):
    assert _digest(capsys, ["info", label]) == PER_TYPE[label][2]


@pytest.mark.parametrize("rank", sorted(YOUNG_LIST))
def test_young_list_digest(capsys, rank):
    assert _digest(capsys, ["young", str(rank), "--list"]) == YOUNG_LIST[rank]


def test_tables_json_digest(capsys):
    assert _digest(capsys, ["tables", "--json"]) == TABLES_JSON


def test_verify_all_json_digest(capsys):
    assert _digest(capsys, ["verify", "--all", "--json"]) == VERIFY_ALL_JSON


@pytest.mark.parametrize("label", sorted(VERIFY_JSON))
def test_verify_json_digest(capsys, label):
    assert _digest(capsys, ["verify", label, "--json"]) == VERIFY_JSON[label]
