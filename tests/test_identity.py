"""Byte identity of the outputs over the data shapes the pipeline takes.

Each case generates its data from tests/synth.py with a fixed seed, fits,
saves the model, transforms a second dataset from the same generator and
writes both feature matrices. The sha256 of the model JSON and of the two
feature CSVs must match the table, which was recorded before the pruning
screen replaced the per-column loop. A change to any hash is a change to
the output contract, and is listed in CHANGES.md with its reason.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from pdbpe import Dataset, PipelineConfig, fit_pipeline, save_model
from pdbpe import transform_dataset
from pdbpe.core import MultivariateMode, Variation
from pdbpe.data_io import write_features_csv
from synth import (motif_dataset, ragged_dataset, random_dataset,
                   sine_dataset)

WHITEN = MultivariateMode.WHITEN_COLLAPSE
MANY_RULES = PipelineConfig(K=100, W=2, P=0.02, U=1e-4)


def _motif(seed, n_series=24, length=96, missing_rate=0.1):
    def make(offset):
        return motif_dataset(n_series=n_series, length=length, motif_len=8,
                             noise=0.5, missing_rate=missing_rate,
                             seed=seed + offset)[0]
    return make


def _random(seed, n_series=16, n_channels=3, length=48, with_groups=False):
    def make(offset):
        return random_dataset(np.random.default_rng(seed + offset),
                              n_series=n_series, n_channels=n_channels,
                              length=length, with_groups=with_groups)
    return make


def _ragged(seed, n_series=16, n_channels=1, with_groups=False,
            max_length=120):
    def make(offset):
        return ragged_dataset(np.random.default_rng(seed + offset),
                              n_series=n_series, n_channels=n_channels,
                              max_length=max_length, with_groups=with_groups)
    return make


def _sine(seed, n_series=52, length=56):
    def make(offset):
        return sine_dataset(np.random.default_rng(seed + offset),
                            n_series=n_series, length=length)
    return make


def _grouped(make):
    def grouped(offset):
        return Dataset(tuple(ts.with_annotations(group_id=f"g{i % 5}")
                             for i, ts in enumerate(make(offset))))
    return grouped


def _only(*variations, **kwargs):
    return PipelineConfig(variations=variations, **kwargs)


# name: (data maker, config, centroids)
_CASES = {
    "motif": (_motif(1), PipelineConfig(K=4, W=3), False),
    "motif-no-gaps": (_motif(2, missing_rate=0.0), PipelineConfig(K=6, W=4),
                      False),
    "many-rules": (_sine(3), MANY_RULES, False),
    "many-rules-threshold-1": (_sine(4),
                               replace(MANY_RULES, correlation_threshold=1.0),
                               False),
    "many-rules-threshold-0.5": (_sine(5),
                                 replace(MANY_RULES,
                                         correlation_threshold=0.5), False),
    "many-rules-original": (_sine(6),
                            replace(MANY_RULES,
                                    variations=(Variation.ORIGINAL,)), False),
    "threshold-1": (_motif(7), PipelineConfig(K=5, W=2,
                                              correlation_threshold=1.0),
                    False),
    "threshold-0.5": (_motif(8), PipelineConfig(K=5, W=2,
                                                correlation_threshold=0.5),
                      False),
    "threshold-0.8": (_motif(9), PipelineConfig(K=8, W=2,
                                                correlation_threshold=0.8),
                      False),
    "only-original": (_motif(10), _only(Variation.ORIGINAL, K=6, W=2), False),
    "only-rcs": (_motif(11), _only(Variation.RCS, K=6, W=2), False),
    "only-rcsm": (_motif(12), _only(Variation.RCSM, K=6, W=2), False),
    "only-autoregressive": (_motif(13), _only(Variation.AUTOREGRESSIVE, K=6,
                                              W=2), False),
    "k2-w15": (_motif(14, length=288), PipelineConfig(K=2, W=15), False),
    "k2-w1": (_motif(15), PipelineConfig(K=2, W=1), False),
    "k100-w15": (_motif(16, length=288), PipelineConfig(K=100, W=15), False),
    "p-u-high": (_motif(17), PipelineConfig(K=4, W=2, P=0.5, U=0.05), False),
    "tight-fences": (_motif(18), PipelineConfig(K=5, W=3, iqr_multiplier=0.1),
                     False),
    "two-series": (_motif(19, n_series=2),
                   PipelineConfig(K=4, W=2, correlation_threshold=1.0), False),
    "three-series": (_motif(20, n_series=3), PipelineConfig(K=4, W=2), False),
    "ragged": (_ragged(21), PipelineConfig(K=5, W=2), False),
    "ragged-many-rules": (_ragged(22, n_series=52, max_length=56),
                          MANY_RULES, False),
    "ragged-3ch": (_ragged(23, n_channels=3), PipelineConfig(K=4, W=3),
                   False),
    "ragged-whiten": (_ragged(24, n_channels=3),
                      PipelineConfig(K=4, W=3, multivariate_mode=WHITEN),
                      False),
    "3ch-gaps": (_random(25), PipelineConfig(K=4, W=2), False),
    "3ch-gaps-threshold-1": (_random(26), PipelineConfig(
        K=4, W=2, correlation_threshold=1.0), False),
    "3ch-whiten": (_random(27), PipelineConfig(K=5, W=2,
                                               multivariate_mode=WHITEN),
                   False),
    "2ch-whiten": (_random(28, n_channels=2),
                   PipelineConfig(K=6, W=3, multivariate_mode=WHITEN), False),
    "centroids": (_grouped(_motif(29)), PipelineConfig(K=4, W=3), True),
    "centroids-3ch": (_random(30, with_groups=True),
                      PipelineConfig(K=4, W=2), True),
    "centroids-whiten": (_random(31, with_groups=True),
                         PipelineConfig(K=4, W=2, multivariate_mode=WHITEN),
                         True),
    "centroids-ragged": (_ragged(32, with_groups=True),
                         PipelineConfig(K=5, W=2), True),
}

# name: (model JSON, fit features CSV, transform features CSV), sha256.
_PINNED = {
    '2ch-whiten': (
        "3eb4e7f9846f3f5f4dc276390c6c4b9361f7872191b975c48c4c5c2429863422",
        "c4ad37539a2f1dd04f15839342c442baa89f6bffd3eb92bb9d837bef82d1b7ba",
        "f8f5eb2bff491d10e17bc62e9552a4f8595fa9b6eac90ac1ad205ad87c930bd4",
    ),
    '3ch-gaps': (
        "baf6fc466f01052c5e81988a789fce99615de991a758d5502c48d2af85755cb2",
        "ed27719c9e572e22b135cdeb9dea64f7037d5dc1ca9fbc08641310bf49d9a912",
        "3604e5c842b7c583841cff522a617b23ad3015d2b328eb165ba3ef32e8b3babb",
    ),
    '3ch-gaps-threshold-1': (
        "d144bf42b91ab13108bc79b845816f254ebd2dff8d166b858025529c05deaef1",
        "7f6e1120fb952e72379d50b2205d0d7874c671e5fbef228d15002d41252a057b",
        "783ffe6d93649ff4acb3356590c5932d2fd58b64878468646a406499d0430720",
    ),
    '3ch-whiten': (
        "059c16847d4b2116960dd2ccbf7b7fca34ab926e9950ecaf53f6b05de3bb6ef4",
        "5013978a7c78d63eff905060eab0540f392866c133b4a274645e6b186e248f80",
        "9642f6b66f3bc31f201fc0dc871c3f36485080061e801857eb41cc492f4ab814",
    ),
    'centroids': (
        "f9c42bf83699fb4455fab294cadf9b28b2feead21bec276a1651b3312c8f5e20",
        "00b842421d187bd443fe3f53690c41cafd7ef07148567ef7262d897a80b55d87",
        "750768b260f17e37d672e59cc04f6157803efc8a00a47b4a89ce8f0af04412a4",
    ),
    'centroids-3ch': (
        "e22af48152d519e817ca377533c423bb7f9e28d522aaa11628b61d95e9def6fc",
        "85b342c762e89228cd22d1f7b417905a4c410e090470e694956516574bebb055",
        "33848ed3ab3a511d17eec14191fcc513a35c7161b3f0ffe51d767ece80851a4f",
    ),
    'centroids-ragged': (
        "8145d9494741170ff7d19791795425b431e5dda5af19121632dcacae753477b8",
        "8d01a0cfb4e91a75bf595406a26987fd9ff7751e1f7b6a04f900ee433409c1a5",
        "6fbae167bad323bf9711d304b8bcac81b51756d6bdc0b8e267eeca7f3ba71d82",
    ),
    'centroids-whiten': (
        "54c7b529751747c0119b2e587bee5f0d9826f187e1b8881ab1b3545869fc05d9",
        "cabd86f99ee3ee83860ac5a9fd2309d45b09476e96c2f29c8efe809e5035c291",
        "a2ad22a5c7da28c156e0d64de4f966ba280882e13754e052685b0e412daca58e",
    ),
    'k100-w15': (
        "d86fbce2a1a5774743d57d52e05987f1b51f7fb6ef514cc566cc1aee42e417d2",
        "322a96c17f4272b9dda949ecdbd442472d02b7d696249d36f31090c5f93a8ddd",
        "6c4787b40a3d1041f625924caf08601f383bae4dff93b2ecd973e1506690d05c",
    ),
    'k2-w1': (
        "c8f2be9e72334fec098082c1ef1ba7494cd8461f7b0f682d07a62f253f68b3e8",
        "ecb418d7d6b3bff76250ea7acaff7b5ff34f9356d5f393aab128b3e430dc33d7",
        "b937b8f6671654c33825bcba3767568306957cd5b388ebfac4d812f95752b14b",
    ),
    'k2-w15': (
        "72c7cc0c633f17491cdb1cd6fbf13fefabb55080b6906fb8b8349d581035c992",
        "786a54e6362d35567916ab177fe28dc06dbc197c511674b929ffac3e3981a78e",
        "fdc9c1519d8fcddd9529642c1bdde4729c51bc9caf78b4ae8847a42c19df6087",
    ),
    'many-rules': (
        "515f376d6072d78e13509ca7470bcdbbebf792d9f158b2ca436dd25ba4751ffe",
        "9527c068c4847b3ba2a337ead8c58709fbc8714244c5bf1eea732905273e9948",
        "f22b1e3171783187a619be6bcabdecd8dbdfada2c25cbb2c7e0adf3ea65a4916",
    ),
    'many-rules-original': (
        "cdcf38be8d589572f5ff541012dd315944050db78329dd13de80614d7338a6c2",
        "56bccb7e48ae39829666656d80b64cd7b647f5fcb8b5737f2fe8ef5f1c44c566",
        "06c8b799705b8248d424993f8d60a1f2cab8eeacf08a7e207c0ad13d55fb40c6",
    ),
    'many-rules-threshold-0.5': (
        "06174f11c57f72943556543af757471f1e52c6192d265311482b2292b9db6e9e",
        "663cdd782619c817e57880dffce40078c46c27717eb201f2d84fda3c693279ff",
        "6043b9583ce4a1cdedec6fd622a24605abf7befa18af31a4395d9afa25640958",
    ),
    'many-rules-threshold-1': (
        "ba9043989d524238119c5b0fd68531320e02fee1e5be4c64f3c1d5dadc82b66a",
        "2cf058dd80adfd477e145a90eff196a8fdbc3b3177fd1dded6a56fdacf752411",
        "fc58a1a0ab4f8017cca970bea5306f0a623959eb18cd0f0a79914ed7ea188069",
    ),
    'motif': (
        "27b054a5b20abaf4b96ba4487e898900086e115d712774c45f88a89c5260ab61",
        "858e9dea0b9b3bbc4b56b7d23f96afde29d6496e236d59f9d6e2f6585ae891f9",
        "cbe42668a5f0e674b4eb6f68e53ce3ae6f55fa49a34d593c94f1cf7a239781d6",
    ),
    'motif-no-gaps': (
        "f5b5131fee14469c6b796560f2a27e597051b08a7ebcec48771b5fc90eb4f0c8",
        "c098faed05be73e2feadcb03a3f91e08c136ff0f2be9a35d57e8b0885b0260c9",
        "37b530f7ea4478675e38cce973a9447ba4850239428593baba030075977f7be3",
    ),
    'only-autoregressive': (
        "25ca1ccbfa97021a7e045e9a88dc812ef18b4d45b3475f3a265147f8ad01e902",
        "e832f47ffb43707ecbd88cb68b5f5e5060c085d6a5bdc447ed4475c439d59c6c",
        "18c7dd464f028bee8529c65bf861f20a0b9a84a50cf8487c4da76ae260bf0394",
    ),
    'only-original': (
        "c4030dac7371fbab1e86e272c952d6ceaf026e1a8eb3ae2d8105e4d9f74a0319",
        "5392be8cd9343c877efaedd832079945a59266ec9608086ab3895c3feca7ff18",
        "a4ce67910714bed6d11efc7f0009d6796c3b7c45891e44419cd53c1b3f14f2cb",
    ),
    'only-rcs': (
        "3db75bfcaafcff64e1956ea73c73b6885130a83244601674ab8c18ff08bd7c13",
        "619b823d61f2b7e2e18970a23157806ca93190482fea05d82e0a4c953d53d4b7",
        "10e472a99b30f0514cda4b88bcf97dcc3116292f4ed9c1a4c864914dd92e8d3d",
    ),
    'only-rcsm': (
        "ad3879b03eefd072d0ecaad2411a86293d05206434c555ff93905624b6fae8e5",
        "1ad1bfe871689f1dd826058669152b47d7c7c05a18d682daf71d5c04784040d5",
        "d89a638572aec451241e5af6cd39fa7990fb74d185abfe81568d1dbac873f970",
    ),
    'p-u-high': (
        "28f5158e070438820836040da4af06ad8c8f77c485ded3857176032165a5e71a",
        "e715091c89c80bd16e290b7511d7b3777a39d0f4c7a35a75ab94dda6dc769d73",
        "e2e4e2b59979c77bc3fae3e09e4e6ad9ce55c617b34cd497d3803e1ee5d2ff3f",
    ),
    'ragged': (
        "801f4db3086a3d1debe52810f32c0af9ebb8c5fab7d5448e1cd411b25baa1b06",
        "9e545df843bc21bb9ddddd130ae88076fb6aa86a1668f405b52248814ae3ddd4",
        "9588c82fbc0f66c91c605f03633d772c709e44ccc82ceb60d4acd18f69da3a0f",
    ),
    'ragged-3ch': (
        "c3cc546e38e73a484d2d2edfde81790ab115f3ede48a88f2c31b078c02169111",
        "84e64f66f3e074bfc13d66d821f759e8969f0188422bf5bd6dc73c8fb6ae18d7",
        "0ad424e29b224faa375dce0ef2d31bf46cd26f47623a91aec8d729050f3efa3f",
    ),
    'ragged-many-rules': (
        "6cdb63c231b42c58c0e14810880bf2c81e117a103921a70259df80bbceb4f043",
        "fc9353a55e137bf2b5907c7f85228bc1fcc4db93e1e1b23e53fc8496be0dc9c1",
        "23f1c91e6322d626a1c217918d39a2b30fbeeee69d3b6812406f7b768ef573ee",
    ),
    'ragged-whiten': (
        "0f0aa4ff74aac2641c32827926acb9fa1d2fe148290914ccd826e32fcf56732b",
        "a59fb37ab855282cba97306aca7edba502ba40272b948cfc243a78b8222417ef",
        "dc0afb270fe3a320747c97513e89259079c186c1135dc25a1687616849f26d39",
    ),
    'three-series': (
        "e0ea8c99329beaea1dfce1419bd46ec643e1d3a56236729e1150d6d2d4d81d24",
        "19a79e270be7ba0dd7d17fa9d99dc4c713525f44193029c35153fe5369f6f8b2",
        "fa65501e407197c3b7d932137ccf5ae2f2bd287aef832ac8d9c89d54b18d2546",
    ),
    'threshold-0.5': (
        "dd276eac7ccce3c3eeaf75873fe8db00e5f3deeb8ddbf10c02e764051e04bcf7",
        "0c615f78f631fe6207aa582a48c2d84862825503f659e24b80a86c62496d05fe",
        "596b43c3df0e6e7fbf4158b623811a773e4b0ca9d7b0c5d7cf08417d3d052883",
    ),
    'threshold-0.8': (
        "d2c23ff195f593121534b82054d8ba4b5c9b19e4e4d9a5aee2ef3c0649746f16",
        "317fd5b2f7b1f117f88b08b611f6cccc3e49d6199d885bc3d109b9519e80e346",
        "6816415565109b4f9c2deeaf9a6fb2eddb1f5330a915185b7d1e8f7ae2eaab18",
    ),
    'threshold-1': (
        "fe4e6811eaada75f487d2d98daaa52018af39b965ea38d52aa93c839f2c4d0f0",
        "e23608e5c52c1ffaf5b70c57c397cc423335907a2006a9f60b47a9c185cec12c",
        "37ad0c1a9b0d098b34c8aeda2801f676287bf0856d70f698e4061ea551baaf2a",
    ),
    'tight-fences': (
        "f1de59dc70b8c6cb1f0165ee192b1433e06c22c564f325d04abdd970bd838e83",
        "884e77b82448d4c07d2315930cf48e74692df712011ddf24323bef087eeb356d",
        "fe35332f727f064d6cd0310079a20f988cbe01c0db8fd4b07d297d053f88e318",
    ),
    'two-series': (
        "5a688893d9f379518e9c06a2fd4ce3f6ac7013d58b695a6b00dbcba77c1223a8",
        "a253fa77c6b4aa356cf1e983d0bb05ad995c5e80c0c79b2734ae055661db6890",
        "125465bba1faa710a13cf667d90e12c017bd7a012fea30136c1064d1ea2e8957",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(_CASES))
def test_outputs_are_byte_identical(case, tmp_path):
    make, config, centroids = _CASES[case]
    model, train = fit_pipeline(make(0), config, centroids=centroids)
    save_model(model, str(tmp_path / "model.json"))
    write_features_csv(train, str(tmp_path / "train.csv"))
    write_features_csv(transform_dataset(model, make(100)),
                       str(tmp_path / "test.csv"))
    got = tuple(_sha(tmp_path / name)
                for name in ("model.json", "train.csv", "test.csv"))
    assert got == _PINNED[case]
