"""Byte identity of the command line's outputs, from the data CSV on.

Each case writes a data CSV, a held-out data CSV and their labels CSVs from
tests/synth.py with fixed seeds, then runs discover, transform and evaluate
through cli.main in a directory of its own, so the paths that the report
prints are the same in every run. The sha256 of the model JSON, both
feature CSVs and the report must match the table, which was recorded
before the data reader attached the labels itself. A case named in
_SAME_AS rewrites another case's files (CRLF line ends, a byte-order mark)
and must give that case's hashes. A change to any hash is a change to the
output contract, and is listed in CHANGES.md with its reason.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from pdbpe import Dataset, data_io
from pdbpe.cli import main
from synth import dataset_to_csv, motif_dataset, ragged_dataset, random_dataset


def _relabelled(dataset, label_of):
    """dataset with series i labelled label_of(i), None for no label."""
    return Dataset(tuple(dataclasses.replace(ts, label=label_of(i))
                         for i, ts in enumerate(dataset)))


def _renamed(dataset, names):
    """dataset with series i renamed names[i], where names has it."""
    return Dataset(tuple(dataclasses.replace(ts, id=names[i]) if i in names
                         else ts for i, ts in enumerate(dataset)))


def _ragged_centroids(offset):
    ds = ragged_dataset(np.random.default_rng(40 + offset), n_series=20,
                        max_length=72, with_groups=True)
    return _relabelled(ds, lambda i: "ab"[i % 2])


def _three_channels(offset):
    return random_dataset(np.random.default_rng(41 + offset), n_series=16,
                          n_channels=3, length=40)


def _whiten_groups(offset):
    return random_dataset(np.random.default_rng(42 + offset), n_series=18,
                          n_channels=3, length=40, with_groups=True)


def _quoted_ids(offset):
    ds = motif_dataset(n_series=16, length=48, motif_len=8, noise=0.5,
                       seed=43 + offset)[0]
    return _renamed(ds, {0: "s,0", 3: 's"3"', 5: '"s5', 8: "s 8,\"x\""})


def _fallback_block(offset):
    # The last series' id holds a quote. np.loadtxt reads its quoted field
    # as csv.reader does, so every block takes np.loadtxt.
    ds = ragged_dataset(np.random.default_rng(44 + offset), n_series=14,
                        max_length=64)
    return _renamed(_relabelled(ds, lambda i: "y" if i % 3 == 0 else "x"),
                    {13: 'q"13'})


def _line_break_id(offset):
    # The last series' id holds a line break, so each of its records spans
    # two lines, and csv.reader reads every block that holds one.
    ds = ragged_dataset(np.random.default_rng(46 + offset), n_series=14,
                        max_length=64)
    return _renamed(_relabelled(ds, lambda i: "y" if i % 3 == 0 else "x"),
                    {13: "q\n13"})


def _partial_labels(offset):
    # Every fourth series has no label row, and one id is not ASCII.
    ds = motif_dataset(n_series=20, length=48, motif_len=8, noise=0.5,
                       seed=45 + offset)[0]
    return _renamed(_relabelled(ds, lambda i: None if i % 4 == 3
                                else ds.series[i].label), {2: "s\u00e9"})


_K4W2 = ["--k", "4", "--w", "2"]
# name: (data maker, discover flags, evaluate flags, transform needs labels,
#        BLOCK_CHARS or None)
_CASES = {
    "ragged-centroids": (_ragged_centroids,
                         ["--k", "5", "--w", "2", "--centroids"],
                         ["--folds", "2", "--knn-k", "3"], True, None),
    "3ch-per-channel-gaps": (_three_channels, _K4W2,
                             ["--folds", "2", "--knn-k", "3"], False, None),
    "whiten-group-aware": (_whiten_groups,
                           _K4W2 + ["--multivariate-mode", "whiten_collapse"],
                           ["--folds", "3", "--knn-k", "3", "--group-aware"],
                           False, None),
    "quoted-ids": (_quoted_ids, ["--k", "5", "--w", "3"],
                   ["--folds", "2", "--knn-k", "3"], False, None),
    "fallback-block": (_fallback_block, ["--k", "5", "--w", "2"],
                       ["--folds", "2", "--knn-k", "3"], False, 2**10),
    "line-break-id": (_line_break_id, ["--k", "5", "--w", "2"],
                      ["--folds", "2", "--knn-k", "3"], False, 2**10),
    "partial-labels": (_partial_labels, ["--k", "5", "--w", "3"],
                       ["--folds", "2", "--knn-k", "3", "--metric", "auc"],
                       False, None),
}
_SAME_AS = {"ragged-centroids-crlf": "ragged-centroids",
            "ragged-centroids-bom": "ragged-centroids"}

# name: (model JSON, fit features CSV, transform features CSV, evaluate
# report), sha256.
_PINNED = {
    '3ch-per-channel-gaps': (
        "369a05cb870102100497d49ba64bd9ad763a376e327d49ed6e16ccc89e6a7edc",
        "a87d5d5484c05084a8ab8721f4344270af3fbc78e824fc5993f37258f453251f",
        "9b636d4aae85de23588f0ac38f5e9d4dbb06fef4ffd0b325d4998f2f36a06fd7",
        "451122e1b23833b805a4cad23ffdf80e89d2be968e10306afed3f6af9916381f",
    ),
    'fallback-block': (
        "233b90004e51487d25465fa74a535fcc7c71dcfc10244407e5d68051002db74d",
        "0e2188d0a3822227a509fdf015fe3d2d0b8fc7af2351b12445029b627b77475d",
        "8d84f3af4bf0b1628feaa3d988e0206508f7f77cba86d99542a47e3d24886f76",
        "6ee9d726a5b0ab330c4f91f9205445f7157d7d6ec42560bdd8a8207587c0137a",
    ),
    'line-break-id': (
        "115097052459827243cc89647522f9e9f5f3b73a096f93c57815b066466c59ab",
        "5026cb0392da0061125b0e3a460ac0bd86a02213ba936fc0fb3c8a1212f3c006",
        "6ad8394798e4fee6e3befe64982203eaede0c6e6a2008cbd7c776be81dedca29",
        "c9c2b4c5448c2bf12678538396d0f43eb8520f35e0548d69c5bcd0616697aaa1",
    ),
    'partial-labels': (
        "823694f921b35764faab3a127428803ace77ba5d5c4b4ed4da56a41cfb566189",
        "b5f473d0eefb785eb03ebefd664d355d793cf8457a8f6e6b32a7de2e5d59b27d",
        "d4d62a1fccce8bb6fffe92dad816ea10e3aded2118bc9b3186894b02209c1e49",
        "a07f7d0cecd0ee6af781eef5000599abfca7b03532eb9e318557f863857e7c25",
    ),
    'quoted-ids': (
        "b7ffb9de855cf8186e70bd5eda42b1f853e96bf1ca8a92f544bc4d5e19ca4eaf",
        "f98d441418f5d6c444d8d126018ed2a2ca3a03ae89fc14d7d70d22165ce6b037",
        "cd2e87141ff3719fcfdd65f264c2671272bbce4d72db00f900085d10ff76f0fc",
        "fee1d5d51a369199cadb48403d3cb76ef6d44c0463345c33db3ea906b314ff2a",
    ),
    'ragged-centroids': (
        "5c4737a9a3e9c9a9610724bc8cf6a93d7e279ebff1f262640deb60965b1178ee",
        "fbadeb2417f517b3d8bad3614002d5b5704ed7a3dfa0210cd61308451034b97d",
        "5cbac8c4b271b3fddbfa5935b492fa558e805862bbdd4ffcca51a750869d74ab",
        "d29cc4b091df2abcbed255900f4817e67c5a65286bdf91e5f154d9b70b943ad1",
    ),
    'whiten-group-aware': (
        "9c5b42ce9777102e4b9c4547e6783ecc6dd79853886093e86e10809495411239",
        "039132e53ba4468a808e04ae5839a93b3283a4ad4ba7ce66dd8d1b92dadf335d",
        "752c09b2e704423fdcd44a61cf32cf3e40b09290ab6eb5b8eb7ec0b4c196d8f8",
        "2433e75edebba3e81c53177bb25af9ec767c9420dad4ddfed5253e824a99077d",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rewrite(path, case):
    text = path.read_text(encoding="utf-8")
    if case.endswith("-crlf"):
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    elif case.endswith("-bom"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))


@pytest.mark.parametrize("case", sorted([*_CASES, *_SAME_AS]))
def test_cli_outputs_are_byte_identical(case, tmp_path, monkeypatch):
    make, discover, evaluate, transform_labels, block_chars = _CASES[
        _SAME_AS.get(case, case)]
    monkeypatch.chdir(tmp_path)
    if block_chars is not None:
        monkeypatch.setattr(data_io, "BLOCK_CHARS", block_chars)
    dataset_to_csv(make(0), tmp_path / "train.csv", tmp_path / "labels.csv")
    dataset_to_csv(make(100), tmp_path / "test.csv",
                   tmp_path / "test_labels.csv")
    # A label row for an id the data does not have is ignored.
    with open(tmp_path / "labels.csv", "r+", encoding="utf-8") as fh:
        columns = fh.readline().count(",") + 1
        fh.seek(0, 2)
        fh.write("not-in-data,a" + ",g0" * (columns - 2) + "\n")
    for name in ("train.csv", "labels.csv", "test.csv", "test_labels.csv"):
        _rewrite(tmp_path / name, case)
    data = ["--data", "train.csv", "--labels", "labels.csv"]
    assert main(["discover", *data, *discover, "--model-out", "model.json",
                 "--features-out", "train_features.csv"]) == 0
    assert main(["transform", "--model", "model.json", "--data", "test.csv",
                 *(["--labels", "test_labels.csv"] if transform_labels
                   else []),
                 "--features-out", "test_features.csv"]) == 0
    assert main(["evaluate", *data, *discover, *evaluate,
                 "--report-out", "report.txt"]) == 0
    got = tuple(_sha(tmp_path / name)
                for name in ("model.json", "train_features.csv",
                             "test_features.csv", "report.txt"))
    assert got == _PINNED[_SAME_AS.get(case, case)]
