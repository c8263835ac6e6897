"""Run-collapse, duration-aware collapse, and step-difference views."""

import itertools
import random
from collections import Counter

import numpy as np

from naive_bpe import corpus_of, sequences_of
from pdbpe.bpe import encode_corpus, fit_bpe
from pdbpe.core import Variation
from pdbpe.features import FeatureDescriptor, FeatureSchema, assemble_matrix
from pdbpe.variations import fit_rcsm_medians, runs, view

REF = [1, 1, 2, 2, 2, 0, 0, 0, 4]


def encode(symbols, vocab):
    """The merge rules applied to one base-alphabet sequence."""
    return encode_corpus(corpus_of([symbols]), vocab).tokens.tolist()


def _view(sequences, variation, medians=None, K=10):
    """Per-series token lists of one view of the given base sequences."""
    corpus, _lo, _hi = view(corpus_of(sequences), variation,
                            medians or {}, K)
    return sequences_of(corpus)


def _rcs(seq):
    return _view([seq], Variation.RCS)[0]


def _rcsm(seq, medians):
    return _view([seq], Variation.RCSM, medians)[0]


def _steps(seq, K=10):
    """Signed step sequence of one series (the autoregressive view with its
    K-1 shift undone)."""
    return [t - (K - 1) for t in _view([seq], Variation.AUTOREGRESSIVE, K=K)[0]]


def _run_triples(seq):
    """(symbol, start, length) of each run of one series."""
    corpus = corpus_of([seq])
    starts, ends = runs(corpus)
    return [(int(corpus.tokens[a]), int(a), int(b - a))
            for a, b in zip(starts, ends)]


def test_rcs_reference_sequence():
    assert _rcs(REF) == [1, 2, 0, 4]


def test_rcsm_reference_sequence_with_medians_of_two():
    medians = {0: 2, 1: 2, 2: 2, 4: 2}
    assert _rcsm(REF, medians) == [1, 2, 2, 0, 0, 4]


def test_autoregressive_reference_sequence():
    assert _steps(REF) == [0, 1, 0, 0, -2, 0, 0, 4]


def test_run_lengths_triples():
    assert _run_triples(REF) == [(1, 0, 2), (2, 2, 3), (0, 5, 3), (4, 8, 1)]
    assert _run_triples([]) == []
    assert _run_triples([7]) == [(7, 0, 1)]


def test_rcs_idempotent_and_no_adjacent_repeats():
    rng = random.Random(17)
    for _ in range(200):
        seq = [rng.randrange(4) for _ in range(rng.randint(0, 50))]
        out = _rcs(seq)
        assert all(out[i] != out[i + 1] for i in range(len(out) - 1))
        assert _rcs(out) == out
        # The collapsed sequence preserves the order of distinct visits.
        assert out == [s for s, _i, _l in _run_triples(seq)]


def test_fit_rcsm_medians_lower_median():
    # Symbol 3 runs have lengths [1, 2, 5]: the median is 2. The run of 3
    # that ends the first series and the one that starts the second are two
    # runs, not one of length 3.
    # Symbol 1 runs have lengths [4, 1]: even count takes the lower value 1.
    corpus = [[3, 3, 3, 3, 3, 1, 3, 3], [3, 1, 1, 1, 1]]
    medians = fit_rcsm_medians(corpus_of(corpus))
    assert medians == {3: 2, 1: 1}
    # Unseen symbols default to 1: a run of two 9s is longer than that.
    assert _rcsm([9], medians) == [9]
    assert _rcsm([9, 9], medians) == [9, 9]


def test_rcsm_never_more_than_two_copies():
    medians = {5: 1}
    assert _rcsm([5] * 10, medians) == [5, 5]
    assert _rcsm([5], medians) == [5]


def test_rcsm_boundary_at_median_emits_one_copy():
    medians = {2: 3}
    assert _rcsm([2, 2, 2], medians) == [2]
    assert _rcsm([2, 2, 2, 2], medians) == [2, 2]


def test_rcsm_randomized_structure():
    rng = random.Random(99)
    for _ in range(100):
        seq = [rng.randrange(3) for _ in range(rng.randint(1, 40))]
        medians = fit_rcsm_medians(corpus_of([seq]))
        out = _rcsm(seq, medians)
        rcs = _rcs(seq)
        # One or two copies per run, same visit order as plain collapse.
        assert len(rcs) <= len(out) <= 2 * len(rcs)
        assert _rcs(out) == rcs


def test_autoregressive_edge_cases():
    assert _steps([]) == []
    assert _steps([3]) == []
    assert _steps([1, 4]) == [3]


def test_offset_round_trip_covers_full_step_range():
    K = 5
    diffs = list(range(-(K - 1), K))
    # One two-symbol series per step size, from 0..K-1 into 0..K-1.
    series = [[max(0, -d), max(0, -d) + d] for d in diffs]
    enc = [tok for seq in _view(series, Variation.AUTOREGRESSIVE, K=K)
           for tok in seq]
    assert enc[0] == 0 and enc[-1] == 2 * K - 2
    assert [t - (K - 1) for t in enc] == diffs


# --- flat views against a per-series reference ------------------------------

def _ref_runs(seq):
    """(symbol, start, end) of each run of one series."""
    out, start = [], 0
    for sym, group in itertools.groupby(seq):
        length = len(list(group))
        out.append((sym, start, start + length))
        start += length
    return out


def _ref_medians(corpus):
    lengths = {}
    for seq in corpus:
        for sym, start, end in _ref_runs(seq):
            lengths.setdefault(sym, []).append(end - start)
    return {sym: sorted(v)[(len(v) - 1) // 2] for sym, v in lengths.items()}


def _ref_view(seq, variation, medians, K):
    """Tokens of one series' view and, per token, its [lo, hi) range."""
    if variation is Variation.ORIGINAL:
        return [(s, i, i + 1) for i, s in enumerate(seq)]
    if variation is Variation.AUTOREGRESSIVE:
        return [(b - a + K - 1, i, i + 2)
                for i, (a, b) in enumerate(zip(seq, seq[1:]))]
    out = []
    for sym, start, end in _ref_runs(seq):
        copies = 1
        if (variation is Variation.RCSM
                and end - start > medians.get(sym, 1)):
            copies = 2
        out += [(sym, start, end)] * copies
    return out


def _random_corpus(rng, K):
    """Series that include empty and length-1 ones, and runs that end one
    series and start the next with the same symbol."""
    corpus = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.15:
            seq = []
        elif kind < 0.3:
            seq = [rng.randrange(K)]
        else:
            seq = []
            while len(seq) < rng.randint(2, 25):
                seq += [rng.randrange(K)] * rng.randint(1, 5)
        if corpus and corpus[-1] and seq and rng.random() < 0.5:
            seq[0] = corpus[-1][-1]
        corpus.append(seq)
    return corpus


def _count_matrix(corpus, symbols):
    """assemble_matrix rows of a corpus over the given symbol columns."""
    columns = tuple(FeatureDescriptor("v", Variation.ORIGINAL, s, (s,),
                                      f"v.original.S{s}", False)
                    for s in symbols)
    return assemble_matrix(corpus.n_series,
                           {("v", Variation.ORIGINAL): corpus},
                           FeatureSchema(columns))


def test_flat_views_match_per_series_reference():
    rng = random.Random(2026)
    for trial in range(300):
        K = rng.randint(2, 6)
        corpus = _random_corpus(rng, K)
        symbols = corpus_of(corpus)
        fitted = fit_rcsm_medians(symbols)
        assert fitted == _ref_medians(corpus), trial
        # A loaded table may lack symbols; those default to 1.
        loaded = dict(fitted)
        if loaded:
            del loaded[rng.choice(sorted(loaded))]
        for medians in (fitted, loaded):
            for variation in Variation:
                got, lo, hi = view(symbols, variation, medians, K)
                first = np.cumsum(symbols.lengths()) - symbols.lengths()
                local = [(int(t), int(a - first[s]), int(b - first[s]))
                         for t, a, b, s in zip(got.tokens, lo, hi,
                                               got.series)]
                want = [_ref_view(seq, variation, medians, K)
                        for seq in corpus]
                assert sequences_of(got) == [[t for t, _a, _b in w]
                                           for w in want], (trial, variation)
                assert local == [x for w in want for x in w], trial
                base = 2 * K - 1
                vocab, encoded = fit_bpe(got, base, P=0.0, U=0.01)
                columns = list(range(vocab.size + 1))
                rows = _count_matrix(encoded, columns)
                for row, seq in zip(rows, sequences_of(got)):
                    tokens = encode(seq, vocab)
                    counts = Counter(tokens)
                    want_row = [counts[c] / len(tokens) if tokens else 0.0
                                for c in columns]
                    assert row.tolist() == want_row, (trial, variation)
