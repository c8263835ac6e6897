"""Reference pair miner used as a test oracle.

Recounts every candidate pair from scratch on every iteration with a
per-pair greedy scan. Slow but obviously correct; the production miner must
match it rule for rule. corpus_of and sequences_of convert between the
per-series symbol lists used here and the library's flat Corpus.
"""

from __future__ import annotations

import numpy as np

from pdbpe.bpe import Corpus


def corpus_of(sequences):
    """Flat Corpus of per-series symbol lists, empty series included."""
    parts = [np.asarray(seq, dtype=np.int64) for seq in sequences]
    tokens = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    series = np.repeat(np.arange(len(parts)), [p.size for p in parts])
    return Corpus(tokens, series, len(parts))


def sequences_of(corpus):
    """Per-series token lists of a Corpus."""
    ends = np.cumsum(corpus.lengths()).tolist()
    flat = corpus.tokens.tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def count_one(seq, left, right):
    """Non-overlapping occurrences of (left, right), scanning left to right."""
    count = 0
    i = 0
    while i + 1 < len(seq):
        if seq[i] == left and seq[i + 1] == right:
            count += 1
            i += 2
        else:
            i += 1
    return count


def count_all(corpus):
    """freq and series support for every adjacent pair present in corpus."""
    freq = {}
    support = {}
    for seq in corpus:
        present = set()
        for i in range(len(seq) - 1):
            present.add((seq[i], seq[i + 1]))
        for pair in present:
            c = count_one(seq, pair[0], pair[1])
            if c > 0:
                freq[pair] = freq.get(pair, 0) + c
                support[pair] = support.get(pair, 0) + 1
    return freq, support


def replace_one(seq, left, right, new_symbol):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
            out.append(new_symbol)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def naive_fit(corpus, base_size, P=0.20, U=0.001):
    """Mine merge rules exactly like the library is specified to.

    Returns (rules, final_corpus) where each rule is a tuple
    (new_symbol, left, right, frequency, support).
    """
    seqs = [list(seq) for seq in corpus]
    n_series = len(seqs)
    slots = sum(len(s) - 1 for s in seqs if len(s) > 1)
    threshold = max(n_series * P, slots * U)
    rules = []
    next_symbol = base_size
    while True:
        freq, support = count_all(seqs)
        if not freq:
            break
        best = min(freq, key=lambda p: (-freq[p], p))
        if freq[best] < threshold:
            break
        rules.append((next_symbol, best[0], best[1], freq[best], support[best]))
        seqs = [replace_one(s, best[0], best[1], next_symbol) for s in seqs]
        next_symbol += 1
    return rules, seqs
