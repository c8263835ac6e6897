"""Pair-merge pattern mining over a flat token corpus.

The miner repeatedly replaces the most frequent adjacent symbol pair with a
fresh symbol, growing a vocabulary of variable-length patterns. Occurrences
are counted non-overlapping, scanning left to right, so a run of the same
symbol of length L holds floor(L/2) occurrences of its self-pair. Merging
stops when the best pair's frequency drops below max(N*P, T*U), where N is
the training series count and T the initial number of adjacent pair slots.

A ``Corpus`` holds every series of one view end to end: one int64 token
array, a non-decreasing series index beside it, and the series count (empty
series included). Pairs never cross a series boundary. A self-pair (a, a)
counts only at even offsets inside its run of a, which is the
non-overlapping left-to-right convention in array form. The miner recounts
every pair on each iteration and returns its rules with the merged corpus;
encoding applies each rule to the whole corpus in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class MergeRule:
    """One learned merge: (left, right) -> new_symbol.

    train_frequency is the pair's corpus frequency at merge time;
    train_series_support is the number of distinct training series containing
    the pair at merge time.
    """

    new_symbol: int
    left: int
    right: int
    train_frequency: int
    train_series_support: int


@dataclass(eq=False)
class Vocabulary:
    """Base alphabet plus an ordered list of merge rules.

    New symbols are numbered contiguously from base_size. Diagnostics from
    fitting are kept for reporting: n_series (N), initial_pair_slots (T),
    and the stopping threshold max(N*P, T*U).
    """

    base_size: int
    rules: tuple[MergeRule, ...]
    n_series: int = 0
    initial_pair_slots: int = 0
    stop_threshold: float = 0.0

    def __post_init__(self) -> None:
        # Rule i defines base_size + i from symbols defined before it; then
        # one encode pass per rule, in learned order, reproduces mining.
        for i, rule in enumerate(self.rules):
            if rule.new_symbol != self.base_size + i:
                raise DataError(f"rule {i} defines symbol {rule.new_symbol}, "
                                f"expected {self.base_size + i}")
            if not (0 <= rule.left < rule.new_symbol
                    and 0 <= rule.right < rule.new_symbol):
                raise DataError(f"rule {i} merges ({rule.left}, {rule.right}); "
                                f"both must be in [0, {rule.new_symbol})")

    @property
    def size(self) -> int:
        return self.base_size + len(self.rules)

    def decode(self, symbol: int) -> tuple[int, ...]:
        """Expand a symbol to its base-alphabet sequence, in time linear in
        its length."""
        symbol = int(symbol)
        if not 0 <= symbol < self.size:
            raise DataError(f"unknown symbol {symbol} for vocabulary of size {self.size}")
        out, stack = [], [symbol]
        while stack:
            sym = stack.pop()
            if sym < self.base_size:
                out.append(sym)
            else:
                rule = self.rules[sym - self.base_size]
                stack += (rule.right, rule.left)
        return tuple(out)


@dataclass(eq=False)
class Corpus:
    """Token sequences of many series, held flat.

    tokens holds every series' tokens end to end and series[i] is the index
    of the series token i belongs to, non-decreasing; n_series counts the
    series, empty ones included. A Corpus is not iterable: from_sequences
    and sequences are the only conversions from and to per-series lists.
    """

    tokens: np.ndarray
    series: np.ndarray
    n_series: int

    __iter__ = None

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.series = np.asarray(self.series, dtype=np.int64)
        sid = self.series
        if (self.tokens.ndim != 1 or sid.shape != self.tokens.shape
                or np.any(sid[1:] < sid[:-1])
                or sid.size and not 0 <= sid[0] <= sid[-1] < self.n_series):
            raise DataError(f"corpus needs one series index per token, "
                            f"non-decreasing in [0, {self.n_series})")

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[int]]) -> Corpus:
        """Corpus of per-series symbol lists; a symbol beyond int64 is a
        DataError."""
        seqs = list(sequences)
        try:
            parts = [np.asarray(seq, dtype=np.int64) for seq in seqs]
        except OverflowError:
            bad = next(int(x) for seq in seqs for x in seq
                       if not -2**63 <= int(x) < 2**63)
            raise DataError(f"symbol {bad} outside the int64 range") from None
        tokens = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        series = np.repeat(np.arange(len(parts)), [p.size for p in parts])
        return cls(tokens, series, len(parts))

    def sequences(self) -> list[list[int]]:
        """Per-series token lists."""
        ends = np.cumsum(self.lengths()).tolist()
        flat = self.tokens.tolist()
        return [flat[a:b] for a, b in zip([0] + ends, ends)]

    def lengths(self) -> np.ndarray:
        """Token count per series."""
        return np.bincount(self.series, minlength=self.n_series)


def _check_alphabet(tokens: np.ndarray, base_size: int, what: str) -> None:
    bad = np.flatnonzero((tokens < 0) | (tokens >= base_size))
    if bad.size:
        raise DataError(f"{what} {tokens[bad[0]]} outside base alphabet "
                        f"[0, {base_size})")


def _even_run_offset(pos: np.ndarray) -> np.ndarray:
    """Mask over sorted positions: true where a position's offset from the
    start of its run of consecutive integers is even."""
    idx = np.arange(pos.size)
    start = np.ones(pos.size, dtype=bool)
    start[1:] = np.diff(pos) != 1
    return (idx - np.maximum.accumulate(np.where(start, idx, 0))) % 2 == 0


def _pair_positions(tok: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Start positions of every counted pair occurrence, ascending."""
    counted = same.copy()
    self_pos = np.flatnonzero(same & (tok[:-1] == tok[1:]))
    counted[self_pos[~_even_run_offset(self_pos)]] = False
    return np.flatnonzero(counted)


def _occurrences(tok: np.ndarray, same: np.ndarray, left: int,
                 right: int) -> np.ndarray:
    """Start positions of the non-overlapping left-to-right occurrences of
    (left, right), ascending."""
    pos = np.flatnonzero(same & (tok[:-1] == left) & (tok[1:] == right))
    return pos[_even_run_offset(pos)] if left == right else pos


def _merge(tok: np.ndarray, sid: np.ndarray, hits: np.ndarray,
           new: int) -> tuple[np.ndarray, np.ndarray]:
    """Replace the pairs starting at hits with the symbol new; the inputs
    are left as they are."""
    keep = np.ones(tok.size, dtype=bool)
    keep[hits + 1] = False
    tok, sid = tok[keep], sid[keep]
    # Each earlier hit dropped one token before this one.
    tok[hits - np.arange(hits.size)] = new
    return tok, sid


def fit_bpe(corpus: Corpus, base_size: int, P: float = 0.20,
            U: float = 0.001) -> tuple[Vocabulary, Corpus]:
    """Learn a merge-rule vocabulary from a base-symbol corpus; return it
    with the training corpus as the merges left it.

    Each iteration recounts every pair of the flat corpus with one bincount
    over left*V + right codes (V the current vocabulary size), merges the
    most frequent pair and assigns it the next symbol id from base_size
    upward. argmax takes the first maximum, so ties go to the smallest
    (left, right). An empty corpus yields an empty vocabulary. N is
    corpus.n_series.
    """
    _check_alphabet(corpus.tokens, base_size, "corpus symbol")
    tok, sid = corpus.tokens, corpus.series
    T = int(np.count_nonzero(sid[1:] == sid[:-1]))
    threshold = max(corpus.n_series * P, T * U)

    rules: list[MergeRule] = []
    while True:
        pos = _pair_positions(tok, sid[1:] == sid[:-1])
        if pos.size == 0:
            break
        V = base_size + len(rules)
        codes = tok[pos] * V + tok[pos + 1]
        counts = np.bincount(codes)
        code = int(np.argmax(counts))
        freq = int(counts[code])
        if freq < threshold:
            break
        hits = pos[codes == code]
        holders = sid[hits]
        support = 1 + int(np.count_nonzero(holders[1:] != holders[:-1]))
        rules.append(MergeRule(new_symbol=V, left=code // V, right=code % V,
                               train_frequency=freq,
                               train_series_support=support))
        tok, sid = _merge(tok, sid, hits, V)

    return (Vocabulary(base_size=base_size, rules=tuple(rules),
                       n_series=corpus.n_series, initial_pair_slots=T,
                       stop_threshold=threshold),
            Corpus(tok, sid, corpus.n_series))


def encode_corpus(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Apply the vocabulary's merge rules to a base-alphabet corpus.

    Each rule, in learned order, replaces all its non-overlapping
    occurrences in one vectorized pass; later merges never recreate an
    earlier rule's pair. Input symbols outside the base alphabet are a hard
    error. Applied to a training corpus, this reproduces its end-of-training
    form exactly.
    """
    _check_alphabet(corpus.tokens, vocab.base_size, "symbol")
    tok, sid = corpus.tokens, corpus.series
    for rule in vocab.rules:
        hits = _occurrences(tok, sid[1:] == sid[:-1], rule.left, rule.right)
        if hits.size:
            tok, sid = _merge(tok, sid, hits, rule.new_symbol)
    return Corpus(tok, sid, corpus.n_series)
