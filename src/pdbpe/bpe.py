"""Pair-merge pattern mining over symbol corpora.

The miner repeatedly replaces the most frequent adjacent symbol pair with a
fresh symbol, growing a vocabulary of variable-length patterns. Occurrences
are counted non-overlapping, scanning left to right, so a run of the same
symbol of length L holds floor(L/2) occurrences of its self-pair. Merging
stops when the best pair's frequency drops below max(N*P, T*U), where N is
the training series count and T the initial number of adjacent pair slots.

A corpus is held flat: one int64 token array for all series, a series-index
array beside it, and a ``same`` mask that is true where two adjacent tokens
belong to one series. Pairs never cross a series boundary. A self-pair
(a, a) counts only at even offsets inside its run of a, which is the
non-overlapping left-to-right convention in array form. The miner recounts
every pair of the corpus on each iteration; encoding applies each rule to
the whole corpus in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _decoded: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

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
        """Expand a symbol to its base-alphabet sequence."""
        symbol = int(symbol)
        if 0 <= symbol < self.base_size:
            return (symbol,)
        if not self.base_size <= symbol < self.size:
            raise DataError(f"unknown symbol {symbol} for vocabulary of size {self.size}")
        cached = self._decoded.get(symbol)
        if cached is None:
            rule = self.rules[symbol - self.base_size]
            cached = self.decode(rule.left) + self.decode(rule.right)
            self._decoded[symbol] = cached
        return cached


def _flatten(corpus: Iterable[Sequence[int]], base_size: int,
             what: str) -> tuple[np.ndarray, np.ndarray, int]:
    """(tokens, series index per token, series count) of a corpus whose
    symbols must all lie in [0, base_size)."""
    corpus = list(corpus)
    try:
        seqs = [np.asarray(seq, dtype=np.int64) for seq in corpus]
    except OverflowError:
        # A symbol beyond int64 is outside any alphabet; name the first one
        # outside this alphabet, as the array check below would.
        bad_sym = next(int(x) for seq in corpus for x in seq
                       if not 0 <= int(x) < base_size)
        raise DataError(f"{what} {bad_sym} outside base alphabet "
                        f"[0, {base_size})") from None
    lengths = [seq.size for seq in seqs]
    tok = np.concatenate(seqs) if seqs else np.zeros(0, dtype=np.int64)
    bad = np.flatnonzero((tok < 0) | (tok >= base_size))
    if bad.size:
        raise DataError(f"{what} {tok[bad[0]]} outside base alphabet "
                        f"[0, {base_size})")
    return tok, np.repeat(np.arange(len(seqs)), lengths), len(seqs)


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
    """Replace the pairs starting at hits with the symbol new."""
    tok[hits] = new
    keep = np.ones(tok.size, dtype=bool)
    keep[hits + 1] = False
    return tok[keep], sid[keep]


def fit_bpe(corpus: Iterable[Sequence[int]], base_size: int,
            n_series: int | None = None, P: float = 0.20,
            U: float = 0.001) -> Vocabulary:
    """Learn a merge-rule vocabulary from a symbol corpus.

    Each iteration recounts every pair of the flat corpus with one bincount
    over left*V + right codes (V the current vocabulary size), merges the
    most frequent pair and assigns it the next symbol id from base_size
    upward. argmax takes the first maximum, so ties go to the smallest
    (left, right). An empty corpus yields an empty vocabulary. The training
    corpus in its end-of-training form is encode_corpus(corpus, vocab).
    """
    tok, sid, count = _flatten(corpus, base_size, "corpus symbol")
    N = count if n_series is None else n_series
    T = int(np.count_nonzero(sid[1:] == sid[:-1]))
    threshold = max(N * P, T * U)

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

    return Vocabulary(base_size=base_size, rules=tuple(rules), n_series=N,
                      initial_pair_slots=T, stop_threshold=threshold)


def encode_corpus(corpus: Iterable[Sequence[int]],
                  vocab: Vocabulary) -> list[list[int]]:
    """Apply the vocabulary's merge rules to every base-alphabet sequence of
    a corpus.

    Each rule, in learned order, replaces all its non-overlapping
    occurrences in one vectorized pass; later merges never recreate an
    earlier rule's pair. Input symbols outside the base alphabet are a hard
    error. Applied to a training corpus, this reproduces its end-of-training
    form exactly.
    """
    tok, sid, count = _flatten(corpus, vocab.base_size, "symbol")
    for rule in vocab.rules:
        hits = _occurrences(tok, sid[1:] == sid[:-1], rule.left, rule.right)
        if hits.size:
            tok, sid = _merge(tok, sid, hits, rule.new_symbol)
    ends = np.cumsum(np.bincount(sid, minlength=count)).tolist()
    flat = tok.tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def encode(symbols: Sequence[int], vocab: Vocabulary) -> list[int]:
    """Apply the vocabulary's merge rules to one base-alphabet sequence."""
    return encode_corpus([symbols], vocab)[0]


def decode_pattern(symbol: int, vocab: Vocabulary) -> tuple[int, ...]:
    """Expand a vocabulary symbol into its base-alphabet sequence."""
    return vocab.decode(symbol)
