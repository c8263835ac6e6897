"""Pair-merge pattern mining over a flat token corpus.

The miner repeatedly replaces the most frequent adjacent symbol pair with a
fresh symbol, growing a vocabulary of variable-length patterns. Occurrences
are counted non-overlapping, scanning left to right, so a run of the same
symbol of length L holds floor(L/2) occurrences of its self-pair. Merging
stops when the best pair's frequency drops below max(N*P, T*U), where N is
the training series count and T the initial number of adjacent pair slots.

A ``Corpus`` holds every series of one view end to end: one int64 token
array, a non-decreasing series index beside it, and the series count (empty
series included). Fit and encode merge it in place as a linked token array:
tokens keep their indices, next/previous links skip the removed right
halves and end at every series boundary, so no pair crosses one. The
occurrences of (left, right) are looked up in one list that holds only
places where the pair can be: for two base symbols, the pair's slice of an
index of the input's adjacent pairs sorted by pair code; for a merged left,
the indices where left was written; for a base left and a merged right,
the left neighbours of the indices where right was written. This is the
pair-keyed bookkeeping of Re-Pair (Larsson and Moffat, Proc. IEEE 88(11),
2000). A self-pair (a, a) counts only at even offsets inside its run of a,
the non-overlapping left-to-right convention in array form. The miner
keeps an upper bound on every pair count and counts a pair exactly only
when its bound is the largest, so choosing a merge costs O(V) for a
vocabulary of V symbols, not a recount of the corpus; fit_bpe explains
why the bounds stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # Rule i defines base_size + i from symbols defined before it, so
        # a merged operand's position list exists when encode applies it,
        # and applying the rules in learned order reproduces mining.
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
    series, empty ones included. A Corpus is not iterable.
    """

    tokens: np.ndarray
    series: np.ndarray
    n_series: int

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.series = np.asarray(self.series, dtype=np.int64)
        sid = self.series
        if (self.tokens.ndim != 1 or sid.shape != self.tokens.shape
                or np.any(sid[1:] < sid[:-1])
                or sid.size and not 0 <= sid[0] <= sid[-1] < self.n_series):
            raise DataError(f"corpus needs one series index per token, "
                            f"non-decreasing in [0, {self.n_series})")

    def lengths(self) -> np.ndarray:
        """Token count per series."""
        return np.bincount(self.series, minlength=self.n_series)


def _check_alphabet(tokens: np.ndarray, base_size: int, what: str) -> None:
    bad = np.flatnonzero((tokens < 0) | (tokens >= base_size))
    if bad.size:
        raise DataError(f"{what} {tokens[bad[0]]} outside base alphabet "
                        f"[0, {base_size})")


class _Links:
    """A corpus merged in place, shared by fit and encode.

    t holds every token at its original index, -1 where a merge removed
    it, plus one trailing -1 that a -1 link reads. nxt and prv link each
    live token to its live neighbours in the same series, -1 at a series
    end, so no pair crosses a boundary; prv's trailing slot takes the
    writes through a -1 link and is never read.

    Three kinds of list hold every occurrence of a pair, since a merge
    makes only adjacencies with its new symbol and a symbol is written
    only at its own rule's hits. pairs[starts[c]:starts[c + 1]] are the
    input's adjacent base pairs of code c = left * base + right, ascending;
    a pair across a series boundary takes code base * base, so
    starts[base * base] counts the real ones. where[s - base] lists,
    ascending, the indices where the merged symbol s was written; an entry
    whose token has changed since is dropped when the list is next read.
    """

    def __init__(self, corpus: Corpus, base_size: int) -> None:
        tok, sid = corpus.tokens, corpus.series
        self.t = np.append(tok, -1)
        self.series = sid
        self.n_series = corpus.n_series
        self.base = base_size
        # The last token of each series but the final one.
        ends = np.flatnonzero(sid[1:] != sid[:-1])
        self.nxt = np.arange(1, tok.size + 1)
        self.nxt[ends] = -1
        self.nxt[-1:] = -1
        self.prv = np.arange(-1, tok.size)
        self.prv[ends + 1] = -1
        n_codes = base_size * base_size
        codes = tok[:-1] * base_size + tok[1:]
        codes[ends] = n_codes
        self.starts = np.zeros(n_codes + 2, dtype=np.int64)
        np.cumsum(np.bincount(codes, minlength=n_codes + 1),
                  out=self.starts[1:])
        # A stable sort of 16-bit keys is a radix sort, in linear time.
        if n_codes < 1 << 16:
            codes = codes.astype(np.uint16)
        self.pairs = np.argsort(codes, kind="stable")
        self.where: list[np.ndarray] = []

    def live(self, symbol: int) -> np.ndarray:
        """The current positions of merged symbol, ascending; stale
        entries are dropped from its list for good."""
        i = symbol - self.base
        pos = self.where[i]
        pos = self.where[i] = pos[self.t[pos] == symbol]
        return pos

    def corpus(self) -> Corpus:
        live = self.t[:-1] >= 0
        return Corpus(self.t[:-1][live], self.series[live], self.n_series)


def _hits(links: _Links, left: int, right: int) -> np.ndarray:
    """Start indices of the non-overlapping left-to-right occurrences of
    (left, right), ascending. A merged left reads its own position list; a
    base left before a merged right reads the left neighbours of right's
    list; two base symbols read their slice of the pair index."""
    t, nxt, base = links.t, links.nxt, links.base
    if left >= base:
        pos = links.live(left)
        hits = pos[t[nxt[pos]] == right]
    elif right >= base:
        pos = links.prv[links.live(right)]
        hits = pos[t[pos] == left]
    else:
        code = left * base + right
        pos = links.pairs[links.starts[code]:links.starts[code + 1]]
        # A base token still in place keeps its input right neighbour.
        hits = pos[(t[pos] == left) & (t[pos + 1] == right)]
    if left == right and hits.size > 1:
        # A run of L equal symbols holds L-1 starts, each linked to the
        # next; keep those at even offsets from the run's first.
        idx = np.arange(hits.size)
        start = np.ones(hits.size, dtype=bool)
        start[1:] = nxt[hits[:-1]] != hits[1:]
        hits = hits[(idx - np.maximum.accumulate(np.where(start, idx, 0)))
                    % 2 == 0]
    return hits


def _apply(links: _Links, hits: np.ndarray, new: int) -> np.ndarray:
    """Merge the pair starting at each hit into the symbol new, whose
    position list is hits; the right halves die. Returns each hit's new
    right neighbour, -1 at a series end."""
    half = links.nxt[hits]
    after = links.nxt[half]
    links.t[hits] = new
    links.t[half] = -1
    links.nxt[hits] = after
    links.prv[after] = hits
    links.where.append(hits)
    return after


def fit_bpe(corpus: Corpus, base_size: int, P: float = 0.20,
            U: float = 0.001) -> tuple[Vocabulary, Corpus]:
    """Learn a merge-rule vocabulary from a base-symbol corpus; return it
    with the training corpus as the merges left it.

    bound[a, b] is an upper bound on the count of pair (a, b) and
    row_bound[a] one on row a's bounds. Each iteration takes the first
    maximal bound in row-major order and counts that pair exactly with
    _hits; a stale bound is lowered to the count and the choice retried.
    An exact count at the top bound beats every pair and ties only with
    later ones, so ties go to the smallest (left, right), as a full
    recount's argmax would. A merge lowers only the adjacencies around its
    hits: pairs (x, left) and (right, y) with x != left and y != right lose
    exactly one count each, and the pairs of the new symbol are counted
    from its neighbours. A merge never lengthens a run of one symbol and
    never makes an adjacency without the new symbol, so the counts of old
    pairs only fall and every bound stays valid. Choosing a pair costs
    O(V), and each exact count reads the one list _hits takes for the
    pair. The int32 table doubles its side when the vocabulary
    outgrows it. An empty corpus yields an empty vocabulary. N is
    corpus.n_series.
    """
    _check_alphabet(corpus.tokens, base_size, "corpus symbol")
    links = _Links(corpus, base_size)
    t, prv = links.t, links.prv
    n_codes = base_size * base_size
    T = int(links.starts[n_codes])
    threshold = max(corpus.n_series * P, T * U)

    # Adjacency counts, the pair index's slice sizes, bound the self-pair
    # counts, which are smaller.
    cap = 2 * max(base_size, 1)
    bound = np.zeros((cap, cap), dtype=np.int32)
    bound[:base_size, :base_size] = np.diff(
        links.starts[:n_codes + 1]).reshape(base_size, base_size)
    row_bound = bound.max(axis=1)
    rules: list[MergeRule] = []
    while True:
        left = int(row_bound.argmax())
        top = int(row_bound[left])
        if top == 0 or top < threshold:
            break
        right = int(bound[left].argmax())
        if bound[left, right] < top:
            row_bound[left] = bound[left, right]
            continue
        hits = _hits(links, left, right)
        if hits.size < top:
            bound[left, right] = hits.size
            continue

        # Each hit's neighbours: x read before relinking, y after it. Where
        # a hit's right neighbour is the next hit, y reads V and the one
        # adjacency (right, left) lost between them is the next hit's x.
        V = base_size + len(rules)
        x = t[prv[hits]]
        after = _apply(links, hits, V)
        y = t[after]
        # An int32 operand, the table's dtype, keeps ufunc.at off numpy's
        # generic per-element loop; the cost stays proportional to the hits.
        np.subtract.at(bound, (x[(x >= 0) & (x != left)], left), np.int32(1))
        np.subtract.at(bound, (right, y[(y >= 0) & (y < V) & (y != right)]),
                       np.int32(1))
        bound[left, right] = 0
        holders = links.series[hits]
        support = 1 + int(np.count_nonzero(holders[1:] != holders[:-1]))
        rules.append(MergeRule(new_symbol=V, left=left, right=right,
                               train_frequency=int(hits.size),
                               train_series_support=support))

        if V == cap:
            bound = np.pad(bound, (0, cap))
            row_bound = np.pad(row_bound, (0, cap))
            cap *= 2
        # Every adjacency with the new symbol counts once, (V, V) as a y;
        # for (V, V) that bounds the count of its runs.
        x[1:][after[:-1] == hits[1:]] = -1
        bound[:, V] = np.bincount(x[x >= 0], minlength=cap)
        bound[V] = np.bincount(y[y >= 0], minlength=cap)
        np.maximum(row_bound, bound[:, V], out=row_bound)
        row_bound[V] = bound[V].max()

    return (Vocabulary(base_size=base_size, rules=tuple(rules),
                       n_series=corpus.n_series, initial_pair_slots=T,
                       stop_threshold=threshold),
            links.corpus())


def encode_corpus(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Apply the vocabulary's merge rules to a base-alphabet corpus.

    Each rule, in learned order, merges the non-overlapping occurrences
    that _hits finds in one list, not the whole corpus: its slice of the
    pair index when both symbols are base symbols, else the merged left's
    position list, else the left neighbours of the merged right's. Later
    merges never recreate an earlier rule's pair. Input symbols outside
    the base alphabet are a hard error. Applied to a training corpus, this
    reproduces its end-of-training form exactly.
    """
    _check_alphabet(corpus.tokens, vocab.base_size, "symbol")
    links = _Links(corpus, vocab.base_size)
    for rule in vocab.rules:
        _apply(links, _hits(links, rule.left, rule.right), rule.new_symbol)
    return links.corpus()
