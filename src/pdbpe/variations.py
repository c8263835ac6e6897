"""Series variations derived from a flat corpus of discretized symbols.

Four views of each symbol sequence are mined independently: the sequence
itself (``original``), a run-collapsed form (``rcs``), a run-collapsed form
that keeps duration information relative to the typical run length
(``rcsm``), and the sequence of step-to-step changes (``autoregressive``).

Every view is built from the whole ``Corpus`` at once. A run is a maximal
stretch of one symbol inside one series: a run starts wherever the symbol
changes or a new series starts, so no run crosses a series boundary. ``rcs``
keeps one token per run. ``rcsm`` keeps one copy of a run's symbol when the
run is at most the symbol's fitted median length and exactly two copies
when it is longer; this copy rule lives only in ``view``. ``autoregressive``
takes each step x[t+1] - x[t] inside a series, shifted by K-1 into
[0, 2K-2] for the miner.
"""

from __future__ import annotations

import numpy as np

from .bpe import Corpus
from .core import Variation


def runs(symbols: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) flat index of every run, in corpus order."""
    tok, sid = symbols.tokens, symbols.series
    first = np.ones(tok.size, dtype=bool)
    first[1:] = (tok[1:] != tok[:-1]) | (sid[1:] != sid[:-1])
    starts = np.flatnonzero(first)
    return starts, np.append(starts, tok.size)[1:]


def fit_rcsm_medians(symbols: Corpus) -> dict[int, int]:
    """Typical run length per symbol: the lower median (element (n-1)//2 of
    the sorted lengths) of its runs across all training series."""
    starts, ends = runs(symbols)
    syms = symbols.tokens[starts]
    lengths = ends - starts
    order = np.lexsort((lengths, syms))
    syms, lengths = syms[order], lengths[order]
    first = np.flatnonzero(np.diff(syms, prepend=-1))
    count = np.diff(np.append(first, syms.size))
    pick = first + (count - 1) // 2
    return dict(zip(syms[pick].tolist(), lengths[pick].tolist()))


def view(symbols: Corpus, variation: Variation, medians: dict[int, int],
         K: int) -> tuple[Corpus, np.ndarray, np.ndarray]:
    """One variation of a base-symbol corpus in miner (nonnegative) space,
    with the half-open flat index range [lo, hi) of the base symbols each
    view token stands for. A symbol without a median has median 1.

    With REF = [1,1,2,2,2,0,0,0,4] as one series: rcs gives [1,2,0,4];
    rcsm with every median 2 gives [1,2,2,0,0,4]; autoregressive gives the
    steps [0,1,0,0,-2,0,0,4] shifted by K-1.
    """
    tok, sid = symbols.tokens, symbols.series
    if variation is Variation.ORIGINAL:
        lo = np.arange(tok.size)
        return symbols, lo, lo + 1
    if variation is Variation.AUTOREGRESSIVE:
        lo = np.flatnonzero(sid[1:] == sid[:-1])
        return (Corpus(tok[lo + 1] - tok[lo] + (K - 1), sid[lo],
                       symbols.n_series), lo, lo + 2)
    starts, ends = runs(symbols)
    copies = 1
    if variation is Variation.RCSM:
        median = np.array([medians.get(s, 1) for s in range(K)])
        copies = 1 + (ends - starts > median[tok[starts]])
    lo, hi = np.repeat(starts, copies), np.repeat(ends, copies)
    return Corpus(tok[lo], sid[lo], symbols.n_series), lo, hi
