"""Pair counting and merge mining, checked against the naive recount oracle."""

import random
from collections import Counter

import pytest

from naive_bpe import (corpus_of, count_all, naive_fit, replace_one,
                       sequences_of)
from pdbpe import DataError
from pdbpe.bpe import Corpus, MergeRule, Vocabulary, encode_corpus, fit_bpe


def encode(symbols, vocab):
    """The merge rules applied to one base-alphabet sequence."""
    return encode_corpus(corpus_of([symbols]), vocab).tokens.tolist()


def _first_rule(corpus, base_size):
    """(left, right, frequency, support) of the first merge with no stopping
    floor, or None when the corpus has no pair."""
    vocab, _ = fit_bpe(corpus_of(corpus), base_size, P=0.0, U=0.0)
    if not vocab.rules:
        return None
    r = vocab.rules[0]
    return r.left, r.right, r.train_frequency, r.train_series_support


def test_pair_counts_run_semantics():
    # A run of length L holds floor(L/2) self-pairs.
    assert _first_rule([[7, 7, 7]], 8) == (7, 7, 1, 1)
    assert _first_rule([[7] * 4], 8) == (7, 7, 2, 1)
    assert _first_rule([[7] * 5], 8) == (7, 7, 2, 1)
    # Alternating symbols never self-pair; each boundary counts once.
    assert count_all([[0, 1, 0, 1]])[0] == {(0, 1): 2, (1, 0): 1}
    assert _first_rule([[0, 1, 0, 1]], 2) == (0, 1, 2, 1)
    assert _first_rule([[]], 4) is None
    assert _first_rule([[3]], 4) is None


def test_count_pairs_support_is_per_series():
    corpus = corpus_of([[0, 1, 0, 1], [0, 1], [2, 2]])
    vocab, _ = fit_bpe(corpus, 3, P=0.0, U=0.0)
    rules = [(r.left, r.right, r.train_frequency, r.train_series_support)
             for r in vocab.rules]
    assert rules[0] == (0, 1, 3, 2)
    # After the merge, (2, 2) and (3, 3) both occur once; the smaller wins.
    assert rules[1] == (2, 2, 1, 1)


def test_pair_counts_match_naive_scan():
    rng = random.Random(4321)
    for _ in range(300):
        seq = [rng.randrange(5) for _ in range(rng.randint(0, 60))]
        freq, _support = count_all([seq])
        want = None
        if freq:
            best = min(freq, key=lambda p: (-freq[p], p))
            want = (*best, freq[best], 1)
        assert _first_rule([seq], 5) == want


def test_single_merge_worked_example():
    # One series [0,1,0,1,0,1]: T = 5 slots, threshold = max(1*0.2, 5*0.4)
    # = 2.0. (0,1) occurs 3 times -> merged into symbol 2; the second round
    # best pair (2,2) has frequency 1 < 2, so mining stops.
    corpus = corpus_of([[0, 1, 0, 1, 0, 1]])
    vocab, merged = fit_bpe(corpus, base_size=2, P=0.2, U=0.4)
    assert len(vocab.rules) == 1
    rule = vocab.rules[0]
    assert (rule.new_symbol, rule.left, rule.right) == (2, 0, 1)
    assert rule.train_frequency == 3
    assert rule.train_series_support == 1
    assert sequences_of(encode_corpus(corpus, vocab)) == [[2, 2, 2]]
    assert sequences_of(merged) == [[2, 2, 2]]
    assert vocab.initial_pair_slots == 5
    assert vocab.stop_threshold == 2.0


def test_first_merge_is_most_frequent_pair():
    # (1, 0) dominates; it must be merged first and get symbol base_size.
    corpus = [[1, 0, 2, 1, 0, 1, 0], [1, 0, 1, 0, 2]]
    vocab, _ = fit_bpe(corpus_of(corpus), base_size=3, P=0.2,
                       U=0.001)
    first = vocab.rules[0]
    assert (first.left, first.right) == (1, 0)
    assert first.new_symbol == 3
    assert first.train_frequency == 5
    assert first.train_series_support == 2


def test_tie_break_prefers_smallest_pair():
    # (0,1) and (2,3) both occur twice; the lexicographically smaller pair
    # must win the first merge.
    corpus = [[2, 3, 0, 1], [0, 1, 2, 3]]
    vocab, _ = fit_bpe(corpus_of(corpus), base_size=4, P=0.4,
                       U=0.001)
    assert (vocab.rules[0].left, vocab.rules[0].right) == (0, 1)


def test_threshold_is_max_of_series_and_slot_floors():
    # 10 identical series of length 11: N=10, T=100.
    corpus = [[0, 1] * 5 + [0] for _ in range(10)]
    vocab, _ = fit_bpe(corpus_of(corpus), base_size=2, P=0.5,
                       U=0.03)
    assert vocab.n_series == 10
    assert vocab.initial_pair_slots == 100
    assert vocab.stop_threshold == max(10 * 0.5, 100 * 0.03)


def test_threshold_boundary_is_inclusive():
    # Frequency exactly at the threshold still merges; only strictly below
    # stops. Threshold = max(1*0.2, 9*(1/3)) = 3.0 and (0,1) occurs 3 times.
    vocab, _ = fit_bpe(corpus_of([[0, 1, 2, 0, 1, 2, 0, 1, 2, 2]]),
                       base_size=3, P=0.2, U=1.0 / 3.0)
    assert any((r.left, r.right) == (0, 1) for r in vocab.rules[:1])


def test_short_series_contribute_no_slots():
    vocab, _ = fit_bpe(corpus_of([[0], [], [0, 1, 1]]),
                       base_size=2)
    assert vocab.initial_pair_slots == 2
    assert vocab.n_series == 3


def test_empty_corpus_yields_empty_vocabulary():
    vocab, _ = fit_bpe(corpus_of([]), base_size=4)
    assert vocab.rules == ()
    assert vocab.size == 4
    assert vocab.stop_threshold == 0.0


def test_out_of_range_symbols_rejected():
    with pytest.raises(DataError):
        fit_bpe(corpus_of([[0, 5]]), base_size=4)
    with pytest.raises(DataError):
        fit_bpe(corpus_of([[-1, 0]]), base_size=4)
    with pytest.raises(DataError, match="corpus symbol 5 outside"):
        fit_bpe(corpus_of([[0, 5, 7]]), base_size=4)
    vocab, _ = fit_bpe(corpus_of([[0, 1, 0, 1]]), base_size=2)
    with pytest.raises(DataError, match="symbol 2 outside"):
        encode_corpus(corpus_of([[0, 1], [2]]), vocab)


@pytest.mark.parametrize("series, n_series", [
    ([0, 1, 0], 2), ([0, 0, 2], 2), ([1, 1, 1], 1), ([-1, 0, 0], 2),
    ([0, 0], 2)],
    ids=["decreasing", "at-n-series", "above-n-series", "negative",
         "one-per-token"])
def test_corpus_refuses_a_bad_series_index(series, n_series):
    with pytest.raises(DataError, match=r"non-decreasing in \[0, "
                       + str(n_series) + r"\)"):
        Corpus([3, 4, 5], series, n_series)


def test_corpus_is_not_iterable():
    corpus = Corpus([3, 4, 5], [0, 0, 2], 3)
    assert corpus.lengths().tolist() == [2, 0, 1]
    with pytest.raises(TypeError, match="'Corpus' object is not iterable"):
        iter(corpus)
    with pytest.raises(TypeError, match="'Corpus' object is not iterable"):
        list(corpus)


@pytest.mark.parametrize("rule,message", [
    (MergeRule(3, 0, 1, 1, 1), "rule 0 defines symbol 3, expected 2"),
    (MergeRule(2, 0, 2, 1, 1), r"rule 0 merges \(0, 2\)"),
    (MergeRule(2, -1, 0, 1, 1), r"rule 0 merges \(-1, 0\)")],
    ids=["symbol-gap", "forward-operand", "negative-operand"])
def test_vocabulary_rejects_rules_encode_cannot_replay(rule, message):
    with pytest.raises(DataError, match=message):
        Vocabulary(base_size=2, rules=(rule,))


def test_decode_expands_nested_rules():
    vocab, _ = fit_bpe(corpus_of([[0, 1, 0, 1, 0, 1, 0, 1]]),
                       base_size=2, P=0.2, U=0.1)
    # First merge (0,1)->2, then (2,2)->3.
    assert [(r.left, r.right) for r in vocab.rules[:2]] == [(0, 1), (2, 2)]
    assert vocab.decode(3) == (0, 1, 0, 1)
    assert vocab.decode(2) == (0, 1)
    assert vocab.decode(1) == (1,)
    with pytest.raises(DataError):
        vocab.decode(99)


def test_decode_handles_deep_rule_chains():
    # Rule i merges the symbol of rule i-1 with 0: nesting 1,200 levels deep.
    base = 2
    rules = [MergeRule(base, 1, 0, 1, 1)] + [
        MergeRule(base + i, base + i - 1, 0, 1, 1) for i in range(1, 1200)]
    vocab = Vocabulary(base_size=base, rules=tuple(rules))
    assert vocab.decode(vocab.size - 1) == (1,) + (0,) * 1200


def test_encode_reproduces_training_form():
    rng = random.Random(2024)
    for _ in range(100):
        corpus = [[rng.randrange(4) for _ in range(rng.randint(0, 40))]
                  for _ in range(rng.randint(1, 8))]
        vocab, merged = fit_bpe(corpus_of(corpus), base_size=4)
        _rules, final_corpus = naive_fit(corpus, 4)
        encoded = encode_corpus(corpus_of(corpus), vocab)
        assert sequences_of(encoded) == sequences_of(merged) == final_corpus
        for original, final in zip(corpus, final_corpus):
            assert encode(original, vocab) == final


def test_encode_decode_round_trip_on_unseen_data():
    rng = random.Random(55)
    corpus = [[rng.randrange(3) for _ in range(30)] for _ in range(6)]
    vocab, _ = fit_bpe(corpus_of(corpus), base_size=3)
    for _ in range(200):
        fresh = [rng.randrange(3) for _ in range(rng.randint(0, 50))]
        enc = encode(fresh, vocab)
        flat = [b for sym in enc for b in vocab.decode(sym)]
        assert flat == fresh


def test_encode_rejects_non_base_symbols():
    vocab, _ = fit_bpe(corpus_of([[0, 1, 0, 1, 0, 1]]),
                       base_size=2)
    with pytest.raises(DataError):
        encode([0, 2], vocab)


def _rule_kind(rule, base_size):
    """Which occurrence list _hits reads for the rule, and the self-pair
    of a merged symbol, whose even-offset rule reads its own list."""
    if rule.left < base_size and rule.right < base_size:
        return "base with base"
    if rule.left == rule.right:
        return "merged self-pair"
    return "merged left" if rule.left >= base_size else "merged right"


def test_miner_matches_naive_oracle_on_random_corpora():
    # Runs of one symbol make self-pairs of base and merged symbols; a
    # threshold of 0 mines until no pair repeats.
    rng = random.Random(777)
    kinds = Counter()
    for trial in range(250):
        alphabet = rng.randint(2, 6)
        corpus = []
        for _ in range(rng.randint(1, 10)):
            length, seq = rng.randint(0, 30), []
            while len(seq) < length:
                run = rng.choice([1, 1, 1, 2, 4, 8])
                seq += [rng.randrange(alphabet)] * run
            corpus.append(seq[:length])
        P = rng.choice([0.0, 0.1, 0.2, 0.5])
        U = rng.choice([0.0, 0.001, 0.05, 0.2])
        vocab, merged = fit_bpe(corpus_of(corpus),
                                base_size=alphabet, P=P, U=U)
        want_rules, want_seqs = naive_fit(corpus, alphabet, P=P, U=U)
        got_rules = [(r.new_symbol, r.left, r.right, r.train_frequency,
                      r.train_series_support) for r in vocab.rules]
        assert got_rules == want_rules, f"trial {trial}"
        encoded = encode_corpus(corpus_of(corpus), vocab)
        assert sequences_of(encoded) == want_seqs, f"trial {trial}"
        assert sequences_of(merged) == want_seqs, f"trial {trial}"
        kinds.update(_rule_kind(r, alphabet) for r in vocab.rules)
    assert set(kinds) == {"base with base", "merged left", "merged right",
                          "merged self-pair"}, kinds


def _assert_matches_oracle(corpus, base_size, P, U):
    """fit_bpe equals naive_fit rule for rule, and its merged corpus,
    encode_corpus and per-series encode all give naive_fit's final corpus."""
    vocab, merged = fit_bpe(corpus_of(corpus), base_size, P=P, U=U)
    want_rules, want_seqs = naive_fit(corpus, base_size, P=P, U=U)
    assert [(r.new_symbol, r.left, r.right, r.train_frequency,
             r.train_series_support) for r in vocab.rules] == want_rules
    encoded = encode_corpus(corpus_of(corpus), vocab)
    assert sequences_of(encoded) == sequences_of(merged) == want_seqs
    assert [encode(seq, vocab) for seq in corpus] == want_seqs
    return vocab


def test_self_pair_run_across_series_boundary():
    # Two runs of 0 meet at a series boundary: each holds one (0, 0), and
    # the pair never spans the boundary.
    vocab = _assert_matches_oracle([[1, 0, 0, 0], [0, 0, 0, 1]], 2, 0.0, 0.0)
    assert vocab.rules[0] == MergeRule(2, 0, 0, 2, 2)
    rng = random.Random(31)
    for _ in range(200):
        corpus = [[0] * rng.randint(0, 5)
                  + [rng.randrange(3) for _ in range(rng.randint(0, 8))]
                  + [0] * rng.randint(0, 5)
                  for _ in range(rng.randint(2, 6))]
        _assert_matches_oracle(corpus, 3, rng.choice([0.0, 0.2]),
                               rng.choice([0.0, 0.05]))


def test_empty_and_single_symbol_series_between_others():
    rng = random.Random(32)
    for _ in range(200):
        corpus = [rng.choice([[], [rng.randrange(3)],
                              [rng.randrange(3)
                               for _ in range(rng.randint(2, 20))]])
                  for _ in range(rng.randint(1, 8))]
        _assert_matches_oracle(corpus, 3, rng.choice([0.0, 0.2]),
                               rng.choice([0.0, 0.05]))


@pytest.mark.parametrize("n_series,length", [(4, 20), (12, 500)])
def test_large_base_alphabet(n_series, length):
    # K=100 step differences: 199 base symbols, mostly near the zero step
    # (99) with the extremes 0 and 198 mixed in. The small corpus has far
    # fewer pair slots than the 199*199 pair-count table; the large one has
    # more.
    rng = random.Random(33 + length)
    symbols = [0, 96, 97, 98, 99, 99, 99, 100, 101, 102, 198]
    corpus = [[rng.choice(symbols) for _ in range(length)]
              for _ in range(n_series)]
    vocab = _assert_matches_oracle(corpus, 199, 0.2, 0.01)
    assert vocab.rules


def test_consecutive_hits_share_one_boundary():
    # Hits of (0, 1) back to back: each (1, 0) between them is the right
    # neighbour of one hit and the left neighbour of the next, and is lost
    # once; the merge makes (2, 2) adjacencies in its place.
    for corpus in ([[0, 1, 0, 1, 0, 1, 2]], [[2, 0, 1, 0, 1, 2, 0, 1, 0, 1]],
                   [[0, 1] * 6, [1, 0] * 5, [0, 1, 0]]):
        for P, U in ((0.0, 0.0), (0.2, 0.05)):
            _assert_matches_oracle(corpus, 3, P, U)
    rng = random.Random(34)
    for _ in range(200):
        corpus = [[s for _ in range(rng.randint(0, 8))
                   for s in rng.choice([[0, 1], [1, 0], [0, 1, 2], [2]])]
                  for _ in range(rng.randint(1, 4))]
        _assert_matches_oracle(corpus, 3, 0.0, 0.0)


@pytest.mark.parametrize("run", [1, 2, 3, 4, 5, 6])
def test_runs_next_to_a_hit(run):
    # A run of the left symbol before a hit, or of the right symbol after
    # one, is shortened by the merge; its self-pair count falls by one when
    # its length is even and stays when odd.
    for corpus in ([[0] * run + [1]], [[0] + [1] * run],
                   [[0] * run + [1] * run], [[1] + [0] * run + [1, 2]],
                   [[0] * run + [1, 2] + [1] * run, [0, 0, 1, 1]]):
        _assert_matches_oracle(corpus, 3, 0.0, 0.0)
        _assert_matches_oracle(corpus * 3, 3, 0.2, 0.0)


@pytest.mark.parametrize("alphabet", [1, 2, 3])
def test_mining_to_exhaustion_outgrows_the_bound_table(alphabet):
    # With P = U = 0 mining stops only when no pair is left, so the
    # vocabulary grows well past twice the base alphabet.
    rng = random.Random(35 + alphabet)
    for _ in range(20):
        corpus = [[rng.randrange(alphabet) for _ in range(rng.randint(0, 40))]
                  for _ in range(rng.randint(1, 4))]
        _assert_matches_oracle(corpus, alphabet, 0.0, 0.0)
    corpus = [[rng.randrange(alphabet) for _ in range(60)] for _ in range(3)]
    vocab = _assert_matches_oracle(corpus, alphabet, 0.0, 0.0)
    assert vocab.size > 8 * alphabet


def test_encode_unseen_corpus_where_rules_find_no_left_symbol():
    # Rules learned over symbol 2, and every symbol built from it, find no
    # occurrence in a corpus without 2; the other rules still apply.
    rng = random.Random(36)
    train = [[0, 1, 2, 2, 0, 1, 2] * 4, [2, 2, 2, 0, 1] * 3,
             [0, 0, 0, 1, 1, 1, 0, 0] * 2]
    vocab, _ = fit_bpe(corpus_of(train), 3, P=0.0, U=0.0)
    assert any(2 in vocab.decode(r.left) for r in vocab.rules)
    for _ in range(100):
        fresh = [[rng.randrange(2) for _ in range(rng.randint(0, 30))]
                 for _ in range(rng.randint(1, 5))]
        want = fresh
        for r in vocab.rules:
            want = [replace_one(seq, r.left, r.right, r.new_symbol)
                    for seq in want]
        assert sequences_of(encode_corpus(corpus_of(fresh), vocab)) == want


def test_oracle_helpers_agree_on_simple_case():
    freq, support = count_all([[0, 0, 0, 1], [0, 1]])
    assert freq == {(0, 0): 1, (0, 1): 2}
    assert support == {(0, 0): 1, (0, 1): 2}
