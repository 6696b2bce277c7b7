"""Word and address algebra: ordering, truncation, normalization."""

import pytest
from hypothesis import given, strategies as st

from nervetower.words import Address, Word, enumerate_words, word_from_string
from support.pu_nerve import truncate


def symbols(m, min_size=0, max_size=6):
    return st.lists(st.integers(1, m), min_size=min_size, max_size=max_size)


small_m = st.integers(2, 5)


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word((0,), 3)
        with pytest.raises(ValueError):
            Word((4,), 3)
        with pytest.raises(ValueError):
            Word((True,), 3)

    def test_basic_protocol(self):
        w = Word((1, 3, 2), 3)
        assert len(w) == 3
        assert list(w) == [1, 3, 2]
        assert w[0] == 1 and w[2] == 2
        assert str(w) == "132"
        assert w.extended(1) == Word((1, 3, 2, 1), 3)

    def test_str_empty_and_wide(self):
        assert str(Word((), 3)) == "()"
        assert str(Word((10, 2), 12)) == "(10,2)"

    @given(small_m.flatmap(lambda m: st.tuples(st.just(m), symbols(m, 1))))
    def test_string_roundtrip(self, mw):
        m, syms = mw
        w = Word(tuple(syms), m)
        assert word_from_string(str(w), m) == w

    def test_enumerate_words_lex(self):
        ws = enumerate_words(2, 3)
        assert len(ws) == 8
        assert ws == sorted(ws)
        assert str(ws[0]) == "111" and str(ws[-1]) == "222"


class TestAddress:
    def test_normalization_primitive_period(self):
        assert Address(Word((), 3), Word((1, 2, 1, 2), 3)) == \
            Address(Word((), 3), Word((1, 2), 3))

    def test_normalization_absorbs_tail(self):
        # 2(12)^inf reads 2,1,2,1,2,... = (21)^inf
        a = Address(Word((2,), 3), Word((1, 2), 3))
        b = Address(Word((), 3), Word((2, 1), 3))
        assert a == b

    @given(small_m.flatmap(lambda m: st.tuples(
        st.just(m), symbols(m, 0, 4), symbols(m, 1, 4))))
    def test_symbol_at_matches_naive(self, mps):
        m, pre, per = mps
        addr = Address(Word(tuple(pre), m), Word(tuple(per), m))
        naive = list(pre) + [per[i % len(per)] for i in range(40)]
        # normalization may shorten the preperiod, never change the sequence
        for i in range(len(pre) + 20):
            assert addr.symbol_at(i) == naive[i]

    @given(small_m.flatmap(lambda m: st.tuples(
        st.just(m), symbols(m, 0, 4), symbols(m, 1, 4), symbols(m, 0, 4), symbols(m, 1, 4))))
    def test_equal_sequences_equal_objects(self, data):
        m, pre_a, per_a, pre_b, per_b = data
        a = Address(Word(tuple(pre_a), m), Word(tuple(per_a), m))
        b = Address(Word(tuple(pre_b), m), Word(tuple(per_b), m))
        horizon = len(pre_a) + len(pre_b) + 2 * len(per_a) * len(per_b) + 4
        same = all(a.symbol_at(i) == b.symbol_at(i) for i in range(horizon))
        assert (a == b) == same

    def test_constant(self):
        a = Address(Word((), 3), Word((2,), 3))
        assert [a.symbol_at(i) for i in range(4)] == [2, 2, 2, 2]

    @given(small_m.flatmap(lambda m: st.tuples(
        st.just(m), symbols(m, 0, 4), symbols(m, 1, 3), st.integers(0, 8))))
    def test_truncate_prefix(self, data):
        m, pre, per, k = data
        addr = Address(Word(tuple(pre), m), Word(tuple(per), m))
        t = truncate(addr, k)
        assert isinstance(t, Word) and len(t) == k
        assert all(t[i] == addr.symbol_at(i) for i in range(k))


class TestConcat:
    """A word followed by a periodic tail: the address with that preperiod."""

    @given(small_m.flatmap(lambda m: st.tuples(
        st.just(m), symbols(m, 0, 5), symbols(m, 1, 3))))
    def test_truncate_concat_recovers_head(self, data):
        m, head, per = data
        w = Word(tuple(head), m)
        assert truncate(Address(w, Word(tuple(per), m)), len(w)) == w
