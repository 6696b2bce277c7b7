"""Word and address algebra: ordering, truncation, normalization; and the
semantics of the package's slotted value classes."""

import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from nervetower import (BettiTable, Budget, ComponentsLevel, ConvexPolygon,
                        FrozenInstanceError, PairReport, Point2, SimplicialComplex,
                        SingletonReport, SpecFlags, TheoremCheck, Verdict)
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


ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)

# Two words and two periods over one alphabet.
word_quads = small_m.flatmap(lambda m: st.tuples(
    st.just(m), symbols(m, 0, 4), symbols(m, 0, 4), symbols(m, 1, 3), symbols(m, 1, 3)))


def frozen_values(m, u, v, p):
    """A value of each frozen class, built from drawn words."""
    symbols_ = sorted(set(u.symbols + v.symbols + p.symbols))
    corners = [Point2(s, len(u.symbols)) for s in symbols_] + [Point2(0, -1)]
    return (u, Address(v, p),
            Budget(len(u), len(p), len(v)),
            Verdict.disjoint(len(u)) if len(u) % 2 else Verdict.unknown(str(v)),
            ConvexPolygon.hull(corners),
            SimplicialComplex(1, m, {1: tuple((a - 1, b - 1) for a in symbols_
                                              for b in symbols_ if a < b)}, 1, True),
            SpecFlags(injective=len(u) % 2 == 1, pivot=len(p)),
            ComponentsLevel(1, (0,), (), (0,) * m, m))


class TestValueClasses:
    """Words and addresses compare, hash and order as their field tuples; the
    frozen values refuse assignment and round-trip through pickle."""

    @given(word_quads)
    def test_words_and_addresses_compare_as_field_tuples(self, data):
        m, a, b, p, q = data
        u, v = Word(tuple(a), m), Word(tuple(b), m)
        x, y = Address(u, Word(tuple(p), m)), Address(v, Word(tuple(q), m))
        for one, other, fields in ((u, v, lambda w: (w.symbols, w.m)),
                                   (x, y, lambda w: (w.preperiod, w.period))):
            assert (one == other) == (fields(one) == fields(other))
            for order in ORDERINGS:
                assert order(one, other) == order(fields(one), fields(other))
            # the hash of the field tuple keeps set and dict orders as they were
            assert hash(one) == hash(fields(one))
            assert one.__lt__(fields(one)) is NotImplemented
            assert one != fields(one)
        assert sorted([v, u]) == sorted([u, v])

    @given(word_quads)
    def test_frozen_values_refuse_assignment_and_pickle(self, data):
        m, a, b, p, _ = data
        u, v, period = Word(tuple(a), m), Word(tuple(b), m), Word(tuple(p), m)
        for value in frozen_values(m, u, v, period):
            for name in type(value)._fields:
                with pytest.raises(FrozenInstanceError):
                    setattr(value, name, getattr(value, name))
                with pytest.raises(FrozenInstanceError):
                    delattr(value, name)
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and copy is not value
            assert type(copy) is type(value) and copy._astuple() == value._astuple()
            if isinstance(value, SimplicialComplex):
                with pytest.raises(TypeError):  # its `added` is a dict
                    hash(value)
            else:
                assert hash(copy) == hash(value) == hash(value._astuple())

    def test_frozen_error_is_an_attribute_error(self):
        assert issubclass(FrozenInstanceError, AttributeError)
        assert not hasattr(Word((1,), 2), "__dict__")

    def test_reprs_keep_the_record_format(self):
        assert repr(Budget()) == "Budget(refine_depth=8, cert_period_max=2, cert_preperiod_max=1)"
        assert repr(Verdict.disjoint(3)) == "Verdict(kind='disjoint', depth=3, note='')"
        assert repr(Word((1, 2), 3)) == "Word(symbols=(1, 2), m=3)"
        level = SimplicialComplex(1, 2, {1: ((0, 1),)}, 1, True)
        above = SimplicialComplex(2, 2, {}, 1, True, (), level)
        assert repr(above) == ("SimplicialComplex(level=2, m=2, added={}, dim_cap=1, "
                               "complete=True, uncertain=())")

    def test_replace_builds_a_new_complex(self):
        level = SimplicialComplex(1, 3, {1: ((0, 1),)}, 1, True)
        assert level.simplices_of(1) == ((0, 1),)
        other = level.replace(added={1: ((0, 2),)}, complete=False)
        assert other == SimplicialComplex(1, 3, {1: ((0, 2),)}, 1, False)
        assert other.simplices_of(1) == ((0, 2),) and level.simplices_of(1) == ((0, 1),)
        assert level.replace() == level and level.replace() is not level
        with pytest.raises(TypeError):
            level.replace(depth=2)
        above = SimplicialComplex(2, 3, {}, 1, True, block_source=level)
        assert above.uncertain == () and above.replace(level=3).block_source is level

    def test_reports_stay_mutable_and_unhashable(self):
        report = PairReport((1, 2), "ok")
        report.detail = "checked"
        assert report == PairReport((1, 2), "ok", detail="checked")
        assert report != PairReport((1, 2), "ok")
        with pytest.raises(TypeError):
            hash(report)
        assert pickle.loads(pickle.dumps(report)) == report
        # positional, keyword and mixed calls bind to the same fields
        full = PairReport((1, 2), "ok", (), None, "checked", False)
        assert full == report == PairReport(status="ok", detail="checked", pair=(1, 2))
        assert full == PairReport((1, 2), "ok", (), singular=False, detail="checked")
        assert SpecFlags() == SpecFlags(False, False, None) == SpecFlags(pivot=None)
        for args, kwargs in [(((1, 2),), {}),                      # missing
                             (((1, 2), "ok"), {"depth": 3}),         # unknown
                             (((1, 2), "ok"), {"pair": (1, 2)}),     # repeated
                             (((1, 2), "ok", (), None, "", False, 0), {})]:  # surplus
            with pytest.raises(TypeError):
                PairReport(*args, **kwargs)
        # a type among the defaults is a new empty value for each record
        singles = SingletonReport("s", {}, True), SingletonReport("s", {}, True)
        checks = TheoremCheck("t", False, None), TheoremCheck("t", False, None)
        tables = [BettiTable(*[None] * 13) for _ in range(2)]
        assert singles[0].witnesses == {} and singles[0].witnesses is not singles[1].witnesses
        assert checks[0].checks is not checks[1].checks
        assert checks[0].predictions is not checks[1].predictions
        assert tables[0].uncertain == [] and tables[0].uncertain is not tables[1].uncertain
