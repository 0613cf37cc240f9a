"""Unit + property tests for the rank/select bitvector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.bitvector import BitVector


class TestBasics:
    def test_empty(self):
        vector = BitVector.from_bits([])
        assert len(vector) == 0
        assert vector.ones == 0
        assert vector.rank1(0) == 0

    def test_bits_accessible(self):
        vector = BitVector.from_bits([1, 0, 1, 1, 0])
        assert [vector[i] for i in range(5)] == [1, 0, 1, 1, 0]
        assert list(vector) == [1, 0, 1, 1, 0]

    def test_index_errors(self):
        vector = BitVector.from_bits([1, 0])
        with pytest.raises(IndexError):
            vector[2]
        with pytest.raises(IndexError):
            vector[-1]
        with pytest.raises(IndexError):
            vector.rank1(3)
        with pytest.raises(IndexError):
            vector.select1(1)
        with pytest.raises(IndexError):
            vector.select0(1)

    def test_from_bits_word_boundaries(self):
        bits = ([1] * 64) + [0, 1, 0]
        vector = BitVector.from_bits(bits)
        assert len(vector) == 67
        assert list(vector) == bits
        assert vector.ones == 65

    def test_rank_full_prefix(self):
        vector = BitVector.from_bits([1, 1, 0, 1])
        assert vector.rank1(4) == 3
        assert vector.rank0(4) == 1

    def test_select_known_positions(self):
        vector = BitVector.from_bits([0, 1, 0, 0, 1, 1])
        assert vector.select1(0) == 1
        assert vector.select1(1) == 4
        assert vector.select1(2) == 5
        assert vector.select0(0) == 0
        assert vector.select0(2) == 3

    def test_size_bytes_positive_and_scales(self):
        small = BitVector.from_bits([1] * 10)
        large = BitVector.from_bits([1] * 10_000)
        assert 0 < small.size_bytes() < large.size_bytes()


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=600))
@settings(max_examples=80, deadline=None)
def test_rank_matches_naive(bits):
    vector = BitVector.from_bits(bits)
    ones = 0
    for index, bit in enumerate(bits):
        assert vector.rank1(index) == ones
        assert vector.rank0(index) == index - ones
        ones += bit
    assert vector.rank1(len(bits)) == ones


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=600))
@settings(max_examples=80, deadline=None)
def test_select_inverts_rank(bits):
    vector = BitVector.from_bits(bits)
    one_positions = [i for i, bit in enumerate(bits) if bit]
    zero_positions = [i for i, bit in enumerate(bits) if not bit]
    for k, position in enumerate(one_positions):
        assert vector.select1(k) == position
    for k, position in enumerate(zero_positions):
        assert vector.select0(k) == position


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=600))
@settings(max_examples=80, deadline=None)
def test_from_bytes_equals_from_bits(bits):
    assert (BitVector.from_bytes(bytes(bits)).to_snapshot()
            == BitVector.from_bits(bits).to_snapshot())


def _check_splice(bits, start, stop, inserted):
    vector = BitVector.from_bits(bits).splice(start, stop, inserted)
    expected = bits[:start] + inserted + bits[stop:]
    assert len(vector) == len(expected)
    assert list(vector) == expected
    assert vector.ones == sum(expected)
    assert [vector.rank1(i) for i in range(0, len(expected) + 1, 7)] \
        == [sum(expected[:i]) for i in range(0, len(expected) + 1, 7)]
    # Bits past the end stay clear, so the rank directory is exact.
    assert len(vector._words) == -(-len(expected) // 64)


_bit_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=300)


@given(_bit_lists, _bit_lists, st.data())
@settings(max_examples=120, deadline=None)
def test_splice_matches_list_splice(bits, inserted, data):
    start = data.draw(st.integers(0, len(bits)), label="start")
    stop = data.draw(st.integers(start, len(bits)), label="stop")
    _check_splice(bits, start, stop, inserted)


@given(st.integers(min_value=130, max_value=400), _bit_lists, st.randoms())
@settings(max_examples=40, deadline=None)
def test_splice_cuts_at_word_edges(length, inserted, rng):
    bits = [rng.randint(0, 1) for _ in range(length)]
    cuts = (0, 63, 64, 65, length)
    for start in cuts:
        for stop in cuts:
            if start <= stop:
                _check_splice(bits, start, stop, inserted)


def test_splice_rejects_bad_ranges():
    vector = BitVector.from_bits([1, 0, 1])
    for start, stop in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(IndexError):
            vector.splice(start, stop, [1])


def test_splice_to_empty_and_from_empty():
    assert len(BitVector.from_bits([1, 0]).splice(0, 2)) == 0
    assert list(BitVector.from_bits([]).splice(0, 0, [0, 1])) == [0, 1]


@given(st.integers(min_value=1, max_value=3000), st.randoms())
@settings(max_examples=25, deadline=None)
def test_large_random_vectors(length, rng):
    bits = [rng.randint(0, 1) for _ in range(length)]
    vector = BitVector.from_bits(bits)
    # Spot-check a sample of positions against the naive prefix count.
    prefix = [0]
    for bit in bits:
        prefix.append(prefix[-1] + bit)
    for position in rng.sample(range(length + 1), min(50, length + 1)):
        assert vector.rank1(position) == prefix[position]
