"""An immutable bitvector with rank and select support.

This is the primitive underneath the balanced-parentheses representation of
the succinct storage scheme.  Bits are packed into 64-bit words; a prefix
popcount directory gives

* ``rank1(i)`` / ``rank0(i)`` in O(1),
* ``select1(k)`` / ``select0(k)`` in O(log n) by binary search on the
  directory plus an in-word scan.

The space overhead of the directory is one 64-bit count per word — the
pure-Python analogue of the o(n) directory in the literature.  The
:meth:`BitVector.size_bytes` accounting used by experiment E1 charges the
*information-theoretic* payload (n bits) plus the directory, mirroring how
the paper accounts for its structure storage.

Updates never rebuild a vector bit by bit: :meth:`BitVector.splice` views
the packed words as one Python integer and cuts, shifts and ors it, so a
local splice costs a handful of C-level big-integer operations however far
the tail moves.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import Iterable, Iterator

__all__ = ["BitVector", "BitVectorBuilder"]

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1
_WORD_BYTES = WORD_BITS // 8
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def pack_words(words: list[int]) -> bytes:
    """The words as little-endian bytes (bit ``i`` of the vector is bit
    ``i % 8`` of byte ``i // 8``)."""
    packed = array("Q", words)
    if sys.byteorder != "little":  # pragma: no cover
        packed.byteswap()
    return packed.tobytes()


def unpack_words(data: bytes) -> list[int]:
    """Inverse of :func:`pack_words` (``len(data)`` is a multiple of 8)."""
    packed = array("Q")
    packed.frombytes(data)
    if sys.byteorder != "little":  # pragma: no cover
        packed.byteswap()
    return packed.tolist()


class BitVectorBuilder:
    """Accumulates bits (in order) and builds an immutable
    :class:`BitVector`."""

    __slots__ = ("_words", "_length", "_current", "_filled")

    def __init__(self):
        self._words: list[int] = []
        self._length = 0
        self._current = 0
        self._filled = 0

    def append(self, bit: int) -> None:
        """Append a single bit (``0``/``1`` or a boolean)."""
        if bit:
            self._current |= 1 << self._filled
        self._filled += 1
        self._length += 1
        if self._filled == WORD_BITS:
            self._words.append(self._current)
            self._current = 0
            self._filled = 0

    def extend(self, bits: Iterable[int]) -> None:
        """Append every bit of ``bits``."""
        for bit in bits:
            self.append(bit)

    def __len__(self) -> int:
        return self._length

    def build(self) -> "BitVector":
        """Finish and return the immutable bitvector."""
        words = list(self._words)
        if self._filled:
            words.append(self._current)
        return BitVector(words, self._length)


class BitVector:
    """Immutable sequence of bits with O(1) rank and O(log n) select.

    Construct through :class:`BitVectorBuilder` or
    :meth:`BitVector.from_bits`.
    """

    __slots__ = ("_words", "_length", "_cum")

    def __init__(self, words: list[int], length: int):
        if length > len(words) * WORD_BITS:
            raise ValueError("length exceeds supplied words")
        self._words = words
        self._length = length
        # _cum[k] = number of set bits in words[:k]; len == len(words) + 1.
        self._cum = list(accumulate(map(int.bit_count, words), initial=0))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build a bitvector from an iterable of 0/1 values."""
        builder = BitVectorBuilder()
        builder.extend(bits)
        return builder.build()

    # -- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if index < 0 or index >= self._length:
            raise IndexError(f"bit index {index} out of range")
        return (self._words[index // WORD_BITS] >> (index % WORD_BITS)) & 1

    def __iter__(self) -> Iterator[int]:
        """Iterate bits word-wise: one word fetch per 64 bits, shifting
        within the cached word, instead of a bounds-checked
        ``__getitem__`` (divmod + list index + shift) per bit.

        This is for consumers that want the bits in order (tests,
        round-trip checks); updates go through :meth:`splice`, which
        never visits bits one at a time.
        """
        full_words, tail_bits = divmod(self._length, WORD_BITS)
        for word_index in range(full_words):
            word = self._words[word_index]
            for _ in range(WORD_BITS):
                yield word & 1
                word >>= 1
        if tail_bits:
            word = self._words[full_words]
            for _ in range(tail_bits):
                yield word & 1
                word >>= 1

    def splice(self, start: int, stop: int,
               bits: Iterable[int] = ()) -> "BitVector":
        """A new vector equal to this one with positions ``[start, stop)``
        replaced by ``bits`` (list-slice assignment semantics).

        The packed words are read as one little-endian integer; the head
        is masked off, the tail shifted past the inserted bits and the
        three parts or-ed together, then written back as words — all in
        C-level big-integer arithmetic, so the cost does not depend on
        the interpreter visiting the shifted tail bit by bit.
        """
        if not 0 <= start <= stop <= self._length:
            raise IndexError(
                f"splice [{start}, {stop}) out of range "
                f"(length {self._length})")
        inserted = bytes(bits)
        value = int.from_bytes(pack_words(self._words), "little")
        middle = int(inserted[::-1].translate(_ASCII_BITS) or b"0", 2)
        value = ((value & ((1 << start) - 1))
                 | (middle << start)
                 | ((value >> stop) << (start + len(inserted))))
        length = self._length - (stop - start) + len(inserted)
        word_count = -(-length // WORD_BITS)
        return BitVector(
            unpack_words(value.to_bytes(word_count * _WORD_BYTES, "little")),
            length)

    @property
    def ones(self) -> int:
        """Total number of set bits."""
        return self._cum[-1]

    @property
    def zeros(self) -> int:
        """Total number of clear bits."""
        return self._length - self._cum[-1]

    # -- rank ----------------------------------------------------------------

    def rank1(self, index: int) -> int:
        """Number of set bits in positions ``[0, index)``.

        ``index`` may equal ``len(self)`` (full-prefix rank).
        """
        if index < 0 or index > self._length:
            raise IndexError(f"rank position {index} out of range")
        word_index, offset = divmod(index, WORD_BITS)
        partial = 0
        if offset:
            partial = (self._words[word_index]
                       & ((1 << offset) - 1)).bit_count()
        return self._cum[word_index] + partial

    def rank0(self, index: int) -> int:
        """Number of clear bits in positions ``[0, index)``."""
        if index < 0 or index > self._length:
            raise IndexError(f"rank position {index} out of range")
        return index - self.rank1(index)

    # -- select ---------------------------------------------------------------

    def select1(self, k: int) -> int:
        """Position of the ``k``-th set bit (0-based).

        Raises ``IndexError`` when there are fewer than ``k + 1`` set bits.
        """
        if k < 0 or k >= self.ones:
            raise IndexError(f"select1({k}) out of range (ones={self.ones})")
        word_index = self._find_word(self._cum, k)
        remaining = k - self._cum[word_index]
        return (word_index * WORD_BITS
                + _select_in_word(self._words[word_index], remaining))

    def select0(self, k: int) -> int:
        """Position of the ``k``-th clear bit (0-based)."""
        if k < 0 or k >= self.zeros:
            raise IndexError(f"select0({k}) out of range (zeros={self.zeros})")
        # Binary search on zero-rank = index*WORD_BITS - cum[index].
        low, high = 0, len(self._words)
        while low < high:
            mid = (low + high) // 2
            zeros_before = mid * WORD_BITS - self._cum[mid]
            if zeros_before <= k:
                low = mid + 1
            else:
                high = mid
        word_index = low - 1
        remaining = k - (word_index * WORD_BITS - self._cum[word_index])
        inverted = (~self._words[word_index]) & _WORD_MASK
        return word_index * WORD_BITS + _select_in_word(inverted, remaining)

    @staticmethod
    def _find_word(cum: list[int], k: int) -> int:
        """Largest index with ``cum[index] <= k`` (standard select search)."""
        low, high = 0, len(cum) - 1
        while low < high:
            mid = (low + high + 1) // 2
            if cum[mid] <= k:
                low = mid
            else:
                high = mid - 1
        return low

    # -- serialization ----------------------------------------------------------

    def to_snapshot(self) -> dict:
        """Plain-data state for the durability layer: the bit length and
        the packed 64-bit words as little-endian bytes.  The rank
        directory is *not* serialized — it is cheap to rebuild (one
        popcount pass) and deriving it on load means a corrupted
        directory can never disagree with the payload."""
        return {"length": self._length, "words": pack_words(self._words)}

    @classmethod
    def from_snapshot(cls, state: dict) -> "BitVector":
        """Rebuild a bitvector from :meth:`to_snapshot` output (the
        constructor recomputes the rank directory)."""
        return cls(unpack_words(bytes(state["words"])), state["length"])

    # -- accounting -------------------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes charged for this structure: the packed bits plus the
        rank directory (8 bytes per word)."""
        payload = (self._length + 7) // 8
        directory = 8 * len(self._cum)
        return payload + directory

    def __repr__(self) -> str:
        return f"<BitVector length={self._length} ones={self.ones}>"


def _select_in_word(word: int, k: int) -> int:
    """Position of the ``k``-th set bit inside a 64-bit ``word``.

    Narrows byte-by-byte using popcounts, then scans the final byte.
    """
    offset = 0
    while True:
        byte = word & 0xFF
        count = byte.bit_count()
        if k < count:
            break
        k -= count
        word >>= 8
        offset += 8
    position = 0
    while True:
        if byte & 1:
            if k == 0:
                return offset + position
            k -= 1
        byte >>= 1
        position += 1
