"""Navigation over a balanced-parentheses (BP) tree encoding.

The succinct storage scheme linearises the tree in pre-order and keeps
"balanced parentheses to denote the beginning and ending of a subtree"
(Section 4.2).  A node *is* the bit position of its open parenthesis; all
of the local structural relationships the NoK matcher needs are answered by
excess arithmetic:

===================  ========================================================
operation            meaning
===================  ========================================================
``find_close(v)``    matching close parenthesis of the open at ``v``
``find_open(c)``     matching open parenthesis of the close at ``c``
``enclose(v)``       open parenthesis of the parent of ``v``
``first_child(v)``   leftmost child, or ``None``
``next_sibling(v)``  following sibling, or ``None``
``depth(v)``         number of proper ancestors
``subtree_size(v)``  node count of the subtree rooted at ``v``
===================  ========================================================

The searches use a word-granular *excess directory* (per 64-bit word: total
excess plus the min/max running excess inside the word), the flat cousin of
the range-min-max tree used by production succinct trees: a search skips
every word that provably cannot contain the target excess and scans bits
only inside at most two words plus the matching one.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.storage.bitvector import WORD_BITS, BitVector, pack_words

__all__ = ["BalancedParens"]


def _bit_excess(word: int, valid: int) -> tuple[int, int, int]:
    """(total, min, max) running excess over the low ``valid`` bits of
    ``word``, walked one bit at a time."""
    excess = low = high = 0
    for bit_index in range(valid):
        excess += 1 if (word >> bit_index) & 1 else -1
        if excess < low:
            low = excess
        if excess > high:
            high = excess
    return excess, low, high


# (total, min, max) excess of every byte value, lowest bit first.
_BYTE_EXCESS = tuple(_bit_excess(byte, 8) for byte in range(256))


class BalancedParens:
    """Read-only navigation over a BP bitvector (1 = open, 0 = close)."""

    __slots__ = ("bits", "_word_total", "_word_min", "_word_max")

    def __init__(self, bits: BitVector):
        if len(bits) % 2 != 0:
            raise ValueError("BP sequence must have even length")
        if bits.ones != bits.zeros:
            raise ValueError("BP sequence is unbalanced")
        self.bits = bits
        self._build_directory()

    def _build_directory(self) -> None:
        """Per word: total excess and the min/max running excess (the
        empty prefix included, so ``min <= 0 <= max``).  Full words
        combine eight :data:`_BYTE_EXCESS` entries; only a final partial
        word is walked bit by bit."""
        words = self.bits._words
        length = len(self.bits)
        full_words = length // WORD_BITS
        totals: list[int] = []
        minima: list[int] = []
        maxima: list[int] = []
        data = pack_words(words[:full_words])
        for start in range(0, len(data), 8):
            excess = low = high = 0
            for byte in data[start:start + 8]:
                total, byte_low, byte_high = _BYTE_EXCESS[byte]
                if excess + byte_low < low:
                    low = excess + byte_low
                if excess + byte_high > high:
                    high = excess + byte_high
                excess += total
            totals.append(excess)
            minima.append(low)
            maxima.append(high)
        for word_index in range(full_words, len(words)):
            total, low, high = _bit_excess(
                words[word_index],
                max(0, length - word_index * WORD_BITS))
            totals.append(total)
            minima.append(low)
            maxima.append(high)
        self._word_total = totals
        self._word_min = minima
        self._word_max = maxima

    # -- excess ---------------------------------------------------------------

    def excess(self, index: int) -> int:
        """Excess (opens minus closes) of the prefix ``[0, index)``."""
        return 2 * self.bits.rank1(index) - index

    @property
    def node_count(self) -> int:
        """Number of nodes (open parentheses)."""
        return self.bits.ones

    def __len__(self) -> int:
        return len(self.bits)

    # -- matching -------------------------------------------------------------

    def find_close(self, open_pos: int) -> int:
        """Position of the close parenthesis matching the open at
        ``open_pos``."""
        if self.bits[open_pos] != 1:
            raise ValueError(f"position {open_pos} is not an open parenthesis")
        target = self.excess(open_pos)
        match = self._fwd_excess(open_pos + 1, target)
        if match is None:  # pragma: no cover - impossible on balanced input
            raise ValueError(f"no matching close for position {open_pos}")
        return match

    def find_open(self, close_pos: int) -> int:
        """Position of the open parenthesis matching the close at
        ``close_pos``."""
        if self.bits[close_pos] != 0:
            raise ValueError(f"position {close_pos} is not a close parenthesis")
        target = self.excess(close_pos + 1)
        match = self._bwd_excess(close_pos, target)
        if match is None:  # pragma: no cover - impossible on balanced input
            raise ValueError(f"no matching open for position {close_pos}")
        return match

    def enclose(self, open_pos: int) -> Optional[int]:
        """Open parenthesis of the parent of the node at ``open_pos``, or
        ``None`` for the root."""
        if self.bits[open_pos] != 1:
            raise ValueError(f"position {open_pos} is not an open parenthesis")
        if open_pos == 0:
            return None
        return self._bwd_excess(open_pos, self.excess(open_pos) - 1)

    def _fwd_excess(self, start: int, target: int) -> Optional[int]:
        """Smallest ``p >= start`` with ``excess(p + 1) == target``.

        Scans the partial word containing ``start`` bit-by-bit, then skips
        whole words through the directory.
        """
        length = len(self.bits)
        if start >= length:
            return None
        words = self.bits._words
        word_index, offset = divmod(start, WORD_BITS)
        running = self.excess(start)
        # Partial first word.
        word = words[word_index]
        valid = min(WORD_BITS, length - word_index * WORD_BITS)
        for bit_index in range(offset, valid):
            running += 1 if (word >> bit_index) & 1 else -1
            if running == target:
                return word_index * WORD_BITS + bit_index
        word_index += 1
        # Whole words: skip unless target is reachable inside.
        while word_index < len(words):
            low = running + self._word_min[word_index]
            high = running + self._word_max[word_index]
            if low <= target <= high:
                word = words[word_index]
                valid = min(WORD_BITS, length - word_index * WORD_BITS)
                for bit_index in range(valid):
                    running += 1 if (word >> bit_index) & 1 else -1
                    if running == target:
                        return word_index * WORD_BITS + bit_index
            else:
                running += self._word_total[word_index]
            word_index += 1
        return None

    def _bwd_excess(self, end: int, target: int) -> Optional[int]:
        """Greatest ``p < end`` with ``excess(p) == target``."""
        if end <= 0:
            return None
        words = self.bits._words
        word_index, offset = divmod(end, WORD_BITS)
        running = self.excess(end)
        # Partial word: positions word start .. end-1, scanned right to left.
        if offset:
            word = words[word_index]
            for bit_index in range(offset - 1, -1, -1):
                running -= 1 if (word >> bit_index) & 1 else -1
                if running == target:
                    return word_index * WORD_BITS + bit_index
        word_index -= 1
        while word_index >= 0:
            base = running - self._word_total[word_index]
            low = base + self._word_min[word_index]
            high = base + self._word_max[word_index]
            if low <= target <= high or base == target:
                word = words[word_index]
                for bit_index in range(WORD_BITS - 1, -1, -1):
                    running -= 1 if (word >> bit_index) & 1 else -1
                    if running == target:
                        return word_index * WORD_BITS + bit_index
            else:
                running = base
            word_index -= 1
        return None

    # -- tree navigation --------------------------------------------------------

    def is_open(self, index: int) -> bool:
        """True iff the parenthesis at ``index`` is an open."""
        return self.bits[index] == 1

    def is_leaf(self, open_pos: int) -> bool:
        """True iff the node at ``open_pos`` has no children."""
        return self.bits[open_pos + 1] == 0

    def first_child(self, open_pos: int) -> Optional[int]:
        """Leftmost child of the node at ``open_pos``, or ``None``."""
        candidate = open_pos + 1
        if candidate < len(self.bits) and self.bits[candidate] == 1:
            return candidate
        return None

    def next_sibling(self, open_pos: int) -> Optional[int]:
        """Following sibling of the node at ``open_pos``, or ``None``."""
        candidate = self.find_close(open_pos) + 1
        if candidate < len(self.bits) and self.bits[candidate] == 1:
            return candidate
        return None

    def parent(self, open_pos: int) -> Optional[int]:
        """Alias of :meth:`enclose`."""
        return self.enclose(open_pos)

    def depth(self, open_pos: int) -> int:
        """Number of proper ancestors of the node at ``open_pos``."""
        return self.excess(open_pos)

    def subtree_size(self, open_pos: int) -> int:
        """Number of nodes in the subtree rooted at ``open_pos``."""
        return (self.find_close(open_pos) - open_pos + 1) // 2

    def is_ancestor(self, anc_pos: int, desc_pos: int) -> bool:
        """True iff ``anc_pos`` is a proper ancestor of ``desc_pos``
        (both open parentheses)."""
        return anc_pos < desc_pos <= self.find_close(anc_pos)

    def children(self, open_pos: int) -> Iterator[int]:
        """All children of ``open_pos``, left to right."""
        child = self.first_child(open_pos)
        while child is not None:
            yield child
            child = self.next_sibling(child)

    # -- pre-order <-> position ---------------------------------------------------

    def preorder(self, open_pos: int) -> int:
        """Pre-order rank (0-based) of the node at ``open_pos``."""
        return self.bits.rank1(open_pos)

    def position(self, preorder: int) -> int:
        """Open-parenthesis position of the node with pre-order rank
        ``preorder``."""
        return self.bits.select1(preorder)

    def postorder(self, open_pos: int) -> int:
        """Post-order rank (0-based): the rank of the close parenthesis."""
        return self.bits.rank0(self.find_close(open_pos))

    # -- accounting ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Bytes charged: underlying bits plus the excess directory
        (three 2-byte entries per word is generous for pre/post sweeps;
        we charge 6 bytes per word)."""
        return self.bits.size_bytes() + 6 * len(self._word_total)

    def __repr__(self) -> str:
        return f"<BalancedParens nodes={self.node_count}>"
