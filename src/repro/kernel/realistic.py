"""The realistic model's chunks drawn as arrays: its emit loop, parsed in numpy.

Under ``kernel=vectorized`` a realistic stream draws each chunk here instead
of through the Python loop in :mod:`repro.traffic.realistic`, which stays the
one reference semantics.  The chunk's ``random.Random`` is read as the raw
32-bit MT19937 words it produces (Matsumoto & Nishimura 1998), many at a
time: ``getrandbits(32 * k)`` is ``k`` words, the first drawn the least
significant.  (numpy's own ``MT19937`` yields the same words faster, but
``numpy.random`` costs 6 MB of resident memory to import.)  The words are
parsed exactly as the loop consumes them:

* ``random()`` takes two words, ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``;
  ``random() < p`` is that integer below ``ceil(p * 2**53)``, and
  ``random() < 0.5`` is ``a < 2**31``;
* the inlined ``randrange(n)`` takes one word ``>> (32 - n.bit_length())``
  per try, redrawn while it is ``>= n``;
* so a hot flow takes 10 words (hot test, Zipf draw, swap, packets, start)
  and a cold flow 8 plus its tries.

Where each flow starts in the word stream is a pointer chase: a hot flow
always ends 10 words on, so only the cold flows (~10 %) are visited one by
one, each found as the first non-hot position of its residue class modulo
10.  Everything else is array arithmetic, in blocks of :data:`BLOCK_FLOWS`
flows, so a 50 000-flow chunk never holds more than a block's words.  The float arithmetic is the loop's, operation for
operation, in IEEE-754 doubles; the two libm calls are not guaranteed to be
numpy's, so a Zipf or packet value whose ``pow``/``log`` result lies within
:data:`NEAR_INTEGER` of an integer is floored again with the loop's own
expression.  Rows are put into replay order by ``argsort``, or ``lexsort``
on tied start times, which is :func:`~repro.traffic.stream.in_replay_order`'s
rule, and validated as :meth:`~repro.traffic.chunk.FlowChunk.from_columns`
validates them; the chunk's six buffers are the Python path's, byte for byte.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.traffic.chunk import FlowChunk
from repro.traffic.realistic import BYTES_PER_PACKET, MAX_FLOW_SECONDS, SECONDS_PER_PACKET

#: Flows parsed per block of words: bounds the per-word temporaries.
BLOCK_FLOWS = 4096

#: Words fetched for a block, as a multiple of what its flows are expected to
#: take.  A block that runs out completes the flows it can and hands the
#: rest of its words to the next block, which fetches what is missing.
WORD_BUDGET_FACTOR = 1.05

#: Words fetched beyond the budget, and the least a block ever fetches.
WORD_BUDGET_SLACK = 64

#: A ``pow``/``log`` result within this distance of an integer (relative to
#: its magnitude, at least absolute) is floored again with ``math``.
NEAR_INTEGER = 1e-9

#: Words a hot flow takes; a cold flow takes COLD_WORDS plus its tries.
HOT_WORDS = 10
COLD_WORDS = 8

_UNIT = 1.0 / 9007199254740992.0  # 2**-53, random()'s scale

#: A flow's eight draw words, from its head: the Zipf pair of a hot flow, or
#: the accepted try of a cold one (and a word past it), then the swap,
#: packet and start draws, two words each.  Row 0 is a cold flow's, row 1 a
#: hot flow's.
_DRAW_OFFSETS = np.array([[0, 1, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7]])


class RealisticArrayEmitter:
    """Draws one window's flows of a realistic stream as a replay-ordered chunk."""

    def __init__(
        self,
        hot_pairs: Sequence[Tuple[int, int]],
        cold_pairs: Sequence[Tuple[int, int]],
        *,
        hot_share: float,
        zipf_exponent: float,
        packet_rate: float,
    ) -> None:
        cold_bits = len(cold_pairs).bit_length()  # at most 40 pairs a host: well under 32 bits
        self._hot = np.array(hot_pairs, dtype=np.int64).reshape(-1, 2)
        self._cold = np.array(cold_pairs, dtype=np.int64).reshape(-1, 2)
        self._cold_shift = 32 - cold_bits
        # random() < hot_share  <=>  its 53-bit integer < ceil(hot_share * 2**53),
        # compared as (a >> 5, b >> 6) digits against the limit's.
        limit = math.ceil(hot_share * 2**53)
        self._hot_limit = divmod(limit, 2**26)
        self._zipf_exponent = zipf_exponent
        self._packet_rate = packet_rate
        tries = 2**cold_bits / len(cold_pairs)
        self._words_per_flow = hot_share * HOT_WORDS + (1.0 - hot_share) * (COLD_WORDS + tries)

    def __call__(self, rng, window, first_id: int) -> FlowChunk:
        """Parse ``window``'s flows from ``rng``'s words, a block at a time.

        A block that runs out of words completes the flows it can and hands
        the rest of its words to the next block, which fetches what is missing.
        """
        count = window.counts[0]
        columns = [np.empty(count), *(np.empty(count, dtype=np.int64) for _ in range(3))]
        words = np.empty(0, dtype=np.uint32)
        drawn = 0
        while drawn < count:
            need = min(BLOCK_FLOWS, count - drawn)
            budget = math.ceil(need * self._words_per_flow * WORD_BUDGET_FACTOR) + WORD_BUDGET_SLACK
            fresh = max(budget - len(words), WORD_BUDGET_SLACK)
            words = np.concatenate((words, _words(rng, fresh)))
            starts, hots, tries = self._chase(words, need)
            cold = tries >= 0
            lengths = hots + cold
            offsets = np.cumsum(lengths) - lengths
            parsed = int(lengths.sum())
            # A hot flow's draws start with its Zipf pair, 2 words in; a cold
            # flow's with its accepted try.
            heads = np.repeat(starts + 2 - HOT_WORDS * offsets, lengths)
            heads += HOT_WORDS * np.arange(parsed)
            cold_rows = (offsets + hots)[cold]
            heads[cold_rows] = tries[cold]
            is_hot = np.ones(parsed, dtype=bool)
            is_hot[cold_rows] = False
            places = heads[:, None] + _DRAW_OFFSETS[is_hot.view(np.uint8)]
            block = [column[drawn : drawn + parsed] for column in columns]
            self._fill(is_hot, words[places], window.start, window.span, *block)
            words = words[places[-1, -1] + 1 :] if parsed else words
            drawn += parsed
        return _ordered_chunk(*columns, first_id)

    def _fill(self, is_hot, draws, start: float, span: float, times, src, dst, packets) -> None:
        """Write parsed flows' (times, src, dst, packets) from their draw words, in draw order."""
        hot_index = self._zipf_index(_uniform(draws[is_hot, 0], draws[is_hot, 1]))
        src[is_hot] = self._hot[hot_index, 0]
        dst[is_hot] = self._hot[hot_index, 1]
        is_cold = ~is_hot
        cold_index = draws[is_cold, 0] >> self._cold_shift
        src[is_cold] = self._cold[cold_index, 0]
        dst[is_cold] = self._cold[cold_index, 1]
        swap = draws[:, 2] < 2**31
        src[swap], dst[swap] = dst[swap], src[swap]
        packets[:] = self._packet_count(_uniform(draws[:, 4], draws[:, 5]))
        times[:] = start + _uniform(draws[:, 6], draws[:, 7]) * span

    def _chase(self, words: np.ndarray, need: int):
        """The flows' places in the word stream, visiting the cold flows only.

        Returns per run of flows: where it starts, how many hot flows lead
        it (10 words apart) and the accepted cold try of the cold flow that
        ends it (-1: the run ends without one, at the block's end).  A flow
        whose words run past ``words`` is left to the next block.
        """
        size = len(words)
        # The hot test at every position a whole hot flow still fits after:
        # a >> 5 below the limit's high digit, or equal to it (about one
        # word in 2**27, among those the first test calls cold) and b >> 6
        # below its low digit.
        fits = max(size - (HOT_WORDS - 1), 0)
        digit_high, digit_low = self._hot_limit
        if digit_high:
            colds = np.flatnonzero(words[:fits] > (digit_high << 5) - 1)
        else:
            colds = np.arange(fits)
        ties = colds[(words[colds] >> 5) == digit_high]
        if len(ties):
            colds = np.setdiff1d(colds, ties[(words[ties + 1] >> 6) < digit_low])
        # Each cold start's accepted try, the first at or after its third
        # word; `size` where that flow's last 6 words would not fit.
        tail_room = max(size - 6, 0)
        tries = np.flatnonzero(words[:tail_room] < len(self._cold) << self._cold_shift)
        tries = np.append(tries, size)
        accepted = tries[np.searchsorted(tries, colds + 2)]
        # One block end per residue class modulo 10 (the positions from
        # `fits` on) joins the cold starts, and all are sorted by (residue,
        # position): the first entry at or after a position's key is the
        # next cold flow of the run of hot ones starting there.
        colds = np.concatenate((colds, np.arange(fits, fits + HOT_WORDS)))
        accepted = np.concatenate((accepted, np.full(HOT_WORDS, size)))
        stride = size + HOT_WORDS
        keys = colds % HOT_WORDS * stride + colds
        order = np.argsort(keys)
        colds, keys, accepted = colds[order], keys[order], accepted[order]
        resume = accepted + 7
        following = np.searchsorted(keys, resume % HOT_WORDS * stride + resume)
        following = np.minimum(following, len(colds) - 1)
        cold_at, accepted_at, following_at = map(memoryview, (colds, accepted, following))

        visited: List[int] = []  # the entries whose cold flow is taken, in draw order
        visit = visited.append
        position = count = entry = 0  # position 0's key is 0, the first of them all
        while True:
            run = (cold_at[entry] - position) // HOT_WORDS
            if count + run >= need:
                run = need - count
                break
            if accepted_at[entry] >= size:
                break
            visit(entry)
            count += run + 1
            if count == need:
                run = -1
                break
            position = accepted_at[entry] + 7
            entry = following_at[entry]
        visited = np.array(visited, dtype=np.int64)
        starts = np.concatenate(([0], resume[visited]))
        tries = accepted[visited]
        hots = (colds[visited] - starts[:-1]) // HOT_WORDS
        if run < 0:  # the block ends with a cold flow
            starts = starts[:-1]
        else:  # ... or with a run of `run` hot flows
            hots = np.append(hots, run)
            tries = np.append(tries, -1)
        return starts, hots, tries

    # -- the two libm draws ----------------------------------------------------

    def _zipf_index(self, draws: np.ndarray) -> np.ndarray:
        """``min(int(n * u ** exponent), n - 1)`` of each draw ``u``."""
        population = len(self._hot)
        exponent = self._zipf_exponent
        scaled = population * np.power(draws, exponent)
        index = _floored(scaled, draws, lambda u: int(population * (u**exponent)))
        return np.minimum(index, population - 1)

    def _packet_count(self, draws: np.ndarray) -> np.ndarray:
        """``int(-log(1 - u) / rate) + 1`` of each draw ``u``."""
        rate = self._packet_rate
        scaled = -np.log(1.0 - draws) / rate
        return _floored(scaled, draws, lambda u: int(-math.log(1.0 - u) / rate)) + 1


def _words(rng, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``'s Mersenne Twister, in draw order."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def _uniform(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` of each pair of words."""
    return ((first >> 5) * 67108864.0 + (second >> 6)) * _UNIT


def _floored(scaled: np.ndarray, draws: np.ndarray, exact) -> np.ndarray:
    """``int()`` of non-negative ``scaled``, recomputed by ``exact(draw)`` near an integer."""
    floors = scaled.astype(np.int64)
    near = np.abs(scaled - np.rint(scaled)) <= NEAR_INTEGER * np.maximum(scaled, 1.0)
    for row in np.flatnonzero(near).tolist():
        floors[row] = exact(float(draws[row]))
    return floors


def _ordered_chunk(times, src, dst, packets, first_id: int) -> FlowChunk:
    """Draw-order (times, src, dst, packets) columns as a validated, replay-ordered chunk."""
    # Distinct start times have one ascending order, which any sort finds.
    order = np.argsort(times)
    ordered = times[order]
    if np.any(ordered[1:] == ordered[:-1]):
        # Tied start times: the whole row decides, as sorting the rows as
        # tuples would (bytes and duration are non-decreasing in packets),
        # and a stable sort keeps equal rows in draw order.
        order = np.lexsort((packets, dst, src, times))
        ordered = times[order]
    src, dst, packets = src[order], dst[order], packets[order]
    byte_counts = packets * BYTES_PER_PACKET
    durations = np.minimum(packets * SECONDS_PER_PACKET, MAX_FLOW_SECONDS)
    columns = (ordered, src, dst, packets, byte_counts, durations)
    if len(ordered) and (
        ordered.min() < 0
        or np.any(src == dst)
        or packets.min() <= 0
        or byte_counts.min() <= 0
        or durations.min() <= 0
    ):
        # Let FlowChunk name the first offending flow, as the Python path does.
        FlowChunk.from_columns([column.tolist() for column in columns], first_id)
    return FlowChunk.from_buffers(columns, first_id)
