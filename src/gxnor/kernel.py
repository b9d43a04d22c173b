"""Bit-packed ternary inference arithmetic.

A ternary vector is stored as two 64-bit-word planes: ``mask`` flags the
non-zero lanes and ``sign`` flags the +1 lanes (lane ``i`` is bit ``i % 64``
of word ``i // 64``).  A dot product then needs no multiplies: lanes where
both masks are set open a gate, XNOR of the sign planes marks agreement, and
two popcounts finish the job.  Work is proportional to open gates, which is
the point: zero weights and zero activations cost nothing.

The module also carries the expected-operation-count model used to compare
this scheme against full-precision, binary-weight, ternary-weight, and
fully binary architectures at a given fan-in.  The model reads two numbers:
the share of zero weights and the share of zero activations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import NamedTuple

import numpy as np

__all__ = [
    "WORD_BITS",
    "Architecture",
    "OpReport",
    "PackedTernary",
    "pack_ternary",
    "pack_ternary_matrix",
    "pack_bit_planes",
    "unpack_ternary",
    "gated_xnor_dot",
    "packed_dense_forward",
    "count_ops",
]

WORD_BITS = 64
# packed_dense_forward takes input rows in blocks of about this many
# (row, output) pairs: 128 rows of a 200-wide layer.
DENSE_BLOCK = 128 * 200


class Architecture(Enum):
    FULL_PRECISION = "full"
    BWN = "bwn"
    TWN = "twn"
    BNN = "bnn"
    GXNOR = "gxnor"


class OpReport(NamedTuple):
    """Operation counts for one dot product, layer, or expected-cost query.

    Counts are exact non-negative integers on measured paths and expected
    values (possibly fractional) from the cost model.  ``bitcount_ops``
    differs between the two: ``count_ops`` counts one bitcount per dot
    product, while ``packed_dense_forward`` and ``gated_xnor_dot`` count one
    per 64-lane word that they popcount.  ``resting_fraction``
    is the share of lanes whose compute unit never wakes up.  A named tuple,
    because ``gated_xnor_dot`` builds one per call.
    """

    multiplications: float = 0
    accumulations: float = 0
    xnor_ops: float = 0
    bitcount_ops: float = 0
    resting_fraction: float = 0.0

    def resting_percent(self) -> str:
        return f"{100.0 * self.resting_fraction:.1f}%"


@dataclass(frozen=True)
class PackedTernary:
    """Ternary lanes as mask/sign bit planes (little-endian 64-bit words).

    The planes are ``(words,)`` for one vector and ``(rows, words)`` for a
    stack of equally long rows.
    """

    length: int
    mask: np.ndarray
    sign: np.ndarray

    @property
    def n_rows(self) -> int:
        return prod(self.mask.shape[:-1])


def pack_bit_planes(mask: np.ndarray, sign: np.ndarray) -> PackedTernary:
    """Pack boolean lanes along the last axis: ``mask`` flags the non-zero
    lanes and ``sign`` the +1 lanes (a subset of ``mask``, not checked)."""
    *lead, length = mask.shape
    words = (length + WORD_BITS - 1) // WORD_BITS
    # Lanes padded with zeros up to a word multiple; packbits puts lane i in
    # bit i % 8 of byte i // 8, so eight bytes read little-endian make a word.
    lanes = np.zeros((*lead, words * WORD_BITS), dtype=bool)

    def plane(bits):
        lanes[..., :length] = bits
        packed = np.packbits(lanes, axis=-1, bitorder="little").view("<u8")
        return packed.astype(np.uint64)  # native byte order on any host

    return PackedTernary(length=length, mask=plane(mask), sign=plane(sign))


def _pack(v: np.ndarray) -> PackedTernary:
    """Pack the last axis of a ternary array; the planes keep the leading axes."""
    if not np.all((v == -1) | (v == 0) | (v == 1)):
        raise ValueError("values must be ternary (-1, 0, or +1)")
    return pack_bit_planes(v != 0, v == 1)


def pack_ternary_matrix(values) -> PackedTernary:
    """Pack a (rows, length) array of {-1, 0, +1} values into bit planes."""
    v = np.asarray(values)
    if v.ndim != 2 or v.shape[1] < 1:
        raise ValueError(f"expected a (rows, length) array, got shape {v.shape}")
    return _pack(v)


def pack_ternary(values) -> PackedTernary:
    """Pack one ternary vector; ``unpack_ternary`` inverts it exactly."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    return _pack(v)


def unpack_ternary(p: PackedTernary) -> np.ndarray:
    """Recover the int64 {-1, 0, +1} values, one row per plane row."""
    lanes = np.arange(p.length)
    word = lanes // WORD_BITS
    bit = (lanes % WORD_BITS).astype(np.uint64)
    m = (p.mask[..., word] >> bit) & np.uint64(1)
    s = (p.sign[..., word] >> bit) & np.uint64(1)
    return np.where(m == 1, np.where(s == 1, 1, -1), 0).astype(np.int64)


def gated_xnor_dot(a: PackedTernary, b: PackedTernary) -> tuple[int, OpReport]:
    """Exact ternary dot product of two vectors via gate/XNOR/popcount.

    Only lanes with both operands non-zero (open gates) do any work; the
    report counts one XNOR per open gate and one bitcount per word.  The
    words are walked as Python ints with ``int.bit_count``: on short vectors
    that costs a fraction of the fixed overhead of NumPy ufunc calls.
    """
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    active = agree = 0
    for am, bm, asg, bsg in zip(a.mask.tolist(), b.mask.tolist(),
                                a.sign.tolist(), b.sign.tolist()):
        gate = am & bm
        active += gate.bit_count()
        agree += (~(asg ^ bsg) & gate).bit_count()
    # Positional: keyword construction is most of a short call's overhead.
    report = OpReport(0, 0, active, len(a.mask), 1.0 - active / a.length)
    return 2 * agree - active, report


def packed_dense_forward(x: PackedTernary, w: PackedTernary) -> tuple[np.ndarray, OpReport]:
    """All-pairs gated XNOR dot products: (batch, lanes) x (out, lanes).

    Returns the integer score matrix (batch, out) and one report aggregating
    lane activity over every dot product.  Input rows go through in blocks
    of about ``DENSE_BLOCK / out`` rows, so a narrow layer such as a 10-way
    classifier takes a whole batch in one block; within a block the loop
    runs over words, counting each word's open gates and masked sign
    disagreements into ``(rows, out)`` int32 totals, so a score is ``active
    - 2 * disagree``.
    """
    if x.length != w.length:
        raise ValueError(f"fan-in mismatch: {x.length} vs {w.length}")
    batch, out = x.n_rows, w.n_rows
    words = w.mask.shape[-1]
    # Word-major copies: row j holds word j of every input or weight row.
    w_mask, w_sign = w.mask.reshape(out, words).T.copy(), w.sign.reshape(out, words).T.copy()
    x_mask, x_sign = x.mask.reshape(batch, words), x.sign.reshape(batch, words)
    scores = np.empty((batch, out), dtype=np.int64)
    total_active = 0
    rows = max(1, DENSE_BLOCK // max(1, out))
    for lo in range(0, batch, rows):
        hi = min(lo + rows, batch)
        xm, xs = x_mask[lo:hi].T.copy(), x_sign[lo:hi].T.copy()
        gate = np.empty((hi - lo, out), dtype=np.uint64)
        disagree = np.empty_like(gate)
        count = np.empty(gate.shape, dtype=np.uint8)
        active = np.zeros(gate.shape, dtype=np.int32)
        differ = np.zeros(gate.shape, dtype=np.int32)
        for j in range(words):
            np.bitwise_and(xm[j, :, None], w_mask[j], out=gate)
            np.bitwise_xor(xs[j, :, None], w_sign[j], out=disagree)
            disagree &= gate
            active += np.bitwise_count(gate, out=count)
            differ += np.bitwise_count(disagree, out=count)
        np.subtract(active, 2 * differ, out=scores[lo:hi])
        total_active += int(active.sum(dtype=np.int64))
    lanes = batch * out * x.length
    report = OpReport(
        xnor_ops=total_active,
        bitcount_ops=batch * out * words,
        resting_fraction=1.0 - total_active / lanes if lanes else 0.0,
    )
    return scores, report


def count_ops(
    architecture: Architecture,
    fan_in: int,
    w_zero: float = 1 / 3,
    a_zero: float = 1 / 3,
) -> OpReport:
    """Expected per-neuron operation counts for one dot product of ``fan_in`` lanes.

    Lanes are assumed independent, with ``w_zero`` and ``a_zero`` the shares
    of zero weights and zero activations (uniform ternary by default).
    Architectures without a zero state never rest; event-driven ones skip
    exactly the gated-off lanes.
    """
    if fan_in < 1:
        raise ValueError(f"fan-in must be at least 1, got {fan_in}")
    for who, zero in (("weight", w_zero), ("activation", a_zero)):
        if not 0 <= zero <= 1:
            raise ValueError(f"{who} zero fraction must lie in [0, 1], got {zero!r}")
    arch = Architecture(architecture)

    if arch is Architecture.FULL_PRECISION:
        return OpReport(multiplications=fan_in, accumulations=fan_in)
    if arch is Architecture.BWN:
        return OpReport(accumulations=fan_in)
    if arch is Architecture.TWN:
        return OpReport(accumulations=(1.0 - w_zero) * fan_in, resting_fraction=w_zero)
    if arch is Architecture.BNN:
        return OpReport(xnor_ops=fan_in, bitcount_ops=1)
    active = (1.0 - w_zero) * (1.0 - a_zero)
    return OpReport(
        xnor_ops=active * fan_in,
        bitcount_ops=1 if active > 0 else 0,
        resting_fraction=1.0 - active,
    )
