"""HyperLogLog cardinality estimation (Flajolet, Fusy, Gandouet, Meunier).

This is the auxiliary data structure the paper integrates into every LSH
bucket (Algorithm 1) so that the distinct-candidate count ``candSize``
of a query can be estimated by merging the sketches of its ``L`` buckets
(Algorithm 2) in ``O(mL)`` time.

Implementation notes
--------------------
* ``m = 2**p`` registers of one byte each; elements are point indices
  hashed by :func:`repro.sketches.hashing64.hash64`.
* The raw estimator is ``alpha_m * m^2 / sum_j 2^{-M[j]}`` with the
  bias constants from the paper (0.673 / 0.697 / 0.709 for m = 16 / 32 /
  64 and ``0.7213 / (1 + 1.079/m)`` beyond).
* Small-range correction: when the raw estimate is below ``5m/2`` and
  some register is zero, fall back to linear counting
  ``m * ln(m / V)`` where ``V`` is the number of zero registers.
* Large-range correction for the 32-bit hash space of the original
  paper is unnecessary with 64-bit hashes at our cardinalities, so it
  is intentionally omitted (documented deviation).
* Merging is register-wise ``max`` and is lossless: the merge of the
  sketches of two sets equals the sketch of their union, which is
  exactly why per-bucket sketches can answer union-of-buckets queries.
* :class:`PrecomputedHllHashes` hashes the whole point universe once at
  index-build time so that inserting a point into the sketches of its
  ``L`` buckets costs one register update each, not one hash each.

The relative standard error is ``1.04 / sqrt(m)``; the paper uses
``m = 128`` (≈ 9.2 %) and suggests ``m = 32`` where the distance kernel
is very cheap.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError, SketchError
from repro.sketches.hashing64 import hash64, rho_positions, split_hash
from repro.utils.rows import append_rows

__all__ = ["HyperLogLog", "PrecomputedHllHashes", "alpha_m", "estimates_from_registers"]

_MIN_PRECISION = 2
_MAX_PRECISION = 18

#: ``2**-v`` for every one-byte register value ``v``, exactly (``ldexp``):
#: an estimate's harmonic sum is one gather from it.
_INV_POW2 = np.ldexp(1.0, -np.arange(256))


def alpha_m(m: int) -> float:
    """Bias-correction constant for ``m`` registers.

    Values follow Flajolet et al.: exact constants for the small
    register counts used in practice, the asymptotic formula otherwise.
    """
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def estimates_from_registers(registers: np.ndarray) -> np.ndarray:
    """Per-row HLL estimates of a ``(rows, m)`` merged-register matrix.

    The harmonic sums and zero-register counts are computed for all
    rows in two vectorised passes; the scalar bias/linear-counting
    finish per row replays :meth:`HyperLogLog.estimate` exactly, so the
    values are bit-identical to the per-sketch path.  The one finish
    behind every batched estimate — both layouts'
    ``merged_estimates_batch`` and the per-ring prefix estimates of the
    frozen ``lookup_batch_adaptive`` — so the adaptive stopping rule and
    the cost decision can never disagree about what an estimate is.
    """
    m = registers.shape[1]
    inv_sums = np.sum(_INV_POW2.take(registers), axis=1)
    zero_counts = m - np.count_nonzero(registers, axis=1)
    out = (alpha_m(m) * m * m) / inv_sums
    corrected = np.flatnonzero((out <= 2.5 * m) & (zero_counts > 0))
    for i in corrected.tolist():
        out[i] = m * math.log(m / int(zero_counts[i]))
    return out


class PrecomputedHllHashes:
    """Per-point HLL hash decomposition, computed once per index build.

    Every bucket sketch of an LSH index hashes the *same* universe of
    point indices with the *same* seed.  Hashing a point therefore
    yields the same ``(register, rank)`` pair in every bucket it enters,
    so we compute that pair once per point here and let
    :meth:`HyperLogLog.add_precomputed` consume it.

    Attributes
    ----------
    registers:
        ``registers[i]`` is the register index of point i, in the
        narrowest unsigned dtype that holds ``m - 1`` (uint8 up to
        ``p = 8``, uint16 up to 16, uint32 beyond).
    ranks:
        uint8 array, ``ranks[i]`` is the rho-value of point i.
    """

    def __init__(self, n: int, p: int, seed: int = 0) -> None:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        _check_precision(p)
        self.n = int(n)
        self.p = int(p)
        self.seed = int(seed)
        self.registers, self.ranks = self._pairs(0, n)
        # ``registers`` / ``ranks`` are prefix views of these buffers
        # (exactly ``n`` rows until the first :meth:`extend`).
        self._register_buffer, self._rank_buffer = self.registers, self.ranks

    def _pairs(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The narrowed ``(registers, ranks)`` of ids ``start .. stop - 1``."""
        hashes = hash64(np.arange(start, stop, dtype=np.uint64), seed=self.seed)
        registers, rest = split_hash(hashes, self.p)
        narrow = np.min_scalar_type((1 << self.p) - 1)
        return registers.astype(narrow), rho_positions(rest, 64 - self.p)

    def pair(self, point_id: int) -> tuple[int, int]:
        """The ``(register, rank)`` pair of one point id."""
        return int(self.registers[point_id]), int(self.ranks[point_id])

    def extend(self, new_n: int) -> None:
        """Grow the precomputed table to cover ids ``0 .. new_n - 1``.

        Supports incremental index insertion: the hash of an id depends
        only on ``(id, seed)``, so existing entries are untouched and
        only the new tail is computed — and appended into the buffers'
        spare capacity (:func:`~repro.utils.rows.append_rows`), so an
        extension by ``m`` ids writes ``m`` pairs, not ``new_n``.  The
        longer views are published after the write: a reader holding
        the old ``registers`` / ``ranks`` keeps reading valid pairs.
        """
        if new_n < self.n:
            raise ConfigurationError(
                f"cannot shrink precomputed hashes from {self.n} to {new_n}"
            )
        if new_n == self.n:
            return
        tail_registers, tail_ranks = self._pairs(self.n, new_n)
        self._register_buffer = append_rows(self._register_buffer, self.n, tail_registers)
        self._rank_buffer = append_rows(self._rank_buffer, self.n, tail_ranks)
        self.registers = self._register_buffer[:new_n]
        self.ranks = self._rank_buffer[:new_n]
        self.n = int(new_n)

    @property
    def nbytes(self) -> int:
        """Bytes the pair table holds, spare capacity included."""
        return int(self._register_buffer.nbytes) + int(self._rank_buffer.nbytes)

    def __len__(self) -> int:
        return self.n


class HyperLogLog:
    """A single HyperLogLog sketch over integer element ids.

    Parameters
    ----------
    p:
        Precision; the sketch has ``m = 2**p`` one-byte registers.
        The paper's default ``m = 128`` corresponds to ``p = 7``.
    seed:
        Salt for the element hash.  Sketches are mergeable only if
        built with equal ``p`` and ``seed``.

    Examples
    --------
    >>> sketch = HyperLogLog(p=7, seed=1)
    >>> sketch.add_batch(np.arange(1000))
    >>> 800 < sketch.estimate() < 1200
    True
    """

    __slots__ = ("p", "m", "seed", "registers")

    def __init__(self, p: int = 7, seed: int = 0) -> None:
        _check_precision(p)
        self.p = int(p)
        self.m = 1 << self.p
        self.seed = int(seed)
        self.registers = np.zeros(self.m, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, element: int) -> None:
        """Insert one element id."""
        h = hash64(np.uint64(element), seed=self.seed)
        idx, rest = split_hash(h.reshape(1), self.p)
        rank = rho_positions(rest, 64 - self.p)
        j = int(idx[0])
        if rank[0] > self.registers[j]:
            self.registers[j] = rank[0]

    def add_batch(self, elements: np.ndarray) -> None:
        """Insert many element ids at once (vectorised)."""
        elements = np.asarray(elements, dtype=np.uint64)
        if elements.size == 0:
            return
        h = hash64(elements, seed=self.seed)
        idx, rest = split_hash(h, self.p)
        ranks = rho_positions(rest, 64 - self.p)
        np.maximum.at(self.registers, idx, ranks)

    def add_precomputed(self, register: int, rank: int) -> None:
        """Insert a point whose hash pair was precomputed.

        See :class:`PrecomputedHllHashes`; this is the hot path of
        Algorithm 1 (one call per (point, table) insertion).
        """
        if rank > self.registers[register]:
            self.registers[register] = rank

    def add_precomputed_batch(self, registers: np.ndarray, ranks: np.ndarray) -> None:
        """Vectorised :meth:`add_precomputed` over parallel arrays."""
        np.maximum.at(self.registers, registers, ranks)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def raw_estimate(self) -> float:
        """Bias-corrected harmonic-mean estimate, no range corrections."""
        inv_sum = float(np.sum(_INV_POW2.take(self.registers)))
        return alpha_m(self.m) * self.m * self.m / inv_sum

    def estimate(self) -> float:
        """Cardinality estimate with small-range (linear counting) correction."""
        raw = self.raw_estimate()
        if raw <= 2.5 * self.m:
            zeros = self.m - int(np.count_nonzero(self.registers))
            if zeros > 0:
                return self.m * math.log(self.m / zeros)
        return raw

    @property
    def relative_standard_error(self) -> float:
        """The theoretical relative standard error ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self.m)

    def is_empty(self) -> bool:
        """True if no element has ever been inserted."""
        return bool(np.all(self.registers == 0))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _check_compatible(self, other: HyperLogLog) -> None:
        if not isinstance(other, HyperLogLog):
            raise SketchError(f"cannot merge HyperLogLog with {type(other).__name__}")
        if self.p != other.p or self.seed != other.seed:
            raise SketchError(
                f"incompatible sketches: (p={self.p}, seed={self.seed}) vs "
                f"(p={other.p}, seed={other.seed})"
            )

    def merge_in_place(self, other: HyperLogLog) -> HyperLogLog:
        """Absorb ``other`` into this sketch (register-wise max)."""
        self._check_compatible(other)
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def merge(self, other: HyperLogLog) -> HyperLogLog:
        """Return a new sketch equal to the union of the two operands."""
        self._check_compatible(other)
        out = HyperLogLog(p=self.p, seed=self.seed)
        np.maximum(self.registers, other.registers, out=out.registers)
        return out

    @classmethod
    def merge_many(cls, sketches: list[HyperLogLog]) -> HyperLogLog:
        """Union of a non-empty list of compatible sketches.

        This is the per-query merge of Algorithm 2: the sketches of the
        ``L`` buckets a query lands in are folded into one estimate of
        ``candSize``.
        """
        if not sketches:
            raise SketchError("merge_many requires at least one sketch")
        first = sketches[0]
        out = cls(p=first.p, seed=first.seed)
        for sketch in sketches:
            out.merge_in_place(sketch)
        return out

    def copy(self) -> HyperLogLog:
        """Deep copy (registers are duplicated)."""
        out = HyperLogLog(p=self.p, seed=self.seed)
        out.registers[:] = self.registers
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Register-array footprint in bytes (the O(m) the paper counts)."""
        return int(self.registers.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return (
            self.p == other.p
            and self.seed == other.seed
            and bool(np.array_equal(self.registers, other.registers))
        )

    def __repr__(self) -> str:
        return f"HyperLogLog(p={self.p}, m={self.m}, estimate~{self.estimate():.1f})"


def _check_precision(p: int) -> None:
    if not isinstance(p, int | np.integer) or isinstance(p, bool):
        raise ConfigurationError(f"precision p must be an integer, got {p!r}")
    if not _MIN_PRECISION <= p <= _MAX_PRECISION:
        raise ConfigurationError(
            f"precision p must be in [{_MIN_PRECISION}, {_MAX_PRECISION}], got {p}"
        )
