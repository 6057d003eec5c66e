"""Multilinear polynomials over Z2 in algebraic normal form.

A polynomial is a set of monomials combined by XOR; a monomial is a set
of variable indices combined by AND. Over Z2 every exponent reduces to
one, so the monomial set determines the polynomial uniquely and equality
of representations is equality of functions.

Monomials are stored as integer bitmasks (bit i set means variable i is
a factor). The empty mask is the constant monomial 1; the empty
polynomial is 0. Rendering and parsing use 1-based variable names such
as ``x1`` and graded lexicographic term order, e.g. ``x3 + x2*x4``.

A product ORs every pair of monomials and keeps the masks that occur an
odd number of times. GF2Poly.__mul__ has two paths to the same set: a
set loop that toggles one pair at a time, and, for products of at least
128 pairs whose masks are all below 2^63, a numpy outer OR over uint64
masks, sorted so that the odd runs can be kept. The two cross between 64
and 144 pairs, and at 16,384 pairs numpy takes about 100 ns a pair
against the loop's 350 ns.

MixedPhase, a sum of (coefficient mod 8, Z2 indicator) terms, is the
phase of a mixed-mode path sum; a z2 phase f is the mixed phase 4*f.
Its canonical form is the Z8 map {monomial mask: coefficient mod 8},
built by _z8 and sorted back into a MixedPhase by _from_z8; the reduce
layer (in counting) works on that map alone. Every entry comes from
_add_xor, which adds c * 1_[XOR of monomials] to a map by a closed-form
sum over the monomials, their pairs and their triples, since larger
subsets weigh 0 mod 8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

__all__ = ["GF2Poly", "MixedPhase", "parse_poly"]


def _mask_vars(mask: int) -> Iterator[int]:
    """Yield the variable indices present in a monomial bitmask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _term_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Graded lex sort key: degree first, then variable indices."""
    indices = tuple(_mask_vars(mask))
    return (len(indices), indices)


_NUMPY_PAIRS = 128
_BLOCK_PAIRS = 1 << 20


def _odd_runs(values: np.ndarray) -> np.ndarray:
    """Sort values in place and return, sorted, those that occur an odd
    number of times."""
    values.sort()
    if not values.size:
        return values
    edges = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True])))
    return values[edges[:-1][np.diff(edges) & 1 == 1]]


def _odd_products(a: Collection[int], b: Collection[int]) -> frozenset[int]:
    """The masks m1 | m2 (m1 in a, m2 in b) that occur an odd number of
    times; every mask must be below 2^63.

    The outer OR is taken in blocks of rows of the larger operand, of at
    most _BLOCK_PAIRS (2^20) pairs while the smaller operand has at most
    that many terms, where one outer product of two 20,000-term wires
    would take 3.2 GB. Each block's odd survivors form a sorted run, and
    runs are merged by symmetric difference as in a binary counter: a
    new run absorbs the last one kept while that is no longer than it,
    and the runs left at the end are merged last. So each survivor takes
    part in about log2(blocks) merges, a single block is sorted once,
    and memory is one block plus the kept runs. On 2 cores, for 4,096 x
    16,384 random 24-bit masks (64 blocks), this took 2.6-3.0 s where
    re-sorting the whole result at every block took 5.0-5.5 s and the
    set loop 36 s.
    """
    if len(a) < len(b):
        a, b = b, a
    left = np.fromiter(a, np.uint64, len(a))
    right = np.fromiter(b, np.uint64, len(b))
    rows = max(1, _BLOCK_PAIRS // len(right))
    runs: list[np.ndarray] = []
    for start in range(0, len(left), rows):
        run = _odd_runs(np.bitwise_or.outer(left[start:start + rows], right).ravel())
        while runs and len(runs[-1]) <= len(run):
            run = _odd_runs(np.concatenate((runs.pop(), run)))
        runs.append(run)
    while len(runs) > 1:
        runs.append(_odd_runs(np.concatenate((runs.pop(), runs.pop()))))
    return frozenset(runs[0].tolist())


class GF2Poly:
    """Immutable multilinear polynomial over Z2.

    Supports ring arithmetic (+ is XOR of monomial sets, * distributes
    and merges variable sets), pointwise evaluation, vectorized
    evaluation over arrays of packed assignments, and substitution of a
    variable by another polynomial.
    """

    __slots__ = ("_masks",)

    def __init__(self, masks: Iterable[int] = ()) -> None:
        acc: set[int] = set()
        for mask in masks:
            if mask < 0:
                raise ValueError("monomial mask must be non-negative")
            acc.symmetric_difference_update((mask,))
        self._masks = frozenset(acc)

    @classmethod
    def _raw(cls, masks: frozenset[int]) -> GF2Poly:
        poly = cls.__new__(cls)
        poly._masks = masks
        return poly

    @classmethod
    def zero(cls) -> GF2Poly:
        return cls._raw(frozenset())

    @classmethod
    def one(cls) -> GF2Poly:
        return cls._raw(frozenset((0,)))

    @classmethod
    def constant(cls, bit: int) -> GF2Poly:
        """The constant polynomial 0 or 1."""
        if bit not in (0, 1):
            raise ValueError(f"constant must be 0 or 1, got {bit!r}")
        return cls.one() if bit else cls.zero()

    @classmethod
    def variable(cls, index: int) -> GF2Poly:
        """The single-variable polynomial x_index."""
        if index < 0:
            raise ValueError("variable index must be non-negative")
        return cls._raw(frozenset((1 << index,)))

    @classmethod
    def from_terms(cls, terms: Iterable[Iterable[int]]) -> GF2Poly:
        """Build from an iterable of monomials given as variable-index sets.

        Repeated monomials cancel in pairs, mirroring XOR.
        """
        masks = []
        for term in terms:
            mask = 0
            for index in term:
                if index < 0:
                    raise ValueError("variable index must be non-negative")
                mask |= 1 << index
            masks.append(mask)
        return cls(masks)

    @property
    def masks(self) -> frozenset[int]:
        """The monomial set as integer bitmasks."""
        return self._masks

    def terms(self) -> tuple[tuple[int, ...], ...]:
        """Monomials as sorted variable-index tuples, in graded lex order."""
        return tuple(
            tuple(_mask_vars(m)) for m in sorted(self._masks, key=_term_key)
        )

    def support(self) -> frozenset[int]:
        """Indices of variables that appear in at least one monomial."""
        union = 0
        for mask in self._masks:
            union |= mask
        return frozenset(_mask_vars(union))

    @property
    def degree(self) -> int:
        """Largest monomial size; 0 for constants (including the zero polynomial)."""
        return max((m.bit_count() for m in self._masks), default=0)

    def __len__(self) -> int:
        return len(self._masks)

    def __bool__(self) -> bool:
        return bool(self._masks)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GF2Poly):
            return self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._masks)

    def _coerce(self, other: object) -> GF2Poly | None:
        if isinstance(other, GF2Poly):
            return other
        if isinstance(other, int) and other in (0, 1):
            return GF2Poly.constant(other)
        return None

    def __add__(self, other: object) -> GF2Poly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return GF2Poly._raw(self._masks ^ rhs._masks)

    __radd__ = __add__
    __sub__ = __add__  # -1 = 1 over Z2
    __xor__ = __add__

    def __mul__(self, other: object) -> GF2Poly:
        """The product: every pair of monomials ORed, kept when it occurs
        an odd number of times.

        From _NUMPY_PAIRS (128) pairs on, when every mask is below 2^63,
        _odd_products takes the pairs as a numpy outer OR; otherwise a
        set loop toggles each pair in turn. Per product, on 2 cores with
        random 40-bit masks: 4 pairs take 1.3 us in the loop and 14 us in
        numpy, 64 pairs 16-21 against 15-17 us, 144 pairs 36-47 against
        19-23 us, and 16,384 pairs 5.6-5.9 against 1.6 ms.
        """
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._masks, rhs._masks
        if len(a) * len(b) >= _NUMPY_PAIRS and not (max(a) | max(b)) >> 63:
            return GF2Poly._raw(_odd_products(a, b))
        acc: set[int] = set()
        for m1 in a:
            for m2 in b:
                acc.symmetric_difference_update((m1 | m2,))
        return GF2Poly._raw(frozenset(acc))

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        """Evaluate at a point given as a variable -> bit mapping, each
        value read mod 2, by packing it for evaluate_mask.

        Every variable in the support must be assigned, otherwise
        ValueError names the lowest one that is not.
        """
        point = 0
        for index in sorted(self.support()):
            try:
                point |= int(assignment[index] & 1) << index
            except KeyError:
                raise ValueError(f"no value for variable x{index}") from None
        return self.evaluate_mask(point)

    def evaluate_mask(self, point: int) -> int:
        """Evaluate at a point packed as a bitmask (bit i = value of x_i)."""
        total = 0
        for mask in self._masks:
            if point & mask == mask:
                total ^= 1
        return total

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many packed points at once; returns a bool array."""
        pts = np.asarray(points, dtype=np.uint64)
        out = np.zeros(pts.shape, dtype=bool)
        for mask in self._masks:
            if mask == 0:
                np.logical_not(out, out=out)
            else:
                m = np.uint64(mask)
                out ^= (pts & m) == m
        return out

    def substitute(self, var: int, replacement: GF2Poly) -> GF2Poly:
        """Replace every occurrence of x_var by the given polynomial."""
        bit = 1 << var
        untouched = frozenset(m for m in self._masks if not m & bit)
        cofactor = GF2Poly._raw(
            frozenset(m ^ bit for m in self._masks if m & bit)
        )
        return GF2Poly._raw(untouched) + cofactor * replacement

    def __str__(self) -> str:
        if not self._masks:
            return "0"
        rendered = []
        for mask in sorted(self._masks, key=_term_key):
            if mask == 0:
                rendered.append("1")
            else:
                rendered.append("*".join(f"x{i}" for i in _mask_vars(mask)))
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"GF2Poly({str(self)!r})"


_TERM_RE = re.compile(r"^x([0-9]+)$")


def parse_poly(text: str) -> GF2Poly:
    """Parse the rendered form: '+'-separated products of x<i> factors, or 0/1.

    Inverse of str(poly) for any polynomial; also accepts unsorted terms
    and repeated monomials (which cancel in pairs).
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty polynomial text")
    masks = []
    for chunk in stripped.split("+"):
        term = chunk.strip()
        if term == "0":
            if len(stripped.split("+")) > 1:
                raise ValueError("'0' cannot appear inside a sum")
            return GF2Poly.zero()
        if term == "1":
            masks.append(0)
            continue
        mask = 0
        for factor in term.split("*"):
            match = _TERM_RE.match(factor.strip())
            if match is None:
                raise ValueError(f"bad monomial factor {factor.strip()!r}")
            mask |= 1 << int(match.group(1))
        masks.append(mask)
    return GF2Poly(masks)


@dataclass(frozen=True)
class MixedPhase:
    """A phase polynomial: sum of (coefficient mod 8, Z2 indicator) terms.

    Terms with coefficient 0 or identically-zero indicator are dropped
    at construction. The term list is otherwise kept as given; use
    canonicalize() for a form with unique monomial indicators.
    """

    terms: tuple[tuple[int, GF2Poly], ...] = ()

    def __post_init__(self) -> None:
        kept = []
        for coeff, indicator in self.terms:
            coeff %= 8
            if coeff and indicator:
                kept.append((coeff, indicator))
        object.__setattr__(self, "terms", tuple(kept))

    def evaluate(self, assignment: Mapping[int, int]) -> int:
        return sum(c * f.evaluate(assignment) for c, f in self.terms) % 8

    def evaluate_mask(self, point: int) -> int:
        return sum(c * f.evaluate_mask(point) for c, f in self.terms) % 8

    def values(self, points: np.ndarray) -> np.ndarray:
        """Phase mod 8 at many packed points; returns a uint8 array.

        Accumulates in uint8: wraparound mod 256 preserves values mod 8.
        """
        pts = np.asarray(points, dtype=np.uint64)
        acc = np.zeros(pts.shape, dtype=np.uint8)
        for coeff, indicator in self.terms:
            acc += np.uint8(coeff) * indicator.values(pts)
        return acc & np.uint8(7)

    def support(self) -> frozenset[int]:
        union = 0
        for _, indicator in self.terms:
            for mask in indicator.masks:
                union |= mask
        return frozenset(_mask_vars(union))

    @property
    def degree(self) -> int:
        return max((f.degree for _, f in self.terms), default=0)

    def canonicalize(self) -> MixedPhase:
        """Rewrite as a Z8-combination of distinct monomials, sorted.

        XORs inside indicators are expanded multilinearly using
        1_[m1 xor ... xor mk] = sum over nonempty subsets S of
        (-2)^(|S|-1) * prod(S) over the integers, reduced mod 8 (by
        _add_xor, which adds the monomials, pairs and triples and skips
        those a term's coefficient sends to 0). Like terms merge and
        cancel, so equal phase functions get equal canonical forms.
        An odd coefficient applied to an XOR of three or more monomials
        leaves genuine products of three monomials (coefficient 4);
        those are preserved, never truncated.
        """
        return _from_z8(_z8(self))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*({f})" for c, f in self.terms)


def _add_xor(acc: dict[int, int], coeff: int, masks: Collection[int]) -> None:
    """Add coeff * 1_[XOR of the distinct monomials] to acc, a {monomial
    mask: weight mod 8} map; entries whose weight reaches 0 are removed.

    Over the integers 1_[m1 xor ... xor mk] is the sum over nonempty
    subsets S of (-2)^(|S|-1) * prod(S), so mod 8 only the monomials,
    their pairs (-2) and their triples (+4) survive, and a coefficient
    divisible by 2 (by 4) also sends the triples (the pairs) to 0: for a
    Hadamard's coefficient 4 only the monomials themselves are added.
    """
    weighted = [(mask, coeff) for mask in masks]
    if len(masks) > 1 and coeff & 3:
        weighted += [(a | b, -2 * coeff) for a, b in combinations(masks, 2)]
        if coeff & 1:
            weighted += [(a | b | c, 4 * coeff) for a, b, c in combinations(masks, 3)]
    for mask, weight in weighted:
        total = (acc.get(mask, 0) + weight) % 8
        if total:
            acc[mask] = total
        else:
            acc.pop(mask, None)


def _z8(phase: MixedPhase) -> dict[int, int]:
    """The canonical Z8 map {monomial mask: coefficient mod 8} of a phase,
    the one phase form of the reduce layer."""
    acc: dict[int, int] = {}
    for coeff, indicator in phase.terms:
        _add_xor(acc, coeff, indicator.masks)
    return acc


def _from_z8(terms: Mapping[int, int]) -> MixedPhase:
    """The canonical MixedPhase of a Z8 map: its terms in graded lex order."""
    kept = sorted(terms.items(), key=lambda kv: _term_key(kv[0]))
    return MixedPhase(tuple((w, GF2Poly._raw(frozenset((mask,)))) for mask, w in kept))

