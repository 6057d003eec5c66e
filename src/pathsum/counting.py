"""Exact amplitudes by counting solutions: the reduce layer and the one
enumeration kernel.

For a compiled system with h path variables, the transition amplitude
to output b is (#(0) - #(1)) / sqrt(2^h) where #(k) counts the
assignments x with B(x) = b and phase(x) = k. A mixed-mode phase is
tallied mod 8 instead, giving CyclotomicValues.

The reduce layer has one phase form, the canonical Z8 map {monomial
mask: coefficient mod 8} (a z2 phase f is 4*f). Gaussian elimination
over Z2 solves affine outputs: it refutes b (an exact zero) or
substitutes the pivots into the phase, giving the map, which _reduce
rewrites by the path-sum rules Elim and [HH] (Amy, arXiv:1805.06908)
before the variables it leaves are tallied; only the public eliminate
turns the map into a Reduced. Both substitute with the one product loop
of _substituted. The output matrix does not depend on b, so a system's
first elimination row-reduces it once, with symbolic right-hand sides,
into an _Echelon kept in the system's __dict__ and freed with it. Every
output restricts it: a parity check per vanished row, then _substitute,
which sets the pivots at b into the phase for the first consistent
output and, for the second, substitutes the phase once symbolically so
that later outputs filter its products. _row is the one pipeline behind
count, amplitude, cyclotomic_amplitude and the CLI's _amplitude, in both
modes; outputs that are not affine filter a sweep over all 2^h paths.
The cap bounds log2 of the assignments left for the rules and the
kernel: the free variables after elimination, checked once by _row
(before any substitution, so a rank it refuses substitutes nothing) or
amplitude_mixed, or all h for a sweep (non-affine outputs, distribution
and count_all).

The kernel, _tally, counts all 2^k paths (path index bit i - 1 is x_i,
so at most 63 variables) by output and phase value in fixed-size
blocks, folding each block into a running sum so memory stays bounded;
blocks can run on a thread pool sized by the PATHSUM_THREADS
environment variable. A block fixes the high path bits, and each
polynomial, restricted to it, is tabulated at all its paths at once by
the subset-sum (Moebius) transform of its algebraic normal form: L
passes over 2^L entries, whatever its number of terms (Joux,
Algorithmic Cryptanalysis, ch. 9; Bouillaguet et al., CHES 2010). Z2
polynomials share a table as the bits of its entries, summed by XOR;
a mixed phase, as the reduce layer's Z8 map, is summed mod 256 in a
uint8 table. _block_tally evaluates packed points monomial by monomial
instead: it is the Monte Carlo sampler's evaluator of its random
draws, and both count their paths' keys with _count_keys.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .circuit import BasisString, Circuit, all_basis_strings, bits_to_index
from .compile_z2 import PathSystem, compile_mixed
from .gf2poly import GF2Poly, MixedPhase, _add_xor, _from_z8, _mask_vars, _z8

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "CountPair",
    "RealAmplitude",
    "CyclotomicValue",
    "Reduced",
    "eliminate",
    "count",
    "count_all",
    "amplitude",
    "distribution",
    "amplitude_mixed",
    "cyclotomic_amplitude",
    "distribution_mixed",
]

DEFAULT_CAP = 30

_BLOCK_BITS = 20
# One ~320-byte dict entry per output: about 330 MB at 20 qubits, the dense simulator's limit.
_MAX_OUTPUT_QUBITS = 20
_MAX_PATH_VARS = 63


class CapExceededError(RuntimeError):
    """Enumeration would exceed the configured cap."""


def _check_packed(k: int) -> None:
    if k > _MAX_PATH_VARS:
        raise CapExceededError(
            f"{k} path variables exceed the packed-path limit of "
            f"{_MAX_PATH_VARS} (paths are packed in 64-bit words)"
        )


def _check_cap(k: int, cap: int, h: int | None = None) -> None:
    """Refuse to enumerate k path variables, of a system's h (default k),
    beyond the packed-path limit, which no cap lifts, or the cap."""
    if cap < 0:
        raise ValueError("cap must be non-negative")
    if k <= min(cap, _MAX_PATH_VARS):
        return
    span = f"enumeration over 2^{k} assignments ({k} path variables to enumerate, h = {k if h is None else h})"
    if k > _MAX_PATH_VARS:
        raise CapExceededError(
            f"{span} exceeds the packed-path limit of {_MAX_PATH_VARS} "
            "variables (paths are packed in 64-bit words) at any cap"
        )
    raise CapExceededError(
        f"{span} exceeds the cap of 2^{cap}; "
        "raise --cap, or estimate the amplitude with pathsum sample (z2-mode circuits only)"
    )


def _worker_count() -> int:
    raw = os.environ.get("PATHSUM_THREADS", "1")
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    warnings.warn(f"PATHSUM_THREADS={raw!r} is not a positive integer; running on 1 thread", RuntimeWarning)
    return 1


def _modulus(phase: GF2Poly | MixedPhase) -> int:
    """The phase's tally width: values mod 2 for a GF2Poly, mod 8 for a MixedPhase."""
    return 2 if isinstance(phase, GF2Poly) else 8


def _count_keys(key: np.ndarray, count: int, modulus: int) -> np.ndarray:
    """The table of paths by output and phase value from each path's key:
    its phase value, then the value of keyed output j at bit j + log2(modulus)."""
    return np.bincount(key.astype(np.intp, copy=False), minlength=modulus << count).reshape(-1, modulus)


def _block_tally(
    points: np.ndarray, outputs: Sequence[GF2Poly], phase: GF2Poly | MixedPhase, target: Sequence[int] | None
) -> np.ndarray:
    """Count the paths with the given uint64 indices by output and phase
    value, evaluating each polynomial at every point monomial by monomial:
    the Monte Carlo sampler's evaluator of its random draws.

    Columns are phase values: mod 2 for a GF2Poly phase, mod 8 for a
    MixedPhase. With a target basis string the one row counts the paths
    whose outputs equal it; with None there is one row per output
    index, qubit j being bit j of the index.
    """
    points <<= np.uint64(1)  # packed in place: x_i at bit i, since variables are 1-based
    if target:
        keep = np.ones(points.shape, dtype=bool)
        for poly, bit in zip(outputs, target):
            keep &= poly.values(points) == bool(bit)
        points = points[keep]
    modulus = _modulus(phase)
    keyed = outputs if target is None else ()
    shift = modulus.bit_length() - 1
    key = phase.values(points).astype(np.intp)
    for j, poly in enumerate(keyed):
        key |= poly.values(points).astype(np.intp) << (j + shift)
    return _count_keys(key, len(keyed), modulus)


# Z2 polynomials tabulated as the bits of one integer per path, at most this many to a table.
_LANES = 64


def _anf(masks: Sequence[int], weights: Sequence[int], dtype: type, bits: int) -> tuple[np.ndarray, ...]:
    """Weighted monomials as arrays (place, high, weights): moved to path
    index bits (x_i at bit i - 1), a monomial's low bits place it in a
    table of 2^bits paths and its high bits are the block prefixes it needs."""
    index = np.array(masks, dtype=np.uint64) >> np.uint64(1)
    place = (index & np.uint64((1 << bits) - 1)).astype(np.intp)
    return place, index >> np.uint64(bits), np.array(weights, dtype=dtype)


def _truth_table(anf: tuple[np.ndarray, ...], outside: np.uint64 | None, bits: int, op: np.ufunc) -> np.ndarray:
    """The sum by op of the weighted monomials given by _anf at the 2^bits
    paths of the block whose prefix holds no bit of outside (None for the
    one block of a tally), in an order of the paths that depends on bits
    alone: np.bitwise_xor for Z2 polynomials, one to a bit of the weights,
    and np.add for a Z8 phase, whose uint8 sums wrap mod 256.

    Restricted to the block, a monomial whose high part holds a bit of
    outside is 0 and the others are their low parts; they are placed in
    a table at their low parts and summed over subsets (the Moebius
    transform of the algebraic normal form) by one pass per bit. A pass
    over a low bit works on runs of a few entries, so the high half of
    the bits is summed first and the table then transposed, which makes
    the low half the high bits of the order returned.
    """
    place, high, weights = anf
    if outside is not None:
        kept = high & outside == 0
        place, weights = place[kept], weights[kept]
    table = np.zeros(1 << bits, dtype=weights.dtype)
    op.at(table, place, weights)
    low = bits // 2
    for i in range(low, bits):
        pairs = table.reshape(-1, 2, 1 << i)
        op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    if low:
        table = table.reshape(-1, 1 << low).T.copy().reshape(-1)
    for i in range(bits - low, bits):
        pairs = table.reshape(-1, 2, 1 << i)
        op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return table


def _fold(k: int, work: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Sum the tables work(start, stop) over the blocks of 2^k paths as
    they finish; a thread pool keeps at most two blocks per worker in flight."""
    total = 0  # the first block's table, then summed in place
    step = 1 << min(k, _BLOCK_BITS)
    spans = ((start, start + step) for start in range(0, 1 << k, step))
    workers = _worker_count()
    if workers == 1 or k <= _BLOCK_BITS:
        for start, stop in spans:
            total += work(start, stop)
        return total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for start, stop in spans:
            pending.append(pool.submit(work, start, stop))
            if len(pending) >= 2 * workers:
                total += pending.popleft().result()
        for future in pending:
            total += future.result()
    return total


def _tally(
    k: int,
    outputs: Sequence[GF2Poly],
    phase: GF2Poly | MixedPhase | Mapping[int, int],
    target: Sequence[int] | None,
    cap: int,
) -> np.ndarray:
    """The _block_tally table of all 2^k paths; the phase may also be the
    reduce layer's Z8 map, tallied mod 8.

    Each block of 2^L paths fixes the high path bits to its prefix, and
    _truth_table tabulates the polynomials on it in L * 2^L steps whatever
    their number of terms: a z2 phase and the outputs, XORed with the
    target if there is one, as the bits of lanes of up to _LANES bits (a
    z2 phase is bit 0 of the first), and a mixed phase as a Z8 table of
    its own. Each path's key for _count_keys is read off the tables, and
    the blocks are folded by _fold.
    """
    _check_cap(k, cap)
    keyed = outputs if target is None else ()
    if len(keyed) > _MAX_OUTPUT_QUBITS:
        raise CapExceededError(
            f"full distribution over {len(keyed)} qubits exceeds the {_MAX_OUTPUT_QUBITS}-qubit cap"
        )
    bits = min(k, _BLOCK_BITS)
    wanted = [int(bit) for bit in target or ()]
    # The tables, the first with the phase value in its low bits: a z2
    # phase is bit 0 of the first lane table, a mixed phase a Z8 table of
    # its own. Lane j of the lanes starts at bit base + j of a path's key.
    if isinstance(phase, GF2Poly):
        modulus, lanes, wanted, base, anfs = 2, [phase, *outputs], [0, *wanted], 0, []
    else:
        terms = _z8(phase) if isinstance(phase, MixedPhase) else phase
        modulus, lanes, base = 8, list(outputs), 3
        anfs = [(_anf(list(terms), list(terms.values()), np.uint8, bits), np.add)]
    offsets = [0] * len(anfs)
    for first in range(0, len(lanes), _LANES):
        group = lanes[first : first + _LANES]
        dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= len(group))
        masks = [mask for poly in group for mask in poly.masks]
        weights = [1 << j for j, poly in enumerate(group) for _ in poly.masks]
        # The target as a constant: the paths that reach it read 0 in every output's bit.
        constant = sum(bit << j for j, bit in enumerate(wanted[first : first + _LANES]))
        anfs.append((_anf([*masks, 0], [*weights, constant], dtype, bits), np.bitwise_xor))
        offsets.append(base + first)

    def work(start: int, stop: int) -> np.ndarray:
        outside = ~np.uint64(start >> bits) if k > bits else None
        tables = [_truth_table(anf, outside, bits, op) for anf, op in anfs]
        if modulus == 8:
            tables[0] &= np.uint8(7)
        if target is None:
            key = tables[0]
            for table, offset in zip(tables[1:], offsets[1:]):
                key = key | table.astype(np.intp) << offset
            return _count_keys(key, len(keyed), modulus)
        keep = tables[0] < modulus  # no output bit of the first table is set
        for table in tables[1:]:
            keep &= table == 0
        return _count_keys(tables[0][keep], 0, modulus)

    return _fold(k, work)


@dataclass(frozen=True)
class Reduced:
    """Result of eliminating the output constraints: the surviving free
    variables and the phase with all pivot variables substituted away."""

    free_vars: tuple[int, ...]
    phase: GF2Poly | MixedPhase


# Key of a system's _Echelon in vars(system), so that it is freed with the
# system. Threads that race to build it build equal ones; either is kept.
_ECHELON = "_echelon"


def eliminate(system: PathSystem, output_bits: Sequence[int]) -> Reduced | None:
    """Solve the affine system B(x) = b by Gaussian elimination over Z2.

    Returns None when the system is inconsistent (the amplitude is then
    exactly zero). Otherwise each pivot variable is expressed in the
    free variables and substituted into every phase indicator, and the
    indicators are summed into the canonical Z8 map, which only this
    turns into a Reduced: a z2 phase comes back as a GF2Poly, a mixed
    one as its canonical MixedPhase (what canonicalize() returns).

    B does not depend on b, so a system is row-reduced once, by its
    first elimination, into the _Echelon kept in its __dict__ for as
    long as the system lives; every elimination restricts it to b, which
    _eliminate packs with bits_to_index (each bit read mod 2). An error
    (a wrong length of b, an output that is not affine) records nothing.
    """
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    solved = _eliminate(system, output_bits)
    if solved is None:
        return None
    free_vars, terms = solved
    if isinstance(system.phase, GF2Poly):
        return Reduced(free_vars, GF2Poly._raw(frozenset(terms)))
    return Reduced(free_vars, _from_z8(terms))


def _eliminate(
    system: PathSystem, output_bits: Sequence[int], cap: int | None = None
) -> tuple[tuple[int, ...], dict[int, int]] | None:
    """eliminate at b, as (free variables, Z8 map): b is packed by
    bits_to_index into _row_reduce's word, and the system's _Echelon,
    built on its first call, refutes it by a parity test per vanished
    row; the cap, when one is given, is checked on the free variables
    before the echelon is restricted, so a rank it refuses substitutes
    nothing."""
    echelon = vars(system).get(_ECHELON)
    if echelon is None:
        echelon = vars(system)[_ECHELON] = _Echelon(system)
    word = 1 | bits_to_index(output_bits) << 1
    if any((dep & word).bit_count() & 1 for dep in echelon.checks):
        return None
    if cap is not None:
        # The substituted phase can hold a term per triple of free variables.
        _check_cap(len(echelon.free_vars), cap, system.num_path_vars)
    return echelon.free_vars, echelon.restrict(system.phase, word)


def _row_reduce(system: PathSystem) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """The row reduction of eliminate, with output j's right-hand side the
    dependency mask 1 << (j + 1) (bit 0 stands for the constant 1), so
    that it holds at every b: a right-hand side dep is the parity of
    dep & word at word = 1 | sum of b_j << (j + 1).

    Returns {pivot variable: (row mask, dep)}, each row holding its pivot
    and free variables only, and the nonzero dep of the rows that
    vanished: B(x) = b is consistent iff each of those is 0 at b. It
    touches no phase."""
    # Echelon form: each row's pivot is its lowest variable, and a new row
    # is reduced only by the pivots it holds, lowest first.
    pivots: dict[int, tuple[int, int]] = {}
    checks: list[int] = []
    pivot_bits = 0
    for j, poly in enumerate(system.outputs, 1):
        mask, rhs = 0, 1 << j
        for m in poly.masks:  # affine: one-variable monomials, and 0 for the constant 1
            if m & (m - 1):
                raise ValueError("output constraints must be affine")
            if m:
                mask = mask | m if mask else m  # a one-variable row shares its output's int
            else:
                rhs ^= 1
        while hit := mask & pivot_bits:
            pmask, prhs = pivots[(hit & -hit).bit_length() - 1]
            mask ^= pmask
            rhs ^= prhs
        if mask == 0:
            if rhs:
                checks.append(rhs)
            continue
        low = mask & -mask
        pivots[low.bit_length() - 1] = (mask, rhs)
        pivot_bits |= low
    # Back-substitute in descending pivot order: the higher rows a row
    # holds are already reduced, so each hit is cleared once.
    for var in sorted(pivots, reverse=True):
        mask, rhs = pivots[var]
        for other in _mask_vars((mask & pivot_bits) ^ (1 << var)):
            omask, orhs = pivots[other]
            mask ^= omask
            rhs ^= orhs
        pivots[var] = (mask, rhs)
    return pivots, checks


def _indicators(phase: GF2Poly | MixedPhase) -> Iterable[tuple[int, GF2Poly]]:
    """The (Z8 coefficient, indicator) terms of a phase; a z2 phase f is 4*f."""
    return ((4, phase),) if isinstance(phase, GF2Poly) else phase.terms


class _Echelon:
    """A system's outputs row-reduced once, each right-hand side kept as a
    dependency mask, and restricted to each consistent b.

    Its first restriction substitutes b's pivots into the phase directly.
    The second substitutes the phase once with each pivot's own bit
    standing for its rhs: pivot v becomes the XOR of its row's free
    variables and x_v, so every phase term is one XOR set of products
    over the free variables and the pivot bits. At an output b a product
    survives when every pivot bit it holds has rhs 1, and loses those
    bits. What is kept then is only what that needs: the bit and
    dependency mask of each pivot in the phase, the XOR sets that hold a
    pivot bit, and the Z8 map of the rest, which is the same at every b.
    The pivot rows are dropped.
    """

    __slots__ = ("free_vars", "checks", "rows", "restricted", "symbolic")

    def __init__(self, system: PathSystem) -> None:
        rows, self.checks = _row_reduce(system)
        self.rows = rows
        self.free_vars = tuple(v for v in range(1, system.num_path_vars + 1) if v not in rows)
        self.restricted = False
        self.symbolic = None  # (pivots, strip, fixed, sets), from the second restriction on

    def restrict(self, phase: GF2Poly | MixedPhase, word: int) -> dict[int, int]:
        """The Z8 map of the system's phase at a consistent b, for word as in _row_reduce."""
        # rows is dropped only after symbolic is set, so a racing thread
        # that reads rows first finds one of the two.
        rows = self.rows
        symbolic = self.symbolic
        if symbolic is None and not self.restricted:
            self.restricted = True
            replacements = {
                var: [1 << w for w in _mask_vars(mask ^ (1 << var))] + [0] * ((dep & word).bit_count() & 1)
                for var, (mask, dep) in rows.items()
            }
            return _substitute(phase, replacements, sum(1 << var for var in rows), 0)[0]
        if symbolic is None:
            # x_v's row mask holds v and its free variables: the replacement of x_v.
            support = phase.support()
            replacements = {
                var: [1 << w for w in _mask_vars(mask)] for var, (mask, _) in rows.items() if var in support
            }
            bits = sum(1 << var for var in replacements)
            pivots = [(1 << var, rows[var][1]) for var in replacements]
            symbolic = self.symbolic = (pivots, ~bits, *_substitute(phase, replacements, bits, bits))
            self.rows = None
        pivots, strip, fixed, sets = symbolic
        off = 0  # the pivot bits whose rhs is 0 at b
        for bit, dep in pivots:
            if not (dep & word).bit_count() & 1:
                off |= bit
        terms = dict(fixed)
        for coeff, products in sets:
            xor: set[int] = set()
            for p in products:
                if not p & off:
                    p &= strip
                    if p in xor:
                        xor.remove(p)
                    else:
                        xor.add(p)
            _add_xor(terms, coeff, xor)
        return terms


def _substitute(
    phase: GF2Poly | MixedPhase, replacements: Mapping[int, Sequence[int]], bits: int, held: int
) -> tuple[dict[int, int], list[tuple[int, tuple[int, ...]]]]:
    """The substitution of eliminate: each x_var of bits set to the XOR of
    replacements[var] in every phase indicator, by _substituted. Returns
    the Z8 map of the XOR sets whose products hold no bit of held, and
    the (coefficient, XOR set) pairs of the rest. 4 * 1_[XOR of S] is
    4 * (sum of S) mod 8, so the sets of coefficient 4 merge into one,
    whose products split the same way."""
    terms: dict[int, int] = {}
    sets: list[tuple[int, tuple[int, ...]]] = []
    fours: set[int] = set()
    for coeff, indicator in _indicators(phase):
        xor = _substituted(indicator.masks, replacements, bits)
        if coeff == 4:
            fours ^= xor
        elif held and any(p & held for p in xor):
            sets.append((coeff, tuple(xor)))
        else:
            _add_xor(terms, coeff, xor)
    kept = tuple(p for p in fours if p & held) if held else ()
    _add_xor(terms, 4, fours.difference(kept))
    if kept:
        sets.append((4, kept))
    return terms, sets


def _substituted(masks: Iterable[int], replacements: Mapping[int, Sequence[int]], bits: int) -> set[int]:
    """The XOR set of the masks after setting each x_var to the XOR of
    replacements[var]: masks 1 << v of variables not replaced, or 0 for
    the constant 1. bits is the OR of 1 << var over the variables
    replaced. Each monomial becomes its products with one replacement
    mask per replaced variable; products that coincide cancel."""
    xor: set[int] = set()
    for mask in masks:
        products = [mask & ~bits]
        for var in _mask_vars(mask & bits):
            products = [p | r for p in products for r in replacements[var]]
        for p in products:
            if p in xor:
                xor.remove(p)
            else:
                xor.add(p)
    return xor


def _reduce(terms: dict[int, int], free_vars: Sequence[int]) -> tuple[int, dict[int, int], tuple[int, ...]] | None:
    """Sum free variables out of sum_y w^phase(y) exactly, by the path-sum
    rules of Amy (arXiv:1805.06908) on the Z8 map terms, in place, to a fixed point.

    [HH]: a variable x whose terms are all 4*x*m, each m the constant 1
    or one variable, sums to 2*[g = 0] with g the XOR of the m. A factor
    2 is recorded; g = 1 makes the whole sum zero; otherwise g = 0 is
    solved for its lowest variable y, which is substituted into the
    other terms and drops out. Elim, a variable in no term, is the case
    g = 0.

    Returns the number of doublings, the residual terms and the free
    variables left, in the order given; or None when the sum is exactly zero.
    """
    free = list(free_vars)
    doublings = 0
    while True:
        blocked = 0
        for mask, c in terms.items():
            if c != 4 or mask.bit_count() > 2:
                blocked |= mask
        x = next((v for v in free if not blocked >> v & 1), None)
        if x is None:
            return doublings, terms, tuple(free)
        free.remove(x)
        doublings += 1
        bit, g, constant = 1 << x, 0, False  # g: the XOR of its variables, plus the constant
        for mask in [m for m in terms if m & bit]:
            del terms[mask]
            if mask == bit:
                constant = True
            else:
                g |= mask ^ bit
        if not g and constant:
            return None
        if g:
            y = (g & -g).bit_length() - 1
            solved = {y: [1 << v for v in _mask_vars(g ^ (1 << y))] + [0] * constant}
            for mask in [m for m in terms if m >> y & 1]:
                _add_xor(terms, terms.pop(mask), _substituted((mask,), solved, 1 << y))
            free.remove(y)


def _reduced_row(terms: dict[int, int], free_vars: Sequence[int], width: int, cap: int) -> list[int]:
    """The tally row of sum_y w^phase(y) over the free variables, at the
    width 2 (z2) or 8 (mixed): _reduce on the phase's Z8 map terms, then
    the remaining variables relabelled to 1..k in the map, which _tally
    takes as it is, and the row scaled by 2^doublings. Exact, so its
    value equals the unreduced one. Its callers check the cap on the free
    variables passed in; _tally checks the k left."""
    reduced = _reduce(terms, free_vars)
    if reduced is None:
        return [0] * width
    doublings, terms, rest = reduced
    bit = {var: 1 << i for i, var in enumerate(rest, 1)}
    local = {sum(bit[v] for v in _mask_vars(mask)): c for mask, c in terms.items()}
    (row,) = _tally(len(rest), (), local, None, cap).tolist()
    return [n << doublings for n in row[:: 8 // width]]  # a z2 phase 4*f takes the values 0 and 4


def _row(system: PathSystem, output_bits: Sequence[int], cap: int) -> tuple[list[int], int]:
    """Output b's tally row at the phase's width, and the paths reaching b.

    Affine outputs are eliminated by _eliminate, as eliminate does it, so
    the system keeps its _Echelon from its first output on (an
    inconsistent B(x) = b reaches no path), and the rest reduced by
    _reduced_row; other outputs filter the sweep over all 2^h paths.
    After reduction the row keeps its value but its entries are no
    longer path counts.
    """
    if len(output_bits) != system.num_qubits:
        raise ValueError("output length must match the qubit count")
    h = system.num_path_vars
    _check_cap(0, cap)  # refuses a negative cap even where elimination refutes b
    if any(poly.degree > 1 for poly in system.outputs):
        b = tuple(bit & 1 for bit in output_bits)
        (row,) = _tally(h, system.outputs, system.phase, b, cap).tolist()
        return row, sum(row)
    solved = _eliminate(system, output_bits, cap)
    if solved is None:
        return [0] * _modulus(system.phase), 0
    free_vars, terms = solved
    return _reduced_row(terms, free_vars, _modulus(system.phase), cap), 1 << len(free_vars)


@dataclass(frozen=True)
class CountPair:
    """Solution counts of B(x) = b split by phase parity, with h recorded."""

    count0: int
    count1: int
    h: int

    @property
    def gap(self) -> int:
        return self.count0 - self.count1

    @property
    def total(self) -> int:
        return self.count0 + self.count1


_OMEGA_POWERS = tuple(complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) ** k for k in range(4))


def _scaled_sum(coeffs: Sequence[int], weights: Sequence, half_power: int) -> float | complex:
    """sum(c * w) / sqrt(2^half_power) at any half_power: each integer c is
    first divided exactly by 2^(half_power // 2), so no float 2^half_power
    overflows, and the power-of-two step leaves every other bit unchanged."""
    shift = 1 << half_power // 2
    total = sum(c / shift * w for c, w in zip(coeffs, weights))
    return total / math.sqrt(2) if half_power % 2 else total


@dataclass(frozen=True)
class RealAmplitude:
    """Exact amplitude gap / sqrt(2^half_power) with integer numerator."""

    gap: int
    half_power: int

    def as_float(self) -> float:
        return _scaled_sum((self.gap,), (1,), self.half_power)

    def __str__(self) -> str:
        return f"{self.gap}/2^({self.half_power}/2)"


@dataclass(frozen=True)
class CyclotomicValue:
    """Exact amplitude (c0 + c1*w + c2*w^2 + c3*w^3) / sqrt(2^half_power)
    with w = exp(i*pi/4) and integer coefficients."""

    coeffs: tuple[int, int, int, int]
    half_power: int

    @classmethod
    def zero(cls, half_power: int) -> CyclotomicValue:
        return cls((0, 0, 0, 0), half_power)

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0, 0, 0, 0)

    def as_complex(self) -> complex:
        return _scaled_sum(self.coeffs, _OMEGA_POWERS, self.half_power)

    def mag_squared(self) -> tuple[int, int]:
        """|numerator|^2 as (a, b) meaning a + b*sqrt(2), exactly."""
        c0, c1, c2, c3 = self.coeffs
        rational = c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3
        radical = c0 * c1 + c1 * c2 + c2 * c3 - c3 * c0
        return rational, radical

    def __str__(self) -> str:
        c0, c1, c2, c3 = self.coeffs
        parts = [str(c0)]
        for coeff, name in ((c1, "w"), (c2, "w^2"), (c3, "w^3")):
            sign = "+" if coeff >= 0 else "-"
            parts.append(f"{sign} {abs(coeff)}*{name}")
        return f"({' '.join(parts)})/2^({self.half_power}/2)"


def _value(row: Sequence[int], h: int) -> RealAmplitude | CyclotomicValue:
    """The amplitude of one tally row: a row of width 2 counts phase
    parities, a row of width 8 counts the phase mod 8 (w^4 = -1)."""
    if len(row) == 2:
        return RealAmplitude(row[0] - row[1], h)
    return CyclotomicValue(tuple(row[k] - row[k + 4] for k in range(4)), h)


def _require_z2(system: PathSystem) -> None:
    if not isinstance(system.phase, GF2Poly):
        raise ValueError("this entry point handles z2-mode systems only, not a mixed (mod 8) phase")


def count(system: PathSystem, output_bits: Sequence[int], cap: int = DEFAULT_CAP) -> CountPair:
    """Count solutions of B(x) = b with phase 0 and with phase 1: the
    paths that reach b, split by the gap of _row's row. The cap bounds
    the free variables after elimination, or h for a non-affine output.
    """
    _require_z2(system)
    (even, odd), reached = _row(system, output_bits, cap)
    gap = even - odd
    return CountPair((reached + gap) // 2, (reached - gap) // 2, system.num_path_vars)


def count_all(system: PathSystem, cap: int = DEFAULT_CAP) -> dict[BasisString, CountPair]:
    """Count pairs for every output basis string in a single sweep."""
    _require_z2(system)
    h = system.num_path_vars
    table = _tally(h, system.outputs, system.phase, None, cap)
    return {
        bits: CountPair(c0, c1, h)
        for bits, (c0, c1) in zip(all_basis_strings(system.num_qubits), table.tolist())
    }


def amplitude(system: PathSystem, output_bits: Sequence[int], cap: int = DEFAULT_CAP) -> RealAmplitude:
    """Exact transition amplitude of a z2-mode system to one output basis string."""
    _require_z2(system)
    return _amplitude(system, output_bits, cap)


def _amplitude(system: PathSystem, output_bits: Sequence[int], cap: int) -> RealAmplitude | CyclotomicValue:
    """Exact transition amplitude of a system of either mode to one output basis string."""
    return _value(_row(system, output_bits, cap)[0], system.num_path_vars)


def distribution(system: PathSystem, cap: int = DEFAULT_CAP) -> dict[BasisString, RealAmplitude | CyclotomicValue]:
    """Exact amplitudes of every reachable output in one sweep over 2^h paths:
    RealAmplitudes for a z2 phase, CyclotomicValues for a mixed phase.

    Outputs with no admissible path at all are omitted; a reachable
    output whose terms cancel still appears, with the zero value.
    """
    h = system.num_path_vars
    table = _tally(h, system.outputs, system.phase, None, cap)
    return {
        bits: _value(row, h)
        for bits, row in zip(all_basis_strings(system.num_qubits), table.tolist())
        if any(row)
    }


distribution_mixed = distribution


def amplitude_mixed(
    phase: MixedPhase,
    free_vars: Sequence[int],
    num_hadamards: int,
    cap: int = DEFAULT_CAP,
) -> CyclotomicValue:
    """Sum omega^phase(y) over all assignments of the free variables.

    The result is normalized by sqrt(2^num_hadamards), the total
    Hadamard count of the originating circuit, regardless of how many
    variables survived elimination. The free variables are distinct path
    variables numbered 1..num_hadamards, and the cap bounds how many.
    """
    if not isinstance(phase, MixedPhase):
        raise ValueError("amplitude_mixed takes a mixed (mod 8) phase, not a z2 phase polynomial")
    free = set(free_vars)
    below = sorted(v for v in free if v < 1)
    if below:
        raise ValueError(f"free variables are path variables numbered from 1, got {below}")
    if len(free) != len(free_vars):
        repeated = sorted(v for v, n in Counter(free_vars).items() if n > 1)
        raise ValueError(f"free variables repeat {repeated}")
    if num_hadamards < 0:
        raise ValueError(f"num_hadamards must be non-negative, got {num_hadamards}")
    above = sorted(v for v in free if v > num_hadamards)
    if above:
        raise ValueError(f"free variables {above} are numbered above num_hadamards = {num_hadamards}")
    extra = phase.support() - free
    if extra:
        raise ValueError(
            f"phase references non-free variables {sorted(extra)}"
        )
    _check_cap(len(free_vars), cap, num_hadamards)
    return _value(_reduced_row(_z8(phase), free_vars, 8, cap), num_hadamards)


def cyclotomic_amplitude(
    circuit: Circuit,
    input_bits: Sequence[int],
    output_bits: Sequence[int],
    cap: int = DEFAULT_CAP,
) -> CyclotomicValue:
    """Exact transition amplitude of a mixed-mode circuit, by _row; an
    inconsistent output constraint gives the exact zero value."""
    return _amplitude(compile_mixed(circuit, input_bits), output_bits, cap)
