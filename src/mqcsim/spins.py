"""Spin-1/2 systems, basis encoding, and matrix-free collective operators.

Basis convention (shared by every module): a basis state is an integer
``b`` in ``[0, 2**n_spins)``; bit ``i`` set means spin ``i`` points up
(``m_i = +1/2``), so spin 0 lives in the least significant bit. The
magnetization of a state is ``popcount(b) - n_spins/2`` and the coherence
order of a density-matrix element ``(r, c)`` is ``m(r) - m(c)``.

Couplings are angular frequencies (rad/s), times are seconds; every phase
accumulated downstream is the dimensionless product ``d * t``.

The two Hamiltonians built here are the secular dipolar interaction

    Hzz = sum_{i<j} d_ij (2 Iz_i Iz_j - Ix_i Ix_j - Iy_i Iy_j)

(equivalently ``3 Iz Iz - I.I``) and the double-quantum interaction

    Hdq = -1/2 sum_{i<j} d_ij (I+_i I+_j + I-_i I-_j)

which flips pairs of equally oriented spins and changes the coherence order
by +-2. :func:`apply_operator` applies the collective spins matrix-free,
flipping spin i on the view (above i, bit i, below i) of the state. The
pair sums of Hzz and Hdq go through a Kronecker split instead of one
update per pair: the low L = N // 2 spins form the low index and the rest
the high index, so a state is the matrix psi[high, low]. The pairs among
the high spins are one sparse product on the high index, the pairs among
the low spins one on the low index, and the pairs of a low spin with high
spin j are two products on the low index, one per direction in which they
flip bit j of the high index. The factors are small real CSR matrices,
built on first use per system and kind: 8960 entries (110 kB) at N = 14,
against 745 472 for the pair sum as one matrix. A call costs
O(pairs * 2**N) multiply-adds plus one (low, high) transpose of the state;
one complex Hdq vector at N = 14 takes 2-3 ms on 2 vCPUs. Both
operators change the popcount by 0 or +-2, so neither connects the two
halves of :func:`parity_sectors`; Hzz keeps the popcount, so it does not
connect two of the :func:`magnetization_sectors` either.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

import numpy as np
import scipy.sparse

from .errors import CapExceeded, InvalidParameter, integer, number

# columns of a (D, k) block per pass of the pair kernel, so that its
# temporaries are a few D x _PAIR_CHUNK arrays whatever k is
_PAIR_CHUNK = 12
# bytes of physical memory: the one budget every size check compares with
MEMORY_BUDGET = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(n_bytes: int, what: str) -> None:
    """Raise :class:`CapExceeded` unless ``n_bytes`` fit in ``MEMORY_BUDGET``.

    Called with a path's estimate before its first large allocation.
    """
    if n_bytes > MEMORY_BUDGET:
        raise CapExceeded(f"{what} needs {n_bytes} bytes, budget {MEMORY_BUDGET} bytes")


def _pair_entries(n_spins: int) -> int:
    """Entries of one kind's pair-kernel factors when every pair is coupled:
    each pair term flips half the states of the index it acts on."""
    low = n_spins // 2
    high = n_spins - low
    return ((low * (low - 1) << low) + (high * (high - 1) << high)) // 4 + (high * low << low)


def _pair_bytes(n_spins: int, columns: int) -> int:
    """Peak bytes the pair kernel allocates beyond its input and output on
    ``columns`` float64 columns: at most six 2**N x _PAIR_CHUNK temporaries,
    and, on first use, 48 bytes per factor entry while the factors are built
    (12 of them are kept)."""
    return 48 * ((1 << n_spins) * min(columns, _PAIR_CHUNK) + _pair_entries(n_spins))


def _vector_bytes(n_spins: int) -> float:
    """Peak bytes of the vector path: per basis state, the int8 and float64
    spin-sign temporaries of the Hzz diagonal, three float64 tables, and
    ten complex vectors for the Chebyshev series and the kernel's
    temporaries; then the construction of the pair factors; inf past 64
    spins, beyond any budget, rather than a huge integer."""
    if n_spins > 64:
        return math.inf
    return (1 << n_spins) * (9 * n_spins + 3 * 8 + 10 * 16) + _pair_bytes(n_spins, 0)


def _require_vector_path(n_spins: int) -> None:
    """Budget check of the vector path, made before its first table is
    built and before an input state is converted or scanned."""
    require_memory(_vector_bytes(n_spins), f"the {n_spins}-spin vector path")


class OperatorKind(str, Enum):
    """Collective operators available to :func:`apply_operator`."""

    IZ_TOTAL = "iz"
    IX_TOTAL = "ix"
    IY_TOTAL = "iy"
    HZZ = "zz"
    HDQ = "dq"


@dataclass(frozen=True)
class AllToAll:
    """Uniform coupling d0 between every pair."""

    d0: float


@dataclass(frozen=True)
class Chain:
    """1D chain with power-law couplings d0 / |i-j|**exponent."""

    d0: float
    exponent: float = 3.0


@dataclass(frozen=True)
class Lattice3D:
    """Simple cubic lattice with dipolar couplings d0 / r**3.

    ``r`` is the integer lattice (L1) distance between sites and pairs
    beyond ``cutoff`` are dropped. Sites fill ``shape`` in lexicographic
    order; ``n_spins`` may not exceed the number of sites. True FCC
    geometries go through :class:`ExplicitCouplings`.
    """

    d0: float
    cutoff: float
    shape: tuple[int, int, int] = (2, 2, 2)


@dataclass(frozen=True)
class ExplicitCouplings:
    """Caller-supplied symmetric coupling matrix (rad/s)."""

    couplings: np.ndarray


Geometry = Union[AllToAll, Chain, Lattice3D, ExplicitCouplings]


def parity_sectors(n_spins: int) -> list[np.ndarray]:
    """Basis states of even and of odd popcount, each in increasing order."""
    odd = np.bitwise_count(np.arange(1 << n_spins, dtype=np.uint64)) & 1
    return [np.flatnonzero(odd == p) for p in (0, 1)]


def magnetization_sectors(n_spins: int) -> list[np.ndarray]:
    """Basis states of popcount 0, 1, ..., N, each in increasing order."""
    popcount = np.bitwise_count(np.arange(1 << n_spins, dtype=np.uint64))
    return [np.flatnonzero(popcount == k) for k in range(n_spins + 1)]


def _spin_count(n_spins) -> int:
    """``n_spins`` as an int, or an :class:`InvalidParameter` naming it
    unless it is an integer of at least 2."""
    n_spins = integer(n_spins, "n_spins")
    if n_spins < 2:
        raise InvalidParameter("n_spins", "need at least 2 spins")
    return n_spins


@dataclass(eq=False)
class SpinSystem:
    """N coupled spins 1/2; read-only after construction.

    ``n_spins`` must be an integer of at least 2, and ``couplings`` an
    N x N symmetric matrix with an exactly zero diagonal and a finite
    absolute sum, which bounds every Hzz diagonal entry. Nothing of size
    2**N is allocated here: each derived table (magnetization, Hzz diagonal,
    pair factors, eigenbases) is built on first use and kept in ``_tables``.
    The operator applications that share them are safe for concurrent use,
    and concurrent first uses at worst build a table twice. Equality and
    hash are by identity.
    """

    n_spins: int
    couplings: np.ndarray
    geometry: Geometry | None = None
    # key -> derived table, filled by _derived
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n = self.n_spins = _spin_count(self.n_spins)
        self.couplings = np.asarray(self.couplings, dtype=np.float64)
        if self.couplings.shape != (n, n):
            raise InvalidParameter("couplings", f"coupling matrix shape "
                                                f"{self.couplings.shape} != ({n}, {n})")
        if not np.all(np.isfinite(self.couplings)):
            raise InvalidParameter("couplings", "couplings must be finite")
        with np.errstate(over="ignore"):  # a difference beyond float range is asymmetry
            symmetric = np.allclose(self.couplings, self.couplings.T, atol=0.0)
            # |Hzz diagonal| <= sum_{i<j} |d_ij| / 2, a quarter of this sum
            bounded = np.isfinite(np.abs(self.couplings).sum())
        if not symmetric:
            raise InvalidParameter("couplings", "coupling matrix must be symmetric")
        if np.any(np.diag(self.couplings) != 0.0):
            raise InvalidParameter("couplings",
                                   "coupling matrix diagonal must be exactly zero")
        if not bounded:
            raise InvalidParameter("couplings", "couplings overflow the Hzz diagonal")

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    @property
    def magnetization(self) -> np.ndarray:
        """m = popcount(b) - N/2 per basis state b, shape (2**N,)."""
        return _derived(self, "magnetization", lambda: np.bitwise_count(
            np.arange(self.dim, dtype=np.uint64)) - self.n_spins / 2.0)

    def iz_norm(self) -> float:
        """Tr{Iz^2} = N * 2**(N-2), the deviation-density normalization."""
        return self.n_spins * (1 << (self.n_spins - 2))


def _derived(system: SpinSystem, key, build):
    """The table ``key`` of ``system``, made by ``build()`` on first use
    after the vector path's budget check, and the same object on every
    later use. Concurrent first uses may each build it, and all get the one
    that is kept; a caller must not modify it."""
    table = system._tables.get(key)
    if table is None:
        _require_vector_path(system.n_spins)
        table = system._tables.setdefault(key, build())
    return table


def _zz_diagonal(system: SpinSystem) -> np.ndarray:
    """Diagonal of Hzz, (1/2) sum_{i<j} d_ij s_i s_j with s = +-1, from D x N
    sign tables (9 N bytes a state). Tables split over the high and low spins
    would be far smaller, but freeing these raises glibc's trim threshold;
    without that, the Chebyshev loop re-faults its temporaries on every
    operator application, and a 14-spin Hdq evolution ran about 30% slower."""
    def build():
        idx = np.arange(system.dim)
        bits = ((idx[:, None] >> np.arange(system.n_spins)) & 1).astype(np.int8)
        s = 2.0 * bits - 1.0
        return 0.5 * np.einsum("ai,ij,aj->a", s, system.couplings, s) / 2.0
    return _derived(system, "zz-diagonal", build)


def build_system(geometry: Geometry, n_spins: int) -> SpinSystem:
    """Construct a :class:`SpinSystem` with a populated coupling matrix.

    Raises :class:`InvalidParameter` for a bad ``n_spins`` or geometry and
    :class:`CapExceeded` when the N x N coupling matrix would not fit in
    ``MEMORY_BUDGET``; that check runs before the matrix is filled.
    """
    n_spins = _spin_count(n_spins)
    require_memory(8 * n_spins**2, f"the {n_spins}-spin coupling matrix")

    if isinstance(geometry, (AllToAll, Chain, Lattice3D)) and geometry.d0 <= 0:
        raise InvalidParameter("d0", "d0 must be positive")
    d = np.zeros((n_spins, n_spins))
    if isinstance(geometry, AllToAll):
        d[:] = geometry.d0
        np.fill_diagonal(d, 0.0)
    elif isinstance(geometry, Chain):
        # in float64 an extreme exponent gives 0 or inf (refused) and no error
        with np.errstate(over="ignore", divide="ignore"):
            for i in range(n_spins):
                for j in range(i + 1, n_spins):
                    r = np.float64(abs(i - j))
                    d[i, j] = d[j, i] = geometry.d0 / r**geometry.exponent
    elif isinstance(geometry, Lattice3D):
        if not geometry.cutoff > 0:  # NaN too, which would drop every pair
            raise InvalidParameter("cutoff", "cutoff must be positive")
        n_sites = math.prod(geometry.shape)
        if n_spins > n_sites:
            raise InvalidParameter("n_spins", f"n_spins={n_spins} exceeds {n_sites} "
                                              f"sites of shape {geometry.shape}")
        # the first n_spins sites in lexicographic order lie in a box of side n_spins
        box = itertools.product(*(range(min(s, n_spins)) for s in geometry.shape))
        sites = list(itertools.islice(box, n_spins))
        for a in range(n_spins):
            for b in range(a + 1, n_spins):
                r = sum(abs(x - y) for x, y in zip(sites[a], sites[b]))
                if r <= geometry.cutoff:
                    d[a, b] = d[b, a] = geometry.d0 / r**3
    elif isinstance(geometry, ExplicitCouplings):
        mat = np.asarray(geometry.couplings, dtype=np.float64)
        if mat.shape != (n_spins, n_spins):
            raise InvalidParameter("couplings", f"explicit coupling matrix shape "
                                                f"{mat.shape} != ({n_spins}, {n_spins})")
        d = mat.copy()
    else:
        raise InvalidParameter("geometry", f"unknown geometry {geometry!r}")

    return SpinSystem(n_spins=n_spins, couplings=d, geometry=geometry)


def all_finite(a: np.ndarray) -> bool:
    """True unless ``a`` holds a NaN or an inf, found without a boolean
    temporary of its size. A NaN or an inf makes the sum NaN or infinite,
    so a finite sum settles it in one pass; a sum that overflows is settled
    by min and max reductions over the real and imaginary parts, through
    which NaN propagates."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(a.sum()):
            return True
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return all(np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts)


def apply_operator(
    kind: OperatorKind, system: SpinSystem, state: np.ndarray
) -> np.ndarray:
    """Apply a collective operator to one state vector or a stack of columns.

    ``state`` has shape ``(2**N,)`` or ``(2**N, k)``; the result has the
    same shape. Every kind but Iy has real matrix elements, so a real state
    gives a float64 result and a complex one a complex128 result; Iy always
    gives complex128. Ix and Iy flip one spin at a time, through one scratch
    array of half the state, O(N * 2**N) per call. The pair terms of Hzz and
    Hdq are a few sparse products of the split in the module docstring,
    O(pairs * 2**N) multiply-adds with temporaries of a few
    ``2**N x _PAIR_CHUNK`` arrays. Raises InvalidParameter for another shape
    or for NaN or inf, and CapExceeded, before the state is read, where the
    vector path does not fit the budget.
    """
    _require_vector_path(system.n_spins)
    state = np.asarray(state)
    if state.ndim not in (1, 2) or state.shape[0] != system.dim:
        raise InvalidParameter("state", f"state shape {state.shape} is not "
                                        f"({system.dim},) or ({system.dim}, k)")
    if not all_finite(state):
        raise InvalidParameter("state", "state must be finite")
    real = kind != OperatorKind.IY_TOTAL and not np.iscomplexobj(state)
    state = np.ascontiguousarray(state, dtype=np.float64 if real else np.complex128)
    n = system.n_spins
    col = (slice(None),) + (None,) * (state.ndim - 1)

    if kind == OperatorKind.IZ_TOTAL:
        return system.magnetization[col] * state
    if kind in (OperatorKind.IX_TOTAL, OperatorKind.IY_TOTAL):
        out = np.zeros_like(state)
        scratch = np.empty(state.size // 2, dtype=state.dtype)
        # <x|Iy|x^e_i> = -i/2 when bit i of x is set (raising), +i/2 otherwise
        coeffs = (0.5, 0.5) if kind == OperatorKind.IX_TOTAL else (0.5j, -0.5j)
        # spin 0 is the least significant bit: 2**i states lie below bit i
        for i in range(n):
            shape = (1 << (n - 1 - i), 2, 1 << i) + state.shape[1:]
            src, dst = state.reshape(shape), out.reshape(shape)
            term = scratch.reshape(src[:, 0].shape)
            for b in (0, 1):
                np.multiply(coeffs[b], src[:, 1 - b], out=term)
                np.add(dst[:, b], term, out=dst[:, b])
        return out
    if kind == OperatorKind.HZZ:
        out = _zz_diagonal(system)[col] * state
    elif kind == OperatorKind.HDQ:
        out = np.zeros_like(state)
    else:
        raise InvalidParameter("kind", f"unknown operator kind {kind!r}")
    _subtract_pairs(_pair_factors(system, kind), state, out)
    return out


@dataclass(frozen=True)
class _PairFactors:
    """The pair sum of Hzz or Hdq, negated, split at bit ``low_spins``.

    ``high`` acts on the high index (spins ``low_spins`` and up), ``low`` on
    the low index, and ``cross[k] = (j, s, c)`` is the sum over low spins i
    of the pairs (i, low_spins + j) that flip bit j of the high index from
    s to 1 - s; ``c`` acts on the low index. Every entry is a d_ij / 2.
    """

    low_spins: int
    high: scipy.sparse.csr_array
    low: scipy.sparse.csr_array
    cross: tuple[tuple[int, int, scipy.sparse.csr_array], ...]


def _flip_matrix(dim: int, terms: list) -> scipy.sparse.csr_array:
    """dim x dim matrix with ``value`` at (x ^ mask, x) for every
    (mask, value, x) in ``terms``, x an int32 array of source states."""
    if not terms:
        return scipy.sparse.csr_array((dim, dim))
    masks, values, sources = zip(*terms)
    sizes = [x.size for x in sources]
    cols = np.concatenate(sources)
    rows = cols ^ np.repeat(np.array(masks, dtype=np.int32), sizes)
    return scipy.sparse.csr_array((np.repeat(values, sizes), (rows, cols)), shape=(dim, dim))


def _build_pair_factors(system: SpinSystem, kind: OperatorKind) -> _PairFactors:
    """The factors of ``kind`` (Hzz or Hdq) on ``system``, from the bit rules."""
    n, d = system.n_spins, system.couplings
    low = n // 2
    aligned = kind == OperatorKind.HDQ  # Hdq flips pairs of equal bits, Hzz of unequal
    # int32 states suffice: 2**31 of them are far past any memory budget

    def pairs_among(spins: list[int]) -> scipy.sparse.csr_array:
        idx = np.arange(1 << len(spins), dtype=np.int32)
        terms = []
        for a, b in itertools.combinations(range(len(spins)), 2):
            if d[spins[a], spins[b]] != 0.0:
                differ = ((idx >> a) ^ (idx >> b)) & 1
                terms.append(((1 << a) | (1 << b), 0.5 * d[spins[a], spins[b]],
                              idx[differ == (0 if aligned else 1)]))
        return _flip_matrix(idx.size, terms)

    idx = np.arange(1 << low, dtype=np.int32)
    cross = []
    for j in range(low, n):
        for s in (0, 1):
            # spin i flips from s with an equal bit (Hdq), from 1 - s otherwise
            source = s if aligned else 1 - s
            terms = [(1 << i, 0.5 * d[i, j], idx[(idx >> i) & 1 == source])
                     for i in range(low) if d[i, j] != 0.0]
            if terms:
                cross.append((j - low, s, _flip_matrix(idx.size, terms)))
    return _PairFactors(low, pairs_among(list(range(low, n))), pairs_among(list(range(low))),
                        tuple(cross))


def _pair_factors(system: SpinSystem, kind: OperatorKind) -> _PairFactors:
    """The factors of ``kind`` on ``system``, built on first use."""
    return _derived(system, ("pair-factors", kind), lambda: _build_pair_factors(system, kind))


def _subtract_pairs(f: _PairFactors, state: np.ndarray, out: np.ndarray) -> None:
    """out -= the pair sum applied to state: both C-contiguous, of one shape
    and dtype; a complex block goes through as its float64 view. Per column
    chunk, the low and cross pairs are subtracted first, then the high ones."""
    dim = state.shape[0]
    lo = 1 << f.low_spins
    src, dst = state.reshape(dim, -1), out.reshape(dim, -1)
    if np.iscomplexobj(state):
        src, dst = src.view(np.float64), dst.view(np.float64)
    for c0 in range(0, src.shape[1], _PAIR_CHUNK):
        block, part = src[:, c0:c0 + _PAIR_CHUNK], dst[:, c0:c0 + _PAIR_CHUNK]
        part.reshape(dim // lo, lo, -1)[...] -= _low_and_cross(f, block).transpose(1, 0, 2)
        part -= (f.high @ np.ascontiguousarray(block).reshape(dim // lo, -1)).reshape(part.shape)


def _low_and_cross(f: _PairFactors, block: np.ndarray) -> np.ndarray:
    """The low and cross pair terms, negated, applied to a float64 (D, c)
    block, as a (low, high, c) array: in that layout the low index is the
    row of each product."""
    lo = 1 << f.low_spins
    hi, c = block.shape[0] // lo, block.shape[1]
    t = np.ascontiguousarray(block.reshape(hi, lo, c).transpose(1, 0, 2))
    z = f.low @ t.reshape(lo, hi * c)
    for j, s, cj in f.cross:
        split = (lo, hi >> (j + 1), 2, c << j)  # high bit j on its own axis
        flipped = cj @ t.reshape(split)[:, :, s].reshape(lo, -1)
        z.reshape(split)[:, :, 1 - s] += flipped.reshape(split[0], split[1], split[3])
        del flipped
    return z.reshape(lo, hi, c)


# --- geometry documents -------------------------------------------------


def geometry_from_dict(doc: dict) -> Geometry:
    """Raises InvalidParameter naming the key that is missing or mistyped."""
    if not isinstance(doc, dict):
        raise InvalidParameter("geometry", f"geometry must be an object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "all_to_all":
        return AllToAll(d0=number(doc.get("d0"), "d0"))
    if kind == "chain":
        return Chain(d0=number(doc.get("d0"), "d0"),
                     exponent=number(doc.get("exponent", 3.0), "exponent"))
    if kind == "lattice3d":
        shape = doc.get("shape", [2, 2, 2])
        if not (isinstance(shape, (list, tuple)) and len(shape) == 3
                and all(type(s) is int and s > 0 for s in shape)):
            raise InvalidParameter(
                "shape", f"lattice3d shape must be three positive integers, got {shape!r}")
        return Lattice3D(d0=number(doc.get("d0"), "d0"),
                         cutoff=number(doc.get("cutoff"), "cutoff"), shape=tuple(shape))
    if kind == "explicit":
        rows = doc.get("couplings")
        if not (isinstance(rows, list)
                and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise InvalidParameter(
                "couplings", f"couplings must be a square matrix, got {rows!r}")
        return ExplicitCouplings(
            couplings=np.array([[number(x, "couplings") for x in r] for r in rows]))
    raise InvalidParameter("kind", f"unknown geometry kind {kind!r}")

