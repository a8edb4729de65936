"""Exact linear algebra over Z/nZ: the Howell normal form and exact BLAS kernels.

Z/nZ is not a field for composite n, so plain Gaussian elimination does not
give canonical forms, kernels or solvability tests.  The Howell form does:
it is the unique row-echelon-like canonical form of the row span of a matrix
over Z/nZ (Howell 1986; Storjohann-Mulders 1998).  There are two
eliminations, one pivot column at a time: the row of least gcd is the pivot,
scaled to a divisor b of the modulus, one rank-1 update clears the column,
and (modulus/b)·pivot row joins the rows.  Over a prime every nonzero entry
is a unit, so the pivot is the first nonzero entry, b = 1, and neither
elimination takes a gcd.  The scalar :func:`howell` works over Z/n on
[h | t], merging rows when no single entry generates a column's ideal (n
composite); its rank-1 update touches only the rows with a nonzero
multiplier, it skips columns that are zero in every row, and it stops once
the rows below the pivots are zero.  The solvers of one system read its
canonical h and pivots, or t and kernel rows k (one valid choice, read only
through unique values or spans); :func:`column_basis` and
:func:`is_invertible` read the rows alone and carry no t.  The batched
:func:`_eliminate` works on a stack over a prime power, where the pivot
alone generates the column's ideal; composite n splits into prime powers
by CRT (:func:`prime_powers`), and :func:`solvable_right_batch` and
:func:`batch_nonsingular` read its pivots.

Conventions: matrices are numpy int64 arrays with entries reduced into
[0, n).  Row convention for the core (`x @ A`); the `*_right` wrappers
expose the column convention (`A @ x`) used by the rest of the package.

Exactness.  Every result is exact; the package refuses a modulus it cannot
handle exactly rather than answer from wrapped arithmetic.

- Accepted moduli are 2 <= n <= MAX_MODULUS = 2^14.  The int64 contractions
  of ring products are FiniteRing.mulmat (r terms), FiniteRing.mul_einsum
  and TensorRing.mul_slots, and each term is a product of two reduced
  residues, below (n-1)^2 < 2^28.  mul_einsum contracts the base table with
  one operand (r terms), then takes one product with the other; that product
  is the worst: r·K terms, K the length of the letters summed between the
  operands, at most d·r <= DEFAULT_RANK_CAP = 600 for the composition of
  R-matrices "Aij_,Bjk_->ABik_" (K = d).  Any sum of at most 600^2 terms
  (mul_slots: kr for x's multiples by the base basis, d·kr per operand,
  d^2·kr per later slot) stays below 600^2 * (2^14 - 1)^2 < 2^47 < 2^63, so
  none can wrap.  FiniteRing.__init__, make_quotient_ring and
  make_product_ring refuse a larger rank with ValueError before
  allocating its table; tensor powers raise RingTooLarge.
- The rank-1 updates of :func:`howell` and :func:`_eliminate` multiply a
  quotient below n by an entry below n, so each product is below
  n^2 <= 2^28, exact in int64.
- :func:`matmul_mod`, :func:`bilinear_mod` and :func:`outer_products`, the
  sweep kernels, run on float64 BLAS (Dumas, Giorgi and Pernet,
  FFLAS-FFPACK, ACM TOMS 2008).  A contraction of length k over entries in
  [0, n) is done in one GEMM when k (n-1)^2 < 2^53, and otherwise in blocks
  whose sums stay below 2^53, reduced between blocks.  Every partial sum is
  then an integer below 2^53, which float64 represents exactly, so no
  rounding ever happens and neither the summation order nor the number of
  BLAS threads can change a result.  :func:`outer_products` is two such
  contractions of length r, each term below (n-1)^2: r (n-1)^2 < 2^53 for
  r <= DEFAULT_RANK_CAP, so each is one GEMM.  coring.coassoc_difference
  applies a comultiplication to two slots of another with one
  :func:`matmul_mod` each: d^2·kr terms below (n-1)^2 (d the degree, kr
  the base rank, d^2·kr <= DEFAULT_RANK_CAP), far below 2^53.
- Batched kernels take their rows, and `Grid.zero_mask` its output columns,
  in blocks of at most BLOCK_ENTRIES = 2^17 float64 entries (about 1 MB),
  so their transients do not grow with the batch.
- A ring's structure table is its one r^3-sized array, in int8 or int16
  (FiniteRing.struct).  The GEMM kernels read a table of at most
  BLOCK_ENTRIES entries through one float64 copy (:func:`as_float_table`,
  kept on the ring as FiniteRing._float_struct); a larger one stays in its
  dtype, and :func:`_gemm_mod` converts it one block of at most
  BLOCK_ENTRIES entries at a time, only at the rows a sparse operand
  touches.  :func:`first_nonassociative` converts one slab at a time.  The
  in-place reductions :func:`_mod` and :func:`_reduce` work through
  temporaries of at most numpy's ufunc buffer size.
- Units are decided through residue fields (Ronyai, JSC 1990): x in a finite
  commutative Z/nZ-algebra S is a unit iff its image in every residue field
  S/m is nonzero.  :class:`ResidueFields` holds, for each prime p | n and
  each primitive idempotent e of S/pS, the linear map x -> (x e)^(p^k)
  that vanishes exactly on the maximal ideal belonging to e, so the unit
  test of a batch is one matrix product (:func:`batch_is_unit`).  Units
  are inverted by a power, not by a solve: x^(-1) = x^(L-1) with L a
  multiple of the exponent of the unit group, read from the Frobenius
  x -> x^p of each S/pS (FiniteRing.unit_exponent); rings.try_invert keeps
  the power only when x·x^(L-1) = 1, so a non-unit gets None.  A ring
  whose L is longer than rings.POWER_BITS inverts by :func:`solve_right`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

import numpy as np

MAX_MODULUS = 1 << 14  # see "Exactness" above
_FLOAT_EXACT = 1 << 53  # integers below this are exact in float64
BLOCK_ENTRIES = 1 << 17  # float64 entries of one transient block, about 1 MB
_BUFSIZE = np.getbufsize()  # entries of numpy's ufunc buffers: the blocks of _mod and _reduce


def _as_mod_array(a, n: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % n


def gcdex(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g = gcd(a, b).

    >>> gcdex(12, 8)
    (4, 1, -1)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, n: int) -> int:
    """Inverse of a unit a modulo n; raises ValueError for non-units."""
    g, s, _ = gcdex(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not a unit modulo {n}")
    return s % n


def stab_unit(a: int, n: int) -> int:
    """A unit x mod n with x*a == gcd(a, n) mod n.  For a == 0 returns 1.

    Used to scale Howell pivots to their minimal representatives (divisors
    of n).

    >>> stab_unit(8, 12), (stab_unit(8, 12) * 8) % 12
    (5, 4)
    """
    a %= n
    if a == 0:
        return 1
    g = gcd(a, n)
    s = a // g
    d = n // g
    # s need not be a unit mod n; s + t*d is coprime to n for some small t.
    c = s
    while gcd(c, n) != 1:
        c += d
    return modinv(c, n)


class HowellForm(NamedTuple):
    """Howell form of the row span of a matrix A over Z/nZ.

    h: the canonical Howell rows (zero rows dropped), h = t @ A mod n.
    t: transformation rows, one valid choice.
    k: rows spanning the left kernel {x : x @ A == 0 mod n}, one valid choice.
    pivots: column index of each Howell row's pivot.
    """

    h: np.ndarray
    t: np.ndarray
    k: np.ndarray
    pivots: tuple


def howell(a, n: int) -> HowellForm:
    """Howell normal form with transformation and left-kernel rows.

    >>> hf = howell([[8, 5, 5], [0, 9, 8], [0, 0, 10]], 12)
    >>> hf.h
    array([[4, 1, 0],
           [0, 3, 0],
           [0, 0, 1]])

    Over Z/6 neither 2 nor 3 generates the column's ideal, so the two rows
    are merged into one pivot:

    >>> howell([[2], [3]], 6).h
    array([[1]])
    """
    a = np.atleast_2d(_as_mod_array(a, n))
    nrows, ncols = a.shape
    # augmented rows [h | t]; each pivot column appends at most one Howell row
    w = np.zeros((nrows + ncols, ncols + nrows), dtype=np.int64)
    w[:nrows, :ncols] = a
    w[:nrows, ncols:] = np.eye(nrows, dtype=np.int64)
    m, pivots = _howell_eliminate(w, n, ncols, nrows)
    r = len(pivots)
    k = w[r:m, ncols:]
    return HowellForm(w[:r, :ncols].copy(), w[:r, ncols:].copy(), k[k.any(axis=1)], pivots)


def _howell_rows(a, n: int) -> np.ndarray:
    """The Howell rows of a alone (`howell(a, n).h`), with no transform to carry."""
    a = np.atleast_2d(_as_mod_array(a, n))
    nrows, ncols = a.shape
    w = np.zeros((nrows + ncols, ncols), dtype=np.int64)
    w[:nrows] = a
    _, pivots = _howell_eliminate(w, n, ncols, nrows)
    return w[: len(pivots)]


def _howell_eliminate(w: np.ndarray, n: int, ncols: int, m: int) -> tuple[int, tuple]:
    """Bring the first ncols columns of the rows w[:m] into Howell form, in place.

    Columns from ncols on ride along (the transform of :func:`howell`), and
    w has ncols spare rows below m for the extra Howell rows.  Returns the
    final row count and the pivot columns.  A column that is zero in every
    row stays zero, so it is skipped; once the rows below the pivots are
    zero no column can give a pivot, so the loop stops.
    """
    prime = prime_factors(n) == (n,)
    composite = len(prime_factors(n)) > 1
    pivots = []
    for c in np.flatnonzero(w[:m, :ncols].any(axis=0)).tolist():
        r = len(pivots)
        if r == m:
            break
        if prime:  # every nonzero entry is a unit, so the first one is the pivot
            nonzero = np.flatnonzero(w[r:m, c])
            j = r + int(nonzero[0]) if len(nonzero) else -1
        else:  # the row of least gcd with n
            g = np.gcd(w[r:m, c], n)
            j = r + int(g.argmin())
            if g[j - r] == n:
                j = -1
        if j < 0:
            if not w[r:m, c:ncols].any():
                break
            continue
        if j > r:
            w[r], w[j] = w[j], w[r].copy()
        # merge rows until the pivot alone generates the column's ideal; each
        # unimodular 2x2 step leaves gcd(hr, hi) in the pivot and 0 in row i
        if composite and (g % g[j - r]).any():
            for i in range(r + 1, m):
                hr, hi = int(w[r, c]), int(w[i, c])
                if hi % gcd(hr, n):
                    d, x, y = gcdex(hr, hi)
                    w[[r, i], c:] = (np.array([[x, y], [-(hi // d), hr // d]]) @ w[[r, i], c:]) % n
        # scale the pivot to gcd(pivot, n), a divisor of n that divides the column
        b = int(w[r, c])
        if n % b:
            w[r, c:] = (stab_unit(b, n) * w[r, c:]) % n
            b = int(w[r, c])
        # one rank-1 update on the rows it changes, those with an entry of at
        # least b: rows below go to 0 in column c, rows above into [0, b)
        col = w[:m, c].copy()
        col[r] = 0
        rows = np.flatnonzero(col >= b)
        if len(rows):
            q = col[rows] // b if b > 1 else col[rows]
            w[rows, c:] = (w[rows, c:] - np.multiply.outer(q, w[r, c:])) % n
        # a zero-divisor pivot contributes an extra span row (Howell property)
        if b > 1:
            w[m, c:] = ((n // b) * w[r, c:]) % n
            m += 1
        pivots.append(c)
    return m, tuple(pivots)


@lru_cache(maxsize=None)
def _stab_table(n: int) -> np.ndarray:
    return np.array([stab_unit(a, n) for a in range(n)], dtype=np.int64)


def _eliminate(stack: np.ndarray, q: int, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the first ncols columns of each system of a stack (B, rows, width)
    over a prime power q; return the eliminated stack w and each system's rank r.

    w is the systems reduced mod q with zero rows below them.  Per column the
    row of least gcd with q at or below r generates the column's ideal; it is
    scaled to b = gcd(pivot, q) and one rank-1 update clears the column.
    Over a proper prime power w has one slot row per column, and
    (q/b)·pivot row fills the column's slot (the Howell property).  Over a
    prime every pivot is a unit (b = 1), so it is the first nonzero entry
    at or below r and no gcd is taken; that row would be zero, and w has
    no slots, only zero rows up to ncols, so no rank reaches the row count
    while a column is left.  Rows r and below of w then span the row span's
    vectors that vanish on the first ncols columns.
    """
    bsz, rows, width = stack.shape
    slots = prime_factors(q)[0] != q
    w = np.zeros((bsz, rows + ncols if slots else max(rows, ncols), width), dtype=np.int64)
    np.remainder(stack, q, out=w[:, :rows])
    systems = np.arange(bsz)
    below = np.arange(w.shape[1])
    r = np.zeros(bsz, dtype=np.int64)
    for c in range(ncols):
        if slots:
            g = np.gcd(w[:, :, c], q)
            g[below < r[:, None]] = q + 1  # so a system without a pivot picks row r
            j = g.argmin(axis=1)
            b = g[systems, j]
            live = b < q
        else:  # over a prime every nonzero entry is a unit pivot, and b = 1
            nonzero = w[:, :, c] != 0
            nonzero[below < r[:, None]] = False
            j = nonzero.argmax(axis=1)
            live = nonzero[systems, j]
            j[~live] = r[~live]  # a system without a pivot keeps row r in place
        if not live.any():
            continue
        pivot = w[systems, j]
        w[systems, j] = w[systems, r]
        w[systems, r] = pivot = _mod(_stab_table(q)[pivot[:, c]][:, None] * pivot, q)
        # rows of a system without a pivot are left as they are: b = q, f = 0
        f = w[:, :, c] // b[:, None] if slots else w[:, :, c] * live[:, None]
        f[systems, r] = 0
        w[:, :, c:] -= f[:, :, None] * pivot[:, None, c:]
        _mod(w[:, :, c:], q)
        if slots:
            w[:, rows + c, c:] = (np.where(live, q // b, 0)[:, None] * pivot[:, c:]) % q
        r += live
    return w, r


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for an int64 array: x - (x // q)·q, block by block
    (:func:`_blocks`).  numpy divides an integer array by a scalar several
    times faster than it takes the remainder (about 2.5x on a (4096, 8, 5)
    array); below about 512 entries the one call of np.remainder costs
    less than the three of the division (0.7 against 1.3 us at 64 entries,
    numpy 2.4), so a small array takes that."""
    if x.size < 512:
        return np.remainder(x, q, out=x)
    for part in _blocks(x):
        t = part // q
        t *= q
        part -= t
    return x


def _blocks(x: np.ndarray):
    """Views that cover x, each of at most _BUFSIZE entries (numpy's own
    ufunc buffer size), or one leading row when a row is longer: runs of
    the flat array when x is contiguous, blocks of leading rows otherwise.

    An in-place reduction over them takes its temporaries block by block,
    so it needs no memory that grows with x.
    """
    if x.size <= _BUFSIZE:
        return (x,)
    rows = x.reshape(-1) if x.flags.c_contiguous else x
    step = max(1, _BUFSIZE // rows[0].size)
    return [rows[s : s + step] for s in range(0, len(rows), step)]


def solvable_right_batch(a, b, n: int) -> np.ndarray:
    """Mask of the systems A_i @ x == b_i mod n that have a solution, for a stack a (B, m, k).

    b is one right-hand side of length m or one per system (B, m).  The
    batched `solve_right(a_i, b_i, n) is not None`, per prime power q ‖ n
    (CRT): over q, A_i x = b_i is solvable iff (0, 1) is in the row span of
    [A_i^T | 0] and [b_i | 1], i.e. iff after :func:`_eliminate` a row at or
    past the rank ends in a unit.  Systems go in blocks of BLOCK_ENTRIES
    working entries; one refuted over a prime power is not eliminated again.

    >>> solvable_right_batch([[[2], [1]], [[3], [3]]], [1, 1], 4).tolist()
    [False, True]
    """
    a = np.asarray(a, dtype=np.int64)
    bsz, m, k = a.shape
    rhs = np.broadcast_to(np.asarray(b, dtype=np.int64), (bsz, m))
    out = np.ones(bsz, dtype=bool)
    step = block_rows((k + 1 + m) * (m + 1))
    for s in range(0, bsz, step):
        for q in prime_powers(n):
            live = s + np.flatnonzero(out[s : s + step])  # systems not yet refuted
            block = np.zeros((len(live), k + 1, m + 1), dtype=np.int64)
            block[:, :k, :m] = a[live].transpose(0, 2, 1)
            block[:, k, :m] = rhs[live]
            block[:, k, m] = 1
            w, rank = _eliminate(block, q, m)
            rest = np.arange(w.shape[1]) >= rank[:, None]
            out[live] = (rest & (np.gcd(w[:, :, m], q) == 1)).any(axis=1)
    return out


def reduce_against(hf: HowellForm, v, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce v against Howell rows; returns (coefficients, residue).

    v is in the row span iff the residue is zero; then coeffs @ hf.h == v.
    """
    v = _as_mod_array(v, n).copy()
    coeffs = np.zeros(hf.h.shape[0], dtype=np.int64)
    for i, p in enumerate(hf.pivots):
        if v[p] == 0:
            continue
        b = int(hf.h[i, p])
        g = gcd(b, n)
        if int(v[p]) % g != 0:
            # cannot be cleared: no later row touches this pivot column
            continue
        q = (int(v[p]) // g) * modinv(b // g, n // g) % (n // g)
        coeffs[i] = q
        v = (v - q * hf.h[i]) % n
    return coeffs, v


def in_row_span(hf: HowellForm, v, n: int) -> bool:
    _, res = reduce_against(hf, v, n)
    return not res.any()


def solve_right(a, b, n: int) -> Optional[np.ndarray]:
    """One solution x of A @ x == b mod n, or None if unsolvable."""
    a = np.atleast_2d(_as_mod_array(a, n))
    hf = howell(a.T, n)
    coeffs, res = reduce_against(hf, b, n)
    if res.any():
        return None
    return (coeffs @ hf.t) % n


def kernel_right(a, n: int) -> np.ndarray:
    """Rows spanning {x : A @ x == 0 mod n}."""
    a = np.atleast_2d(_as_mod_array(a, n))
    return howell(a.T, n).k


def is_invertible(a, n: int) -> bool:
    """Whether a square matrix is invertible over Z/nZ (`inverse_matrix` succeeds):
    its Howell rows are the identity."""
    a = np.atleast_2d(_as_mod_array(a, n))
    m = a.shape[0]
    h = _howell_rows(a, n)
    return h.shape == (m, m) and bool((h == np.eye(m, dtype=np.int64)).all())


def inverse_matrix(a, n: int) -> np.ndarray:
    """Inverse of a square matrix over Z/nZ; raises ValueError if singular."""
    a = np.atleast_2d(_as_mod_array(a, n))
    m = a.shape[0]
    hf = howell(a, n)
    if hf.h.shape != (m, m) or not (hf.h == np.eye(m, dtype=np.int64)).all():
        raise ValueError("matrix is not invertible modulo %d" % n)
    return hf.t % n


def span_size(hf: HowellForm, n: int) -> int:
    """Number of elements of the row span of a Howell form."""
    size = 1
    for i, p in enumerate(hf.pivots):
        size *= n // gcd(int(hf.h[i, p]), n)
    return size


def column_basis(a, n: int) -> np.ndarray:
    """Columns spanning the same Z/nZ-module as the columns of a.

    x @ a == 0 exactly when x @ column_basis(a, n) == 0, usually with far
    fewer columns.
    """
    return _howell_rows(np.asarray(a).T, n).T


def same_row_span(a, b, n: int) -> bool:
    """Whether two matrices have the same row span (canonical forms equal)."""
    ha = howell(a, n).h
    hb = howell(b, n).h
    return ha.shape == hb.shape and bool((ha == hb).all())


def unique_rows(a, return_index: bool = False):
    """The distinct rows of a 2-d array in lex order, as np.unique(a, axis=0).

    With return_index, also the index of each row's first occurrence.  A
    stable lexsort keeps this free of numpy.ma, which np.unique imports when
    it is asked for no indices.

    >>> rows, first = unique_rows(np.array([[1, 0], [0, 2], [1, 0]]), return_index=True)
    >>> rows.tolist(), first.tolist()
    ([[0, 2], [1, 0]], [1, 0])
    """
    a = np.asarray(a)
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    if return_index:
        return ordered[new], order[new]
    return ordered[new]


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n by trial division (n is desk-scale)."""
    ps = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        ps.append(m)
    return tuple(ps)


@lru_cache(maxsize=None)
def prime_powers(n: int) -> tuple[int, ...]:
    """The prime powers p^k ‖ n, one per prime factor, in increasing order of p.

    >>> prime_powers(36)
    (4, 9)
    """
    return tuple(gcd(n, p ** n.bit_length()) for p in prime_factors(n))


def batch_nonsingular(mats: np.ndarray, p: int) -> np.ndarray:
    """Nonsingularity mask over F_p of a stack of square matrices (B, k, k):
    rank k under :func:`_eliminate`."""
    k = np.shape(mats)[-1]
    return _eliminate(np.asarray(mats, dtype=np.int64), p, k)[1] == k


def _reduce(c: np.ndarray, n: int) -> np.ndarray:
    """c mod n in place, for float64 integers of magnitude below 2^53, block
    by block (:func:`_blocks`).

    The quotient c / n is rounded to nearest, and a remainder r in (0, n)
    keeps it at least 1/n away from an integer, which is more than half an
    ulp; so the floor is exact.  This is several times faster than fmod.
    """
    for part in _blocks(c):
        q = part / n
        np.floor(q, out=q)
        q *= n
        part -= q
    return c


def block_rows(width: int) -> int:
    """Rows of a given width that fit in one transient block of BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def as_float_table(table) -> np.ndarray:
    """An operand as the GEMM kernels read it: a float64 copy, except for a
    small-integer (int8 or int16) table of more than BLOCK_ENTRIES entries,
    which stays as it is and is converted one block at a time.

    Structure tables are int8 or int16 (r^3 entries, `FiniteRing.struct`,
    `FiniteAlgebra.table`); int64 operands are batches whose size the caller
    bounds, converted whole as before.
    """
    table = np.asarray(table)
    if table.size <= BLOCK_ENTRIES or table.dtype.kind != "i" or table.dtype.itemsize > 2:
        return table.astype(np.float64, copy=False)
    return table


def _gemm_mod(a: np.ndarray, b: np.ndarray, n: int, term: int) -> np.ndarray:
    """(a @ b) mod n as float64, for a float64 integer array a and an integer
    or float64 array b, with every |a_ik b_kj| <= term.

    The contraction is split into blocks of at most (2^53 - n) // term
    terms, and the sum is reduced before a block could take it past that
    bound, so every partial sum is an integer of magnitude below 2^53.  b
    may be a stack of matrices (np.matmul broadcasting); its contraction
    axis is then the second to last.  An integer b (a small-integer table,
    :func:`as_float_table`) is read only at the contraction indices where a
    has a nonzero entry, and converted to float64 one block of at most
    BLOCK_ENTRIES entries at a time.
    """
    exact = (_FLOAT_EXACT - n) // term
    if exact < 1:
        raise ValueError(f"modulus {n} is too large for exact float64 products")
    k = a.shape[-1]
    if b.dtype == np.float64:
        if k <= exact:
            return _reduce(np.matmul(a, b), n)
        step, touched = exact, None
    else:
        step = min(exact, block_rows(b[..., 0, :].size))
        touched = np.flatnonzero(a.reshape(-1, k).any(axis=0))
        if len(touched) == k:
            touched = None  # dense: slices, no gathers
    if touched is None:
        blocks = [slice(s, s + step) for s in range(0, max(k, 1), step)]
    else:
        blocks = [touched[s : s + step] for s in range(0, max(len(touched), 1), step)]
    out, summed = None, 0  # summed bounds the terms added since the last reduction
    for idx in blocks:
        part = np.matmul(a[..., idx], np.asarray(b[..., idx, :], dtype=np.float64))
        if out is None:
            out = part
        else:
            if summed + step > exact:
                _reduce(out, n)
                summed = 0
            out += part
        summed += step
    return _reduce(out, n)


def matmul_mod(a, b, n: int) -> np.ndarray:
    """Exact (a @ b) mod n on float64 BLAS, for integer entries in (-n, n).

    Returns int64 entries in [0, n).  One GEMM when the contraction length k
    has k (n-1)^2 < 2^53, blocks reduced in between otherwise.  A
    small-integer table of more than BLOCK_ENTRIES entries
    (:func:`as_float_table`) is never converted whole: as b, block by block
    in :func:`_gemm_mod`; as a (2-d), one block of its rows at a time.
    """
    a, b = as_float_table(a), as_float_table(b)
    term = max(n - 1, 1) ** 2
    if a.dtype == np.float64:
        return _gemm_mod(a, b, n, term).astype(np.int64)
    out = np.empty((len(a), b.shape[-1]), dtype=np.int64)
    step = block_rows(a.shape[1])
    for s in range(0, len(a), step):
        out[s : s + step] = _gemm_mod(a[s : s + step].astype(np.float64), b, n, term)
    return out


def bilinear_mod(x, y, form, n: int) -> np.ndarray:
    """Rows sum_ij x_i y_j form[i, j, :] mod n for batches of rows x and y.

    x: (B, r1), y: (B, r2), form: (r1, r2, K), entries in [0, n), with
    (n-1)^3 < 2^53.  Each row pair becomes its outer product x ⊗ y and the
    batch one GEMM against the flattened form.  The outer products are not
    reduced: their entries stay below (n-1)^2, each term below (n-1)^3, and
    the GEMM blocks its contraction to match.  Rows are taken in blocks so
    the outer products stay within BLOCK_ENTRIES entries; a form of more
    than BLOCK_ENTRIES entries is converted block by block (:func:`_gemm_mod`).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    form = as_float_table(form)
    flat = form.reshape(form.shape[0] * form.shape[1], form.shape[2])
    term = max(n - 1, 1) ** 3
    rows = block_rows(len(flat))
    blocks = []
    for s in range(0, max(len(x), 1), rows):
        outer = x[s : s + rows, :, None] * y[s : s + rows, None, :]
        blocks.append(_gemm_mod(outer.reshape(len(outer), len(flat)), flat, n, term).astype(np.int64))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def outer_products(x, y, table, n: int) -> np.ndarray:
    """Every product sum_ab x_ia y_jb table[a, b, :] mod n, shape (len x, len y, K).

    x: (X, r1), y: (Y, r2), table: (r1, r2, K), entries in [0, n).  For a
    block of rows of x, one GEMM against the table flattened to (r1, r2 K)
    gives the multiplication matrix of each x_i, reduced mod n; one batched
    GEMM then multiplies every y_j by each matrix.  Both contract terms
    below (n-1)^2 and are split as in :func:`matmul_mod`.  Rows of x are
    taken in blocks that keep the matrices and their products within
    BLOCK_ENTRIES entries, so only the result grows with the batches.  A
    table of more than BLOCK_ENTRIES entries stays in its integer dtype:
    each block of x reads only the table rows where it has a nonzero
    entry, converted one block at a time (:func:`_gemm_mod`).

    >>> f4 = np.zeros((2, 2, 2)); f4[0, 0, 0] = f4[0, 1, 1] = f4[1, 0, 1] = 1
    >>> f4[1, 1] = [1, 1]  # F4 = F2[a], a^2 = a + 1
    >>> outer_products([[0, 1], [1, 1]], [[0, 1]], f4, 2)[:, 0]  # a·a, (1+a)·a
    array([[1, 1],
           [1, 0]])
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    table = as_float_table(table)
    r1, r2, width = table.shape
    flat = table.reshape(r1, r2 * width)
    term = max(n - 1, 1) ** 2
    out = np.empty((len(x), len(y), width), dtype=np.int64)
    rows = block_rows(max(r2, len(y)) * width)
    for s in range(0, len(x), rows):
        block = x[s : s + rows]
        mats = _gemm_mod(block, flat, n, term).reshape(len(block), r2, width)
        out[s : s + rows] = _gemm_mod(y, mats, n, term)
    return out


def first_nonassociative(table, n: int) -> Optional[tuple[int, int, int]]:
    """The lex-first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k) for a table (r, r, r), or None.

    Per block of k the slab C = table[:, k-block] is converted to float64
    once, and per block of i two exact GEMMs give both sides for every j:
    (e_i e_j) e_k = sum_m table[i, j, m] C[m, k] is table[i] @ C, and
    e_i (e_j e_k) = sum_m C[j, k, m] table[i, m] is C @ table[i].  Slabs,
    row blocks and products each hold at most BLOCK_ENTRIES entries, so
    the table is converted one slab at a time, whatever its size, and never
    gathered row by row; the work grows as r^5.  The first mismatch of each
    k-block is kept, and no later block looks past the least i found.
    """
    t = np.asarray(table)
    r = len(t)
    term = max(n - 1, 1) ** 2
    kb = min(r, block_rows(r * r))  # slab: (r, kb, r)
    ib = block_rows(r * r * kb)  # products: (ib, r, kb, r)
    best = None
    for k0 in range(0, r, kb):
        slab = t[:, k0 : k0 + kb].astype(np.float64)
        w = slab.shape[1]
        for i0 in range(0, r if best is None else best[0] + 1, ib):
            rows = t[i0 : i0 + ib].astype(np.float64)
            left = _gemm_mod(rows, slab.reshape(r, w * r), n, term)
            right = _gemm_mod(slab.reshape(r * w, r), rows, n, term)
            bad = np.argwhere(left.reshape(-1, r, w, r) != right.reshape(-1, r, w, r))
            if len(bad):
                i, j, k = (int(v) for v in bad[0][:3])
                best = min(best or (r, r, r), (i0 + i, j, k0 + k))
                break
    return best


class ResidueFields(NamedTuple):
    """Linear maps onto the residue fields of a finite commutative Z/nZ-algebra.

    proj: (rank, width) matrix; columns start:stop of a field over F_p are
    independent columns of x -> (x e)^(p^k) for one primitive idempotent e
    of S/pS, entries reduced mod p.  fields: one (p, start, stop) per field.
    """

    n: int
    proj: np.ndarray
    fields: tuple


def batch_is_unit(coeffs: np.ndarray, residue: ResidueFields) -> np.ndarray:
    """Unit mask for a batch of ring elements given by coefficient rows.

    An element is a unit iff its image in every residue field is nonzero:
    one exact matrix product against the ring's residue-field projections.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    images = matmul_mod(coeffs, residue.proj, residue.n)
    mask = np.ones(coeffs.shape[0], dtype=bool)
    for p, start, stop in residue.fields:
        mask &= (images[:, start:stop] % p).any(axis=1)
    return mask
