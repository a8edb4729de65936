"""Exact linear algebra over Z/nZ: the Howell normal form and exact BLAS kernels.

Z/nZ is not a field for composite n, so plain Gaussian elimination does not
give canonical forms, kernels or solvability tests.  The Howell form does:
it is the unique row-echelon-like canonical form of the row span of a matrix
over Z/nZ (Howell 1986; Storjohann-Mulders 1998).  Every solver here reads
one routine, :func:`howell`, which eliminates one pivot column at a time on
the augmented rows [h | t]: the row of least gcd with n becomes the pivot
(merged first with other rows when n is composite and no single entry
generates the column's ideal), is scaled to a divisor b of n, and clears
every other row in one rank-1 update; when b > 1, (n/b)·pivot row is
appended.  h and the pivots are canonical; the transform t and the kernel
rows k are one valid choice, read only through unique values or spans.
Its batched twin :func:`howell_batch` runs the same elimination on a stack
of equal-shape systems with the batch as the leading axis (no transform);
a system that needs a merge is finished by :func:`howell` alone, which a
prime power n never does.  :func:`solvable_right_batch` reduces against it
as :func:`solve_right` does against :func:`howell`.

Conventions: matrices are numpy int64 arrays with entries reduced into
[0, n).  Row convention for the core (`x @ A`); the `*_right` wrappers
expose the column convention (`A @ x`) used by the rest of the package.

Exactness.  Every result is exact; the package refuses a modulus it cannot
handle exactly rather than answer from wrapped arithmetic.

- Accepted moduli are 2 <= n <= MAX_MODULUS = 2^14.  The int64
  contractions of ring products are FiniteRing.mul_einsum and
  FiniteRing.mulmat.  The worst, mul_einsum, multiplies three reduced
  residues and sums at most DEFAULT_RANK_CAP^2 = 600^2 terms;
  (2^14 - 1)^3 * 600^2 < 2^63, so it cannot wrap.  FiniteRing.__init__,
  make_quotient_ring and make_product_ring refuse a larger rank with
  ValueError before allocating its table; tensor powers raise RingTooLarge.
- The rank-1 updates of :func:`howell` and :func:`howell_batch` multiply a
  quotient q < n by an entry below n, so each product is below
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
  r <= DEFAULT_RANK_CAP, so each is one GEMM.
- Batched kernels take their rows, and `Grid.zero_mask` its output columns,
  in blocks of at most BLOCK_ENTRIES = 2^17 float64 entries (about 1 MB),
  so their transients do not grow with the batch.
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
    composite = len(prime_factors(n)) > 1
    m = nrows
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        g = np.gcd(w[r:m, c], n)
        j = r + int(g.argmin())
        if g[j - r] == n:
            continue
        if j > r:
            w[[r, j]] = w[[j, r]]
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
        # one rank-1 update: rows below go to 0 in column c, rows above into [0, b)
        q = w[:m, c] // b
        q[r] = 0
        w[:m, c:] = (w[:m, c:] - np.multiply.outer(q, w[r, c:])) % n
        # a zero-divisor pivot contributes an extra span row (Howell property)
        if b > 1:
            w[m, c:] = ((n // b) * w[r, c:]) % n
            m += 1
        pivots.append(c)

    r = len(pivots)
    k = w[r:m, ncols:]
    return HowellForm(w[:r, :ncols].copy(), w[:r, ncols:].copy(), k[k.any(axis=1)], tuple(pivots))


class HowellBatch(NamedTuple):
    """Howell rows of a stack of matrices over Z/nZ, padded to a common shape.

    h: (B, k, k); the Howell rows of system i are h[i, :rank_i], the rows
    below are zero.  pivots: (B, k); the pivot column of each Howell row,
    -1 from rank_i on.
    """

    h: np.ndarray
    pivots: np.ndarray


@lru_cache(maxsize=None)
def _stab_table(n: int) -> np.ndarray:
    return np.array([stab_unit(a, n) for a in range(n)], dtype=np.int64)


def howell_batch(a, n: int) -> HowellBatch:
    """The Howell rows and pivots of :func:`howell` for every matrix of a stack (B, m, k).

    The same elimination with the batch as the leading axis.  Per column,
    each system takes as pivot its row of least gcd with n at or below its
    own rank r, scales it to b = gcd(pivot, n) by the unit stab_unit(pivot, n),
    and one batched rank-1 update clears the column.  The row (n/b)·pivot row
    is always appended, into the slot of the column; for b = 1 it is zero.
    A system without a pivot in the column gets b = n, so its update is zero.
    A system whose column needs a unimodular merge (n with two or more prime
    factors, no single entry generating the column's ideal) is redone by the
    scalar :func:`howell`, one call each; for a prime power n that never
    happens.  The stack is eliminated at once; :func:`solvable_right_batch`
    takes its systems in blocks.

    >>> hb = howell_batch([[[2, 1]], [[3, 0]]], 4)
    >>> hb.h[0].tolist(), hb.pivots[0].tolist(), hb.pivots[1].tolist()
    ([[2, 1], [0, 2]], [0, 1], [0, -1])
    """
    a = _as_mod_array(a, n)
    bsz, m, k = a.shape
    w = np.zeros((bsz, m + k, k), dtype=np.int64)
    w[:, :m] = a
    pivots = np.full((bsz, k), -1, dtype=np.int64)
    systems = np.arange(bsz)
    below = np.arange(m + k)
    r = np.zeros(bsz, dtype=np.int64)
    merge = np.zeros(bsz, dtype=bool)
    composite = len(prime_factors(n)) > 1
    stab = _stab_table(n)
    for c in range(k):
        g = np.gcd(w[:, :, c], n)
        g[below < r[:, None]] = n
        j = g.argmin(axis=1)
        b = g[systems, j]
        live = b < n
        if not live.any():
            continue
        if composite:
            merge |= (g % b[:, None]).any(axis=1)
        j = np.where(live, j, r)
        pivot = w[systems, j]
        w[systems, j] = w[systems, r]
        pivot = (stab[pivot[:, c]][:, None] * pivot) % n
        w[systems, r] = pivot
        q = w[:, :, c] // b[:, None]
        q[systems, r] = 0
        w[:, :, c:] -= q[:, :, None] * pivot[:, None, c:]
        w[:, :, c:] %= n
        w[:, m + c, c:] = (np.where(live, n // b, 0)[:, None] * pivot[:, c:]) % n
        pivots[systems[live], r[live]] = c
        r += live
    h = w[:, :k].copy()
    for i in np.flatnonzero(merge):
        hf = howell(a[i], n)
        h[i] = 0
        h[i, : len(hf.h)] = hf.h
        pivots[i] = -1
        pivots[i, : len(hf.pivots)] = hf.pivots
    return HowellBatch(h, pivots)


def solvable_right_batch(a, b, n: int) -> np.ndarray:
    """Mask of the systems A_i @ x == b_i mod n that have a solution, for a stack a (B, m, k).

    b is one right-hand side of length m or one per system (B, m).  The
    batched `solve_right(a_i, b_i, n) is not None`: b_i is reduced against
    the Howell rows of A_i^T from :func:`howell_batch` as in
    :func:`reduce_against`, and is solvable when nothing is left.  Systems
    are taken in blocks of BLOCK_ENTRIES working entries of the elimination.

    >>> solvable_right_batch([[[2], [1]], [[3], [3]]], [1, 1], 4).tolist()
    [False, True]
    """
    a = np.asarray(a, dtype=np.int64)
    _, m, k = a.shape
    v = np.array(np.broadcast_to(_as_mod_array(b, n), a.shape[:2]))
    step = block_rows((k + m) * m)
    for s in range(0, len(a), step):
        hb = howell_batch(a[s : s + step].transpose(0, 2, 1), n)
        rest = v[s : s + step]
        systems = np.arange(len(rest))
        for i in range(m):
            p = np.maximum(hb.pivots[:, i], 0)
            # floor division clears a pivot entry exactly when b_i can be reduced there;
            # below the rank the Howell row is zero and subtracts nothing
            rest -= (rest[systems, p] // np.maximum(hb.h[systems, i, p], 1))[:, None] * hb.h[:, i]
            rest %= n
    return ~v.any(axis=1)


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
    """Whether a square matrix is invertible over Z/nZ (`inverse_matrix` succeeds)."""
    try:
        inverse_matrix(a, n)
    except ValueError:
        return False
    return True


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
    return howell(np.asarray(a).T, n).h.T


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


def _inv_table(p: int) -> np.ndarray:
    t = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        t[a] = pow(a, p - 2, p)
    return t


def batch_nonsingular(mats: np.ndarray, p: int) -> np.ndarray:
    """Vectorized nonsingularity test over F_p for a batch of square matrices.

    mats: (B, k, k) int array.  Returns a boolean mask of length B.
    """
    m = (np.asarray(mats, dtype=np.int64) % p).copy()
    bsz, k, _ = m.shape
    ok = np.ones(bsz, dtype=bool)
    inv = _inv_table(p)
    rows = np.arange(bsz)
    for c in range(k):
        sub = m[:, c:, c]
        nz = sub != 0
        has = nz.any(axis=1)
        ok &= has
        piv = np.argmax(nz, axis=1) + c
        piv[~has] = c  # keep indices valid for the dead batches
        swap = piv != c
        if swap.any():
            w = rows[swap]
            pv = piv[swap]
            tmp = m[w, c, :].copy()
            m[w, c, :] = m[w, pv, :]
            m[w, pv, :] = tmp
        pivval = m[:, c, c].copy()
        pivval[pivval == 0] = 1
        m[:, c, :] = (m[:, c, :] * inv[pivval][:, None]) % p
        if c + 1 < k:
            factors = m[:, c + 1 :, c]
            m[:, c + 1 :, :] = (m[:, c + 1 :, :] - factors[:, :, None] * m[:, c : c + 1, :]) % p
    return ok


def _reduce(c: np.ndarray, n: int) -> np.ndarray:
    """c mod n in place, for float64 integers of magnitude below 2^53.

    The quotient c / n is rounded to nearest, and a remainder r in (0, n)
    keeps it at least 1/n away from an integer, which is more than half an
    ulp; so the floor is exact.  This is several times faster than fmod.
    """
    q = c / n
    np.floor(q, out=q)
    q *= n
    c -= q
    return c


def block_rows(width: int) -> int:
    """Rows of a given width that fit in one transient block of BLOCK_ENTRIES."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def _gemm_mod(a: np.ndarray, b: np.ndarray, n: int, term: int) -> np.ndarray:
    """(a @ b) mod n as float64, for float64 integer arrays with every |a_ik b_kj| <= term.

    The contraction is split into blocks of at most (2^53 - n) // term
    terms, reduced between blocks, so every partial sum is an integer of
    magnitude below 2^53.  b may be a stack of matrices (np.matmul
    broadcasting); its contraction axis is then the second to last.
    """
    step = (_FLOAT_EXACT - n) // term
    if step < 1:
        raise ValueError(f"modulus {n} is too large for exact float64 products")
    out = _reduce(np.matmul(a[..., :step], b[..., :step, :]), n)
    for s in range(step, a.shape[-1], step):
        out += np.matmul(a[..., s : s + step], b[..., s : s + step, :])
        _reduce(out, n)
    return out


def matmul_mod(a, b, n: int) -> np.ndarray:
    """Exact (a @ b) mod n on float64 BLAS, for integer entries in (-n, n).

    Returns int64 entries in [0, n).  One GEMM when the contraction length k
    has k (n-1)^2 < 2^53, blocks reduced in between otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _gemm_mod(a, b, n, max(n - 1, 1) ** 2).astype(np.int64)


def bilinear_mod(x, y, form, n: int) -> np.ndarray:
    """Rows sum_ij x_i y_j form[i, j, :] mod n for batches of rows x and y.

    x: (B, r1), y: (B, r2), form: (r1, r2, K), entries in [0, n), with
    (n-1)^3 < 2^53.  Each row pair becomes its outer product x ⊗ y and the
    batch one GEMM against the flattened form.  The outer products are not
    reduced: their entries stay below (n-1)^2, each term below (n-1)^3, and
    the GEMM blocks its contraction to match.  Rows are taken in blocks so
    the outer products stay within BLOCK_ENTRIES entries.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    form = np.asarray(form, dtype=np.float64)
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
    BLOCK_ENTRIES entries, so only the result grows with the batches.

    >>> f4 = np.zeros((2, 2, 2)); f4[0, 0, 0] = f4[0, 1, 1] = f4[1, 0, 1] = 1
    >>> f4[1, 1] = [1, 1]  # F4 = F2[a], a^2 = a + 1
    >>> outer_products([[0, 1], [1, 1]], [[0, 1]], f4, 2)[:, 0]  # a·a, (1+a)·a
    array([[1, 1],
           [1, 0]])
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    table = np.asarray(table, dtype=np.float64)
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

    Per block of BLOCK_ENTRIES // r^2 pairs (i, j): one GEMM of the rows table[i, j]
    against the table as (r, r^2), and one batched GEMM table[j] @ table[i].
    Transients are a few blocks and one float64 table; the work grows as r^5.
    """
    t = np.asarray(table, dtype=np.float64)
    r = len(t)
    pair_rows, flat = t.reshape(r * r, r), t.reshape(r, r * r)
    step = block_rows(r * r)
    for s in range(0, r * r, step):
        i, j = np.divmod(np.arange(s, min(s + step, r * r)), r)
        left = matmul_mod(pair_rows[s : s + step], flat, n).reshape(-1, r, r)
        bad = np.argwhere(left != matmul_mod(t[j], t[i], n))
        if len(bad):
            p, k = bad[0][:2]
            return int(i[p]), int(j[p]), int(k)
    return None


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
