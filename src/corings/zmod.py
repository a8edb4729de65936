"""Exact linear algebra over Z/nZ: the Howell normal form and exact BLAS kernels.

Z/nZ is not a field for composite n, so plain Gaussian elimination does not
give canonical forms, kernels or solvability tests.  The Howell form does:
it is the unique row-echelon-like canonical form of the row span of a matrix
over Z/nZ (Howell 1986; Storjohann-Mulders 1998).  The exact linear algebra
here is built on one routine, :func:`howell`, which returns the form
together with a transformation matrix and a spanning set of the left kernel.

Conventions: matrices are numpy int64 arrays with entries reduced into
[0, n).  Row convention for the core (`x @ A`); the `*_right` wrappers
expose the column convention (`A @ x`) used by the rest of the package.

Exactness.  Every result is exact; the package refuses a modulus it cannot
handle exactly rather than answer from wrapped arithmetic.

- Accepted moduli are 2 <= n <= MAX_MODULUS = 2^14.  The worst int64
  contraction left in the package multiplies three reduced residues and sums
  at most DEFAULT_RANK_CAP^2 = 600^2 terms; (2^14 - 1)^3 * 600^2 < 2^63, so
  it cannot wrap.  FiniteRing checks the bound on construction.
- :func:`matmul_mod` and :func:`bilinear_mod`, the sweep kernels, run on
  float64 BLAS (Dumas, Giorgi and Pernet, FFLAS-FFPACK, ACM TOMS 2008).  A
  contraction of length k over entries in [0, n) is done in one GEMM when
  k (n-1)^2 < 2^53, and otherwise in blocks whose sums stay below 2^53,
  reduced between blocks.  Every partial sum is then an integer below 2^53,
  which float64 represents exactly, so no rounding ever happens and neither
  the summation order nor the number of BLAS threads can change a result.
- Units are decided through residue fields (Ronyai, JSC 1990): x in a finite
  commutative Z/nZ-algebra S is a unit iff its image in every residue field
  S/m is nonzero.  :class:`ResidueFields` holds, for each prime p | n and
  each primitive idempotent e of S/pS, the linear map x -> (x e)^(p^k)
  that vanishes exactly on the maximal ideal belonging to e, so the unit
  test of a batch is one matrix product (:func:`batch_is_unit`).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional

import numpy as np

MAX_MODULUS = 1 << 14  # see "Exactness" above
_FLOAT_EXACT = 1 << 53  # integers below this are exact in float64
_OUTER_BLOCK = 1 << 20  # entries of one batched outer product, about 8 MB


def _as_mod_array(a, n: int) -> np.ndarray:
    out = np.asarray(a, dtype=np.int64) % n
    return out


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


def annihilator(a: int, n: int) -> int:
    """Generator of the annihilator ideal of a in Z/nZ: n // gcd(a, n) mod n."""
    if a % n == 0:
        return 1 % n
    return (n // gcd(a, n)) % n


class HowellForm(NamedTuple):
    """Howell form of the row span of a matrix A over Z/nZ.

    h: the canonical Howell rows (zero rows dropped), h = t @ A mod n.
    t: transformation rows.
    k: rows spanning the left kernel {x : x @ A == 0 mod n}.
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
    """
    a = np.atleast_2d(_as_mod_array(a, n))
    nrows, ncols = a.shape
    h = a.copy()
    t = np.eye(nrows, dtype=np.int64)

    r = 0
    for c in range(ncols):
        m = h.shape[0]
        j = r
        while j < m and h[j, c] == 0:
            j += 1
        if j == m:
            continue
        if j > r:
            h[[r, j]] = h[[j, r]]
            t[[r, j]] = t[[j, r]]
        # scale the pivot to gcd(pivot, n), a divisor of n
        x = stab_unit(int(h[r, c]), n)
        if x != 1:
            h[r] = (x * h[r]) % n
            t[r] = (x * t[r]) % n
        # clear below the pivot with unimodular 2x2 updates
        for i in range(r + 1, m):
            if h[i, c] % n == 0:
                continue
            g, s_, t_ = gcdex(int(h[r, c]), int(h[i, c]))
            u_ = -(int(h[i, c]) // g)
            v_ = int(h[r, c]) // g
            row_r = (s_ * h[r] + t_ * h[i]) % n
            row_i = (u_ * h[r] + v_ * h[i]) % n
            h[r], h[i] = row_r, row_i
            row_r = (s_ * t[r] + t_ * t[i]) % n
            row_i = (u_ * t[r] + v_ * t[i]) % n
            t[r], t[i] = row_r, row_i
        # reduce entries above the pivot
        b = int(h[r, c])
        for i in range(r):
            q = int(h[i, c]) // b
            if q:
                h[i] = (h[i] - q * h[r]) % n
                t[i] = (t[i] - q * t[r]) % n
        # a zero-divisor pivot contributes an extra span row (Howell property);
        # after scaling the pivot equals gcd(original, n), so it divides n
        if b > 1:
            x = n // b
            h = np.vstack([h, (x * h[r]) % n])
            t = np.vstack([t, (x * t[r]) % n])
        r += 1

    nonzero = h.any(axis=1)
    # all zero rows sit at the bottom: every processed column is cleared below r
    hn = h[:r][nonzero[:r]] if r else h[:0]
    k = t[r:]
    k = k[k.any(axis=1)]
    tn = t[:r][nonzero[:r]] if r else t[:0]
    pivots = tuple(int(np.nonzero(row)[0][0]) for row in hn)
    return HowellForm(hn, tn, k, pivots)


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
    """Whether a square matrix is invertible over Z/nZ."""
    a = np.atleast_2d(_as_mod_array(a, n))
    m = a.shape[0]
    if a.shape[0] != a.shape[1]:
        return False
    h = howell(a, n).h
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


def _gemm_mod(a: np.ndarray, b: np.ndarray, n: int, term: int) -> np.ndarray:
    """(a @ b) mod n for float64 integer arrays with every |a_ik b_kj| <= term.

    The contraction is split into blocks of at most (2^53 - n) // term
    terms, reduced between blocks, so every partial sum is an integer of
    magnitude below 2^53.
    """
    step = (_FLOAT_EXACT - n) // term
    if step < 1:
        raise ValueError(f"modulus {n} is too large for exact float64 products")
    out = _reduce(np.matmul(a[..., :step], b[:step]), n)
    for s in range(step, a.shape[-1], step):
        out += np.matmul(a[..., s : s + step], b[s : s + step])
        _reduce(out, n)
    return out.astype(np.int64)


def matmul_mod(a, b, n: int) -> np.ndarray:
    """Exact (a @ b) mod n on float64 BLAS, for integer entries in (-n, n).

    Returns int64 entries in [0, n).  One GEMM when the contraction length k
    has k (n-1)^2 < 2^53, blocks reduced in between otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _gemm_mod(a, b, n, max(n - 1, 1) ** 2)


def bilinear_mod(x, y, form, n: int) -> np.ndarray:
    """Rows sum_ij x_i y_j form[i, j, :] mod n for batches of rows x and y.

    x: (B, r1), y: (B, r2), form: (r1, r2, K), entries in [0, n), with
    (n-1)^3 < 2^53.  Each row pair becomes its outer product x ⊗ y and the
    batch one GEMM against the flattened form.  The outer products are not
    reduced: their entries stay below (n-1)^2, each term below (n-1)^3, and
    the GEMM blocks its contraction to match.  Rows are taken in blocks so
    the outer products stay near _OUTER_BLOCK entries.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    form = np.asarray(form, dtype=np.float64)
    flat = form.reshape(form.shape[0] * form.shape[1], form.shape[2])
    term = max(n - 1, 1) ** 3
    rows = max(1, _OUTER_BLOCK // max(len(flat), 1))
    blocks = []
    for s in range(0, max(len(x), 1), rows):
        outer = x[s : s + rows, :, None] * y[s : s + rows, None, :]
        blocks.append(_gemm_mod(outer.reshape(len(outer), len(flat)), flat, n, term))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
