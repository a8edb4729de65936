"""Finite commutative rings presented by structure constants over Z/nZ.

A ring here is a free Z/nZ-module of rank r with a commutative associative
unital multiplication given by an (r, r, r) structure tensor:
e_i * e_j = sum_k c[i, j, k] e_k.  Concrete rings come from monic polynomial
quotients Z/nZ[x]/(f) (finite fields, Galois rings) and finite products.

Elements are dense coefficient vectors reduced into [0, n); whenever an
ordering matters it is the lexicographic order on coefficient tuples.
Exhaustive sweeps (`enumerate_units`, `all_elements_array`, the census and
Z^2) go through :class:`Grid`, which writes each element as a pair of digit
halves and evaluates unit masks and quadratic forms on small half tables.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import zmod

DEFAULT_CAP = 2**20  # elements, for exhaustive enumeration
DEFAULT_RANK_CAP = 600  # structure tensors are rank^3 entries
# Longest unit exponent L that try_invert raises to.  x^(L-1) takes one
# mulmat squaring per bit, and a Howell solve costs about 4 (rank 1) to 18
# (rank 16-64) of them, so the power route is at most a few times slower
# than a solve on any ring; a ring with a longer L is inverted by a solve.
POWER_BITS = 24
# mul_einsum hands a product of fewer than EINSUM_TERMS terms (the product of
# the lengths of its distinct letters) to np.einsum and a longer one to
# np.matmul (`_contract`).  On the rank-2 calls of a rebased-sweep pass
# (numpy 2.4, 2-core Xeon VM) np.einsum takes 4-17 us up to 256 terms, where
# np.matmul takes 12-24 us; at 512 terms the two are level (18-27 against
# 18-19 us), and at 2^16 terms np.einsum takes 2.4 ms against 0.27 ms, since
# it steps through the product term by term.
EINSUM_TERMS = 1 << 9


class RingTooLarge(Exception):
    """Raised when an exhaustive operation would exceed the configured cap."""


class InternalCheckError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


def _struct_dtype(n: int):
    # moduli stop at zmod.MAX_MODULUS, so residues fit in 16 bits
    return np.int8 if n <= 127 else np.int16


def _check_rank(rank: int) -> None:
    """Refuse a rank above DEFAULT_RANK_CAP before anything of that size is allocated."""
    if rank > DEFAULT_RANK_CAP:
        raise ValueError(f"rank {rank} exceeds the rank cap {DEFAULT_RANK_CAP}")


class FiniteRing:
    """A finite commutative ring, free over Z/nZ with structure constants.

    The structure table `struct` holds c[i, j, k] reduced into [0, n) as
    int8 (n <= 127) or int16: r^3 bytes or twice that, the only array of
    that size a ring builds or keeps.  Every route that multiplies reads
    it in that dtype or through `_float_struct`, which copies it to float64
    only when it has at most zmod.BLOCK_ENTRIES entries (rank <= 50);
    larger tables are converted one block at a time, or only at the rows
    a sparse operand touches.  The constructor reduces its input straight
    into the table: the remainder is taken in the wider of the input's and
    the table's dtype (int64 for an input that is not a signed integer
    array, as np.array(..., dtype=np.int64) would convert it), through
    numpy's buffered casts, so no int64 copy of a small-integer input is
    made.
    """

    def __init__(self, modulus: int, structure, one, name: str = "", check: bool = True):
        if not 2 <= modulus <= zmod.MAX_MODULUS:
            raise ValueError(f"modulus must be between 2 and {zmod.MAX_MODULUS}, got {modulus}")
        _check_rank(max(np.shape(structure), default=0))
        c = np.asarray(structure)
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2]:
            raise ValueError("structure constants must form an (r, r, r) array")
        self._set_header(modulus, c.shape[0], one, name)
        self.struct = np.empty(c.shape, dtype=_struct_dtype(self.n))
        work = np.promote_types(c.dtype, self.struct.dtype) if c.dtype.kind == "i" else np.int64
        np.remainder(c, self.n, out=self.struct, dtype=work, casting="unsafe")
        if check:
            self.validate()

    def _set_header(self, modulus: int, rank: int, one, name: str) -> None:
        """Everything but the structure table: modulus, rank, unit and name."""
        self.n = int(modulus)
        self.rank = rank
        self.one = np.asarray(one, dtype=np.int64) % self.n
        if self.one.shape != (self.rank,):
            raise ValueError("unit coefficient vector has wrong length")
        self.one.flags.writeable = False
        self.name = name or f"ring(n={self.n},r={self.rank})"

    # -- arithmetic on raw coefficient vectors ------------------------------
    #
    # One element goes through mulmat (from the small-integer table), paired
    # batches through mul_rows and all pairs of two batches through products
    # (float64 BLAS, exact; see zmod).

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x·y of reduced vectors: the multiplication matrix of x applied to y, mod n."""
        return (self.mulmat(x) @ y) % self.n

    def mul_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Products x_i y_i of corresponding rows of two batches of reduced elements.

        One zmod.bilinear_mod of the outer products x_i ⊗ y_i against the
        table (`_float_struct`).
        """
        return zmod.bilinear_mod(x, y, self._float_struct, self.n)

    def products(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every product x_i y_j of two batches of reduced elements, shape (len x, len y, rank).

        zmod.outer_products: the multiplication matrices of a block of x by
        one GEMM against the table (`_float_struct`), then every y_j by one
        batched GEMM.
        """
        return zmod.outer_products(x, y, self._float_struct, self.n)

    @cached_property
    def _float_struct(self) -> np.ndarray:
        """The table as the batched kernels read it (zmod.as_float_table).

        A float64 copy, kept, when the table has at most zmod.BLOCK_ENTRIES
        entries (rank <= 50): 8 bytes an entry, at most about 1 MB.  A
        larger table is the small-integer table itself, and each product
        converts one block of it at a time, reading only the rows its
        operand touches; no ring keeps a larger array in another dtype.
        """
        return zmod.as_float_table(self.struct)

    def mul_einsum(self, spec: str, x, y) -> np.ndarray:
        """Ring products of two coordinate tensors, contracted as an einsum.

        In spec, "_" marks the coordinate axis of each operand and of the
        result, and each other axis has a letter (no "..."): "ij_,jk_->ik_"
        composes matrices with entries in the ring.  Two contractions, each
        reduced mod n: the table with the smaller operand over its
        coordinate axis (r terms), then one two-operand product
        (:func:`_contract`) with the other operand.  The second is the
        longer sum, r·K terms with K the length of the letters summed
        between the operands (K = d in "Aij_,Bjk_->ABik_", where d·r is the
        rank of a top ring).  Over a rank-1 base the table is a scaling by
        its one constant, and the call is one two-operand np.einsum.  Every
        term is a product of two reduced residues, below (n-1)^2; the zmod
        docstring bounds the sums.  The table enters the first einsum in its
        own dtype, which np.einsum casts through its small buffers, so no
        int64 copy of it is made.  The result is int64 and C-contiguous, so
        a caller's reshape is a view.
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        n = self.n
        if self.rank == 1:
            # e_0 e_0 = c e_0: scale the smaller operand; the axis of length 1 stays
            c = int(self.struct[0, 0, 0])
            if c != 1 and x.size <= y.size:
                x = x * c % n
            elif c != 1:
                y = y * c % n
            prods = np.einsum(spec.replace("_", "U"), x, y, order="C")
            return zmod._mod(prods, n)
        a, b, out = spec.replace("->", ",").split(",")
        swap = x.size > y.size  # x becomes the smaller operand, the one the table meets
        if swap:
            a, b, x, y = b, a, y, x
        rest = a.replace("_", "")
        table = "VUW" if swap else "UVW"
        half = np.einsum(f"{a.replace('_', 'U')},{table}->{rest}VW", x, self.struct)
        zmod._mod(half, n)
        return _contract(b.replace("_", "V"), y, f"{rest}VW", half, out.replace("_", "W"), n)

    def pow_rows(self, x: np.ndarray, e: int) -> np.ndarray:
        """Each row of a batch raised to the power e >= 0, by squaring through mul_rows."""
        out = None  # 1, never multiplied by
        base = np.asarray(x, dtype=np.int64) % self.n
        while e:
            if e & 1:
                out = base if out is None else self.mul_rows(out, base)
            e >>= 1
            if e:
                base = self.mul_rows(base, base)
        return np.tile(self.one, (len(base), 1)) if out is None else out

    def mulmat(self, x: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by a reduced x in the module basis: column j is x·e_j.

        mx = sum_i x_i c[i] over the nonzero x_i, mod n, read from the int8
        or int16 table; the matrix is its transpose.  A stack x (..., r)
        gives its stack of matrices (..., r, r), [..., k, j] the coordinate
        k of x·e_j, from one product of the stack with the table.  A table
        of at most zmod.BLOCK_ENTRIES entries is multiplied in int64, its
        touched rows cast at once; a larger one by zmod.matmul_mod, which
        converts only the rows where x has a nonzero entry to float64, one
        block at a time.  Each sum has at most r terms below (n-1)^2, so it
        stays below r (n-1)^2 < 2^38 for r <= DEFAULT_RANK_CAP and
        n <= zmod.MAX_MODULUS, exact in int64 and in float64.
        """
        r = self.rank
        x = np.asarray(x, dtype=np.int64)
        flat = self.struct.reshape(r, r * r)
        if flat.size > zmod.BLOCK_ENTRIES:
            mx = zmod.matmul_mod(x.reshape(-1, r), flat, self.n)
        elif x.ndim > 1:
            mx = zmod._mod(x @ flat, self.n)
        else:
            nx = x.nonzero()[0]
            mx = zmod._mod(x[nx] @ flat[nx], self.n)
        return mx.reshape(x.shape[:-1] + (r, r)).swapaxes(-1, -2)

    def pow_vec(self, x: np.ndarray, e: int) -> np.ndarray:
        """x^e for one element, e >= 0, by squaring: one mulmat per bit of e.

        The first set bit takes the power as it is, and the last product is
        mulmat(out) @ base, so a sparse x (a basis element) squares and
        multiplies cheaply while its powers stay sparse.
        """
        out = None  # 1, never multiplied by
        base = np.asarray(x, dtype=np.int64) % self.n
        while e > 1:
            mat = self.mulmat(base)
            if e & 1:
                out = base if out is None else (mat @ out) % self.n
            base = (mat @ base) % self.n
            e >>= 1
        if not e:
            return self.one.copy()
        return base if out is None else self.mul_vec(out, base)

    @cached_property
    def _frobenius(self) -> dict[int, np.ndarray]:
        """For each prime p | n, the Frobenius matrix of A/pA over F_p.

        Row j is e_j^p (`_basis_powers`, from the small-integer table; no
        float64 table is built), and x^p = x @ frob in A/pA.
        residue_fields and unit_exponent both read it.
        """
        return {p: self._basis_powers(p) % p for p in zmod.prime_factors(self.n)}

    def _basis_powers(self, e: int) -> np.ndarray:
        """The matrix whose row j is e_j^e, e >= 1, mod n.

        Left-to-right square-and-multiply on a block of basis elements at
        once, blocks of at most zmod.BLOCK_ENTRIES matrix entries.  The
        multiplication matrices of e_j are read from the table, so the first
        squaring and every multiplication by e_j cost no contraction; each
        later squaring is one stacked mulmat.
        """
        r, n = self.rank, self.n
        out = np.empty((r, r), dtype=np.int64)
        step = zmod.block_rows(r * r)
        for s in range(0, r, step):
            by_basis = self.struct[s : s + step].swapaxes(1, 2).astype(np.int64)  # [j] = mulmat(e_j)
            power, mat = np.eye(r, dtype=np.int64)[s : s + step], by_basis
            for i, bit in enumerate(bin(e)[3:]):
                if i:
                    mat = self.mulmat(power)
                power = (mat @ power[:, :, None])[:, :, 0] % n
                if bit == "1":
                    power = (by_basis @ power[:, :, None])[:, :, 0] % n
            out[s : s + step] = power
        return out

    @cached_property
    def unit_exponent(self) -> Optional[int]:
        """A multiple L of the exponent of the unit group (u^L = 1 for every unit u),
        or None when L would have more than POWER_BITS bits.

        For p^k ‖ n let Φ be the Frobenius of A/pA, with Φ^(s+F) = Φ^s for
        the least s and the least F >= 1 (`_frobenius_period`).  Every x in
        A/pA then has x^(p^(s+F)) = x^(p^s), so the image of a unit has
        order dividing p^s (p^F - 1); the units 1 + pA that reduce to 1 have
        exponent dividing p^(k-1), since (1 + p^j a)^p lies in 1 + p^(j+1) A.
        So L_p = (p^F - 1) p^(s+k-1), and L is the lcm of the L_p over the
        primes p | n (CRT).  No Howell form or residue field is needed.

        F is the lcm of the residue degrees, which can be exponential in the
        rank (Z/2[x]/(f) with f a product of irreducibles of degrees 2, 3,
        5, 7, ...), and the walk that finds F and the power x^(L-1) both
        grow with it.  p^F - 1 has at least F (bit_length(p) - 1) bits, so
        the walk stops after POWER_BITS // (bit_length(p) - 1) steps, and a
        ring whose L is longer gets None: its units are inverted by a solve.
        """
        out = 1
        for (p, frob), p_k in zip(self._frobenius.items(), zmod.prime_powers(self.n)):
            found = _frobenius_period(frob, p, POWER_BITS // (p.bit_length() - 1))
            if found is None:
                return None
            s, period = found
            out = math.lcm(out, (p**period - 1) * p**s * (p_k // p))
        return out if out.bit_length() <= POWER_BITS else None

    @cached_property
    def residue_fields(self) -> zmod.ResidueFields:
        """Projections onto the residue fields, built on first use.

        Feeds the sweeps (Grid.unit_mask) and zmod.batch_is_unit; try_invert needs none.
        """
        blocks, fields, width = [], [], 0
        for p, frob in self._frobenius.items():
            for proj in _residue_projections(FiniteRing(p, self.struct, self.one, check=False), frob):
                blocks.append(proj)
                fields.append((p, width, width + proj.shape[1]))
                width += proj.shape[1]
        proj = np.hstack(blocks) if blocks else np.zeros((self.rank, 0), dtype=np.int64)
        return zmod.ResidueFields(self.n, proj, tuple(fields))

    def unit_mask(self, cap: int = DEFAULT_CAP) -> np.ndarray:
        """The unit mask of every element in lex order (`Grid.unit_mask`), read-only.

        Swept on first use and kept on the ring.  The cap is checked on
        every call, so a kept mask is refused exactly when a fresh sweep
        would be.
        """
        check_cap(self, cap)
        return self._unit_mask

    @cached_property
    def _unit_mask(self) -> np.ndarray:
        mask = Grid(self.n, self.rank).unit_mask(self.residue_fields)
        mask.flags.writeable = False
        return mask

    # -- elements ------------------------------------------------------------

    def element(self, coeffs) -> "RingElement":
        v = np.asarray(coeffs, dtype=np.int64) % self.n
        if v.shape != (self.rank,):
            raise ValueError(f"expected {self.rank} coefficients, got {v.shape}")
        return RingElement(self, v)

    def zero(self) -> "RingElement":
        return self.element(np.zeros(self.rank, dtype=np.int64))

    def one_element(self) -> "RingElement":
        return self.element(self.one)

    def basis_element(self, i: int) -> "RingElement":
        v = np.zeros(self.rank, dtype=np.int64)
        v[i] = 1
        return self.element(v)

    @property
    def size(self) -> int:
        return self.n**self.rank

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Commutativity, associativity and unit law on all basis triples.

        Commutativity compares one block of rows of the table at a time.
        """
        t, step = self.struct, zmod.block_rows(self.rank**2)
        if any((t[i : i + step] != t[:, i : i + step].swapaxes(0, 1)).any() for i in range(0, self.rank, step)):
            raise ValueError(f"{self.name}: multiplication is not commutative")
        if zmod.first_nonassociative(self.struct, self.n) is not None:
            raise ValueError(f"{self.name}: multiplication is not associative")
        # column i of the multiplication matrix of 1 is 1·e_i
        bad = (self.mulmat(self.one) != np.eye(self.rank, dtype=np.int64)).any(axis=0)
        if bad.any():
            raise ValueError(f"{self.name}: unit law fails on basis element {int(np.argmax(bad))}")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteRing)
            and self.n == other.n
            and self.rank == other.rank
            and (self.one == other.one).all()
            and (self.struct == other.struct).all()
        )

    def __hash__(self):
        if not hasattr(self, "_hash"):
            self._hash = hash((self.n, self.rank, self.struct.tobytes(), self.one.tobytes()))
        return self._hash

    def __repr__(self):
        return f"FiniteRing({self.name})"


def _contract(sa: str, a: np.ndarray, sb: str, b: np.ndarray, so: str, n: int) -> np.ndarray:
    """The einsum sa,sb->so of two int64 operands, reduced mod n; b carries a
    letter of the result that a lacks.

    Fewer than EINSUM_TERMS terms go to one np.einsum.  Otherwise it is one
    np.matmul written into the C-contiguous result through a strided view,
    so no second array of the result's size is made.  Letters of both
    operands and of the result are batch axes (broadcast), letters of both
    operands only are summed, and those of one operand are its rows or
    columns: the last row and the last column letter span the matrix
    product, and the other row and column letters are broadcast axes.
    """
    dims = dict(zip(sb, b.shape))
    dims.update((c, max(dims.get(c, 1), k)) for c, k in zip(sa, a.shape))
    if math.prod(dims.values()) < EINSUM_TERMS:
        out = np.einsum(f"{sa},{sb}->{so}", a, b, order="C")
        return zmod._mod(out, n)
    rows = [c for c in so if c not in sb]
    cols = [c for c in so if c not in sa]
    batch = [c for c in so if c in sa and c in sb]
    summed = [c for c in sa if c not in so]
    out = np.empty([dims[c] for c in so], dtype=np.int64)
    nb, r0, c0 = len(batch), rows[:-1], cols[:-1]
    k = math.prod(dims[c] for c in summed)
    left = a.transpose([sa.index(c) for c in batch + rows + summed])
    left = left.reshape(left.shape[: nb + len(r0)] + (1,) * len(c0) + (-1, k))
    right = b.transpose([sb.index(c) for c in batch + c0 + summed + cols[-1:]])
    right = right.reshape(right.shape[:nb] + (1,) * len(r0) + right.shape[nb : nb + len(c0)] + (k, -1))
    view = out.transpose([so.index(c) for c in batch + r0 + c0 + rows[-1:] + cols[-1:]])
    np.matmul(left, right, out=view if rows else view[..., None, :])
    return zmod._mod(out, n)


def _values(a: FiniteRing, y: np.ndarray, t: int) -> np.ndarray:
    """The values in F_p of an element y = y^p of a ring a over F_p.

    y lies in the Berlekamp subalgebra F_p^t, so its values are the roots of
    its minimal polynomial, which divides X^p - X and has degree at most
    min(p, t).
    """
    p = a.n
    powers = [a.one]
    for _ in range(min(p, t)):
        powers.append(a.mul_vec(powers[-1], y))
    vanishing = zmod.howell(np.array(powers), p).k  # coefficient rows, degree ascending
    # echelon form with the top degree first: its last row has the least degree
    minpoly = zmod.howell(vanishing[:, ::-1], p).h[-1][::-1]
    c = np.arange(p, dtype=np.int64)
    value = np.zeros(p, dtype=np.int64)
    for coef in minpoly[::-1]:
        value = (value * c + coef) % p
    return np.nonzero(value == 0)[0]


def _frobenius_period(frob: np.ndarray, p: int, max_period: int) -> Optional[tuple[int, int]]:
    """The least s and the least F >= 1 with Φ^(s+F) = Φ^s, for Φ = frob over F_p,
    or None when F > max_period.

    x^(p^t) = 0 on the radical once p^t >= rank, so s <= t for that t: the
    walk Φ^t, Φ^(t+1), ... returns to Φ^t after F steps, and s is the least
    i <= t with Φ^i Φ^F = Φ^i, Φ^F by squaring.  F is the lcm of the residue
    degrees.  Every product is an exact zmod.matmul_mod.
    """
    r = len(frob)
    powers = [np.eye(r, dtype=np.int64)]  # Φ^0, ..., Φ^t
    while p ** (len(powers) - 1) < r:
        powers.append(zmod.matmul_mod(powers[-1], frob, p))
    walk, period = zmod.matmul_mod(powers[-1], frob, p), 1
    while (walk != powers[-1]).any():
        if period == max_period:
            return None
        walk, period = zmod.matmul_mod(walk, frob, p), period + 1
    shift, square, e = powers[0], frob, period  # shift becomes Φ^F
    while e:
        if e & 1:
            shift = zmod.matmul_mod(shift, square, p)
        e >>= 1
        if e:
            square = zmod.matmul_mod(square, square, p)
    s = next(i for i, m in enumerate(powers) if (zmod.matmul_mod(m, shift, p) == m).all())
    return s, period


def _residue_projections(a: FiniteRing, frob: np.ndarray) -> list[np.ndarray]:
    """One matrix per residue field of a ring a over F_p (Berlekamp, Ronyai).

    frob is the Frobenius x -> x^p (row j is e_j^p, so x^p = x @ frob).
    With p^k >= rank, frob^k kills exactly the radical J.  The Berlekamp
    subalgebra ker(frob - I) is F_p^t, one factor per residue field; its
    primitive idempotents e come from splitting by 1 - (y - c)^(p-1) over a
    basis y and the values c of y.  When p <= t + 1 every c in F_p is
    tried instead of finding the values (`_values`, two Howell forms per
    y): for a c that is no value, y - c is a unit of F_p^t, so
    1 - (y - c)^(p-1) = 0 drops out with the zero products, and the
    idempotents come out the same and in the same order.  The matrix for e
    holds independent columns of x -> (x e)^(p^k), which is zero exactly
    when x e lies in J, i.e. when x lies in the maximal ideal of e.  The
    multiplication matrices of all the e are one stacked mulmat.
    """
    p, r = a.n, a.rank
    eye = np.eye(r, dtype=np.int64)
    frob_k, q = frob, p
    while q < r:
        frob_k = zmod.matmul_mod(frob_k, frob, p)
        q *= p
    idems = a.one[None, :]
    berlekamp = zmod.howell((frob - eye) % p, p).k
    t = len(berlekamp)
    for y in berlekamp:
        values = np.arange(p, dtype=np.int64) if p <= t + 1 else _values(a, y, t)
        shifted = (y[None, :] - np.outer(values, a.one)) % p
        deltas = (a.one[None, :] - a.pow_rows(shifted, p - 1)) % p
        prods = a.products(idems, deltas).reshape(-1, r)
        idems = prods[prods.any(axis=1)]
    mults = a.mulmat(idems).swapaxes(1, 2)  # row j of mults[i] is e_i·e_j
    return [zmod.column_basis(zmod.matmul_mod(m, frob_k, p), p) for m in mults]


class RingElement:
    """An element of a FiniteRing: a reduced coefficient vector."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: FiniteRing, coeffs: np.ndarray):
        self.ring = ring
        coeffs.flags.writeable = False
        self.coeffs = coeffs

    def key(self) -> tuple:
        return tuple(int(v) for v in self.coeffs)

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements live in different rings")
        return RingElement(self.ring, self.ring.mul_vec(self.coeffs, other.coeffs))

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring, (self.coeffs + other.coeffs) % self.ring.n)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return RingElement(self.ring, (self.coeffs - other.coeffs) % self.ring.n)

    def __pow__(self, e: int) -> "RingElement":
        return RingElement(self.ring, self.ring.pow_vec(self.coeffs, e))

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and (self.coeffs == other.coeffs).all()
        )

    def __hash__(self):
        return hash((self.ring.n, self.ring.rank, self.coeffs.tobytes()))

    def is_one(self) -> bool:
        return (self.coeffs == self.ring.one).all()

    def __repr__(self):
        return f"<{list(map(int, self.coeffs))} in {self.ring.name}>"


class RingHom:
    """A unital ring homomorphism given by its matrix on module bases."""

    def __init__(self, source: FiniteRing, target: FiniteRing, matrix, check: bool = True):
        if source.n != target.n:
            raise ValueError("homomorphism between rings of different characteristic")
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=np.int64) % target.n
        if self.matrix.shape != (target.rank, source.rank):
            raise ValueError("homomorphism matrix has wrong shape")
        if check:
            self.validate()

    def apply_vec(self, x: np.ndarray) -> np.ndarray:
        return (self.matrix @ (np.asarray(x, dtype=np.int64) % self.target.n)) % self.target.n

    def __call__(self, x: RingElement) -> RingElement:
        return self.target.element(self.apply_vec(x.coeffs))

    def compose(self, inner: "RingHom") -> "RingHom":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("composition mismatch: inner target is not the outer source")
        return RingHom(inner.source, self.target, (self.matrix @ inner.matrix) % self.target.n, check=False)

    def is_unital(self) -> bool:
        return (self.apply_vec(self.source.one) == self.target.one).all()

    def is_multiplicative(self) -> bool:
        """The images of all basis products against the products of the basis images.

        One block of basis elements e_i at a time: the images of the e_i e_j
        and the products of the images, side by side, fill at most one block
        of zmod.BLOCK_ENTRIES entries.  The first block with a mismatch ends
        the test.
        """
        s, t, n = self.source.rank, self.target.rank, self.target.n
        imgs = self.matrix.T  # row i is the image of e_i
        step = zmod.block_rows(2 * s * t)
        for i in range(0, s, step):
            lhs = zmod.matmul_mod(self.source.struct[i : i + step].reshape(-1, s), imgs, n)
            if (lhs != self.target.products(imgs[i : i + step], imgs).reshape(len(lhs), t)).any():
                return False
        return True

    def validate(self) -> None:
        """The unit law always; multiplicativity when source rank × target rank <= 10^4."""
        if not self.is_unital():
            raise ValueError("map does not send 1 to 1")
        if self.source.rank * self.target.rank <= 100 * 100 and not self.is_multiplicative():
            raise ValueError("map is not multiplicative")

    def __eq__(self, other):
        return (
            isinstance(other, RingHom)
            and self.source == other.source
            and self.target == other.target
            and (self.matrix == other.matrix).all()
        )


def identity_hom(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.eye(ring.rank, dtype=np.int64), check=False)


# -- constructors -------------------------------------------------------------


def _poly_name(coeffs: list[int]) -> str:
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{d}" if c == 1 else f"{c}x^{d}")
    return " + ".join(terms) if terms else "0"


def make_quotient_ring(n: int, poly: Iterable[int]) -> FiniteRing:
    """Z/nZ[x]/(f) on the basis 1, x, ..., x^(deg f - 1).

    The leading coefficient of f must be a unit mod n; f is normalized to be
    monic.  Structure constants come from reduction of x^(i+j) modulo f.

    >>> f4 = make_quotient_ring(2, [1, 1, 1])   # x^2 + x + 1
    >>> a = f4.basis_element(1)
    >>> (a * a).key()                           # a^2 = a + 1
    (1, 1)
    """
    f = [int(c) % n for c in poly]
    while f and f[-1] == 0:
        f.pop()
    if len(f) < 2:
        raise ValueError("polynomial must have degree at least 1")
    try:
        lead_inv = zmod.modinv(f[-1], n)
    except ValueError:
        raise ValueError(f"leading coefficient {f[-1]} is not a unit modulo {n}") from None
    f = [(c * lead_inv) % n for c in f]
    deg = len(f) - 1
    _check_rank(deg)
    # x^k mod f for k <= 2 deg - 2: x^(k-1) times the companion matrix of f
    companion = np.eye(deg, k=1, dtype=np.int64)  # x^i -> x^(i+1)
    companion[-1] = [-c % n for c in f[:deg]]  # x^(deg-1) -> x^deg = -(f[0] + ... + f[deg-1] x^(deg-1))
    powers = np.zeros((2 * deg - 1, deg), dtype=np.int64)
    powers[0, 0] = 1
    for k in range(1, 2 * deg - 1):
        powers[k] = powers[k - 1] @ companion % n
    struct = powers.astype(_struct_dtype(n))[np.add.outer(range(deg), range(deg))]
    one = np.zeros(deg, dtype=np.int64)
    one[0] = 1
    return FiniteRing(n, struct, one, name=f"Z/{n}[x]/({_poly_name(f)})")


def make_product_ring(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Componentwise product ring on the concatenated basis, unit (1, 1)."""
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} != {b.n}")
    r = a.rank + b.rank
    _check_rank(r)
    struct = np.zeros((r, r, r), dtype=a.struct.dtype)
    struct[: a.rank, : a.rank, : a.rank] = a.struct
    struct[a.rank :, a.rank :, a.rank :] = b.struct
    one = np.concatenate([a.one, b.one])
    return FiniteRing(a.n, struct, one, name=f"({a.name} x {b.name})")


def zmod_ring(n: int) -> FiniteRing:
    """Z/nZ itself, as the rank-1 quotient Z/nZ[x]/(x)."""
    ring = FiniteRing(n, np.ones((1, 1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), name=f"Z/{n}")
    return ring


# -- units ---------------------------------------------------------------------


def try_invert(x: RingElement) -> Optional[RingElement]:
    """The inverse of x when it exists (unique in a commutative ring).

    y = x^(L-1) with L = FiniteRing.unit_exponent, kept only when x·y = 1:
    a unit has x^L = 1, and a non-unit never does, so it gets None.  The
    power is one mulmat per bit of L - 1; no Howell form is solved.  A ring
    whose L is longer than POWER_BITS (unit_exponent is None) solves
    mulmat(x) y = 1 instead, one Howell form.

    >>> z27 = zmod_ring(27)
    >>> z27.unit_exponent, try_invert(z27.element([4])).key(), try_invert(z27.element([3]))
    (18, (7,), None)
    """
    ring = x.ring
    if ring.unit_exponent is None:
        sol = zmod.solve_right(ring.mulmat(x.coeffs), ring.one, ring.n)
        return None if sol is None else ring.element(sol)
    y = ring.pow_vec(x.coeffs, ring.unit_exponent - 1)
    if not (ring.mul_vec(x.coeffs, y) == ring.one).all():
        return None
    return ring.element(y)


def check_cap(ring: FiniteRing, cap: int) -> None:
    """Refuse, with RingTooLarge, a sweep of a ring of more than cap elements."""
    if ring.size > cap:
        raise RingTooLarge(f"{ring.name} has {ring.size} elements, cap is {cap}")
    if ring.size > 2**62:
        raise RingTooLarge("enumeration beyond 2^62 elements is unsupported")


class Grid:
    """Every element of a rank-r ring over Z/nZ, as a product of two digit halves.

    Element i = h·n^b + l of the lex order has high digits h in (Z/n)^a and
    low digits l in (Z/n)^b, with a = r // 2 and b = r - a.  A sweep is then
    a few small tables instead of one row per element: a linear map is
    x·M = H·M[:a] + L·M[a:], and a quadratic form splits as
    Q(x) = Q_aa(h) + Q_bb(l) + cross(h, l), the cross term of one output
    column being one (n^a × b)·(b × n^b) product.  Masks are over the flat
    lex order, of length n^r.

    >>> f4 = make_quotient_ring(2, [1, 1, 1])
    >>> grid = Grid.of(f4)
    >>> grid.rows(grid.unit_mask(f4.residue_fields)).tolist()
    [[0, 1], [1, 0], [1, 1]]
    >>> form = np.zeros((2, 2, 1), dtype=np.int64); form[1, 1, 0] = 1  # x_1^2
    >>> grid.rows(grid.zero_mask(form)).tolist()
    [[0, 0], [1, 0]]
    """

    def __init__(self, n: int, rank: int):
        self.n = n
        self.rank = rank
        self.a = rank // 2
        self.b = rank - self.a
        self.high = _digit_rows(n, self.a)
        self.low = _digit_rows(n, self.b)
        self.shape = (len(self.high), len(self.low))
        self.size = n**rank

    @classmethod
    def of(cls, ring: FiniteRing, cap: int = DEFAULT_CAP) -> "Grid":
        """The grid of a ring, refused when the ring has more than cap elements."""
        check_cap(ring, cap)
        return cls(ring.n, ring.rank)

    def rows(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Coefficient rows of the elements in a flat mask (all when None), in lex order."""
        return self.rows_at(np.arange(self.size) if mask is None else np.flatnonzero(mask))

    def rows_at(self, idx: np.ndarray) -> np.ndarray:
        """Coefficient rows of the elements with flat (lex) indices idx."""
        h, l = np.divmod(idx, self.shape[1])
        return np.hstack([self.high[h], self.low[l]])

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Flat (lex) indices of coefficient rows along the last axis, the inverse
        of rows_at: sum_i x_i n^(r-1-i), exact in int64 as Grid.of refuses
        more than 2^62 elements."""
        return rows @ self.n ** np.arange(self.rank - 1, -1, -1, dtype=np.int64)

    def unit_mask(self, residue: zmod.ResidueFields) -> np.ndarray:
        """Elements x with a nonzero image in every residue field: the unit mask
        of the ring of `residue`.

        The image in a field over F_p is zero exactly when the low image is
        the negated high image mod p, so each field costs one integer
        equality test per element between base-p codes of the two half
        images; a code stays below the field size, at most the ring size.
        """
        n, a = self.n, self.a
        high = zmod.matmul_mod(self.high, residue.proj[:a], n)
        low = zmod.matmul_mod(self.low, residue.proj[a:], n)
        mask = np.ones(self.shape, dtype=bool)
        for p, start, stop in residue.fields:
            place = p ** np.arange(stop - start, dtype=np.int64)
            neg_high = (-high[:, start:stop] % p) @ place
            mask &= neg_high[:, None] != (low[:, start:stop] % p) @ place
        return mask.reshape(-1)

    def zero_mask(self, form: np.ndarray, alive: Optional[np.ndarray] = None) -> np.ndarray:
        """Elements x (of alive, default all) with sum_ij x_i x_j form[i, j, :] = 0 mod n.

        The output columns swept are a generating set of the form's column
        module (`_column_basis`), which has the same zero set: x is a zero
        of every column exactly when it is a zero of every combination of
        them.  They are taken in turn over the whole grid, one GEMM
        [H C_k | Q_aa,k | 1]·[L^T; 1; Q_bb,k] each, while many elements
        survive.  Once 8 · rank · survivors <= n^r the remaining columns
        run on the survivors alone, from the same half tables.  The cross
        terms H C_k are formed one block of columns at a time, of at most
        zmod.BLOCK_ENTRIES entries, and the switch to the survivors is
        tested before every column of a block.
        """
        n, a, b = self.n, self.a, self.b
        form = _column_basis(form, self.rank, n)
        alive = np.ones(self.size, dtype=bool) if alive is None else alive.copy()
        high_q = zmod.bilinear_mod(self.high, self.high, form[:a, :a], n)
        low_q = zmod.bilinear_mod(self.low, self.low, form[a:, a:], n)
        cross = (form[:a, a:] + form[a:, :a].transpose(1, 0, 2)) % n
        step = zmod.block_rows(self.shape[0] * b)  # output columns per block
        for start in range(0, form.shape[2], step):
            cols = slice(start, start + step)
            self._narrow(alive, cross[:, :, cols], high_q[:, cols], low_q[:, cols])
        return alive

    def _narrow(self, alive: np.ndarray, cross: np.ndarray, high_q: np.ndarray, low_q: np.ndarray) -> None:
        """Clear from alive, in place, the elements where a column of one block is nonzero.

        cross, high_q and low_q are the block's columns of C, Q_aa and Q_bb.
        """
        n, a, b = self.n, self.a, self.b
        width = cross.shape[2]
        high_cross = zmod.matmul_mod(self.high, cross.reshape(a, b * width), n)
        high_cross = high_cross.reshape(self.shape[0], b, width)
        # a column's value is an integer below (b + 2) n^2 < 2^53, so the
        # float64 GEMM is exact, and it is 0 mod n iff value / n is integral
        left = np.ones((self.shape[0], b + 2))
        right = np.ones((b + 2, self.shape[1]))
        right[:b] = self.low.T
        table = alive.reshape(self.shape)
        for k in range(width):
            if 8 * self.rank * np.count_nonzero(alive) <= self.size:
                idx = np.flatnonzero(alive)
                h, l = np.divmod(idx, self.shape[1])
                rest = high_q[h, k:] + low_q[l, k:]
                # one (survivors × columns) gather per low digit, not one of b times that
                for j in range(b):
                    rest += high_cross[h, j, k:] * self.low[l, j, None]
                alive[idx] = ~zmod._mod(rest, n).any(axis=1)
                return
            left[:, :b] = high_cross[:, :, k]
            left[:, b] = high_q[:, k]
            right[b + 1] = low_q[:, k]
            q = left @ right
            q /= n
            table &= np.floor(q) == q


def _column_basis(form: np.ndarray, rank: int, n: int) -> np.ndarray:
    """Output columns spanning the column module of a (rank, rank, K) form mod n.

    The columns are `zmod.column_basis` of the form's distinct rows and
    distinct columns, with each row copied back to every (i, j) that has
    it: copying coordinates is injective and linear, so it carries a
    generating set of the smaller module onto one of the form's.  A
    function of its own so that the flattened copies are freed before the
    sweep.
    """
    flat = np.asarray(form, dtype=np.int64).reshape(rank * rank, -1) % n
    rows, where = _first_seen(flat)
    distinct = flat[rows]
    basis = zmod.column_basis(distinct[:, _first_seen(distinct.T)[0]], n)
    return basis[where].reshape(rank, rank, -1)


def _first_seen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first occurrence of each distinct row of a 2-d array,
    in order, and for every row the position of its first occurrence in that list."""
    seen: dict = {}
    first, where = [], []
    for i, row in enumerate(a):
        k = seen.setdefault(row.tobytes(), len(first))
        if k == len(first):
            first.append(i)
        where.append(k)
    return np.array(first, dtype=np.int64), np.array(where, dtype=np.int64)


def _digit_rows(n: int, k: int) -> np.ndarray:
    """All of (Z/n)^k as rows of base-n digits, most significant first (lex order)."""
    idx = np.arange(n**k, dtype=np.int64)
    return (idx[:, None] // n ** np.arange(k - 1, -1, -1, dtype=np.int64)) % n


def enumerate_units(
    ring: FiniteRing, cap: int = DEFAULT_CAP, jobs: int = 1, as_array: bool = False
):
    """All invertible elements, in lexicographic coefficient order.

    The rows of the ring's kept unit mask (`FiniteRing.unit_mask`).  `jobs`
    is accepted for compatibility; the sweep has one code path and the
    result never depends on it.
    """
    units = Grid.of(ring, cap).rows(ring.unit_mask(cap))
    if as_array:
        return units
    return [ring.element(v) for v in units]


def all_elements_array(ring: FiniteRing, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Coefficient rows of every ring element in lexicographic order."""
    return Grid.of(ring, cap).rows()
