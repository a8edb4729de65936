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

from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import zmod

DEFAULT_CAP = 2**20  # elements, for exhaustive enumeration
DEFAULT_RANK_CAP = 600  # structure tensors are rank^3 entries


class RingTooLarge(Exception):
    """Raised when an exhaustive operation would exceed the configured cap."""


class InternalCheckError(AssertionError):
    """Two independent computations of the same quantity disagreed."""


def _struct_dtype(n: int):
    # moduli stop at zmod.MAX_MODULUS, so residues fit in 16 bits
    return np.int8 if n <= 127 else np.int16


class FiniteRing:
    """A finite commutative ring, free over Z/nZ with structure constants."""

    def __init__(self, modulus: int, structure, one, name: str = "", check: bool = True):
        if not 2 <= modulus <= zmod.MAX_MODULUS:
            raise ValueError(f"modulus must be between 2 and {zmod.MAX_MODULUS}, got {modulus}")
        c = np.asarray(structure, dtype=np.int64) % modulus
        if c.ndim != 3 or c.shape[0] != c.shape[1] or c.shape[1] != c.shape[2]:
            raise ValueError("structure constants must form an (r, r, r) array")
        self._set_header(modulus, c.shape[0], one, name)
        self.struct = c.astype(_struct_dtype(self.n))
        if check:
            self.validate()

    def _set_header(self, modulus: int, rank: int, one, name: str) -> None:
        """Everything but the structure table: modulus, rank, unit and name."""
        self.n = int(modulus)
        self.rank = rank
        self.one = np.asarray(one, dtype=np.int64) % self.n
        if self.one.shape != (self.rank,):
            raise ValueError("unit coefficient vector has wrong length")
        self.name = name or f"ring(n={self.n},r={self.rank})"

    # -- arithmetic on raw coefficient vectors ------------------------------

    def mul_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = self.struct
        nx = np.nonzero(x)[0]
        ny = np.nonzero(y)[0]
        # sparse path: a product of few nonzero coefficients reads only the
        # table slices c[i][ny] of the nonzero pairs
        if len(nx) * len(ny) <= 4 * self.rank:
            out = np.zeros(self.rank, dtype=np.int64)
            for i in nx:
                xi = int(x[i])
                block = c[i][ny].astype(np.int64)  # (|ny|, rank)
                out += xi * (y[ny] @ block)
            return out % self.n
        return self.mul_rows(x[None, :], y[None, :])[0]

    def mul_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Products of corresponding rows of two batches of reduced elements."""
        return zmod.bilinear_mod(x, y, self._float_struct, self.n)

    @cached_property
    def _float_struct(self) -> np.ndarray:
        return self.struct.astype(np.float64)

    def pow_rows(self, x: np.ndarray, e: int) -> np.ndarray:
        """Each row of a batch raised to the power e >= 0."""
        out = np.tile(self.one, (len(x), 1))
        base = np.asarray(x, dtype=np.int64) % self.n
        while e:
            if e & 1:
                out = self.mul_rows(out, base)
            e >>= 1
            if e:
                base = self.mul_rows(base, base)
        return out

    def mulmat(self, x: np.ndarray) -> np.ndarray:
        """Matrix of multiplication by x in the module basis."""
        return np.einsum("i,ijk->kj", np.asarray(x, dtype=np.int64), self.struct) % self.n

    def pow_vec(self, x: np.ndarray, e: int) -> np.ndarray:
        return self.pow_rows(np.asarray(x)[None, :], e)[0]

    @cached_property
    def residue_fields(self) -> zmod.ResidueFields:
        """Projections onto the residue fields, built on first use.

        Feeds zmod.batch_is_unit and Grid.unit_mask.
        """
        blocks, fields, width = [], [], 0
        for p in zmod.prime_factors(self.n):
            for proj in _residue_projections(FiniteRing(p, self.struct, self.one, check=False)):
                blocks.append(proj)
                fields.append((p, width, width + proj.shape[1]))
                width += proj.shape[1]
        proj = np.hstack(blocks) if blocks else np.zeros((self.rank, 0), dtype=np.int64)
        return zmod.ResidueFields(self.n, proj, tuple(fields))

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
        """Commutativity, associativity and unit law on all basis triples."""
        c = self.struct.astype(np.int64)
        if ((c - c.transpose(1, 0, 2)) % self.n).any():
            raise ValueError(f"{self.name}: multiplication is not commutative")
        lhs = np.einsum("ijm,mkl->ijkl", c, c) % self.n
        rhs = np.einsum("jkm,iml->ijkl", c, c) % self.n
        if ((lhs - rhs) % self.n).any():
            raise ValueError(f"{self.name}: multiplication is not associative")
        for i in range(self.rank):
            ei = np.zeros(self.rank, dtype=np.int64)
            ei[i] = 1
            if (self.mul_vec(self.one, ei) != ei).any():
                raise ValueError(f"{self.name}: unit law fails on basis element {i}")

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


def _residue_projections(a: FiniteRing) -> list[np.ndarray]:
    """One matrix per residue field of a ring a over F_p (Berlekamp, Ronyai).

    With F the Frobenius x -> x^p and p^k >= rank, F^k kills exactly the
    radical J.  The Berlekamp subalgebra ker(F - I) is F_p^t, one factor per
    residue field; its primitive idempotents e come from splitting by
    1 - (y - c)^(p-1) over a basis y and the values c of y.  The matrix for
    e holds independent columns of x -> (x e)^(p^k), which is zero exactly
    when x e lies in J, i.e. when x lies in the maximal ideal of e.
    """
    p, r = a.n, a.rank
    eye = np.eye(r, dtype=np.int64)
    frob = a.pow_rows(eye, p)  # row j is e_j^p, so x^p = x @ frob
    frob_k, q = frob, p
    while q < r:
        frob_k = zmod.matmul_mod(frob_k, frob, p)
        q *= p
    idems = a.one[None, :]
    berlekamp = zmod.howell((frob - eye) % p, p).k
    for y in berlekamp:
        shifted = (y[None, :] - np.outer(_values(a, y, len(berlekamp)), a.one)) % p
        deltas = (a.one[None, :] - a.pow_rows(shifted, p - 1)) % p
        prods = a.mul_rows(np.repeat(idems, len(deltas), axis=0), np.tile(deltas, (len(idems), 1)))
        idems = prods[prods.any(axis=1)]
    out = []
    for e in idems:
        proj = zmod.matmul_mod(a.mul_rows(eye, np.broadcast_to(e, (r, r))), frob_k, p)
        out.append(zmod.column_basis(proj, p))
    return out


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
        m = self.matrix
        tgt = self.target
        # images of all basis products vs products of basis images
        lhs = np.einsum("ijk,lk->ijl", self.source.struct.astype(np.int64), m) % tgt.n
        imgs = m.T  # (source.rank, target.rank)
        prod = np.einsum("ia,abl->ibl", imgs, tgt.struct.astype(np.int64)) % tgt.n
        rhs = np.einsum("ibl,jb->ijl", prod, imgs) % tgt.n
        return not ((lhs - rhs) % tgt.n).any()

    def validate(self) -> None:
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
    # powers of x up to x^(2 deg - 2), reduced mod f
    powers = np.zeros((2 * deg - 1, deg), dtype=np.int64)
    powers[0, 0] = 1
    for k in range(1, 2 * deg - 1):
        prev = powers[k - 1]
        shifted = np.zeros(deg + 1, dtype=np.int64)
        shifted[1:] = prev
        # reduce the x^deg coefficient via x^deg = -(f[0] + ... + f[deg-1] x^(deg-1))
        top = shifted[deg]
        red = shifted[:deg].copy()
        if top:
            red = (red - top * np.array(f[:deg], dtype=np.int64)) % n
        powers[k] = red % n
    struct = np.zeros((deg, deg, deg), dtype=np.int64)
    for i in range(deg):
        for j in range(deg):
            struct[i, j] = powers[i + j]
    one = np.zeros(deg, dtype=np.int64)
    one[0] = 1
    return FiniteRing(n, struct, one, name=f"Z/{n}[x]/({_poly_name(f)})")


def make_product_ring(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Componentwise product ring on the concatenated basis, unit (1, 1)."""
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} != {b.n}")
    r = a.rank + b.rank
    struct = np.zeros((r, r, r), dtype=np.int64)
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
    """The inverse of x when it exists (unique in a commutative ring)."""
    ring = x.ring
    sol = zmod.solve_right(ring.mulmat(x.coeffs), ring.one, ring.n)
    if sol is None:
        return None
    return ring.element(sol)


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
        if ring.size > cap:
            raise RingTooLarge(f"{ring.name} has {ring.size} elements, cap is {cap}")
        if ring.size > 2**62:
            raise RingTooLarge("enumeration beyond 2^62 elements is unsupported")
        return cls(ring.n, ring.rank)

    def rows(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Coefficient rows of the elements in a flat mask (all when None), in lex order."""
        return self.rows_at(np.arange(self.size) if mask is None else np.flatnonzero(mask))

    def rows_at(self, idx: np.ndarray) -> np.ndarray:
        """Coefficient rows of the elements with flat (lex) indices idx."""
        h, l = np.divmod(idx, self.shape[1])
        return np.hstack([self.high[h], self.low[l]])

    def unit_mask(self, residue: zmod.ResidueFields, via: Optional[np.ndarray] = None) -> np.ndarray:
        """Elements x whose image x·via has a nonzero image in every residue field.

        With via = None this is the unit mask of the ring of `residue`.  The
        image in a field over F_p is zero exactly when the low image is the
        negated high image mod p, so each field costs one integer equality
        test per element between base-p codes of the two half images; a code
        stays below the field size, at most the ring size.
        """
        n, a = self.n, self.a
        proj = residue.proj if via is None else zmod.matmul_mod(via, residue.proj, n)
        high = zmod.matmul_mod(self.high, proj[:a], n)
        low = zmod.matmul_mod(self.low, proj[a:], n)
        mask = np.ones(self.shape, dtype=bool)
        for p, start, stop in residue.fields:
            place = p ** np.arange(stop - start, dtype=np.int64)
            neg_high = (-high[:, start:stop] % p) @ place
            mask &= neg_high[:, None] != (low[:, start:stop] % p) @ place
        return mask.reshape(-1)

    def zero_mask(self, form: np.ndarray, alive: Optional[np.ndarray] = None) -> np.ndarray:
        """Elements x (of alive, default all) with sum_ij x_i x_j form[i, j, :] = 0 mod n.

        Zero and repeated output columns are dropped; the rest are taken in
        turn over the whole grid, one GEMM [H C_k | Q_aa,k | 1]·[L^T; 1; Q_bb,k]
        each, while many elements survive.  Once 8 · rank · survivors <= n^r
        the remaining columns run on the survivors alone, from the same half
        tables.
        """
        n, a, b = self.n, self.a, self.b
        flat = np.asarray(form, dtype=np.int64).reshape(self.rank**2, -1) % n
        cols = np.sort(zmod.unique_rows(flat.T, return_index=True)[1])
        form = flat[:, cols[flat[:, cols].any(axis=0)]].reshape(self.rank, self.rank, -1)
        alive = np.ones(self.size, dtype=bool) if alive is None else alive.copy()
        high_q = zmod.bilinear_mod(self.high, self.high, form[:a, :a], n)
        low_q = zmod.bilinear_mod(self.low, self.low, form[a:, a:], n)
        width = form.shape[2]
        cross = (form[:a, a:] + form[a:, :a].transpose(1, 0, 2)) % n
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
                rest = np.einsum("sjk,sj->sk", high_cross[h, :, k:], self.low[l])
                rest += high_q[h, k:] + low_q[l, k:]
                alive[idx] = ~(rest % n).any(axis=1)
                break
            left[:, :b] = high_cross[:, :, k]
            left[:, b] = high_q[:, k]
            right[b + 1] = low_q[:, k]
            q = left @ right / n
            table &= np.floor(q) == q
        return alive


def _digit_rows(n: int, k: int) -> np.ndarray:
    """All of (Z/n)^k as rows of base-n digits, most significant first (lex order)."""
    idx = np.arange(n**k, dtype=np.int64)
    return (idx[:, None] // n ** np.arange(k - 1, -1, -1, dtype=np.int64)) % n


def enumerate_units(
    ring: FiniteRing, cap: int = DEFAULT_CAP, jobs: int = 1, as_array: bool = False
):
    """All invertible elements, in lexicographic coefficient order.

    One `Grid.unit_mask` over the whole ring.  `jobs` is accepted for
    compatibility; the sweep has one code path and the result never depends
    on it.
    """
    grid = Grid.of(ring, cap)
    units = grid.rows(grid.unit_mask(ring.residue_fields))
    if as_array:
        return units
    return [ring.element(v) for v in units]


def all_elements_array(ring: FiniteRing, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Coefficient rows of every ring element in lexicographic order."""
    return Grid.of(ring, cap).rows()
