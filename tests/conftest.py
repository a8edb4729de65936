from typing import Iterator, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from corings import cli, zmod
from corings.extensions import Extension, TensorRing, amitsur_rebase
from corings.rings import FiniteRing, RingHom, enumerate_units, make_quotient_ring, zmod_ring


DESK = ["f4_over_f2", "f2x2_over_f2", "z2sq_over_f2", "gr42_over_z4", "gf9_over_f3"]


def simple_extension(base, top):
    """Extension with eta = unit embedding and the native basis of the top."""
    eta = RingHom(base, top, np.outer(top.one, base.one) % top.n)
    basis = np.eye(top.rank, dtype=np.int64)
    return Extension(base, top, eta, basis)


def desk_extensions(request):
    """The desk fixtures and the rebased (F4⊗F4)/F4."""
    exts = [request.getfixturevalue(name) for name in DESK]
    return exts + [amitsur_rebase(request.getfixturevalue("f4_over_f2"))]


def scaled_zmod(n, c):
    """Z/n on the basis e_0 = c·1 for a unit c: e_0 e_0 = c·e_0 and 1 = c^(-1)·e_0."""
    return FiniteRing(n, [[[c]]], [pow(c, -1, n)], name=f"Z/{n}" if c == 1 else f"Z/{n} on {c}·1")


def random_extension(n, poly, rebased, c=1):
    """(Z/n)[x]/(poly) over Z/n on e_0 = c·1, native basis, or its Amitsur rebase ((S⊗S)/S).

    With c = 1 the base equals zmod_ring(n); eta sends e_0 to c·1_S.
    """
    base, top = scaled_zmod(n, c), make_quotient_ring(n, poly)
    eta = RingHom(base, top, np.outer(top.one, [c]) % n)
    ext = Extension(base, top, eta, np.eye(top.rank, dtype=np.int64))
    return amitsur_rebase(ext) if rebased else ext


# (n, poly, rebased, c, seed) over n in {4, 6, 8, 9, 12}: degree 1 (plain,
# rebased, on a scaled base), and degree 2 where S^⊗3 is small enough to
# sweep (n <= 6); seed is free for the test's own draws.
RANDOM_EXTENSION_CASES = st.sampled_from([4, 6, 8, 9, 12]).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, 2 if n <= 6 else 1).flatmap(
            lambda d: st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(lambda c: c + [1])
        ),
        st.booleans(),
        st.sampled_from([c for c in range(1, n) if np.gcd(c, n) == 1]),
        st.integers(0, 2**32 - 1),
    )
)


def random_case_extension(case):
    """The extension of a RANDOM_EXTENSION_CASES draw; a draw that random_extension refuses is rejected."""
    n, poly, rebased, c, _ = case
    try:
        return random_extension(n, poly, rebased and len(poly) == 2, c)
    except ValueError:
        assume(False)


def refined_compare_corings():
    """Both refined corings of the compare job (`perfbench/jobs/compare.json`):
    F4/F2 twisted by e_2 and F2[x]/(x²+x)/F2 by 1, each refined by external
    product with the other side's canonical coring, over (F4⊗F2[x]/(x²+x))/F2
    (S^⊗3 of rank 64)."""
    from corings.coring import canonical_coring, external_product, twisted_coring

    f2 = zmod_ring(2)
    f4_ext = simple_extension(f2, make_quotient_ring(2, [1, 1, 1]))
    split_ext = simple_extension(f2, make_quotient_ring(2, [0, 1, 1]))
    c = twisted_coring(f4_ext, [0, 0, 1, 0, 0, 0, 0, 0])
    d = twisted_coring(split_ext, [1, 0, 0, 0, 0, 0, 0, 0])
    return external_product(c, canonical_coring(split_ext)), external_product(canonical_coring(f4_ext), d)


# The per-element counit oracle of the tests: classify.counit_solvable decides
# the same systems for a whole batch.
def counit_solution(ext: Extension, u) -> Optional[np.ndarray]:
    """An element v of S with u^1 v u^2 ⊗ u^3 = 1⊗1 = u^1 ⊗ u^2 v u^3, or None.

    This is the existence of a counit for the twisted comultiplication,
    decided as a linear system over Z/nZ; it is independent of the
    partial-collapse invertibility route.
    """
    u = np.asarray(u, dtype=np.int64) % ext.n
    t2 = ext.tensor_power(2)
    p = ext.merge_map(3, first=True).apply_vec(u)
    q = ext.merge_map(3, first=False).apply_vec(u)
    e1 = ext.slot_embed(2, 1).matrix
    e2 = ext.slot_embed(2, 2).matrix
    sys_mat = np.vstack(
        [
            (t2.ring.mulmat(p) @ e1) % ext.n,
            (t2.ring.mulmat(q) @ e2) % ext.n,
        ]
    )
    rhs = np.concatenate([t2.one_vec(), t2.one_vec()])
    return zmod.solve_right(sys_mat, rhs, ext.n)


# The coset oracles of the tests: a class computed from all of u·B^2, where
# BrauerClass.of_twist reads the identity class of a kept Z^2 from the memo.
def class_of(g, u) -> tuple:
    """Lex-least element of the coset u·B^2 of a CohomologyGroup g."""
    u = np.asarray(u, dtype=np.int64)[None, :] % g.ext.n
    coset = g.ext.tensor_power(3).ring.products(u, g.b2)[0]
    return tuple(map(int, zmod.unique_rows(coset)[0]))


def coset_class(ext: Extension, u, b2: np.ndarray) -> tuple:
    """The Brauer representative of a cocycle u: the lex-least norm-1 member
    of u·B^2, from its products with all of B^2, their norms and unique_rows."""
    u = np.asarray(u, dtype=np.int64)[None, :] % ext.n
    coset = ext.tensor_power(3).ring.products(u, b2)[0]
    norms = (coset @ ext.collapse_map(3).matrix.T) % ext.n
    normalized = coset[(norms == ext.top.one).all(axis=1)]
    assert len(normalized), "coset has no normalized member"
    return tuple(map(int, zmod.unique_rows(normalized)[0]))


# The orbit oracle of the tests: classify.monoid_quotient sorts the lex keys
# of each coset (Grid.keys); this route, its predecessor in the library,
# lexsorts the product rows themselves and merges the minima by unique_rows.
def sorted_cosets(ext: Extension, rows: np.ndarray, b2: np.ndarray) -> Iterator[np.ndarray]:
    """The cosets row·B^2 of a batch of rows of S^⊗3, each sorted lexicographically.

    These are the B^2-orbits of `classify.monoid_quotient`; compute_h2
    forms none, as Z^2 = B^2 there.  Yields arrays of shape (rows in block,
    |B^2|, rank), blocks in row order; member [i, 0] of a block is the
    lex-least element of its coset, and repeated members stay (a non-unit
    row may have a smaller orbit).  Each block is one `FiniteRing.products`
    (`zmod.outer_products`) against B^2, of at most zmod.BLOCK_ENTRIES
    entries, so no transient grows with the number of rows.
    """
    t3 = ext.tensor_power(3).ring
    step = zmod.block_rows(len(b2) * t3.rank)
    for start in range(0, len(rows), step):
        prods = t3.products(rows[start : start + step], b2)
        order = np.lexsort(np.moveaxis(prods, 2, 0)[::-1], axis=-1)
        yield np.take_along_axis(prods, order[:, :, None], axis=1)


def coset_quotient(ext: Extension, census, mask: np.ndarray, b2: np.ndarray):
    """Representatives, orbit sizes and invertible flags of the B^2-orbits of
    the rows of a census mask, by sorted_cosets."""
    minima, sizes = [], []
    for orbits in sorted_cosets(ext, census.grid.rows(mask), b2):
        minima.append(orbits[:, 0])
        sizes.append(1 + (orbits[:, 1:] != orbits[:, :-1]).any(axis=2).sum(axis=1))
    reps, first = zmod.unique_rows(np.concatenate(minima), return_index=True)
    return reps, [int(k) for k in np.concatenate(sizes)[first]], census.is_unit[mask][first]


# The span oracle of the tests: algebras.gamma_map compares the Howell rows
# of gamma^T with A(u)'s canonical basis; this route, its predecessor in the
# library (zmod.same_row_span), brings both matrices to Howell form.
def same_row_span(a, b, n: int) -> bool:
    """Whether two matrices have the same row span (canonical forms equal)."""
    ha = zmod.howell(a, n).h
    hb = zmod.howell(b, n).h
    return ha.shape == hb.shape and bool((ha == hb).all())


# The command-line oracle of the tests: argparse reads every line, as it did
# before cli._read_argv took the plain ones.
def argparse_run(argv, stdout):
    """cli.run(argv, stdout) with every command line parsed by argparse."""
    with mock.patch.object(cli, "_read_argv", return_value=None):
        return cli.run(argv, stdout=stdout)


# The slot-product oracle of the tests: TensorRing.mul_slots multiplies from
# the operands, where this route first forms all of x⊗y over the base.
def outer_slot_product(ring: TensorRing, x, y) -> np.ndarray:
    """x·y from the factors: x⊗y over the base (one mul_einsum), then one slot at a time.

    Exact int64 arithmetic, reduced mod n after every contraction; each
    slot contraction has d_i²·base.rank terms.  Before slot k the slots
    still to come of each operand are folded into one axis and the
    finished ones, slot-major, into another, so z has 6 axes at any
    level: (d_k, rest, d_k, rest, done, base).
    """
    n, kr = ring.n, ring.base.rank
    x = np.asarray(x, dtype=np.int64).reshape(-1, kr)
    y = np.asarray(y, dtype=np.int64).reshape(-1, kr)
    z = ring.base.mul_einsum("I_,J_->IJ_", x, y)
    rest, done = len(x), 1
    for mt in [ring.base.mulmat(rm) for rm in ring.rmults]:
        d = len(mt)
        rest //= d
        z = z.reshape(d, rest, d, rest, done, kr)
        z = zmod._mod(np.tensordot(z, mt, axes=([0, 2, 5], [0, 1, 4])), n)  # (rest, rest, done, a, u)
        done *= d
    return z.reshape(-1)


def skewed(ext, rng):
    """The same extension on a random unit upper-triangular change of basis,
    each new basis element scaled by a random unit of R."""
    d = ext.degree
    change = np.eye(d, dtype=np.int64)
    change[np.triu_indices(d, 1)] = rng.integers(1, ext.n, d * (d - 1) // 2)
    units = enumerate_units(ext.base, as_array=True)
    scales = ext.eta.matrix @ units[rng.integers(0, len(units), d)].T % ext.n
    basis = [ext.top.mul_vec(r, b) for r, b in zip(scales.T, (change @ ext.basis) % ext.n)]
    return Extension(ext.base, ext.top, ext.eta, basis)


@pytest.fixture(scope="session")
def f2():
    return zmod_ring(2)


@pytest.fixture(scope="session")
def f4():
    return make_quotient_ring(2, [1, 1, 1])


@pytest.fixture(scope="session")
def f4_over_f2(f2, f4):
    return simple_extension(f2, f4)


@pytest.fixture(scope="session")
def f2x2_over_f2(f2):
    top = make_quotient_ring(2, [0, 1, 1])  # x^2 + x: F2 x F2 with idempotent x
    return simple_extension(f2, top)


@pytest.fixture(scope="session")
def gr42_over_z4():
    z4 = zmod_ring(4)
    gr = make_quotient_ring(4, [1, 1, 1])  # Galois ring GR(4, 2)
    return simple_extension(z4, gr)


@pytest.fixture(scope="session")
def z2sq_over_f2(f2):
    top = make_quotient_ring(2, [0, 0, 1])  # F2[x]/(x^2), split via x -> 0
    return simple_extension(f2, top)


@pytest.fixture(scope="session")
def gf9_over_f3():
    f9 = make_quotient_ring(3, [1, 0, 1])  # x^2 + 1 is irreducible mod 3
    return simple_extension(zmod_ring(3), f9)
