"""The span-state profile engine agrees with subset enumeration on binary
matrices, and a matrix's profile comes from whichever engine has less work."""

import functools
import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from greedoid_tutte import (
    GF2,
    BinaryMatrix,
    block_diag,
    count_bases,
    identity_matrix,
    thicken,
    to_greedoid,
    tutte_eval,
    tutte_polynomial,
)
from greedoid_tutte import tutte as tutte_module
from greedoid_tutte.errors import GroundSetTooLargeError
from greedoid_tutte.carriers import carrier_rank, merge_identical_elements
from greedoid_tutte.basis_counting import _suffix_coordinates
from greedoid_tutte.greedoid import rank_size_profile
from greedoid_tutte.primitives import gaussian_binomial, gf2_rank, packed_power
from greedoid_tutte.span_profile import span_state_profile, span_state_cost
from greedoid_tutte.span_profile import spanning_sets

from test_identical_classes import binary_matrices

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw):
    """Binary matrices of at most 5 rows and 10 columns.

    The columns come from a pool of at most 2 * rows + 1, one of them zero,
    so they repeat.  A zeroed row makes a zero row, and a zeroed top row a matrix of
    rank 0; the rows below the rank change the spans of column sets but not
    their ranks.  All of it comes from one seeded generator: drawn directly,
    sizes and bits lean towards zero, and most matrices had rank 0.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = rng.randint(1, 5)
    pool = [0] + [rng.randrange(1, 2**rows) for _ in range(rng.randint(rows, 2 * rows))]
    columns = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
    zeroed = rng.choice([None] * 12 + [*range(rows)])
    return BinaryMatrix(
        tuple(tuple(0 if r == zeroed else col >> r & 1 for col in columns) for r in range(rows))
    )


@PROPERTY
@given(matrices())
def test_engine_matches_enumeration(matrix):
    core, sizes = merge_identical_elements(matrix)
    expected = rank_size_profile(to_greedoid(matrix))
    assert span_state_profile(core, sizes, carrier_rank(core)) == expected


@st.composite
def wide_matrices(draw):
    """Binary matrices of 6 to 8 rows and at most 12 columns, most of rank 6 or more.

    A state keeps one slot of R bits per pivot, R being the rank, so these
    fill slots up to 8 bits wide.  The columns span a subspace of dimension d
    from 6 to ``rows``, its basis unitriangular on the top d rows, so the rank
    is d and the rows below it are not zero when d < rows; a quarter of the
    matrices lose a few columns, and with them rank.  The other columns are
    zero, repeated basis columns or sums of them.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = rng.randint(6, 8)
    basis = [1 << i | rng.randrange(2 ** (rows - i - 1)) << i + 1 for i in range(rng.randint(6, rows))]

    def member():
        return functools.reduce(operator.xor, (b for b in basis if rng.randrange(2)), 0)

    pool = [0, *basis, *(member() for _ in range(3))]
    columns = basis + [rng.choice(pool) for _ in range(12 - len(basis))]
    rng.shuffle(columns)
    if rng.randrange(4) == 0:
        del columns[: rng.randint(1, 6)]
    return BinaryMatrix(tuple(tuple(col >> r & 1 for col in columns) for r in range(rows)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(wide_matrices())
def test_engine_matches_enumeration_at_wider_slots(matrix):
    core, sizes = merge_identical_elements(matrix)
    expected = rank_size_profile(to_greedoid(matrix))
    assert span_state_profile(core, sizes, carrier_rank(core)) == expected


@pytest.fixture
def engines(monkeypatch):
    """Name the engine behind each matrix profile, starting from an empty cache."""
    calls = []
    for name in ("rank_size_profile", "span_state_profile"):
        engine = getattr(tutte_module, name)
        monkeypatch.setattr(tutte_module, name, lambda *a, f=engine, n=name: calls.append(n) or f(*a))
    tutte_module._carrier_profile.cache_clear()
    return calls


def weight_three(rows: int, cols: int) -> BinaryMatrix:
    """The first ``cols`` 3-sets of rows, as columns with three ones."""
    supports = list(itertools.combinations(range(rows), 3))[:cols]
    return BinaryMatrix(tuple(tuple(int(r in s) for s in supports) for r in range(rows)))


def random_matrix(rows: int, cols: int, seed: int) -> BinaryMatrix:
    rng = random.Random(seed)
    return BinaryMatrix(tuple(tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows)))


@pytest.mark.parametrize(
    "matrix, engine",
    [
        (weight_three(6, 12), "span_state_profile"),  # N(6) = 2825 spans against 2^12 subsets
        (identity_matrix(12), "span_state_profile"),  # at most 2^12 spans: every matrix takes the span engine
        (thicken(identity_matrix(3), 3), "span_state_profile"),  # N(3) = 16 spans against 2^3 classes
    ],
)
def test_engine_choice(engines, matrix, engine):
    assert tutte_polynomial(matrix) == tutte_polynomial(to_greedoid(matrix))
    assert engines == [engine]


def test_beyond_enumeration_bound(engines):
    """The bases of the binary greedoid are the column sets whose top R rows
    are nonsingular, R being the rank, so T(1, 1) counts them."""
    matrix = random_matrix(8, 20, 0)  # 20 distinct columns, rank 8
    rank = carrier_rank(matrix)
    assert tutte_eval(matrix, 2, 2, max_elements=20) == 2**20
    top = [col[:rank] for col in zip(*matrix.bits)]
    assert tutte_eval(matrix, 1, 1, max_elements=20) == count_bases(top, GF2, rank)
    assert engines == ["span_state_profile"]


def test_large_rank_refused_without_counting_its_spans():
    """N(600) alone would take seconds to sum; its lower bound 2^(600*600//4)
    already reaches the 2^600 sets of classes, so the figure is 2^600 spans,
    past the work limit."""
    matrix = identity_matrix(600)
    start = time.perf_counter()
    with pytest.raises(GroundSetTooLargeError, match="2\\^600 spans"):
        tutte_eval(matrix, 2, 2, max_elements=600)
    assert time.perf_counter() - start < 2.0


def test_cost_is_the_subspace_count_or_its_lower_bound():
    """N(6) = 2825 spans; for rank 600 the lower bound 2^(600*600//4) on N(600)
    passes the 600 classes' 2^600 sets, so 2^600 is the figure, with N(600) never summed."""
    assert span_state_cost(6, 12) == [(2825, "spans by the span-state engine")]
    start = time.perf_counter()
    assert span_state_cost(600, 600)[0][0] == 2**600
    assert time.perf_counter() - start < 0.1


def test_cost_is_the_subspace_count_capped_by_the_class_subsets():
    """No layer holds more than N(R) spans, nor more than the 2^classes sets of classes."""
    for rank in range(13):
        subspaces = sum(gaussian_binomial(rank, d, 2) for d in range(rank + 1))
        for classes in range(41):
            assert span_state_cost(rank, classes)[0][0] == min(subspaces, 2**classes)


@PROPERTY
@given(st.one_of(binary_matrices(), st.integers(1, 16).map(identity_matrix)))
def test_every_matrix_takes_the_span_engine(matrix):
    """Repeated and zero columns, and identity matrices up to 16: each
    matrix makes one engine call, always the span engine's, and its
    polynomial is enumeration's."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("rank_size_profile", "span_state_profile"):
            engine = getattr(tutte_module, name)
            patch.setattr(tutte_module, name, lambda *a, f=engine, n=name: calls.append(n) or f(*a))
        tutte_module._carrier_profile.cache_clear()
        polynomial = tutte_polynomial(matrix, max_elements=16)
    assert calls == ["span_state_profile"]
    assert polynomial == tutte_polynomial(to_greedoid(matrix), max_elements=16)


def multiplier_matrix(rows: int, cols: int, multiplier: int) -> BinaryMatrix:
    """Entry (r, j) is bit r of j * multiplier, for columns j = 1 .. cols."""
    return BinaryMatrix(tuple(tuple(j * multiplier >> r & 1 for j in range(1, cols + 1)) for r in range(rows)))


def test_rank_twelve_matrix_at_scale(engines):
    """14 rows and 24 distinct columns of rank 12: at most 2^24 spans, where
    class enumeration takes about a minute over its 2^24 subsets.  T(1, 1)
    counts the bases, the column sets whose top 12 rows are nonsingular."""
    matrix = multiplier_matrix(14, 24, 40503)
    assert carrier_rank(matrix) == 12
    start = time.perf_counter()
    assert tutte_eval(matrix, 2, 2, max_elements=24) == 2**24
    assert tutte_eval(matrix, 1, 1, max_elements=24) == 64664
    assert time.perf_counter() - start < 5.0
    assert count_bases([col[:12] for col in zip(*matrix.bits)], GF2, 12) == 64664
    assert engines == ["span_state_profile"]


@PROPERTY
@given(matrices())
def test_spanning_sets_count_the_sets_whose_top_rows_span(matrix):
    """Each level's count, on the core's classes in suffix coordinates,
    against the column sets of the whole matrix whose top k rows have rank k."""
    core, sizes = merge_identical_elements(matrix)
    columns, m = list(zip(*matrix.bits)), matrix.col_count
    width = m + 1
    powers = [packed_power(c, width) for c in sizes]
    for k in range(1, carrier_rank(core) + 1):
        coords, _ = _suffix_coordinates([col[:k] for col in zip(*core.bits)], 2)
        expected = sum(
            1 << size * width
            for size in range(m + 1)
            for chosen in itertools.combinations(columns, size)
            if gf2_rank(col[:k] for col in chosen) == k
        )
        assert spanning_sets(coords, powers) == expected


def full_row_rank_block(rng: random.Random, rows: int, cols: int) -> BinaryMatrix:
    while True:
        bits = tuple(tuple(rng.randrange(2) for _ in range(cols)) for _ in range(rows))
        if gf2_rank(bits) == rows:
            return BinaryMatrix(bits)


def assert_profile_invariants(matrix: BinaryMatrix) -> None:
    """The counts sum to 2^m, and the bases, the sets of rank R and size R,
    are the column sets whose top R rows are nonsingular."""
    core, sizes = merge_identical_elements(matrix)
    rank = carrier_rank(core)
    counts = span_state_profile(core, sizes, rank)
    assert sum(counts.values()) == 2**matrix.col_count
    assert counts[(0, 0)] == count_bases([col[:rank] for col in zip(*matrix.bits)], GF2, rank)


def test_profiles_past_enumeration_by_their_invariants():
    """Matrices far past class enumeration, checked by what needs none.  The
    block-diagonal matrix of three full-row-rank 5x10 blocks has the figure
    2^30, so the router refuses it; called directly, the engine sees the
    states of each level collapse once a block's columns have passed."""
    rng = random.Random(11)
    blocks = [full_row_rank_block(rng, 5, 10) for _ in range(3)]
    start = time.perf_counter()
    assert_profile_invariants(block_diag(block_diag(blocks[0], blocks[1]), blocks[2]))
    assert time.perf_counter() - start < 1.0
    assert_profile_invariants(random_matrix(9, 27, 5))
