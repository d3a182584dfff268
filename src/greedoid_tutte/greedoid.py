"""Family-agnostic greedoid interface.

A greedoid is given by its ground-set size and a pure feasibility oracle on
subsets.  Subsets are represented as int bitmasks over element ids
``0 .. size-1`` throughout; :func:`mask_of` and :func:`elements_of` convert
to and from iterables for readability.

Exponential operations (enumerating feasible sets, whole-lattice rank
tables, parallel classes, axiom verification) are guarded by a configurable
ground-set bound.  The default of 20 elements keeps every guarded call near
a million subsets; a rank table of more than 2^26 subsets is refused
whatever the bound.  numpy is imported only by the functions that build or
read a rank table, so a run that makes none never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import ElementOutOfRangeError, GroundSetTooLargeError, PreconditionError
from .primitives import find, horner_minus_one, packed_power, signed_fields, unpack_profile

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_ELEMENTS = 20

# The most any figure of exponential work may reach, whatever the element
# bound.  Enumeration at this bound already takes about half a minute and a
# GiB of arrays, and each step past it doubles that.
_MAX_WORK = 2**26


def _check_work(size: int, figures: Sequence[tuple[int, str]]) -> None:
    """Refuse work on ``size`` elements, naming every (figure, what) past ``_MAX_WORK``."""
    over = ", and ".join(f"about 2^{f.bit_length() - 1} {what}" for f, what in figures if f > _MAX_WORK)
    if over:
        limit = f"past the limit of 2^{_MAX_WORK.bit_length() - 1}"
        raise GroundSetTooLargeError(size, _MAX_WORK, f"these {size} elements take {over}, {limit}")


def mask_of(elements: Iterable[int], size: int | None = None) -> int:
    mask = 0
    for e in elements:
        if e < 0 or (size is not None and e >= size):
            raise ElementOutOfRangeError(f"element {e} outside ground set")
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def _check_bound(size: int, max_elements: int) -> None:
    if size > max_elements:
        raise GroundSetTooLargeError(size, max_elements)


@dataclass(frozen=True)
class SubsetProfile:
    """Subset counts of a ground set keyed by (rank deficit, size surplus).

    ``counts[(d, s)]`` is the number of subsets A with rank(E) - rank(A) = d
    and |A| - rank(A) = s, where ``size`` is |E| and ``rank`` is rank(E).
    The counts are a read-only view, so one profile can be shared by every
    query about its ground set.
    """

    counts: Mapping[tuple[int, int], int]
    size: int
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "counts", MappingProxyType(dict(self.counts)))

    @classmethod
    def of_rows(cls, rows: tuple[tuple[int, ...], ...], size: int, rank: int) -> SubsetProfile:
        """The profile whose :func:`deficit_rows` are ``rows``, kept as given, so they are not made again."""
        counts = {(d, s): c for d, row in enumerate(rows) for s, c in enumerate(row) if c}
        profile = cls(counts, size, rank)
        vars(profile)["rows"] = rows  # where the cached property would keep them
        return profile

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The counts as dense rows by deficit, by :func:`deficit_rows`, made on first use and then kept."""
        return deficit_rows(self.counts)

    @cached_property
    def expansion(self) -> Mapping[tuple[int, int], int]:
        """The Tutte polynomial's integer coefficients, by :func:`expand`, made on first use and then kept."""
        return MappingProxyType(expand(self.counts))


def deficit_rows(counts: Mapping[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """counts[d, s] as one dense row per deficit d = 0 .. D, each holding
    s = 0 .. S, with D and S the largest deficit and surplus counted, and 0
    where no count is given."""
    if not counts:
        return ()
    deficits, surpluses = zip(*counts)
    n = max(surpluses) + 1
    flat = [0] * ((max(deficits) + 1) * n)
    for (d, s), count in counts.items():
        flat[d * n + s] = count
    return tuple(tuple(flat[i : i + n]) for i in range(0, len(flat), n))


# Columns of the expansion made by one fold of the second shift.  Every
# column at once would fold ints of (rank + 1)(surplus + 1) fields, megabytes
# at a few hundred elements, which leave the cache; 16 keep each fold a few
# hundred KiB there, and hold every column of a profile of up to 15 surplus.
_FOLD_COLUMNS = 16


def expand(counts: Mapping[tuple[int, int], int], g: int = 1) -> dict[tuple[int, int], int]:
    """Coefficients of x^i y^j in the sum of counts[d, s] (x-1)^d q^(D-d)
    (y^g-1)^s, q = 1 + y + ... + y^(g-1), D the largest deficit (a profile's
    rank): for g > 1 the g-thickening's Tutte polynomial from a profile, by
    the thickening identity (Jaeger, Vertigan and Welsh, 1990).  Zero
    coefficients get no key.

    Two Taylor shifts by -1 on packed ints (:func:`.primitives.horner_minus_one`).
    Each of the :func:`deficit_rows` becomes one int, its polynomial in y at
    y = 2^W (one Horner pass at y^g times q^(D-d)), split into blocks of
    m = ``_FOLD_COLUMNS`` fields (or all n of its fields, when fewer).  Then
    for each block the rows fold into one int at x = 2^(W m): a block's
    polynomial has degree below m, so the fold is the sum of T_ij
    2^(W (i m + j - j0)) over the block's columns j0 <= j < j0 + m, read back
    field by field with a bias of 2^(W-1).  W is fixed before packing:
    (t^g - 1)^k has coefficients of absolute sum 2^k and q^k of sum g^k, so
    no coefficient of any partial sum of either shift, nor of the result,
    exceeds B = sum of |counts[d, s]| 2^(d+s) g^(D-d), and W is one bit more
    than B takes, so 2^(W-1) > B.  A row's blocks are read as signed fields
    of W m bits, since each lies within 2^(W m - 1).  Integer arithmetic
    throughout; callers turn the result into rationals.
    """
    rows = deficit_rows(counts)
    if not rows:
        return {}
    top = len(rows) - 1
    n = g * (len(rows[0]) - 1) + (g - 1) * top + 1
    width = sum(abs(c) * g ** (top - d) << d + s for (d, s), c in counts.items()).bit_length() + 1
    m = min(n, _FOLD_COLUMNS)
    blocks = [
        signed_fields(horner_minus_one(row, width, g, top - d), width * m, -(-n // m)) for d, row in enumerate(rows)
    ]
    expansion: dict[tuple[int, int], int] = {}
    for b, block in enumerate(zip(*blocks)):
        folded = signed_fields(horner_minus_one(block, width * m), width, len(rows) * m)
        for k, c in enumerate(folded):
            if c:
                i, j = divmod(k, m)
                expansion[i, b * m + j] = c
    return expansion


@dataclass(eq=False)
class Greedoid:
    """Ground set plus feasibility oracle, with the overall rank and the
    subset profile cached.

    The oracle must be a pure function of the subset bitmask with the empty
    set feasible; the exchange axiom is assumed (and can be verified on
    enumerable instances with :func:`verify_family_axioms`).
    """

    size: int
    feasible_mask: Callable[[int], bool]
    name: str = ""

    def __post_init__(self):
        if self.size < 0:
            raise PreconditionError("ground set size must be non-negative")
        if not self.feasible_mask(0):
            raise PreconditionError("the empty set must be feasible")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def rank(self) -> int:
        return rank_of(self, self.full_mask)

    def profile(self, max_elements: int = DEFAULT_MAX_ELEMENTS) -> SubsetProfile:
        """The subset profile, enumerated on first use and then kept.

        The bound is checked on every call, before the kept profile is looked
        at, so a smaller ``max_elements`` still raises.
        """
        _check_bound(self.size, max_elements)
        return self._profile

    @cached_property
    def _profile(self) -> SubsetProfile:
        return SubsetProfile(rank_size_profile(self, self.size), self.size, self.rank)

    def _check_subset(self, subset: int) -> None:
        if subset < 0 or subset >> self.size:
            raise ElementOutOfRangeError(
                f"subset {bin(subset)} is not within a {self.size}-element ground set"
            )

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Greedoid{label} on {self.size} elements>"


def is_feasible(greedoid: Greedoid, subset: int) -> bool:
    """Membership of the subset in the feasible family."""
    greedoid._check_subset(subset)
    return bool(greedoid.feasible_mask(subset))


def max_feasible_subset(greedoid: Greedoid, subset: int) -> int:
    """Greedy augmentation inside ``subset``; ties broken by smallest id.

    Every maximal feasible subset of a set has the same cardinality in a
    greedoid, so the greedy result has size equal to the rank.  The returned
    mask itself is the lexicographically least maximal chain's endpoint,
    which makes downstream uses deterministic.
    """
    greedoid._check_subset(subset)
    current = 0
    oracle = greedoid.feasible_mask
    while True:
        remaining = subset & ~current
        grew = False
        while remaining:
            bit = remaining & -remaining
            if oracle(current | bit):
                current |= bit
                grew = True
                break
            remaining ^= bit
        if not grew:
            return current


def rank_of(greedoid: Greedoid, subset: int) -> int:
    """Greedoid rank: size of a maximal feasible subset of ``subset``."""
    return len(elements_of(max_feasible_subset(greedoid, subset)))


def closure(greedoid: Greedoid, subset: int) -> int:
    """All elements whose addition does not raise the rank of ``subset``."""
    greedoid._check_subset(subset)
    base = rank_of(greedoid, subset)
    out = subset
    for e in range(greedoid.size):
        bit = 1 << e
        if subset & bit:
            continue
        if rank_of(greedoid, subset | bit) == base:
            out |= bit
    return out


def enumerate_feasible_sets(
    greedoid: Greedoid, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> list[int]:
    """All feasible subsets, sorted by bitmask value.

    Grows feasible sets one element at a time starting from the empty set;
    the exchange axiom guarantees every feasible set is reached this way.
    Cost is about (number of feasible sets) x (ground size) oracle calls.
    """
    _check_bound(greedoid.size, max_elements)
    oracle = greedoid.feasible_mask
    n = greedoid.size
    seen = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for current in frontier:
            for e in range(n):
                bit = 1 << e
                if current & bit:
                    continue
                candidate = current | bit
                if candidate not in seen and oracle(candidate):
                    seen.add(candidate)
                    fresh.append(candidate)
        frontier = fresh
    return sorted(seen)


def enumerate_bases(greedoid: Greedoid, max_elements: int = DEFAULT_MAX_ELEMENTS) -> list[int]:
    """All feasible sets of maximum rank, sorted by bitmask value."""
    feasible = enumerate_feasible_sets(greedoid, max_elements)
    top = max(f.bit_count() for f in feasible)
    return [f for f in feasible if f.bit_count() == top]


def _popcounts(n: int) -> np.ndarray:
    import numpy as np

    pc = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        pc[1 << i : 1 << (i + 1)] = pc[: 1 << i] + 1
    return pc


def subset_ranks(greedoid: Greedoid, max_elements: int = DEFAULT_MAX_ELEMENTS) -> np.ndarray:
    """Rank of every subset, as an array indexed by bitmask.

    The rank of A is the maximum size of a feasible subset of A, so the wanted
    array is the subset-lattice maximum of |B| * [B feasible].  That maximum is
    taken with the standard one-bit-at-a-time sweep over the lattice, which is
    a pure aggregation of oracle answers: results are identical to running the
    greedy rank on every subset, just much faster.  A table of more than
    ``_MAX_WORK`` subsets raises ``GroundSetTooLargeError`` before anything
    is allocated.
    """
    import numpy as np

    _check_bound(greedoid.size, max_elements)
    n = greedoid.size
    _check_work(n, [(1 << n, "entries of a rank table")])
    pc = _popcounts(n)
    ranks = np.zeros(1 << n, dtype=np.uint8)
    feasible = enumerate_feasible_sets(greedoid, max_elements)
    idx = np.fromiter(feasible, dtype=np.int64, count=len(feasible))
    ranks[idx] = pc[idx]
    for i in range(n):
        view = ranks.reshape(-1, 2, 1 << i)
        np.maximum(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    return ranks


def feasible_of_ranks(ranks: np.ndarray) -> np.ndarray:
    """The feasible sets, ascending, read off a rank table: A is feasible exactly when rank(A) = |A|."""
    import numpy as np

    return np.flatnonzero(ranks == _popcounts(len(ranks).bit_length() - 1))


def rank_size_profile(
    greedoid: Greedoid,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    class_sizes: Sequence[int] | None = None,
) -> dict[tuple[int, int], int]:
    """Count subsets by (rank deficit, size surplus).

    Key (d, s) counts the subsets A with rank(ground) - rank(A) = d and
    |A| - rank(A) = s.  This table is exactly the data the Tutte polynomial
    and all its curve restrictions are built from.

    With ``class_sizes``, the greedoid is the core of a larger ground set in
    which element i stands for a class of ``class_sizes[i]`` identical
    elements (no feasible set holds two of a class, and any member may stand
    for the others).  The counts are those of the larger ground set, and
    ``max_elements`` bounds its size, not the core's.  Class sizes whose
    :func:`class_table_bits` pass ``_MAX_WORK`` are refused before the rank
    table is made.
    """
    sizes = (1,) * greedoid.size if class_sizes is None else tuple(class_sizes)
    if len(sizes) != greedoid.size or any(c < 1 for c in sizes):
        raise PreconditionError("need one positive class size per core element")
    _check_bound(sum(sizes), max_elements)
    _check_work(sum(sizes), [(class_table_bits(sizes), "bits by class enumeration")])
    return _class_profile(subset_ranks(greedoid, max_elements), sizes)


# Microseconds class enumeration takes per call (the greedoid, its rank
# table and arrays, numpy's import aside) and per subset of the classes, its
# figure: fitted on a 2-core x86-64 host under CPython 3.11, with the
# vertex-subset engine's PRODUCT_US, so the router compares costs in one unit.
CLASS_CALL_US = 50
CLASS_STEP_US = 0.75


def class_table_bits(sizes: Sequence[int]) -> int:
    """Bits of the size polynomials class enumeration keeps.

    There is one per set u of the t classes of more than one element, in
    sum(u) + 1 fields of m + 1 bits, m the number of elements: in all
    (m + 1)(2^t + 2^(t-1) * the sum of their sizes) bits.
    """
    multi = [c for c in sizes if c > 1]
    return (sum(sizes) + 1) * ((2 + sum(multi)) << len(multi)) // 2


def _class_profile(ranks: np.ndarray, sizes: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Profile of a ground set of identical-element classes, from the core's rank table.

    A subset A meeting exactly the classes U has rank r(U), and the subsets
    meeting exactly U are counted by size by prod over c in U of
    ((1+z)^|c| - 1).  Core subsets are first counted by (deficit, number of
    singleton classes met, set of larger classes met); each such group then
    adds its size polynomial, packed as :func:`.primitives.packed_powers`
    sets out, to its rank's.  With every class of size 1 this is the plain
    count of core subsets by (deficit, surplus).
    """
    import numpy as np

    core = len(sizes)
    multi = [e for e, c in enumerate(sizes) if c > 1]
    t = len(multi)
    top = int(ranks[-1])
    radix = core - t + 1  # singleton classes met: 0 to core - t
    # keys: ((deficit * radix + singleton classes met) << t) | larger classes met
    keys = np.subtract(top, ranks, dtype=np.int64)
    keys *= radix
    keys += _popcounts(core)
    keys <<= t
    for j, e in enumerate(multi):  # a subset with e counts class j as met, not as a singleton
        keys.reshape(-1, 2, 1 << e)[:, 1] += (1 << j) - (1 << t)
    counts = np.bincount(keys)

    width = sum(sizes) + 1
    by_size = [1]  # by_size[u]: the product of (1+z)^c - 1 over the larger classes in u
    for e in multi:
        take = packed_power(sizes[e], width) - 1
        by_size += [w * take for w in by_size]
    by_rank = [0] * (top + 1)
    for key in np.nonzero(counts)[0].tolist():
        deficit, single = divmod(key >> t, radix)
        by_rank[top - deficit] += (int(counts[key]) * by_size[key & ((1 << t) - 1)]) << (single * width)
    return unpack_profile(by_rank, width)


def _pair_views(table: np.ndarray):
    """Yield (e, f, view) for e < f, by e and then f: quarters [:, 0, :, 0], [:, 0, :, 1], [:, 1, :, 0]
    and [:, 1, :, 1] of the view hold A, A+e, A+f and A+e+f for the subsets A avoiding both,
    the A at [high, :, mid, :, low] being high << f+1 | mid << e+1 | low.  Nothing is copied."""
    for e, f in combinations(range(len(table).bit_length() - 1), 2):
        yield e, f, table.reshape(-1, 2, 1 << f - e - 1, 2, 1 << e)


@dataclass(frozen=True)
class ParallelClasses:
    """Partition of the ground set under the parallel-element relation."""

    classes: tuple[tuple[int, ...], ...]
    loop_class: tuple[int, ...] | None


def parallel_classes(
    greedoid: Greedoid, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> ParallelClasses:
    """Partition elements into parallel classes; loops form one class.

    Elements e and f are parallel when rank(A+e) = rank(A+f) = rank(A+e+f)
    for every subset A, which is decided here from the full rank table; the
    loops, the elements in no feasible set, are read off the same table as
    the elements whose addition never raises the rank.
    """
    import numpy as np

    n = greedoid.size
    ranks = subset_ranks(greedoid, max_elements)
    parent = list(range(n))
    for e, f, view in _pair_views(ranks):
        both = view[:, 1, :, 1]
        if np.array_equal(view[:, 0, :, 1], both) and np.array_equal(view[:, 1, :, 0], both):
            parent[find(parent, e)] = find(parent, f)

    groups: dict[int, list[int]] = {}
    for e in range(n):
        groups.setdefault(find(parent, e), []).append(e)
    classes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    halves = (ranks.reshape(-1, 2, 1 << e) for e in range(n))
    loops = tuple(e for e, half in enumerate(halves) if np.array_equal(half[:, 0], half[:, 1]))
    return ParallelClasses(classes=classes, loop_class=loops or None)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_WITNESS_CAP = 20


def verify_family_axioms(size: int, feasible_sets: Iterable[int]) -> AxiomReport:
    """Check the two feasible-family axioms on an explicit set family.

    Reports the empty-set axiom and, for every pair of feasible sets of
    different sizes, the existence of a single-element feasible extension of
    the smaller inside the larger (with witnesses when it fails), stopping at
    ``_WITNESS_CAP`` violations.  More than ``_MAX_WORK`` such pairs are
    refused before the first is checked.
    """
    family = set(feasible_sets)
    by_size: dict[int, list[int]] = {}
    for f in family:
        by_size.setdefault(f.bit_count(), []).append(f)
    counts = [len(sets) for sets in by_size.values()]  # pairs of sets of different sizes, checked below
    _check_work(size, [((sum(counts) ** 2 - sum(c * c for c in counts)) // 2, "pairs of feasible sets")])
    sizes = sorted(by_size)

    def violations():
        if 0 not in family:
            yield AxiomViolation("G1", (), "empty set is not feasible")
        for i, big_size in enumerate(sizes):
            for small_size in sizes[:i]:
                for big in by_size[big_size]:
                    for small in by_size[small_size]:
                        extra = big & ~small
                        while extra:
                            bit = extra & -extra
                            if (small | bit) in family:
                                break
                            extra ^= bit
                        else:  # no element of the larger set extends the smaller
                            yield AxiomViolation(
                                "G2",
                                (elements_of(big), elements_of(small)),
                                "no single-element feasible extension of the smaller set inside the larger",
                            )

    return AxiomReport(tuple(islice(violations(), _WITNESS_CAP)))


def verify_rank_axioms(size: int, rank_table: np.ndarray) -> AxiomReport:
    """Check the three rank-function axioms on an explicit rank table.

    The table is indexed by bitmask and must cover every subset of the ground
    set; it is read in place, through views.  Monotonicity is verified on
    covering pairs (A, A+e), which implies it for all inclusions.  Checking
    stops at ``_WITNESS_CAP`` violations.
    """
    import numpy as np

    table = np.asarray(rank_table)
    if size < 0:
        raise PreconditionError("ground set size must be non-negative")
    if table.size != 1 << size:
        raise PreconditionError(f"a rank table on a ground set of size {size} has 2^{size} entries, not {table.size}")
    table = table.reshape(1 << size)

    def violations():
        for mask in np.flatnonzero((table < 0) | (table > _popcounts(size))).tolist():
            yield AxiomViolation("GR1", (elements_of(mask),), f"rank {int(table[mask])} outside [0, |A|]")
        for e in range(size):
            half = table.reshape(-1, 2, 1 << e)
            high, low = np.nonzero(half[:, 1] < half[:, 0])
            for mask in (high << e + 1 | low).tolist():
                yield AxiomViolation("GR2", (elements_of(mask), e), "rank decreases when adding an element")
        for e, f, view in _pair_views(table):
            base = view[:, 0, :, 0]
            raised = (view[:, 0, :, 1] == base) & (view[:, 1, :, 0] == base) & (view[:, 1, :, 1] != base)
            high, mid, low = np.nonzero(raised)
            for mask in (high << f + 1 | mid << e + 1 | low).tolist():
                yield AxiomViolation(
                    "GR3", (elements_of(mask), e, f), "two rank-preserving elements raise the rank together"
                )

    return AxiomReport(tuple(islice(violations(), _WITNESS_CAP)))
