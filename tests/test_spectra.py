"""Closed-form determinants, factored spectra, the power-iteration radius,
and the complex singularity probe."""
import itertools
import math
import random
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import triblock as tb
from triblock import BlockKind, Partition
from triblock.errors import (
    BlockDetUnavailable,
    BlockSpectrumUnavailable,
    DeterminantOutOfRange,
    DimensionMismatch,
    DimensionTooLarge,
    NegativeEntry,
    NoConvergence,
    NotBlocked,
    NotDiagonal,
    OracleOutOfRange,
    OrderTooSmall,
    RadiusOutOfRange,
    ThirdTypeUnsupported,
)

from _gen import (
    UNDERFLOWING,
    _power_iteration,
    brute_finest_refinement,
    loop_block_walk,
    loop_finest_refinement,
    loop_singularity_oracle,
    rand_blocked,
    rand_hypergraph,
    rand_irreducible_nonneg,
    rand_nested,
    rand_permutation,
    rand_tensor,
    zigzag,
)
from triblock import core, spectra

UTB1 = BlockKind.UTB1
LTB1 = BlockKind.LTB1
UTB3 = BlockKind.UTB3
EPS = np.finfo(float).eps


def upper_triangular(diag, extras):
    """Dim = len(diag), order 3, diagonal values plus allowed upper entries."""
    n = len(diag)
    entries = [((i,) * 3, float(d)) for i, d in enumerate(diag, 1)]
    entries += [(idx, float(v)) for idx, v in extras]
    return tb.new_tensor(3, n, entries)


# the smallest tensor with no supported two-block refinement: a_{212}
# rules out the upper kinds, a_{112} rules out the lower ones
UNSPLITTABLE = [((1, 1, 1), 1.0), ((2, 2, 2), 1.0),
                ((2, 1, 2), 1.0), ((1, 1, 2), 1.0)]


class TestDetDim1:
    def test_single_entry(self):
        assert tb.det_dim1(tb.new_tensor(3, 1, [((1, 1, 1), 5.0)])) == 5.0
        assert tb.det_dim1(tb.new_tensor(3, 1, [])) == 0.0
        assert tb.det_dim1(tb.unit_tensor(3, 1)) == 1.0

    def test_needs_dim_one(self):
        with pytest.raises(DimensionMismatch):
            tb.det_dim1(tb.unit_tensor(3, 2))

    def test_order_one_is_refused_as_by_the_other_determinants(self):
        a = tb.new_tensor(1, 1, [((1,), 5.0)])
        for det in (tb.det_dim1, tb.det_diagonal):
            with pytest.raises(OrderTooSmall, match="determinants need order >= 2"):
                det(a)
        with pytest.raises(DimensionMismatch):
            tb.det_dim1(tb.new_tensor(1, 2, [((1,), 5.0)]))


class TestDetDiagonal:
    def test_two_by_two(self):
        assert tb.det_diagonal(tb.diagonal_tensor(3, [2.0, 3.0])) == 36.0

    def test_unit_tensor(self):
        assert tb.det_diagonal(tb.unit_tensor(3, 4)) == 1.0

    def test_zero_diagonal_entry(self):
        assert tb.det_diagonal(tb.diagonal_tensor(3, [2.0, 0.0, 5.0])) == 0.0

    def test_three_by_three(self):
        got = tb.det_diagonal(tb.diagonal_tensor(3, [2.0, 3.0, 5.0]))
        assert got == float(2 ** 4 * 3 ** 4 * 5 ** 4)

    def test_exact_beyond_double_mantissa(self):
        # 3^80 is far past 2^53; the integer path rounds exactly once
        got = tb.det_diagonal(tb.diagonal_tensor(3, [3.0] * 5))
        assert got == float(3 ** 80)

    def test_rejects_off_diagonal(self, ex31):
        with pytest.raises(NotDiagonal):
            tb.det_diagonal(ex31)

    def test_rejects_order_one(self):
        with pytest.raises(OrderTooSmall):
            tb.det_diagonal(tb.new_tensor(1, 2, [((1,), 2.0), ((2,), 3.0)]))


def unit_upper_matrix(n: int) -> tb.Tensor:
    return tb.new_tensor(2, n, [((i, j), 1.0) for i in range(1, n + 1)
                                for j in range(i, n + 1)])


class TestDetBlocked:
    def test_triangular_two_by_two(self):
        a = upper_triangular([2, 3], [((1, 2, 2), 7.0)])
        assert tb.det_blocked(a, Partition((1, 1)), UTB1) == 36.0

    def test_lower_triangular_mirror(self):
        a = tb.new_tensor(3, 2, [((1, 1, 1), 2.0), ((2, 2, 2), 3.0),
                                 ((2, 1, 1), 7.0)])
        assert tb.det_blocked(a, Partition((1, 1)), LTB1) == 36.0

    def test_constant_blocks_closed_form(self):
        # one block of size k=1 holding a=2, one of size n-k=2 holding b=3:
        # a^(k(m-1)^(n-1)) b^((n-k)(m-1)^(n-1)) = 2^4 3^8
        a = upper_triangular([2, 3, 3], [((1, 2, 3), 1.0), ((1, 3, 3), -2.0)])
        got = tb.det_blocked(a, Partition((1, 2)), UTB1)
        assert got == float(2 ** 4 * 3 ** 8) == 104976.0

    def test_block_exponents(self):
        # exponent of block i is (m-1)^(n - n_i); a constant diagonal
        # block of size q contributes its value to the q(m-1)^(q-1)
        for k, n in [(1, 3), (2, 4)]:
            diag = [2.0] * k + [3.0] * (n - k)
            a = tb.diagonal_tensor(3, diag)
            got = tb.det_blocked(a, Partition((k, n - k)), UTB1)
            d1 = 2 ** (k * 2 ** (k - 1))
            d2 = 3 ** ((n - k) * 2 ** (n - k - 1))
            assert got == float(d1 ** (2 ** (n - k)) * d2 ** (2 ** k))

    def test_matches_fully_refined_form(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 5)
            diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            extras = []
            for i in range(1, n + 1):
                for feet in [(i, n), (n, i)] if i < n else []:
                    if rng.random() < 0.5:
                        extras.append(((i,) + feet, rng.randint(1, 3)))
            a = upper_triangular(diag, extras)
            parts = Partition((1,) * n)
            want = 1
            for d in diag:
                want *= d ** (2 ** (n - 1))
            assert tb.det_blocked(a, parts, UTB1) == float(want)
            assert tb.det_diagonal(tb.diagonal_tensor(3, diag)) == float(want)

    def test_dimension_fourteen_unit_upper(self):
        # the recursion refines the 13-block without enumerating 2^12 partitions
        a = unit_upper_matrix(14)
        assert tb.det_blocked(a, Partition((1, 13)), UTB1) == 1.0

    def test_dimension_thousand_is_fast(self):
        # order 3, upper triangular over singletons: a unit diagonal and 3n entries whose
        # trailing indices lie at or after the row; the 999-block refines to singletons
        rng, n = random.Random(1000), 1000
        entries = {(i, i, i): 1.0 for i in range(1, n + 1)}
        while len(entries) < 4 * n:
            row = rng.randint(1, n - 1)
            entries[(row, rng.randint(row, n), rng.randint(row + 1, n))] = 1.0
        a = tb.Tensor(3, n, entries)
        start = time.perf_counter()
        assert tb.det_blocked(a, Partition((1, n - 1)), UTB1) == 1.0
        assert time.perf_counter() - start < 1.0

    def test_third_kind_is_refused(self, ex31):
        with pytest.raises(ThirdTypeUnsupported):
            tb.det_blocked(ex31, Partition((1, 1)), UTB3)

    def test_not_blocked_is_refused(self):
        ones = tb.new_tensor(2, 2, [((i, j), 1.0) for i in (1, 2) for j in (1, 2)])
        with pytest.raises(NotBlocked):
            tb.det_blocked(ones, Partition((1, 1)), UTB1)

    def test_unrefinable_block(self):
        entries = list(UNSPLITTABLE) + [((3, 3, 3), 4.0), ((4, 4, 4), 5.0)]
        a = tb.new_tensor(3, 4, entries)
        p = Partition((2, 2))
        assert tb.is_blocked(a, p, UTB1)
        with pytest.raises(BlockDetUnavailable):
            tb.det_blocked(a, p, UTB1)

    def test_product_of_diagonal_block_tensors(self):
        # blocked factors with diagonal diagonal-blocks multiply to a
        # blocked tensor whose determinant is exactly the blockwise value
        rng = random.Random(22)
        for _ in range(10):
            n, p = 4, Partition((2, 2))
            d = [rng.randint(1, 3) for _ in range(n)]
            e = [rng.randint(1, 3) for _ in range(n)]
            ea = [((i,) * 3, float(v)) for i, v in enumerate(d, 1)]
            eb = [((i,) * 2, float(v)) for i, v in enumerate(e, 1)]
            for i in (1, 2):
                if rng.random() < 0.7:
                    ea.append(((i, rng.randint(1, 2), rng.randint(3, 4)),
                               float(rng.randint(1, 3))))
                if rng.random() < 0.7:
                    eb.append(((i, rng.randint(3, 4)), float(rng.randint(1, 3))))
            a = tb.new_tensor(3, n, ea)
            b = tb.new_tensor(2, n, eb)
            c = tb.general_product(a, b)
            want = 1
            for di, ei in zip(d, e):
                want *= (di * ei ** 2) ** (2 ** (n - 1))
            assert tb.det_blocked(c, p, UTB1) == float(want)

    def test_non_dyadic_diagonal_rounds_once_per_leaf(self):
        # the exact rational power, rounded once
        rng = random.Random(23)
        kinds = [BlockKind.UTB1, BlockKind.UTB2, BlockKind.LTB1, BlockKind.LTB2]
        zeros = 0
        for trial in range(120):
            m = (2, 3, 4)[trial % 3]
            n = rng.randint(2, 8 if m < 4 else 5)
            kind = kinds[trial % 4]
            diag = [rng.choice([1.1, -1.3, 0.7, -0.9, 1.7]) for _ in range(n)]
            if trial % 10 == 0:
                diag[rng.randrange(n)] = 0.0
            off = rand_blocked(rng, (1,) * n, kind, m, density=0.2)
            a = tb.new_tensor(m, n, [(idx, v) for idx, v in off.entries.items()
                                     if len(set(idx)) > 1]
                              + [((i,) * m, d) for i, d in enumerate(diag, 1)])
            cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
            p = Partition(tuple(b - c for c, b in zip([0] + cuts, cuts + [n])))
            if not tb.is_blocked(a, p, kind):
                p = Partition((1,) * n)
            got = tb.det_blocked(a, p, kind)
            want = math.prod(Fraction(d) ** (m - 1) ** (n - 1) for d in diag)
            if want == 0:
                zeros += 1
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, trial
            else:
                assert got == float(want), trial
        assert zeros == 12


class TestDeterminantOutOfRange:
    @pytest.mark.parametrize("order, diag, sign, log_abs", [
        (3, [2.0] * 10, 1, 5120 * math.log(2)),
        (3, [0.5] * 10, 1, -5120 * math.log(2)),
        (2, [-1e300, 1e300, 1e300], -1, 3 * math.log(1e300)),
        (3, [2.0] + [1.0] * 1024, 1, math.inf),
    ])
    def test_beyond_a_double(self, order, diag, sign, log_abs):
        # 2^5120 overflows a double and 0.5^5120 underflows it, but neither is zero;
        # 2^(2^1024) is beyond a double even in its log
        a = tb.diagonal_tensor(order, diag)
        for det in (lambda: tb.det_diagonal(a),
                    lambda: tb.det_blocked(a, Partition((1, len(diag) - 1)), BlockKind.DIAG)):
            with pytest.raises(DeterminantOutOfRange) as info:
                det()
            assert info.value.sign == sign
            assert info.value.log_abs == pytest.approx(log_abs, rel=1e-14)

    @pytest.mark.parametrize("order, diag", [
        (2, [1e200, 1e200, 1e-300]),
        (2, [1e-200, 1e-200, 1e100]),
        (2, [1e-160, 1e-160, 1e300]),  # a subnormal partial product
        (3, [1.0] * 1025),  # exponent 2^1024
        (3, [-1.0, 2.0, 0.5] + [1.0] * 1022),
    ])
    def test_in_range_past_the_double_product(self, order, diag):
        # a power or partial product leaves the normal doubles but the determinant does not;
        # every leaf has the exponent (m-1)^(n-1), so the determinant is the diagonal's product to it
        want = float(math.prod(Fraction(d) for d in diag) ** (order - 1) ** (len(diag) - 1))
        assert tb.det_diagonal(tb.diagonal_tensor(order, diag)) == want

    def test_exact_product_is_bounded(self):
        # the exact power would have about 10^9 bits; the powering keeps 192 of them
        diag = [1.001] * 10 + [1 / 1.001] * 10
        start = time.perf_counter()
        got = tb.det_diagonal(tb.diagonal_tensor(3, diag))
        assert time.perf_counter() - start < 2.0
        base = math.prod(Fraction(d) for d in diag)
        assert got == pytest.approx(math.exp(2 ** 19 * math.log1p(base - 1)), rel=1e-10)


def rand_leaf_set(rng: random.Random) -> tuple[list[float], int]:
    """Nonzero leaf entries of one walk (small integers, 1.1, -1.3, magnitudes up to 1e±300)
    and their shared exponent (m-1)^(n-1), for orders 2-4 and dims 1-7."""
    m, n = rng.randint(2, 4), rng.randint(1, 7)

    def value() -> float:
        r = rng.random()
        if r < 0.4:
            return float(rng.choice([-3, -2, -1, 1, 2, 3, 5, 7]))
        if r < 0.7:
            return rng.choice([1.1, -1.3])
        return rng.choice([-1, 1]) * 10.0 ** rng.uniform(-300, 300)

    return [value() for _ in range(n)], (m - 1) ** (n - 1)


MAX = 2.0 ** 1023 * (2 - 2.0 ** -52)  # the largest double
TINY = 2.0 ** -1074  # the smallest subnormal
MIDPOINT = [(2 ** 27 - 1) * 2.0 ** 485, (2 ** 27 + 1) * 2.0 ** 485]  # product 2^1024 - 2^970


class TestDetRounding:
    def test_correctly_rounded(self):
        # the exact P^e rounded once, or refused where that rounds to 0 or past a double
        rng = random.Random(16)
        refused = 0
        for trial in range(4000):
            values, e = rand_leaf_set(rng)
            try:
                want = float(math.prod(Fraction(v) for v in values) ** e)
            except OverflowError:
                want = math.inf
            if 0 < abs(want) < math.inf:
                assert spectra._det(values, e) == want, (trial, values, e)
            else:
                refused += 1
                with pytest.raises(DeterminantOutOfRange):
                    spectra._det(values, e)
        assert 500 < refused < 3500

    def test_sticky_bit_breaks_a_tie(self, monkeypatch):
        # 612413 * 60242823302933 = (2^53 + 1) * 2^12 + 1: kept to 60 bits, the product is the
        # midpoint between 1 and 1 + 2^-52, and only the dropped 1 says that it lies above it
        monkeypatch.setattr(spectra, "_PRECISION", 60)
        assert spectra._det([612413.0, 60242823302933.0 * 2.0 ** -65], 1) == 1 + 2.0 ** -52

    @pytest.mark.parametrize("order, diag, want", [
        (2, [MAX], MAX),
        (2, [MAX / 4, 4.0], MAX),
        (2, MIDPOINT + [1 - 2.0 ** -53], MAX),  # just below the midpoint to 2^1024
        (2, [TINY], TINY),
        (2, [2.0 ** -500, 2.0 ** -574], TINY),
        (3, [2.0 ** -537, 1.0], TINY),  # (2^-537)^2
        (2, [TINY, 0.5 + 2.0 ** -53], TINY),  # just above half the smallest subnormal
        (2, [TINY, 0.75], TINY),
        (2, [3 * TINY, 0.5], 2 * TINY),  # a tie goes to the even neighbour
    ])
    def test_edges_of_the_range(self, order, diag, want):
        assert tb.det_diagonal(tb.diagonal_tensor(order, diag)) == want

    @pytest.mark.parametrize("order, diag", [
        (2, MIDPOINT),  # the tie between the largest double and 2^1024 goes to 2^1024
        (2, MIDPOINT + [1 + 2.0 ** -52]),
        (2, [TINY, 0.5]),  # half the smallest subnormal ties to 0
        (2, [TINY, 0.5 - 2.0 ** -54]),
        (3, [2.0 ** -538, 1.0]),  # (2^-538)^2 = 2^-1076
    ])
    def test_rounds_out_of_range(self, order, diag):
        with pytest.raises(DeterminantOutOfRange) as info:
            tb.det_diagonal(tb.diagonal_tensor(order, diag))
        p = math.prod(Fraction(d) for d in diag)
        want = (order - 1) ** (len(diag) - 1) * (math.log(p.numerator) - math.log(p.denominator))
        assert info.value.log_abs == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("diag", [[1.0] * 1025, [2.0] + [1.0] * 1024])
    def test_exponent_two_to_the_1024_is_cheap(self, diag):
        # the order-3 dim-1025 diagonal has exponent 2^1024; its power takes 1024 squarings
        a = tb.diagonal_tensor(3, diag)
        start = time.perf_counter()
        try:
            tb.det_diagonal(a)
        except DeterminantOutOfRange:
            pass
        assert time.perf_counter() - start < 0.5


class TestSpectrumBlocked:
    def test_triangular_two_by_two(self):
        a = upper_triangular([2, 3], [((1, 2, 2), 7.0)])
        spec = tb.spectrum_blocked(a, Partition((1, 1)), UTB1)
        assert spec.total_degree == 4
        assert spec.as_multiset() == {2.0: 2, 3.0: 2}

    def test_unit_tensor(self):
        spec = tb.spectrum_blocked(tb.unit_tensor(3, 3), Partition((1, 1, 1)),
                                   BlockKind.DIAG)
        assert spec.as_multiset() == {1.0: 12}
        assert spec.total_degree == 3 * 2 ** 2

    def test_diagonal_three_values(self):
        spec = tb.spectrum_blocked(tb.diagonal_tensor(3, [2.0, 3.0, 5.0]),
                                   Partition((1, 1, 1)), UTB1)
        assert spec.as_multiset() == {2.0: 4, 3.0: 4, 5.0: 4}
        for item in spec.items:
            assert item.exponent == 4

    def test_coarse_partition_refines_to_same_multiset(self):
        a = tb.diagonal_tensor(3, [2.0, 3.0, 5.0, 7.0])
        fine = tb.spectrum_blocked(a, Partition((1, 1, 1, 1)), UTB1)
        coarse = tb.spectrum_blocked(a, Partition((2, 2)), UTB1)
        assert fine.as_multiset() == coarse.as_multiset()
        assert fine.total_degree == coarse.total_degree == 4 * 2 ** 3

    def test_eigenvalues_multiply_to_determinant(self):
        a = upper_triangular([2, 3, 3], [((1, 2, 3), 1.0)])
        p = Partition((1, 2))
        spec = tb.spectrum_blocked(a, p, UTB1)
        prod = 1
        for ev, mult in spec.as_multiset().items():
            prod *= int(ev) ** mult
        assert float(prod) == tb.det_blocked(a, p, UTB1)

    def test_dimension_fourteen_unit_upper(self):
        spec = tb.spectrum_blocked(unit_upper_matrix(14), Partition((1, 13)), UTB1)
        assert spec.total_degree == 14
        assert spec.as_multiset() == {1.0: 14}

    def test_third_kind_is_refused(self, ex31):
        with pytest.raises(ThirdTypeUnsupported):
            tb.spectrum_blocked(ex31, Partition((1, 1)), UTB3)

    def test_unrefinable_block(self):
        a = tb.new_tensor(3, 3, list(UNSPLITTABLE) + [((3, 3, 3), 4.0)])
        p = Partition((2, 1))
        assert tb.is_blocked(a, p, UTB1)
        with pytest.raises(BlockSpectrumUnavailable):
            tb.spectrum_blocked(a, p, UTB1)


def walk_outcome(call, a, p, kind):
    """The value or (error class, message) of one call."""
    try:
        return call(a, p, kind)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


def check_walk(a, p, kind, trial):
    """det_blocked and spectrum_blocked against the plain recursion; True if it refuses."""
    want = loop_block_walk(a, p)
    det = walk_outcome(tb.det_blocked, a, p, kind)
    spec = walk_outcome(tb.spectrum_blocked, a, p, kind)
    e = (a.order - 1) ** (a.dim - 1)
    if isinstance(want, int):
        block = f"a dim-{want} diagonal block"
        assert det == (BlockDetUnavailable, f"{block} admits no supported refinement"), trial
        assert spec == (BlockSpectrumUnavailable,
                        f"{block} cannot be reduced to dimension 1"), trial
        return True
    assert spec == tb.SpectrumFactored(tuple(tb.SpectrumItem((v,), e) for v in want),
                                       a.dim * e), trial
    exact = math.prod(Fraction(v) for v in want) ** e
    try:
        rounded = float(exact)  # 0.0 below the double range
    except OverflowError:
        rounded = 0.0
    if exact == 0:
        assert det == 0.0 and math.copysign(1.0, det) == 1.0, trial
    elif rounded:
        assert det == rounded, trial
    else:
        assert det[0] is DeterminantOutOfRange, trial
    return False


class TestBlockWalk:
    def test_deeper_than_the_recursion_limit(self):
        n = sys.getrecursionlimit() + 200
        a, p = zigzag(n), Partition((1, n - 1))
        assert tb.det_blocked(a, p, UTB1) == 1.0
        spec = tb.spectrum_blocked(a, p, UTB1)
        assert spec.items == (tb.SpectrumItem((1.0,), 1),) * n and spec.total_degree == n

    def test_descendant_fails_before_a_later_sibling(self):
        # (1, 3) refines to (1, 2), whose dim-2 cycle fails before the dim-3 cycle after it
        diag = [((i, i, i), 1.0) for i in range(1, 7)]
        cycles = [((2, 3, 3), 1.0), ((3, 2, 2), 1.0),
                  ((4, 5, 5), 1.0), ((5, 6, 6), 1.0), ((6, 4, 4), 1.0)]
        a = tb.new_tensor(3, 6, diag + cycles + [((1, 2, 2), 2.0), ((1, 5, 6), 3.0)])
        p = Partition((3, 3))
        assert loop_block_walk(a, p) == 2
        with pytest.raises(BlockDetUnavailable,
                           match="^a dim-2 diagonal block admits no supported refinement$"):
            tb.det_blocked(a, p, UTB1)
        with pytest.raises(BlockSpectrumUnavailable,
                           match="^a dim-2 diagonal block cannot be reduced to dimension 1$"):
            tb.spectrum_blocked(a, p, UTB1)

    def test_refines_exactly_when_a_two_part_first_type_cut_exists(self):
        # the walk's first fact: some supported refinement exists (the exhaustive search finds
        # one) exactly when a two-part cut carries utb1 or ltb1
        rng, kinds, refinable = random.Random(88), [UTB1, BlockKind.UTB2, LTB1, BlockKind.LTB2], 0
        for trial in range(160):
            m = (2, 3, 3, 4)[trial % 4]
            n = rng.randint(2, 8 if m < 4 else 5)
            if trial % 3:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
                parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
                a = rand_blocked(rng, parts, kinds[trial % 4], m, density=0.3)
            else:
                a = rand_tensor(rng, n, m, density=rng.choice([0.03, 0.1, 0.3]))
            two_part = any(tb.is_blocked(a, Partition((c, n - c)), kind)
                           for c in range(1, n) for kind in (UTB1, LTB1))
            assert (brute_finest_refinement(a) is not None) == two_part, trial
            refinable += two_part
        assert 20 <= refinable <= 140, refinable

    def test_matches_the_plain_recursion(self):
        rng, refused, nested, kinds = random.Random(34), 0, 0, list(spectra._SUPPORTED)
        for trial in range(240):
            m = 2 + trial % 2
            a = rand_nested(rng, m, rng.randint(2, 9 if m == 2 else 7))
            kind = rng.choice(kinds)
            found = tb.blocked_partitions(a, kind)
            p = rng.choice(found) if found else Partition((a.dim,))
            if check_walk(a, p, kind if found else BlockKind.DIAG, trial):
                refused += 1
                nested += loop_block_walk(a, p) not in p.parts  # no top-level block has that dim
        assert 40 <= refused <= 200 and nested >= 10, (refused, nested)


class TestFinestRefinement:
    def test_matches_loop_reference_past_brute_force(self):
        # dims 13-40, past the partition enumeration, under one block: up to 3n random index
        # tuples whose trailing indices mostly lie at or after the row (upper), at or before it
        # (lower), or anywhere (unbiased); the walk reaches the leaves or the refusal of the
        # reference's recursion over its finest refinements
        rng = random.Random(89)
        winners, parts, refused = {}, set(), 0
        for trial in range(60):
            m, n, pattern = rng.randint(2, 4), rng.randint(13, 40), trial % 3
            entries = {}
            for _ in range(rng.randint(0, 3 * n)):
                row = rng.randint(1, n)
                lo, hi = ((row, n), (1, row), (1, n))[pattern if rng.random() < 0.9 else 2]
                entries[(row,) + tuple(rng.randint(lo, hi) for _ in range(m - 1))] = 1.0
            a = tb.Tensor(m, n, entries)
            refused += check_walk(a, Partition((n,)), BlockKind.DIAG, trial)
            want = loop_finest_refinement(a)
            if want is not None:
                winners[want[1]] = winners.get(want[1], 0) + 1
                parts.add(want[0].r)
        assert 10 <= refused <= 50, refused
        assert set(winners) == {UTB1, BlockKind.UTB2, LTB1, BlockKind.LTB2}, winners
        assert len(parts) > 10, parts  # refinements of many sizes, not only all singletons


class TestSpectralRadius:
    def test_all_ones(self):
        a = tb.new_tensor(3, 2, [((i, j, k), 1.0)
                                 for i in (1, 2) for j in (1, 2) for k in (1, 2)])
        res = tb.spectral_radius(a)
        assert res.rho == pytest.approx(4.0, abs=1e-9)
        assert res.residual < 1e-8
        assert res.eigvec is not None and np.all(res.eigvec > 0)

    def test_diagonal_takes_max(self):
        res = tb.spectral_radius(tb.diagonal_tensor(3, [2.0, 5.0]))
        assert res.rho == 5.0
        assert res.eigvec is None

    def test_two_ones_blocks(self):
        entries = [((i, j, k), 1.0)
                   for i in (1, 2) for j in (1, 2) for k in (1, 2)]
        entries += [((i, j, k), 1.0)
                    for i in (3, 4, 5) for j in (3, 4, 5) for k in (3, 4, 5)]
        a = tb.new_tensor(3, 5, entries)
        res = tb.spectral_radius(a)
        assert res.rho == pytest.approx(9.0, abs=1e-8)
        assert res.eigvec is None

    def test_zero_tensor(self):
        res = tb.spectral_radius(tb.new_tensor(3, 3, []))
        assert res.rho == 0.0 and res.iterations == 0 and res.residual == 0.0
        assert np.array_equal(res.eigvec, np.ones(3))

    def test_dim_one(self):
        res = tb.spectral_radius(tb.new_tensor(4, 1, [((1, 1, 1, 1), 2.5)]))
        assert res.rho == 2.5

    def test_matrix_case_matches_numpy(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(2, 5)
            mat = rand_irreducible_nonneg(rng, n)
            res = tb.spectral_radius(tb.tensor_from_matrix(mat))
            want = float(np.max(np.abs(np.linalg.eigvals(mat))))
            assert res.rho == pytest.approx(want, abs=1e-8)
            assert np.all(res.eigvec > 0)

    def test_eigen_equation_holds(self):
        rng = random.Random(24)
        entries = [(idx, rng.uniform(0.1, 2.0))
                   for idx in np.ndindex(3, 3, 3)]
        a = tb.new_tensor(3, 3, [(tuple(int(v) + 1 for v in idx), val)
                                 for idx, val in entries])
        res = tb.spectral_radius(a)
        x = res.eigvec
        assert np.allclose(tb.apply(a, list(x)), res.rho * x ** 2, atol=1e-8)

    def test_permutation_invariance(self):
        rng = random.Random(25)
        entries = [(tuple(int(v) + 1 for v in idx), rng.uniform(0.1, 2.0))
                   for idx in np.ndindex(3, 3, 3)]
        a = tb.new_tensor(3, 3, entries)
        sigma = tb.Permutation((3, 1, 2))
        r1 = tb.spectral_radius(a)
        r2 = tb.spectral_radius(tb.permute_similar(a, sigma))
        assert r1.rho == pytest.approx(r2.rho, abs=2e-10)

    def test_monotone_in_entries(self):
        rng = random.Random(26)
        for _ in range(5):
            base = [(tuple(int(v) + 1 for v in idx), rng.uniform(0.0, 1.0))
                    for idx in np.ndindex(3, 3, 3) if rng.random() < 0.5]
            a = tb.new_tensor(3, 3, base)
            grown = dict(a.entries)
            idx = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            grown[idx] = grown.get(idx, 0.0) + rng.uniform(0.1, 1.0)
            b = tb.new_tensor(3, 3, list(grown.items()))
            assert tb.spectral_radius(b).rho >= tb.spectral_radius(a).rho - 1e-8

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            tb.spectral_radius(tb.new_tensor(2, 2, [((1, 2), -1.0)]))

    def test_bad_controls_rejected(self):
        a = tb.unit_tensor(3, 2)
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(ValueError, match="^tol must be positive$"):
                tb.spectral_radius(a, tol=tol)
        with pytest.raises(ValueError):
            tb.spectral_radius(a, max_iter=0)
        for max_iter in (2.5, 100.0, True, "100", None):
            with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
                tb.spectral_radius(a, max_iter=max_iter)

    def test_no_convergence_carries_bounds(self):
        a = tb.tensor_from_matrix(np.array([[0.0, 3.0], [1.0, 0.0]]))
        with pytest.raises(NoConvergence) as err:
            tb.spectral_radius(a, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.lower <= math.sqrt(3.0) <= err.value.upper


class TestHypergraphRadii:
    def test_each_component_as_spectral_radius_gives_it(self):
        rng = random.Random(435)
        for trial in range(40):
            groups = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            graph = rand_hypergraph(rng, rng.randint(2, 4), groups,
                                    edges_per_group=rng.randint(1, 6))
            adjacency = tb.adjacency_tensor(graph)
            want = [tb.spectral_radius(tb.principal_subtensor(adjacency, c)).rho
                    for c in tb.connected_components(graph)]
            assert [rho.hex() for rho in tb.hypergraph_radii(graph)] == [
                rho.hex() for rho in want]

    def test_bad_controls_rejected(self):
        graph = tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3]])
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(ValueError, match="^tol must be positive$"):
                tb.hypergraph_radii(graph, tol=tol)
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="^max_iter must be positive$"):
                tb.hypergraph_radii(graph, max_iter=max_iter)
        for max_iter in (2.5, 100.0, True):
            with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
                tb.hypergraph_radii(graph, max_iter=max_iter)


CYCLE_WEIGHTS = (1, 2, 3, 1, 5, 2)
CYCLE_RHO = 60 ** (1 / 6)  # a[i, i+1, i+1] = w_i: rho^6 is the product of the weights
SCALES = (1e-12, 1e-9, 1e-6, 1e-3, 0.37, 1e3, 1e6, 1e9, 1e12)


def cycle6(scale):
    """The order-3 weighted 6-cycle, scaled."""
    return tb.Tensor(3, 6, {(i, i % 6 + 1, i % 6 + 1): scale * w
                            for i, w in enumerate(CYCLE_WEIGHTS, start=1)})


def scaled(t, c):
    return tb.Tensor(t.order, t.dim, {idx: c * v for idx, v in t.entries.items()})


def nonneg_ensemble(seed, trials):
    """Nonnegative tensors of orders 2-4 and dims 2-8: odd trials carry a cycle through
    every index, so they are weakly irreducible; even ones are first-kind blocked."""
    rng = random.Random(seed)
    for trial in range(trials):
        m = rng.randint(2, 4)
        n = rng.randint(2, 8 if m < 4 else 5)
        if trial % 2:
            entries = {(i,) + (i % n + 1,) * (m - 1): rng.uniform(0.5, 2.0)
                       for i in range(1, n + 1)}
            for idx in itertools.product(range(1, n + 1), repeat=m):
                if rng.random() < 0.2:
                    entries[idx] = entries.get(idx, 0.0) + rng.uniform(0.1, 1.5)
            yield tb.Tensor(m, n, entries)
        else:
            cut = rng.randint(1, n - 1)
            yield rand_blocked(rng, (cut, n - cut), UTB1, m, density=0.4,
                               values=[0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


class TestRadiusLaws:
    def test_scale_law(self):
        kinds = set()
        for t in nonneg_ensemble(27, 30):
            kinds.add(tb.is_weakly_irreducible(t))
            base = tb.spectral_radius(t).rho
            for c in SCALES:
                assert tb.spectral_radius(scaled(t, c)).rho == pytest.approx(c * base, rel=1e-9)
        assert kinds == {True, False}

    def test_permutation_law(self):
        rng = random.Random(28)
        for t in nonneg_ensemble(29, 30):
            sigma = rand_permutation(rng, t.dim)
            assert tb.spectral_radius(tb.permute_similar(t, sigma)).rho == tb.spectral_radius(t).rho

    @pytest.mark.parametrize("scale", (1.0,) + SCALES)
    def test_weighted_six_cycle(self, scale):
        assert tb.spectral_radius(cycle6(scale)).rho == pytest.approx(scale * CYCLE_RHO, rel=1e-9)

    def test_no_convergence_bounds_in_input_scale(self):
        reference = None
        for c in (1.0, 1e-9, 1e9):
            with pytest.raises(NoConvergence) as err:
                tb.spectral_radius(cycle6(c), max_iter=5)
            lower, upper = err.value.lower, err.value.upper
            assert lower <= c * CYCLE_RHO <= upper
            reference = reference or (lower, upper)
            assert (lower / c, upper / c) == pytest.approx(reference, rel=1e-12)

    def test_row_sums_past_the_double_range(self):
        # [[a, a], [1, 0]] has rho = (a + sqrt(a^2 + 4a)) / 2; its first row sum 2a overflows
        a = 1e308
        t = tb.Tensor(2, 2, {(1, 1): a, (1, 2): a, (2, 1): 1.0})
        want = a / 2 * (1 + math.sqrt(1 + 4 / a))
        res = tb.spectral_radius(t)
        assert res.rho == pytest.approx(want, rel=1e-9) and res.residual <= 1e-9 * want
        with pytest.raises(NoConvergence) as err:
            tb.spectral_radius(t, max_iter=5)
        assert err.value.lower <= want <= err.value.upper < math.inf
        # the same matrix as a diagonal block beside a dim-1 block
        split = tb.Tensor(2, 3, {(1, 1): a, (1, 2): a, (2, 1): 1.0, (3, 3): 5.0, (3, 1): a})
        assert tb.spectral_radius(split).rho == pytest.approx(want, rel=1e-9)

    def test_large_finite_row_sums_keep_the_plain_iteration(self):
        # nnz * max * 2 passes the double range, the largest row sum (5e307) does not
        t = cycle6(1e307)
        got, want = tb.spectral_radius(t), _power_iteration(t, 1e-10, 10000)
        assert (got.rho, got.iterations, got.residual) == (want.rho, want.iterations, want.residual)
        assert np.array_equal(got.eigvec, want.eigvec)

    def test_underflowing_iterate_stops_with_its_last_bounds(self):
        # once an iterate underflows no bracket forms: the radius raises with the last
        # bounds that did, without a warning, instead of dividing 0 by 0 to max_iter
        t = tb.Tensor(3, 3, UNDERFLOWING)
        assert tb.is_weakly_irreducible(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence) as err:
                tb.spectral_radius(t)
            # the same block beside a dim-1 block that links into it runs in the batch
            split = tb.Tensor(3, 4, {**UNDERFLOWING, (4, 4, 4): 1.0, (4, 1, 1): 1.0})
            with pytest.raises(NoConvergence) as split_err:
                tb.spectral_radius(split)
        lower, upper, steps = err.value.lower, err.value.upper, err.value.iterations
        assert 0.0 <= lower <= upper < math.inf and 1 < steps < 1000
        assert str(split_err.value) == str(err.value)
        assert (split_err.value.lower, split_err.value.upper, split_err.value.iterations) == (
            lower, upper, steps)

    @pytest.mark.parametrize("order", [2, 3])
    def test_radius_past_the_double_range_is_refused(self, order):
        # every entry 1e308 in dim 2: rho = 2^(order-1) * 1e308
        t = tb.Tensor(order, 2, {idx: 1e308 for idx in itertools.product((1, 2), repeat=order)})
        with pytest.raises(RadiusOutOfRange):
            tb.spectral_radius(t)

    def test_one_exact_apply_for_the_residual(self, monkeypatch):
        calls = []

        def counted(rows, n, *terms):
            calls.append(n)
            return core._row_fsums(rows, n, *terms)

        monkeypatch.setattr(spectra, "_row_fsums", counted)
        t = cycle6(1e3)
        res = tb.spectral_radius(t)
        assert res.iterations > 100 and calls == [t.dim]
        want = np.max(np.abs(core.apply(t, res.eigvec) - res.rho * res.eigvec ** 2))
        assert res.residual == want

    def test_one_exact_apply_for_the_residual_of_a_dense_block(self, monkeypatch):
        # the twin of the 6-cycle above for a block whose steps go through its unfolding:
        # the residual is still apply's, not read off the unfolding
        calls, kron, unfolded = [], [], spectra._kron

        def counted(rows, n, *terms):
            calls.append(n)
            return core._row_fsums(rows, n, *terms)

        def traced(x, m):
            kron.append(len(x))
            return unfolded(x, m)

        monkeypatch.setattr(spectra, "_row_fsums", counted)
        monkeypatch.setattr(spectra, "_kron", traced)
        t = tb.Tensor.from_dense(np.random.default_rng(5).random((14, 14, 14)))
        assert t.nnz == 14 ** 3 and spectra._is_dense(14, 3, t.nnz)
        res = tb.spectral_radius(t)
        assert res.iterations > 1 and kron == [14] * res.iterations and calls == [14]
        want = np.max(np.abs(core.apply(t, res.eigvec) - res.rho * res.eigvec ** 2))
        assert res.residual == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSingularityOracle:
    def test_unit_tensor_floor(self):
        # min of ||(x1^2, x2^2)|| on the complex unit sphere is 1/sqrt(2)
        report = tb.singularity_oracle(tb.unit_tensor(3, 2))
        assert report.min_norm == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert report.restarts_used == 64

    def test_zero_diagonal_is_singular(self):
        report = tb.singularity_oracle(tb.diagonal_tensor(3, [1.0, 0.0]),
                                       restarts=16)
        assert report.min_norm < 1e-6
        assert abs(report.witness[0]) < 1e-3
        assert abs(abs(report.witness[1]) - 1.0) < 1e-3

    def test_nonsingular_stays_bounded_away(self):
        report = tb.singularity_oracle(tb.diagonal_tensor(3, [2.0, 3.0]),
                                       restarts=16)
        assert report.min_norm > 0.5

    def test_witness_is_unit(self, ex31):
        report = tb.singularity_oracle(ex31, restarts=16)
        assert np.linalg.norm(report.witness) == pytest.approx(1.0, abs=1e-9)
        assert report.min_norm >= 0.9

    def test_deterministic_given_seed(self):
        a = tb.diagonal_tensor(3, [1.0, 2.0])
        r1 = tb.singularity_oracle(a, restarts=8, seed=11)
        r2 = tb.singularity_oracle(a, restarts=8, seed=11)
        assert r1.min_norm == r2.min_norm
        assert np.array_equal(r1.witness, r2.witness)

    def test_guards(self):
        with pytest.raises(DimensionTooLarge):
            tb.singularity_oracle(tb.unit_tensor(3, 7))
        with pytest.raises(ValueError):
            tb.singularity_oracle(tb.unit_tensor(3, 2), restarts=0)
        with pytest.raises(OrderTooSmall):
            tb.singularity_oracle(tb.new_tensor(1, 2, [((1,), 1.0)]))

    @pytest.mark.parametrize("name", ["restarts", "iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_controls_must_be_integers(self, name, value, monkeypatch):
        monkeypatch.setattr(spectra, "_oracle_block", None)  # refused before any work
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            tb.singularity_oracle(tb.unit_tensor(3, 2), **{name: value})

    def test_negative_seed_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(spectra, "_oracle_block", None)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            tb.singularity_oracle(tb.unit_tensor(3, 2), seed=-1)

    @pytest.mark.parametrize("values", [[1e100, 1e100], [1e200, 1.0], [1e100, 1.0], [2.0 ** 250]])
    def test_values_past_the_old_range_are_answered(self, values):
        # with r_i the absolute row sums, sum r_i^2 >= 2^500 here; the search runs on the
        # tensor scaled to row sums of norm below 1, so these answer with no overflow
        report = tb.singularity_oracle(tb.diagonal_tensor(3, values), restarts=4)
        floor = math.fsum(v ** -2.0 for v in values) ** -0.5
        if values == [1e200, 1.0]:
            # the least norm, 1, lies 2^-664 below the tensor's scale, past what the search
            # resolves (its objective ||2^-k A x||^2 bottoms out near 2^-1022): the answer
            # bounds the least norm from above and reads as zero at that scale
            assert floor <= report.min_norm < 1e-100 * max(values)
        else:
            assert report.min_norm == pytest.approx(floor, rel=4 * EPS)

    def test_values_just_inside_the_probe_range_run(self):
        # the row sums' squares add up to 2^499
        report = tb.singularity_oracle(tb.diagonal_tensor(3, [2.0 ** 249] * 2), restarts=2,
                                       iters=20)
        assert report.min_norm == pytest.approx(2.0 ** 249 / math.sqrt(2), rel=4 * EPS)

    def test_a_least_norm_past_the_double_range_is_refused(self):
        # ||A x|| = sqrt(2) * 1.7e308 for every unit x: no image of a witness has a norm
        # that a double holds
        c = 1.7e308
        t = tb.Tensor(2, 2, {(1, 1): c, (1, 2): c, (2, 1): c, (2, 2): -c})
        with pytest.raises(OracleOutOfRange, match="norm past the double range"):
            tb.singularity_oracle(t, restarts=2, iters=5)

    def test_values_lost_to_the_scaling_leave_an_upper_bound(self):
        # 1e-300 scaled by 2^-997 is zero, so the search sees diag(c, 0) and heads for e_2;
        # min_norm is still the norm of the witness's image under the tensor as given
        t = tb.diagonal_tensor(3, [1e300, 1e-300])
        report = tb.singularity_oracle(t, restarts=4)
        assert abs(abs(report.witness[1]) - 1.0) < 1e-12
        assert 1e-300 / 2 <= report.min_norm < 1e-100 * 1e300
        assert report.min_norm == pytest.approx(
            math.hypot(*np.abs(tb.apply(t, report.witness))), rel=4 * EPS)

    def test_short_runs_match_the_restart_loop(self):
        # the lockstep step and the loop's solve in a basis of the tangent space give one
        # path; the least singular value of J P belongs to z and is dropped, whatever it is
        rng = np.random.default_rng(694)
        for trial in range(12):
            order, dim = int(rng.integers(3, 5)), int(rng.integers(1, 6))
            t = tb.Tensor.from_dense(rng.standard_normal((dim,) * order)
                                     * 10.0 ** rng.integers(-30, 30))
            for iters in (1, 4):
                report = tb.singularity_oracle(t, restarts=3, iters=iters, seed=trial)
                loop = loop_singularity_oracle(t, restarts=3, iters=iters, seed=trial)
                assert report.min_norm == pytest.approx(loop.min_norm, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_restarts_are_independent(self, seed):
        # 70 restarts span two lockstep blocks; each restart's path and the pick of the
        # first least are those of one-restart runs, bit for bit
        rng = np.random.default_rng(seed)
        tensors = [tb.Tensor.from_dense(rng.uniform(-1.0, 1.0, (3, 3, 3))),
                   tb.diagonal_tensor(3, [1.0, 0.0, 2.0]),
                   tb.Tensor.from_dense(rng.uniform(-1.0, 1.0, (4, 4, 4, 4)))]
        for t in tensors:
            report = tb.singularity_oracle(t, restarts=70, iters=12, seed=seed)
            singles = [tb.singularity_oracle(t, restarts=1, iters=12, seed=seed + r)
                       for r in range(70)]
            first = min(singles, key=lambda r: r.min_norm)
            assert report.min_norm == first.min_norm and report.restarts_used == 70
            assert report.witness.tobytes() == first.witness.tobytes()

    def test_memory_stays_within_one_block(self):
        t = tb.Tensor.from_dense(np.random.default_rng(3).uniform(-1.0, 1.0, (5, 5, 5, 5)))
        peaks = []
        for restarts in (spectra._ORACLE_BLOCK, 4 * spectra._ORACLE_BLOCK):
            tracemalloc.start()
            try:
                tb.singularity_oracle(t, restarts=restarts, iters=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_memory_of_a_block_on_a_high_order_tensor(self):
        # a block of 64 restarts on a dense order-5 dim-6 tensor (7,776 entries, 31,104
        # Jacobian partials a restart) keeps its arrays in chunks, so its peak stays near
        # that of one restart run alone; all 64 rows at once would take about 140 MB
        t = tb.Tensor.from_dense(np.random.default_rng(5).uniform(-1.0, 1.0, (6,) * 5))
        peaks = []
        for probe in (lambda: loop_singularity_oracle(t, restarts=1, iters=1),
                      lambda: tb.singularity_oracle(t, restarts=spectra._ORACLE_BLOCK, iters=1)):
            tracemalloc.start()
            try:
                probe()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 4 * peaks[0], peaks

    def test_contract_on_an_ensemble(self):
        # the witness is a unit vector and min_norm is the exactly summed norm of its image
        rng = random.Random(692)
        tensors = [tb.Tensor(3, 4, {}), tb.Tensor(2, 1, {})]
        for _ in range(36):
            order, dim = rng.randint(2, 4), rng.randint(1, 6)
            pattern = rng.choice(["dense", "sparse", "diagonal"])
            if pattern == "diagonal":
                entries = {(i,) * order: rng.choice([-2.0, -0.5, 0.0, 1.0, 3.0])
                           for i in range(1, dim + 1)}
            else:
                keep = 1.0 if pattern == "dense" else 0.2
                entries = {idx: rng.uniform(-2.0, 2.0)
                           for idx in itertools.product(range(1, dim + 1), repeat=order)
                           if rng.random() < keep}
            tensors.append(tb.Tensor(order, dim, entries))
        for t in tensors:
            report = tb.singularity_oracle(t, restarts=3, iters=25, seed=rng.randrange(100))
            assert abs(np.linalg.norm(report.witness) - 1.0) <= 1e-12
            # the norm of the image's real and imaginary parts, read at their own power-of-two
            # scale: np.linalg.norm's value wherever no square underflows, never 0.0 for a
            # nonzero image
            parts = tb.apply(t, report.witness).view(float)
            e = int(np.frexp(np.abs(parts).max())[1])
            assert report.min_norm == float(np.ldexp(np.linalg.norm(np.ldexp(parts, -e)), e))
            assert report.min_norm == pytest.approx(np.linalg.norm(parts), rel=4 * EPS) \
                or np.linalg.norm(parts) < 1e-150
            assert (report.min_norm > 0.0) == bool(parts.any())
            if t.is_zero():
                assert report.min_norm == 0.0

    def test_diagonal_floor_and_the_restart_loop(self):
        # on a nonsingular order-3 diagonal tensor the minimum (sum d_i^-2)^(-1/2) is unique,
        # so the lockstep run and the one-restart-at-a-time loop reach it alike
        rng = random.Random(693)
        for trial in range(12):
            d = [rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) for _ in range(rng.randint(1, 6))]
            t = tb.diagonal_tensor(3, d)
            report = tb.singularity_oracle(t, restarts=4, iters=60, seed=trial)
            assert report.min_norm == pytest.approx(sum(v ** -2 for v in d) ** -0.5, abs=1e-9)
            loop = loop_singularity_oracle(t, restarts=4, iters=60, seed=trial)
            assert report.min_norm == pytest.approx(loop.min_norm, abs=1e-9)


def _scaled(t: tb.Tensor, s: float) -> tb.Tensor:
    return tb.Tensor(t.order, t.dim, {i: s * v for i, v in t.entries.items()})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_scale_law():
    # min ||s A x|| = s min ||A x||: the search runs on A scaled by a power of two, so a
    # power-of-two s gives the same path and the same bits; a decimal s rounds each entry
    tensors = [tb.diagonal_tensor(3, [1.0, 1.0]),
               tb.Tensor.from_dense(np.random.default_rng(1).standard_normal((3, 3, 3))),
               tb.Tensor.from_dense(np.random.default_rng(2).standard_normal((3, 3, 3, 3)))]
    for t in tensors:
        base = tb.singularity_oracle(t, restarts=16).min_norm
        for k in (-600, -60, -1, 1, 60, 600):
            assert tb.singularity_oracle(_scaled(t, 2.0 ** k), restarts=16).min_norm \
                == math.ldexp(base, k)
        for s in (0.1, 1e-5, 1e10, 1e40, 1e75):
            got = tb.singularity_oracle(_scaled(t, s), restarts=16).min_norm
            assert got == pytest.approx(s * base, rel=8 * EPS), s


def _planted_zeros(seed: int):
    """Order-3 and order-4 tensors of dims 3-6 with N(0, 1) entries, eight of each dim, and
    a[:, j, ..., j] = 0 for a random j, so that e_j is a projective zero."""
    rng = np.random.default_rng(seed)
    for i in range(32):
        dim, order = 3 + i // 8, 3 + i % 2
        a = rng.standard_normal((dim,) * order)
        a[(slice(None),) + (int(rng.integers(dim)),) * (order - 1)] = 0.0
        yield tb.Tensor.from_dense(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_finds_planted_zeros():
    # with the defaults, 27 of the 32 reach a least norm below 1e-8 of the largest absolute
    # row sum (8, 8, 6 and 5 of 8 by dim)
    found = []
    for t in _planted_zeros(31):
        rows = np.bincount(t.coo.idx[:, 0], np.abs(t.coo.vals), minlength=t.dim)
        found.append(tb.singularity_oracle(t).min_norm < 1e-8 * rows.max())
    assert sum(found) == 27, found
