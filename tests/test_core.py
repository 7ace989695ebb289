"""Tensor construction, subtensors, permutation similarity, application,
and the row-level matrices."""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triblock as tb
from triblock import core
from triblock.errors import (
    BadArity,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateIndex,
    EmptyIndexSet,
    IndexOutOfRange,
    OrderTooSmall,
)

from _gen import dense_apply, rand_permutation, rand_tensor


def small_tensors(max_n=4, max_m=3):
    """Hypothesis strategy for small integer tensors."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(2, max_m))
        cells = list(itertools.product(range(1, n + 1), repeat=m))
        chosen = draw(st.lists(st.sampled_from(cells), max_size=8))
        values = draw(st.lists(st.integers(-4, 4), min_size=len(chosen),
                               max_size=len(chosen)))
        entries = {}
        for idx, v in zip(chosen, values):
            entries[idx] = float(v)
        return tb.new_tensor(m, n, list(entries.items()))

    return build()


class TestConstruction:
    def test_drops_exact_zeros(self):
        t = tb.new_tensor(2, 2, [((1, 1), 0.0), ((1, 2), 3.0)])
        assert t.nnz == 1
        assert t.get((1, 1)) == 0.0
        assert t.get((1, 2)) == 3.0

    def test_duplicate_rejected_even_after_zero(self):
        with pytest.raises(DuplicateIndex):
            tb.new_tensor(2, 2, [((1, 1), 0.0), ((1, 1), 2.0)])

    def test_arity_checked(self):
        with pytest.raises(BadArity):
            tb.new_tensor(3, 2, [((1, 1), 1.0)])

    def test_range_checked(self):
        with pytest.raises(IndexOutOfRange):
            tb.new_tensor(2, 2, [((1, 3), 1.0)])
        with pytest.raises(IndexOutOfRange):
            tb.new_tensor(2, 2, [((0, 1), 1.0)])

    def test_non_integer_index_rejected(self):
        with pytest.raises(BadArity):
            tb.new_tensor(2, 2, [((1.5, 1), 1.0)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        # every constructor names the first such entry as new_tensor does
        matrix, dense = np.array([[1.0, 0.0], [value, value]]), np.zeros((2, 2, 2))
        dense[0, 0, 0], dense[1, 0, 0], dense[1, 1, 0] = 1.0, value, value
        constructors = [lambda: tb.new_tensor(3, 2, [((1, 1, 1), 1.0), ((2, 1, 1), value)]),
                        lambda: tb.row_diagonal_from_matrix(matrix, 3),
                        lambda: tb.Tensor.from_dense(dense)]
        for build in constructors:
            with pytest.raises(ValueError, match=rf"^entry \(2, 1, 1\) is not finite: {value!r}$"):
                build()

    @pytest.mark.parametrize("entries, error, message", [
        ({(1, 5): 1.0, (2, 2): 1.0}, IndexOutOfRange, r"index \(1, 5\) has a component outside"),
        ({(2, 2): 1.0, (0, 1): 1.0}, IndexOutOfRange, r"index \(0, 1\) has a component outside"),
        ({(1, 2, 1): 1.0}, BadArity, r"index \(1, 2, 1\) has 3 components, expected 2"),
        ({(1, 1): 1.0, (2,): 1.0}, BadArity, r"index \(2,\) has 1 components, expected 2"),
        ({(1, 1): math.nan, (2, 2): 1.0}, ValueError, r"entry \(1, 1\) is not finite: nan"),
        ({(2, 2): 1.0, (1, 2): -math.inf}, ValueError, r"entry \(1, 2\) is not finite: -inf"),
        ({(1.5, 2): 1.0, (2, 2): 1.0}, BadArity,
         r"index \(1\.5, 2\) has a component that is not an integer: 1\.5"),
        ({(2, 2): 1.0, (True, 2): 1.0}, BadArity,
         r"index \(True, 2\) has a component that is not an integer: True"),
        ({(2 ** 70, 1): 1.0, (2, 2): 1.0}, IndexOutOfRange,
         r"index \(1180591620717411303424, 1\) has a component outside \[1, 2\]$"),
    ])
    def test_constructor_entries_checked_by_the_view(self, entries, error, message):
        # Tensor(...) builds its view at once, so it refuses the mapping itself
        with pytest.raises(error, match=message):
            tb.Tensor(2, 2, entries)

    def test_bool_order_rejected(self):
        with pytest.raises(OrderTooSmall, match=r"^order must be an integer, got True$"):
            tb.new_tensor(True, 2, [])

    def test_float_order_rejected(self):
        with pytest.raises(OrderTooSmall, match=r"^order must be an integer, got 2\.0$"):
            tb.new_tensor(2.0, 2, [])

    def test_bool_dim_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^dim must be an integer, got True$"):
            tb.new_tensor(2, True, [])

    def test_float_dim_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^dim must be an integer, got 2\.5$"):
            tb.new_tensor(2, 2.5, [])

    def test_numpy_integer_order_and_dim_become_ints(self):
        t = tb.new_tensor(np.int64(2), np.int32(3), [((1, 3), 1.0)])
        assert (type(t.order), type(t.dim), t.order, t.dim) == (int, int, 2, 3)

    def test_unit_tensor(self):
        u = tb.unit_tensor(3, 2)
        assert dict(u.entries) == {(1, 1, 1): 1.0, (2, 2, 2): 1.0}
        assert tb.unit_tensor(2, 3).to_dense() == pytest.approx(np.eye(3))
        assert dict(tb.unit_tensor(4, 1).entries) == {(1, 1, 1, 1): 1.0}

    def test_diagonal_tensor(self):
        d = tb.diagonal_tensor(3, [2.0, 0.0, -1.0])
        assert dict(d.entries) == {(1, 1, 1): 2.0, (3, 3, 3): -1.0}
        assert d.dim == 3

    def test_dense_round_trip(self):
        rng = random.Random(11)
        for _ in range(10):
            t = rand_tensor(rng, 3, 3)
            assert tb.Tensor.from_dense(t.to_dense()) == t

    def test_to_dense_refuses_past_the_guard(self):
        t = tb.new_tensor(3, 300, [((1, 2, 3), 1.0)])  # 27,000,000 cells
        with pytest.raises(DimensionTooLarge,
                           match=r"^densifying is capped at 20000000 cells, "
                                 r"got dim \*\* order = 27000000$"):
            t.to_dense()


class TestPrincipalSubtensor:
    def test_relabels_in_sorted_order(self):
        t = tb.new_tensor(2, 3, [((2, 3), 5.0), ((3, 3), 7.0)])
        sub = tb.principal_subtensor(t, {3, 2})
        assert dict(sub.entries) == {(1, 2): 5.0, (2, 2): 7.0}

    def test_full_set_is_identity(self, ex61):
        assert tb.principal_subtensor(ex61, range(1, 5)) == ex61

    def test_ex61_leading_block_is_zero(self, ex61):
        sub = tb.principal_subtensor(ex61, [1, 2, 3])
        assert sub.is_zero() and sub.dim == 3

    def test_ex31_first_index(self, ex31):
        sub = tb.principal_subtensor(ex31, [1])
        assert dict(sub.entries) == {(1, 1, 1): 1.0}

    def test_empty_rejected(self, ex31):
        with pytest.raises(EmptyIndexSet):
            tb.principal_subtensor(ex31, [])

    def test_out_of_range_rejected(self, ex31):
        with pytest.raises(IndexOutOfRange):
            tb.principal_subtensor(ex31, [1, 3])

    @pytest.mark.parametrize("members", [[1.7, 2.2], [True], [1, 2.0], [np.bool_(True)], ["1"]])
    def test_non_integer_members_rejected(self, ex31, members):
        with pytest.raises(BadArity):
            tb.principal_subtensor(ex31, members)

    def test_numpy_integer_members_accepted(self, ex31):
        sub = tb.principal_subtensor(ex31, np.array([1]))
        assert dict(sub.entries) == {(1, 1, 1): 1.0}

    def test_commutes_with_scaling(self):
        rng = random.Random(5)
        for _ in range(10):
            t = rand_tensor(rng, 4, 3)
            keep = [1, 2, 4]
            scaled = tb.Tensor(t.order, t.dim,
                               {k: 2.5 * v for k, v in t.entries.items()})
            left = tb.principal_subtensor(scaled, keep)
            right = tb.Tensor(3, 3, {k: 2.5 * v for k, v in
                                     tb.principal_subtensor(t, keep).entries.items()})
            assert left == right


class TestPermutation:
    def test_bijection_enforced(self):
        with pytest.raises(IndexOutOfRange):
            tb.Permutation((1, 1, 3))
        with pytest.raises(IndexOutOfRange):
            tb.Permutation((0, 1))

    @pytest.mark.parametrize("image", [(2.0, 3.0, 1.0), (True, 2), (1, np.float64(2.0))])
    def test_non_integer_image_rejected(self, image):
        with pytest.raises(BadArity):
            tb.Permutation(image)

    def test_numpy_integers_become_ints(self, ex31):
        sigma = tb.Permutation(tuple(np.array([2, 1])))
        assert sigma.image == (2, 1) and all(type(i) is int for i in sigma.image)
        assert sigma == tb.Permutation((2, 1))
        moved = tb.permute_similar(ex31, sigma)
        assert all(type(i) is int for idx in moved.entries for i in idx)

    def test_inverse_and_compose(self):
        sigma = tb.Permutation((2, 3, 1))
        assert sigma.inverse().image == (3, 1, 2)
        assert sigma.compose(sigma.inverse()).image == (1, 2, 3)

    def test_permute_similar_values(self, ex31):
        swap = tb.Permutation((2, 1))
        moved = tb.permute_similar(ex31, swap)
        assert dict(moved.entries) == {
            (2, 2, 2): 1.0, (2, 1, 1): 1.0, (1, 2, 1): 1.0, (1, 1, 2): 1.0}

    @settings(max_examples=60)
    @given(small_tensors())
    def test_inverse_round_trip(self, t):
        rng = random.Random(t.dim * 7 + t.order)
        sigma = rand_permutation(rng, t.dim)
        assert tb.permute_similar(tb.permute_similar(t, sigma), sigma.inverse()) == t

    @settings(max_examples=40)
    @given(small_tensors())
    def test_composition_law(self, t):
        rng = random.Random(t.nnz + 13)
        s1 = rand_permutation(rng, t.dim)
        s2 = rand_permutation(rng, t.dim)
        once = tb.permute_similar(tb.permute_similar(t, s1), s2)
        assert once == tb.permute_similar(t, s2.compose(s1))


class TestApply:
    def test_matches_dense_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            t = rand_tensor(rng, 3, 3)
            x = [rng.uniform(-2, 2) for _ in range(3)]
            assert tb.apply(t, x) == pytest.approx(dense_apply(t, x), abs=1e-12)

    def test_complex_matches_dense_oracle(self):
        rng = random.Random(4)
        t = rand_tensor(rng, 3, 3)
        x = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        assert tb.apply(t, x) == pytest.approx(dense_apply(t, x), abs=1e-12)

    def test_known_quadratic(self, ex31):
        x = [2.0, 3.0]
        got = tb.apply(ex31, x)
        assert got == pytest.approx([x[0] ** 2 + x[1] ** 2, 2 * x[0] * x[1]])

    def test_all_ones_tensor(self):
        ones = tb.new_tensor(3, 2, [((i, j, k), 1.0)
                                    for i in (1, 2) for j in (1, 2) for k in (1, 2)])
        assert tb.apply(ones, [1.0, 1.0]) == pytest.approx([4.0, 4.0])

    def test_unit_tensor_power_law(self):
        u = tb.unit_tensor(4, 3)
        x = [0.5, -1.25, 2.0]
        assert tb.apply(u, x) == pytest.approx([v ** 3 for v in x], abs=0)

    def test_homogeneous_of_degree_order_minus_one(self):
        rng = random.Random(9)
        t = rand_tensor(rng, 3, 3)
        x = [1.5, -0.5, 2.0]
        scaled = tb.apply(t, [2.0 * v for v in x])
        assert scaled == pytest.approx(4.0 * tb.apply(t, x), rel=1e-12)

    def test_basis_vectors_read_majorization_columns(self):
        rng = random.Random(21)
        t = rand_tensor(rng, 4, 3)
        m = tb.majorization_matrix(t)
        for j in range(4):
            e = [0.0] * 4
            e[j] = 1.0
            assert tb.apply(t, e) == pytest.approx(m[:, j], abs=0)

    @pytest.mark.parametrize("terms, want", [
        ([1e308, 1e308, -1e308], 1e308),  # fsum's partial sums overflow in this order
        ([1e308, 1e308, -1e308, -1e308, 3e-320], 3e-320),
        ([1e308, 1e308, 1e308, -1e308], math.inf),  # the exact sum, 2e308, is past the range
        ([-1e308, -1e308, -1e308, 1e308], -math.inf),
    ])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_rows_past_fsums_partial_sums(self, terms, want, kind):
        n = len(terms)
        t = tb.new_tensor(2, n, [((1, j), v) for j, v in enumerate(terms, 1)] + [((2, 1), 1.0)])
        got = tb.apply(t, [kind(1)] * n)
        assert got.dtype == kind and got.tolist() == [want, 1.0] + [0.0] * (n - 2)
        if math.isfinite(want):
            vector = tb.new_tensor(1, n, [((j,), 1.0) for j in range(1, n + 1)])
            assert tb.general_product(t, vector).entries == {(1,): want, (2,): 1.0}

    def test_infinite_terms_of_both_signs(self):
        t = tb.new_tensor(2, 3, [((1, 1), 1.0), ((1, 2), -1.0), ((2, 1), 1.0), ((2, 2), 1.0)])
        got = tb.apply(t, [math.inf, math.inf, 1.0])
        assert math.isnan(got[0]) and got[1:].tolist() == [math.inf, 0.0]

    def test_order_one_rejected(self):
        with pytest.raises(OrderTooSmall):
            tb.apply(tb.new_tensor(1, 2, [((1,), 1.0)]), [1.0, 1.0])

    def test_length_mismatch(self, ex31):
        with pytest.raises(DimensionMismatch):
            tb.apply(ex31, [1.0])


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # signed zeros and subnormals among them
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 905)),  # 1e-320 to 2^905
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.0 ** -1022, 1e-16, 1.0, 1e16,
                     math.nextafter(2.0 ** 900, 0.0), 2.0 ** 900, 1e308, -1e308,
                     1.7976931348623157e308]),
)


@st.composite
def segments(draw):
    """Rows of terms, every other one or all but the least negated beside them so that sums
    cancel, many within 8 to 140 binades of one another; in half the calls a term may be
    +-inf or nan."""
    values = _FINITE
    if draw(st.booleans()):
        values = st.one_of(_FINITE, st.sampled_from([math.inf, -math.inf, math.nan]))
    top, span = draw(st.integers(-1074, 900)), draw(st.integers(8, 140))
    window = st.builds(lambda m, e: math.ldexp(m, top - 53 - e),  # full mantissas below 2^top
                       st.integers(-2 ** 53, 2 ** 53), st.integers(0, span))
    negated = st.sampled_from([slice(None, None, 2), slice(1, None)])  # or all but the least

    def cancelling(terms):
        return st.tuples(st.lists(terms, max_size=12), negated).flatmap(
            lambda row: st.permutations(row[0] + [-v for v in sorted(row[0], key=abs)[row[1]]]))

    return draw(st.lists(cancelling(values) | cancelling(window), max_size=10))


def reference_fsum(row: list) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):  # a partial sum overflows, or an inf meets a -inf
        return core._fsum(row)


class TestSegmentFsums:
    """``core._segment_fsums`` is math.fsum (``_fsum`` where fsum raises), bit for bit, in
    this interpreter, on either side of the size where it starts to sum by extraction."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(segments())
    def test_equals_fsum_bit_for_bit(self, rows):
        for pad in ([], [[0.5] * core._VECTORISED]):  # a padded call takes the vectorised path
            given_rows = rows + pad
            terms = np.array([v for row in given_rows for v in row], dtype=float)
            bounds = np.cumsum([0] + [len(row) for row in given_rows])
            got = core._segment_fsums(terms, bounds)
            want = np.array([reference_fsum(row) for row in given_rows], dtype=float)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_sums_far_below_their_terms(self):
        # all but one term cancel, leaving a sum 2^-60 to 2^-140 of the others: the r sum
        # rounds, and certifying it as exact would move the result by many ulps
        rng = random.Random(5)
        rows = []
        for _ in range(2000):
            big = [rng.uniform(0.5, 1.0) * 2.0 ** rng.randint(-3, 3)
                   for _ in range(rng.randint(1, 6))]
            tiny = math.ldexp(rng.getrandbits(53), rng.randint(-193, -113))
            row = big + [tiny] + [-v for v in big]
            rng.shuffle(row)
            rows.append(row)
        terms = np.array([v for row in rows for v in row])
        got = core._segment_fsums(terms, np.cumsum([0] + [len(row) for row in rows]))
        want = np.array([math.fsum(row) for row in rows])
        assert len(terms) >= core._VECTORISED
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_dense_nonnegative_rows_take_no_fallback(self, monkeypatch):
        # the radius residual of a dense order-3 dim-20 tensor: 20 rows of 400 terms
        certified, extracted = [], core._extracted

        def spy(*args):
            sums, ok = extracted(*args)
            certified.append(ok)
            return sums, ok

        monkeypatch.setattr(core, "_extracted", spy)
        t = tb.Tensor.from_dense(np.random.default_rng(3).uniform(0.01, 1.0, (20, 20, 20)))
        tb.spectral_radius(t)
        assert len(certified) == 1 and certified[0].all()


class TestRowMatrices:
    def test_majorization_of_row_diagonal(self):
        p = np.array([[2.0, -1.0], [-1.0, 2.0]])
        t = tb.row_diagonal_from_matrix(p, 3)
        assert dict(t.entries) == {(1, 1, 1): 2.0, (1, 2, 2): -1.0,
                                   (2, 1, 1): -1.0, (2, 2, 2): 2.0}
        assert np.array_equal(tb.majorization_matrix(t), p)

    def test_majorization_frozen_value(self, ex31):
        assert np.array_equal(tb.majorization_matrix(ex31),
                              np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_majorization_of_unit_tensor(self):
        assert np.array_equal(tb.majorization_matrix(tb.unit_tensor(3, 3)), np.eye(3))

    def test_representation_frozen_value(self, ex31):
        assert np.array_equal(tb.representation_matrix(ex31),
                              np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_representation_counts_distinct_indices_once(self):
        t = tb.new_tensor(3, 3, [((1, 2, 2), -2.0), ((1, 2, 3), 1.0)])
        g = tb.representation_matrix(t)
        assert g[0, 1] == 3.0  # |-2| once for (2,2), |1| once for (2,3)
        assert g[0, 2] == 1.0
        assert g[0, 0] == 0.0

    def test_representation_equals_abs_majorization_for_row_diagonal(self):
        rng = random.Random(2)
        for _ in range(10):
            p = np.array([[rng.choice([-2, -1, 0, 1, 2]) for _ in range(3)]
                          for _ in range(3)], dtype=float)
            t = tb.row_diagonal_from_matrix(p, 3)
            assert np.array_equal(tb.representation_matrix(t), np.abs(p))

    def test_zero_row_shows_in_representation(self, ex61):
        g = tb.representation_matrix(ex61)
        assert np.all(g[3] == 0.0)
        assert np.all(g[:3] > 0.0)

    def test_is_row_diagonal(self, ex24):
        assert not tb.is_row_diagonal(ex24)
        assert tb.is_row_diagonal(tb.diagonal_tensor(3, [1.0, 2.0]))
        assert tb.is_row_diagonal(tb.row_diagonal_from_matrix(np.eye(2), 4))

    def test_matrix_round_trip(self):
        p = np.array([[0.0, 1.5], [-2.0, 0.25]])
        assert np.array_equal(tb.majorization_matrix(tb.tensor_from_matrix(p)), p)

    @pytest.mark.parametrize("order", [2.5, 3.0, True, "3", None])
    def test_row_diagonal_order_must_be_an_integer(self, order):
        with pytest.raises(OrderTooSmall, match="^order must be an integer, got "):
            tb.row_diagonal_from_matrix(np.eye(2), order)

    def test_row_diagonal_order_below_two(self):
        for order in (1, 0, -3, np.int64(1)):
            with pytest.raises(OrderTooSmall, match="^row-diagonal tensors need order >= 2$"):
                tb.row_diagonal_from_matrix(np.eye(2), order)
        assert tb.row_diagonal_from_matrix(np.eye(2), np.int64(3)).order.__class__ is int

    def test_row_diagonal_equals_product_with_unit(self):
        p = np.array([[2.0, 1.0], [0.0, -1.0]])
        direct = tb.row_diagonal_from_matrix(p, 3)
        via_product = tb.general_product(tb.tensor_from_matrix(p), tb.unit_tensor(3, 2))
        assert direct == via_product


def _z_tensor() -> tb.Tensor:
    return tb.Tensor(3, 2, {(1, 1, 1): 2.0, (2, 2, 2): 2.0, (1, 2, 2): -1.0})


# every public control named tol, the sign it must have, and a call that reaches its check
TOL_ENTRY_POINTS = {
    "spectral_radius": ("positive", lambda tol: tb.spectral_radius(tb.unit_tensor(3, 2), tol)),
    "hypergraph_radii": ("positive", lambda tol: tb.hypergraph_radii(
        tb.Hypergraph.from_edge_lists(3, 3, [[1, 2, 3]]), tol)),
    "verify_inverse": ("nonnegative", lambda tol: tb.verify_inverse(
        tb.unit_tensor(3, 2), tb.unit_tensor(3, 2), "left", tol)),
    "Tensor.allclose": ("nonnegative", lambda tol: tb.unit_tensor(3, 2).allclose(
        tb.unit_tensor(3, 2), tol)),
    "is_m_tensor": ("positive", lambda tol: tb.is_m_tensor(_z_tensor(), tol)),
    "is_nonsingular_m_tensor": ("positive", lambda tol: tb.is_nonsingular_m_tensor(
        _z_tensor(), tol)),
    "m_tensor_report": ("positive", lambda tol: tb.m_tensor_report(_z_tensor(), tol)),
}


@pytest.mark.parametrize("value", ["x", None, object()], ids=["str", "None", "object"])
@pytest.mark.parametrize("entry", list(TOL_ENTRY_POINTS))
def test_a_tol_that_is_no_number_is_refused(entry, value):
    # the ValueError each entry point gives nan, not a bare TypeError from comparing with 0
    sign, call = TOL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^tol must be {sign}$"):
        call(value)
    call(1e-9)  # and the call answers with a number
