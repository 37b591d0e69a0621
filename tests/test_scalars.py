"""Field arithmetic and row-echelon linear algebra.

Each field fact is asserted twice: on the package's raw values through
FieldSpec, and on the dense reference's Scalar objects."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from dense_reference import Scalar, scalar_arith
from leibniz_graphs.errors import DimensionMismatchError, FieldMismatchError
from leibniz_graphs.scalars import FieldSpec, Subspace, rref, unit_vector
from vectors import vec_add, vec_is_zero, vec_scale, with_vectors, zero_vector

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
F2 = FieldSpec.prime(2)

rational_values = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)
residues5 = st.integers(min_value=0, max_value=4)


def _q(x) -> Fraction:
    return Q.scalar(Fraction(x))


def _ref(field, x) -> Scalar:
    return Scalar(field, Fraction(x) if field.is_rationals else x)


def test_fieldspec_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldSpec.prime(6)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


def test_fieldspec_characteristic():
    assert Q.p is None and Q.is_rationals
    assert F5.p == 5 and not F5.is_rationals
    assert str(Q) == "Q" and str(F5) == "GF(5)"


def test_scalar_canonical_forms():
    assert F5.scalar(7) == 2 and type(F5.scalar(7)) is int
    assert F5.scalar(-1) == 4
    assert _q("2/4") == Fraction(1, 2) and type(_q("2/4")) is Fraction
    with pytest.raises(ValueError):
        F5.scalar(Fraction(1, 2))
    assert F5.is_element(4) and not F5.is_element(5)
    assert Q.is_element(Fraction(1, 2)) and not Q.is_element(1)

    assert Scalar(F5, 7).value == 2
    assert Scalar(F5, -1).value == 4
    assert _ref(Q, "2/4").value == Fraction(1, 2)
    with pytest.raises(ValueError):
        Scalar(F5, Fraction(1, 2))


def test_scalar_arith_dispatch():
    a, b = _q("1/2"), _q("1/3")
    assert Q.add(a, b) == _q("5/6")
    assert Q.mul(a, b) == _q("1/6")
    assert Q.mul(a, Q.inv(b)) == _q("3/2")

    a, b = _ref(Q, "1/2"), _ref(Q, "1/3")
    assert scalar_arith(a, b, "add") == _ref(Q, "5/6")
    assert scalar_arith(a, b, "sub") == _ref(Q, "1/6")
    assert scalar_arith(a, b, "mul") == _ref(Q, "1/6")
    assert scalar_arith(a, b, "div") == _ref(Q, "3/2")
    with pytest.raises(ValueError):
        scalar_arith(a, b, "pow")


def test_prime_field_inverse():
    # 3 * 2 = 6 = 1 in GF(5)
    assert F5.inv(3) == 2
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        Q.inv(_q(0))

    assert Scalar(F5, 3).inverse() == Scalar(F5, 2)
    with pytest.raises(ZeroDivisionError):
        Scalar(F5, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        _ref(Q, 1) / _ref(Q, 0)


def test_field_mismatch_raises():
    # raw values carry no field: membership is a canonical-type check
    assert not Q.is_element(F5.scalar(1))
    assert not F5.is_element(_q(1))
    with pytest.raises(FieldMismatchError):
        scalar_arith(_ref(Q, 1), Scalar(F5, 1), "add")
    # equality across fields is False, never an error
    assert _ref(Q, 1) != Scalar(F5, 1)


@given(a=rational_values, b=rational_values, c=rational_values)
@settings(max_examples=60, deadline=None)
def test_rational_field_axioms(a, b, c):
    sa, sb, sc = _q(a), _q(b), _q(c)
    add, mul = Q.add, Q.mul
    assert add(add(sa, sb), sc) == add(sa, add(sb, sc))
    assert add(sa, sb) == add(sb, sa)
    assert mul(sa, add(sb, sc)) == add(mul(sa, sb), mul(sa, sc))
    assert add(sa, Q.zero) == sa
    assert mul(sa, Q.one) == sa
    if sa:
        assert mul(sa, Q.inv(sa)) == Q.one

    sa, sb, sc = _ref(Q, a), _ref(Q, b), _ref(Q, c)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa + sb == sb + sa
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + _ref(Q, 0) == sa
    assert sa * _ref(Q, 1) == sa
    if sa:
        assert sa * sa.inverse() == _ref(Q, 1)


@given(a=residues5, b=residues5, c=residues5)
@settings(max_examples=60, deadline=None)
def test_prime_field_axioms(a, b, c):
    sa, sb, sc = F5.scalar(a), F5.scalar(b), F5.scalar(c)
    add, mul = F5.add, F5.mul
    assert mul(mul(sa, sb), sc) == mul(sa, mul(sb, sc))
    assert mul(sa, sb) == mul(sb, sa)
    assert mul(sa, add(sb, sc)) == add(mul(sa, sb), mul(sa, sc))
    assert add(sa, F5.normalise(-sa)) == F5.zero
    if sa:
        assert mul(sa, F5.inv(sa)) == F5.one

    sa, sb, sc = Scalar(F5, a), Scalar(F5, b), Scalar(F5, c)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * sb == sb * sa
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa - sa == Scalar(F5, 0)
    if sa:
        assert sa * sa.inverse() == Scalar(F5, 1)


def test_rref_collapses_dependent_rows():
    rows = [(_q(2), _q(4)), (_q(1), _q(2))]
    reduced, pivots = rref(Q, rows, 2)
    assert reduced == ((_q(1), _q(2)),)
    assert pivots == (0,)


def test_rref_rejects_wrong_length_and_field():
    with pytest.raises(DimensionMismatchError):
        rref(Q, [(_q(1),)], 2)
    with pytest.raises(FieldMismatchError):
        rref(Q, [(F5.scalar(1), F5.scalar(0))], 2)


def _random_matrix(draw_field, values, rows, cols):
    return st.lists(
        st.lists(values, min_size=cols, max_size=cols).map(
            lambda row: tuple(draw_field.scalar(x) for x in row)
        ),
        min_size=rows, max_size=rows,
    )


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent_and_membership(data):
    field, values = data.draw(st.sampled_from(
        [(Q, rational_values), (F5, residues5)]
    ))
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(_random_matrix(field, values, m, n))
    reduced, pivots = rref(field, rows, n)
    again, pivots2 = rref(field, reduced, n)
    assert again == reduced and pivots2 == pivots
    assert list(pivots) == sorted(pivots)
    assert Subspace.from_vectors(field, n, rows).rows == reduced
    assert Subspace.from_vectors(field, n, rows).pivots == pivots
    # every pivot is 1 and alone in its column
    for r, c in enumerate(pivots):
        assert reduced[r][c] == field.one
        assert all(not reduced[r2][c] for r2 in range(len(reduced)) if r2 != r)
    # original rows are members of the span
    span = Subspace.from_vectors(field, n, reduced)
    for row in rows:
        assert span.contains(row)


def test_subspace_membership_is_rank_based():
    rows = [(_q(1), _q(0), _q(1)), (_q(0), _q(1), _q(1))]
    span = Subspace.from_vectors(Q, 3, rows)
    assert span.rank == 2
    assert span.contains((_q(2), _q(3), _q(5)))
    assert not span.contains((_q(1), _q(0), _q(0)))
    # adding a member does not grow the span
    assert with_vectors(span, [(_q(2), _q(3), _q(5))]) == span
    assert with_vectors(span, [(_q(1), _q(0), _q(0))]).rank == 3


def test_single_coordinate_membership_cases():
    # rows {0: 1, 1: 2} and {2: 1}: a pivot row with an extra entry, a
    # non-pivot column and a unit row, each asked with c != 1
    span = Subspace.from_vectors(Q, 3, [(_q(1), _q(2), _q(0)),
                                        (_q(0), _q(0), _q(3))])
    assert span.pivots == (0, 2)
    assert not span.contains_sparse({0: _q(3)})
    assert not span.contains_sparse({1: _q(3)})
    assert span.contains_sparse({2: _q(3)})
    assert span.basis_members() == (2,)


BIG = FieldSpec.prime(998244353)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_single_coordinate_membership_matches_full_elimination(data):
    # contains_sparse answers {w: c} by one row lookup; the dense
    # reference eliminates c * v_w against every row
    field, values = data.draw(st.sampled_from([
        (Q, rational_values), (F5, residues5),
        (BIG, st.integers(min_value=0, max_value=BIG.p - 1)),
    ]))
    n = data.draw(st.integers(min_value=2, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    rows = data.draw(_random_matrix(field, values, m, n))
    span = Subspace.from_vectors(field, n, rows)
    assume(any(len(row) > 1 for row in span.sparse_rows()))
    dense = ref.Subspace(field, n, [ref.scalars(field, row) for row in rows])
    c = field.scalar(data.draw(values.filter(lambda x: field.scalar(x))))
    for w in range(n):
        want = dense.contains(ref.scalars(field, (
            c if k == w else field.zero for k in range(n))))
        assert span.contains_sparse({w: c}) == want, (w, c)
        assert span.contains(tuple(
            c if k == w else field.zero for k in range(n))) == want


def test_subspace_from_basis_indices():
    span = Subspace.from_basis_indices(Q, 4, (2, 0))
    assert span.rows == (unit_vector(Q, 4, 0), unit_vector(Q, 4, 2))
    assert span.pivots == (0, 2)
    assert span.basis_members() == (0, 2)
    assert span.contains(unit_vector(Q, 4, 2))
    assert not span.contains(unit_vector(Q, 4, 1))


def test_subspace_constructor_orders_the_pivots():
    # an echelon result lists its pivots in the order they were found
    one, zero = Q.one, Q.zero
    span = Subspace(Q, 3, {2: {2: one}, 0: {0: one, 1: _q(2)}})
    assert span.pivots == (0, 2)
    assert span.rows == ((one, _q(2), zero), (zero, zero, one))
    assert span == Subspace.from_vectors(
        Q, 3, [(zero, zero, _q(3)), (one, _q(2), zero)])


def test_subspace_ambient_mismatch():
    span = Subspace.from_basis_indices(Q, 3, (0,))
    with pytest.raises(DimensionMismatchError):
        span.contains((_q(1), _q(0)))


def test_vector_helpers():
    z = zero_vector(Q, 3)
    assert vec_is_zero(z)
    e0 = unit_vector(Q, 3, 0)
    assert vec_add(Q, e0, e0) == vec_scale(Q, _q(2), e0)
    with pytest.raises(DimensionMismatchError):
        vec_add(Q, e0, zero_vector(Q, 2))
    f0 = unit_vector(F5, 2, 0)
    assert vec_add(F5, vec_scale(F5, 3, f0), vec_scale(F5, 2, f0)) == \
        zero_vector(F5, 2)
    with pytest.raises(DimensionMismatchError):
        unit_vector(Q, 3, 5)
