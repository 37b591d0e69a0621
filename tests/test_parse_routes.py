"""The document parse's fast routes, each checked against the route it
bypasses.

* A document scalar in canonical form is built once by
  ``jsonio._canonical_scalar``; any other value goes through
  ``_document_scalar``, the lenient ``scalar_from_json`` followed by the
  canonical-text comparison.  On numeral strings of every shape, both
  must accept exactly the strings that round-trip through
  ``scalar_from_json`` and ``scalar_to_json`` unchanged, and return the
  lenient route's value.
* A parsed document's algebra is built through the trusted construction
  path.  It must equal, in every stored row and in order, the algebra the
  public constructor builds from the same products read by the lenient
  scalar route, on the corpus, seeded fuzz documents and the large
  families.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from leibniz_graphs.algebra import LeibnizAlgebra, check_leibniz
from leibniz_graphs.corpus import (
    filiform,
    five_dim,
    fuzz_instances,
    odd_family,
    permute_basis,
    rescale_basis,
    standard_entries,
)
from leibniz_graphs.errors import InputDocumentError, NotLeibnizError
from leibniz_graphs.jsonio import (
    _canonical_scalar,
    _document_scalar,
    algebra_from_json,
    algebra_to_json,
    field_from_json,
    scalar_from_json,
    scalar_to_json,
)
from leibniz_graphs.scalars import FieldSpec

Q = FieldSpec.rationals()

# int() of a string takes at most 4300 digits by default
_LONG = ["1" * 4299, "1" * 4300, "1" * 4301, "9" * 4300, "0" + "1" * 4300]
_NUMERALS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=5),
    st.sampled_from(["٣", "５", "１２", "0٣", "1_0"]),
    st.sampled_from(_LONG),
)


@st.composite
def numeral_strings(draw):
    """Signs, leading zeros, spaces, slashes, zero and unit denominators,
    unreduced pairs, non-ASCII digits and 4300 +- 1 digits, in any mix."""
    if draw(st.booleans()):
        value = draw(st.fractions(max_denominator=10**6))
        scale = draw(st.sampled_from([1, 1, 2, 3, -1]))
        text = (f"{value.numerator * scale}/{value.denominator * scale}"
                if value.denominator * scale != 1 else str(value))
    else:
        text = draw(st.sampled_from(["", "", "-", "+", "--", "- "]))
        text += draw(_NUMERALS)
        if draw(st.booleans()):
            text += draw(st.sampled_from(["/", "/", " /", "/ ", "//"]))
            text += draw(st.one_of(_NUMERALS, st.sampled_from(
                ["", "0", "1", "01", "-2"])))
    return (draw(st.sampled_from(["", "", " ", "\n"])) + text
            + draw(st.sampled_from(["", "", " ", "\n"])))


@seed(30)
@settings(max_examples=600, deadline=None)
@given(numeral_strings())
@example("-0")
@example("-0/3")
@example("0/3")
@example("-2/4")
@example("2/1")
@example("0/1")
@example("0")
@example("-17/5")
@example("1" * 4300)
@example("1" * 4301)
@example("1/" + "1" * 4301)
def test_document_scalar_accepts_exactly_the_canonical_text(value):
    try:
        lenient = scalar_from_json(Q, value)
    except InputDocumentError:
        lenient = None
    canonical = lenient is not None and scalar_to_json(lenient) == value
    try:
        got = _document_scalar(Q, value, "$")
    except InputDocumentError:
        assert not canonical
    else:
        assert canonical
        assert type(got) is Fraction and got == lenient
    # the fast route takes every canonical string, and nothing else
    fast = _canonical_scalar(Q, value)
    assert (fast is not None) is canonical
    if canonical:
        assert type(fast) is Fraction and fast == lenient


@pytest.mark.parametrize("p", [2, 5, 998244353])
def test_document_scalar_over_gf_p_takes_residues_only(p):
    field = FieldSpec.prime(p)
    for value in (0, 1, p - 1, p, -1, True, False, "1", 1.0, None):
        try:
            lenient = scalar_from_json(field, value)
        except InputDocumentError:
            lenient = None
        if lenient is None:
            with pytest.raises(InputDocumentError):
                _document_scalar(field, value, "$")
            assert _canonical_scalar(field, value) is None
        else:
            assert _document_scalar(field, value, "$") == lenient
            assert _canonical_scalar(field, value) == lenient


def _public_construction(doc):
    """The algebra of doc built by the public constructor, every scalar
    read by the lenient route."""
    field = field_from_json(doc["field"])
    index = {label: i for i, label in enumerate(doc["labels"])}
    products = {
        (index[entry["l"]], index[entry["r"]]):
            {index[entry["out"]]: scalar_from_json(field, entry["c"])}
        for entry in doc["products"]
    }
    return LeibnizAlgebra(field, doc["labels"], products)


def _assert_trusted_equals_public(doc):
    parsed = algebra_from_json(doc)[0]
    public = _public_construction(doc)
    assert parsed == public
    assert parsed.labels == public.labels
    assert list(parsed.products.items()) == list(public.products.items())
    assert parsed._left == public._left
    assert parsed._right == public._right
    assert parsed.identity_verified and public.identity_verified
    for coords in parsed.products.values():
        assert all(map(parsed.field.is_element, coords.values()))
    return parsed


def _shuffled(doc, rng):
    """doc with its products in a random order."""
    products = list(doc["products"])
    rng.shuffle(products)
    return dict(doc, products=products)


def test_trusted_construction_always_checks_the_identity():
    # the parse would still reject a non-Leibniz document without this
    # check, later, when the kernel is computed; the trusted path itself
    # must not hand out an unchecked algebra
    algebra, _split = five_dim()
    field, labels = algebra.field, algebra.labels
    trusted = LeibnizAlgebra._trusted(field, labels, dict(algebra.products))
    assert trusted == algebra and trusted.identity_verified
    broken = dict(algebra.products)
    broken[(0, 0)] = {3: field.one}          # [e, e] = p
    want = check_leibniz(LeibnizAlgebra(field, labels, broken, check=False))
    assert want
    with pytest.raises(NotLeibnizError) as info:
        LeibnizAlgebra._trusted(field, labels, broken)
    assert info.value.violations == want


def test_trusted_construction_equals_public_on_the_corpus():
    rng = random.Random(30)
    for number, entry in enumerate(standard_entries()):
        algebra, split = entry.instantiate()
        doc = algebra_to_json(algebra, split)
        assert _assert_trusted_equals_public(doc) == algebra
        _assert_trusted_equals_public(_shuffled(doc, rng))
        order = list(range(algebra.dim))
        random.Random(number).shuffle(order)
        permuted, permuted_split, _position = permute_basis(
            algebra, split, order)
        _assert_trusted_equals_public(
            algebra_to_json(permuted, permuted_split))


def test_trusted_construction_equals_public_on_fuzz_documents():
    rng = random.Random(31)
    for p in (5, 7, 101):
        for algebra, split in fuzz_instances(seed=p, count=30, max_dim=4,
                                             field=FieldSpec.prime(p)):
            doc = algebra_to_json(algebra, split)
            assert _assert_trusted_equals_public(
                _shuffled(doc, rng)) == algebra
    # over Q: corpus algebras under seeded random rescalings, whose
    # coefficients have numerators and denominators of several digits
    for entry in standard_entries():
        algebra, split = entry.instantiate()
        for _ in range(5):
            diag = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**4),
                             rng.randint(1, 10**4))
                    for _ in range(algebra.dim)]
            scaled, scaled_split = rescale_basis(algebra, split, diag)
            doc = algebra_to_json(scaled, scaled_split)
            assert _assert_trusted_equals_public(
                _shuffled(doc, rng)) == scaled


def _first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _odd_family_over_distinct_primes(n):
    algebra, split = odd_family(n)
    diag = [Fraction(1, p) for p in _first_primes(algebra.dim)]
    return rescale_basis(algebra, split, diag)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: filiform(2000), id="filiform(2000)"),
    pytest.param(lambda: odd_family(1201), id="odd_family(1201)"),
    pytest.param(lambda: _odd_family_over_distinct_primes(1201),
                 id="odd_family(1201)-distinct-primes"),
])
def test_trusted_construction_equals_public_at_scale(build):
    algebra, split = build()
    doc = json.loads(json.dumps(algebra_to_json(algebra, split)))
    assert _assert_trusted_equals_public(doc) == algebra
