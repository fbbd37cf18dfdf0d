"""Property tests (Hypothesis): the LaurentPoly ring laws with the int
scalar, the TruncatedSeries min-cap rule, the Partition row edits, and
the packed form of the Andrews triples.

Derandomized, with no example database and a bounded number of examples,
so a run is deterministic and leaves no files in the working tree.
"""

import atexit
import shutil
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st  # noqa: E402

# Hypothesis caches the constants of local modules in its storage directory
# whatever the database setting, from collection on: keep that cache in a
# temporary directory, removed when the test process exits.
STORAGE = tempfile.mkdtemp(prefix="qtelescope-hypothesis-")
configuration.set_hypothesis_home_dir(STORAGE)
atexit.register(shutil.rmtree, STORAGE, ignore_errors=True)

from qtelescope import andrews12  # noqa: E402
from qtelescope.andrews12 import Triple, in_P, involution, phi  # noqa: E402
from qtelescope.partitions import Partition, staircase  # noqa: E402
from qtelescope.qalgebra import LaurentPoly, TruncatedSeries, truncate  # noqa: E402
from qtelescope.telescope import MarkedObject, weight_of  # noqa: E402

from partition_edits import drop_first_rows, with_part, without_part  # noqa: E402
from reference_enumerators import coeffs  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)

small = st.integers(-4, 4)
coeff = st.integers(-9, 9)
polys = st.dictionaries(st.tuples(small, small), coeff, max_size=5).map(LaurentPoly)
# z-free polynomials with exponents 0..12, and caps 0..12
series_polys = st.dictionaries(st.tuples(st.just(0), st.integers(0, 12)), coeff,
                               max_size=6).map(LaurentPoly)
caps = st.integers(0, 12)
partitions = st.lists(st.integers(0, 9), max_size=6).map(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))))

ZERO, ONE = LaurentPoly.zero(), LaurentPoly.one()


# the ring Z[z, 1/z, q, 1/q] ------------------------------------------------

@PROPERTY
@given(polys, polys, polys)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert not (a * ZERO)
    assert not (a + (-a))
    assert a - b == a + (-b)


@PROPERTY
@given(polys, polys, coeff, coeff)
def test_laurent_int_scalar_is_the_constant_polynomial(a, b, m, n):
    assert a * m == a * LaurentPoly.monomial(m) == m * a
    assert (a * m) * n == a * (m * n)
    assert (a + b) * m == a * m + b * m
    assert a * (m + n) == a * m + a * n
    assert (a * 0).is_zero() and a * 1 == a and a * -1 == -a


# truncated series: the min-cap rule ------------------------------------------

def cut(poly, cap):
    return {q: c for _z, q, c in poly.terms() if q <= cap}


@PROPERTY
@given(series_polys, caps, series_polys, caps, series_polys)
def test_series_combine_at_the_smaller_cap(a, cap_a, b, cap_b, p):
    x, y = truncate(a, cap_a), truncate(b, cap_b)
    low = min(cap_a, cap_b)
    assert coeffs(x) == cut(a, cap_a)
    for result, exact in ((x + y, a + b), (x - y, a - b)):
        assert result.cap == low
        assert coeffs(result) == cut(exact, low)
    product = x.mul_poly(p)
    assert product.cap == cap_a
    assert coeffs(product) == cut(a * p, cap_a)
    assert TruncatedSeries(cap_a, {q: c for _z, q, c in a.terms()}) == x


# partitions: row edits -------------------------------------------------------

@PROPERTY
@given(partitions, st.integers(0, 10))
def test_with_part_and_without_part_are_inverse(p, value):
    grown = with_part(p, value)
    assert grown.weight == p.weight + value and grown.length == p.length + 1
    assert value in grown.parts
    assert without_part(grown, value) == p
    for part in p.parts:
        assert with_part(without_part(p, part), part) == p


@PROPERTY
@given(partitions, st.integers(0, 8), st.integers(0, 8))
def test_drop_first_rows_drops_the_largest_rows(p, a, b):
    if a > p.length:
        with pytest.raises(ValueError):
            drop_first_rows(p, a)
        return
    rest = drop_first_rows(p, a)
    assert rest.parts == p.parts[a:]
    assert rest.weight == p.weight - sum(p.parts[:a])
    if a + b <= p.length:
        assert drop_first_rows(rest, b) == drop_first_rows(p, a + b)
    assert drop_first_rows(p, 0) == p


# Andrews triples: the packed form ----------------------------------------------

def draw_member(draw, n, k, mu_max=6):
    """A member of P(n,k), drawn."""
    lam = draw(st.sets(st.integers(n - k + 1, n + k))) if k else ()
    mu = draw(st.lists(st.integers(1, k), max_size=mu_max)) if k else ()
    return Triple(staircase(n - k), Partition(tuple(sorted(lam, reverse=True))),
                  Partition(tuple(sorted((2 * j for j in mu), reverse=True))))


@st.composite
def members(draw):
    """(n, k, t, slack): t in P(n,k), and a cap slack of 0..20."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n))
    return n, k, draw_member(draw, n, k), draw(st.integers(0, 20))


def packed_copies(n, t, slack):
    """t and its marker-(2n-1) copy, each with the layout of its weight plus slack."""
    copies = [t] + ([MarkedObject(2 * n - 1, t)] if n else [])
    return [(x, andrews12._layout(n, weight_of(x)[2] + slack)) for x in copies]


@PROPERTY
@given(members())
def test_packed_form_round_trips(member):
    n, k, t, slack = member
    assert in_P(n, k, t)
    for x, lay in packed_copies(n, t, slack):
        assert andrews12._decoder(lay)(andrews12._encode(x, lay)) == x


def kernel_weight(x, lay, k):
    """The weight key the Andrews kernels read off a packed x at index k,
    composed as they compose it from andrews12._reader: weight << 1 |
    parity of lam's length."""
    below, head, at, mask, split, low, high, scale = andrews12._reader(lay, k)
    mu = x >> at
    read = head[x & below] + (low[mu & mask] + high[mu >> split] << scale)
    return -1 if read & 1 else 1, 0, read >> 1


@PROPERTY
@given(members())
def test_packed_weight_is_weight_of(member):
    n, k, t, slack = member
    for x, lay in packed_copies(n, t, slack):
        assert kernel_weight(andrews12._encode(x, lay), lay, k) == weight_of(x)


@PROPERTY
@given(st.data())
def test_a_full_mu_field_survives_one_map_step(data):
    # An element of a map's domain whose mu holds as many copies of one
    # part 2j as the cap allows; its packed image at the cap's layout
    # decodes to the map's image, re-encodes to the same int and keeps the
    # element's unsigned weight.
    n = data.draw(st.integers(2, 6))
    k = data.draw(st.integers(0, n))
    marked = k >= 2 and data.draw(st.booleans())
    level = (n - 1, k - 1) if marked else (n, k)
    t = draw_member(data.draw, *level, mu_max=2)
    marker = 2 * n - 1 if marked else 0
    base = marker + t.total_weight
    cap = base + data.draw(st.integers(0, 30))
    if level[1]:
        j = data.draw(st.integers(1, level[1]))
        mu = Partition(tuple(sorted(t.mu.parts + (2 * j,) * ((cap - base) // (2 * j)),
                                    reverse=True)))
        t = Triple(t.tau, t.lam, mu)
    x = MarkedObject(marker, t) if marked else t
    name = andrews12.lowering_map(n, k)
    lay = andrews12._layout(n, cap)
    rule = {"phi": andrews12._phi_rule, "involution": andrews12._involution_rule}[name]
    y = rule(n, k, lay)(andrews12._encode(x, lay))
    image = andrews12._decoder(lay)(y)
    assert andrews12._encode(image, lay) == y
    assert image == {"phi": phi, "involution": involution}[name](n, k, x)
    assert weight_of(image)[1:] == weight_of(x)[1:]
