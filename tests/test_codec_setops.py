"""Set-operation tests for the quadtree representation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.quadtree import QuadtreeCodec
from repro.codec.setops import intersect_points, union_points

FLAG_A, FLAG_B, FLAG_BOTH = 0b10, 0b01, 0b11


def test_union_merges_flags():
    """'10' union '01' on the same Z-number gives '11' (both relations)."""
    merged = union_points([(FLAG_A, 5)], [(FLAG_B, 5)])
    assert merged == frozenset({(FLAG_BOTH, 5)})


def test_union_disjoint_points():
    merged = union_points([(FLAG_A, 1)], [(FLAG_B, 2)])
    assert merged == frozenset({(FLAG_A, 1), (FLAG_B, 2)})


def test_union_is_commutative_and_idempotent():
    a = [(FLAG_A, 1), (FLAG_BOTH, 2)]
    b = [(FLAG_B, 1)]
    assert union_points(a, b) == union_points(b, a)
    assert union_points(a, a) == frozenset(a)


def test_intersect_ands_flags():
    common = intersect_points([(FLAG_BOTH, 5)], [(FLAG_A, 5)])
    assert common == frozenset({(FLAG_A, 5)})


def test_intersect_drops_flagless_points():
    # A-only on one side, B-only on the other: flags AND to zero -> gone.
    assert intersect_points([(FLAG_A, 5)], [(FLAG_B, 5)]) == frozenset()


def test_intersect_requires_shared_z():
    assert intersect_points([(FLAG_BOTH, 1)], [(FLAG_BOTH, 2)]) == frozenset()


def sets(codec):
    flags = st.integers(min_value=1, max_value=3)
    zs = st.integers(min_value=0, max_value=(1 << codec.z_bits) - 1)
    return st.frozensets(st.tuples(flags, zs), max_size=25)


@settings(deadline=None)
@given(st.data())
def test_union_never_larger_than_operand_sum(data):
    """Merging subtree structures never inflates the wire size beyond the
    concatenation of the operands (the reason nodes merge before sending)."""
    codec = QuadtreeCodec(2, [2, 2, 2])
    a = data.draw(sets(codec))
    b = data.draw(sets(codec))
    merged_size = codec.encoded_size_bits(union_points(a, b))
    separate = codec.encoded_size_bits(a) + codec.encoded_size_bits(b)
    if a or b:
        assert merged_size <= separate + 2  # +list terminator slack
