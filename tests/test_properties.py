"""Property tests over random shift specs: the engine against the
brute-force oracle, S/-S mirror symmetry, the one-pass mirrored
trapezoid sweep against a sweep of each unmirrored board on its own,
the glr3 oracle under a swap of rows 1 and 2, 3-row engine counts
across the twelve row-order and mirror images of a spec, past brute
force, the 2-row sweep against its rational kernel, and exact-cover
counts against tiling enumeration.

Examples are derandomized and not stored, so the run is repeatable and
writes nothing."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from latinrect import oracle
from latinrect.dp import kernel2, rectangle, trapezoid3, weight_snapshots
from latinrect.sequences import gen_der_seq, glr3_seq
from latinrect.tiles import UNIT_WEIGHT, ShiftSpec, Tile, enumerate_tiles
from test_dp import ReferenceSweep
from witnesses import images, mirrored

N_MAX = 5

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

shift_sets = st.frozensets(st.integers(-2, 2), max_size=3)
three_row_specs = st.builds(ShiftSpec.three_rows, shift_sets, shift_sets, shift_sets)


@PROPERTY
@given(st.frozensets(st.integers(-3, 3), max_size=4))
def test_two_row_engine_equals_oracle(shifts):
    got = gen_der_seq(shifts, N_MAX, oracle_depth=0).terms
    assert got == [oracle.count_generalized_perms(shifts, n) for n in range(1, N_MAX + 1)]


@PROPERTY
@given(three_row_specs)
def test_three_row_engine_equals_oracle(spec):
    got = glr3_seq(spec.s12, spec.s13, spec.s23, N_MAX, oracle_depth=0).terms
    want = [oracle.count_glr3(spec.s12, spec.s13, spec.s23, n) for n in range(1, N_MAX + 1)]
    assert got == want


@PROPERTY
@given(st.frozensets(st.integers(-3, 3), max_size=4), three_row_specs)
def test_mirror_symmetry(shifts, spec):
    assert (gen_der_seq(shifts, N_MAX, oracle_depth=0).terms
            == gen_der_seq({-s for s in shifts}, N_MAX, oracle_depth=0).terms)
    mirror = mirrored(spec)
    assert (glr3_seq(spec.s12, spec.s13, spec.s23, N_MAX, oracle_depth=0).terms
            == glr3_seq(mirror.s12, mirror.s13, mirror.s23, N_MAX, oracle_depth=0).terms)


def per_n_trapezoid(spec: ShiftSpec, n: int):
    """P_n of the trapezoid with rows n, n-1, n-2 swept as drawn: the
    short rows miss a suffix that depends on n, so each n is a sweep
    of its own."""
    board = trapezoid3()
    sweep = ReferenceSweep(enumerate_tiles(spec), board)
    dist = {0: {0: 1}}
    for column in range(n):
        blocked = tuple(column >= length for length in board.row_lengths(n))
        dist = sweep.advance(dist, blocked)
    return sweep.unpack(dist.get(0, {}))


@PROPERTY
@given(three_row_specs)
def test_mirrored_trapezoid_equals_per_n_sweep(spec):
    for n, p in weight_snapshots(enumerate_tiles(spec), trapezoid3(), N_MAX):
        assert p == per_n_trapezoid(spec, n), (spec.describe(), n)


@PROPERTY
@given(st.frozensets(st.integers(-3, 3)))
def test_kernel_series_equals_two_row_sweep(shifts):
    sweep = [p for _, p in weight_snapshots(
        enumerate_tiles(ShiftSpec.two_rows(shifts)), rectangle(2), 10)]
    assert kernel2(shifts).series(10) == sweep


@PROPERTY
@given(st.one_of(st.builds(ShiftSpec.two_rows, shift_sets), three_row_specs))
def test_unit_weight_sweep_counts_exact_covers(spec):
    tiles = enumerate_tiles(spec)
    unsigned = [Tile(cells=t.cells, coefficient=1, weight=UNIT_WEIGHT) for t in tiles]
    board = rectangle(spec.rows)
    for n, p in weight_snapshots(unsigned, board, N_MAX):
        assert p.constant_term() == oracle.count_tilings(tiles, board.row_lengths(n)), \
            (spec.describe(), n)


@PROPERTY
@given(three_row_specs)
def test_glr3_oracle_row_swap(spec):
    # rows 1 and 2 trade places: s12 and s13 swap, and s23 turns into -s23
    for n in range(1, N_MAX + 1):
        assert oracle.count_glr3(spec.s12, spec.s13, spec.s23, n) == oracle.count_glr3(
            spec.s13, spec.s12, {-s for s in spec.s23}, n), (spec.describe(), n)


def image_terms(spec: ShiftSpec, n_terms: int) -> dict[ShiftSpec, list[int]]:
    """Engine terms, oracle off, of each distinct image of spec."""
    return {image: glr3_seq(image.s12, image.s13, image.s23, n_terms, oracle_depth=0).terms
            for image in dict.fromkeys(images(spec))}


@settings(PROPERTY, max_examples=10)
@given(three_row_specs)
def test_three_row_counts_agree_across_images(spec):
    # unlike the mirror and the 1<->2 swap, most images move row 0, the
    # row that carries x1, the key's a1 and the operator's C(n - a1, a23)
    terms = image_terms(spec, 8)
    assert len(set(map(tuple, terms.values()))) == 1, (spec.describe(), terms)


def test_super_latin_images_to_16():
    terms = image_terms(ShiftSpec.three_rows({-1, 0, 1}, {-2, 0, 2}, {-1, 0, 1}), 16)
    assert len(terms) == 3 and len(set(map(tuple, terms.values()))) == 1


def test_row_0_images_to_14():
    """The spec and the four images that move another row to row 0."""
    spec = ShiftSpec.three_rows({0, 1}, {-2}, {0, 3})
    # images() takes the row orders as permutations() lists them, so the
    # first four images keep row 0, and every second one is a mirror
    moved = images(spec)[4::2]
    assert len(set(moved)) == 4 and spec not in moved
    want = glr3_seq(spec.s12, spec.s13, spec.s23, 14, oracle_depth=0).terms
    for image in moved:
        assert glr3_seq(image.s12, image.s13, image.s23, 14, oracle_depth=0).terms == want, \
            image.describe()
