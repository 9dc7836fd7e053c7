"""The numpy kernels must agree exactly with plain scalar loops.

The reference functions below walk every edge vertex by vertex; they are
the specification the vectorised kernels in rainbowspread._kernels match.
"""

import numpy as np
import pytest

from rainbowspread._kernels import (
    cover_hit_time,
    first_rainbow_edge,
    hit_times,
    pack_edges,
    rainbow_hit_time,
)
from rainbowspread.rng import RngStream


def ref_rainbow_hit_time(edges, pos, colors):
    n = len(pos)
    best = n + 1
    for verts in edges:
        ok = True
        t = 0
        for i in range(len(verts)):
            ci = colors[verts[i]]
            for j in range(i + 1, len(verts)):
                if ci == colors[verts[j]]:
                    ok = False
                    break
            if not ok:
                break
            p = pos[verts[i]]
            if p > t:
                t = p
        if ok and t + 1 < best:
            best = t + 1
    return best


def ref_cover_hit_time(edges, pos):
    n = len(pos)
    best = n + 1
    for verts in edges:
        t = 0
        for v in verts:
            p = pos[v]
            if p > t:
                t = p
        if t + 1 < best:
            best = t + 1
    return best


def ref_first_rainbow_edge(edges, wcolor):
    for ei, verts in enumerate(edges):
        ok = True
        for i in range(len(verts)):
            ci = wcolor[verts[i]]
            if ci == 0:
                ok = False
                break
            for j in range(i + 1, len(verts)):
                if ci == wcolor[verts[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return ei
    return -1


def random_instance(rng, n_range, max_edges, size_range, lo, hi):
    """Edges of mixed sizes, colors drawn from [lo, hi], and a partial
    coloring that leaves a vertex unsampled (0) for a draw of lo-1."""
    n = rng.randint(*n_range)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(size_range[0], min(size_range[1], n))
        edges.append(tuple(rng.sample_without_replacement(n, size)))
    perm = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    for i, v in enumerate(perm):
        pos[v] = i
    colors = np.array([rng.randint(lo, hi) for _ in range(n)], dtype=np.int64)
    wcolor = np.array([rng.randint(lo - 1, hi) for _ in range(n)], dtype=np.int64)
    wcolor[wcolor < lo] = 0
    return edges, pos, colors, wcolor


def assert_agree(edges, pos, colors, wcolor):
    matrix, sizes = pack_edges(edges)
    assert rainbow_hit_time(matrix, sizes, pos, colors) == ref_rainbow_hit_time(edges, pos, colors)
    assert cover_hit_time(matrix, pos) == ref_cover_hit_time(edges, pos)
    assert first_rainbow_edge(matrix, sizes, wcolor) == ref_first_rainbow_edge(edges, wcolor)


@pytest.mark.parametrize("stream_id", range(50))
def test_implementations_agree(stream_id):
    rng = RngStream(777, stream_id)
    assert_agree(*random_instance(rng, (2, 12), 15, (1, 5), lo=1, hi=4))


# colors above 63 (up to q=300) would break a 64-bit color mask
@pytest.mark.parametrize("lo,hi", [(250, 300), (60, 70), (1, 3)])
@pytest.mark.parametrize("stream_id", range(20))
def test_agree_wide_colors_mixed_sizes(stream_id, lo, hi):
    rng = RngStream(778, stream_id)
    assert_agree(*random_instance(rng, (9, 30), 10, (2, 9), lo, hi))


# a leading axis of trials (or states), in the narrow dtypes the trial
# engine uses, must give exactly the per-row 1-D results
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("stream_id", range(10))
def test_batched_rows_match_single_rows(stream_id, dtype):
    rows = [random_instance(RngStream(780, 10 * stream_id + k), (12, 12), 15, (1, 5), 1, 4)
            for k in range(6)]
    edges = rows[0][0] if stream_id else []
    matrix, sizes = pack_edges(edges)
    pos, colors, wcolor = (np.stack([row[i] for row in rows]) for i in (1, 2, 3))
    got = (
        rainbow_hit_time(matrix, sizes, pos.astype(dtype), colors.astype(dtype)),
        cover_hit_time(matrix, pos.astype(dtype)),
        first_rainbow_edge(matrix, sizes, wcolor.astype(dtype)),
    )
    want = [
        [rainbow_hit_time(matrix, sizes, p, c) for p, c in zip(pos, colors)],
        [cover_hit_time(matrix, p) for p in pos],
        [first_rainbow_edge(matrix, sizes, w) for w in wcolor],
    ]
    assert [g.tolist() for g in got] == want
    assert want[0] == [ref_rainbow_hit_time(edges, p, c) for p, c in zip(pos, colors)]
    assert want[2] == [ref_first_rainbow_edge(edges, w) for w in wcolor]
    assert all(g.dtype == np.int64 for g in got)


# the fused kernel gives both hit times of each trial, whether it gets
# one trial or a batch in the trial engine's narrow dtype and layout
@pytest.mark.parametrize("batch", [(), (7,)])
@pytest.mark.parametrize("stream_id", range(10))
def test_hit_times_are_the_two_kernels(stream_id, batch):
    rows = [random_instance(RngStream(784, 10 * stream_id + k), (10, 10), 12, (1, 5), 1, 4)
            for k in range(int(np.prod(batch)))]
    edges = rows[0][0] + [(0, 1, 2, 3, 4), (5,)]
    matrix, sizes = pack_edges(edges)
    pos, colors = (np.stack([row[i] for row in rows]).reshape(*batch, 10) for i in (1, 2))
    if batch:
        pos, colors = vertex_major(pos.astype(np.uint8)), vertex_major(colors.astype(np.uint8))
    rainbow, cover = hit_times(matrix, sizes, pos, colors)
    assert np.array_equal(rainbow, rainbow_hit_time(matrix, sizes, pos, colors))
    assert np.array_equal(cover, cover_hit_time(matrix, pos))
    flat_pos, flat_colors = pos.reshape(-1, 10), colors.reshape(-1, 10)
    assert np.ravel(rainbow).tolist() == [ref_rainbow_hit_time(edges, p, c) for p, c in zip(flat_pos, flat_colors)]
    assert np.ravel(cover).tolist() == [ref_cover_hit_time(edges, p) for p in flat_pos]


def vertex_major(values):
    """The same values held vertex-major, batch last, as a view in the
    kernels' (*batch, n) indexing; the trial engine passes such views."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)


# every batch shape, dtype and memory layout gives, element by element,
# what the scalar references give on that element's row
@pytest.mark.parametrize("batch", [(), (1,), (6,), (52,), (3, 4)])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("edges_kind", ["padded", "edgeless"])
@pytest.mark.parametrize("layout", ["batch-major", "vertex-major"])
def test_batch_shapes_match_reference(batch, dtype, edges_kind, layout):
    rows = [random_instance(RngStream(783, k), (12, 12), 15, (1, 5), 1, 4)
            for k in range(int(np.prod(batch)))]
    edges = [] if edges_kind == "edgeless" else rows[0][0] + [(0, 1, 2, 3, 4), (5,)]
    matrix, sizes = pack_edges(edges)
    assert edges_kind == "edgeless" or sizes.min() < matrix.shape[1]  # some slots are padding
    pos, colors, wcolor = (np.stack([row[i] for row in rows]).reshape(*batch, 12).astype(dtype)
                           for i in (1, 2, 3))
    if layout == "vertex-major":
        pos, colors, wcolor = map(vertex_major, (pos, colors, wcolor))
    got = (
        rainbow_hit_time(matrix, sizes, pos, colors),
        cover_hit_time(matrix, pos),
        first_rainbow_edge(matrix, sizes, wcolor),
    )
    want = [
        [ref_rainbow_hit_time(edges, p, c) for p, c in zip(pos.reshape(-1, 12), colors.reshape(-1, 12))],
        [ref_cover_hit_time(edges, p) for p in pos.reshape(-1, 12)],
        [ref_first_rainbow_edge(edges, w) for w in wcolor.reshape(-1, 12)],
    ]
    if batch == ():
        assert all(type(g) is int for g in got)
        assert [[g] for g in got] == want
    else:
        assert all(g.shape == batch and g.dtype == np.int64 for g in got)
        assert [g.ravel().tolist() for g in got] == want


def assert_rows_agree(edges, pos, colors, wcolor):
    """Batched kernels on (rows, n) inputs against the scalar references."""
    matrix, sizes = pack_edges(edges)
    assert rainbow_hit_time(matrix, sizes, pos, colors).tolist() == [
        ref_rainbow_hit_time(edges, p, c) for p, c in zip(pos, colors)]
    assert cover_hit_time(matrix, pos).tolist() == [ref_cover_hit_time(edges, p) for p in pos]
    assert first_rainbow_edge(matrix, sizes, wcolor).tolist() == [
        ref_first_rainbow_edge(edges, w) for w in wcolor]


# the rainbow test compares every pair of slot columns, so each width r
# is its own loop shape; r = 1 has no pair and is always rainbow
@pytest.mark.parametrize("r", range(1, 13))
def test_every_width_matches_reference(r):
    for stream_id in range(8):
        rng = RngStream(781, 100 * r + stream_id)
        edges, pos, colors, wcolor = random_instance(rng, (r, r + 6), 12, (1, r), lo=1, hi=r + 1)
        edges.append(tuple(rng.sample_without_replacement(len(pos), r)))
        assert pack_edges(edges)[0].shape[1] == r
        assert_agree(edges, pos, colors, wcolor)


def test_padded_pair_alone_repeats_a_color():
    # (3, 4) packs as [3, 4, 3] and (5,) as [5, 5, 5]: their only equal
    # colors sit in pairs whose later slot is padding, so both are rainbow
    edges = [(0, 1, 2), (3, 4), (5,)]
    matrix, sizes = pack_edges(edges)
    pos = np.array([[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]], dtype=np.uint8)
    colors = np.array([[1, 1, 2, 1, 2, 3], [1, 2, 3, 3, 3, 1]], dtype=np.uint8)
    assert rainbow_hit_time(matrix, sizes, pos, colors).tolist() == [5, 3]
    wcolor = np.array([[1, 1, 2, 1, 2, 0], [1, 2, 3, 3, 3, 0], [1, 1, 2, 0, 2, 3]], dtype=np.uint8)
    assert first_rainbow_edge(matrix, sizes, wcolor).tolist() == [1, 0, 2]
    assert_rows_agree(edges, pos, colors, wcolor[:2])


# q = 70,000 needs uint32, the trial engine's type for it; colors near
# the top of the range repeat often, uniform ones almost never
@pytest.mark.parametrize("lo", [69_990, 1])
@pytest.mark.parametrize("stream_id", range(6))
def test_wide_q_uint32_rows(stream_id, lo):
    rows = [random_instance(RngStream(782, 10 * stream_id + k), (14, 14), 12, (1, 6), lo, 70_000)
            for k in range(5)]
    edges = rows[0][0] if stream_id else []
    pos, colors, wcolor = (np.stack([row[i] for row in rows]).astype(np.uint32) for i in (1, 2, 3))
    assert_rows_agree(edges, pos, colors, wcolor)


def test_sentinel_beyond_narrow_dtype():
    # n = 255 fills uint8; the no-hit sentinel n + 1 = 256 does not
    n = 255
    matrix, sizes = pack_edges([(0, 254)])
    pos = np.arange(n, dtype=np.uint8)[None, :]
    colors = np.ones((1, n), dtype=np.uint8)
    assert rainbow_hit_time(matrix, sizes, pos, colors).tolist() == [256]
    assert cover_hit_time(matrix, pos).tolist() == [255]
    assert rainbow_hit_time(matrix, sizes, pos[0], colors[0]) == 256


def test_no_edges():
    matrix, sizes = pack_edges([])
    assert matrix.shape == (0, 1) and sizes.shape == (0,)
    pos = np.array([1, 0, 2], dtype=np.int64)
    colors = np.array([1, 2, 3], dtype=np.int64)
    assert rainbow_hit_time(matrix, sizes, pos, colors) == 4
    assert cover_hit_time(matrix, pos) == 4
    assert first_rainbow_edge(matrix, sizes, colors) == -1
    assert_agree([], pos, colors, colors)


def test_pack_edges_pads_with_first_vertex():
    matrix, sizes = pack_edges([(3,), (0, 2, 4), (1, 5)])
    assert matrix.tolist() == [[3, 3, 3], [0, 2, 4], [1, 5, 1]]
    assert matrix.T.flags.c_contiguous  # the kernels' one (r, edges) take index
    assert sizes.tolist() == [1, 3, 2]


def test_hit_time_semantics():
    # edge {0,1}: positions 2 and 0 -> covered at m=3; colors distinct
    matrix, sizes = pack_edges([(0, 1)])
    pos = np.array([2, 0, 1], dtype=np.int64)
    colors = np.array([1, 2, 1], dtype=np.int64)
    assert rainbow_hit_time(matrix, sizes, pos, colors) == 3
    assert cover_hit_time(matrix, pos) == 3
    # same color kills the rainbow hit but not the cover hit
    same = np.array([1, 1, 1], dtype=np.int64)
    assert rainbow_hit_time(matrix, sizes, pos, same) == 4  # sentinel n+1
    assert cover_hit_time(matrix, pos) == 3


def test_first_rainbow_edge_semantics():
    matrix, sizes = pack_edges([(0, 1), (1, 2)])
    assert first_rainbow_edge(matrix, sizes, np.array([1, 1, 2], dtype=np.int64)) == 1
    assert first_rainbow_edge(matrix, sizes, np.array([2, 1, 2], dtype=np.int64)) == 0
    assert first_rainbow_edge(matrix, sizes, np.array([0, 1, 2], dtype=np.int64)) == 1
    assert first_rainbow_edge(matrix, sizes, np.array([1, 1, 1], dtype=np.int64)) == -1
