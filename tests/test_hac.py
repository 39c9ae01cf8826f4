import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import hac, memory
from ccl.data import BLOCK_ROWS, sq_norms
from ccl.hac import _half_sq_distances, _nn_chain_merges, ward_hac, ward_matrix_bytes
from ccl.labeling import relabel_contiguous

from oracles import (
    canonical,
    doubled_tile_half_sq_distances,
    loop_nn_chain_merges,
    naive_ward,
    sq_dist_to_all,
    union_find_ward_replay,
)


def test_identity_at_c_equals_n():
    points = np.random.default_rng(0).normal(size=(9, 3))
    result = ward_hac(points, 9)
    np.testing.assert_array_equal(result.labels, np.arange(9))
    assert result.merge_log == []


def test_two_far_pairs():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    result = ward_hac(points, 2)
    np.testing.assert_array_equal(result.labels, [0, 0, 1, 1])
    # close pairs merge first at cost ||a-b||^2 / 2
    assert result.merge_log[0][2] == pytest.approx(0.005)
    assert result.merge_log[1][2] == pytest.approx(0.005)


def test_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(3, 64))
        d = int(rng.integers(2, 8))
        c = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, d))
        result = ward_hac(points, c)
        np.testing.assert_array_equal(result.labels, naive_ward(points, c))
        assert len(result.merge_log) == n - c


def test_merge_costs_non_decreasing():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(50, 4))
    result = ward_hac(points, 1)
    costs = [m[2] for m in result.merge_log]
    assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))
    assert len(costs) == 49


def test_merge_log_dendrogram_ids():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    result = ward_hac(points, 1)
    a, b, _ = result.merge_log[2]
    # the last merge joins the two pair-clusters created by merges 0 and 1
    assert {a, b} == {4, 5}


def test_permutation_invariance_up_to_relabel():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(30, 5))
    base = ward_hac(points, 4).labels
    perm = rng.permutation(30)
    permuted = ward_hac(points[perm], 4).labels
    # map permuted labels back to original row order and canonicalize
    back = np.empty(30, dtype=np.int64)
    back[perm] = permuted
    np.testing.assert_array_equal(canonical(back), relabel_contiguous(base))


def test_bounds_checked():
    points = np.zeros((3, 2)) + np.arange(3)[:, None]
    with pytest.raises(ValueError):
        ward_hac(points, 4)
    with pytest.raises(ValueError):
        ward_hac(points, 0)


def half_distances(points):
    """The program's float32 Ward matrix of points, in its grouped layout."""
    return _half_sq_distances(points, np.einsum("ij,ij->i", points, points))


def square(t, n):
    """The n x n matrix held by the program's matrix t over n points, read row
    by row with the program's own row reader, whatever its layout."""
    start = hac._group_starts(n)
    rows = np.empty((n, 8 * (start.size - 1)), dtype=np.float32)
    for k in range(n):
        hac._read_row(t, start, k, n, rows[k])
    return rows[:, :n]


def assert_merges_match_loop_oracle(points):
    """The program's merges on its matrix of points equal the loop oracle's,
    cost bits included; returns the oracle's merges."""
    n = points.shape[0]
    t = half_distances(points)
    want = loop_nn_chain_merges(square(t, n))  # on a copy: the program uses t up
    got = _nn_chain_merges(t, n)
    assert [m[:2] for m in got] == [m[:2] for m in want]
    costs = np.array([m[2] for m in got], dtype=np.float64)
    assert costs.tobytes() == np.array([m[2] for m in want], dtype=np.float64).tobytes()
    return want


def ward_instance(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(n, d))
    if kind == "lattice":  # small integer coordinates: many exactly tied costs
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    if kind == "line":  # shrinking gaps along one axis: long nearest-neighbour chains
        points = np.zeros((n, d))
        points[rng.permutation(n), 0] = np.cumsum(np.sort(rng.random(n))[::-1])
        return points
    distinct = rng.normal(size=(max(1, n // 4), d))
    return distinct[rng.integers(0, distinct.shape[0], n)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), d=st.integers(1, 16),
       kind=st.sampled_from(["normal", "lattice", "duplicates", "line"]))
def test_merges_match_loop_oracle_bitwise(seed, n, d, kind):
    assert_merges_match_loop_oracle(ward_instance(seed, n, d, kind))


def test_chain_longer_than_its_cached_rows_matches_loop_oracle_bitwise():
    # Gaps shrink along a line of 80 points, so the chain from point 0 walks
    # all of them, past the loop's 64 cached chain rows. A tight blob beyond
    # the line's end is nearer to that end than its neighbour is, so the blob
    # merges away, and the matrix is compacted, with the whole line still on
    # the chain.
    line, blob = 80, 100
    points = np.zeros((line + blob, 2))
    points[:line, 0] = np.cumsum(np.linspace(2.0, 1.0, line))
    points[line:] = (points[line - 1, 0] + 0.5, 0.0)
    points[line:] += 0.01 * np.random.default_rng(0).normal(size=(blob, 2))
    want = assert_merges_match_loop_oracle(points)
    assert min(min(m[:2]) for m in want[: blob - 1]) >= line


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 6),
       kind=st.sampled_from(["normal", "lattice", "duplicates", "line"]), data=st.data())
def test_labels_and_merge_log_match_union_find_replay(seed, n, d, kind, data):
    points = ward_instance(seed, n, d, kind)
    c = data.draw(st.integers(1, n), label="c")
    result = ward_hac(points, c)
    labels, merge_log = union_find_ward_replay(loop_nn_chain_merges(square(half_distances(points), n)), n, c)
    np.testing.assert_array_equal(result.labels, labels)
    assert result.merge_log == merge_log


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 255, 256, 257, 263, 511, 513, 1100])
def test_blocked_distances_match_full_build_bitwise(monkeypatch, n):
    points = np.random.default_rng(n).normal(size=(n, 7))
    want = (sq_dist_to_all(points) / 2.0).astype(np.float32)
    # The diagonal is +inf; a blocked GEMM may round x_i.x_i differently from
    # the full one.
    off = ~np.eye(n, dtype=bool)
    # Blocks of 1 and 7 rows finish each tile in several row blocks.
    for block in (BLOCK_ROWS, 1, 7):
        monkeypatch.setattr("ccl.data.BLOCK_ROWS", block)
        got = square(half_distances(points), n)
        assert got.dtype == np.float32
        assert got[off].tobytes() == want[off].tobytes()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 255, 256, 257, 513])
def test_build_writes_inf_on_the_diagonal_and_nowhere_else(n):
    # The merge loop reads the built matrix as it is: no pass of its own
    # writes the diagonal.
    got = square(half_distances(np.random.default_rng(n).normal(size=(n, 5))), n)
    assert np.isposinf(np.diagonal(got)).all()
    assert np.isfinite(got[~np.eye(n, dtype=bool)]).all()


@pytest.mark.parametrize("d", [1, 7, 256, 300])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 255, 256, 257, 511, 512, 513, 1100])
def test_float32_rows_build_the_matrix_of_their_float64_copy_bitwise(n, d):
    # Tiles are 256 x 512 and read their rows in the caller's dtype, so n
    # crosses tile and row-group edges and d the float64 GEMM's depth blocks.
    rows = np.random.default_rng(n * d).normal(size=(n, d)).astype(np.float32)
    sq = sq_norms(rows)
    wide = rows.astype(np.float64)
    assert sq.tobytes() == np.einsum("ij,ij->i", wide, wide).tobytes()
    assert square(_half_sq_distances(rows, sq), n).tobytes() == square(half_distances(wide), n).tobytes()


@pytest.mark.parametrize("kind", ["normal", "near"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 7, 128, 256, 300])
@pytest.mark.parametrize("n", [1, 7, 8, 255, 256, 257, 513, 1003])
def test_half_norm_tiles_build_the_doubled_tile_matrix_bitwise(n, d, dtype, kind):
    # Halving is exact, so products finished with half norms and rounded once
    # to float32 are the doubled build's halved float32 tiles. At n <= 256 one
    # diagonal tile holds every row, where a float64 view as the left factor
    # would reach the symmetric x @ x.T kernel; its rounding shows in float32
    # where distances cancel, between near-duplicate rows.
    rng = np.random.default_rng(n * d)
    rows = rng.normal(size=(n, d))
    if kind == "near":
        rows = 4.0 * rng.normal(size=d) + 1e-3 * rows
    rows = rows.astype(dtype)
    sq = sq_norms(rows)
    want = doubled_tile_half_sq_distances(rows, sq, hac._TILE_ROWS, hac._TILE_COLS)
    assert square(_half_sq_distances(rows, sq), n).tobytes() == want.tobytes()


# Prints a sha256 of each case's matrix entries, read row by row through
# _read_row: the padding of the last row group is np.empty, never read, and
# differs between processes.
WARD_ENTRIES_SCRIPT = """
import hashlib
import numpy as np
from ccl.data import sq_norms
from ccl.hac import _GROUP, _group_starts, _half_sq_distances, _read_row
for n, d, dtype in ((7, 2, "float64"), (1003, 2, "float32"), (1003, 8, "float64"),
                    (600, 512, "float32"), (1003, 1024, "float64")):
    rows = np.random.default_rng(n * d).normal(size=(n, d)).astype(dtype)
    t, start = _half_sq_distances(rows, sq_norms(rows)), _group_starts(n)
    out, digest = np.empty(-(-n // _GROUP) * _GROUP, np.float32), hashlib.sha256()
    for slot in range(n):
        digest.update(_read_row(t, start, slot, n, out).tobytes())
    print(n, d, dtype, digest.hexdigest())
"""


def test_ward_matrix_does_not_depend_on_the_blas_thread_count():
    """The matrix entries at low and high D are identical at 1 and 2 BLAS
    threads, each count in a fresh process."""
    path = [str(Path(hac.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   **{name: threads for name in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        result = subprocess.run([sys.executable, "-c", WARD_ENTRIES_SCRIPT], capture_output=True,
                                text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout.splitlines())
    assert len(printed[0]) == 5 and printed[0] == printed[1]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), d=st.integers(1, 16),
       kind=st.sampled_from(["normal", "lattice", "duplicates", "line"]))
def test_blocked_distances_stay_within_gemm_rounding_of_full_build(seed, n, d, kind):
    points = ward_instance(seed, n, d, kind)
    got32 = square(half_distances(points), n)
    assert got32.tobytes() == got32.T.tobytes()
    got = got32.astype(np.float64)
    want = (sq_dist_to_all(points) / 2.0).astype(np.float32).astype(np.float64)
    sq = np.einsum("ij,ij->i", points, points)
    # Off the diagonal each entry is the full build's float32 value, up to
    # float64 GEMM rounding of x_i.x_j (visible where the distance cancels to
    # ~0) and one float32 step when that rounding crosses a float32 boundary.
    slack = 2.0**-45 * (sq[:, None] + sq[None, :]) + np.spacing(want.astype(np.float32))
    off = ~np.eye(n, dtype=bool)
    assert (np.abs(got - want) <= slack)[off].all()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 131])
def test_compaction_keeps_the_live_submatrix_bitwise(n):
    # Live sets of every size, so the packed width and its last group cross
    # group edges; compaction is in place and reads no entry it overwrote.
    rng = np.random.default_rng(n)
    for _ in range(10):
        t = half_distances(rng.normal(size=(n, 3)))
        want = square(t, n)
        slots = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        hac._compact(t, hac._group_starts(n), slots)
        assert square(t, slots.size).tobytes() == want[np.ix_(slots, slots)].tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200, 1e18])
def test_non_finite_or_overflowing_points_are_rejected(value):
    points = np.random.default_rng(0).normal(size=(20, 3))
    points[7, 1] = value
    with pytest.raises(ValueError, match="^point row 7 is not finite or its squared norm exceeds"):
        ward_hac(points, 3)


def test_largest_accepted_points_merge_at_finite_costs():
    # Two far groups with squared norms just under the limit: the costliest
    # merges a float32 loop can meet, and every one stays finite.
    n = 101
    points = np.zeros((n, 2))
    points[: n // 2, 0], points[n // 2:, 0] = 1.0, -1.0
    points[:, 1] = np.linspace(-1e-3, 1e-3, n)
    points *= np.sqrt(0.999 * np.finfo(np.float32).max / (2.0 * n * n) / (1.0 + 1e-6))
    result = ward_hac(points, 1)
    assert np.isfinite([m[2] for m in result.merge_log]).all()
    np.testing.assert_array_equal(ward_hac(points, 2).labels, np.repeat([0, 1], [n // 2, n - n // 2]))


def test_peak_memory_is_one_distance_matrix():
    n = 3000
    points = np.random.default_rng(3).normal(size=(n, 32))
    tracemalloc.start()
    try:
        ward_hac(points, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ward_matrix_bytes(n)


def test_merge_loop_adds_no_more_than_its_chain_rows_and_1_mib():
    # Besides the matrix it uses up, the loop holds its cached chain rows and,
    # while compacting, one 8-row block of the matrix.
    n = 3000
    t = half_distances(np.random.default_rng(3).normal(size=(n, 32)))
    tracemalloc.start()
    try:
        _nn_chain_merges(t, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (hac._CHAIN_ROWS + 2) * n * 4 + 2**20


def test_float32_points_add_no_more_than_4_mib_to_the_matrix():
    # The build converts only a tile's rows to float64, so no N x D float64
    # copy of the points and no 256 x N block is held next to the matrix.
    n = 3000
    points = np.random.default_rng(3).normal(size=(n, 256)).astype(np.float32)
    tracemalloc.start()
    try:
        ward_hac(points, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ward_matrix_bytes(n) + 4 * 2**20


def test_nn_chain_on_a_nan_matrix_raises_instead_of_looping():
    n = 50
    t = half_distances(np.random.default_rng(0).normal(size=(n, 4)))
    i, j = 3, 41  # one symmetric pair: row and column i, rewritten with the program's writer
    start = hac._group_starts(n)
    row = np.empty(8 * (start.size - 1), dtype=np.float32)
    hac._read_row(t, start, i, n, row)
    row[j] = np.nan
    hac._write_merged(t, start, i, n, row)

    def hang(signum, frame):
        raise TimeoutError("the NN-chain loop ran for 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match=r"pushed past its bound of 2\(N-1\) = 98 after"):
            _nn_chain_merges(t, n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, groups", [(1, 1), (8, 1), (9, 2), (8000, 1000)])
def test_matrix_bytes_count_the_grouped_layout(n, groups):
    # Group g of 8 rows holds columns 0..8g+7: 8 x 4 (g + 1) bytes per row.
    assert ward_matrix_bytes(n) == 128 * groups * (groups + 1)
    if n < 100:
        assert ward_matrix_bytes(n) == half_distances(np.zeros((n, 2))).nbytes


def test_matrix_larger_than_physical_memory_is_refused_before_allocating(monkeypatch):
    points = np.random.default_rng(0).normal(size=(20, 3))
    need = ward_matrix_bytes(20)
    monkeypatch.setattr(hac, "_half_sq_distances", None)  # any allocation would fail
    monkeypatch.setattr(memory, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"^Ward HAC over 20 points needs a {need}-byte distance "
                                         f"matrix, more than the {need - 1} bytes of physical "
                                         "memory$"):
        ward_hac(points, 3)


V1_LIMIT = "memory/jobs/a/memory.limit_in_bytes"


@pytest.mark.parametrize("physical, cgroup, message", [
    (lambda need: need - 1, lambda need: None, "{less} bytes of physical memory"),
    (lambda need: need - 1, lambda need: (10**12, V1_LIMIT), "{less} bytes of physical memory"),
    (lambda need: 10**12, lambda need: (need - 1, V1_LIMIT), "{less}-byte memory limit of " + V1_LIMIT),
], ids=["no-cgroup-limit", "physical-smaller", "cgroup-smaller"])
def test_matrix_larger_than_the_smaller_memory_limit_is_refused_naming_it(
        monkeypatch, physical, cgroup, message):
    need = ward_matrix_bytes(20)
    monkeypatch.setattr(hac, "_half_sq_distances", None)  # any allocation would fail
    monkeypatch.setattr(memory, "_physical_memory", lambda: physical(need))
    monkeypatch.setattr(memory, "_cgroup_memory_limit", lambda: cgroup(need))
    with pytest.raises(ValueError, match=f"^Ward HAC over 20 points needs a {need}-byte distance "
                                         f"matrix, more than the {message.format(less=need - 1)}$"):
        ward_hac(np.random.default_rng(0).normal(size=(20, 3)), 3)


def test_matrix_within_both_limits_passes_the_check(monkeypatch):
    need = ward_matrix_bytes(20)
    monkeypatch.setattr(memory, "_physical_memory", lambda: need)
    monkeypatch.setattr(memory, "_cgroup_memory_limit", lambda: (need, V1_LIMIT))
    hac.check_ward_memory(20)


@pytest.mark.parametrize("lines, files, want", [
    (["4:memory:/jobs/a", "0::/"], {V1_LIMIT: "1048576\n"}, (1048576, V1_LIMIT)),
    (["4:memory:/jobs/a"], {V1_LIMIT: "9223372036854771712\n"}, (9223372036854771712, V1_LIMIT)),
    (["0::/jobs/b"], {"jobs/b/memory.max": "2097152\n"}, (2097152, "jobs/b/memory.max")),
    (["0::/jobs/b"], {"jobs/b/memory.max": "max\n"}, None),
    (["4:memory:/jobs/a", "0::/jobs/b"], {}, None),
    (["5:cpu,memory:/jobs/a", "0::/jobs/b"], {V1_LIMIT: "300\n", "jobs/b/memory.max": "200\n"},
     (200, "jobs/b/memory.max")),
    (["1:cpu:/jobs/a", "no colons"], {"cpu/jobs/a/memory.limit_in_bytes": "5\n"}, None),
    # a limit set only on an ancestor, up to the root, binds the process too
    (["0::/jobs/b"], {"jobs/memory.max": "4096\n"}, (4096, "jobs/memory.max")),
    (["4:memory:/jobs/a"], {V1_LIMIT: "9223372036854771712\n",
                            "memory/memory.limit_in_bytes": "8192\n"},
     (8192, "memory/memory.limit_in_bytes")),
    (["0::/jobs/b/c"], {"jobs/b/c/memory.max": "100\n", "jobs/memory.max": "200\n"},
     (100, "jobs/b/c/memory.max")),
], ids=["v1", "v1-unlimited", "v2", "v2-max", "missing", "smaller-of-both", "no-memory-controller",
        "v2-parent", "v1-root", "own-below-ancestor"])
def test_cgroup_memory_limit_reads_the_process_cgroup_files(tmp_path, monkeypatch, lines, files, want):
    proc = tmp_path / "cgroup"
    proc.write_text("\n".join(lines) + "\n")
    root = tmp_path / "fs"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    monkeypatch.setattr(memory, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(memory, "_CGROUP_ROOT", str(root))
    assert memory._cgroup_memory_limit() == (None if want is None else (want[0], str(root / want[1])))


def test_cgroup_memory_limit_without_a_cgroup_file_is_none(tmp_path, monkeypatch):
    monkeypatch.setattr(memory, "_PROC_CGROUP", str(tmp_path / "missing"))
    assert memory._cgroup_memory_limit() is None
