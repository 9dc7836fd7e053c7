"""Frozen test vectors and reproducibility guarantees for the RNG."""

import numpy as np
import pytest

from rainbowspread.rng import (
    RngStream,
    accept_limits,
    child_keys,
    mix64,
    mix64_array,
    round_half_up,
    stream_draws,
)


# these vectors pin the generator across platforms and versions
VECTORS = {
    (0, 0): [
        13531679635598416582,
        9664457651337373200,
        13607068477694782483,
        18001386148855437131,
        3311527993084064098,
    ],
    (12345, 7): [
        401690219922805778,
        2454947044388395776,
        13702024371547291545,
        15934473437932055960,
        11743590793414541634,
    ],
    (2**64 - 1, 3): [
        14541563102486119373,
        12921564539877026707,
        17630078900605206383,
    ],
}


@pytest.mark.parametrize("key", sorted(VECTORS))
def test_frozen_vectors(key):
    s = RngStream(*key)
    assert [s.next_u64() for _ in range(len(VECTORS[key]))] == VECTORS[key]


def test_array_draws_match_frozen_vectors():
    for (seed, sid), want in VECTORS.items():
        keys = child_keys(seed, [sid])
        assert int(keys[0]) == RngStream(seed, sid).key
        assert stream_draws(keys, len(want))[0].tolist() == want


def test_mix64_array_matches_scalar():
    s = RngStream(5, 5)
    values = [0, 1, 2**63, 2**64 - 1] + [s.next_u64() for _ in range(200)]
    got = mix64_array(np.array(values, dtype=np.uint64))
    assert got.tolist() == [mix64(v) for v in values]


def test_child_keys_and_stream_draws_match_scalar_streams():
    base = RngStream(2**64 - 7, 11)
    ids = [0, 1, 2, 1000, 2**40, 2**64 - 1]
    keys = child_keys(base.key, ids)
    assert keys.tolist() == [base.child(t).key for t in ids]
    draws = stream_draws(keys, 9)
    for t, row in zip(ids, draws.tolist()):
        child = base.child(t)
        assert row == [child.next_u64() for _ in range(9)]


def test_accept_limits_match_randrange():
    # randrange(m) accepts v < (2**64 // m) * m; for a power of two that
    # bound is 2**64 and every draw is accepted
    mask = 2**64 - 1
    moduli = [1, 2, 3, 7, 8, 2**32, 2**63, 2**63 + 1, 2**64 - 1]
    assert accept_limits(moduli).tolist() == [(2**64 // m) * m - 1 for m in moduli]
    assert accept_limits([1, 8, 2**63]).tolist() == [mask] * 3
    assert accept_limits([3]).tolist() == [mask - 1]
    assert accept_limits([]).shape == (0,)
    for bad in ([4, 0], [2**64]):
        with pytest.raises(ValueError, match="1 <= n < 2"):
            accept_limits(bad)


def test_same_stream_same_draws():
    a, b = RngStream(99, 5), RngStream(99, 5)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_distinct_streams_differ():
    a, b = RngStream(99, 5), RngStream(99, 6)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_randrange_bounds_and_determinism():
    s = RngStream(42, 1)
    vals = [s.randrange(6) for _ in range(1000)]
    assert all(0 <= v < 6 for v in vals)
    assert set(vals) == set(range(6))
    t = RngStream(42, 1)
    assert [v + 1 for v in vals[:8]] == [t.randint(1, 6) for _ in range(8)]
    assert RngStream(42, 1).randrange(2**64) == RngStream(42, 1).next_u64()  # every draw accepted
    for n in (0, 2**64 + 1):  # no draw is ever accepted
        with pytest.raises(ValueError, match="randrange needs 1 <= n <= 2\\*\\*64"):
            s.randrange(n)


def test_randrange_rejects_from_its_threshold_up(monkeypatch):
    # randrange(n) accepts a draw below (2**64 // n) * n and draws again
    # otherwise; 274177 divides 2**64 + 1, so its threshold is 2**64 - 274176
    for n, threshold in ((3, 2**64 - 1), (274177, 2**64 - 274176), (2**63 + 1, 2**63 + 1)):
        draws = iter([threshold, threshold - 1])
        monkeypatch.setattr(RngStream, "next_u64", lambda self: next(draws))
        assert RngStream(0).randrange(n) == (threshold - 1) % n == n - 1


def test_permutation_and_sample():
    perm = RngStream(9, 0).permutation(8)
    assert sorted(perm) == list(range(8))
    assert perm == [5, 6, 2, 4, 1, 7, 3, 0]
    samp = RngStream(9, 0).sample_without_replacement(10, 4)
    assert samp == [4, 6, 7, 8]
    assert RngStream(9, 0).sample_without_replacement(5, 0) == []
    assert RngStream(9, 0).sample_without_replacement(5, 5) == list(range(5))


def test_random_unit_interval():
    s = RngStream(3, 3)
    v = s.random()
    assert v == pytest.approx(0.47131528753024798, abs=0)
    assert all(0.0 <= s.random() < 1.0 for _ in range(1000))


def test_child_streams_are_streams():
    base = RngStream(7)
    assert [base.child(1).next_u64() for _ in range(3)] == [
        base.child(1).next_u64() for _ in range(3)
    ]
    assert base.child(1).next_u64() != base.child(2).next_u64()


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(3.0) == 3


@pytest.mark.parametrize("seed,stream_id,message", [
    (-1, 0, "seed -1 is outside"),
    (2**64, 0, "seed 18446744073709551616 is outside"),
    (0, -1, "stream id -1 is outside"),
    (0, 2**64, "stream id 18446744073709551616 is outside"),
])
def test_seed_and_stream_id_outside_64_bits(seed, stream_id, message):
    with pytest.raises(ValueError, match=message):
        RngStream(seed, stream_id)
    assert RngStream(2**64 - 1, 2**64 - 1).stream_id == 2**64 - 1
