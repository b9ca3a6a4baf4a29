import math

import numpy as np
import pytest

from tableplan.rng import Rng, fnv1a64, mix64, normal_block

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_published_vector():
    # the canonical SplitMix64 sequence from seed 0; a port in any language
    # must reproduce these integers exactly
    r = Rng(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_mix64_edges():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert 0 <= mix64(2**64 - 1) < 2**64


def test_fnv1a64_known_value():
    # FNV-1a test vector: empty string hashes to the offset basis
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_sequence_is_deterministic():
    a = Rng.substream(42, "x")
    b = Rng.substream(42, "x")
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_substreams_differ_by_tag_and_seed():
    seqs = set()
    for seed, tag in [(1, "a"), (1, "b"), (2, "a")]:
        r = Rng.substream(seed, tag)
        seqs.add(tuple(r.next_u64() for _ in range(4)))
    assert len(seqs) == 3


def test_state_roundtrip():
    r = Rng.substream(7, "t")
    r.next_u64()
    state = r.getstate()
    want = [r.next_u64() for _ in range(5)]
    rebuilt = Rng(state)
    assert [rebuilt.next_u64() for _ in range(5)] == want


def test_random_in_unit_interval():
    r = Rng.substream(0, "u")
    xs = [r.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.4 < sum(xs) / len(xs) < 0.6


def test_uniform_bounds():
    r = Rng.substream(0, "u")
    for _ in range(200):
        x = r.uniform(-3.0, 5.0)
        assert -3.0 <= x < 5.0


def test_randrange_bounds_and_coverage():
    r = Rng.substream(3, "rr")
    seen = {r.randrange(7) for _ in range(500)}
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        r.randrange(0)


def test_randrange_unbiased_small_n():
    r = Rng.substream(9, "bias")
    counts = [0, 0, 0]
    n = 30000
    for _ in range(n):
        counts[r.randrange(3)] += 1
    for c in counts:
        assert abs(c / n - 1 / 3) < 0.02


def test_normal_consumes_exactly_two_draws():
    r1 = Rng.substream(11, "n")
    r2 = Rng.substream(11, "n")
    r1.normal()
    r2.next_u64()
    r2.next_u64()
    assert r1.next_u64() == r2.next_u64()


def test_normal_moments():
    r = Rng.substream(13, "nm")
    xs = [r.normal() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    y = r.normal(10.0, 2.0)
    assert isinstance(y, float)


def test_normal_finite():
    # u1 is clamped away from zero, so log never blows up
    r = Rng.substream(17, "fin")
    assert all(math.isfinite(r.normal()) for _ in range(5000))


# -- counter-based skipping and block draws ------------------------------------

EDGE_STATES = ([0, 1, 2, MASK64, MASK64 - 1, MASK64 - 2, GOLDEN,
                (1 << 63) - 1, 1 << 63]
               + [(-k * GOLDEN) & MASK64 for k in range(1, 40)]
               + [(-k * GOLDEN + 1) & MASK64 for k in range(1, 40)])


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 1000])
def test_advance_equals_next_u64_calls(n):
    gen = np.random.default_rng(n)
    states = EDGE_STATES + [int(s) for s in
                            gen.integers(0, 2**64, 50, dtype=np.uint64)]
    for state in states:
        skipped, walked = Rng(state), Rng(state)
        skipped.advance(n)
        for _ in range(n):
            walked.next_u64()
        assert skipped.getstate() == walked.getstate()
        assert skipped.next_u64() == walked.next_u64()


def sequential_normals(state, n):
    rng = Rng(state)
    values = [rng.normal().hex() for _ in range(n)]
    return values, rng.getstate()


def block_hex(states, n):
    return [[float(x).hex() for x in row] for row in normal_block(states, n)]


def test_normal_block_bit_equal_on_random_states():
    gen = np.random.default_rng(2024)
    states = [int(s) for s in gen.integers(0, 2**64, 10000, dtype=np.uint64)]
    block = block_hex(states, 2)
    for state, row in zip(states, block):
        assert row == sequential_normals(state, 2)[0]


def test_normal_block_bit_equal_at_range_ends():
    # start states whose draws wrap past 2**64, and the first states
    for n in (1, 16):
        block = block_hex(EDGE_STATES, n)
        for state, row in zip(EDGE_STATES, block):
            assert row == sequential_normals(state, n)[0]
    assert normal_block([], 16).shape == (0, 16)


def unmix64(y):
    """The inverse of mix64."""
    def unxorshift(z, k):
        x = z
        for _ in range(64 // k + 1):
            x = z ^ (x >> k)
        return x
    y = unxorshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    y = unxorshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return unxorshift(y, 30)


def test_normal_block_signed_zero():
    # a first draw with all top 53 bits set makes u1 == 1.0, so the radius
    # is -0.0; with a positive cosine the product is -0.0 and `0.0 +`
    # turns it into +0.0.  The block must do the same.
    checked = 0
    for low in range(1 << 11):
        state = (unmix64(0xFFFFFFFFFFFFF800 | low) - GOLDEN) & MASK64
        assert unmix64(mix64(state + GOLDEN)) == (state + GOLDEN) & MASK64
        rng = Rng(state)
        assert ((rng.next_u64() >> 11) + 1) * 2.0**-53 == 1.0
        u2 = (rng.next_u64() >> 11) * 2.0**-53
        if math.cos(2.0 * math.pi * u2) <= 0.0:
            continue
        r = math.sqrt(-2.0 * math.log(1.0))
        assert (r * math.cos(2.0 * math.pi * u2)).hex() == "-0x0.0p+0"
        values, _ = sequential_normals(state, 3)
        assert values[0] == "0x0.0p+0"
        assert block_hex([state], 3)[0] == values
        checked += 1
        if checked == 5:
            break
    assert checked == 5
