import pytest

from letterlab.markov import _DRAW_BLOCK
from letterlab.rng import SplitMix64


def test_splitmix64_known_answers():
    # the first outputs of the reference C implementation seeded with 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, _DRAW_BLOCK + 3])
def test_block_floats_match_single_draws(seed, count):
    block, single = SplitMix64(seed), SplitMix64(seed)
    floats = block.floats(count)
    assert [u.hex() for u in floats] == [single.next_float().hex() for _ in range(count)]
    assert block.next_u64() == single.next_u64()
