"""The mutation probe in mutants.py, on one mutant that a test kills and on
one equivalent mutant that survives it."""

import mutants

FRAGMENTATION = "src/rainbowspread/fragmentation.py"


def _mutant(function: str, change: str):
    [mutant] = [m for m in mutants.mutants((mutants.ROOT / FRAGMENTATION).read_text(), [function]) if m.change == change]
    return mutant


def test_probe_kills_a_boundary_mutant():
    mutant = _mutant("empty_round", "survivors.lengths <= r_i -> survivors.lengths < r_i")
    test = "tests/test_fragmentation.py::test_empty_round_keeps_rows_as_long_as_r_i"
    assert list(mutants.run(FRAGMENTATION, [mutant], [test], timeout=60)) == ["killed"]


def test_probe_keeps_an_equivalent_mutant():
    # a round in which no seed samples goes through apply_round with every
    # seed idle, which keeps what empty_round keeps: the bounds are the same
    mutant = _mutant("_run_block", "i == 1 or any(wmaps) -> True")
    test = "tests/test_fragmentation.py::test_rounds_get_their_size_bounds"
    assert list(mutants.run(FRAGMENTATION, [mutant], [test], timeout=60)) == ["survived"]
