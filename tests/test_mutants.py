"""The mutation probe in mutants.py, on mutants that a test kills and on
one equivalent mutant that survives it."""

import mutants

FRAGMENTATION = "src/rainbowspread/fragmentation.py"
BLOCKS = "src/rainbowspread/_blocks.py"
RNG = "src/rainbowspread/rng.py"


def _mutant(module: str, function: str, change: str, where: str = ""):
    """The one mutant of the function with this change whose source holds where."""
    source = (mutants.ROOT / module).read_text()
    [mutant] = [m for m in mutants.mutants(source, [function]) if m.change == change and where in m.source]
    return mutant


def test_probe_kills_a_boundary_mutant():
    mutant = _mutant(FRAGMENTATION, "empty_round", "survivors.lengths <= r_i -> survivors.lengths < r_i")
    test = "tests/test_fragmentation.py::test_empty_round_keeps_rows_as_long_as_r_i"
    assert list(mutants.run(FRAGMENTATION, [mutant], [test], timeout=60)) == ["killed"]


def test_probe_kills_a_constant_mutant():
    # the top key of a shadow one size too high: B's remainder no longer
    # finds A's inside it
    mutant = _mutant(BLOCKS, "psi", "1 -> 2", "top = offsets[w_len + 2] - 1")
    test = "tests/test_fragmentation.py::test_psi_chi_clash_and_selection"
    assert list(mutants.run(BLOCKS, [mutant], [test], timeout=60)) == ["killed"]


def test_probe_keeps_an_equivalent_mutant():
    # a later round in which no seed samples goes through apply_round, whose
    # search on psi's own antichain has every row pick itself, so it keeps
    # what empty_round keeps: the bounds are the same
    mutant = _mutant(FRAGMENTATION, "_later_rounds", "any(wmaps) -> True")
    test = "tests/test_fragmentation.py::test_rounds_get_their_size_bounds"
    assert list(mutants.run(FRAGMENTATION, [mutant], [test], timeout=60)) == ["survived"]


def test_probe_skips_a_no_op_mutant():
    # forcing randrange's `while True:` to True gives back the unchanged
    # module; forcing it to False does not
    source = (mutants.ROOT / RNG).read_text()
    changes = [m.change for m in mutants.mutants(source, ["randrange"])]
    assert "True -> False" in changes and "True -> True" not in changes
