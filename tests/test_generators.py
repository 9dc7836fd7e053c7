import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowspread import generators
from rainbowspread.errors import RainbowSpreadError
from rainbowspread.generators import (
    GeneratorError,
    StructureSpec,
    automorphism_count,
    count_formula_hamilton,
    count_formula_loose_hamilton,
    count_formula_perfect_matching,
    gen_cactus_copies,
    gen_hamilton,
    gen_loose_hamilton,
    gen_perfect_matching,
    gen_tree_copies,
    loose_path_cactus,
    parse_spec,
    path_tree,
    star_tree,
)
from rainbowspread.spread import containment_count, max_spread


@pytest.mark.parametrize("n,count", [(4, 3), (5, 12), (6, 60), (7, 360)])
def test_hamilton_counts(n, count):
    h = gen_hamilton(n)
    assert len(h.edges) == count == count_formula_hamilton(n)
    assert h.num_vertices == n * (n - 1) // 2
    assert all(len(e) == n for e in h.edges)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_hamilton_single_element_ratio(n):
    h = gen_hamilton(n)
    for x in range(h.num_vertices):
        assert containment_count(h, [x]) * (n - 1) == 2 * len(h.edges)


@pytest.mark.parametrize("n,k,count", [(4, 2, 3), (6, 2, 15), (6, 3, 10), (8, 2, 105)])
def test_perfect_matching_counts(n, k, count):
    h = gen_perfect_matching(n, k)
    assert len(h.edges) == count == count_formula_perfect_matching(n, k)
    assert all(len(e) == n // k for e in h.edges)


def test_perfect_matching_formula_only():
    assert count_formula_perfect_matching(12, 2) == 10395


def test_vertex_transitive_singletons():
    for h in [gen_hamilton(5), gen_perfect_matching(6, 2)]:
        counts = {containment_count(h, [x]) for x in range(h.num_vertices)}
        assert len(counts) == 1


def test_divisibility_errors():
    with pytest.raises(GeneratorError):
        gen_perfect_matching(5, 2)
    with pytest.raises(GeneratorError):
        gen_loose_hamilton(7, 3)
    with pytest.raises(GeneratorError):
        gen_hamilton(3)


def _small_factorials_only(monkeypatch):
    """Make generators.math.factorial refuse arguments above 20, so a
    ceiling that reaches for a large factorial fails the test."""
    real = math.factorial

    def factorial(x):
        assert x <= 20, f"factorial({x}) before the ceiling"
        return real(x)

    monkeypatch.setattr(generators.math, "factorial", factorial)


@pytest.mark.parametrize("n,k", [(12, 3), (1_000_000, 3), (10**18, 3)])
def test_loose_ceiling_refuses_on_n_alone(monkeypatch, n, k):
    _small_factorials_only(monkeypatch)
    with pytest.raises(GeneratorError, match="enumeration limit"):
        gen_loose_hamilton(n, k)


def test_loose_ceiling_admits_eleven():
    # 11! <= 50,000,000 < 12!: n = 11 passes the ceiling, and the edge count decides
    assert generators.LOOSE_N_LIMIT == 11
    assert math.factorial(11) <= 50_000_000 < math.factorial(12)
    with pytest.raises(GeneratorError, match="at least 3 edges"):
        gen_loose_hamilton(11, 12)


@pytest.mark.parametrize("n,k", [(200_000, 2), (999_999, 3), (4 * 10**6, 2 * 10**6), (10**12, 2), (16, 2)])
def test_pm_ceiling_stops_at_the_limit(monkeypatch, n, k):
    _small_factorials_only(monkeypatch)
    with pytest.raises(GeneratorError, match="edge-count limit"):
        gen_perfect_matching(n, k)


def test_pm_single_matching_ceiling():
    # k = 1 and k = n give one matching, so only the n ceiling stops them
    assert len(gen_perfect_matching(512, 1).edges) == len(gen_perfect_matching(512, 512).edges) == 1
    for n, k in [(513, 1), (513, 513), (2**63, 1), (2**63, 2**63)]:
        with pytest.raises(GeneratorError, match="perfect matching limited to n <= 512"):
            gen_perfect_matching(n, k)


@pytest.mark.parametrize("spec", ["tree:path,n={}", "tree:star,n={}", "cactus:loosepath,n={},k=2",
                                  "cactus:loosepath,n={},k={}"])
def test_named_structure_ceiling_before_it_is_built(spec):
    with pytest.raises(GeneratorError, match="limited to n <= 8"):
        parse_spec(spec.format(2**63, 2**63))


@pytest.mark.parametrize("limit", [0, 1, 14, 15, 104, 105, 944, 945, 10_394, 10_395])
def test_pm_ceiling_agrees_with_the_count(monkeypatch, limit):
    monkeypatch.setattr(generators, "EDGE_COUNT_LIMIT", limit)
    for n, k in [(1, 1), (3, 3), (6, 2), (8, 2), (9, 3), (10, 2), (12, 2), (12, 4)]:
        count = count_formula_perfect_matching(n, k)
        if count > limit:
            with pytest.raises(GeneratorError, match="edge-count limit"):
                gen_perfect_matching(n, k)
        else:
            assert len(gen_perfect_matching(n, k).edges) == count


def test_loose_hamilton_counts():
    h = gen_loose_hamilton(6, 3)
    assert len(h.edges) == 120 == count_formula_loose_hamilton(6, 3)
    assert all(len(e) == 3 for e in h.edges)
    h94 = gen_loose_hamilton(9, 4)
    assert len(h94.edges) == count_formula_loose_hamilton(9, 4)


def test_loose_hamilton_8_3():
    h = gen_loose_hamilton(8, 3)
    assert len(h.edges) == count_formula_loose_hamilton(8, 3) == 5040


def test_tree_copies():
    path4 = gen_tree_copies(path_tree(4), 4)
    assert len(path4.edges) == 12
    star4 = gen_tree_copies(star_tree(4), 4)
    assert len(star4.edges) == 4
    single = gen_tree_copies([(0, 1)], 2)
    assert len(single.edges) == 1


def test_tree_count_matches_automorphism_formula():
    for tree, n in [(path_tree(5), 5), (star_tree(6), 6)]:
        h = gen_tree_copies(tree, n)
        assert len(h.edges) == math.factorial(n) // automorphism_count(tree, n)


def test_cactus_single_edge():
    h = gen_cactus_copies([tuple(range(3))], 3, 3)
    assert len(h.edges) == 1


def test_cactus_k2_reduces_to_tree():
    tree = path_tree(5)
    assert gen_cactus_copies(tree, 5, 2).edges == gen_tree_copies(tree, 5).edges


def test_cactus_loose_path():
    cactus = loose_path_cactus(5, 3)
    assert cactus == [(0, 1, 2), (2, 3, 4)]
    h = gen_cactus_copies(cactus, 5, 3)
    assert len(h.edges) == math.factorial(5) // automorphism_count(cactus, 5)


def test_cactus_single_element_ratio_bound():
    # the exact s=1 case of the permutation-image spread bound:
    # |H cap up({x})| / |H| <= max_degree / C(n-1, k-1)
    n, k = 5, 3
    cactus = loose_path_cactus(n, k)
    degree = {}
    for e in cactus:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    max_deg = max(degree.values())
    h = gen_cactus_copies(cactus, n, k)
    bound = max_deg / math.comb(n - 1, k - 1)
    for x in range(h.num_vertices):
        assert containment_count(h, [x]) / len(h.edges) <= bound + 1e-12


def test_generated_instances_are_spread():
    # desk-scale sanity: kappa is well above 1 for all applications
    assert max_spread(gen_hamilton(5)).kappa > 1.2
    assert max_spread(gen_perfect_matching(6, 2)).kappa > 1.5


def test_parse_spec():
    s = parse_spec("hamilton:n=6")
    assert s == StructureSpec(kind="hamilton", n=6)
    assert len(s.generate().edges) == s.count_formula() == 60
    s = parse_spec("pm:n=6,k=3")
    assert (s.n, s.k) == (6, 3)
    s = parse_spec("tree:star,n=5")
    assert s.count_formula() == 5
    s = parse_spec("cactus:loosepath,n=5,k=3")
    assert len(s.generate().edges) == s.count_formula()
    for bad in ["pm:n=6", "nosuch:n=4", "hamilton:", "tree:n=5", "cactus:loosepath,n=5"]:
        with pytest.raises(GeneratorError):
            parse_spec(bad)


def test_structure_file(tmp_path):
    f = tmp_path / "tree.txt"
    f.write_text("# a path\n0 1\n1 2\n2 3\n")
    s = parse_spec(f"tree:file={f},n=4")
    assert len(s.generate().edges) == 12
    f.write_text("0 0\n1 2\n")  # spans 0..2, but its first edge is a loop
    with pytest.raises(GeneratorError, match="distinct vertices"):
        parse_spec(f"tree:file={f},n=3").generate()


# sha256 of repr((num_vertices, r_bound, edges)), the edges in generated order
FROZEN_DIGESTS = {
    "hamilton:n=7": "2085f3a55505d018eb4a4b882e12010c7434877dfef74cdb8da576b63a3f346a",
    "pm:n=8,k=2": "19f561888a50f6254910623260a1db8f5c5f75faf360290740a5a55f60ab1b5d",
    "pm:n=9,k=3": "10160abac062f839bc6bfb5d8a74fbc232feab3fdf7b2ec81e8b6a0340a856e2",
    "loose:n=6,k=3": "29628acccbfc7e06055d6c1e3227166bd3c15d5da9673560a5944099ed5113cf",
    "loose:n=8,k=3": "74f4dacb901456d1350fb29bfd1b2f162d64ce803ecb0cf8e9ed5ee78a3549fb",
    "loose:n=9,k=4": "8225a35ec548c12b181179c10018f0100a216bf5d57258aa6ff517de5de3ea46",
    "tree:path,n=7": "5f0dc0cadeee4d873dbc06386bbcf443cc3111d5523b5f2e31c5f07de1ed8f13",
    "tree:star,n=6": "6b9feb4aaa29a67042cd4a88004f6fcf99ebd5a1a74c9c842dc66c813fb764d0",
    "tree:path,n=8": "0a8a5d20bf38c31deb9d7e027ef3830150307c12b2b6709f3e3715dd3ec578a1",
    "cactus:loosepath,n=7,k=3": "0f50c808a2f04a1f78cc855c04164ad01a180dec5317b2912edb3254e4c9b8cb",
    "cactus:loosepath,n=7,k=4": "52e5af77051ad94ed2effb83cda1aff3cafcc71e6c41f89ed346eec5cd5a9f44",
    "cactus:loosepath,n=5,k=2": "2738bf2e670c6cdcc65ccbf19216369674249c8cf55ccdac65007cd1299d03a0",
}


@pytest.mark.parametrize("spec", FROZEN_DIGESTS)
def test_generated_edges_frozen(spec):
    h = parse_spec(spec).generate()
    digest = hashlib.sha256(repr((h.num_vertices, h.r_bound, h.edges)).encode()).hexdigest()
    assert digest == FROZEN_DIGESTS[spec]


@settings(max_examples=300, deadline=None)
@given(
    head=st.sampled_from(["hamilton:", "pm:", "loose:", "tree:path,", "tree:star,", "cactus:loosepath,"]),
    n=st.integers(-2, 7),
    k=st.none() | st.integers(-1, 5),
)
@example(head="pm:", n=6, k=0)
@example(head="cactus:loosepath,", n=5, k=1)
def test_spec_is_refused_or_matches_its_count(head, n, k):
    # as `generate` runs them: the enumeration, then its count oracle
    spec_text = f"{head}n={n}" + ("" if k is None else f",k={k}")
    try:
        spec = parse_spec(spec_text)
        edges = len(spec.generate().edges)
        count = spec.count_formula()
    except RainbowSpreadError:
        return
    assert edges == count
