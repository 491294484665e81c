"""Radix trie: LPM correctness against a brute-force reference model."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import radixtrie
from repro.apps.radixtrie import (
    DEFAULT_STRIDES,
    MAX_NEXT_HOP,
    MEMO_SLOT_BUDGET,
    NO_ROUTE,
    RadixTrie,
    RouteTableBuilder,
    SLOT_BYTES,
    TableMemo,
)
from repro.net.addresses import prefix_mask


def brute_force_lpm(routes, addr):
    """Reference LPM: longest matching prefix wins; later inserts overwrite."""
    best = None
    best_len = -1
    for prefix, plen, hop in routes:
        if addr & prefix_mask(plen) == prefix and plen >= best_len:
            # Equal length: the most recently inserted wins.
            if plen > best_len:
                best, best_len = hop, plen
            else:
                best = hop
    return best


def build(routes, strides=DEFAULT_STRIDES):
    trie = RadixTrie(strides)
    for prefix, plen, hop in routes:
        trie.insert(prefix, plen, hop)
    return trie


def test_strides_must_cover_32_bits():
    with pytest.raises(ValueError):
        RadixTrie(strides=(8, 8))
    with pytest.raises(ValueError):
        RadixTrie(strides=(8, -4, 28))


def test_empty_trie_returns_none():
    trie = RadixTrie()
    hop, visited = trie.lookup(0x01020304)
    assert hop is None
    assert visited  # root is always probed


def test_default_route():
    trie = RadixTrie()
    trie.insert(0, 0, 42)
    assert trie.lookup_route(0xDEADBEEF) == 42


def test_exact_and_longest_match():
    routes = [
        (0x0A000000, 8, 1),     # 10/8
        (0x0A010000, 16, 2),    # 10.1/16
        (0x0A010100, 24, 3),    # 10.1.1/24
    ]
    trie = build(routes)
    assert trie.lookup_route(0x0A020202) == 1
    assert trie.lookup_route(0x0A01FF01) == 2
    assert trie.lookup_route(0x0A010105) == 3
    assert trie.lookup_route(0x0B000000) is None


def test_non_stride_aligned_prefix_expansion():
    # /18 does not align with any stride boundary below the 8-bit root.
    prefix = 0xC0A84000  # 192.168.64/18
    trie = build([(prefix, 18, 9)])
    assert trie.lookup_route(0xC0A84001) == 9
    assert trie.lookup_route(0xC0A87FFF) == 9
    assert trie.lookup_route(0xC0A88000) is None


def test_host_route():
    trie = build([(0x0A0B0C0D, 32, 7)])
    assert trie.lookup_route(0x0A0B0C0D) == 7
    assert trie.lookup_route(0x0A0B0C0C) is None


def test_insert_validates():
    trie = RadixTrie()
    with pytest.raises(ValueError):
        trie.insert(0, 33, 1)
    with pytest.raises(ValueError):
        trie.insert(1 << 32, 8, 1)
    with pytest.raises(ValueError):
        trie.insert(0x0A000001, 8, 1)  # bits beyond /8


def test_visited_offsets_are_slot_aligned():
    trie = build([(0x0A000000, 8, 1), (0x0A010000, 16, 2)])
    _, visited = trie.lookup(0x0A010203)
    assert all(off % SLOT_BYTES == 0 for off in visited)
    assert all(0 <= off < trie.total_bytes for off in visited)
    assert len(visited) >= 2


def test_total_bytes_grows_with_nodes():
    trie = RadixTrie()
    before = trie.total_bytes
    trie.insert(0x0A010100, 24, 1)
    assert trie.total_bytes > before
    assert trie.n_nodes > 1


@st.composite
def route_sets(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    routes = []
    for _ in range(n):
        plen = draw(st.integers(min_value=1, max_value=32))
        prefix = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
        prefix &= prefix_mask(plen)
        hop = draw(st.integers(min_value=0, max_value=100))
        routes.append((prefix, plen, hop))
    return routes


@given(routes=route_sets(), addrs=st.lists(
    st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_property_matches_brute_force(routes, addrs):
    trie = build(routes)
    for addr in addrs:
        assert trie.lookup_route(addr) == brute_force_lpm(routes, addr)


@given(routes=route_sets())
@settings(max_examples=40, deadline=None)
def test_property_lookup_hits_inserted_prefixes(routes):
    trie = build(routes)
    for prefix, plen, _ in routes:
        assert trie.lookup_route(prefix) == brute_force_lpm(routes, prefix)


def test_builder_respects_entry_count():
    rng = random.Random(3)
    trie = RouteTableBuilder(rng).build(500)
    assert trie.n_routes == 501  # 500 + default route
    assert trie.default_route is not None


def test_builder_addr_bits_bounds_prefixes():
    rng = random.Random(3)
    builder = RouteTableBuilder(rng, addr_bits=24)
    for _ in range(200):
        prefix, plen = builder.random_prefix()
        assert prefix < (1 << 24)


def test_builder_rejects_bad_universe():
    with pytest.raises(ValueError):
        RouteTableBuilder(random.Random(0), addr_bits=4)


def test_builder_lookup_always_resolves_via_default():
    rng = random.Random(5)
    trie = RouteTableBuilder(rng).build(100)
    for _ in range(100):
        assert trie.lookup_route(rng.getrandbits(32)) is not None


def test_insert_rejects_unstorable_next_hops():
    trie = RadixTrie()
    for hop in (NO_ROUTE, MAX_NEXT_HOP + 1):
        with pytest.raises(ValueError):
            trie.insert(0x0A000000, 8, hop)
        with pytest.raises(ValueError):
            trie.insert(0, 0, hop)
    trie.insert(0x0A000000, 8, MAX_NEXT_HOP)
    trie.insert(0x0B000000, 8, NO_ROUTE + 1)
    assert trie.lookup_route(0x0A000001) == MAX_NEXT_HOP
    assert trie.lookup_route(0x0B000001) == NO_ROUTE + 1


def test_builder_max_entries_counts_distinct_prefixes():
    # addr_bits=8 leaves one /8, /12, /16, /20, /24 and sixteen /28s.
    assert RouteTableBuilder(random.Random(0), addr_bits=8).max_entries == 21
    assert RouteTableBuilder(random.Random(0)).max_entries == sum(
        2 ** plen for plen in (8, 12, 16, 20, 24, 28))


def test_builder_rejects_more_entries_than_distinct_prefixes(fresh_memo):
    builder = RouteTableBuilder(random.Random(0), addr_bits=8)
    with pytest.raises(ValueError):
        builder.build(100)
    with pytest.raises(ValueError):
        builder.build(22)
    assert builder.build(21).n_routes == 22


# Recorded from the per-node trie this flat layout replaced: the flat
# arrays must place every node and probe every slot at the same offsets.
LAYOUT_PINS = {
    0: (84288, 5205, "4957e788bd79b9c7"),
    1: (82992, 5124, "404e03370f4972d1"),
    2: (82512, 5094, "9c91411f81d90522"),
}


@pytest.mark.parametrize("seed", sorted(LAYOUT_PINS))
def test_flat_layout_matches_recorded_offsets(seed):
    trie = RouteTableBuilder(random.Random(seed), addr_bits=26).build(2000)
    addrs = random.Random(1000 + seed)
    digest = hashlib.sha256()
    for _ in range(2000):
        _, offsets = trie.lookup(addrs.getrandbits(26))
        digest.update((",".join(map(str, offsets)) + ";").encode())
    assert (trie.total_bytes, trie.n_nodes,
            digest.hexdigest()[:16]) == LAYOUT_PINS[seed]


# -- build memo ---------------------------------------------------------------


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = TableMemo(MEMO_SLOT_BUDGET)
    monkeypatch.setattr(radixtrie, "TABLE_MEMO", memo)
    return memo


def same_table(a, b):
    return (a.children == b.children and a.routes == b.routes
            and a.route_plens == b.route_plens and a.n_nodes == b.n_nodes
            and a.n_routes == b.n_routes
            and a.default_route == b.default_route)


def small_table(seed, n_entries=200):
    return RouteTableBuilder(random.Random(seed), addr_bits=26).build(
        n_entries)


def test_memo_hit_equals_fresh_build(fresh_memo, monkeypatch):
    first = small_table(4)
    hit = small_table(4)
    assert hit is first
    assert (fresh_memo.hits, fresh_memo.misses) == (1, 1)
    monkeypatch.setattr(radixtrie, "TABLE_MEMO", TableMemo(MEMO_SLOT_BUDGET))
    fresh = small_table(4)
    assert fresh is not first
    assert same_table(hit, fresh)


def test_memo_leaves_rng_where_a_build_would(fresh_memo):
    draws = []
    for _ in range(2):  # miss, then hit
        rng = random.Random(11)
        RouteTableBuilder(rng, addr_bits=26).build(150)
        draws.append([rng.random() for _ in range(8)])
    assert (fresh_memo.hits, fresh_memo.misses) == (1, 1)
    assert draws[0] == draws[1]
    # A different generator state or argument is a different table.
    other = RouteTableBuilder(random.Random(11), addr_bits=26).build(151)
    assert fresh_memo.misses == 2
    assert other.n_routes == 152


def test_memo_tables_are_read_only(fresh_memo):
    table = small_table(5)
    assert table.shared
    with pytest.raises(TypeError):
        table.insert(0x0A000000, 8, 1)
    assert small_table(5) is table  # the shared copy is intact


def test_memo_evicts_least_recently_used_within_budget(monkeypatch):
    sizes = {seed: small_table(seed).n_slots for seed in (0, 1, 2)}
    budget = sizes[0] + sizes[1] + sizes[2] - 1
    memo = TableMemo(budget)
    monkeypatch.setattr(radixtrie, "TABLE_MEMO", memo)
    tables = {seed: small_table(seed) for seed in (0, 1)}
    assert small_table(0) is tables[0]  # 0 is now the most recent
    small_table(2)  # must evict 1, the least recently used
    assert memo.slots <= budget
    assert len(memo) == 2
    assert small_table(0) is tables[0]
    rebuilt = small_table(1)
    assert rebuilt is not tables[1]
    assert same_table(rebuilt, tables[1])
    assert memo.slots <= budget


def test_memo_skips_tables_over_budget(monkeypatch):
    memo = TableMemo(10)
    monkeypatch.setattr(radixtrie, "TABLE_MEMO", memo)
    table = small_table(6)
    assert table.shared
    assert len(memo) == 0 and memo.slots == 0
