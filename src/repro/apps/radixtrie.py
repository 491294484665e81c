"""Multibit radix trie for longest-prefix-match IP lookup.

This is the lookup structure behind the paper's IP application ("the
RadixTrie lookup algorithm provided with the Click distribution and a
routing-table of 128000 entries"). Like Click's RadixIPLookup, the trie
uses a wide first stride and 4-bit strides below it, with controlled
prefix expansion at the terminal level; each slot packs its child pointer
and route into one 4-byte entry, so one slot probe is one 4-byte memory
reference.

The trie is purely functional here; the ``RadixIPLookup`` element wraps it
with access recording. ``lookup`` returns the matched route together with
the byte offsets of the probed slots so the wrapper can replay the walk
against simulated memory. The top levels are small and probed by every
packet — the "hot spots" of the paper's Figure 7 — while the deep levels
are large, uniformly accessed, and cache-sensitive.

Storage is three flat typed arrays indexed by global slot number. Nodes
are laid out contiguously in creation order, so a slot's index times
``SLOT_BYTES`` is its byte offset in the simulated table.

Generated tables are memoized per process (``TABLE_MEMO``): a figure grid
profiles the same flows solo and against many co-runners, and each run
would otherwise rebuild identical tables from identical generator states.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from ..net.addresses import prefix_mask

#: Default strides: 8-bit root, then 2-bit levels (sums to 32). The fine
#: strides give lookups the deep pointer-chasing walk of Click's radix
#: trie: the handful of top levels are hot, the populous middle levels are
#: large, uniformly visited, and cache-sensitive.
DEFAULT_STRIDES = (8,) + (2,) * 12

#: Packed slot width in the simulated layout (child/route union, Click-style).
SLOT_BYTES = 4

#: ``routes`` value of a slot that no prefix covers. Next hops must lie
#: strictly between it and ``MAX_NEXT_HOP`` (the range of ``array('i')``).
NO_ROUTE = -(1 << 31)
MAX_NEXT_HOP = (1 << 31) - 1

#: Slot budget of the build memo. At 9 bytes a slot (two ``array('i')``
#: entries and one ``array('b')``) this is ~18 MB, which holds every
#: distinct table of a quick-scale figure grid or check campaign (the
#: largest such set, 25 tables, is ~1.0M slots) without letting a long
#: sweep grow the process without bound.
MEMO_SLOT_BUDGET = 2_000_000


class RadixTrie:
    """Variable-stride multibit trie mapping IPv4 prefixes to next hops.

    ``children[s]`` is the first slot of the node below slot ``s`` (-1 for
    none), ``routes[s]`` the next hop expanded into it (``NO_ROUTE`` for
    none) and ``route_plens[s]`` that route's prefix length, so that a
    shorter prefix never overwrites a longer one's expansion.
    """

    def __init__(self, strides: Sequence[int] = DEFAULT_STRIDES):
        if sum(strides) != 32:
            raise ValueError(f"strides must cover 32 bits, got {sum(strides)}")
        if any(s <= 0 for s in strides):
            raise ValueError("every stride must be positive")
        self.strides = tuple(strides)
        levels = []
        shift = 32
        for stride in self.strides:
            shift -= stride
            levels.append((shift, (1 << stride) - 1))
        self._levels = tuple(levels)
        self.children = array("i")
        self.routes = array("i")
        self.route_plens = array("b")
        self._n_nodes = 0
        self._new_node(0)  # the root
        self.default_route: Optional[int] = None
        self.n_routes = 0
        #: Set once the table is handed out by the build memo; a shared
        #: table is read-only.
        self.shared = False

    # -- geometry ---------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of allocated trie nodes."""
        return self._n_nodes

    @property
    def n_slots(self) -> int:
        """Number of slots over all nodes."""
        return len(self.children)

    @property
    def total_bytes(self) -> int:
        """Simulated memory footprint of all nodes."""
        return len(self.children) * SLOT_BYTES

    def _new_node(self, level: int) -> int:
        """Append a node at ``level``; return its first slot."""
        first = len(self.children)
        slots = 1 << self.strides[level]
        self.children.extend(array("i", [-1]) * slots)
        self.routes.extend(array("i", [NO_ROUTE]) * slots)
        self.route_plens.extend(array("b", [-1]) * slots)
        self._n_nodes += 1
        return first

    # -- insertion -------------------------------------------------------------

    def insert(self, prefix: int, plen: int, next_hop: int) -> None:
        """Install ``prefix/plen -> next_hop`` (later inserts overwrite)."""
        if self.shared:
            raise TypeError("shared routing table is read-only")
        if not 0 <= plen <= 32:
            raise ValueError(f"bad prefix length {plen}")
        if not 0 <= prefix <= 0xFFFFFFFF:
            raise ValueError("prefix must be a 32-bit value")
        if prefix & ~prefix_mask(plen):
            raise ValueError("prefix has bits set beyond its length")
        if not NO_ROUTE < next_hop <= MAX_NEXT_HOP:
            raise ValueError(
                f"next hop {next_hop} outside ({NO_ROUTE}, {MAX_NEXT_HOP}]")
        if plen == 0:
            self.default_route = next_hop
            self.n_routes += 1
            return
        strides = self.strides
        children = self.children
        first = 0
        level = 0
        consumed = 0
        while plen > consumed + strides[level]:
            stride = strides[level]
            shift = 32 - consumed - stride
            slot = first + ((prefix >> shift) & ((1 << stride) - 1))
            child = children[slot]
            if child < 0:
                child = self._new_node(level + 1)
                children[slot] = child
            first = child
            consumed += stride
            level += 1
        # Controlled prefix expansion within the terminal node: a slot is
        # overwritten only by an equal-or-longer prefix (longest match wins;
        # equal-length re-inserts overwrite).
        stride = strides[level]
        shift = 32 - consumed - stride
        base = first + ((prefix >> shift) & ((1 << stride) - 1))
        span = 1 << (stride - (plen - consumed))
        routes = self.routes
        plens = self.route_plens
        for i in range(base, base + span):
            if plen >= plens[i]:
                routes[i] = next_hop
                plens[i] = plen
        self.n_routes += 1

    # -- lookup ---------------------------------------------------------------

    def lookup(self, addr: int) -> Tuple[Optional[int], List[int]]:
        """Longest-prefix-match for ``addr``.

        Returns ``(next_hop, probed_offsets)`` where ``probed_offsets`` are
        the byte offsets of every slot probed, root first.
        """
        best = self.default_route
        first = 0
        visited: List[int] = []
        children = self.children
        routes = self.routes
        for shift, mask in self._levels:
            slot = first + ((addr >> shift) & mask)
            visited.append(slot * SLOT_BYTES)
            route = routes[slot]
            if route != NO_ROUTE:
                best = route
            first = children[slot]
            if first < 0:
                break
        return best, visited

    def lookup_route(self, addr: int) -> Optional[int]:
        """Just the next hop (reference-model helper for tests)."""
        return self.lookup(addr)[0]


class TableMemo:
    """LRU map from a build's inputs to its table, bounded in total slots.

    Each entry is ``(table, rng_state_after)``. A table larger than the
    whole budget is not kept.
    """

    def __init__(self, slot_budget: int):
        self.slot_budget = slot_budget
        self.slots = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, Tuple[RadixTrie, tuple]]" = (
            OrderedDict())

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[Tuple[RadixTrie, tuple]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, table: RadixTrie, rng_state: tuple) -> None:
        size = table.n_slots
        if size > self.slot_budget:
            return
        while self.slots + size > self.slot_budget:
            _, (old, _) = self._entries.popitem(last=False)
            self.slots -= old.n_slots
        self._entries[key] = (table, rng_state)
        self.slots += size


#: The process-wide build memo used by ``RouteTableBuilder.build``.
TABLE_MEMO = TableMemo(MEMO_SLOT_BUDGET)


class RouteTableBuilder:
    """Generate realistic random routing tables.

    Prefix lengths follow a BGP-like distribution (dominated by /24s) so
    that lookups on uniformly random destinations walk deep, mostly
    distinct paths — the paper's worst case for cache sensitivity.
    """

    #: (prefix_len, weight) pairs approximating a BGP table's length mix.
    LENGTH_MIX = ((8, 1), (12, 3), (16, 12), (20, 26), (24, 53), (28, 5))

    def __init__(self, rng: random.Random, addr_bits: int = 32):
        if not 8 <= addr_bits <= 32:
            raise ValueError("addr_bits must be in [8, 32]")
        self.rng = rng
        self.addr_bits = addr_bits
        lengths = []
        for plen, weight in self.LENGTH_MIX:
            lengths.extend([plen] * weight)
        self._lengths = lengths

    @property
    def max_entries(self) -> int:
        """Number of distinct ``(prefix, plen)`` pairs ``random_prefix`` makes."""
        return sum(2 ** max(0, self.addr_bits + plen - 32)
                   for plen in {plen for plen, _ in self.LENGTH_MIX})

    def random_prefix(self) -> Tuple[int, int]:
        """One random ``(prefix, plen)`` with a realistic length.

        Prefixes live in the (possibly reduced) address universe: the top
        ``32 - addr_bits`` bits are zero, matching the traffic generators
        on a scaled platform.
        """
        plen = self.rng.choice(self._lengths)
        prefix = self.rng.getrandbits(self.addr_bits) & prefix_mask(plen)
        return prefix, plen

    def build(self, n_entries: int, n_next_hops: int = 16) -> RadixTrie:
        """A trie with ``n_entries`` random routes plus a default route.

        The result depends only on the generator's state and the
        arguments, so it comes from ``TABLE_MEMO`` when an identical build
        ran before in this process; the generator is then moved to the
        state the build would have left it in. Either way the returned
        table is shared and read-only.
        """
        if n_entries <= 0:
            raise ValueError("need at least one route")
        if n_entries > self.max_entries:
            raise ValueError(
                f"{n_entries} routes requested but only {self.max_entries} "
                f"distinct prefixes exist at addr_bits={self.addr_bits}")
        key = (self.rng.getstate(), n_entries, n_next_hops, self.addr_bits,
               self.LENGTH_MIX)
        hit = TABLE_MEMO.get(key)
        if hit is not None:
            trie, rng_state = hit
            self.rng.setstate(rng_state)
            return trie
        trie = RadixTrie()
        trie.insert(0, 0, 0)  # default route
        inserted = 0
        seen = set()
        while inserted < n_entries:
            prefix, plen = self.random_prefix()
            if (prefix, plen) in seen:
                continue
            seen.add((prefix, plen))
            trie.insert(prefix, plen, self.rng.randrange(n_next_hops))
            inserted += 1
        trie.shared = True
        TABLE_MEMO.put(key, trie, self.rng.getstate())
        return trie
