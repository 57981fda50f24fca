"""Immutable bit-matrix digraphs, undirected graphs, isomorphism, and edge-list IO."""
from __future__ import annotations

import operator
import re
import struct
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Sequence

import numpy as np

MAX_VERTICES = 64
MAX_CANONICAL_VERTICES = 8

# entries kept by every per-digraph memo; a bound keeps long-lived processes small
_MEMO_SIZE = 1 << 15


class EdgeListError(ValueError):
    """Raised when edge-list text is malformed."""


@lru_cache(maxsize=MAX_VERTICES)
def _full_offdiag(n: int) -> int:
    mask = (1 << n * n) - 1
    for v in range(n):
        mask ^= 1 << v * n + v
    return mask


def mask_array(n: int, masks: object) -> np.ndarray:
    """masks (an array, a sequence or one integer) as an array of uint64 n-vertex digraph masks.

    A mask that is not an integer, is negative, or has a bit on the diagonal or
    at or above n*n is a ValueError: it has no n-vertex digraph. The bits are
    tested on a Python int, since a uint64 shift by 64 is not 0.
    """
    masks = np.asarray(masks)
    kind = masks.dtype.kind
    if masks.size and (
        kind not in "iu"
        or kind == "i" and masks.min() < 0
        or int(np.bitwise_or.reduce(masks, axis=None)) & ~_full_offdiag(n)
    ):
        raise ValueError(f"every mask must be a non-negative integer whose bits are arcs of {n} vertices")
    return masks.astype(np.uint64, copy=False)


# bit v of a row, for v = 0..63, as a Python int: an arc's endpoints index it,
# so a numpy integer endpoint sets the same bit without a conversion per arc
_BIT = tuple(1 << v for v in range(MAX_VERTICES))


@lru_cache(maxsize=MAX_VERTICES)
def _words(n: int) -> struct.Struct:
    """The layout of an n-vertex digraph's row words: n little-endian uint64, one per vertex."""
    return struct.Struct(f"<{n}Q")


def _join_rows(rows: list[int], n: int) -> int:
    """The bit matrix whose row u is rows[u], assembled in one pass."""
    mask = 0
    for row in reversed(rows):
        mask = mask << n | row
    return mask


def _word_int(words: bytes) -> int:
    """Row words as one int: word u is bits 64u..64u+63."""
    return int.from_bytes(words, "little")


@lru_cache(maxsize=MAX_VERTICES)
def _offdiag_words(n: int) -> int:
    """Every arc of n vertices in the row-word layout of `_word_int`: bits 0..n-1 of word u but bit u."""
    return _word_int(_words(n).pack(*[(1 << n) - 1 ^ 1 << u for u in range(n)]))


def _swap_mask(k: int) -> int:
    """The bits (u, v) of a 64 x 64 row-word matrix with bit k of u clear and bit k of v set."""
    half = sum(1 << v for v in range(64) if v & k)
    return _word_int(_words(64).pack(*[0 if u & k else half for u in range(64)]))


_SWAP = {k: _swap_mask(k) for k in (1, 2, 4, 8, 16, 32)}


def _transpose(words: bytes, n: int) -> bytes:
    """The row words of the transposed n x n matrix: in-rows from out-rows and back.

    Each round swaps bit (u, v) with bit (u + k, v - k), 63k places up, for
    the pairs `_SWAP[k]` selects; the rounds k = P/2, ..., 2, 1 transpose
    every aligned P x P block, P the least power of two >= n. Rows and
    columns n and above are zero, so the top-left n x n block is the transpose.
    """
    x = _word_int(words)
    k = 1 << (n - 1).bit_length() >> 1
    while k:
        t = (x ^ x >> 63 * k) & _SWAP[k]
        x ^= t ^ t << 63 * k
        k >>= 1
    return x.to_bytes(8 * n, "little")


class Digraph:
    """A digraph on vertices 0..n-1, held as its out-rows and its in-rows.

    Row u of the n x n bit matrix is u's out-neighbourhood (bit v set iff the
    arc (u, v) is present) and column v is v's in-neighbourhood. Both sides
    are kept as row words, n little-endian uint64 (`_out`, `_in`), so reading
    every row is one unpack and the converse swaps the two. A builder that
    has the in-rows at hand stores them; otherwise they come from one
    `_transpose` on first request. `mask`, bit u*n+v per arc, is derived.
    `_seed` is the normal-form expression `construct.evaluate` built the
    digraph from, which is its di-co-tree, or None; every other builder and
    transform leaves it None. Instances are immutable; all operations return
    new values.
    """

    __slots__ = ("n", "_out", "_in", "_seed")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        n = operator.index(n)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows, cols = [0] * n, [0] * n
        for u, v in arcs:
            try:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"loop ({u}, {u}) not allowed")
                rows[u] |= _BIT[v]
                cols[v] |= _BIT[u]
            except TypeError:
                raise TypeError(f"arc ({u!r}, {v!r}) needs integer endpoints") from None
        words = _words(n)
        self._fill(n, words.pack(*rows), words.pack(*cols))

    def _fill(self, n: int, out: bytes, into: bytes | None, seed: object = None) -> Digraph:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)
        object.__setattr__(self, "_seed", seed)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Digraph is immutable")

    @classmethod
    def from_mask(cls, n: int, mask: int) -> Digraph:
        """Build from a raw bit-matrix; diagonal bits must be clear."""
        n, mask = operator.index(n), operator.index(mask)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if mask < 0 or mask >> n * n:
            raise ValueError("mask has bits outside the n*n matrix")
        if mask & ~_full_offdiag(n):
            raise ValueError("mask has diagonal (loop) bits set")
        return cls._of(n, mask)

    @classmethod
    def _of(cls, n: int, mask: int) -> Digraph:
        """Wrap a mask that is valid by construction, without checking it."""
        full = (1 << n) - 1
        return cls._of_rows([mask >> u * n & full for u in range(n)])

    @classmethod
    def _of_rows(cls, rows: Sequence[int], cols: Sequence[int] | None = None, seed: object = None) -> Digraph:
        """Wrap out-rows (and in-rows, if given) that are valid by construction: 1..64 rows, no loop bit."""
        words = _words(len(rows))
        return cls.__new__(cls)._fill(len(rows), words.pack(*rows), None if cols is None else words.pack(*cols), seed)

    @classmethod
    def _wrap(cls, n: int, out: bytes, into: bytes | None = None) -> Digraph:
        """Wrap row words that are valid by construction; in-words None are transposed on first request."""
        return cls.__new__(cls)._fill(n, out, into)

    def _in_words(self) -> bytes:
        if self._in is None:
            object.__setattr__(self, "_in", _transpose(self._out, self.n))
        return self._in

    @property
    def mask(self) -> int:
        """The bit matrix as one int, bit u*n+v per arc (u, v): the out-rows joined."""
        return _join_rows(self.out_rows(), self.n)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc (u, v), ascending: out-rows in order, each lowest bit first."""
        arcs = []
        for u, row in enumerate(self.out_rows()):
            while row:
                low = row & -row
                arcs.append((u, low.bit_length() - 1))
                row ^= low
        return tuple(arcs)

    @property
    def arc_count(self) -> int:
        return _word_int(self._out).bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        return bool(self._out[8 * u + (v >> 3)] >> (v & 7) & 1)

    def out_row(self, u: int) -> int:
        """Out-neighbourhood of u as an n-bit mask."""
        return _words(1).unpack_from(self._out, 8 * self._vertex(u))[0]

    def in_row(self, v: int) -> int:
        """In-neighbourhood of v as an n-bit mask."""
        return _words(1).unpack_from(self._in_words(), 8 * self._vertex(v))[0]

    def out_rows(self) -> list[int]:
        """Every out-neighbourhood, row u of the bit matrix for u = 0..n-1."""
        return list(_words(self.n).unpack(self._out))

    def in_rows(self) -> list[int]:
        """Every in-neighbourhood, column v of the bit matrix for v = 0..n-1."""
        return list(_words(self.n).unpack(self._in_words()))

    def out_degree(self, u: int) -> int:
        return self.out_row(u).bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_row(v).bit_count()

    def _vertex(self, v: int) -> int:
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return v

    # -- unary transforms ---------------------------------------------------

    def _from_ints(self, out: int, into: int | None = None) -> Digraph:
        """The n-vertex digraph whose out-rows (and in-rows, if given) are these `_word_int` values."""
        size = 8 * self.n
        into_words = None if into is None else into.to_bytes(size, "little")
        return Digraph._wrap(self.n, out.to_bytes(size, "little"), into_words)

    def complement(self) -> Digraph:
        return self._from_ints(_word_int(self._out) ^ _offdiag_words(self.n))

    def converse(self) -> Digraph:
        """The transpose: the in-rows become the out-rows and the out-rows the in-rows."""
        return Digraph._wrap(self.n, self._in_words(), self._out)

    def sym_part(self) -> Digraph:
        """Spanning subdigraph keeping exactly the arcs whose reverse is also present."""
        both = _word_int(self._out) & _word_int(self._in_words())
        return self._from_ints(both, both)

    def asym_part(self) -> Digraph:
        """Spanning subdigraph keeping exactly the arcs whose reverse is absent."""
        out, into = _word_int(self._out), _word_int(self._in_words())
        return self._from_ints(out & ~into, into & ~out)

    def underlying(self) -> UndirectedGraph:
        """Forget orientations: edge {u,v} iff at least one of the two arcs exists."""
        either = _word_int(self._out) | _word_int(self._in_words())
        return UndirectedGraph._of(self._from_ints(either, either))

    def induced(self, vertices: Iterable[int]) -> Digraph:
        """Induced subdigraph on a vertex set, repeats and order ignored; kept vertices are relabeled 0.. in order."""
        sub = sorted(set(map(operator.index, vertices)))
        if not sub:
            raise ValueError("induced subdigraph needs at least one vertex")
        if sub[0] < 0 or sub[-1] >= self.n:
            raise ValueError(f"vertices {sub} out of range for n={self.n}")
        k, out = len(sub), self.out_rows()
        rank = dict(zip(sub, range(k)))
        keep = sum(1 << v for v in sub)
        rows = [0] * k
        for i, u in enumerate(sub):
            # each arc u->v into a kept v lands at column rank[v] of row i
            row = out[u] & keep
            while row:
                low = row & -row
                rows[i] |= 1 << rank[low.bit_length() - 1]
                row ^= low
        return Digraph._of_rows(rows)

    def delete_vertex(self, v: int) -> Digraph:
        v = self._vertex(v)
        if self.n == 1:
            raise ValueError("cannot delete the last vertex")
        return self.induced(u for u in range(self.n) if u != v)

    def relabel(self, perm: Iterable[int]) -> Digraph:
        """Apply a bijection old-label -> new-label."""
        p = tuple(map(operator.index, perm))
        if sorted(p) != list(range(self.n)):
            raise ValueError("perm is not a bijection on the vertex set")
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[p[u]] |= 1 << p[v]
        return Digraph._of_rows(rows)

    # -- predicates ---------------------------------------------------------

    def is_edgeless(self) -> bool:
        return not _word_int(self._out)

    def is_bidirectional_complete(self) -> bool:
        return _word_int(self._out) == _offdiag_words(self.n)

    def is_oriented(self) -> bool:
        return not _word_int(self._out) & _word_int(self._in_words())

    def is_tournament(self) -> bool:
        out, into = _word_int(self._out), _word_int(self._in_words())
        return not out & into and out | into == _offdiag_words(self.n)

    def is_transitive(self) -> bool:
        """Whenever (u,v) and (v,w) are arcs with u != w, (u,w) is an arc too."""
        rows = self.out_rows()
        for u in range(self.n):
            allowed = rows[u] | 1 << u
            targets = rows[u]
            while targets:
                v = (targets & -targets).bit_length() - 1
                targets &= targets - 1
                if rows[v] & ~allowed:
                    return False
        return True

    def is_acyclic(self) -> bool:
        """No directed cycle; a bidirectional pair counts as a 2-cycle."""
        rows = self.out_rows()
        indeg = [row.bit_count() for row in self.in_rows()]
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            u = stack.pop()
            seen += 1
            row = rows[u]
            while row:
                v = (row & -row).bit_length() - 1
                row &= row - 1
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        return seen == self.n

    # -- isomorphism --------------------------------------------------------

    def canonical_form(self) -> bytes:
        """Deterministic bytes equal for two digraphs iff they are isomorphic (n <= 8)."""
        return _canonize(self.n, self.mask)[0]

    def isomorphism_to(self, other: Digraph) -> tuple[int, ...] | None:
        """A vertex bijection carrying self onto other, or None."""
        _require("other", other, Digraph)
        if self.n != other.n:
            return None
        ca, oa = _canonize(self.n, self.mask)
        cb, ob = _canonize(other.n, other.mask)
        if ca != cb:
            return None
        mapping = [0] * self.n
        for i in range(self.n):
            mapping[oa[i]] = ob[i]
        # a check that `python -O` keeps: a wrong canonical order must not pass as an isomorphism
        if self.relabel(mapping) != other:
            raise RuntimeError(f"canonical orders of {self!r} and {other!r} do not give an isomorphism")
        return tuple(mapping)

    def isomorphic_to(self, other: Digraph) -> bool:
        _require("other", other, Digraph)
        return self.n == other.n and self.canonical_form() == other.canonical_form()

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        # the out-words hold n as their length, 8n bytes
        return self._out == other._out

    def __hash__(self) -> int:
        return hash(self._out)

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {list(self.arcs)!r})"


def _require(name: str, value: object, kind: type) -> None:
    """A TypeError naming the argument unless value is a kind; without it a wrong type fails on some attribute."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def _vertex_count(name: str, value: int) -> int:
    """value as a Python int, as `operator.index` reads it; one that is no integer is a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer vertex count, got {value!r}") from None


def _bits(s: int) -> tuple[int, ...]:
    """The members of a vertex bit set, ascending, in time linear in their number."""
    members = []
    while s:
        low = s & -s
        members.append(low.bit_length() - 1)
        s ^= low
    return tuple(members)


def _component_masks(s: int, rows: list[int]) -> list[int]:
    """Components of the graph with neighbour rows `rows` on the vertex bit set s, as bit sets by minimum vertex.

    The rows must be symmetric: u is in rows[v] exactly when v is in rows[u].
    Bits outside s are ignored, so a row may be negative. Each round grows a
    component from its smaller side: it ORs the rows of the frontier, or keeps
    the unreached vertices with a neighbour in the frontier, which finds the
    same vertices because the rows are symmetric. A component stops growing
    once nothing is left unreached, so a split of s reads about as many rows
    as its smaller side has vertices.
    """
    comps: list[int] = []
    while s:
        frontier = comp = s & -s
        rest = s ^ comp
        while frontier and rest:
            nxt = 0
            if frontier.bit_count() <= rest.bit_count():
                while frontier:
                    low = frontier & -frontier
                    nxt |= rows[low.bit_length() - 1]
                    frontier ^= low
                nxt &= rest
            else:
                left = rest
                while left:
                    low = left & -left
                    if rows[low.bit_length() - 1] & frontier:
                        nxt |= low
                    left ^= low
            frontier = nxt
            comp |= nxt
            rest ^= nxt
        comps.append(comp)
        s = rest
    return comps


@lru_cache(maxsize=_MEMO_SIZE)
def _canonize(n: int, mask: int) -> tuple[bytes, tuple[int, ...]]:
    """Canonical bytes of the n-vertex digraph with this mask, and a vertex order achieving them."""
    if n > MAX_CANONICAL_VERTICES:
        raise ValueError(f"canonical_form supports n <= {MAX_CANONICAL_VERTICES}")
    g = Digraph.from_mask(n, mask)
    invariant = [
        (out.bit_count(), into.bit_count(), (out & into).bit_count())
        for out, into in zip(g.out_rows(), g.in_rows())
    ]
    # Isomorphisms preserve the degree triple, so only orderings that keep
    # the sorted triple sequence can achieve the minimum.
    groups: dict[tuple[int, int, int], list[int]] = {}
    for v in range(n):
        groups.setdefault(invariant[v], []).append(v)
    group_lists = [groups[k] for k in sorted(groups)]
    arcs = g.arcs
    best_mask = -1
    best_order: tuple[int, ...] = ()
    for parts in product(*(permutations(cell) for cell in group_lists)):
        order: tuple[int, ...] = sum(parts, ())
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        relabelled = 0
        for u, v in arcs:
            relabelled |= 1 << pos[u] * n + pos[v]
        if best_mask < 0 or relabelled < best_mask:
            best_mask = relabelled
            best_order = order
    return bytes([n]) + best_mask.to_bytes((n * n + 7) // 8, "big"), best_order


class UndirectedGraph:
    """An undirected simple graph on vertices 0..n-1, held as its symmetric digraph.

    Edge {u, v} is the arc pair (u, v), (v, u); every operation but the input checks is the digraph's.
    """

    __slots__ = ("_sym",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n = operator.index(n)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            try:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-edge ({u}, {u}) not allowed")
                rows[u] |= _BIT[v]
                rows[v] |= _BIT[u]
            except TypeError:
                raise TypeError(f"edge ({u!r}, {v!r}) needs integer endpoints") from None
        object.__setattr__(self, "_sym", Digraph._of_rows(rows, rows))

    @classmethod
    def _of(cls, sym: Digraph) -> UndirectedGraph:
        """Wrap a digraph that is symmetric by construction, without checking it."""
        u = cls.__new__(cls)
        object.__setattr__(u, "_sym", sym)
        return u

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UndirectedGraph is immutable")

    @property
    def n(self) -> int:
        return self._sym.n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v) with u < v, ascending."""
        return tuple((u, v) for u, v in self._sym.arcs if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        return self._sym.has_arc(u, v)

    def complement(self) -> UndirectedGraph:
        return UndirectedGraph._of(self._sym.complement())

    def induced(self, vertices: Iterable[int]) -> UndirectedGraph:
        """Induced subgraph on a vertex set, read as `Digraph.induced` reads it."""
        sub = sorted(set(vertices))
        if not sub:
            raise ValueError("induced subgraph needs at least one vertex")
        return UndirectedGraph._of(self._sym.induced(sub))

    def to_digraph(self) -> Digraph:
        """The symmetric digraph with both arcs per edge."""
        return self._sym

    def canonical_form(self) -> bytes:
        return self._sym.canonical_form()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self._sym == other._sym

    def __hash__(self) -> int:
        return hash(self._sym)

    def __repr__(self) -> str:
        return f"UndirectedGraph({self.n}, {list(self.edges)!r})"


# -- edge-list text format ---------------------------------------------------


# the exact text `format_edge_list` writes. It admits no blank body, which
# np.fromstring reads as [0], and no numeral past two ASCII digits, which it
# would saturate at 2**63 - 1. The quantifiers are possessive: a numeral or
# a line, once read, is never given back, which cannot change a full match.
_FORMATTED = re.compile(r"n ([0-9]{1,2}+)\n(?:[0-9]{1,2}+ [0-9]{1,2}+\n)*+")


def parse_edge_list(text: str) -> Digraph:
    """Parse the plain-text digraph format.

    Line 1 is `n <count>`; every later non-empty line is `u v` for one arc.
    `#` starts a comment. Duplicate arcs and loops are rejected; text that is
    no str is a TypeError.

    Text in the exact form `format_edge_list` writes is read in one numpy pass;
    any other text, and every invalid one, goes to the line reader, which
    alone words the errors.
    """
    _require("text", text, str)
    g = _read_formatted(text)
    return _parse_lines(text) if g is None else g


def _read_formatted(text: str) -> Digraph | None:
    """The digraph of a valid `format_edge_list` text, or None for any other text.

    The arcs are set in an n x 64 bit matrix whose packed rows are the out-words.
    """
    found = _FORMATTED.fullmatch(text)
    if found is None:
        return None
    n = int(found[1])
    if not 1 <= n <= MAX_VERTICES:
        return None
    ends = np.fromstring(text[found.end(1) + 1 :], np.intp, -1, " ")
    bits = np.zeros((n, 64), np.uint8)
    try:
        bits[ends[::2], ends[1::2]] = 1
    except IndexError:  # a tail is n or more, or a head 64 or more
        return None
    out = np.packbits(bits, axis=-1, bitorder="little").tobytes()
    arcs = _word_int(out)
    if arcs & ~_offdiag_words(n) or arcs.bit_count() != ends.size >> 1:  # a loop, a head n or more, a repeat
        return None
    return Digraph._wrap(n, out)


# a numeral as the line reader reads it, without int()'s underscores, plus
# sign and non-ASCII digits; a negative endpoint is worded as out of range
_NUMERAL = re.compile(r"-?[0-9]+")


def _parse_lines(text: str) -> Digraph:
    """Read the edge-list format line by line, naming the line of the first error."""
    n: int | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise EdgeListError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            if not _NUMERAL.fullmatch(fields[1]):
                raise EdgeListError(f"line {lineno}: vertex count {fields[1]!r} is not an integer")
            n = int(fields[1])
            if not 1 <= n <= MAX_VERTICES:
                raise EdgeListError(f"line {lineno}: vertex count must be in 1..{MAX_VERTICES}, got {n}")
            rows = [0] * n
            continue
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        if not all(map(_NUMERAL.fullmatch, fields)):
            raise EdgeListError(f"line {lineno}: arc endpoints must be integers, got {raw!r}")
        u, v = map(int, fields)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise EdgeListError(f"line {lineno}: loop ({u}, {u}) not allowed")
        if rows[u] >> v & 1:
            raise EdgeListError(f"line {lineno}: duplicate arc ({u}, {v})")
        rows[u] |= 1 << v
    if n is None:
        raise EdgeListError("empty input: missing 'n <count>' header")
    return Digraph._of_rows(rows)


def format_edge_list(g: Digraph) -> str:
    """Serialize as header plus lexicographically sorted arc lines."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs)
    return "\n".join(lines) + "\n"


def to_dot(g: Digraph) -> str:
    """GraphViz text: a digraph named G with one node per vertex and one `->` line per arc."""
    lines = ["digraph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -> {v};" for u, v in g.arcs)
    lines.append("}")
    return "\n".join(lines) + "\n"
