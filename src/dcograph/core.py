"""Immutable bit-matrix digraphs, undirected graphs, isomorphism, and edge-list IO."""
from __future__ import annotations

import operator
import re
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable

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


def _join_rows(rows: list[int], n: int) -> int:
    """The bit matrix whose row u is rows[u], assembled in one pass."""
    mask = 0
    for row in reversed(rows):
        mask = mask << n | row
    return mask


class Digraph:
    """A digraph on vertices 0..n-1 with arcs stored as one bit per ordered pair.

    Bit u*n+v is set iff the arc (u, v) is present, so row u of the n x n bit
    matrix is u's out-neighbourhood and column v is v's in-neighbourhood.
    Columns are read from the matrix's binary text (`_text`) by one slice
    each, so the converse is one transpose of that text. Instances are
    immutable; all operations return new values.
    """

    __slots__ = ("n", "_mask")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()) -> None:
        n = operator.index(n)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        self.n = n
        rows = [0] * n
        for u, v in arcs:
            try:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"loop ({u}, {u}) not allowed")
                rows[u] |= _BIT[v]
            except TypeError:
                raise TypeError(f"arc ({u!r}, {v!r}) needs integer endpoints") from None
        object.__setattr__(self, "_mask", _join_rows(rows, n))

    def __setattr__(self, name: str, value: object) -> None:
        if name == "n" and not hasattr(self, "_mask"):
            object.__setattr__(self, name, value)
            return
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
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "_mask", mask)
        return g

    @classmethod
    def edgeless(cls, n: int) -> Digraph:
        return cls(n)

    @property
    def mask(self) -> int:
        return self._mask

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
        return self._mask.bit_count()

    def has_arc(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        return bool(self._mask >> u * self.n + v & 1)

    def out_row(self, u: int) -> int:
        """Out-neighbourhood of u as an n-bit mask."""
        u = operator.index(u)
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range for n={self.n}")
        return self._mask >> u * self.n & (1 << self.n) - 1

    def in_row(self, v: int) -> int:
        """In-neighbourhood of v as an n-bit mask."""
        return int(self._column(v), 2)

    def out_rows(self) -> list[int]:
        """Every out-neighbourhood, row u of the bit matrix for u = 0..n-1."""
        n, full, mask = self.n, (1 << self.n) - 1, self._mask
        return [mask >> u * n & full for u in range(n)]

    def in_rows(self) -> list[int]:
        """Every in-neighbourhood, column v of the bit matrix for v = 0..n-1."""
        n, text = self.n, self._text()
        return [int(text[n - 1 - v::n], 2) for v in range(n)]

    def out_degree(self, u: int) -> int:
        return self.out_row(u).bit_count()

    def in_degree(self, v: int) -> int:
        return self._column(v).count("1")

    def _text(self) -> str:
        """The bit matrix as n*n binary digits, highest bit first.

        Digit (n-1-u)*n + (n-1-v) is pair (u, v), so the slice [n-1-v::n] is
        column v with row n-1 first: the binary text of v's in-row.
        """
        return bin(self._mask | 1 << self.n * self.n)[3:]

    def _column(self, v: int) -> str:
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self._text()[self.n - 1 - v::self.n]

    # -- unary transforms ---------------------------------------------------

    def complement(self) -> Digraph:
        return Digraph._of(self.n, self._mask ^ _full_offdiag(self.n))

    def converse(self) -> Digraph:
        """The transpose: the matrix text's columns, joined in order, are the transposed text."""
        n, text = self.n, self._text()
        return Digraph._of(n, int("".join([text[a::n] for a in range(n)]), 2))

    def sym_part(self) -> Digraph:
        """Spanning subdigraph keeping exactly the arcs whose reverse is also present."""
        return Digraph._of(self.n, self._mask & self.converse()._mask)

    def asym_part(self) -> Digraph:
        """Spanning subdigraph keeping exactly the arcs whose reverse is absent."""
        return Digraph._of(self.n, self._mask & ~self.converse()._mask)

    def underlying(self) -> UndirectedGraph:
        """Forget orientations: edge {u,v} iff at least one of the two arcs exists."""
        return UndirectedGraph._of(Digraph._of(self.n, self._mask | self.converse()._mask))

    def induced(self, vertices: Iterable[int]) -> Digraph:
        """Induced subdigraph on a vertex set, repeats and order ignored; kept vertices are relabeled 0.. in order."""
        sub = sorted(set(map(operator.index, vertices)))
        if not sub:
            raise ValueError("induced subdigraph needs at least one vertex")
        if sub[0] < 0 or sub[-1] >= self.n:
            raise ValueError(f"vertices {sub} out of range for n={self.n}")
        n, k = self.n, len(sub)
        rank = dict(zip(sub, range(k)))
        keep = sum(1 << v for v in sub)
        rows = [0] * k
        for i, u in enumerate(sub):
            # each arc u->v into a kept v lands at column rank[v] of row i
            row = self._mask >> u * n & keep
            while row:
                low = row & -row
                rows[i] |= 1 << rank[low.bit_length() - 1]
                row ^= low
        return Digraph._of(k, _join_rows(rows, k))

    def delete_vertex(self, v: int) -> Digraph:
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
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
        return Digraph._of(self.n, _join_rows(rows, self.n))

    # -- predicates ---------------------------------------------------------

    def is_edgeless(self) -> bool:
        return self._mask == 0

    def is_bidirectional_complete(self) -> bool:
        return self._mask == _full_offdiag(self.n)

    def is_oriented(self) -> bool:
        return self._mask & self.converse()._mask == 0

    def is_tournament(self) -> bool:
        conv = self.converse()._mask
        return self._mask & conv == 0 and self._mask | conv == _full_offdiag(self.n)

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
        return _canonize(self.n, self._mask)[0]

    def isomorphism_to(self, other: Digraph) -> tuple[int, ...] | None:
        """A vertex bijection carrying self onto other, or None."""
        if self.n != other.n:
            return None
        ca, oa = _canonize(self.n, self._mask)
        cb, ob = _canonize(other.n, other._mask)
        if ca != cb:
            return None
        mapping = [0] * self.n
        for i in range(self.n):
            mapping[oa[i]] = ob[i]
        # a check that `python -O` keeps: a wrong canonical order must not pass as an isomorphism
        if self.relabel(mapping)._mask != other._mask:
            raise RuntimeError(f"canonical orders of {self!r} and {other!r} do not give an isomorphism")
        return tuple(mapping)

    def isomorphic_to(self, other: Digraph) -> bool:
        return self.n == other.n and self.canonical_form() == other.canonical_form()

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self.n, self._mask))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {list(self.arcs)!r})"


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
        object.__setattr__(self, "_sym", Digraph._of(n, _join_rows(rows, n)))

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
# would saturate at 2**63 - 1.
_FORMATTED = re.compile(r"n ([0-9]{1,2})\n(?:[0-9]{1,2} [0-9]{1,2}\n)*")


def parse_edge_list(text: str) -> Digraph:
    """Parse the plain-text digraph format.

    Line 1 is `n <count>`; every later non-empty line is `u v` for one arc.
    `#` starts a comment. Duplicate arcs and loops are rejected.

    Text in the exact form `format_edge_list` writes is read in one numpy pass;
    any other text, and every invalid one, goes to the line reader, which
    alone words the errors.
    """
    g = _read_formatted(text)
    return _parse_lines(text) if g is None else g


def _read_formatted(text: str) -> Digraph | None:
    """The digraph of a valid `format_edge_list` text, or None for any other text."""
    found = _FORMATTED.fullmatch(text)
    if found is None:
        return None
    n = int(found[1])
    if not 1 <= n <= MAX_VERTICES:
        return None
    ends = np.fromstring(text[found.end(1) + 1 :], np.intp, -1, " ")
    bits = np.zeros((n, n), np.uint8)
    try:
        bits[ends[::2], ends[1::2]] = 1
    except IndexError:  # an endpoint is n or more
        return None
    mask = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    if mask.bit_count() != ends.size >> 1 or mask & _full_offdiag(n) != mask:  # a repeated arc or a loop
        return None
    return Digraph._of(n, mask)


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
            try:
                n = int(fields[1])
            except ValueError:
                raise EdgeListError(f"line {lineno}: vertex count {fields[1]!r} is not an integer") from None
            if not 1 <= n <= MAX_VERTICES:
                raise EdgeListError(f"line {lineno}: vertex count must be in 1..{MAX_VERTICES}, got {n}")
            rows = [0] * n
            continue
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: arc endpoints must be integers, got {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"line {lineno}: arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise EdgeListError(f"line {lineno}: loop ({u}, {u}) not allowed")
        if rows[u] >> v & 1:
            raise EdgeListError(f"line {lineno}: duplicate arc ({u}, {v})")
        rows[u] |= 1 << v
    if n is None:
        raise EdgeListError("empty input: missing 'n <count>' header")
    return Digraph._of(n, _join_rows(rows, n))


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
