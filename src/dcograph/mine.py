"""Exhaustive small-digraph enumeration, obstruction mining, and verification suites."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator

import numpy as np

from dcograph.construct import evaluate
from dcograph.core import Digraph, _full_offdiag, _join_rows, _vertex_count, mask_array
from dcograph.decompose import di_co_tree, listed_trees
from dcograph.patterns import CATALOG, PATTERNS, name_word, pattern_words
from dcograph.recognize import (
    ClassId,
    GRAMMAR_CLASSES,
    MICRO_CLASSES,
    PATTERN_ONLY_CLASSES,
    WORD_BIT,
    _class_id,
    member,
)
from dcograph.uclasses import DIRECTED, UClassId


# -- vectorized bit-mask machinery --------------------------------------------
#
# A labeled n-vertex digraph is one uint64 with bit u*n+v per arc, matching
# core.Digraph. Relabelings, embeddings, vertex deletions and the transpose are
# vertex maps, applied in bulk to masks split once into their n out-rows: each
# row goes through its map's column table and is shifted into place.


def _rows(n: int, masks: np.ndarray) -> list[np.ndarray]:
    """The n out-rows of each n-vertex mask, as indices into a column table."""
    low = np.uint64((1 << n) - 1)
    return [((masks >> np.uint64(u * n)) & low).astype(np.intp) for u in range(n)]


def _column_tables(bits: np.ndarray) -> np.ndarray:
    """The column tables of a stack of maps: entry r of row k is the row r with
    each column v replaced by the bit bits[k, v], which is 0 to drop the column."""
    tab = np.zeros((len(bits), 1 << bits.shape[1]), dtype=np.uint64)
    for v in range(bits.shape[1]):
        tab[:, 1 << v : 2 << v] = tab[:, : 1 << v] | bits[:, v : v + 1]
    return tab


def _gather(rows: list[np.ndarray], tables: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The (k, m) masks whose entry [k, i] ORs, over each row u, tables[k][rows[u][i]] << shifts[k, u]."""
    out = np.take(tables << shifts[:, :1], rows[0], axis=1)
    for u in range(1, len(rows)):
        out |= np.take(tables << shifts[:, u : u + 1], rows[u], axis=1)
    return out


# entries of the widest array one block of `_relabellings` makes (256 KB of
# uint64); a block's column gather makes one more of the same size. Blocks
# twice as large ran about as fast on 10,000 masks and up to 1.8 times slower
# on 700; a loop over single permutations was slower at every size measured.
_CHUNK = 1 << 15


@lru_cache(maxsize=6)
def _perm_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row shifts and column tables of all n! permutations p of range(n), stacked in one row per p.

    Row k of the (n!, n) shifts holds p[u]*n for each vertex u, and row k of
    the (n!, 2^n) table moves column v to column p[v]: 403 KB together at n = 6.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.uint64).reshape(-1, n)
    shifts, tab = perms * np.uint64(n), _column_tables(np.uint64(1) << perms)
    for table in (shifts, tab):
        table.setflags(write=False)
    return shifts, tab


def _relabellings(n: int, masks: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Every relabelling of each n-vertex mask, in blocks (lo, block) of at most _CHUNK entries.

    block[k, i] is masks[lo + i] relabelled by one permutation, and the blocks
    at one lo together cover all n! permutations once, each block one
    `_gather` through the stacked tables of its permutations.
    """
    shifts, tab = _perm_tables(n)
    for lo in range(0, masks.size, _CHUNK):
        part = masks[lo : lo + _CHUNK]
        rows = _rows(n, part)
        step = _CHUNK // part.size
        for k in range(0, len(tab), step):
            yield lo, _gather(rows, tab[k : k + step], shifts[k : k + step])


def canonical_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Per-element canonical (minimum over all n! relabelings) masks, shaped as masks; 1 <= n <= 6.

    A mask that has no n-vertex digraph is a ValueError (`core.mask_array`).
    """
    n = _vertex_count("n", n)
    if not 1 <= n <= 6:
        raise ValueError(f"bulk canonicalization supports 1..6 vertices, got {n}")
    masks = mask_array(n, masks)
    flat = masks.reshape(-1)
    best = flat.copy()
    for lo, block in _relabellings(n, flat):
        part = best[lo : lo + block.shape[1]]
        np.minimum(part, block.min(axis=0), out=part)
    return best.reshape(masks.shape)


def _distinct(masks: np.ndarray) -> np.ndarray:
    """The distinct masks, ascending; np.unique would import numpy.ma on its first call."""
    ordered = np.sort(masks)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


# pair states (u -> new) | (new -> u) << 1 that each universe admits; every
# universe is closed under vertex deletion and isomorphism
_STATES: dict[str, tuple[int, ...]] = {
    "digraphs": (0, 1, 2, 3),
    "oriented": (0, 1, 2),
    "tournaments": (1, 2),
    "undirected": (0, 3),
}


@lru_cache(maxsize=len(_STATES) * 6)
def _representatives(universe: str, n: int) -> np.ndarray:
    """The n-vertex digraphs of the universe up to isomorphism (n <= 6), as their ascending minimum masks, read-only:
    `_extend` of the (n-1)-vertex level, since the universe is closed under vertex deletion."""
    if universe not in _STATES:
        raise ValueError(f"unknown universe {universe!r}")
    if not 1 <= n <= 6:
        raise ValueError(f"enumeration supports 1..6 vertices, got {n}")
    masks = np.zeros(1, np.uint64) if n == 1 else _extend(n, _representatives(universe, n - 1), _STATES[universe], True)
    masks.setflags(write=False)
    return masks


def _graphs(universe: str, n: int) -> list[Digraph]:
    """`_representatives(universe, n)` as digraphs, built afresh; n that is no integer is a TypeError."""
    n = _vertex_count("n", n)
    # every mask comes out of canonical_masks, which checked it
    return [Digraph._of(n, m) for m in _representatives(universe, n).tolist()]


def enumerate_digraphs(n: int) -> list[Digraph]:
    """All n-vertex digraphs up to isomorphism (n <= 6), canonically ordered."""
    return _graphs("digraphs", n)


def enumerate_tournaments(n: int) -> list[Digraph]:
    """All n-vertex tournaments up to isomorphism (n <= 6), canonically ordered."""
    return _graphs("tournaments", n)


def _one_vertex_extensions(n: int, base: np.ndarray, states: tuple[int, ...]) -> np.ndarray:
    """Every (n-1)-vertex mask in base with new vertex n-1 attached in all len(states)^(n-1) ways."""
    ranks = np.arange(n - 1, dtype=np.uint64)[None, :]
    embedded = _gather(_rows(n - 1, base), _column_tables(np.uint64(1) << ranks), ranks * np.uint64(n))[0]
    return (embedded[:, None] | _extension_masks(n, states)[None, :]).ravel()


def _extension_masks(n: int, states: tuple[int, ...]) -> np.ndarray:
    """All len(states)^(n-1) attachments of new vertex n-1, one pair state per vertex 0..n-2."""
    w, k = n - 1, len(states)
    ids = np.arange(k ** w, dtype=np.int64)
    lut = np.array(states, dtype=np.uint64)
    masks = np.zeros(k ** w, dtype=np.uint64)
    for j in range(w):
        state = lut[ids // k ** j % k]
        masks |= (state & np.uint64(1)) << np.uint64(j * n + w)
        masks |= (state >> np.uint64(1)) << np.uint64(w * n + j)
    return masks


def _delete(n: int, rows: list[np.ndarray], d: int) -> np.ndarray:
    """The split n-vertex masks with vertex d deleted: its row and column go,
    and the vertices above it move down one."""
    ranks = np.arange(n - 1, dtype=np.uint64)[None, :]
    tables = _column_tables(np.insert(np.uint64(1) << ranks, d, 0, axis=1))
    return _gather(rows[:d] + rows[d + 1 :], tables, ranks * np.uint64(n - 1))[0]


def _transpose(n: int, masks: np.ndarray) -> np.ndarray:
    """The converse of each n-vertex mask: out-row u moves into column u."""
    ranks = np.arange(n, dtype=np.uint64)[None, :]
    return _gather(_rows(n, masks), _column_tables(np.uint64(1) << ranks * np.uint64(n)), ranks)[0]


# the number of set bits of every row of at most 6 columns
_POPCOUNT = np.array([bin(row).count("1") for row in range(1 << 6)], dtype=np.intp)


def _orderly(n: int, masks: np.ndarray, rows: list[np.ndarray]) -> np.ndarray:
    """Whether vertex n-1 of each n-vertex mask has a maximal key among its vertices.

    rows are the masks' `_rows`. A vertex's key is (total degree, out-degree,
    mutual pairs), which relabelling does not change. So every n-vertex
    digraph H is isomorphic to an extension that passes: attach a max-key
    vertex v of H as vertex n-1 to the canonical mask of H - v. An
    enumeration that extends every class of H - v therefore still meets every
    class of H after keeping only the extensions that pass.
    """
    keys = [
        (_POPCOUNT[row] + _POPCOUNT[col]) << 8 | _POPCOUNT[row] << 4 | _POPCOUNT[row & col]
        for row, col in zip(rows, _rows(n, _transpose(n, masks)))
    ]
    return keys[-1] >= np.max(keys, axis=0)


def _extend(n: int, base: np.ndarray, states: tuple[int, ...], whole: bool) -> np.ndarray:
    """The sorted canonical masks of the n-vertex digraphs whose single-vertex deletions all lie in base.

    base holds the sorted canonical (n-1)-vertex masks of a class closed under
    isomorphism, and each pair of the new vertex takes one of states. A
    deletion lies in base when its labelled mask is a relabelling of a base
    mask, so deletions are looked up, never canonicalised. When base is a
    whole level of a universe (whole), no deletion is looked up: the universe
    is closed under vertex deletion, so every one lies in base. Only
    extensions whose new vertex has a maximal key (`_orderly`) are
    canonicalised: every class still arises.
    """
    if not whole:
        labelled = np.sort(np.concatenate([block.ravel() for _, block in _relabellings(n - 1, base)]))
    survivors: list[np.ndarray] = []
    batch = 200  # base masks extended at once, which bounds memory
    for start in range(0, base.size, batch):
        cands = _one_vertex_extensions(n, base[start : start + batch], states)
        rows = _rows(n, cands)
        # deleting the attached vertex n-1 returns the base mask, so only
        # deletions of vertices 0..n-2 need checking
        for d in range(0 if whole else n - 1):
            deleted = _delete(n, rows, d)
            pos = np.minimum(np.searchsorted(labelled, deleted), labelled.size - 1)
            keep = labelled[pos] == deleted
            cands, rows = cands[keep], [row[keep] for row in rows]
        survivors.append(canonical_masks(n, cands[_orderly(n, cands, rows)]))
    return _distinct(np.concatenate(survivors))


@lru_cache(maxsize=6)
def _tree_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted canonical masks of the n-vertex members of DC (n <= 6), one per listed di-co-tree, with each
    one's class word over the 23 constructive classes, read-only. No digraph is split. A mask absent from the
    table is in no constructive class, as their members are in DC."""
    listed = listed_trees(n)
    masks = canonical_masks(n, np.array([_join_rows(list(rows), n) for rows, _ in listed], dtype=np.uint64))
    order = np.argsort(masks)
    columns = (masks[order], np.array([word for _, word in listed], dtype=np.uint64)[order])
    for column in columns:
        column.setflags(write=False)
    return columns


def _constructive_words(n: int, masks: np.ndarray) -> np.ndarray:
    """The constructive class word of each canonical n-vertex mask, by one `searchsorted` into `_tree_table`."""
    table, words = _tree_table(n)
    at = np.minimum(np.searchsorted(table, masks), table.size - 1)
    return np.where(table[at] == masks, words[at], np.uint64(0))


def _row_scans(n: int, masks: np.ndarray) -> np.ndarray:
    """Whether each n-vertex mask has an anticircuit, a two-switch, and a path u -> w -> x, x != u, with no arc
    u -> x, as a (3, masks.size) boolean array from one pass over each pair of out-rows a of u and b of w: heads
    in a & ~b and in b & ~a (`patterns.ANTICIRCUIT`), the same other than w and u (`patterns.TWO_SWITCH`), and
    w in a with a head of b & ~a other than u."""
    rows, found = _rows(n, masks), np.zeros((3, masks.size), dtype=bool)
    for (u, a), (w, b) in permutations(enumerate(rows), 2):
        only_b = (b & ~a & ~(1 << u)) != 0
        found[0] |= (a & ~b != 0) & (b & ~a != 0)
        found[1] |= (a & ~b & ~(1 << w) != 0) & only_b
        found[2] |= (a >> w & 1 != 0) & only_b
    return found


@lru_cache(maxsize=len(_STATES) * 6)
def _level(universe: str, n: int) -> tuple[np.ndarray, ...]:
    """The masks `_representatives(universe, n)` and each one's class word, pattern word and `_row_scans`.

    Bit WORD_BIT[x] of a class word is set when the representative is in class
    x; a pattern word has the bit of each PATTERNS name occurring in it
    (`patterns.pattern_words`). The 23 constructive bits are read from the
    listed di-co-trees (`_tree_table`), so no representative is split. FD is
    free of anticircuits, and TD of two-switches and of D5 (its pattern-word bit).
    """
    masks = _representatives(universe, n)
    patterns, scans = pattern_words(n, masks), _row_scans(n, masks)
    td = ~scans[1] & (patterns & np.uint64(name_word(["D5"])) == 0)
    words = (_constructive_words(n, masks) | td.astype(np.uint64) << np.uint64(WORD_BIT[ClassId.TD])
             | (~scans[0]).astype(np.uint64) << np.uint64(WORD_BIT[ClassId.FD]))
    columns = (masks, words, patterns, scans)
    for column in columns:
        column.setflags(write=False)
    return columns


def class_words(universe: str, n: int, masks: np.ndarray) -> np.ndarray:
    """The class word of each labelled n-vertex digraph of the universe, given by its mask.

    Each mask is found among the level's sorted masks: one equal to a
    representative's mask is that representative, and only the others are
    reduced to their minimum over all relabellings and found again. No digraph
    is built or decomposed. A mask outside the universe, or of no n-vertex
    digraph (`core.mask_array`), is a ValueError. The words are shaped as masks.
    The sweeps read every membership here.
    """
    n = _vertex_count("n", n)
    reps, words = _level(universe, n)[:2]
    given = mask_array(n, masks)
    masks = given.reshape(-1)
    at = np.minimum(np.searchsorted(reps, masks), reps.size - 1)
    miss = np.flatnonzero(reps[at] != masks)
    if miss.size:
        canon = canonical_masks(n, masks[miss])
        at[miss] = np.minimum(np.searchsorted(reps, canon), reps.size - 1)
        if not np.array_equal(reps[at[miss]], canon):
            raise ValueError(f"a mask is not a digraph of the {universe} universe on {n} vertices")
    return words[at].reshape(given.shape)


# -- reports ------------------------------------------------------------------


@dataclass
class CheckRow:
    subject: str
    verdict: str  # "ok" | "fail"
    canonical: str
    details: str

    def line(self) -> str:
        return f"{self.subject}\t{self.verdict}\t{self.canonical}\t{self.details}"


@dataclass
class VerifyReport:
    suite: str
    rows: list[CheckRow] = field(default_factory=list)

    def ok(self) -> bool:
        return all(r.verdict != "fail" for r in self.rows)

    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if r.verdict == "fail"]

    def lines(self) -> list[str]:
        return [r.line() for r in self.rows]

    def render(self) -> str:
        head = f"suite {self.suite}: {len(self.rows)} checks, {len(self.failures())} failures"
        return "\n".join([head] + self.lines())


@dataclass
class ObstructionReport:
    class_id: ClassId
    n_max: int
    found: list[Digraph]
    confirmed: list[str]
    missing: list[str]
    extra: list[Digraph]
    out_of_reach: list[str]

    def ok(self) -> bool:
        return not self.missing and not self.extra

    def lines(self) -> list[str]:
        cname = self.class_id.value
        out = []
        for name in self.confirmed:
            out.append(f"{cname}\tconfirmed\t{PATTERNS[name].canonical_form().hex()}\t{name}")
        for name in self.missing:
            out.append(f"{cname}\tmissing\t{PATTERNS[name].canonical_form().hex()}\t{name} not found at n <= {self.n_max}")
        for g in self.extra:
            out.append(f"{cname}\textra\t{g.canonical_form().hex()}\tmined non-catalog obstruction on {g.n} vertices")
        for name in self.out_of_reach:
            out.append(f"{cname}\tout-of-reach\t{PATTERNS[name].canonical_form().hex()}\t{name} has {PATTERNS[name].n} > {self.n_max} vertices")
        return out

    def render(self) -> str:
        status = "ok" if self.ok() else "FAIL"
        head = (
            f"class {self.class_id.value}: {len(self.found)} minimal obstructions at n <= {self.n_max} "
            f"({len(self.confirmed)} confirmed, {len(self.missing)} missing, {len(self.extra)} extra) [{status}]; "
            f"completeness certified only for n <= {self.n_max}"
        )
        return "\n".join([head] + self.lines())


MINEABLE_CLASSES: tuple[ClassId, ...] = GRAMMAR_CLASSES + (ClassId.TT,) + MICRO_CLASSES


def is_minimal_obstruction(g: Digraph, x: ClassId | str) -> bool:
    """True when g is outside the class but every single-vertex deletion is inside."""
    x = _class_id(x)
    if member(g, x):
        return False
    return all(member(g.delete_vertex(v), x) for v in range(g.n))


@lru_cache(maxsize=5)
def _obstructions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted n-vertex candidates of all 23 constructive classes' minimal obstructions, with each one's
    obstruction word (2 <= n <= 6), read-only. Each class lies in DC, so each deletion of an obstruction is a DC
    member: the candidates are `_extend` of `_tree_table`. Bit WORD_BIT[x] of a word is set when the candidate is
    outside x and each of its deletions inside, read from the table, so no class is assumed hereditary."""
    cands = _extend(n, _tree_table(n - 1)[0], _STATES["digraphs"], False)
    below = np.bitwise_and.reduce([_constructive_words(n - 1, canonical_masks(n - 1, _delete(n, _rows(n, cands), d)))
                                   for d in range(n)])
    words = below & ~_constructive_words(n, cands)
    for column in (cands, words):
        column.setflags(write=False)
    return cands, words


def minimal_forbidden(x: ClassId | str, n_max: int = 5) -> ObstructionReport:
    """Mine all minimal non-members with <= n_max vertices and diff against the catalog.

    A digraph is a minimal obstruction when it is outside the class but every
    single-vertex deletion is inside. Membership comes from the listed
    di-co-trees read through `RULES` (`_tree_table`), so the catalog under
    test never influences the search. Every class reads its bit of one shared
    pass per size (`_obstructions`), which assumes no heredity. The class may
    be given by value ("DC"); n_max that is no integer is a TypeError.
    """
    x = _class_id(x)
    if x in PATTERN_ONLY_CLASSES:
        raise ValueError(f"{x.value} has no constructive recognizer to mine against")
    n_max = _vertex_count("n_max", n_max)
    if not 2 <= n_max <= 6:
        raise ValueError("minimal_forbidden supports n_max in 2..6")

    found: list[Digraph] = []
    for n in range(2, n_max + 1):
        cands, words = _obstructions(n)
        found.extend(Digraph._of(n, m) for m in cands[words >> np.uint64(WORD_BIT[x]) & np.uint64(1) != 0].tolist())

    found_forms = {g.canonical_form() for g in found}
    confirmed, missing, out_of_reach = [], [], []
    for name in CATALOG[x.value]:
        p = PATTERNS[name]
        if p.n > n_max:
            out_of_reach.append(name)
        elif p.canonical_form() in found_forms:
            confirmed.append(name)
        else:
            missing.append(name)
    catalog_forms = {PATTERNS[name].canonical_form() for name in CATALOG[x.value]}
    extra = [g for g in found if g.canonical_form() not in catalog_forms]
    return ObstructionReport(
        class_id=x, n_max=n_max, found=found, confirmed=confirmed,
        missing=missing, extra=extra, out_of_reach=out_of_reach,
    )


# -- the sweep as columns --------------------------------------------------------
#
# A suite reads a universe as columns over its representatives: the class
# words, pattern words and row scans of `_level`, the class words of flipped
# digraphs (`_flip_words`), and per-graph predicates run at most once per
# representative. A check is a boolean array over the rows, and its witness is
# its first true row.

# the universes reports name otherwise than by their own names
_NOUNS: dict[str, str] = {"oriented": "oriented digraphs", "undirected": "undirected graphs"}

# the labelled digraphs the suites ask about besides the representatives: a
# representative's mask maps to the flip's mask, which lies in the named universe
_FLIPS: dict[str, tuple[Callable[[int, np.ndarray], np.ndarray], str]] = {
    "complement": (lambda n, m: m ^ np.uint64(_full_offdiag(n)), "digraphs"),
    "converse": (_transpose, "digraphs"),
    "underlying": (lambda n, m: m | _transpose(n, m), "undirected"),
    "symmetric part": (lambda n, m: m & _transpose(n, m), "undirected"),
    "asymmetric part": (lambda n, m: m & ~_transpose(n, m), "oriented"),
}


@lru_cache(maxsize=len(_STATES) * 6 * (len(_FLIPS) + 1))
def _flip_words(universe: str, n: int, flip: str | None) -> np.ndarray:
    """The class words of each representative of `_level(universe, n)`, or of its flip; kept for every suite."""
    op, target = _FLIPS[flip] if flip is not None else (lambda n, m: m, universe)
    words = class_words(target, n, op(n, _level(universe, n)[0]))
    words.setflags(write=False)
    return words


class _Columns:
    """The graphs of a universe with at most n_max vertices (1 <= n_max <= 6), as columns over its levels.

    `masks` holds the representatives' masks level by level and `sizes` their vertex counts, `eff` the size bound
    swept and `noun` the universe's name in reports; `patterns`, `two_switch` and `transitive` are columns of `_level`.
    A representative's `Digraph` is built only for a predicate of `each` or a printed witness.
    """

    def __init__(self, kind: str, n_max: int) -> None:
        n_max = _vertex_count("n_max", n_max)
        if not 1 <= n_max <= 6:
            raise ValueError(f"universes support n_max in 1..6, got {n_max}")
        # tournaments are sparse enough to always sweep through 6 vertices
        self.kind, self.noun = kind, _NOUNS.get(kind, kind)
        self.eff = max(n_max, 6) if kind == "tournaments" else n_max
        levels = [_level(kind, n) for n in range(1, self.eff + 1)]
        self.masks, _, self.patterns, scans = (np.concatenate(column, axis=-1) for column in zip(*levels))
        self.sizes = np.repeat(np.arange(1, self.eff + 1), [level[0].size for level in levels])
        self.two_switch, self.transitive = scans[1], ~scans[2]

    def has(self, x: ClassId, flip: str | None = None) -> np.ndarray:
        """Per row, whether the representative, or its flip, is in class x."""
        words = np.concatenate([_flip_words(self.kind, n, flip) for n in range(1, self.eff + 1)])
        return (words >> np.uint64(WORD_BIT[x]) & np.uint64(1)).astype(bool)

    def free(self, *names: str) -> np.ndarray:
        """Per row, whether none of the named patterns occurs induced."""
        return self.patterns & np.uint64(name_word(names)) == 0

    def each(self, pred: Callable[[Digraph], bool], where: np.ndarray | None = None) -> np.ndarray:
        """Per row, pred of the representative, on the rows where `where` holds (all by default) and
        False elsewhere; pred runs once per such row."""
        found = np.zeros(self.masks.size, dtype=bool)
        rows = np.arange(self.masks.size) if where is None else np.flatnonzero(where)
        found[rows] = [pred(Digraph._of(n, m)) for n, m in zip(self.sizes[rows].tolist(), self.masks[rows].tolist())]
        return found

    def row(self, subject: str, found: np.ndarray, passes_if_found: bool, if_none: str,
            if_found: Callable[[Digraph, int], str]) -> CheckRow:
        """The row for one scan: a witness row passes when some row is found, a
        counterexample row when none is; the first found graph's canonical hex is shown."""
        verdict = "ok" if found.any() == passes_if_found else "fail"
        if not found.any():
            return CheckRow(subject, verdict, "-", if_none)
        i = int(found.argmax())
        g = Digraph._of(int(self.sizes[i]), int(self.masks[i]))
        return CheckRow(subject, verdict, g.canonical_form().hex(), if_found(g, i))


# -- class hierarchy figures ---------------------------------------------------
#
# DIRECTED_HIERARCHY/UNDIRECTED_HIERARCHY transcribe the claimed inclusion
# diagrams: an edge (a, b) claims a is a proper subclass of b, a directed path
# claims inclusion by composition, and pairs with no path either way are
# claimed incomparable.

DIRECTED_HIERARCHY_NODES: tuple[str, ...] = (
    "DC", "OC", "DTP", "OTP", "DCTP", "OCTP", "DWQT", "OWQT", "DCWQT",
    "OCWQT", "DSC", "OSC", "DCSC", "DT", "OT", "TD", "FD",
)

DIRECTED_HIERARCHY_EDGES: tuple[tuple[str, str], ...] = (
    ("OT", "DT"), ("OCWQT", "OTP"), ("OT", "OTP"), ("OSC", "DSC"),
    ("OSC", "OC"), ("DT", "DTP"), ("OTP", "DTP"), ("OCTP", "DCTP"),
    ("OTP", "OC"), ("OCTP", "OC"), ("DSC", "DWQT"), ("OWQT", "DWQT"),
    ("OWQT", "OC"), ("DCSC", "DCWQT"), ("DTP", "DC"), ("DCTP", "DC"),
    ("OC", "DC"), ("DWQT", "DC"), ("DCWQT", "DC"), ("DT", "DSC"),
    ("DT", "DCSC"), ("OT", "OSC"), ("OT", "OCWQT"), ("DT", "DCTP"),
    ("OT", "OCTP"), ("OT", "FD"), ("DT", "TD"),
)

UNDIRECTED_HIERARCHY_NODES: tuple[str, ...] = (
    "C", "TP", "CTP", "T", "SC", "CSC", "WQT", "CWQT",
)

UNDIRECTED_HIERARCHY_EDGES: tuple[tuple[str, str], ...] = (
    ("T", "TP"), ("T", "SC"), ("T", "CSC"), ("TP", "WQT"), ("SC", "WQT"),
    ("SC", "CTP"), ("CSC", "CWQT"), ("WQT", "C"), ("CTP", "CWQT"),
    ("CWQT", "C"),
)


def verify_hierarchy(n_max: int = 5, directed: bool = True) -> VerifyReport:
    """Check every claimed edge (strict inclusion) and non-path pair (incomparability).

    Witnesses are searched among all digraphs (or undirected graphs) with at
    most n_max vertices; rows fail either on a counterexample to an inclusion
    or on a witness that cannot be found within the size bound.
    """
    if directed:
        suite, kind = "hierarchy-directed", "digraphs"
        nodes, edges = DIRECTED_HIERARCHY_NODES, DIRECTED_HIERARCHY_EDGES
        ids = [ClassId(name) for name in nodes]
    else:
        suite, kind = "hierarchy-undirected", "undirected"
        nodes, edges = UNDIRECTED_HIERARCHY_NODES, UNDIRECTED_HIERARCHY_EDGES
        ids = [DIRECTED[UClassId(name)] for name in nodes]
    cols = _Columns(kind, n_max)
    # the representatives are pairwise non-isomorphic, so a row names a class
    mem = {name: cols.has(x) for name, x in zip(nodes, ids)}

    report = VerifyReport(suite=suite)
    for a, b in edges:
        report.rows.append(cols.row(
            f"{a} subset-of {b}", mem[a] & ~mem[b], False,
            f"holds on all {cols.masks.size} graphs with at most {cols.eff} vertices",
            lambda g, _: f"member of {a} outside {b} on {g.n} vertices"))
        report.rows.append(cols.row(
            f"{a} proper-subset {b}", mem[b] & ~mem[a], True,
            f"no separating witness with at most {cols.eff} vertices",
            lambda g, _: f"witness in {b} but not {a} on {g.n} vertices"))

    # the classes below each class by a directed path: the transitive closure of the edges (Warshall)
    reach = {a: {b for x, b in edges if x == a} for a in nodes}
    for via in nodes:
        for a in nodes:
            if via in reach[a]:
                reach[a] |= reach[via]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if b in reach[a] or a in reach[b]:
                continue
            for x, y in ((a, b), (b, a)):
                report.rows.append(cols.row(
                    f"{x} not-below {y}", mem[x] & ~mem[y], True,
                    f"claimed incomparable but no witness in {x} outside {y} "
                    f"with at most {cols.eff} vertices",
                    lambda g, _: f"witness in {x} but not {y} on {g.n} vertices"))
    return report


# -- characterization theorem suite --------------------------------------------


def _source_elimination(g: Digraph) -> bool:
    # on tournaments: repeatedly peel the vertex beating all remaining ones;
    # sink elimination is this on the converse
    cur = g
    while cur.n > 1:
        hits = [v for v, row in enumerate(cur.out_rows()) if row.bit_count() == cur.n - 1]
        if not hits:
            return False
        cur = cur.delete_vertex(hits[0])
    return True


_D1_6 = ("D1", "D2", "D3", "D4", "D5", "D6")
_D1_8 = _D1_6 + ("D7", "D8")
_DTP_CORE = _D1_6 + ("D10", "D11", "D13", "D14", "D15")
_Q_ALL = tuple(f"Q{i}" for i in range(1, 8))


def verify_theorems(n_max: int = 5) -> VerifyReport:
    """Cross-check each characterization pointwise on its universe.

    A theorem is its name, its universe's columns, and (label, column) pairs;
    each later column is checked row by row against the first.
    """
    dig, tour, ori = (_Columns(kind, n_max) for kind in ("digraphs", "tournaments", "oriented"))

    def under(u: UClassId) -> np.ndarray:
        return dig.has(DIRECTED[u], "underlying")

    def grammar(x: ClassId, *items: tuple[str, np.ndarray]) -> tuple:
        return (f"{x.value.lower()}-characterization", dig, ("constructive recognizer", dig.has(x)),
                ("full obstruction set", dig.free(*CATALOG[x.value])), *items)

    theorems = (
        grammar(ClassId.DC, ("reduced set + underlying cograph", dig.free(*_D1_6) & under(UClassId.C))),
        grammar(ClassId.OC,
                ("reduced set + underlying cograph", dig.free("D1", "D5", "K2bidir") & under(UClassId.C)),
                ("transitive + reduced set", dig.transitive & dig.free("K2bidir", "D8"))),
        grammar(ClassId.DTP,
                ("reduced set + underlying trivially-perfect", dig.free(*_DTP_CORE) & under(UClassId.TP))),
        grammar(ClassId.OTP,
                ("reduced set + underlying trivially-perfect",
                 dig.free("D1", "D5", "K2bidir") & under(UClassId.TP)),
                ("transitive + reduced set", dig.transitive & dig.free("K2bidir", "D8", "D12"))),
        grammar(ClassId.DWQT,
                ("reduced set + underlying weakly-quasi-threshold",
                 dig.free(*_D1_6, "Q1", "Q2", "Q4", "Q5", "Q6") & under(UClassId.WQT))),
        grammar(ClassId.OWQT,
                ("transitive + reduced set", dig.transitive & dig.free("D8", "K2bidir", "Q7")),
                ("reduced set + underlying weakly-quasi-threshold",
                 dig.free("D1", "D5", "K2bidir") & under(UClassId.WQT))),
        grammar(ClassId.DCWQT),
        grammar(ClassId.OCWQT,
                ("oriented-cograph + extra obstructions", dig.has(ClassId.OC) & dig.free("D12", "D21", "D22", "D23")),
                ("transitive + reduced set", dig.transitive & dig.free("D8", "K2bidir", "D12", "D21", "D22", "D23"))),
        grammar(ClassId.DSC,
                ("reduced set + underlying simple-cograph", dig.free(*_D1_8, *_Q_ALL) & under(UClassId.SC))),
        grammar(ClassId.OSC, ("transitive + reduced set", dig.transitive & dig.free("D8", "Q7", "coD11", "K2bidir"))),
        grammar(ClassId.DCSC,
                ("reduced set + underlying co-simple-cograph",
                 dig.free(*_D1_8, "coQ1", "coQ4", "coQ5", "coQ6", "Q1", "D10") & under(UClassId.CSC))),
        grammar(ClassId.DT,
                ("reduced set + underlying threshold", dig.free(*_DTP_CORE) & under(UClassId.T)),
                ("trivially-perfect both ways", dig.has(ClassId.DTP) & dig.has(ClassId.DTP, "complement"))),
        ("ot-characterization", dig,
         ("constructive recognizer", dig.has(ClassId.OT)),
         ("oriented co-trivially-perfect recognizer", dig.has(ClassId.OCTP)),
         ("full obstruction set", dig.free(*CATALOG["OT"])),
         ("reduced set + underlying threshold", dig.free("D1", "D5", "K2bidir") & under(UClassId.T)),
         ("transitive + reduced set", dig.transitive & dig.free("D8", "D12", "coD11", "K2bidir"))),
        ("transitive-tournament-equivalences", tour,
         ("transitive arc relation", tour.transitive),
         ("acyclic", tour.each(Digraph.is_acyclic)),
         ("no directed triangle", tour.free("D5")),
         ("source elimination", tour.each(_source_elimination)),
         ("sink elimination", tour.each(lambda g: _source_elimination(g.converse())))),
        # restating no-anticircuit via small patterns plus two-switch-freeness
        # needs the directed triangle: resolving the vertex coincidences of an
        # anticircuit can produce D5, not just D1 or K2bidir, so the two-pattern
        # variant fails (first counterexample D5) while the three-pattern variant holds;
        # FD's bit is its anticircuit scan, so the catalog route checks that D1 and K2bidir hold one
        ("ferrers-two-switch", dig,
         ("no alternating anticircuit", dig.has(ClassId.FD)),
         ("catalog route", dig.free(*CATALOG["FD"]) & dig.has(ClassId.FD)),
         ("two-pattern variant: D1, K2bidir free and no two-switch", dig.free("D1", "K2bidir") & ~dig.two_switch),
         ("three-pattern variant: D1, D5, K2bidir free and no two-switch",
          dig.free("D1", "D5", "K2bidir") & ~dig.two_switch)),
        ("oriented-transitivity", ori,
         ("transitive arc relation", ori.transitive),
         ("forbidden pair", ori.free("D1", "D5"))),
    )
    report = VerifyReport(suite="theorems")
    for name, cols, (base_label, base), *items in theorems:
        for label, column in items:
            report.rows.append(cols.row(
                f"{name}: {label} == {base_label}", base != column, False,
                f"agree on {cols.masks.size} {cols.noun} with at most {cols.eff} vertices",
                lambda g, i: f"{base_label}={bool(base[i])} but {label}={not base[i]} on {g.n} vertices"))
    return report


# -- closure suite --------------------------------------------------------------


def verify_closures(n_max: int = 5) -> VerifyReport:
    """Complement/converse closure facts for the core classes and obstruction families."""
    report = VerifyReport(suite="closures")
    cols = _Columns("digraphs", n_max)

    for x, op in ((ClassId.DC, "complement"), (ClassId.DT, "complement"), (ClassId.DC, "converse")):
        report.rows.append(cols.row(
            f"{x.value} {op}-closed", cols.has(x) != cols.has(x, op), False,
            f"membership matches {op} membership on all {cols.masks.size} digraphs",
            lambda g, _: f"{op} flips membership on {g.n} vertices"))

    for x in (ClassId.DTP, ClassId.DWQT):
        report.rows.append(cols.row(
            f"{x.value} complement-not-closed", cols.has(x) & ~cols.has(x, "complement"), True,
            f"no member with complement outside the class at n <= {cols.eff}",
            lambda g, _: f"member on {g.n} vertices whose complement leaves the class"))

    for label, names in (
        ("obstruction family D1-D8 complement-closed", _D1_8),
        ("obstruction family D12-D15 complement-closed", ("D12", "D13", "D14", "D15")),
    ):
        forms = {PATTERNS[name].canonical_form() for name in names}
        co_forms = {PATTERNS[name].complement().canonical_form() for name in names}
        details = f"complement permutes the {len(names)} patterns" if forms == co_forms else (
            "complement maps the family to a different set")
        report.rows.append(CheckRow(label, "ok" if forms == co_forms else "fail", "-", details))
    return report


# -- projection suite -----------------------------------------------------------


def _round_trip(g: Digraph) -> bool:
    tree = di_co_tree(g)
    return tree is not None and evaluate(tree).isomorphic_to(g)


def verify_projections(n_max: int = 5) -> VerifyReport:
    """Underlying/symmetric/asymmetric projection facts plus the expression round-trip."""
    report = VerifyReport(suite="projections")
    cols = _Columns("digraphs", n_max)

    untests: tuple[tuple[str, ClassId, UClassId], ...] = (
        ("DC: underlying graph is a cograph", ClassId.DC, UClassId.C),
        ("OC: underlying graph is a cograph", ClassId.OC, UClassId.C),
        ("DTP: underlying graph is trivially perfect", ClassId.DTP, UClassId.TP),
        ("OTP: underlying graph is trivially perfect", ClassId.OTP, UClassId.TP),
        ("DWQT: underlying graph is weakly quasi threshold", ClassId.DWQT, UClassId.WQT),
        ("DSC: underlying graph is a simple cograph", ClassId.DSC, UClassId.SC),
        ("DT: underlying graph is threshold", ClassId.DT, UClassId.T),
        ("OT: underlying graph is a cograph", ClassId.OT, UClassId.C),
    )
    symtests: tuple[tuple[str, ClassId, UClassId, ClassId], ...] = (
        ("DC: symmetric part underlies a cograph, asymmetric part oriented cograph",
         ClassId.DC, UClassId.C, ClassId.OC),
        ("DTP: symmetric part underlies trivially perfect, asymmetric part oriented",
         ClassId.DTP, UClassId.TP, ClassId.OTP),
        ("DWQT: symmetric part underlies weakly quasi threshold, asymmetric part oriented",
         ClassId.DWQT, UClassId.WQT, ClassId.OWQT),
        ("DSC: symmetric part underlies a simple cograph, asymmetric part oriented",
         ClassId.DSC, UClassId.SC, ClassId.OSC),
        ("DT: symmetric part underlies threshold, asymmetric part oriented threshold",
         ClassId.DT, UClassId.T, ClassId.OT),
    )

    # a per-graph predicate runs on its scope's members only
    checks: list[tuple[str, ClassId, np.ndarray]] = [
        *((subject, x, cols.has(DIRECTED[u], "underlying")) for subject, x, u in untests),
        *((subject, x, cols.has(DIRECTED[u], "symmetric part") & cols.has(ox, "asymmetric part"))
          for subject, x, u, ox in symtests),
        ("OC: acyclic", ClassId.OC, cols.each(Digraph.is_acyclic, cols.has(ClassId.OC))),
        ("DT: free of two-switches", ClassId.DT, ~cols.two_switch),
        ("DC: expression round-trip rebuilds the digraph", ClassId.DC, cols.each(_round_trip, cols.has(ClassId.DC))),
    ]
    for subject, scope, holds in checks:
        members = cols.has(scope)
        report.rows.append(cols.row(
            subject, members & ~holds, False,
            f"holds for all {int(members.sum())} members with at most {cols.eff} vertices",
            lambda g, _: f"member on {g.n} vertices violates the projection"))
    return report


_SUITES: dict[str, Callable[[int], VerifyReport]] = {
    "hierarchy": lambda n_max: VerifyReport(
        suite="hierarchy",
        rows=verify_hierarchy(n_max, directed=True).rows + verify_hierarchy(n_max, directed=False).rows,
    ),
    "theorems": verify_theorems,
    "closures": verify_closures,
    "projections": verify_projections,
}


def verify_suite(name: str, n_max: int = 5) -> VerifyReport:
    """Dispatch a named verification suite; hierarchy covers both figures."""
    n_max = _vertex_count("n_max", n_max)
    if not 1 <= n_max <= 5:
        raise ValueError("verify_suite supports n_max in 1..5")
    if name not in _SUITES:
        *head, last = _SUITES
        raise ValueError(f"unknown suite {name!r}; expected {', '.join(head)}, or {last}")
    return _SUITES[name](n_max)
