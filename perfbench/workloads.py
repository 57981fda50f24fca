"""The four benchmark workloads: their inputs, the API calls they make and their checks.

Every request workload cycles through a fixed schedule of slots (input kind
and size), so a run's mix of work depends on its length only; the seed
chooses the random structure inside each slot. A request is the list of
API calls a CLI or API caller makes for one input, timed from the input text
to the last verdict or certificate. Checks run outside the timed region and
call no traced function.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    # one schedule period: slot(rng, index) -> Case, in size order
    period: tuple[Callable[[random.Random, int], gen.Case], ...]
    requests_per_second: float  # sets a run's request count from --seconds
    warmup: int  # leading slots of the period that make the warm-up batch
    request: Callable  # (api, case) -> outputs
    check: Callable  # (case, outputs) -> None or a reason for failure

    def cases(self, seed: int, seconds: float) -> list[gen.Case]:
        return self._draw(random.Random(seed), max(1, round(seconds * self.requests_per_second)))

    def warmup_cases(self) -> list[gen.Case]:
        """The period's first (smallest) slots, drawn with a fixed seed of their own.

        The warm-up is the same in every run, so that set-up time does not
        depend on whether a seed's warm-up happens to parse a symmetric
        8-vertex block (whose canonical form alone takes 0.1-0.45 s).
        """
        rng = random.Random("warm-up")
        return [self.period[i](rng, i) for i in range(self.warmup)]

    def _draw(self, rng: random.Random, count: int) -> list[gen.Case]:
        # Stepping through the period by a stride coprime to its length
        # spreads every run prefix over all sizes and kinds.
        p = len(self.period)
        stride = next(s for s in range(int(p * 0.618), p) if math.gcd(s, p) == 1)
        return [self.period[i * stride % p](rng, i) for i in range(count)]


def _cls(i: int) -> str:
    return gen.GRAMMAR_CLASSES[i % len(gen.GRAMMAR_CLASSES)]


# -- requests ------------------------------------------------------------------


def parse(api, case: gen.Case):
    if case.is_expr:
        return api.construct.evaluate(api.construct.parse_expression(case.text))
    return api.core.parse_edge_list(case.text)


def classify_request(api, case: gen.Case):
    g = parse(api, case)
    return g, api.recognize.classify(g)


def certify_request(api, case: gen.Case):
    g = parse(api, case)
    dec, rec = api.decompose, api.recognize
    split = dec.maximal_split(g)
    tree = dec.di_co_tree(g)
    seq = dec.creation_sequence(g)
    members = rec.classify(g, api.constructive)
    certs = [(x, rec.constructive_certificate(g, x)) for x in api.constructive if x in members]
    return g, split, tree, seq, members, certs


# -- checks --------------------------------------------------------------------


def graph_signature(g) -> tuple:
    return gen.signature(g.n, g.arcs)


def expression_signature(e) -> tuple:
    """Signature of the digraph an Expression denotes, evaluated by gen, not dcograph."""

    def to_tree(node) -> tuple:
        if node.kind == "leaf":
            return gen.LEAF
        return (node.kind, [to_tree(c) for c in node.children])

    return gen.signature(*gen.tree_arcs(to_tree(e)))


def _verdict_error(case: gen.Case, members, requested: frozenset[str] | None = None) -> str | None:
    """Disagreement with the case's known verdicts, among the classes requested (default all)."""
    names = {x.value for x in members}
    expected = case.members if requested is None else case.members & requested
    missing = expected - names
    wrong = case.non_members & names
    if missing or wrong:
        return f"{case.kind}: missing {sorted(missing)}, wrongly member of {sorted(wrong)}"
    return None


_CONSTRUCTIVE = frozenset(gen.CONSTRUCTIVE_CLASSES)


def check_classify(case: gen.Case, out) -> str | None:
    g, members = out
    if graph_signature(g) != case.signature:
        return f"{case.kind}: parsed digraph differs from the input"
    return _verdict_error(case, members)


def check_certify(case: gen.Case, out) -> str | None:
    g, split, tree, seq, members, certs = out
    if graph_signature(g) != case.signature:
        return f"{case.kind}: parsed digraph differs from the input"
    if split.op == "prime" or sorted(v for part in split.parts for v in part) != list(range(g.n)):
        return f"{case.kind}: maximal split {split.op} is not a partition into parts"
    if tree is None or expression_signature(tree) != case.signature:
        return f"{case.kind}: di-co-tree missing or not the input"
    if case.digits is not None and seq is None:
        return f"{case.kind}: creation chain has no creation sequence"
    if seq is not None and gen.signature(*gen.replay_digits(seq.digits)) != case.signature:
        return f"{case.kind}: creation sequence {seq.digits} does not rebuild the input"
    error = _verdict_error(case, members, _CONSTRUCTIVE)
    if error:
        return error
    for x, cert in certs:
        if cert is None or expression_signature(cert) != case.signature:
            return f"{case.kind}: {x.value} certificate missing or not the input"
    return None


# -- schedules -----------------------------------------------------------------


def _small_period() -> tuple:
    slots = []
    for n in (5, 6, 7, 8):
        slots += [lambda r, i, n=n: gen.member_case(r, _cls(i), n, as_expr=True)] * 4
        slots += [lambda r, i, n=n: gen.near_miss_case(r, _cls(i), n)] * 2
        slots += [
            lambda r, i, n=n: gen.random_case(r, n),
            lambda r, i, n=n: gen.planted_case(r, _cls(i), n),
        ]
    return tuple(slots)


def _large_period() -> tuple:
    # Sizes step by 4 so that request costs spread evenly: with a few sizes
    # far apart, the median falls into the gap between two size groups and
    # jumps between them from seed to seed.
    #
    # Members arrive mostly as relabelled edge lists. In expression order the
    # vertices of a near-threshold tree put the first two-switch or
    # anticircuit late in match_partial's arc-pair scan, so one expression
    # member at 48-56 vertices can take 0.2 s or 3 s; relabelled, the same
    # slot varies about 15%. Expressions stay at 24-32 vertices, where they
    # are cheap. Members are redrawn until they have both patterns: without
    # one, TD or FD scans all O(m^2) arc pairs, and a 64-vertex tree then
    # takes 5-9 s alone. That full scan comes instead from creation chains
    # (two-switch- and anticircuit-free) of 24-40 vertices, whose cost varies
    # a few percent.
    slots = []
    for n in range(24, 65, 4):
        # smaller sizes repeat more, so that each size takes a similar share
        # of the time and the median request sits among many of similar cost
        repeat = round((64 / n) ** 2)
        slots += repeat * [
            lambda r, i, n=n: gen.member_case(r, "DC", n, as_expr=False, plain=True),
            lambda r, i, n=n: gen.member_case(r, "OC", n, as_expr=False, plain=True),
            lambda r, i, n=n: gen.near_miss_case(r, "DC", n, plain=True),
            lambda r, i, n=n: gen.random_case(r, n),
            lambda r, i, n=n: gen.planted_case(r, "DC", n, plain=True),
        ]
        if n <= 32:
            slots += [
                lambda r, i, n=n: gen.member_case(r, "DC", n, as_expr=True, plain=True),
                lambda r, i, n=n: gen.member_case(r, "OC", n, as_expr=True, plain=True),
            ]
        if n in (24, 32, 40):
            slots.append(lambda r, i, n=n: gen.chain_case(r, n, as_expr=False, series=False))
    return tuple(slots)


def _certify_period() -> tuple:
    slots = []
    for n in (32, 40, 48, 56, 64):
        slots += [
            lambda r, i, n=n: gen.member_case(r, _cls(i), n, as_expr=True),
            lambda r, i, n=n: gen.member_case(r, _cls(i + 7), n, as_expr=False),
            lambda r, i, n=n: gen.chain_case(r, n, as_expr=i % 2 == 0, series=True),
            lambda r, i, n=n: gen.blocks_case(r, n, as_expr=True, cliques=True),
            lambda r, i, n=n: gen.blocks_case(r, n, as_expr=False, cliques=False),
        ]
    return tuple(slots)


WORKLOADS: dict[str, object] = {
    w.name: w
    for w in (
        Workload(
            "classify-small",
            _small_period(), 44.0, 32, classify_request, check_classify,
        ),
        Workload(
            "classify-large",
            _large_period(), 9.0, 8, classify_request, check_classify,
        ),
        Workload(
            "certify-large",
            _certify_period(), 13.0, 5, certify_request, check_certify,
        ),
    )
}


# -- sweep ---------------------------------------------------------------------

SWEEP_JOBS: tuple[tuple[str, str], ...] = (
    ("mine", "DC"),
    ("mine", "DWQT"),
    ("verify", "closures"),
    ("verify", "theorems"),
    ("verify", "hierarchy"),
)

# Catalog names with at most six vertices, which mining to n=6 must confirm.
_D1_8 = tuple(f"D{i}" for i in range(1, 9))
EXPECTED_CONFIRMED = {
    "DC": _D1_8,
    "DWQT": _D1_8 + tuple(f"Q{i}" for i in range(1, 8)),
}

# Rows of verify_suite(n_max=5) that fail by design: the two-pattern
# restatement of anticircuit-freeness that D5 refutes, and hierarchy claims
# whose witnesses need six vertices or do not exist.
EXPECTED_FAILURES: dict[str, frozenset[str]] = {
    "closures": frozenset(),
    "theorems": frozenset({
        "ferrers-two-switch: two-pattern variant: D1, K2bidir free and no two-switch"
        " == no alternating anticircuit",
    }),
    "hierarchy": frozenset({
        "OCWQT proper-subset OTP", "OWQT proper-subset OC", "OT proper-subset OCTP",
        "OC not-below DWQT", "OCTP not-below DTP", "DTP not-below DWQT",
        "OCTP not-below OTP", "OTP not-below DWQT", "OTP not-below OWQT",
        "DCTP not-below DCWQT", "OCTP not-below DWQT", "OCTP not-below OWQT",
        "OCTP not-below DCWQT", "OCTP not-below OCWQT", "OCTP not-below DSC",
        "OCTP not-below OSC", "OCTP not-below DCSC", "OCTP not-below DT",
        "OCTP not-below TD", "OCTP not-below FD", "OCWQT not-below DWQT",
        "OCWQT not-below OWQT", "OSC not-below OWQT", "OT not-below OWQT",
        "OSC not-below TD", "OSC not-below FD", "FD not-below TD",
        "SC proper-subset CTP", "WQT proper-subset C", "CWQT proper-subset C",
        "TP not-below CSC", "CSC not-below TP", "TP not-below CWQT",
        "CTP not-below WQT", "CSC not-below WQT", "WQT not-below CWQT",
        "CWQT not-below WQT",
    }),
}


class Sweep:
    """The fixed job list, run once from cold caches; seed and length do not change it."""

    def cases(self, seed: int, seconds: float) -> list[tuple[str, str]]:
        return list(SWEEP_JOBS)

    def warmup_cases(self) -> list:
        return []  # every `dcograph mine` or `verify` command pays the cold enumeration

    @staticmethod
    def request(api, job: tuple[str, str]):
        kind, arg = job
        if kind == "mine":
            return api.mine.minimal_forbidden(api.recognize.ClassId(arg), n_max=6)
        return api.mine.verify_suite(arg, n_max=5)

    @staticmethod
    def check(job: tuple[str, str], report) -> str | None:
        kind, arg = job
        if kind == "mine":
            if not report.ok() or sorted(report.confirmed) != sorted(EXPECTED_CONFIRMED[arg]):
                return f"mine {arg}: ok={report.ok()}, confirmed {sorted(report.confirmed)}"
            return None
        failing = {row.subject for row in report.rows if row.verdict != "ok"}
        if failing != EXPECTED_FAILURES[arg]:
            return f"verify {arg}: failing rows {sorted(failing ^ EXPECTED_FAILURES[arg])} differ from the pinned set"
        return None


WORKLOADS["sweep"] = Sweep()
