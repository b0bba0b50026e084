"""Integer arithmetic progressions, subdivision and the partition skeleton.

A progression is the triple (base, step, len) with elements
base + i*step for 0 <= i < len.  A `Progression` checks its elements
against a signed 64-bit range: Python integers never wrap, but a
certificate whose elements silently left the machine-word range would
not be checkable by external tools, so a source is refused up front.
A part of a partition lies inside its checked source and is the plain
tuple (base, step, len) from there to its certificate row.
"""

import json
from dataclasses import dataclass, field
from math import isfinite

from .errors import IntegerRangeError, InvalidArgumentError, charge

INT_BOUND = 2**63

# one part as json.dumps(..., indent=2, sort_keys=True) lays it out in a
# certificate: an item of the top-level "parts" list
_ROW = '\n    {\n      "base": %d,\n      "diam": %s,\n      "len": %d,\n      "step": %d\n    }'
# a newline and two spaces open a top-level key: strings escape their newlines
_NO_PARTS = '\n  "parts": []'


def _check_range(*xs):
    for x in xs:
        if not -INT_BOUND <= x < INT_BOUND:
            raise IntegerRangeError(f"integer {x} outside the checked 64-bit range")


@dataclass(frozen=True, slots=True)
class Progression:
    base: int
    step: int
    len: int

    def __post_init__(self):
        if self.len < 1:
            raise InvalidArgumentError(f"len must be >= 1, got {self.len}")
        if self.step == 0:
            raise InvalidArgumentError("step must be nonzero")
        _check_range(self.base, self.step, self.base + (self.len - 1) * self.step)

    def elements(self):
        """All elements in index order."""
        return [self.base + i * self.step for i in range(self.len)]

    def to_json(self):
        return {"base": self.base, "step": self.step, "len": self.len}

    @classmethod
    def interval(cls, lo, hi):
        """The progression [lo..hi] with step 1."""
        if hi < lo:
            raise InvalidArgumentError(f"empty interval {lo}..{hi}")
        return cls(lo, 1, hi - lo + 1)


@dataclass
class PartitionCertificate:
    """Disjoint (base, step, len) parts covering the `Progression`
    `source`, with per-part exhaustively computed diameter witnesses.

    Invariants (re-checked by the independent verifier in `oracle`):
      * parts are pairwise disjoint and their union is `source`;
      * every diam witness <= epsilon;
      * every part length >= min_len.
    """

    source: Progression
    parts: list
    epsilon: float
    diam_witness: list
    channel: str = "polyphase"
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.parts:
            raise InvalidArgumentError("a partition certificate needs at least one part")
        if len(self.parts) != len(self.diam_witness):
            raise InvalidArgumentError("one diameter witness per part required")

    @property
    def num_parts(self):
        return len(self.parts)

    @property
    def min_len(self):
        return min(n for _, _, n in self.parts)

    def to_json(self):
        """The certificate as a new JSON object: `to_json_text` read
        back, so it holds the bytes the writer writes and shares no
        object with the certificate."""
        return json.loads(self.to_json_text())

    def to_json_text(self):
        """The certificate's one writer: `json.dumps(..., indent=2,
        sort_keys=True)` bytes, with each part formatted directly as a
        fixed row, as the pure-Python encoder that `indent` forces costs
        far more per part.  A witness is written as `repr(float(w))`,
        json's own form of a finite float; a non-finite one is refused,
        never written."""
        ws = [float(w) for w in self.diam_witness]
        if not all(map(isfinite, ws)):
            raise InvalidArgumentError("every diameter witness must be finite")
        fields = {
            "channel": self.channel,
            "source": self.source.to_json(),
            "epsilon": float(self.epsilon),
            "min_len": self.min_len,
            "parts": [],
            "payload": self.payload,
        }
        head, tail = json.dumps(fields, indent=2, sort_keys=True).split(_NO_PARTS)
        rows = ",".join([_ROW % (b, repr(w), n, s) for (b, s, n), w in zip(self.parts, ws)])
        return f'{head}\n  "parts": [{rows}\n  ]{tail}'


def subdivide(P, mult, block):
    """Split the part P into parts of common difference step(P)*mult.

    Each residue class i mod mult is chopped into consecutive blocks of
    length `block`, the trailing remainder (if any) becoming a shorter
    final block of the same class; classes are never merged.  The output
    is pairwise disjoint, covers P exactly, and uses the minimal number
    of parts for the given (mult, block).
    """
    base, step, n = P
    if mult < 1 or block < 1:
        raise InvalidArgumentError(f"mult and block must be positive, got {mult}, {block}")
    if mult > n:
        raise InvalidArgumentError(f"mult {mult} exceeds progression length {n}")
    parts = []
    for r in range(mult):
        class_len = (n - r + mult - 1) // mult
        t = 0
        while t < class_len:
            ln = min(block, class_len - t)
            parts.append((base + (r + t * mult) * step, step * mult, ln))
            t += ln
    return parts


def index_slice(P, Q):
    """The slice of the `Progression` P's index line that the part Q
    occupies: Q's i-th element is P's element start + i * stride, so an
    array of values over P sliced by it holds Q's values in Q's order.
    Refuses a Q that is not on that line."""
    base, step, n = Q
    start, off = divmod(base - P.base, P.step)
    stride, rem = divmod(step, P.step)
    stop = start + (n - 1) * stride
    if off or rem or stride < 1 or start < 0 or stop >= P.len:
        raise InvalidArgumentError(f"{Q} is not a sub-progression on the index line of {P}")
    return slice(start, stop + 1, stride)


def merge_parts(parts, measured, diam, pair, limit):
    """Coarsen a partition: greedily absorb a following contiguous
    same-step part (or a singleton) while the union's diameter is at
    most `limit`.  `measured` maps every part already measured to its
    diameter; a trial found there is not measured again, and every union
    kept records its own there.  A two-point trial is read with `pair`.
    A longer one is refused unmeasured when its junction, the last point
    of the current part with the first of the next, is over `limit`:
    that is the one adjacent pair of the union that neither part holds,
    and a union's diameter is at least any of its pairs'.  Parts are
    walked by base in the source's direction (downwards for a negative
    step, which all parts share), so each part's continuation is still
    unwalked when its turn comes; the result is in base order."""
    descending = parts[0][1] < 0
    by_base = {p[0]: p for p in parts}
    merged, used = [], set()
    for b in sorted(by_base, reverse=descending):
        if b in used:
            continue
        _, step, n = by_base[b]
        used.add(b)
        while True:
            nxt = by_base.get(b + n * step)
            if nxt is None or nxt[0] in used or not (nxt[1] == step or nxt[2] == 1):
                break
            # each base starts one chain and a chain ends at its first
            # rejection, so a trial recurs only as a part the visit measured
            trial = (b, step, n + nxt[2])
            if trial in measured:
                w = measured[trial]
            elif trial[2] == 2:
                w = pair(trial)
            elif pair((b + (n - 1) * step, step, 2)) > limit:
                break
            else:
                w = diam(trial)
            if w > limit:
                break
            used.add(nxt[0])
            measured[trial] = w
            n += nxt[2]
        merged.append((b, step, n))
    return merged[::-1] if descending else merged


def repair(parts, fits):
    """Halving repair: replace any part R for which `fits(R)` is false
    by its two halves until every piece fits.  A point always fits and
    is never passed to `fits`, as `refine` keeps a point unevaluated.
    Returns the parts in base order."""
    out, stack = [], parts[::-1]  # popped in the order given
    while stack:
        R = stack.pop()
        base, step, n = R
        if n == 1 or fits(R):
            out.append(R)
        else:
            h = n // 2
            stack.append((base + h * step, step, n - h))
            stack.append((base, step, h))
    out.sort()  # disjoint parts have distinct bases: tuple order is base order
    return out


def check_budget(P, per_point):
    """Refuse to partition P, before any list over it is built, when its
    modelled cost len(P) * per_point exceeds the work budget
    (APINC_BUDGET, default 10^9)."""
    charge(P.len * per_point, f"partition of {P.len} points")


def refine(P, root, diam, pair, limit, reduce):
    """The partition recursion shared by every channel.

    A part Q of length 1 is kept with diameter 0, never evaluated.  A
    longer part reached in state `state` is measured once, by `pair(Q)`
    for two points and `diam(Q)` for more, and
    kept when that is at most `limit` or the state is None (nothing is
    left to reduce); otherwise `reduce(state, Q)` cuts it into
    [(R, child)] pairs and each R is refined in its child state.  Every
    channel's `reduce` is one call to its one-level step
    (`polyphase.reduce_degree_partition`, `nil.reduce_dimension`), which
    returns those pairs: the parts of Q in base order, each with a
    zero-argument builder of its next-level input, or None when nothing
    is left to reduce, so a part's input is built only if it is reduced.  A
    failing part of length 2 becomes its two points without a call to
    `reduce`: the channels' level budgets sum to at most the limit, so a
    part over it does not end its reductions whole (the nil channel's
    float slack aside), and two points split only one way.  Every
    diameter measured is recorded, keyed by the part; the kept parts are
    re-merged under `limit` with that record, so no trial equal to a part
    already measured is measured again.  Returns the parts (tuples, as every
    Q and R here) in base order, their witnesses (the recorded diameter, 0
    for a point) and the deepest level reached (the `Progression` P is 0).

    `diam(Q)` must return the diameter when that is at most `limit`, and
    may return any value above `limit` otherwise: such a value only
    splits a part or refuses a merge.  `pair(Q)` reads a two-point part Q
    under the same rule, and is the only reading a two-point part gets: a
    visit and a two-point merge trial use it, and the merge reads a
    longer trial's junction pair with it to refuse the trial unmeasured
    (`merge_parts`).  A None-state part
    keeps what was measured, which the level budgets hold to at most
    `limit` (the nil channel's float slack aside).
    """
    parts, measured, depth = [], {}, 0  # measured: part -> diameter

    def visit(Q, state, level):
        nonlocal depth
        base, step, n = Q
        if n == 1:
            parts.append(Q)
            return
        w = measured[Q] = pair(Q) if n == 2 else diam(Q)
        if state is None or w <= limit:
            parts.append(Q)
            return
        depth = max(depth, level + 1)
        if n == 2:
            parts.extend(((base, step, 1), (base + step, step, 1)))
            return
        for R, child in reduce(state, Q):
            visit(R, child, level + 1)

    visit((P.base, P.step, P.len), root, 0)
    del visit  # a recursive closure is a cycle: free its state on return, not at a full collection
    merged = merge_parts(parts, measured, diam, pair, limit)
    return merged, [measured.get(part, 0) for part in merged], depth
