"""Outside-in span tracer for the apinc modules.

The tracer replaces the public functions listed in TARGETS with wrappers
that record one span per call (name, start, end, parent span, run id)
into flat arrays kept in memory, plus a few per-call counts.  It edits
no library code: it swaps module and class attributes while installed
and puts every original back on exit.  Names that other apinc modules
imported directly (``engine.partition_polyphase``, ``engine.ap_count``,
``nil.partition_polyphase``, ...) are found by identity and replaced
too, since otherwise those calls would bypass the wrapper silently.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

MARK = "__perfbench_traced__"


def _pairs(args, result):
    n = args[1].len
    return n * (n - 1) // 2


# (module, attribute path, span metrics kept, count metric, count per call)
TARGETS = [
    ("progressions", "Progression.elements", ("calls",),
     "progressions.Progression.elements.points", lambda a, r: len(r)),
    ("progressions", "subdivide", ("calls",),
     "progressions.subdivide.parts", lambda a, r: len(r)),
    ("polyphase", "partition_polyphase", ("calls", "s", "self_s"), None, None),
    ("polyphase", "reduce_degree_partition", ("calls", "s", "self_s"), None, None),
    ("polyphase", "circle_diam", ("calls", "s"),
     "polyphase.circle_diam.values", lambda a, r: len(a[0])),
    ("polyphase", "PolyPhase.eval", ("calls", "s"), None, None),
    ("polyphase", "PolyPhase.compose_affine_frac", ("calls", "s"), None, None),
    ("polyphase", "diam_on", ("calls", "s"), None, None),
    ("nil", "partition_nilsequence", ("calls", "s", "self_s"), None, None),
    ("nil", "reduce_dimension", ("calls", "s", "self_s"), None, None),
    ("nil", "nil_values", ("calls", "s"), "nil.nil_values.points", lambda a, r: len(r)),
    ("nil", "complex_diam", ("calls", "s"), None, None),
    ("gowers", "ap_count", ("calls", "s"), None, None),
    ("gowers", "balanced", ("calls", "s"), None, None),
    ("gowers", "inverse_u2", ("calls", "s"),
     "gowers.inverse_u2.found", lambda a, r: int(r is not None)),
    ("engine", "szemeredi_search", ("calls", "s", "self_s"), None, None),
    ("engine", "density_increment_step", ("calls", "s"), None, None),
    ("engine", "find_ap", ("calls", "s"), None, None),
    ("engine", "increment_from_witness", ("calls", "s", "self_s"),
     "engine.increments", lambda a, r: int(getattr(r, "variant", "") == "incremented")),
    ("oracle", "verify_certificate", ("calls", "s", "self_s"), None, None),
    ("oracle", "brute_diam", ("calls", "s"), "oracle.brute_diam.pairs", _pairs),
    ("cli", "main", ("calls", "s", "self_s"), None, None),
]

NAMES = [f"{mod}.{path}" for mod, path, *_ in TARGETS]

# partitions built directly under an increment_from_witness span are the
# refinement loop's attempts
PARTITIONS = ("polyphase.partition_polyphase", "nil.partition_nilsequence")

# every per-layer metric this module reports, with its unit
UNITS = {}
for _name, (_mod, _path, _kept, _count_key, _fn) in zip(NAMES, TARGETS):
    UNITS.update({f"{_name}.{stat}": "count" if stat == "calls" else "s" for stat in _kept})
    if _count_key:
        UNITS[_count_key] = "count"
UNITS["engine.partitions_per_increment"] = "ratio"


class Tracer:
    """Span recorder; use as a context manager to install the wrappers.

    Spans live in parallel arrays indexed by span id; `run_id` is stamped
    on every span recorded while it is set.
    """

    def __init__(self):
        self.name = array("H")
        self.parent = array("q")
        self.run_ids = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # (run id, count metric) -> total
        self.run_id = 0
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name_id, count_key, count):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(rec._stack[-1] if rec._stack else -1)
            rec.run_ids.append(rec.run_id)
            rec.end.append(0.0)
            rec._stack.append(i)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                key = (rec.run_id, count_key)
                rec.counts[key] = rec.counts.get(key, 0) + count(args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "apinc" or k.startswith("apinc.")]
        try:
            for name_id, (mod_name, path, _, count_key, count) in enumerate(TARGETS):
                mod = importlib.import_module(f"apinc.{mod_name}")
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                wrapped = self._wrap(orig, name_id, count_key, count)
                sites = [(owner, attr)]
                if owner is mod:
                    sites += [
                        (m, k)
                        for m in modules
                        for k, v in list(vars(m).items())
                        if v is orig and not (m is mod and k == attr)
                    ]
                for site, site_attr in sites:
                    self._patches.append((site, site_attr, orig))
                    setattr(site, site_attr, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            site, attr, orig = self._patches.pop()
            setattr(site, attr, orig)

    def layer_metrics(self, run_id):
        """Per-layer metrics of one run id, and the numerator and
        denominator of partitions_per_increment."""
        names = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        mine = np.array(self.run_ids, dtype=np.int64) == run_id
        has_parent = parent >= 0
        # children of one span run one after another, so their summed
        # durations are the part of the parent's interval they cover
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child

        out = {}
        for name_id, (name, (_, _, kept, count_key, _)) in enumerate(zip(NAMES, TARGETS)):
            sel = mine & (names == name_id)
            stats = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
            out.update({f"{name}.{stat}": stats[stat] for stat in kept})
            if count_key:
                out[count_key] = self.counts.get((run_id, count_key), 0)

        ifw = NAMES.index("engine.increment_from_witness")
        calls = int((mine & (names == ifw)).sum())
        under_ifw = np.zeros(len(names), dtype=bool)
        under_ifw[has_parent] = names[parent[has_parent]] == ifw
        part_ids = [NAMES.index(p) for p in PARTITIONS]
        built = int((mine & under_ifw & np.isin(names, part_ids)).sum())
        out["engine.partitions_per_increment"] = built / calls if calls else 0.0
        return out, (built, calls)

