"""Traced runs: spans and counters around the package's public functions.

The tracer lives entirely in the benchmark.  It replaces each traced
function by a wrapper in every module that binds it, because the
package's modules import each other's functions by name (``series``
calls its own ``w_dim`` binding, ``oracle`` its own ``star_word``).

* A span records (id, name, start, end, parent id, run id).  Spans stay
  in memory and are written out once, when the run ends.  A layer's
  self time is its spans' duration minus the time its child spans and
  the generator resumptions inside it took.
* Hot leaf calls (``star_word``, ``f_I``, ``star_action``,
  ``Filter.member``, ``lr_coefficient``, ``dim_quotient``) only bump a
  counter.
* ``enumerate_partitions`` is a generator: each resumption is timed and
  counted as one shape, and its time is charged to the enclosing span.
* Hit ratios come from the memoized functions' ``cache_info()``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

_DONE = object()

# (metric name, unit) of every per-layer metric the traced run reports;
# BENCHMARK.json lists the same names with their direction.
LAYER_METRICS = [
    ("partitions.enumerate_partitions.calls", "count"),
    ("partitions.enumerate_partitions.shapes", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("filters.complement_at.calls", "count"),
    ("filters.complement_at.self_s", "s"),
    ("filters.complement_at.kept_ratio", "1"),
    ("filters.member.calls", "count"),
    ("dims.w_dim.calls", "count"),
    ("dims.w_dim.self_s", "s"),
    ("dims.schur_dim.hit_ratio", "1"),
    ("dims.hs_eval.self_s", "s"),
    ("lr.outer_product.self_s", "s"),
    ("lr.lr_coefficient.calls", "count"),
    ("lr.lr_coefficient.hit_ratio", "1"),
    ("series.series.self_s", "s"),
    ("series.verify_growth.self_s", "s"),
    ("series.dim_quotient.calls", "count"),
    ("linalg.insert.calls", "count"),
    ("linalg.insert.grew_ratio", "1"),
    ("linalg.insert.self_s", "s"),
    ("linalg.contains.calls", "count"),
    ("linalg.contains.self_s", "s"),
    ("linalg.dense_rank.rows", "count"),
    ("linalg.dense_rank.self_s", "s"),
    ("oracle.module_W.calls", "count"),
    ("oracle.module_W.hit_ratio", "1"),
    ("oracle.module_W.self_s", "s"),
    ("oracle.module_W.dim", "count"),
    ("oracle.star_word.calls", "count"),
    ("oracle.star_word_per_dim", "calls/dim"),
    ("oracle.star_action.calls", "count"),
    ("oracle.is_identity_EE.self_s", "s"),
    ("oracle.f_I.calls", "count"),
    ("oracle.ee_identity_kernel_dim.self_s", "s"),
    ("oracle.evaluate_identity.self_s", "s"),
    ("oracle.check_ideal.self_s", "s"),
    ("oracle.check_annihilation.self_s", "s"),
    ("oracle.cap_exceeded", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]

_MODULES = ("partitions", "lr", "dims", "filters", "series", "linalg", "oracle", "cli")


def _module(fa, name: str):
    # Not getattr(fa, name): the package rebinds ``series`` to the function.
    return sys.modules[f"{fa.__name__}.{name}"]


class Tracer:
    """Spans, counters and self times of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time taken by children]
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn):
        stack, counts, self_s, spans = self._stack, self.counts, self.self_s, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                counts[name + ".calls"] += 1
                spans.append((sid, name, start, end, parent))

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name: str, fn):
        stack, counts, self_s = self._stack, self.counts, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return resume(fn(*args, **kwargs))

        def resume(it):
            while True:
                start = time.perf_counter()
                item = next(it, _DONE)
                took = time.perf_counter() - start
                self_s[name] += took
                if stack:
                    stack[-1][1] += took
                if item is _DONE:
                    return
                counts[name + ".shapes"] += 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, fa, owner, attr: str, wrapped) -> None:
        """Bind ``wrapped`` wherever ``owner.attr`` is bound: the owner and
        every package module (and the package itself) that imported it."""
        original = getattr(owner, attr)
        targets = [owner, fa] + [_module(fa, m) for m in _MODULES]
        for target in dict.fromkeys(targets):
            if target.__dict__.get(attr) is original:
                setattr(target, attr, wrapped)

    def install(self, fa) -> None:
        """Wrap the traced functions of the imported package ``fa``."""
        m = {name: _module(fa, name) for name in _MODULES}
        counts = self.counts

        # module_W also sums the block dimensions it returns; dense_rank
        # counts the rows handed to the elimination.
        module_W, dense_rank = m["oracle"].module_W, m["linalg"].dense_rank

        def dim_counted(*args, **kwargs):
            sub = module_W(*args, **kwargs)
            counts["oracle.module_W.dim"] += sub.dim
            return sub

        def rows_counted(rows):
            counts["linalg.dense_rank.rows"] += len(rows)
            return dense_rank(rows)

        self._replace(fa, m["oracle"], "module_W", self.span("oracle.module_W", dim_counted))
        self._replace(fa, m["linalg"], "dense_rank", self.span("linalg.dense_rank", rows_counted))
        for mod, name in [
            ("dims", "w_dim"), ("dims", "hs_eval"), ("lr", "outer_product"),
            ("series", "series"), ("series", "verify_growth"),
            ("oracle", "is_identity_EE"), ("oracle", "ee_identity_kernel_dim"),
            ("oracle", "evaluate_identity"), ("oracle", "check_ideal"),
            ("oracle", "check_annihilation"), ("oracle", "generated_ideal"),
            ("cli", "main"),
        ]:
            self._replace(fa, m[mod], name, self.span(f"{mod}.{name}", getattr(m[mod], name)))
        for mod, name in [
            ("series", "dim_quotient"), ("lr", "lr_coefficient"),
            ("oracle", "star_word"), ("oracle", "star_action"), ("oracle", "f_I"),
        ]:
            self._replace(fa, m[mod], name, self.counter(f"{mod}.{name}", getattr(m[mod], name)))
        self._replace(fa, m["partitions"], "enumerate_partitions",
                      self.generator("partitions.enumerate_partitions", m["partitions"].enumerate_partitions))

        Filter = m["filters"].Filter
        complement_at = Filter.complement_at

        def kept_counted(filt, n):
            before = counts["partitions.enumerate_partitions.shapes"]
            out = complement_at(filt, n)
            counts["filters.complement_at.enumerated"] += (
                counts["partitions.enumerate_partitions.shapes"] - before
            )
            counts["filters.complement_at.kept"] += len(out)
            return out

        self._replace(fa, Filter, "complement_at", self.span("filters.complement_at", kept_counted))
        self._replace(fa, Filter, "member", self.counter("filters.member", Filter.member))

        Echelon = m["linalg"].EchelonBasis
        insert = Echelon.insert

        def grew_counted(basis, vec):
            grew = insert(basis, vec)
            counts["linalg.insert.grew"] += grew
            return grew

        self._replace(fa, Echelon, "insert", self.span("linalg.insert", grew_counted))
        self._replace(fa, Echelon, "contains", self.span("linalg.contains", Echelon.contains))

    # -- results -------------------------------------------------------------

    def metrics(self, fa) -> dict:
        """Every per-layer metric except the overhead, which needs an
        untraced pass to compare with."""
        c, s = self.counts, self.self_s

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(cached):
            info = cached.cache_info()
            return ratio(info.hits, info.hits + info.misses)

        out = {}
        for name, _ in LAYER_METRICS:
            if name.endswith(".self_s"):
                out[name] = s[name[: -len(".self_s")]]
            elif name.endswith(".calls") or name.endswith(".shapes"):
                out[name] = c[name]
        out.update({
            "filters.complement_at.kept_ratio": ratio(
                c["filters.complement_at.kept"], c["filters.complement_at.enumerated"]),
            "dims.schur_dim.hit_ratio": hit_ratio(_module(fa, "dims")._schur_dim),
            "lr.lr_coefficient.hit_ratio": hit_ratio(_module(fa, "lr")._lr_cached),
            "linalg.insert.grew_ratio": ratio(c["linalg.insert.grew"], c["linalg.insert.calls"]),
            "linalg.dense_rank.rows": c["linalg.dense_rank.rows"],
            "oracle.module_W.hit_ratio": hit_ratio(_module(fa, "oracle")._module_W_cached),
            "oracle.module_W.dim": c["oracle.module_W.dim"],
            "oracle.star_word_per_dim": ratio(c["oracle.star_word.calls"], c["oracle.module_W.dim"]),
            "oracle.cap_exceeded": c["oracle.cap_exceeded"],
        })
        return out

    def write_spans(self, path: str) -> None:
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "fields": ["id", "name", "start", "end", "parent"],
                "names": names,
                "spans": [[sid, index[name], start, end, parent]
                          for sid, name, start, end, parent in self.spans],
            }, fh, separators=(",", ":"))
