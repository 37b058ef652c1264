"""Seeded inputs, statement streams and the correctness oracle.

Every workload runs against one table ``t`` with a meter-reading shape::

    k int, ts int, dev int, grp string, kwh double, status int

Rows come from seeded distributions (increasing timestamps with random
gaps, Zipf-like device and region draws, log-normal readings), so the
ORC encoders see realistic entropy instead of ``i % 7`` columns.

The oracle is a columnar NumPy model of ``t``.  A workload's statement
stream is generated against the model: each :class:`Stmt` carries the
SQL the program receives, the expected result computed from the model
*before* the statement runs, and a callback that applies the
statement's effect to the model once the program has executed it.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterProfile
from repro.hive import HiveSession

GROUPS = tuple("r%02d" % i for i in range(20))
_GROUP_WEIGHTS = np.array([1.0 / (i + 1) for i in range(20)])
_STATUS_WEIGHTS = np.array([50, 20, 10, 5, 5, 3, 3, 2, 1, 1], dtype=float)
DEVICES = 5000
TS_START = 1_600_000_000


def make_rows(rng, n):
    """``n`` seeded rows in load order (``k`` and ``ts`` both increase)."""
    ts = TS_START + np.cumsum(rng.integers(1, 61, size=n))
    dev = np.minimum(rng.zipf(1.3, size=n) - 1, DEVICES - 1)
    grp = rng.choice(len(GROUPS), size=n,
                     p=_GROUP_WEIGHTS / _GROUP_WEIGHTS.sum())
    kwh = np.round(rng.lognormal(1.0, 0.8, size=n), 3)
    status = rng.choice(10, size=n, p=_STATUS_WEIGHTS / _STATUS_WEIGHTS.sum())
    return [(k, int(t), int(d), GROUPS[g], float(w), int(s))
            for k, (t, d, g, w, s) in enumerate(
                zip(ts.tolist(), dev.tolist(), grp.tolist(),
                    kwh.tolist(), status.tolist()))]


class Model:
    """The expected content of ``t`` as NumPy columns plus a live mask."""

    def __init__(self, rows):
        cols = list(zip(*rows))
        self.k = np.array(cols[0], dtype=np.int64)
        self.ts = np.array(cols[1], dtype=np.int64)
        self.dev = np.array(cols[2], dtype=np.int64)
        code = {g: i for i, g in enumerate(GROUPS)}
        self.grp = np.array([code[g] for g in cols[3]], dtype=np.int64)
        self.kwh = np.array(cols[4], dtype=np.float64)
        self.status = np.array(cols[5], dtype=np.int64)
        self.live = np.ones(len(rows), dtype=bool)

    @property
    def live_rows(self):
        return int(self.live.sum())

    def rows(self, mask, columns):
        """Expected output tuples of ``SELECT columns ... WHERE mask``."""
        idx = np.flatnonzero(mask & self.live)
        out = []
        for name in columns:
            values = getattr(self, name)[idx].tolist()
            if name == "grp":
                values = [GROUPS[g] for g in values]
            out.append(values)
        return list(zip(*out))

    def group_agg(self, mask, key, aggs):
        """Expected rows of ``SELECT key, aggs... WHERE mask GROUP BY key``.

        ``aggs`` is a list of ``(function, column)``; ``column`` is None
        for ``count(*)``.
        """
        sel = mask & self.live
        keys = getattr(self, key)[sel]
        out = []
        for value in np.unique(keys).tolist():
            in_group = sel.copy()
            in_group[sel] = keys == value
            row = [GROUPS[value] if key == "grp" else value]
            row.extend(_aggregate(self, in_group, fn, col)
                       for fn, col in aggs)
            out.append(tuple(row))
        return out

    def agg(self, mask, aggs):
        """Expected single row of an aggregate without GROUP BY."""
        sel = mask & self.live
        return [tuple(_aggregate(self, sel, fn, col) for fn, col in aggs)]


def _aggregate(model, sel, fn, col):
    if fn == "count":
        return int(sel.sum())
    values = getattr(model, col)[sel]
    if len(values) == 0:
        return None
    if fn == "sum":
        return values.sum().item()
    if fn == "avg":
        return values.sum().item() / len(values)
    if fn == "min":
        return values.min().item()
    if fn == "max":
        return values.max().item()
    raise ValueError(fn)


def agg_sql(aggs):
    return ", ".join("count(*)" if col is None else "%s(%s)" % (fn, col)
                     for fn, col in aggs)


def same(actual, expected):
    """Equal, with a relative tolerance for floats (summation order)."""
    if isinstance(expected, float) or isinstance(actual, float):
        if actual is None or expected is None:
            return actual is expected
        return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(expected, (tuple, list)):
        return (isinstance(actual, (tuple, list))
                and len(actual) == len(expected)
                and all(same(a, e) for a, e in zip(actual, expected)))
    return actual == expected


def _sorted(rows):
    """Rows in a canonical order (NULLs sort first within a column)."""
    rows = list(rows)
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=lambda row: tuple((v is not None, v)
                                                  for v in row))


@dataclass
class Stmt:
    """One statement of a workload stream.

    ``cls`` is the latency class: ``dml``, ``read`` (a SELECT the
    program runs as MapReduce), ``point`` (a SELECT it answers with the
    LOOKUP plan), ``agg`` (a grouped aggregate, scan_analytics' focus)
    or ``compact``.  ``rows``/``affected`` hold the expected outcome;
    ``apply`` mutates the model after the program ran the statement.
    """

    sql: str
    cls: str
    rows: list = None
    affected: int = None
    apply: object = None

    def check(self, result):
        """None when ``result`` matches the model, else a message."""
        if self.affected is not None and result.affected != self.affected:
            return "affected %r, expected %r" % (result.affected,
                                                 self.affected)
        if self.rows is not None:
            got = _sorted(map(tuple, result.rows))
            want = _sorted(self.rows)
            if got != want and not same(got, want):
                return "%d rows differ from the %d expected" % (len(got),
                                                                len(want))
        return None


def _update(model, mask, assign):
    """An UPDATE's expected count and its model effect."""
    hit = mask & model.live

    def apply():
        # Every SET expression reads the pre-statement values.
        new = {column: fn(model)[hit] for column, fn in assign.items()}
        for column, values in new.items():
            getattr(model, column)[hit] = values
    return int(hit.sum()), apply


def _delete(model, mask):
    hit = mask & model.live

    def apply():
        model.live[hit] = False
    return int(hit.sum()), apply


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Workload:
    """Table shape, profile, setup statements and the measured stream."""

    name = None
    rows = 24_000
    rows_per_file = 1500
    stripe_rows = 375
    primary_key = False
    #: statements of the identity window: ``sim_s``, ``bytes_per_row``
    #: and the ledger fingerprint are taken after this many measured
    #: statements, so they repeat exactly for one seed.
    window = 100
    #: the latency class reported as ``focus_p50_ms`` / ``focus_p90_ms``.
    focus = None

    def profile(self):
        return ClusterProfile.laptop(workers=1)

    def create_sql(self):
        pk = ", PRIMARY KEY (k)" if self.primary_key else ""
        return ("CREATE TABLE t (k int, ts int, dev int, grp string, "
                "kwh double, status int%s) STORED AS dualtable "
                "TBLPROPERTIES ('dualtable.mode' = 'edit', "
                "'orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d')"
                % (pk, self.rows_per_file, self.stripe_rows))

    def setup(self, seed):
        """A loaded session, its model and the pre-state statements."""
        rng = np.random.default_rng([seed, 0])
        data = make_rows(rng, self.rows)
        session = HiveSession(profile=self.profile())
        session.execute(self.create_sql())
        session.load_rows("t", data)
        model = Model(data)
        for stmt in self.prestate(model):
            _run_checked(session, stmt)
        for sql in self.warmup():
            session.execute(sql)
        return session, model

    def prestate(self, model):
        return []

    def warmup(self):
        return ["SELECT * FROM t"]

    def stream(self, seed, model):
        """Infinite statement stream for the measured phase.

        The sequence of statement kinds repeats a fixed round (the same
        for every seed), so every seed sends the same mix in the same
        order; the seed draws keys, constants and the data.
        """
        rng = np.random.default_rng([seed, 1])
        kinds = _round(self.ROUND)
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            yield getattr(self, "_" + kind)(rng, model, i // len(kinds))
            i += 1


def _round(counts):
    """The kinds of ``counts`` in one fixed interleaved order.

    ``compact`` always comes last, so it closes its round.
    """
    kinds = [kind for kind, n in counts.items() if kind != "compact"
             for _ in range(n)]
    order = np.random.default_rng(0).permutation(len(kinds))
    return [kinds[j] for j in order] + ["compact"] * counts.get("compact", 0)


def _run_checked(session, stmt):
    result = session.execute(stmt.sql)
    problem = stmt.check(result)
    if problem:
        raise RuntimeError("pre-state statement %r: %s" % (stmt.sql, problem))
    if stmt.apply:
        stmt.apply()
    return result


class DmlChurn(Workload):
    """Half UPDATE/DELETE of mixed selectivity, half aggregate scans and
    one COMPACT per round of 40 statements (EDIT plan forced)."""

    name = "dml_churn"
    window = 120
    focus = "dml"
    ROUND = {"update_mod": 9, "update_range": 6, "delete_mod": 2,
             "delete_range": 2, "update_group": 1,
             "scan_by_grp": 8, "scan_total": 6, "scan_by_status": 5,
             "compact": 1}

    def warmup(self):
        return ["SELECT grp, count(*), sum(kwh) FROM t GROUP BY grp"]

    def _compact(self, rng, m, round_no):
        return Stmt("COMPACT TABLE t", "compact")

    def _update_mod(self, rng, m, round_no):
        """Modulo UPDATE of 0.5-1 % of the rows."""
        mod = int(rng.integers(100, 200))
        rem = int(rng.integers(0, mod))
        n, apply = _update(m, m.k % mod == rem,
                           {"status": lambda m: (m.status + 1) % 10})
        return Stmt("UPDATE t SET status = (status + 1) %% 10 "
                    "WHERE k %% %d = %d" % (mod, rem), "dml",
                    affected=n, apply=apply)

    def _update_range(self, rng, m, round_no):
        """UPDATE of a short key range (50-300 keys)."""
        lo = int(rng.integers(0, self.rows - 300))
        hi = lo + int(rng.integers(50, 300))
        n, apply = _update(m, (m.k >= lo) & (m.k < hi),
                           {"kwh": lambda m: m.kwh + 0.25})
        return Stmt("UPDATE t SET kwh = kwh + 0.25 WHERE k >= %d AND k < %d"
                    % (lo, hi), "dml", affected=n, apply=apply)

    def _delete_mod(self, rng, m, round_no):
        """Sparse modulo DELETE, 0.1-0.25 % of the rows."""
        mod = int(rng.integers(400, 1000))
        rem = int(rng.integers(0, mod))
        n, apply = _delete(m, m.k % mod == rem)
        return Stmt("DELETE FROM t WHERE k %% %d = %d" % (mod, rem), "dml",
                    affected=n, apply=apply)

    def _delete_range(self, rng, m, round_no):
        lo = int(rng.integers(0, self.rows - 40))
        hi = lo + int(rng.integers(5, 40))
        n, apply = _delete(m, (m.k >= lo) & (m.k < hi))
        return Stmt("DELETE FROM t WHERE k >= %d AND k < %d" % (lo, hi),
                    "dml", affected=n, apply=apply)

    def _update_group(self, rng, m, round_no):
        """Whole-group UPDATE: r00 (~28 % of rows) and r01 (~14 %) in
        alternate rounds."""
        g = round_no % 2
        n, apply = _update(m, m.grp == g,
                           {"dev": lambda m: (m.dev + 1) % DEVICES})
        return Stmt("UPDATE t SET dev = (dev + 1) %% %d WHERE grp = '%s'"
                    % (DEVICES, GROUPS[g]), "dml", affected=n, apply=apply)

    def _scan_by_grp(self, rng, m, round_no):
        aggs = [("count", None), ("sum", "kwh"), ("max", "status")]
        return Stmt("SELECT grp, %s FROM t GROUP BY grp" % agg_sql(aggs),
                    "read", rows=m.group_agg(m.live, "grp", aggs))

    def _scan_total(self, rng, m, round_no):
        s = int(rng.integers(0, 4))
        aggs = [("count", None), ("sum", "kwh"), ("min", "dev"),
                ("max", "ts")]
        return Stmt("SELECT %s FROM t WHERE status >= %d" % (agg_sql(aggs), s),
                    "read", rows=m.agg(m.status >= s, aggs))

    def _scan_by_status(self, rng, m, round_no):
        g = int(rng.integers(0, 8))
        aggs = [("count", None), ("avg", "kwh")]
        return Stmt("SELECT status, %s FROM t WHERE grp = '%s' "
                    "GROUP BY status" % (agg_sql(aggs), GROUPS[g]),
                    "read", rows=m.group_agg(m.grp == g, "status", aggs))


class ScanAnalytics(Workload):
    """Read-only scans over a DualTable whose every master file carries
    fixed deltas, with an ORC cache far smaller than the master."""

    name = "scan_analytics"
    window = 80
    focus = "agg"
    #: ORC cache budget; setup checks the master is at least 4x larger.
    orc_cache_bytes = 48 * 1024
    ROUND = {"full": 3, "filtered": 7, "agg_by_grp": 4, "agg_by_status": 3,
             "agg_above": 3}

    def profile(self):
        return ClusterProfile.laptop(workers=1,
                                     orc_cache_bytes=self.orc_cache_bytes)

    def prestate(self, m):
        n, apply = _update(m, m.k % 50 == 7, {
            "kwh": lambda m: m.kwh + 1.0, "status": lambda m: m.status * 0})
        yield Stmt("UPDATE t SET kwh = kwh + 1.0, status = 0 "
                   "WHERE k % 50 = 7", "dml", affected=n, apply=apply)
        n, apply = _delete(m, m.k % 97 == 5)
        yield Stmt("DELETE FROM t WHERE k % 97 = 5", "dml", affected=n,
                   apply=apply)

    def _full(self, rng, m, round_no):
        cols = ("k", "dev", "kwh", "status")
        return Stmt("SELECT %s FROM t" % ", ".join(cols), "read",
                    rows=m.rows(m.live, cols))

    def _filtered(self, rng, m, round_no):
        s = int(rng.integers(0, 3))
        x = round(float(rng.uniform(1.0, 6.0)), 2)
        d = int(rng.integers(5, 200))
        cols = ("k", "ts", "grp", "kwh")
        mask = (m.status == s) & (m.kwh > x) & (m.dev < d)
        return Stmt("SELECT %s FROM t WHERE status = %d AND kwh > %r "
                    "AND dev < %d" % (", ".join(cols), s, x, d),
                    "read", rows=m.rows(mask, cols))

    def _agg_by_grp(self, rng, m, round_no):
        s = int(rng.integers(1, 6))
        aggs = [("count", None), ("sum", "kwh"), ("min", "ts"),
                ("max", "dev")]
        return Stmt("SELECT grp, %s FROM t WHERE status <= %d GROUP BY grp"
                    % (agg_sql(aggs), s), "agg",
                    rows=m.group_agg(m.status <= s, "grp", aggs))

    def _agg_by_status(self, rng, m, round_no):
        aggs = [("count", None), ("avg", "kwh"), ("max", "kwh")]
        return Stmt("SELECT status, %s FROM t GROUP BY status"
                    % agg_sql(aggs), "agg",
                    rows=m.group_agg(m.live, "status", aggs))

    def _agg_above(self, rng, m, round_no):
        x = round(float(rng.uniform(0.5, 4.0)), 2)
        aggs = [("count", None), ("sum", "dev"), ("min", "kwh")]
        return Stmt("SELECT grp, %s FROM t WHERE kwh >= %r GROUP BY grp"
                    % (agg_sql(aggs), x), "agg",
                    rows=m.group_agg(m.kwh >= x, "grp", aggs))


class PointReads(Workload):
    """PK point/range/IN lookups, non-PK timestamp point reads and 10 %
    single-key UPDATEs scattered across files; caches hold everything."""

    name = "point_reads"
    stripe_rows = 250
    primary_key = True
    window = 600
    focus = "point"
    ROUND = {"pk_eq": 5, "pk_between": 2, "pk_in": 2, "ts_eq": 6,
             "ts_between": 3, "update_key": 2}
    COLUMNS = ("k", "ts", "grp", "kwh", "status")

    def _lookup(self, where, mask, m):
        return Stmt("SELECT %s FROM t WHERE %s"
                    % (", ".join(self.COLUMNS), where), "point",
                    rows=m.rows(mask, self.COLUMNS))

    def _pk_eq(self, rng, m, round_no):
        key = int(rng.integers(0, self.rows))
        return self._lookup("k = %d" % key, m.k == key, m)

    def _pk_between(self, rng, m, round_no):
        lo = int(rng.integers(0, self.rows - 50))
        hi = lo + int(rng.integers(1, 50))
        return self._lookup("k BETWEEN %d AND %d" % (lo, hi),
                            (m.k >= lo) & (m.k <= hi), m)

    def _pk_in(self, rng, m, round_no):
        keys = sorted(set(rng.integers(0, self.rows,
                                       size=int(rng.integers(2, 6))).tolist()))
        return self._lookup("k IN (%s)" % ", ".join(map(str, keys)),
                            np.isin(m.k, keys), m)

    def _ts_eq(self, rng, m, round_no):
        at = int(m.ts[int(rng.integers(0, self.rows))])
        return Stmt("SELECT k, dev, kwh FROM t WHERE ts = %d" % at, "read",
                    rows=m.rows(m.ts == at, ("k", "dev", "kwh")))

    def _ts_between(self, rng, m, round_no):
        at = int(m.ts[int(rng.integers(0, self.rows))])
        mask = (m.ts >= at) & (m.ts <= at + 300)
        return Stmt("SELECT k, dev, kwh FROM t WHERE ts BETWEEN %d AND %d"
                    % (at, at + 300), "read",
                    rows=m.rows(mask, ("k", "dev", "kwh")))

    def _update_key(self, rng, m, round_no):
        key = int(rng.integers(0, self.rows))
        value = round(float(rng.uniform(0.0, 20.0)), 3)
        n, apply = _update(m, m.k == key, {
            "kwh": lambda m: np.full(len(m.k), value),
            "status": lambda m: (m.status + 1) % 10})
        return Stmt("UPDATE t SET kwh = %r, status = (status + 1) %% 10 "
                    "WHERE k = %d" % (value, key), "dml",
                    affected=n, apply=apply)


WORKLOADS = {w.name: w for w in (DmlChurn(), ScanAnalytics(), PointReads())}
