#!/usr/bin/env python3
"""Structure + consistency validator for the interval JSONL streams that
obs::Monitor (global counters) and obs::NetState (per-edge network
state) write through obs::IntervalClock. Run in CI against the
`--monitor` and `--netstate` output of bench_grid_routing and
bench_admission so a refactor of src/obs/ or the accounting hooks
cannot silently break the invariants the samplers promise.

Records are grouped by their optional "run" label (several runs may
share one file); each group must be one complete stream. The group's
final record names the stream: a NetState final carries a per-edge
"edges" table, a Monitor final does not. Checks per group, in order:

  schema    every line is a JSON object; exactly one "final": true
            record exists and it is the group's last line; every record
            carries the numeric fields its stream writes (interval
            records: i/t/dt plus deliveries/events and a boolean
            "stalled" for Monitor, leases/blocked/attempts/deliveries/
            util_mean/util_max and a "hot" list for NetState; the
            NetState final: per-edge table, nodes, hot_edges, totals).
  timeline  interval indices "i" are contiguous from 0; "t" is strictly
            increasing with dt > 0 and t[k] - dt[k] == t[k-1] (records
            tile sim time with no gap or overlap); the final record's
            "t" equals the last interval's and its "intervals" equals
            the record count.
  totals    final values equal the per-interval delta sums: Monitor
            deliveries/events; NetState totals.leases,
            totals.attempt_pairs and the per-edge table's leases/
            blocked/attempts/deliveries.

Monitor only:
  progress  "progress", when present, is numeric and non-decreasing;
            "eta_s", when present, is null or a nonnegative number.
  watchdog  the final "stalled_intervals" equals the number of records
            flagged "stalled": true, and "peak_backlog" equals the max
            sampled "backlog" (0 when no record carries one).

NetState only:
  ranges    every utilization (interval util_mean/util_max, hot-list
            entries, final per-edge table, run-wide max_utilization)
            lies in [0, 1]; util_mean <= util_max; hot lists are sorted
            by utilization, descending; max_utilization covers every
            interval's util_max.
  table     per-node swaps sum to totals.swaps; per-hop deliveries and
            per-edge admission waits cover the request-level totals;
            "hot_edges" is the head of the per-edge table ranked by
            leases + blocked + attempts (count desc, edge asc).
  collector when the final record carries a "collector" section, its
            request-level counters equal the totals' (pairs delivered,
            requests blocked, admission waits; wait seconds within
            float tolerance).

Exit 0 and a one-line summary on success; exit 1 with every violation
on failure. Usage:

    interval_check.py FILE.jsonl
"""

import json
import sys

# Numeric fields per record type, shared ones first.
INTERVAL_NUMBERS = ("i", "t", "dt")
FINAL_NUMBERS = ("t", "intervals")
MONITOR_INTERVAL_NUMBERS = ("deliveries", "events")
MONITOR_FINAL_NUMBERS = ("stalled_intervals", "peak_backlog",
                         "deliveries", "events")
NETSTATE_INTERVAL_NUMBERS = ("leases", "blocked", "attempts", "deliveries",
                             "util_mean", "util_max")
NETSTATE_FINAL_NUMBERS = ("max_utilization",)
HOT_NUMBERS = ("edge", "util", "leases", "blocked", "attempts",
               "deliveries")
EDGE_NUMBERS = ("edge", "util", "busy_s", "leases", "blocked", "attempts",
                "deliveries", "admission_waits", "admission_wait_s",
                "fidelity_mean")
RANKED_NUMBERS = ("edge", "count")
TOTAL_NUMBERS = ("leases", "attempt_pairs", "swaps", "blocked_requests",
                 "deliveries", "admission_waits", "admission_wait_s")

# Utilizations are exact by construction up to the double round-trip of
# the cumulative busy-seconds subtraction; allow that much slack.
UTIL_EPS = 1e-9
WAIT_EPS = 1e-6


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def missing_numbers(obj, keys):
    """The first of `keys` that `obj` lacks as a number, or None."""
    return next((k for k in keys if not is_number(obj.get(k))), None)


def is_netstate(final):
    return "edges" in final


# --- schema, per stream ------------------------------------------------

def monitor_interval_schema(rec):
    errors = [f"interval record missing numeric {k!r}"
              for k in MONITOR_INTERVAL_NUMBERS if not is_number(rec.get(k))]
    if not isinstance(rec.get("stalled"), bool):
        errors.append("interval record missing boolean \"stalled\"")
    return errors


def monitor_final_schema(rec):
    return [f"final record missing numeric {k!r}"
            for k in MONITOR_FINAL_NUMBERS if not is_number(rec.get(k))]


def netstate_interval_schema(rec):
    errors = [f"interval record missing numeric {k!r}"
              for k in NETSTATE_INTERVAL_NUMBERS if not is_number(rec.get(k))]
    if not isinstance(rec.get("hot"), list):
        errors.append("interval record missing \"hot\" list")
    else:
        for h in rec["hot"]:
            key = missing_numbers(h, HOT_NUMBERS)
            if key:
                errors.append(f"hot entry missing numeric {key!r}")
                break
    return errors


def netstate_final_schema(rec):
    errors = [f"final record missing numeric {k!r}"
              for k in NETSTATE_FINAL_NUMBERS if not is_number(rec.get(k))]
    for key in ("edges", "nodes", "hot_edges"):
        if not isinstance(rec.get(key), list):
            errors.append(f"final record missing list {key!r}")
    if not isinstance(rec.get("totals"), dict):
        errors.append("final record missing object 'totals'")
    else:
        errors += [f"totals missing numeric {k!r}" for k in TOTAL_NUMBERS
                   if not is_number(rec["totals"].get(k))]
    for entries, keys, what in ((rec.get("edges"), EDGE_NUMBERS, "edge"),
                                (rec.get("hot_edges"), RANKED_NUMBERS,
                                 "hot_edges")):
        for e in entries if isinstance(entries, list) else ():
            key = missing_numbers(e, keys)
            if key:
                errors.append(f"{what} entry missing numeric {key!r}")
                break
    return errors


# --- stream-specific invariants ----------------------------------------

def check_monitor(intervals, final_line, final, err):
    prev_progress = None
    for line_no, rec in intervals:
        if "progress" in rec:
            if not is_number(rec["progress"]):
                err(line_no, "non-numeric \"progress\"")
            elif prev_progress is not None and rec["progress"] < prev_progress:
                err(line_no, f"progress {rec['progress']} decreased "
                             f"(previous {prev_progress})")
            else:
                prev_progress = rec["progress"]
        if "eta_s" in rec:
            eta = rec["eta_s"]
            if eta is not None and (not is_number(eta) or eta < 0):
                err(line_no, f"eta_s {eta} is not null-or-nonnegative")

    stalled = sum(1 for _, rec in intervals if rec["stalled"])
    if final["stalled_intervals"] != stalled:
        err(final_line, f"final stalled_intervals "
                        f"{final['stalled_intervals']} != flagged record "
                        f"count {stalled}")
    peak = max((rec.get("backlog", 0) for _, rec in intervals), default=0)
    if final["peak_backlog"] != peak:
        err(final_line, f"final peak_backlog {final['peak_backlog']} != max "
                        f"sampled backlog {peak}")


def check_netstate(intervals, final_line, final, err):
    def check_util(line_no, what, v):
        if not -UTIL_EPS <= v <= 1.0 + UTIL_EPS:
            err(line_no, f"{what} {v} outside [0, 1]")

    # --- ranges ------------------------------------------------------
    for line_no, rec in intervals:
        check_util(line_no, "util_mean", rec["util_mean"])
        check_util(line_no, "util_max", rec["util_max"])
        if rec["util_mean"] > rec["util_max"] + UTIL_EPS:
            err(line_no, f"util_mean {rec['util_mean']} exceeds util_max "
                         f"{rec['util_max']}")
        prev_util = None
        for h in rec["hot"]:
            check_util(line_no, f"hot edge {h['edge']} util", h["util"])
            if prev_util is not None and h["util"] > prev_util + UTIL_EPS:
                err(line_no, "hot list not sorted by util descending")
                break
            prev_util = h["util"]
    edges = final["edges"]
    for e in edges:
        check_util(final_line, f"final edge {e['edge']} util", e["util"])
    check_util(final_line, "max_utilization", final["max_utilization"])
    peak = max((rec["util_max"] for _, rec in intervals), default=0.0)
    if final["max_utilization"] + UTIL_EPS < peak:
        err(final_line, f"max_utilization {final['max_utilization']} "
                        f"below interval peak {peak}")

    # --- per-edge table ----------------------------------------------
    totals = final["totals"]
    node_swaps = sum(n["swaps"] for n in final["nodes"])
    if node_swaps != totals["swaps"]:
        err(final_line, f"per-node swaps sum {node_swaps} != totals.swaps "
                        f"{totals['swaps']}")
    # Per-hop deliveries cover every end-to-end pair at least once.
    hop_deliveries = sum(e["deliveries"] for e in edges)
    if hop_deliveries < totals["deliveries"]:
        err(final_line, f"per-hop deliveries {hop_deliveries} < delivered "
                        f"pairs {totals['deliveries']}")
    edge_waits = sum(e["admission_waits"] for e in edges)
    if edge_waits < totals["admission_waits"]:
        err(final_line, f"per-edge admission_waits {edge_waits} < "
                        f"totals.admission_waits "
                        f"{totals['admission_waits']}")
    ranking = sorted(((e["leases"] + e["blocked"] + e["attempts"], e["edge"])
                      for e in edges), key=lambda ce: (-ce[0], ce[1]))
    ranking = [ce for ce in ranking if ce[0] > 0]
    hot = [(h["count"], h["edge"]) for h in final["hot_edges"]]
    if hot != ranking[:len(hot)]:
        err(final_line, f"hot_edges {hot} is not the per-edge activity "
                        f"ranking {ranking[:len(hot)]}")

    # --- collector reconciliation ------------------------------------
    coll = final.get("collector")
    if isinstance(coll, dict):
        for total_key, coll_key in (
                ("deliveries", "pairs_delivered"),
                ("blocked_requests", "requests_blocked"),
                ("admission_waits", "admission_waits")):
            if totals[total_key] != coll.get(coll_key):
                err(final_line, f"totals.{total_key} {totals[total_key]} "
                                f"!= collector.{coll_key} "
                                f"{coll.get(coll_key)}")
        dw = abs(totals["admission_wait_s"]
                 - coll.get("admission_wait_s", 0.0))
        if dw > WAIT_EPS * max(1.0, abs(totals["admission_wait_s"])):
            err(final_line, f"totals.admission_wait_s "
                            f"{totals['admission_wait_s']} != "
                            f"collector.admission_wait_s "
                            f"{coll.get('admission_wait_s')}")


def delta_sums(final):
    """(what, final value, interval key) triples the per-interval deltas
    must sum to."""
    if not is_netstate(final):
        return [(f"final {key}", final[key], key)
                for key in ("deliveries", "events")]
    totals = final["totals"]
    sums = [("totals.leases", totals["leases"], "leases"),
            ("totals.attempt_pairs", totals["attempt_pairs"], "attempts")]
    for key in ("leases", "blocked", "attempts", "deliveries"):
        sums.append((f"per-edge {key} sum",
                     sum(e[key] for e in final["edges"]), key))
    return sums


# --- one run group -----------------------------------------------------

def check_group(run, records):
    """Validate one run label's record list ((line_no, record) pairs);
    returns a list of violation strings (empty = valid)."""
    errors = []
    label = f"run {run!r}" if run else "unlabelled run"

    def err(line_no, message):
        errors.append(f"{label}, line {line_no}: {message}")

    finals = [(n, r) for n, r in records if r.get("final") is True]
    intervals = [(n, r) for n, r in records if r.get("final") is not True]
    if len(finals) != 1:
        errors.append(f"{label}: expected exactly one \"final\" record, "
                      f"got {len(finals)}")
        return errors  # without the final the stream kind is unknown
    final_line, final = finals[0]
    if records[-1][1] is not final:
        err(final_line, "final record is not the group's last line")
    netstate = is_netstate(final)

    # --- schema ------------------------------------------------------
    for line_no, rec in intervals:
        key = missing_numbers(rec, INTERVAL_NUMBERS)
        if key:
            err(line_no, f"interval record missing numeric {key!r}")
        schema = netstate_interval_schema if netstate \
            else monitor_interval_schema
        for message in schema(rec):
            err(line_no, message)
    key = missing_numbers(final, FINAL_NUMBERS)
    if key:
        err(final_line, f"final record missing numeric {key!r}")
    schema = netstate_final_schema if netstate else monitor_final_schema
    for message in schema(final):
        err(final_line, message)
    if errors:
        return errors  # the arithmetic below assumes schema holds

    # --- timeline ----------------------------------------------------
    prev_t = None
    for k, (line_no, rec) in enumerate(intervals):
        if rec["i"] != k:
            err(line_no, f"interval index {rec['i']} (expected {k})")
        if rec["dt"] <= 0:
            err(line_no, f"non-positive dt {rec['dt']}")
        if prev_t is not None:
            if rec["t"] <= prev_t:
                err(line_no, f"t {rec['t']} not increasing (previous "
                             f"{prev_t})")
            if rec["t"] - rec["dt"] != prev_t:
                err(line_no, f"t - dt = {rec['t'] - rec['dt']} leaves a "
                             f"gap/overlap against previous t {prev_t}")
        prev_t = rec["t"]
    if intervals and final["t"] != intervals[-1][1]["t"]:
        err(final_line, f"final t {final['t']} != last interval t "
                        f"{intervals[-1][1]['t']}")
    if final["intervals"] != len(intervals):
        err(final_line, f"final intervals {final['intervals']} != record "
                        f"count {len(intervals)}")

    # --- totals vs the per-interval deltas ---------------------------
    for what, value, key in delta_sums(final):
        delta_sum = sum(rec[key] for _, rec in intervals)
        if value != delta_sum:
            err(final_line, f"{what} {value} != per-interval {key} sum "
                            f"{delta_sum}")

    check = check_netstate if netstate else check_monitor
    check(intervals, final_line, final, err)
    return errors


def check_file(path):
    """Returns (errors, num_records)."""
    errors = []
    groups = {}  # run label -> [(line_no, record)], insertion-ordered
    num_records = 0
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as e:
                    errors.append(f"line {line_no}: not JSON: {e}")
                    continue
                if not isinstance(rec, dict):
                    errors.append(f"line {line_no}: not a JSON object")
                    continue
                num_records += 1
                groups.setdefault(rec.get("run"), []).append((line_no, rec))
    except OSError as e:
        return [f"cannot read {path}: {e}"], 0
    if not errors and not groups:
        errors.append("no records")
    for run, records in groups.items():
        errors.extend(check_group(run, records))
    return errors, num_records


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    path = sys.argv[1]
    errors, num_records = check_file(path)
    for e in errors:
        print(f"FAIL  {e}")
    if errors:
        print(f"{path}: {len(errors)} violations in {num_records} records")
        return 1
    print(f"{path}: ok ({num_records} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
