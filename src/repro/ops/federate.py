"""Fleet telemetry federation: one metric namespace across members.

PR 6 left federation as an open item: each fleet member ran its own
telemetry service and there was no merged operator view.  This module
defines the merged namespace the ops service serves:

* ``fleet.<member>.<metric>`` — one member's series, verbatim;
* ``fleet.<metric>`` — the fleet-level rollup, merged across members.

Rollups align member series on their timestamps (members sample on the
same 15-minute cadence, so points line up except across collector-gap
faults): *capacity* metrics (system Gflops, reporting nodes, active
jobs) add across centers, while *per-node* rates (Mflops/node, miss
rates, ratios) take the node-count-weighted mean — the same convention
XDMoD uses when it rolls per-center utilization into an NSF-wide
number.  At a timestamp only some members reported, the rollup uses the
members that did.

Everything here is a pure function of immutable series snapshots, so
federated reads inherit the store's snapshot-isolation guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.store import SeriesSnapshot, summarize

#: Prefix of every federated metric name.
FLEET_PREFIX = "fleet."

#: Metrics that add across centers; everything else federates as the
#: node-count-weighted mean (per-node rates and ratios).
SUM_METRICS = frozenset({"gflops.system", "nodes.reporting", "jobs.active"})


def member_metric(member: str, metric: str) -> str:
    """The federated name of one member's series."""
    return f"{FLEET_PREFIX}{member}.{metric}"


def rollup_metric(metric: str) -> str:
    """The federated name of the fleet-level rollup."""
    return f"{FLEET_PREFIX}{metric}"


def parse_fleet_metric(name: str, members: tuple[str, ...]) -> tuple[str | None, str] | None:
    """Split a federated name into ``(member, metric)``.

    ``fleet.<member>.<metric>`` yields ``(member, metric)`` when the
    member exists; ``fleet.<metric>`` yields ``(None, metric)`` (a
    rollup).  Anything else — including a bare single-campaign metric
    name — yields ``None``.
    """
    if not name.startswith(FLEET_PREFIX):
        return None
    rest = name[len(FLEET_PREFIX):]
    head, sep, tail = rest.partition(".")
    if sep and head in members:
        return head, tail
    return None, rest


def federated_names(members: tuple[str, ...], metrics: list[str]) -> list[str]:
    """Every name the federated namespace serves, sorted."""
    names = [rollup_metric(m) for m in metrics]
    names += [member_metric(mem, m) for mem in members for m in metrics]
    return sorted(names)


def federate_series(
    metric: str,
    member_series: dict[str, SeriesSnapshot],
    node_weights: dict[str, int],
) -> SeriesSnapshot:
    """Merge member snapshots of one metric into the fleet rollup.

    The result is a :class:`SeriesSnapshot` named ``fleet.<metric>``
    over the aligned merge of every point the members hold, not just
    their served windows, so its aggregates (:func:`summarize`, exact,
    as for any series) cover the whole campaign.  Its served window
    starts at the oldest point any member still serves; ``dropped``
    counts the aligned times before it.
    """
    series = {m: s for m, s in member_series.items() if s is not None and s.count}
    if not series:
        return summarize(rollup_metric(metric), np.empty(0), np.empty(0))
    times = np.unique(np.concatenate([s.all_times for s in series.values()]))
    acc = np.zeros(len(times))
    weight = np.zeros(len(times))
    additive = metric in SUM_METRICS
    for member in sorted(series):
        snap = series[member]
        idx = np.searchsorted(times, snap.all_times)
        w = 1.0 if additive else float(max(node_weights.get(member, 1), 1))
        acc[idx] += snap.all_values if additive else snap.all_values * w
        weight[idx] += w
    values = acc if additive else acc / np.maximum(weight, 1e-300)
    served_from = min(float(s.times[0]) for s in series.values())
    return summarize(
        rollup_metric(metric), times, values, int(np.searchsorted(times, served_from))
    )
