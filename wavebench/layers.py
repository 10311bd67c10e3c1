"""Per-layer metrics from the traced run's spans.

Each metric is taken from the workload's own spans when the workload calls
the function, and otherwise from the spans of probe.exercise, which calls
every layer once on fixed inputs; `sources` records which.  Metrics measured
directly on fixed inputs (probe.timings) and the pool efficiency are added
by run.py.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def _median(xs):
    return statistics.median(xs) if xs else None


def _metrics(spans, selfs, idx, items: int) -> dict:
    """Every span-derived metric over the spans with indices idx (None if absent)."""
    by = defaultdict(list)
    for i in idx:
        by[spans[i].name].append(i)

    def dur(name, scale=1e3, where=lambda sp: True):
        return [spans[i].net * scale for i in by[name] if where(spans[i])]

    def info(name, key):
        return [spans[i].info[key] for i in by[name] if spans[i].info]

    def self_ms(name):
        return sum(selfs[i] for i in by[name]) * 1e3 if by[name] else None

    pbd, cmp_ = by["circle_map.power_break_data"], by["rotation.compare_rho"]
    outcome = lambda kind: (lambda sp: sp.info and sp.info["outcome"] == kind)
    certs = info("rotation.rho_certify", "outcome")
    out = {
        "circle_map.power_break_data.calls": len(pbd) or None,
        "circle_map.power_break_data.self_ms": self_ms("circle_map.power_break_data"),
        "circle_map.power_break_data.peak_bits": max(info("circle_map.power_break_data", "bits"),
                                                     default=None),
        "circle_map.lift_iter.self_ms": self_ms("circle_map.lift_iter"),
        "rotation.compare_rho.calls_per_item": len(cmp_) / items if cmp_ and items else None,
        "rotation.compare_rho.sum_q_per_item": (
            sum(info("rotation.compare_rho", "q")) / items if cmp_ and items else None),
        "rotation.compare_rho.self_ms": self_ms("rotation.compare_rho"),
        "rotation.rho_certify.certified_ms.p50": _median(
            dur("rotation.rho_certify", where=outcome("certified"))),
        "rotation.rho_certify.enclosure_ms.p50": _median(
            dur("rotation.rho_certify", where=outcome("enclosure"))),
        "rotation.rho_certify.certified_share": (
            certs.count("certified") / len(certs) if certs else None),
        "dilation.ladder.repeat_compare_share": _repeat_share(spans, idx, by),
        "dilation.reduce_direction.us": _mean(dur("dilation.reduce_direction", 1e6)),
        "dilation.reduce_direction.steps": _mean(info("dilation.reduce_direction", "steps")),
        "families.build.us": _mean(dur("families.build", 1e6)),
        "tongues.tongue_interval.ms": _mean(dur("tongues.tongue_interval")),
        "tongues.render_phase_diagram.ms": _mean(dur("tongues.render_phase_diagram")),
        "reports.write_scan_csv.ms": _mean(dur("reports.write_scan_csv")),
        "classify.classify.ms": _mean(dur("classify.classify")),
        "classify.fixed_set.ms": _mean(dur("classify.fixed_set")),
        "tracer.trace_segments.ms": _mean(dur("tracer.trace_segments")),
    }
    for q in (200, 800, 3200):
        out[f"dilation.closed_leaf_exists.ms_q{q}"] = _mean(dur(
            "dilation.closed_leaf_exists", where=lambda sp: sp.info and sp.info["q_max"] == q))
    for sub in ("rho", "classify", "trace", "tongue_boundary", "map_eval"):
        out[f"cli.main.ms.{sub}"] = _mean(dur(
            "cli.main", where=lambda sp: sp.info and sp.info["sub"] == sub))
    return out


def _repeat_share(spans, idx, by):
    """Share of ladder compare_rho calls repeating a (lift, p, q) of a lower rung.

    Rungs of one direction are the closed_leaf_exists spans with the same
    (item, m, s), in call order; a comparison belongs to the rung whose span
    encloses it.
    """
    rung_of = {}
    for i in by["dilation.closed_leaf_exists"]:
        info = spans[i].info or {}
        rung_of[i] = (spans[i].item, info.get("m"), info.get("s"))
    total = repeats = 0
    seen = defaultdict(set)  # direction -> keys decided on earlier rungs
    pending = defaultdict(set)
    for i in sorted(by["rotation.compare_rho"] + by["dilation.closed_leaf_exists"],
                    key=lambda j: spans[j].start):
        sp = spans[i]
        if sp.name == "dilation.closed_leaf_exists":
            direction = rung_of[i]
            seen[direction] |= pending.pop(direction, set())
            continue
        anc = sp.parent
        while anc >= 0 and spans[anc].name != "dilation.closed_leaf_exists":
            anc = spans[anc].parent
        if anc < 0 or not sp.info:
            continue
        direction = rung_of[anc]
        key = (sp.info["lift"], sp.info["p"], sp.info["q"])
        total += 1
        repeats += key in seen[direction]
        pending[direction].add(key)
    return repeats / total if total else None


def per_layer(tr, n_work: int, items: int):
    spans, selfs = tr.spans, tr.self_times()
    work = _metrics(spans, selfs, range(n_work), items)
    probe_items = len({sp.item for sp in spans[n_work:]})
    probe = _metrics(spans, selfs, range(n_work, len(spans)), probe_items)
    metrics, sources = {}, {}
    for name, value in work.items():
        if value is None:
            value, sources[name] = probe[name], "probe"
        else:
            sources[name] = "workload"
        metrics[name] = value
    return metrics, sources


def certify_means_ms(tr, n_work: int) -> dict:
    """Mean rho_certify time by outcome over the workload's spans, for the README."""
    out = defaultdict(list)
    for sp in tr.spans[:n_work]:
        if sp.name == "rotation.rho_certify" and sp.info:
            out[sp.info["outcome"]].append(sp.net * 1e3)
    return {k: {"n": len(v), "mean_ms": sum(v) / len(v)} for k, v in out.items()}
