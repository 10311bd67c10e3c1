"""Quick self-test of the benchmark: reference, checks, and a tiny round of each workload.

    python3 wavebench/selftest.py

Exits 0 when every step passes.  Besides running each workload's checks on
real output, it corrupts that output and requires the checks to notice, so a
check that passes everything fails here.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from wavetrap import circle_map, dilation, geometry  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

FAILED = []


def step(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}",
          flush=True)
    if not ok:
        FAILED.append(name)


def reference_checks() -> None:
    p = geometry.trapezoid_params(Fraction(1), Fraction(1), Fraction(4))
    L, F = circle_map.trapezoid_lift(p), ref.trapezoid_lift(1, 1, 4)
    pts = [Fraction(k, 17) for k in range(-40, 41)]
    step("reference lift equals the library lift",
         all(ref.frac(circle_map.lift_eval(L, x)) == F(x) for x in pts))
    step("reference inverse inverts", all(F.inverse(F(x)) == x for x in pts))
    m, s = Fraction(5, 8), Fraction(13, 64)
    G, g = dilation.g_lift(m, s), ref.surface_lift(m, s)
    step("reference surface map equals g_lift",
         all(ref.frac(circle_map.lift_eval(G, x)) == g(x) for x in pts))

    # the closed forms bound the tongues of the reference lift itself
    eps = 1e-6
    ok = True
    for d in (Fraction(-1, 2), Fraction(0), Fraction(5, 16)):
        lo, hi = ref.tongue_23(float(d))
        for tau, inside in ((lo + eps, True), (hi - eps, True), (lo - eps, False),
                            (hi + eps, False)):
            F = ref.trapezoid_lift(*ref.maas_triple(d, Fraction(tau)))
            ok &= ref.has_rotation_number(F, 2, 3) == inside
        t14 = ref.tongue_14(float(d))
        for tau in (t14 - eps, t14 + eps):
            ok &= not ref.has_rotation_number(ref.trapezoid_lift(*ref.maas_triple(d, Fraction(tau))), 1, 4)
    F = ref.trapezoid_lift(*ref.maas_triple(Fraction(-1, 2), Fraction(9, 2)))
    ok &= ref.tongue_14(-0.5) == 4.5 and ref.has_rotation_number(F, 1, 4)
    step("closed-form (2,3) and (1,4) boundaries match the reference lift", ok)

    step("Farey gap", ref.farey_gap_holds("1/3", "1/2", 4) and not ref.farey_gap_holds("1/3", "1/2", 5))
    F = ref.trapezoid_lift(1, 1, 4)  # rho = 8/15, outside [0, 1/3]
    step("enclosure rejects a wrong interval", not ref.enclosure_holds(F, "0", "1/3", 2, 64))
    step("witness rejects a wrong p", not ref.witness_holds(F, 9, 15, ("circle",)))
    red = dilation.reduce_direction(Fraction(2, 3), Fraction(977, 1024))
    step("Mobius word reproduces reduce_direction",
         ref.apply_word(Fraction(2, 3), red.word, Fraction(977, 1024)) == ref.frac(red.s_out))


def workload_checks(out_dir: str) -> None:
    scan = wl.Scan(3, out_dir)
    r = scan.run_round()
    step("scan round passes its checks", not scan.check(r), str(scan.check(r)[:2]))
    bad = copy.copy(r)
    bad.outputs = [dict(o, rec=dataclasses.replace(o["rec"], p=(o["rec"].p + 1) % o["rec"].q))
                   if o["rec"].certified else o for o in r.outputs]
    step("scan check catches wrong labels", bool(scan.check(bad)))

    sweep = wl.Sweep(3, out_dir, samples=8)
    r = sweep.run_round()
    step("sweep round passes its checks", not sweep.check(r), str(sweep.check(r)[:2]))
    bad = copy.copy(r)
    bad.outputs = list(reversed(r.outputs[:8])) + r.outputs[8:]
    bad.outputs = [dict(o, u=r.outputs[i]["u"]) for i, o in enumerate(bad.outputs[:8])] + r.outputs[8:]
    step("sweep check catches a reversed staircase", bool(sweep.check(bad)))
    bad.outputs = r.outputs[:8] + [dict(o, lo=o["lo"] + Fraction(1, 10**6)) for o in r.outputs[8:]]
    step("sweep check catches a moved tongue boundary", bool(sweep.check(bad)))
    sweep.us.append(Fraction(1, 2))  # tau = 1/2 <= 1 - d: build raises
    r = sweep.run_round()
    step("sweep counts a sample that raises as failed",
         r.failed == 1 and r.attempted == 11 and bool(sweep.check(r)), str(r.errors))

    base = ((Fraction(5, 8), 0), (Fraction(5, 8), 22), (Fraction(3, 4), 6))
    ladder = wl.Ladder(3, out_dir, base=base)
    r = ladder.run_round()
    step("ladder round passes its checks", not ladder.check(r), str(ladder.check(r)[:2]))
    step("ladder counts exactly the kept direction as failed", r.failed == 1, str(r.errors))
    bad = copy.copy(r)
    bad.outputs = [dict(o, red=dataclasses.replace(o["red"], s_out=o["red"].s_out + 1))
                   if not o["failed"] else o for o in r.outputs]
    step("ladder check catches a wrong reduction", bool(ladder.check(bad)))

    queries = wl.Queries(3, out_dir, q_max=200)
    r = queries.run_round()
    step("queries round passes its checks", not queries.check(r), str(queries.check(r)[:2]))
    bad = copy.copy(r)
    outs = []
    for o in r.outputs:
        doc = json.loads(o["text"])
        if o["kind"] == "rho" and doc["result"]["rho"]["kind"] == "certified":
            doc["result"]["rho"]["p"] += 1
        if o["kind"] == "map_eval":
            doc["result"]["orbit"][-1] = "0"
        outs.append(dict(o, text=json.dumps(doc)))
    bad.outputs = outs
    errs = queries.check(bad)
    step("queries check catches wrong certificates and orbits",
         sum(e.startswith("rho") for e in errs) >= 3 and any(e.startswith("map_eval") for e in errs),
         str(errs[:4]))
    queries.requests.append(("rho", None, ["rho", "--ell=-1", "--tan-alpha=1", "--tan-theta=4"]))
    r = queries.run_round()
    step("queries counts a request that exits non-zero as failed",
         r.failed == 1 and r.attempted == 13 and bool(queries.check(r)), str(r.errors))


def main() -> int:
    reference_checks()
    out_dir = os.path.join(HERE, "out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    workload_checks(out_dir)
    print(f"{'FAILED: ' + ', '.join(FAILED) if FAILED else 'all self-test steps passed'}")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
