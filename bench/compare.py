"""Compare two ``run.py --out`` records: ``compare.py BASE.json NEW.json``.

For every (end-to-end metric, workload) prints both medians with their
interquartile ranges, the ratio NEW / BASE (the base is always the first
file) and a verdict against the regression bound in ``BENCHMARK.json``:

* ``worse``      — NEW's median is worse than BASE's by more than the bound;
* ``unresolved`` — the pass-to-pass spread of either record (range of its
  per-pass medians over their median) is wider than the bound, so a
  difference of the bound's size cannot be told from this host's drift:
  neither "unchanged" nor "worse" may be claimed — run more passes;
* ``ok``         — otherwise.

Exits non-zero when any row is ``worse``.  All end-to-end metrics are
lower-is-better; the failure ratio is compared exactly.
"""

from __future__ import annotations

import json
import sys

from run import load_contract


def verdict(base: dict, new: dict, bound: float) -> tuple[float, str]:
    ratio = new["value"] / base["value"]
    if max(base["pass_spread"], new["pass_spread"]) > bound:
        return ratio, "unresolved"
    return ratio, "worse" if ratio > 1.0 + bound else "ok"


def compare(base: dict, new: dict, contract: dict) -> list[tuple]:
    rows = []
    for w in (w["name"] for w in contract["workloads"]):
        for spec in contract["end_to_end"]:
            b = base["workloads"][w]["end_to_end"][spec["name"]]
            n = new["workloads"][w]["end_to_end"][spec["name"]]
            rows.append((w, spec["name"], spec["unit"], b, n, *verdict(b, n, spec["bound"])))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, new = json.load(fa), json.load(fb)
    rows = compare(base, new, load_contract())
    print(f"{'workload':14s} {'metric':13s} {'base':>11s} {'[q1, q3]':>24s} "
          f"{'new':>11s} {'[q1, q3]':>24s} {'new/base':>9s}  verdict")
    for w, name, unit, b, n, ratio, word in rows:
        print(f"{w:14s} {name:13s} {b['value']:11.5g} "
              f"{'[%.5g, %.5g]' % (b['q1'], b['q3']):>24s} {n['value']:11.5g} "
              f"{'[%.5g, %.5g]' % (n['q1'], n['q3']):>24s} {ratio:9.4f}  {word} ({unit})")
    failed_worse = new["failed_frac"] > base["failed_frac"]
    print(f"{'all':14s} {'failed_frac':13s} {base['failed_frac']:11.5g} {'':24s} "
          f"{new['failed_frac']:11.5g} {'':24s} {'':9s}  "
          f"{'worse' if failed_worse else 'ok'} (ratio)")
    worse = sum(r[-1] == "worse" for r in rows) + failed_worse
    unresolved = sum(r[-1] == "unresolved" for r in rows)
    print(f"{len(rows) + 1} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
