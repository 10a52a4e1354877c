"""Compare the per-item outputs of two benchmark results.

    python3 perfbench/compare.py OLD.json NEW.json

OLD and NEW are result files from perfbench/out/ for the same workload and
seed, typically from two commits. Runs of one seed draw the same inputs in
the same order, so the items both runs reached are compared pairwise; every
output number must agree to RTOL relative; a NaN never agrees, and an
infinity agrees only with the same infinity. Exits 1 on any difference.
"""

import argparse
import json
import math
import sys

RTOL = 1e-12     # the ROADMAP's tolerance for outputs across commits


def differences(old, new, rtol):
    """Messages for each shared item whose inputs or outputs disagree."""
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        return ["results are for different workloads or seeds"]
    out = []
    for i, (a, b) in enumerate(zip(old["items"], new["items"])):
        if a["input"] != b["input"]:
            return out + [f"item {i}: inputs differ ({a['input']} vs "
                          f"{b['input']})"]
        if (a["output"] is None) != (b["output"] is None):
            out.append(f"item {i}: output present in only one result")
            continue
        for key, x in sorted((a["output"] or {}).items()):
            y = b["output"].get(key)
            if y is None or not math.isclose(x, y, rel_tol=rtol):
                out.append(f"item {i} ({a['input']}): {key} {x!r} vs {y!r}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.old) as fa, open(args.new) as fb:
        old, new = json.load(fa), json.load(fb)
    diffs = differences(old, new, RTOL)
    shared = min(len(old["items"]), len(new["items"]))
    for line in diffs:
        print(line)
    print(f"{shared} shared items, {len(diffs)} differences at "
          f"rtol {RTOL:g}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
