"""Break a traced pass down by operation and layer.

    python3 perfbench/spans.py perfbench/results/qft-check-standard.spans.npz

For every operation key of the first traced pass it prints the mean time to
verdict and, per layer, the calls, self seconds and inclusive seconds (time
inside the outermost span of that layer) per operation, with the inclusive
share of the operation's time.  Times are traced times, so they carry the
tracing overhead that run.py reports.
"""

import sys

import numpy as np


def load(path):
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


def breakdown(spans):
    names = [str(n) for n in spans["names"]]
    ids, parent = spans["id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    row = {int(i): r for r, i in enumerate(ids)}
    n = len(ids)
    name = [int(x) for x in spans["name"]]
    child = np.zeros(n, dtype=np.int64)
    root = [0] * n
    above = [0] * n  # bit mask of the names of a span's ancestors
    # parents are recorded after their children, so walk backwards
    for r in range(n - 1, -1, -1):
        p = int(parent[r])
        if p < 0:
            root[r] = r
            continue
        pr = row[p]
        child[pr] += dur[r]
        root[r] = root[pr]
        above[r] = above[pr] | (1 << name[pr])
    outer = [not (above[r] >> name[r]) & 1 for r in range(n)]
    self_t = dur - child

    roots = [r for r in range(n) if parent[r] < 0]
    key_of_root = dict(zip(roots, (str(k) for k in spans["op_keys"])))
    table = {}
    for r in range(n):
        key = key_of_root[root[r]]
        entry = table.setdefault(key, {"ops": 0, "time": 0, "layers": {}})
        layer = names[name[r]]
        if parent[r] < 0:
            entry["ops"] += 1
            entry["time"] += dur[r]
            continue
        calls, self_ns, incl_ns = entry["layers"].get(layer, (0, 0, 0))
        entry["layers"][layer] = (calls + 1, self_ns + self_t[r],
                                 incl_ns + (dur[r] if outer[r] else 0))
    return table


def main(argv):
    spans = load(argv[0])
    for key, entry in sorted(breakdown(spans).items()):
        ops, t = entry["ops"], entry["time"] / 1e9
        print("%s: %d op(s), %.4f s per op" % (key, ops, t / ops))
        for name, (calls, self_ns, incl_ns) in sorted(
                entry["layers"].items(), key=lambda kv: -kv[1][2]):
            print("    %-28s %9.1f calls  self %8.4f s  incl %8.4f s  %5.1f%%"
                  % (name, calls / ops, self_ns / 1e9 / ops, incl_ns / 1e9 / ops,
                     100.0 * incl_ns / entry["time"]))


if __name__ == "__main__":
    main(sys.argv[1:])
