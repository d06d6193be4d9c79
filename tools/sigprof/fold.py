#!/usr/bin/env python3
"""Fold a prof.c dump into `outer;...;inner count` lines (flamegraph input)
and print the functions with the largest inclusive share.

    python3 tools/sigprof/fold.py sigprof.out [top_n] > stacks.folded
"""
import collections
import subprocess
import sys


def main():
    path = sys.argv[1]
    top_n = int(sys.argv[2]) if len(sys.argv) > 2 else 40
    maps, base, stacks = [], {}, []
    with open(path) as f:
        for line in f:
            if line.startswith("--samples--"):
                break
            parts = line.split()
            if len(parts) >= 6 and parts[5].startswith("/"):
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                # addr2line wants ELF virtual addresses: runtime address
                # minus where the object's first segment was loaded.
                base.setdefault(parts[5], lo)
                if "x" in parts[1]:
                    maps.append((lo, hi, parts[5]))
        for line in f:
            stacks.append([int(a, 16) for a in line.split()])

    # Return addresses point after the call: step back one byte so the
    # call site's line, not the next statement's, is what resolves.
    def locate(addr, is_return):
        addr -= is_return
        for lo, hi, obj in maps:
            if lo <= addr < hi:
                return obj, addr - base[obj]
        return None

    by_obj = collections.defaultdict(set)
    for st in stacks:
        for i, a in enumerate(st):
            loc = locate(a, i > 0)
            if loc:
                by_obj[loc[0]].add(loc[1])
    names = {}
    for obj, offs in by_obj.items():
        offs = sorted(offs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", obj],
            input="\n".join(hex(o) for o in offs),
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for o, fn in zip(offs, out[0::2]):
            names[(obj, o)] = fn

    folded, inclusive, self_time = collections.Counter(), collections.Counter(), collections.Counter()
    for st in stacks:
        frames = [names.get(locate(a, i > 0), "?") for i, a in enumerate(st)]
        if not frames:
            continue
        folded[";".join(reversed(frames))] += 1
        self_time[frames[0]] += 1
        for fn in set(frames):
            inclusive[fn] += 1
    for stack, n in sorted(folded.items()):
        print(stack, n)
    total = max(len(stacks), 1)
    print(f"{len(stacks)} samples; inclusive% self% function", file=sys.stderr)
    for fn, n in inclusive.most_common(top_n):
        print(f"{100 * n / total:6.1f} {100 * self_time[fn] / total:6.1f}  {fn}", file=sys.stderr)


if __name__ == "__main__":
    main()
