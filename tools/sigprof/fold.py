#!/usr/bin/env python3
"""Fold a prof.c dump into `outer;...;inner count` lines (flamegraph input)
and print the functions with the largest inclusive share.

    python3 tools/sigprof/fold.py sigprof.out [top_n] > stacks.folded

With `--lines` it prints, instead of both, the source lines with the largest
self share. A hot loop the compiler inlined reads by function as
`<f64>::min` or `SliceIndex::index` and says nothing; its leaf address still
resolves (`addr2line -i`) to a chain of inlined frames, and the first of
those under `crates/` is the line of this repository that spent the sample.

    python3 tools/sigprof/fold.py sigprof.out [top_n] --lines

An address outside every symbol's extent is named `<object+0xoffset>`:
addr2line would give it the nearest exported name before it, and in a
stripped libc that is some unrelated function (`__nss_database_lookup`
stood for the private memcpy variants). The function table is followed by
those leaves' share, grouped by the nearest caller frame under `crates/` —
who asked for the copy.

With `--under SYMBOL` it prints, instead of both tables, the samples whose
stack passes through a function whose name contains SYMBOL: the inclusive
share of every function beneath it (of all samples, and of the symbol's),
then the hot leaves beneath it, each with its nearest caller frame under
`crates/` — the line of this repository a library leaf (`partial_cmp`,
`make_hash`, a B-tree search) was working for.

    python3 tools/sigprof/fold.py sigprof.out [top_n] --under 'Ctx<M>::send'
"""
import bisect
import collections
import os
import subprocess
import sys


def symbol_spans(obj):
    """Disjoint, sorted `(start, end)` extents of the sized symbols of
    `obj`: its static table, or the dynamic one if it is stripped."""
    for flags in (["--defined-only"], ["-D", "--defined-only"]):
        out = subprocess.run(["nm", "-S", *flags, obj], capture_output=True, text=True).stdout
        spans = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 4 and int(parts[1], 16) > 0:
                lo = int(parts[0], 16)
                spans.append((lo, lo + int(parts[1], 16)))
        if spans:
            merged = []
            for lo, hi in sorted(spans):
                if merged and lo <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
            return merged
    return []


def inside(spans, off):
    i = bisect.bisect_right(spans, (off, float("inf"))) - 1
    return i >= 0 and spans[i][0] <= off < spans[i][1]


def under(stacks, frames_of, files_of, symbol, top_n):
    """Print what the frames beneath `symbol` cost (see the module doc)."""
    beneath, leaves, hits = collections.Counter(), collections.Counter(), 0
    for st in stacks:
        frames = frames_of(st)
        # The outermost match, so a recursive symbol counts once.
        at = max((i for i, fn in enumerate(frames) if symbol in fn), default=None)
        if at is None:
            continue
        hits += 1
        for fn in set(frames[:at]):
            beneath[fn] += 1
        if at > 0:
            files = files_of(st)
            ours = [frames[i] for i in range(1, at + 1) if "/crates/" in files[i]]
            leaves[(frames[0], ours[0] if ours else "?")] += 1
    total = max(len(stacks), 1)
    print(f"{hits} of {len(stacks)} samples ({100 * hits / total:.1f}%) under {symbol!r};"
          " inclusive% of all, % of those, function", file=sys.stderr)
    for fn, n in beneath.most_common(top_n):
        print(f"{100 * n / total:6.1f} {100 * n / max(hits, 1):6.1f}  {fn}", file=sys.stderr)
    print("hot leaves beneath it: self% of all, leaf <- nearest crates/ caller", file=sys.stderr)
    for (leaf, caller), n in leaves.most_common(top_n):
        print(f"{100 * n / total:6.1f}  {leaf}  <-  {caller}", file=sys.stderr)


def main():
    argv = sys.argv[1:]
    symbol = None
    if "--under" in argv:
        i = argv.index("--under")
        symbol = argv[i + 1]
        del argv[i:i + 2]
    args = [a for a in argv if a != "--lines"]
    path = args[0]
    top_n = int(args[1]) if len(args) > 1 else 40
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

    if "--lines" in sys.argv:
        leaves = collections.Counter(locate(st[0], False) for st in stacks if st)
        by_line = collections.Counter()
        for obj in {loc[0] for loc in leaves if loc}:
            offs = sorted(loc[1] for loc in leaves if loc and loc[0] == obj)
            out = subprocess.run(
                ["addr2line", "-a", "-i", "-e", obj],
                input="\n".join(hex(o) for o in offs),
                capture_output=True, text=True, check=True,
            ).stdout.splitlines()
            # `-a` heads each address's inline chain (innermost frame first)
            # with the address itself, which no source path starts like.
            heads = [i for i, line in enumerate(out) if line.startswith("0x")]
            for off, lo, hi in zip(offs, heads, heads[1:] + [len(out)]):
                frames = [f.split(" (")[0] for f in out[lo + 1:hi]]
                ours = [f for f in frames if "/crates/" in f]
                by_line[(ours or frames or ["?"])[0]] += leaves[(obj, off)]
        total = max(len(stacks), 1)
        print(f"{len(stacks)} samples; self% file:line", file=sys.stderr)
        for line, n in by_line.most_common(top_n):
            print(f"{100 * n / total:6.1f}  {line}", file=sys.stderr)
        return

    by_obj = collections.defaultdict(set)
    for st in stacks:
        for i, a in enumerate(st):
            loc = locate(a, i > 0)
            if loc:
                by_obj[loc[0]].add(loc[1])
    names, files, unnamed = {}, {}, set()
    for obj, offs in by_obj.items():
        offs = sorted(offs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", obj],
            input="\n".join(hex(o) for o in offs),
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        spans = symbol_spans(obj)
        for o, fn, src in zip(offs, out[0::2], out[1::2]):
            names[(obj, o)], files[(obj, o)] = fn, src
            if spans and not inside(spans, o):
                names[(obj, o)] = f"<{os.path.basename(obj)}+{hex(o)}>"
                unnamed.add((obj, o))

    if symbol is not None:
        under(
            stacks,
            lambda st: [names.get(locate(a, i > 0), "?") for i, a in enumerate(st)],
            lambda st: [files.get(locate(a, i > 0), "") for i, a in enumerate(st)],
            symbol,
            top_n,
        )
        return

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

    # Leaves outside every symbol, by the nearest caller under crates/.
    callers = collections.Counter()
    for st in stacks:
        if not st or locate(st[0], False) not in unnamed:
            continue
        locs = [locate(a, True) for a in st[1:]]
        ours = [names[loc] for loc in locs if "/crates/" in files.get(loc, "")]
        callers[ours[0] if ours else "?"] += 1
    share = 100 * sum(callers.values()) / total
    print(f"{share:.1f}% of samples end outside every symbol; by nearest crates/ frame:",
          file=sys.stderr)
    for fn, n in callers.most_common(top_n):
        print(f"{100 * n / total:6.1f}  {fn}", file=sys.stderr)


if __name__ == "__main__":
    main()
