#!/usr/bin/env python3
"""Print where a binary spends its CPU time, from hostprof samples.

    python3 tools/hostprof/report.py BINARY hostprof.PID.out... [--top N]

Self time is the share of samples whose interrupted PC lies in a function
or on a source line. Inclusive time is the share of samples with the
function anywhere in the recorded frames: the PC plus up to 7 return
addresses from the frame-pointer chain, so callers deeper than that, and
callers of code built without frame pointers (libc), are missed, and the
figure is approximate. Addresses are resolved with addr2line, for BINARY
and for every shared object a sample hit; a name in a shared object
without debug symbols is its nearest exported symbol, so read libc's as
approximate. Lines need BINARY built with -g. Only profiles whose process
mapped BINARY are read.
"""

import argparse
import collections
import os
import struct
import subprocess
import sys


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each executable PT_LOAD."""
    with open(path, "rb") as f:
        elf = f.read()
    if elf[:4] != b"\x7fELF" or elf[4] != 2:
        return []
    phoff, = struct.unpack_from("<Q", elf, 0x20)
    phentsize, phnum = struct.unpack_from("<HH", elf, 0x36)
    segments = []
    for i in range(phnum):
        p_type, p_flags, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", elf, phoff + i * phentsize)
        if p_type == 1 and p_flags & 1:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def read_profile(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            kind, _, rest = line.partition(" ")
            if kind == "map":
                fields = rest.split()
                if len(fields) >= 6 and "x" in fields[1]:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
            elif kind == "sample":
                samples.append([int(x, 16) for x in rest.split()])
    return maps, samples


def resolve_stacks(binary, paths, first_is_pc=True, inlines=False):
    """Every sample of the profiles in `paths` whose process mapped `binary`
    (a real path), as a list of (function, line) frames, innermost first.
    A return address is moved back one byte, into its call instruction;
    with `first_is_pc` the innermost frame is an interrupted PC instead.
    With `inlines`, each address expands into its chain of inlined calls,
    innermost first, so a call made by inlined library code is followed by
    the function that inlined it."""
    segments = {}
    stacks = []
    for path in paths:
        maps, samples = read_profile(path)
        if not any(m[3] == binary for m in maps):
            print("skipping %s: its process did not map %s" % (path, binary),
                  file=sys.stderr)
            continue
        for sample in samples:
            stack = []
            for depth, addr in enumerate(sample):
                if depth > 0 or not first_is_pc:
                    addr -= 1
                frame = ("?", addr)
                for start, end, offset, obj in maps:
                    if start <= addr < end:
                        if obj not in segments:
                            segments[obj] = (load_segments(obj)
                                             if os.path.isfile(obj) else [])
                        file_off = addr - start + offset
                        for p_off, p_vaddr, size in segments[obj]:
                            if p_off <= file_off < p_off + size:
                                frame = (obj, file_off - p_off + p_vaddr)
                        break
                stack.append(frame)
            stacks.append(stack)

    wanted = collections.defaultdict(set)
    for stack in stacks:
        for obj, addr in stack:
            if obj != "?":
                wanted[obj].add(addr)
    names = {}
    for obj, addrs in wanted.items():
        addrs = sorted(addrs)
        # -a starts each address's block with the address itself, since
        # with -i a block holds one (function, line) pair per inline level.
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C"] + (["-i"] if inlines else []) +
            ["-e", obj],
            input="".join("%x\n" % a for a in addrs), capture_output=True,
            text=True, check=True).stdout.splitlines()
        blocks = []
        for text in out:
            if text.startswith("0x"):
                blocks.append([])
            elif blocks:
                blocks[-1].append(text)
        short = os.path.basename(obj)
        for addr, block in zip(addrs, blocks):
            chain = []
            for func, line in zip(block[0::2], block[1::2]):
                if obj != binary:
                    # Without debug symbols this is the nearest exported
                    # symbol below the address, not necessarily the function.
                    func = "%s [%s]" % (func, short)
                line = line.split(" (discriminator")[0]
                if line.startswith("??"):
                    line = short
                chain.append((func, line))
            names[(obj, addr)] = chain or [("??", short)]
    unmapped = [("?? [unmapped]", "?")]
    return [[named for frame in stack for named in names.get(frame, unmapped)]
            for stack in stacks]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary")
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    binary = os.path.realpath(args.binary)
    stacks = resolve_stacks(binary, args.profiles)
    if not stacks:
        sys.exit("no samples of %s" % binary)

    self_fn, self_line, incl = (collections.Counter() for _ in range(3))
    for stack in stacks:
        func, line = stack[0]
        self_fn[func] += 1
        self_line[(line, func)] += 1
        for f in {frame[0] for frame in stack}:
            incl[f] += 1

    total = len(stacks)
    print("%d samples of %s" % (total, binary))
    for title, counts in (("self time by function", self_fn),
                          ("self time by line", self_line),
                          ("inclusive time by function (approximate)", incl)):
        print("\n%s:" % title)
        for key, n in counts.most_common(args.top):
            label = "%s  %s" % key if isinstance(key, tuple) else key
            print("%6.2f%% %7d  %s" % (100.0 * n / total, n, label))


if __name__ == "__main__":
    main()
