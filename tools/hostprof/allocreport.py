#!/usr/bin/env python3
"""Print where a binary allocates, from allocprof samples.

    python3 tools/hostprof/allocreport.py BINARY allocprof.PID.out... [--top N]

Each sampled malloc is charged to its allocation site: the first frame of
its stack, inlined calls included, that lies in BINARY and is not
standard-library code (a `std::`, `__gnu_cxx::` or `operator new`
function, or a line in a header under /usr/), so a vector growth or a
std::function spill is charged to the code that asked for it. Frames in
other objects (libstdc++, libc, the shim) are skipped the same way.
Shares are of sampled mallocs; the header of each profile gives the total
malloc count, so share x mallocs estimates the calls from one site. Lines
need BINARY built with -g. Only profiles whose process mapped BINARY are
read.
"""

import argparse
import collections
import os
import sys

from report import resolve_stacks

LIBRARY_PREFIXES = ("std::", "__gnu_cxx::", "operator new", "__cxa_", "??")


def site(stack):
    """The first frame of `stack` outside the standard library."""
    for func, line in stack:
        if func.endswith("]"):  # another object: "name [libfoo.so]"
            continue
        # Inlined frames carry unqualified names (`allocate`), so their
        # file tells library code apart.
        if func.startswith(LIBRARY_PREFIXES) or line.startswith(("/usr/", "?")):
            continue
        return func, line
    return "(no frame outside the standard library)", "?"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("binary")
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    binary = os.path.realpath(args.binary)

    mallocs = 0
    for path in args.profiles:
        with open(path) as f:
            header = f.readline().split()
        if header[:1] == ["allocprof"] and "mallocs" in header:
            mallocs += int(header[header.index("mallocs") + 1])
    stacks = resolve_stacks(binary, args.profiles, first_is_pc=False,
                            inlines=True)
    if not stacks:
        sys.exit("no samples of %s" % binary)

    by_fn, by_line = collections.Counter(), collections.Counter()
    for stack in stacks:
        func, line = site(stack)
        by_fn[func] += 1
        by_line[(line, func)] += 1

    total = len(stacks)
    print("%d sampled mallocs of %d in %s" % (total, mallocs, binary))
    for title, counts in (("allocation sites by function", by_fn),
                          ("allocation sites by line", by_line)):
        print("\n%s:" % title)
        for key, n in counts.most_common(args.top):
            label = "%s  %s" % key if isinstance(key, tuple) else key
            print("%6.2f%% %7d  %s" % (100.0 * n / total, n, label))


if __name__ == "__main__":
    main()
