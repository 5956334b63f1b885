#!/usr/bin/env python3
"""Samples where a program spends its CPU time and ranks its functions.

    python3 tools/profile/profile.py [--lib LIB] [--check REGEX] \\
        -- PROGRAM [ARGS...]

Runs PROGRAM with the SIGPROF sampler (sampler.cc, built as
build/tools/profile/libnatto_profiler.so) preloaded: one sample per
millisecond of process CPU time, each holding the interrupted instruction
and the return addresses under it. The sampler writes them to
/tmp/natto_profile.<pid>.raw at exit; this script reads and removes that
file. Profile the binary itself, not a wrapper: the sampler takes itself
out of LD_PRELOAD, so child processes run unprofiled.

Addresses are symbolized with `addr2line -C -i -f`, so an inlined function
is a frame of its own. Two tables follow, each of the top TOP (40)
functions:

  self       share of samples whose innermost frame is the function
  inclusive  share of samples with the function anywhere on the stack

A frame without debug information is named after its file, e.g.
[libc.so.6]. With --check, the exit status is 1 unless a function in the
printed tables matches REGEX. Standard library only; needs addr2line from
binutils. Build the profiled program with debug information
(RelWithDebInfo, the default here).
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_LIB = os.path.join(ROOT, "build", "tools", "profile",
                           "libnatto_profiler.so")
NAME_WIDTH = 110
# Rows per table; --check searches these rows.
TOP = 40
# Where the sampler writes natto_profile.<pid>.raw (sampler.cc, kRawDir).
RAW_DIR = "/tmp"


def parse_raw(path):
    """Returns (interval_us, dropped, maps, samples) from a sampler file.

    maps: sorted [(start, end, file offset, path)] of file-backed executable
    mappings. samples: [[pc, frame, frame, ...]] as integers.
    """
    interval_us, dropped, maps, samples = 1000, 0, [], []
    section = None
    with open(path) as f:
        if f.readline().strip() != "natto-profile v1":
            raise SystemExit("profile: %s is not a sampler file" % path)
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "samples"):
                section = line
            elif section is None:
                key, value = line.split()
                if key == "interval_us":
                    interval_us = int(value)
                elif key == "dropped":
                    dropped = int(value)
            elif section == "maps":
                fields = line.split(None, 5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                if not fields[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5]))
            elif line:
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    return interval_us, dropped, maps, samples


def load_segments(path):
    """PT_LOAD (offset, vaddr, filesz) triples of a 64-bit little-endian ELF."""
    try:
        with open(path, "rb") as f:
            header = f.read(64)
            if header[:4] != b"\x7fELF" or header[4] != 2 or header[5] != 1:
                return []
            (phoff,) = struct.unpack_from("<Q", header, 32)
            phentsize, phnum = struct.unpack_from("<HH", header, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segments = []
    for i in range(phnum):
        p_type, _, offset, vaddr, _, filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((offset, vaddr, filesz))
    return segments


class Resolver:
    """Maps run-time addresses to (file, link-time address) pairs."""

    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.segments = {}

    def __call__(self, addr):
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return None
        start, _, map_offset, path = self.maps[i]
        if path not in self.segments:
            self.segments[path] = load_segments(path)
        file_offset = addr - start + map_offset
        for offset, vaddr, filesz in self.segments[path]:
            if offset <= file_offset < offset + filesz:
                return path, file_offset - offset + vaddr
        return None


def symbolize(queries):
    """{(path, vaddr): [function, ...] innermost first} through addr2line."""
    by_path = collections.defaultdict(set)
    for path, vaddr in queries:
        by_path[path].add(vaddr)
    names = {}
    for path, vaddrs in by_path.items():
        order = sorted(vaddrs)
        fallback = ["[%s]" % os.path.basename(path)]
        proc = subprocess.run(
            ["addr2line", "-a", "-C", "-i", "-f", "-e", path],
            input="".join("%x\n" % v for v in order), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        groups = parse_addr2line(proc.stdout.splitlines())
        for k, vaddr in enumerate(order):
            names[(path, vaddr)] = (groups[k] if k < len(groups) else
                                    []) or fallback
    return names


def parse_addr2line(lines):
    """Splits `addr2line -a -f -i` output into per-address function lists,
    innermost first. Each address prints as a 0x-prefixed line, then one
    (function, file:line) pair per inlining level. A pair without a source
    line came from the symbol table alone, whose nearest symbol may belong
    to another function, so it is dropped."""
    groups = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("0x"):
            i += 1
            continue
        funcs = []
        i += 1
        while i + 1 < len(lines) and not lines[i].startswith("0x"):
            if not lines[i + 1].startswith("??"):
                funcs.append(lines[i])
            i += 2
        groups.append(funcs)
    return groups


def stacks(samples, resolver):
    """Per sample, the resolved frames innermost first: the pc, then each
    return address after it in the backtrace, looked up one byte back so
    that it lands in the call instruction."""
    out = []
    for sample in samples:
        pc, frames = sample[0], sample[1:]
        # The backtrace starts inside the signal handler; the interrupted pc
        # appears in it exactly, and the callers follow.
        callers = frames[frames.index(pc) + 1:] if pc in frames else []
        out.append([resolver(pc)] + [resolver(a - 1) for a in callers])
    return out


def rank(samples, maps):
    """Returns (self rows, inclusive rows) as [(share, share, name)]."""
    resolver = Resolver(maps)
    resolved = stacks(samples, resolver)
    names = symbolize({q for frames in resolved for q in frames if q})
    self_count = collections.Counter()
    incl_count = collections.Counter()
    for frames in resolved:
        chain = []
        for q in frames:
            chain.extend(names[q] if q else ["[unknown]"])
        if not chain:
            continue
        self_count[chain[0]] += 1
        for name in set(chain):
            incl_count[name] += 1
    n = max(len(resolved), 1)

    def row(name):
        return 100.0 * self_count[name] / n, 100.0 * incl_count[name] / n, name

    by_self = [row(k) for k, _ in self_count.most_common(TOP)]
    by_incl = [row(k) for k, _ in incl_count.most_common(TOP)]
    return by_self, by_incl


def print_table(title, rows):
    print("\n%s" % title)
    print("%7s %7s  %s" % ("self%", "incl%", "function"))
    for self_share, incl_share, name in rows:
        if len(name) > NAME_WIDTH:
            name = name[:NAME_WIDTH - 3] + "..."
        print("%7.2f %7.2f  %s" % (self_share, incl_share, name))


def run_program(lib, argv):
    """Runs argv with the sampler preloaded; returns (exit code, raw path)."""
    if not os.path.isfile(lib):
        raise SystemExit("profile: sampler library %s not found; build the "
                         "natto_profiler target or pass --lib" % lib)
    env = dict(os.environ)
    env["LD_PRELOAD"] = os.path.abspath(lib)
    proc = subprocess.Popen(argv, env=env)
    code = proc.wait()
    return code, os.path.join(RAW_DIR, "natto_profile.%d.raw" % proc.pid)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--lib", default=DEFAULT_LIB,
                   help="sampler library (default %(default)s)")
    p.add_argument("--check", help="fail unless a ranked function matches")
    p.add_argument("program", nargs=argparse.REMAINDER,
                   help="-- PROGRAM [ARGS...]")
    args = p.parse_args()
    argv = args.program[1:] if args.program[:1] == ["--"] else args.program
    if not argv:
        p.error("give the program to profile after --")

    code, raw = run_program(args.lib, argv)
    if not os.path.isfile(raw):
        raise SystemExit("profile: %s exited %d without writing %s"
                         % (argv[0], code, raw))
    interval_us, dropped, maps, samples = parse_raw(raw)
    os.remove(raw)
    if not samples:
        raise SystemExit("profile: no samples (the program used under %d us "
                         "of CPU)" % interval_us)

    by_self, by_incl = rank(samples, maps)
    print("natto-profile: %d samples of %d us CPU, %d dropped"
          % (len(samples), interval_us, dropped))
    print_table("by self time", by_self)
    print_table("by inclusive time", by_incl)
    if code != 0:
        print("profile: %s exited %d" % (argv[0], code), file=sys.stderr)
        return code
    if args.check:
        pattern = re.compile(args.check)
        if not any(pattern.search(name) for _, _, name in by_self + by_incl):
            print("profile: no ranked function matches %r" % args.check,
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
