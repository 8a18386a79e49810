#!/usr/bin/env python3
"""Weak-symbol rule for the ISA translation units (DESIGN.md §13).

    check_weak_symbols.py --nm <nm> [--expect-x86-isa-tus] <archive>...

A translation unit compiled with an ISA flag (-mavx2, -mavx512f) must not
define a weak symbol. An inline function or template instantiated there
is emitted as a COMDAT copy compiled for that ISA, and the linker may keep
that copy for the whole program, so a CPU without the ISA would run it
from an unrelated caller. The check runs `nm -C --defined-only` over each
static library and fails when one of the ISA objects below defines a `W`
or `V` symbol, and, with --expect-x86-isa-tus (a non-scalar x86 build),
when one of them is missing from every archive. ctest runs it as
`weak_symbols`.
"""

import argparse
import subprocess
import sys

ISA_OBJECTS = (
    "microkernel_avx2.cpp.o",
    "microkernel_avx512.cpp.o",
    "advection_avx2.cpp.o",
    "pcg_avx2.cpp.o",
)
WEAK_TYPES = frozenset("WV")


def defined_symbols(nm, archive):
    """Maps each member of `archive` to the (type, name) pairs it defines."""
    out = subprocess.run([nm, "-C", "--defined-only", archive], check=True,
                         capture_output=True, text=True).stdout
    symbols = {}
    member = None
    for line in out.splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1].rsplit("/", 1)[-1]
            symbols.setdefault(member, [])
            continue
        fields = line.split(maxsplit=2)
        if member is not None and len(fields) == 3:
            symbols[member].append((fields[1], fields[2]))
    return symbols


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nm", default="nm")
    parser.add_argument("--expect-x86-isa-tus", action="store_true",
                        help="fail when an ISA object is missing")
    parser.add_argument("archives", nargs="+")
    args = parser.parse_args()

    failures = []
    seen = set()
    for archive in args.archives:
        for member, symbols in defined_symbols(args.nm, archive).items():
            if member not in ISA_OBJECTS:
                continue
            seen.add(member)
            failures += ["%s(%s): weak symbol %s %s" % (archive, member, kind,
                                                       name)
                         for kind, name in symbols if kind in WEAK_TYPES]
    if args.expect_x86_isa_tus:
        failures += ["%s: in none of %s" % (obj, " ".join(args.archives))
                     for obj in ISA_OBJECTS if obj not in seen]
    for failure in failures:
        print("check_weak_symbols: " + failure)
    if failures:
        print("check_weak_symbols: an ISA translation unit may define only "
              "intrinsics-based code with internal linkage (an anonymous "
              "namespace); see DESIGN.md §13")
        return 1
    print("check_weak_symbols: %d ISA objects, no weak symbols" % len(seen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
