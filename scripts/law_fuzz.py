"""Fuzz the concrete Hahn laws with a configurable budget.

Usage: python scripts/law_fuzz.py [--cases N] [--seed S]

Runs `ordercuts.hahn_concrete.law_failures`, the law suite of acceptance
criterion 6, on N cases per law for each index-chain family and exponent
group, and exits 1 when any law fails.
"""

import argparse
import random
import time

from ordercuts.chains import LexChain
from ordercuts.hahn_concrete import (
    ExponentGroup,
    INT_CHAIN,
    RAT_CHAIN,
    law_failures,
)

CHAINS = [INT_CHAIN, RAT_CHAIN, LexChain((INT_CHAIN, INT_CHAIN)),
          LexChain((RAT_CHAIN, INT_CHAIN)),
          ExponentGroup(1), ExponentGroup(2), ExponentGroup(3)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cases", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    total_failures = 0
    for chain in CHAINS:
        failures = law_failures(chain, args.cases, random.Random(args.seed))
        total_failures += len(failures)
        print(f"{chain}: {args.cases} cases, {len(failures)} failures")
        for law, i in failures[:5]:
            print(f"  {law} at case {i}")
    elapsed = time.perf_counter() - start
    print(f"total failures: {total_failures} in {elapsed:.1f}s")
    return 1 if total_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
