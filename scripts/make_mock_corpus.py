#!/usr/bin/env python
"""Generate an offline corpus (clips, QA, shots, mock table, config).

The resulting directory is everything the CLI needs to run build-sft,
estimate-demand, and build-rl without a network.
"""

from __future__ import annotations

import argparse
import json

from toc.mockgen import synthesize_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="corpus output directory")
    parser.add_argument("--samples", type=int, default=20, help="number of QA samples")
    parser.add_argument("--seed", type=int, default=7, help="corpus RNG seed")
    parser.add_argument("--m", type=int, default=8, help="demand trial count M")
    args = parser.parse_args()
    for flag, value in (("--samples", args.samples), ("--m", args.m)):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    manifest = synthesize_corpus(args.out, num_samples=args.samples, seed=args.seed, m_trials=args.m)
    print(json.dumps(manifest, indent=2))


if __name__ == "__main__":
    main()
