#!/usr/bin/env python
"""Print the closed-form advantage surface over (G, x) and a few gamma scalings.

Useful for eyeballing how group size and correct-count shape the gradient
signal, and for confirming that gamma only rescales, never reorders.
"""

from __future__ import annotations

import argparse

from toc.rewards import closed_form_advantages, scale_advantages


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g", type=int, default=8, help="largest group size")
    parser.add_argument(
        "--gammas", default="1.0,0.5,0.25", help="comma-separated demand values"
    )
    args = parser.parse_args()
    if args.max_g < 2:
        parser.error(f"--max-g must be >= 2, got {args.max_g}")
    try:
        gammas = [float(v) for v in args.gammas.split(",")]
    except ValueError:
        parser.error(f"--gammas must be comma-separated numbers, got {args.gammas!r}")
    if not all(0 < gamma <= 1 for gamma in gammas):
        parser.error(f"--gammas values must be in (0, 1], got {args.gammas!r}")

    header = f"{'G':>3} {'x':>3} {'A_correct':>12} {'A_wrong':>12}"
    for gamma in gammas:
        header += f" {'corr*' + format(gamma, 'g'):>12}"
    print(header)
    for g in range(2, args.max_g + 1):
        for x in range(0, g + 1):
            a_correct, a_wrong = closed_form_advantages(g, x)
            row = f"{g:>3} {x:>3}"
            row += f" {a_correct:>12.6f}" if a_correct is not None else f" {'-':>12}"
            row += f" {a_wrong:>12.6f}" if a_wrong is not None else f" {'-':>12}"
            for gamma in gammas:
                if a_correct is not None:
                    (scaled,) = scale_advantages([a_correct], gamma)
                    row += f" {scaled:>12.6f}"
                else:
                    row += f" {'-':>12}"
            print(row)


if __name__ == "__main__":
    main()
