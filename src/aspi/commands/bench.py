"""`aspi bench`: reconstruction throughput on synthetic frames."""

from __future__ import annotations

from ..bench import bench_reconstruction


def run(args) -> int:
    report = bench_reconstruction(
        width=args.width, height=args.height, n=args.shifts,
        sections=args.sections, threads=args.threads, seed=args.seed,
    )
    print(report.summary())
    return 0
