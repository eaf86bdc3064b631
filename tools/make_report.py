#!/usr/bin/env python3
"""Aggregate benchmark artifacts into a single RESULTS.md.

Run after the bench suite::

    pytest benchmarks/ --benchmark-only
    python tools/make_report.py          # writes RESULTS.md

Collects every table under ``benchmarks/results/`` in the paper's order
(tables, figures, the measured §3.3.1 overlap, ablations, extras) so the
whole reproduction is reviewable in one file.
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
OUT = Path(__file__).resolve().parent.parent / "RESULTS.md"

#: (artifact stem, section heading); order mirrors the paper
SECTIONS = [
    ("table1_platforms", "Table 1 — platforms"),
    ("table1_measured_bandwidth", "Table 1 — measured (loaded) bandwidth"),
    ("table2_datasets", "Table 2 — datasets"),
    ("table3_compression_ratio", "Table 3 — compression ratios"),
    ("fig1_throughput", "Figure 1 — throughput (H100, modelled)"),
    ("fig2_speedup_h100", "Figure 2 — overall speedup (H100)"),
    ("fig3_speedup_v100", "Figure 3 — overall speedup (V100)"),
    ("fig4_rate_distortion_cesm", "Figure 4 — rate-distortion (CESM)"),
    ("fig4_rate_distortion_hacc", "Figure 4 — rate-distortion (HACC)"),
    ("fig4_rate_distortion_hurr", "Figure 4 — rate-distortion (HURR)"),
    ("fig4_rate_distortion_nyx", "Figure 4 — rate-distortion (Nyx)"),
    ("streaming", "§3.3.1 — scatter/decode overlap, measured on the "
                  "streaming engine"),
    ("ablation_histogram", "Ablation — histogram module"),
    ("ablation_secondary", "Ablation — secondary encoder"),
    ("ablation_fusion", "Ablation — fused vs staged encoding"),
    ("ablation_radius", "Ablation — quant-code radius"),
]


def main() -> int:
    if not RESULTS.is_dir():
        print(f"no results at {RESULTS}; run the bench suite first",
              file=sys.stderr)
        return 1
    parts = [f"# Reproduction results\n",
             f"Generated {date.today().isoformat()} from "
             f"`benchmarks/results/`.  See EXPERIMENTS.md for the "
             f"paper-vs-measured commentary.\n"]
    missing = []
    for stem, heading in SECTIONS:
        path = RESULTS / f"{stem}.txt"
        if not path.exists():
            missing.append(stem)
            continue
        parts.append(f"## {heading}\n")
        parts.append("```")
        parts.append(path.read_text().rstrip())
        parts.append("```\n")
    extras = sorted(p.stem for p in RESULTS.glob("*.txt")
                    if p.stem not in {s for s, _ in SECTIONS})
    for stem in extras:
        parts.append(f"## {stem}\n")
        parts.append("```")
        parts.append((RESULTS / f"{stem}.txt").read_text().rstrip())
        parts.append("```\n")
    OUT.write_text("\n".join(parts) + "\n")
    print(f"wrote {OUT} ({len(SECTIONS) - len(missing)} sections"
          + (f", {len(missing)} missing: {missing}" if missing else "")
          + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
