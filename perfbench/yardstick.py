"""A fixed pure-Python job whose CPU time tracks the machine's current speed.

    python3 perfbench/yardstick.py

It does the kind of work the CLI does (splitting text rows, summing counts
into a dict keyed by (name, year), float arithmetic, sorting) on the same
rows every time, and imports nothing from the program under test, so its
CPU time changes only when the speed of the machine does. run.py times the
CLI's commands relative to it.
"""

import sys

ROWS = 15_000


def main() -> int:
    rows = [f"n{(i * 7919) % 3001:04d},{'FM'[(i // 3001) % 2]},{5 + (i * 31) % 997}"
            for i in range(ROWS)]
    counts: dict[tuple[str, int], list[int]] = {}
    for i, line in enumerate(rows):
        name, sex, count = line.split(",")
        cell = counts.setdefault((name, 1880 + (i * 13) % 144), [0, 0])
        cell[sex == "M"] += int(count)
    shares = sorted(((f / (f + m), key) for key, (f, m) in counts.items()), reverse=True)
    print(len(shares), round(sum(share for share, _ in shares), 6))
    return 0


if __name__ == "__main__":
    sys.exit(main())
