"""Growth sweep: how entry-point cost grows with n.  Not gated.

    python3 perfbench/sweep.py [--seed 1]

For each series it prints the median rescaled time (see speed.py) per n,
refusals (TooLargeError) and time-limit hits, and two fits over the
answered points: the exponent k of t ~ n^k and the base b of t ~ b^n.
An exhaustive stand-in shows as a steady b near 2 per vertex; a
polynomial replacement shows as b falling towards 1 with a small k.

Series:
- berge_alpha_omega on hub/line 2-join members with n = 10..17 and 20
  (today FULL_ENUM_BOUND = 16 refuses n >= 15: the blocks that carry a
  marker path outgrow it);
- k_in_a_tree on decorated 5-structures, path length 2..8 (n 16..46),
  and on decorated 4-structures, path length 2..5, where the square
  growth can fall back to exhaustive search;
- recognize_unique_chord_free on sparse random graphs, n = 10..18, drawn
  like the structure workload's unique-chord family.
"""

from __future__ import annotations

import argparse
import math
import random
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (hub middles, line-side path lengths) -> a 2-join member of n = 2 + m + sum
SWEEP_MEMBERS = [(2, (3, 3)), (3, (3, 3)), (4, (3, 3)), (3, (3, 5)), (4, (3, 5)), (5, (3, 5)),
                 (6, (3, 5)), (5, (5, 5)), (6, (5, 7))]


REPEATS = 3     # graphs per size (five for the unique-chord series)
LIMIT_S = 10.0  # per call; a call past it is reported, not fitted


class _Limit(BaseException):
    pass


def _alarm(signum, frame):
    raise _Limit()


def measure(clock, fn, limit: float):
    """('ok', seconds) | ('too_large', None) | ('time_limit', None)."""
    from inducta.graphs import TooLargeError

    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            return "ok", clock.timed(fn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Limit:
        return "time_limit", None
    except TooLargeError:
        return "too_large", None


def fit(points: list[tuple[int, float]]) -> tuple[float, float] | None:
    """(k, b) for t ~ n^k and t ~ b^n by least squares on logs."""
    if len(points) < 3:
        return None

    def slope(xs, ys):
        mx, my = statistics.mean(xs), statistics.mean(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    ns = [n for n, _ in points]
    logt = [math.log(t) for _, t in points]
    return slope([math.log(n) for n in ns], logt), math.exp(slope(ns, logt))


def run_series(name: str, cases, clock) -> None:
    """cases: list of (n, [one callable per graph of that size])."""
    print(f"\n{name}")
    points = []
    for n, calls in cases:
        times, fails = [], []
        for fn in calls:
            outcome, t = measure(clock, fn, LIMIT_S)
            if outcome == "ok":
                times.append(t)
            else:
                fails.append(outcome)
        med = statistics.median(times) if times else None
        if med is not None and not fails:
            points.append((n, med))
        shown = f"{med * 1000:10.2f} ms" if med is not None else "         -   "
        print(f"  n={n:3d}  {shown}  answered {len(times)}/{len(calls)}"
              + (f"  {', '.join(sorted(set(fails)))}" if fails else ""))
    got = fit(points)
    if got is None:
        print("  fit: fewer than three fully answered sizes")
    else:
        print(f"  fit over n={points[0][0]}..{points[-1][0]}: t ~ n^{got[0]:.2f}, t ~ {got[1]:.3f}^n")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="growth sweep over n (not gated)")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "inducta" / "__init__.py").is_file():
        print("error: run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    signal.signal(signal.SIGALRM, _alarm)

    import workloads as W
    from inducta import berge, decompose, kintree
    from inducta.graphs import WeightedGraph
    from speed import SpeedClock

    rng = random.Random(args.seed)
    clock = SpeedClock()
    reps = range(REPEATS)

    def member(m, lengths):
        g = W.relabel(W.glue(W.hub_side_even(m), W.line_side_even(lengths)), rng)
        wg = WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])
        return lambda: berge.berge_alpha_omega(wg)

    berge_cases = {}
    for m, lengths in SWEEP_MEMBERS:
        berge_cases.setdefault(2 + m + sum(lengths), [member(m, lengths) for _ in reps])
    run_series("berge_alpha_omega on hub/line 2-join members", sorted(berge_cases.items()), clock)

    def kin(k, plen):
        g = W.decorate(W.k_structure(k, plen), k, rng.randint(1, 4), rng)
        terms = W.k_structure_terminals(k, plen)
        return lambda: kintree.k_in_a_tree(g, terms)

    for k, plens in ((5, range(2, 9)), (4, range(2, 6))):
        cases = [(k * (plen + 1), [kin(k, plen) for _ in reps]) for plen in plens]
        run_series(f"k_in_a_tree on decorated {k}-structures (n before 1-4 decoration vertices)",
                   cases, clock)

    def ucf(n):
        g = W.random_graph(n, rng.uniform(0.12, 0.22), rng)
        return lambda: decompose.recognize_unique_chord_free(g)

    run_series("recognize_unique_chord_free on sparse random graphs",
               [(n, [ucf(n) for _ in range(5)]) for n in range(10, 19, 2)], clock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
