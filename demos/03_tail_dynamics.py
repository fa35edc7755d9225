"""Rolling tail dependence on a panel with a mid-sample correlation jump.

Simulates six assets whose common correlation switches from 0.2 to 0.7
halfway through, then walks non-overlapping windows and tracks how average
correlation and the lower-tail coefficient move together.
"""

import numpy as np

from copuladyn import (
    ReturnMatrix,
    SynthSpec,
    TradingCalendar,
    partition_windows,
    sample_panel,
    window_report,
    windowed_reports,
)

K, DAYS = 6, 400
calendar = TradingCalendar()

calm = sample_panel(
    SynthSpec(kind="gaussian", assets=K, length=DAYS // 2 * 13,
              correlation=0.2, seed=101),
    calendar,
)
# second regime starts the first trading day after the calm block ends
next_day = calendar.trading_days(np.datetime64(calm.period[1]) + 1, 1)[0]
stressed = sample_panel(
    SynthSpec(kind="gaussian", assets=K, length=DAYS // 2 * 13,
              correlation=0.7, seed=202),
    calendar,
    start=next_day,
)
panel = ReturnMatrix(
    asset_ids=calm.asset_ids,
    interval=calm.interval,
    returns=np.hstack([calm.returns, stressed.returns]),
    timestamps=np.concatenate([calm.timestamps, stressed.timestamps]),
    session_dates=np.concatenate([calm.session_dates, stressed.session_dates]),
)

reports = windowed_reports(panel, window_days=25, resolution=20, alphas=(0.05, 0.1))
print(f"{len(reports)} windows of 25 days, "
      f"{reports[0].sample_count} observations each\n")

print("window (start)  mean_corr  lower_tail(0.1)  gaussian_tail(0.1)")
for i, rep in enumerate(reports):
    lam = rep.tail.lower[rep.tail.alphas == 0.1][0]
    lam_ref = rep.gaussian_tail.lower[rep.gaussian_tail.alphas == 0.1][0]
    print(f"  {i:>3} ({rep.window_start})  {rep.mean_correlation:9.3f}"
          f"  {lam:15.3f}  {lam_ref:18.3f}")

mean_corr = np.array([r.mean_correlation for r in reports])
tails = np.array([r.tail.lower[-1] for r in reports])
co = np.corrcoef(mean_corr, tails)[0, 1]
print(f"\ncorrelation between mean pairwise correlation and lower-tail mass: {co:.3f}")
print("first-half tail mean %.3f, second-half %.3f"
      % (tails[: len(tails) // 2].mean(), tails[len(tails) // 2 :].mean()))

# a single window can also be summarized directly from its slice
first = partition_windows(panel, 25)[0]
single = window_report(first, resolution=20, alphas=(0.05, 0.1))
print("\nwindow 0 upper tail (literal convention):",
      np.round(single.tail.upper, 3))
