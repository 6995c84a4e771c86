"""repro.mc - Monte-Carlo outage campaigns with statistical reporting.

A *campaign* runs a grid of ``(workload, design, trace family, seed)``
points - the same simulator runs the sweeps use, but with the power
condition drawn from a seeded stochastic ensemble
(:mod:`repro.energy.stochastic`) instead of a single deterministic
trace. The engine (:mod:`repro.mc.engine`) runs points through the
sweep driver - serial or pooled, on either engine - bit-identically; the
analysis layer (:mod:`repro.mc.stats`) turns the per-point results into
bootstrap confidence intervals, p95/p99 tail forward progress, and
outage-survival distributions; :mod:`repro.mc.report` renders the
summary as CSV/SVG/JSON.

See ``docs/monte-carlo.md`` and the ``repro campaign`` CLI.
"""

from repro.mc.engine import (CampaignSpec, campaign_to_dict, expand_campaign,
                             load_campaign, merge_campaigns, run_campaign,
                             run_campaign_tasks, save_campaign)
from repro.mc.report import write_report
from repro.mc.stats import (bootstrap_ci, gmean, quantile, summarize_campaign,
                            survival_curve)

__all__ = [
    "CampaignSpec",
    "bootstrap_ci",
    "campaign_to_dict",
    "expand_campaign",
    "gmean",
    "load_campaign",
    "merge_campaigns",
    "quantile",
    "run_campaign",
    "run_campaign_tasks",
    "save_campaign",
    "summarize_campaign",
    "survival_curve",
    "write_report",
]
