"""Small-scale versions of the three Monte Carlo studies.

Reproduces the structure of the benchmark suite with reduced trial counts
so it finishes in well under a minute, and writes the same plot-data CSVs
the command-line `benchmark` subcommand emits (error-versus-N sweep, FIT
tables, and the joint FIT pairs of the random-system study).

Run with:  python demos/03_monte_carlo_studies.py
"""

from pathlib import Path

import parsimid as ps

out = Path("demo_output")
out.mkdir(exist_ok=True)
TRIALS = 10  # the full studies use 50

# ----------------------------------------------------------------------
# Study 1: Markov-parameter error versus sample size (weighted vs plain).
# ----------------------------------------------------------------------
sweep = ps.run_error_vs_n(n_values=(1000, 2000, 3000), trials=TRIALS, master_seed=0)
ps.write_error_vs_n_csv(sweep, out / "error_g_vs_n.csv")
print("error versus sample size (mean over trials):")
for n, report in sorted(sweep.items()):
    agg = report.aggregates()
    print(f"  N={n}: plain {agg['parsim']['error_g_mean']:.3f}, "
          f"weighted {agg['parsim_opt']['error_g_mean']:.3f}")

# ----------------------------------------------------------------------
# Study 2: FIT distributions on the two fixed systems.
# ----------------------------------------------------------------------
for name, factory in (("example1", ps.example1_scenario), ("example2", ps.example2_scenario)):
    sc = factory(trials=TRIALS, methods=("parsim", "parsim_opt", "ssarx"))
    report = ps.monte_carlo(sc, master_seed=0)
    ps.write_trials_csv(report, out / f"trials_{name}.csv")
    ps.write_aggregates_json(report, out / f"aggregates_{name}.json")
    agg = report.aggregates()
    meds = {m: agg[m].get("fit_median") for m in sc.methods}
    print(f"\n{name} median FIT over {TRIALS} trials:")
    for m, v in meds.items():
        print(f"  {m:11s} {v:8.2f}   ({agg[m]['failures']} failures)")

# ----------------------------------------------------------------------
# Study 3: random sixth-order systems at increasing noise levels; the
# joint FIT pairs show how often the weighted bank wins per system.
# ----------------------------------------------------------------------
joint = ps.run_joint_fit(trials=TRIALS, master_seed=3)
ps.write_joint_fit_csv(joint, out / "joint_fit.csv")
print("\nrandom systems: share of trials with weighted >= plain")
for var, report in sorted(joint.items()):
    by_trial = {}
    for r in report.rows:
        if r.failure is None:
            by_trial.setdefault(r.trial, {})[r.method] = r.fit
    pairs = [d for d in by_trial.values() if len(d) == 2]
    wins = sum(1 for d in pairs if d["parsim_opt"] >= d["parsim"])
    print(f"  noise variance {var:5.1f}: {wins}/{len(pairs)}")

print(f"\nplot data written to {out}/")
