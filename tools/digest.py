"""Byte-identity and drift digest of parsimid's outputs.

Usage::

    PYTHONPATH=src python tools/digest.py --save digest.npz [--quick]
    python tools/digest.py --compare parent.npz change.npz

``--save`` computes a fixed corpus with whichever parsimid ``PYTHONPATH``
points at, and writes one array per item:

* ``bank/...``: WLS banks (``estimators.parsim_wls``) on Examples 1-3,
  master seeds 0-2, p = 8, 13 and 20, at 1, 2 and 3 threads and the
  automatic count (``estimators._bank_threads`` patched for the fixed
  counts): the row solutions ``theta`` (``gamma_lp`` then ``g_rows``),
  ``gram_rank`` and ``gram_cond``;
* ``identify/...``: ``realization.identify`` on Examples 1-3, master seeds
  0-5, p = 8, 12 and 20, for all four methods: the model matrices, sigma^2,
  the singular values and the numeric diagnostics, with the rest of the
  diagnostics (or the error) as text;
* ``simulate/...``: ``ss_model.simulate`` on the Example 1 and 2 systems and
  three random systems;
* ``mc/...``: the ``monte_carlo`` rows of acceptance criteria c06-c09;
* ``cli/...``: the two files of c10's ``benchmark`` command.

Each record is the trial-0 record of its scenario at the master seed
(``benchmark._trial_data``).  ``--quick`` keeps seed 0, p = 8, 1 and 2
threads and one trial per Monte Carlo run.  The tool imports only
submodules and names that the library has had since the value rules went
in, so one copy of it digests an older checkout as well as the current one.

``--compare`` prints, for each item, "equal bytes" or its largest relative
move, max |a - b| / max |a| over the item's finite entries, and then a
summary: how many items are equal, how many moved, the largest move, and
the items that moved by more than 1e-10.  It exits with 0 when every item
of both files is equal bytes, and with 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GUIDE = 1e-10  # the drift a refactor may leave on noisy records without saying why
METHODS = ("parsim", "parsim_opt", "classical", "ssarx")


def _scenarios() -> dict:
    from parsimid import benchmark

    return {
        "example1": benchmark.example1_scenario(),
        "example2": benchmark.example2_scenario(),
        "example3": benchmark.example3_scenario(10.0),
    }


def _record(sc, seed: int):
    from parsimid import benchmark

    return benchmark._trial_data(sc, seed, 0)[1]


def _bank_items(items: dict, quick: bool) -> None:
    from parsimid import arx_pre, data_blocks, estimators
    from parsimid.errors import ParsimidError

    threads = (1, 2) if quick else (1, 2, 3, None)
    for name, sc in _scenarios().items():
        for seed in (0,) if quick else (0, 1, 2):
            rec = _record(sc, seed)
            order = arx_pre.max_arx_order(len(rec))
            for p in (8,) if quick else (8, 13, 20):
                blocks = data_blocks.assemble_blocks(rec, sc.f, p)
                h = arx_pre.predictor_to_innovations(arx_pre.fit_arx(rec, max(p, order)))
                for count in threads:
                    key = f"bank/{name}/seed{seed}/p{p}/threads{count or 'auto'}"
                    automatic = estimators._bank_threads
                    if count is not None:
                        estimators._bank_threads = lambda blocks, count=count: count
                    try:
                        est = estimators.parsim_wls(blocks, h)
                    except ParsimidError as err:
                        items[f"{key}/error"] = f"{type(err).__name__}: {err}"
                        continue
                    finally:
                        estimators._bank_threads = automatic
                    items[f"{key}/theta"] = np.concatenate([np.ravel(est.gamma_lp), *est.g_rows])
                    items[f"{key}/gram_rank"] = np.array(est.gram_rank, dtype=float)
                    items[f"{key}/gram_cond"] = np.array(est.gram_cond, dtype=float)


def _split_diagnostics(diagnostics: dict) -> tuple[list[float], dict]:
    """The numeric entries, flat in key order, and the others (strings, bools, None) by key."""
    numbers, other = [], {}
    for key in sorted(diagnostics):
        value = diagnostics[key]
        if value is None or isinstance(value, (str, bool, np.bool_)):
            other[key] = bool(value) if isinstance(value, np.bool_) else value
        else:
            flat = np.ravel(np.asarray(value, dtype=float))
            other[key] = list(np.shape(value))
            numbers.extend(flat.tolist())
    return numbers, other


def _identify_items(items: dict, quick: bool) -> None:
    from parsimid import realization
    from parsimid.errors import ParsimidError

    for name, sc in _scenarios().items():
        for seed in (0,) if quick else range(6):
            prepared = realization.PreparedRecord(_record(sc, seed))
            for p in (8,) if quick else (8, 12, 20):
                for method in METHODS:
                    key = f"identify/{name}/seed{seed}/p{p}/{method}"
                    cfg = realization.RealizationConfig(n_x=sc.n_x, f=sc.f, p=p, method=method)
                    try:
                        result = realization.identify(prepared, cfg)
                    except ParsimidError as err:
                        items[f"{key}/error"] = f"{type(err).__name__}: {err}"
                        continue
                    m = result.model
                    numbers, other = _split_diagnostics(result.diagnostics)
                    items[key] = np.concatenate(
                        [np.ravel(x) for x in (m.A, m.B, m.C, m.D, m.K, [m.sigma_e2], result.singular_values, numbers)]
                    )
                    items[f"{key}/text"] = json.dumps({"n_x": m.A.shape[0], **other}, sort_keys=True)


def _simulate_items(items: dict) -> None:
    from parsimid import benchmark, ss_model

    systems = {
        "example1": benchmark.example1_system(),
        "example2": benchmark.example2_system()[0],
        **{f"random{seed}": benchmark.random_system(seed) for seed in range(3)},
    }
    for seed, (name, system) in enumerate(systems.items()):
        rng = np.random.default_rng([seed, 2000])
        u, e = rng.standard_normal(2000), rng.standard_normal(2000)
        items[f"simulate/{name}"] = ss_model.simulate(system, u, e)


def _report_items(items: dict, key: str, report) -> None:
    rows = report.rows
    items[key] = np.array([[r.trial, r.fit, r.error_g, r.seed, r.p] for r in rows], dtype=float)
    items[f"{key}/text"] = json.dumps([[r.method, r.failure] for r in rows])


def _monte_carlo_items(items: dict, quick: bool) -> None:
    from parsimid import benchmark

    trials = 1 if quick else 50
    methods = ("parsim", "parsim_opt", "ssarx")
    for n, report in benchmark.run_error_vs_n(n_values=(1000, 2000, 3000), trials=trials, master_seed=0).items():
        _report_items(items, f"mc/c06/N{n}/trials{trials}", report)
    report = benchmark.monte_carlo(benchmark.example1_scenario(N=2000, trials=trials, methods=methods), 0)
    _report_items(items, f"mc/c07/trials{trials}", report)
    report = benchmark.monte_carlo(benchmark.example2_scenario(trials=trials, methods=methods), 0)
    _report_items(items, f"mc/c08/trials{trials}", report)
    for var, report in benchmark.run_joint_fit(trials=trials, master_seed=3).items():
        _report_items(items, f"mc/c09/var{var:g}/trials{trials}", report)


def _cli_items(items: dict, quick: bool) -> None:
    from parsimid import cli

    trials = 1 if quick else 3
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["benchmark", "--scenario", "example1", "--trials", str(trials), "--seed", "11",
                "--methods", "parsim,parsim-opt", "--out", tmp]
        code = cli.run(cli.parse_args(argv))
        if code != 0:
            raise SystemExit(f"digest: the c10 benchmark command exited with {code}")
        for fname in ("trials.csv", "aggregates.json"):
            items[f"cli/c10/trials{trials}/{fname}"] = (Path(tmp) / fname).read_text()


def corpus(quick: bool = False) -> dict[str, np.ndarray]:
    """Every item of the corpus: float arrays, and text as 0-d string arrays."""
    items: dict = {}
    _bank_items(items, quick)
    _identify_items(items, quick)
    _simulate_items(items)
    _monte_carlo_items(items, quick)
    _cli_items(items, quick)
    return {key: np.asarray(value) for key, value in items.items()}


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def move(a: np.ndarray, b: np.ndarray) -> str | float:
    """The largest relative move from ``a`` to ``b``, max |a - b| / max |a| over the finite entries, or why there is none."""
    if a.dtype.kind == "U" or b.dtype.kind == "U":
        return "text differs"
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    finite = np.isfinite(a)
    if not np.array_equal(finite, np.isfinite(b)) or not np.array_equal(a[~finite], b[~finite], equal_nan=True):
        return "non-finite entries differ"
    diff = np.max(np.abs(a[finite] - b[finite]), initial=0.0)
    scale = np.max(np.abs(a[finite]), initial=0.0)
    if diff == 0.0:
        return 0.0  # equal values in other bytes, such as -0.0 for 0.0
    return float(diff / scale) if scale > 0 else np.inf


def compare(path_a, path_b, out=sys.stdout) -> bool:
    """Print each item's move from ``path_a`` to ``path_b`` and a summary; True when every item is equal bytes."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    equal, moved, differ, lone = [], {}, [], []
    for key in sorted(a.keys() | b.keys()):
        if key not in b or key not in a:
            lone.append(key)
            print(f"{key}: only in {'A' if key in a else 'B'}", file=out)
        elif _same_bytes(a[key], b[key]):
            equal.append(key)
            print(f"{key}: equal bytes", file=out)
        elif isinstance(m := move(a[key], b[key]), str):
            differ.append(key)
            print(f"{key}: {m}", file=out)
        else:
            moved[key] = m
            print(f"{key}: moved {m:.3g}", file=out)
    total = len(equal) + len(moved) + len(differ) + len(lone)
    print(
        f"summary: {total} items: {len(equal)} equal bytes, {len(moved)} moved, "
        f"{len(differ)} differ in text, shape or non-finite entries, {len(lone)} in one file only",
        file=out,
    )
    worst = max(moved, key=moved.get, default=None)
    print(f"largest move: {f'{moved[worst]:.3g} ({worst})' if worst else 'none'}", file=out)
    above = sorted(key for key, m in moved.items() if m > GUIDE)
    print(f"moved by more than {GUIDE:g}: {', '.join(above) or 'none'}", file=out)
    return len(equal) == total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--save", metavar="PATH", help="write the corpus of this checkout to PATH (.npz)")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"), help="report each item's move from A to B")
    parser.add_argument("--quick", action="store_true", help="with --save: the small subset")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    items = corpus(args.quick)
    with open(args.save, "wb") as fh:
        np.savez(fh, **items)
    print(f"digest: {len(items)} items written to {args.save}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
