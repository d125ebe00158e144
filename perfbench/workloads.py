"""The four benchmark workloads: seeded inputs, operations and output checks.

A run's inputs come from its input variant, the run seed modulo
VARIANTS.  prepare() writes every CSV, study config and calibration cell
of a variant into a work directory before anything is timed and returns
the plan: the operations, the properties of the inputs and the work each
operation does (computed from the inputs, not measured).  execute() runs
one operation against the package; verify() checks its output against
invariants that need no reference and against the references that
record.py took from the package at the commit that added the benchmark.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("exact-test", "sampled-test", "calibrate", "study")
VARIANTS = 16
SCALES = ("full", "smoke")
POWER_TOL = 1e-8  # the power bound may move this much (quadrature rewrite)
REFERENCES = Path(__file__).with_name("references.json")

# "smoke" is a tiny version of each workload; it checks the harness and
# the package in seconds and measures nothing worth comparing.
SIZES = {
    "full": {
        "exact-test": dict(q1=12, q0=12, rows=50, covariates=2),
        "sampled-test": dict(q1=12, q0=12, rows=2000, covariates=3,
                             m=100_000),
        "calibrate": dict(q1=6, q0=5, alpha=0.075, params={}, deltas=12),
        "study": dict(normal_reps=10_000, did_reps=1_000),
    },
    "smoke": {
        "exact-test": dict(q1=6, q0=6, rows=20, covariates=2),
        "sampled-test": dict(q1=8, q0=8, rows=100, covariates=3, m=2_000),
        "calibrate": dict(q1=4, q0=4, alpha=0.10,
                          params=dict(R=60, S1=200, S2=1_000), deltas=3),
        "study": dict(normal_reps=300, did_reps=40),
    },
}

# CalibrationParams defaults, needed for the computed first-pass work.
_CALIBRATION_DEFAULTS = dict(R=3000, S1=1000)
_SIDES = ("right", "left", "two-sided")
_DID_CELLS = 16  # default h_grid x delta_grid of DidConfig


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def _rng(workload: str, scale: str, variant: int) -> np.random.Generator:
    return np.random.default_rng(
        [variant, WORKLOADS.index(workload), SCALES.index(scale)])


def _write(path: Path, lines: list[str]) -> dict:
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    return {"file": path.name, "bytes": len(text.encode())}


def _cluster_order(rng, q: int) -> list[int]:
    """Cluster indices in file order (shuffled, so ingestion must regroup
    treated and control clusters)."""
    return [int(k) for k in rng.permutation(q)]


def _observations_csv(path, rng, q1, q0, rows, ncov, binary):
    """Raw rows of q1 treated and q0 control clusters with cluster-specific
    scales; a continuous or a 0/1 outcome."""
    q = q1 + q0
    treated = np.arange(q) < q1
    scale = np.exp(rng.uniform(np.log(0.3), np.log(3.0), q))
    beta = rng.normal(0.0, 0.5, ncov)
    level = rng.normal(0.0, 0.3, q) + 0.4 * treated
    lines = ["cluster_id,treated,outcome,"
             + ",".join(f"x{j + 1}" for j in range(ncov))]
    for k in _cluster_order(rng, q):
        x = rng.normal(0.0, 1.0, (rows, ncov))
        if binary:
            eta = level[k] + (x * scale[k]) @ beta
            y = (rng.random(rows) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
            y[:2] = (0, 1)  # never perfectly separated
        else:
            y = level[k] + x @ beta + scale[k] * rng.standard_normal(rows)
        prefix = f"c{k:02d},{int(treated[k])},"
        for yi, xi in zip(y.tolist(), x.tolist()):
            lines.append(prefix + ",".join(map(repr, [yi, *xi])))
    info = _write(path, lines)
    info.update(design=f"{q1}+{q0}", rows=q * rows, covariates=ncov,
                tie_fraction=0.0)
    return info


def _integer_estimates_csv(path, rng, q1, q0):
    """One small-integer estimate per cluster: most values are tied."""
    q = q1 + q0
    treated = np.arange(q) < q1
    while True:
        values = rng.integers(0, 5, q) + rng.integers(0, 2, q) * treated
        if len(set(values.tolist())) > 1:
            break
    lines = ["cluster_id,treated,estimate"]
    for k in _cluster_order(rng, q):
        lines.append(f"e{k:02d},{int(treated[k])},{int(values[k])}")
    info = _write(path, lines)
    info.update(design=f"{q1}+{q0}", rows=q,
                tie_fraction=1.0 - len(set(values.tolist())) / q)
    return info


def _test_op(key, path, mode, alpha, side, n, rows, nbytes, extra=()):
    argv = ["test", "--input", str(path), "--mode", mode,
            "--alpha", repr(alpha), "--side", side, *extra, "--json"]
    return {"key": key, "kind": "cli-test", "argv": argv, "side": side,
            "n_assignments": n,
            "work": {"relabelings": n, "rows": rows, "bytes": nbytes}}


def _prepare_exact(rng, size, workdir):
    q1, q0 = size["q1"], size["q0"]
    n = math.comb(q1 + q0, q1)
    raw = _observations_csv(workdir / "observations.csv", rng, q1, q0,
                            size["rows"], size["covariates"], binary=False)
    ties = _integer_estimates_csv(workdir / "estimates.csv", rng, q1, q0)
    files = [(workdir / "observations.csv", "intercept", raw),
             (workdir / "estimates.csv", "estimates", ties)]
    ops = []
    for i in range(6):  # both files see every side, alpha alternates
        path, mode, info = files[i % 2]
        ops.append(_test_op(f"op{i}", path, mode, (0.05, 0.10)[i // 3],
                            _SIDES[i % 3], n, info["rows"], info["bytes"]))
    return ops, [raw, ties]


def _prepare_sampled(rng, size, workdir):
    q1, q0, m = size["q1"], size["q0"], size["m"]
    info = _observations_csv(workdir / "binary.csv", rng, q1, q0,
                             size["rows"], size["covariates"], binary=True)
    info["m"] = m
    seeds = rng.integers(0, 2**31, 4)
    ops = []
    for i, (side, alpha) in enumerate((("right", 0.05), ("left", 0.05),
                                        ("two-sided", 0.10),
                                        ("right", 0.10))):
        op = _test_op(f"op{i}", workdir / "binary.csv", "logistic", alpha,
                      side, m, info["rows"], info["bytes"],
                      extra=("--sample-m", str(m), "--seed", str(seeds[i])))
        op["work"]["assignments_sampled"] = m
        ops.append(op)
    return ops, [info]


def _prepare_calibrate(rng, size, workdir):
    q1, q0 = size["q1"], size["q0"]
    q, n = q1 + q0, math.comb(q1 + q0, q1)
    # One fixed heterogeneous sigma ladder for every variant: the power
    # bound's cost depends strongly on the sigmas (0.7-4 s for 12 bounds
    # over random draws from [0.2, 2]), so drawing them per seed would
    # make the work differ between runs.  Treated clusters get the
    # noisier half, which costs about the median of those draws.
    sigmas = np.geomspace(0.2, 2.0, q)[::-1]
    cell = {
        "q1": q1, "q0": q0, "alpha": size["alpha"],
        "params": dict(size["params"], seed=int(rng.integers(0, 2**31))),
        "estimates": (rng.normal(0.0, 1.0, q) * sigmas
                      + 1.5 * (np.arange(q) < q1)).tolist(),
        "deltas": np.linspace(0.25, 3.0, size["deltas"]).tolist(),
        "sigmas_treated": sigmas[:q1].tolist(),
        "sigmas_control": sigmas[q1:].tolist(),
    }
    info = _write(workdir / "cell.json", [json.dumps(cell)])
    params = dict(_CALIBRATION_DEFAULTS, **size["params"])
    statistics = params["R"] * params["S1"] * n
    info.update(design=f"{q1}+{q0}", alpha=size["alpha"], n=n,
                R=params["R"], S1=params["S1"], tie_fraction=0.0)
    op = {"key": "op0", "kind": "calibrate", "cell": str(workdir / "cell.json"),
          "n_assignments": n,
          "work": {"relabelings": n, "statistics": statistics,
                   "flops": 2 * statistics * q,
                   "power_bounds": size["deltas"]}}
    return [op], [info]


def _prepare_study(rng, size, workdir):
    seeds = rng.integers(0, 2**31, 2)
    normal = _write(workdir / "normal.cfg", [
        "q1=6", "q0=6", "mu1_grid=0,2.5", "h=1",
        f"replications={size['normal_reps']}", f"seed={seeds[0]}"])
    did = _write(workdir / "did.cfg", [
        "q1=6", "q0=6", f"replications={size['did_reps']}",
        f"seed={seeds[1]}"])
    normal.update(design="6+6", n=924, replications=size["normal_reps"],
                  cells=2)
    did.update(design="6+6", n=924, replications=size["did_reps"],
               cells=_DID_CELLS)
    calls = []
    for study, info in (("normal", normal), ("did", did)):
        out = workdir / f"{study}.csv"
        calls.append({"study": study, "out": str(out), "argv": [
            "simulate", "--study", study, "--config",
            str(workdir / info["file"]), "--out", str(out),
            "--workers", "1", "--json"]})
    op = {"key": "op0", "kind": "study", "calls": calls,
          "work": {"normal_reps": size["normal_reps"],
                   "did_cell_reps": size["did_reps"] * _DID_CELLS,
                   "study_relabelings": 924 * (2 * size["normal_reps"]
                                               + _DID_CELLS
                                               * size["did_reps"])}}
    return [op], [normal, did]


_PREPARE = {"exact-test": _prepare_exact, "sampled-test": _prepare_sampled,
            "calibrate": _prepare_calibrate, "study": _prepare_study}


def prepare(workload: str, scale: str, variant: int, workdir: Path) -> dict:
    """Write the inputs of one workload variant and return its plan."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops, inputs = _PREPARE[workload](_rng(workload, scale, variant),
                                     SIZES[scale][workload], workdir)
    return {"workload": workload, "scale": scale, "variant": variant,
            "ops": ops, "inputs": inputs}


def attach_references(plan: dict) -> None:
    """Copy the recorded references of the plan's operations into it."""
    refs = json.loads(REFERENCES.read_text())
    table = refs[plan["scale"]][plan["workload"]][str(plan["variant"])]
    for op in plan["ops"]:
        op["ref"] = table[op["key"]]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class Api:
    """The package's public functions the operations call.

    A traced run passes wrapped functions instead, so every call into a
    layer is a span.
    """

    def __init__(self, wrap=lambda layer, fn: fn):
        from clusterperm import calibrate, cli, permkit, permtest, power
        self.dispatch = wrap("cli", cli.dispatch)
        self.size_bound = wrap("permtest", permtest.size_bound)
        self.adjusted_test = wrap("permtest", permtest.adjusted_test)
        self.calibrate_exhaustive = wrap("calibrate",
                                         calibrate.calibrate_exhaustive)
        self.power_lower_bound = wrap("power", power.power_lower_bound)
        self.Design = permkit.Design
        self.ClusterEstimates = permtest.ClusterEstimates
        self.CalibrationParams = calibrate.CalibrationParams
        self.PowerSpec = power.PowerSpec


def _cli(api: Api, argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = api.dispatch(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def load_cell(op: dict) -> dict:
    return json.loads(Path(op["cell"]).read_text())


def execute(api: Api, op: dict, cell: dict | None = None):
    """Run one operation; returns what verify() checks.  Reading files
    back for the check happens in verify(), outside the timed call."""
    kind = op["kind"]
    if kind == "cli-test":
        return _cli(api, op["argv"])
    if kind == "study":
        return [_cli(api, call["argv"]) for call in op["calls"]]
    design = api.Design(cell["q1"], cell["q0"])
    bound = api.size_bound(cell["q1"], cell["q0"])
    entry = api.calibrate_exhaustive(
        design, cell["alpha"], params=api.CalibrationParams(**cell["params"]))
    outcome = api.adjusted_test(
        api.ClusterEstimates(design, cell["estimates"]), cell["alpha"],
        alpha_entry=entry)
    powers = [api.power_lower_bound(api.PowerSpec(
        delta=d, sigmas_treated=cell["sigmas_treated"],
        sigmas_control=cell["sigmas_control"])) for d in cell["deltas"]]
    return {"size_bound": bound, "entry": entry, "outcome": outcome,
            "powers": powers}


# ---------------------------------------------------------------------------
# references and checks
# ---------------------------------------------------------------------------

_TEST_FIELDS = ("p_value_right", "p_value_left", "p_value_two_sided",
                "decision", "critical_value", "bar_alpha", "n_assignments")


def _test_payload(op, out) -> dict:
    if op["kind"] == "calibrate":
        return {**out["outcome"].to_json_dict(),
                "bar_alpha_exact": out["entry"].bar_alpha_exact}
    if out["rc"] != 0:
        raise ValueError(f"exit code {out['rc']}")
    return json.loads(out["stdout"])


def _study_rows(call) -> list[str]:
    """Data rows of a study CSV; '#' metadata lines are not compared."""
    text = Path(call["out"]).read_text()
    return [line for line in text.splitlines() if not line.startswith("#")]


def reference_of(op: dict, out) -> dict:
    """The part of an operation's output that later runs must reproduce."""
    if op["kind"] == "study":
        ref = {}
        for call, res in zip(op["calls"], out):
            payload = json.loads(res["stdout"])
            ref[call["study"]] = {"data_checksum": payload["data_checksum"],
                                  "rows": _study_rows(call)}
        return ref
    payload = _test_payload(op, out)
    ref = {f: payload[f] for f in _TEST_FIELDS}
    if op["kind"] == "calibrate":
        ref.update(size_bound=out["size_bound"],
                   order_index=out["entry"].order_index,
                   powers=out["powers"])
    return ref


def _check_p_values(payload: dict, n: int, side: str, bar: Fraction,
                    errors: list[str]) -> None:
    counts = {}
    for name in ("p_value_right", "p_value_left"):
        p = payload[name]
        k = round(p * n)
        if not (1 <= k <= n and k / n == p):
            errors.append(f"{name}={p!r} is not a count over N={n}")
        counts[name] = k
    pr, pl = payload["p_value_right"], payload["p_value_left"]
    if payload["p_value_two_sided"] != min(1.0, 2.0 * min(pr, pl)):
        errors.append("p_value_two_sided != min(1, 2 min(p_right, p_left))")
    k = {"right": counts["p_value_right"], "left": counts["p_value_left"],
         "two-sided": min(counts.values())}[side]
    want = "reject" if Fraction(k, n) <= bar else "retain"
    if payload["decision"] != want:
        errors.append(f"decision {payload['decision']} but p={k}/{n} "
                      f"vs bar_alpha={bar}")


def verify(op: dict, out) -> list[str]:
    """Mismatches of one operation's output; empty when it is correct."""
    if isinstance(out, BaseException):
        return [f"raised {type(out).__name__}: {out}"]
    errors: list[str] = []
    ref = op["ref"]
    if op["kind"] == "study":
        for call, res in zip(op["calls"], out):
            if res["rc"] != 0:
                errors.append(f"{call['study']}: exit code {res['rc']}")
                continue
            got = json.loads(res["stdout"])["data_checksum"]
            want = ref[call["study"]]
            if got != want["data_checksum"]:
                errors.append(f"{call['study']}: data_checksum {got} != "
                              f"{want['data_checksum']}")
            if _study_rows(call) != want["rows"]:
                errors.append(f"{call['study']}: rate rows differ")
        return errors
    try:
        payload = _test_payload(op, out)
    except ValueError as exc:
        return [str(exc)]
    n = op["n_assignments"]
    if op["kind"] == "calibrate":
        bar = payload["bar_alpha_exact"]
        entry = out["entry"]
        if bar != Fraction(n - entry.order_index, n):
            errors.append("bar_alpha_exact != (N - order_index) / N")
        lo, hi = sorted((entry.q1, entry.q0))
        exact = Fraction(1, 2**lo) + Fraction(1, 2**(hi + 1)) \
            - Fraction(1, 2**(lo + hi))
        if out["size_bound"] != float(exact):
            errors.append(f"size_bound {out['size_bound']!r} != {exact}")
        for name, got in (("size_bound", out["size_bound"]),
                          ("order_index", entry.order_index)):
            if got != ref[name]:
                errors.append(f"{name} {got!r} != reference {ref[name]!r}")
        powers = out["powers"]
        if any(not 0.0 <= b <= 1.0 for b in powers) or powers != sorted(powers):
            errors.append("power bounds not in [0, 1] or not increasing")
        if len(powers) != len(ref["powers"]) or any(
                abs(b - r) > POWER_TOL for b, r in zip(powers, ref["powers"])):
            errors.append(f"power bounds differ from reference by more "
                          f"than {POWER_TOL}")
        side = "right"
    else:
        bar = Fraction(repr(payload["bar_alpha"]))  # table cells are decimals
        side = op["side"]
    _check_p_values(payload, n, side, bar, errors)
    for name in _TEST_FIELDS:
        if payload[name] != ref[name]:
            errors.append(f"{name} {payload[name]!r} != reference "
                          f"{ref[name]!r}")
    return errors
