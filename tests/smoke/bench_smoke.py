"""Check one short traced benchmark run of a workload.

Usage: python bench_smoke.py WORKLOAD OUTPUT

OUTPUT holds the standard output of ``python3 perfbench/run.py --workload
WORKLOAD --seconds 1 --trace 1``, whose last line is the result as JSON.
Exits nonzero unless the result is correct, nothing failed, every per-layer
metric was measured and the problem's own layers were seen: on Burgers the
Newton iterations, factor builds and linear solves, on elliptic the state
and linear solves (each reads 0 if its work stops going through the wrapped
step_jacobian, solve_state, solve_cy and solve_cy_transpose).

The linear elliptic problem keeps one linearization, so its run must
estimate the curvature norm exactly once, and that estimate is cheap enough
that uncounted probes leave at least 80 % of its Jacobian applications
counted (adjoint.counted_ratio). Burgers keeps its curvature bound across
linearizations and re-estimates only after a step spent its margin, so
burgers-n128-gn must take at most one estimate per four Krylov steps (it
takes 1 in 27; one per linearization took 27). Both kinds of Newton
iteration run one loop: the cold solve at the start marches it step by
step, and each trial state solve runs it on the whole trajectory from its
predicted state, which the traced count takes as one iteration, so every
Burgers workload must take at most 1,000 Newton iterations: burgers-n128-gn
takes 180 (marching every trial step by step from the predicted state took
1,769), burgers-n128-zero 270 (3,983; marching from the previous time step
took 6,073) and burgers-sweep 272 (464 while each theta's stream made its
own cold solve at u0; 3,158).

The seed-0 per-layer counts of the three single solves are pinned: Krylov
steps, norm estimates, Jacobian applies and transpose applies, operator
applies, then the problem's state solves (and on Burgers Newton iterations
and factor builds) and linear solves. They read the same under OpenBLAS's
native, Haswell, Zen, Sandybridge and Prescott kernels. Of the sweep's,
whose theta = 0 cells follow the BLAS kernel's last bits in their Jacobian
applies and linear solves, the counts that read the same under all five
kernels are pinned: Krylov steps, norm estimates (one per theta's stream
would be 8; the streams share the estimate at u0), state solves, Newton
iterations and factor builds.
"""

import json
import sys

PINS = {"elliptic-n80": (24, 1, 34, 59, 93, 25, 93),
        "burgers-n128-gn": (27, 1, 119, 147, 321, 28, 180, 28, 293),
        "burgers-n128-zero": (58, 0, 0, 37, 154, 59, 270, 37, 73),
        "burgers-sweep": (92, 5, 93, 272, 93)}


def main(workload, output):
    with open(output) as f:
        result = json.loads(f.read().splitlines()[-1])
    metrics = result["metrics"]
    absent = sorted(name for name, m in metrics.items() if m.get("absent"))
    if workload.startswith("burgers"):
        seen_layers = ("burgers.newton_iters", "burgers.factor_builds", "burgers.linear_solves")
    else:
        seen_layers = ("elliptic.state_solves", "elliptic.linear_solves")
    layers = {name: metrics.get(name, {}).get("value") or 0 for name in seen_layers}
    estimates = metrics.get("subproblem.norm_estimates", {}).get("value")
    counted = metrics.get("adjoint.counted_ratio", {}).get("value") or 0
    steps = metrics.get("subproblem.krylov_steps", {}).get("value") or 0
    print(workload, "correct:", result["correct"], "failed:", result["failed"],
          "absent:", absent, layers, "norm estimates:", estimates,
          "counted ratio:", counted, "krylov steps:", steps)
    ok = result["correct"] and result["failed"] == 0 and not absent
    seen = all(value > 0 for value in layers.values())
    cheap = workload != "elliptic-n80" or (estimates == 1 and counted >= 0.8)
    kept = workload != "burgers-n128-gn" or (estimates is not None and estimates <= steps / 4)
    newton = metrics.get("burgers.newton_iters", {}).get("value")
    whole = not workload.startswith("burgers") or (newton is not None and newton <= 1000)
    common = ("subproblem.krylov_steps", "subproblem.norm_estimates", "adjoint.applies",
              "adjoint.apply_transposes", "core.operator_applies")
    own = {"elliptic": ("elliptic.state_solves", "elliptic.linear_solves"),
           "burgers": ("burgers.state_solves", "burgers.newton_iters",
                       "burgers.factor_builds", "burgers.linear_solves")}
    if workload == "burgers-sweep":
        names = ("subproblem.krylov_steps", "subproblem.norm_estimates",
                 "burgers.state_solves", "burgers.newton_iters", "burgers.factor_builds")
    else:
        names = common + own[workload.split("-")[0]]
    counts = tuple(metrics.get(name, {}).get("value") for name in names)
    pinned = counts == PINS[workload]
    print("pinned counts:", dict(zip(names, counts)), "expected:", PINS[workload])
    sys.exit(0 if ok and seen and cheap and kept and whole and pinned else 1)


if __name__ == "__main__":
    main(*sys.argv[1:])
