"""Exhaustive reference solver for small scheduling instances.

Independent of the branch-and-bound logic: discrete choices are enumerated
directly from the timetable (per visit: do nothing, or charge one contiguous
run on one charger type), charger-capacity feasibility is checked by interval
counting, and only the continuous subproblem per choice is handed to the LP
backend with the charge edges pinned.  A run may start at the very first grid
step only when the (bus, type) pair was attached as an in-progress charge,
mirroring the rule that connecting a charger takes one step.
"""

import itertools
import math

from bebcharge.solver import solve_lp


def visit_run_options(visit, n_steps, attachments):
    """All realizable (type, k_start, k_end) runs for one visit, plus None."""
    options = [None]
    for tid in visit.charger_type_ids:
        for a in range(visit.k_start, visit.k_end):
            if a == 0 and (visit.bus_id, tid) not in attachments:
                continue  # nothing can connect before the window opens
            for b in range(a + 1, visit.k_end + 1):
                options.append((tid, a, b))
    return options


def occupied_steps(run, n_steps):
    """Charger-side busy steps for a run: connect, charge, disconnect."""
    tid, a, b = run
    steps = set(range(a, b))
    if a >= 1:
        steps.add(a - 1)
    if b <= n_steps - 1:
        steps.add(b)
    return steps


def combo_capacity_ok(combo, visits, counts, n_steps):
    busy = {}
    for visit, run in zip(visits, combo):
        if run is None:
            continue
        tid = run[0]
        for k in occupied_steps(run, n_steps):
            key = (tid, k)
            busy[key] = busy.get(key, 0) + 1
            if busy[key] > counts[tid]:
                return False
    return True


def brute_force_best(model, attachments=()):
    """Minimum objective over every discrete choice, with the continuous part
    LP-solved per choice.  Returns (objective, combo); (inf, None) when no
    choice is feasible."""
    inst = model.instance
    n_steps = inst.n_steps
    counts = {ct.id: ct.count for ct in inst.scenario.charger_types}
    visits = list(inst.visits)
    attachments = set(attachments)
    per_visit = [visit_run_options(v, n_steps, attachments) for v in visits]

    best = (math.inf, None)
    for combo in itertools.product(*per_visit):
        if not combo_capacity_ok(combo, visits, counts, n_steps):
            continue
        lb, ub = model.lb.copy(), model.ub.copy()
        chosen = {}
        for visit, run in zip(visits, combo):
            if run is None:
                continue
            tid, a, b = run
            for k in range(a, b):
                chosen[(visit.bus_id, k, tid)] = True
        for key, gid in model.graph.sigma.items():
            lb[gid] = ub[gid] = 1.0 if key in chosen else 0.0
        res = solve_lp(model, lb, ub)
        if res.status == "optimal" and res.objective < best[0] - 1e-12:
            best = (res.objective, combo)
    return best


def combo_count(model, attachments=()):
    inst = model.instance
    per_visit = [
        visit_run_options(v, inst.n_steps, set(attachments)) for v in inst.visits
    ]
    out = 1
    for opts in per_visit:
        out *= len(opts)
    return out
