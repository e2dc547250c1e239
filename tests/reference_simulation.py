"""Per-minute reference truth model and strategies.

The truth model ``bebcharge.simulation`` replaced, kept as the oracle for its
tables, its kernel and its controllers: ``ReferenceEnvironment`` steps one
minute at a time, bus by bus, reading the geometry arrays and the noise
record directly, and builds them the way the package did before it
tabulated a run's minutes once; ``reference_tables`` gives the per-bus
tables the package's kernel reads, built from those arrays.
``reference_open_loop`` replays a plan minute by minute, looking each
minute's plan step up, and ``reference_qin`` runs the threshold heuristic's
controller once per minute, walking every bus, the connected buses and the
queue each time.  The package must reproduce all of them byte for byte.
"""

import math

import numpy as np

from bebcharge.charge_model import simulate_exact
from bebcharge.scenario import charging_params, discretize, step_overlap_minutes
from bebcharge.simulation import (
    QIN_THRESHOLD,
    TRUTH_DELTA_MIN,
    _finalize_run,
    _VisitSpan,
    perturb_arrivals,
)


class ReferenceEnvironment:
    """The truth model as one minute at a time, bus by bus, reading the
    geometry arrays and the noise record directly."""

    def __init__(self, scenario, noise, params):
        self.scenario = scenario
        self.noise = noise
        self.params = params
        self.instance = discretize(scenario, TRUTH_DELTA_MIN)
        self.n_steps = self.instance.n_steps
        self.t0_min = self.instance.t0_min
        self.bus_ids = [b.id for b in scenario.buses]
        self._bus_by_id = {b.id: b for b in scenario.buses}
        self._type_index = {ct.id: i for i, ct in enumerate(scenario.charger_types)}
        self._charger_by_id = {ct.id: ct for ct in scenario.charger_types}
        self._charge_params = {
            (bus.id, ct.id): charging_params(bus, ct)
            for bus in scenario.buses
            for ct in scenario.charger_types
        }
        self.arrivals = perturb_arrivals(scenario, noise.arrival_shift_s)

        n_b, n_s = len(self.bus_ids), self.n_steps
        starts = self.t0_min + TRUTH_DELTA_MIN * np.arange(n_s)
        self._drive_kwh = np.zeros((n_b, n_s))
        self._drive_minutes = np.zeros((n_b, n_s))
        self._presence_hours = np.zeros((n_b, n_s))
        self._visit_of_step = [[None] * n_s for _ in range(n_b)]
        for j, bus in enumerate(scenario.buses):
            for bi, block in enumerate(bus.schedule):
                if block.kind == "on_route":
                    end = float(block.end_min)
                    nxt = bi + 1
                    if nxt < len(bus.schedule) and bus.schedule[nxt].kind == "in_station":
                        end = self.arrivals[f"{bus.id}:v{nxt}"]
                    ov = step_overlap_minutes(starts, TRUTH_DELTA_MIN, block.start_min, end)
                    self._drive_minutes[j] += ov
                    self._drive_kwh[j] += block.route_power_kw * ov / 60.0
                elif block.kind == "in_station":
                    vid = f"{bus.id}:v{bi}"
                    span = _VisitSpan(
                        id=vid,
                        bus_id=bus.id,
                        arrival_min=self.arrivals[vid],
                        end_min=float(block.end_min),
                        charger_type_ids=tuple(block.charger_type_ids),
                    )
                    ov = step_overlap_minutes(
                        starts, TRUTH_DELTA_MIN, span.arrival_min, span.end_min
                    )
                    self._presence_hours[j] += ov / 60.0
                    for k in np.nonzero(ov > 0)[0]:
                        self._visit_of_step[j][int(k)] = span

        self.soc = {b.id: b.initial_soc * b.capacity_kwh for b in scenario.buses}
        self.soc_series = np.zeros((n_b, n_s + 1))
        self.soc_series[:, 0] = [self.soc[b] for b in self.bus_ids]
        self.meter_kwh = self.instance.load_kwh.copy()
        self.charge_gain_kwh = np.zeros((n_b, n_s))
        self.charge_type = [[None] * n_s for _ in range(n_b)]
        self._k = 0

    @property
    def minute_index(self):
        return self._k

    @property
    def done(self):
        return self._k >= self.n_steps

    def presence_hours(self, bus_id, k):
        return float(self._presence_hours[self.bus_ids.index(bus_id), k])

    def visit_at(self, bus_id, k):
        return self._visit_of_step[self.bus_ids.index(bus_id)][k]

    def bus(self, bus_id):
        return self._bus_by_id[bus_id]

    def charger(self, type_id):
        return self._charger_by_id[type_id]

    def advance(self, commands):
        if self.done:
            raise RuntimeError("day already finished")
        k = self._k
        realized = {}
        for j, bus_id in enumerate(self.bus_ids):
            bus = self._bus_by_id[bus_id]
            cap = bus.capacity_kwh
            soc = self.soc[bus_id]

            drive_min = self._drive_minutes[j, k]
            if drive_min > 0:
                dt_s = drive_min * 60.0
                soc = (
                    soc
                    - self._drive_kwh[j, k]
                    + self.noise.beta_discharge_kw[bus_id] * (drive_min / 60.0)
                    + self.params.discharge_white_kwh_per_sqrt_s
                    * math.sqrt(dt_s)
                    * self.noise.white_discharge[j, k]
                )
                soc = min(max(soc, 0.0), cap)

            cmd = commands.get(bus_id)
            if cmd is not None:
                tid, power_kw = cmd
                span = self._visit_of_step[j][k]
                pres_h = self._presence_hours[j, k]
                if span is not None and pres_h > 0 and tid in span.charger_type_ids:
                    cp = self._charge_params[(bus_id, tid)]
                    attainable = simulate_exact(cp, soc, pres_h) - soc
                    base = min(power_kw * pres_h, attainable)
                    ti = self._type_index[tid]
                    charger = self._charger_by_id[tid]
                    delta = (
                        base
                        + self.noise.beta_charge_kw[tid] * pres_h
                        + self.params.charge_white_for(charger)
                        * math.sqrt(pres_h * 3600.0)
                        * self.noise.white_charge[ti, k]
                    )
                    new_soc = min(max(soc + delta, 0.0), cap)
                    gained = new_soc - soc
                    self.meter_kwh[k] += max(0.0, gained)
                    self.charge_gain_kwh[j, k] = gained
                    self.charge_type[j][k] = tid
                    realized[bus_id] = gained
                    soc = new_soc

            self.soc[bus_id] = soc
            self.soc_series[j, k + 1] = soc
        self._k += 1
        return realized


def reference_open_loop(env, plan):
    """Replay ``plan`` minute by minute, looking each minute's plan step up."""
    by_bus_step = {}
    delta_h = plan.delta_min / 60.0
    for bus_id, tid, k0, k1 in plan.intervals:
        for kp in range(k0, k1):
            gain = plan.gains.get((bus_id, kp, tid), 0.0)
            by_bus_step[(bus_id, kp)] = (tid, gain / delta_h)
    while not env.done:
        t = env.t0_min + env.minute_index * TRUTH_DELTA_MIN
        kp = int(math.floor((t - plan.t0_min) / plan.delta_min + 1e-9))
        commands = {}
        if 0 <= kp < plan.n_steps:
            for bus_id in env.bus_ids:
                cmd = by_bus_step.get((bus_id, kp))
                if cmd is not None:
                    commands[bus_id] = cmd
        env.advance(commands)
    return _finalize_run(env, "open_loop")


def reference_tables(env):
    """Per bus: the drive kWh (None where the bus does not drive), drive
    bias and drive white-noise kWh, presence hours and visit of every
    minute, built from a ``ReferenceEnvironment``'s arrays with the
    arithmetic of its minute update."""
    beta_d = np.array([env.noise.beta_discharge_kw[b] for b in env.bus_ids])
    drive_bias = beta_d.reshape(-1, 1) * (env._drive_minutes / 60.0)
    drive_white = (
        env.params.discharge_white_kwh_per_sqrt_s
        * np.sqrt(env._drive_minutes * 60.0)
        * env.noise.white_discharge[:, : env.n_steps]
    )
    kwh = env._drive_kwh.astype(object)
    kwh[~(env._drive_minutes > 0)] = None
    return list(
        zip(
            kwh.tolist(),
            drive_bias.tolist(),
            drive_white.tolist(),
            env._presence_hours.tolist(),
            env._visit_of_step,
        )
    )


class ReferenceQin:
    """The threshold heuristic's controller, asked for commands once per
    minute."""

    def __init__(self, env):
        self.env = env
        self.free = {ct.id: ct.count for ct in env.scenario.charger_types}
        self.connected = {}
        self.queue = []
        self._seen_visits = set()

    def commands(self):
        env = self.env
        k = env.minute_index
        t = env.t0_min + k * TRUTH_DELTA_MIN

        # releases: departure or target level reached
        for bus_id in list(self.connected):
            span = env.visit_at(bus_id, k) if k < env.n_steps else None
            bus = env.bus(bus_id)
            target = bus.max_soc * bus.capacity_kwh
            if span is None or env.soc[bus_id] >= target - 1e-9:
                self.free[self.connected.pop(bus_id)] += 1

        # arrivals: a bus is considered at the first whole-minute boundary
        # at or after its (perturbed) arrival, and queues if below threshold
        for bus in env.scenario.buses:
            span = env.visit_at(bus.id, k)
            if span is None or span.id in self._seen_visits:
                continue
            if span.arrival_min <= t + 1e-9:
                self._seen_visits.add(span.id)
                if env.soc[bus.id] < QIN_THRESHOLD * bus.capacity_kwh:
                    self.queue.append((span.arrival_min, bus.id))
                    self.queue.sort()

        # service the queue in FIFO order
        still_waiting = []
        for key, bus_id in self.queue:
            span = env.visit_at(bus_id, k)
            bus = env.bus(bus_id)
            if span is None:
                continue  # departed while waiting
            if env.soc[bus_id] >= QIN_THRESHOLD * bus.capacity_kwh:
                continue  # no longer below threshold
            options = sorted(
                (ct_id for ct_id in span.charger_type_ids if self.free[ct_id] > 0),
                key=lambda ct_id: (-env.charger(ct_id).p_cc_kw, ct_id),
            )
            if options:
                self.free[options[0]] -= 1
                self.connected[bus_id] = options[0]
            else:
                still_waiting.append((key, bus_id))
        self.queue = still_waiting

        return {b: (tid, math.inf) for b, tid in self.connected.items()}


def reference_qin(env):
    """Run the threshold heuristic minute by minute to the end of the day."""
    controller = ReferenceQin(env)
    while not env.done:
        env.advance(controller.commands())
    return _finalize_run(env, "qin")
