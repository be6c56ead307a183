//! The simulated runtime: fluid task execution over virtual time.
//!
//! Tasks are descriptors (`ops` to execute, `bytes` to move). Up to
//! `min(thread_cap, cores)` tasks run concurrently; their instantaneous op
//! rates come from [`crate::machine::alloc_rates`] (max-min fair bandwidth
//! sharing), and the engine advances virtual time from rate-change boundary
//! to boundary (piecewise-constant fluid model — every completion time and
//! energy integral is exact, and runs are bit-reproducible).
//!
//! Scheduling overhead is modelled as a pure-compute prologue of
//! `sched_overhead_ns` charged to the core when a task starts — this is
//! what makes over-decomposition (tiny chunks) genuinely expensive in the
//! granularity experiments.
//!
//! The runtime emits the same `lg-core` events as the real pool
//! (`TaskBegin`/`TaskEnd` with virtual timestamps), exposes the same
//! `thread_cap` knob, and integrates package power into an
//! [`lg_metrics::EnergyMeter`] — so adaptation code cannot tell the two
//! substrates apart.

use crate::machine::{alloc_rates_into, MachineSpec, RateScratch};
use lg_core::knob::{AtomicKnob, KnobScale, KnobSpec};
use lg_core::{Clock, Event, Knob, LookingGlass, TaskId, VirtualClock};
use lg_metrics::{ceil_u64, EnergyMeter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated task descriptor.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTask {
    /// Task type name (profiled under this name).
    pub name: String,
    /// Operations to execute.
    pub ops: f64,
    /// Bytes of memory traffic the task generates.
    pub bytes: f64,
    /// Caller-chosen correlation tag, reported back through
    /// [`SimRuntime::take_completions`]. External schedulers (e.g. the DAG
    /// driver) use it to map a completion back to their own node identity.
    /// Zero by default.
    pub tag: u64,
}

impl SimTask {
    /// Creates a task descriptor.
    ///
    /// # Panics
    /// Panics if `ops` is not strictly positive or `bytes` is negative.
    pub fn new(name: impl Into<String>, ops: f64, bytes: f64) -> Self {
        assert!(ops > 0.0, "task must have positive ops");
        assert!(bytes >= 0.0, "bytes must be non-negative");
        Self {
            name: name.into(),
            ops,
            bytes,
            tag: 0,
        }
    }

    /// Bytes per op (traffic intensity).
    pub fn bytes_per_op(&self) -> f64 {
        self.bytes / self.ops
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Scheduling prologue (pure compute).
    Overhead,
    /// Task body.
    Body,
}

/// A [`SimTask`] with its name interned.
struct Queued {
    id: TaskId,
    ops: f64,
    bytes: f64,
    tag: u64,
}

struct Running {
    id: TaskId,
    worker: usize,
    phase: Phase,
    remaining_ops: f64,
    body_ops: f64,
    bpo: f64,
    started_ns: u64,
    tag: u64,
}

/// Summary of one [`SimRuntime::run_until_idle`] call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimRunReport {
    /// Virtual time elapsed during the run (ns).
    pub elapsed_ns: u64,
    /// Energy consumed during the run (J).
    pub energy_j: f64,
    /// Tasks completed during the run.
    pub tasks: u64,
    /// Body operations completed during the run.
    pub ops: f64,
}

impl SimRunReport {
    /// Elapsed seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns as f64 * 1e-9
    }

    /// Achieved throughput in ops/second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops / self.elapsed_s()
        }
    }

    /// Mean power over the run (W).
    pub fn mean_power_w(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.energy_j / self.elapsed_s()
        }
    }

    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.elapsed_s()
    }
}

/// The simulated work-stealing runtime (see module docs).
pub struct SimRuntime {
    spec: MachineSpec,
    lg: Arc<LookingGlass>,
    clock: VirtualClock,
    queue: VecDeque<Queued>,
    running: Vec<Running>,
    /// `busy[w]`: a running task holds worker index `w`.
    busy: Vec<bool>,
    /// Per-step working storage, reused across steps.
    bpos: Vec<f64>,
    rates: Vec<f64>,
    rate_scratch: RateScratch,
    cap: Arc<AtomicKnob>,
    /// DVFS knob in per-mille of nominal frequency (200‰..=1000‰).
    /// Core rate scales linearly with frequency; per-core dynamic power
    /// scales as f³ (the f·V² model with V ∝ f), so slowing cores on
    /// bandwidth-bound work trades nothing for a cubic power saving.
    freq: Arc<AtomicKnob>,
    meter: EnergyMeter,
    /// f64-bits mirrors of the meter, read by the `sim.energy_j` /
    /// `sim.power_w` introspection gauges.
    energy_gauge: Arc<AtomicU64>,
    power_gauge: Arc<AtomicU64>,
    tasks_done: u64,
    ops_done: f64,
    /// Ops advanced on *any* running task, completed or not — the
    /// continuous progress signal (`ops_done` is quantized to whole-task
    /// completions, useless inside a round shorter than a task).
    ops_progressed: f64,
    /// `(tag, completion time)` of every finished task since the last
    /// [`SimRuntime::take_completions`], in completion order.
    completions: Vec<(u64, u64)>,
}

impl SimRuntime {
    /// Creates a runtime over `spec`, wiring a fresh `LookingGlass`
    /// instance on a virtual clock.
    pub fn new(spec: MachineSpec) -> Self {
        let clock = VirtualClock::new();
        let lg = LookingGlass::builder()
            .clock(Arc::new(clock.clone()))
            .build();
        Self::with_instance(spec, lg, clock)
    }

    /// Creates a runtime reporting to an existing instance (whose clock
    /// must be `clock`).
    pub fn with_instance(spec: MachineSpec, lg: Arc<LookingGlass>, clock: VirtualClock) -> Self {
        spec.validate();
        // Pow2 scale: wave quantization (`tasks % cap`) riddles the full
        // integer cap range with spurious local minima, so derived tuning
        // spaces search the power-of-two lattice.
        let cap = AtomicKnob::new(
            KnobSpec::new("thread_cap", 1, spec.cores as i64)
                .with_unit("workers")
                .with_default(spec.cores as i64)
                .with_scale(KnobScale::Pow2),
            spec.cores as i64,
        );
        lg.knobs().register(cap.clone());
        let freq = AtomicKnob::new(
            KnobSpec::new("freq_permille", 200, 1000)
                .with_unit("permille")
                .with_step(50)
                .with_default(1000),
            1000,
        );
        lg.knobs().register(freq.clone());
        let mut meter = EnergyMeter::new();
        let idle_w = spec.power.power(0, 0.0);
        meter.sample(clock.now_ns(), idle_w);
        let energy_gauge = Arc::new(AtomicU64::new(0f64.to_bits()));
        let power_gauge = Arc::new(AtomicU64::new(idle_w.to_bits()));
        let (eg, pg) = (energy_gauge.clone(), power_gauge.clone());
        lg.introspection().register_gauge("sim.energy_j", move || {
            f64::from_bits(eg.load(Ordering::Relaxed))
        });
        lg.introspection().register_gauge("sim.power_w", move || {
            f64::from_bits(pg.load(Ordering::Relaxed))
        });
        Self {
            spec,
            lg,
            clock,
            queue: VecDeque::new(),
            running: Vec::new(),
            busy: vec![false; spec.cores],
            bpos: Vec::new(),
            rates: Vec::new(),
            rate_scratch: RateScratch::default(),
            cap,
            freq,
            meter,
            energy_gauge,
            power_gauge,
            tasks_done: 0,
            ops_done: 0.0,
            ops_progressed: 0.0,
            completions: Vec::new(),
        }
    }

    /// The observation instance.
    pub fn lg(&self) -> &Arc<LookingGlass> {
        &self.lg
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The machine description.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The thread-cap knob (also registered as `"thread_cap"`).
    pub fn cap_knob(&self) -> &Arc<AtomicKnob> {
        &self.cap
    }

    /// Convenience: sets the thread cap.
    pub fn set_cap(&self, cap: usize) {
        self.cap.set(cap as i64);
    }

    /// Convenience: sets the frequency as a fraction of nominal (clamped
    /// to the knob's 0.2..=1.0 range).
    pub fn set_freq(&self, fraction: f64) {
        self.freq.set((fraction * 1000.0).round() as i64);
    }

    /// Current frequency fraction.
    fn freq_fraction(&self) -> f64 {
        self.freq.get() as f64 / 1000.0
    }

    /// The machine spec with the current DVFS setting applied: core rate
    /// scales with f, bandwidth does not.
    fn effective_spec(&self) -> MachineSpec {
        let mut s = self.spec;
        s.core_flops *= self.freq_fraction();
        s
    }

    /// Queues a task.
    pub fn submit(&mut self, task: SimTask) {
        let id = self.lg.intern(&task.name);
        self.submit_interned(id, task.ops, task.bytes, task.tag);
    }

    /// [`SimRuntime::submit`] for a task type the caller interned once on
    /// [`SimRuntime::lg`]: no `String`, no name lookup per task.
    ///
    /// # Panics
    /// Panics if `ops` is not strictly positive or `bytes` is negative.
    pub fn submit_interned(&mut self, id: TaskId, ops: f64, bytes: f64, tag: u64) {
        assert!(ops > 0.0, "task must have positive ops");
        assert!(bytes >= 0.0, "bytes must be non-negative");
        self.queue.push_back(Queued {
            id,
            ops,
            bytes,
            tag,
        });
    }

    /// Queues a batch.
    pub fn submit_all(&mut self, tasks: impl IntoIterator<Item = SimTask>) {
        for t in tasks {
            self.submit(t);
        }
    }

    /// Total energy integrated since construction (J).
    pub fn total_energy_j(&self) -> f64 {
        self.meter.energy_j()
    }

    /// Total ops advanced since construction, counting partial progress
    /// on in-flight tasks — continuous where task completions are
    /// quantized, so suitable for per-round throughput/efficiency
    /// signals.
    pub fn total_ops_progressed(&self) -> f64 {
        self.ops_progressed
    }

    /// Total tasks completed since construction.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_done
    }

    fn effective_cap(&self) -> usize {
        (self.cap.get().max(1) as usize).min(self.spec.cores)
    }

    fn fill_slots(&mut self) {
        let cap = self.effective_cap();
        while self.running.len() < cap {
            let Some(task) = self.queue.pop_front() else {
                break;
            };
            let now = self.clock.now_ns();
            // Pick the lowest free worker index for stable attribution.
            let worker = self.busy.iter().position(|b| !b).unwrap_or(0);
            self.busy[worker] = true;
            self.lg.emit(&Event::TaskBegin {
                task: task.id,
                worker,
                t_ns: now,
            });
            let overhead_ops = self.spec.sched_overhead_ns as f64 * 1e-9 * self.spec.core_flops;
            let (phase, remaining) = if overhead_ops > 0.0 {
                (Phase::Overhead, overhead_ops)
            } else {
                (Phase::Body, task.ops)
            };
            self.running.push(Running {
                id: task.id,
                worker,
                phase,
                remaining_ops: remaining,
                body_ops: task.ops,
                bpo: task.bytes / task.ops,
                started_ns: now,
                tag: task.tag,
            });
        }
    }

    /// Recomputes `rates`: the running set's op rates, in `running` order.
    fn refresh_rates(&mut self) {
        self.bpos.clear();
        self.bpos.extend(self.running.iter().map(|r| match r.phase {
            Phase::Overhead => 0.0,
            Phase::Body => r.bpo,
        }));
        alloc_rates_into(
            &self.effective_spec(),
            &self.bpos,
            &mut self.rate_scratch,
            &mut self.rates,
        );
    }

    /// Samples package power at `rates`, which must be fresh unless the
    /// running set is empty (an idle machine's power ignores them).
    fn sample_power(&mut self) {
        let active = self.running.len();
        let espec = self.effective_spec();
        let f = self.freq_fraction();
        // Dynamic power scales as f³ (f·V², V ∝ f); the stall floor and
        // utilisation are relative to the *current* frequency's peak.
        let intensity = if active == 0 {
            0.0
        } else {
            f.powi(3)
                * self
                    .rates
                    .iter()
                    .map(|&r| espec.effective_intensity(r))
                    .sum::<f64>()
                / active as f64
        };
        let watts = self.spec.power.power(active, intensity);
        self.meter.sample(self.clock.now_ns(), watts);
        self.energy_gauge
            .store(self.meter.energy_j().to_bits(), Ordering::Relaxed);
        self.power_gauge.store(watts.to_bits(), Ordering::Relaxed);
    }

    /// One DES step over the running set: sample power, advance by the
    /// earliest phase completion (capped at `max_dt_ns`), progress every
    /// running task, collect completions. Returns false when nothing is
    /// running.
    fn step_running(&mut self, max_dt_ns: u64) -> bool {
        if self.running.is_empty() {
            return false;
        }
        self.refresh_rates();
        self.sample_power();
        // Time until the first phase completion.
        let mut dt_s = f64::INFINITY;
        for (r, &rate) in self.running.iter().zip(&self.rates) {
            if rate > 0.0 {
                dt_s = dt_s.min(r.remaining_ops / rate);
            }
        }
        assert!(dt_s.is_finite(), "no task can make progress");
        let dt_ns = ceil_u64(dt_s * 1e9).clamp(1, max_dt_ns.max(1));
        self.clock.advance_by(dt_ns);
        let now = self.clock.now_ns();
        let actual_dt_s = dt_ns as f64 * 1e-9;
        // Progress every running task; collect completions.
        let mut running = std::mem::take(&mut self.running);
        let mut i = 0;
        running.retain_mut(|r| {
            let rate = self.rates[i];
            i += 1;
            self.ops_progressed += (rate * actual_dt_s).min(r.remaining_ops.max(0.0));
            r.remaining_ops -= rate * actual_dt_s;
            if r.remaining_ops > 1e-6 {
                return true;
            }
            match r.phase {
                Phase::Overhead => {
                    r.phase = Phase::Body;
                    r.remaining_ops = r.body_ops;
                    true
                }
                Phase::Body => {
                    self.lg.emit(&Event::TaskEnd {
                        task: r.id,
                        worker: r.worker,
                        t_ns: now,
                        elapsed_ns: now.saturating_sub(r.started_ns),
                    });
                    self.busy[r.worker] = false;
                    self.tasks_done += 1;
                    self.ops_done += r.body_ops;
                    self.completions.push((r.tag, now));
                    false
                }
            }
        });
        self.running = running;
        true
    }

    /// Runs until both the queue and the running set are empty. Returns a
    /// report covering exactly this call.
    pub fn run_until_idle(&mut self) -> SimRunReport {
        let t0 = self.clock.now_ns();
        let e0 = self.meter.energy_j();
        let tasks0 = self.tasks_done;
        let ops0 = self.ops_done;
        loop {
            self.fill_slots();
            if !self.step_running(u64::MAX) {
                break;
            }
        }
        // Close the power integral at idle.
        self.sample_power();
        SimRunReport {
            elapsed_ns: self.clock.now_ns() - t0,
            energy_j: self.meter.energy_j() - e0,
            tasks: self.tasks_done - tasks0,
            ops: self.ops_done - ops0,
        }
    }

    /// Runs until virtual time `t_end_ns`, leaving unfinished work in
    /// place: queued tasks stay queued and running tasks keep their
    /// progress, resuming on the next call. The clock lands exactly on
    /// `t_end_ns` (idling through any work-free tail), which is what lets
    /// a tenant's machine advance in lockstep with an external
    /// authoritative clock instead of running ahead through its backlog.
    /// Returns a report covering exactly this call. A no-op if the clock
    /// is already at or past `t_end_ns`.
    pub fn run_until(&mut self, t_end_ns: u64) -> SimRunReport {
        let t0 = self.clock.now_ns();
        let e0 = self.meter.energy_j();
        let tasks0 = self.tasks_done;
        let ops0 = self.ops_done;
        // The same steps, not handed back at each completion.
        while self.run_until_event(t_end_ns) {}
        SimRunReport {
            elapsed_ns: self.clock.now_ns() - t0,
            energy_j: self.meter.energy_j() - e0,
            tasks: self.tasks_done - tasks0,
            ops: self.ops_done - ops0,
        }
    }

    /// Advances the simulation by exactly one rate-change boundary: fills
    /// free slots from the queue, then steps to the earliest phase
    /// completion. Returns `false` when there was nothing to run — the
    /// hook an *external* scheduler (one that withholds tasks until their
    /// dependencies resolve, like the DAG driver) uses to interleave its
    /// own release decisions with the fluid model. Completions land in
    /// [`SimRuntime::take_completions`].
    pub fn step_boundary(&mut self) -> bool {
        self.fill_slots();
        self.step_running(u64::MAX)
    }

    /// Runs toward `t_end_ns` but returns at the first task completion,
    /// leaving the clock at the completion instant. This is the lockstep
    /// hook for external dependency tracking: a DAG driver can release
    /// successors the moment their predecessor finishes and still land
    /// exactly on `t_end_ns` (idling through any work-free tail) without
    /// ever running past it — [`SimRuntime::step_boundary`] overshoots an
    /// external deadline, [`SimRuntime::run_until`] batches completions
    /// until the boundary and stalls dependency releases. Returns `true`
    /// if a completion occurred before the boundary.
    pub fn run_until_event(&mut self, t_end_ns: u64) -> bool {
        let baseline = self.completions.len();
        while self.clock.now_ns() < t_end_ns {
            self.fill_slots();
            let budget_ns = t_end_ns - self.clock.now_ns();
            if !self.step_running(budget_ns) {
                // No runnable work: close the integral at this instant
                // (the meter credits the *previous* power over each span,
                // and the last sample was taken before the final task
                // drained), then idle to the boundary.
                self.sample_power();
                self.clock.advance_by(budget_ns);
                self.sample_power();
            }
            if self.completions.len() > baseline {
                return true;
            }
        }
        // Close the power integral at the boundary state — the next
        // caller may idle for a long span.
        self.refresh_rates();
        self.sample_power();
        false
    }

    /// Drains the `(tag, completion time ns)` log of tasks finished since
    /// the last call, in completion order (ties in task-list order); all
    /// of it, even if the iterator is dropped early.
    pub fn take_completions(&mut self) -> std::vec::Drain<'_, (u64, u64)> {
        self.completions.drain(..)
    }

    /// Tasks queued but not yet started plus tasks in progress — the
    /// tenant-side backlog signal.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.running.len()
    }
}

impl std::fmt::Debug for SimRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRuntime")
            .field("cores", &self.spec.cores)
            .field("cap", &self.effective_cap())
            .field("queued", &self.queue.len())
            .field("tasks_done", &self.tasks_done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_metrics::PowerModel;

    fn machine(cores: usize, flops: f64, bw: f64) -> MachineSpec {
        MachineSpec {
            cores,
            core_flops: flops,
            mem_bw: bw,
            power: PowerModel::new(10.0, 2.0),
            sched_overhead_ns: 0,
            stall_intensity: 0.5,
        }
    }

    #[test]
    fn single_compute_task_timing_exact() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        sim.submit(SimTask::new("t", 1e6, 0.0)); // 1e6 ops @ 1e9 ops/s = 1 ms
        let r = sim.run_until_idle();
        assert_eq!(r.tasks, 1);
        assert!(
            (r.elapsed_ns as f64 - 1e6).abs() < 10.0,
            "elapsed {}",
            r.elapsed_ns
        );
    }

    #[test]
    fn compute_bound_scales_linearly() {
        let run_with_cap = |cap: usize| {
            let mut sim = SimRuntime::new(machine(8, 1e9, 1e15));
            sim.set_cap(cap);
            sim.submit_all((0..64).map(|_| SimTask::new("c", 1e7, 0.0)));
            sim.run_until_idle().elapsed_ns as f64
        };
        let t1 = run_with_cap(1);
        let t4 = run_with_cap(4);
        let t8 = run_with_cap(8);
        assert!((t1 / t4 - 4.0).abs() < 0.05, "4-way speedup {}", t1 / t4);
        assert!((t1 / t8 - 8.0).abs() < 0.05, "8-way speedup {}", t1 / t8);
    }

    #[test]
    fn memory_bound_saturates_at_knee() {
        // bpo = 8, bw = 2e9, flops = 1e9 → knee at 0.25 cores... choose
        // bw = 4e9, bpo = 1 → knee at 4 cores.
        let run_with_cap = |cap: usize| {
            let mut sim = SimRuntime::new(machine(16, 1e9, 4e9));
            sim.set_cap(cap);
            sim.submit_all((0..64).map(|_| SimTask::new("m", 1e7, 1e7)));
            sim.run_until_idle().elapsed_ns as f64
        };
        let t2 = run_with_cap(2);
        let t4 = run_with_cap(4);
        let t8 = run_with_cap(8);
        let t16 = run_with_cap(16);
        assert!(t2 / t4 > 1.9, "should still scale to the knee: {}", t2 / t4);
        assert!(
            (t8 / t4 - 1.0).abs() < 0.02,
            "past the knee should be flat: {}",
            t8 / t4
        );
        assert!((t16 / t4 - 1.0).abs() < 0.02);
    }

    #[test]
    fn energy_minimum_below_max_cores_for_memory_bound() {
        // Past the knee, more cores burn power without adding throughput,
        // so energy for fixed work rises with the cap.
        let energy_with_cap = |cap: usize| {
            let mut sim = SimRuntime::new(machine(16, 1e9, 4e9));
            sim.set_cap(cap);
            sim.submit_all((0..64).map(|_| SimTask::new("m", 1e7, 1e7)));
            sim.run_until_idle().energy_j
        };
        let e4 = energy_with_cap(4); // at the knee
        let e16 = energy_with_cap(16); // far past it
        assert!(
            e16 > e4 * 1.2,
            "energy at 16 cores {e16} should exceed at-knee {e4}"
        );
    }

    #[test]
    fn power_never_below_idle() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e9));
        sim.submit_all((0..10).map(|_| SimTask::new("t", 1e6, 1e6)));
        let r = sim.run_until_idle();
        assert!(
            r.mean_power_w() >= 10.0 - 1e-9,
            "mean power {}",
            r.mean_power_w()
        );
    }

    #[test]
    fn cap_changes_take_effect_at_task_boundaries() {
        let mut sim = SimRuntime::new(machine(8, 1e9, 1e15));
        sim.set_cap(8);
        sim.submit_all((0..8).map(|_| SimTask::new("a", 1e6, 0.0)));
        sim.run_until_idle();
        sim.set_cap(2);
        sim.submit_all((0..8).map(|_| SimTask::new("b", 1e6, 0.0)));
        let r = sim.run_until_idle();
        // 8 tasks, 2 at a time, 1 ms each → 4 ms.
        assert!(
            (r.elapsed_ns as f64 - 4e6).abs() < 100.0,
            "elapsed {}",
            r.elapsed_ns
        );
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = || {
            let mut sim = SimRuntime::new(machine(8, 1e9, 4e9));
            sim.submit_all((0..32).map(|i| SimTask::new("t", 1e6 + i as f64 * 1e4, 5e5)));
            let r = sim.run_until_idle();
            (r.elapsed_ns, r.energy_j.to_bits(), r.tasks)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn events_flow_to_profiles() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        sim.submit_all((0..5).map(|_| SimTask::new("profiled", 2e6, 0.0)));
        sim.run_until_idle();
        let prof = sim.lg().profiles().get("profiled").unwrap();
        assert_eq!(prof.count, 5);
        assert!((prof.mean_ns - 2e6).abs() < 10.0, "mean {}", prof.mean_ns);
    }

    #[test]
    fn sched_overhead_penalizes_tiny_tasks() {
        let mk = |overhead: u64| MachineSpec {
            cores: 4,
            core_flops: 1e9,
            mem_bw: 1e15,
            power: PowerModel::new(10.0, 2.0),
            sched_overhead_ns: overhead,
            stall_intensity: 0.5,
        };
        // Same total work, decomposed 1000× finer.
        let run = |ntasks: usize, overhead: u64| {
            let mut sim = SimRuntime::new(mk(overhead));
            sim.set_cap(1);
            let ops_each = 1e9 / ntasks as f64;
            sim.submit_all((0..ntasks).map(|_| SimTask::new("g", ops_each, 0.0)));
            sim.run_until_idle().elapsed_ns
        };
        let coarse = run(10, 2_000);
        let fine = run(10_000, 2_000);
        assert!(
            fine as f64 > coarse as f64 * 1.015,
            "fine-grained should pay overhead: {fine} vs {coarse}"
        );
        let no_overhead_fine = run(10_000, 0);
        assert!((no_overhead_fine as f64 / 1e9 - 1.0).abs() < 0.01);
    }

    #[test]
    fn run_until_event_stops_at_first_completion() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        sim.submit(SimTask {
            tag: 1,
            ..SimTask::new("a", 1e6, 0.0)
        }); // 1 ms
        sim.submit(SimTask {
            tag: 2,
            ..SimTask::new("b", 3e6, 0.0)
        }); // 3 ms
            // First event well before the 10 ms boundary.
        assert!(sim.run_until_event(10_000_000));
        let done: Vec<_> = sim.take_completions().collect();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 1);
        assert!((sim.clock().now_ns() as f64 - 1e6).abs() < 10.0);
        // Second event at ~3 ms.
        assert!(sim.run_until_event(10_000_000));
        assert_eq!(sim.take_completions().as_slice()[0].0, 2);
        // Nothing left: the clock idles exactly to the boundary.
        assert!(!sim.run_until_event(10_000_000));
        assert_eq!(sim.clock().now_ns(), 10_000_000);
    }

    #[test]
    fn run_until_event_never_passes_the_boundary() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        sim.submit(SimTask {
            tag: 7,
            ..SimTask::new("long", 5e6, 0.0)
        }); // 5 ms
            // The task would complete at 5 ms; the boundary is 2 ms.
        assert!(!sim.run_until_event(2_000_000));
        assert_eq!(sim.clock().now_ns(), 2_000_000);
        assert!(sim.take_completions().as_slice().is_empty());
        // Progress was retained: the remainder finishes at ~5 ms.
        assert!(sim.run_until_event(10_000_000));
        assert!((sim.clock().now_ns() as f64 - 5e6).abs() < 10.0);
    }

    #[test]
    fn knob_registered_on_instance() {
        let sim = SimRuntime::new(machine(8, 1e9, 1e9));
        let knobs = sim.lg().knobs();
        let cap = knobs.id("thread_cap").expect("registered");
        assert_eq!(knobs.value_id(cap), Some(8));
        knobs.set_id(cap, 3);
        assert_eq!(sim.cap_knob().get(), 3);
    }

    #[test]
    fn dvfs_slows_compute_proportionally() {
        let run_at = |f: f64| {
            let mut sim = SimRuntime::new(machine(4, 1e9, 1e15));
            sim.set_freq(f);
            sim.submit_all((0..8).map(|_| SimTask::new("c", 1e7, 0.0)));
            sim.run_until_idle().elapsed_ns as f64
        };
        let full = run_at(1.0);
        let half = run_at(0.5);
        assert!((half / full - 2.0).abs() < 0.02, "ratio {}", half / full);
    }

    #[test]
    fn dvfs_free_lunch_on_bandwidth_bound_work() {
        // Past the knee, halving frequency must not reduce throughput but
        // must cut energy — the DVFS counterpart of throttling.
        let run_at = |f: f64| {
            let mut sim = SimRuntime::new(machine(16, 1e9, 2e9)); // knee at 2 cores for bpo 1
            sim.set_cap(8);
            sim.set_freq(f);
            sim.submit_all((0..64).map(|_| SimTask::new("m", 1e7, 1e7)));
            let r = sim.run_until_idle();
            (r.elapsed_ns as f64, r.energy_j)
        };
        let (t_full, e_full) = run_at(1.0);
        let (t_half, e_half) = run_at(0.5);
        assert!(
            (t_half / t_full - 1.0).abs() < 0.05,
            "throughput lost: {} vs {}",
            t_half,
            t_full
        );
        assert!(
            e_half < e_full * 0.85,
            "energy not saved: {e_half} vs {e_full}"
        );
    }

    #[test]
    fn freq_knob_registered_and_bounded() {
        let sim = SimRuntime::new(machine(4, 1e9, 1e9));
        let knobs = sim.lg().knobs();
        let freq = knobs.id("freq_permille").expect("registered");
        assert_eq!(knobs.value_id(freq), Some(1000));
        knobs.set_id(freq, 100); // below min → clamped
        assert_eq!(sim.freq.get(), 200);
        sim.set_freq(0.75);
        assert!((sim.freq_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn report_throughput_math() {
        let mut sim = SimRuntime::new(machine(2, 1e9, 1e15));
        sim.submit_all((0..4).map(|_| SimTask::new("t", 5e8, 0.0)));
        let r = sim.run_until_idle();
        // 4 × 0.5s of work on 2 cores = 1 s; 2e9 ops total.
        assert!((r.elapsed_s() - 1.0).abs() < 1e-3);
        assert!((r.ops_per_sec() - 2e9).abs() < 1e7);
    }

    #[test]
    fn energy_and_power_ride_in_snapshots() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        let energy = sim.lg().introspection().metric_id("sim.energy_j").unwrap();
        let before = sim.lg().snapshot();
        sim.submit_all((0..8).map(|_| SimTask::new("t", 1e8, 0.0)));
        let r = sim.run_until_idle();
        let after = sim.lg().snapshot();
        let de = after.value(energy).unwrap() - before.value(energy).unwrap();
        assert!(
            (de - r.energy_j).abs() < 1e-9,
            "gauge delta {de} vs report {}",
            r.energy_j
        );
        assert!(after.value_by_name("sim.power_w").unwrap() > 0.0);
    }

    #[test]
    fn thread_cap_space_derives_pow2_lattice_from_registry() {
        let sim = SimRuntime::new(machine(8, 1e9, 1e9));
        let space = sim.lg().knobs().space_for(&["thread_cap"]);
        assert_eq!(space.dims()[0].all_values(), &[1, 2, 4, 8]);
    }

    #[test]
    fn step_boundary_drives_tagged_completions() {
        let mut sim = SimRuntime::new(machine(2, 1e9, 1e15));
        // 2 cores, 3 tasks: tags 7 and 8 run first (1 ms, 2 ms), tag 9
        // starts when 7 finishes and ends at 1 ms + 3 ms = 4 ms.
        sim.submit(SimTask {
            tag: 7,
            ..SimTask::new("a", 1e6, 0.0)
        });
        sim.submit(SimTask {
            tag: 8,
            ..SimTask::new("b", 2e6, 0.0)
        });
        sim.submit(SimTask {
            tag: 9,
            ..SimTask::new("c", 3e6, 0.0)
        });
        while sim.step_boundary() {}
        let done: Vec<_> = sim.take_completions().collect();
        let tags: Vec<u64> = done.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, vec![7, 8, 9]);
        assert!((done[0].1 as f64 - 1e6).abs() < 10.0);
        assert!((done[1].1 as f64 - 2e6).abs() < 10.0);
        assert!((done[2].1 as f64 - 4e6).abs() < 10.0);
        assert!(sim.take_completions().as_slice().is_empty(), "log drained");
        assert!(!sim.step_boundary(), "idle runtime reports no work");
    }

    #[test]
    fn run_until_lands_exactly_on_boundary() {
        let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
        // 1 ms of work, stepped to a 0.3 ms boundary: clock must stop
        // exactly there with the task still in flight.
        sim.submit(SimTask::new("t", 1e6, 0.0));
        let r = sim.run_until(300_000);
        assert_eq!(sim.clock().now_ns(), 300_000);
        assert_eq!(r.elapsed_ns, 300_000);
        assert_eq!(r.tasks, 0);
        assert_eq!(sim.backlog(), 1);
        // Idle boundary: no work at all still advances the clock.
        let mut idle = SimRuntime::new(machine(4, 1e9, 1e12));
        idle.run_until(500_000);
        assert_eq!(idle.clock().now_ns(), 500_000);
    }

    #[test]
    fn run_until_conserves_work_and_energy_vs_one_shot() {
        let make = || {
            let mut sim = SimRuntime::new(machine(4, 1e9, 1e12));
            sim.submit_all((0..16).map(|_| SimTask::new("t", 1e6, 0.0)));
            sim
        };
        let mut whole = make();
        let r_whole = whole.run_until_idle();
        let mut stepped = make();
        let mut tasks = 0;
        // Step in uneven slices past the one-shot's finish time.
        for t in [100_000u64, 1_000_000, 1_234_567, 9_000_000] {
            tasks += stepped.run_until(t).tasks;
        }
        assert_eq!(tasks, r_whole.tasks);
        assert_eq!(stepped.backlog(), 0);
        // Same work completed at the same times: energy up to the one-shot
        // finish matches; the stepped run then idles to 9 ms, adding only
        // idle power (10 W) for the remainder.
        let idle_tail_j = (9_000_000 - r_whole.elapsed_ns) as f64 * 1e-9 * 10.0;
        let total = stepped.total_energy_j();
        assert!(
            (total - (r_whole.energy_j + idle_tail_j)).abs() < 1e-6,
            "stepped {total} vs one-shot {} + idle tail {idle_tail_j}",
            r_whole.energy_j
        );
    }

    #[test]
    fn run_until_honors_cap_changes_between_slices() {
        // 8 cores, cap dropped to 2 half-way. Running tasks are never
        // preempted, but everything still queued must trickle out 2-wide.
        let mut sim = SimRuntime::new(machine(8, 1e9, 1e15));
        sim.submit_all((0..16).map(|_| SimTask::new("t", 1e7, 0.0)));
        // First wave of 8 × 10 ms tasks is in flight; 8 more are queued.
        sim.run_until(5_000_000);
        sim.set_cap(2);
        let r = sim.run_until_idle();
        // First wave finishes at 10 ms (5 ms into the tail); the queued 8
        // then run 2 at a time: 4 rounds × 10 ms = 40 ms. Tail = 45 ms.
        assert!(
            (r.elapsed_ns as f64 - 45e6).abs() < 1e4,
            "tail took {} ns",
            r.elapsed_ns
        );
        assert_eq!(sim.total_tasks(), 16);
    }
}
