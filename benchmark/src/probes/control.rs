//! The control side of `lg-core`: knobs, journal, snapshot capture, the
//! policy engine, the arbiter and the tuning session. These move
//! `closedloop` (`op_latency_us_*` through the adapt path, `ops_per_s`
//! through `arbiter_round_us_t64`, `setup_s` through admit) and must not
//! move `taskflood` or `dagdrain`.

use super::Probes;
use crate::trace::{Layer, Recorder, Site, Tracing};
use crate::workloads::closedloop::{Fleet, FleetSites, DECIDE, DETECT, TENANTS, VISIBLE};
use lg_core::arbiter::{arbitrate, TenantObs};
use lg_core::event::Event;
use lg_core::listener::Listener as _;
use lg_core::{
    ActuationJournal, ArbiterConfig, AtomicKnob, ConcurrencyListener, DemandClass, DemandProfile,
    FnPolicy, Introspection, KnobRegistry, KnobSpec, LookingGlass, PolicyDecision, ProfileListener,
    SessionConfig, SessionStep, SloClass, TaskId, TaskNames, ThresholdWatch, TuningSession,
};
use lg_metrics::CounterRegistry;
use lg_tuning::{Dim, HillClimb, Space};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const fn core(name: &'static str) -> Site {
    Site {
        name,
        layer: Layer::Core,
    }
}

static KNOB_GET: Site = core("core.knob_get_id");
static KNOB_SET: Site = core("core.knob_set_id");
static JOURNAL_APPEND: Site = core("core.journal_append");
static CAPTURE_IDLE: Site = core("core.capture_idle");
static CAPTURE_LIGHT: Site = core("core.capture_light");
static CAPTURE_HOT: Site = core("core.capture_hot");
static STEP_IDLE: Site = core("core.policy_step_idle");
static STEP_FIRE: Site = core("core.policy_step_fire");
static KERNEL: Site = core("core.arbitrate_kernel_t64");
static SESSION_EPOCH: Site = core("core.session_epoch");
static INSTANCE_CYCLE: Site = core("core.instance_build_drop");
static PROBE_CYCLE: Site = Site {
    name: "probe.closedloop_cycle",
    layer: Layer::Bench,
};

/// Fleet sizes of the arbiter sweep. It stops at 1 024: building and
/// admitting 4 096 tenants takes ~18 s on a 2-CPU host.
static SWEEP: [(usize, &str, FleetSites); 5] = {
    static A1: Site = core("core.arbiter_admit_t1");
    static R1: Site = core("core.arbiter_round_t1");
    static A16: Site = core("core.arbiter_admit_t16");
    static R16: Site = core("core.arbiter_round_t16");
    static A64: Site = core("core.arbiter_admit_t64");
    static R64: Site = core("core.arbiter_round_t64");
    static A512: Site = core("core.arbiter_admit_t512");
    static R512: Site = core("core.arbiter_round_t512");
    static A1024: Site = core("core.arbiter_admit_t1024");
    static R1024: Site = core("core.arbiter_round_t1024");
    const fn sites(admit: &'static Site, round: &'static Site) -> FleetSites {
        FleetSites { admit, round }
    }
    [
        (1, "core.arbiter_round_us_t1", sites(&A1, &R1)),
        (16, "core.arbiter_round_us_t16", sites(&A16, &R16)),
        (64, "core.arbiter_round_us_t64", sites(&A64, &R64)),
        (512, "core.arbiter_round_us_t512", sites(&A512, &R512)),
        (1024, "core.arbiter_round_us_t1024", sites(&A1024, &R1024)),
    ]
};

pub fn run(p: &mut Probes) {
    knobs_and_journal(p);
    capture(p);
    policy_step(p);
    adapt_path(p);
    arbiter_sweep(p);
    session(p);
    instance_leak(p);
}

fn knobs_and_journal(p: &mut Probes) {
    let knobs = KnobRegistry::new();
    let id = knobs.register(AtomicKnob::new(KnobSpec::new("k", 0, 1_000_000), 0));
    let ns = p.per_call(&KNOB_GET, 31, 20_000, || {
        black_box(knobs.value_id(black_box(id)));
    });
    p.emit("core.knob_get_id_ns", ns);
    let mut v = 0i64;
    let ns = p.per_call(&KNOB_SET, 31, 5_000, || {
        v = (v + 1) % 1_000_000;
        knobs.set_id(id, black_box(v));
    });
    p.emit("core.knob_set_id_ns", ns);

    let journal = ActuationJournal::new(256);
    let (actor, knob) = (journal.intern("probe"), journal.intern("k"));
    let mut t = 0u64;
    let ns = p.per_call(&JOURNAL_APPEND, 31, 20_000, || {
        t += 1;
        black_box(journal.record_interned(t, actor, knob, 0, t as i64, None));
    });
    p.emit("core.journal_append_ns", ns);
}

/// 64 tenants sharing one `Introspection`, each with a counter registry,
/// four profiled tasks and a stamped gauge — the shape the repo's own
/// snapshot bench uses.
struct CaptureFleet {
    profiles: Arc<ProfileListener>,
    intro: Introspection,
    tenants: Vec<CaptureTenant>,
    t_ns: u64,
}

struct CaptureTenant {
    counters: Arc<CounterRegistry>,
    task: TaskId,
    gauge_stamp: Arc<AtomicU64>,
    gauge_value: Arc<AtomicU64>,
}

impl CaptureFleet {
    fn new(n: usize) -> Self {
        let names = TaskNames::new();
        let profiles = Arc::new(ProfileListener::new(names.clone()));
        let intro = Introspection::new(profiles.clone(), Arc::new(ConcurrencyListener::new(256)));
        let mut t_ns = 0;
        let tenants = (0..n)
            .map(|tn| {
                let counters = Arc::new(CounterRegistry::new());
                for c in 0..4 {
                    counters.counter(&format!("tenant{tn}.c{c}")).add(1);
                }
                intro.register_counters(counters.clone());
                let tasks: Vec<TaskId> = (0..4)
                    .map(|i| names.intern(&format!("tenant{tn}.task{i}")))
                    .collect();
                for &task in &tasks {
                    for _ in 0..8 {
                        t_ns += 100;
                        profiles.on_event(&Event::TaskBegin {
                            task,
                            worker: 0,
                            t_ns,
                        });
                        profiles.on_event(&Event::TaskEnd {
                            task,
                            worker: 0,
                            t_ns: t_ns + 50,
                            elapsed_ns: 50,
                        });
                    }
                }
                let gauge_stamp = Arc::new(AtomicU64::new(0));
                let gauge_value = Arc::new(AtomicU64::new(0));
                let read = gauge_value.clone();
                intro.register_gauge_stamped(
                    &format!("tenant{tn}.load"),
                    gauge_stamp.clone(),
                    move || read.load(Ordering::Relaxed) as f64,
                );
                CaptureTenant {
                    counters,
                    task: tasks[0],
                    gauge_stamp,
                    gauge_value,
                }
            })
            .collect();
        Self {
            profiles,
            intro,
            tenants,
            t_ns,
        }
    }

    /// One tenant's activity: a counter add, a task completion, a gauge move.
    fn touch(&mut self, tenant: usize) {
        self.t_ns += 100;
        let t = &self.tenants[tenant];
        t.counters.counter("tenant-hot").add(1);
        self.profiles.on_event(&Event::TaskEnd {
            task: t.task,
            worker: 0,
            t_ns: self.t_ns,
            elapsed_ns: 42,
        });
        t.gauge_value.fetch_add(1, Ordering::Relaxed);
        t.gauge_stamp.fetch_add(1, Ordering::Release);
    }

    fn capture(&mut self) {
        self.t_ns += 1;
        black_box(self.intro.capture(self.t_ns));
    }
}

fn capture(p: &mut Probes) {
    let mut f = CaptureFleet::new(TENANTS);
    f.capture();
    let ns = p.per_call(&CAPTURE_IDLE, 31, 200, || f.capture());
    p.emit("core.capture_idle_us", ns / 1e3);

    // One span per capture: the writes that dirty it stay outside.
    let (merges, skipped) = (f.intro.merges(), f.intro.skipped());
    for i in 0..p.reps(400) {
        f.touch(i % TENANTS);
        let span = p.tr.begin(&CAPTURE_LIGHT, i as u64);
        f.capture();
        p.tr.end(span, 1);
    }
    p.emit(
        "core.capture_light_us",
        p.tr.per_call_ns(&CAPTURE_LIGHT) / 1e3,
    );
    let (merges, skipped) = (f.intro.merges() - merges, f.intro.skipped() - skipped);
    p.emit(
        "core.capture_skip_frac",
        skipped as f64 / (merges + skipped).max(1) as f64,
    );

    for i in 0..p.reps(200) {
        for tn in 0..TENANTS {
            f.touch(tn);
        }
        let span = p.tr.begin(&CAPTURE_HOT, i as u64);
        f.capture();
        p.tr.end(span, 1);
    }
    p.emit("core.capture_hot_us", p.tr.per_call_ns(&CAPTURE_HOT) / 1e3);
}

fn policy_step(p: &mut Probes) {
    const DELTA: u64 = 1_000;
    let lg = LookingGlass::builder().build();
    let counters = Arc::new(CounterRegistry::new());
    lg.introspection().register_counters(counters.clone());
    let signal = counters.counter("signal");
    let gain = lg
        .knobs()
        .register(AtomicKnob::new(KnobSpec::new("gain", 0, 1 << 40), 0));
    let mut fires = 0i64;
    lg.policy_engine().register_threshold(
        FnPolicy::new("react", move |_, _, _| {
            fires += 1;
            PolicyDecision::set(gain, fires)
        }),
        ThresholdWatch::counter_delta_armed(&signal, DELTA),
    );
    let engine = lg.policy_engine().clone();
    let mut t = 0u64;
    // Armed and quiet: the step is the engine's fast path.
    let ns = p.per_call(&STEP_IDLE, 31, 20_000, || {
        t += 1;
        black_box(engine.step(t));
    });
    p.emit("core.policy_step_idle_ns", ns);

    // Fired: scan, capture, evaluate, clamp, write, journal.
    for i in 0..p.reps(500) {
        signal.add(DELTA);
        t += 1;
        let span = p.tr.begin(&STEP_FIRE, i as u64);
        let evaluated = engine.step(t);
        p.tr.end(span, 1);
        assert_eq!(evaluated, 1, "the armed watch must fire every crossing");
    }
    p.emit(
        "core.policy_step_fire_us",
        p.tr.per_call_ns(&STEP_FIRE) / 1e3,
    );
}

/// A short `closedloop`: the adaptation latency decomposed at the policy
/// closure's entry and `step`'s return, and the arbiter's write rate
/// under the workload's own mix of adaptations. Traced and untraced
/// cycles alternate one for one on the same fleet, so the three terms
/// can be held against an untraced latency taken under the same
/// conditions (tracing adds two clock reads to the path).
fn adapt_path(p: &mut Probes) {
    let mut untraced = crate::trace::NoTrace;
    let mut fleet = Fleet::build(TENANTS, p.seed, FleetSites::WORKLOAD, &mut untraced);
    for i in 0..500 {
        fleet.cycle(&mut untraced, i);
    }
    let (writes, rounds) = (fleet.knob_writes, fleet.rounds);
    let mut untraced_ns = Vec::new();
    for i in 0..p.reps(3_000) as u64 {
        let root = p.tr.begin(&PROBE_CYCLE, i);
        let (ok, _) = fleet.cycle(p.tr, i);
        p.tr.end(root, 1);
        assert!(ok, "closedloop probe cycle failed its checks");
        untraced_ns.push(fleet.cycle(&mut untraced, i).1 as f64);
    }
    let mut sum_us = 0.0;
    for (name, site) in [
        ("core.adapt_detect_us", &DETECT),
        ("core.adapt_decide_us", &DECIDE),
        ("core.adapt_visible_us", &VISIBLE),
    ] {
        let us = p.tr.per_call_ns(site) / 1e3;
        sum_us += us;
        p.emit(name, us);
    }
    let untraced_us = crate::stats::median(&untraced_ns) / 1e3;
    p.notes.push(format!(
        "adaptation latency: detect + decide + visible = {sum_us:.3} us, against {untraced_us:.3} us \
         untraced p50 on the same fleet ({:+.1}%)",
        (sum_us / untraced_us - 1.0) * 100.0
    ));
    p.emit(
        "core.arbiter_writes_per_round",
        (fleet.knob_writes - writes) as f64 / (fleet.rounds - rounds) as f64,
    );
}

fn arbiter_sweep(p: &mut Probes) {
    for (n, metric, sites) in SWEEP {
        let mut fleet = Fleet::build(n, p.seed, sites, p.tr);
        if n == 64 || n == 1024 {
            // Per tenant, over the whole build-up from an empty arbiter.
            let name = if n == 64 {
                "core.arbiter_admit_us_t64"
            } else {
                "core.arbiter_admit_us_t1024"
            };
            p.emit(name, mean_per_call_ns(p.tr, sites.admit) / 1e3);
        }
        // Rounds get dearer with the fleet; keep each size near 50 ms.
        let rounds = p.reps((3_000 / n).clamp(30, 600));
        let mut scratch = crate::trace::NoTrace;
        for i in 0..20 {
            fleet.light_round(&mut scratch, i);
        }
        for i in 0..rounds as u64 {
            assert!(
                fleet.light_round(p.tr, i),
                "arbiter oversubscribed its budget"
            );
        }
        p.emit(metric, p.tr.per_call_ns(sites.round) / 1e3);
    }

    let config = ArbiterConfig::new(4 * TENANTS as i64);
    let obs: Vec<TenantObs> = (0..TENANTS)
        .map(|i| TenantObs {
            weight: 1,
            slo: SloClass::Batch,
            min: 1,
            max: 8,
            demand: DemandProfile::saturating(DemandClass::Batch, 0.0, 2.0 + (i % 5) as f64, 4),
            power_w: 0.0,
            quarantined: false,
        })
        .collect();
    let ns = p.per_call(&KERNEL, 31, 50, || {
        black_box(arbitrate(&config, black_box(&obs)));
    });
    p.emit("core.arbitrate_kernel_us_t64", ns / 1e3);
}

/// Total time in a site's spans over their calls (the mean, where the
/// per-call cost grows over the run and a median would hide the tail).
fn mean_per_call_ns(tr: &Recorder, site: &'static Site) -> f64 {
    let (total_ns, calls) = tr.totals(site);
    total_ns as f64 / calls.max(1) as f64
}

fn session(p: &mut Probes) {
    let knobs = Arc::new(KnobRegistry::new());
    knobs.register(AtomicKnob::new(KnobSpec::new("x", 0, 1_000), 0));
    let fresh = |knobs: &Arc<KnobRegistry>| {
        TuningSession::new(
            SessionConfig::single("x", 0, 0),
            Box::new(HillClimb::new(Space::new(vec![Dim::range(
                "x", 0, 1_000, 1,
            )]))),
            knobs.clone(),
        )
    };
    let mut session = fresh(&knobs);
    let mut t = 0u64;
    let ns = p.per_call(&SESSION_EPOCH, 31, 200, || {
        t += 1;
        match session.next(t) {
            SessionStep::Measure { point, .. } => {
                let d = (point[0] - 700) as f64;
                session.complete(d * d);
            }
            SessionStep::Done { .. } => session = fresh(&knobs),
        }
    });
    p.emit("core.session_epoch_ns", ns);
}

/// Live heap left behind by a stock instance that was built, used once
/// and dropped. Not zero today: the policy engine and the introspection
/// facade hold each other (see `workloads::release_instance`).
fn instance_leak(p: &mut Probes) {
    const INSTANCES: u32 = 200;
    let before = crate::alloc::live_bytes();
    let span = p.tr.begin(&INSTANCE_CYCLE, 0);
    for _ in 0..INSTANCES {
        let lg = LookingGlass::builder().build();
        drop(lg.timer("probe"));
        black_box(lg.snapshot());
    }
    p.tr.end(span, INSTANCES);
    let leaked = crate::alloc::live_bytes() - before;
    p.emit(
        "core.instance_leak_kb",
        leaked as f64 / INSTANCES as f64 / 1024.0,
    );
}
