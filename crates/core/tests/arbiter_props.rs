//! Property tests for the multi-tenant arbiter: the machine budget is
//! an invariant, not a tendency.
//!
//! Five safety arguments the tenancy experiment (fig10) leans on:
//!
//! 1. **Budget** — under any interleaving of admits, evicts, manual
//!    quarantines, and control rounds — with tenants publishing scalar
//!    pressure and native demand profiles side by side — the sum of
//!    live allocations never exceeds the machine and every tenant stays
//!    inside its `[min, max]` band.
//! 2. **Fair share** — with no floor or ceiling binding, the pure
//!    [`arbitrate`] kernel splits the budget proportionally to weights
//!    (exact up to largest-remainder rounding).
//! 3. **Quarantine/floor preservation** — a quarantined tenant is
//!    pinned to its floor by the kernel for any demand mix; no profile
//!    (wide, narrow, pressured) lets it climb back early.
//! 4. **Legacy equivalence** — when every tenant publishes via
//!    [`DemandProfile::from_pressure`], the demand-aware kernel is
//!    bit-for-bit the pre-`DemandProfile` scalar allocator (re-derived
//!    here as an oracle): the migration changed the signal type, not
//!    the arbitration of legacy signals.
//! 5. **Replay** — folding any tenant's actuation journal (and the
//!    governor's own) reproduces the live registry values: the journal
//!    is a faithful history of who moved which knob where.

use lg_core::arbiter::{arbitrate, replay_final_values, TenantObs};
use lg_core::knob::{AtomicKnob, KnobSpec};
use lg_core::{
    Arbiter, ArbiterConfig, Clock, DemandClass, DemandProfile, LookingGlass, SloClass, TenantId,
    TenantSpec, VirtualClock,
};
use proptest::prelude::*;
use std::sync::Arc;

const TOTAL: i64 = 32;

/// One step of a random governor schedule.
#[derive(Clone, Debug)]
enum Op {
    /// Admit a tenant with the given weight/floor/ceiling/class. A
    /// `width` of `Some(w)` installs a native demand probe publishing a
    /// saturating profile of that useful width; `None` admits a legacy
    /// scalar tenant.
    Admit {
        weight: u32,
        min: i64,
        max: i64,
        latency: bool,
        width: Option<i64>,
    },
    /// Evict the `i`-th live tenant (mod live count).
    Evict(usize),
    /// Manually quarantine the `i`-th live tenant for `rounds`.
    Quarantine(usize, u64),
    /// Run one control round.
    Round,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The offline proptest shim has no `prop_oneof!`; draw a flat tuple
    // with a kind selector and map it to the variant.
    (
        (0u8..4, 1u32..8, 1i64..5),
        (0usize..6, 1u64..4, 0u8..2),
        0i64..9,
    )
        .prop_map(
            |((kind, weight, min), (i, rounds, lat), width)| match kind {
                0 => Op::Admit {
                    weight,
                    min,
                    max: min + 3 + (weight as i64 * 3) % 24,
                    latency: lat == 1,
                    width: (width > 0).then_some(width),
                },
                1 => Op::Evict(i),
                2 => Op::Quarantine(i, rounds),
                _ => Op::Round,
            },
        )
}

struct Live {
    id: TenantId,
    lg: Arc<LookingGlass>,
    min: i64,
    max: i64,
}

fn tenant_lg(clock: &Arc<VirtualClock>, max: i64) -> Arc<LookingGlass> {
    let lg = LookingGlass::builder().clock(clock.clone()).build();
    lg.knobs().register(AtomicKnob::new(
        KnobSpec::new("thread_cap", 1, max).with_unit("workers"),
        max,
    ));
    lg
}

/// Drives a random schedule and returns the arbiter plus the live fleet
/// (shared by the budget and replay properties).
fn drive(ops: &[Op]) -> (Arc<VirtualClock>, Arc<Arbiter>, Vec<Live>) {
    let clock = Arc::new(VirtualClock::new());
    let gov = LookingGlass::builder().clock(clock.clone()).build();
    let arb = Arbiter::with_instance(ArbiterConfig::new(TOTAL), gov);
    let mut live: Vec<Live> = Vec::new();
    let mut name = 0usize;
    for op in ops {
        clock.advance_by(1_000_000);
        match op {
            Op::Admit {
                weight,
                min,
                max,
                latency,
                width,
            } => {
                let floors: i64 = live.iter().map(|t| t.min).sum();
                if floors + min > TOTAL {
                    continue; // would oversubscribe — admit() rejects this by contract
                }
                let lg = tenant_lg(&clock, *max);
                name += 1;
                let slo = if *latency {
                    SloClass::Latency
                } else {
                    SloClass::Batch
                };
                let mut spec = TenantSpec::new(format!("t{name}"), slo, *max)
                    .with_min_threads(*min)
                    .with_weight(*weight);
                if let Some(w) = width {
                    let w = *w as f64;
                    spec = spec.with_demand_probe(move |_snap, alloc| {
                        DemandProfile::saturating(DemandClass::Batch, 0.0, w, alloc)
                    });
                }
                let id = arb.admit(lg.clone(), spec, "thread_cap");
                live.push(Live {
                    id,
                    lg,
                    min: *min,
                    max: *max,
                });
            }
            Op::Evict(i) => {
                if !live.is_empty() {
                    let t = live.remove(i % live.len());
                    assert!(arb.evict(t.id));
                }
            }
            Op::Quarantine(i, rounds) => {
                if !live.is_empty() {
                    let t = &live[i % live.len()];
                    assert!(arb.quarantine(t.id, *rounds));
                }
            }
            Op::Round => {
                arb.control_round(clock.now_ns());
            }
        }
        // The budget invariant must hold after *every* op, not only at
        // quiescence: admit and evict both rebalance before returning.
        let total: i64 = live.iter().map(|t| arb.allocation(t.id).unwrap()).sum();
        assert!(
            total <= TOTAL,
            "budget exceeded: {total} > {TOTAL} after {op:?}"
        );
        for t in &live {
            let a = arb.allocation(t.id).unwrap();
            assert!(
                a >= t.min && a <= t.max,
                "allocation {a} outside [{}, {}]",
                t.min,
                t.max
            );
        }
    }
    (clock, arb, live)
}

/// One random kernel-level tenant: `((weight, min, extra_max, latency),
/// (pressure_tenths, quarantined, power_tenths, width))` — nested pairs
/// because the offline proptest shim tops out at 6-tuples.
type ObsDraw = ((u32, i64, i64, u8), (u32, u8, u32, i64));

fn obs_draw() -> impl Strategy<Value = Vec<ObsDraw>> {
    proptest::collection::vec(
        (
            (1u32..12, 0i64..4, 1i64..28, 0u8..2),
            (0u32..30, 0u8..2, 0u32..600, 0i64..40),
        ),
        1..8,
    )
}

fn draw_min(d: &ObsDraw) -> i64 {
    d.0 .1
}

fn draw_width(d: &ObsDraw) -> i64 {
    d.1 .3
}

/// Builds a legacy scalar observation (demand via `from_pressure`).
fn scalar_obs(d: &ObsDraw) -> TenantObs {
    let &((weight, min, extra, latency), (p10, quar, pw10, _)) = d;
    TenantObs {
        weight,
        slo: if latency == 1 {
            SloClass::Latency
        } else {
            SloClass::Batch
        },
        min,
        max: (min + extra).min(TOTAL),
        demand: DemandProfile::from_pressure(p10 as f64 / 10.0),
        power_w: pw10 as f64 / 10.0,
        quarantined: quar == 1,
    }
}

/// The pre-`DemandProfile` allocator, re-derived as an oracle: weighted
/// water-fill against static `[min, max]` bands (no useful-width caps),
/// then latency-over-batch preemption gated on the scalar pressure —
/// and no marginal-utility pass, which did not exist.
fn legacy_arbitrate(config: &ArbiterConfig, obs: &[TenantObs]) -> Vec<i64> {
    if obs.is_empty() {
        return Vec::new();
    }
    let floors: i64 = obs.iter().map(|o| o.min).sum();
    let mut total = config.total_threads;
    if let Some(cap) = config.power_cap_w {
        let draw: f64 = obs.iter().map(|o| o.power_w).sum();
        if draw > cap && draw > 0.0 {
            total = ((total as f64) * cap / draw).floor() as i64;
        }
    }
    let total = total.clamp(floors, config.total_threads);

    let mut alloc: Vec<Option<i64>> = obs.iter().map(|o| o.quarantined.then_some(o.min)).collect();
    let mut budget = total - alloc.iter().flatten().sum::<i64>();
    loop {
        let active: Vec<usize> = (0..obs.len()).filter(|&i| alloc[i].is_none()).collect();
        if active.is_empty() || budget <= 0 {
            for i in active {
                alloc[i] = Some(obs[i].min);
            }
            break;
        }
        let wsum: f64 = active.iter().map(|&i| obs[i].weight as f64).sum();
        let shares: Vec<(usize, f64)> = active
            .iter()
            .map(|&i| (i, budget as f64 * obs[i].weight as f64 / wsum))
            .collect();
        let under: Vec<usize> = shares
            .iter()
            .filter(|&&(i, s)| s < obs[i].min as f64)
            .map(|&(i, _)| i)
            .collect();
        if !under.is_empty() {
            for i in under {
                alloc[i] = Some(obs[i].min);
                budget -= obs[i].min;
            }
            continue;
        }
        let over: Vec<usize> = shares
            .iter()
            .filter(|&&(i, s)| s >= obs[i].max as f64)
            .map(|&(i, _)| i)
            .collect();
        if !over.is_empty() {
            for i in over {
                alloc[i] = Some(obs[i].max);
                budget -= obs[i].max;
            }
            continue;
        }
        let mut rem: Vec<(usize, f64)> = Vec::with_capacity(active.len());
        let mut used = 0i64;
        for &i in &active {
            let share = budget as f64 * obs[i].weight as f64 / wsum;
            let base = share.floor() as i64;
            alloc[i] = Some(base.clamp(obs[i].min, obs[i].max));
            used += alloc[i].unwrap();
            rem.push((i, share - share.floor()));
        }
        rem.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let mut leftover = budget - used;
        for (i, _) in rem {
            if leftover <= 0 {
                break;
            }
            let a = alloc[i].unwrap();
            if a < obs[i].max {
                alloc[i] = Some(a + 1);
                leftover -= 1;
            }
        }
        break;
    }
    let mut alloc: Vec<i64> = alloc.into_iter().map(|a| a.unwrap()).collect();

    if config.preemption {
        let mut donors: Vec<usize> = (0..obs.len())
            .filter(|&i| obs[i].slo == SloClass::Batch && !obs[i].quarantined)
            .collect();
        donors.sort_by_key(|&i| (obs[i].weight, i));
        for i in 0..obs.len() {
            if obs[i].slo != SloClass::Latency || obs[i].quarantined || obs[i].demand.pressure < 1.0
            {
                continue;
            }
            let mut need = obs[i].max - alloc[i];
            for &d in &donors {
                if need <= 0 {
                    break;
                }
                let surplus = alloc[d] - obs[d].min;
                let take = surplus.min(need);
                if take > 0 {
                    alloc[d] -= take;
                    alloc[i] += take;
                    need -= take;
                }
            }
        }
    }
    alloc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Property 1: Σ allocations ≤ machine and min ≤ alloc ≤ max after
    /// every admit/evict/quarantine/round, for any interleaving of
    /// scalar-pressure and native-profile tenants.
    #[test]
    fn thread_budget_is_invariant_under_interleaving(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        drive(&ops);
    }

    /// Property 2: with no floor or ceiling binding, the arbitration
    /// kernel is weighted-proportional: every allocation is the floor
    /// or ceiling of its ideal share and the budget is spent exactly.
    #[test]
    fn fair_share_is_proportional_to_weights(
        weights in proptest::collection::vec(1u32..20, 1..8),
    ) {
        let cfg = ArbiterConfig::new(TOTAL);
        let obs: Vec<TenantObs> = weights
            .iter()
            .map(|&w| TenantObs {
                weight: w,
                slo: SloClass::Batch,
                min: 0,
                max: TOTAL,
                demand: DemandProfile::default(),
                power_w: 0.0,
                quarantined: false,
            })
            .collect();
        let alloc = arbitrate(&cfg, &obs);
        prop_assert_eq!(alloc.iter().sum::<i64>(), TOTAL);
        let wsum: f64 = weights.iter().map(|&w| w as f64).sum();
        for (a, &w) in alloc.iter().zip(&weights) {
            let ideal = TOTAL as f64 * w as f64 / wsum;
            prop_assert!(
                (*a as f64 - ideal).abs() < 1.0,
                "alloc {} not within rounding of ideal {:.3}",
                a,
                ideal
            );
        }
    }

    /// Property 3: the kernel pins quarantined tenants to their floor
    /// and respects every `[min, effective_cap]` band for any demand
    /// mix — scalar, saturating-width, pressured, or quarantined.
    #[test]
    fn quarantine_and_floors_hold_for_any_demand_mix(
        draws in obs_draw(),
        powered in 0u8..2,
    ) {
        // Infeasible floors are rejected by admit() before the kernel
        // ever sees them, so only feasible draws are exercised.
        if draws.iter().map(draw_min).sum::<i64>() <= TOTAL {
            let mut cfg = ArbiterConfig::new(TOTAL);
            if powered == 1 {
                cfg = cfg.with_power_cap_w(100.0);
            }
            let obs: Vec<TenantObs> = draws
                .iter()
                .map(|d| {
                    let mut o = scalar_obs(d);
                    if draw_width(d) > 0 {
                        // Native profile: saturating over a declared width.
                        o.demand = DemandProfile::saturating(
                            DemandClass::Dag,
                            o.demand.pressure,
                            draw_width(d) as f64,
                            o.min,
                        );
                    }
                    o
                })
                .collect();
            let alloc = arbitrate(&cfg, &obs);
            prop_assert!(alloc.iter().sum::<i64>() <= TOTAL);
            for (a, o) in alloc.iter().zip(&obs) {
                prop_assert!(
                    *a >= o.min && *a <= o.effective_cap(),
                    "alloc {} outside [{}, {}]",
                    a,
                    o.min,
                    o.effective_cap()
                );
                if o.quarantined {
                    prop_assert_eq!(*a, o.min, "quarantined tenant climbed off its floor");
                }
            }
        }
    }

    /// Property 4: when every profile comes from
    /// [`DemandProfile::from_pressure`], the demand-aware kernel equals
    /// the legacy scalar allocator exactly — for any weights, bands,
    /// pressures, quarantines, and power draws, with and without the
    /// power envelope.
    #[test]
    fn demand_aware_equals_pressure_only_on_legacy_profiles(
        draws in obs_draw(),
        powered in 0u8..2,
    ) {
        if draws.iter().map(draw_min).sum::<i64>() <= TOTAL {
            let mut cfg = ArbiterConfig::new(TOTAL);
            if powered == 1 {
                cfg = cfg.with_power_cap_w(100.0);
            }
            let obs: Vec<TenantObs> = draws.iter().map(scalar_obs).collect();
            prop_assert_eq!(arbitrate(&cfg, &obs), legacy_arbitrate(&cfg, &obs));
        }
    }

    /// Property 5: after any schedule, replaying each live tenant's
    /// journal (and the governor's) lands on the live registry values.
    #[test]
    fn journal_replay_reproduces_final_knob_state(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let (_clock, arb, live) = drive(&ops);
        for t in &live {
            let knobs = t.lg.knobs();
            for (knob, v) in replay_final_values(knobs.journal()) {
                prop_assert_eq!(
                    knobs.id(&knob).and_then(|id| knobs.value_id(id)),
                    Some(v),
                    "tenant journal diverged on '{}'",
                    knob
                );
            }
        }
        // Governor journal: mirrors of evicted tenants are deregistered,
        // so only still-registered knobs are checked.
        let knobs = arb.lg().knobs();
        for (knob, v) in replay_final_values(knobs.journal()) {
            if let Some(liv) = knobs.id(&knob).and_then(|id| knobs.value_id(id)) {
                prop_assert_eq!(liv, v, "governor journal diverged on '{}'", knob);
            }
        }
    }
}
