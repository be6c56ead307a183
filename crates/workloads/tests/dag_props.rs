//! Property tests for the DAG workload matrix (PR 9 satellite).
//!
//! Three families of invariant, over randomly drawn patterns, shapes,
//! and seeds:
//!
//! 1. **Generator** — every generated DAG is acyclic with edges that
//!    only cross adjacent levels, level populations within the declared
//!    width/depth, a coherent CSR transpose, and strictly decreasing
//!    heights along edges ([`DagSpec::validate`] is the oracle).
//! 2. **Execution order** — running any spec on a real pool respects
//!    every dependency edge (predecessor's end stamp precedes consumer's
//!    begin stamp) and runs each node exactly once, for any seed,
//!    pattern, and worker count.
//! 3. **Exactly-once under faults** — with `FaultConfig` panic injection
//!    replacing random task bodies with panics, no node ever runs twice,
//!    surviving nodes still respect dependency order, the scope still
//!    joins (every node released), and the panic is rethrown.

use lg_core::LookingGlass;
use lg_runtime::{FaultConfig, PoolConfig, ThreadPool};
use lg_workloads::dag::{generate, run_on_pool_traced, CostModel, DagConfig, DagPattern, DagTrace};
use proptest::prelude::*;
use std::sync::atomic::Ordering;

fn pattern_from(idx: usize) -> DagPattern {
    DagPattern::ALL[idx % DagPattern::ALL.len()]
}

fn spec_for(pattern: DagPattern, width: usize, depth: usize, seed: u64) -> lg_workloads::DagSpec {
    generate(
        &DagConfig {
            pattern,
            width,
            depth,
            grain_ops: 1e4,
            grain_spread: 3.0,
            comm_bytes: 32.0,
            seed,
        },
        &CostModel::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Generator invariants hold for every pattern × shape × seed.
    #[test]
    fn generated_dags_are_valid(
        pat in 0usize..7,
        width in 1usize..24,
        depth in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let spec = spec_for(pattern_from(pat), width, depth, seed);
        spec.validate();
        prop_assert!(spec.nodes() >= 1);
        prop_assert!(spec.cp_ns <= spec.work_ns);
    }

    /// Real execution respects every dependency and runs each node
    /// exactly once, for any pattern/seed/worker count.
    #[test]
    fn pool_execution_respects_dependencies(
        pat in 0usize..7,
        width in 1usize..12,
        depth in 1usize..10,
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let spec = spec_for(pattern_from(pat), width, depth, seed);
        let pool = ThreadPool::new(
            LookingGlass::builder().build(),
            PoolConfig::with_workers(workers),
        );
        let trace = DagTrace::new(spec.nodes());
        let r = run_on_pool_traced(&pool, &spec, 1e-3, &trace);
        prop_assert_eq!(r.nodes, spec.nodes() as u64);
        prop_assert_eq!(r.checksum, lg_workloads::dag::expected_checksum(&spec, 1e-3));
        trace.assert_valid_execution(&spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Under injected panics: every node is *released* (the scope joins
    /// and rethrows rather than hanging), no node runs more than once,
    /// and nodes that did run still respect dependency order. Panic
    /// injection replaces a task's body, so a panicked node's trace slot
    /// stays zero — its successors run anyway, which is the documented
    /// release-on-drop contract.
    #[test]
    fn exactly_once_under_panic_injection(
        pat in 0usize..7,
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let spec = spec_for(pattern_from(pat), 8, 8, seed);
        let pool = ThreadPool::new(
            LookingGlass::builder().build(),
            PoolConfig {
                workers,
                faults: Some(FaultConfig::seeded(seed).panic_prob(0.2)),
            },
        );
        let trace = DagTrace::new(spec.nodes());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on_pool_traced(&pool, &spec, 1e-3, &trace)
        }));
        let mut ran = 0u64;
        for node in 0..spec.nodes() {
            let runs = trace.runs[node].load(Ordering::Relaxed);
            prop_assert!(runs <= 1, "node {} ran {} times", node, runs);
            ran += runs;
            if runs == 1 {
                let b = trace.begin_seq[node].load(Ordering::Relaxed);
                for &p in spec.preds_of(node) {
                    let pe = trace.end_seq[p as usize].load(Ordering::Relaxed);
                    let p_ran = trace.runs[p as usize].load(Ordering::Relaxed) == 1;
                    prop_assert!(
                        !p_ran || pe < b,
                        "node {} began before predecessor {} ended", node, p
                    );
                }
            }
        }
        match outcome {
            Ok(r) => {
                // No fault fired this draw: a complete, checksum-exact run.
                prop_assert_eq!(ran, spec.nodes() as u64);
                prop_assert_eq!(
                    r.checksum,
                    lg_workloads::dag::expected_checksum(&spec, 1e-3)
                );
            }
            Err(_) => {
                // At least one node's body was replaced by a panic; the
                // scope still joined (we got here) after releasing every
                // successor.
                prop_assert!(ran < spec.nodes() as u64);
            }
        }
    }
}
