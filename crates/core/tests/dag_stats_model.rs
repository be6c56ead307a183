//! `DagStats` against a sequential model.
//!
//! A random schedule of releases and completions (random heights, each
//! completion retiring a random live node) is played by 1–4 threads, each
//! pinned to its own stripe and taking its turn at a barrier, so the
//! schedule's order is exact while its writes land on different stripes.
//! A node released on one stripe is often completed on another, which
//! drives that stripe's cells negative: only the fold over the touched
//! stripes balances. After every step the acting thread reads the three
//! gauges; they must equal those of a plain `[i64; 48]` live histogram
//! updated in schedule order, and so must the final reads at quiescence.
//! The model's slack is the median over the live frontier: each live
//! node's slack (the top live bucket's edge minus its own) goes into a
//! slack histogram built afresh from the live one at every read.

use lg_core::DagStats;
use lg_metrics::stripe::set_thread_index;
use proptest::prelude::*;
use std::sync::Barrier;

const BUCKETS: usize = 48;

/// One scheduled call: which thread makes it, and with what height.
#[derive(Clone, Copy, Debug)]
enum Step {
    Release { thread: usize, height: u64 },
    Complete { thread: usize, height: u64 },
}

fn bucket(height_ns: u64) -> usize {
    ((u64::BITS - height_ns.leading_zeros()) as usize).min(BUCKETS - 1)
}

fn edge(b: usize) -> f64 {
    (1u64 << b) as f64
}

/// The reference: the three gauges recomputed from plain arrays.
struct Model {
    ready: i64,
    live: [i64; BUCKETS],
}

/// `(critical_path_ns, ready_width, slack_p50_ns)`.
type Gauges = (f64, f64, f64);

impl Model {
    fn new() -> Self {
        Self {
            ready: 0,
            live: [0; BUCKETS],
        }
    }

    fn critical_path(&self) -> f64 {
        self.live.iter().rposition(|&n| n > 0).map_or(0.0, edge)
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Release { height, .. } => {
                self.ready += 1;
                self.live[bucket(height)] += 1;
            }
            Step::Complete { height, .. } => {
                self.ready -= 1;
                self.live[bucket(height)] -= 1;
            }
        }
    }

    fn gauges(&self) -> Gauges {
        let cp = self.critical_path();
        let mut slack = [0i64; BUCKETS];
        for (b, &n) in self.live.iter().enumerate() {
            if n > 0 {
                slack[bucket((cp - edge(b)) as u64)] += n;
            }
        }
        let total: i64 = slack.iter().sum();
        let mut seen = 0;
        let p50 = (total > 0)
            .then(|| {
                slack.iter().position(|&c| {
                    seen += c;
                    seen * 2 >= total
                })
            })
            .flatten()
            .map_or(0.0, edge);
        (cp, self.ready.max(0) as f64, p50)
    }
}

fn read(stats: &DagStats) -> Gauges {
    (
        stats.critical_path_ns(),
        stats.ready_width(),
        stats.slack_p50_ns(),
    )
}

/// Turns raw draws into a valid schedule: a completion retires one of
/// the nodes still live (a release when none is).
fn schedule(threads: usize, draws: &[(usize, u8, u32, u64)]) -> Vec<Step> {
    let mut live: Vec<u64> = Vec::new();
    draws
        .iter()
        .map(|&(t, kind, bits, r)| {
            let thread = t % threads;
            if kind == 0 && !live.is_empty() {
                let height = live.swap_remove(r as usize % live.len());
                Step::Complete { thread, height }
            } else {
                // Heights of 0..=40 random bits: every bucket up to 40.
                let height = if bits == 0 { 0 } else { r >> (64 - bits) };
                live.push(height);
                Step::Release { thread, height }
            }
        })
        .collect()
}

/// Plays `steps` on `threads` pinned threads in schedule order; returns
/// the gauges each step's thread read right after its call.
fn play(stats: &DagStats, threads: usize, steps: &[Step]) -> Vec<Gauges> {
    let turn = Barrier::new(threads);
    let mut seen = vec![(0.0, 0.0, 0.0); steps.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let turn = &turn;
                s.spawn(move || {
                    // Stripes 1, 9, 17, 25: none a neighbour of another.
                    set_thread_index(1 + 8 * me);
                    let mut mine = Vec::new();
                    for (i, &step) in steps.iter().enumerate() {
                        match step {
                            Step::Release { thread, height } if thread == me => {
                                stats.on_release(height);
                                mine.push((i, read(stats)));
                            }
                            Step::Complete { thread, height } if thread == me => {
                                stats.on_complete(height);
                                mine.push((i, read(stats)));
                            }
                            _ => {}
                        }
                        // Nothing may assert before the barrier: a thread
                        // that panicked here would leave the rest waiting.
                        turn.wait();
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, g) in h.join().expect("stepping threads do not panic") {
                seen[i] = g;
            }
        }
    });
    seen
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dag_stats_match_a_sequential_model(
        threads in 1usize..=4,
        draws in proptest::collection::vec((0usize..4, 0u8..3, 0u32..=40, 0u64..u64::MAX), 1..120),
    ) {
        let steps = schedule(threads, &draws);
        let stats = DagStats::new();
        let seen = play(&stats, threads, &steps);
        let mut model = Model::new();
        for (i, &step) in steps.iter().enumerate() {
            model.apply(step);
            prop_assert_eq!(seen[i], model.gauges(), "after step {} ({:?})", i, step);
        }
        prop_assert_eq!(read(&stats), model.gauges(), "at quiescence");
    }
}
