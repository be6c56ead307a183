//! Fig 5 — asynchronous sampling overhead vs sampling period.
//!
//! The async half of observation is a background sampler polling counter
//! sources. Fast sampling gives policies fresh data but steals cycles
//! from the application — on this single-core host, very visibly.
//! Expected shape: application slowdown falls monotonically as the period
//! grows, with a knee around 1 ms after which overhead is noise.

use crate::report::{fmt_f, write_table, Table};
use lg_metrics::{procfs, FnSource, Sampled, Sampler, SamplerConfig};
use lg_runtime::{PoolConfig, ThreadPool};
use lg_workloads::ComputeKernel;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload_time(pool: &ThreadPool, n: usize, iters: usize) -> f64 {
    let mut k = ComputeKernel::new(n, iters);
    let t0 = Instant::now();
    k.run_parallel(pool, n / 16 + 1);
    std::hint::black_box(k.checksum());
    t0.elapsed().as_secs_f64()
}

fn sources() -> Vec<Arc<dyn Sampled>> {
    vec![
        Arc::new(procfs::CpuUtilSource::new()),
        Arc::new(procfs::ProcessSource),
        Arc::new(FnSource::new("synthetic.a", || 1.0)),
        Arc::new(FnSource::new("synthetic.b", || 2.0)),
    ]
}

/// Runs the experiment.
pub fn run(fast: bool, out: &mut dyn Write) -> io::Result<()> {
    let lg = lg_core::LookingGlass::builder().build();
    let pool = ThreadPool::new(lg, PoolConfig::default());
    let n = if fast { 20_000 } else { 100_000 };
    let iters = if fast { 30 } else { 100 };
    let reps = if fast { 2 } else { 5 };

    let measure = |sampler_period: Option<Duration>| -> (f64, u64) {
        let sink_count = Arc::new(AtomicU64::new(0));
        let sampler = sampler_period.map(|period| {
            let c = sink_count.clone();
            Sampler::start(
                SamplerConfig {
                    period,
                    sample_immediately: true,
                },
                sources(),
                move |_t, _n, _v| {
                    c.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            best = best.min(workload_time(&pool, n, iters));
        }
        if let Some(s) = sampler {
            s.stop();
        }
        (best, sink_count.load(Ordering::Relaxed))
    };

    let (baseline, _) = measure(None);

    let mut table = Table::new(
        "Fig 5: application slowdown vs sampling period",
        &["period_ms", "time_ms", "overhead_pct", "samples_delivered"],
    );
    table.row(&["off".into(), fmt_f(baseline * 1e3), "0".into(), "0".into()]);
    let periods_us: &[u64] = if fast {
        &[100, 1_000, 10_000]
    } else {
        &[100, 300, 1_000, 3_000, 10_000, 30_000, 100_000]
    };
    for &us in periods_us {
        let (t, samples) = measure(Some(Duration::from_micros(us)));
        let overhead = (t / baseline - 1.0) * 100.0;
        table.row(&[
            fmt_f(us as f64 / 1e3),
            fmt_f(t * 1e3),
            fmt_f(overhead),
            samples.to_string(),
        ]);
    }
    write_table(out, &table, "fig5_sampling")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn runs_fast() {
        super::run(true, &mut std::io::sink()).unwrap();
    }
}
