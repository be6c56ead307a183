//! Adaptive message coalescing under a shifting offered load.
//!
//! ```sh
//! cargo run --release --example parcel_coalescing
//! ```
//!
//! Drives the coalescer + simulated link with a parcel storm that starts
//! as a heavy steady stream and then drops to a trickle. A hill-climbing
//! tuner adjusts the coalescing window online; watch it choose a large
//! window under load (amortizing the per-message cost) and shrink it when
//! the load disappears (buffering would only add latency).

use looking_glass::core::Knob as _;
use looking_glass::net::parcel::Parcel;
use looking_glass::net::{Coalescer, SimLink, TransportCost};
use looking_glass::tuning::{Dim, HillClimb, Search, Space};
use looking_glass::workloads::ParcelStorm;

const PAYLOAD: usize = 64;

fn main() {
    // Two regimes, concatenated: 60k parcels at 1.2M/s, then 10k at 60k/s.
    let heavy = ParcelStorm::steady(1.2e6, PAYLOAD, 1).schedule(60_000);
    let offset = *heavy.last().unwrap() + 1_000_000;
    let trickle: Vec<u64> = ParcelStorm::trickle(1.2e6, PAYLOAD, 2)
        .schedule(10_000)
        .into_iter()
        .map(|t| t + offset)
        .collect();
    let schedule: Vec<u64> = heavy.iter().chain(trickle.iter()).copied().collect();

    let mut coal = Coalescer::new(8, 512, 50_000);
    let mut link = SimLink::new(TransportCost::cluster());
    let offer_times = schedule.clone();

    let space = Space::new(vec![Dim::pow2("coalesce_window", 0, 9)]);
    let mut search = HillClimb::from_start(space, &[8]).with_min_improvement(0.05);
    // The coalescing window is never "done" tuning online: when the local
    // search converges we keep the winner but keep watching; a real system
    // would re-arm on drift. Here we re-arm on a fixed cadence.
    let mut pending = search.propose();
    if let Some(p) = &pending {
        coal.window_knob().set(p[0]);
    }

    let epoch = 2_000usize;
    let mut count = 0usize;
    let mut lat_sum = 0.0f64;
    let mut epoch_idx = 0usize;
    println!("epoch  window  mean_latency_us");

    let mut deliveries = Vec::new();
    let mut handle = |link: &mut SimLink,
                      msg: &looking_glass::net::coalesce::WireMessage,
                      count: &mut usize,
                      lat_sum: &mut f64| {
        deliveries.clear();
        link.transmit(msg, |seq| offer_times[seq as usize], &mut deliveries);
        for d in &deliveries {
            *count += 1;
            *lat_sum += (d.arrived_ns - offer_times[d.seq as usize]) as f64;
        }
    };

    for (seq, &t) in schedule.iter().enumerate() {
        while let Some(d) = coal.next_deadline_ns() {
            if d > t {
                break;
            }
            for msg in coal.poll(d) {
                handle(&mut link, &msg, &mut count, &mut lat_sum);
            }
        }
        let parcel = Parcel::new(0, 1, 0, seq as u64, vec![0u8; PAYLOAD]);
        if let Some(msg) = coal.offer(parcel, t) {
            handle(&mut link, &msg, &mut count, &mut lat_sum);
        }
        if count >= epoch {
            let mean_lat = lat_sum / count as f64 / 1e3;
            println!("{:>5}  {:>6}  {:>10.2}", epoch_idx, coal.window(), mean_lat);
            if let Some(p) = pending.take() {
                search.report(&p, mean_lat);
            }
            match search.propose() {
                Some(p) => {
                    coal.window_knob().set(p[0]);
                    pending = Some(p);
                }
                None => {
                    // Re-arm: fresh climber seeded at the current winner,
                    // so a regime change can pull the window elsewhere.
                    if let Some((best, _)) = search.best() {
                        coal.window_knob().set(best[0]);
                        let space = Space::new(vec![Dim::pow2("coalesce_window", 0, 9)]);
                        search = HillClimb::from_start(space, &best).with_min_improvement(0.05);
                        pending = search.propose();
                        if let Some(p) = &pending {
                            coal.window_knob().set(p[0]);
                        }
                    }
                }
            }
            count = 0;
            lat_sum = 0.0;
            epoch_idx += 1;
        }
    }
    for msg in coal.flush_all(*schedule.last().unwrap()) {
        handle(&mut link, &msg, &mut count, &mut lat_sum);
    }

    let r = link.report();
    println!("\n-- totals --");
    println!("parcels delivered : {}", r.parcels);
    println!("wire messages     : {}", r.wire_messages);
    println!("mean coalesce     : {:.1} parcels/message", r.mean_coalesce);
    println!("mean latency      : {:.1} us", r.mean_latency_ns / 1e3);
    println!(
        "p99 latency       : {:.1} us",
        r.p99_latency_ns as f64 / 1e3
    );
}
