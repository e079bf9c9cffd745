//! Pins the steady-state allocation budget of the simulator hot path
//! at exactly zero.
//!
//! Only built under the `count-allocs` feature (which installs the
//! counting global allocator): once the timer wheel's slots, the
//! payload pool, and the dispatch out-buffer are warm, routing a packet
//! — pop event, deliver, host sends a reply, push event — must not
//! touch the allocator at all. A regression here (say, a `Vec<u8>`
//! payload sneaking back in, or the event queue allocating per push)
//! fails this test before it shows up as a throughput cliff in
//! `BENCH_*.json`.
//!
//! Run with:
//!
//! ```text
//! cargo test -p doqlab-simnet --features count-allocs --test zero_alloc_route
//! ```
#![cfg(feature = "count-allocs")]

use doqlab_simnet::path::FixedPathModel;
use doqlab_simnet::{
    alloc_count, Ctx, Duration, Host, Ipv4Addr, Packet, PayloadBuf, Simulator, SocketAddr,
};
use std::any::Any;

/// Returns every packet whence it came, reusing its pooled payload, so
/// a seeded burst of pings bounces between two hosts forever.
struct Bouncer;

impl Host for Bouncer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        ctx.send(Packet::udp(pkt.dst, pkt.src, pkt.payload));
    }
    fn on_wakeup(&mut self, _ctx: &mut Ctx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn steady_state_routing_allocates_nothing() {
    let mut sim = Simulator::new(7, Box::new(FixedPathModel::new(Duration::from_millis(3))));
    let a = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 40_000);
    let b = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 7);
    let ha = sim.add_host(Box::new(Bouncer), &[a.ip]);
    sim.add_host(Box::new(Bouncer), &[b.ip]);
    // Front-load the wheel's node-table growth.
    sim.warm_queue(8);
    sim.with_host::<Bouncer, _>(ha, |_, ctx| {
        for i in 0..8u8 {
            ctx.send(Packet::udp(a, b, PayloadBuf::from_slice(&[i; 100])));
        }
    });
    // Warm everything else the hot path touches: pooled payload
    // buffers, the reused dispatch out-buffer, metrics counters.
    assert_eq!(sim.run(2_000), 2_000);
    let before = alloc_count::thread_allocations();
    assert_eq!(sim.run(10_000), 10_000);
    let allocated = alloc_count::thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "steady-state routing hit the allocator {allocated} times over 10k events"
    );
}
