//! Heap budgets: what the simulator may hold live, counted by a
//! `#[global_allocator]` that wraps the system allocator (hence a test
//! binary of its own). Wall-clock and RSS are the benchmark's business;
//! these are the exact, repeatable byte counts behind them, so a footprint
//! regression fails here with a number instead of as a drifting `peak_rss_mb`.
//! The allocator counts blocks (allocation calls) too: what a flow costs
//! the allocator is its block count more than its bytes.
//!
//! Every counter is per thread: a test's counts are what its own thread
//! allocated and freed, exact whatever libtest's threads allocate
//! meanwhile (a finished test's report, the next test's thread starting).
//! Every test also holds one mutex for its whole body, so that nothing
//! another test builds, frees or prints (a panic's backtrace) runs beside
//! it. `realloc` is deliberately left at `GlobalAlloc`'s default
//! (allocate, copy, free): a growing buffer is then charged old + new at
//! each growth whatever the system allocator could have done in place,
//! which makes the counts an upper bound that does not depend on the libc.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use ndp::core::{NdpFlowCfg, NdpSender, PathSet};
use ndp::experiments::harness::{attach_on, permutation_run, LONG_FLOW};
use ndp::experiments::{Proto, TopoSpec};
use ndp::net::flight::{HopKind, HopRecord};
use ndp::net::{Host, LinkClass, Packet, Queue, HEADER_BYTES};
use ndp::sim::{Component, Ctx, Event, Speed, Time, World};
use ndp::telemetry::{write_chrome_trace, FlowSpan, Gauge, PointTelemetry, RequestSpan};
use ndp::topology::{FatTreeCfg, LeafSpineCfg, QueueSpec, Topology};
use ndp::transport::FlowSpec;
use rand::{rngs::SmallRng, SeedableRng};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading them from the
    // allocator allocates nothing.
    /// Bytes this thread allocated minus bytes it freed: negative when it
    /// frees more of other threads' blocks than it allocates itself.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since `measure` last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Bytes ever allocated on this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    /// Blocks ever allocated on this thread.
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

/// This thread's live bytes now.
fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every block comes from and returns to `System` with the layout
// the caller passed; the counters are statistics and never influence what
// is handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            // `try_with`: a thread being torn down has no counters left.
            let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
            let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
            let _ = LIVE.try_with(|l| {
                l.set(l.get() + layout.size() as isize);
                PEAK.with(|p| p.set(p.get().max(l.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `alloc` above, i.e. by `System`, for
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        let _ = LIVE.try_with(|l| l.set(l.get() - layout.size() as isize));
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Heap {
    /// Bytes allocated while the closure ran (freed or not).
    allocated: usize,
    /// Blocks the closure's thread allocated while it ran (freed or not):
    /// allocation calls, a growth of a buffer included.
    blocks: usize,
    /// High-water mark of live bytes above what was live when it started.
    peak: usize,
}

/// First line of every test here (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner())
}

/// What `f` cost the calling thread's heap.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let base = live();
    PEAK.with(|p| p.set(base));
    let allocated = ALLOCATED.with(Cell::get);
    let blocks = BLOCKS.with(Cell::get);
    let r = f();
    let heap = Heap {
        allocated: ALLOCATED.with(Cell::get) - allocated,
        blocks: BLOCKS.with(Cell::get) - blocks,
        peak: (PEAK.with(Cell::get) - base).max(0) as usize,
    };
    (r, heap)
}

const KB: usize = 1 << 10;
const MB: usize = 1 << 20;

/// A sender's state at attach is its initial window, whatever the flow's
/// length: 1 TiB is 123M packets, which dense per-seq arrays would size
/// at 615 MB before the first packet.
#[test]
fn attaching_a_terabyte_flow_allocates_a_window() {
    let _serial = serial();
    let cfg = NdpFlowCfg {
        n_paths: 16,
        ..NdpFlowCfg::new(1 << 40)
    };
    let (sender, heap) = measure(|| NdpSender::new(1, 1, cfg));
    assert!(sender.total_pkts() > 100_000_000);
    assert!(
        heap.allocated < 16 * KB,
        "NdpSender::new allocated {} bytes",
        heap.allocated
    );
}

/// The benchmark's `permutation_k8` point, shortened: 128 line-rate
/// 1 GiB flows on a k=8 FatTree. The fabric, its queues and the event
/// queue peak at 1.10 MB (1.67 MB while every queue slot and scheduler
/// entry held a 56-byte packet by value); 128 dense 600 KB sender arrays
/// would add 77 MB.
#[test]
fn a_permutation_of_long_flows_fits_in_1500_kb() {
    let _serial = serial();
    let topo = TopoSpec::fattree(FatTreeCfg::new(8));
    let (r, heap) = measure(|| permutation_run(Proto::Ndp, topo, Time::from_ms(2), 7, None));
    assert_eq!(r.per_flow_gbps.len(), 128);
    assert!(r.utilization > 0.5, "flows must actually run");
    assert!(
        heap.peak < 1500 * KB,
        "permutation peaked at {:.2} MB of live heap",
        heap.peak as f64 / MB as f64
    );
}

/// A hop allocates nothing. The same permutation, built by hand so that
/// `run_until` can be counted apart from the build: a delivered data packet
/// costs three 56-byte packet bodies (the data packet, its ACK, the PULL
/// that clocks out the next one; 3.11 with trimmed first-RTT packets and
/// what is still in flight at 2 ms) plus its share of train and queue
/// growth — 196 B in all (229 B while every path reshuffle built three
/// vectors). Every hop moves the 8-byte handle; a stray `clone()` per hop
/// would add a body at each of the six hops of an inter-pod path,
/// 6 x 56 = 336 B on its own — which is the bound, 1.72x what a run
/// allocates today.
#[test]
fn a_packet_hop_allocates_nothing() {
    let _serial = serial();
    let proto = Proto::Ndp;
    let mut world: World<Packet> = World::new(7);
    let topo = TopoSpec::fattree(FatTreeCfg::new(8)).build(&mut world, proto.fabric());
    let dsts = ndp::workloads::permutation(topo.n_hosts(), &mut SmallRng::seed_from_u64(7));
    let flows = || {
        let pairs = dsts.iter().enumerate();
        pairs.map(|(src, &dst)| (src as u64 + 1, src as u32, dst as u32))
    };
    for (flow, src, dst) in flows() {
        let spec = FlowSpec::new(flow, src, dst, LONG_FLOW);
        attach_on(&mut world, topo.as_ref(), proto, &spec);
    }
    let (_, heap) = measure(|| world.run_until(Time::from_ms(2)));
    let bytes: u64 = flows()
        .map(|(flow, _, dst)| {
            world
                .get::<Host>(topo.host(dst))
                .harvest(flow)
                .delivered_bytes
        })
        .sum();
    let delivered = bytes / u64::from(topo.mtu() - HEADER_BYTES);
    assert!(delivered > 20_000, "flows must actually run: {delivered}");
    let per_packet = heap.allocated as f64 / delivered as f64;
    assert!(
        per_packet < 336.0,
        "run_until allocated {per_packet:.0} B per delivered data packet"
    );
}

/// A path reshuffle allocates nothing. Every penalizing NDP flow re-permutes
/// its path list once per `n_paths` packets and re-judges every path's
/// NACK and loss counts as it does, so an allocation there is paid every
/// few packets of every flow. One path here NACKs, another loses packets,
/// and the rest are clean, so every branch of the judgement runs, and
/// both outliers are excluded.
#[test]
fn a_path_reshuffle_allocates_nothing() {
    let _serial = serial();
    let mut paths = PathSet::new(16, true);
    let mut rng = SmallRng::seed_from_u64(7);
    for p in 0..16 {
        for _ in 0..20 {
            paths.on_ack(p);
        }
    }
    for _ in 0..20 {
        paths.on_nack(3);
    }
    for _ in 0..5 {
        paths.on_loss(9);
    }
    // The first `next` permutes, and the 20 after it cross into a second
    // round, skipping the two excluded paths.
    let (_, heap) = measure(|| {
        for _ in 0..21 {
            paths.next(&mut rng);
        }
    });
    assert!(paths.is_excluded(3) && paths.is_excluded(9));
    assert_eq!(heap.allocated, 0, "bytes the reshuffles allocated");
}

/// Blocks one 1 KB flow costs from attach to detach, on back-to-back hosts:
/// 6,400 flows attached 64 at a time, each batch run for 50 ms and then
/// detached (the benchmark's lifecycle probe). Everything a flow touches
/// is counted: its endpoints and their state, its packets, its start
/// wake, and its share of the hosts' tables and the scheduler's buffers.
fn lifecycle_blocks_per_flow(proto: Proto) -> f64 {
    const FLOWS: u64 = 6_400;
    const BATCH: u64 = 64;
    let mut world: World<Packet> = World::new(7);
    let topo = TopoSpec::backtoback().build(&mut world, proto.fabric());
    let (h0, h1) = (topo.host(0), topo.host(1));
    let (_, heap) = measure(|| {
        for first in (1..=FLOWS).step_by(BATCH as usize) {
            let batch = first..first + BATCH;
            for flow in batch.clone() {
                let mut spec = FlowSpec::new(flow, 0, 1, 1_000);
                spec.start = world.now();
                attach_on(&mut world, topo.as_ref(), proto, &spec);
            }
            let deadline = world.now() + Time::from_ms(50);
            world.run_until(deadline);
            for flow in batch {
                let harvest = ndp::transport::detach_endpoints(&mut world, h0, h1, flow);
                assert!(harvest.completion_time.is_some(), "flow {flow} completed");
            }
        }
    });
    heap.blocks as f64 / FLOWS as f64
}

/// A 1 KB flow's block budget. NDP's is 6.98: its two boxed endpoints, the
/// sender's path records and sequence window, and the data packet and its
/// ACK (one block each), plus its share of table and buffer growth; it was
/// 10.98 while the sender kept its path scoreboard in five vectors.
/// DCTCP's and TCP's are 5.97, one fewer: a one-stream TCP-family flow
/// keeps its stream state inline and has no path records. MPTCP's is 7.97,
/// two more: its sender's and receiver's per-subflow arrays.
#[test]
fn a_1kb_flow_costs_its_block_budget() {
    let _serial = serial();
    let budgets = [
        (Proto::Ndp, 7.0),
        (Proto::Dctcp, 6.0),
        (Proto::Tcp, 6.0),
        (Proto::Mptcp, 8.0),
    ];
    for (proto, budget) in budgets {
        let blocks = lifecycle_blocks_per_flow(proto);
        assert!(
            blocks < budget,
            "a {} 1 KB flow cost {blocks:.2} blocks",
            proto.label()
        );
    }
}

/// An ideal-FCT bound allocates nothing: a driver asks for one per request
/// it completes (for the last flow's slowdown), so a path profile that
/// allocated would cost every request a block. Every host pair of a k=4
/// FatTree and of an 8-leaf leaf-spine is asked for its bound, hop count
/// and bulk speed.
#[test]
fn an_ideal_fct_allocates_nothing() {
    let _serial = serial();
    for spec in [
        TopoSpec::fattree(FatTreeCfg::new(4)),
        TopoSpec::leafspine(LeafSpineCfg::new(8, 4, 4)),
    ] {
        let mut world: World<Packet> = World::new(7);
        let topo = spec.build(&mut world, Proto::Ndp.fabric());
        let topo: &dyn Topology = topo.as_ref();
        let n = topo.n_hosts() as u32;
        let (sum, heap) = measure(|| {
            let mut sum = Time::ZERO;
            for src in 0..n {
                for dst in (0..n).filter(|&d| d != src) {
                    sum += topo.ideal_fct(src, dst, 1_000);
                    sum += Time::from_ps(u64::from(topo.n_hops(src, dst)));
                    sum += topo.bulk_speed(src, dst).tx_time(1);
                }
            }
            sum
        });
        assert!(sum > Time::ZERO);
        assert_eq!(
            heap.blocks,
            0,
            "{}: blocks the bounds allocated",
            spec.name()
        );
    }
}

/// Drops every packet it is sent.
struct Sink;

impl Component<Packet> for Sink {
    fn handle(&mut self, _ev: Event<Packet>, _ctx: &mut Ctx<'_, Packet>) {}
}

/// A host NIC that interleaved many flows holds one lane's buffer once it
/// drains: a lane that drains while other lanes stay backlogged gives its
/// buffer back. 64 flows each post a 32-packet window at once to a TCP
/// fabric's host NIC, which serves them round-robin, so every lane grows
/// a 32-packet buffer (256 B of packet handles). The same 64 flows posting
/// one packet each grow the same ring of lanes, with 4-packet buffers.
/// Once drained, the two NICs differ by one lane's buffer, 224 B; a NIC
/// that kept every drained lane's buffer would hold 64 of them, 14 KB.
#[test]
fn a_nic_that_interleaved_many_flows_drains_to_one_lanes_buffer() {
    let _serial = serial();
    const FLOWS: u64 = 64;
    const WINDOW: u64 = 32;
    // The heap a NIC link gives back when it is retired, after `window`
    // packets of each of the 64 flows, interleaved, have all been sent.
    let held = |window: u64| {
        let mut world: World<Packet> = World::new(7);
        let sink = world.add(Sink);
        let disc = QueueSpec::dctcp_default().build_host_nic(9000);
        let link = Queue::fused(Speed::gbps(10), sink, Time::ZERO, LinkClass::HostNic, disc);
        let nic = world.add(link);
        for seq in 0..window {
            for flow in 0..FLOWS {
                world.post(Time::ZERO, nic, Packet::data(0, 1, flow, seq, 9000));
            }
        }
        world.run_until_idle();
        assert_eq!(world.get::<Queue>(nic).stats.forwarded_pkts, window * FLOWS);
        let before = live();
        world.retire(nic);
        (before - live()) as usize
    };
    let lane_buffer = WINDOW as usize * std::mem::size_of::<Packet>();
    let (one_packet, window) = (held(1), held(WINDOW));
    assert!(
        window - one_packet <= lane_buffer,
        "a drained NIC held {} B more after {WINDOW}-packet windows than after single packets",
        window - one_packet
    );
}

/// The export tests' sample point: one of each record the writers know.
fn sample_point(i: u64) -> PointTelemetry {
    let mut span = FlowSpan::open(3, 0, 5, 9000, Time::from_us(2));
    span.first_data = Some(Time::from_us(9));
    span.completion = Some(Time::from_us(12));
    span.slowdown = 1.5;
    span.request = Some(11);
    let mut stuck = FlowSpan::open(4, 1, 6, 9000, Time::from_us(3));
    stuck.stuck = true;
    PointTelemetry {
        key: format!("fattree/ndp/{i}"),
        tags: vec!["core_down[0][0]".into()],
        gauges: vec![Gauge::Queue {
            at: Time::from_us(1),
            tag: 0,
            occ_bytes: 18000,
            occ_pkts: 2,
            forwarded: 7,
            trimmed: 1,
            bounced: 0,
            dropped: 0,
            dropped_down: 2,
            ecn_marked: 0,
        }],
        gauges_evicted: 0,
        spans: vec![span, stuck],
        requests: vec![RequestSpan {
            request: 11,
            tenant: 0,
            seq: 7,
            client: 5,
            fanout: 2,
            arrival: Time::from_us(2),
            completion: Some(Time::from_us(12)),
            straggler_leg: 1,
            measured: true,
            slo_met: true,
        }],
        hops: vec![HopRecord {
            at: Time::from_us(4),
            tag: 0,
            kind: HopKind::Trim,
            flow: 3,
            src: 0,
            dst: 5,
            seq: 1,
            size: 64,
        }],
        hops_evicted: 0,
    }
}

/// Rendering a trace costs its own text, in one growing buffer: with
/// growth charged as old + new (see the module docs) that is at most 3x
/// the returned length (a doubling just before the end), and 1.96x for
/// this input. A `String` per event, joined, then formatted into the
/// document — the writer this test was added against — measured 7.72x.
#[test]
fn a_chrome_trace_is_rendered_in_one_buffer() {
    let _serial = serial();
    let points: Vec<PointTelemetry> = (0..20_000).map(sample_point).collect();
    let (text, heap) = measure(|| write_chrome_trace(&points));
    assert!(text.len() > 10 * MB, "input too small to say anything");
    let multiple = heap.peak as f64 / text.len() as f64;
    assert!(
        multiple < 3.05,
        "peak live heap was {multiple:.2}x the {} bytes returned",
        text.len()
    );
}
