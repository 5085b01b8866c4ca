//! Heap budgets: what the simulator may hold live, counted by a
//! `#[global_allocator]` that wraps the system allocator (hence a test
//! binary of its own). Wall-clock and RSS are the benchmark's business;
//! these are the exact, repeatable byte counts behind them, so a footprint
//! regression fails here with a number instead of as a drifting `peak_rss_mb`.
//!
//! The counter is process-global, so every measurement serializes on one
//! mutex. `realloc` is deliberately left at `GlobalAlloc`'s default
//! (allocate, copy, free): a growing buffer is then charged old + new at
//! each growth whatever the system allocator could have done in place,
//! which makes the counts an upper bound that does not depend on the libc.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use ndp::core::{NdpFlowCfg, NdpSender};
use ndp::experiments::harness::permutation_run;
use ndp::experiments::{Proto, TopoSpec};
use ndp::net::flight::{HopKind, HopRecord};
use ndp::sim::Time;
use ndp::telemetry::{write_chrome_trace, FlowSpan, Gauge, PointTelemetry, RequestSpan};
use ndp::topology::FatTreeCfg;

struct Counting;

/// Bytes live now, the high-water mark of that, and bytes ever allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every block comes from and returns to `System` with the layout
// the caller passed; the counters are statistics (`Relaxed`: they publish
// no other data) and never influence what is handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCATED.fetch_add(layout.size(), Relaxed);
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` was returned by `alloc` above, i.e. by `System`, for
        // this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Heap {
    /// Bytes allocated while the closure ran (freed or not).
    allocated: usize,
    /// High-water mark of live bytes above what was live when it started.
    peak: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let _guard = match ONE_AT_A_TIME.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let allocated = ALLOCATED.load(Relaxed);
    let r = f();
    let heap = Heap {
        allocated: ALLOCATED.load(Relaxed) - allocated,
        peak: PEAK.load(Relaxed).saturating_sub(base),
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
/// queue peak at 11.4 MB; 128 dense 600 KB sender arrays put the parent
/// of this test at 82.8 MB.
#[test]
fn a_permutation_of_long_flows_fits_in_16_mb() {
    let topo = TopoSpec::fattree(FatTreeCfg::new(8));
    let (r, heap) = measure(|| permutation_run(Proto::Ndp, topo, Time::from_ms(2), 7, None));
    assert_eq!(r.per_flow_gbps.len(), 128);
    assert!(r.utilization > 0.5, "flows must actually run");
    assert!(
        heap.peak < 16 * MB,
        "permutation peaked at {:.1} MB of live heap",
        heap.peak as f64 / MB as f64
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
