//! Host-side measurements (pure std: `/proc` readers, no libc) and the
//! order statistics every report uses.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Linux reports `/proc/self/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every supported architecture (reading it properly needs
/// `sysconf`, i.e. libc).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(utime, stime)` of this process in seconds.
pub fn cpu_times_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, which makes utime/stime the 12th/13th
    // after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(f64::NAN, |t| t / USER_HZ)
    };
    let utime = tick();
    (utime, tick())
}

/// Pin this process, and every child it starts from now on, to the CPU it
/// is running on, with `taskset` (std has no affinity call). The sandbox's
/// two CPUs slow down at different moments, so the calibration kernel has
/// to run where the reps run: timed on the same CPU, kernel and simulator
/// agree on the machine's speed with r = 0.7, across CPUs with r = 0.5.
/// Returns the CPU, or `None` if it could not be pinned (the run goes on,
/// noisier).
pub fn pin_to_current_cpu() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `processor` is the 39th field, the 37th after the command name.
    let cpu: u32 = (stat.rsplit_once(')')?.1)
        .split_whitespace()
        .nth(36)?
        .parse()
        .ok()?;
    let done = std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    done.success().then_some(cpu)
}

/// CPU share of a timed interval: user+system time over wall time, and
/// the system part alone. Below ~0.95 the rep was preempted.
pub struct CpuMeter {
    wall: Instant,
    cpu: (f64, f64),
}

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter {
            wall: Instant::now(),
            cpu: cpu_times_s(),
        }
    }

    /// `(cpu_share, sys_share)` since `start`.
    pub fn shares(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let (u, s) = cpu_times_s();
        let (du, ds) = (u - self.cpu.0, s - self.cpu.1);
        ((du + ds) / wall, ds / wall)
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The lower quartile (linear interpolation between order statistics):
/// what a host time is reported as. The box's noise only ever adds time,
/// in bursts, so the quiet quarter of a run's samples repeats better from
/// run to run than their median (by a quarter, measured).
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = (v.len() - 1) as f64 * 0.25;
    let lo = at.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// `(max − min) ÷ median`.
pub fn rel_spread(values: &[f64]) -> f64 {
    let (lo, hi) = min_max(values);
    (hi - lo) / median(values)
}

/// SplitMix64: decorrelated sub-seeds from one benchmark seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words: the determinism witness a rep reports
/// for its simulated statistics.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The machine-speed index: a miniature packet simulator in pure std —
/// switches, queues and hosts behind `dyn` dispatch, packets the size of
/// the program's, a binary-heap scheduler, a 10 MB working set like the
/// leaf-spine workloads' — timed by the parent between reps. It shares no
/// code with the simulator, so a change to the program cannot move it.
///
/// The shared sandbox has two kinds of noise. Slow: phases minutes long in
/// which everything runs up to 1.7x slower (contention from neighbours);
/// these are common to the kernel and the simulator, and dividing by the
/// kernel removes them. Fast: bursts under a second, +-10% on a 0.5 s
/// sample and uncorrelated between one sample and the next; only many
/// samples remove those, so a run takes the median over all its passes
/// and all its reps, never one pass against one rep. The README has the
/// numbers.
pub struct Calibrator {
    nodes: Vec<Box<dyn Node>>,
    /// `(time, packet slot, node)`, earliest first.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    pkts: Vec<Pkt>,
}

#[derive(Clone, Copy)]
struct Pkt {
    flow: u64,
    seq: u32,
    size: u32,
    hops: u32,
    tag: [u64; 4],
}

/// Where a node sends a packet next, and when.
type Hop = (u64, u32);

trait Node {
    fn handle(&mut self, now: u64, pkt: &mut Pkt) -> Hop;
}

struct MiniSwitch {
    ports: Vec<u32>,
}

impl Node for MiniSwitch {
    fn handle(&mut self, now: u64, pkt: &mut Pkt) -> Hop {
        let h = xorshift(pkt.flow ^ pkt.seq as u64 ^ pkt.tag[0]);
        pkt.tag[1] = h;
        (now, self.ports[(h % self.ports.len() as u64) as usize])
    }
}

struct MiniQueue {
    next: u32,
    busy_until: u64,
    forwarded: u64,
}

impl Node for MiniQueue {
    fn handle(&mut self, now: u64, pkt: &mut Pkt) -> Hop {
        // Serialise at 10 Gb/s behind whatever is already queued.
        self.busy_until = self.busy_until.max(now) + pkt.size as u64 * 8 / 10;
        self.forwarded += 1;
        pkt.hops += 1;
        (self.busy_until + 500, self.next)
    }
}

struct MiniHost {
    uplink: u32,
    delivered: u64,
}

impl Node for MiniHost {
    fn handle(&mut self, now: u64, pkt: &mut Pkt) -> Hop {
        self.delivered += pkt.size as u64;
        pkt.seq += 1;
        pkt.hops = 0;
        pkt.tag[2] = pkt.tag[2].wrapping_add(now);
        (now + 1000, self.uplink)
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl Calibrator {
    const SWITCHES: u32 = 256;
    const PORTS: u32 = 16;
    const HOSTS: u32 = 1024;
    /// Packets in flight: with the heap and the nodes, about 10 MB.
    const PKTS: u32 = 131_072;
    const EVENTS: usize = 700_000;
    /// What one pass takes on the reference box in a quiet phase.
    const NOMINAL_S: f64 = 0.1;
    /// How much harder a slow phase hits the simulator than this kernel:
    /// the slope of log rep time against log pass time over 120 runs of
    /// the benchmark, a third of them inside a 1.5x slow phase, was 1.41
    /// (`permutation_k8`), 1.38, 1.03, 1.10, 1.16 and 1.05
    /// (`failure_traced`); this is their mean. The simulator's code and
    /// data footprints are larger than a kernel this small can have. What
    /// a workload's own slope differs by costs it 1.5^difference between a
    /// quiet and a slow phase: 8% at most.
    const SENSITIVITY: f64 = 1.2;

    /// The factor that takes a host time measured while a quiet pass took
    /// `pass_s` to what it would have been at reference speed.
    pub fn speed(pass_s: f64) -> f64 {
        (Self::NOMINAL_S / pass_s).powf(Self::SENSITIVITY)
    }

    /// 256 switches of 16 output queues, each queue wired to a host (one
    /// in four) or to another switch, and 1,024 hosts that bounce every
    /// packet back into the fabric.
    pub fn new() -> Calibrator {
        let (queue0, host0) = (Self::SWITCHES, Self::SWITCHES * (1 + Self::PORTS));
        let mut nodes: Vec<Box<dyn Node>> = Vec::new();
        for s in 0..Self::SWITCHES {
            let ports = (0..Self::PORTS)
                .map(|p| queue0 + s * Self::PORTS + p)
                .collect();
            nodes.push(Box::new(MiniSwitch { ports }));
        }
        let mut x = 12345u64;
        for _ in 0..Self::SWITCHES * Self::PORTS {
            x = xorshift(x);
            let pick = (x >> 8) as u32;
            let next = match x % 4 {
                0 => host0 + pick % Self::HOSTS,
                _ => pick % Self::SWITCHES,
            };
            nodes.push(Box::new(MiniQueue {
                next,
                busy_until: 0,
                forwarded: 0,
            }));
        }
        for h in 0..Self::HOSTS {
            nodes.push(Box::new(MiniHost {
                uplink: h % Self::SWITCHES,
                delivered: 0,
            }));
        }
        let pkts = (0..Self::PKTS as u64)
            .map(|flow| Pkt {
                flow,
                seq: 0,
                size: 9000,
                hops: 0,
                tag: [flow; 4],
            })
            .collect();
        let heap = (0..Self::PKTS)
            .map(|slot| Reverse((slot as u64 * 7, slot, host0 + slot % Self::HOSTS)))
            .collect();
        Calibrator { nodes, heap, pkts }
    }

    /// Seconds one pass of the kernel takes right now.
    pub fn pass_s(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..Self::EVENTS {
            let Reverse((now, slot, node)) = self.heap.pop().expect("packets never leave");
            let (at, next) = self.nodes[node as usize].handle(now, &mut self.pkts[slot as usize]);
            self.heap.push(Reverse((at, slot, next)));
        }
        std::hint::black_box(&self.pkts);
        started.elapsed().as_secs_f64()
    }
}
