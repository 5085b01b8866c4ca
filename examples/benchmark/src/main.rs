//! The repo's benchmark: six seeded simulator workloads, five end-to-end
//! metrics, and a per-crate cost ledger timed from outside the program.
//! `README.md` beside this package defines every name printed here.
//!
//! ```sh
//! B="cargo run --release --manifest-path examples/benchmark/Cargo.toml --"
//! $B --workload rpc_mix --seed 7 --seconds 15 --trace 0   # one result line
//! $B --workload rpc_mix --seed 7 --seconds 15 --trace 1   # per-layer ledger
//! $B [--seed N] [--reps R]      # all six, round-robin, then the traced pass
//! $B --check-repeat             # the timed pass twice, judged by the bounds
//! $B --smoke                    # everything at 1/4 size, under 20 s
//! ```
//!
//! Every rep runs in a child process of its own (`--one <workload>`, one
//! simulating thread, `NDP_*` knobs cleared), so a rep's set-up time and
//! peak memory are its own and one process simulates at a time, on the one
//! CPU the parent pins itself and its children to.

mod decomp;
mod host;
mod probes;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ndp::experiments::json::{self, Json};

use host::{lower_quartile, median, min_max, rel_spread, CpuMeter};
use trace::Tracer;
use workloads::{Job, Outcome, Workload, WARMUP_DIV, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       benchmark [--seed <n>] [--reps <r>] [--check-repeat]
       benchmark --smoke
workloads: permutation_k8 incast_k12 openloop_ndp openloop_dctcp rpc_mix failure_traced";

/// Horizon divisor of `--smoke`.
const SMOKE_DIV: u32 = 4;
const SMOKE_BUDGET_S: f64 = 20.0;
const DEFAULT_SEED: u64 = 7;
/// What every rep's warm-up pass simulates, whatever the run's `--seed`.
const WARMUP_SEED: u64 = DEFAULT_SEED;
/// Reps of a suite pass when `--reps` is not given.
const DEFAULT_REPS: usize = 12;
/// Host seconds one rep takes on the reference box with its set-up and the
/// calibration passes beside it. A `--seconds` window holds
/// `seconds ÷ REP_SLOT_S` reps: the count comes from the argument, never
/// from the clock, so what a run simulates (and every simulated metric it
/// reports) is the same on any host. Reps are short and many because the
/// box's fast noise is uncorrelated from one second to the next: twelve
/// 1 s samples hold an order statistic far better than three 5 s ones.
const REP_SLOT_S: f64 = 1.25;
/// Calibration passes timed between two reps.
const CAL_PASSES: usize = 2;
/// Interleaved untraced/traced rep pairs behind `bench.trace_overhead_x`.
const TRACE_PAIRS: usize = 4;

/// Figures of a run's own world that only some result structs expose:
/// printed (`n/a` where hidden) and kept in the span file, never part of
/// the result line. The decompositions report the same figures for the
/// permutation and incast shapes under `.perm`/`.incast` names.
const OWN_WORLD: [&str; 4] = [
    "sim.forward_share",
    "sim.timed_share",
    "sim.wake_share",
    "sim.peak_live_components",
];

/// The end-to-end metrics, in report order: name, unit, and whether the
/// value is a host quantity (noisy) or a simulated one (exact per seed).
const END_TO_END: &[(&str, &str, bool)] = &[
    ("wall_s", "s", true),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MB", true),
    ("completed_share", "fraction", false),
    ("sim_tail_ratio", "x", false),
];

struct Args {
    workload: Option<String>,
    one: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    rep: usize,
    div: u32,
    traced: bool,
    ledger: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        one: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        reps: None,
        rep: 0,
        div: 1,
        traced: false,
        ledger: false,
        smoke: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: cannot read '{v}' as a number\n{USAGE}"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--one" => a.one = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = num(&flag, value()?)?,
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--reps" => a.reps = Some(num(&flag, value()?)?),
            "--rep" => a.rep = num(&flag, value()?)?,
            "--div" => a.div = num(&flag, value()?)?,
            "--traced" => a.traced = true,
            "--ledger" => a.ledger = true,
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if a.reps == Some(0) || a.div == 0 || a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err(format!(
            "--reps, --div and --seconds must be positive\n{USAGE}"
        ));
    }
    Ok(a)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))
}

/// `benchmark-out/` beside the executable: span files and the exports
/// `failure_traced` writes. Always inside the build directory, wherever
/// `CARGO_TARGET_DIR` puts it.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.with_file_name("benchmark-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(dir)
}

// ---------------------------------------------------------------------------
// The child: one rep of one workload
// ---------------------------------------------------------------------------

/// What a child process is asked to do besides the timed body.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Nothing: a timed rep, tracer off.
    Timed,
    /// Record spans around the calls into each crate.
    Traced,
    /// Spans, then the own-world decompositions and the layer probes.
    Ledger,
}

/// One rep as its child reported it, plus the calibration passes the
/// parent timed around it.
struct Rep {
    /// Seconds each calibration pass just before and just after the rep
    /// took (none when not calibrating).
    cal: Vec<f64>,
    wall_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    cpu_share: f64,
    attempted: u64,
    failed: u64,
    tail_ratio: f64,
    tail_n: u64,
    events: u64,
    exported_bytes: u64,
    fingerprint: String,
    /// Event count and fingerprint of the warm-up pass, which every rep
    /// simulates on `WARMUP_SEED`.
    warmup: String,
    /// Per-layer metrics (traced reps only), and the `OWN_WORLD` figures
    /// the workload's result struct exposes.
    layer: Vec<(String, f64)>,
    own: Vec<(String, f64)>,
}

impl Rep {
    /// The rep's own value of an end-to-end metric; host times as measured.
    fn end_to_end(&self, metric: &str) -> f64 {
        match metric {
            "wall_s" => self.wall_s,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            "completed_share" => 1.0 - self.failed as f64 / self.attempted as f64,
            "sim_tail_ratio" => self.tail_ratio,
            other => unreachable!("no end-to-end metric called {other}"),
        }
    }

    /// Everything simulated: must be identical across reps of one seed.
    fn simulated(&self) -> (u64, u64, u64, u64, u64, u64, &str) {
        (
            self.attempted,
            self.failed,
            self.tail_ratio.to_bits(),
            self.tail_n,
            self.events,
            self.exported_bytes,
            &self.fingerprint,
        )
    }
}

/// The seed rep `i` of a pass simulates: the pass's seed itself first, then
/// SplitMix sub-seeds. A pass's figures then cover the workload rather
/// than one draw of it: one draw of `openloop_*` moves its p99 slowdown by
/// 21–23% and its event count by 5.5% (interquartile), which a bound of at
/// most 25% judged across seeds could not hold with margin.
fn rep_seed(seed: u64, i: usize) -> u64 {
    match i {
        0 => seed,
        _ => host::sub_seed(seed, i as u64),
    }
}

fn witness(o: &Outcome) -> String {
    format!("{}:{:016x}", o.events, o.fingerprint)
}

fn child(args: &Args, name: &str, entered: Instant) -> Result<(), String> {
    let w = find_workload(name)?;
    let scratch = scratch_dir()?;

    // Set-up: one probe build of the workload's world, and a warm-up pass
    // of the same workload at 1/8 horizon. The warm-up simulates one
    // fixed seed in every rep: set-up is then the same work in every run
    // (over a horizon this short an open-loop draw's cost moves by 20%
    // with its seed), and the parent can hold all reps against each other
    // even though their timed bodies differ.
    std::hint::black_box((w.probe_build)(args.seed));
    let warmup = Job {
        seed: WARMUP_SEED,
        div: args.div * WARMUP_DIV,
        scratch: &scratch,
    };
    let warmed = (w.run)(&warmup, &mut Tracer::new(false))?;
    let setup_s = entered.elapsed().as_secs_f64();

    let job = Job {
        seed: rep_seed(args.seed, args.rep),
        div: args.div,
        scratch: &scratch,
    };
    let mut tr = Tracer::new(args.traced);
    let cpu = CpuMeter::start();
    let started = Instant::now();
    let body = tr.enter("bench.timed_body");
    let outcome = (w.run)(&job, &mut tr)?;
    tr.exit(body);
    let wall_s = started.elapsed().as_secs_f64();
    let (cpu_share, sys_share) = cpu.shares();
    // Read before the post-checks and the traced extras allocate.
    let peak_rss_mb = host::peak_rss_mb();
    if let Some(check) = w.post_check {
        check(&job, &outcome)?;
    }

    let mut own: Vec<(String, f64)> = Vec::new();
    if let Some(kinds) = outcome.kinds {
        let posted = kinds.total().max(1) as f64;
        own.push((OWN_WORLD[0].into(), kinds.forward as f64 / posted));
        own.push((OWN_WORLD[1].into(), kinds.timed_msg as f64 / posted));
        own.push((OWN_WORLD[2].into(), kinds.wake as f64 / posted));
    }
    if let Some(peak) = outcome.peak_live_components {
        own.push((OWN_WORLD[3].into(), peak as f64));
    }

    let mut layer: Vec<(String, f64)> = Vec::new();
    if args.traced {
        let run_s = tr.total_s("experiments.run");
        layer.push(("experiments.run_s".into(), run_s));
        layer.push((
            "experiments.summarize_s".into(),
            tr.total_s("experiments.summarize"),
        ));
        layer.push(("sim.events".into(), outcome.events as f64));
        layer.push(("sim.events_per_s".into(), outcome.events as f64 / run_s));
        layer.push((
            "transport.peak_live_flows".into(),
            outcome.peak_live_flows as f64,
        ));
        layer.push((
            "experiments.peak_live_requests".into(),
            outcome.peak_live_requests as f64,
        ));
        layer.push((
            "baselines.stuck_flows".into(),
            outcome.baseline_stuck as f64,
        ));
        layer.push(("bench.cpu_share".into(), cpu_share));
        layer.push(("bench.sys_share".into(), sys_share));
        if args.ledger {
            decomp::permutation(&mut tr, args.seed, args.div)?;
            decomp::incast(&mut tr, host::sub_seed(args.seed, 0))?;
            probes::run_all(&mut tr, args.seed, args.div)?;
        }
        layer.extend(tr.counts().iter().cloned());
        for (name, v) in &own {
            tr.count(name.clone(), *v);
        }
        let path = scratch.join(format!("trace.{name}.json"));
        std::fs::write(&path, tr.to_json(name).render())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }

    let num = Json::num;
    let fields =
        |list: Vec<(String, f64)>| Json::Obj(list.into_iter().map(|(k, v)| (k, num(v))).collect());
    let line = Json::obj([
        ("wall_s", num(wall_s)),
        ("setup_s", num(setup_s)),
        ("peak_rss_mb", num(peak_rss_mb)),
        ("cpu_share", num(cpu_share)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("tail_ratio", num(outcome.tail_ratio)),
        ("tail_n", num(outcome.tail_n as f64)),
        ("events", num(outcome.events as f64)),
        ("exported_bytes", num(outcome.exported_bytes as f64)),
        // 64 bits do not survive a JSON number.
        ("fingerprint", Json::str(witness(&outcome))),
        ("warmup", Json::str(witness(&warmed))),
        ("layer", fields(layer)),
        ("own", fields(own)),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Run rep `rep` of a pass on `seed` in a child process of its own and
/// read its result line.
fn spawn_rep(w: &Workload, seed: u64, rep: usize, div: u32, mode: Mode) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--one",
        w.name,
        "--seed",
        &seed.to_string(),
        "--rep",
        &rep.to_string(),
        "--div",
        &div.to_string(),
    ]);
    match mode {
        Mode::Timed => {}
        Mode::Traced => {
            cmd.arg("--traced");
        }
        Mode::Ledger => {
            cmd.args(["--traced", "--ledger"]);
        }
    }
    // One simulating thread, and none of the knobs that would make the
    // child a different program than the one users run by default.
    cmd.env("NDP_THREADS", "1");
    for knob in ["NDP_SCHED", "NDP_LANES", "NDP_SCALE", "NDP_TOPO"] {
        cmd.env_remove(knob);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a rep of {}: {e}", w.name))?;
    if !out.status.success() {
        return Err(format!("a rep of {} failed ({})", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = json::parse(line).map_err(|e| format!("{}: unreadable rep result: {e}", w.name))?;
    let f = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: rep result lacks '{key}'", w.name))
    };
    let text = |key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: rep result lacks '{key}'", w.name))
    };
    let fields = |key: &str| match doc.get(key) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Rep {
        cal: Vec::new(),
        wall_s: f("wall_s")?,
        setup_s: f("setup_s")?,
        peak_rss_mb: f("peak_rss_mb")?,
        cpu_share: f("cpu_share")?,
        attempted: f("attempted")? as u64,
        failed: f("failed")? as u64,
        tail_ratio: f("tail_ratio")?,
        tail_n: f("tail_n")? as u64,
        events: f("events")? as u64,
        exported_bytes: f("exported_bytes")? as u64,
        fingerprint: text("fingerprint")?,
        warmup: text("warmup")?,
        layer: fields("layer"),
        own: fields("own"),
    })
}

/// Runs reps back to back with calibration passes between them, so the
/// kernel is sampled through the same seconds as the workload.
struct Harness {
    cal: Option<host::Calibrator>,
    /// The passes timed since the last rep.
    last: Vec<f64>,
}

fn passes(cal: &mut host::Calibrator) -> Vec<f64> {
    (0..CAL_PASSES).map(|_| cal.pass_s()).collect()
}

impl Harness {
    fn new(calibrate: bool) -> Harness {
        let mut cal = calibrate.then(host::Calibrator::new);
        // The first passes fault the kernel's memory in and settle its
        // heap; the ones after them count.
        let last = cal.as_mut().map_or(Vec::new(), |c| {
            passes(c);
            passes(c)
        });
        Harness { cal, last }
    }

    fn rep(
        &mut self,
        w: &Workload,
        seed: u64,
        rep: usize,
        div: u32,
        mode: Mode,
    ) -> Result<Rep, String> {
        let mut rep = spawn_rep(w, seed, rep, div, mode)?;
        if let Some(cal) = &mut self.cal {
            rep.cal = std::mem::replace(&mut self.last, passes(cal));
            rep.cal.extend(&self.last);
        }
        Ok(rep)
    }
}

/// Hold two reps against each other: their warm-up passes simulated the
/// same seed, and so did their timed bodies if `same_body`.
/// A determinism break is a failure, not noise.
fn check_same(w: &Workload, first: &Rep, rep: &Rep, same_body: bool) -> Result<(), String> {
    if first.warmup != rep.warmup {
        return Err(format!(
            "{}: warm-up passes of one seed differ between reps: {} vs {}",
            w.name, first.warmup, rep.warmup
        ));
    }
    if same_body && first.simulated() != rep.simulated() {
        return Err(format!(
            "{}: simulated statistics differ between reps of one seed: {:?} vs {:?}",
            w.name,
            first.simulated(),
            rep.simulated()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// The machine-speed index of a set of reps: how much faster than the
/// reference box the quiet calibration passes among them ran (1 when not
/// calibrating). Host times are reported multiplied by it.
fn speed_of<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    let passes: Vec<f64> = reps
        .into_iter()
        .flat_map(|r| r.cal.iter().copied())
        .collect();
    if passes.is_empty() {
        1.0
    } else {
        host::Calibrator::speed(lower_quartile(&passes))
    }
}

/// Each rep's value of an end-to-end metric, host times at the reference
/// speed of the whole set.
fn values(reps: &[Rep], metric: &str) -> Vec<f64> {
    let scale = match metric {
        "wall_s" | "setup_s" => speed_of(reps),
        _ => 1.0,
    };
    reps.iter().map(|r| r.end_to_end(metric) * scale).collect()
}

/// A pass's value of an end-to-end metric: the lower quartile over its
/// reps for a host time, the median for memory. Operations are pooled
/// before the share is taken, and the tail ratio is averaged: it is exact
/// for each seed, so the mean loses nothing to host noise, and across seeds
/// it is steadier than the median.
fn summary(reps: &[Rep], metric: &str) -> f64 {
    let v = values(reps, metric);
    match metric {
        "completed_share" => {
            let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
            let failed: u64 = reps.iter().map(|r| r.failed).sum();
            1.0 - failed as f64 / attempted as f64
        }
        "sim_tail_ratio" => v.iter().sum::<f64>() / v.len() as f64,
        "wall_s" | "setup_s" => lower_quartile(&v),
        _ => median(&v),
    }
}

/// Print every end-to-end metric of one workload by name, with its unit.
fn print_end_to_end(w: &Workload, reps: &[Rep]) {
    for &(metric, unit, _) in END_TO_END {
        let v = values(reps, metric);
        let (lo, hi) = min_max(&v);
        eprintln!(
            "{:<16} {:<16} {:>12.6} {:<8} min {:.6} max {:.6} n {}",
            w.name,
            metric,
            summary(reps, metric),
            unit,
            lo,
            hi,
            v.len()
        );
    }
    let first = &reps[0];
    let of = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    eprintln!(
        "{:<16} sim: {} of {} operations failed; first rep: sim_tail_n {}, {} events, \
         fingerprint {}; as measured: wall_s {:.3} setup_s {:.3} at machine speed {:.3}; \
         bench.cpu_share {:.3} bench.rep_spread {:.3}",
        w.name,
        reps.iter().map(|r| r.failed).sum::<u64>(),
        reps.iter().map(|r| r.attempted).sum::<u64>(),
        first.tail_n,
        first.events,
        first.fingerprint,
        of(|r| r.wall_s),
        of(|r| r.setup_s),
        speed_of(reps),
        of(|r| r.cpu_share),
        rel_spread(&values(reps, "wall_s")),
    );
}

fn print_layer(w: &Workload, traced: &Rep, layer: &[(String, f64)]) {
    for (name, v) in layer {
        eprintln!(
            "{:<16} {:<44} {:>16.6} {}",
            w.name,
            name,
            v,
            layer_unit(name)
        );
    }
    for name in OWN_WORLD {
        match traced.own.iter().find(|(n, _)| n == name) {
            Some((_, v)) => eprintln!(
                "{:<16} {:<44} {:>16.6} {}",
                w.name,
                name,
                v,
                layer_unit(name)
            ),
            None => eprintln!(
                "{:<16} {:<44} {:>16} (the result struct does not expose it)",
                w.name, name, "n/a"
            ),
        }
    }
}

/// The unit of a per-layer metric, from its name's suffix.
fn layer_unit(name: &str) -> &'static str {
    let stem = name.trim_end_matches(".perm").trim_end_matches(".incast");
    if stem.contains("ns_per_") {
        "ns"
    } else if stem.ends_with("_mb_per_s") {
        "MB/s"
    } else if stem.ends_with("_per_s") {
        "1/s"
    } else if stem.ends_with("_s") {
        "s"
    } else if stem.ends_with("_share") || stem.ends_with("_spread") {
        "fraction"
    } else if stem.ends_with("_x") || stem.ends_with("_speed") {
        "x"
    } else if stem.ends_with("_kb") {
        "kB"
    } else if stem.ends_with("bytes_per_event") {
        "B"
    } else if stem.ends_with("events_per_pkt_hop") {
        "ratio"
    } else {
        "count"
    }
}

/// The result line of the driver contract: the last line of stdout.
fn print_result(attempted: u64, failed: u64, metrics: Vec<(String, f64, &str)>) {
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, v, unit)| {
                (
                    name,
                    Json::obj([("value", Json::num(v)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

// ---------------------------------------------------------------------------
// The two passes
// ---------------------------------------------------------------------------

/// The timed pass, the one routine behind the driver's `--trace 0` run,
/// the suite and `--check-repeat`: `reps` untraced reps of every workload
/// in `ws` (rep `i` on `rep_seed(seed, i)`), each in a process of its own,
/// round-robin so one workload's samples are spread over the whole pass.
fn timed_pass(ws: &[&Workload], seed: u64, reps: usize) -> Result<Vec<Vec<Rep>>, String> {
    let mut all: Vec<Vec<Rep>> = ws.iter().map(|_| Vec::new()).collect();
    let mut harness = Harness::new(true);
    for round in 0..reps {
        for (w, got) in ws.iter().zip(&mut all) {
            let rep = harness.rep(w, seed, round, 1, Mode::Timed)?;
            eprintln!(
                "rep {}/{reps} {:<16} as measured: wall_s {:.3} setup_s {:.3} peak_rss_mb {:.1} cpu_share {:.3} calibration {:.4} s",
                round + 1,
                w.name,
                rep.wall_s,
                rep.setup_s,
                rep.peak_rss_mb,
                rep.cpu_share,
                median(&rep.cal)
            );
            if let Some(first) = got.first() {
                check_same(w, first, &rep, !w.seeded)?;
            }
            got.push(rep);
        }
    }
    Ok(all)
}

/// How many reps a `--seconds` window holds.
fn reps_for(seconds: f64) -> usize {
    ((seconds / REP_SLOT_S).round() as usize).max(1)
}

fn drive_timed(w: &Workload, seed: u64, reps: usize) -> Result<(), String> {
    let reps = timed_pass(&[w], seed, reps)?.remove(0);
    print_end_to_end(w, &reps);
    print_result(
        reps.iter().map(|r| r.attempted).sum(),
        reps.iter().map(|r| r.failed).sum(),
        END_TO_END
            .iter()
            .map(|&(m, unit, _)| (m.to_string(), summary(&reps, m), unit))
            .collect(),
    );
    Ok(())
}

/// The traced pass for one workload: `pairs` interleaved, order-alternating
/// pairs of an untraced and a traced rep, all on `seed` and all held
/// against each other. The last traced rep also runs the decompositions
/// and the layer probes if `ledger`. Returns that rep and its per-layer
/// metrics, the harness-health figures of the whole pass among them.
fn traced_pass(
    w: &Workload,
    seed: u64,
    div: u32,
    ledger: bool,
    pairs: usize,
) -> Result<(Rep, Vec<(String, f64)>), String> {
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Scaled-down passes prove the checks, not the times: no calibration.
    let mut harness = Harness::new(div == 1);
    for pair in 0..pairs {
        let last = pair + 1 == pairs;
        // The last pair ends on its traced rep; the order flips from pair
        // to pair so drift on the box hits both sides alike.
        let traced_first = (pairs - pair).is_multiple_of(2);
        for is_traced in [traced_first, !traced_first] {
            let mode = match (is_traced, last && ledger) {
                (false, _) => Mode::Timed,
                (true, false) => Mode::Traced,
                (true, true) => Mode::Ledger,
            };
            let rep = harness.rep(w, seed, 0, div, mode)?;
            if let Some(first) = plain.first().or(traced.first()) {
                check_same(w, first, &rep, true)?;
            }
            if is_traced { &mut traced } else { &mut plain }.push(rep);
        }
    }
    // The pairs are interleaved, so the times as measured compare.
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).collect::<Vec<f64>>();
    let plain_walls = walls(&plain);
    let overhead = median(&walls(&traced)) / median(&plain_walls);
    let speed = speed_of(plain.iter().chain(&traced));
    let mut rep = traced.pop().expect("at least one pair");
    let mut layer = std::mem::take(&mut rep.layer);
    layer.push(("bench.trace_overhead_x".into(), overhead));
    layer.push(("bench.rep_spread".into(), rel_spread(&plain_walls)));
    layer.push(("bench.machine_speed".into(), speed));
    Ok((rep, layer))
}

fn drive_traced(w: &Workload, seed: u64) -> Result<(), String> {
    let (rep, layer) = traced_pass(w, seed, 1, true, TRACE_PAIRS)?;
    print_layer(w, &rep, &layer);
    print_result(
        rep.attempted,
        rep.failed,
        layer
            .into_iter()
            .map(|(name, v)| {
                let unit = layer_unit(&name);
                (name, v, unit)
            })
            .collect(),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Suite mode: all six workloads
// ---------------------------------------------------------------------------

fn all_workloads() -> Vec<&'static Workload> {
    WORKLOADS.iter().collect()
}

/// The traced pass over every workload; the decompositions and probes do
/// not depend on the workload, so they run once, with the first.
fn suite_traced(seed: u64, div: u32, pairs: usize) -> Result<(), String> {
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (rep, layer) = traced_pass(w, seed, div, i == 0, pairs)?;
        print_layer(w, &rep, &layer);
    }
    Ok(())
}

fn suite(seed: u64, reps: usize) -> Result<(), String> {
    let ws = all_workloads();
    let all = timed_pass(&ws, seed, reps)?;
    for (w, reps) in ws.iter().zip(&all) {
        print_end_to_end(w, reps);
    }
    suite_traced(seed, 1, TRACE_PAIRS)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the current
/// directory (the repository root).
fn read_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name or bound".into())
        })
        .collect()
}

/// The timed pass twice, back to back: do two sets of runs of the same
/// code agree within the benchmark's own bounds?
fn check_repeat(seed: u64, reps: usize) -> Result<(), String> {
    let bounds = read_bounds()?;
    let ws = all_workloads();
    let first = timed_pass(&ws, seed, reps)?;
    let second = timed_pass(&ws, seed, reps)?;
    let mut regressed = 0;
    eprintln!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), b) in ws.iter().zip(&first).zip(&second) {
        // Rep `i` of both passes simulated the same seed.
        for (ra, rb) in a.iter().zip(b) {
            check_same(w, ra, rb, true)?;
        }
        for &(metric, _, host_side) in END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map(|&(_, b)| b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {metric}"))?;
            let (va, vb) = (values(a, metric), values(b, metric));
            let (ma, mb) = (summary(a, metric), summary(b, metric));
            // Every end-to-end metric is "lower is better" except
            // completed_share; disagreement either way fails a repeat.
            let diff = (mb - ma).abs() / ma;
            let verdict = if diff <= bound {
                "agree"
            } else if host_side && rel_spread(&va).max(rel_spread(&vb)) > bound {
                "unresolved"
            } else {
                regressed += 1;
                "DISAGREE"
            };
            eprintln!(
                "{:<16} {:<16} {:>12.6} {:>12.6} {:>8.2}% {:>6.1}%  {verdict}",
                w.name,
                metric,
                ma,
                mb,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    if regressed > 0 {
        return Err(format!(
            "{regressed} metric(s) of the same code disagree beyond their bound"
        ));
    }
    Ok(())
}

/// Everything at 1/4 size, one rep pair: proves the package builds and
/// its checks pass, in CI time.
fn smoke(seed: u64) -> Result<(), String> {
    let started = Instant::now();
    suite_traced(seed, SMOKE_DIV, 1)?;
    let took = started.elapsed().as_secs_f64();
    eprintln!("smoke: six workloads, decompositions and probes in {took:.1} s");
    if took > SMOKE_BUDGET_S {
        return Err(format!("smoke took {took:.1} s, budget {SMOKE_BUDGET_S} s"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let entered = Instant::now();
    let run = || -> Result<(), String> {
        let args = parse_args()?;
        if let Some(name) = &args.one {
            return child(&args, name, entered);
        }
        match host::pin_to_current_cpu() {
            Some(cpu) => eprintln!("benchmark: pinned to CPU {cpu}, reps and calibration alike"),
            None => {
                eprintln!("benchmark: could not pin to a CPU (no taskset?): expect noisier times")
            }
        }
        if let Some(name) = &args.workload {
            let w = find_workload(name)?;
            if args.trace {
                drive_traced(w, args.seed)
            } else {
                drive_timed(w, args.seed, args.reps.unwrap_or(reps_for(args.seconds)))
            }
        } else if args.smoke {
            smoke(args.seed)
        } else if args.check_repeat {
            check_repeat(args.seed, args.reps.unwrap_or(DEFAULT_REPS))
        } else {
            suite(args.seed, args.reps.unwrap_or(DEFAULT_REPS))
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
