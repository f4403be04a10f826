//! The valley benchmark: one command that runs a named workload, checks
//! its outputs against pinned digests and prints its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload ref-grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Human-readable lines before it name every metric with its unit, the
//! tail percentile and sample counts, and the run's provenance. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod calib;
mod figures;
mod probe;
mod span;
mod stats;
mod sweeps;

use span::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run, with their units.
/// Peak memory is printed on a line of its own, not among them: on the
/// two-worker workloads it depends on which allocator arena each thread
/// got, and moves between runs by more than any bound allows.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_mips", "Minst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics, printed by a traced run, with their units. Every
/// traced run prints all of them; a layer that does no such work on a
/// workload reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("sweep.expand_ms", "ms"),
    ("sweep.overhead_ms", "ms"),
    ("pool.idle_share", "share"),
    ("sweep.dup_sim_share", "share"),
    ("store.resume_ms", "ms"),
    ("store.gc_ms", "ms"),
    ("store.append_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
    ("json.parse_ms", "ms"),
    ("json.bytes", "bytes"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_txn", "ns"),
    ("sim.cycles", "cycles"),
    ("sim.warp_insts", "count"),
    ("sim.mem_txns", "count"),
    ("sim.truncated", "count"),
    ("l1.accesses", "count"),
    ("l1.misses", "count"),
    ("llc.accesses", "count"),
    ("llc.misses", "count"),
    ("noc.latency_mean", "cycles"),
    ("dram.accesses", "count"),
    ("dram.activates", "count"),
    ("dram.row_hits", "count"),
    ("dram.row_conflicts", "count"),
    ("dram.busy_cycles", "cycles"),
    ("dram.channel_par", "channels"),
    ("dram.bank_par", "banks"),
    ("trace.addrs_ms", "ms"),
    ("trace.requests", "count"),
    ("compute.bim_apply_ms", "ms"),
    ("compute.bvr_sweep_ms", "ms"),
    ("compute.entropy_sweep_ms", "ms"),
    ("compute.addrs", "count"),
    ("figures.render_ms", "ms"),
    ("fabric.serve_s", "s"),
    ("fabric.leases", "count"),
    ("fabric.re_leases", "count"),
    ("fabric.duplicates", "count"),
    ("fabric.overhead_share", "share"),
    ("tracing.overhead_s", "s"),
    ("self.bench_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.harness_ms", "ms"),
    ("self.figures_ms", "ms"),
    ("self.power_ms", "ms"),
    ("self.unsplit_ms", "ms"),
];

const WORKLOADS: [&str; 4] = ["ref-grid", "seed-grid", "figures-warm", "fabric-loopback"];

/// Environment knobs that change how the simulator runs. An ambient
/// value is cleared and recorded, never honoured.
const ENGINE_KNOBS: [&str; 2] = ["VALLEY_SIM_THREADS", "VALLEY_SIM_BATCH"];

/// Where scratch stores and span files go, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

/// Digests of every job's `results_json` and of the rendered figure
/// text, one `key digest` pair per line.
const PINS: &str = include_str!("../pins.txt");

/// One benchmark run's settings and shared state.
pub struct Ctx {
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    /// Simulating threads: the pool workers of the multi-worker
    /// workloads, capped at the host's cores.
    pub workers: usize,
    scratch: PathBuf,
    next_dir: std::cell::Cell<u32>,
    pins: BTreeMap<&'static str, &'static str>,
}

impl Ctx {
    /// The scratch directory `name`, emptied.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A fresh, empty scratch directory for one store.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next_dir.get();
        self.next_dir.set(n + 1);
        self.dir(&format!("store-{n}"))
    }

    /// Compares the digest of `text` with the one pinned under `key`.
    /// A mismatch is a failed operation; its note ends in the `pins.txt`
    /// line for the digest found, so pins can be regenerated from the
    /// output of a failing run.
    pub fn check(&self, key: &str, text: &str) -> Option<String> {
        let got = stats::digest(text.as_bytes());
        (self.pins.get(key) != Some(&got.as_str()))
            .then(|| format!("digest mismatch, found: {key} {got}"))
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable detail printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records the latency metrics of `samples_ms` with their sample
    /// count and tail percentile.
    pub fn latencies(&mut self, unit: &str, samples_ms: &[f64]) {
        let (tail, pct) = stats::tail(samples_ms);
        self.e2e.insert("latency_p50_ms", stats::median(samples_ms));
        self.e2e.insert("latency_tail_ms", tail);
        let pct = pct.map_or("max".to_string(), |p| format!("p{p:.1}"));
        self.notes.push(format!(
            "latency: {} samples of one {unit}; latency_tail_ms is {pct}",
            samples_ms.len()
        ));
    }

    /// Adds per-layer self time from the spans of the traced rounds.
    pub fn self_times(&mut self, tracer: &Tracer, traces: &[u32]) {
        let by_layer = tracer.self_ms_by_layer(traces);
        let n = traces.len().max(1) as f64;
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("self.")) {
            let layer = &name["self.".len()..name.len() - "_ms".len()];
            self.layer
                .insert(name, by_layer.get(layer).copied().unwrap_or(0.0) / n);
        }
    }
}

/// Rounds of a workload's timed phase and the trace ids of the traced
/// ones.
pub struct Rounds<R> {
    pub plain: Vec<R>,
    pub traced: Vec<R>,
    pub traces: Vec<u32>,
}

/// Runs `round` until `ctx.seconds` have passed, at least once. A traced
/// run alternates untraced and traced rounds, at least one of each; the
/// untraced ones give the end-to-end figures and the difference between
/// the two kinds is the tracing overhead.
pub fn rounds<R>(ctx: &Ctx, mut round: impl FnMut(&Tracer) -> R) -> Rounds<R> {
    let off = Tracer::new(false);
    let start = Instant::now();
    let mut out = Rounds {
        plain: Vec::new(),
        traced: Vec::new(),
        traces: Vec::new(),
    };
    loop {
        out.plain.push(round(&off));
        if ctx.traced {
            out.traces.push(ctx.tracer.next_trace());
            out.traced
                .push(ctx.tracer.span("bench.round", || round(&ctx.tracer)));
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            return out;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` when it exists.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "absent".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn pins() -> Result<BTreeMap<&'static str, &'static str>, String> {
    PINS.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_once(' ')
                .ok_or_else(|| format!("malformed pin line '{l}'"))
        })
        .collect()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Cleared before any thread starts, so no simulator reads them.
    let mut cleared = Vec::new();
    for knob in ENGINE_KNOBS {
        if let Some(v) = std::env::var_os(knob) {
            cleared.push(format!("{knob}={}", v.to_string_lossy()));
            std::env::remove_var(knob);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let ctx = Ctx {
        seconds: args.seconds,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        workers: nproc.min(2),
        scratch: scratch.clone(),
        next_dir: std::cell::Cell::new(0),
        pins: pins()?,
    };
    let pool_workers = match args.workload.as_str() {
        "ref-grid" | "figures-warm" => 1,
        _ => ctx.workers,
    };
    let provenance = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} pool_workers={pool_workers} \
         rustc=\"{}\" profile={} git={} engine_env_cleared=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(),
        cleared.join(",")
    );
    println!("provenance: {provenance}");

    let result = match args.workload.as_str() {
        "ref-grid" => sweeps::ref_grid(&ctx),
        "seed-grid" => sweeps::seed_grid(&ctx),
        "fabric-loopback" => sweeps::fabric_loopback(&ctx),
        _ => figures::figures_warm(&ctx),
    };
    let spans_file =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::remove_dir_all(&scratch).ok();
    let out = result?;
    let peak_rss_mb = stats::peak_rss_mb()?;
    if args.trace {
        ctx.tracer
            .write(
                &spans_file,
                &format!("{{\"provenance\":\"{}\"}}", provenance.replace('"', "'")),
            )
            .map_err(|e| format!("cannot write {}: {e}", spans_file.display()))?;
        println!("spans: {}", spans_file.display());
    }
    // Rounds repeat the same failure; each note is printed once.
    let mut printed = std::collections::BTreeSet::new();
    for note in &out.notes {
        if printed.insert(note) {
            println!("{note}");
        }
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "fail_ratio {fail_ratio} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let (wanted, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("workload did not measure {name}"))?;
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace {
        for &(name, unit) in &END_TO_END {
            if let Some(v) = out.e2e.get(name) {
                println!("untraced {name} {v} {unit}");
            }
        }
    }
    println!("peak_rss_mb {peak_rss_mb} MB (VmHWM of this process; not a bounded metric)");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}
