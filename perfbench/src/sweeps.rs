//! The sweep workloads: `ref-grid` and `seed-grid` through the local
//! pool, and `fabric-loopback` through an in-process coordinator.

use crate::calib::HostSpeed;
use crate::span::Tracer;
use crate::stats::{median, trimmed_mean};
use crate::{probe, rounds, Ctx, Outcome, Rounds};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use valley_core::SchemeKind;
use valley_fabric::{run_worker, CoordOptions, Coordinator, WorkerOptions};
use valley_harness::{
    gc, run_sweep, JobSpec, ResultStore, SweepError, SweepOptions, SweepSpec, DEFAULT_SEED,
};
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

/// The BIM seeds of `seed-grid`: the paper's best-of-3.
pub const BEST_OF_3: [u64; 3] = [1, 2, 3];

/// Set-ups before the first round, and after each untraced round;
/// `setup_s` is the median of all of them. A set-up takes milliseconds,
/// and spreading them over the run lets `setup_s` sample the host over
/// the same stretch of time as `run_s`, not only at the run's start.
const SETUP_REPS: usize = 31;
const SETUP_REPS_PER_ROUND: usize = 5;

/// How much a simulation slows, on a log scale, per unit of the host-speed
/// reference's slowdown when another tenant shares the core: a sweep's
/// host times are multiplied by the run's reference factor raised to
/// this power (see `calib` and `perfbench/README.md`, *Host speed*).
/// Fitted on `seed-grid` and `ref-grid` runs, which gave 0.46-0.68.
const SIM_SENSITIVITY: f64 = 0.6;

/// Schemes whose mapping ignores the BIM seed.
const SEED_INSENSITIVE: [SchemeKind; 3] = [SchemeKind::Base, SchemeKind::Pm, SchemeKind::Rmp];

/// The paper's 16 benchmarks × 6 schemes at `scale` over `seeds`, in the
/// order `valley sweep` expands them. Every input is fixed by the paper
/// and every result is pinned, so the run's seed selects nothing here.
pub fn grid(scale: Scale, seeds: &[u64]) -> SweepSpec {
    SweepSpec::new(&Benchmark::ALL, &SchemeKind::ALL_SCHEMES, scale).with_seeds(seeds)
}

/// The pin key of a job: its coordinates without the schema version.
pub fn job_key(job: &JobSpec) -> String {
    format!(
        "{}/{}/s{}/{}/{}",
        job.bench, job.scheme, job.seed, job.scale, job.config
    )
}

/// Explicit options: batching off and a fixed worker count, so no
/// environment knob or host default changes what runs.
pub fn sweep_opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers: Some(workers),
        verbose: false,
        force: false,
        batch: 1,
    }
}

/// Total size of a store's shard files.
pub fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".jsonl"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up of the sweep workloads: expand the grid, build its workloads,
/// open an empty scratch store and run one warm-up job through it, so
/// code, allocator and page cache are warm before the first timed round.
/// Returns the expansion time in ms.
fn sweep_setup(ctx: &Ctx, spec: &SweepSpec) -> Result<f64, String> {
    let t = Instant::now();
    let jobs = std::hint::black_box(spec.expand());
    let expand_ms = ms(t);
    let workloads: Vec<_> = spec
        .benches
        .iter()
        .map(|b| b.workload(spec.scale))
        .collect();
    std::hint::black_box((jobs, workloads));
    let dir = ctx.fresh_dir();
    let store = ResultStore::open(&dir).map_err(|e| format!("scratch store: {e}"))?;
    let warm_up = SweepSpec::new(&[Benchmark::Mt], &[SchemeKind::Base], Scale::Test);
    let out =
        run_sweep(&warm_up, &store, &sweep_opts(1)).map_err(|e| format!("warm-up job: {e}"))?;
    if out.executed != 1 {
        return Err(format!("warm-up ran {} jobs, not 1", out.executed));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(expand_ms)
}

/// Samples the host's speed, then runs the sweep set-up once and adds
/// its wall in seconds to `walls`.
fn timed_setup(
    ctx: &Ctx,
    spec: &SweepSpec,
    walls: &mut Vec<f64>,
    speed: &mut HostSpeed,
) -> Result<f64, String> {
    speed.sample();
    let t = Instant::now();
    let expand_ms = sweep_setup(ctx, spec)?;
    walls.push(t.elapsed().as_secs_f64());
    Ok(expand_ms)
}

/// How a sweep workload runs its jobs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// One cold `run_sweep` on the local pool.
    Pool,
    /// The CI sequence: a cold `run_sweep`, a warm resume that reopens
    /// the store, then `gc`.
    PoolResumeGc,
    /// One cold sweep served by a loopback coordinator to `run_worker`
    /// threads.
    Fabric,
}

/// What one round of a sweep workload did.
struct SweepRound {
    wall_s: f64,
    open_ms: f64,
    /// Wall of the cold `run_sweep`, or of `Coordinator::run`.
    sweep_ms: f64,
    /// Wall of each job in `reports`, as the pool or worker measured it.
    job_ms: Vec<f64>,
    /// Jobs with their reports; dropped once the round is checked, but
    /// for the first traced round, which the probes read.
    reports: Vec<(JobSpec, SimReport)>,
    /// Simulated warp instructions of the round's jobs.
    insts: f64,
    resume_ms: f64,
    gc_ms: f64,
    leases: u64,
    re_leases: u64,
    duplicates: u64,
    /// Size of the store after the round.
    bytes: u64,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    dir: PathBuf,
}

impl SweepRound {
    fn new(jobs: u64, dir: PathBuf) -> SweepRound {
        SweepRound {
            wall_s: 0.0,
            open_ms: 0.0,
            sweep_ms: 0.0,
            job_ms: Vec::new(),
            reports: Vec::new(),
            insts: 0.0,
            resume_ms: 0.0,
            gc_ms: 0.0,
            leases: 0,
            re_leases: 0,
            duplicates: 0,
            bytes: 0,
            attempted: jobs,
            failed: 0,
            notes: Vec::new(),
            dir,
        }
    }

    fn fail(&mut self, count: u64, note: String) {
        self.failed += count;
        self.notes.push(note);
    }
}

/// One round on a fresh store: open it, then run the jobs as `runner`
/// says.
fn sweep_round(
    ctx: &Ctx,
    tr: &Tracer,
    spec: &SweepSpec,
    workers: usize,
    runner: Runner,
) -> SweepRound {
    let jobs = spec.expand();
    let n = jobs.len() as u64;
    let mut r = SweepRound::new(n, ctx.fresh_dir());
    let start = Instant::now();
    let store = match tr.span("store.open", || ResultStore::open(&r.dir)) {
        Ok(store) => store,
        Err(e) => {
            r.fail(n, format!("store open failed: {e}"));
            return r;
        }
    };
    r.open_ms = ms(start);
    if runner == Runner::Fabric {
        serve_round(tr, spec, &store, workers, start, &mut r);
        for job in &jobs {
            match store.get(job) {
                Some(stored) => {
                    r.job_ms.push(stored.wall_ms);
                    r.reports.push((*job, stored.report));
                }
                None => r.fail(1, format!("no stored result for {}", job_key(job))),
            }
        }
        r.bytes = store_bytes(&r.dir);
        return r;
    }
    let t = Instant::now();
    let cold = tr.unsplit("harness.run_sweep", || {
        run_sweep(spec, &store, &sweep_opts(workers))
    });
    r.sweep_ms = ms(t);
    match cold {
        Ok(out) => {
            for job in out.jobs {
                r.job_ms.push(job.wall_ms);
                r.reports.push((job.spec, job.report));
            }
        }
        Err(SweepError::Failures(failures)) => {
            for f in &failures {
                r.fail(1, format!("job failed: {f}"));
            }
        }
        Err(SweepError::Store(e)) => r.fail(n, format!("sweep store error: {e}")),
    }
    drop(store);
    if runner == Runner::PoolResumeGc {
        let t = Instant::now();
        let warm = tr
            .span("store.open", || ResultStore::open(&r.dir))
            .map_err(SweepError::Store)
            .and_then(|store| {
                tr.span("harness.run_sweep", || {
                    run_sweep(spec, &store, &sweep_opts(workers))
                })
            });
        r.resume_ms = ms(t);
        r.attempted += n;
        match warm {
            Ok(out) => {
                let same = out
                    .jobs
                    .iter()
                    .zip(&r.reports)
                    .filter(|(w, (spec, report))| {
                        w.cached && w.spec == *spec && w.report == *report
                    })
                    .count() as u64;
                if same != n {
                    r.fail(
                        n - same,
                        format!("resume served {same} of {n} jobs from the store"),
                    );
                }
            }
            Err(e) => r.fail(n, format!("resume failed: {e}")),
        }
        let t = Instant::now();
        let compacted = tr.span("store.gc", || gc(&r.dir));
        r.gc_ms = ms(t);
        r.attempted += 1;
        match compacted {
            Ok(report) if report.removed() == 0 => {}
            Ok(report) => r.fail(
                1,
                format!("gc removed {} records from a clean store", report.removed()),
            ),
            Err(e) => r.fail(1, format!("gc failed: {e}")),
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.bytes = store_bytes(&r.dir);
    r
}

/// Serves `spec` from a coordinator bound to an ephemeral loopback port
/// to `workers` in-process `run_worker` threads, all joined before it
/// returns. The round's wall, begun at `start`, ends when
/// `Coordinator::run` returns with every result stored: a worker may
/// still be sleeping out a retry hint then, which is not fabric work.
fn serve_round(
    tr: &Tracer,
    spec: &SweepSpec,
    store: &ResultStore,
    workers: usize,
    start: Instant,
    r: &mut SweepRound,
) {
    let n = r.attempted;
    let bound = Coordinator::bind("127.0.0.1:0").and_then(|c| Ok((c.local_addr()?, c)));
    let (addr, coord) = match bound {
        Ok(bound) => bound,
        Err(e) => return r.fail(n, format!("coordinator bind failed: {e}")),
    };
    let addr = addr.to_string();
    let coord_opts = CoordOptions {
        verbose: false,
        ..CoordOptions::default()
    };
    let (served, ran) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let addr = &addr;
                s.spawn(move || {
                    // A short reconnect budget: once the grid is
                    // stored the coordinator exits, and a worker that
                    // cannot reconnect is done.
                    let opts = WorkerOptions {
                        name: format!("perfbench-{i}"),
                        capacity: 1,
                        connect_attempts: 5,
                        backoff_ms: 10,
                        verbose: false,
                    };
                    let begin = Instant::now();
                    let result = run_worker(addr, &opts);
                    (result, begin, Instant::now())
                })
            })
            .collect();
        let t = Instant::now();
        let served = tr.unsplit("fabric.coordinator_run", || {
            coord.run(spec, store, &coord_opts)
        });
        r.sweep_ms = ms(t);
        r.wall_s = start.elapsed().as_secs_f64();
        let ran: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (served, ran)
    });
    for outcome in ran {
        match outcome {
            Ok((Ok(summary), begin, end)) => {
                r.leases += summary.leases;
                tr.record_unsplit("fabric.run_worker", begin, end);
            }
            Ok((Err(e), ..)) => r.fail(1, format!("worker failed: {e}")),
            Err(_) => r.fail(1, "worker thread panicked".into()),
        }
    }
    match served {
        Ok(summary) => {
            r.re_leases = summary.telemetry.releases;
            r.duplicates = summary.telemetry.duplicates;
            // A re-lease means a job was handed out twice; a dead job
            // never produced a result.
            r.failed += r.re_leases;
            for f in &summary.dead {
                r.fail(1, format!("dead job: {f}"));
            }
        }
        Err(e) => r.fail(n, format!("coordinator failed: {e}")),
    }
}

/// Failed outputs among `reports`: digests that differ from their pins
/// and, over several seeds, seed-insensitive schemes whose results
/// differ between seeds.
pub fn check_reports(ctx: &Ctx, reports: &[(JobSpec, SimReport)], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    let mut by_seedless: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (job, report) in reports {
        let json = report.results_json();
        if let Some(note) = ctx.check(&job_key(job), &json) {
            failed += 1;
            notes.push(note);
        }
        if SEED_INSENSITIVE.contains(&job.scheme) {
            let key = format!("{}/{}/{}/{}", job.bench, job.scheme, job.scale, job.config);
            by_seedless.entry(key).or_default().insert(json);
        }
    }
    for (key, results) in by_seedless {
        if results.len() > 1 {
            failed += 1;
            notes.push(format!("{key} differs across BIM seeds"));
        }
    }
    failed
}

/// Exact model counters summed (or, for means, averaged) over `reports`
/// in key order, so they repeat bit for bit whatever the job order.
pub fn model_counters(reports: &[(JobSpec, SimReport)], out: &mut Outcome) {
    let mut sorted: Vec<&(JobSpec, SimReport)> = reports.iter().collect();
    sorted.sort_by_cached_key(|(job, _)| job_key(job));
    let sum = |f: &dyn Fn(&SimReport) -> f64| sorted.iter().map(|(_, r)| f(r)).sum::<f64>();
    let n = sorted.len().max(1) as f64;
    let counters: [(&'static str, f64); 16] = [
        ("sim.cycles", sum(&|r| r.cycles as f64)),
        ("sim.warp_insts", sum(&|r| r.warp_instructions as f64)),
        ("sim.mem_txns", sum(&|r| r.memory_transactions as f64)),
        ("sim.truncated", sum(&|r| f64::from(u8::from(r.truncated)))),
        ("l1.accesses", sum(&|r| r.l1.accesses() as f64)),
        ("l1.misses", sum(&|r| r.l1.misses as f64)),
        ("llc.accesses", sum(&|r| r.llc.accesses() as f64)),
        ("llc.misses", sum(&|r| r.llc.misses as f64)),
        ("noc.latency_mean", sum(&|r| r.noc_latency) / n),
        ("dram.accesses", sum(&|r| r.dram.accesses() as f64)),
        ("dram.activates", sum(&|r| r.dram.activates as f64)),
        ("dram.row_hits", sum(&|r| r.dram.row_hits as f64)),
        ("dram.row_conflicts", sum(&|r| r.dram.row_conflicts as f64)),
        ("dram.busy_cycles", sum(&|r| r.dram.busy_cycles as f64)),
        ("dram.channel_par", sum(&|r| r.channel_parallelism) / n),
        ("dram.bank_par", sum(&|r| r.bank_parallelism) / n),
    ];
    out.layer.extend(counters);
}

/// Share of `reports` whose results equal another report's.
pub fn dup_sim_share(reports: &[(JobSpec, SimReport)]) -> f64 {
    let distinct: BTreeSet<String> = reports.iter().map(|(_, r)| r.results_json()).collect();
    (reports.len() - distinct.len()) as f64 / reports.len().max(1) as f64
}

fn warp_insts(reports: &[(JobSpec, SimReport)]) -> f64 {
    reports
        .iter()
        .map(|(_, r)| r.warp_instructions as f64)
        .sum()
}

/// Sets every per-layer metric to 0, so a layer a workload does not
/// exercise still reads as measured-nothing.
pub fn zero_layers(out: &mut Outcome) {
    for (name, _) in crate::PER_LAYER {
        out.layer.insert(name, 0.0);
    }
}

/// `ref-grid`: the paper's 16 × 6 grid at Ref scale, BIM seed 1, cold
/// store, one pool worker.
pub fn ref_grid(ctx: &Ctx) -> Result<Outcome, String> {
    sweep_workload(ctx, &grid(Scale::Ref, &[DEFAULT_SEED]), 1, Runner::Pool)
}

/// `seed-grid`: 16 × 6 × seeds 1-3 at Small scale; cold sweep, warm
/// resume, `gc`.
pub fn seed_grid(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = grid(Scale::Small, &BEST_OF_3);
    sweep_workload(ctx, &spec, ctx.workers, Runner::PoolResumeGc)
}

/// `fabric-loopback`: the `seed-grid` job list through an in-process
/// coordinator on 127.0.0.1 with `run_worker` threads, cold store.
pub fn fabric_loopback(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = grid(Scale::Small, &BEST_OF_3);
    sweep_workload(ctx, &spec, ctx.workers, Runner::Fabric)
}

fn sweep_workload(
    ctx: &Ctx,
    spec: &SweepSpec,
    workers: usize,
    runner: Runner,
) -> Result<Outcome, String> {
    let mut setup_walls = Vec::new();
    let mut expand_ms = 0.0;
    let mut speed = HostSpeed::default();
    for _ in 0..SETUP_REPS {
        expand_ms = timed_setup(ctx, spec, &mut setup_walls, &mut speed)?;
    }
    // Each round is checked as soon as it ends and keeps only its
    // aggregates, so memory does not grow with the number of rounds. The
    // first traced round keeps its reports and store for the probes.
    // Latency has one sample per job: the fastest of its walls over the
    // untraced rounds, the one other tenants of a shared host slowed
    // least. A grid's jobs are a fixed set of sizes; pooling the rounds'
    // walls instead would move the tail rank across the gaps between job
    // sizes as the round count changes.
    let mut job_walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut kept: Option<(Vec<(JobSpec, SimReport)>, PathBuf)> = None;
    let Rounds {
        plain,
        traced,
        traces,
    } = rounds(ctx, |tr| {
        tr.span("calib.reference", || speed.sample());
        let mut r = sweep_round(ctx, tr, spec, workers, runner);
        r.failed += check_reports(ctx, &r.reports, &mut r.notes);
        r.insts = warp_insts(&r.reports);
        if !tr.on() {
            for ((job, _), &wall) in r.reports.iter().zip(&r.job_ms) {
                job_walls.entry(job_key(job)).or_default().push(wall);
            }
        }
        let reports = std::mem::take(&mut r.reports);
        if tr.on() && kept.is_none() {
            kept = Some((reports, r.dir.clone()));
        } else {
            drop(reports);
            std::fs::remove_dir_all(&r.dir).ok();
        }
        if !tr.on() {
            for _ in 0..SETUP_REPS_PER_ROUND {
                r.attempted += 1;
                if let Err(e) = timed_setup(ctx, spec, &mut setup_walls, &mut speed) {
                    r.fail(1, format!("set-up failed: {e}"));
                }
            }
        }
        r
    });
    // Host times become nominal times (see `SIM_SENSITIVITY`).
    let nominal = speed.run_factor().powf(SIM_SENSITIVITY);
    let mut out = Outcome::default();
    out.e2e.insert("setup_s", median(&setup_walls) * nominal);
    for round in plain.iter().chain(&traced) {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.notes.extend(round.notes.iter().cloned());
    }
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let run_s = trimmed_mean(&walls) * nominal;
    out.e2e.insert("run_s", run_s);
    out.e2e.insert("sim_mips", plain[0].insts / 1e6 / run_s);
    let samples: Vec<f64> = job_walls
        .values()
        .map(|walls| walls.iter().copied().fold(f64::INFINITY, f64::min) * nominal)
        .collect();
    let measured_by = if runner == Runner::Fabric {
        "its fabric worker"
    } else {
        "the pool"
    };
    out.latencies(
        &format!("job (its fastest wall over the untraced rounds, as {measured_by} measured it)"),
        &samples,
    );
    out.notes.push(format!(
        "rounds: {} untraced, {} traced; {} jobs per round on {workers} worker(s); untraced walls {:?}",
        plain.len(),
        traced.len(),
        spec.expand().len(),
        walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "host speed: {}; host times multiplied by {nominal:.4}; host run_s {} s",
        speed.summary(),
        trimmed_mean(&walls)
    ));

    if let Some((reports, dir)) = &kept {
        zero_layers(&mut out);
        let med =
            |f: &dyn Fn(&SweepRound) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let w = workers as f64;
        let job_sum = |r: &SweepRound| r.job_ms.iter().sum::<f64>();
        out.layer.extend([
            ("sweep.expand_ms", expand_ms),
            ("sweep.dup_sim_share", dup_sim_share(reports)),
            ("store.append_bytes", traced[0].bytes as f64),
            ("store.open_ms", med(&|r| r.open_ms)),
            ("store.records", reports.len() as f64),
            ("store.bytes", traced[0].bytes as f64),
            ("tracing.overhead_s", med(&|r| r.wall_s) - median(&walls)),
        ]);
        if runner == Runner::Fabric {
            out.layer.extend([
                ("fabric.serve_s", med(&|r| r.sweep_ms) / 1e3),
                ("fabric.leases", med(&|r| r.leases as f64)),
                ("fabric.re_leases", med(&|r| r.re_leases as f64)),
                ("fabric.duplicates", med(&|r| r.duplicates as f64)),
                (
                    "fabric.overhead_share",
                    med(&|r| 1.0 - job_sum(r) / (w * r.sweep_ms)),
                ),
            ]);
        } else {
            out.layer.extend([
                ("sweep.overhead_ms", med(&|r| r.sweep_ms - job_sum(r) / w)),
                (
                    "pool.idle_share",
                    med(&|r| 1.0 - job_sum(r) / (w * r.sweep_ms)),
                ),
                ("store.resume_ms", med(&|r| r.resume_ms)),
                ("store.gc_ms", med(&|r| r.gc_ms)),
            ]);
        }
        model_counters(reports, &mut out);
        out.self_times(&ctx.tracer, &traces);
        probe::sim_replay(ctx, reports, &mut out);
        probe::json_pass(ctx, dir, &mut out);
        std::fs::remove_dir_all(dir).ok();
    }
    Ok(out)
}
