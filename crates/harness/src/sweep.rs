//! Sweep orchestration: expand a [`SweepSpec`], serve what the store
//! already has, run the rest on the work-stealing pool, persist every
//! fresh result, and hand back the full grid in deterministic order.

use crate::job::{
    execute_batch_timed, execute_job, sim_groups, ConfigId, JobSpec, LaneOutcome, SweepSpec,
    WallKind,
};
use crate::pool;
use crate::store::{ResultStore, StoreError};
use std::time::{Duration, Instant};
use valley_core::hash::FastMap;
use valley_core::SchemeKind;
use valley_sim::{Batching, SimReport};
use valley_workloads::Scale;

/// Options controlling one sweep run.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses all available cores (capped at the
    /// job count).
    pub workers: Option<usize>,
    /// Print per-job progress and a summary to stderr.
    pub verbose: bool,
    /// Re-run every job even if a stored result exists (the fresh result
    /// overwrites the stored one).
    pub force: bool,
    /// Batch width for the lockstep many-sim engine: pending jobs that
    /// share a machine (config, scale, scheme) run through one
    /// [`valley_sim::BatchSim`] in groups of up to this many lanes.
    /// `0` defers to the `VALLEY_SIM_BATCH` environment knob; a width
    /// of 1 (either way) keeps the per-job sequential path. Batch width
    /// is pure scheduling — per-lane results are bit-identical to
    /// unbatched runs — so it is deliberately not part of job keys.
    pub batch: usize,
}

/// One job's outcome within a sweep.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job.
    pub spec: JobSpec,
    /// Its report (from the store or freshly computed).
    pub report: SimReport,
    /// Wall time in milliseconds: the stored value for cache hits, this
    /// run's execution time for misses (0 for a clone).
    pub wall_ms: f64,
    /// How `wall_ms` was obtained (see [`WallKind`]): a genuine per-job
    /// measurement, an equal share of a lockstep batch's wall, or 0 for
    /// a job whose report was cloned from the one job of its
    /// [`JobSpec::sim_identity`] group that ran. Clones appear on every
    /// path, batched or not, wherever a multi-seed sweep repeats a
    /// seed-insensitive scheme.
    pub wall: WallKind,
    /// Whether the result came from the store.
    pub cached: bool,
}

/// The result of a sweep: every job of the spec, in expansion order
/// (independent of worker count and steal interleaving).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-job outcomes in [`SweepSpec::expand`] order.
    pub jobs: Vec<JobOutcome>,
    /// Jobs served from the store.
    pub cache_hits: usize,
    /// Jobs this run produced (simulated or cloned from a simulated
    /// twin); `cache_hits + executed` covers the whole grid.
    pub executed: usize,
    /// Distinct simulations this run executed: one per
    /// [`JobSpec::sim_identity`] among the executed jobs.
    pub simulated: usize,
    /// Wall time of the whole sweep (lookup + execution + persistence).
    pub wall: Duration,
}

impl SweepOutcome {
    /// Fraction of jobs served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.cache_hits as f64 / self.jobs.len() as f64
        }
    }

    /// The report for one (already-expanded) job spec, if present.
    pub fn report_of(&self, spec: &JobSpec) -> Option<&SimReport> {
        self.jobs
            .iter()
            .find(|j| j.spec == *spec)
            .map(|j| &j.report)
    }
}

/// Why one job of a sweep failed — machine-readable, so a consumer (the
/// distributed-fabric coordinator re-leasing a crashed job, `valley
/// status` attaching a reason) can act on the kind without parsing the
/// human message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The simulation panicked; the pool's per-job isolation caught it.
    Panic,
    /// The simulation finished but the result store rejected the write.
    StoreWrite,
}

impl FailureKind {
    /// Stable identifier, used on the fabric wire and in status output.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::StoreWrite => "store-write",
        }
    }

    /// Parses a [`FailureKind::name`] string.
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "panic" => Some(FailureKind::Panic),
            "store-write" => Some(FailureKind::StoreWrite),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One job's structured failure: which job, what kind of failure, and
/// the human-readable detail (the panic payload or store error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure {
    /// The job that failed.
    pub spec: JobSpec,
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic message / store error text).
    pub message: String,
}

impl JobFailure {
    /// A panic-isolation failure.
    pub fn panic(spec: JobSpec, message: impl Into<String>) -> JobFailure {
        JobFailure {
            spec,
            kind: FailureKind::Panic,
            message: message.into(),
        }
    }

    /// A store-write failure.
    pub fn store_write(spec: JobSpec, message: impl Into<String>) -> JobFailure {
        JobFailure {
            spec,
            kind: FailureKind::StoreWrite,
            message: message.into(),
        }
    }

    /// The failure of `spec`, a clone of this failed job's simulation
    /// ([`JobSpec::sim_identity`]): it never ran, so it fails the same
    /// way.
    pub fn for_clone(&self, spec: JobSpec) -> JobFailure {
        JobFailure {
            spec,
            ..self.clone()
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.spec, self.kind, self.message)
    }
}

/// Errors from running a sweep.
#[derive(Debug)]
pub enum SweepError {
    /// One or more jobs failed; every failure is listed with a
    /// structured [`JobFailure`]. The survivors were still executed and
    /// persisted, so a re-run only retries the failures.
    Failures(Vec<JobFailure>),
    /// The result store rejected a read or write.
    Store(StoreError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Failures(failures) => {
                writeln!(f, "{} sweep job(s) failed:", failures.len())?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                Ok(())
            }
            SweepError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// Persists one freshly computed report and slots its outcome; a store
/// write error becomes that job's failure.
#[allow(clippy::too_many_arguments)]
fn record_fresh(
    store: &ResultStore,
    opts: &SweepOptions,
    idx: usize,
    report: SimReport,
    wall_ms: f64,
    wall: WallKind,
    jobs: &[JobSpec],
    outcomes: &mut [Option<JobOutcome>],
    failures: &mut Vec<JobFailure>,
) {
    let job = jobs[idx];
    if let Err(e) = store.put(&job, &report, wall_ms, wall) {
        failures.push(JobFailure::store_write(job, e.to_string()));
        return;
    }
    if opts.verbose && report.truncated {
        eprintln!("  WARNING: {job} hit the cycle limit");
    }
    outcomes[idx] = Some(JobOutcome {
        spec: job,
        report,
        wall_ms,
        wall,
        cached: false,
    });
}

/// Runs a sweep against a store: cache hits are served without
/// simulation, misses run in parallel with per-job panic isolation
/// (per-batch when batching via [`SweepOptions::batch`]), and every
/// fresh result is persisted before the function returns. Misses that
/// are the same simulation ([`JobSpec::sim_identity`]) run once: the
/// first in expansion order runs and the rest store its report as
/// [`WallKind::Cloned`].
pub fn run_sweep(
    spec: &SweepSpec,
    store: &ResultStore,
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    let start = Instant::now();
    let jobs = spec.expand();

    // Phase 1: serve from the store.
    let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
    let mut todo: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match (!opts.force).then(|| store.get(job)).flatten() {
            Some(stored) => outcomes.push(Some(JobOutcome {
                spec: *job,
                report: stored.report,
                wall_ms: stored.wall_ms,
                wall: stored.wall,
                cached: true,
            })),
            None => {
                outcomes.push(None);
                todo.push(i);
            }
        }
    }
    let cache_hits = jobs.len() - todo.len();

    // Phase 2: run one representative per distinct simulation
    // ([`JobSpec::sim_identity`]) on the work-stealing pool — one pool
    // unit per representative when unbatched, one per same-machine batch
    // of representatives through the lockstep engine when batching is
    // on. Phase 3 persists and assembles; failures are collected for a
    // loud, full report (a suite with holes would silently skew every
    // figure). A store write error becomes that job's failure rather
    // than aborting the drain: the remaining computed results still get
    // persisted and every failure is reported together.
    let (group_of, reps) = sim_groups(todo.iter().map(|&i| &jobs[i]));
    let rep_job = |g: usize| jobs[todo[reps[g]]];
    let width = if opts.batch == 0 {
        Batching::from_env().width()
    } else {
        opts.batch
    };
    let results: Vec<Result<LaneOutcome, String>> = if width <= 1 {
        let workers = opts
            .workers
            .unwrap_or_else(|| pool::default_workers(reps.len()));
        if opts.verbose && !todo.is_empty() {
            eprintln!(
                "sweep: {} jobs, {} cached, running {} as {} simulation(s) on {} worker(s)",
                jobs.len(),
                cache_hits,
                todo.len(),
                reps.len(),
                workers.clamp(1, reps.len()),
            );
        }
        pool::run_jobs(
            reps.len(),
            workers,
            |g| {
                let t = Instant::now();
                let report = execute_job(&rep_job(g));
                LaneOutcome {
                    report,
                    wall_ms: t.elapsed().as_secs_f64() * 1e3,
                    wall: WallKind::Measured,
                }
            },
            |done| {
                if opts.verbose {
                    let job = rep_job(done.index);
                    let stolen = if done.stolen { ", stolen" } else { "" };
                    match done.error {
                        None => eprintln!(
                            "  [{}/{}] {job}: {:.2?} (worker {}{stolen})",
                            done.completed, done.total, done.elapsed, done.worker
                        ),
                        Some(msg) => eprintln!(
                            "  [{}/{}] {job}: PANIC after {:.2?}: {msg}",
                            done.completed, done.total, done.elapsed
                        ),
                    }
                }
            },
        )
    } else {
        // Group the representatives into same-machine batches: an
        // order-preserving group-by on (config, scale, scheme), each
        // group chunked to at most `width` lanes. Benchmarks and seeds
        // may mix freely within a batch — only the clocks must agree,
        // and those are fixed by the config.
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut open: FastMap<(ConfigId, Scale, SchemeKind), usize> = FastMap::default();
        for g in 0..reps.len() {
            let job = rep_job(g);
            let key = (job.config, job.scale, job.scheme);
            match open.get(&key) {
                Some(&b) if batches[b].len() < width => batches[b].push(g),
                _ => {
                    open.insert(key, batches.len());
                    batches.push(vec![g]);
                }
            }
        }
        let workers = opts
            .workers
            .unwrap_or_else(|| pool::default_workers(batches.len()));
        if opts.verbose && !todo.is_empty() {
            eprintln!(
                "sweep: {} jobs, {} cached, running {} as {} simulation(s) in {} batch(es) \
                 of <= {} on {} worker(s)",
                jobs.len(),
                cache_hits,
                todo.len(),
                reps.len(),
                batches.len(),
                width,
                workers.clamp(1, batches.len()),
            );
        }
        let batch_results = pool::run_jobs(
            batches.len(),
            workers,
            |b| {
                let specs: Vec<JobSpec> = batches[b].iter().map(|&g| rep_job(g)).collect();
                // Wall attribution happens inside: the executor knows
                // which lanes it measured or averaged.
                execute_batch_timed(&specs)
            },
            |done| {
                if opts.verbose {
                    let batch = &batches[done.index];
                    let lead = rep_job(batch[0]);
                    let stolen = if done.stolen { ", stolen" } else { "" };
                    match done.error {
                        None => eprintln!(
                            "  [{}/{}] batch x{} ({lead}, ...): {:.2?} (worker {}{stolen})",
                            done.completed,
                            done.total,
                            batch.len(),
                            done.elapsed,
                            done.worker
                        ),
                        Some(msg) => eprintln!(
                            "  [{}/{}] batch x{} ({lead}, ...): PANIC after {:.2?}: {msg}",
                            done.completed,
                            done.total,
                            batch.len(),
                            done.elapsed
                        ),
                    }
                }
            },
        );
        // A lane's individual wall is unobservable inside a lockstep
        // batch; the executor attributes an equal share of the batch
        // wall to each lane and flags it [`WallKind::Averaged`], so the
        // stored record says what the number means. A batch shares one
        // panic: every lane in it needs a re-run, so every lane reports
        // the failure.
        let mut results: Vec<Option<Result<LaneOutcome, String>>> = vec![None; reps.len()];
        for (batch, result) in batches.iter().zip(batch_results) {
            match result {
                Ok(lanes) => {
                    for (&g, lane) in batch.iter().zip(lanes) {
                        results[g] = Some(Ok(lane));
                    }
                }
                Err(msg) => {
                    for &g in batch {
                        results[g] = Some(Err(format!("batched lane: {msg}")));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every representative is in one batch"))
            .collect()
    };

    // Phase 3, in expansion order: each representative keeps its own
    // wall; every other job of its group is its clone (the same report
    // at 0 ms, or the same failure).
    let results: Vec<Result<LaneOutcome, JobFailure>> = results
        .into_iter()
        .enumerate()
        .map(|(g, r)| r.map_err(|msg| JobFailure::panic(rep_job(g), msg)))
        .collect();
    let mut failures = Vec::new();
    for (k, &idx) in todo.iter().enumerate() {
        let g = group_of[k];
        let rep = reps[g] == k;
        match &results[g] {
            Ok(lane) => {
                let lane = if rep { lane.clone() } else { lane.as_clone() };
                record_fresh(
                    store,
                    opts,
                    idx,
                    lane.report,
                    lane.wall_ms,
                    lane.wall,
                    &jobs,
                    &mut outcomes,
                    &mut failures,
                );
            }
            Err(failure) if rep => failures.push(failure.clone()),
            Err(failure) => failures.push(failure.for_clone(jobs[idx])),
        }
    }
    if !failures.is_empty() {
        return Err(SweepError::Failures(failures));
    }

    Ok(SweepOutcome {
        jobs: outcomes
            .into_iter()
            .map(|o| o.expect("every non-failed job has an outcome"))
            .collect(),
        cache_hits,
        executed: todo.len(),
        simulated: reps.len(),
        wall: start.elapsed(),
    })
}
