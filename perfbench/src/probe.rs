//! Layer probes of a traced run. Each replays, once and after the timed
//! rounds, work that a public function does in one call, as the series
//! of public calls it is made of, with a span around each, and checks
//! that the replay gives the same result as the call.

use crate::sweeps::job_key;
use crate::{Ctx, Outcome};
use std::path::Path;
use valley_compute::{backend, BvrTable, ComputeScratch};
use valley_core::entropy::{application_entropy, EntropyMethod, TbBitStats};
use valley_core::{AddressMapper, EntropyProfile, GddrMap};
use valley_harness::JobSpec;
use valley_sim::{json, tb_request_addresses, GpuSim, SimReport, WorkloadSource};
use valley_workloads::analysis::{ADDR_BITS, ENTROPY_GRANULARITY};

/// Re-runs every job the way the harness's `execute_job` does (workload,
/// mapper, `GpuSim::new`, then `GpuSim::run`) and splits host time
/// between building the simulator and running it.
pub fn sim_replay(ctx: &Ctx, reports: &[(JobSpec, SimReport)], out: &mut Outcome) {
    let tr = &ctx.tracer;
    tr.next_trace();
    let mut sorted: Vec<&(JobSpec, SimReport)> = reports.iter().collect();
    sorted.sort_by_cached_key(|(job, _)| job_key(job));
    let (mut cycles, mut txns) = (0u64, 0u64);
    for (job, swept) in sorted {
        out.attempted += 1;
        if job.config.is_stacked() {
            out.failed += 1;
            out.notes
                .push(format!("replay covers GDDR configs only: {}", job_key(job)));
            continue;
        }
        let report = tr.span("bench.replay", || {
            let sim = tr.span("sim.build", || {
                let workload = Box::new(job.bench.workload(job.scale));
                let map = GddrMap::baseline();
                let mapper = AddressMapper::build(job.scheme, &map, job.seed);
                GpuSim::new(job.config.gpu_config(), mapper, map, workload)
            });
            tr.span("sim.run", || sim.run())
        });
        if report.results_json() != swept.results_json() {
            out.failed += 1;
            out.notes
                .push(format!("replay differs from sweep: {}", job_key(job)));
        }
        cycles += report.cycles;
        txns += report.memory_transactions;
    }
    let run_ms = tr.total_ms("sim.run");
    out.layer.extend([
        ("sim.build_ms", tr.total_ms("sim.build")),
        ("sim.run_ms", run_ms),
        ("sim.ns_per_cycle", run_ms * 1e6 / cycles.max(1) as f64),
        ("sim.ns_per_txn", run_ms * 1e6 / txns.max(1) as f64),
    ]);
}

/// Parses every stored line of the store at `dir` with `json::parse`
/// and decodes its report with `SimReport::from_json_value`.
pub fn json_pass(ctx: &Ctx, dir: &Path, out: &mut Outcome) {
    let tr = &ctx.tracer;
    tr.next_trace();
    let mut shards: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    shards.sort();
    let mut bytes = 0u64;
    for shard in shards {
        let text = match std::fs::read_to_string(&shard) {
            Ok(text) => text,
            Err(e) => {
                out.failed += 1;
                out.notes
                    .push(format!("cannot read {}: {e}", shard.display()));
                continue;
            }
        };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            out.attempted += 1;
            bytes += line.len() as u64;
            let decoded = tr
                .span("json.parse", || json::parse(line))
                .map_err(|e| e.to_string())
                .and_then(|v| {
                    let report = v
                        .get("report")
                        .ok_or_else(|| "record has no report".to_string())?;
                    tr.span("json.report_decode", || SimReport::from_json_value(report))
                });
            if let Err(e) = decoded {
                out.failed += 1;
                out.notes.push(format!("stored line does not decode: {e}"));
            }
        }
    }
    out.layer.extend([
        ("json.parse_ms", tr.total_ms("json.parse")),
        ("json.bytes", bytes as f64),
    ]);
}

/// Totals of one pass of the entropy analytics, split by layer.
#[derive(Default)]
pub struct Analytics {
    pub requests: u64,
    pub addrs: u64,
}

/// `analysis::application_profile` as the calls it makes: per thread
/// block, `tb_request_addresses`, then the compute backend's BIM map and
/// BVR sweep; per kernel, the window-entropy sweep. Returns the profile
/// so the caller can compare it with `application_profile`'s.
pub fn application_profile(
    ctx: &Ctx,
    workload: &dyn WorkloadSource,
    window: usize,
    mapper: Option<&AddressMapper>,
    totals: &mut Analytics,
) -> EntropyProfile {
    let tr = &ctx.tracer;
    let be = backend();
    let mut scratch = ComputeScratch::new();
    let mut mapped = Vec::new();
    let kernels: Vec<EntropyProfile> = (0..workload.num_kernels())
        .map(|k| {
            let kernel = workload.kernel(k);
            let tbs: Vec<TbBitStats> = (0..kernel.num_thread_blocks())
                .map(|tb| {
                    let addrs = tr.span("trace.tb_request_addresses", || {
                        tb_request_addresses(kernel.as_ref(), tb, ENTROPY_GRANULARITY)
                    });
                    totals.requests += addrs.len() as u64;
                    let addrs: &[u64] = match mapper {
                        Some(m) => {
                            tr.span("compute.bim_apply_batch", || {
                                be.bim_apply_batch(m.bim(), &addrs, &mut mapped, &mut scratch)
                            });
                            totals.addrs += addrs.len() as u64;
                            &mapped
                        }
                        None => &addrs,
                    };
                    let mut ones = vec![0u64; ADDR_BITS as usize];
                    tr.span("compute.bvr_sweep", || {
                        be.bvr_sweep(addrs, &mut ones, &mut scratch)
                    });
                    totals.addrs += addrs.len() as u64;
                    TbBitStats::from_counts(tb, addrs.len() as u64, ones)
                })
                .collect();
            let table = BvrTable::from_tb_stats(&tbs);
            let mut per_bit = Vec::new();
            tr.span("compute.window_entropy_sweep", || {
                be.window_entropy_sweep(
                    &table,
                    window,
                    EntropyMethod::MixtureBvr,
                    &mut per_bit,
                    &mut scratch,
                )
            });
            EntropyProfile::from_per_bit(per_bit, table.requests())
        })
        .collect();
    application_entropy(&kernels)
}

/// Fills the trace and compute metrics from the spans of the analytics
/// probe.
pub fn analytics_metrics(ctx: &Ctx, totals: &Analytics, out: &mut Outcome) {
    let tr = &ctx.tracer;
    out.layer.extend([
        ("trace.addrs_ms", tr.total_ms("trace.tb_request_addresses")),
        ("trace.requests", totals.requests as f64),
        (
            "compute.bim_apply_ms",
            tr.total_ms("compute.bim_apply_batch"),
        ),
        ("compute.bvr_sweep_ms", tr.total_ms("compute.bvr_sweep")),
        (
            "compute.entropy_sweep_ms",
            tr.total_ms("compute.window_entropy_sweep"),
        ),
        ("compute.addrs", totals.addrs as f64),
    ]);
}
