//! `figures-warm`: one caller regenerates figures in a closed loop from
//! a store populated during set-up. Nothing is simulated in the loop.

use crate::calib::HostSpeed;
use crate::span::Tracer;
use crate::stats::{median, trimmed_mean};
use crate::sweeps::{
    check_reports, grid, model_counters, store_bytes, sweep_opts, zero_layers, BEST_OF_3,
};
use crate::{probe, rounds, Ctx, Outcome, Rounds};
use std::path::PathBuf;
use std::time::Instant;
use valley_bench::figures::fig12_text;
use valley_bench::{amean, Suite};
use valley_core::{AddressMapper, DramAddressMap, EntropyProfile, GddrMap, SchemeKind};
use valley_harness::{run_sweep, JobSpec, ResultStore, SweepSpec, DEFAULT_SEED};
use valley_power::{DramPower, DramPowerModel};
use valley_sim::SimReport;
use valley_workloads::{analysis, Benchmark, Scale, Workload};

/// The concurrency window of the entropy panels (the SM count, as in
/// the paper and the fig05/fig10 binaries).
const WINDOW: usize = 12;

/// Set-up repetitions; `setup_s` is their median. Each populates a
/// store by simulating the whole grid, so there are few.
const SETUP_REPS: usize = 3;

/// Pin key of the rendered text of one regeneration.
const TEXT_PIN: &str = "figures-warm/text";

/// The Figure 16 DRAM power breakdown of `suite`, in Watts averaged over
/// its benchmarks, one row per scheme. `figures::fig16` only prints, so
/// the benchmark formats the table itself; the `power.evaluate` span
/// covers just the calls into the power model.
fn power_table(tr: &Tracer, suite: &Suite) -> String {
    let model = DramPowerModel::gddr5();
    let by_scheme: Vec<(SchemeKind, Vec<DramPower>)> = tr.span("power.evaluate", || {
        SchemeKind::ALL_SCHEMES
            .into_iter()
            .map(|scheme| {
                let powers = suite
                    .iter()
                    .filter(|((_, s), _)| *s == scheme)
                    .map(|(_, r)| model.evaluate(r))
                    .collect();
                (scheme, powers)
            })
            .collect()
    });
    let mut text = format!(
        "\nFigure 16: DRAM power (W)\n{:<8}{:>12}{:>12}{:>12}{:>12}{:>12}\n",
        "scheme", "background", "activate", "read", "write", "total"
    );
    for (scheme, powers) in by_scheme {
        let mean = |f: &dyn Fn(&DramPower) -> f64| amean(&powers.iter().map(f).collect::<Vec<_>>());
        let (bg, act, rd, wr) = (
            mean(&|p| p.background),
            mean(&|p| p.activate),
            mean(&|p| p.read),
            mean(&|p| p.write),
        );
        text.push_str(&format!(
            "{:<8}{bg:>12.1}{act:>12.1}{rd:>12.1}{wr:>12.1}{:>12.1}\n",
            scheme.label(),
            bg + act + rd + wr
        ));
    }
    text
}

/// The inputs set-up builds: the populated store and the entropy
/// panels' workloads and mapper.
struct Inputs {
    dir: PathBuf,
    stored: Vec<(JobSpec, SimReport)>,
    expand_ms: f64,
    panels: Vec<(Benchmark, Workload)>,
    pae: AddressMapper,
}

/// Builds the inputs and returns them with the set-up's wall in nominal
/// seconds. The store is populated one benchmark at a time on one pool
/// worker, each benchmark's sweep right after a host-speed sample whose
/// factor converts that sweep's wall (see `calib`); the rest of the
/// set-up is converted with the sweeps' mean factor. The samples are
/// left out.
fn set_up(ctx: &Ctx, spec: &SweepSpec, speed: &mut HostSpeed) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    std::hint::black_box(spec.expand());
    let expand_ms = start.elapsed().as_secs_f64() * 1e3;
    let dir = ctx.dir("warm-store");
    let store = ResultStore::open(&dir).map_err(|e| format!("warm store: {e}"))?;
    let mut stored = Vec::new();
    let (mut sampled_s, mut swept_s, mut nominal_s) = (0.0, 0.0, 0.0);
    for &bench in &spec.benches {
        let t = Instant::now();
        let factor = speed.sample();
        sampled_s += t.elapsed().as_secs_f64();
        let part = SweepSpec {
            benches: vec![bench],
            ..spec.clone()
        };
        let t = Instant::now();
        let cold = run_sweep(&part, &store, &sweep_opts(1))
            .map_err(|e| format!("populating the warm store: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        swept_s += wall;
        nominal_s += wall * factor;
        stored.extend(cold.jobs.into_iter().map(|j| (j.spec, j.report)));
    }
    // Canonical panel order: the rendered text is pinned.
    let panels = Benchmark::ALL
        .into_iter()
        .map(|b| (b, b.workload(Scale::Ref)))
        .collect();
    let pae = AddressMapper::build(SchemeKind::Pae, &GddrMap::baseline(), DEFAULT_SEED);
    let rest_s = start.elapsed().as_secs_f64() - sampled_s - swept_s;
    nominal_s += rest_s * nominal_s / swept_s;
    let inputs = Inputs {
        dir,
        stored,
        expand_ms,
        panels,
        pae,
    };
    Ok((inputs, nominal_s))
}

/// What one regeneration did.
struct Regen {
    /// Host wall of the regeneration.
    wall_s: f64,
    /// Factor of the host-speed sample taken right before it.
    factor: f64,
    open_ms: f64,
    sweep_ms: f64,
    render_ms: f64,
    records: usize,
    served_insts: f64,
    text: String,
    profiles: Vec<EntropyProfile>,
    failed: u64,
    notes: Vec<String>,
}

/// Opens the store, serves the grid from it with a warm `run_sweep`,
/// renders the store-fed tables for each BIM seed and computes the
/// Ref-scale entropy panels, unmapped and under PAE.
fn regenerate(tr: &Tracer, spec: &SweepSpec, inputs: &Inputs, factor: f64) -> Regen {
    let mut r = Regen {
        wall_s: 0.0,
        factor,
        open_ms: 0.0,
        sweep_ms: 0.0,
        render_ms: 0.0,
        records: 0,
        served_insts: 0.0,
        text: String::new(),
        profiles: Vec::new(),
        failed: 0,
        notes: Vec::new(),
    };
    let start = Instant::now();
    let store = match tr.span("store.open", || ResultStore::open(&inputs.dir)) {
        Ok(store) => store,
        Err(e) => {
            r.failed = 1;
            r.notes.push(format!("store open failed: {e}"));
            return r;
        }
    };
    r.open_ms = start.elapsed().as_secs_f64() * 1e3;
    r.records = store.len();
    let t = Instant::now();
    let warm = tr.span("harness.run_sweep", || {
        run_sweep(spec, &store, &sweep_opts(1))
    });
    r.sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let jobs = match warm {
        Ok(out) if out.executed == 0 => out.jobs,
        Ok(out) => {
            r.failed = 1;
            r.notes
                .push(format!("warm sweep simulated {} jobs", out.executed));
            return r;
        }
        Err(e) => {
            r.failed = 1;
            r.notes.push(format!("warm sweep failed: {e}"));
            return r;
        }
    };
    r.served_insts = jobs.iter().map(|j| j.report.warp_instructions as f64).sum();
    for seed in BEST_OF_3 {
        let suite: Suite = jobs
            .iter()
            .filter(|j| j.spec.seed == seed)
            .map(|j| ((j.spec.bench, j.spec.scheme), j.report.clone()))
            .collect();
        let title = format!("Figure 12: speedup over BASE, BIM seed {seed}");
        let t = Instant::now();
        r.text += &tr.span("figures.fig12_text", || fig12_text(&suite, &title));
        r.render_ms += t.elapsed().as_secs_f64() * 1e3;
        r.text += &power_table(tr, &suite);
    }
    let map = GddrMap::baseline();
    let (targets, candidates) = (map.target_field_bits(), map.non_block_bits());
    for (bench, workload) in &inputs.panels {
        for (label, mapper) in [("BASE", None), ("PAE", Some(&inputs.pae))] {
            let p = tr.unsplit("workloads.application_profile", || {
                analysis::application_profile(workload, WINDOW, mapper)
            });
            r.text += &format!(
                "--- {bench} {label} (requests: {}, mean H* over ch/bank bits: {:.2}, valley score: {:.2})\n{}",
                p.requests(),
                p.mean_over(&targets),
                p.valley_score(&targets, &candidates),
                p.ascii_chart(6, 29)
            );
            r.profiles.push(p);
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Runs the analytics probe over every panel and counts panels whose
/// replayed profile differs from `application_profile`'s.
fn analytics_probe(ctx: &Ctx, inputs: &Inputs, profiles: &[EntropyProfile], out: &mut Outcome) {
    ctx.tracer.next_trace();
    let mut totals = probe::Analytics::default();
    let mut expected = profiles.iter();
    for (bench, workload) in &inputs.panels {
        for mapper in [None, Some(&inputs.pae)] {
            out.attempted += 1;
            let p = ctx.tracer.span("bench.analytics_replay", || {
                probe::application_profile(ctx, workload, WINDOW, mapper, &mut totals)
            });
            let same = expected.next().is_some_and(|e| {
                e.requests() == p.requests()
                    && e.per_bit()
                        .iter()
                        .map(|x| x.to_bits())
                        .eq(p.per_bit().iter().map(|x| x.to_bits()))
            });
            if !same {
                out.failed += 1;
                out.notes
                    .push(format!("analytics replay differs for {bench}"));
            }
        }
    }
    probe::analytics_metrics(ctx, &totals, out);
}

/// `figures-warm`: populate a store in set-up, then regenerate figures
/// from it in a closed loop.
pub fn figures_warm(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = grid(Scale::Small, &BEST_OF_3);
    let mut speed = HostSpeed::default();
    let mut setup_walls = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (built, nominal_s) = set_up(ctx, &spec, &mut speed)?;
        inputs = Some(built);
        setup_walls.push(nominal_s);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut out = Outcome::default();
    out.e2e.insert("setup_s", median(&setup_walls));
    out.attempted += inputs.stored.len() as u64;
    out.failed += check_reports(ctx, &inputs.stored, &mut out.notes);
    // Each regeneration is checked as soon as it ends and keeps only its
    // figures; the first one's text and profiles are kept to compare the
    // others and the analytics probe with.
    let mut first: Option<(String, Vec<EntropyProfile>)> = None;
    let mut count = 0;
    let Rounds {
        plain,
        traced,
        traces,
    } = rounds(ctx, |tr| {
        let factor = tr.span("calib.reference", || speed.sample());
        let mut r = regenerate(tr, &spec, &inputs, factor);
        count += 1;
        if r.failed == 0 {
            let text = std::mem::take(&mut r.text);
            let pinned = ctx.check(TEXT_PIN, &text);
            let same = first.as_ref().is_none_or(|(t, _)| *t == text);
            if pinned.is_some() || !same {
                r.failed += 1;
                r.notes.push(format!(
                    "regeneration {count}: rendered text differs from the pin or the first"
                ));
                r.notes.extend(pinned);
            }
            if first.is_none() {
                first = Some((text, std::mem::take(&mut r.profiles)));
            }
        }
        r.profiles = Vec::new();
        r
    });
    for regen in plain.iter().chain(&traced) {
        out.attempted += 1;
        out.failed += regen.failed;
        out.notes.extend(regen.notes.iter().cloned());
    }
    // Regeneration walls in nominal seconds (see `calib`).
    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s * r.factor).collect();
    let run_s = trimmed_mean(&walls);
    out.e2e.insert("run_s", run_s);
    out.e2e
        .insert("sim_mips", plain[0].served_insts / 1e6 / run_s);
    out.latencies(
        "figure regeneration (nominal wall)",
        &walls.iter().map(|w| w * 1e3).collect::<Vec<_>>(),
    );
    let host_walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    out.notes.push(format!(
        "regenerations: {} untraced, {} traced; {} stored records, {} entropy panels",
        plain.len(),
        traced.len(),
        plain[0].records,
        2 * inputs.panels.len()
    ));
    out.notes.push(format!(
        "host speed: {}; host run_s {} s, host latency_p50_ms {} ms",
        speed.summary(),
        trimmed_mean(&host_walls),
        median(&host_walls) * 1e3
    ));

    if ctx.traced {
        zero_layers(&mut out);
        let med = |f: &dyn Fn(&Regen) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        out.layer.extend([
            ("sweep.expand_ms", inputs.expand_ms),
            ("sweep.overhead_ms", med(&|r| r.sweep_ms)),
            ("store.resume_ms", med(&|r| r.sweep_ms)),
            ("store.open_ms", med(&|r| r.open_ms)),
            ("store.records", traced[0].records as f64),
            ("store.bytes", store_bytes(&inputs.dir) as f64),
            ("figures.render_ms", med(&|r| r.render_ms)),
            (
                "tracing.overhead_s",
                med(&|r| r.wall_s) - median(&host_walls),
            ),
        ]);
        model_counters(&inputs.stored, &mut out);
        out.self_times(&ctx.tracer, &traces);
        probe::json_pass(ctx, &inputs.dir, &mut out);
        let profiles = first.map(|(_, p)| p).unwrap_or_default();
        analytics_probe(ctx, &inputs, &profiles, &mut out);
    }
    std::fs::remove_dir_all(&inputs.dir).ok();
    Ok(out)
}
