//! The job model: a [`SweepSpec`] expands the experiment grid
//! (benchmark × scheme × seed × scale × config) into deterministic,
//! content-hashed [`JobSpec`]s, and [`execute_job`] runs one of them.
//!
//! Every job has a canonical key string (see [`JobKey`]) that includes
//! the harness schema version; its FNV-1a hash addresses the result
//! store. Two jobs collide only if they are the same experiment, so a
//! stored result can be reused by any future sweep, figure or ablation
//! that asks for the same point of the grid.

use std::sync::Arc;
use valley_core::hash::FastMap;
use valley_core::{AddressMapper, DramAddressMap, GddrMap, SchemeKind, StackedMap};
use valley_sim::{BatchSim, GpuConfig, GpuSim, SimReport};
use valley_workloads::{Benchmark, Scale};

/// Version of the job-key schema. Bump when the canonical key format,
/// the simulator's observable semantics, or the stored record layout
/// changes incompatibly: old store entries then fail loudly on load
/// instead of silently serving stale results.
///
/// v2: stored reports gained the epoch-histogram engine diagnostics
/// (report schema v2), so v1 records no longer parse; run `valley gc`
/// to drop them and re-sweep.
pub const SCHEMA_VERSION: u32 = 2;

/// The BIM seed used for the headline results (the paper generates three
/// random BIMs per scheme and reports the best; Figure 19 shows the
/// spread).
pub const DEFAULT_SEED: u64 = 1;

/// Identifies the GPU/memory configuration a job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigId {
    /// The paper's baseline GDDR5 GPU (Table I).
    Table1,
    /// The 3D-stacked memory configuration (Figure 18, rightmost group).
    Stacked,
    /// Table I with a different SM count (Figure 18's scaling sweep).
    Sms(u32),
}

impl ConfigId {
    /// Stable identifier used in job keys and CLI flags.
    pub fn name(self) -> String {
        match self {
            ConfigId::Table1 => "table1".to_string(),
            ConfigId::Stacked => "stacked".to_string(),
            ConfigId::Sms(n) => format!("sms{n}"),
        }
    }

    /// Parses a [`ConfigId::name`] string.
    pub fn parse(s: &str) -> Option<ConfigId> {
        match s {
            "table1" => Some(ConfigId::Table1),
            "stacked" => Some(ConfigId::Stacked),
            _ => {
                let n: u32 = s.strip_prefix("sms")?.parse().ok()?;
                (n > 0).then_some(ConfigId::Sms(n))
            }
        }
    }

    /// The simulator configuration this id denotes.
    pub fn gpu_config(self) -> GpuConfig {
        match self {
            ConfigId::Table1 => GpuConfig::table1(),
            ConfigId::Stacked => GpuConfig::stacked(),
            ConfigId::Sms(n) => GpuConfig::table1().with_sms(n as usize),
        }
    }

    /// Whether this configuration uses the 3D-stacked address map.
    pub fn is_stacked(self) -> bool {
        self == ConfigId::Stacked
    }
}

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// One point of the experiment grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The workload.
    pub bench: Benchmark,
    /// The address-mapping scheme.
    pub scheme: SchemeKind,
    /// The BIM seed (ignored by the deterministic BASE/PM/RMP schemes,
    /// but still part of the key — keys describe the request, not the
    /// scheme's internals).
    pub seed: u64,
    /// The workload scale.
    pub scale: Scale,
    /// The GPU/memory configuration.
    pub config: ConfigId,
}

impl JobSpec {
    /// The job's content-addressed key.
    pub fn key(&self) -> JobKey {
        JobKey::of(self)
    }

    /// The simulation this job runs: the spec with its seed set to 0
    /// when the scheme never reads it. BASE/PM/RMP build one BIM for
    /// every seed ([`SchemeKind::is_randomized`]), and the seed reaches
    /// the simulator only through that construction, so two jobs with
    /// equal identities produce bit-identical reports. This is the
    /// harness's one definition of "same simulation": the sweep, the
    /// batch engine and the fabric coordinator all run one job per
    /// identity and clone its report to the rest.
    pub fn sim_identity(&self) -> JobSpec {
        JobSpec {
            seed: if self.scheme.is_randomized() {
                self.seed
            } else {
                0
            },
            ..*self
        }
    }

    /// Short human-readable label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{}/{} s{} @{} {}",
            self.bench, self.scheme, self.seed, self.scale, self.config
        )
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The content-addressed identity of a job: a canonical key string (the
/// exact experiment coordinates plus [`SCHEMA_VERSION`]) and its 64-bit
/// FNV-1a hash, which addresses the store and selects the shard.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    canonical: String,
    hash: u64,
}

impl JobKey {
    /// Builds the key of a job spec.
    pub fn of(spec: &JobSpec) -> JobKey {
        let canonical = format!(
            "schema={};bench={};scheme={};seed={};scale={};config={}",
            SCHEMA_VERSION,
            spec.bench.label(),
            spec.scheme.label(),
            spec.seed,
            spec.scale.name(),
            spec.config.name(),
        );
        let hash = fnv1a(canonical.as_bytes());
        JobKey { canonical, hash }
    }

    /// The canonical key string.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 64-bit content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The hash in fixed-width hex (file-name and JSON friendly).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// Which of `shards` store shards this key lands in.
    pub fn shard(&self, shards: usize) -> usize {
        (self.hash % shards as u64) as usize
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sweep over the cross product of benchmarks × schemes × seeds ×
/// configs at one scale. Expansion order is deterministic (and
/// independent of how many workers later run the jobs): configs, then
/// benchmarks, then schemes, then seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// The benchmarks to run.
    pub benches: Vec<Benchmark>,
    /// The mapping schemes to run.
    pub schemes: Vec<SchemeKind>,
    /// The BIM seeds to run (the paper uses best-of-3 for PAE/FAE/ALL).
    pub seeds: Vec<u64>,
    /// The workload scale.
    pub scale: Scale,
    /// The GPU/memory configurations.
    pub configs: Vec<ConfigId>,
}

impl SweepSpec {
    /// A single-seed, baseline-config sweep — the shape every figure
    /// consumes.
    pub fn new(benches: &[Benchmark], schemes: &[SchemeKind], scale: Scale) -> Self {
        SweepSpec {
            benches: benches.to_vec(),
            schemes: schemes.to_vec(),
            seeds: vec![DEFAULT_SEED],
            scale,
            configs: vec![ConfigId::Table1],
        }
    }

    /// Replaces the seed list (builder style).
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Replaces the config list (builder style).
    pub fn with_configs(mut self, configs: &[ConfigId]) -> Self {
        self.configs = configs.to_vec();
        self
    }

    /// Expands the grid into concrete jobs, deterministically ordered.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(
            self.configs.len() * self.benches.len() * self.schemes.len() * self.seeds.len(),
        );
        for &config in &self.configs {
            for &bench in &self.benches {
                for &scheme in &self.schemes {
                    for &seed in &self.seeds {
                        jobs.push(JobSpec {
                            bench,
                            scheme,
                            seed,
                            scale: self.scale,
                            config,
                        });
                    }
                }
            }
        }
        jobs
    }
}

/// Groups jobs by [`JobSpec::sim_identity`]. Returns each job's group
/// (by position in `specs`) and, per group, the position of its first
/// member — the representative that runs — in order of first
/// appearance. Every other member of a group is a clone of it.
pub fn sim_groups<'a>(specs: impl IntoIterator<Item = &'a JobSpec>) -> (Vec<usize>, Vec<usize>) {
    let mut seen: FastMap<JobSpec, usize> = FastMap::default();
    let mut reps = Vec::new();
    let group_of = specs
        .into_iter()
        .enumerate()
        .map(|(pos, spec)| {
            *seen.entry(spec.sim_identity()).or_insert_with(|| {
                reps.push(pos);
                reps.len() - 1
            })
        })
        .collect();
    (group_of, reps)
}

/// Runs one job to completion and returns its report. This is the only
/// place the harness touches the simulator; everything above it deals in
/// keys and stored results.
pub fn execute_job(spec: &JobSpec) -> SimReport {
    let cfg = spec.config.gpu_config();
    let workload = Box::new(spec.bench.workload(spec.scale));
    if spec.config.is_stacked() {
        let map = StackedMap::baseline();
        let mapper = AddressMapper::build(spec.scheme, &map, spec.seed);
        GpuSim::new(cfg, mapper, map, workload).run()
    } else {
        let map = GddrMap::baseline();
        let mapper = AddressMapper::build(spec.scheme, &map, spec.seed);
        GpuSim::new(cfg, mapper, map, workload).run()
    }
}

/// How a result's `wall_ms` was obtained — stored with the record so
/// perf fingerprints (the bench gate, `valley status`) can tell genuine
/// measurements from batch-wall attributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WallKind {
    /// The job executed alone and was timed directly.
    Measured,
    /// The job ran as one lane of a lockstep batch: the batch wall was
    /// split evenly over the batch's lanes, so the value is an
    /// attribution, not a measurement.
    Averaged,
    /// The job's report was cloned from another job of the same
    /// simulation ([`JobSpec::sim_identity`]: a deterministic scheme
    /// swept over seeds), in a sweep or a fabric serve; it cost nothing
    /// and the stored value is 0.
    Cloned,
}

impl WallKind {
    /// Stable identifier used in stored records and wire messages.
    pub fn as_str(self) -> &'static str {
        match self {
            WallKind::Measured => "measured",
            WallKind::Averaged => "averaged",
            WallKind::Cloned => "cloned",
        }
    }

    /// Parses [`WallKind::as_str`].
    pub fn parse(s: &str) -> Option<WallKind> {
        match s {
            "measured" => Some(WallKind::Measured),
            "averaged" => Some(WallKind::Averaged),
            "cloned" => Some(WallKind::Cloned),
            _ => None,
        }
    }

    /// Whether the value is a genuine single-job measurement, usable as
    /// a perf fingerprint. Averaged and cloned walls describe scheduling
    /// economics, not simulation speed.
    pub fn is_measured(self) -> bool {
        self == WallKind::Measured
    }
}

/// One batched lane's outcome: the report plus the lane's wall-clock
/// attribution (see [`WallKind`]).
#[derive(Clone, Debug)]
pub struct LaneOutcome {
    /// The lane's simulation report.
    pub report: SimReport,
    /// Wall milliseconds attributed to this lane. Sums to the batch's
    /// measured wall across the lanes.
    pub wall_ms: f64,
    /// How `wall_ms` was obtained.
    pub wall: WallKind,
}

impl LaneOutcome {
    /// The outcome of a job whose report is cloned from this one, its
    /// [`JobSpec::sim_identity`] twin that ran: the same report at 0 ms,
    /// flagged [`WallKind::Cloned`].
    pub fn as_clone(&self) -> LaneOutcome {
        LaneOutcome {
            report: self.report.clone(),
            wall_ms: 0.0,
            wall: WallKind::Cloned,
        }
    }
}

/// Runs a batch of same-machine jobs through the lockstep batched
/// engine ([`BatchSim`]) and returns their reports in `specs` order —
/// each bit-identical to what [`execute_job`] would have produced for
/// that spec alone. The lanes share one config and one address-map
/// allocation; batch width is pure scheduling and is deliberately not
/// part of any job key. See [`execute_batch_timed`] for the wall-clock
/// attribution.
pub fn execute_batch(specs: &[JobSpec]) -> Vec<SimReport> {
    execute_batch_timed(specs)
        .into_iter()
        .map(|o| o.report)
        .collect()
}

/// [`execute_batch`] with per-lane wall attribution.
///
/// Every lane is simulated, duplicates included: seed dedupe happens
/// before a batch is formed ([`crate::run_sweep`] and the fabric
/// coordinator hand out one job per [`JobSpec::sim_identity`]), so a
/// repeated lane here is only simulated twice, never wrong.
///
/// Wall attribution is honest about what the engine can and cannot
/// measure: a lone job is [`WallKind::Measured`]; lockstep lanes
/// interleave on one clock, so each gets an equal share of the batch
/// wall flagged [`WallKind::Averaged`]. The shares always sum to the
/// measured batch wall.
///
/// All specs must share the same [`ConfigId`] (the sweep batcher groups
/// on (config, scale, scheme)); [`BatchSim::new`] enforces the clock
/// agreement that actually matters.
pub fn execute_batch_timed(specs: &[JobSpec]) -> Vec<LaneOutcome> {
    if specs.len() == 1 {
        let start = std::time::Instant::now();
        let report = execute_job(&specs[0]);
        return vec![LaneOutcome {
            report,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            wall: WallKind::Measured,
        }];
    }
    debug_assert!(
        specs.iter().all(|s| s.config == specs[0].config),
        "batched jobs must share a machine configuration"
    );
    let cfg = Arc::new(specs[0].config.gpu_config());
    let map: Arc<dyn DramAddressMap + Send + Sync> = if specs[0].config.is_stacked() {
        Arc::new(StackedMap::baseline())
    } else {
        Arc::new(GddrMap::baseline())
    };
    let sims = specs
        .iter()
        .map(|spec| {
            let mapper = AddressMapper::build(spec.scheme, &*map, spec.seed);
            let workload = Box::new(spec.bench.workload(spec.scale));
            GpuSim::with_shared(Arc::clone(&cfg), mapper, Arc::clone(&map), workload)
        })
        .collect();
    let start = std::time::Instant::now();
    let reports = BatchSim::new(sims).run();
    let share_ms = start.elapsed().as_secs_f64() * 1e3 / specs.len() as f64;
    reports
        .into_iter()
        .map(|report| LaneOutcome {
            report,
            wall_ms: share_ms,
            wall: WallKind::Averaged,
        })
        .collect()
}

/// Parses a scheme label (case-insensitive) — the inverse of
/// [`SchemeKind::label`].
pub fn parse_scheme(s: &str) -> Option<SchemeKind> {
    SchemeKind::ALL_SCHEMES
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            bench: Benchmark::Mt,
            scheme: SchemeKind::Pae,
            seed: 1,
            scale: Scale::Test,
            config: ConfigId::Table1,
        }
    }

    #[test]
    fn keys_are_deterministic_and_canonical() {
        let k1 = spec().key();
        let k2 = spec().key();
        assert_eq!(k1, k2);
        assert_eq!(
            k1.canonical(),
            format!("schema={SCHEMA_VERSION};bench=MT;scheme=PAE;seed=1;scale=test;config=table1")
        );
        assert_eq!(k1.hash_hex().len(), 16);
        assert!(k1.shard(16) < 16);
    }

    #[test]
    fn keys_separate_every_grid_axis() {
        let base = spec();
        let variants = [
            JobSpec {
                bench: Benchmark::Lu,
                ..base
            },
            JobSpec {
                scheme: SchemeKind::Base,
                ..base
            },
            JobSpec { seed: 2, ..base },
            JobSpec {
                scale: Scale::Ref,
                ..base
            },
            JobSpec {
                config: ConfigId::Stacked,
                ..base
            },
            JobSpec {
                config: ConfigId::Sms(24),
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.key(), base.key(), "{v}");
            assert_ne!(v.key().hash(), base.key().hash(), "{v}");
        }
    }

    #[test]
    fn full_grid_has_no_hash_collisions() {
        use std::collections::HashMap;
        let spec = SweepSpec {
            benches: Benchmark::ALL.to_vec(),
            schemes: SchemeKind::ALL_SCHEMES.to_vec(),
            seeds: vec![1, 2, 3],
            scale: Scale::Ref,
            configs: vec![ConfigId::Table1, ConfigId::Stacked, ConfigId::Sms(24)],
        };
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 16 * 6 * 3 * 3);
        let mut seen: HashMap<u64, String> = HashMap::new();
        for j in jobs {
            let k = j.key();
            if let Some(prev) = seen.insert(k.hash(), k.canonical().to_string()) {
                panic!("hash collision: {prev} vs {}", k.canonical());
            }
        }
    }

    #[test]
    fn expansion_order_is_deterministic() {
        let s = SweepSpec::new(
            &[Benchmark::Mt, Benchmark::Sp],
            &[SchemeKind::Base, SchemeKind::Pae],
            Scale::Test,
        );
        let jobs = s.expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].bench, Benchmark::Mt);
        assert_eq!(jobs[0].scheme, SchemeKind::Base);
        assert_eq!(jobs[1].scheme, SchemeKind::Pae);
        assert_eq!(jobs[2].bench, Benchmark::Sp);
        assert_eq!(s.expand(), jobs);
    }

    #[test]
    fn config_names_round_trip() {
        for c in [ConfigId::Table1, ConfigId::Stacked, ConfigId::Sms(24)] {
            assert_eq!(ConfigId::parse(&c.name()), Some(c));
        }
        assert_eq!(ConfigId::parse("sms0"), None);
        assert_eq!(ConfigId::parse("nope"), None);
        assert_eq!(ConfigId::Sms(48).gpu_config().num_sms, 48);
    }

    #[test]
    fn scheme_labels_parse() {
        for k in SchemeKind::ALL_SCHEMES {
            assert_eq!(parse_scheme(k.label()), Some(k));
            assert_eq!(parse_scheme(&k.label().to_lowercase()), Some(k));
        }
        assert_eq!(parse_scheme("XYZ"), None);
    }
}
