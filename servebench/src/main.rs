//! `servebench` — the serving benchmark of the GHSOM daemon.
//!
//! ```text
//! servebench --workload <edge_lockstep|bulk_observe|fleet_fanout> --seed <n>
//!            --seconds <s> --trace <0|1> [--record <file.json>]
//! servebench compare <a.json> <b.json>
//! ```
//!
//! A run trains the paper engine on the pinned corpus, serves it from real
//! `ghsom-daemon` child processes on loopback, drives one workload's
//! seeded traffic from this single thread, checks every verdict bit for
//! bit against the in-process `Engine`, and prints its metrics: a table
//! for people, then one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the workload's batches through each
//! layer's public calls and reports the per-layer ledger. See
//! `servebench/README.md`.
//!
//! The script `servebench/run.sh` builds the daemon and this binary and
//! passes the daemon's path, the toolchain and the commit in
//! `SERVEBENCH_DAEMON`, `SERVEBENCH_RUSTC` and `SERVEBENCH_COMMIT`;
//! `SERVEBENCH_WORK` names the directory for spools.

mod affinity;
mod daemon;
mod host;
mod ledger;
mod scrape;
mod session;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use detect::prelude::HybridGhsomDetector;
use featurize::{FeatureMatrix, KddPipeline};
use ghsom_comms::{FleetNode, FleetNodeConfig, NodeEvent, Replicator};
use ghsom_core::GhsomModel;
use ghsom_daemon::protocol::{
    self, BatchMode, BatchRequest, FrameType, Request, Response, VerdictPayload, HEADER_LEN,
};
use ghsom_serve::{Engine, ShardedEngine, SnapshotView};
use serde::{Deserialize, Serialize};
use traffic::{AttackCategory, ConnectionRecord};

use crate::affinity::CpuSet;
use crate::daemon::DaemonChild;
use crate::host::Host;
use crate::session::{Phase, Session};
use crate::trace::Tracer;
use crate::workload::{engine_config, Corpus, Workload, TENANT};

/// Full set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Batch size of the `shard.speedup_2` comparison.
const SHARD_BATCH: usize = 512;
/// Alternating untraced and traced slices of the traced run's timed phase.
const TRACE_SLICES: usize = 8;
/// Time spent on each in-process replay of the traced run.
const REPLAY_BUDGET: Duration = Duration::from_millis(1_500);

/// End-to-end metrics of the JSON line of `--trace 0`, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("records_per_s", "1/s"),
    ("setup_s", "s"),
    ("daemon_peak_rss_mb", "MB"),
    ("daemon_cpu_us_per_rec", "us"),
    ("detection_rate", "ratio"),
    ("true_negative_rate", "ratio"),
];

/// Per-layer metrics of the JSON line of `--trace 1`, with units.
const PER_LAYER: [(&str, &str); 31] = [
    ("featurize.transform_ns_per_rec", "ns"),
    ("compiled.walk_ns_per_rec", "ns"),
    ("detect.verdict_ns_per_rec", "ns"),
    ("detect.observe_fold_ns_per_rec", "ns"),
    ("engine.score_ns_per_rec", "ns"),
    ("engine.observe_ns_per_rec", "ns"),
    ("engine.ceiling_frac", "ratio"),
    ("protocol.encode_request_ns_per_rec", "ns"),
    ("protocol.decode_request_ns_per_rec", "ns"),
    ("protocol.encode_response_ns_per_rec", "ns"),
    ("protocol.decode_response_ns_per_rec", "ns"),
    ("daemon.queue_high_water", "count"),
    ("wire.residual_ms", "ms"),
    ("fleet.overlap", "ratio"),
    ("shard.speedup_2", "ratio"),
    ("setup.gen_s", "s"),
    ("setup.pipeline_fit_s", "s"),
    ("setup.train_s", "s"),
    ("setup.detector_fit_s", "s"),
    ("setup.compile_ms", "ms"),
    ("setup.bundle_encode_ms", "ms"),
    ("setup.bundle_validate_ms", "ms"),
    ("setup.bundle_decode_ms", "ms"),
    ("setup.first_verdict_ms", "ms"),
    ("comms.replicate_ms", "ms"),
    ("comms.replicate_mib_per_s", "MiB/s"),
    ("residual_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("traced.records_per_s", "1/s"),
    ("traced.batch_p50_ms", "ms"),
    ("traced.batches", "count"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&args[1..]));
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Command-line options of a run.
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut record) =
            (None, None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--record" => record = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let seconds: f64 = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".to_string());
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(42),
            seconds,
            trace: trace.unwrap_or(false),
            record,
        })
    }
}

/// What the build script hands over, and the run's CPU pinning.
struct Env {
    daemon: PathBuf,
    work: PathBuf,
    host: Host,
    /// The CPUs the process could use before it pinned itself.
    all_cpus: Option<CpuSet>,
    /// The CPU the load generator is pinned to, when pinning worked.
    home: Option<usize>,
}

impl Env {
    /// Starts a daemon pinned to CPU `slot`: slot 0 is the generator's
    /// CPU, each further slot the next CPU down, wrapping around. The nodes
    /// of `fleet_fanout` take slots 0 and 1, so they can serve at once.
    fn spawn_daemon(&self, slot: usize, spool: &Path, fleet: bool) -> Result<DaemonChild, String> {
        let (Some(home), Some(all)) = (self.home, self.all_cpus) else {
            return DaemonChild::spawn(&self.daemon, spool, fleet);
        };
        let cpus = all.cpus();
        let at = cpus.iter().position(|&c| c == home).unwrap_or(0);
        let cpu = cpus[(at + cpus.len() - slot % cpus.len()) % cpus.len()];
        let pin = |cpu: usize| CpuSet::only(cpu).apply().map_err(|e| format!("pin: {e}"));
        pin(cpu)?;
        let child = DaemonChild::spawn(&self.daemon, spool, fleet);
        pin(home)?;
        child
    }

    fn from_process() -> Result<Self, String> {
        let daemon = PathBuf::from(
            std::env::var_os("SERVEBENCH_DAEMON")
                .ok_or("SERVEBENCH_DAEMON must name the ghsom-daemon binary")?,
        );
        let binary = std::fs::read(&daemon)
            .map_err(|e| format!("cannot read daemon binary {}: {e}", daemon.display()))?;
        let work = std::env::var_os("SERVEBENCH_WORK")
            .map_or_else(
                || PathBuf::from(".bench_build/servebench-work"),
                PathBuf::from,
            )
            .join(format!("run-{}", std::process::id()));
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        let mut host = Host::probe(
            var("SERVEBENCH_RUSTC"),
            var("SERVEBENCH_COMMIT"),
            host::digest(&binary),
            false,
        );
        // Pin this thread to the last CPU it may use; daemons inherit the
        // pinning (see `Env::spawn_daemon`).
        let all_cpus = CpuSet::current().ok();
        let home = all_cpus
            .and_then(|set| set.last())
            .filter(|&cpu| CpuSet::only(cpu).apply().is_ok());
        host.pinned = home.is_some();
        Ok(Env {
            daemon,
            work,
            host,
            all_cpus,
            home,
        })
    }
}

/// Removes the run's work directory when dropped (after every daemon).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything a run found.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let env = Env::from_process()?;
    std::fs::create_dir_all(&env.work).map_err(|e| format!("work dir: {e}"))?;
    let _work = WorkDir(env.work.clone());
    let report = if opts.trace {
        run_traced(opts, &env)?
    } else {
        run_untraced(opts, &env)?
    };
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut problems = report.problems.clone();
    let mut json_metrics = Vec::new();
    for (name, unit) in wanted {
        match report.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() && m.unit == *unit => json_metrics.push(m),
            Some(m) => problems.push(format!("metric {name} is {} {}", m.value, m.unit)),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    if report.failed > 0 {
        problems.push(format!(
            "{} of {} batches failed",
            report.failed, report.attempted
        ));
    }
    let correct = problems.is_empty();

    println!(
        "servebench {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "host {}",
        serde_json::to_string(&env.host).map_err(|e| e.0)?
    );
    for m in &report.metrics {
        println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for p in &problems {
        println!("  PROBLEM: {p}");
    }
    if let Some(path) = &opts.record {
        let record = RunRecord {
            host: env.host.clone(),
            workload: opts.workload.name().to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
            correct,
            attempted: report.attempted,
            failed: report.failed,
            metrics: report
                .metrics
                .iter()
                .map(|m| RecordedMetric {
                    name: m.name.to_string(),
                    value: m.value,
                    unit: m.unit.to_string(),
                })
                .collect(),
        };
        let text = serde_json::to_string_pretty(&record).map_err(|e| e.0)?;
        std::fs::write(path, text + "\n").map_err(|e| format!("record {}: {e}", path.display()))?;
    }
    let body: Vec<String> = json_metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    Ok(correct)
}

// ---------------------------------------------------------------------------
// the untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

fn run_untraced(opts: &Options, env: &Env) -> Result<Report, String> {
    let w = opts.workload;
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut session: Option<Session> = None;
    for i in 0..SETUP_REPEATS {
        // The previous set-up's daemons stop before the next one starts.
        let previous_bundle = session.take().map(|s| s.bundle.clone());
        let started = Instant::now();
        let corpus = Corpus::generate(w, opts.seed)?;
        let engine = Engine::fit(&engine_config(), &corpus.train).map_err(|e| e.to_string())?;
        let bundle = engine.to_bytes();
        let mut s = Session::start(env, w, corpus, bundle, &env.work.join(format!("setup{i}")))?;
        s.warm_up()?;
        setups.push(started.elapsed().as_secs_f64());
        if previous_bundle.is_some_and(|b| b != s.bundle) {
            report
                .problems
                .push("the same seed trained two different bundles".to_string());
        }
        session = Some(s);
    }
    let mut s = session.ok_or("no set-up ran")?;
    s.expect()?;

    let phase = s.run_phase(Instant::now() + Duration::from_secs_f64(opts.seconds), None);
    s.verify_stream()?;
    let scrapes = s.scrapes()?;
    report.problems.extend(s.ledger.reconcile(&scrapes, TENANT));
    let rss_kib: u64 = s
        .nodes
        .iter()
        .map(DaemonChild::peak_rss_kib)
        .sum::<Result<u64, String>>()?;

    let mut lat = phase.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err("no batch completed in the timed phase".to_string());
    }
    report.put("records_per_s", phase.rate(), "1/s");
    report.put(
        "daemon_cpu_us_per_rec",
        phase.daemon_cpu_s * 1e6 / phase.records as f64,
        "us",
    );
    report.put("batch_p50_ms", stats::quantile(&lat, 0.5), "ms");
    report.put("batch_p90_ms", stats::quantile(&lat, 0.9), "ms");
    report.put("batch_p99_ms", stats::quantile(&lat, 0.99), "ms");
    report.put(
        "failed_frac",
        s.failed as f64 / s.attempted.max(1) as f64,
        "ratio",
    );
    report.put("setup_s", stats::median(&setups), "s");
    report.put("daemon_peak_rss_mb", rss_kib as f64 / 1024.0, "MB");
    let q = s.quality;
    report.put("detection_rate", q.detection_rate(), "ratio");
    report.put("false_positive_rate", q.false_positive_rate(), "ratio");
    report.put("true_negative_rate", 1.0 - q.false_positive_rate(), "ratio");

    let supported = stats::highest_supported(lat.len());
    report.notes.push(format!(
        "batch_p99_ms over {} batches, {} beyond it; highest supported percentile {}",
        lat.len(),
        stats::beyond(lat.len(), 0.99),
        supported.map_or_else(|| "none".to_string(), |q| format!("p{}", q * 100.0)),
    ));
    if lat.len() < 1_000 {
        report
            .notes
            .push("fewer than 1,000 batches: p99 has fewer than 10 samples beyond it".to_string());
    }
    report.notes.push(format!(
        "setup_s samples {:?}; quality over {} records ({} attacks, {} normal)",
        setups,
        q.seen(),
        q.attacks,
        q.normals
    ));
    if q.seen() != s.corpus.len as u64 {
        report.problems.push(format!(
            "quality pass covered {} of {} records",
            q.seen(),
            s.corpus.len
        ));
    }
    report.attempted = s.attempted;
    report.failed = s.failed;
    report.problems.extend(s.errors.iter().cloned());
    Ok(report)
}

// ---------------------------------------------------------------------------
// the traced run: per-layer ledger
// ---------------------------------------------------------------------------

fn run_traced(opts: &Options, env: &Env) -> Result<Report, String> {
    let w = opts.workload;
    let mut report = Report::default();

    // The body of `Engine::fit`, one span per stage.
    let staged = staged_setup(w, opts.seed, &mut report)?;

    let corpus = Corpus::generate(w, opts.seed)?;
    let bundle = Engine::fit(&engine_config(), &corpus.train)
        .map_err(|e| e.to_string())?
        .to_bytes();
    if bundle != staged {
        report.problems.push(
            "the staged set-up did not reproduce Engine::fit's bundle byte for byte".to_string(),
        );
    }

    let deploy_started = Instant::now();
    let mut s = Session::start(env, w, corpus, bundle, &env.work.join("traced"))?;
    s.warm_up()?;
    report.put(
        "setup.first_verdict_ms",
        deploy_started.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let replicate_s = if s.replicate_s.is_empty() {
        vec![replicate_to_probe(
            &s.bundle,
            &env.work.join("comms-probe"),
        )?]
    } else {
        s.replicate_s.clone()
    };
    let replicate_mean = replicate_s.iter().sum::<f64>() / replicate_s.len() as f64;
    report.put("comms.replicate_ms", replicate_mean * 1e3, "ms");
    report.put(
        "comms.replicate_mib_per_s",
        s.bundle.len() as f64 / (1024.0 * 1024.0) / replicate_mean,
        "MiB/s",
    );
    s.expect()?;

    // Untraced and traced slices alternate, so drift in the host's speed
    // falls on both; the difference is the tracing overhead.
    let slice = Duration::from_secs_f64(opts.seconds / TRACE_SLICES as f64);
    let mut client_spans = Tracer::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 0..TRACE_SLICES {
        if i % 2 == 0 {
            plain.push(s.run_phase(Instant::now() + slice, None));
        } else {
            traced.push(s.run_phase(Instant::now() + slice, Some(&mut client_spans)));
        }
    }
    let rate = |phases: &[Phase]| {
        phases.iter().map(|p| p.records).sum::<u64>() as f64
            / phases.iter().map(|p| p.secs).sum::<f64>()
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    let traced_lat: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.lat_ms.iter().copied())
        .collect();
    report.put(
        "trace_overhead_frac",
        plain_rate / traced_rate - 1.0,
        "ratio",
    );
    report.put("traced.records_per_s", traced_rate, "1/s");
    report.put("traced.batches", traced_lat.len() as f64, "count");
    let batch_p50_ms = stats::median(&traced_lat);
    report.put("traced.batch_p50_ms", batch_p50_ms, "ms");

    // In-process replay of the workload's own batches, one span per call.
    let layers = replay_layers(w, &s.corpus, &s.bundle)?;
    let need = |layer: &str| {
        layers
            .ns_per_rec(layer)
            .ok_or_else(|| format!("no spans for {layer}"))
    };
    let transform = need("featurize.transform")?;
    let walk = need("compiled.walk")?;
    let score = need("engine.score")?;
    let observe = need("engine.observe")?;
    report.put("featurize.transform_ns_per_rec", transform, "ns");
    report.put("compiled.walk_ns_per_rec", walk, "ns");
    report.put(
        "detect.verdict_ns_per_rec",
        layers
            .diff_ns_per_rec("detect.verdicts", "compiled.walk")
            .ok_or("no verdict spans")?,
        "ns",
    );
    report.put(
        "detect.observe_fold_ns_per_rec",
        layers
            .diff_ns_per_rec("engine.observe", "engine.score")
            .ok_or("no observe spans")?,
        "ns",
    );
    report.put("engine.score_ns_per_rec", score, "ns");
    report.put("engine.observe_ns_per_rec", observe, "ns");
    let engine_ns = if w.observes() { observe } else { score };
    report.put(
        "engine.ceiling_frac",
        traced_rate * engine_ns / 1e9,
        "ratio",
    );
    let mut protocol_ns = 0.0;
    for (layer, name) in [
        (
            "protocol.encode_request",
            "protocol.encode_request_ns_per_rec",
        ),
        (
            "protocol.decode_request",
            "protocol.decode_request_ns_per_rec",
        ),
        (
            "protocol.encode_response",
            "protocol.encode_response_ns_per_rec",
        ),
        (
            "protocol.decode_response",
            "protocol.decode_response_ns_per_rec",
        ),
    ] {
        let ns = need(layer)?;
        protocol_ns += ns;
        report.put(name, ns, "ns");
    }
    let per_batch_ms = |ns_per_rec: f64| ns_per_rec * w.batch() as f64 / 1e6;
    report.put(
        "wire.residual_ms",
        ledger::wire_residual(
            batch_p50_ms,
            per_batch_ms(engine_ns),
            per_batch_ms(protocol_ns),
        ),
        "ms",
    );
    report.put(
        "residual_frac",
        ledger::residual_frac(1e9 / traced_rate, engine_ns + protocol_ns),
        "ratio",
    );

    report.put("fleet.overlap", s.fleet_overlap()?, "ratio");

    s.verify_stream()?;
    let scrapes = s.scrapes()?;
    report.problems.extend(s.ledger.reconcile(&scrapes, TENANT));
    let high_water = scrapes
        .iter()
        .filter_map(|sc| sc.value("ghsomd_tenant_queue_high_water", &[("tenant", TENANT)]))
        .fold(0.0, f64::max);
    report.put("daemon.queue_high_water", high_water, "count");
    for q in ["0.5", "0.99"] {
        let per_node: Vec<String> = scrapes
            .iter()
            .map(|sc| {
                sc.value(
                    "ghsomd_tenant_batch_latency_us",
                    &[("tenant", TENANT), ("quantile", q)],
                )
                .map_or_else(|| "-".to_string(), |v| v.to_string())
            })
            .collect();
        report.notes.push(format!(
            "daemon.worker_q{q}_us (histogram bucket bound, per node): {}",
            per_node.join(" ")
        ));
    }
    report.notes.push(format!(
        "untraced slices {:.1} rec/s; traced slices {:.1} rec/s; {} client spans",
        plain_rate,
        traced_rate,
        client_spans.spans().len()
    ));
    report.attempted = s.attempted;
    report.failed = s.failed;
    report.problems.extend(s.errors.iter().cloned());

    // Last, since it widens the pinning: two shards need two cores.
    if let Some(all) = env.all_cpus {
        all.apply().map_err(|e| format!("unpin: {e}"))?;
    }
    report.put(
        "shard.speedup_2",
        shard_speedup(&s.bundle, &s.corpus)?,
        "ratio",
    );
    Ok(report)
}

/// Runs the stages of `Engine::fit` one by one, timing each, and returns
/// the bundle they produce.
fn staged_setup(w: Workload, seed: u64, report: &mut Report) -> Result<Vec<u8>, String> {
    let config = engine_config();
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let t = Instant::now();
    let corpus = Corpus::generate(w, seed)?;
    report.put("setup.gen_s", t.elapsed().as_secs_f64(), "s");

    let t = Instant::now();
    let pipeline = KddPipeline::fit(&config.pipeline, &corpus.train).map_err(|e| err(&e))?;
    let x = pipeline
        .transform_dataset(&corpus.train)
        .map_err(|e| err(&e))?;
    report.put("setup.pipeline_fit_s", t.elapsed().as_secs_f64(), "s");
    let labels: Vec<AttackCategory> = corpus.train.iter().map(|r| r.category()).collect();

    let t = Instant::now();
    let model = GhsomModel::train(&config.ghsom, &x).map_err(|e| err(&e))?;
    report.put("setup.train_s", t.elapsed().as_secs_f64(), "s");

    let t = Instant::now();
    let fitted =
        HybridGhsomDetector::fit(model, &x, &labels, config.percentile).map_err(|e| err(&e))?;
    report.put("setup.detector_fit_s", t.elapsed().as_secs_f64(), "s");

    let t = Instant::now();
    let engine = Engine::builder()
        .pipeline(pipeline)
        .model(fitted.labeled().model())
        .detector(&fitted)
        .stream(config.k_sigma, config.warmup)
        .build()
        .map_err(|e| err(&e))?;
    report.put("setup.compile_ms", t.elapsed().as_secs_f64() * 1e3, "ms");

    let t = Instant::now();
    let bundle = engine.to_bytes();
    report.put(
        "setup.bundle_encode_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    let t = Instant::now();
    std::hint::black_box(SnapshotView::parse(&bundle).map_err(|e| err(&e))?);
    report.put(
        "setup.bundle_validate_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    let t = Instant::now();
    std::hint::black_box(Engine::from_bytes(&bundle).map_err(|e| err(&e))?);
    report.put(
        "setup.bundle_decode_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    Ok(bundle)
}

/// Seconds one `Replicator::replicate` of `bundle` takes into a fresh
/// in-process fleet node: the comms figure of the workloads that deploy
/// by spool write.
fn replicate_to_probe(bundle: &[u8], spool: &Path) -> Result<f64, String> {
    let addr = "127.0.0.1:0".parse().map_err(|_| "bad probe address")?;
    let mut node = FleetNode::start(
        FleetNodeConfig::new(addr, spool),
        Arc::new(|_: &str| None),
        Arc::new(|_: &NodeEvent| {}),
    )
    .map_err(|e| e.to_string())?;
    let result = (|| {
        let mut rep = Replicator::connect(node.local_addr()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let done = rep.replicate(TENANT, bundle).map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        if done.bytes_sent != bundle.len() as u64 {
            return Err("probe replication sent a partial bundle".to_string());
        }
        Ok(secs)
    })();
    node.stop_and_join();
    result
}

/// Replays the workload's batches in process through each layer's public
/// call, one span per call. A span works on what one daemon receives: the
/// whole batch, or one router chunk on `fleet_fanout`; its id numbers
/// that piece.
fn replay_layers(w: Workload, corpus: &Corpus, bundle: &[u8]) -> Result<Tracer, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let engine = Engine::from_bytes(bundle).map_err(|e| err(&e))?;
    let mut features = FeatureMatrix::new();
    let mut t = Tracer::default();
    let mode = if w.observes() {
        BatchMode::Observe
    } else {
        BatchMode::Score
    };
    let chunks = ledger::fleet_chunks(w.batch(), w.nodes());
    let started = Instant::now();
    let mut id = 0u64;
    let mut k = 0u64;
    while started.elapsed() < REPLAY_BUDGET || k < 8 {
        for range in &chunks {
            replay_piece(
                &mut t,
                id,
                &engine,
                &corpus.batch(k)[range.clone()],
                mode,
                &mut features,
            )?;
            id += 1;
        }
        k += 1;
    }
    Ok(t)
}

/// One piece of [`replay_layers`]. `observe_records` runs on the same
/// engine as `score_records`, so the difference is the stream fold alone.
fn replay_piece(
    t: &mut Tracer,
    id: u64,
    engine: &Engine,
    piece: &[ConnectionRecord],
    mode: BatchMode,
    features: &mut FeatureMatrix,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let n = piece.len();
    t.span("featurize.transform", id, n, || {
        engine.pipeline().transform_batch(piece, features)
    })
    .map_err(|e| err(&e))?;
    let view = features.as_view();
    std::hint::black_box(
        t.span("compiled.walk", id, n, || {
            engine.compiled().score_all_view(view)
        })
        .map_err(|e| err(&e))?,
    );
    std::hint::black_box(
        t.span("detect.verdicts", id, n, || {
            engine.detector().verdicts_all_view(view)
        })
        .map_err(|e| err(&e))?,
    );
    let scored = t
        .span("engine.score", id, n, || engine.score_records(piece))
        .map_err(|e| err(&e))?;
    let observed = t
        .span("engine.observe", id, n, || engine.observe_records(piece))
        .map_err(|e| err(&e))?;

    let request = Request::Batch(BatchRequest {
        req_id: id + 1,
        mode,
        tenant: TENANT.to_string(),
        records: piece.to_vec(),
    });
    let frame = t
        .span("protocol.encode_request", id, n, || {
            protocol::encode_request(&request)
        })
        .map_err(|e| err(&e))?;
    std::hint::black_box(
        t.span("protocol.decode_request", id, n, || {
            protocol::decode_request(FrameType::Batch, &frame[HEADER_LEN..])
        })
        .map_err(|e| err(&e))?,
    );
    let verdicts = match mode {
        BatchMode::Observe => VerdictPayload::Stream(observed),
        _ => VerdictPayload::Hybrid(scored),
    };
    let response = Response::Verdicts {
        req_id: id + 1,
        verdicts,
    };
    let frame = t
        .span("protocol.encode_response", id, n, || {
            protocol::encode_response(&response)
        })
        .map_err(|e| err(&e))?;
    std::hint::black_box(
        t.span("protocol.decode_response", id, n, || {
            protocol::decode_response(FrameType::Verdicts, &frame[HEADER_LEN..])
        })
        .map_err(|e| err(&e))?,
    );
    Ok(())
}

/// `ShardedEngine::score_records` at one shard over two shards, on
/// 512-record batches of the workload's pass, alternating the two.
fn shard_speedup(bundle: &[u8], corpus: &Corpus) -> Result<f64, String> {
    let engine = Arc::new(Engine::from_bytes(bundle).map_err(|e| e.to_string())?);
    let one = ShardedEngine::from_shared(Arc::clone(&engine), 1);
    let two = ShardedEngine::from_shared(engine, 2);
    let batches: Vec<&[ConnectionRecord]> = corpus.pass().chunks_exact(SHARD_BATCH).collect();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < session::COMPARE_BUDGET || i < 8 {
        let batch = batches[i % batches.len()];
        for (sharded, times) in [(&one, &mut t1), (&two, &mut t2)] {
            let t = Instant::now();
            std::hint::black_box(sharded.score_records(batch).map_err(|e| e.to_string())?);
            times.push(t.elapsed().as_secs_f64());
        }
        i += 1;
    }
    Ok(stats::median(&t1) / stats::median(&t2))
}

// ---------------------------------------------------------------------------
// recorded results and their comparison
// ---------------------------------------------------------------------------

/// A run written with `--record`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RunRecord {
    host: Host,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<RecordedMetric>,
}

/// One metric of a [`RunRecord`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecordedMetric {
    name: String,
    value: f64,
    unit: String,
}

/// `compare <a> <b>`: prints `b / a` for every metric both records hold.
/// Refuses (exit 3) records measured on different hosts.
fn compare(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: servebench compare <a.json> <b.json>");
        return 2;
    };
    let load = |p: &String| -> Result<RunRecord, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {}", e.0))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("servebench: {e}");
            return 2;
        }
    };
    if !a.host.same_host(&b.host) {
        eprintln!(
            "servebench: refusing to compare results from different hosts ({} x{}, pinned {}) and ({} x{}, pinned {})",
            a.host.cpu_model, a.host.nproc, a.host.pinned, b.host.cpu_model, b.host.nproc, b.host.pinned
        );
        return 3;
    }
    println!(
        "{} seed {} -> {} seed {} (host {} x{})",
        a.workload, a.seed, b.workload, b.seed, a.host.cpu_model, a.host.nproc
    );
    for m in &a.metrics {
        if let Some(n) = b.metrics.iter().find(|n| n.name == m.name) {
            println!(
                "  {:<38} {:>16.6} {:>16.6} {:>9.4} {}",
                m.name,
                m.value,
                n.value,
                n.value / m.value,
                m.unit
            );
        }
    }
    0
}
