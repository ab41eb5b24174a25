//! End-to-end and per-layer benchmark of the lodify platform.
//!
//! ```text
//! cargo run --release --manifest-path lodbench/Cargo.toml -- \
//!     --workload browse|ingest|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads, each chosen to load a different path of the paper's
//! platform (see `BENCHMARK.json` for the one-line reasons):
//!
//! * `browse` — open-loop, read-only traffic over loopback sockets
//!   against `web::WebServer` (album views, About mashups, search,
//!   picture pages, resource lists).
//! * `ingest` — closed-loop uploads through `Platform::upload` on a
//!   durable platform over `FileStorage`.
//! * `mixed` — one in-process thread interleaving uploads with web
//!   reads, with live albums registered, so every commit invalidates
//!   or patches what the reads see.
//!
//! `--trace 0` measures the end-to-end metrics, pooled over [`SLICES`]
//! slice processes run one after another. `--trace 1` runs in one
//! process: it alternates plain operations with traced ones that call
//! each layer's public entry point from the benchmark itself, with a
//! span around each call, and prints the per-layer metrics. The
//! platform's own observability stays at its default in both modes.
//! Every run checks outputs (album links against an unplanned solve,
//! About bodies against a re-render, the durable store against its
//! recovered copy) and prints a run header, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`.

mod browse;
mod client;
mod gen;
mod ingest;
mod measure;
mod mixed;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use measure::Samples;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mean_ms", "ms"),
    ("p95_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics reported with `--trace 1`. A layer a workload does
/// not exercise reads 0 there (its calls are listed as 0 in the span
/// summary).
const PER_LAYER: &[(&str, &str)] = &[
    ("web.net_p50_ms", "ms"),
    ("web.net_mean_ms", "ms"),
    ("web.handle_p50_ms", "ms"),
    ("web.handle_mean_ms", "ms"),
    ("web.gen_late_p99_ms", "ms"),
    ("albums.view_p50_ms", "ms"),
    ("albums.view_mean_ms", "ms"),
    ("albums.hit_ratio", "ratio"),
    ("albums.invalidations", "count"),
    ("live.diffs_per_commit", "count"),
    ("sparql.parse_p50_ms", "ms"),
    ("sparql.parse_mean_ms", "ms"),
    ("sparql.plan_p50_ms", "ms"),
    ("sparql.plan_mean_ms", "ms"),
    ("sparql.eval_p50_ms", "ms"),
    ("sparql.eval_mean_ms", "ms"),
    ("sparql.plan_hit_ratio", "ratio"),
    ("sparql.plan_invalidations", "count"),
    ("mashup.about_p50_ms", "ms"),
    ("mashup.about_mean_ms", "ms"),
    ("search.suggest_p50_ms", "ms"),
    ("search.suggest_mean_ms", "ms"),
    ("context.stage_p50_ms", "ms"),
    ("context.stage_mean_ms", "ms"),
    ("annotate.p50_ms", "ms"),
    ("annotate.mean_ms", "ms"),
    ("lod.semantic_hit_ratio", "ratio"),
    ("commit.p50_ms", "ms"),
    ("commit.mean_ms", "ms"),
    ("durability.flushes_per_upload", "count"),
    ("durability.wal_bytes_per_upload", "B"),
    ("durability.snapshots", "count"),
    ("durability.snapshot_stall_ms", "ms"),
    ("durability.recovery_ms", "ms"),
    ("store.triples_per_upload", "count"),
    ("trace.read_p50_overhead_ms", "ms"),
    ("trace.upload_p50_overhead_ms", "ms"),
    ("trace.upload_mean_overhead_ms", "ms"),
];

/// Slices an untraced run is split into. Each slice runs in a fresh
/// process, one after another, and the run pools their samples:
/// per-process effects (hash seeds, memory layout) move a single
/// process's latencies by several percent, and pooling averages them.
const SLICES: u32 = 4;

/// Operation classes latencies are kept by.
const CLASSES: &[&str] = &["upload", "album", "about", "search", "picture", "resource"];

/// Every read's latency: all classes but `upload`.
pub fn read_samples(classes: &BTreeMap<&'static str, Samples>) -> Samples {
    Samples::merged(
        classes
            .iter()
            .filter(|(class, _)| **class != "upload")
            .map(|(_, s)| s),
    )
}

/// One line per operation class with its median and tail, named
/// `<class>_p50_ms` and so on (`read` pools every read class), and the
/// error ratio.
/// A p99.9 is printed only when at least ten samples lie beyond it.
fn class_lines(outcome: &Outcome) -> Vec<String> {
    let reads = read_samples(&outcome.classes);
    let mut lines = Vec::new();
    for (class, s) in
        std::iter::once(("read", &reads)).chain(outcome.classes.iter().map(|(c, s)| (*c, s)))
    {
        if s.len() == 0 {
            continue;
        }
        let mut line = format!(
            "{class}_p50_ms = {:.3} ms, {class}_p99_ms = {:.3} ms",
            s.quantile(0.5),
            s.quantile(0.99)
        );
        if s.beyond(0.999) >= 10 {
            line.push_str(&format!(", {class}_p999_ms = {:.3} ms", s.quantile(0.999)));
        }
        lines.push(format!("{line} (n = {})", s.len()));
    }
    let failed = outcome.failed + outcome.mismatches.len() as u64;
    lines.push(format!(
        "error_ratio = {} ratio ({failed} of {})",
        measure::ratio(failed, outcome.attempted),
        outcome.attempted
    ));
    lines
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a slice process: which slice of the run it measures.
    pub slice: Option<u32>,
}

impl Args {
    /// The seed of this process's operation stream: the run's seed, or
    /// one derived from it for each slice.
    pub fn stream_seed(&self) -> u64 {
        match self.slice {
            None => self.seed,
            Some(k) => lodify_resilience::DetRng::seed_from_u64(self.seed)
                .fork(&format!("slice-{k}"))
                .next_u64(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let slice = match flags.get("--slice") {
        Some(k) => Some(k.parse().map_err(|e| format!("--slice: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        slice,
    })
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Output checks that found a wrong answer (each counts as a
    /// failed operation too).
    pub mismatches: Vec<String>,
    /// Set-up times in seconds.
    pub setups: Vec<f64>,
    /// End-to-end latency of every untraced operation that succeeded,
    /// by class: `upload` or the kind of read.
    pub classes: BTreeMap<&'static str, Samples>,
    /// Measured time the operations took place in.
    pub busy: Duration,
    /// Metric values by name; units come from [`END_TO_END`] and
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run-header lines (`key: value`).
    pub header: Vec<(String, String)>,
    /// Free-form summary lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn head(&mut self, key: &str, value: impl std::fmt::Display) {
        self.header.push((key.to_string(), value.to_string()));
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }
}

/// Where the code under test came from: the git revision when the
/// benchmark runs inside a git checkout, else `unknown`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev
    }
}

/// Inserts the p50 and mean of each `(span, p50 metric, mean metric)`.
pub fn span_metrics(
    metrics: &mut BTreeMap<&'static str, f64>,
    spans: &measure::Spans,
    rows: &[(&str, &'static str, &'static str)],
) {
    for (span, p50, mean) in rows {
        let samples = spans.get(span);
        metrics.insert(p50, samples.quantile(0.5));
        metrics.insert(mean, samples.mean());
    }
}

/// Wall time of a fixed CPU-bound loop, so a reader can see whether
/// the host ran slower than usual during a run.
fn calibrate() -> f64 {
    let data: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let t = std::time::Instant::now();
    let mut h = 0u64;
    for round in 0..32u64 {
        h ^= measure::digest(std::hint::black_box(&data)).wrapping_add(round);
    }
    std::hint::black_box(h);
    t.elapsed().as_secs_f64() * 1e3
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload.as_str() {
        "browse" => browse::run(args)?,
        "ingest" => ingest::run(args)?,
        "mixed" => mixed::run(args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if outcome.attempted == 0 {
        return Err("no operation ran in the measured window".into());
    }
    Ok(outcome)
}

/// Prints a slice's outcome, one item a line, for the parent process.
fn emit_slice(outcome: &Outcome) -> Result<(), String> {
    let mut lines = vec![
        format!("attempted {}", outcome.attempted),
        format!("failed {}", outcome.failed),
        format!("busy {}", outcome.busy.as_secs_f64()),
        format!("rss {}", measure::peak_rss_mb()?),
    ];
    lines.extend(outcome.setups.iter().map(|s| format!("setup {s}")));
    for (class, samples) in &outcome.classes {
        lines.extend(samples.values().iter().map(|v| format!("lat {class} {v}")));
    }
    lines.extend(outcome.mismatches.iter().map(|m| format!("mismatch {m}")));
    lines.extend(outcome.header.iter().map(|(k, v)| format!("head {k}\t{v}")));
    lines.extend(outcome.notes.iter().map(|n| format!("note {n}")));
    println!("{}", lines.join("\n"));
    Ok(())
}

/// Runs the [`SLICES`] slices of an untraced run, one process after
/// another, and pools what they report into the end-to-end metrics.
fn run_slices(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut total = Outcome::default();
    let mut rss = Vec::new();
    let mut heads: Vec<(String, Vec<String>)> = Vec::new();
    for k in 0..SLICES {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / SLICES as f64).to_string()])
            .args(["--trace", "0", "--slice", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting slice {k}: {e}"))?;
        if !output.status.success() {
            return Err(format!("slice {k} exited with {}", output.status));
        }
        let text = String::from_utf8(output.stdout).map_err(|e| format!("slice {k}: {e}"))?;
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            let number = || {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("slice {k}: bad line {line:?}: {e}"))
            };
            match key {
                "attempted" => total.attempted += number()? as u64,
                "failed" => total.failed += number()? as u64,
                "busy" => total.busy += Duration::from_secs_f64(number()?),
                "rss" => rss.push(number()?),
                "setup" => total.setups.push(number()?),
                "lat" => {
                    let (class, v) = value.split_once(' ').unwrap_or(("", value));
                    let class = CLASSES
                        .iter()
                        .find(|c| **c == class)
                        .ok_or_else(|| format!("slice {k}: unknown class in {line:?}"))?;
                    let v = v
                        .parse()
                        .map_err(|e| format!("slice {k}: bad line {line:?}: {e}"))?;
                    total.classes.entry(class).or_default().push_ms(v);
                }
                "mismatch" => total.mismatch(format!("slice {k}: {value}")),
                "head" => {
                    let (name, v) = value.split_once('\t').unwrap_or((value, ""));
                    match heads.iter_mut().find(|(n, _)| n == name) {
                        Some((_, values)) => values.push(v.to_string()),
                        None => heads.push((name.to_string(), vec![v.to_string()])),
                    }
                }
                "note" => total.notes.push(format!("slice {k}: {value}")),
                _ => return Err(format!("slice {k}: unexpected line {line:?}")),
            }
        }
    }
    for (name, mut values) in heads {
        values.dedup();
        total.head(&name, values.join(" | "));
    }
    total.head("slices", SLICES);
    let all = Samples::merged(total.classes.values());
    let m = &mut total.metrics;
    m.insert("setup_s", measure::median(&mut total.setups.clone()));
    m.insert("peak_rss_mb", measure::median(&mut rss));
    m.insert("mean_ms", all.mean());
    m.insert("p95_ms", all.quantile(0.95));
    m.insert("ops_per_s", all.len() as f64 / total.busy.as_secs_f64());
    Ok(total)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lodbench: {e}");
            eprintln!(
                "usage: lodbench --workload browse|ingest|mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.slice.is_some() {
        match run(&args).and_then(|outcome| emit_slice(&outcome)) {
            Ok(()) => return ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lodbench: {} slice failed: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    } else if args.trace {
        run(&args)
    } else {
        run_slices(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("lodbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed = outcome.failed + outcome.mismatches.len() as u64;
    println!("# workload: {}", args.workload);
    println!("# seed: {}", args.seed);
    println!("# nproc: {nproc}");
    println!("# git_rev: {}", git_rev());
    println!("# trace: {}", u8::from(args.trace));
    println!("# cpu_calibration_ms: {:.3}", calibrate());
    for (key, value) in &outcome.header {
        println!("# {key}: {value}");
    }
    println!(
        "# ops: attempted={} succeeded={} failed={}",
        outcome.attempted,
        outcome.attempted.saturating_sub(failed),
        failed
    );
    for note in outcome.notes.iter().chain(&class_lines(&outcome)) {
        println!("{note}");
    }
    for what in &outcome.mismatches {
        println!("MISMATCH {what}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("lodbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
