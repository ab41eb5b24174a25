//! `ingest`: closed-loop uploads by one writer on a durable platform.
//!
//! The platform journals to `FileStorage` in a scratch directory inside
//! the working directory, with the default `DurabilityOptions` (group
//! commit every 64 records, a snapshot every 4 096 records), so a run
//! spans many compactions. Uploads run in rounds, each on a freshly
//! set-up platform. After the last round the store is flushed, dropped
//! and reopened; the recovered export must hold the statements the one
//! taken before the close held.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lodify_core::platform::{Platform, Upload};
use lodify_durability::{DurabilityOptions, DurabilityStats, FileStorage};
use lodify_resilience::DetRng;

use crate::gen::{self, UploadGen};
use crate::measure::{self, Samples, Spans};
use crate::{Args, Outcome};

/// Uploads per measured round. Every round starts from a freshly set-up
/// platform, so each round, and each run, measures the same range of
/// store sizes; 1 000 uploads journal about 15 000 records, several
/// compactions' worth.
const ROUND_UPLOADS: usize = 600;
/// Uploads before each round's measured window. The store the first
/// round's produce is also rebuilt on an ephemeral platform as a
/// same-input oracle.
const WARM_UPLOADS: usize = 50;

/// A directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> Result<ScratchDir, String> {
        let path =
            PathBuf::from(".lodbench_tmp").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".lodbench_tmp");
    }
}

fn open(dir: &Path) -> Result<Platform, String> {
    let storage = FileStorage::open(dir).map_err(|e| e.to_string())?;
    Platform::bootstrap_durable(
        gen::store_config(),
        Box::new(storage),
        DurabilityOptions::default(),
    )
    .map(|(platform, _)| platform)
    .map_err(|e| e.to_string())
}

/// Digests of a platform's N-Triples export.
#[derive(Debug, Default, PartialEq)]
struct Export {
    /// Of the export bytes as written.
    bytes: u64,
    /// Of its statements in sorted order. Recovery re-interns terms in
    /// replay order and the export follows term ids, so a recovered
    /// store lists the same statements in another order.
    statements: u64,
    len: usize,
}

fn export_digest(platform: &Platform) -> Export {
    let text = platform.store().export_ntriples(None);
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    Export {
        bytes: measure::digest(text.as_bytes()),
        statements: measure::digest(lines.join("\n").as_bytes()),
        len: text.len(),
    }
}

/// Uploads through the three stage entry points, each under a span;
/// returns whether the upload committed and how long the commit took.
pub fn staged_upload(
    platform: &mut Platform,
    upload: Upload,
    spans: &mut Spans,
) -> (bool, Duration) {
    let staged = match spans.time("context.stage", || platform.stage_upload(upload)) {
        Ok(staged) => staged,
        Err(_) => return (false, Duration::ZERO),
    };
    let result = spans.time("annotate", || platform.annotate_staged(&staged));
    let t = Instant::now();
    let committed = platform.commit_staged(staged, result, None).is_ok();
    let commit = t.elapsed();
    spans.record("commit", commit);
    (committed, commit)
}

/// Journal work one upload caused, from the counters before and after.
#[derive(Default)]
struct Journal {
    flushes: u64,
    wal_bytes: u64,
}

impl Journal {
    fn add(&mut self, before: &DurabilityStats, after: &DurabilityStats) {
        self.flushes += after.flushes - before.flushes;
        // A compaction starts a new, empty log.
        self.wal_bytes += if after.generation == before.generation {
            after.wal_bytes - before.wal_bytes
        } else {
            after.wal_bytes
        };
    }
}

/// Checks a finished round's platform: its store must survive a flush,
/// close and reopen of the same files, and the first round's warm-up
/// stream replayed on an ephemeral platform must export the same bytes.
/// Returns how long the reopen took.
fn check(
    outcome: &mut Outcome,
    mut platform: Platform,
    dir: &Path,
    seed: u64,
    warm: &Export,
) -> Result<Duration, String> {
    platform.flush_store().map_err(|e| e.to_string())?;
    let closed = export_digest(&platform);
    drop(platform);
    let t = Instant::now();
    let reopened = open(dir)?;
    let recovery = t.elapsed();
    if export_digest(&reopened).statements != closed.statements {
        outcome.mismatch("recovered export differs from the export before close".into());
    }
    drop(reopened);
    outcome.head(
        "final_export_digest",
        format!("{:016x} ({} bytes)", closed.bytes, closed.len),
    );
    outcome.head(
        "recovery_ms",
        format!("{:.3}", recovery.as_secs_f64() * 1e3),
    );

    let mut oracle = Platform::bootstrap(gen::store_config()).map_err(|e| e.to_string())?;
    let mut replay = UploadGen::new(DetRng::seed_from_u64(seed).fork("uploads"));
    for _ in 0..WARM_UPLOADS {
        oracle.upload(replay.next()).map_err(|e| e.to_string())?;
    }
    if &export_digest(&oracle) != warm {
        outcome
            .mismatch("warm-up export differs from an ephemeral replay of the same uploads".into());
    }
    Ok(recovery)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let scratch = ScratchDir::new("ingest")?;
    let mut uploads = UploadGen::new(DetRng::seed_from_u64(args.stream_seed()).fork("uploads"));
    let mut warm_digest = Export::default();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut spans = Spans::default();
    let mut journal = Journal::default();
    let mut snapshots = 0;
    let mut semantic = (0, 0);
    let mut triples = (0, 0);
    let mut measured = Duration::ZERO;
    let deadline = Duration::from_secs_f64(args.seconds);

    // Rounds of ROUND_UPLOADS uploads, each on a freshly set-up
    // platform, until the measured windows add up to `--seconds`.
    let mut round = 0;
    let (platform, dir) = loop {
        let dir = scratch.path().join(format!("store-{round}"));
        let t = Instant::now();
        let mut platform = open(&dir)?;
        outcome.setups.push(t.elapsed().as_secs_f64());
        for _ in 0..WARM_UPLOADS {
            platform
                .upload(uploads.next())
                .map_err(|e| format!("warm-up upload: {e}"))?;
        }
        platform.flush_store().map_err(|e| e.to_string())?;
        if round == 0 {
            warm_digest = export_digest(&platform);
        }

        let stats_start = platform.durability().ok_or("store is not durable")?;
        let semantic_start = platform.semantic_cache_stats();
        triples.0 = platform.store().len();
        let start = Instant::now();
        for _ in 0..ROUND_UPLOADS {
            let upload = uploads.next();
            let traced_op = args.trace && outcome.attempted % 2 == 1;
            let before = platform.durability().unwrap_or_default();
            let t = Instant::now();
            let ok = if traced_op {
                let (ok, commit) = staged_upload(&mut platform, upload, &mut spans);
                let after = platform.durability().unwrap_or_default();
                if after.snapshots_written > before.snapshots_written {
                    spans.record("durability.snapshot_stall", commit);
                }
                ok
            } else {
                platform.upload(upload).is_ok()
            };
            let took = t.elapsed();
            outcome.attempted += 1;
            if !ok {
                outcome.failed += 1;
                continue;
            }
            if traced_op {
                traced.push(took);
            } else {
                plain.push(took);
            }
            if args.trace {
                journal.add(&before, &platform.durability().unwrap_or_default());
            }
        }
        measured += start.elapsed();
        let stats_end = platform.durability().ok_or("store is not durable")?;
        snapshots += stats_end.snapshots_written - stats_start.snapshots_written;
        let cache = platform.semantic_cache_stats();
        semantic.0 += cache.hits - semantic_start.hits;
        semantic.1 += cache.hits + cache.misses - semantic_start.hits - semantic_start.misses;
        triples.1 = platform.store().len();
        if platform.plan_cache_stats().bypasses != 0 {
            outcome.mismatch("plan cache bypassed".into());
        }
        round += 1;
        if measured >= deadline {
            break (platform, dir);
        }
        drop(platform);
        let _ = std::fs::remove_dir_all(&dir);
    };
    let uploaded = (plain.len() + traced.len()) as u64;

    // The output checks run once a run: in its first slice.
    let recovery = if args.slice.unwrap_or(0) == 0 {
        Some(check(
            &mut outcome,
            platform,
            &dir,
            args.stream_seed(),
            &warm_digest,
        )?)
    } else {
        None
    };

    let options = DurabilityOptions::default();
    outcome.head("pictures", gen::PICTURES);
    outcome.head("rounds", round);
    outcome.head("uploads_per_round", ROUND_UPLOADS);
    outcome.head("triples_start", triples.0);
    outcome.head("triples_end", triples.1);
    outcome.head(
        "flush_policy",
        format!(
            "group commit {} records, snapshot every {:?} records",
            options.group_commit.max_batch_records, options.snapshot_every_records
        ),
    );
    outcome.head("warm_export_digest", format!("{:016x}", warm_digest.bytes));
    outcome.head("snapshots", snapshots);

    if args.trace {
        outcome.notes.extend(spans.summary());
        let stage = spans.get("context.stage");
        let annotate = spans.get("annotate");
        let commit = spans.get("commit");
        let stall = spans.get("durability.snapshot_stall");
        outcome.notes.push(format!(
            "split: stage+annotate+commit means = {:.4} ms; untraced upload mean = {:.4} ms; traced upload mean = {:.4} ms",
            stage.mean() + annotate.mean() + commit.mean(),
            plain.mean(),
            traced.mean()
        ));
        let m = &mut outcome.metrics;
        crate::span_metrics(
            m,
            &spans,
            &[
                (
                    "context.stage",
                    "context.stage_p50_ms",
                    "context.stage_mean_ms",
                ),
                ("annotate", "annotate.p50_ms", "annotate.mean_ms"),
                ("commit", "commit.p50_ms", "commit.mean_ms"),
            ],
        );
        m.insert(
            "lod.semantic_hit_ratio",
            measure::ratio(semantic.0, semantic.1),
        );
        m.insert(
            "durability.flushes_per_upload",
            measure::ratio(journal.flushes, uploaded),
        );
        m.insert(
            "durability.wal_bytes_per_upload",
            measure::ratio(journal.wal_bytes, uploaded),
        );
        m.insert("durability.snapshots", snapshots as f64);
        m.insert("durability.snapshot_stall_ms", stall.mean());
        if let Some(recovery) = recovery {
            m.insert("durability.recovery_ms", recovery.as_secs_f64() * 1e3);
        }
        m.insert(
            "store.triples_per_upload",
            measure::ratio((triples.1 - triples.0) as u64, ROUND_UPLOADS as u64),
        );
        m.insert(
            "trace.upload_p50_overhead_ms",
            traced.quantile(0.5) - plain.quantile(0.5),
        );
        m.insert(
            "trace.upload_mean_overhead_ms",
            traced.mean() - plain.mean(),
        );
    }
    outcome.busy = measured;
    outcome.classes.insert("upload", plain);
    Ok(outcome)
}
