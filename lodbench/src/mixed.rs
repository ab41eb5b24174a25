//! `mixed`: uploads beside web reads, in-process on one thread.
//!
//! Writes need `&mut Platform` and the server shares the platform
//! read-only, so reads go through `web::handle_request` in the same
//! thread as the uploads. About one operation in five is an upload;
//! reads are album views (Zipf over the album specs, the popular half
//! registered as live albums), About mashups and search. Every commit
//! moves the store epoch, so album views that live patching did not
//! refresh re-solve SPARQL.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use lodify_core::platform::Platform;
use lodify_core::web;
use lodify_resilience::DetRng;
use lodify_sparql::EvalOptions;

use crate::browse::layer_call;
use crate::client;
use crate::gen::{self, AlbumKey, Read, ReadGen, UploadGen};
use crate::ingest::staged_upload;
use crate::measure::{self, Samples, Spans};
use crate::{read_samples, Args, Outcome};

/// Set-ups per process; `setup_s` is the median over all of a run's
/// set-ups.
const SETUPS: usize = 2;
/// Share of operations that are uploads (1 upload to 4 reads).
const UPLOAD_SHARE: f64 = 0.2;
/// Read mix in percent: album, about, search, picture, resource.
const READ_MIX: [u32; 5] = [50, 25, 25, 0, 0];
/// One read in this many is checked against the oracle.
const CHECK_EVERY: u64 = 8;
/// Operations before the measured window.
const WARM_OPS: usize = 100;

fn setup(keys: &[AlbumKey]) -> Result<Platform, String> {
    let mut platform = Platform::bootstrap(gen::store_config()).map_err(|e| e.to_string())?;
    for key in &keys[..keys.len() / 2] {
        platform.live_register(&key.spec());
    }
    Ok(platform)
}

/// Latencies of one half of the operations, by class.
type Classes = BTreeMap<&'static str, Samples>;

fn record(classes: &mut Classes, op: Option<&Read>, took: Duration) {
    let class = op.map_or("upload", Read::kind);
    classes.entry(class).or_default().push(took);
}

/// Solves an album text through the SPARQL layer's own entry points,
/// each under a span, and returns the links it produced.
fn sparql_probe(platform: &Platform, text: &str, spans: &mut Spans) -> Result<Vec<String>, String> {
    let query = spans
        .time("sparql.parse", || lodify_sparql::parse(text))
        .map_err(|e| e.to_string())?;
    let plan = spans.time("sparql.plan", || {
        lodify_sparql::plan_query(platform.store(), &query, Some(platform.cardinality()))
    });
    let (results, _) = spans
        .time("sparql.eval", || {
            lodify_sparql::evaluate_planned(platform.store(), &query, EvalOptions::default(), &plan)
        })
        .map_err(|e| e.to_string())?;
    Ok(results
        .column("link")
        .into_iter()
        .map(|t| web::escape_html(t.lexical()))
        .collect())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let root = DetRng::seed_from_u64(args.stream_seed());
    let keys = gen::album_keys();

    let mut platform = None;
    for _ in 0..SETUPS {
        drop(platform.take());
        let t = Instant::now();
        platform = Some(setup(&keys)?);
        outcome.setups.push(t.elapsed().as_secs_f64());
    }
    let mut platform = platform.expect("at least one set-up ran");

    for i in 0..keys.len() {
        if web::handle_request(&platform, &Read::Album(i).request(&keys)).status != 200 {
            return Err(format!("warm-up {} failed", keys[i].target()));
        }
    }
    let mut uploads = UploadGen::new(root.fork("uploads"));
    let mut reads = ReadGen::new(root.fork("reads"), keys.len(), READ_MIX);
    let mut kinds = root.fork("kinds");
    let mut checks = root.fork("checks");
    for _ in 0..WARM_OPS {
        if kinds.random_bool(UPLOAD_SHARE) {
            platform
                .upload(uploads.next())
                .map_err(|e| format!("warm-up upload: {e}"))?;
        } else {
            web::handle_request(&platform, &reads.next().request(&keys));
        }
    }

    let triples_start = platform.store().len();
    let albums_start = platform.album_cache_stats();
    let plans_start = platform.plan_cache_stats();
    let semantic_start = platform.semantic_cache_stats();
    let diffs_start = platform.live().ops().diffs;
    let mut plain = Classes::new();
    let mut traced = Classes::new();
    let mut spans = Spans::default();
    let mut paused = Duration::ZERO;
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < deadline {
        let traced_op = args.trace && outcome.attempted % 2 == 1;
        outcome.attempted += 1;
        let read = (!kinds.random_bool(UPLOAD_SHARE)).then(|| reads.next());
        let Some(read) = read else {
            let upload = uploads.next();
            let t = Instant::now();
            let ok = if traced_op {
                staged_upload(&mut platform, upload, &mut spans).0
            } else {
                platform.upload(upload).is_ok()
            };
            let took = t.elapsed();
            match ok {
                true if traced_op => record(&mut traced, None, took),
                true => record(&mut plain, None, took),
                false => outcome.failed += 1,
            }
            continue;
        };

        let request = read.request(&keys);
        let t = Instant::now();
        // A traced read calls its layer's entry point first, so the
        // layer span carries any solve and the request then hits.
        if traced_op && !layer_call(&platform, &keys, &read, &mut spans) {
            outcome.failed += 1;
        }
        let h = Instant::now();
        let response = web::handle_request(&platform, &request);
        if traced_op {
            spans.record("web.handle", h.elapsed());
        }
        let took = t.elapsed();
        if response.status != 200 {
            outcome.failed += 1;
            continue;
        }
        record(
            if traced_op { &mut traced } else { &mut plain },
            Some(&read),
            took,
        );

        // Checks run on the same store epoch as the read, off the clock.
        let check = checks.random_range(0..CHECK_EVERY) == 0;
        let probe = traced_op && matches!(read, Read::Album(_));
        if !check && !probe {
            continue;
        }
        let off = Instant::now();
        match &read {
            Read::Album(i) => {
                let served = client::album_links(&response.body);
                let spec = keys[*i].spec();
                if check {
                    match client::album_oracle(&spec, platform.store()) {
                        Ok(want) if want == served => {}
                        Ok(want) => outcome.mismatch(format!(
                            "album {}: served {} links, oracle {}",
                            keys[*i].target(),
                            served.len(),
                            want.len()
                        )),
                        Err(e) => outcome.mismatch(format!("album oracle failed: {e}")),
                    }
                }
                if probe {
                    match sparql_probe(&platform, &spec.to_sparql(), &mut spans) {
                        Ok(links) if links == served => {}
                        Ok(_) => outcome.mismatch(format!(
                            "album {}: planned solve differs from served page",
                            keys[*i].target()
                        )),
                        Err(e) => outcome.mismatch(format!("sparql probe failed: {e}")),
                    }
                }
            }
            Read::About(_) if web::route(&platform, &request).body != response.body => {
                outcome.mismatch(format!(
                    "{}: body differs from re-render",
                    read.target(&keys)
                ));
            }
            _ => {}
        }
        paused += off.elapsed();
    }
    let busy = start.elapsed() - paused;
    if platform.plan_cache_stats().bypasses != 0 {
        outcome.mismatch("plan cache bypassed".into());
    }

    outcome.head("pictures", gen::PICTURES);
    outcome.head("triples_start", triples_start);
    outcome.head("triples_end", platform.store().len());
    outcome.head("album_specs", keys.len());
    outcome.head("live_albums", platform.live().ops().albums);
    if args.trace {
        outcome.notes.extend(spans.summary());
        let albums = platform.album_cache_stats();
        let plans = platform.plan_cache_stats();
        let semantic = platform.semantic_cache_stats();
        let uploads = |c: &Classes| c.get("upload").cloned().unwrap_or_default();
        let (plain_uploads, traced_uploads) = (uploads(&plain), uploads(&traced));
        let commits = (plain_uploads.len() + traced_uploads.len()) as u64;
        let m = &mut outcome.metrics;
        crate::span_metrics(
            m,
            &spans,
            &[
                ("web.handle", "web.handle_p50_ms", "web.handle_mean_ms"),
                ("albums.view", "albums.view_p50_ms", "albums.view_mean_ms"),
                (
                    "sparql.parse",
                    "sparql.parse_p50_ms",
                    "sparql.parse_mean_ms",
                ),
                ("sparql.plan", "sparql.plan_p50_ms", "sparql.plan_mean_ms"),
                ("sparql.eval", "sparql.eval_p50_ms", "sparql.eval_mean_ms"),
                (
                    "mashup.about",
                    "mashup.about_p50_ms",
                    "mashup.about_mean_ms",
                ),
                (
                    "search.suggest",
                    "search.suggest_p50_ms",
                    "search.suggest_mean_ms",
                ),
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
            "albums.hit_ratio",
            measure::ratio(
                albums.hits - albums_start.hits,
                albums.hits + albums.misses - albums_start.hits - albums_start.misses,
            ),
        );
        m.insert(
            "albums.invalidations",
            (albums.invalidations - albums_start.invalidations) as f64,
        );
        m.insert(
            "live.diffs_per_commit",
            measure::ratio(platform.live().ops().diffs - diffs_start, commits),
        );
        m.insert(
            "sparql.plan_hit_ratio",
            measure::ratio(
                plans.hits - plans_start.hits,
                plans.hits + plans.misses - plans_start.hits - plans_start.misses,
            ),
        );
        m.insert(
            "sparql.plan_invalidations",
            (plans.invalidations - plans_start.invalidations) as f64,
        );
        m.insert(
            "lod.semantic_hit_ratio",
            measure::ratio(
                semantic.hits - semantic_start.hits,
                semantic.hits + semantic.misses - semantic_start.hits - semantic_start.misses,
            ),
        );
        m.insert(
            "store.triples_per_upload",
            measure::ratio((platform.store().len() - triples_start) as u64, commits),
        );
        m.insert(
            "trace.read_p50_overhead_ms",
            read_samples(&traced).quantile(0.5) - read_samples(&plain).quantile(0.5),
        );
        m.insert(
            "trace.upload_p50_overhead_ms",
            traced_uploads.quantile(0.5) - plain_uploads.quantile(0.5),
        );
        m.insert(
            "trace.upload_mean_overhead_ms",
            traced_uploads.mean() - plain_uploads.mean(),
        );
    }
    outcome.busy = busy;
    outcome.classes = plain;
    Ok(outcome)
}
