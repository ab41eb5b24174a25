//! `browse`: open-loop, read-only traffic over loopback sockets.
//!
//! Poisson arrivals at one fixed rate; each request is timed from its
//! scheduled send time, so a stall also charges the requests queued
//! behind it. The generator is a single thread that opens one
//! connection per request (the server closes every connection) and
//! keeps up to two in flight; with the server's own thread the process
//! runs two threads. Admission control stays off, as it is by default.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lodify_core::mashup::MashupService;
use lodify_core::platform::Platform;
use lodify_core::search::SearchService;
use lodify_core::web::{self, WebServer};
use lodify_resilience::DetRng;

use crate::client;
use crate::gen::{self, AlbumKey, Read, ReadGen};
use crate::measure::{self, Samples, Spans};
use crate::{read_samples, Args, Outcome};

/// Offered load, requests per second. At the measured service times
/// (about 15 ms for an About mashup, well under 1 ms for a cached
/// album) the single-threaded server is busy about a fifth of the time,
/// so a slower host does not tip the run into a growing queue.
const RATE_PER_S: f64 = 60.0;
/// Request mix in percent: album, about, search, picture, resource.
const MIX: [u32; 5] = [60, 10, 15, 10, 5];
/// Requests in flight at most: one per core, and with the server's
/// thread the process runs two threads.
const CONNECTIONS: usize = 2;
/// Set-ups per process; `setup_s` is the median over all of a run's
/// set-ups.
const SETUPS: usize = 2;
/// One response in this many is checked against the oracle.
const CHECK_EVERY: u64 = 8;

/// What one pass over the request stream saw.
#[derive(Default)]
struct Pass {
    by_kind: BTreeMap<&'static str, Samples>,
    late: Samples,
    attempted: u64,
    failed: u64,
    album_checks: Vec<(usize, Vec<String>)>,
    about_checks: Vec<(Read, String)>,
    /// Traced requests with their client-side latency (send to reply).
    replays: Vec<(Read, Duration)>,
    elapsed: Duration,
}

/// A request on the wire.
struct InFlight {
    read: Read,
    due: Instant,
    sent: Instant,
    conn: client::Conn,
}

/// Poisson arrival times over `seconds` at [`RATE_PER_S`], conditioned
/// on their count: that many uniform instants, sorted. Fixing the count
/// keeps the offered load identical across seeds.
fn schedule(rng: &mut DetRng, seconds: f64) -> Vec<f64> {
    let n = (RATE_PER_S * seconds).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.random_f64() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// Sends the seeded request stream for `seconds`, keeping up to
/// [`CONNECTIONS`] requests in flight. A request due while both are
/// busy waits, and its latency still counts from when it was due. A
/// `traced` pass also keeps each request for [`replay`].
fn pass(addr: SocketAddr, keys: &[AlbumKey], seed: u64, seconds: f64, traced: bool) -> Pass {
    let root = DetRng::seed_from_u64(seed);
    let mut reads = ReadGen::new(root.fork("reads"), keys.len(), MIX);
    let mut checks = root.fork("checks");
    let arrivals = schedule(&mut root.fork("arrivals"), seconds);
    let mut out = Pass::default();
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(arrivals[i]);
    loop {
        let now = Instant::now();
        if next < arrivals.len() && inflight.len() < CONNECTIONS && now >= due(next) {
            let read = reads.next();
            out.attempted += 1;
            out.late.push(now - due(next));
            match client::Conn::open(addr, &read.target(keys)) {
                Ok(conn) => inflight.push_back(InFlight {
                    read,
                    due: due(next),
                    sent: now,
                    conn,
                }),
                Err(_) => out.failed += 1,
            }
            next += 1;
            continue;
        }
        if inflight.is_empty() {
            if next == arrivals.len() {
                break;
            }
            if let Some(wait) = due(next).checked_duration_since(now) {
                std::thread::sleep(wait);
            }
            continue;
        }
        // The server answers in accept order, so with every connection
        // busy the oldest completes first: block on it.
        let finished = if inflight.len() == CONNECTIONS || next == arrivals.len() {
            let request = inflight.pop_front().expect("a request is in flight");
            let reply = request.conn.finish();
            Some((request.read, request.due, request.sent, reply))
        } else {
            let polled = inflight
                .iter_mut()
                .map(|r| r.conn.poll())
                .enumerate()
                .find_map(|(i, polled)| match polled {
                    Ok(None) => None,
                    Ok(Some(reply)) => Some((i, Ok(reply))),
                    Err(e) => Some((i, Err(e))),
                });
            match polled {
                Some((i, reply)) => {
                    let request = inflight.remove(i).expect("position is in range");
                    Some((request.read, request.due, request.sent, reply))
                }
                None => {
                    let poll = Duration::from_micros(100);
                    let wait = due(next).saturating_duration_since(Instant::now());
                    std::thread::sleep(wait.min(poll));
                    None
                }
            }
        };
        let Some((read, due_at, sent, reply)) = finished else {
            continue;
        };
        let done = Instant::now();
        let reply = match reply {
            Ok(reply) if reply.status == 200 => reply,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.by_kind
            .entry(read.kind())
            .or_default()
            .push(done - due_at);
        if checks.random_range(0..CHECK_EVERY) == 0 {
            match &read {
                Read::Album(i) => out
                    .album_checks
                    .push((*i, client::album_links(&reply.body))),
                Read::About(_) => out.about_checks.push((read.clone(), reply.body)),
                _ => {}
            }
        }
        if traced {
            out.replays.push((read, done - sent));
        }
    }
    out.elapsed = start.elapsed();
    out
}

/// Replays a traced pass in-process, after its window so the open loop
/// is not slowed: `handle_request` and the route's layer entry point,
/// each under a span. `web.net` is the client-side latency of the same
/// request minus its `handle_request` time. The store does not change
/// in this workload, so the replay sees the state the server saw.
fn replay(platform: &Platform, keys: &[AlbumKey], pass: &mut Pass, spans: &mut Spans) {
    for (read, client) in &pass.replays {
        let request = read.request(keys);
        let t = Instant::now();
        let handled = web::handle_request(platform, &request);
        let handle = t.elapsed();
        spans.record("web.handle", handle);
        spans.record_ms(
            "web.net",
            client.as_secs_f64() * 1e3 - handle.as_secs_f64() * 1e3,
        );
        let ok = handled.status == 200 && layer_call(platform, keys, read, spans);
        if !ok {
            pass.failed += 1;
        }
    }
}

/// Calls the layer entry point a read's route goes through, under a span
/// named after the layer; returns whether the call succeeded. Picture
/// and resource pages have no layer call of their own.
pub fn layer_call(platform: &Platform, keys: &[AlbumKey], read: &Read, spans: &mut Spans) -> bool {
    match read {
        Read::Album(i) => {
            let spec = keys[*i].spec();
            spans
                .time("albums.view", || platform.view_album(&spec))
                .is_ok()
        }
        Read::About(pid) => {
            let iri = Platform::picture_iri(*pid);
            let about = MashupService::standard();
            spans
                .time("mashup.about", || about.about(platform.store(), &iri))
                .is_ok()
        }
        Read::Search(q) => {
            spans.time("search.suggest", || {
                SearchService::suggest(platform.store(), q, 8)
            });
            true
        }
        Read::Picture(_) | Read::Resource(_) => true,
    }
}

/// Checks sampled responses: album links against the spec solved by
/// the unplanned evaluator, About bodies against an in-process render.
/// The store never changes in this workload, so the check may run after
/// the pass.
fn check(platform: &Platform, keys: &[AlbumKey], pass: &Pass, outcome: &mut Outcome) {
    let mut expected: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (i, links) in &pass.album_checks {
        let want = match expected.get(i) {
            Some(want) => want,
            None => match client::album_oracle(&keys[*i].spec(), platform.store()) {
                Ok(want) => expected.entry(*i).or_insert(want),
                Err(e) => {
                    outcome.mismatch(format!("album {}: oracle failed: {e}", keys[*i].target()));
                    continue;
                }
            },
        };
        if links != want {
            outcome.mismatch(format!(
                "album {}: served {} links, oracle {}",
                keys[*i].target(),
                links.len(),
                want.len()
            ));
        }
    }
    for (read, body) in &pass.about_checks {
        let rendered = web::route(platform, &read.request(keys));
        if &rendered.body != body {
            outcome.mismatch(format!(
                "{}: socket body differs from render",
                read.target(keys)
            ));
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let keys = gen::album_keys();
    let seed = args.stream_seed();

    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((_, server)) = live.take() {
            WebServer::stop(server);
        }
        let t = Instant::now();
        let platform =
            Arc::new(Platform::bootstrap(gen::store_config()).map_err(|e| e.to_string())?);
        let server = WebServer::start(Arc::clone(&platform), 0).map_err(|e| e.to_string())?;
        outcome.setups.push(t.elapsed().as_secs_f64());
        live = Some((platform, server));
    }
    let (platform, server) = live.expect("at least one set-up ran");
    let addr = server.addr();

    // Warm-up: every album spec once, so the measured window serves
    // album hits only, then a short socket stream.
    for (i, key) in keys.iter().enumerate() {
        if web::handle_request(&platform, &Read::Album(i).request(&keys)).status != 200 {
            return Err(format!("warm-up {} failed", key.target()));
        }
    }
    pass(addr, &keys, seed ^ 0x5eed, 0.5, false);

    let albums_before = platform.album_cache_stats();
    let triples = platform.store().len();
    let mut spans = Spans::default();
    let (plain, traced) = if args.trace {
        let plain = pass(addr, &keys, seed, args.seconds / 2.0, false);
        let mut traced = pass(addr, &keys, seed, args.seconds / 2.0, true);
        replay(&platform, &keys, &mut traced, &mut spans);
        (plain, Some(traced))
    } else {
        (pass(addr, &keys, seed, args.seconds, false), None)
    };
    server.stop();

    let albums = platform.album_cache_stats();
    for p in std::iter::once(&plain).chain(traced.as_ref()) {
        check(&platform, &keys, p, &mut outcome);
        outcome.attempted += p.attempted;
        outcome.failed += p.failed;
    }
    if platform.plan_cache_stats().bypasses != 0 {
        outcome.mismatch("plan cache bypassed".into());
    }

    outcome.head("pictures", gen::PICTURES);
    outcome.head("triples_start", triples);
    outcome.head("triples_end", platform.store().len());
    outcome.head("album_specs", keys.len());
    outcome.head("rate_per_s", RATE_PER_S);
    outcome.head("admission", "off");
    for (label, p) in
        std::iter::once(("plain", &plain)).chain(traced.as_ref().map(|t| ("traced", t)))
    {
        outcome.notes.push(format!(
            "{label}: requests={} failed={} p50_ms={:.3} p99_ms={:.3} late_p99_ms={:.3}",
            p.attempted,
            p.failed,
            read_samples(&p.by_kind).quantile(0.5),
            read_samples(&p.by_kind).quantile(0.99),
            p.late.quantile(0.99)
        ));
    }

    if let Some(traced) = &traced {
        outcome.notes.extend(spans.summary());
        let m = &mut outcome.metrics;
        crate::span_metrics(
            m,
            &spans,
            &[
                ("web.net", "web.net_p50_ms", "web.net_mean_ms"),
                ("web.handle", "web.handle_p50_ms", "web.handle_mean_ms"),
                ("albums.view", "albums.view_p50_ms", "albums.view_mean_ms"),
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
            ],
        );
        m.insert("web.gen_late_p99_ms", traced.late.quantile(0.99));
        m.insert(
            "albums.hit_ratio",
            measure::ratio(
                albums.hits - albums_before.hits,
                albums.hits + albums.misses - albums_before.hits - albums_before.misses,
            ),
        );
        m.insert(
            "albums.invalidations",
            (albums.invalidations - albums_before.invalidations) as f64,
        );
        m.insert(
            "trace.read_p50_overhead_ms",
            read_samples(&traced.by_kind).quantile(0.5)
                - read_samples(&plain.by_kind).quantile(0.5),
        );
    }
    outcome.busy = plain.elapsed;
    outcome.classes = plain.by_kind;
    Ok(outcome)
}
