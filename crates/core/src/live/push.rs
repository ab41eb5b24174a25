//! SparqlPuSH diff push: at-least-once delivery of album diffs.
//!
//! The paper's §6 names PubSubHubbub/SparqlPuSH push as the missing
//! distribution leg of LODified sharing. [`PushHub`] supplies it for
//! live albums: every subscriber owns an ordered **diff journal** of
//! [`AlbumDiff`] frames (monotonic sequence numbers), shipped through
//! the delivery primitive the federation and replication layers share
//! (`core::outbox`): a per-subscriber circuit breaker, a [`FaultPlan`]
//! judged at target `push:<callback>` under a [`RetryPolicy`], and a
//! dead-letter queue replayed by [`PushHub::redeliver`].
//!
//! Delivery is **at-least-once** and subscriber apply is
//! **idempotent**: frames carry absolute `(link, rank)` upserts, the
//! subscriber keeps a cursor of the highest applied sequence
//! (duplicates are no-ops), and a gap triggers a catch-up replay from
//! the diff journal — so drops, duplicates and mid-stream subscriber
//! crashes all converge to the same state. A crashed subscriber that
//! recovers replays the full journal from sequence 1; because frames
//! are absolute upserts/removals, the replay reconstructs the album
//! exactly (chaos tests assert byte-identity with a fresh recompute).

use std::collections::BTreeMap;

use lodify_obs::{Obs, Tracer};
use lodify_resilience::{BreakerState, FaultPlan, ReplayReport, RetryPolicy, Telemetry};

use super::engine::{member_order, AlbumDiff, LiveAlbumId, Rank, StandingQueryEngine};
use crate::metrics::LivePushOps;
use crate::outbox::{Outbox, MAX_ATTEMPTS};

/// Attempts before a parked push shipment is abandoned.
pub const PUSH_MAX_ATTEMPTS: u32 = MAX_ATTEMPTS;

/// Handle of one subscription.
pub type SubscriberId = usize;

/// The subscriber-side materialization: an idempotent fold over the
/// diff stream.
#[derive(Debug, Clone, Default)]
pub struct SubscriberAlbum {
    members: BTreeMap<String, Option<Rank>>,
    cursor: u64,
    limit: Option<usize>,
}

impl SubscriberAlbum {
    fn empty(limit: Option<usize>) -> SubscriberAlbum {
        SubscriberAlbum {
            limit,
            ..SubscriberAlbum::default()
        }
    }

    /// Highest applied journal sequence.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The subscriber's view of the album, in the same canonical order
    /// (and under the same `LIMIT`) as the publisher's answer.
    pub fn links(&self) -> Vec<String> {
        let mut ordered: Vec<(String, Option<Rank>)> = self
            .members
            .iter()
            .map(|(l, r)| (l.clone(), r.clone()))
            .collect();
        ordered.sort_by(member_order);
        let mut links: Vec<String> = ordered.into_iter().map(|(l, _)| l).collect();
        if let Some(limit) = self.limit {
            links.truncate(limit);
        }
        links
    }

    /// Applies one frame; duplicates (`seq <= cursor`) are no-ops.
    fn apply(&mut self, seq: u64, diff: &AlbumDiff) -> bool {
        if seq <= self.cursor {
            return false;
        }
        for (link, rank) in &diff.upserts {
            self.members.insert(link.clone(), rank.clone());
        }
        for link in &diff.removals {
            self.members.remove(link);
        }
        self.cursor = seq;
        true
    }
}

struct PushSub {
    callback: String,
    album: LiveAlbumId,
    /// Result cap the subscriber renders with (survives crashes).
    limit: Option<usize>,
    /// Ordered diff journal; frame `i` has sequence `i + 1`.
    journal: Vec<AlbumDiff>,
    /// `None` while the subscriber is crashed.
    state: Option<SubscriberAlbum>,
}

impl PushSub {
    fn head(&self) -> u64 {
        self.journal.len() as u64
    }
}

/// Per-subscriber diff journals with fault-injected, at-least-once
/// shipping. See the module docs.
pub struct PushHub {
    /// Subscriber `i` is peer `i` of the outbox.
    subs: Vec<PushSub>,
    outbox: Outbox,
    tracer: Option<Tracer>,
}

impl Default for PushHub {
    fn default() -> Self {
        Self::new()
    }
}

impl PushHub {
    /// A hub with no subscribers and perfect transport.
    pub fn new() -> PushHub {
        PushHub {
            subs: Vec::new(),
            outbox: Outbox::new("live.push"),
            tracer: None,
        }
    }

    /// Installs fault-injected transport: every delivery to a
    /// subscriber is judged by `plan` under target `push:<callback>`,
    /// retried per `retry`.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.outbox.with_fault_plan(plan, retry);
    }

    /// Attaches observability: `live.push` spans plus mirrored
    /// counters and the `live.push.lag` gauge.
    pub fn set_observability(&mut self, obs: &Obs) {
        self.outbox.set_metrics(obs.metrics().clone());
        self.tracer = Some(obs.tracer().clone());
    }

    /// Push telemetry (`live.push.*` counters and gauges).
    pub fn telemetry(&self) -> &Telemetry {
        self.outbox.telemetry()
    }

    /// Subscribes `callback` to `album`, seeding its journal with a
    /// snapshot frame so a fresh subscriber converges to the current
    /// membership. Returns the subscription handle.
    pub fn subscribe(
        &mut self,
        callback: &str,
        album: LiveAlbumId,
        engine: &StandingQueryEngine,
    ) -> SubscriberId {
        let limit = engine.spec(album).limit;
        let snapshot = AlbumDiff {
            album,
            upserts: engine.members(album),
            removals: Vec::new(),
            moved: Vec::new(),
            trace: None,
        };
        self.subs.push(PushSub {
            callback: callback.to_string(),
            album,
            limit,
            journal: vec![snapshot],
            state: Some(SubscriberAlbum::empty(limit)),
        });
        self.outbox.add_peer(format!("push:{callback}"))
    }

    /// Number of subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nobody subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Appends `diff` to the journal of every subscriber of its album.
    /// Call [`Self::pump`] afterwards to ship.
    pub fn offer(&mut self, diff: &AlbumDiff) {
        for sub in &mut self.subs {
            if sub.album == diff.album {
                sub.journal.push(diff.clone());
                self.outbox.count("offered");
            }
        }
    }

    /// Ships every subscriber's backlog. Failed deliveries park in the
    /// DLQ and shipping moves on — the subscriber-side cursor plus
    /// catch-up replay keep out-of-order arrivals correct.
    pub fn pump(&mut self) {
        for idx in 0..self.subs.len() {
            while let Some(seq) = self.outbox.next(idx, self.subs[idx].head()) {
                let trace = self.subs[idx].journal[(seq - 1) as usize].trace;
                let span = self
                    .tracer
                    .as_ref()
                    .map(|t| t.start_with_context("live.push", trace));
                match self.outbox.judge(idx) {
                    Ok(()) => self.deliver(idx, seq),
                    Err(error) => self.outbox.park(idx, seq, error),
                }
                drop(span);
            }
        }
        self.outbox.publish_gauges(self.lag());
    }

    /// Replays the push dead-letter queue; still-failing shipments are
    /// re-parked until [`PUSH_MAX_ATTEMPTS`] exhausts them.
    pub fn redeliver(&mut self) -> ReplayReport {
        let report = Outbox::replay(
            self,
            |hub| &mut hub.outbox,
            |hub, idx, seq| {
                hub.outbox.judge(idx)?;
                hub.deliver(idx, seq);
                Ok(())
            },
        );
        self.outbox.publish_gauges(self.lag());
        report
    }

    /// Applies frame `seq` on the subscriber, catching up any earlier
    /// frames first (a parked frame must not leave a hole when a later
    /// one lands).
    fn deliver(&mut self, idx: SubscriberId, seq: u64) {
        let sub = &mut self.subs[idx];
        let Some(state) = sub.state.as_mut() else {
            return; // crashed mid-stream: judged deliverable, nobody home
        };
        let mut applied = false;
        for q in (state.cursor + 1)..=seq {
            if q < seq {
                self.outbox.count("catchups");
            }
            applied |= state.apply(q, &sub.journal[(q - 1) as usize]);
        }
        self.outbox
            .count(if applied { "delivered" } else { "duplicates" });
    }

    /// Simulates a subscriber crash: its materialized state (cursor
    /// included) is lost; the diff journal survives hub-side. Unknown
    /// ids are ignored.
    pub fn kill(&mut self, id: SubscriberId) {
        if let Some(sub) = self.subs.get_mut(id) {
            sub.state = None;
            self.outbox.count("crashes");
        }
    }

    /// Recovers a crashed subscriber with empty state. Shipping
    /// restarts from sequence 1; replaying the absolute diff stream
    /// reconstructs the album exactly.
    pub fn recover(&mut self, id: SubscriberId) {
        let Some(sub) = self.subs.get_mut(id) else {
            return;
        };
        if sub.state.is_none() {
            sub.state = Some(SubscriberAlbum::empty(sub.limit));
            self.outbox.rewind(id);
        }
    }

    /// The subscriber's materialized album, if it exists and is up.
    pub fn subscriber(&self, id: SubscriberId) -> Option<&SubscriberAlbum> {
        self.subs.get(id)?.state.as_ref()
    }

    /// `(callback, album, head, shipped, cursor, breaker)` rows for
    /// the `/subscriptions` route.
    pub fn rows(&self) -> Vec<(String, LiveAlbumId, u64, u64, Option<u64>, BreakerState)> {
        self.subs
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                (
                    s.callback.clone(),
                    s.album,
                    s.head(),
                    self.outbox.shipped(idx),
                    s.state.as_ref().map(SubscriberAlbum::cursor),
                    self.outbox.breaker_state(idx),
                )
            })
            .collect()
    }

    /// Maximum journal backlog over live subscribers (head − cursor).
    pub fn lag(&self) -> u64 {
        self.subs
            .iter()
            .map(|s| {
                s.head()
                    .saturating_sub(s.state.as_ref().map_or(0, SubscriberAlbum::cursor))
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether every live subscriber has applied every frame with
    /// nothing parked.
    pub fn converged(&self) -> bool {
        self.lag() == 0 && self.outbox.depth() == 0
    }

    /// Parked deliveries awaiting [`Self::redeliver`].
    pub fn undelivered(&self) -> usize {
        self.outbox.depth()
    }

    /// Deliveries abandoned after [`PUSH_MAX_ATTEMPTS`].
    pub fn exhausted(&self) -> usize {
        self.outbox.exhausted()
    }

    /// Counter snapshot for `/ops`.
    pub fn ops(&self) -> LivePushOps {
        LivePushOps {
            subscribers: self.subs.len(),
            delivered: self.outbox.counter("delivered"),
            parked: self.outbox.counter("parked"),
            redelivered: self.outbox.counter("redelivered"),
            lag: self.lag(),
            dlq_depth: self.outbox.depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_rdf::{ns, Literal, Point, Term, Triple};
    use lodify_resilience::VirtualClock;
    use lodify_store::Store;

    use crate::albums::AlbumSpec;

    /// One registered album over a minimal store: the Mole plus one
    /// in-radius picture.
    fn engine_with_album() -> (Store, StandingQueryEngine) {
        let gaz = lodify_context::Gazetteer::global();
        let mole: Point = gaz.poi("Mole_Antonelliana").unwrap().point(gaz);
        let mut store = Store::new();
        let g = store.default_graph();
        let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
        store.insert(
            &Triple::spo(
                monument,
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                monument,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.to_literal()),
            ),
            g,
        );
        let pic = "http://t/pictures/1";
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::rdf_type().as_str(),
                Term::Iri(ns::iri::microblog_post()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.offset_km(0.05, 0.0).to_literal()),
            ),
            g,
        );
        store.insert(
            &Triple::spo(
                pic,
                ns::iri::image_data().as_str(),
                Term::literal("http://t/media/1.jpg"),
            ),
            g,
        );
        let mut engine = StandingQueryEngine::new();
        engine.register(
            &store,
            &AlbumSpec::near_monument("Mole Antonelliana", "it", 0.3),
        );
        (store, engine)
    }

    fn upsert(link: &str) -> AlbumDiff {
        AlbumDiff {
            album: 0,
            upserts: vec![(link.to_string(), None)],
            removals: Vec::new(),
            moved: Vec::new(),
            trace: None,
        }
    }

    #[test]
    fn snapshot_frame_converges_a_new_subscriber() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        assert!(hub.converged());
        assert_eq!(hub.subscriber(sub).unwrap().links(), engine.links(0));
        assert_eq!(hub.telemetry().counter("live.push.delivered"), 1);
    }

    #[test]
    fn offered_diffs_ship_once_and_pumps_are_idempotent() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 2);
        assert_eq!(
            state.links(),
            ["http://t/media/1.jpg", "http://t/media/2.jpg"]
        );
        assert_eq!(hub.telemetry().counter("live.push.delivered"), 2);
        assert_eq!(hub.telemetry().counter("live.push.duplicates"), 0);
    }

    #[test]
    fn outage_parks_frames_and_redelivery_converges() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 0, 5_000)
            .build(clock.clone());
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        assert_eq!(hub.undelivered(), 1, "snapshot frame parked");
        assert!(!hub.converged());

        // Heal the partition (and let the breaker cool down).
        clock.advance(10_000);
        let report = hub.redeliver();
        assert_eq!(report.replayed, 1);
        assert!(hub.converged());
        assert_eq!(hub.subscriber(sub).unwrap().links(), engine.links(0));
    }

    #[test]
    fn breaker_opens_after_repeated_failures() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 0, u64::MAX)
            .build(clock);
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        hub.subscribe("http://client/cb", 0, &engine);
        // Three failures trip the breaker; the fourth frame is then
        // rejected without touching the transport at all.
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.offer(&upsert("http://t/media/4.jpg"));
        hub.pump();
        assert_eq!(hub.rows()[0].5, BreakerState::Open);
        assert!(hub.telemetry().counter("live.push.breaker.rejections") > 0);
    }

    #[test]
    fn parked_frame_is_caught_up_by_a_later_delivery() {
        let (_, engine) = engine_with_album();
        let clock = VirtualClock::new();
        // Frame 1 ships cleanly; frame 2 hits a short outage window.
        let plan = FaultPlan::builder()
            .outage("push:http://client/cb", 1_000, 2_000)
            .build(clock.clone());
        let mut hub = PushHub::new();
        hub.with_fault_plan(plan, RetryPolicy::no_retry());
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        clock.advance(1_500);
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();
        assert_eq!(hub.undelivered(), 1, "frame 2 parked in the outage");

        // Frame 3 lands after the outage: delivering it catches up the
        // hole left by frame 2 from the outbox journal.
        clock.advance(1_500);
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 3);
        assert_eq!(state.links().len(), 3);
        assert_eq!(hub.telemetry().counter("live.push.catchups"), 1);

        // Replaying the parked frame 2 is now a duplicate no-op.
        let report = hub.redeliver();
        assert_eq!(report.replayed, 1);
        assert_eq!(hub.telemetry().counter("live.push.duplicates"), 1);
        assert_eq!(hub.subscriber(sub).unwrap().cursor(), 3);
        assert!(hub.converged());
    }

    #[test]
    fn crash_and_recover_replays_the_full_outbox_to_identity() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        let sub = hub.subscribe("http://client/cb", 0, &engine);
        hub.pump();
        hub.offer(&upsert("http://t/media/2.jpg"));
        hub.pump();

        hub.kill(sub);
        assert!(hub.subscriber(sub).is_none());
        // Frames offered while the subscriber is down are journaled
        // (and "shipped" to nobody).
        hub.offer(&upsert("http://t/media/3.jpg"));
        hub.pump();

        hub.recover(sub);
        hub.pump();
        let state = hub.subscriber(sub).unwrap();
        assert_eq!(state.cursor(), 3);
        assert_eq!(
            state.links(),
            [
                "http://t/media/1.jpg",
                "http://t/media/2.jpg",
                "http://t/media/3.jpg"
            ]
        );
        assert!(hub.converged());
    }

    #[test]
    fn ops_reports_lag_and_dlq_depth() {
        let (_, engine) = engine_with_album();
        let mut hub = PushHub::new();
        hub.subscribe("http://client/cb", 0, &engine);
        let ops = hub.ops();
        assert_eq!(ops.subscribers, 1);
        assert_eq!(ops.lag, 1, "snapshot frame not yet shipped");
        hub.pump();
        assert_eq!(hub.ops().lag, 0);
        assert_eq!(hub.ops().delivered, 1);
    }
}
