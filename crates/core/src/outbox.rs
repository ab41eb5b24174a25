//! The one delivery primitive behind every "ship to a peer" path.
//!
//! Replication ships emissions between home nodes, the live-album hub
//! pushes album diffs to subscribers, and the federation fans
//! PubSubHubbub notifications out to follower nodes. All three hand a
//! numbered payload from an ordered per-peer log to a peer over a
//! faulty transport; [`Outbox`] owns that mechanism exactly once:
//!
//! * per-peer state — the transport target a fault plan judges
//!   (`repl:<from>-><to>`, `push:<callback>`, `node:<host>`), the
//!   highest sequence number handed to delivery, and a circuit breaker
//!   built from [`BreakerConfig::default`];
//! * the judge — breaker first, then the [`FaultPlan`] check under the
//!   [`RetryPolicy`], backing off on the plan's virtual clock;
//! * a dead-letter queue of `(peer, seq)` slots, parked on failure and
//!   replayed by [`Outbox::replay`]; the payload is refetched from the
//!   owner's log on replay, so the queue never holds a stale copy;
//! * counters and gauges under a prefix fixed at construction
//!   (`replication`, `live.push`, `federation`), written to a
//!   [`Telemetry`] registry and mirrored into an attached [`Metrics`].
//!
//! Owners keep only their payload log and their idempotent apply fold.

use lodify_obs::Metrics;
use lodify_resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, DeadLetterQueue, DetRng, FaultPlan, ReplayReport,
    RetryPolicy, Telemetry,
};

/// Attempts (initial failure plus replays) before a parked delivery is
/// abandoned to the exhausted bucket.
pub const MAX_ATTEMPTS: u32 = 8;

struct Peer {
    target: String,
    /// Highest sequence handed to delivery (delivered or parked).
    shipped: u64,
    breaker: CircuitBreaker,
}

/// Per-peer cursors, breakers, fault-plan judge and dead-letter queue
/// for one delivery path. See the module docs.
pub struct Outbox {
    prefix: &'static str,
    peers: Vec<Peer>,
    plan: Option<FaultPlan>,
    retry: RetryPolicy,
    rng: DetRng,
    dlq: DeadLetterQueue<(usize, u64)>,
    telemetry: Telemetry,
    metrics: Option<Metrics>,
}

impl Outbox {
    /// An outbox with no peers and perfect transport, counting under
    /// `prefix`.
    pub fn new(prefix: &'static str) -> Outbox {
        Outbox {
            prefix,
            peers: Vec::new(),
            plan: None,
            retry: RetryPolicy::no_retry(),
            rng: DetRng::seed_from_u64(0).fork(prefix),
            dlq: DeadLetterQueue::new(MAX_ATTEMPTS),
            telemetry: Telemetry::new(),
            metrics: None,
        }
    }

    /// Installs fault-injected transport: every delivery is judged by
    /// `plan` under the peer's target, retried per `retry`.
    pub fn with_fault_plan(&mut self, plan: FaultPlan, retry: RetryPolicy) {
        self.plan = Some(plan);
        self.retry = retry;
    }

    /// The installed fault plan and retry policy, if any.
    pub fn fault_plan(&self) -> Option<(&FaultPlan, &RetryPolicy)> {
        self.plan.as_ref().map(|plan| (plan, &self.retry))
    }

    /// Mirrors every counter and gauge into `metrics` from now on.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = Some(metrics);
    }

    /// The `<prefix>.*` counters and gauges.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Adds a peer judged under `target`; returns its index.
    pub fn add_peer(&mut self, target: String) -> usize {
        self.peers.push(Peer {
            target,
            shipped: 0,
            breaker: CircuitBreaker::new(BreakerConfig::default()),
        });
        self.peers.len() - 1
    }

    /// Claims the next sequence number for `peer` when its log `head`
    /// is ahead of what was shipped. The caller delivers or parks it:
    /// either way the slot is accounted for.
    pub fn next(&mut self, peer: usize, head: u64) -> Option<u64> {
        let peer = &mut self.peers[peer];
        (peer.shipped < head).then(|| {
            peer.shipped += 1;
            peer.shipped
        })
    }

    /// Highest sequence handed to delivery for `peer`.
    pub fn shipped(&self, peer: usize) -> u64 {
        self.peers[peer].shipped
    }

    /// Restarts shipping to `peer` from sequence 1 (a peer that lost
    /// its applied state).
    pub fn rewind(&mut self, peer: usize) {
        self.peers[peer].shipped = 0;
    }

    /// The breaker state of `peer`.
    pub fn breaker_state(&self, peer: usize) -> BreakerState {
        self.peers[peer].breaker.state()
    }

    fn now_ms(&self) -> u64 {
        self.plan.as_ref().map_or(0, |plan| plan.clock().now_ms())
    }

    /// Judges one transport call to `peer`: its breaker first, then the
    /// fault plan (with retry and backoff in virtual time).
    pub fn judge(&mut self, peer: usize) -> Result<(), String> {
        let now = self.now_ms();
        if !self.peers[peer].breaker.allow(now) {
            self.count("breaker.rejections");
            return Err(format!("breaker open for {}", self.peers[peer].target));
        }
        let outcome = match &self.plan {
            None => Ok(()),
            Some(plan) => {
                let target = &self.peers[peer].target;
                let run = self
                    .retry
                    .run(plan.clock(), &mut self.rng, |_| plan.check(target));
                let attempts = match &run {
                    Ok(done) => done.attempts,
                    Err(failed) => failed.attempts,
                };
                if attempts > 1 {
                    self.add("retries", u64::from(attempts - 1));
                }
                run.map(|_| ()).map_err(|e| e.to_string())
            }
        };
        let now = self.now_ms();
        let breaker = &mut self.peers[peer].breaker;
        match &outcome {
            Ok(()) => breaker.on_success(now),
            Err(_) => breaker.on_failure(now),
        }
        outcome
    }

    /// Parks the slot `(peer, seq)` after a failed delivery.
    pub fn park(&mut self, peer: usize, seq: u64, error: String) {
        self.count("parked");
        let now = self.now_ms();
        self.dlq.push((peer, seq), error, now);
        self.gauge("dlq.depth", self.dlq.depth() as u64);
    }

    /// Replays the dead-letter queue of the outbox `outbox(owner)`:
    /// `deliver` refetches and applies each parked slot (judging it
    /// again first); failures are re-parked until [`MAX_ATTEMPTS`]
    /// exhausts them.
    pub fn replay<S>(
        owner: &mut S,
        outbox: fn(&mut S) -> &mut Outbox,
        mut deliver: impl FnMut(&mut S, usize, u64) -> Result<(), String>,
    ) -> ReplayReport {
        let fresh = DeadLetterQueue::new(MAX_ATTEMPTS);
        let mut dlq = std::mem::replace(&mut outbox(owner).dlq, fresh);
        let report = dlq.replay(|&(peer, seq)| deliver(owner, peer, seq));
        let this = outbox(owner);
        // Slots parked during the pass queue up behind the survivors.
        let parked_meanwhile = std::mem::replace(&mut this.dlq, dlq);
        for letter in parked_meanwhile.letters() {
            this.dlq.push(
                letter.item,
                letter.last_error.clone(),
                letter.first_failed_ms,
            );
        }
        this.add("redelivered", report.replayed as u64);
        this.gauge("dlq.depth", this.dlq.depth() as u64);
        report
    }

    /// Parked slots awaiting [`Outbox::replay`].
    pub fn depth(&self) -> usize {
        self.dlq.depth()
    }

    /// Slots abandoned after [`MAX_ATTEMPTS`].
    pub fn exhausted(&self) -> usize {
        self.dlq.exhausted().len()
    }

    /// Adds 1 to the counter `<prefix>.<name>`.
    pub fn count(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `<prefix>.<name>`.
    pub fn add(&self, name: &str, delta: u64) {
        let name = format!("{}.{name}", self.prefix);
        self.telemetry.add(&name, delta);
        if let Some(metrics) = &self.metrics {
            metrics.add(&name, delta);
        }
    }

    /// Current value of the counter `<prefix>.<name>`.
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry.counter(&format!("{}.{name}", self.prefix))
    }

    fn gauge(&self, name: &str, value: u64) {
        let name = format!("{}.{name}", self.prefix);
        self.telemetry.set_gauge(&name, value);
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge(&name, value);
        }
    }

    /// Publishes the owner's `lag` and the dead-letter depth as the
    /// `<prefix>.lag` and `<prefix>.dlq.depth` gauges.
    pub fn publish_gauges(&self, lag: u64) {
        self.gauge("lag", lag);
        self.gauge("dlq.depth", self.dlq.depth() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_resilience::VirtualClock;

    #[test]
    fn replay_requeues_then_exhausts_and_mirrors_counters() {
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("peer:a", 0, u64::MAX)
            .build(clock);
        let mut outbox = Outbox::new("t");
        outbox.with_fault_plan(plan, RetryPolicy::no_retry());
        let metrics = Metrics::new();
        outbox.set_metrics(metrics.clone());
        let peer = outbox.add_peer("peer:a".into());
        let seq = outbox.next(peer, 1).unwrap();
        let error = outbox.judge(peer).unwrap_err();
        outbox.park(peer, seq, error);
        for _ in 1..MAX_ATTEMPTS {
            Outbox::replay(&mut outbox, |o| o, |o, peer, _| o.judge(peer));
        }
        assert_eq!((outbox.depth(), outbox.exhausted()), (0, 1));
        assert_eq!(outbox.breaker_state(peer), BreakerState::Open);
        assert!(outbox.counter("breaker.rejections") > 0);
        assert_eq!(metrics.counter("t.parked"), 1);
        assert_eq!(outbox.telemetry().gauge("t.dlq.depth"), Some(0));
    }
}
