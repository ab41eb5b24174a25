//! End-to-end planner lifecycle: cost-based join ordering reacting to
//! data skew, and drift-driven invalidation of cached plans.

use std::sync::Arc;

use lodify_rdf::{Term, Triple};
use lodify_sparql::{evaluate_planned, plan_query, EvalOptions, Plan, PlanCache, PlanLookup};
use lodify_store::Store;

const QUERY: &str = "SELECT ?s WHERE { \
    ?s <http://ex/tag> <http://ex/popular> . \
    ?s <http://ex/kind> <http://ex/rare> . }";

fn insert(store: &mut Store, s: &str, p: &str, o: &str) {
    store.insert_default(&Triple::spo(s, p, Term::iri_unchecked(o.to_string())));
}

/// Skewed inserts flip the chosen join order, and the stale cached
/// plan — now misestimating by orders of magnitude — is invalidated by
/// the drift feedback loop so the next request replans.
#[test]
fn skewed_inserts_flip_join_order_and_invalidate_the_cached_plan() {
    let mut store = Store::new();
    // Balanced start: both patterns match a handful of subjects, and
    // `tag` is slightly the rarer predicate — the planner opens there.
    for i in 0..4 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
    }
    for i in 0..8 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/kind",
            "http://ex/rare",
        );
    }

    let parsed = Arc::new(lodify_sparql::parse(QUERY).unwrap());
    let fingerprint = lodify_sparql::fingerprint(QUERY);
    let cache = PlanCache::with_limits(16, 8.0);

    let balanced = Arc::new(plan_query(&store, &parsed, None));
    let balanced_run = balanced.runs().values().next().expect("one run");
    assert_eq!(balanced_run.order[0], 0, "balanced store opens on tag");
    cache.insert(
        &fingerprint,
        QUERY,
        Arc::clone(&parsed),
        Arc::clone(&balanced),
    );

    // Skew: the popular tag explodes to thousands of subjects while
    // the rare kind stays tiny. The cached order now starts from the
    // huge side.
    for i in 0..4_000 {
        insert(
            &mut store,
            &format!("http://ex/p{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
    }

    // A replan on the skewed store flips the order and (the epoch
    // having moved) the plan id.
    let replanned = plan_query(&store, &parsed, None);
    let replanned_run = replanned.runs().values().next().expect("one run");
    assert_eq!(replanned_run.order[0], 1, "skewed store opens on kind");
    assert_ne!(replanned.id(), balanced.id(), "plan id tracks the change");

    // Executing the stale cached plan still answers correctly — plans
    // only order joins — but reports drift far past the threshold...
    let stale = match cache.lookup(&fingerprint, QUERY) {
        PlanLookup::Hit { plan, .. } => plan,
        other => panic!("expected cached hit, got {other:?}"),
    };
    let (rows, report) = evaluate_planned(&store, &parsed, EvalOptions::default(), &stale).unwrap();
    assert_eq!(rows.len(), 4, "stale plan is slow, never wrong");
    assert!(report.planned_runs > 0, "the stale plan was actually used");
    assert!(
        report.plan_drift >= cache.drift_threshold(),
        "drift {} must cross the threshold {}",
        report.plan_drift,
        cache.drift_threshold()
    );

    // ...which evicts the entry, so the next request replans fresh.
    assert!(cache.note_drift(&fingerprint, report.plan_drift));
    assert!(matches!(
        cache.lookup(&fingerprint, QUERY),
        PlanLookup::Miss
    ));
    assert_eq!(cache.stats().invalidations, 1);
}

/// The greedy planned order and the syntactic order agree on the
/// answer whichever side of the skew the statistics are on.
#[test]
fn planned_and_greedy_agree_before_and_after_skew() {
    let mut store = Store::new();
    for i in 0..6 {
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/tag",
            "http://ex/popular",
        );
        insert(
            &mut store,
            &format!("http://ex/s{i}"),
            "http://ex/kind",
            "http://ex/rare",
        );
    }
    let parsed = lodify_sparql::parse(QUERY).unwrap();
    for round in 0..2 {
        let run = |plan: &Plan| {
            let (rows, _) =
                evaluate_planned(&store, &parsed, EvalOptions::default(), plan).unwrap();
            rows.to_table()
        };
        let greedy = run(&plan_query(&store, &parsed, None));
        assert_eq!(greedy, run(&Plan::syntactic(&parsed)), "round {round}");
        for i in 0..2_000 {
            insert(
                &mut store,
                &format!("http://ex/p{i}"),
                "http://ex/tag",
                "http://ex/popular",
            );
        }
    }
}

/// An OPTIONAL entered with a variable the planner modelled as unbound
/// produces a run key the plan does not cover. The evaluator then asks
/// the plan itself to order the run: the syntactic plan keeps the
/// author's order there too, the greedy plan opens on the smaller
/// side, and both give the same rows.
#[test]
fn runs_the_plan_misses_are_ordered_by_the_plan_itself() {
    let mut store = Store::new();
    insert(&mut store, "http://ex/s", "http://ex/p", "http://ex/o");
    insert(&mut store, "http://ex/s", "http://ex/q", "http://ex/x");
    for i in 0..40 {
        insert(
            &mut store,
            "http://ex/x",
            "http://ex/big",
            &format!("http://ex/b{i}"),
        );
    }
    insert(&mut store, "http://ex/x", "http://ex/small", "http://ex/c");
    let query = "SELECT * WHERE { \
        ?s <http://ex/p> ?o . \
        OPTIONAL { ?s <http://ex/q> ?x } \
        OPTIONAL { ?x <http://ex/big> ?b . ?x <http://ex/small> ?c . } \
    } ORDER BY ?b";
    let parsed = lodify_sparql::parse(query).unwrap();
    let run =
        |plan: &Plan| evaluate_planned(&store, &parsed, EvalOptions::default(), plan).unwrap();
    let (naive_rows, naive) = run(&Plan::syntactic(&parsed));
    let (planned_rows, planned) = run(&plan_query(&store, &parsed, None));
    assert_eq!(naive_rows.to_table(), planned_rows.to_table());
    assert_eq!(planned_rows.len(), 40);
    // Two of the three runs come from the plan's table; the last OPTIONAL
    // (entered with ?x bound) is ordered on the spot.
    assert_eq!(planned.planned_runs, 2);
    let first_of = |report: &lodify_sparql::EvalReport| {
        report
            .profile
            .operators()
            .iter()
            .find(|o| o.label.contains("big") || o.label.contains("small"))
            .map(|o| o.label.clone())
            .unwrap()
    };
    assert!(first_of(&naive).contains("big"), "syntactic order kept");
    assert!(first_of(&planned).contains("small"), "greedy opens small");
}
