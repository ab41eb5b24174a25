//! E12 — the federated architecture (§6, future work).
//!
//! Publish → notify fan-out at growing federation sizes, live-album
//! push delivery, and timeline consistency across subscribers.

use lodify_bench::{black_box, Criterion};
use lodify_bench::{criterion, header, row, time_once};
use lodify_context::Gazetteer;
use lodify_core::albums::AlbumSpec;
use lodify_core::federation::{Acct, Federation};
use lodify_rdf::{ns, Literal, Point, Term, Triple};

const MONUMENT: &str = "http://dbpedia.org/resource/Mole_Antonelliana";

fn mole() -> Point {
    let gaz = Gazetteer::global();
    gaz.poi("Mole_Antonelliana").unwrap().point(gaz)
}

/// Builds a federation of `n` nodes where everyone follows node 0's
/// user and subscribes to a live near-Mole album on node 0.
fn build(n: usize) -> (Federation, Acct) {
    let mut fed = Federation::new();
    let mut publisher = None;
    for i in 0..n {
        let node = fed.add_node(&format!("node{i}.example")).unwrap();
        let acct = fed
            .register_user(node, &format!("user{i}"), &format!("User {i}"))
            .unwrap();
        if i == 0 {
            publisher = Some(acct);
        }
    }
    let publisher = publisher.expect("node 0 user");
    let monument = [
        Triple::spo(
            MONUMENT,
            ns::iri::rdfs_label().as_str(),
            Term::Literal(Literal::lang("Mole Antonelliana", "it").unwrap()),
        ),
        Triple::spo(
            MONUMENT,
            ns::iri::geo_geometry().as_str(),
            Term::Literal(mole().to_literal()),
        ),
    ];
    fed.import_reference(0, &monument).unwrap();
    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
    for i in 1..n {
        let follower = Acct {
            user: format!("user{i}"),
            host: format!("node{i}.example"),
        };
        fed.subscribe(i, &follower, &publisher).unwrap();
        fed.live_subscribe(i, 0, &spec).unwrap();
    }
    (fed, publisher)
}

fn main() {
    header(
        "E12",
        "federation: publish → notify fan-out",
        "home nodes + WebFinger + PubSubHubbub + live-album push give near-instant notifications",
    );

    row(&[
        "nodes".into(),
        "publish ms".into(),
        "hub notifications".into(),
        "live-push deliveries".into(),
        "timelines consistent".into(),
    ]);
    for n in [2usize, 5, 10, 25] {
        let (mut fed, publisher) = build(n);
        let pushed = |fed: &Federation| fed.live_push_ops().unwrap().delivered;
        let before = pushed(&fed);
        let point = mole().offset_km(0.05, 0.0);
        let ((_, notifications), elapsed) = time_once(|| {
            fed.publish_picture(&publisher, "fan-out test", point, 100)
                .unwrap()
        });
        let hub = notifications.len();
        let push = (pushed(&fed) - before) as usize;
        // Every subscriber timeline carries exactly the one activity.
        let consistent = (1..n).all(|i| {
            let entries = fed.node(i).unwrap().timeline().entries();
            entries.len() == 1 && entries[0].summary == "fan-out test"
        });
        row(&[
            n.to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1000.0),
            hub.to_string(),
            push.to_string(),
            consistent.to_string(),
        ]);
        assert_eq!(hub, n - 1);
        assert_eq!(push, n - 1);
        assert!(consistent);
    }

    // WebFinger resolution cost.
    let (fed, _) = build(25);
    let (_, t_wf) = time_once(|| fed.webfinger("acct:user24@node24.example").unwrap());
    println!(
        "\nwebfinger resolution across 25 nodes: {:.1} µs",
        t_wf.as_secs_f64() * 1e6
    );

    // ---- criterion ----
    let mut c: Criterion = criterion();
    c.bench_function("e12/publish_10_nodes", |b| {
        let (mut fed, publisher) = build(10);
        let mut ts = 1000i64;
        b.iter(|| {
            ts += 1;
            fed.publish(black_box(&publisher), "bench post", ts)
                .unwrap()
        })
    });
    c.bench_function("e12/webfinger_25_nodes", |b| {
        let (fed, _) = build(25);
        b.iter(|| {
            fed.webfinger(black_box("acct:user24@node24.example"))
                .unwrap()
        })
    });
    c.final_summary();
}
