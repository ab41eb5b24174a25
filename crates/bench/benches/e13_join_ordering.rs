//! E13 — ablation: planned BGP join ordering vs syntactic order.
//!
//! DESIGN.md calls out the planner's greedy join ordering as a design
//! choice; this ablation quantifies it on the paper's Q1 album query,
//! whose syntactic order starts from the most selective pattern
//! (monument label) but whose *worst-case* rewriting starts from the
//! least selective one (`?resource a sioct:MicroblogPost`).
//!
//! The ON arm is [`lodify_sparql::execute`] — parse, plan, evaluate,
//! the one query path. The OFF arm evaluates the same parsed query
//! under [`Plan::syntactic`], the author's order. ON must execute the
//! identical operator sequence whichever order the author wrote.

use std::time::Duration;

use lodify_bench::{black_box, Criterion};
use lodify_bench::{criterion, header, platform, row, smoke, time_once};
use lodify_sparql::{evaluate_planned, parse, plan_query, EvalOptions, OperatorKind, Plan};
use lodify_store::Store;

/// Q1 with the pattern order the paper wrote (selective first).
const Q1_GOOD_ORDER: &str = r#"
SELECT DISTINCT ?link WHERE {
  ?monument rdfs:label "Mole Antonelliana"@it .
  ?monument geo:geometry ?sourceGEO .
  ?resource geo:geometry ?location .
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  FILTER(bif:st_intersects(?location, ?sourceGEO, 0.3)) .
}
"#;

/// The same query with a hostile syntactic order: unselective patterns
/// first. Planned, both orders run identically; in syntactic order
/// this one explodes intermediate results.
const Q1_BAD_ORDER: &str = r#"
SELECT DISTINCT ?link WHERE {
  ?resource a sioct:MicroblogPost .
  ?resource geo:geometry ?location .
  ?resource comm:image-data ?link .
  ?monument geo:geometry ?sourceGEO .
  ?monument rdfs:label "Mole Antonelliana"@it .
  FILTER(bif:st_intersects(?location, ?sourceGEO, 0.3)) .
}
"#;

/// Evaluates under the syntactic plan: the OFF arm.
fn syntactic(store: &Store, query: &str) -> usize {
    let parsed = parse(query).unwrap();
    let plan = Plan::syntactic(&parsed);
    evaluate_planned(store, &parsed, EvalOptions::default(), &plan)
        .unwrap()
        .0
        .len()
}

/// The operators the ON arm executes, with their row counts.
fn executed_operators(store: &Store, query: &str) -> Vec<(OperatorKind, String, u64, u64)> {
    let parsed = parse(query).unwrap();
    let plan = plan_query(store, &parsed, None);
    let (_, report) = evaluate_planned(store, &parsed, EvalOptions::default(), &plan).unwrap();
    report
        .profile
        .operators()
        .iter()
        .map(|op| (op.kind, op.label.clone(), op.input_rows, op.output_rows))
        .collect()
}

/// Best of three single-shot timings.
fn best_of_3(mut f: impl FnMut() -> usize) -> (usize, Duration) {
    (0..3)
        .map(|_| time_once(&mut f))
        .min_by_key(|(_, t)| *t)
        .expect("three runs")
}

fn main() {
    header(
        "E13",
        "BGP join-ordering ablation",
        "planned join ordering makes query latency independent of how the author wrote the BGP",
    );

    row(&[
        "pictures".into(),
        "query order".into(),
        "planned ms".into(),
        "syntactic ms".into(),
        "rows".into(),
    ]);
    let sizes: &[usize] = if smoke() { &[500] } else { &[1000, 2000] };
    for &pictures in sizes {
        let p = platform(130 + pictures as u64, pictures);
        for (name, query) in [
            ("author's (good)", Q1_GOOD_ORDER),
            ("hostile (bad)", Q1_BAD_ORDER),
        ] {
            let (rows_on, t_on) =
                best_of_3(|| lodify_sparql::execute(p.store(), query).unwrap().len());
            let (rows_off, t_off) = best_of_3(|| syntactic(p.store(), query));
            assert_eq!(rows_on, rows_off, "plans must agree on results");
            row(&[
                pictures.to_string(),
                name.into(),
                format!("{:.2}", t_on.as_secs_f64() * 1000.0),
                format!("{:.2}", t_off.as_secs_f64() * 1000.0),
                rows_on.to_string(),
            ]);
        }
        let good = executed_operators(p.store(), Q1_GOOD_ORDER);
        let bad = executed_operators(p.store(), Q1_BAD_ORDER);
        assert_eq!(
            good, bad,
            "{pictures} pictures: the planned path must run the same operators for both orders"
        );
    }
    println!(
        "\n(planned: both orders run the identical operator sequence; syntactic pays for the hostile order)"
    );

    if smoke() {
        return;
    }

    // ---- criterion (small fixture: the syntactic hostile plan is quadratic) ----
    let p = platform(133, 500);
    let mut c: Criterion = criterion();
    c.bench_function("e13/q1_planned_bad_order", |b| {
        b.iter(|| lodify_sparql::execute(p.store(), black_box(Q1_BAD_ORDER)).unwrap())
    });
    c.bench_function("e13/q1_syntactic_bad_order", |b| {
        b.iter(|| syntactic(p.store(), black_box(Q1_BAD_ORDER)))
    });
    c.final_summary();
}
