//! The §6 future-work architecture, running: two home-network nodes,
//! WebFinger identities, FOAF profile exchange, PubSubHubbub
//! subscriptions, a SparqlPuSH live album, ActivityStreams timelines
//! and a Salmon reply.
//!
//! ```sh
//! cargo run --example federated_sharing
//! ```

use lodify::context::Gazetteer;
use lodify::core::albums::AlbumSpec;
use lodify::core::federation::{Federation, Notification, PhotoFrame};
use lodify::rdf::{ns, Literal, Term, Triple};

fn main() {
    let mut fed = Federation::new();
    let casa_oscar = fed.add_node("casa-oscar.example").expect("node");
    let casa_walter = fed.add_node("casa-walter.example").expect("node");

    let oscar = fed
        .register_user(casa_oscar, "oscar", "Oscar Rodriguez")
        .expect("user");
    let walter = fed
        .register_user(casa_walter, "walter", "Walter Goix")
        .expect("user");
    println!("accounts: {oscar} and {walter}");

    // WebFinger resolution across the federation.
    let (node, profile) = fed
        .webfinger("acct:walter@casa-walter.example")
        .expect("webfinger");
    println!(
        "webfinger: walter lives on node {node}, profile {}",
        profile.as_str()
    );

    // Oscar follows Walter: profile import + foaf:knows + hub topic.
    fed.subscribe(casa_oscar, &oscar, &walter)
        .expect("subscribe");
    println!("oscar now follows walter (FOAF profile imported)");

    // Walter's node knows the Mole as LOD reference data; Oscar
    // subscribes to a SparqlPuSH live album of pictures taken near it.
    let gaz = Gazetteer::global();
    let mole = gaz
        .poi("Mole_Antonelliana")
        .expect("gazetteer POI")
        .point(gaz);
    let monument = "http://dbpedia.org/resource/Mole_Antonelliana";
    fed.import_reference(
        casa_walter,
        &[
            Triple::spo(
                monument,
                ns::iri::rdfs_label().as_str(),
                Term::Literal(Literal::lang("Mole Antonelliana", "it").expect("lang tag")),
            ),
            Triple::spo(
                monument,
                ns::iri::geo_geometry().as_str(),
                Term::Literal(mole.to_literal()),
            ),
        ],
    )
    .expect("reference data");
    let spec = AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
    let (album, sub) = fed
        .live_subscribe(casa_oscar, casa_walter, &spec)
        .expect("live subscription");

    // Walter publishes a picture from his holiday, next to the Mole.
    let (media, notifications) = fed
        .publish_picture(
            &walter,
            "Tramonto dalla terrazza",
            mole.offset_km(0.05, 0.0),
            1_320_800_000,
        )
        .expect("publish");
    println!("\nwalter published {}", media.as_str());
    for Notification::Activity { to, activity } in &notifications {
        println!(
            "  hub → node {to}: {:?} {:?}",
            activity.verb, activity.summary
        );
    }
    let pushed = fed
        .live_subscriber(casa_walter, sub)
        .expect("subscriber up")
        .links();
    println!(
        "  sparqlPuSH → node {casa_oscar}: live album {album} now holds {} picture(s)",
        pushed.len()
    );
    for link in &pushed {
        println!("      {link}");
    }

    // Oscar replies — the Salmon comment swims upstream to Walter's node.
    fed.reply(&oscar, &media, "che meraviglia!", 1_320_800_100)
        .expect("reply");

    println!("\ntimeline on walter's node:");
    for activity in fed.node(casa_walter).expect("node").timeline().entries() {
        println!(
            "  [{}] {} {:?}: {}",
            activity.ts, activity.actor, activity.verb, activity.summary
        );
    }
    println!("\ntimeline on oscar's node (via subscription):");
    for activity in fed.node(casa_oscar).expect("node").timeline().entries() {
        println!(
            "  [{}] {} {:?}: {}",
            activity.ts, activity.actor, activity.verb, activity.summary
        );
    }

    // §6.3: the UPnP photo frame in walter's living room shows the
    // holiday pictures as they arrive.
    let mut frame = PhotoFrame::new();
    let shown = frame
        .refresh(fed.node(casa_walter).expect("node"))
        .expect("frame refresh");
    println!("\nphoto frame now shows {} item(s):", shown.len());
    for entry in &shown {
        println!("  [{}] {}", entry.ts, entry.title);
    }

    // §6.2: embedding walter's media elsewhere via OEmbed.
    let embed = fed
        .node(casa_walter)
        .expect("node")
        .oembed(&media)
        .expect("oembed");
    println!(
        "\noembed: {} “{}” from {} by {}",
        embed.kind,
        embed.title,
        embed.provider,
        embed.author.as_deref().unwrap_or("?")
    );
}
