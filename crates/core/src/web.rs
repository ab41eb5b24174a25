//! The web/mobile interface (§3–§4), as a library: request routing,
//! HTML rendering, and a minimal std-only HTTP server.
//!
//! "The platform's web interface offers users an environment to
//! perform many operations … when it is accessed from a mobile device,
//! redirects the user automatically to the mobile interface" (§3). The
//! routes mirror the paper's flows:
//!
//! * `GET /` — the search box (Fig. 2);
//! * `GET /search?q=<prefix>` — the AJAX candidate list (Fig. 3);
//! * `GET /resource?iri=<iri>` — content associated with a selected
//!   resource (Fig. 4);
//! * `GET /picture/<pid>` — one picture with its *friendly-format*
//!   context tags ("context tags are displayed in a friendly format,
//!   and are separated from user-defined tags", §1.1);
//! * `GET /about/<pid>` — the "About" mashup (§4.1);
//! * `GET /album?monument=<label>&lang=<tag>&radius=<km>` — a virtual
//!   album (§2.3).
//!
//! Desktop vs mobile rendering is selected by the `User-Agent` header,
//! reproducing the §3 redirect behaviour. The HTTP layer is
//! deliberately tiny (HTTP/1.1, GET only) — enough to drive the
//! platform from a browser or `curl` without external dependencies.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lodify_rdf::Iri;
use lodify_tripletags::Tag;

use crate::error::PlatformError;
use crate::mashup::MashupService;
use crate::platform::Platform;
use crate::search::SearchService;

/// A parsed (minimal) HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Whether the `User-Agent` looks like a mobile device (§3's
    /// automatic redirect to the mobile interface).
    pub mobile: bool,
    /// Caller identity for admission control, from the `X-Tenant`
    /// header (preferred) or a `tenant` query parameter. Anonymous
    /// requests share one quota bucket.
    pub tenant: Option<String>,
}

impl Request {
    /// Parses a request line + headers.
    pub fn parse(request_line: &str, headers: &[(String, String)]) -> Option<Request> {
        let mut parts = request_line.split_whitespace();
        let method = parts.next()?;
        if method != "GET" {
            return None;
        }
        let target = parts.next()?;
        let (path, query_text) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let mut query = BTreeMap::new();
        for pair in query_text.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(url_decode(k), url_decode(v));
        }
        let mobile = headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("user-agent"))
            .map(|(_, value)| {
                let ua = value.to_lowercase();
                ua.contains("mobile") || ua.contains("android") || ua.contains("iphone")
            })
            .unwrap_or(false);
        let tenant = headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case("x-tenant"))
            .map(|(_, value)| value.trim().to_string())
            .or_else(|| query.get("tenant").cloned())
            .filter(|t| !t.is_empty());
        Some(Request {
            path: path.to_string(),
            query,
            mobile,
            tenant,
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body.
    pub body: String,
    /// Request id assigned by [`handle_request`], echoed to the client
    /// as an `X-Request-Id` header and recorded in the access log.
    pub request_id: Option<u64>,
    /// Trace id of the request's root span, assigned by
    /// [`handle_request`] when tracing is live and echoed to the
    /// client as an `X-Trace-Id` header — paste it into `/trace/<id>`
    /// to see the request's span tree.
    pub trace_id: Option<u64>,
}

impl Response {
    /// 200 with HTML.
    pub fn html(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/html; charset=utf-8",
            body,
            request_id: None,
            trace_id: None,
        }
    }

    /// 200 with an explicit content type (plain-text expositions).
    pub fn text(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
            request_id: None,
            trace_id: None,
        }
    }

    /// 404.
    pub fn not_found(what: &str) -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!("not found: {what}\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 400.
    pub fn bad_request(message: &str) -> Response {
        Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: format!("bad request: {message}\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 429: the tenant's quota bucket is empty.
    pub fn too_many_requests(tenant: &str) -> Response {
        Response {
            status: 429,
            content_type: "text/plain; charset=utf-8",
            body: format!("quota exceeded for tenant {tenant}: retry later\n"),
            request_id: None,
            trace_id: None,
        }
    }

    /// 503: the node is shedding this request class under overload.
    pub fn service_unavailable() -> Response {
        Response {
            status: 503,
            content_type: "text/plain; charset=utf-8",
            body: "overloaded: request shed, retry later\n".to_string(),
            request_id: None,
            trace_id: None,
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        let request_id = self
            .request_id
            .map(|id| format!("X-Request-Id: {id}\r\n"))
            .unwrap_or_default();
        let trace_id = self
            .trace_id
            .map(|id| format!("X-Trace-Id: {id:016x}\r\n"))
            .unwrap_or_default();
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: close\r\n\r\n{}",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            request_id,
            trace_id,
            self.body
        )
    }
}

/// Routes requests against a platform. Pure (no I/O): fully unit-testable.
pub fn route(platform: &Platform, request: &Request) -> Response {
    match request.path.as_str() {
        "/" => Response::html(render_home(request.mobile)),
        "/search" => {
            let Some(q) = request.query.get("q") else {
                return Response::bad_request("missing q parameter");
            };
            let limit = request
                .query
                .get("limit")
                .and_then(|l| l.parse().ok())
                .unwrap_or(8);
            let suggestions = SearchService::suggest(platform.store(), q, limit);
            Response::html(render_suggestions(q, &suggestions, request.mobile))
        }
        "/resource" => {
            let Some(iri_text) = request.query.get("iri") else {
                return Response::bad_request("missing iri parameter");
            };
            let Ok(iri) = Iri::new(iri_text.clone()) else {
                return Response::bad_request("malformed iri");
            };
            match SearchService::content_for_resource(platform.store(), &iri, 1.0) {
                Ok(hits) => Response::html(render_content_list(iri_text, &hits, request.mobile)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        "/album" => {
            let Some(monument) = request.query.get("monument") else {
                return Response::bad_request("missing monument parameter");
            };
            let lang = request
                .query
                .get("lang")
                .map(String::as_str)
                .unwrap_or("it");
            let radius: f64 = request
                .query
                .get("radius")
                .and_then(|r| r.parse().ok())
                .unwrap_or(0.3);
            let spec = crate::albums::AlbumSpec::near_monument(monument, lang, radius);
            // Served through the materialized-album cache: repeated
            // hits on the same spec skip SPARQL evaluation entirely
            // until a relevant store mutation bumps a predicate epoch.
            match platform.view_album(&spec) {
                Ok(links) => Response::html(render_album(monument, &links)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        path if path.starts_with("/picture/") => {
            let Ok(pid) = path["/picture/".len()..].parse::<i64>() else {
                return Response::bad_request("bad picture id");
            };
            render_picture(platform, pid)
                .map(Response::html)
                .unwrap_or_else(|| Response::not_found(&format!("picture {pid}")))
        }
        path if path.starts_with("/about/") => {
            let Ok(pid) = path["/about/".len()..].parse::<i64>() else {
                return Response::bad_request("bad picture id");
            };
            let iri = Platform::picture_iri(pid);
            match MashupService::standard().about(platform.store(), &iri) {
                Ok(mashup) => Response::html(render_mashup(pid, &mashup)),
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }
        "/metrics" => {
            // Refresh point-in-time gauges (store size, cache entries,
            // WAL depth) right before scraping, then expose everything
            // in Prometheus text format.
            platform.publish_gauges();
            Response::text(
                lodify_obs::prometheus::CONTENT_TYPE,
                platform.obs().render_prometheus(),
            )
        }
        "/ops" => Response::text("text/plain; charset=utf-8", render_ops(platform)),
        path if path.starts_with("/trace/") => {
            let id_text = &path["/trace/".len()..];
            let Ok(trace_id) = u64::from_str_radix(id_text, 16) else {
                return Response::bad_request("bad trace id (expected hex)");
            };
            match platform.obs().traces().render(trace_id) {
                Some(tree) => Response::text("text/plain; charset=utf-8", tree),
                None => Response::not_found(&format!("trace {trace_id:016x}")),
            }
        }
        "/subscriptions" => {
            Response::text("text/plain; charset=utf-8", render_subscriptions(platform))
        }
        other => Response::not_found(other),
    }
}

/// Routes a request with full observability: issues a request id,
/// wraps the handler in a `web.request` root span, times it into the
/// `web.request` histogram (tagging the bucket with the trace id as an
/// exemplar), and appends an [`lodify_obs::AccessEntry`] to the
/// platform's access log. The ids are echoed back on the response
/// (`X-Request-Id`, `X-Trace-Id`). [`route`] stays pure for tests
/// that don't care about the plumbing.
///
/// When [`Platform::enable_admission`] ran, admission is decided
/// *before* routing — a shed request costs a classification and an
/// atomic load, never a parse or a store touch. Quota rejections
/// return 429, overload sheds 503; both still get a request id and an
/// access-log entry so storms stay visible. Operational endpoints
/// (`/ops`, `/metrics`, `/trace/…`) are never shed.
pub fn handle_request(platform: &Platform, request: &Request) -> Response {
    let obs = platform.obs();
    let request_id = obs.access_log().begin();
    let started = obs.metrics().now_micros();

    let mut permit = None;
    if let Some(admission) = platform.admission() {
        use crate::admission::{AdmissionDecision, ShedClass};
        let class = ShedClass::classify(&request.path);
        match admission.admit(request.tenant.as_deref(), class) {
            AdmissionDecision::Admit(p) => permit = Some(p),
            AdmissionDecision::RejectQuota => {
                obs.metrics().incr("web.shed.quota");
                let mut response =
                    Response::too_many_requests(request.tenant.as_deref().unwrap_or("anon"));
                let elapsed_us = obs.metrics().now_micros().saturating_sub(started);
                obs.access_log().record(lodify_obs::AccessEntry {
                    request_id,
                    target: request_target(request),
                    status: response.status,
                    duration_us: elapsed_us,
                });
                response.request_id = Some(request_id);
                return response;
            }
            AdmissionDecision::RejectOverload => {
                obs.metrics().incr("web.shed.overload");
                let mut response = Response::service_unavailable();
                let elapsed_us = obs.metrics().now_micros().saturating_sub(started);
                obs.access_log().record(lodify_obs::AccessEntry {
                    request_id,
                    target: request_target(request),
                    status: response.status,
                    duration_us: elapsed_us,
                });
                response.request_id = Some(request_id);
                return response;
            }
        }
    }

    let span = obs.tracer().start("web.request");
    let trace_id = span.context().map(|c| c.trace_id);
    let mut response = route(platform, request);
    drop(permit);
    // A live span mirrors its duration (exemplar included) into the
    // `web.request` histogram on finish; observe manually only when
    // tracing is off so the histogram never double-counts.
    span.finish();
    let elapsed_us = obs.metrics().now_micros().saturating_sub(started);
    if trace_id.is_none() {
        obs.metrics().observe("web.request", elapsed_us);
    }
    obs.access_log().record(lodify_obs::AccessEntry {
        request_id,
        target: request_target(request),
        status: response.status,
        duration_us: elapsed_us,
    });
    response.request_id = Some(request_id);
    response.trace_id = trace_id;
    response
}

/// Reconstructs `path?k=v&…` for the access log (parameters in sorted
/// order — [`Request`] keeps them in a map).
fn request_target(request: &Request) -> String {
    if request.query.is_empty() {
        return request.path.clone();
    }
    let params: Vec<String> = request
        .query
        .iter()
        .map(|(k, v)| format!("{}={}", url_encode(k), url_encode(v)))
        .collect();
    format!("{}?{}", request.path, params.join("&"))
}

// ---------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------

/// HTML-escapes text content.
pub fn escape_html(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn page(title: &str, body: &str, mobile: bool) -> String {
    let class = if mobile { "mobile" } else { "desktop" };
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>{}</title></head>\
         <body class=\"{class}\"><h1>{}</h1>{body}</body></html>",
        escape_html(title),
        escape_html(title),
    )
}

fn render_home(mobile: bool) -> String {
    // Fig. 2: the search box; the mobile variant notes the location API.
    let hint = if mobile {
        "<p class=\"geo\">using your location to filter results</p>"
    } else {
        ""
    };
    page(
        "TeamLife — semantic search",
        &format!(
            "{hint}<form action=\"/search\"><input name=\"q\" placeholder=\"search places, monuments, people\">\
             <button>search</button></form>"
        ),
        mobile,
    )
}

fn render_suggestions(q: &str, suggestions: &[crate::search::Suggestion], mobile: bool) -> String {
    // Fig. 3: candidate resources for the typed prefix.
    let mut items = String::new();
    for s in suggestions {
        items.push_str(&format!(
            "<li><a href=\"/resource?iri={}\">{}</a> <span class=\"iri\">{}</span></li>",
            url_encode(s.resource.as_str()),
            escape_html(&s.label),
            escape_html(s.resource.as_str()),
        ));
    }
    page(
        &format!("candidates for “{q}”"),
        &format!("<ul class=\"candidates\">{items}</ul>"),
        mobile,
    )
}

fn render_content_list(iri: &str, hits: &[crate::search::ContentHit], mobile: bool) -> String {
    // Fig. 4: thumbnails + links for the selected resource, About on top.
    let pid_of = |hit: &crate::search::ContentHit| -> Option<i64> {
        hit.content.as_str().rsplit('/').next()?.parse().ok()
    };
    let about = hits
        .first()
        .and_then(pid_of)
        .map(|pid| format!("<a class=\"about\" href=\"/about/{pid}\">About</a>"))
        .unwrap_or_default();
    let mut items = String::new();
    for hit in hits {
        let title = hit.title.as_deref().unwrap_or("(untitled)");
        let link = hit.link.as_deref().unwrap_or("#");
        let detail = pid_of(hit)
            .map(|pid| format!("<a href=\"/picture/{pid}\">details</a>"))
            .unwrap_or_default();
        items.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"> {} {detail}</li>",
            escape_html(link),
            escape_html(title),
        ));
    }
    page(
        &format!("content for {iri}"),
        &format!("{about}<ul class=\"content\">{items}</ul>"),
        mobile,
    )
}

fn render_album(monument: &str, links: &[String]) -> String {
    let mut items = String::new();
    for link in links {
        items.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"></li>",
            escape_html(link)
        ));
    }
    page(
        &format!("virtual album — near {monument}"),
        &format!("<ul class=\"album\">{items}</ul>"),
        false,
    )
}

/// The §1.1 friendly-format tag rendering: context triple tags become
/// readable phrases, plain user tags stay as-is and are shown apart.
pub fn friendly_tag(tag: &lodify_tripletags::TripleTag) -> String {
    match (tag.namespace.as_str(), tag.predicate.as_str()) {
        ("address", "city") => format!("in {}", tag.value),
        ("address", "street") => format!("on {}", tag.value),
        ("address", "country") => tag.value.clone(),
        ("people", "fn") => format!("with {}", tag.value),
        ("people", "user") => format!("with @{}", tag.value),
        ("place", "is") => format!("a {} place", tag.value),
        ("place", "label") => format!("at “{}”", tag.value),
        ("cell", "cgi") => format!("cell {}", tag.value),
        ("calendar", "event") => format!("during “{}”", tag.value),
        ("geo", "lat") | ("geo", "long") => format!("{}: {}", tag.predicate, tag.value),
        ("geonames", "id") => format!("geonames #{}", tag.value),
        _ => tag.to_wire(),
    }
}

fn render_picture(platform: &Platform, pid: i64) -> Option<String> {
    let pictures = platform
        .db()
        .table(lodify_relational::coppermine::PICTURES)
        .ok()?;
    let row = pictures.get(pid)?;
    let title = row[3].as_text().unwrap_or_default();

    let mut user_tags = String::new();
    let mut context_tags = String::new();
    for tag in platform.tags().tags_of(pid) {
        match tag {
            Tag::Plain(word) => {
                user_tags.push_str(&format!(
                    "<span class=\"tag\">{}</span> ",
                    escape_html(word)
                ));
            }
            Tag::Triple(tt) => {
                context_tags.push_str(&format!(
                    "<span class=\"ctx\">{}</span> ",
                    escape_html(&friendly_tag(tt))
                ));
            }
        }
    }
    let annotations = platform
        .annotations()
        .get(&pid)
        .map(|a| {
            a.resources()
                .iter()
                .map(|r| {
                    format!(
                        "<li><a href=\"/resource?iri={}\">{}</a></li>",
                        url_encode(r.as_str()),
                        escape_html(r.local_name()),
                    )
                })
                .collect::<String>()
        })
        .unwrap_or_default();

    Some(page(
        title,
        &format!(
            "<img src=\"http://beta.teamlife.it/media/{pid}.jpg\" alt=\"\">\
             <p class=\"user-tags\">{user_tags}</p>\
             <p class=\"context-tags\">{context_tags}</p>\
             <a href=\"/about/{pid}\">About</a>\
             <ul class=\"annotations\">{annotations}</ul>"
        ),
        false,
    ))
}

/// The `/subscriptions` page: the registered standing albums and, per
/// SparqlPuSH subscriber, journal head vs shipped vs applied cursor
/// plus breaker state — enough to see at a glance who is lagging and
/// why. Plain text, like `/ops`.
fn render_subscriptions(platform: &Platform) -> String {
    use std::fmt::Write as _;
    let live = platform.live();
    let engine = live.engine();
    let mut out = String::new();
    let _ = writeln!(out, "live albums ({}):", engine.len());
    for id in 0..engine.len() {
        let spec = engine.spec(id);
        let mut shape = format!("\"{}\"@{}", spec.monument_label, spec.label_lang);
        if let Some(friend) = &spec.friend_of {
            let _ = write!(shape, " friends-of={friend}");
        }
        if spec.order_by_rating {
            shape.push_str(" rated");
        }
        if let Some(n) = spec.limit {
            let _ = write!(shape, " limit={n}");
        }
        let _ = writeln!(
            out,
            "  album {id} {shape} members={}",
            engine.links(id).len()
        );
    }
    let hub = live.hub();
    let _ = writeln!(out, "subscribers ({}):", hub.len());
    for (callback, album, head, shipped, cursor, breaker) in hub.rows() {
        let cursor = cursor.map_or_else(|| "down".to_string(), |c| c.to_string());
        let _ = writeln!(
            out,
            "  {callback} album={album} head={head} shipped={shipped} \
             cursor={cursor} breaker={breaker}"
        );
    }
    let ops = live.ops();
    let _ = writeln!(
        out,
        "push: delivered={} parked={} redelivered={} lag={} dlq={}",
        ops.push.delivered, ops.push.parked, ops.push.redelivered, ops.push.lag, ops.push.dlq_depth
    );
    out
}

/// The `/ops` page: the resilience snapshot, recent traces rendered as
/// indented span trees, slow-query aggregates and the access-log tail.
/// Plain text on purpose — it is read over `curl` during incidents.
fn render_ops(platform: &Platform) -> String {
    use std::fmt::Write as _;
    let obs = platform.obs();
    let snapshot = platform.ops_snapshot();
    let mut out = String::new();
    let status = if snapshot.is_degraded() {
        "DEGRADED"
    } else {
        "healthy"
    };
    let _ = writeln!(out, "status: {status}");
    let store = platform.store();
    let _ = writeln!(
        out,
        "store: {} triples @ epoch {} ({} shards)",
        store.len(),
        store.epoch(),
        store.shard_count()
    );
    let _ = writeln!(out, "{snapshot}");

    let traces = obs.tracer().recent_traces(8);
    let _ = writeln!(out, "\nrecent traces ({}):", traces.len());
    for trace in &traces {
        // Spans arrive in completion order (children before parents);
        // indent by chasing parent links, and show start order.
        let parents: BTreeMap<u64, Option<u64>> =
            trace.iter().map(|s| (s.span_id, s.parent_id)).collect();
        let _ = writeln!(
            out,
            "  trace {:016x}",
            trace.first().map_or(0, |s| s.trace_id)
        );
        let mut ordered: Vec<_> = trace.iter().collect();
        ordered.sort_by_key(|s| (s.start_us, s.span_id));
        for span in ordered {
            let mut d = 0usize;
            let mut cursor = span.parent_id;
            while let Some(p) = cursor {
                d += 1;
                cursor = parents.get(&p).copied().flatten();
            }
            let _ = writeln!(
                out,
                "  {}{} {}us",
                "  ".repeat(d + 1),
                span.name,
                span.duration_us()
            );
        }
    }

    // The flight recorder: the cross-node trace store's summary of
    // the most recent assembled traces, the first thing to read from
    // a crash dump (the full tree of any listed id is `/trace/<id>`).
    out.push('\n');
    out.push_str(&obs.traces().flight_summary(8));

    let slow = obs.slow_queries().entries();
    let _ = writeln!(
        out,
        "\nslow queries (threshold {}us, {} fingerprints, {} evicted):",
        obs.slow_queries().threshold_us(),
        slow.len(),
        obs.slow_queries().evictions()
    );
    for (fingerprint, entry) in slow.iter().take(16) {
        let plan = match (&entry.plan_cache, entry.plan_id) {
            (Some(outcome), Some(id)) => format!(" plan_cache={outcome} plan_id={id:016x}"),
            (Some(outcome), None) => format!(" plan_cache={outcome}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  count={} mean={}us max={}us{}  {}",
            entry.count,
            entry.mean_us(),
            entry.max_us,
            plan,
            fingerprint
        );
        for line in entry.breakdown.iter().take(8) {
            let _ = writeln!(out, "    {line}");
        }
    }

    let accesses = obs.access_log().recent(16);
    let _ = writeln!(out, "\nrecent requests ({}):", accesses.len());
    for entry in &accesses {
        let _ = writeln!(
            out,
            "  #{} {} {} {}us",
            entry.request_id, entry.status, entry.target, entry.duration_us
        );
    }
    out
}

fn render_mashup(pid: i64, mashup: &crate::mashup::MashupResult) -> String {
    let mut body = String::new();
    if let Some((city, abstract_)) = &mashup.city {
        body.push_str(&format!(
            "<section class=\"city\"><h2>{}</h2><p>{}</p></section>",
            escape_html(city),
            escape_html(abstract_)
        ));
    }
    body.push_str("<section class=\"restaurants\"><h2>Restaurants</h2><ul>");
    for r in &mashup.restaurants {
        body.push_str(&format!(
            "<li>{}{}</li>",
            escape_html(&r.label),
            r.detail
                .as_deref()
                .map(|d| format!(" — <a href=\"{}\">{}</a>", escape_html(d), escape_html(d)))
                .unwrap_or_default()
        ));
    }
    body.push_str("</ul></section><section class=\"tourism\"><h2>Attractions</h2><ul>");
    for a in &mashup.attractions {
        body.push_str(&format!("<li>{}</li>", escape_html(&a.label)));
    }
    body.push_str("</ul></section><section class=\"ugc\"><h2>Nearby content</h2><ul>");
    for link in &mashup.related_content {
        body.push_str(&format!(
            "<li><img src=\"{}\" alt=\"\"></li>",
            escape_html(link)
        ));
    }
    body.push_str("</ul></section>");
    page(&format!("About picture {pid}"), &body, false)
}

// ---------------------------------------------------------------------
// the HTTP server
// ---------------------------------------------------------------------

/// HTTP server tuning. The paper-era seed hardcoded a 2-second read
/// timeout deep inside the connection handler; both deadlines are now
/// configurable (and a write timeout exists at all), with timeouts
/// surfacing as typed [`PlatformError::Timeout`] values.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a connection may take to deliver its request.
    pub read_timeout: std::time::Duration,
    /// How long writing the response may take (slow client).
    pub write_timeout: std::time::Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: std::time::Duration::from_secs(2),
            write_timeout: std::time::Duration::from_secs(2),
        }
    }
}

/// A running server handle.
pub struct WebServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    telemetry: lodify_resilience::Telemetry,
}

impl WebServer {
    /// Serves `platform` on `127.0.0.1:port` (0 = ephemeral) in a
    /// background thread with default timeouts. The platform is shared
    /// read-only.
    pub fn start(platform: Arc<Platform>, port: u16) -> Result<WebServer, PlatformError> {
        WebServer::start_with_config(platform, port, ServerConfig::default())
    }

    /// Serves `platform` with explicit timeout configuration.
    pub fn start_with_config(
        platform: Arc<Platform>,
        port: u16,
        config: ServerConfig,
    ) -> Result<WebServer, PlatformError> {
        let listener = TcpListener::bind(("127.0.0.1", port))
            .map_err(|e| PlatformError::Invalid(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PlatformError::Invalid(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| PlatformError::Invalid(e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let telemetry = lodify_resilience::Telemetry::new();
        let server_telemetry = telemetry.clone();
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        server_telemetry.incr("web.connections");
                        match handle_connection(&platform, stream, &config) {
                            Ok(()) => server_telemetry.incr("web.responses"),
                            Err(PlatformError::Timeout(_)) => server_telemetry.incr("web.timeouts"),
                            Err(_) => server_telemetry.incr("web.errors"),
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(WebServer {
            addr,
            stop,
            handle: Some(handle),
            telemetry,
        })
    }

    /// Request/timeout counters: `web.connections`, `web.responses`,
    /// `web.timeouts`, `web.errors`.
    pub fn telemetry(&self) -> &lodify_resilience::Telemetry {
        &self.telemetry
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the server and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WebServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Classifies an I/O error: deadline expiries become the typed
/// [`PlatformError::Timeout`], everything else stays generic.
fn io_error(context: &str, e: std::io::Error) -> PlatformError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            PlatformError::Timeout(format!("{context} after deadline: {e}"))
        }
        _ => PlatformError::Invalid(format!("{context}: {e}")),
    }
}

fn handle_connection(
    platform: &Platform,
    mut stream: TcpStream,
    config: &ServerConfig,
) -> Result<(), PlatformError> {
    stream
        .set_nonblocking(false)
        .map_err(|e| io_error("configuring socket", e))?;
    stream
        .set_read_timeout(Some(config.read_timeout))
        .map_err(|e| io_error("setting read timeout", e))?;
    stream
        .set_write_timeout(Some(config.write_timeout))
        .map_err(|e| io_error("setting write timeout", e))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| io_error("cloning stream", e))?,
    );
    let mut request_line = String::new();
    reader
        .read_line(&mut request_line)
        .map_err(|e| io_error("reading request line", e))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| io_error("reading headers", e))?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    let response = match Request::parse(request_line.trim_end(), &headers) {
        Some(request) => handle_request(platform, &request),
        None => Response::bad_request("unsupported request"),
    };
    response
        .write_to(&mut stream)
        .map_err(|e| io_error("writing response", e))
}

/// Percent-decodes a URL component (`+` is a space).
pub fn url_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() + 1 && i + 2 < bytes.len() + 1 => {
                if i + 2 < bytes.len() {
                    if let Ok(byte) = u8::from_str_radix(
                        std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or(""),
                        16,
                    ) {
                        out.push(byte);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a URL component.
pub fn url_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodify_relational::WorkloadConfig;

    fn platform() -> Platform {
        Platform::bootstrap(WorkloadConfig::small(31)).unwrap()
    }

    fn get(platform: &Platform, target: &str, mobile: bool) -> Response {
        let headers = if mobile {
            vec![(
                "User-Agent".to_string(),
                "Mozilla/5.0 (iPhone) Mobile".to_string(),
            )]
        } else {
            vec![(
                "User-Agent".to_string(),
                "Mozilla/5.0 (X11; Linux)".to_string(),
            )]
        };
        let request = Request::parse(&format!("GET {target} HTTP/1.1"), &headers).unwrap();
        route(platform, &request)
    }

    #[test]
    fn request_parsing() {
        let r = Request::parse("GET /search?q=Tur&limit=5 HTTP/1.1", &[]).unwrap();
        assert_eq!(r.path, "/search");
        assert_eq!(r.query.get("q").map(String::as_str), Some("Tur"));
        assert_eq!(r.query.get("limit").map(String::as_str), Some("5"));
        assert!(!r.mobile);
        assert!(r.tenant.is_none());
        // Tenant: X-Tenant header wins over the query parameter.
        let r = Request::parse(
            "GET /?tenant=query HTTP/1.1",
            &[("X-Tenant".to_string(), "header".to_string())],
        )
        .unwrap();
        assert_eq!(r.tenant.as_deref(), Some("header"));
        let r = Request::parse("GET /?tenant=query HTTP/1.1", &[]).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("query"));
        assert!(Request::parse("POST / HTTP/1.1", &[]).is_none());
        // plus + percent decoding
        let r = Request::parse("GET /search?q=Mole+Antonelliana%21 HTTP/1.1", &[]).unwrap();
        assert_eq!(
            r.query.get("q").map(String::as_str),
            Some("Mole Antonelliana!")
        );
    }

    #[test]
    fn mobile_detection_switches_rendering() {
        let p = platform();
        let desktop = get(&p, "/", false);
        let mobile = get(&p, "/", true);
        assert!(desktop.body.contains("class=\"desktop\""));
        assert!(mobile.body.contains("class=\"mobile\""));
        assert!(mobile.body.contains("using your location"));
    }

    #[test]
    fn search_route_lists_candidates() {
        let p = platform();
        let resp = get(&p, "/search?q=Turi", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Turin"), "{}", resp.body);
        assert!(resp.body.contains("/resource?iri="));
        // Missing q → 400.
        assert_eq!(get(&p, "/search", false).status, 400);
    }

    #[test]
    fn resource_route_lists_content_with_about_button() {
        let p = platform();
        let iri = url_encode("http://dbpedia.org/resource/Mole_Antonelliana");
        let resp = get(&p, &format!("/resource?iri={iri}"), false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("class=\"about\"") || resp.body.contains("class=\"content\""));
    }

    #[test]
    fn picture_route_separates_tag_kinds() {
        let p = platform();
        let pid = p.picture_ids()[0];
        let resp = get(&p, &format!("/picture/{pid}"), false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("user-tags"));
        assert!(resp.body.contains("context-tags"));
        assert_eq!(get(&p, "/picture/999999", false).status, 404);
        assert_eq!(get(&p, "/picture/abc", false).status, 400);
    }

    #[test]
    fn album_route_runs_q1() {
        let p = platform();
        let resp = get(
            &p,
            "/album?monument=Mole+Antonelliana&lang=it&radius=0.3",
            false,
        );
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("virtual album"));
    }

    #[test]
    fn album_route_serves_repeats_from_the_cache() {
        let p = platform();
        let target = "/album?monument=Mole+Antonelliana&lang=it&radius=0.3";
        let cold = get(&p, target, false);
        let warm = get(&p, target, false);
        assert_eq!(cold.body, warm.body, "cached view must render identically");
        let stats = p.album_cache_stats();
        assert_eq!(stats.misses, 1, "first request solves the album");
        assert_eq!(stats.hits, 1, "second request is a cache hit");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn metrics_route_renders_the_golden_exposition() {
        use crate::platform::Upload;
        use lodify_context::Gazetteer;

        let mut p = platform();
        let gaz = Gazetteer::global();
        let mole = gaz.poi("Mole_Antonelliana").unwrap();
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: Some(mole.point(gaz)),
            poi: None,
        })
        .unwrap();
        p.query("SELECT ?s WHERE { ?s a sioct:MicroblogPost . } LIMIT 3")
            .unwrap();
        let _ = get(
            &p,
            "/album?monument=Mole+Antonelliana&lang=it&radius=0.3",
            false,
        );

        let resp = get(&p, "/metrics", false);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, lodify_obs::prometheus::CONTENT_TYPE);
        // Golden structure: one TYPE line per family, histogram series
        // with cumulative buckets, +Inf, sum and count.
        for line in [
            "# TYPE lodify_upload_accepted_total counter",
            "# TYPE lodify_sparql_queries_total counter",
            "# TYPE lodify_store_triples gauge",
            "# TYPE lodify_upload_seconds histogram",
            "# TYPE lodify_sparql_seconds histogram",
            "# TYPE lodify_album_view_seconds histogram",
            "lodify_upload_accepted_total 1",
            "lodify_upload_seconds_bucket{le=\"+Inf\"} 1",
            "lodify_upload_seconds_count 1",
            "lodify_sparql_parse_seconds_count",
            "lodify_sparql_eval_seconds_count",
            "lodify_upload_relational_seconds_count 1",
            "lodify_upload_semanticize_seconds_count 1",
            "lodify_upload_annotate_seconds_count 1",
            "lodify_album_cache_misses_total 1",
        ] {
            assert!(
                resp.body.contains(line),
                "missing {line:?} in:\n{}",
                resp.body
            );
        }
    }

    #[test]
    fn ops_route_reports_a_tripped_breaker() {
        use lodify_lod::annotator::{Annotator, AnnotatorConfig};
        use lodify_lod::broker::BrokerResilienceConfig;
        use lodify_lod::resolvers::{DbpediaResolver, FaultInjectedResolver, GeonamesResolver};
        use lodify_lod::{SemanticBroker, SemanticFilter};
        use lodify_resilience::{FaultPlan, VirtualClock};

        let mut p = platform();
        let clock = VirtualClock::new();
        let plan = FaultPlan::builder()
            .outage("resolver:dbpedia", 0, u64::MAX)
            .build(clock.clone());
        let broker = SemanticBroker::new(vec![
            Box::new(FaultInjectedResolver::new(DbpediaResolver, plan)),
            Box::new(GeonamesResolver),
        ])
        .with_resilience(clock, BrokerResilienceConfig::default());
        // Trip the dbpedia breaker before installing the annotator.
        let scratch = lodify_store::Store::new();
        for _ in 0..4 {
            broker.resolve(&scratch, &["torino".to_string()], "torino", Some("en"));
        }
        p.set_annotator(Annotator::new(
            broker,
            SemanticFilter::standard(),
            AnnotatorConfig::default(),
        ));

        let resp = get(&p, "/ops", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("status: DEGRADED"), "{}", resp.body);
        assert!(resp.body.contains("breaker=OPEN"), "{}", resp.body);
        assert!(resp.body.contains("slow queries"), "{}", resp.body);
        assert!(resp.body.contains("recent requests"), "{}", resp.body);
    }

    #[test]
    fn admission_rejects_and_ops_reports_shedding() {
        use crate::admission::AdmissionConfig;

        let mut p = platform();
        p.enable_admission(AdmissionConfig {
            tenant_rate_per_sec: 0.0,
            tenant_burst: 1.0,
            ..AdmissionConfig::default()
        });

        let send = |p: &Platform, target: &str, tenant: &str| {
            let headers = vec![("X-Tenant".to_string(), tenant.to_string())];
            let request = Request::parse(&format!("GET {target} HTTP/1.1"), &headers).unwrap();
            handle_request(p, &request)
        };

        // One token per tenant, no refill: second request is 429.
        assert_eq!(send(&p, "/", "alice").status, 200);
        let rejected = send(&p, "/", "alice");
        assert_eq!(rejected.status, 429);
        assert!(rejected.body.contains("alice"), "{}", rejected.body);
        assert!(rejected.request_id.is_some(), "sheds are logged");
        // Other tenants have their own bucket.
        assert_eq!(send(&p, "/", "bob").status, 200);
        // Critical endpoints bypass the quota entirely.
        assert_eq!(send(&p, "/ops", "alice").status, 200);

        let ops = send(&p, "/ops", "carol");
        assert!(ops.body.contains("admission"), "{}", ops.body);
        assert!(ops.body.contains("shed_quota=1"), "{}", ops.body);

        // Overload shedding: hard depth 0 sheds every non-critical
        // class with 503 and degrades the verdict.
        p.enable_admission(AdmissionConfig {
            shed_depth: 0,
            hard_depth: 0,
            ..AdmissionConfig::default()
        });
        assert_eq!(send(&p, "/", "alice").status, 503);
        assert_eq!(send(&p, "/album?monument=Mole", "alice").status, 503);
        let ops = send(&p, "/ops", "alice");
        assert_eq!(ops.status, 200, "operators can always see why");
        assert!(ops.body.contains("status: DEGRADED"), "{}", ops.body);
        assert!(ops.body.contains("shedding=true"), "{}", ops.body);
    }

    #[test]
    fn ops_route_reports_plan_cache_counters() {
        let p = platform();
        let query = "SELECT ?s WHERE { ?s <http://ex/p> ?o . }";
        p.query(query).unwrap();
        p.query(query).unwrap();
        let resp = get(&p, "/ops", false);
        assert!(resp.body.contains("plan cache"), "{}", resp.body);
        assert!(
            resp.body.contains("hits=1 misses=1"),
            "second run hits: {}",
            resp.body
        );
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_sparql_plan_entries 1"),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn ops_route_reports_replication_outbox_lag() {
        use crate::Upload;
        use lodify_durability::MemStorage;

        let mut p = platform();
        p.enable_emissions(
            crate::federation::Acct::parse("acct:oscar@node1.example").unwrap(),
            Box::new(MemStorage::new()),
        )
        .unwrap();
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: None,
            poi: None,
        })
        .unwrap();

        // The commit journaled one emission; nothing drained it yet.
        let resp = get(&p, "/ops", false);
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("replication lag=1 dlq=0"),
            "{}",
            resp.body
        );
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_replication_outbox_lag 1"),
            "{}",
            metrics.body
        );

        // Draining hands the committed UGC delta to a replication
        // agent and clears the lag.
        let emissions = p.drain_emissions();
        assert_eq!(emissions.len(), 1);
        assert!(!emissions[0].additions.is_empty());
        let resp = get(&p, "/ops", false);
        assert!(resp.body.contains("replication lag=0"), "{}", resp.body);
    }

    #[test]
    fn subscriptions_route_reports_live_albums_and_push_state() {
        use crate::Upload;

        let mut p = platform();
        let spec = crate::albums::AlbumSpec::near_monument("Mole Antonelliana", "it", 1.0);
        let album = p.live_register(&spec);
        p.live_subscribe("http://frame.local/push", album);
        p.upload(Upload {
            user_id: 1,
            title: "Tramonto alla Mole".into(),
            tags: vec!["torino".into()],
            ts: 1_320_500_000,
            gps: None,
            poi: None,
        })
        .unwrap();

        let resp = get(&p, "/subscriptions", false);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("live albums (1):"), "{}", resp.body);
        assert!(
            resp.body
                .contains("album 0 \"Mole Antonelliana\"@it members="),
            "{}",
            resp.body
        );
        assert!(
            resp.body.contains("http://frame.local/push album=0"),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("breaker=closed"), "{}", resp.body);
        assert!(
            resp.body.contains("head=1 shipped=1 cursor=1"),
            "snapshot shipped on subscribe: {}",
            resp.body
        );

        // The snapshot on /ops now carries the live section too.
        let ops = get(&p, "/ops", false);
        assert!(ops.body.contains("live        albums=1"), "{}", ops.body);
        let metrics = get(&p, "/metrics", false);
        assert!(
            metrics.body.contains("lodify_live_albums 1"),
            "{}",
            metrics.body
        );
    }

    #[test]
    fn request_ids_propagate_into_the_access_log() {
        let p = platform();
        let request = Request::parse("GET /search?q=Turi HTTP/1.1", &[]).unwrap();
        let first = handle_request(&p, &request);
        let second = handle_request(&p, &request);
        let (a, b) = (first.request_id.unwrap(), second.request_id.unwrap());
        assert_ne!(a, b, "each request gets a fresh id");

        let recent = p.obs().access_log().recent(8);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].request_id, a);
        assert_eq!(recent[1].request_id, b);
        assert_eq!(recent[0].target, "/search?q=Turi");
        assert_eq!(recent[0].status, 200);
        // The handler latency feeds the web.request histogram too.
        let histogram = p.obs().metrics().histogram("web.request").unwrap();
        assert_eq!(histogram.count(), 2);
        // And the ids come back over the wire via X-Request-Id.
        let bad = Response::bad_request("x");
        assert_eq!(bad.request_id, None, "pure constructors carry no id");
    }

    #[test]
    fn unknown_route_404s() {
        let p = platform();
        assert_eq!(get(&p, "/nope", false).status, 404);
    }

    #[test]
    fn friendly_tags_read_like_phrases() {
        let tt = |s: &str| lodify_tripletags::TripleTag::parse(s).unwrap();
        assert_eq!(friendly_tag(&tt("address:city=Turin")), "in Turin");
        assert_eq!(
            friendly_tag(&tt("people:fn=Walter+Goix")),
            "with Walter Goix"
        );
        assert_eq!(friendly_tag(&tt("place:is=crowded")), "a crowded place");
        assert_eq!(
            friendly_tag(&tt("cell:cgi=460-0-9522-3661")),
            "cell 460-0-9522-3661"
        );
        // Unknown namespaces fall back to wire form.
        assert_eq!(friendly_tag(&tt("custom:x=1")), "custom:x=1");
    }

    #[test]
    fn url_encode_decode_round_trip() {
        for s in ["plain", "with space", "città+%&=?", "🙂"] {
            assert_eq!(url_decode(&url_encode(s)), s);
        }
    }

    #[test]
    fn html_escaping() {
        assert_eq!(
            escape_html("<b>&\"x\"</b>"),
            "&lt;b&gt;&amp;&quot;x&quot;&lt;/b&gt;"
        );
    }

    #[test]
    fn live_server_round_trip() {
        use std::io::{Read, Write};
        let p = Arc::new(platform());
        let server = WebServer::start(p, 0).unwrap();
        let addr = server.addr();

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /search?q=Turin HTTP/1.1\r\nHost: localhost\r\nUser-Agent: test\r\n\r\n"
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("X-Request-Id: "), "{response}");
        assert!(response.contains("Turin"));
        server.stop();
    }

    #[test]
    fn silent_clients_hit_the_configured_read_timeout() {
        let p = Arc::new(platform());
        let server = WebServer::start_with_config(
            p,
            0,
            ServerConfig {
                read_timeout: std::time::Duration::from_millis(40),
                write_timeout: std::time::Duration::from_millis(40),
            },
        )
        .unwrap();
        // Connect and send nothing: the read deadline must fire and be
        // recorded as a typed timeout, not a generic error.
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        for _ in 0..200 {
            if server.telemetry().counter("web.timeouts") >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(server.telemetry().counter("web.timeouts"), 1);
        assert_eq!(server.telemetry().counter("web.errors"), 0);
        drop(stream);
        server.stop();
    }

    #[test]
    fn io_errors_classify_timeouts() {
        let timeout = std::io::Error::new(std::io::ErrorKind::TimedOut, "t");
        assert!(matches!(
            io_error("read", timeout),
            PlatformError::Timeout(_)
        ));
        let would_block = std::io::Error::new(std::io::ErrorKind::WouldBlock, "w");
        assert!(matches!(
            io_error("read", would_block),
            PlatformError::Timeout(_)
        ));
        let other = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "b");
        assert!(matches!(
            io_error("write", other),
            PlatformError::Invalid(_)
        ));
    }
}
