//! Route dispatch and the endpoint handlers.
//!
//! | Method | Path                | Purpose                                        |
//! |--------|---------------------|------------------------------------------------|
//! | POST   | `/systems`          | register a unit system                         |
//! | POST   | `/references`       | register a reference crosswalk                 |
//! | POST   | `/ingest`           | fold a point batch into a streaming reference  |
//! | POST   | `/ingest/partial`   | locate a batch, return its mergeable state     |
//! | POST   | `/ingest/state`     | fold an already-merged state (scatter/gather)  |
//! | POST   | `/crosswalk`        | apply one crosswalk to a batch of attributes   |
//! | GET    | `/healthz`          | readiness: store size, uptime, build info      |
//! | GET    | `/metrics`          | counters, cache stats, latency histograms      |
//! | GET    | `/replica/manifest` | WAL-shipping manifest (durable servers only)   |
//! | GET    | `/replica/segment`  | one segment's clean prefix, `?index=N&from=M`  |
//! | GET    | `/replica/snapshot` | the committed snapshot file                    |
//!
//! The `/ingest/{partial,state}` pair and the `/replica/*` family exist
//! for `geoalign-cluster`: the coordinator scatters a large `/ingest`
//! batch as `/ingest/partial` calls, merges the returned states (the
//! superaccumulator merge is split-invariant, so the result is
//! bit-identical to one big `/ingest`), and folds once via
//! `/ingest/state` at the pair's owner; warm standbys converge on a
//! primary's durable directory through `/replica/*` (DESIGN.md §16).
//!
//! `/metrics` serves the JSON snapshot by default and Prometheus text
//! exposition when asked — either `GET /metrics?format=prometheus` or an
//! `Accept: text/plain` header.
//!
//! With [`crate::ServerConfig::debug_endpoints`] the introspection suite
//! `GET /debug/{profile,spans,slow,threads}` answers too (DESIGN.md §13);
//! without the flag the whole `/debug` prefix 404s like any unknown path.

use crate::http::{HttpError, Request, Response};
use crate::json::{self, Bulk, Fields, Json, Triple};
use crate::store::{AppState, IngestOutcome};
use geoalign_agg::AggState;
use geoalign_core::{CoreError, ReferenceData};
use geoalign_obs::{expo, Registry};
use geoalign_partition::{AggregateVector, DisaggregationMatrix, UnitIndex};

/// `Content-Type` of the Prometheus text exposition format.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Dispatches one request to its handler. Never panics; every failure
/// becomes a JSON error response.
pub fn route(state: &AppState, req: &Request) -> Response {
    // An installed override (the cluster coordinator's scatter/gather
    // front end, a standby's promotion gate) answers first; `None`
    // falls through to the built-in routes below.
    if let Some(intercept) = state.route_override() {
        if let Some(resp) = intercept(req) {
            return resp;
        }
    }
    // The introspection suite answers only with `--debug-endpoints`;
    // without the flag the whole prefix 404s exactly like unknown paths,
    // so production config reveals nothing.
    if req.path == "/debug" || req.path.starts_with("/debug/") {
        return route_debug(state, req);
    }
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/systems") => post_systems(state, req),
        ("POST", "/references") => post_references(state, req),
        ("POST", "/ingest") => post_ingest(state, req),
        ("POST", "/ingest/partial") => post_ingest_partial(state, req),
        ("POST", "/ingest/state") => post_ingest_state(state, req),
        ("POST", "/crosswalk") => post_crosswalk(state, req),
        ("POST", "/checkpoint") => post_checkpoint(state),
        ("GET", "/healthz") => Ok(get_healthz(state)),
        ("GET", "/metrics") => Ok(get_metrics(state, req)),
        ("GET", "/replica/manifest") => get_replica_manifest(state),
        ("GET", "/replica/segment") => get_replica_segment(state, req),
        ("GET", "/replica/snapshot") => get_replica_snapshot(state),
        (
            _,
            "/systems" | "/references" | "/ingest" | "/ingest/partial" | "/ingest/state"
            | "/crosswalk" | "/checkpoint",
        ) => Ok(method_not_allowed(&req.method, "POST")),
        (
            _,
            "/healthz" | "/metrics" | "/replica/manifest" | "/replica/segment"
            | "/replica/snapshot",
        ) => Ok(method_not_allowed(&req.method, "GET")),
        _ => Err(HttpError {
            status: 404,
            message: format!("no route for {}", req.path),
        }),
    };
    result.unwrap_or_else(Response::from)
}

/// Dispatch within `/debug/*` (gated on `--debug-endpoints`).
fn route_debug(state: &AppState, req: &Request) -> Response {
    let not_found = || {
        Response::from(HttpError {
            status: 404,
            message: format!("no route for {}", req.path),
        })
    };
    if !state.debug_endpoints_enabled() {
        return not_found();
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/debug/profile") => get_debug_profile(req),
        ("GET", "/debug/spans") => get_debug_spans(),
        ("GET", "/debug/slow") => get_debug_slow(state),
        ("GET", "/debug/threads") => get_debug_threads(state),
        (_, "/debug/profile" | "/debug/spans" | "/debug/slow" | "/debug/threads") => {
            method_not_allowed(&req.method, "GET")
        }
        _ => not_found(),
    }
}

/// A 405 carrying the `Allow` header RFC 9110 requires. The request was
/// fully parsed, so the connection stays open — unlike protocol errors,
/// where the stream position is unknown.
fn method_not_allowed(method: &str, allow: &'static str) -> Response {
    let mut resp = Response::error(405, &format!("method {method} not allowed"));
    resp.set_header("Allow", allow);
    resp
}

/// Decodes the body with `decode`, the tree parser or one of the typed
/// decoders; a depth-limit rejection (stack-overflow guard) is counted
/// separately from plain syntax errors.
fn decode_body<'a, T>(
    state: &AppState,
    req: &'a Request,
    decode: impl FnOnce(&'a str) -> Result<T, json::JsonError>,
) -> Result<T, HttpError> {
    decode(req.body_text()?).map_err(|e| {
        if e.kind == json::JsonErrorKind::TooDeep {
            state.metrics.depth_limit_rejections.inc();
        }
        HttpError::bad_request(e.to_string())
    })
}

/// Parses the JSON body into a tree.
fn parse_body(state: &AppState, req: &Request) -> Result<Json, HttpError> {
    decode_body(state, req, json::parse)
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, HttpError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| HttpError::bad_request(format!("missing string field '{key}'")))
}

fn missing_array(key: &str) -> HttpError {
    HttpError::bad_request(format!("missing array field '{key}'"))
}

fn array_field<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], HttpError> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| missing_array(key))
}

/// The elements of a bulk array field: typed, or the tree of an array
/// that holds an element of another shape.
enum Elements<'b, T> {
    Typed(&'b [T]),
    Tree(&'b [Json]),
}

/// The elements of the bulk field `key`, or [`array_field`]'s error when
/// it is missing or not an array.
fn bulk_field<'b, T>(bulk: &'b Option<Bulk<T>>, key: &str) -> Result<Elements<'b, T>, HttpError> {
    match bulk {
        Some(Bulk::Typed(items)) => Ok(Elements::Typed(items)),
        Some(Bulk::Tree(Json::Array(items))) => Ok(Elements::Tree(items)),
        _ => Err(missing_array(key)),
    }
}

/// How `/ingest` and `/references` name the parts of a triple in their
/// messages: the element, then its number.
const POINT: (&str, &str) = ("point", "weight");
const ENTRY: (&str, &str) = ("entry", "value");

impl<'b> Elements<'b, Triple<'_>> {
    fn len(&self) -> usize {
        match self {
            Elements::Typed(items) => items.len(),
            Elements::Tree(items) => items.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements as `(source, target, number)`, in order. A tree
    /// element of another shape yields the error the tree handlers gave
    /// it, so the first bad element still stops the walk where it did.
    fn triples(
        &self,
        (element, number): (&'static str, &'static str),
    ) -> impl Iterator<Item = Result<(&'b str, &'b str, f64), HttpError>> + '_ {
        (0..self.len()).map(move |i| match self {
            Elements::Typed(items) => {
                let (source, target, value) = &items[i];
                Ok((&**source, &**target, *value))
            }
            Elements::Tree(items) => {
                let fields = items[i]
                    .as_array()
                    .filter(|f| f.len() == 3)
                    .ok_or_else(|| {
                        HttpError::bad_request(format!(
                            "each {element} must be [source, target, {number}]"
                        ))
                    })?;
                let unit = |field: &'b Json, role: &str| {
                    field.as_str().ok_or_else(|| {
                        HttpError::bad_request(format!("{element} {role} unit must be a string"))
                    })
                };
                let source = unit(&fields[0], "source")?;
                let target = unit(&fields[1], "target")?;
                let value = fields[2].as_f64().ok_or_else(|| {
                    HttpError::bad_request(format!("{element} {number} must be a number"))
                })?;
                Ok((source, target, value))
            }
        })
    }
}

fn core_error(e: &CoreError) -> HttpError {
    let status = match e {
        CoreError::UnknownReference { .. } => 404,
        CoreError::Persist { .. } => 500,
        _ => 400,
    };
    HttpError {
        status,
        message: e.to_string(),
    }
}

/// `POST /systems` — body `{"name": "zip", "units": ["z1", "z2", ...]}`.
fn post_systems(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let doc = parse_body(state, req)?;
    let name = str_field(&doc, "name")?;
    let units: Vec<String> = array_field(&doc, "units")?
        .iter()
        .map(|u| {
            u.as_str()
                .map(str::to_owned)
                .ok_or_else(|| HttpError::bad_request("'units' must be an array of strings"))
        })
        .collect::<Result<_, _>>()?;
    if units.is_empty() {
        return Err(HttpError::bad_request("'units' must not be empty"));
    }
    let n = units.len();
    // Write through before registering: a system the durable store never
    // saw would orphan every reference on it at the next warm start.
    state
        .persist_system(name, &units)
        .map_err(|e| core_error(&e))?;
    state.pipeline_mut().register_system(name, units);
    Ok(Response::json(
        Json::object([
            ("registered", Json::from(name)),
            ("units", Json::Number(n as f64)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /references` — body
/// `{"source": "zip", "target": "county", "name": "population",
///   "entries": [["z1", "A", 100.0], ...]}`
/// where each entry is `[source unit id, target unit id, value]`.
fn post_references(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let body = decode_body(state, req, |text| json::parse_triples(text, "entries"))?;
    let source = str_field(&body.other, "source")?;
    let target = str_field(&body.other, "target")?;
    let name = str_field(&body.other, "name")?;
    let entries = bulk_field(&body.bulk, "entries")?;

    let mut pipeline = state.pipeline_mut();
    let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
    let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;
    let find = |index: &UnitIndex, id: &str, system: &str| -> Result<usize, HttpError> {
        index.get(id).ok_or_else(|| {
            HttpError::bad_request(format!("unknown unit '{id}' in system '{system}'"))
        })
    };

    let mut triples = Vec::with_capacity(entries.len());
    for entry in entries.triples(ENTRY) {
        let (s, t, v) = entry?;
        triples.push((
            find(source_index, s, source)?,
            find(target_index, t, target)?,
            v,
        ));
    }

    let dm =
        DisaggregationMatrix::from_triples(name, source_index.len(), target_index.len(), triples)
            .map_err(|e| HttpError::bad_request(e.to_string()))?;
    let nnz = dm.nnz();
    let reference = ReferenceData::from_dm(name, dm).map_err(|e| core_error(&e))?;
    // Register before persisting: a record the registry rejected must
    // never reach the WAL, where it would fail replay at the next boot.
    pipeline
        .register_reference(source, target, reference.clone())
        .map_err(|e| core_error(&e))?;
    let count = pipeline.reference_count(source, target);
    // Persist while still holding the pipeline write lock: the durable
    // ref/<nnnnnnnn> index must be assigned in registration order, or a
    // warm start would replay concurrent registrations in a different
    // order than the cold pipeline saw them and break the byte-identical
    // warm-start guarantee. Registration is rare; the fsync under the
    // lock is acceptable.
    state
        .persist_reference(source, target, &reference)
        .map_err(|e| core_error(&e))?;
    drop(pipeline);
    Ok(Response::json(
        Json::object([
            ("registered", Json::from(name)),
            ("pair", Json::from(format!("{source}->{target}"))),
            ("nnz", Json::Number(nnz as f64)),
            ("references_for_pair", Json::Number(count as f64)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /ingest` — body
/// `{"source": "zip", "target": "county", "attribute": "pop",
///   "points": [["z1", "A", 2.5], ...]}`
/// where each point is `[source unit id, target unit id, weight]`.
///
/// Folds the batch into the pair's streaming reference: the first batch
/// registers it, later batches merge into its state and replace it in
/// place, refreshing any cached prepared crosswalk through the
/// incremental delta path. Points naming unknown units are skipped and
/// counted (mirroring `OutsidePolicy::Skip`); negative or non-finite
/// weights reject the whole batch up front, so a batch is folded
/// all-or-nothing.
fn post_ingest(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let body = decode_body(state, req, |text| json::parse_triples(text, "points"))?;
    let batch = parse_ingest_batch(state, &body)?;
    state
        .metrics
        .ingest_batch_points
        .record_value(batch.total as u64);
    let outcome = state
        .ingest(
            batch.source,
            batch.target,
            batch.attribute,
            &batch.points,
            batch.unknown,
        )
        .map_err(|e| core_error(&e))?;
    Ok(ingest_response(
        batch.attribute,
        batch.source,
        batch.target,
        &outcome,
    ))
}

/// A parsed, unit-resolved `/ingest`-shaped body: located index triples
/// plus the count of points that named unknown units.
struct IngestBatch<'a> {
    source: &'a str,
    target: &'a str,
    attribute: &'a str,
    points: Vec<(usize, usize, f64)>,
    unknown: u64,
    total: usize,
}

/// Validates a decoded `/ingest` (or `/ingest/partial`) body, resolving
/// unit names to indices. Shared so a scattered sub-batch goes through
/// exactly the validation one big batch would.
fn parse_ingest_batch<'a>(
    state: &AppState,
    body: &'a Fields<Bulk<Triple<'_>>>,
) -> Result<IngestBatch<'a>, HttpError> {
    let source = str_field(&body.other, "source")?;
    let target = str_field(&body.other, "target")?;
    let attribute = str_field(&body.other, "attribute")?;
    let entries = bulk_field(&body.bulk, "points")?;
    if entries.is_empty() {
        return Err(HttpError::bad_request("'points' must not be empty"));
    }

    // Held while resolving, so every point sees the same registration of
    // each system.
    let pipeline = state.pipeline();
    let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
    let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;

    let mut points = Vec::with_capacity(entries.len());
    let mut unknown = 0u64;
    for point in entries.triples(POINT) {
        let (s, t, w) = point?;
        if !w.is_finite() || w < 0.0 {
            return Err(HttpError::bad_request(format!(
                "point weight {w} must be finite and non-negative"
            )));
        }
        match (source_index.get(s), target_index.get(t)) {
            (Some(si), Some(ti)) => points.push((si, ti, w)),
            _ => unknown += 1,
        }
    }
    Ok(IngestBatch {
        source,
        target,
        attribute,
        points,
        unknown,
        total: entries.len(),
    })
}

/// The `/ingest` response shape, shared with `/ingest/state` so a
/// coordinator-gathered fold answers byte-identically to the single-node
/// path.
fn ingest_response(
    attribute: &str,
    source: &str,
    target: &str,
    outcome: &IngestOutcome,
) -> Response {
    Response::json(
        Json::object([
            ("ingested", Json::from(attribute)),
            ("pair", Json::from(format!("{source}->{target}"))),
            ("absorbed", Json::Number(outcome.absorbed as f64)),
            ("skipped", Json::Number(outcome.skipped as f64)),
            ("total_points", Json::Number(outcome.total_points as f64)),
            ("total_skipped", Json::Number(outcome.total_skipped as f64)),
            (
                "references_for_pair",
                Json::Number(outcome.references_for_pair as f64),
            ),
            ("incremental", Json::Bool(outcome.incremental)),
            ("touched_rows", Json::Number(outcome.touched_rows as f64)),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// `POST /ingest/partial` — the stateless half of a scattered ingest:
/// same body as `/ingest`, but instead of folding, the batch's mergeable
/// superaccumulator state comes back hex-encoded for the coordinator to
/// merge with sibling partials. Nothing is mutated; any shard that knows
/// the pair's unit systems computes the same bytes.
fn post_ingest_partial(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let body = decode_body(state, req, |text| json::parse_triples(text, "points"))?;
    let batch = parse_ingest_batch(state, &body)?;
    state
        .metrics
        .ingest_batch_points
        .record_value(batch.total as u64);
    let agg = state
        .ingest_partial(
            batch.source,
            batch.target,
            batch.attribute,
            &batch.points,
            batch.unknown,
        )
        .map_err(|e| core_error(&e))?;
    Ok(Response::json(
        Json::object([
            (
                "pair",
                Json::from(format!("{}->{}", batch.source, batch.target)),
            ),
            ("attribute", Json::from(batch.attribute)),
            ("absorbed", Json::Number(agg.count() as f64)),
            ("skipped", Json::Number(agg.skipped() as f64)),
            ("state", Json::from(hex_encode(&agg.encode()))),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `POST /ingest/state` — body
/// `{"source": ..., "target": ..., "attribute": ..., "state": "<hex>"}`:
/// folds an already-merged batch state into the pair's streaming
/// reference. Because the superaccumulator merge is split-invariant,
/// folding a merged run of `/ingest/partial` states here is
/// bit-identical to one `/ingest` of the concatenated points — the
/// response is the ordinary `/ingest` shape.
fn post_ingest_state(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let doc = parse_body(state, req)?;
    let source = str_field(&doc, "source")?;
    let target = str_field(&doc, "target")?;
    let attribute = str_field(&doc, "attribute")?;
    let hex = str_field(&doc, "state")?;
    let bytes = hex_decode(hex)
        .ok_or_else(|| HttpError::bad_request("'state' must be an even-length hex string"))?;
    let batch = AggState::decode(&bytes)
        .map_err(|e| HttpError::bad_request(format!("undecodable ingest state: {e}")))?;
    let outcome = state
        .ingest_state(source, target, attribute, batch)
        .map_err(|e| core_error(&e))?;
    Ok(ingest_response(attribute, source, target, &outcome))
}

/// Lowercase hex of `bytes` (wire form of an encoded ingest state).
fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
    }
    out
}

/// Inverse of [`hex_encode`]; `None` on odd length or a non-hex digit.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// `POST /crosswalk` — body
/// `{"source": "zip", "target": "county",
///   "attributes": [{"name": "crimes", "values": [...]}, ...]}`
/// with `values` positional in the source system's registered unit order.
/// One prepared crosswalk (cached across requests) is applied to every
/// attribute in the batch.
fn post_crosswalk(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let mut body = decode_body(state, req, json::parse_crosswalk)?;
    let source = str_field(&body.other, "source")?;
    let target = str_field(&body.other, "target")?;
    // The decoder types every `attributes` array, so a tree is never one.
    let Some(Bulk::Typed(attributes)) = &mut body.bulk else {
        return Err(missing_array("attributes"));
    };
    if attributes.is_empty() {
        return Err(HttpError::bad_request("'attributes' must not be empty"));
    }

    let (prepared, cache_hit) = state
        .prepared_crosswalk(source, target)
        .map_err(|e| core_error(&e))?;
    // The response is written straight into the body buffer, starting
    // with the target ids under the pipeline read lock. The buffer grows
    // only by what has been validated: the registered target system here,
    // the computed columns below, never the request's element counts.
    let mut out = String::with_capacity(64 + 20 * prepared.n_target());
    out.push_str("{\"target_system\":");
    json::write_string(&mut out, target);
    out.push_str(",\"target_units\":");
    {
        let pipeline = state.pipeline();
        let ids = pipeline.unit_ids(target).map_err(|e| core_error(&e))?;
        json::write_array(&mut out, ids, |out, id| json::write_string(out, id));
    }
    out.push_str(",\"cache_hit\":");
    out.push_str(if cache_hit { "true" } else { "false" });

    // Validate the whole batch up front, then hand it to the prepared
    // crosswalk in one `apply_batch` call, which walks the references
    // once for up to four attributes and spreads the walk over the
    // process thread budget.
    let mut names = Vec::with_capacity(attributes.len());
    let mut vectors = Vec::with_capacity(attributes.len());
    for attr in attributes.iter_mut() {
        let name = str_field(&attr.other, "name")?;
        let values = match attr.bulk.take() {
            Some(Bulk::Typed(values)) => values,
            // A `values` array holding a non-number stays a tree.
            Some(Bulk::Tree(Json::Array(_))) => {
                return Err(HttpError::bad_request(format!(
                    "attribute '{name}': values must be numbers"
                )))
            }
            _ => return Err(missing_array("values")),
        };
        if values.len() != prepared.n_source() {
            return Err(HttpError::bad_request(format!(
                "attribute '{name}': {} values for {} source units",
                values.len(),
                prepared.n_source()
            )));
        }
        let vector = AggregateVector::new(name, values)
            .map_err(|e| HttpError::bad_request(format!("attribute '{name}': {e}")))?;
        names.push(name);
        vectors.push(vector);
    }

    let applied_batch = prepared.apply_batch(&vectors).map_err(|e| core_error(&e))?;
    let numbers: usize = applied_batch
        .iter()
        .map(|applied| applied.estimate.len() + applied.weights.len())
        .sum();
    out.reserve(32 * names.len() + 20 * numbers);
    out.push_str(",\"columns\":");
    json::write_array(
        &mut out,
        names.into_iter().zip(applied_batch),
        |out, (name, applied)| {
            state.metrics.record_phases(&applied.timings);
            out.push_str("{\"name\":");
            json::write_string(out, name);
            out.push_str(",\"values\":");
            json::write_array(out, &applied.estimate, |out, &v| json::write_number(out, v));
            out.push_str(",\"weights\":");
            json::write_array(out, &applied.weights, |out, &v| json::write_number(out, v));
            out.push('}');
        },
    );
    out.push('}');
    Ok(Response::json(out))
}

/// `POST /checkpoint` — compacts the streaming references' batch
/// partials into their rollups, flushes the write-behind persister,
/// snapshots the durable store, and truncates the WAL. `409` when the server runs
/// without `--data-dir` (there is nothing to checkpoint).
fn post_checkpoint(state: &AppState) -> Result<Response, HttpError> {
    if state.durable().is_none() {
        return Err(HttpError {
            status: 409,
            message: "no durable store: server started without --data-dir".to_owned(),
        });
    }
    let report = state.checkpoint().map_err(|e| core_error(&e))?;
    Ok(Response::json(
        Json::object([
            ("seq", Json::Number(report.seq as f64)),
            ("records", Json::Number(report.records as f64)),
            ("snapshot_bytes", Json::Number(report.snapshot_bytes as f64)),
            (
                "wal_segments_removed",
                Json::Number(report.wal_segments_removed as f64),
            ),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// The durable backing, or the `409` every `/replica/*` route answers
/// on a server that has nothing to ship.
fn replica_backing(
    state: &AppState,
) -> Result<&std::sync::Arc<geoalign_core::DurableBacking>, HttpError> {
    state.durable().ok_or_else(|| HttpError {
        status: 409,
        message: "no durable store: server started without --data-dir".to_owned(),
    })
}

fn store_error(e: &geoalign_store::StoreError) -> HttpError {
    HttpError {
        status: 500,
        message: e.to_string(),
    }
}

/// `GET /replica/manifest` — the WAL-shipping manifest: committed
/// sequence, snapshot metadata, and every segment's clean-prefix length
/// (see `geoalign_store::ship`).
fn get_replica_manifest(state: &AppState) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let m = geoalign_store::ship::manifest(backing.store()).map_err(|e| store_error(&e))?;
    let snapshot = match m.snapshot {
        Some(info) => Json::object([
            ("bytes", Json::Number(info.bytes as f64)),
            ("seq", Json::Number(info.seq as f64)),
        ]),
        None => Json::Null,
    };
    let segments: Vec<Json> = m
        .segments
        .iter()
        .map(|s| {
            Json::object([
                ("index", Json::Number(s.index as f64)),
                ("valid_bytes", Json::Number(s.valid_bytes as f64)),
                ("sealed", Json::Bool(s.sealed)),
            ])
        })
        .collect();
    Ok(Response::json(
        Json::object([
            ("last_seq", Json::Number(m.last_seq as f64)),
            ("snapshot", snapshot),
            ("segments", Json::Array(segments)),
        ])
        .to_string()
        .into_bytes(),
    ))
}

/// `GET /replica/segment?index=N[&from=M]` — bytes `M..` of segment
/// `N`'s clean prefix, as `application/octet-stream`. `X-Segment-*`
/// headers carry the slice coordinates so the standby can detect a
/// concurrent checkpoint (`404`: the segment was compacted away).
fn get_replica_segment(state: &AppState, req: &Request) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let index = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("index="))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| HttpError::bad_request("missing or invalid 'index' query parameter"))?;
    let from = query_u64(req, "from", 0, 0, u64::MAX);
    let chunk = geoalign_store::ship::read_segment(backing.store().dir(), index, from)
        .map_err(|e| store_error(&e))?
        .ok_or_else(|| HttpError {
            status: 404,
            message: format!("segment {index} does not exist (checkpointed away?)"),
        })?;
    let mut resp = Response::text("application/octet-stream", chunk.bytes);
    resp.set_header("X-Segment-From", chunk.from.to_string());
    resp.set_header("X-Segment-Valid-Bytes", chunk.valid_bytes.to_string());
    resp.set_header("X-Segment-Sealed", chunk.sealed.to_string());
    Ok(resp)
}

/// `GET /replica/snapshot` — the committed snapshot file verbatim;
/// `404` when the primary has never checkpointed.
fn get_replica_snapshot(state: &AppState) -> Result<Response, HttpError> {
    let backing = replica_backing(state)?;
    let bytes = geoalign_store::ship::read_snapshot(backing.store().dir())
        .map_err(|e| store_error(&e))?
        .ok_or_else(|| HttpError {
            status: 404,
            message: "no snapshot: the primary has never checkpointed".to_owned(),
        })?;
    Ok(Response::text("application/octet-stream", bytes))
}

/// The `durability` object in `/healthz`: whether a durable store is
/// attached and, when it is, what recovery found at boot — replayed WAL
/// records, snapshot records, torn-tail and corruption repairs.
fn durability_json(state: &AppState) -> Json {
    let Some(backing) = state.durable() else {
        return Json::object([("enabled", Json::Bool(false))]);
    };
    let store = backing.store();
    let recovery = store.recovery();
    let opt_str = |s: &Option<String>| match s {
        Some(v) => Json::from(v.as_str()),
        None => Json::Null,
    };
    Json::object([
        ("enabled", Json::Bool(true)),
        ("entries", Json::Number(store.len() as f64)),
        ("last_seq", Json::Number(store.last_seq() as f64)),
        (
            "recovery",
            Json::object([
                (
                    "snapshot_records",
                    Json::Number(recovery.snapshot_records as f64),
                ),
                ("snapshot_defect", opt_str(&recovery.snapshot_defect)),
                ("wal_segments", Json::Number(recovery.wal_segments as f64)),
                (
                    "wal_records_replayed",
                    Json::Number(recovery.wal_records_replayed as f64),
                ),
                ("repairs", Json::Number(recovery.repairs as f64)),
                ("torn_tail", opt_str(&recovery.torn_tail)),
                (
                    "replay_micros",
                    Json::Number(recovery.replay.as_micros().min(u128::from(u64::MAX)) as f64),
                ),
            ]),
        ),
    ])
}

/// `GET /healthz` — readiness detail: cached crosswalks, uptime, and the
/// build this binary came from (`GEOALIGN_GIT_HASH` is stamped at build
/// time when available; "unknown" otherwise).
fn get_healthz(state: &AppState) -> Response {
    let build = Json::object([
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        (
            "git_hash",
            Json::from(option_env!("GEOALIGN_GIT_HASH").unwrap_or("unknown")),
        ),
    ]);
    Response::json(
        Json::object([
            ("status", Json::from("ok")),
            (
                "store_entries",
                Json::Number(state.cache.stats().entries as f64),
            ),
            (
                "uptime_seconds",
                Json::Number(state.uptime().as_secs() as f64),
            ),
            ("durability", durability_json(state)),
            ("build", build),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// Whether the request asked for Prometheus text exposition — via
/// `?format=prometheus` or an `Accept: text/plain` header.
fn wants_prometheus(req: &Request) -> bool {
    if req.query.split('&').any(|kv| kv == "format=prometheus") {
        return true;
    }
    req.header("accept")
        .is_some_and(|accept| accept.contains("text/plain"))
}

/// `GET /metrics` — counters, cache stats, per-phase latency histograms.
/// JSON by default (the shape pre-registry clients rely on), Prometheus
/// text exposition when asked (see [`wants_prometheus`]).
fn get_metrics(state: &AppState, req: &Request) -> Response {
    let stats = state.cache.stats();
    if wants_prometheus(req) {
        // Cache stats live as plain atomics on the store, so mirror them
        // into a scratch registry for this scrape. The serve registry is
        // scraped first, then the scratch, then the process-global
        // registry with the core/partition library metrics.
        let scratch = Registry::new();
        scratch
            .counter(
                "geoalign_serve_cache_hits_total",
                "Prepared-crosswalk cache hits",
            )
            .add(stats.hits);
        scratch
            .counter(
                "geoalign_serve_cache_misses_total",
                "Prepared-crosswalk cache misses",
            )
            .add(stats.misses);
        scratch
            .counter(
                "geoalign_serve_cache_evictions_total",
                "Prepared-crosswalk cache evictions",
            )
            .add(stats.evictions);
        scratch
            .gauge(
                "geoalign_serve_cache_entries",
                "Prepared crosswalks currently cached",
            )
            .set(stats.entries as i64);
        let text = expo::prometheus_text([state.metrics.registry(), &scratch, Registry::global()]);
        return Response::text(PROMETHEUS_CONTENT_TYPE, text.into_bytes());
    }
    let cache = Json::object([
        ("hits", Json::Number(stats.hits as f64)),
        ("misses", Json::Number(stats.misses as f64)),
        ("evictions", Json::Number(stats.evictions as f64)),
        ("entries", Json::Number(stats.entries as f64)),
        ("hit_rate", Json::Number(stats.hit_rate())),
    ]);
    let mut doc = match state.metrics.to_json() {
        Json::Object(pairs) => pairs,
        _ => unreachable!("Metrics::to_json returns an object"),
    };
    doc.push(("cache".to_owned(), cache));
    Response::json(Json::Object(doc).to_string().into_bytes())
}

/// One `k=v` query parameter parsed as an integer, clamped to a range.
fn query_u64(req: &Request, key: &str, default: u64, min: u64, max: u64) -> u64 {
    req.query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default)
        .clamp(min, max)
}

/// `GET /debug/profile?seconds=N[&hz=M]` — runs the sampling profiler
/// for the window and answers collapsed stacks as `text/plain`
/// (`flamegraph.pl` input). Blocks the handling worker for the window by
/// design; the window is capped at 30 s. Sampling statistics ride in
/// `X-Profile-*` headers so the body stays pure collapsed stacks.
fn get_debug_profile(req: &Request) -> Response {
    let seconds = query_u64(req, "seconds", 2, 1, 30);
    let hz = query_u64(req, "hz", 997, 1, 5_000);
    let profiler = geoalign_obs::Profiler::start(hz);
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    let report = profiler.stop();
    let mut resp = Response::text(
        "text/plain; charset=utf-8",
        report.collapsed_text().into_bytes(),
    );
    resp.set_header("X-Profile-Sweeps", report.sweeps.to_string());
    resp.set_header("X-Profile-Stack-Samples", report.stack_samples.to_string());
    resp.set_header("X-Profile-Idle-Samples", report.idle_samples.to_string());
    resp.set_header(
        "X-Profile-Sampler-Busy-Micros",
        report.sampler_busy.as_micros().to_string(),
    );
    resp
}

/// `GET /debug/spans` — drains the process-global trace ring and answers
/// the recent span records as a JSON array (oldest first).
fn get_debug_spans() -> Response {
    let records: Vec<Json> = geoalign_obs::trace::drain_recent()
        .iter()
        .map(span_record_json)
        .collect();
    Response::json(
        Json::object([
            ("count", Json::Number(records.len() as f64)),
            ("spans", Json::Array(records)),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// `GET /debug/slow` — the slowest requests retained so far, slowest
/// first, each with its full span records (ids and parents intact, so a
/// client can rebuild the tree).
fn get_debug_slow(state: &AppState) -> Response {
    let entries: Vec<Json> = state
        .slow_requests()
        .iter()
        .map(|e| {
            Json::object([
                ("trace_id", Json::from(e.trace_id.as_str())),
                ("method", Json::from(e.method.as_str())),
                ("path", Json::from(e.path.as_str())),
                ("status", Json::Number(f64::from(e.status))),
                ("duration_micros", Json::Number(e.duration_micros as f64)),
                (
                    "spans",
                    Json::Array(e.spans.iter().map(span_record_json).collect()),
                ),
            ])
        })
        .collect();
    Response::json(
        Json::object([("slowest", Json::Array(entries))])
            .to_string()
            .into_bytes(),
    )
}

/// `GET /debug/threads` — request-pool occupancy (submitted / started /
/// completed, queue depth, jobs in flight) plus the process thread
/// budget.
fn get_debug_threads(state: &AppState) -> Response {
    let pool = match state.pool_stats() {
        Some(s) => Json::object([
            ("submitted", Json::Number(s.submitted as f64)),
            ("started", Json::Number(s.started as f64)),
            ("completed", Json::Number(s.completed as f64)),
            ("queue_depth", Json::Number(s.queue_depth as f64)),
            ("active", Json::Number(s.active as f64)),
        ]),
        // Routing without a bound server (unit tests, embedders).
        None => Json::Null,
    };
    Response::json(
        Json::object([
            ("pool", pool),
            (
                "exec_threads",
                Json::Number(geoalign_exec::global_threads() as f64),
            ),
            (
                "hardware_threads",
                Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
        ])
        .to_string()
        .into_bytes(),
    )
}

/// One span record as JSON for the debug endpoints: identity, tree
/// links, timing.
fn span_record_json(s: &geoalign_obs::SpanRecord) -> Json {
    Json::object([
        ("id", Json::Number(s.id as f64)),
        (
            "parent",
            s.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
        ),
        (
            "trace_id",
            s.trace_id.as_deref().map_or(Json::Null, Json::from),
        ),
        ("name", Json::from(s.name)),
        ("thread", Json::from(&*s.thread)),
        (
            "start_unix_micros",
            Json::Number(s.start_unix_micros as f64),
        ),
        ("duration_micros", Json::Number(s.duration_micros as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::Rng;
    use crate::json::MAX_DEPTH;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: String::new(),
            version: "HTTP/1.1".to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The tree-based handlers the typed ones replaced, kept as the
    /// reference for `typed_handlers_answer_like_the_tree_handlers`: the
    /// body parsed by `json::parse`, then checked element by element.
    mod tree {
        use super::super::*;

        pub(super) fn post_references(
            state: &AppState,
            req: &Request,
        ) -> Result<Response, HttpError> {
            let doc = parse_body(state, req)?;
            let source = str_field(&doc, "source")?;
            let target = str_field(&doc, "target")?;
            let name = str_field(&doc, "name")?;
            let entries = array_field(&doc, "entries")?;

            let mut pipeline = state.pipeline_mut();
            let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
            let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;
            let find = |index: &UnitIndex, id: &str, system: &str| -> Result<usize, HttpError> {
                index.get(id).ok_or_else(|| {
                    HttpError::bad_request(format!("unknown unit '{id}' in system '{system}'"))
                })
            };

            let mut triples = Vec::with_capacity(entries.len());
            for entry in entries {
                let fields = entry.as_array().filter(|f| f.len() == 3).ok_or_else(|| {
                    HttpError::bad_request("each entry must be [source, target, value]")
                })?;
                let s = fields[0]
                    .as_str()
                    .ok_or_else(|| HttpError::bad_request("entry source unit must be a string"))?;
                let t = fields[1]
                    .as_str()
                    .ok_or_else(|| HttpError::bad_request("entry target unit must be a string"))?;
                let v = fields[2]
                    .as_f64()
                    .ok_or_else(|| HttpError::bad_request("entry value must be a number"))?;
                triples.push((
                    find(source_index, s, source)?,
                    find(target_index, t, target)?,
                    v,
                ));
            }

            let dm = DisaggregationMatrix::from_triples(
                name,
                source_index.len(),
                target_index.len(),
                triples,
            )
            .map_err(|e| HttpError::bad_request(e.to_string()))?;
            let nnz = dm.nnz();
            let reference = ReferenceData::from_dm(name, dm).map_err(|e| core_error(&e))?;
            // Register before persisting: a record the registry rejected must
            // never reach the WAL, where it would fail replay at the next boot.
            pipeline
                .register_reference(source, target, reference.clone())
                .map_err(|e| core_error(&e))?;
            let count = pipeline.reference_count(source, target);
            // Persist while still holding the pipeline write lock: the durable
            // ref/<nnnnnnnn> index must be assigned in registration order, or a
            // warm start would replay concurrent registrations in a different
            // order than the cold pipeline saw them and break the byte-identical
            // warm-start guarantee. Registration is rare; the fsync under the
            // lock is acceptable.
            state
                .persist_reference(source, target, &reference)
                .map_err(|e| core_error(&e))?;
            drop(pipeline);
            Ok(Response::json(
                Json::object([
                    ("registered", Json::from(name)),
                    ("pair", Json::from(format!("{source}->{target}"))),
                    ("nnz", Json::Number(nnz as f64)),
                    ("references_for_pair", Json::Number(count as f64)),
                ])
                .to_string()
                .into_bytes(),
            ))
        }
        pub(super) fn post_ingest(state: &AppState, req: &Request) -> Result<Response, HttpError> {
            let doc = parse_body(state, req)?;
            let batch = parse_ingest_batch(state, &doc)?;
            state
                .metrics
                .ingest_batch_points
                .record_value(batch.total as u64);
            let outcome = state
                .ingest(
                    batch.source,
                    batch.target,
                    batch.attribute,
                    &batch.points,
                    batch.unknown,
                )
                .map_err(|e| core_error(&e))?;
            Ok(ingest_response(
                batch.attribute,
                batch.source,
                batch.target,
                &outcome,
            ))
        }
        struct IngestBatch<'a> {
            source: &'a str,
            target: &'a str,
            attribute: &'a str,
            points: Vec<(usize, usize, f64)>,
            unknown: u64,
            total: usize,
        }
        fn parse_ingest_batch<'a>(
            state: &AppState,
            doc: &'a Json,
        ) -> Result<IngestBatch<'a>, HttpError> {
            let source = str_field(doc, "source")?;
            let target = str_field(doc, "target")?;
            let attribute = str_field(doc, "attribute")?;
            let entries = array_field(doc, "points")?;
            if entries.is_empty() {
                return Err(HttpError::bad_request("'points' must not be empty"));
            }

            // Held while resolving, so every point sees the same registration of
            // each system.
            let pipeline = state.pipeline();
            let source_index = pipeline.unit_index(source).map_err(|e| core_error(&e))?;
            let target_index = pipeline.unit_index(target).map_err(|e| core_error(&e))?;

            let mut points = Vec::with_capacity(entries.len());
            let mut unknown = 0u64;
            for entry in entries {
                let fields = entry.as_array().filter(|f| f.len() == 3).ok_or_else(|| {
                    HttpError::bad_request("each point must be [source, target, weight]")
                })?;
                let s = fields[0]
                    .as_str()
                    .ok_or_else(|| HttpError::bad_request("point source unit must be a string"))?;
                let t = fields[1]
                    .as_str()
                    .ok_or_else(|| HttpError::bad_request("point target unit must be a string"))?;
                let w = fields[2]
                    .as_f64()
                    .ok_or_else(|| HttpError::bad_request("point weight must be a number"))?;
                if !w.is_finite() || w < 0.0 {
                    return Err(HttpError::bad_request(format!(
                        "point weight {w} must be finite and non-negative"
                    )));
                }
                match (source_index.get(s), target_index.get(t)) {
                    (Some(si), Some(ti)) => points.push((si, ti, w)),
                    _ => unknown += 1,
                }
            }
            Ok(IngestBatch {
                source,
                target,
                attribute,
                points,
                unknown,
                total: entries.len(),
            })
        }
        pub(super) fn post_ingest_partial(
            state: &AppState,
            req: &Request,
        ) -> Result<Response, HttpError> {
            let doc = parse_body(state, req)?;
            let batch = parse_ingest_batch(state, &doc)?;
            state
                .metrics
                .ingest_batch_points
                .record_value(batch.total as u64);
            let agg = state
                .ingest_partial(
                    batch.source,
                    batch.target,
                    batch.attribute,
                    &batch.points,
                    batch.unknown,
                )
                .map_err(|e| core_error(&e))?;
            Ok(Response::json(
                Json::object([
                    (
                        "pair",
                        Json::from(format!("{}->{}", batch.source, batch.target)),
                    ),
                    ("attribute", Json::from(batch.attribute)),
                    ("absorbed", Json::Number(agg.count() as f64)),
                    ("skipped", Json::Number(agg.skipped() as f64)),
                    ("state", Json::from(hex_encode(&agg.encode()))),
                ])
                .to_string()
                .into_bytes(),
            ))
        }
        pub(super) fn post_crosswalk(
            state: &AppState,
            req: &Request,
        ) -> Result<Response, HttpError> {
            let doc = parse_body(state, req)?;
            let source = str_field(&doc, "source")?;
            let target = str_field(&doc, "target")?;
            let attributes = array_field(&doc, "attributes")?;
            if attributes.is_empty() {
                return Err(HttpError::bad_request("'attributes' must not be empty"));
            }

            let (prepared, cache_hit) = state
                .prepared_crosswalk(source, target)
                .map_err(|e| core_error(&e))?;
            let target_units: Vec<Json> = {
                let pipeline = state.pipeline();
                let ids = pipeline.unit_ids(target).map_err(|e| core_error(&e))?;
                ids.iter().map(|id| Json::from(id.clone())).collect()
            };

            // Validate the whole batch up front, then hand it to the prepared
            // crosswalk in one `apply_batch` call, which walks the references
            // once for up to four attributes and spreads the walk over the
            // process thread budget.
            let mut names = Vec::with_capacity(attributes.len());
            let mut vectors = Vec::with_capacity(attributes.len());
            for attr in attributes {
                let name = str_field(attr, "name")?;
                let values: Vec<f64> = array_field(attr, "values")?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            HttpError::bad_request(format!(
                                "attribute '{name}': values must be numbers"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if values.len() != prepared.n_source() {
                    return Err(HttpError::bad_request(format!(
                        "attribute '{name}': {} values for {} source units",
                        values.len(),
                        prepared.n_source()
                    )));
                }
                let vector = AggregateVector::new(name, values)
                    .map_err(|e| HttpError::bad_request(format!("attribute '{name}': {e}")))?;
                names.push(name);
                vectors.push(vector);
            }

            let applied_batch = prepared.apply_batch(&vectors).map_err(|e| core_error(&e))?;
            let mut columns = Vec::with_capacity(attributes.len());
            for (name, applied) in names.into_iter().zip(applied_batch) {
                state.metrics.record_phases(&applied.timings);
                columns.push(Json::object([
                    ("name", Json::from(name)),
                    (
                        "values",
                        Json::Array(applied.estimate.into_iter().map(Json::Number).collect()),
                    ),
                    (
                        "weights",
                        Json::Array(applied.weights.into_iter().map(Json::Number).collect()),
                    ),
                ]));
            }

            Ok(Response::json(
                Json::object([
                    ("target_system", Json::from(target)),
                    ("target_units", Json::Array(target_units)),
                    ("cache_hit", Json::Bool(cache_hit)),
                    ("columns", Json::Array(columns)),
                ])
                .to_string()
                .into_bytes(),
            ))
        }
    }

    fn body_json(resp: &Response) -> Json {
        json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    fn state_with_world() -> std::sync::Arc<AppState> {
        let state = AppState::new(8);
        let r = route(
            &state,
            &request(
                "POST",
                "/systems",
                r#"{"name":"zip","units":["z1","z2","z3"]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let r = route(
            &state,
            &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
        );
        assert_eq!(r.status, 200);
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["z3","B",80]]}"#,
            ),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        state
    }

    #[test]
    fn health_and_unknown_routes() {
        let state = AppState::new(4);
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        assert_eq!(body_json(&r).get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(route(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(
            route(&state, &request("DELETE", "/healthz", "")).status,
            405
        );
    }

    #[test]
    fn crosswalk_end_to_end() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let doc = body_json(&r);
        assert_eq!(doc.get("cache_hit"), Some(&Json::Bool(false)));
        let col = &doc.get("columns").unwrap().as_array().unwrap()[0];
        let values = col.get("values").unwrap().as_array().unwrap();
        // z1 wholly in A, z2 splits 60/40, z3 wholly in B: A=22, B=38.
        assert!((values[0].as_f64().unwrap() - 22.0).abs() < 1e-9);
        assert!((values[1].as_f64().unwrap() - 38.0).abs() < 1e-9);
        // Second request hits the cache.
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(body_json(&r).get("cache_hit"), Some(&Json::Bool(true)));
    }

    #[test]
    fn crosswalk_validates_input() {
        let state = state_with_world();
        // Wrong value count.
        let r = route(
            &state,
            &request(
                "POST",
                "/crosswalk",
                r#"{"source":"zip","target":"county","attributes":[{"name":"x","values":[1]}]}"#,
            ),
        );
        assert_eq!(r.status, 400);
        // Unregistered pair.
        let r = route(
            &state,
            &request(
                "POST",
                "/crosswalk",
                r#"{"source":"county","target":"zip","attributes":[{"name":"x","values":[1,2]}]}"#,
            ),
        );
        assert_eq!(r.status, 404);
        // Malformed JSON.
        let r = route(&state, &request("POST", "/crosswalk", "{nope"));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn unvalidated_attribute_counts_do_not_size_the_response() {
        // A wide target and a long array of non-objects: a buffer sized
        // by target units times request attributes would ask for a
        // terabyte before the first attribute is looked at.
        let world = || {
            let state = AppState::new(8);
            let units: Vec<String> = (0..100_000).map(|i| format!("\"t{i}\"")).collect();
            for (path, body) in [
                ("/systems", r#"{"name":"zip","units":["z1","z2"]}"#.to_owned()),
                (
                    "/systems",
                    format!(r#"{{"name":"wide","units":[{}]}}"#, units.join(",")),
                ),
                (
                    "/references",
                    r#"{"source":"zip","target":"wide","name":"p","entries":[["z1","t0",1],["z2","t1",2]]}"#
                        .to_owned(),
                ),
            ] {
                let r = route(&state, &request("POST", path, &body));
                assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            }
            state
        };
        let (typed, tree_state) = (world(), world());
        let body = format!(
            r#"{{"source":"zip","target":"wide","attributes":[{}0]}}"#,
            "0,".repeat(500_000)
        );
        let status = assert_same_answer(&typed, &tree_state, "/crosswalk", body.as_bytes());
        assert_eq!(status, 400);
        let r = route(&typed, &request("POST", "/crosswalk", &body));
        assert!(
            String::from_utf8_lossy(&r.body).contains("missing string field 'name'"),
            "{:?}",
            String::from_utf8_lossy(&r.body)
        );
    }

    #[test]
    fn deep_json_bodies_are_rejected_and_counted() {
        let state = AppState::new(4);
        let hostile = "[".repeat(100_000);
        // The tree parser and the typed decoders share the depth limit.
        for (n, path) in ["/systems", "/crosswalk", "/ingest"]
            .into_iter()
            .enumerate()
        {
            let r = route(&state, &request("POST", path, &hostile));
            assert_eq!(r.status, 400);
            assert!(
                String::from_utf8_lossy(&r.body).contains("depth limit"),
                "{path}: {:?}",
                String::from_utf8_lossy(&r.body)
            );
            assert_eq!(state.metrics.depth_limit_rejections.get(), n as u64 + 1);
        }
        // An ordinary syntax error does not bump the depth counter.
        let r = route(&state, &request("POST", "/systems", "{nope"));
        assert_eq!(r.status, 400);
        assert_eq!(state.metrics.depth_limit_rejections.get(), 3);
    }

    #[test]
    fn references_validate_units() {
        let state = state_with_world();
        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"bad",
                   "entries":[["z9","A",1]]}"#,
            ),
        );
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("z9"));
    }

    #[test]
    fn duplicate_unit_ids_resolve_to_their_first_occurrence() {
        // A system listing `z1` twice: names resolve to the first
        // occurrence, exactly as a linear scan of the ids would, and the
        // error and skip accounting stay byte for byte what they were.
        let state = AppState::new(8);
        let r = route(
            &state,
            &request(
                "POST",
                "/systems",
                r#"{"name":"zip","units":["z1","z2","z1"]}"#,
            ),
        );
        assert_eq!(r.body, br#"{"registered":"zip","units":3}"#);
        let r = route(
            &state,
            &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
        );
        assert_eq!(r.status, 200);

        let r = route(
            &state,
            &request(
                "POST",
                "/references",
                r#"{"source":"zip","target":"county","name":"pop",
                   "entries":[["z1","A",100],["z2","B",40],["z1","B",60]]}"#,
            ),
        );
        assert_eq!(
            r.body,
            br#"{"registered":"pop","pair":"zip->county","nnz":3,"references_for_pair":1}"#
        );
        {
            let pipeline = state.pipeline();
            let pop = &pipeline.references("zip", "county")[0];
            assert_eq!(pop.n_source(), 2, "the duplicate collapses");
            assert_eq!(pop.source().values(), &[160.0, 40.0]);
        }
        for (entries, message) in [
            (
                r#"[["z1","A",1],["z3","A",1]]"#,
                r#"{"error":"unknown unit 'z3' in system 'zip'"}"#,
            ),
            (
                r#"[["z1","C",1]]"#,
                r#"{"error":"unknown unit 'C' in system 'county'"}"#,
            ),
        ] {
            let body =
                format!(r#"{{"source":"zip","target":"county","name":"bad","entries":{entries}}}"#);
            let r = route(&state, &request("POST", "/references", &body));
            assert_eq!(r.status, 400);
            assert_eq!(String::from_utf8_lossy(&r.body), message);
        }

        let r = route(
            &state,
            &request(
                "POST",
                "/ingest",
                r#"{"source":"zip","target":"county","attribute":"visits",
                   "points":[["z1","A",2],["z3","A",5],["z1","B",1],["z2","Q",1],["z2","B",4]]}"#,
            ),
        );
        assert_eq!(
            String::from_utf8_lossy(&r.body),
            r#"{"ingested":"visits","pair":"zip->county","absorbed":3,"skipped":2,"total_points":3,"total_skipped":2,"references_for_pair":2,"incremental":false,"touched_rows":0}"#
        );
        let pipeline = state.pipeline();
        let visits = &pipeline.references("zip", "county")[1];
        assert_eq!(visits.name(), "visits");
        assert_eq!(visits.source().values(), &[3.0, 4.0]);
    }

    #[test]
    fn healthz_reports_readiness_detail() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        let doc = body_json(&r);
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("store_entries").unwrap().as_f64(), Some(1.0));
        assert!(doc.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        let build = doc.get("build").unwrap();
        assert_eq!(
            build.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(build.get("git_hash").unwrap().as_str().is_some());
    }

    #[test]
    fn metrics_content_negotiation() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));

        // ?format=prometheus switches to text exposition.
        let mut prom_req = request("GET", "/metrics", "");
        prom_req.query = "format=prometheus".to_owned();
        let r = route(&state, &prom_req);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("# TYPE geoalign_serve_requests_total counter"));
        assert!(
            text.contains("geoalign_serve_weight_learning_latency_micros_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("geoalign_serve_weight_learning_latency_micros_count 1"));
        assert!(text.contains("geoalign_serve_cache_misses_total 1"));
        assert!(text.contains("geoalign_serve_cache_entries 1"));
        // Library metrics from the process-global registry ride along.
        assert!(text.contains("geoalign_core_solver_iterations"), "{text}");

        // Accept: text/plain also selects Prometheus.
        let mut accept_req = request("GET", "/metrics", "");
        accept_req
            .headers
            .push(("accept".to_owned(), "text/plain".to_owned()));
        let r = route(&state, &accept_req);
        assert_eq!(r.content_type, "text/plain; version=0.0.4");

        // The default stays JSON, same shape as ever.
        let r = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(r.content_type, "application/json");
        assert!(body_json(&r).get("request_latency").is_some());
    }

    #[test]
    fn checkpoint_without_data_dir_is_409() {
        let state = AppState::new(4);
        let r = route(&state, &request("POST", "/checkpoint", ""));
        assert_eq!(r.status, 409);
        assert!(String::from_utf8_lossy(&r.body).contains("--data-dir"));
        // And /healthz says durability is off.
        let health = body_json(&route(&state, &request("GET", "/healthz", "")));
        let durability = health.get("durability").unwrap();
        assert_eq!(durability.get("enabled"), Some(&Json::Bool(false)));
    }

    #[test]
    fn checkpoint_and_healthz_report_durable_detail() {
        let dir = std::env::temp_dir().join(format!("geoalign-router-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let state = AppState::open_durable(&dir, 8).unwrap();
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request(
                    "POST",
                    "/references",
                    r#"{"source":"zip","target":"county","name":"pop",
                       "entries":[["z1","A",10],["z1","B",30],["z2","B",5]]}"#,
                ),
            );
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let r = route(&state, &request("POST", "/checkpoint", ""));
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let doc = body_json(&r);
            assert_eq!(doc.get("records").unwrap().as_f64(), Some(3.0));
            assert!(doc.get("snapshot_bytes").unwrap().as_f64().unwrap() > 0.0);
        }
        // Reopen: the registrations came back through the snapshot, and
        // /healthz carries the recovery detail.
        let state = AppState::open_durable(&dir, 8).unwrap();
        let health = body_json(&route(&state, &request("GET", "/healthz", "")));
        let durability = health.get("durability").unwrap();
        assert_eq!(durability.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(durability.get("entries").unwrap().as_f64(), Some(3.0));
        let recovery = durability.get("recovery").unwrap();
        assert_eq!(
            recovery.get("snapshot_records").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(recovery.get("repairs").unwrap().as_f64(), Some(0.0));
        assert_eq!(recovery.get("torn_tail"), Some(&Json::Null));
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"x","values":[4,6]}]}"#;
        let r = route(&state, &request("POST", "/crosswalk", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reference_posts_persist_in_registration_order() {
        // Regression: the ref/<nnnnnnnn> index must be assigned while the
        // pipeline write lock is held, so racing POSTs persist in the
        // same order they registered and warm-start replay reproduces the
        // cold pipeline's reference sequence exactly.
        let dir =
            std::env::temp_dir().join(format!("geoalign-router-reforder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold_order: Vec<String> = {
            let state = AppState::open_durable(&dir, 8).unwrap();
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
            );
            assert_eq!(r.status, 200);
            let r = route(
                &state,
                &request("POST", "/systems", r#"{"name":"county","units":["A","B"]}"#),
            );
            assert_eq!(r.status, 200);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let state = &state;
                    s.spawn(move || {
                        for i in 0..5 {
                            let body = format!(
                                r#"{{"source":"zip","target":"county","name":"r{t}-{i}",
                                   "entries":[["z1","A",10],["z1","B",30],["z2","B",5]]}}"#
                            );
                            let r = route(state, &request("POST", "/references", &body));
                            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
                        }
                    });
                }
            });
            let order: Vec<String> = state
                .pipeline()
                .references("zip", "county")
                .iter()
                .map(|r| r.name().to_owned())
                .collect();
            order
        };
        assert_eq!(cold_order.len(), 20);

        let state = AppState::open_durable(&dir, 8).unwrap();
        let warm_order: Vec<String> = state
            .pipeline()
            .references("zip", "county")
            .iter()
            .map(|r| r.name().to_owned())
            .collect();
        assert_eq!(
            warm_order, cold_order,
            "warm-start replay must preserve registration order"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn route_override_intercepts_before_builtin_routes() {
        let state = state_with_world();
        state.set_route_override(std::sync::Arc::new(|req: &Request| {
            (req.path == "/healthz")
                .then(|| Response::json(b"{\"status\":\"intercepted\"}".to_vec()))
        }));
        let r = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(
            body_json(&r).get("status").unwrap().as_str(),
            Some("intercepted")
        );
        // Everything the override declines falls through untouched.
        let r = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(r.status, 200);
        assert!(body_json(&r).get("request_latency").is_some());
    }

    #[test]
    fn scattered_ingest_is_byte_identical_to_one_batch() {
        let oracle = state_with_world();
        let sharded = state_with_world();
        let full = r#"{"source":"zip","target":"county","attribute":"pop",
            "points":[["z1","A",2.5],["z2","A",1.25],["z2","B",0.75],["nope","B",9],["z3","B",4.5]]}"#;
        let oracle_resp = route(&oracle, &request("POST", "/ingest", full));
        assert_eq!(oracle_resp.status, 200);

        // Scatter the same batch as two partials, merge the states in
        // slice order, fold once — the /ingest/state response and every
        // later /crosswalk must be byte-identical to the oracle's.
        let first = r#"{"source":"zip","target":"county","attribute":"pop",
            "points":[["z1","A",2.5],["z2","A",1.25]]}"#;
        let second = r#"{"source":"zip","target":"county","attribute":"pop",
            "points":[["z2","B",0.75],["nope","B",9],["z3","B",4.5]]}"#;
        let mut states = Vec::new();
        for body in [first, second] {
            let r = route(&sharded, &request("POST", "/ingest/partial", body));
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let doc = body_json(&r);
            let hex = doc.get("state").unwrap().as_str().unwrap().to_owned();
            states.push(AggState::decode(&hex_decode(&hex).unwrap()).unwrap());
        }
        // Partials leave the pipeline untouched.
        assert_eq!(sharded.pipeline().reference_count("zip", "county"), 1);
        let mut merged = states.remove(0);
        merged.merge(&states.remove(0)).unwrap();
        let fold = format!(
            r#"{{"source":"zip","target":"county","attribute":"pop","state":"{}"}}"#,
            hex_encode(&merged.encode())
        );
        let sharded_resp = route(&sharded, &request("POST", "/ingest/state", &fold));
        assert_eq!(
            sharded_resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&sharded_resp.body)
        );
        assert_eq!(oracle_resp.body, sharded_resp.body);

        let query = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        let a = route(&oracle, &request("POST", "/crosswalk", query));
        let b = route(&sharded, &request("POST", "/crosswalk", query));
        assert_eq!(a.status, 200, "{:?}", String::from_utf8_lossy(&a.body));
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn ingest_state_rejects_mismatched_dimensions_and_bad_hex() {
        let state = state_with_world();
        let alien = AggState::new("pop", 5, 7).unwrap();
        let fold = format!(
            r#"{{"source":"zip","target":"county","attribute":"pop","state":"{}"}}"#,
            hex_encode(&alien.encode())
        );
        let r = route(&state, &request("POST", "/ingest/state", &fold));
        assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(&r.body));
        let r = route(
            &state,
            &request(
                "POST",
                "/ingest/state",
                r#"{"source":"zip","target":"county","attribute":"pop","state":"zz"}"#,
            ),
        );
        assert_eq!(r.status, 400);
        let r = route(
            &state,
            &request(
                "POST",
                "/ingest/state",
                r#"{"source":"zip","target":"county","attribute":"pop","state":"abc"}"#,
            ),
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn replica_routes_require_a_durable_store() {
        let state = AppState::new(4);
        for path in ["/replica/manifest", "/replica/segment", "/replica/snapshot"] {
            let r = route(&state, &request("GET", path, ""));
            assert_eq!(r.status, 409, "{path}");
        }
        assert_eq!(
            route(&state, &request("POST", "/replica/manifest", "")).status,
            405
        );
    }

    #[test]
    fn replica_manifest_segment_and_snapshot_ship_real_bytes() {
        let dir = std::env::temp_dir().join(format!("geoalign-router-ship-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = AppState::open_durable(&dir, 8).unwrap();
        let r = route(
            &state,
            &request("POST", "/systems", r#"{"name":"zip","units":["z1","z2"]}"#),
        );
        assert_eq!(r.status, 200);

        let manifest = body_json(&route(&state, &request("GET", "/replica/manifest", "")));
        assert!(manifest.get("last_seq").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(manifest.get("snapshot"), Some(&Json::Null));
        let segments = manifest.get("segments").unwrap().as_array().unwrap();
        assert!(!segments.is_empty());
        let index = segments[0].get("index").unwrap().as_f64().unwrap() as u64;

        let mut seg_req = request("GET", "/replica/segment", "");
        seg_req.query = format!("index={index}");
        let r = route(&state, &seg_req);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/octet-stream");
        assert_eq!(&r.body[..4], b"GAWL");
        assert!(r
            .headers
            .iter()
            .any(|(k, v)| k == "X-Segment-Valid-Bytes" && v.parse::<u64>().unwrap() > 8));

        // No index → 400; unknown segment → 404; snapshot before any
        // checkpoint → 404, after → the GASN image.
        assert_eq!(
            route(&state, &request("GET", "/replica/segment", "")).status,
            400
        );
        let mut missing = request("GET", "/replica/segment", "");
        missing.query = "index=999".to_owned();
        assert_eq!(route(&state, &missing).status, 404);
        assert_eq!(
            route(&state, &request("GET", "/replica/snapshot", "")).status,
            404
        );
        assert_eq!(
            route(&state, &request("POST", "/checkpoint", "")).status,
            200
        );
        let r = route(&state, &request("GET", "/replica/snapshot", ""));
        assert_eq!(r.status, 200);
        assert_eq!(&r.body[..4], b"GASN");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_include_cache_stats() {
        let state = state_with_world();
        let body = r#"{"source":"zip","target":"county",
            "attributes":[{"name":"steam","values":[10,20,30]}]}"#;
        route(&state, &request("POST", "/crosswalk", body));
        route(&state, &request("POST", "/crosswalk", body));
        let r = route(&state, &request("GET", "/metrics", ""));
        let doc = body_json(&r);
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(cache.get("entries").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("attributes_applied").unwrap().as_f64(), Some(2.0));
        assert!(doc
            .get("weight_learning_latency")
            .unwrap()
            .get("count")
            .is_some());
    }

    /// Unit names as a body may write them: plain, escaped, non-ASCII,
    /// and unknown.
    const SOURCE_UNITS: [&str; 7] = [
        r#""z1""#,
        r#""z2""#,
        r#""zé""#,
        r#""z\u00e9""#,
        r#""z\"4""#,
        r#""\u007a1""#,
        r#""nope""#,
    ];
    const TARGET_UNITS: [&str; 6] = [
        r#""A""#,
        r#""B""#,
        r#""世界""#,
        r#""\u4e16\u754c""#,
        r#""\u0041""#,
        r#""Q""#,
    ];
    const NUMBERS: [&str; 9] = [
        "1",
        "2.5",
        "0",
        "17",
        "1e2",
        "0.125",
        "-0",
        "3.0000000000000004",
        "-1",
    ];
    /// Elements of another shape for a `[source, target, number]` array.
    const BAD_TRIPLES: [&str; 9] = [
        r#""x""#,
        "[1]",
        r#"["z1","A"]"#,
        r#"["z1","A",1,2]"#,
        r#"["z1",1,1]"#,
        r#"[1,"A",1]"#,
        r#"["z1","A","1"]"#,
        "null",
        "{}",
    ];
    /// Values of the wrong type for any field.
    const WRONG_TYPES: [&str; 6] = ["7", "null", "true", r#""s""#, "[]", r#"{"k":[1]}"#];
    /// Unknown members' values: nested arrays and objects.
    const JUNK: [&str; 4] = [
        r#"{"a":[1,[2,{"b":null}]],"c":{}}"#,
        r#"[[[]],{"values":[1]},"points"]"#,
        r#"{"points":[["z1","A",1]],"attributes":[]}"#,
        r#""\u0000x""#,
    ];

    /// A triple element: well-formed most of the time.
    fn triple(rng: &mut Rng) -> String {
        if rng.below(12) == 0 {
            return rng.pick(&BAD_TRIPLES).to_owned();
        }
        let (s, t) = (rng.pick(&SOURCE_UNITS), rng.pick(&TARGET_UNITS));
        format!("[{s},{t},{}]", rng.pick(&NUMBERS))
    }

    fn array(rng: &mut Rng, len: usize, element: impl Fn(&mut Rng) -> String) -> String {
        let items: Vec<String> = (0..len).map(|_| element(rng)).collect();
        format!("[{}]", items.join(","))
    }

    /// One attribute: four values (the source system's count) most of
    /// the time, sometimes a non-number among them or a wrong count.
    fn attribute(rng: &mut Rng) -> String {
        let len = if rng.below(10) == 0 { 3 } else { 4 };
        let values = array(rng, len, |rng| {
            if rng.below(40) == 0 {
                rng.pick(&[r#""x""#, "null", "[1]", "{}", "true"])
                    .to_owned()
            } else {
                rng.pick(&NUMBERS).to_owned()
            }
        });
        let mut members = vec![
            (r#""name""#.to_owned(), format!(r#""a{}""#, rng.below(3))),
            (r#""values""#.to_owned(), values),
        ];
        if rng.below(8) == 0 {
            members.reverse();
        }
        if rng.below(10) == 0 {
            members.push((r#""values""#.to_owned(), "[9,9,9,9]".to_owned()));
        }
        object(&members)
    }

    fn object(members: &[(String, String)]) -> String {
        let members: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("{{{}}}", members.join(","))
    }

    /// A seeded body for `path`: the canonical members, then reordered,
    /// duplicated, mistyped, dropped, joined by unknown members and
    /// spread with whitespace at random.
    fn differential_body(rng: &mut Rng, path: &str) -> String {
        let pair = |key: &str, value: String| (format!(r#""{key}""#), value);
        let mut members = vec![
            pair("source", r#""zip""#.to_owned()),
            pair("target", r#""county""#.to_owned()),
        ];
        let len = rng.below(5);
        match path {
            "/crosswalk" => members.push(pair("attributes", array(rng, len, attribute))),
            "/references" => {
                members.push(pair("name", format!(r#""r{}""#, rng.below(4))));
                members.push(pair("entries", array(rng, len, triple)));
            }
            _ => {
                members.push(pair("attribute", r#""visits""#.to_owned()));
                members.push(pair("points", array(rng, len, triple)));
            }
        }
        for _ in 0..rng.below(3) {
            let i = rng.below(members.len());
            let j = rng.below(members.len());
            members.swap(i, j);
        }
        if rng.below(6) == 0 {
            // A duplicate key: the first occurrence wins.
            let (key, _) = members[rng.below(members.len())].clone();
            let value = if key.contains("source") {
                r#""county""#.to_owned()
            } else {
                rng.pick(&WRONG_TYPES).to_owned()
            };
            members.push((key, value));
        }
        if rng.below(6) == 0 {
            let i = rng.below(members.len());
            members[i].1 = rng.pick(&WRONG_TYPES).to_owned();
        }
        if rng.below(10) == 0 {
            members.remove(rng.below(members.len()));
        }
        if rng.below(5) == 0 {
            let at = rng.below(members.len() + 1);
            members.insert(at, pair("unknown", rng.pick(&JUNK).to_owned()));
        }
        if rng.below(8) == 0 {
            // An escaped key names the same member.
            let i = rng.below(members.len());
            members[i].0 = members[i].0.replacen('e', r"\u0065", 1);
        }
        let body = object(&members);
        if rng.below(4) == 0 {
            spread(rng, &body)
        } else {
            body
        }
    }

    /// `body` with whitespace around every structural character outside
    /// strings, so between every pair of tokens.
    fn spread(rng: &mut Rng, body: &str) -> String {
        let mut out = String::new();
        let (mut in_string, mut escaped) = (false, false);
        for ch in body.chars() {
            let structural = !in_string && "[]{},:".contains(ch);
            if structural {
                out.push_str(rng.pick(&[" ", "\n", "\t ", "\r\n  "]));
            }
            out.push(ch);
            if structural {
                out.push_str(rng.pick(&[" ", "\n", "\t", "  "]));
            }
            if in_string {
                match (escaped, ch) {
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => escaped = false,
                }
            } else if ch == '"' {
                in_string = true;
            }
        }
        out
    }

    /// The world each of the differential test's two states starts in:
    /// one state answers through `route`, the other through the tree
    /// handlers. Some unit names need escapes or are not ASCII.
    fn differential_world() -> std::sync::Arc<AppState> {
        let state = AppState::new(8);
        for (path, body) in [
            (
                "/systems",
                r#"{"name":"zip","units":["z1","z2","zé","z\"4"]}"#,
            ),
            ("/systems", r#"{"name":"county","units":["A","B","世界"]}"#),
            (
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z1","A",100],["z2","A",60],["z2","B",40],["zé","世界",80],["z\"4","B",5]]}"#,
            ),
        ] {
            let r = route(&state, &request("POST", path, body));
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        }
        state
    }

    /// Sends `body` to `path` on both states and asserts the same status,
    /// body bytes, connection intent and depth-limit count; returns the
    /// status.
    fn assert_same_answer(typed: &AppState, tree_state: &AppState, path: &str, body: &[u8]) -> u16 {
        let mut req = request("POST", path, "");
        req.body = body.to_vec();
        let reference = match path {
            "/crosswalk" => tree::post_crosswalk,
            "/references" => tree::post_references,
            "/ingest" => tree::post_ingest,
            _ => tree::post_ingest_partial,
        };
        let depth = |state: &AppState| state.metrics.depth_limit_rejections.get();
        let before = (depth(typed), depth(tree_state));
        let got = route(typed, &req);
        let want = reference(tree_state, &req).unwrap_or_else(Response::from);
        let text = String::from_utf8_lossy(body);
        assert_eq!(got.status, want.status, "{path} {text}");
        assert_eq!(
            String::from_utf8_lossy(&got.body),
            String::from_utf8_lossy(&want.body),
            "{path} {text}"
        );
        assert_eq!(got.connection_close, want.connection_close, "{path} {text}");
        assert_eq!(
            depth(typed) - before.0,
            depth(tree_state) - before.1,
            "{path} {text}"
        );
        got.status
    }

    #[test]
    fn typed_handlers_answer_like_the_tree_handlers() {
        let typed = differential_world();
        let tree_state = differential_world();
        let paths = ["/crosswalk", "/ingest", "/ingest/partial", "/references"];
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut statuses = std::collections::BTreeMap::new();
        for _ in 0..1500 {
            let path = paths[rng.below(paths.len())];
            let body = differential_body(&mut rng, path);
            let status = assert_same_answer(&typed, &tree_state, path, body.as_bytes());
            *statuses.entry((path, status)).or_insert(0) += 1;
        }
        // The seeded bodies reach both the answers and the rejections.
        for path in paths {
            assert!(statuses.contains_key(&(path, 200)), "{path}: {statuses:?}");
            assert!(statuses.contains_key(&(path, 400)), "{path}: {statuses:?}");
        }

        // Every byte prefix of a small canonical body.
        let points = r#"{"source":"zip","target":"county","attribute":"visits","points":[["z1","A",1],["zé","世界",2.5]]}"#;
        for (path, body) in [
            (
                "/crosswalk",
                r#"{"source":"zip","target":"county","attributes":[{"name":"a","values":[1,2,3,4]}]}"#,
            ),
            ("/ingest", points),
            ("/ingest/partial", points),
            (
                "/references",
                r#"{"source":"zip","target":"county","name":"p","entries":[["z1","A",1],["z\"4","B",2]]}"#,
            ),
        ] {
            for n in 0..=body.len() {
                assert_same_answer(&typed, &tree_state, path, &body.as_bytes()[..n]);
            }
        }

        // Nesting at MAX_DEPTH and one past it, inside an unknown key and
        // inside the bulk array. `levels` is what the document spends
        // around the spot.
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        for (path, template, levels) in [
            (
                "/crosswalk",
                r#"{"source":"zip","target":"county","unknown":DEEP,"attributes":[{"name":"a","values":[1,2,3,4]}]}"#,
                1,
            ),
            (
                "/crosswalk",
                r#"{"source":"zip","target":"county","attributes":[{"name":"a","values":[1,DEEP]}]}"#,
                4,
            ),
            (
                "/ingest",
                r#"{"source":"zip","target":"county","attribute":"v","unknown":DEEP,"points":[["z1","A",1]]}"#,
                1,
            ),
            (
                "/ingest",
                r#"{"source":"zip","target":"county","attribute":"v","points":[["z1","A",1],DEEP]}"#,
                2,
            ),
            (
                "/references",
                r#"{"source":"zip","target":"county","name":"d","entries":[DEEP,["z1","A",1]]}"#,
                2,
            ),
        ] {
            for (n, too_deep) in [(MAX_DEPTH - levels, false), (MAX_DEPTH - levels + 1, true)] {
                let body = template.replace("DEEP", &deep(n));
                let before = typed.metrics.depth_limit_rejections.get();
                assert_same_answer(&typed, &tree_state, path, body.as_bytes());
                let counted = typed.metrics.depth_limit_rejections.get() - before;
                assert_eq!(counted, u64::from(too_deep), "{path} at {n} levels");
            }
        }
    }

    /// The reference side of `in_place_fold_answers_like_the_whole_state_fold`:
    /// `/ingest` and `/ingest/state` exactly as routed, but folded by the
    /// whole-state fold the in-place one replaced.
    fn whole_state_ingest(state: &AppState, req: &Request) -> Response {
        let answer = || -> Result<Response, HttpError> {
            if req.path == "/ingest/state" {
                let doc = parse_body(state, req)?;
                let source = str_field(&doc, "source")?;
                let target = str_field(&doc, "target")?;
                let attribute = str_field(&doc, "attribute")?;
                let bytes = hex_decode(str_field(&doc, "state")?).ok_or_else(|| {
                    HttpError::bad_request("'state' must be an even-length hex string")
                })?;
                let batch = AggState::decode(&bytes).map_err(|e| {
                    HttpError::bad_request(format!("undecodable ingest state: {e}"))
                })?;
                let outcome = state
                    .ingest_state_whole_state(source, target, attribute, batch)
                    .map_err(|e| core_error(&e))?;
                return Ok(ingest_response(attribute, source, target, &outcome));
            }
            let body = decode_body(state, req, |text| json::parse_triples(text, "points"))?;
            let batch = parse_ingest_batch(state, &body)?;
            state
                .metrics
                .ingest_batch_points
                .record_value(batch.total as u64);
            let outcome = state
                .ingest_whole_state(
                    batch.source,
                    batch.target,
                    batch.attribute,
                    &batch.points,
                    batch.unknown,
                )
                .map_err(|e| core_error(&e))?;
            Ok(ingest_response(
                batch.attribute,
                batch.source,
                batch.target,
                &outcome,
            ))
        };
        answer().unwrap_or_else(Response::from)
    }

    const FOLD_ZIPS: [&str; 6] = ["z0", "z1", "z2", "z3", "z4", "z5"];
    const FOLD_COUNTIES: [&str; 4] = ["A", "B", "C", "D"];

    fn fold_world() -> std::sync::Arc<AppState> {
        let state = AppState::new(8);
        for (path, body) in [
            (
                "/systems",
                r#"{"name":"zip","units":["z0","z1","z2","z3","z4","z5"]}"#,
            ),
            ("/systems", r#"{"name":"county","units":["A","B","C","D"]}"#),
            (
                "/references",
                r#"{"source":"zip","target":"county","name":"population",
                   "entries":[["z0","A",100],["z1","A",60],["z1","B",40],["z2","C",80],
                              ["z3","C",5],["z3","D",7],["z4","D",30],["z5","B",12]]}"#,
            ),
        ] {
            let r = route(&state, &request("POST", path, body));
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        }
        state
    }

    fn points_body(attribute: &str, points: &[(&str, &str, f64)]) -> String {
        let items: Vec<String> = points
            .iter()
            .map(|(s, t, w)| format!(r#"["{s}","{t}",{w:e}]"#))
            .collect();
        format!(
            r#"{{"source":"zip","target":"county","attribute":"{attribute}","points":[{}]}}"#,
            items.join(",")
        )
    }

    /// The bits both folds must agree on after every step: every
    /// reference of the pair (CSR structure, values and source totals),
    /// the memoized fingerprint, and the cache entry under the pair's key.
    fn assert_same_fold_state(new: &AppState, old: &AppState, step: &str) {
        let bits = |r: &ReferenceData| {
            let cells: Vec<(usize, usize, u64)> = r
                .dm()
                .matrix()
                .iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect();
            let totals: Vec<u64> = r.source().values().iter().map(|v| v.to_bits()).collect();
            (r.name().to_owned(), cells, totals)
        };
        let (key_new, key_old) = {
            let (pn, po) = (new.pipeline(), old.pipeline());
            let (rn, ro) = (
                pn.references("zip", "county"),
                po.references("zip", "county"),
            );
            assert_eq!(rn.len(), ro.len(), "{step}: reference count");
            for (a, b) in rn.iter().zip(ro) {
                assert_eq!(a.dm().matrix(), b.dm().matrix(), "{step}: CSR");
                assert_eq!(bits(a), bits(b), "{step}: reference bits");
            }
            let refs: Vec<&ReferenceData> = rn.iter().collect();
            assert_eq!(
                pn.fingerprint("zip", "county"),
                geoalign_core::fingerprint_references(&refs),
                "{step}: the memo equals a full pass"
            );
            let key = |p: &geoalign_core::IntegrationPipeline| geoalign_core::CrosswalkKey {
                source: "zip".to_owned(),
                target: "county".to_owned(),
                fingerprint: p.fingerprint("zip", "county"),
            };
            (key(&pn), key(&po))
        };
        assert_eq!(key_new, key_old, "{step}: fingerprint");
        assert_eq!(new.cache.len(), old.cache.len(), "{step}: cache entries");
        assert_eq!(
            new.cache.get(&key_new).is_some(),
            old.cache.get(&key_old).is_some(),
            "{step}: cached entry under the pair's key"
        );
    }

    /// Sends `req` to both states (the new fold through `route`, the
    /// reference through `whole_state_ingest`), asserts the same status
    /// and body, then the same fold state, and the same answer to a
    /// following `/crosswalk` when `crosswalk` is set. Returns the status.
    fn assert_same_fold(
        new: &AppState,
        old: &AppState,
        req: &Request,
        crosswalk: bool,
        step: &str,
    ) -> u16 {
        let got = route(new, req);
        let want = whole_state_ingest(old, req);
        assert_eq!(got.status, want.status, "{step}");
        assert_eq!(
            String::from_utf8_lossy(&got.body),
            String::from_utf8_lossy(&want.body),
            "{step}"
        );
        assert_same_fold_state(new, old, step);
        if crosswalk {
            assert_same_crosswalk(new, old, step);
        }
        got.status
    }

    /// The same `/crosswalk` on both states: same status and body bytes
    /// (`cache_hit` included), and the same fold state after it.
    fn assert_same_crosswalk(new: &AppState, old: &AppState, step: &str) {
        let body = r#"{"source":"zip","target":"county","attributes":[{"name":"a","values":[3,1.5,8,0.25,6,2]},{"name":"b","values":[0,4,1e-3,9,2.5,7]}]}"#;
        let req = request("POST", "/crosswalk", body);
        let (got, want) = (route(new, &req), route(old, &req));
        assert_eq!(got.status, want.status, "{step}: crosswalk");
        assert_eq!(got.body, want.body, "{step}: crosswalk body");
        assert_same_fold_state(new, old, step);
    }

    /// `AppState::ingest` straight, so weights the router would reject
    /// (negative ones) reach the fold; answered as the route would.
    fn assert_same_direct_fold(
        new: &AppState,
        old: &AppState,
        attribute: &str,
        points: &[(usize, usize, f64)],
        step: &str,
    ) -> u16 {
        let answer = |result: Result<IngestOutcome, CoreError>| match result {
            Ok(outcome) => ingest_response(attribute, "zip", "county", &outcome),
            Err(e) => Response::from(core_error(&e)),
        };
        let got = answer(new.ingest("zip", "county", attribute, points, 1));
        let want = answer(old.ingest_whole_state("zip", "county", attribute, points, 1));
        assert_eq!(got.status, want.status, "{step}");
        assert_eq!(
            String::from_utf8_lossy(&got.body),
            String::from_utf8_lossy(&want.body),
            "{step}"
        );
        assert_same_fold_state(new, old, step);
        got.status
    }

    fn ingest_state_request(
        state: &AppState,
        attribute: &str,
        parts: &[&[(usize, usize, f64)]],
    ) -> Request {
        let mut merged: Option<AggState> = None;
        for part in parts {
            let partial = state
                .ingest_partial("zip", "county", attribute, part, 1)
                .unwrap();
            match &mut merged {
                Some(m) => m.merge(&partial).unwrap(),
                None => merged = Some(partial),
            }
        }
        let hex = hex_encode(&merged.expect("at least one part").encode());
        request(
            "POST",
            "/ingest/state",
            &format!(
                r#"{{"source":"zip","target":"county","attribute":"{attribute}","state":"{hex}"}}"#
            ),
        )
    }

    #[test]
    fn in_place_fold_answers_like_the_whole_state_fold() {
        let (new, old) = (fold_world(), fold_world());
        let ingest = |attribute: &str, points: &[(&str, &str, f64)]| {
            request("POST", "/ingest", &points_body(attribute, points))
        };
        let nnz = |state: &AppState| state.pipeline().references("zip", "county")[1].dm().nnz();
        assert_same_crosswalk(&new, &old, "warm");

        // A first batch with repeated cells, then one touching existing
        // and new cells, then one touching no existing cell.
        let first = [
            ("z0", "A", 2.5),
            ("z0", "A", 2.5),
            ("z1", "B", 0.75),
            ("zX", "A", 1.0),
        ];
        assert_eq!(
            assert_same_fold(&new, &old, &ingest("visits", &first), true, "first"),
            200
        );
        let later = [("z0", "A", 1.0), ("z1", "A", 4.0), ("z1", "B", 0.25)];
        assert_eq!(
            assert_same_fold(&new, &old, &ingest("visits", &later), true, "later"),
            200
        );
        let fresh = [("z4", "D", 3.0), ("z5", "C", 0.5)];
        assert_eq!(
            assert_same_fold(&new, &old, &ingest("visits", &fresh), true, "fresh"),
            200
        );

        // Weights that cancel a cell to exactly zero drop its entry.
        let before = nnz(&new);
        assert_eq!(
            assert_same_direct_fold(&new, &old, "visits", &[(0, 0, -6.0), (2, 2, 1.0)], "cancel"),
            200
        );
        assert_eq!(nnz(&new), before, "(z0, A) dropped, (z2, C) added");
        assert_eq!(
            new.slot_state("zip", "county", "visits").unwrap().n_cells(),
            before + 1
        );

        // Failing folds change nothing: a negative cell, a cell summing
        // past f64::MAX, and a row total that does (every cell finite).
        let snapshot = |state: &AppState| {
            let pipeline = state.pipeline();
            let r = &pipeline.references("zip", "county")[1];
            (
                state
                    .slot_state("zip", "county", "visits")
                    .unwrap()
                    .encode(),
                r.dm().matrix().clone(),
                pipeline.fingerprint("zip", "county"),
                state.cache.len(),
            )
        };
        let grow = [(3, 0, f64::MAX / 2.0)];
        assert_eq!(
            assert_same_direct_fold(&new, &old, "visits", &grow, "huge"),
            200
        );
        for (step, points) in [
            ("negative", &[(1, 1, -2.0), (5, 2, 1.0)][..]),
            (
                "negative behind non-finite",
                &[(1, 1, -2.0), (3, 0, f64::MAX)][..],
            ),
            ("row overflow", &[(3, 1, f64::MAX)][..]),
        ] {
            let unchanged = snapshot(&new);
            assert_eq!(
                assert_same_direct_fold(&new, &old, "visits", points, step),
                400
            );
            assert_eq!(snapshot(&new), unchanged, "{step}: nothing changed");
        }

        // Subnormal weights, and `/ingest/state` with merged partials —
        // first for a second streaming reference, then into it.
        let tiny = [
            ("z3", "A", 5e-324),
            ("z3", "A", 5e-324),
            ("z2", "D", 2.5e-320),
        ];
        assert_eq!(
            assert_same_fold(&new, &old, &ingest("visits", &tiny), true, "subnormal"),
            200
        );
        for (step, parts) in [
            (
                "state first",
                &[&[(0, 1, 2.0), (4, 3, 1.0)][..], &[(0, 1, 0.5)][..]][..],
            ),
            (
                "state later",
                &[&[(0, 1, 1.0), (5, 1, 3.0)][..], &[(2, 2, 0.125)][..]][..],
            ),
        ] {
            let req = ingest_state_request(&new, "sales", parts);
            assert_eq!(assert_same_fold(&new, &old, &req, true, step), 200);
        }

        // A system re-registered with another size: the next batch's
        // state no longer merges into the slot's.
        let resize = |units: &str| {
            let body = format!(r#"{{"name":"zip","units":[{units}]}}"#);
            for state in [&new, &old] {
                let r = route(state, &request("POST", "/systems", &body));
                assert_eq!(r.status, 200);
            }
        };
        resize(r#""z0","z1","z2","z3","z4","z5","z6""#);
        assert_eq!(
            assert_same_fold(&new, &old, &ingest("visits", &later), true, "resized"),
            400
        );
        assert_eq!(
            assert_same_direct_fold(&new, &old, "visits", &[(6, 0, 1.0)], "resized direct"),
            400
        );
        resize(r#""z0","z1","z2","z3","z4","z5""#);

        // A seeded stream over both attributes, with and without a warm
        // cache, through every entry point.
        let mut rng = Rng(0x6a09_e667_f3bc_c908);
        let weights = [0.5, 1.0, 2.25, 7.0, 1e-3, 5e-324, 1e300];
        for n in 0..300 {
            let attribute = ["visits", "sales", "trips"][rng.below(3)];
            let crosswalk = rng.below(3) != 0;
            let len = 1 + rng.below(8);
            let step = format!("stream {n}");
            match rng.below(5) {
                0 => {
                    let points: Vec<(usize, usize, f64)> = (0..len)
                        .map(|_| {
                            let w = weights[rng.below(weights.len())];
                            let sign = if rng.below(4) == 0 { -1.0 } else { 1.0 };
                            (rng.below(6), rng.below(4), sign * w)
                        })
                        .collect();
                    assert_same_direct_fold(&new, &old, attribute, &points, &step);
                }
                1 => {
                    let parts: Vec<Vec<(usize, usize, f64)>> = (0..1 + rng.below(3))
                        .map(|_| {
                            (0..len)
                                .map(|_| (rng.below(6), rng.below(4), weights[rng.below(4)]))
                                .collect()
                        })
                        .collect();
                    let parts: Vec<&[(usize, usize, f64)]> =
                        parts.iter().map(Vec::as_slice).collect();
                    let req = ingest_state_request(&new, attribute, &parts);
                    assert_same_fold(&new, &old, &req, crosswalk, &step);
                }
                _ => {
                    let points: Vec<(&str, &str, f64)> = (0..len)
                        .map(|_| {
                            let zip = if rng.below(10) == 0 {
                                "zX"
                            } else {
                                FOLD_ZIPS[rng.below(6)]
                            };
                            (
                                zip,
                                FOLD_COUNTIES[rng.below(4)],
                                weights[rng.below(weights.len())],
                            )
                        })
                        .collect();
                    assert_same_fold(&new, &old, &ingest(attribute, &points), crosswalk, &step);
                }
            }
        }
    }
}
