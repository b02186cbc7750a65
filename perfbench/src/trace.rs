//! The traced run (`--trace 1`): per-layer metrics, measured from the
//! benchmark's own code. Nothing inside the program is instrumented.
//!
//! Four phases follow the correctness gate; every server is scraped
//! before and after each:
//!
//! 1. **Traced pass** (half of `--seconds`), serial. Each request goes
//!    once over TCP to the serving process; that exchange is the root
//!    span. On `cluster-small` a crosswalk then goes once more straight
//!    to its ring owner, for the coordinator hop. Next the request runs
//!    in process on the oracle `R`, with spans around
//!    `RequestParser::feed`, `route` and `Response::write_to`. Last it is
//!    replayed on a second twin `C` through the public calls `route`
//!    makes. Those calls are `json::parse`,
//!    `AppState::prepared_crosswalk` and
//!    `PreparedCrosswalk::apply_batch`, or `AppState::ingest` with the
//!    points already resolved, and then `Json::to_string`. `R` and `C`
//!    start in the state the server reached and get the same sequence,
//!    so they stay in lockstep with it. A replayed span's parent is the
//!    span of the call that does that work inside the program, so its
//!    self time is its own duration minus its children's. The self times
//!    of one request therefore add up to its TCP time exactly: `serve`
//!    self time is what the socket, reactor, pool queue and client add.
//! 2. **Untraced pass** (a fifth), serial over TCP only. Its crosswalk
//!    p50 against the traced pass's is the tracing overhead.
//! 3. **Open loop** (the rest) at the workload's rate: generator lag, pool
//!    queue wait and cache hit ratio under concurrent traffic.
//! 4. **Traced probes**, on a workload whose sequence does not ingest:
//!    the probe `/ingest` batches of the end-to-end run, traced like
//!    phase 1, so the ingest layers are measured on every workload. The
//!    phases before them are read-only, so `R` and `C` are still in
//!    lockstep with the server.
//!
//! A pair's first crosswalk is a cache miss, so `store.prepare_ms` also
//! times `C`'s cold prepare of every pair during its warm-up replay.

use crate::corpus::{source_name, target_name, Corpus, Op, Request, STREAM_ATTRIBUTE};
use crate::http::Conn;
use crate::load::{self, ms};
use crate::oracle::Oracle;
use crate::serve::Serving;
use crate::stats::{self, Scrape};
use crate::{scrape_all, Metrics, Report};
use geoalign_agg::AggState;
use geoalign_core::{fingerprint_references, PhaseTimings};
use geoalign_partition::AggregateVector;
use geoalign_serve::http::{RequestParser, MAX_HEAD_BYTES};
use geoalign_serve::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The traced end-to-end p50 and the sum of the layers' p50 self times
/// may differ by at most this share before the run says so.
pub const SELF_SUM_TOLERANCE: f64 = 0.10;

/// The paper's §4.3 claim: over 90% of GeoAlign's time is disaggregation.
const PAPER_DISAGGREGATION_SHARE: f64 = 0.90;

/// One finished span. Spans stay in memory until the run ends.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The request it belongs to, shared by all of that request's spans.
    request: usize,
    name: &'static str,
    /// Index of the parent span, `None` for the request's root.
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

#[derive(Debug, Default)]
struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        request: usize,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            request,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn time<T>(
        &mut self,
        request: usize,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(request, name, Some(parent), start, end))
    }

    fn rename(&mut self, span: usize, name: &'static str) {
        self.spans[span].name = name;
    }

    /// Per request, each span name's summed self time in ms: the span's
    /// duration minus its children's.
    fn self_times(&self) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| ms(s.end - s.start)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= ms(s.end - s.start);
            }
        }
        let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(own) {
            *out.entry(s.request).or_default().entry(s.name).or_default() += v;
        }
        out
    }

    /// Durations in ms of the spans named `name` on the given requests
    /// (sorted ascending).
    fn durations(&self, name: &str, requests: &[usize]) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && requests.binary_search(&s.request).is_ok())
            .map(|s| ms(s.end - s.start))
            .collect()
    }
}

/// The state of the traced phases: the spans, the connections, the two
/// in-process twins and what the replayed calls reported.
struct Pass<'a> {
    tracer: Tracer,
    conn: Conn,
    /// One connection straight to each shard (empty for a single node).
    direct: Vec<Conn>,
    r: &'a Oracle,
    c: Oracle,
    n_source: usize,
    n_target: usize,
    /// Traced request ids, ascending, by kind.
    crosswalks: Vec<usize>,
    ingests: Vec<usize>,
    /// Coordinator time minus the owner's direct time, per crosswalk.
    hops: Vec<f64>,
    phases: PhaseTimings,
    decoded_bytes: usize,
    touched: Vec<f64>,
}

impl Pass<'_> {
    /// Sends `req` over TCP, then replays it on `R` and `C` with spans;
    /// `id` must exceed every id traced before.
    fn trace(&mut self, id: usize, req: &Request) -> Result<(), String> {
        let owner = self.r.owner(req.pair);
        let (src, tgt) = (source_name(req.pair), target_name(req.pair));
        let tracer = &mut self.tracer;

        let t0 = Instant::now();
        let reply = self
            .conn
            .send(&req.raw)
            .map_err(|e| format!("traced pass: POST {}: {e}", req.path))?;
        let t1 = Instant::now();
        if reply.status != 200 {
            return Err(format!(
                "traced pass: POST {}: status {}",
                req.path, reply.status
            ));
        }
        let root = tracer.record(id, "serve", None, t0, t1);
        // The hop is timed on cache hits only: after a miss the direct
        // request would hit, doing less work and answering `cache_hit`.
        let hop = !self.direct.is_empty()
            && !req.is_ingest()
            && std::str::from_utf8(&reply.body)
                .ok()
                .and_then(|text| json::parse(text).ok())
                .and_then(|doc| doc.get("cache_hit").cloned())
                == Some(json::Json::Bool(true));
        if hop {
            let d0 = Instant::now();
            let direct_reply = self.direct[owner]
                .send(&req.raw)
                .map_err(|e| format!("traced pass: direct /crosswalk: {e}"))?;
            self.hops.push(ms(t1 - t0) - ms(d0.elapsed()));
            if direct_reply.body != reply.body {
                return Err("traced pass: the owner answered unlike the coordinator".to_owned());
            }
        }

        // In process on `R`, the server's own entry points.
        let (parsed, _) = tracer.time(id, "http.parse", root, || {
            RequestParser::new(MAX_HEAD_BYTES).feed(&req.raw)
        });
        let parsed = parsed
            .ok()
            .and_then(|(_, req)| req)
            .ok_or("traced pass: the pre-rendered request did not parse")?;
        let node_r = &self.r.nodes[owner];
        let (resp, router) = tracer.time(id, "router", root, || {
            geoalign_serve::route(node_r, &parsed)
        });
        let (written, _) = tracer.time(id, "http.write", root, || {
            let mut out = Vec::with_capacity(resp.body.len() + 256);
            resp.write_to(&mut out).map(|()| out)
        });
        written.map_err(|e| format!("traced pass: write_to: {e}"))?;
        if resp.status != 200 || resp.body != reply.body {
            return Err(format!(
                "traced pass: request {id} ({}) answered differently in process",
                req.path
            ));
        }
        if hop {
            // Mirror the direct request's cache lookup on the owner.
            let _ = node_r.prepared_crosswalk(&src, &tgt);
        }

        // Replayed on `C` through the calls `route` makes.
        let node_c = &self.c.nodes[owner];
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let (doc, _) = tracer.time(id, "json.decode", router, || json::parse(text));
        doc.map_err(|e| format!("traced pass: json::parse: {e}"))?;
        self.decoded_bytes += req.body.len();
        let want = json::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| format!("traced pass: response JSON: {e}"))?;
        match &req.op {
            Op::Crosswalk { attrs } => {
                let (found, lookup) = tracer.time(id, "store.lookup", router, || {
                    node_c.prepared_crosswalk(&src, &tgt)
                });
                let (prepared, hit) = found.map_err(|e| format!("traced pass: lookup: {e}"))?;
                if !hit {
                    tracer.rename(lookup, "store.prepare");
                }
                {
                    let pipeline = node_c.pipeline();
                    let refs: Vec<_> = pipeline.references(&src, &tgt).iter().collect();
                    tracer.time(id, "store.fingerprint", lookup, || {
                        std::hint::black_box(fingerprint_references(&refs))
                    });
                }
                let vectors = attrs
                    .iter()
                    .map(|(name, values)| AggregateVector::new(name.as_str(), values.clone()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let (applied, _) =
                    tracer.time(id, "core.apply", router, || prepared.apply_batch(&vectors));
                let applied = applied.map_err(|e| format!("traced pass: apply_batch: {e}"))?;
                let columns = want
                    .get("columns")
                    .and_then(json::Json::as_array)
                    .unwrap_or(&[]);
                for (est, col) in applied.iter().zip(columns) {
                    self.phases.weight_learning += est.timings.weight_learning;
                    self.phases.disaggregation += est.timings.disaggregation;
                    self.phases.reaggregation += est.timings.reaggregation;
                    let served: Vec<u64> = col
                        .get("values")
                        .and_then(json::Json::as_array)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(json::Json::as_f64)
                        .map(f64::to_bits)
                        .collect();
                    let replayed: Vec<u64> = est.estimate.iter().map(|v| v.to_bits()).collect();
                    if served != replayed {
                        return Err(format!("traced pass: request {id}: replayed apply differs"));
                    }
                }
                if hop {
                    let _ = node_c.prepared_crosswalk(&src, &tgt);
                }
                self.crosswalks.push(id);
            }
            Op::Ingest { points } => {
                let (outcome, fold) = tracer.time(id, "ingest.fold", router, || {
                    node_c.ingest(&src, &tgt, STREAM_ATTRIBUTE, points, 0)
                });
                let outcome = outcome.map_err(|e| format!("traced pass: ingest: {e}"))?;
                self.touched.push(outcome.touched_rows as f64);
                let (n_source, n_target) = (self.n_source, self.n_target);
                let (absorbed, _) = tracer.time(id, "agg.absorb", fold, || {
                    let mut state = AggState::new(STREAM_ATTRIBUTE, n_source, n_target)?;
                    for &(si, ti, w) in points {
                        state.absorb(si, ti, w)?;
                    }
                    Ok::<_, geoalign_agg::AggError>(state)
                });
                absorbed.map_err(|e| format!("traced pass: absorb: {e}"))?;
                self.ingests.push(id);
            }
        }
        let (encoded, _) = tracer.time(id, "json.encode", router, || want.to_string());
        if encoded.as_bytes() != resp.body.as_slice() {
            return Err(format!(
                "traced pass: request {id}: re-encoded response differs"
            ));
        }
        Ok(())
    }
}

/// Runs the four phases and returns the per-layer metrics.
pub fn run(
    serving: &Serving,
    corpus: &Corpus,
    r: &Oracle,
    data_dir: Option<&Path>,
    seconds: f64,
    nproc: usize,
) -> Result<Report, String> {
    let p = &corpus.params;
    let seq = &corpus.sequence;
    // The second twin: fresh registrations, then the warm-up and gate
    // sequence the server and `R` have already seen, timing each pair's
    // cold prepare on the way.
    let c = Oracle::new(corpus)?;
    let mut cold_prepares = Vec::new();
    for req in &corpus.warmup {
        if !req.is_ingest() {
            let node = &c.nodes[c.owner(req.pair)];
            let t0 = Instant::now();
            let (_, hit) = node
                .prepared_crosswalk(&source_name(req.pair), &target_name(req.pair))
                .map_err(|e| format!("twin warm-up: {e}"))?;
            if !hit {
                cold_prepares.push(ms(t0.elapsed()));
            }
        }
        c.answer(req);
    }
    for req in seq {
        c.answer(req);
    }

    let s0 = scrape_all(serving)?;
    let dir_bytes0 = data_dir.map_or(0, dir_size);
    let mut pass = Pass {
        tracer: Tracer::default(),
        conn: Conn::new(&serving.front),
        direct: serving.shards.iter().map(|a| Conn::new(a)).collect(),
        r,
        c,
        n_source: p.n_source,
        n_target: p.n_target,
        crosswalks: Vec::new(),
        ingests: Vec::new(),
        hops: Vec::new(),
        phases: PhaseTimings::default(),
        decoded_bytes: 0,
        touched: Vec::new(),
    };
    let mut ingest_bytes = 0usize;
    let mut i = 0usize;
    let t_pass = Instant::now();
    let traced_budget = Duration::from_secs_f64(seconds * 0.5);
    while t_pass.elapsed() < traced_budget || i <= stats::TAIL_BEYOND {
        let req = &seq[i % seq.len()];
        pass.trace(i, req)?;
        if req.is_ingest() {
            ingest_bytes += req.body.len();
        }
        i += 1;
    }
    let traced_requests = i;
    let s1 = scrape_all(serving)?;

    // Untraced serial pass: the same sequence, TCP only.
    let mut untraced = Vec::new();
    let mut untraced_ingests = 0usize;
    let t_untraced = Instant::now();
    while t_untraced.elapsed() < Duration::from_secs_f64(seconds * 0.2) {
        let req = &seq[i % seq.len()];
        let t0 = Instant::now();
        let reply = pass
            .conn
            .send(&req.raw)
            .map_err(|e| format!("untraced pass: POST {}: {e}", req.path))?;
        if reply.status != 200 {
            return Err(format!("untraced pass: status {}", reply.status));
        }
        if req.is_ingest() {
            ingest_bytes += req.body.len();
            untraced_ingests += 1;
        } else {
            untraced.push(ms(t0.elapsed()));
        }
        i += 1;
    }

    let s2 = scrape_all(serving)?;
    let open_s = (seconds - t_pass.elapsed().as_secs_f64()).max(seconds * 0.2);
    let open = load::open_loop(&serving.front, seq, None, i, p.rate, open_s, nproc);
    let s3 = scrape_all(serving)?;
    if open.failed() > 0 {
        return Err(format!(
            "open-loop phase: {} requests failed",
            open.failed()
        ));
    }
    let open_ingests: Vec<usize> = (0..open.samples.len())
        .map(|k| (i + k) % seq.len())
        .filter(|&pos| seq[pos].is_ingest())
        .collect();
    ingest_bytes += open_ingests
        .iter()
        .map(|&pos| seq[pos].body.len())
        .sum::<usize>();
    i += open.samples.len();

    // Traced probes; only a read-only sequence has them (see above).
    for req in &corpus.probes {
        pass.trace(i, req)?;
        ingest_bytes += req.body.len();
        i += 1;
    }
    let s4 = scrape_all(serving)?;
    let dir_bytes4 = data_dir.map_or(0, dir_size);
    let all_ingests = pass.ingests.len() + untraced_ingests + open_ingests.len();

    let delta = |a: &[Scrape], b: &[Scrape]| -> Vec<Scrape> {
        a.iter().zip(b).map(|(x, y)| Scrape::delta(x, y)).collect()
    };
    let (whole, traced, loaded) = (delta(&s0, &s4), delta(&s0, &s1), delta(&s2, &s3));
    // Process-wide library metrics appear in every server's scrape of
    // the one serving process; read them from the front end only.
    let global = &whole[0];

    let tracer = &pass.tracer;
    let (crosswalks, ingests) = (&pass.crosswalks, &pass.ingests);
    let selves = tracer.self_times();
    let self_of = |name: &str, on: &[usize]| -> f64 {
        let v: Vec<f64> = on
            .iter()
            .map(|k| {
                selves
                    .get(k)
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let p50 = |name: &str, on: &[usize]| stats::median(&tracer.durations(name, on)).unwrap_or(0.0);
    let sum = |name: &str, on: &[usize]| tracer.durations(name, on).iter().sum::<f64>();

    // Self-time closure on crosswalk requests: the layers' p50 self times
    // against the p50 of the traced end-to-end (TCP) time.
    let layer_names: Vec<&'static str> = {
        let mut names: Vec<&'static str> = tracer
            .spans
            .iter()
            .filter(|s| crosswalks.binary_search(&s.request).is_ok())
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    };
    let e2e_p50 = p50("serve", crosswalks);
    let self_sum: f64 = layer_names.iter().map(|n| self_of(n, crosswalks)).sum();
    let gap = (self_sum - e2e_p50).abs() / e2e_p50.max(1e-9);
    let wire: Vec<f64> = crosswalks
        .iter()
        .map(|k| {
            let m = &selves[k];
            m["serve"] + m["http.parse"] + m["http.write"]
        })
        .collect();
    let untraced_p50 = stats::median(&untraced).unwrap_or(e2e_p50);
    let phases = &pass.phases;
    let phase_total = (phases.weight_learning + phases.disaggregation + phases.reaggregation)
        .as_secs_f64()
        .max(1e-12);
    let share = |d: Duration| d.as_secs_f64() / phase_total;
    let lags: Vec<f64> = open.samples.iter().map(|s| s.lag_ms).collect();
    let hits = Scrape::total(&loaded, "geoalign_serve_cache_hits_total");
    let misses = Scrape::total(&loaded, "geoalign_serve_cache_misses_total");
    let per_ingest = |v: f64| {
        if all_ingests > 0 {
            v / all_ingests as f64
        } else {
            0.0
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let all_traced: Vec<usize> = (0..i).collect();
    let decode_s = sum("json.decode", &all_traced) / 1e3;
    let mut prepares = tracer.durations("store.prepare", crosswalks);
    prepares.extend(&cold_prepares);

    // The coordinator hop, the scatter fan-out and the WAL fsync run on
    // one workload each, so they are reported as shares of the traced
    // pass's end-to-end time (0 where the layer is not on the path); the
    // absolute times go to the provenance line.
    let traced_ingests: Vec<usize> = ingests
        .iter()
        .copied()
        .filter(|&k| k < traced_requests)
        .collect();
    let hop_p50 = stats::median(&pass.hops).unwrap_or(0.0);
    let scatter_ms = traced[0].get("geoalign_cluster_scatter_latency_micros_sum") / 1e3;
    let fsync_ms = traced[0].get("geoalign_store_wal_fsync_micros_sum") / 1e3;
    let fsync_p50 = global.hist_quantile("geoalign_store_wal_fsync_micros", 0.5) / 1e3;
    let fsync_p99 = global.hist_quantile("geoalign_store_wal_fsync_micros", 0.99) / 1e3;

    let metrics: Metrics = vec![
        ("serve.wire_ms", stats::median(&wire).unwrap_or(0.0), "ms"),
        ("http.parse_ms", p50("http.parse", crosswalks), "ms"),
        ("http.write_ms", p50("http.write", crosswalks), "ms"),
        (
            "exec.queue_wait_ms",
            loaded[0].hist_mean("geoalign_exec_pool_queue_wait_micros") / 1e3,
            "ms",
        ),
        ("json.decode_ms", p50("json.decode", crosswalks), "ms"),
        ("json.encode_ms", p50("json.encode", crosswalks), "ms"),
        (
            "json.decode_mb_per_s",
            pass.decoded_bytes as f64 / 1e6 / decode_s.max(1e-12),
            "MB/s",
        ),
        (
            "router.crosswalk_self_ms",
            self_of("router", crosswalks),
            "ms",
        ),
        ("router.ingest_self_ms", self_of("router", ingests), "ms"),
        (
            "store.fingerprint_ms",
            p50("store.fingerprint", crosswalks),
            "ms",
        ),
        ("store.lookup_ms", p50("store.lookup", crosswalks), "ms"),
        (
            "store.prepare_ms",
            stats::median(&prepares).unwrap_or(0.0),
            "ms",
        ),
        ("store.hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("core.apply_ms", p50("core.apply", crosswalks), "ms"),
        (
            "core.disaggregation_share",
            share(phases.disaggregation),
            "ratio",
        ),
        (
            "core.weight_learning_share",
            share(phases.weight_learning),
            "ratio",
        ),
        (
            "core.reaggregation_share",
            share(phases.reaggregation),
            "ratio",
        ),
        (
            "core.solver_iterations",
            global.hist_mean("geoalign_core_solver_iterations"),
            "count",
        ),
        (
            "core.delta_prepare_ms",
            global.hist_mean("geoalign_core_incremental_prepare_micros") / 1e3,
            "ms",
        ),
        (
            "core.touched_rows",
            stats::median(&pass.touched).unwrap_or(0.0),
            "count",
        ),
        ("agg.absorb_ms", p50("agg.absorb", ingests), "ms"),
        ("ingest.fold_ms", p50("ingest.fold", ingests), "ms"),
        (
            "wal.fsync_share",
            ratio(fsync_ms, sum("serve", &all_traced[..traced_requests])),
            "ratio",
        ),
        (
            "wal.fsyncs_per_ingest",
            per_ingest(global.get("geoalign_store_wal_fsync_micros_count")),
            "count",
        ),
        (
            "wal.appends_per_ingest",
            per_ingest(global.get("geoalign_store_wal_appends_total")),
            "count",
        ),
        (
            "wal.bytes_per_ingest_byte",
            ratio(dir_bytes4 as f64 - dir_bytes0 as f64, ingest_bytes as f64),
            "ratio",
        ),
        ("cluster.hop_share", ratio(hop_p50, e2e_p50), "ratio"),
        (
            "cluster.scatter_share",
            ratio(scatter_ms, sum("serve", &traced_ingests)),
            "ratio",
        ),
        (
            "cluster.fanout_per_ingest",
            per_ingest(global.get("geoalign_cluster_fanout_requests_total")),
            "count",
        ),
        (
            "cluster.retries",
            global.get("geoalign_cluster_client_retries_total"),
            "count",
        ),
        (
            "loadgen.lag_p99_ms",
            stats::quantile(&lags, 0.99).unwrap_or(0.0),
            "ms",
        ),
        ("trace.e2e_p50_ms", e2e_p50, "ms"),
        ("trace.self_sum_p50_ms", self_sum, "ms"),
        ("trace.self_sum_gap_ratio", gap, "ratio"),
        (
            "trace.overhead_ratio",
            (e2e_p50 - untraced_p50) / untraced_p50.max(1e-9),
            "ratio",
        ),
    ];
    let provenance = vec![
        ("traced_requests", traced_requests.to_string()),
        ("traced_crosswalks", crosswalks.len().to_string()),
        ("traced_ingests", ingests.len().to_string()),
        ("traced_probe_ingests", corpus.probes.len().to_string()),
        ("untraced_crosswalks", untraced.len().to_string()),
        ("open_loop_requests", open.samples.len().to_string()),
        ("store_prepare_samples", prepares.len().to_string()),
        ("cluster_hops", pass.hops.len().to_string()),
        ("cluster_hop_p50_ms", hop_p50.to_string()),
        ("cluster_scatter_ms_in_traced_pass", scatter_ms.to_string()),
        ("wal_fsync_ms_in_traced_pass", fsync_ms.to_string()),
        ("wal_fsync_p50_ms", fsync_p50.to_string()),
        ("wal_fsync_p99_ms", fsync_p99.to_string()),
        ("trace_layers", format!("{layer_names:?}")),
        ("self_sum_tolerance", SELF_SUM_TOLERANCE.to_string()),
        (
            "self_sum_within_tolerance",
            (gap <= SELF_SUM_TOLERANCE).to_string(),
        ),
        (
            "paper_disaggregation_share_claim",
            PAPER_DISAGGREGATION_SHARE.to_string(),
        ),
        (
            "fig6_split",
            format!(
                "{{\"disaggregation\": {}, \"weight_learning\": {}, \"reaggregation\": {}}}",
                share(phases.disaggregation),
                share(phases.weight_learning),
                share(phases.reaggregation)
            ),
        ),
    ];
    Ok(Report {
        metrics,
        attempted: i,
        failed: 0,
        provenance,
    })
}

/// Total bytes of the regular files under `dir`.
fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_size(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
