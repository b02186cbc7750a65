//! `perfbench` — the repository's end-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-crosswalk --seed 1 --seconds 10 --trace 0 [--scale smoke]
//! ```
//!
//! One run generates the workload's corpus from the seed and computes the
//! answers of an in-process oracle. It then boots the servers in a fresh
//! child process several times (`setup_s` is the median set-up time).
//! Each process must answer a serial pass byte-identically to the oracle
//! before it takes its share of the measurement: the end-to-end metrics
//! (`--trace 0`: an open loop at the workload's fixed rate, then, after an
//! untimed warm-up, a closed loop with `nproc` connections, pooled over
//! the processes) or, on a single process, the per-layer metrics
//! (`--trace 1`, see `trace.rs`).
//! The last line of standard output is the result object; the line before
//! it records provenance.

mod corpus;
mod http;
mod load;
mod oracle;
mod serve;
mod stats;
mod trace;

use corpus::{Corpus, Request, Scale, Workload};
use http::Conn;
use oracle::Oracle;
use serve::Serving;
use stats::Scrape;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The generator may send at most this late (p99, ms) before the run
/// declares itself invalid instead of reporting numbers. On two cores
/// shared with the servers, a woken sender thread waits a few ms for a
/// core at the tail; this bound leaves room for that and catches a
/// generator that cannot keep the schedule at all.
const MAX_LAG_P99_MS: f64 = 25.0;

/// Fresh serving processes per untraced run; `setup_s` is the median of
/// their set-up times.
const SETUPS: usize = 3;

/// Share of each process's measuring time spent in the open loop; the
/// rest is the closed-loop saturation phase.
const OPEN_SHARE: f64 = 0.7;

/// Untimed closed-loop traffic before each process's timed closed loop.
const CLOSED_WARMUP_S: f64 = 1.0;

/// Command-line options of a measuring run.
#[derive(Debug, Clone)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut scale = Scale::Paper;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "paper" => Scale::Paper,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes paper or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        serve::child_main(&args[1..]).map(|()| None)
    } else {
        parse_options(&args).and_then(run).map(Some)
    };
    match result {
        Ok(Some(lines)) => print!("{lines}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The metrics of one run, in output order, with their units.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run hands back for printing.
pub struct Report {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    provenance: Vec<(&'static str, String)>,
}

fn run(opts: Options) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let corpus = Corpus::generate(opts.workload, opts.scale, opts.seed);
    let p = &corpus.params;
    eprintln!(
        "# perfbench {} — {} pair(s) of {}x{}, {} requests in the sequence, seed {}",
        opts.workload.name(),
        p.pairs,
        p.n_source,
        p.n_target,
        corpus.sequence.len(),
        opts.seed
    );
    let oracle = Oracle::new(&corpus)?;
    // The oracle's answers to the warm-up and the sequence. Every serving
    // process gets the same requests from the same fresh state, so every
    // one must answer exactly these bytes.
    let expected = corpus
        .warmup
        .iter()
        .chain(&corpus.sequence)
        .map(|req| match oracle.answer(req) {
            (200, body) => Ok(body),
            (status, _) => Err(format!("oracle: {} answered status {status}", req.path)),
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (warm_expected, seq_expected) = expected.split_at(corpus.warmup.len());
    // Where the sequence does not ingest, the answers do not depend on
    // history, so the timed phases check every response's bytes too.
    let timed_expected = (corpus.mix().1 == 0).then_some(seq_expected);
    let scratch = Scratch::new()?;

    // Each set-up boots a fresh serving process, passes the correctness
    // gate and then takes an equal share of the timed phases: one process
    // runs its memory-bound loops up to ~15% faster or slower than the
    // next, and a run pools several. A traced run sets up once.
    let setups = if opts.trace { 1 } else { SETUPS };
    let share_s = opts.seconds / setups as f64;
    let mut setup_times = Vec::new();
    let mut rss = Vec::new();
    let mut segments = Vec::new();
    let mut traced = None;
    for k in 0..setups {
        let dir = p.durable.then(|| scratch.dir(k));
        let t0 = Instant::now();
        let mut serving = Serving::spawn(p.shards, dir.as_deref())?;
        let warm = set_up(&serving.front, &corpus)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        gate(&serving, &corpus, &warm, warm_expected, seq_expected)?;
        if opts.trace {
            let report = trace::run(&serving, &corpus, &oracle, dir.as_deref(), share_s, nproc)?;
            traced = Some(report);
        } else {
            segments.push(segment(&serving, &corpus, timed_expected, share_s, nproc)?);
        }
        rss.push(serving.rss_peak_mb()?);
        serving.stop();
    }
    drop(scratch);
    eprintln!(
        "set-up times (s): {setup_times:?}; each process answered {} requests byte-identically \
         to the oracle",
        expected.len()
    );

    let mut report = match traced {
        Some(report) => report,
        None => {
            let mut report = summarize(&segments, &corpus, nproc)?;
            let setup_s = stats::median(&setup_times).ok_or("no set-up")?;
            report.metrics.insert(0, ("setup_s", setup_s, "s"));
            let rss_peak_mb = stats::median(&rss).ok_or("no serving process")?;
            report.metrics.push(("rss_peak_mb", rss_peak_mb, "MiB"));
            report
        }
    };
    let mut provenance = vec![
        ("workload", json_str(opts.workload.name())),
        (
            "scale",
            json_str(match opts.scale {
                Scale::Paper => "paper",
                Scale::Smoke => "smoke",
            }),
        ),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("hardware_threads", nproc.to_string()),
        ("pairs", p.pairs.to_string()),
        ("n_source", p.n_source.to_string()),
        ("n_target", p.n_target.to_string()),
        ("static_refs_per_pair", p.static_refs.to_string()),
        ("shards", p.shards.to_string()),
        ("rate_per_s", p.rate.to_string()),
        ("sequence_len", corpus.sequence.len().to_string()),
        ("sequence_crosswalks", corpus.mix().0.to_string()),
        ("sequence_ingests", corpus.mix().1.to_string()),
        ("ingest_points", p.ingest_points.to_string()),
        ("serving_processes", setups.to_string()),
        ("setup_times_s", format!("{setup_times:?}")),
        ("rss_peak_mb_per_process", format!("{rss:?}")),
    ];
    provenance.append(&mut report.provenance);
    Ok(render(&report, &provenance))
}

/// The run's temporary directory for durable data, inside the working
/// directory and removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn dir(&self, k: usize) -> PathBuf {
        self.0.join(format!("setup{k}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly if shared.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// Registers the corpus's systems and references, then sends the warm-up
/// requests; returns the warm-up bodies for the correctness gate.
fn set_up(addr: &str, corpus: &Corpus) -> Result<Vec<Vec<u8>>, String> {
    let mut conn = Conn::new(addr);
    for (path, raw) in &corpus.registrations {
        let reply = conn.send(raw).map_err(|e| format!("POST {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "POST {path}: status {}: {}",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
    }
    corpus
        .warmup
        .iter()
        .map(|req| send_ok(&mut conn, req))
        .collect()
}

fn send_ok(conn: &mut Conn, req: &Request) -> Result<Vec<u8>, String> {
    let reply = conn
        .send(&req.raw)
        .map_err(|e| format!("POST {}: {e}", req.path))?;
    if reply.status != 200 {
        return Err(format!(
            "POST {}: status {}: {}",
            req.path,
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    Ok(reply.body)
}

/// The correctness gate: the warm-up answers and a serial pass over the
/// whole sequence must be byte-identical to the oracle's. Aborts the run
/// on the first mismatch.
fn gate(
    serving: &Serving,
    corpus: &Corpus,
    warm: &[Vec<u8>],
    warm_expected: &[Vec<u8>],
    seq_expected: &[Vec<u8>],
) -> Result<(), String> {
    let check = |what: &str, req: &Request, got: &[u8], want: &[u8]| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "correctness gate: {what} {} on pair {} differs from the single-node oracle",
                req.path, req.pair
            ))
        }
    };
    for ((req, got), want) in corpus.warmup.iter().zip(warm).zip(warm_expected) {
        check("warm-up", req, got, want)?;
    }
    let mut conn = Conn::new(&serving.front);
    for (req, want) in corpus.sequence.iter().zip(seq_expected) {
        check("sequence", req, &send_ok(&mut conn, req)?, want)?;
    }
    Ok(())
}

/// One serving process's share of the untraced timed phases.
struct Segment {
    open: load::Phase,
    closed: load::Phase,
    /// Serial probe `/ingest` latencies (ms), on a read-only sequence.
    probes: Vec<f64>,
    /// Per-server scrape deltas over the two timed phases and the warm-up
    /// between them.
    deltas: Vec<Scrape>,
}

/// Runs the open loop, the closed-loop warm-up, the closed loop and (on a
/// read-only sequence) the serial probe ingests on one serving process;
/// the two timed loops take `seconds` in all.
fn segment(
    serving: &Serving,
    corpus: &Corpus,
    expected: Option<&[Vec<u8>]>,
    seconds: f64,
    nproc: usize,
) -> Result<Segment, String> {
    let p = &corpus.params;
    let (front, seq) = (&serving.front, &corpus.sequence);
    let open_s = seconds * OPEN_SHARE;
    let before = scrape_all(serving)?;
    let open = load::open_loop(front, seq, expected, 0, p.rate, open_s, nproc);
    // Untimed: the first second of saturation after the open loop's light
    // load runs up to 1.8x slower, as the serving process first grows its
    // concurrent working set.
    let warm = load::closed_loop(
        front,
        seq,
        expected,
        open.samples.len(),
        CLOSED_WARMUP_S,
        nproc,
    );
    if warm.failed() > 0 {
        return Err(format!(
            "{} closed-loop warm-up request(s) failed",
            warm.failed()
        ));
    }
    let offset = open.samples.len() + warm.samples.len();
    let closed = load::closed_loop(front, seq, expected, offset, seconds - open_s, nproc);
    let after = scrape_all(serving)?;
    // Probes come last: they change the pair's references.
    let mut conn = Conn::new(front);
    let probes = corpus
        .probes
        .iter()
        .map(|req| {
            let t0 = Instant::now();
            send_ok(&mut conn, req).map(|_| load::ms(t0.elapsed()))
        })
        .collect::<Result<_, _>>()?;
    let deltas = before
        .iter()
        .zip(&after)
        .map(|(b, a)| Scrape::delta(b, a))
        .collect();
    Ok(Segment {
        open,
        closed,
        probes,
        deltas,
    })
}

/// Latencies of the crosswalks (`ingest == false`) or the ingests among
/// `samples`.
fn latencies<'a>(samples: impl IntoIterator<Item = &'a load::Sample>, ingest: bool) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| s.ingest == ingest)
        .map(|s| s.latency_ms)
        .collect()
}

/// The end-to-end metrics over every process's segment: latencies pooled
/// (the tail per process where each has one, see below), throughput as
/// all `200`s over all closed-loop time.
fn summarize(segments: &[Segment], corpus: &Corpus, nproc: usize) -> Result<Report, String> {
    let open: Vec<&load::Sample> = segments.iter().flat_map(|s| &s.open.samples).collect();
    let cw = latencies(open.iter().copied(), false);
    let ing = latencies(open.iter().copied(), true);
    let lags: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    let lag_p99 = stats::quantile(&lags, 0.99).unwrap_or(0.0);
    if lag_p99 > MAX_LAG_P99_MS {
        return Err(format!(
            "invalid run: the generator sent {lag_p99:.3} ms late at p99 \
             (bound {MAX_LAG_P99_MS} ms)"
        ));
    }
    let closed_n: usize = segments.iter().map(|s| s.closed.samples.len()).sum();
    let closed_ok: usize = segments.iter().map(|s| s.closed.ok()).sum();
    let closed_s: f64 = segments.iter().map(|s| s.closed.elapsed_s).sum();
    let attempted = open.len() + closed_n;
    let failed = open.iter().filter(|s| !s.ok()).count() + closed_n - closed_ok;
    let max_rps = closed_ok as f64 / closed_s.max(1e-9);

    // Where the sequence does not ingest, the serial probes give
    // `ingest_p50_ms`.
    let ing = if ing.is_empty() {
        segments
            .iter()
            .flat_map(|s| s.probes.iter().copied())
            .collect()
    } else {
        ing
    };
    let pooled_tail = stats::tail(&cw).ok_or(format!(
        "run too short: {} open-loop crosswalks leave no tail with {} samples beyond it",
        cw.len(),
        stats::TAIL_BEYOND
    ))?;
    // A stall of the shared host inside one process's open loop can
    // triple a pooled p95 of sub-millisecond requests. Where every process
    // has a capped tail of its own, their median is the tail, which one
    // stalled process does not move.
    let per_process: Option<Vec<f64>> = segments
        .iter()
        .map(|s| stats::capped_tail(&latencies(&s.open.samples, false)))
        .collect();
    let (cw_tail, cw_pct, tail_source) = match per_process.as_deref().and_then(stats::median) {
        Some(tail) => (
            tail,
            100.0 * stats::TAIL_CAP,
            "median over serving processes",
        ),
        None => (
            pooled_tail.0,
            pooled_tail.1,
            "pooled over serving processes",
        ),
    };
    let ingest_p50 = stats::median(&ing).ok_or("no ingest latency measured")?;
    let metrics: Metrics = vec![
        (
            "crosswalk_p50_ms",
            finite(stats::median(&cw).unwrap_or(0.0)),
            "ms",
        ),
        ("crosswalk_tail_ms", finite(cw_tail), "ms"),
        ("ingest_p50_ms", finite(ingest_p50), "ms"),
        ("max_rps", max_rps, "req/s"),
    ];
    let quantiles: Vec<String> = [0.9, 0.95, 0.98, 0.99]
        .iter()
        .map(|&q| finite(stats::quantile(&cw, q).unwrap_or(0.0)).to_string())
        .collect();
    let deltas: Vec<Scrape> = segments.iter().flat_map(|s| s.deltas.clone()).collect();
    let mut provenance = vec![
        ("crosswalk_samples", cw.len().to_string()),
        ("crosswalk_tail_percentile", format!("{cw_pct:.2}")),
        ("crosswalk_tail_source", json_str(tail_source)),
        (
            "crosswalk_p90_p95_p98_p99_ms",
            format!("[{}]", quantiles.join(", ")),
        ),
        ("ingest_samples", ing.len().to_string()),
        (
            "ingest_source",
            json_str(if corpus.probes.is_empty() {
                "open loop"
            } else {
                "serial probes after the timed phases"
            }),
        ),
    ];
    if let Some((tail, pct)) = stats::tail(&ing) {
        provenance.push(("ingest_tail_ms", finite(tail).to_string()));
        provenance.push(("ingest_tail_percentile", format!("{pct:.2}")));
    }
    provenance.extend([
        ("open_loop_requests", open.len().to_string()),
        ("closed_loop_s", closed_s.to_string()),
        ("closed_loop_requests", closed_n.to_string()),
        (
            "max_rps_per_process",
            format!(
                "{:?}",
                segments
                    .iter()
                    .map(|s| s.closed.ok() as f64 / s.closed.elapsed_s.max(1e-9))
                    .collect::<Vec<_>>()
            ),
        ),
        ("connections", nproc.to_string()),
        ("loadgen_lag_p99_ms", lag_p99.to_string()),
        ("loadgen_lag_bound_ms", MAX_LAG_P99_MS.to_string()),
        (
            "fail_ratio",
            (failed as f64 / attempted.max(1) as f64).to_string(),
        ),
        (
            "cluster_retries",
            Scrape::total(&deltas, "geoalign_cluster_client_retries_total").to_string(),
        ),
    ]);
    Ok(Report {
        metrics,
        attempted,
        failed,
        provenance,
    })
}

/// Scrapes every server of the serving process.
pub fn scrape_all(serving: &Serving) -> Result<Vec<Scrape>, String> {
    serving
        .all_addrs()
        .iter()
        .map(|a| Scrape::take(a))
        .collect()
}

/// A failed request's `+∞` latency, written as a finite number JSON can carry.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// The provenance line and the result line.
fn render(report: &Report, provenance: &[(&str, String)]) -> String {
    let mut out = String::from("{\"bench\": \"perfbench\", ");
    out.push_str(&geoalign_bench::metadata_json_lines().replace('\n', " "));
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("}\n");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    out
}
