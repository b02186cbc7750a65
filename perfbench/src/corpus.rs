//! Seeded workload corpora: the world every server registers and the
//! request sequence the load generator replays. Everything here is a pure
//! function of `(workload, scale, seed)`, and every body is rendered to
//! bytes before any timing starts.

use crate::http::raw_post;

/// The three traffic mixes. Each stresses a different slice of the
/// serving stack; see `BENCHMARK.json` for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper-scale pair, read-only `/crosswalk` traffic, all cache hits.
    PaperCrosswalk,
    /// The same universe on a durable node, `/ingest` beside `/crosswalk`.
    PaperStream,
    /// Many small pairs behind a 2-shard coordinator, Zipf-skewed.
    ClusterSmall,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCrosswalk,
        Workload::PaperStream,
        Workload::ClusterSmall,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCrosswalk => "paper-crosswalk",
            Workload::PaperStream => "paper-stream",
            Workload::ClusterSmall => "cluster-small",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the world is. `Smoke` keeps every workload and metric name but
/// shrinks the universe so the benchmark's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Paper,
    /// A tiny universe for end-to-end tests of the benchmark itself.
    Smoke,
}

/// Everything that shapes one workload at one scale.
#[derive(Debug, Clone)]
pub struct Params {
    /// Independent (source, target) system pairs.
    pub pairs: usize,
    /// Source units per pair.
    pub n_source: usize,
    /// Target units per pair.
    pub n_target: usize,
    /// Static references registered per pair.
    pub static_refs: usize,
    /// Every `ingest_every`-th request is an `/ingest` (0: never).
    pub ingest_every: usize,
    /// Points per `/ingest` batch (also the size of the probe batches of
    /// a workload whose sequence does not ingest).
    pub ingest_points: usize,
    /// `/crosswalk` requests carry 1..=`max_attrs` attributes.
    pub max_attrs: usize,
    /// Zipf exponent of the pair popularity (pairs > 1 only).
    pub zipf: f64,
    /// Shard servers behind a coordinator (0: one node, no coordinator).
    pub shards: usize,
    /// Whether the node runs with a durable `data_dir`.
    pub durable: bool,
    /// Distinct requests in the replayed sequence.
    pub corpus_len: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
}

impl Params {
    /// The parameters of `workload` at `scale`.
    pub fn of(workload: Workload, scale: Scale) -> Params {
        // Paper United States unit counts (§4.1: 30,238 zips, 3,142 counties).
        let (paper_n_source, paper_n_target) = match scale {
            Scale::Paper => (30_238, 3_142),
            Scale::Smoke => (600, 60),
        };
        match workload {
            Workload::PaperCrosswalk => Params {
                pairs: 1,
                n_source: paper_n_source,
                n_target: paper_n_target,
                static_refs: 4,
                ingest_every: 0,
                ingest_points: 2_000,
                max_attrs: 4,
                zipf: 0.0,
                shards: 0,
                durable: false,
                corpus_len: 24,
                rate: scaled(scale, 20.0),
            },
            Workload::PaperStream => Params {
                pairs: 1,
                n_source: paper_n_source,
                n_target: paper_n_target,
                static_refs: 4,
                ingest_every: 5,
                ingest_points: 2_000,
                max_attrs: 4,
                zipf: 0.0,
                shards: 0,
                durable: true,
                corpus_len: 15,
                // A 2,000-point ingest takes ~110 ms here; at 167 ms
                // spacing the crosswalk due after it does not queue behind
                // it, a wait that would swing with machine speed. The
                // closed loop still queues reads behind writes.
                rate: scaled(scale, 6.0),
            },
            Workload::ClusterSmall => Params {
                pairs: match scale {
                    Scale::Paper => 160,
                    Scale::Smoke => 24,
                },
                n_source: 400,
                n_target: 40,
                static_refs: 1,
                ingest_every: 10,
                ingest_points: 128,
                max_attrs: 1,
                zipf: 0.5,
                shards: 2,
                durable: false,
                corpus_len: 400,
                rate: scaled(scale, 250.0),
            },
        }
    }
}

fn scaled(scale: Scale, rate: f64) -> f64 {
    match scale {
        Scale::Paper => rate,
        Scale::Smoke => rate * 2.0,
    }
}

/// The 64-bit LCG used by the repository's other benches.
pub fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A value with three decimals, so its shortest decimal rendering parses
/// back to the identical `f64` on the server and in the oracle.
fn milli(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// One unit system to register.
#[derive(Debug, Clone)]
pub struct System {
    /// System name.
    pub name: String,
    /// Unit ids in registration order.
    pub units: Vec<String>,
}

/// One static reference to register.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Pair index.
    pub pair: usize,
    /// Reference name.
    pub name: String,
    /// `(source index, target index, value)` in entry order.
    pub triples: Vec<(usize, usize, f64)>,
}

/// What a request does, with its inputs already resolved to indices.
#[derive(Debug, Clone)]
pub enum Op {
    /// `/crosswalk` over `attrs` (one value vector per attribute).
    Crosswalk {
        /// Attribute names and their source-unit values.
        attrs: Vec<(String, Vec<f64>)>,
    },
    /// `/ingest` of pre-located points into the streaming attribute.
    Ingest {
        /// `(source index, target index, weight)` in point order.
        points: Vec<(usize, usize, f64)>,
    },
}

/// One pre-rendered request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Pair the request addresses.
    pub pair: usize,
    /// The operation, for the in-process twin.
    pub op: Op,
    /// `/crosswalk` or `/ingest`.
    pub path: &'static str,
    /// The JSON body.
    pub body: Vec<u8>,
    /// The full HTTP/1.1 request (head + body), ready to write.
    pub raw: Vec<u8>,
}

impl Request {
    /// Whether this is an `/ingest`.
    pub fn is_ingest(&self) -> bool {
        matches!(self.op, Op::Ingest { .. })
    }
}

/// A workload's whole input: registrations, warm-up and the sequence.
#[derive(Debug)]
pub struct Corpus {
    /// The parameters it was generated from.
    pub params: Params,
    /// Unit systems, two per pair (`src{p}`, `tgt{p}`).
    pub systems: Vec<System>,
    /// Static references, `static_refs` per pair.
    pub references: Vec<Reference>,
    /// Registration requests (path, full HTTP request), in order.
    pub registrations: Vec<(&'static str, Vec<u8>)>,
    /// Requests sent before the first timed one so every pair is prepared.
    pub warmup: Vec<Request>,
    /// On a workload whose sequence has no `/ingest`: batches sent
    /// serially after the timed phases, so `ingest_p50_ms` exists there
    /// too without touching the read-only phases.
    pub probes: Vec<Request>,
    /// The replayed sequence; timed phases cycle through it.
    pub sequence: Vec<Request>,
}

/// Attribute counts of successive crosswalks (capped at `max_attrs`).
/// Half of them carry two attributes, so the latency median lies inside
/// one batch size instead of on the edge between two, where it would
/// flip between their costs from run to run.
const ATTR_CYCLE: [usize; 6] = [2, 1, 2, 3, 2, 4];

/// Probe ingests on a workload whose sequence does not ingest.
pub const PROBE_INGESTS: usize = 10;

/// The streaming attribute every `/ingest` folds into.
pub const STREAM_ATTRIBUTE: &str = "stream";

/// Name of pair `p`'s source system.
pub fn source_name(p: usize) -> String {
    format!("src{p}")
}

/// Name of pair `p`'s target system.
pub fn target_name(p: usize) -> String {
    format!("tgt{p}")
}

impl Corpus {
    /// Generates the corpus of `workload` at `scale` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Corpus {
        let params = Params::of(workload, scale);
        let mut rng = seed ^ 0x6a09_e667_f3bc_c908;
        let (ns, nt) = (params.n_source, params.n_target);

        let mut systems = Vec::new();
        let mut references = Vec::new();
        for p in 0..params.pairs {
            systems.push(System {
                name: source_name(p),
                units: (0..ns).map(|i| format!("s{p}_{i}")).collect(),
            });
            systems.push(System {
                name: target_name(p),
                units: (0..nt).map(|j| format!("t{p}_{j}")).collect(),
            });
            for k in 0..params.static_refs {
                references.push(Reference {
                    pair: p,
                    name: format!("ref{k}"),
                    triples: spread_triples(ns, nt, &mut rng),
                });
            }
        }

        let mut registrations = Vec::new();
        for s in &systems {
            let units: Vec<String> = s.units.iter().map(|u| format!("\"{u}\"")).collect();
            let body = format!(r#"{{"name":"{}","units":[{}]}}"#, s.name, units.join(","));
            registrations.push(("/systems", raw_post("/systems", body.as_bytes())));
        }
        for r in &references {
            let (src, tgt) = (&systems[2 * r.pair], &systems[2 * r.pair + 1]);
            let entries: Vec<String> = r
                .triples
                .iter()
                .map(|&(i, j, v)| format!(r#"["{}","{}",{v}]"#, src.units[i], tgt.units[j]))
                .collect();
            let body = format!(
                r#"{{"source":"{}","target":"{}","name":"{}","entries":[{}]}}"#,
                src.name,
                tgt.name,
                r.name,
                entries.join(",")
            );
            registrations.push(("/references", raw_post("/references", body.as_bytes())));
        }

        let zipf = ZipfPairs::new(params.pairs, params.zipf, &mut rng);
        let render = |pair: usize, op: Op| render(&systems, pair, op);

        // Warm-up: one crosswalk per pair, after one ingest per pair on
        // workloads whose pairs carry a streaming reference, so the
        // timed phases start from prepared, cached pairs.
        let mut warmup = Vec::new();
        for p in 0..params.pairs {
            if params.ingest_every > 0 && params.pairs == 1 {
                let points = ingest_points(&params, &mut rng);
                warmup.push(render(p, Op::Ingest { points }));
            }
            let attrs = crosswalk_attrs(&params, 1, &mut rng);
            warmup.push(render(p, Op::Crosswalk { attrs }));
        }

        // The attribute counts follow `ATTR_CYCLE`, so every seed sends
        // the same mix of batch sizes; only the values and pairs vary.
        let mut crosswalks = 0usize;
        let sequence = (0..params.corpus_len)
            .map(|i| {
                let pair = zipf.sample(&mut rng);
                if params.ingest_every > 0 && i % params.ingest_every == params.ingest_every - 1 {
                    let points = ingest_points(&params, &mut rng);
                    render(pair, Op::Ingest { points })
                } else {
                    let n_attrs = ATTR_CYCLE[crosswalks % ATTR_CYCLE.len()].min(params.max_attrs);
                    crosswalks += 1;
                    let attrs = crosswalk_attrs(&params, n_attrs, &mut rng);
                    render(pair, Op::Crosswalk { attrs })
                }
            })
            .collect();
        let probes = if params.ingest_every == 0 {
            (0..PROBE_INGESTS)
                .map(|_| {
                    let points = ingest_points(&params, &mut rng);
                    render(0, Op::Ingest { points })
                })
                .collect()
        } else {
            Vec::new()
        };

        Corpus {
            params,
            systems,
            references,
            registrations,
            warmup,
            probes,
            sequence,
        }
    }

    /// Requests of each kind in the sequence: `(crosswalks, ingests)`.
    pub fn mix(&self) -> (usize, usize) {
        let ingests = self.sequence.iter().filter(|r| r.is_ingest()).count();
        (self.sequence.len() - ingests, ingests)
    }
}

/// A static reference as in `bin/ingest.rs`: every source unit spreads
/// over 1–3 target units around its own scaled position.
fn spread_triples(ns: usize, nt: usize, rng: &mut u64) -> Vec<(usize, usize, f64)> {
    let mut triples = Vec::with_capacity(ns * 2);
    for i in 0..ns {
        let spread = 1 + (lcg(rng) * 3.0) as usize;
        let base = i * nt / ns;
        for k in 0..spread.min(nt) {
            triples.push((i, (base + k) % nt, milli(1.0 + lcg(rng) * 99.0)));
        }
    }
    triples
}

/// One pre-located ingest batch: targets track the source position, with
/// a few verbatim re-sends mixed in (at-least-once delivery).
fn ingest_points(params: &Params, rng: &mut u64) -> Vec<(usize, usize, f64)> {
    let (ns, nt) = (params.n_source, params.n_target);
    let mut batch: Vec<(usize, usize, f64)> = Vec::with_capacity(params.ingest_points);
    for _ in 0..params.ingest_points {
        if !batch.is_empty() && lcg(rng) < 0.05 {
            let k = (lcg(rng) * batch.len() as f64) as usize;
            batch.push(batch[k.min(batch.len() - 1)]);
            continue;
        }
        let si = (lcg(rng) * ns as f64) as usize % ns;
        let ti = (si * nt / ns + (lcg(rng) * 3.0) as usize) % nt;
        batch.push((si, ti, milli(0.5 + lcg(rng) * 2.0)));
    }
    batch
}

fn crosswalk_attrs(params: &Params, n_attrs: usize, rng: &mut u64) -> Vec<(String, Vec<f64>)> {
    (0..n_attrs)
        .map(|a| {
            let values = (0..params.n_source)
                .map(|_| milli(lcg(rng) * 1000.0))
                .collect();
            (format!("a{a}"), values)
        })
        .collect()
}

fn render(systems: &[System], pair: usize, op: Op) -> Request {
    let (src, tgt) = (&systems[2 * pair], &systems[2 * pair + 1]);
    let (path, body) = match &op {
        Op::Crosswalk { attrs } => {
            let attrs: Vec<String> = attrs
                .iter()
                .map(|(name, values)| {
                    let values: Vec<String> = values.iter().map(f64::to_string).collect();
                    format!(r#"{{"name":"{name}","values":[{}]}}"#, values.join(","))
                })
                .collect();
            (
                "/crosswalk",
                format!(
                    r#"{{"source":"{}","target":"{}","attributes":[{}]}}"#,
                    src.name,
                    tgt.name,
                    attrs.join(",")
                ),
            )
        }
        Op::Ingest { points } => {
            let points: Vec<String> = points
                .iter()
                .map(|&(i, j, w)| format!(r#"["{}","{}",{w}]"#, src.units[i], tgt.units[j]))
                .collect();
            (
                "/ingest",
                format!(
                    r#"{{"source":"{}","target":"{}","attribute":"{STREAM_ATTRIBUTE}","points":[{}]}}"#,
                    src.name,
                    tgt.name,
                    points.join(",")
                ),
            )
        }
    };
    let body = body.into_bytes();
    Request {
        pair,
        op,
        path,
        raw: raw_post(path, &body),
        body,
    }
}

/// Seeded Zipf popularity over pairs: a random permutation ranks them,
/// rank `r` drawn with weight `1 / (r + 1)^s`.
struct ZipfPairs {
    ranked: Vec<usize>,
    cumulative: Vec<f64>,
}

impl ZipfPairs {
    fn new(pairs: usize, s: f64, rng: &mut u64) -> ZipfPairs {
        let mut ranked: Vec<usize> = (0..pairs).collect();
        for i in (1..pairs).rev() {
            let j = (lcg(rng) * (i + 1) as f64) as usize % (i + 1);
            ranked.swap(i, j);
        }
        let mut total = 0.0;
        let cumulative = (0..pairs)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        ZipfPairs { ranked, cumulative }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let total = *self.cumulative.last().expect("at least one pair");
        let u = lcg(rng) * total;
        let r = self.cumulative.partition_point(|&c| c <= u);
        self.ranked[r.min(self.ranked.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus() {
        let a = Corpus::generate(Workload::ClusterSmall, Scale::Smoke, 7);
        let b = Corpus::generate(Workload::ClusterSmall, Scale::Smoke, 7);
        let c = Corpus::generate(Workload::ClusterSmall, Scale::Smoke, 8);
        let raw = |c: &Corpus| c.sequence.iter().map(|r| r.raw.clone()).collect::<Vec<_>>();
        assert_eq!(raw(&a), raw(&b));
        assert_ne!(raw(&a), raw(&c));
        assert_eq!(a.registrations, b.registrations);
    }

    #[test]
    fn mix_follows_the_ingest_cadence() {
        let c = Corpus::generate(Workload::PaperStream, Scale::Smoke, 1);
        let (cw, ing) = c.mix();
        assert_eq!(cw, 4 * ing, "one ingest per four crosswalks");
        let c = Corpus::generate(Workload::PaperCrosswalk, Scale::Smoke, 1);
        assert_eq!(c.mix().1, 0);
    }

    #[test]
    fn rendered_values_round_trip() {
        let c = Corpus::generate(Workload::PaperCrosswalk, Scale::Smoke, 3);
        let r = &c.sequence[0];
        let Op::Crosswalk { attrs } = &r.op else {
            panic!("paper-crosswalk sends only crosswalks")
        };
        let doc = geoalign_serve::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let first = doc.get("attributes").unwrap().as_array().unwrap()[0]
            .get("values")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect::<Vec<_>>();
        let want: Vec<u64> = attrs[0].1.iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, want);
    }
}
