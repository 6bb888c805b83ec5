//! The four workloads: set-up, the timed closed-loop phase, and the
//! checks that close a run.

use crate::mix::{self, Dataset, Expected, Rng, SHAPES};
use crate::stats::Samples;
use crate::trace::Tracer;
use fusion_cluster::spec::ClusterSpec;
use fusion_core::{Store, StoreConfig};
use fusion_service::{Loopback, Request, Response, Service, TcpServer, TcpTransport, Transport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The fixed make-up of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Full-size query objects; rounds cycle over them.
    pub objects: usize,
    /// Bytes per ranged GET.
    pub get_len: u64,
    /// Ranged GETs per round.
    pub gets_per_round: usize,
    /// A side PUT after every this many rounds (0: none).
    pub side_put_every: usize,
    /// Client over TCP with a separate writer connection.
    pub ingest_tcp: bool,
    /// Storage nodes.
    pub nodes: usize,
    /// One node stays failed for the whole timed phase.
    pub degraded: bool,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "query_hot",
        objects: 3,
        get_len: 4 << 10,
        gets_per_round: 16,
        side_put_every: 2,
        ingest_tcp: false,
        nodes: 9,
        degraded: false,
    },
    Spec {
        name: "query_cold",
        objects: 40,
        get_len: 4 << 10,
        gets_per_round: 16,
        side_put_every: 2,
        ingest_tcp: false,
        nodes: 9,
        degraded: false,
    },
    Spec {
        name: "ingest_tcp",
        objects: 2,
        get_len: 16 << 10,
        gets_per_round: 4,
        side_put_every: 0,
        ingest_tcp: true,
        nodes: 9,
        degraded: false,
    },
    Spec {
        name: "degraded",
        objects: 3,
        get_len: 4 << 10,
        gets_per_round: 16,
        side_put_every: 2,
        ingest_tcp: false,
        nodes: 12,
        degraded: true,
    },
];

/// Objects PUT during the timed phase that stay resident; older ones are
/// read back whole and deleted so memory stays bounded.
pub const PUT_WINDOW: usize = 8;

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Client and service threads: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `StoreConfig::fusion()` with aggregate pushdown on.
pub fn store_config(nodes: usize) -> StoreConfig {
    let cfg = StoreConfig::fusion().with_aggregate_pushdown(true);
    if nodes == cfg.cluster.nodes {
        cfg
    } else {
        cfg.with_cluster(ClusterSpec::with_nodes(nodes))
    }
}

/// One request/response connection: the same encode → transport →
/// decode steps `fusion_service::Client` takes, with a span around each
/// when tracing.
pub struct Conn {
    transport: Box<dyn Transport + Send>,
}

impl Conn {
    pub fn loopback(service: &Arc<Service>) -> Conn {
        Conn {
            transport: Box::new(Loopback::new(Arc::clone(service))),
        }
    }

    pub fn tcp(server: &TcpServer) -> Conn {
        let t = TcpTransport::connect(server.addr()).expect("connect to the local server");
        Conn {
            transport: Box::new(t),
        }
    }

    /// One raw frame round trip.
    pub fn raw(&mut self, body: &[u8]) -> std::io::Result<Vec<u8>> {
        self.transport.call(body)
    }

    /// Sends `req`; a typed error response or a transport error is `Err`.
    pub fn call(&mut self, req: &Request, tr: &mut Tracer, op: u64) -> Result<Response, String> {
        let s = tr.begin("service.proto.encode", op);
        let body = req.encode();
        tr.end(s);
        let s = tr.begin("service.transport", op);
        let reply = self.transport.call(&body);
        tr.end(s);
        let reply = reply.map_err(|e| format!("transport: {e}"))?;
        let s = tr.begin("service.proto.decode", op);
        let resp = Response::decode(&reply);
        tr.end(s);
        match resp.map_err(|e| format!("frame: {e}"))? {
            Response::Err { code, message } => Err(format!("{code:?}: {message}")),
            r => Ok(r),
        }
    }
}

/// Object byte ranges `[start, end)`.
pub type Ranges = Vec<(u64, u64)>;

/// Content of an object the benchmark PUT: the main file or the side
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    Main,
    Side,
}

/// Everything a timed phase runs against.
pub struct Fixture {
    pub spec: Spec,
    pub seed: u64,
    pub service: Arc<Service>,
    pub server: Option<TcpServer>,
    pub main: Dataset,
    pub side: Dataset,
    pub expected: Vec<Expected>,
    /// Query objects (all hold `main.file`).
    pub objects: Vec<String>,
    /// Objects PUT since set-up, oldest first, at most [`PUT_WINDOW`].
    pub window: Mutex<VecDeque<(String, Content)>>,
    /// Index of the newest acknowledged ingest object.
    pub newest: AtomicUsize,
    pub failed_node: Option<usize>,
    /// Per query object, the byte ranges stored on the failed node and
    /// the ranges stored elsewhere (`degraded` only): half of each
    /// round's GETs read the first, half the second, so every round has
    /// the same mix of reconstructed and plain reads.
    pub split: Vec<(Ranges, Ranges)>,
    /// Seconds spent generating data.
    pub generate_s: f64,
}

impl Fixture {
    pub fn bytes(&self, c: Content) -> &[u8] {
        match c {
            Content::Main => &self.main.file,
            Content::Side => &self.side.file,
        }
    }

    /// Every resident object the benchmark PUT, with its content.
    pub fn resident(&self) -> Vec<(String, Content)> {
        let mut all: Vec<(String, Content)> = self
            .objects
            .iter()
            .map(|o| (o.clone(), Content::Main))
            .collect();
        all.extend(self.window.lock().expect("window lock").iter().cloned());
        all
    }

    pub fn ingest_key(i: usize) -> String {
        format!("ingest-{i:05}")
    }

    /// Reads back whole, untimed and through the service queue, an
    /// object just PUT; then deletes the oldest beyond [`PUT_WINDOW`].
    fn settle_put(&self, key: String, content: Content) -> Result<(), String> {
        let data = self.bytes(content);
        let resp = self.service.call(Request::Get {
            key: key.clone(),
            offset: 0,
            len: data.len() as u64,
        });
        match resp {
            Response::Get(got) if got == data => {}
            Response::Get(_) => return Err(format!("{key}: read-back differs from the bytes PUT")),
            other => return Err(format!("{key}: read-back failed: {other:?}")),
        }
        let old = {
            let mut w = self.window.lock().expect("window lock");
            w.push_back((key, content));
            if w.len() > PUT_WINDOW {
                w.pop_front()
            } else {
                None
            }
        };
        if let Some((old, _)) = old {
            self.service
                .with_store(|s| s.delete(&old))
                .map_err(|e| format!("delete {old}: {e}"))?;
        }
        Ok(())
    }
}

/// Builds a fixture: generates data, starts the service, PUTs the
/// objects, fails the node (degraded) and warms the cache.
pub fn setup(spec: Spec, seed: u64) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let main = mix::generate(seed, mix::ROW_GROUPS);
    let side = mix::generate(seed ^ 0x51DE, mix::SIDE_ROW_GROUPS);
    let generate_s = t0.elapsed().as_secs_f64();
    let expected = SHAPES
        .iter()
        .map(|s| mix::expected(s, &main.table))
        .collect();

    let store = Store::new(store_config(spec.nodes)).map_err(|e| e.to_string())?;
    let service = Arc::new(Service::start(store, nproc()));
    let server = if spec.ingest_tcp {
        Some(TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?)
    } else {
        None
    };
    let objects: Vec<String> = (0..spec.objects)
        .map(|i| format!("lineitem-{i:03}"))
        .collect();
    let mut fx = Fixture {
        spec,
        seed,
        service,
        server,
        main,
        side,
        expected,
        objects,
        window: Mutex::new(VecDeque::new()),
        newest: AtomicUsize::new(0),
        failed_node: None,
        split: Vec::new(),
        generate_s,
    };
    let mut conn = Conn::loopback(&fx.service);
    let mut tr = Tracer::off();
    for o in &fx.objects {
        put(&mut conn, o, &fx.main.file, &mut tr, 0)?;
    }
    if spec.ingest_tcp {
        put(
            &mut conn,
            &Fixture::ingest_key(0),
            &fx.main.file,
            &mut tr,
            0,
        )?;
        fx.window
            .lock()
            .expect("window lock")
            .push_back((Fixture::ingest_key(0), Content::Main));
    }
    if spec.degraded {
        let node = fx.service.with_store(|s| busiest_node(s, &fx.objects[0]));
        conn.call(&Request::FailNode(node as u32), &mut tr, 0)?;
        fx.failed_node = Some(node);
        fx.split = fx
            .objects
            .iter()
            .map(|o| fx.service.with_store(|s| split_ranges(s, o, node)))
            .collect();
    }
    // Warm-up: one round over each of the first objects.
    for o in fx.objects.iter().take(4) {
        for (shape, want) in SHAPES.iter().zip(&fx.expected) {
            query(&mut conn, o, shape, want, &mut tr, 0)??;
        }
    }
    Ok(fx)
}

/// The node hosting the most chunks of `object` (lowest id on ties).
pub fn busiest_node(s: &Store, object: &str) -> usize {
    let mut per_node = vec![0usize; s.config().cluster.nodes];
    let meta = s.object(object).expect("object was PUT");
    for c in 0..meta.num_chunks() {
        for n in meta.chunk_nodes(c) {
            per_node[n] += 1;
        }
    }
    (0..per_node.len())
        .max_by_key(|&n| (per_node[n], std::cmp::Reverse(n)))
        .unwrap_or(0)
}

/// The byte ranges of `object` whose data block is on `node`, and the
/// rest.
fn split_ranges(s: &Store, object: &str, node: usize) -> (Ranges, Ranges) {
    let meta = s.object(object).expect("object was PUT");
    let (mut lost, mut kept) = (Vec::new(), Vec::new());
    for e in meta.extents() {
        let side = if meta.node_of(e.stripe, e.bin) == node {
            &mut lost
        } else {
            &mut kept
        };
        side.push((e.start, e.end));
    }
    (lost, kept)
}

/// A uniformly drawn byte position within `ranges` (non-empty).
fn pick(rng: &mut Rng, ranges: &[(u64, u64)]) -> u64 {
    let total: u64 = ranges.iter().map(|(a, b)| b - a).sum();
    let mut at = rng.below(total);
    for &(a, b) in ranges {
        if at < b - a {
            return a + at;
        }
        at -= b - a;
    }
    unreachable!("position drawn below the total length")
}

pub fn put(
    conn: &mut Conn,
    key: &str,
    data: &[u8],
    tr: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let req = Request::Put {
        key: key.to_string(),
        data: data.to_vec(),
    };
    match conn.call(&req, tr, op)? {
        Response::Put(_) => Ok(()),
        other => Err(format!("PUT {key}: unexpected {other:?}")),
    }
}

/// Runs one query and checks it; `Ok(Err(_))` is a wrong answer.
pub fn query(
    conn: &mut Conn,
    object: &str,
    shape: &mix::Shape,
    want: &Expected,
    tr: &mut Tracer,
    op: u64,
) -> Result<Result<(), String>, String> {
    let req = Request::Query {
        object: object.to_string(),
        sql: shape.sql.to_string(),
    };
    match conn.call(&req, tr, op)? {
        Response::Query(got) => Ok(mix::check(shape, &got, want)),
        other => Err(format!("query {}: unexpected {other:?}", shape.name)),
    }
}

pub fn get(
    conn: &mut Conn,
    key: &str,
    offset: u64,
    len: u64,
    tr: &mut Tracer,
    op: u64,
) -> Result<Vec<u8>, String> {
    let req = Request::Get {
        key: key.to_string(),
        offset,
        len,
    };
    match conn.call(&req, tr, op)? {
        Response::Get(data) => Ok(data),
        other => Err(format!("GET {key}: unexpected {other:?}")),
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Client-side time of each whole query round, ms.
    pub rounds: Samples,
    /// Per-shape client-side query time, ms.
    pub shapes: Vec<Samples>,
    /// Ranged GET time, ms.
    pub gets: Samples,
    /// Mean ranged GET time within each round, ms.
    pub get_rounds: Samples,
    /// PUT time, ms.
    pub puts: Samples,
    /// Bytes of each timed PUT.
    pub put_bytes: usize,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Wrong answers (any one fails the run).
    pub mismatches: Vec<String>,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            shapes: vec![Samples::default(); SHAPES.len()],
            ..Measured::default()
        }
    }

    /// Operations attempted: every query, GET and PUT.
    pub fn attempted(&self) -> u64 {
        self.shapes.iter().map(|s| s.attempted).sum::<u64>()
            + self.gets.attempted
            + self.puts.attempted
    }

    /// Operations that returned an error.
    pub fn failed(&self) -> u64 {
        self.shapes.iter().map(|s| s.failed).sum::<u64>() + self.gets.failed + self.puts.failed
    }

    /// Operations completed.
    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }

    fn absorb(&mut self, other: Measured) {
        self.rounds.extend(other.rounds);
        for (a, b) in self.shapes.iter_mut().zip(other.shapes) {
            a.extend(b);
        }
        self.gets.extend(other.gets);
        self.get_rounds.extend(other.get_rounds);
        self.puts.extend(other.puts);
        self.put_bytes = self.put_bytes.max(other.put_bytes);
        self.mismatches.extend(other.mismatches);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The object shape `shape` of round `round` queries. With more objects
/// than shapes (`query_cold`), the shapes of one round go to objects a
/// quarter-cycle apart, so a chunk two shapes share has left the LRU
/// before it is read again.
pub fn query_object(fx: &Fixture, round: usize, shape: usize) -> &str {
    let n = fx.objects.len();
    &fx.objects[(round + shape * (n / SHAPES.len())) % n]
}

/// The GET offsets of round `round`: seeded, the same in every pass.
/// Every GET target holds the main file.
pub fn get_offsets(fx: &Fixture, round: usize) -> Vec<u64> {
    let mut rng = Rng::new(fx.seed.wrapping_mul(0x1000_0001).wrapping_add(round as u64));
    let max = fx.main.file.len() as u64 - fx.spec.get_len;
    let split = fx.split.get(round % fx.objects.len());
    (0..fx.spec.gets_per_round)
        .map(|i| match split {
            Some((lost, kept)) if !lost.is_empty() => {
                pick(&mut rng, if i % 2 == 0 { lost } else { kept }).min(max)
            }
            _ => rng.below(max),
        })
        .collect()
}

/// One reader round: the query mix, then the ranged GETs of `get_key`.
/// Rounds that hit an error count as failed.
fn reader_round(
    fx: &Fixture,
    conn: &mut Conn,
    round: usize,
    get_key: &str,
    m: &mut Measured,
    tr: &mut Tracer,
) {
    let op = round as u64;
    let s = tr.begin("bench.round", op);
    let t0 = Instant::now();
    let mut ok = true;
    m.rounds.attempted += 1;
    for (i, (shape, want)) in SHAPES.iter().zip(&fx.expected).enumerate() {
        m.shapes[i].attempted += 1;
        let q0 = Instant::now();
        match query(conn, query_object(fx, round, i), shape, want, tr, op) {
            Ok(verdict) => {
                m.shapes[i].push(ms(q0.elapsed()));
                if let Err(e) = verdict {
                    m.mismatches.push(e);
                }
            }
            Err(_) => {
                m.shapes[i].failed += 1;
                ok = false;
            }
        }
    }
    if ok {
        m.rounds.push(ms(t0.elapsed()));
    } else {
        m.rounds.failed += 1;
    }
    let data = fx.bytes(Content::Main);
    let (mut total, mut done) = (0.0, 0usize);
    for off in get_offsets(fx, round) {
        m.gets.attempted += 1;
        let g0 = Instant::now();
        match get(conn, get_key, off, fx.spec.get_len, tr, op) {
            Ok(bytes) => {
                let took = ms(g0.elapsed());
                m.gets.push(took);
                total += took;
                done += 1;
                if let Err(e) = mix::check_range(get_key, data, off, &bytes) {
                    m.mismatches.push(e);
                }
            }
            Err(_) => m.gets.failed += 1,
        }
    }
    if done > 0 {
        m.get_rounds.push(total / done as f64);
    }
    tr.end(s);
}

/// One timed PUT plus its untimed read-back.
fn timed_put(
    fx: &Fixture,
    conn: &mut Conn,
    key: String,
    content: Content,
    m: &mut Measured,
    tr: &mut Tracer,
    op: u64,
) {
    let data = fx.bytes(content);
    m.puts.attempted += 1;
    m.put_bytes = data.len();
    let s = tr.begin("bench.put", op);
    let t0 = Instant::now();
    let r = put(conn, &key, data, tr, op);
    let took = ms(t0.elapsed());
    tr.end(s);
    match r {
        Ok(()) => {
            m.puts.push(took);
            if let Err(e) = fx.settle_put(key, content) {
                m.mismatches.push(e);
            }
        }
        Err(_) => m.puts.failed += 1,
    }
}

/// Runs whole rounds until `seconds` have passed. `first_round` keeps
/// round numbering (and so GET offsets) continuous across calls.
pub fn timed_phase(
    fx: &Fixture,
    seconds: f64,
    first_round: usize,
    tracers: &mut [Tracer],
) -> Measured {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut m = if fx.spec.ingest_tcp {
        ingest_phase(fx, deadline, first_round, tracers)
    } else {
        let tr = &mut tracers[0];
        let mut m = Measured::new();
        let mut conn = Conn::loopback(&fx.service);
        let mut round = first_round;
        let mut side = 0usize;
        while Instant::now() < deadline {
            let object = &fx.objects[round % fx.objects.len()];
            reader_round(fx, &mut conn, round, object, &mut m, tr);
            if fx.spec.side_put_every > 0
                && round % fx.spec.side_put_every == fx.spec.side_put_every - 1
            {
                let key = format!("side-{first_round:06}-{side:06}");
                timed_put(fx, &mut conn, key, Content::Side, &mut m, tr, round as u64);
                side += 1;
            }
            round += 1;
        }
        m
    };
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

/// Two TCP connections: a writer PUTs full-size objects back to back, a
/// reader runs the query mix and GETs ranges of the newest acknowledged
/// ingest object.
fn ingest_phase(
    fx: &Fixture,
    deadline: Instant,
    first_round: usize,
    tracers: &mut [Tracer],
) -> Measured {
    let server = fx.server.as_ref().expect("ingest_tcp has a server");
    let (reader_tr, writer_tr) = tracers.split_at_mut(1);
    let (reader_tr, writer_tr) = (&mut reader_tr[0], &mut writer_tr[0]);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut m = Measured::new();
            let mut conn = Conn::tcp(server);
            let mut i = fx.newest.load(Ordering::Acquire) + 1;
            while Instant::now() < deadline {
                let key = Fixture::ingest_key(i);
                timed_put(
                    fx,
                    &mut conn,
                    key,
                    Content::Main,
                    &mut m,
                    writer_tr,
                    i as u64,
                );
                fx.newest.store(i, Ordering::Release);
                i += 1;
            }
            m
        });
        let reader = scope.spawn(|| {
            let mut m = Measured::new();
            let mut conn = Conn::tcp(server);
            let mut round = first_round;
            while Instant::now() < deadline {
                let newest = Fixture::ingest_key(fx.newest.load(Ordering::Acquire));
                reader_round(fx, &mut conn, round, &newest, &mut m, reader_tr);
                round += 1;
            }
            m
        });
        let mut m = reader.join().expect("reader thread");
        m.absorb(writer.join().expect("writer thread"));
        m
    })
}

/// The closing checks: `query_wire_KB` on an untimed pass, recovery and
/// whole read-back (degraded), and storage overhead.
pub struct Closing {
    pub query_wire_kb: f64,
    pub storage_overhead: f64,
}

pub fn close(fx: &Fixture) -> Result<Closing, String> {
    let object = &fx.objects[0];
    let wire: u64 = fx.service.with_store(|s| {
        SHAPES
            .iter()
            .map(|shape| s.query_as(object, shape.sql).map(|o| o.net_bytes))
            .sum::<Result<u64, _>>()
            .map_err(|e| e.to_string())
    })?;
    let mut tr = Tracer::off();
    let mut conn = Conn::loopback(&fx.service);
    if let Some(node) = fx.failed_node {
        conn.call(&Request::RecoverNode(node as u32), &mut tr, 0)?;
    }
    let resident = fx.resident();
    let whole: Vec<(String, &[u8])> = resident
        .iter()
        .map(|(k, c)| (k.clone(), fx.bytes(*c)))
        .collect();
    read_back(&mut conn, &whole)?;
    let user: u64 = resident
        .iter()
        .map(|(_, c)| fx.bytes(*c).len() as u64)
        .sum();
    let (stored, meta, ratio, threshold) = fx.service.with_store(|s| {
        let meta: u64 = resident
            .iter()
            .filter_map(|(k, _)| s.metadata_bytes(k))
            .sum();
        let cfg = s.config();
        (
            s.stored_bytes(),
            meta,
            1.0 + cfg.ec.optimal_overhead(),
            cfg.overhead_threshold,
        )
    });
    let overhead = stored as f64 / user as f64;
    check_overhead(stored, user, meta, ratio, threshold)?;
    Ok(Closing {
        query_wire_kb: wire as f64 / 1e3,
        storage_overhead: overhead,
    })
}

/// Reads every object back whole and compares it with the bytes PUT.
///
/// # Errors
///
/// A failed GET or the first object whose bytes differ.
pub fn read_back(conn: &mut Conn, objects: &[(String, &[u8])]) -> Result<(), String> {
    let mut tr = Tracer::off();
    for (key, data) in objects {
        let got = get(conn, key, 0, data.len() as u64, &mut tr, 0)?;
        if got.len() != data.len() {
            return Err(format!(
                "{key}: read back {} of {} B",
                got.len(),
                data.len()
            ));
        }
        mix::check_range(key, data, 0, &got)?;
    }
    Ok(())
}

/// FAC's storage bound: at least the code's n/k (`ratio`), at most
/// n/k × (1 + threshold) plus the metadata replicas.
pub fn check_overhead(
    stored: u64,
    user: u64,
    meta: u64,
    ratio: f64,
    threshold: f64,
) -> Result<(), String> {
    let lo = ratio * user as f64;
    let hi = ratio * (1.0 + threshold) * user as f64 + meta as f64;
    if (stored as f64) < lo || (stored as f64) > hi {
        return Err(format!(
            "storage: {stored} B stored for {user} B PUT, outside [{lo:.0}, {hi:.0}]"
        ));
    }
    Ok(())
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_format::prelude::{write_table, WriteOptions};
    use fusion_workloads::tpch::{lineitem, TpchConfig};

    #[test]
    fn degraded_read_back_detects_a_flipped_byte() {
        let cfg = TpchConfig {
            rows_per_group: 2_000,
            row_groups: 3,
            seed: 5,
        };
        let file = write_table(
            &lineitem(cfg),
            WriteOptions {
                rows_per_group: 2_000,
            },
        )
        .unwrap();
        let store = Store::new(store_config(12)).unwrap();
        let service = Arc::new(Service::start(store, 2));
        let mut conn = Conn::loopback(&service);
        let mut tr = Tracer::off();
        put(&mut conn, "t", &file, &mut tr, 0).unwrap();
        let node = service.with_store(|s| busiest_node(s, "t"));
        conn.call(&Request::FailNode(node as u32), &mut tr, 0)
            .unwrap();
        conn.call(&Request::RecoverNode(node as u32), &mut tr, 0)
            .unwrap();
        let objects = vec![("t".to_string(), file.as_slice())];
        read_back(&mut conn, &objects).unwrap();

        // Rewrite one block of the recovered node with a byte flipped and
        // a matching checksum: the store serves it without complaint.
        service.with_store(|s| {
            let meta = s.object("t").unwrap();
            let (sp, slot) = meta
                .placement
                .iter()
                .find_map(|sp| {
                    sp.nodes[..6]
                        .iter()
                        .position(|&n| n == node)
                        .map(|i| (sp.clone(), i))
                })
                .unwrap();
            let mut bytes = s.blocks().get(node, sp.block_ids[slot]).unwrap().to_vec();
            bytes[0] ^= 0x01;
            s.blocks_mut()
                .put(node, sp.block_ids[slot], bytes.into())
                .unwrap();
        });
        let err = read_back(&mut conn, &objects).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn overhead_bound_is_fac_at_rs_9_6() {
        let ratio = 1.0 + store_config(9).ec.optimal_overhead();
        assert_eq!(ratio, 1.5);
        assert!(check_overhead(1_500, 1_000, 0, ratio, 0.02).is_ok());
        assert!(check_overhead(1_530, 1_000, 0, ratio, 0.02).is_ok());
        assert!(check_overhead(1_531, 1_000, 0, ratio, 0.02).is_err());
        assert!(check_overhead(1_600, 1_000, 70, ratio, 0.02).is_ok());
        assert!(check_overhead(1_499, 1_000, 0, ratio, 0.02).is_err());
    }
}
