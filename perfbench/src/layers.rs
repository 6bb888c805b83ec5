//! The traced run: the timed phase once untraced and once with spans
//! around every client step, then a replay of the same rounds through
//! each layer's public functions, timed and counted per layer.

use crate::mix::SHAPES;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::workload::{self, Conn, Content, Fixture};
use crate::{metric, Metric};
use fusion_cluster::store::BlockId;
use fusion_core::layout::{fac, items_from_meta};
use fusion_core::placement::{object_key, place_stripe};
use fusion_core::{Store, StripeShape};
use fusion_ec::pool::WorkerPool;
use fusion_format::chunk::{decode_column_chunk, read_encoded_chunk};
use fusion_format::util::{crc32, Cursor};
use fusion_service::{Request, Response, TcpServer};
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{eval_filter_encoded, group_aggregate_encoded, AggInput};
use fusion_sql::plan::QueryPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Rounds replayed through the layers; each metric is the median of its
/// values.
const REPLAY_ROUNDS: usize = 6;

/// Operation ids of replayed rounds start here, apart from timed rounds.
const REPLAY_OP: u64 = 1 << 32;

/// Every per-layer metric, with its unit, in print order.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("service.proto_us", "us/op"),
    ("service.call_us", "us/op"),
    ("service.tcp_us", "us/op"),
    ("core.store.query_us", "us/shape"),
    ("core.store.get_us", "us"),
    ("core.store.put_ms", "ms"),
    ("core.query.chunks_considered", "count/round"),
    ("core.query.pruned_chunks", "count/round"),
    ("core.query.pushdown_ratio", "ratio"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.get_us", "us"),
    ("core.cache.resident_MB", "MB"),
    ("core.meta.chunk_node_us", "us"),
    ("core.meta.lookups_per_round", "count"),
    ("core.layout.fac_pack_us", "us/object"),
    ("core.placement.place_us", "us/object"),
    ("core.store.repair_bytes_per_round", "B"),
    ("cluster.blockstore.has_block_us", "us/probe"),
    ("cluster.blockstore.get_range_us", "us"),
    ("cluster.blockstore.bytes_served_per_round", "B"),
    ("format.crc32_MBps", "MB/s"),
    ("format.parse_us_per_chunk", "us"),
    ("format.decode_us_per_chunk", "us"),
    ("snappy.decompress_MBps", "MB/s"),
    ("snappy.compress_MBps", "MB/s"),
    ("sql.parse_plan_us", "us/query"),
    ("sql.eval_us_per_chunk", "us"),
    ("sql.group_agg_us", "us/rowgroup"),
    ("ec.pool_call_us", "us"),
    ("ec.encode_MBps", "MB/s"),
    ("ec.reconstruct_MBps", "MB/s"),
    ("workloads.generate_s", "s"),
];

/// Values of each metric: one per replayed round, or one per operation
/// for `service.call_us`, whose per-operation differences of two
/// ~10 ms calls would make a per-round mean swing below zero.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, Vec<f64>>);

impl Acc {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Mean of `total` over `n` items, pushed when `n > 0`.
    fn mean(&mut self, name: &'static str, total: f64, n: usize) {
        if n > 0 {
            self.push(name, total / n as f64);
        }
    }

    fn rate_mbps(&mut self, name: &'static str, bytes: usize, secs: f64) {
        if secs > 0.0 {
            self.push(name, bytes as f64 / 1e6 / secs);
        }
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs `f` inside a span and returns its result and elapsed seconds.
fn timed<R>(tr: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = tr.time(name, op, f);
    (r, t0.elapsed().as_secs_f64())
}

pub fn run(fx: &Fixture, seconds: f64) -> Result<bool, String> {
    let cache0 = fx.service.with_store(|s| s.chunk_cache().stats());
    let half = seconds / 2.0;
    let mut off = [Tracer::off(), Tracer::off()];
    let plain = workload::timed_phase(fx, half, 0, &mut off);
    let epoch = Instant::now();
    let mut tracers = [Tracer::on(epoch), Tracer::on(epoch)];
    let traced = workload::timed_phase(fx, half, plain.rounds.attempted as usize, &mut tracers);
    let cache1 = fx.service.with_store(|s| s.chunk_cache().stats());
    let overhead = traced.rounds.median() / plain.rounds.median() - 1.0;
    println!("{}", plain.rounds.summary("untraced query_round", "ms"));
    println!("{}", traced.rounds.summary("traced query_round", "ms"));
    println!("tracing overhead on query_ms: {:+.2}%", overhead * 100.0);

    let mut acc = Acc::default();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    println!("core.cache.hit_ratio base: {hits} hits, {misses} misses over the timed phase");
    acc.push(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    acc.push("core.cache.resident_MB", cache1.resident_bytes as f64 / 1e6);
    acc.push("workloads.generate_s", fx.generate_s);

    let mut replay = Tracer::on(epoch);
    let local_server;
    let server = match &fx.server {
        Some(s) => s,
        None => {
            local_server = TcpServer::bind(Arc::clone(&fx.service), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            &local_server
        }
    };
    let mut tcp = Conn::tcp(server);
    let mut lo = Conn::loopback(&fx.service);
    let mut pushed = (0usize, 0usize);
    for r in 0..REPLAY_ROUNDS {
        let s = replay.begin("bench.replay_round", REPLAY_OP + r as u64);
        replay_round(fx, r, &mut replay, &mut acc, &mut tcp, &mut lo, &mut pushed)?;
        replay.end(s);
    }
    drop(tcp);
    println!(
        "core.query.pushdown_ratio base: {} of {} projection decisions pushed down",
        pushed.0, pushed.1
    );
    if pushed.1 > 0 {
        acc.push(
            "core.query.pushdown_ratio",
            pushed.0 as f64 / pushed.1 as f64,
        );
    }

    let all: [(usize, &[trace::Span]); 3] = [
        (0, &tracers[0].spans),
        (1, &tracers[1].spans),
        (2, &replay.spans),
    ];
    let mut spans: Vec<trace::Span> = Vec::new();
    for (_, s) in &all {
        // Parents index within their own tracer; shift them into `spans`.
        let base = spans.len();
        spans.extend(s.iter().map(|x| trace::Span {
            parent: x.parent.map(|p| p + base),
            ..x.clone()
        }));
    }
    println!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in trace::self_times(&spans) {
        println!(
            "{name:<34} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-seed{}.jsonl", fx.spec.name, fx.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace::to_jsonl(&all))) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: {} kept, not written ({e})", spans.len()),
    }

    let mut metrics: Vec<Metric> = Vec::new();
    for (name, unit) in LAYER_METRICS {
        let v = acc.0.get(name).map_or(f64::NAN, |v| median(v));
        metrics.push(metric(name, v, unit));
    }
    for (name, v) in &acc.0 {
        if !LAYER_METRICS.iter().any(|(m, _)| m == name) {
            println!(
                "detail {name}: median {:.3} over {} samples",
                median(v),
                v.len()
            );
        }
    }
    let mut ok = plain.mismatches.is_empty() && traced.mismatches.is_empty();
    for e in plain.mismatches.iter().chain(&traced.mismatches).take(5) {
        println!("MISMATCH {e}");
    }
    for m in &metrics {
        if !m.value.is_finite() {
            println!("metric {} has no value", m.name);
            ok = false;
        }
    }
    let (attempted, failed) = (
        plain.attempted() + traced.attempted(),
        plain.failed() + traced.failed(),
    );
    println!("{}", crate::result_line(ok, attempted, failed, &metrics));
    Ok(ok)
}

/// The objects, GET target and PUT content of replayed round `r`: those
/// of timed round `r`.
struct RoundOps {
    /// The object each shape queries.
    queries: Vec<String>,
    /// The round's own object, for the object-level metrics.
    object: String,
    get_key: String,
    offsets: Vec<u64>,
    put: Option<Content>,
}

fn round_ops(fx: &Fixture, r: usize) -> RoundOps {
    let object = fx.objects[r % fx.objects.len()].clone();
    let get_key = if fx.spec.ingest_tcp {
        Fixture::ingest_key(fx.newest.load(std::sync::atomic::Ordering::Acquire))
    } else {
        object.clone()
    };
    let put = if fx.spec.ingest_tcp {
        Some(Content::Main)
    } else if fx.spec.side_put_every > 0 {
        Some(Content::Side)
    } else {
        None
    };
    RoundOps {
        queries: (0..SHAPES.len())
            .map(|i| workload::query_object(fx, r, i).to_string())
            .collect(),
        offsets: workload::get_offsets(fx, r),
        object,
        get_key,
        put,
    }
}

fn replay_round(
    fx: &Fixture,
    r: usize,
    tr: &mut Tracer,
    acc: &mut Acc,
    tcp: &mut Conn,
    lo: &mut Conn,
    pushed: &mut (usize, usize),
) -> Result<(), String> {
    let op = REPLAY_OP + r as u64;
    let ops = round_ops(fx, r);
    let len = fx.spec.get_len;
    let mut reqs: Vec<Request> = SHAPES
        .iter()
        .zip(&ops.queries)
        .map(|(s, object)| Request::Query {
            object: object.clone(),
            sql: s.sql.to_string(),
        })
        .collect();
    reqs.extend(ops.offsets.iter().map(|&offset| Request::Get {
        key: ops.get_key.clone(),
        offset,
        len,
    }));

    // Service layer: frame codec, call overhead over the direct store
    // operation, TCP over loopback.
    let (mut proto, mut tcp_extra) = (0.0, 0.0);
    let direct = |tr: &mut Tracer, req: &Request| {
        fx.service.with_store(|s| {
            let t0 = Instant::now();
            match req {
                Request::Query { object, sql } => {
                    tr.time("core.store.query", op, || s.query_as(object, sql).map(drop))
                }
                Request::Get { key, offset, len } => {
                    tr.time("core.store.get", op, || s.get(key, *offset, *len).map(drop))
                }
                _ => Ok(()),
            }
            .map(|()| t0.elapsed().as_secs_f64())
            .map_err(|e| e.to_string())
        })
    };
    for req in &reqs {
        // An untimed pass first, so the service call and the direct call
        // meet the same chunk-cache state.
        direct(&mut Tracer::off(), req)?;
        let (resp, t_call) = timed(tr, "service.call", op, || fx.service.call(req.clone()));
        if let Response::Err { code, message } = &resp {
            return Err(format!("replay {req:?}: {code:?} {message}"));
        }
        let t_direct = direct(tr, req)?;
        acc.push("service.call_us", (t_call - t_direct) * 1e6);
        let class = if matches!(req, Request::Query { .. }) {
            "service.call_us.query"
        } else {
            "service.call_us.get"
        };
        acc.push(class, (t_call - t_direct) * 1e6);
        proto += codec_us(tr, op, req, &resp)?;
        let body = req.encode();
        let (_, t_tcp) = timed(tr, "service.tcp.call", op, || tcp.raw(&body));
        let (_, t_lo) = timed(tr, "service.loopback.call", op, || lo.raw(&body));
        tcp_extra += (t_tcp - t_lo) * 1e6;
    }
    let mut n_ops = reqs.len();
    if let Some(content) = ops.put {
        let data = fx.bytes(content).to_vec();
        let svc_key = format!("replay-svc-{r}");
        let req = Request::Put {
            key: svc_key.clone(),
            data: data.clone(),
        };
        let (resp, t_call) = timed(tr, "service.call", op, || fx.service.call(req.clone()));
        if let Response::Err { code, message } = &resp {
            return Err(format!("replay PUT: {code:?} {message}"));
        }
        proto += codec_us(tr, op, &req, &resp)?;
        let dir_key = format!("replay-dir-{r}");
        let t_direct = fx.service.with_store(|s| {
            let t0 = Instant::now();
            let out = tr.time("core.store.put", op, || s.put(&dir_key, data));
            let t = t0.elapsed().as_secs_f64();
            out.map_err(|e| e.to_string())?;
            s.delete(&dir_key)
                .and_then(|()| s.delete(&svc_key))
                .map_err(|e| e.to_string())?;
            Ok::<f64, String>(t)
        })?;
        acc.push("service.call_us", (t_call - t_direct) * 1e6);
        acc.push("service.call_us.put", (t_call - t_direct) * 1e6);
        acc.push("core.store.put_ms", t_direct * 1e3);
        n_ops += 1;
    }
    acc.mean("service.proto_us", proto, n_ops);
    acc.mean("service.tcp_us", tcp_extra, reqs.len());

    fx.service
        .with_store(|s| store_layers(fx, s, &ops, op, tr, acc, pushed))
}

/// Request and response `encode` + `decode`, µs.
fn codec_us(tr: &mut Tracer, op: u64, req: &Request, resp: &Response) -> Result<f64, String> {
    let t0 = Instant::now();
    let s = tr.begin("service.proto", op);
    let body = req.encode();
    let back = Request::decode(&body).map_err(|e| e.to_string())?;
    let rbody = resp.encode();
    let rback = Response::decode(&rbody).map_err(|e| e.to_string())?;
    tr.end(s);
    let took = us(t0);
    std::hint::black_box((back, rback));
    Ok(took)
}

/// Counters of the store's registry that a round moves.
fn counters(s: &Store) -> (u64, u64, u64) {
    let m = s.metrics();
    let served: u64 = (0..s.config().cluster.nodes)
        .map(|n| s.blocks().bytes_served(n))
        .sum();
    (
        m.counter("meta_lookups").get(),
        m.counter("repair_bytes_moved").get(),
        served,
    )
}

/// Direct calls into core, cluster, format, snappy, sql and ec on the
/// chunks and blocks round `ops` touches.
fn store_layers(
    fx: &Fixture,
    s: &Store,
    ops: &RoundOps,
    op: u64,
    tr: &mut Tracer,
    acc: &mut Acc,
    pushed: &mut (usize, usize),
) -> Result<(), String> {
    let e = |e: fusion_core::StoreError| e.to_string();
    let object = ops.object.as_str();

    // core.store / core.query / core.meta: one direct round.
    let before = counters(s);
    let (mut q_us, mut considered, mut pruned) = (0.0, 0usize, 0usize);
    for (shape, object) in SHAPES.iter().zip(&ops.queries) {
        let t0 = Instant::now();
        let out = tr
            .time("core.store.query", op, || s.query_as(object, shape.sql))
            .map_err(e)?;
        q_us += us(t0);
        considered += out.chunks_considered;
        pruned += out.pruned_chunks;
        pushed.0 += out.decisions.iter().filter(|d| d.pushed_down).count();
        pushed.1 += out.decisions.len();
    }
    let after_queries = counters(s);
    let mut get_us = 0.0;
    for &off in &ops.offsets {
        let t0 = Instant::now();
        tr.time("core.store.get", op, || {
            s.get(&ops.get_key, off, fx.spec.get_len)
        })
        .map_err(e)?;
        get_us += us(t0);
    }
    let after = counters(s);
    acc.mean("core.store.query_us", q_us, SHAPES.len());
    acc.mean("core.store.get_us", get_us, ops.offsets.len());
    acc.push("core.query.chunks_considered", considered as f64);
    acc.push("core.query.pruned_chunks", pruned as f64);
    acc.push(
        "core.meta.lookups_per_round",
        (after_queries.0 - before.0) as f64,
    );
    acc.push(
        "core.store.repair_bytes_per_round",
        (after.1 - before.1) as f64,
    );
    acc.push(
        "cluster.blockstore.bytes_served_per_round",
        (after.2 - before.2) as f64,
    );

    let meta = s.object(object).map_err(e)?;
    let fm = meta
        .file_meta
        .as_ref()
        .ok_or("query object has no footer")?;
    let schema = &fm.schema;

    // sql: parse + plan.
    let mut plans: Vec<QueryPlan> = Vec::new();
    let t0 = Instant::now();
    for shape in &SHAPES {
        let plan = tr
            .time("sql.parse_plan", op, || {
                fusion_sql::parser::parse(shape.sql)
                    .and_then(|q| fusion_sql::plan::plan(&q, schema))
            })
            .map_err(|e| e.to_string())?;
        plans.push(plan);
    }
    acc.mean("sql.parse_plan_us", us(t0), SHAPES.len());

    // The chunks the round touches. Every query object holds the same
    // file, so ordinals and types agree across objects.
    let mut touched: BTreeSet<(&str, usize)> = BTreeSet::new();
    for (plan, object) in plans.iter().zip(&ops.queries) {
        let cols = plan
            .filters
            .iter()
            .map(|f| f.column)
            .chain(plan.projections.iter().copied())
            .chain(plan.aggregates.iter().filter_map(|a| a.column))
            .chain(plan.group_by.iter().copied());
        for c in cols {
            for rg in 0..fm.row_groups.len() {
                touched.extend(meta.chunk_ordinal(rg, c).map(|o| (object.as_str(), o)));
            }
        }
    }
    let ty_of = |ord: usize| {
        let (rg, col, _) = fm.chunks().nth(ord).expect("ordinal within the file");
        debug_assert_eq!(meta.chunk_ordinal(rg, col), Some(ord));
        schema.fields()[col].ty
    };

    let (mut node_us, mut probe_us, mut probes, mut cget_us) = (0.0, 0.0, 0usize, 0.0);
    let (mut parse_us, mut decode_us, mut parsed) = (0.0, 0.0, 0usize);
    let (mut dec_bytes, mut dec_s) = (0usize, 0.0);
    let mut blocks: BTreeSet<(usize, BlockId)> = BTreeSet::new();
    for &(object, ord) in &touched {
        let t0 = Instant::now();
        std::hint::black_box(tr.time("core.meta.chunk_node", op, || s.chunk_node(object, ord)));
        node_us += us(t0);
        for f in s.object(object).map_err(e)?.chunk_fragments(ord) {
            let t0 = Instant::now();
            std::hint::black_box(tr.time("cluster.blockstore.has_block", op, || {
                s.blocks().has_block(f.node, f.block)
            }));
            probe_us += us(t0);
            probes += 1;
            if s.blocks().is_alive(f.node) {
                blocks.insert((f.node, f.block));
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(tr.time("core.cache.get", op, || s.chunk_cache().get(object, ord)));
        cget_us += us(t0);
        let bytes = s.chunk_bytes(object, ord).map_err(e)?;
        let ty = ty_of(ord);
        let t0 = Instant::now();
        tr.time("format.parse", op, || read_encoded_chunk(&bytes, ty))
            .map_err(|e| e.to_string())?;
        parse_us += us(t0);
        let t0 = Instant::now();
        tr.time("format.decode", op, || decode_column_chunk(&bytes, ty))
            .map_err(|e| e.to_string())?;
        decode_us += us(t0);
        parsed += 1;
        for page in pages(&bytes)? {
            let (out, t) = timed(tr, "snappy.decompress", op, || {
                fusion_snappy::decompress(page)
            });
            dec_bytes += out.map_err(|e| e.to_string())?.len();
            dec_s += t;
        }
    }
    acc.mean("core.meta.chunk_node_us", node_us, touched.len());
    acc.mean("cluster.blockstore.has_block_us", probe_us, probes);
    acc.mean("core.cache.get_us", cget_us, touched.len());
    acc.mean("format.parse_us_per_chunk", parse_us, parsed);
    acc.mean("format.decode_us_per_chunk", decode_us, parsed);
    acc.rate_mbps("snappy.decompress_MBps", dec_bytes, dec_s);

    // format: CRC-32 over the whole blocks those chunks live in.
    let (mut crc_bytes, mut crc_s) = (0usize, 0.0);
    for &(node, id) in &blocks {
        let data = s.blocks().get(node, id).map_err(|e| e.to_string())?;
        let (c, t) = timed(tr, "format.crc32", op, || crc32(&data));
        std::hint::black_box(c);
        crc_bytes += data.len();
        crc_s += t;
    }
    acc.rate_mbps("format.crc32_MBps", crc_bytes, crc_s);

    // cluster: the round's ranged reads, straight off the block store.
    let gmeta = s.object(&ops.get_key).map_err(e)?;
    let (mut range_us, mut ranges) = (0.0, 0usize);
    for &off in &ops.offsets {
        for f in gmeta.locate(off, fx.spec.get_len) {
            if !s.blocks().is_alive(f.node) {
                continue;
            }
            let t0 = Instant::now();
            tr.time("cluster.blockstore.get_range", op, || {
                s.blocks()
                    .get_range(f.node, f.block, f.offset_in_block as usize, f.len as usize)
            })
            .map_err(|e| e.to_string())?;
            range_us += us(t0);
            ranges += 1;
        }
    }
    acc.mean("cluster.blockstore.get_range_us", range_us, ranges);

    // sql: filter evaluation on the encoded chunks, bitmap compression,
    // grouped aggregation.
    let (mut eval_us, mut evals, mut bm_bytes, mut bm_s) = (0.0, 0usize, 0usize, 0.0);
    let (mut agg_us, mut aggs) = (0.0, 0usize);
    for (plan, object) in plans.iter().zip(&ops.queries) {
        for rg in 0..fm.row_groups.len() {
            let mut combined: Option<Bitmap> = None;
            for leaf in &plan.filters {
                let ord = meta.chunk_ordinal(rg, leaf.column).ok_or("filter chunk")?;
                let (chunk, _) = s.encoded_chunk(object, ord, ty_of(ord)).map_err(e)?;
                let t0 = Instant::now();
                let bm = tr
                    .time("sql.eval_filter", op, || eval_filter_encoded(leaf, &chunk))
                    .map_err(|e| e.to_string())?;
                eval_us += us(t0);
                evals += 1;
                let raw = bm.to_bytes();
                let (z, t) = timed(tr, "snappy.compress", op, || fusion_snappy::compress(&raw));
                std::hint::black_box(z);
                bm_bytes += raw.len();
                bm_s += t;
                match &mut combined {
                    Some(c) => c.and_assign(&bm),
                    None => combined = Some(bm),
                }
            }
            if let ([key], Some(filter)) = (plan.group_by.as_slice(), &combined) {
                let kord = meta.chunk_ordinal(rg, *key).ok_or("key chunk")?;
                let (kchunk, _) = s.encoded_chunk(object, kord, ty_of(kord)).map_err(e)?;
                let mut cols = BTreeMap::new();
                for a in &plan.aggregates {
                    if let Some(c) = a.column.filter(|c| c != key) {
                        let ord = meta.chunk_ordinal(rg, c).ok_or("agg chunk")?;
                        let bytes = s.chunk_bytes(object, ord).map_err(e)?;
                        cols.insert(
                            c,
                            decode_column_chunk(&bytes, ty_of(ord)).map_err(|e| e.to_string())?,
                        );
                    }
                }
                let inputs: Vec<_> = plan
                    .aggregates
                    .iter()
                    .map(|a| {
                        let input = match a.column {
                            None => AggInput::Star,
                            Some(c) if c == *key => AggInput::Key,
                            Some(c) => AggInput::Col(&cols[&c]),
                        };
                        (a.func, input)
                    })
                    .collect();
                let t0 = Instant::now();
                tr.time("sql.group_aggregate", op, || {
                    group_aggregate_encoded(&kchunk, &inputs, filter)
                })
                .map_err(|e| e.to_string())?;
                agg_us += us(t0);
                aggs += 1;
            }
        }
    }
    acc.mean("sql.eval_us_per_chunk", eval_us, evals);
    acc.rate_mbps("snappy.compress_MBps", bm_bytes, bm_s);
    acc.mean("sql.group_agg_us", agg_us, aggs);

    // ec: the pool's per-call cost, stripe encode, reconstruction.
    let pool = WorkerPool::new(s.config().ec_threads);
    let mut items = [0u64; 2];
    let t0 = Instant::now();
    tr.time("ec.pool_call", op, || {
        pool.for_each_mut(&mut items, |_, x| *x += 1)
    });
    acc.push("ec.pool_call_us", us(t0));
    std::hint::black_box(items);
    ec_layers(fx, s, object, op, tr, acc)?;

    // core.layout / core.placement on the object's own items and stripes.
    let pack_items = items_from_meta(fm, meta.size);
    let k = s.config().ec.k;
    let t0 = Instant::now();
    std::hint::black_box(tr.time("core.layout.fac_pack", op, || fac::pack(k, &pack_items)));
    acc.push("core.layout.fac_pack_us", us(t0));
    let shape = StripeShape::from_codec(s.codec());
    let members: Vec<usize> = (0..s.config().cluster.nodes).collect();
    let okey = object_key("", object);
    let t0 = Instant::now();
    tr.time("core.placement.place", op, || {
        for stripe in 0..meta.layout.stripes.len() {
            std::hint::black_box(place_stripe(
                s.config().seed,
                okey,
                stripe as u64,
                &shape,
                &members,
                s.topology(),
            ));
        }
    });
    acc.push("core.placement.place_us", us(t0));
    Ok(())
}

/// Encode of every stripe whose data shards are readable, and
/// reconstruction of every stripe holding a shard on the failed node (the
/// node a failure would hit hardest, on healthy workloads).
fn ec_layers(
    fx: &Fixture,
    s: &Store,
    object: &str,
    op: u64,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<(), String> {
    let meta = s.object(object).map_err(|e| e.to_string())?;
    let codec = s.codec();
    let (n, k) = (codec.total_blocks(), codec.data_blocks());
    let lost = fx
        .failed_node
        .unwrap_or_else(|| workload::busiest_node(s, object));
    let (mut enc_bytes, mut enc_s, mut rec_bytes, mut rec_s) = (0usize, 0.0, 0usize, 0.0);
    for sp in &meta.placement {
        let width = sp.width as usize;
        let read = |i: usize| -> Option<Vec<u8>> {
            let mut b = s.blocks().get(sp.nodes[i], sp.block_ids[i]).ok()?.to_vec();
            b.resize(width, 0);
            Some(b)
        };
        let shards: Vec<Option<Vec<u8>>> = (0..n).map(read).collect();
        if shards[..k].iter().all(Option::is_some) {
            let data: Vec<Vec<u8>> = shards[..k].iter().flatten().cloned().collect();
            let mut parity = Vec::new();
            let (_, t) = timed(tr, "ec.encode", op, || {
                codec.encode_into(&data, &mut parity)
            });
            enc_bytes += k * width;
            enc_s += t;
        }
        if let Some(slot) = sp.nodes.iter().position(|&node| node == lost) {
            let mut shards = shards;
            shards[slot] = None;
            let (res, t) = timed(tr, "ec.reconstruct", op, || {
                codec.reconstruct(&mut shards, width)
            });
            res.map_err(|e| format!("reconstruct: {e:?}"))?;
            rec_bytes += k * width;
            rec_s += t;
        }
    }
    acc.rate_mbps("ec.encode_MBps", enc_bytes, enc_s);
    acc.rate_mbps("ec.reconstruct_MBps", rec_bytes, rec_s);
    Ok(())
}

/// The Snappy-compressed pages of a chunk: after the encoding byte, each
/// page is `[compressed_len][uncompressed_len][count][crc32]` (u32 LE)
/// and its bytes.
fn pages(chunk: &[u8]) -> Result<Vec<&[u8]>, String> {
    let mut c = Cursor::new(chunk);
    let e = |e: fusion_format::FormatError| e.to_string();
    c.u8().map_err(e)?;
    let mut out = Vec::new();
    while c.remaining() > 0 {
        let clen = c.u32().map_err(e)? as usize;
        for _ in 0..3 {
            c.u32().map_err(e)?;
        }
        out.push(c.bytes(clen).map_err(e)?);
    }
    Ok(out)
}
