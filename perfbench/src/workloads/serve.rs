//! `serve_mix`: clients of `hpf-serve`. Two keep-alive connections, one
//! request in flight each (closed loop), against an in-process server
//! with two workers. The mix is mostly repeats of a hot set, with
//! near-repeats, first-seen bodies and small simulated sweeps that use the
//! cache layers differently from plain hits.
//!
//! The `serve` binary runs with `hpf_trace` enabled (it feeds
//! `/v1/metrics`), so this workload enables it too, in both runs; the
//! other workloads leave it off as the library ships.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hpf_serve::http::{read_response, Request};
use hpf_serve::{Api, CacheConfig, ServerConfig, ServerHandle};
use hpf_trace::json::{parse as parse_json, Value};

use super::{calibrate_all, err_pct, machines};
use crate::driver::{self, add, repeated_setup, Counts, EndToEnd, LayerInputs, Report, RunConfig};
use crate::spans::Recorder;
use crate::stats::{self, hash_bytes, Digest, Latency, Speedometer};
use crate::{dealt, draw, pick};

/// Connections (closed-loop clients) and server workers: the machine's
/// two hardware threads.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Requests in the census: long enough to include every class.
pub const CENSUS: u64 = 1500;
const HOT_SET: usize = 16;

const HOT_KERNELS: &[&str] = &[
    "PI",
    "LFK 1",
    "LFK 9",
    "PBS 1",
    "N-Body",
    "Financial",
    "Laplace (Blk-Blk)",
    "Laplace (X-Blk)",
];
const HOT_SIZES: &[usize] = &[64, 128, 256];
const PROCS: &[usize] = &[2, 4, 8, 16];
/// Kernels whose source first-seen requests submit inline.
const SOURCE_KERNELS: &[&str] = &["PI", "LFK 1", "PBS 1", "LFK 3"];
const SWEEP_KERNELS: &[&str] = &["PI", "LFK 1", "PBS 1", "LFK 3"];
const SWEEP_SIZES: &[&str] = &["[64, 128]", "[128, 256]", "[256, 512]"];
const SWEEP_PROCS: &[usize] = &[2, 4, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A byte-identical repeat of a hot body.
    Hit,
    /// A hot request with reordered keys and other spacing, or with an
    /// added `deadline_ms`: a wire-memo miss but a canonical-cache hit.
    NearHit,
    /// A predict body never sent before (inline source, distinct `n`).
    Miss,
    /// A small sweep with the DES cross-check.
    Sweep,
}

impl Class {
    fn label(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::NearHit => "near_hit",
            Class::Miss => "miss",
            Class::Sweep => "sweep",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Req {
    pub class: Class,
    pub path: &'static str,
    pub body: String,
}

/// The hot body `j` of a seed, as `(key, value)` pairs in canonical order.
fn hot_fields(seed: u64, j: u64) -> Vec<(&'static str, String)> {
    // Hot bodies are drawn from their own index space.
    let h = j | (1 << 40);
    let mut f = vec![
        ("kernel", format!("\"{}\"", pick(HOT_KERNELS, seed, h, 10))),
        ("n", pick(HOT_SIZES, seed, h, 11).to_string()),
        ("procs", pick(PROCS, seed, h, 12).to_string()),
    ];
    if draw(seed, h, 13).is_multiple_of(4) {
        f.push(("machine", format!("\"{}\"", pick(&machines(), seed, h, 14))));
    }
    f
}

fn render(fields: &[(&str, String)], spacing: &[usize]) -> String {
    let parts: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, (k, v))| {
            let pad = " ".repeat(spacing.get(i).copied().unwrap_or(1));
            format!("\"{k}\":{pad}{v}")
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// The request at index `i` of a seed: a pure function of both.
pub fn request_at(seed: u64, i: u64) -> Req {
    // Class shares are exact in every block of 1000 requests, and within
    // a class the choices are dealt evenly across blocks.
    let block = i / 1000;
    let r = dealt(seed, i, 1000);
    match r {
        0..=799 => Req {
            class: Class::Hit,
            path: "/v1/predict",
            body: render(&hot_fields(seed, r % HOT_SET as u64), &[]),
        },
        800..=899 => {
            let mut fields = hot_fields(seed, r % HOT_SET as u64);
            if draw(seed, i, 2).is_multiple_of(2) {
                fields.push(("deadline_ms", (60_000 + i).to_string()));
            } else {
                let shift = 1 + (draw(seed, i, 3) % (fields.len() as u64 - 1)) as usize;
                fields.rotate_left(shift);
            }
            let spacing: Vec<usize> = (0..fields.len())
                .map(|k| (draw(seed, i, 4 + k as u64) % 3) as usize)
                .collect();
            Req {
                class: Class::NearHit,
                path: "/v1/predict",
                body: render(&fields, &spacing),
            }
        }
        900..=979 => {
            let c = dealt(
                seed,
                block * 80 + r - 900,
                (SOURCE_KERNELS.len() * PROCS.len()) as u64,
            );
            let kernel = super::kernel(SOURCE_KERNELS[c as usize / PROCS.len()]);
            let procs = PROCS[c as usize % PROCS.len()];
            let src = kernel.source(kernel.size_range.0, procs);
            let body = Value::obj(vec![
                ("source", Value::Str(src)),
                // Distinct per op index: never seen earlier in the run.
                ("n", Value::Num((1024 + i) as f64)),
                ("procs", Value::Num(procs as f64)),
            ]);
            Req {
                class: Class::Miss,
                path: "/v1/predict",
                body: body.pretty(),
            }
        }
        _ => {
            let machines = machines();
            let dims = [
                SWEEP_KERNELS.len(),
                SWEEP_SIZES.len(),
                SWEEP_PROCS.len(),
                machines.len(),
            ];
            let mut c = dealt(
                seed,
                block * 20 + r - 980,
                dims.iter().product::<usize>() as u64,
            ) as usize;
            let mut next = |d: usize| {
                let v = c % d;
                c /= d;
                v
            };
            let (k, sz, p, m) = (next(dims[0]), next(dims[1]), next(dims[2]), next(dims[3]));
            Req {
                class: Class::Sweep,
                path: "/v1/sweep",
                body: format!(
                    r#"{{"kernel": "{}", "sizes": {}, "procs": {}, "simulate": true, "runs": 40, "machine": "{}"}}"#,
                    SWEEP_KERNELS[k], SWEEP_SIZES[sz], SWEEP_PROCS[p], machines[m],
                ),
            }
        }
    }
}

fn wire_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { writer: s, reader })
    }

    fn send(&mut self, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.writer
            .write_all(raw)
            .map_err(|e| format!("write: {e}"))?;
        let (status, _, body) = read_response(&mut self.reader).map_err(|e| e.message)?;
        Ok((status, body))
    }

    fn get(&mut self, path: &str) -> Result<Value, String> {
        let (status, body) = self.send(&wire_bytes("GET", path, ""))?;
        if status != 200 {
            return Err(format!("GET {path} answered {status}"));
        }
        parse_json(&String::from_utf8_lossy(&body)).map_err(|e| format!("{e:?}"))
    }
}

fn cursor_of(doc: &Value) -> Result<u64, String> {
    doc.get("cursor")
        .and_then(Value::as_f64)
        .map(|c| c as u64)
        .ok_or_else(|| "metrics document without cursor".to_string())
}

fn counter(doc: &Value, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64
}

/// A running server with its connected clients. Dropping it closes the
/// connections, then drains and joins every server thread.
struct Service {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
}

impl Service {
    fn start(clients: usize) -> Result<Service, String> {
        let handle = hpf_serve::start(
            "127.0.0.1:0",
            ServerConfig {
                workers: WORKERS,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("start server: {e}"))?;
        let addr = handle.addr();
        let clients = (0..clients)
            .map(|_| Client::connect(addr))
            .collect::<Result<_, _>>()?;
        Ok(Service {
            handle: Some(handle),
            clients,
        })
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            handle.wait();
        }
    }
}

/// What one client connection recorded over the window.
type ClientRun = (Vec<Sample>, Recorder, Speedometer);

/// One answered request.
struct Sample {
    index: u64,
    class: Class,
    ms: f64,
    /// Host-speed probe in force when the request was sent.
    probe: u64,
    traced: bool,
    status: u16,
    hash: u64,
}

fn set_up(seed: u64) -> Result<(Service, f64), String> {
    let calib_ms = calibrate_all(&machines(), PROCS)?;
    let mut svc = Service::start(CLIENTS)?;
    // Warm the hot set, as a service that has been up a while would be.
    for j in 0..HOT_SET as u64 {
        let body = render(&hot_fields(seed, j), &[]);
        let (status, _) = svc.clients[0].send(&wire_bytes("POST", "/v1/predict", &body))?;
        if status != 200 {
            return Err(format!("warm-up request {body} answered {status}"));
        }
    }
    Ok((svc, calib_ms))
}

/// Census: requests `0..CENSUS` on one connection to a fresh server, with
/// the service's own counters read from `/v1/metrics?since=`. A single
/// connection makes every count exact for the seed.
fn census(seed: u64) -> Result<(Counts, Digest, Digest), String> {
    let mut svc = Service::start(1)?;
    let c = &mut svc.clients[0];
    let cursor = cursor_of(&c.get("/v1/metrics")?)?;
    let mut input = Digest::default();
    let mut output = Digest::default();
    for i in 0..CENSUS {
        let req = request_at(seed, i);
        input.str(req.path);
        input.str(&req.body);
        let (status, body) = c.send(&wire_bytes("POST", req.path, &req.body))?;
        if status != 200 {
            return Err(format!("census request {i} answered {status}"));
        }
        output.u64(hash_bytes(&body));
    }
    let delta = c.get(&format!("/v1/metrics?since={cursor}"))?;
    drop(svc);
    let mut counts = Counts::new();
    for (name, key) in [
        ("hpf-serve.singleflight.leader", "serve.singleflight.leader"),
        ("ipsc-sim.events", "sim.events"),
        ("hpf-serve.cache.hit", "serve.cache.hit"),
        ("hpf-serve.cache.miss", "serve.cache.miss"),
        ("hpf-serve.cache.wire_hit", "serve.cache.wire_hit"),
        ("hpf-serve.requests", "serve.requests"),
    ] {
        add(&mut counts, name, counter(&delta, key));
    }
    Ok((counts, input, output))
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Mean |predicted − measured| / measured over a sweep body's points.
fn sweep_err_pct(body: &[u8]) -> Vec<f64> {
    let Ok(doc) = parse_json(&String::from_utf8_lossy(body)) else {
        return Vec::new();
    };
    doc.get("points")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            let pred = p.get("predicted_s")?.as_f64()?;
            let meas = p.get("measured_s")?.as_f64()?;
            Some(err_pct(pred, meas))
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    hpf_trace::enable();
    let census = if cfg.trace {
        Some(census(cfg.seed)?)
    } else {
        None
    };

    let mut speed = Speedometer::new();
    let mut setup = repeated_setup(&mut speed, || set_up(cfg.seed))?;
    let setup_s = setup.setup_s();
    let calib_ms = std::mem::take(&mut setup.calib_ms);
    let mut svc = setup.state;
    let cursor = cursor_of(&svc.clients[0].get("/v1/metrics")?)?;

    let next = AtomicU64::new(0);
    let start = Instant::now();
    let window = cfg.window();
    let results: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = svc
            .clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut rec = Recorder::new(start);
                    let mut speed = Speedometer::new();
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= CENSUS && start.elapsed() >= window {
                            break;
                        }
                        let req = request_at(cfg.seed, i);
                        let raw = wire_bytes("POST", req.path, &req.body);
                        let traced = cfg.trace && i % 2 == 1;
                        let probe = speed.current();
                        let t0 = Instant::now();
                        let answer = if traced {
                            rec.op(i, |r| r.span("hpf-serve.wire", |_| client.send(&raw)))
                        } else {
                            client.send(&raw)
                        };
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let (status, body) = answer?;
                        samples.push(Sample {
                            index: i,
                            class: req.class,
                            ms,
                            probe,
                            traced,
                            status,
                            hash: hash_bytes(&body),
                        });
                    }
                    Ok((samples, rec, speed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let rss_mb = stats::peak_rss_mb();
    let delta = svc.clients[0].get(&format!("/v1/metrics?since={cursor}"))?;
    drop(svc);

    let mut samples = Vec::new();
    let mut rec = Recorder::new(start);
    let mut probes = Vec::new();
    for r in results {
        let (s, r, sp) = r?;
        samples.extend(s);
        rec.absorb(r);
        probes.extend_from_slice(sp.probes());
    }
    samples.sort_by_key(|s| s.index);

    // Check every answer against the bytes a separate, fresh `Api`
    // returns for the same body. The traced run replays the whole
    // sequence on one thread, timing each `Api::handle`; the untraced run
    // handles each distinct body once, on two threads.
    let mut report = Report::default();
    let api = Api::new(&CacheConfig::default());
    let reqs: Vec<Req> = samples
        .iter()
        .map(|s| request_at(cfg.seed, s.index))
        .collect();
    let digest = |req: &Req, resp: &hpf_serve::ApiResponse| {
        let errs = if req.class == Class::Sweep {
            sweep_err_pct(&resp.body)
        } else {
            Vec::new()
        };
        (resp.status, hash_bytes(&resp.body), errs)
    };
    let answer = |req: &Req| digest(req, &api.handle(&post(req.path, &req.body)));
    let mut handle_ms = Vec::new();
    let answers: Vec<(u16, u64, Vec<f64>)> = if cfg.trace {
        reqs.iter()
            .map(|req| {
                let r = post(req.path, &req.body);
                let t = Instant::now();
                let resp = api.handle(&r);
                handle_ms.push(t.elapsed().as_secs_f64() * 1e3);
                digest(req, &resp)
            })
            .collect()
    } else {
        let mut slot: HashMap<&str, usize> = HashMap::new();
        let mut distinct: Vec<&Req> = Vec::new();
        let idx: Vec<usize> = reqs
            .iter()
            .map(|r| {
                *slot.entry(r.body.as_str()).or_insert_with(|| {
                    distinct.push(r);
                    distinct.len() - 1
                })
            })
            .collect();
        let half = distinct.len().div_ceil(2);
        let parts: Vec<Vec<(u16, u64, Vec<f64>)>> = std::thread::scope(|sc| {
            let handles: Vec<_> = distinct
                .chunks(half.max(1))
                .map(|chunk| sc.spawn(move || chunk.iter().map(|r| answer(r)).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let by_distinct: Vec<&(u16, u64, Vec<f64>)> = parts.iter().flatten().collect();
        idx.iter().map(|&k| by_distinct[k].clone()).collect()
    };
    let mut errs = Vec::new();
    let mut sweep_errs = Vec::new();
    let mut output_digest = Digest::default();
    let mut input_digest = Digest::default();
    for ((s, req), (status, hash, errs_pct)) in samples.iter().zip(&reqs).zip(answers) {
        if s.index < CENSUS {
            input_digest.str(req.path);
            input_digest.str(&req.body);
            output_digest.u64(s.hash);
        }
        report.attempted += 1;
        if s.status != 200 || status != 200 || s.hash != hash {
            report.failed += 1;
            if errs.len() < 10 {
                errs.push(format!(
                    "failed request {} ({}): status {} (reference {status}), bytes {}",
                    s.index,
                    req.class.label(),
                    s.status,
                    if s.hash == hash { "equal" } else { "differ" }
                ));
            }
        } else if req.class == Class::Sweep {
            sweep_errs.extend(errs_pct);
        }
    }
    report.notes.extend(errs);
    report.notes.push(format!(
        "digest input={} output={} census_ops={CENSUS}",
        input_digest.hex(),
        output_digest.hex()
    ));

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for s in &ok {
        by_class.entry(s.class).or_default().push(s.ms);
    }
    for (class, ms) in &by_class {
        let l = Latency::of(ms);
        report.notes.push(format!(
            "class {} p50_ms={} p99_ms={} samples={}",
            class.label(),
            l.p50,
            l.p99,
            l.count
        ));
    }
    let hits = counter(&delta, "serve.cache.hit");
    let lookups = hits + counter(&delta, "serve.cache.miss");
    let wire_hits = counter(&delta, "serve.cache.wire_hit");
    report.notes.push(format!(
        "window serve.cache.hit={hits} serve.cache.miss={} serve.cache.wire_hit={wire_hits} serve.singleflight.leader={} serve.singleflight.parked={}",
        lookups - hits,
        counter(&delta, "serve.singleflight.leader"),
        counter(&delta, "serve.singleflight.parked"),
    ));

    if !cfg.trace {
        let lat: Vec<f64> = ok
            .iter()
            .map(|s| stats::normalized(s.ms, s.probe))
            .collect();
        let predict: Vec<f64> = ok
            .iter()
            .filter(|s| s.class != Class::Sweep)
            .map(|s| stats::normalized(s.ms, s.probe))
            .collect();
        report
            .notes
            .push(stats::speed_note(&probes, ok.len(), window_s));
        report.metrics = driver::end_to_end(EndToEnd {
            setup_s,
            setup_reps: driver::SETUP_REPS,
            clients: CLIENTS,
            latency_ms: &lat,
            predict_ms: &predict,
            pred_err_pct: &sweep_errs,
            rss_mb,
        });
        return Ok(report);
    }

    let (counts_census, census_in, census_out) = census.expect("traced runs take a census");
    if census_in.value() != input_digest.value() || census_out.value() != output_digest.value() {
        report.failed += 1;
        report.notes.push(format!(
            "census digests input={} output={} differ from the window's",
            census_in.hex(),
            census_out.hex()
        ));
    }
    let norm_ms = |s: &Sample| stats::normalized(s.ms, s.probe);
    let traced_ms: Vec<f64> = ok.iter().filter(|s| s.traced).map(|s| norm_ms(s)).collect();
    let plain_ms: Vec<f64> = ok
        .iter()
        .filter(|s| !s.traced)
        .map(|s| norm_ms(s))
        .collect();
    let probe_of: HashMap<u64, u64> = samples.iter().map(|s| (s.index, s.probe)).collect();
    let scale = |op: u64| stats::normalized(1.0, probe_of[&op]);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let p50 = |c: Class| by_class.get(&c).map_or(0.0, |v| Latency::of(v).p50);
    let mut extra: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Median request: the in-process handler's time, and what the wire
    // adds to it (the request's latency minus its replayed handle time).
    let transport_ms: Vec<f64> = samples
        .iter()
        .zip(&handle_ms)
        .filter(|(s, _)| s.status == 200)
        .map(|(s, h)| s.ms - h)
        .collect();
    extra.insert("hpf-serve.handle.ms", Latency::of(&handle_ms).p50);
    extra.insert("hpf-serve.transport.ms", Latency::of(&transport_ms).p50);
    extra.insert("hpf-serve.hit_p50_ms", p50(Class::Hit));
    extra.insert("hpf-serve.near_hit_p50_ms", p50(Class::NearHit));
    extra.insert("hpf-serve.miss_p50_ms", p50(Class::Miss));
    extra.insert("hpf-serve.sweep_p50_ms", p50(Class::Sweep));
    extra.insert("hpf-serve.cache.hit_ratio", ratio(hits, lookups));
    extra.insert("hpf-serve.cache.wire_hit_ratio", ratio(wire_hits, lookups));
    let layers = LayerInputs {
        self_ns: rec.self_ns(scale),
        traced_ops: rec.ops(),
        op_ns: rec.op_ns(scale),
        counts_all: Counts::new(),
        counts_census,
        extra,
        calibrate_ms: stats::median(&calib_ms),
        overhead_pct: driver::overhead_pct(&traced_ms, &plain_ms),
        failed_ratio: report.failed as f64 / report.attempted.max(1) as f64,
    };
    report.metrics = driver::per_layer(&layers);
    report
        .notes
        .extend(driver::census_notes(&layers.counts_census));
    report.notes.push(driver::attribution_note(&layers));
    driver::write_spans(cfg, &rec);
    Ok(report)
}
