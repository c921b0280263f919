//! The `serve_eco` workload: an in-process `placer-serve` daemon with its
//! default two workers, driven over loopback by two clients in a closed
//! loop (each sends its next request when the previous report arrives),
//! one tenant each.
//!
//! A pass is one round per client. A round visits the ten paper circuits
//! in a seeded order; per circuit it places two small-profile bases cold
//! (`xu19` and `eplace-a`), each spooling its placement, then sends
//! `DECKS_PER_BASE` seeded `.eco` decks (resize, add, weight) against each
//! base. `FALLBACKS_PER_ROUND` decks per round dirty more than the ECO
//! threshold, so the fallback path runs as well; they go to the `xu19`
//! bases, where a fallback costs milliseconds, not the seconds a cold
//! ePlace-A place of VCO1 takes. Rounds have a fixed mix, so the metrics do
//! not drift with where a timed run happens to stop.
//!
//! The traced run repeats the untraced pass list through a fresh daemon
//! under client-side spans, then replays the same requests in-process
//! through `JobEngine::run_job`, and every deck through
//! `NetlistDelta::apply`, `CircuitArtifacts::patched` and
//! `Placer::replace`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use analog_netlist::parser::parse_placement;
use analog_netlist::{testcases, Circuit, NetlistDelta};
use eplace::{CircuitArtifacts, EcoConfig, RunBudget};
use placer_jobs::json::{parse_object, Json};
use placer_jobs::{make_placer, JobEngine, JobSpec, Profile};
use placer_serve::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::check::{verify, Tally, TOL_FILE, TOL_MEMORY};
use crate::trace::Tracer;
use crate::{
    geomean, json_num, json_str, median, ratio, repeat_setup, tail, timed_passes, Ctx, Outcome,
};

const CLIENTS: usize = 2;
const DECKS_PER_BASE: usize = 4;
const FALLBACKS_PER_ROUND: usize = 4;
const PLACERS: [&str; 2] = ["xu19", "eplace-a"];

/// An ECO request's deck and what the benchmark expects of it.
#[derive(Clone)]
struct Eco {
    /// Key of the cold request whose placement warm-starts this one.
    base: String,
    deck: PathBuf,
    fallback: bool,
    dirty: f64,
    /// The edited circuit the returned placement must be legal for.
    patched: Arc<Circuit>,
}

#[derive(Clone)]
struct Request {
    key: String,
    client: usize,
    circuit: usize,
    placer: &'static str,
    eco: Option<Eco>,
}

impl Request {
    /// The job spec for this request in one phase (`prefix` keeps ids of
    /// different phases apart; `place_dir` holds that phase's placements).
    fn spec(&self, circuits: &[Circuit], prefix: &str, place_dir: &Path) -> JobSpec {
        let mut s = JobSpec::new(
            format!("{prefix}-{}", self.key),
            circuits[self.circuit].name().to_ascii_lowercase(),
            self.placer,
        );
        s.profile = Profile::Small;
        if let Some(e) = &self.eco {
            s.eco = Some(e.deck.display().to_string());
            let warm = place_dir.join(format!("{prefix}-{}.place", e.base));
            s.warm_start = Some(warm.display().to_string());
        }
        s
    }
}

/// Applies a deck to `circuit`; returns the edited circuit and its dirty
/// fraction.
fn apply(circuit: &Circuit, deck: &str) -> Result<(Circuit, f64), String> {
    let delta = NetlistDelta::parse(deck).map_err(|e| e.to_string())?;
    let applied = delta.apply(circuit).map_err(|e| e.to_string())?;
    let dirty = applied.dirty_fraction();
    Ok((applied.circuit, dirty))
}

fn resize_line(rng: &mut StdRng, device: &str) -> String {
    format!("resize {device} {:.3}\n", rng.gen_range(1.0..5.0))
}

/// A deck of one or two edits that stays under the ECO threshold.
fn fast_deck(
    c: &Circuit,
    rng: &mut StdRng,
    serial: &mut usize,
    threshold: f64,
) -> (String, Circuit, f64) {
    let mos: Vec<&str> = c
        .devices()
        .iter()
        .filter(|d| d.kind.is_transistor())
        .map(|d| d.name.as_str())
        .collect();
    let nets: Vec<&str> = c
        .nets()
        .iter()
        .filter(|n| n.is_routable())
        .map(|n| n.name.as_str())
        .collect();
    for _ in 0..8 {
        let mut deck = String::new();
        for _ in 0..rng.gen_range(1..3usize) {
            match rng.gen_range(0..3usize) {
                0 => {
                    let device = mos[rng.gen_range(0..mos.len())];
                    deck += &resize_line(rng, device);
                }
                1 => {
                    *serial += 1;
                    let kind = if rng.gen_bool(0.5) { "nmos" } else { "pmos" };
                    let pins: Vec<&str> =
                        (0..4).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                    deck += &format!(
                        "add eco{} {kind} {:.3} {}\n",
                        serial,
                        rng.gen_range(1.0..4.0),
                        pins.join(" ")
                    );
                }
                _ => {
                    deck += &format!(
                        "weight {} {:.3}\n",
                        nets[rng.gen_range(0..nets.len())],
                        rng.gen_range(0.5..2.0)
                    )
                }
            }
        }
        if let Ok((patched, dirty)) = apply(c, &deck) {
            if dirty <= threshold {
                return (deck, patched, dirty);
            }
        }
    }
    let deck = resize_line(rng, mos[0]);
    let (patched, dirty) = apply(c, &deck).expect("a single resize applies");
    (deck, patched, dirty)
}

/// A deck that resizes about 30% of the devices, over the ECO threshold.
fn fallback_deck(c: &Circuit, rng: &mut StdRng, threshold: f64) -> (String, Circuit, f64) {
    let mut mos: Vec<&str> = c
        .devices()
        .iter()
        .filter(|d| d.kind.is_transistor())
        .map(|d| d.name.as_str())
        .collect();
    mos.shuffle(rng);
    let want = (c.num_devices() * 3).div_ceil(10);
    let mut deck = String::new();
    for device in mos.iter().take(want.max(1)) {
        deck += &resize_line(rng, device);
    }
    let (patched, dirty) = apply(c, &deck).expect("resizes of existing devices apply");
    assert!(
        dirty > threshold,
        "{}: fallback deck dirties only {dirty}",
        c.name()
    );
    (deck, patched, dirty)
}

/// One client's requests for one round.
fn round(
    circuits: &[Circuit],
    seed: u64,
    client: usize,
    round: usize,
    deck_dir: &Path,
) -> Vec<Request> {
    let mix = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((client as u64) << 32) | round as u64);
    let mut rng = StdRng::seed_from_u64(mix);
    let threshold = EcoConfig::default().dirty_threshold;
    let mut order: Vec<usize> = (0..circuits.len()).collect();
    order.shuffle(&mut rng);
    let fallbacks: Vec<usize> = order[..FALLBACKS_PER_ROUND.min(order.len())].to_vec();
    order.shuffle(&mut rng);
    let mut serial = 0;
    let mut out = Vec::new();
    for &ci in &order {
        let c = &circuits[ci];
        let stem = format!("c{client}r{round}-{}", c.name().to_ascii_lowercase());
        for placer in PLACERS {
            out.push(Request {
                key: format!("{stem}-{placer}"),
                client,
                circuit: ci,
                placer,
                eco: None,
            });
        }
        for j in 0..DECKS_PER_BASE * PLACERS.len() {
            let placer = PLACERS[j % PLACERS.len()];
            let fallback = j == 0 && fallbacks.contains(&ci);
            let (text, patched, dirty) = if fallback {
                fallback_deck(c, &mut rng, threshold)
            } else {
                fast_deck(c, &mut rng, &mut serial, threshold)
            };
            let key = format!("{stem}-eco{j}");
            let deck = deck_dir.join(format!("{key}.eco"));
            std::fs::write(&deck, text).expect("write an ECO deck");
            out.push(Request {
                key,
                client,
                circuit: ci,
                placer,
                eco: Some(Eco {
                    base: format!("{stem}-{placer}"),
                    deck,
                    fallback,
                    dirty,
                    patched: Arc::new(patched),
                }),
            });
        }
    }
    out
}

/// One answered request, as the client saw it.
struct Done {
    request: Request,
    line: String,
    latency_ms: f64,
    accepted_ms: f64,
    report_ms: f64,
    queued: usize,
}

fn num(pairs: &[(String, Json)], key: &str) -> Option<f64> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Json::Num(n) => Some(*n),
            _ => None,
        })
}

fn text(pairs: &[(String, Json)], key: &str) -> Option<String> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        })
}

/// What a checked report says.
struct Checked {
    hpwl: f64,
    area: f64,
    fast: Option<bool>,
}

/// Checks one report line and the placement it spooled: status, the
/// reported legality, the oracle on the re-read placement, the HPWL and
/// area recomputed from it, and for a deck the path taken and the dirty
/// fraction.
fn check_report(
    line: &str,
    circuits: &[Circuit],
    r: &Request,
    place_dir: &Path,
) -> Result<Checked, String> {
    let pairs = parse_object(line)?;
    let status = text(&pairs, "status").unwrap_or_default();
    if status != "complete" {
        return Err(format!(
            "status `{status}`: {}",
            text(&pairs, "error").unwrap_or_default()
        ));
    }
    if !pairs
        .iter()
        .any(|(k, v)| k == "legal" && *v == Json::Bool(true))
    {
        return Err("report does not say legal".into());
    }
    let (hpwl, area) = match (num(&pairs, "hpwl"), num(&pairs, "area")) {
        (Some(h), Some(a)) => (h, a),
        _ => return Err("report lacks hpwl or area".into()),
    };
    let id = text(&pairs, "id").unwrap_or_default();
    let circuit = r.eco.as_ref().map_or(&circuits[r.circuit], |e| &*e.patched);
    let path = place_dir.join(format!("{id}.place"));
    let placement_text =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let placement = parse_placement(circuit, &placement_text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    verify(circuit, &placement, hpwl, area, TOL_FILE)?;
    let fast = match &r.eco {
        None => None,
        Some(e) => {
            let path_taken = text(&pairs, "eco").unwrap_or_default();
            let want = if e.fallback { "fallback" } else { "fast" };
            if path_taken != want {
                return Err(format!(
                    "deck took the `{path_taken}` path, expected `{want}`"
                ));
            }
            let dirty = num(&pairs, "dirty_fraction").unwrap_or(f64::NAN);
            if (dirty - e.dirty).abs() > 1e-12 {
                return Err(format!(
                    "dirty fraction {dirty}, the deck dirties {}",
                    e.dirty
                ));
            }
            Some(!e.fallback)
        }
    };
    Ok(Checked { hpwl, area, fast })
}

/// A running daemon with its connected clients; stops on drop.
struct Daemon {
    server: Option<Server>,
    clients: Vec<Client>,
    place_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            let _ = c.close();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Daemon {
    fn stats(&mut self) -> Vec<(String, Json)> {
        self.clients[0]
            .stats()
            .ok()
            .and_then(|line| parse_object(&line).ok())
            .unwrap_or_default()
    }
}

/// Starts a daemon spooling under `spool` and connects the clients; each
/// client's first request warms it up with a cold place of the smallest
/// circuit.
fn start_daemon(spool: &Path, circuits: &[Circuit], tally: &mut Tally) -> Daemon {
    let server = Server::start(ServerConfig {
        spool: spool.to_path_buf(),
        ..ServerConfig::default()
    })
    .expect("start the daemon on loopback");
    let mut daemon = Daemon {
        place_dir: spool.join("place"),
        clients: Vec::new(),
        server: None,
    };
    let addr = server.addr();
    daemon.server = Some(server);
    let smallest = (0..circuits.len())
        .min_by_key(|&i| circuits[i].num_devices())
        .expect("ten paper circuits");
    for i in 0..CLIENTS {
        let mut client =
            Client::connect(addr, &format!("tenant-{i}"), false).expect("connect to the daemon");
        let warm = Request {
            key: format!("warmup-c{i}"),
            client: i,
            circuit: smallest,
            placer: "xu19",
            eco: None,
        };
        let result = client
            .submit(&warm.spec(circuits, "w", &daemon.place_dir))
            .and_then(|_| client.collect_reports(1))
            .map_err(|e| e.to_string())
            .and_then(|lines| {
                check_report(&lines[0], circuits, &warm, &daemon.place_dir).map(|_| ())
            });
        tally.outcome("warm-up", result);
        daemon.clients.push(client);
    }
    daemon
}

/// Runs one pass: every client works through its round concurrently.
/// Returns what came back, refusals and transport errors counted in the
/// tally, and the pass's wall time.
fn run_pass(
    daemon: &mut Daemon,
    circuits: &[Circuit],
    rounds: &[Vec<Request>],
    prefix: &str,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Vec<Done>, f64) {
    let place_dir = daemon.place_dir.clone();
    let t = Instant::now();
    let results: Vec<(Vec<Done>, Tally, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(rounds)
            .enumerate()
            .map(|(ci, (client, reqs))| {
                let mut tr = tracer.fork(ci + 1);
                let place_dir = &place_dir;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut done = Vec::with_capacity(reqs.len());
                    for (k, r) in reqs.iter().enumerate() {
                        let rid = (ci * 100_000 + k) as u64;
                        let spec = r.spec(circuits, prefix, place_dir);
                        let t0 = Instant::now();
                        let answer = client.submit(&spec).and_then(|queued| {
                            let t1 = Instant::now();
                            client
                                .collect_reports(1)
                                .map(|mut lines| (queued, t1, lines.remove(0)))
                        });
                        let t2 = Instant::now();
                        match answer {
                            Ok((queued, t1, line)) => {
                                let root = tr.record("serve.request", rid, t0, t2, None);
                                tr.record("serve.submit", rid, t0, t1, root);
                                tr.record("serve.report", rid, t1, t2, root);
                                let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
                                done.push(Done {
                                    request: r.clone(),
                                    line,
                                    latency_ms: ms(t0, t2),
                                    accepted_ms: ms(t0, t1),
                                    report_ms: ms(t1, t2),
                                    queued,
                                });
                            }
                            Err(e) => {
                                tally.outcome(&spec.id, Err(e.to_string()));
                                break;
                            }
                        }
                    }
                    (done, tally, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for (done, t, tr) in results {
        all.extend(done);
        tally.absorb(t);
        tracer.absorb(tr);
    }
    (all, wall)
}

/// Checks every answer of a phase; returns the checked values by key.
fn check_all(
    done: &[Done],
    circuits: &[Circuit],
    place_dir: &Path,
    tally: &mut Tally,
) -> HashMap<String, Checked> {
    let mut out = HashMap::new();
    for d in done {
        tally.attempt();
        match check_report(&d.line, circuits, &d.request, place_dir) {
            Ok(c) => {
                out.insert(d.request.key.clone(), c);
            }
            Err(e) => tally.fail(&d.request.key, e),
        }
    }
    out
}

struct Inputs {
    circuits: Vec<Circuit>,
    deck_dir: PathBuf,
    first: Vec<Vec<Request>>,
}

fn inputs(seed: u64, run_dir: &Path) -> Inputs {
    let circuits = testcases::all_testcases();
    let deck_dir = run_dir.join("decks");
    std::fs::create_dir_all(&deck_dir).expect("create the deck directory");
    let first = (0..CLIENTS)
        .map(|c| round(&circuits, seed, c, 0, &deck_dir))
        .collect();
    Inputs {
        circuits,
        deck_dir,
        first,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let run_dir = ctx.run_dir("serve_eco");
    let mut tally = Tally::default();
    // Set-up: generate the first round's requests and decks, start the
    // daemon, connect both clients and warm each up with one request.
    let ((inputs, mut daemon), setup_s) = repeat_setup(|_| {
        let inputs = inputs(ctx.seed, &run_dir);
        let daemon = start_daemon(&run_dir.join("spool"), &inputs.circuits, &mut tally);
        (inputs, daemon)
    });
    let circuits = &inputs.circuits;
    let mut untraced = Tracer::new(Instant::now(), 0, false);
    let mut rounds: Vec<Vec<Vec<Request>>> = Vec::new();
    let passes = timed_passes(ctx.seconds, |p| {
        let reqs = if p == 0 {
            inputs.first.clone()
        } else {
            (0..CLIENTS)
                .map(|c| round(circuits, ctx.seed, c, p, &inputs.deck_dir))
                .collect()
        };
        let result = run_pass(&mut daemon, circuits, &reqs, "d", &mut untraced, &mut tally);
        rounds.push(reqs);
        result
    });
    let mut done = Vec::new();
    let mut wall = 0.0;
    for ((d, w), _) in passes {
        done.extend(d);
        wall += w;
    }
    let checked = check_all(&done, circuits, &daemon.place_dir, &mut tally);
    drop(daemon);
    if ctx.trace {
        return run_traced(&run_dir, &inputs, &rounds, &done, wall, &checked, tally);
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut out = Outcome::new(tally);
    let latencies = |cold: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| d.request.eco.is_none() == cold)
            .map(|d| d.latency_ms)
            .collect()
    };
    let (cold, eco) = (latencies(true), latencies(false));
    let all: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let cold_results: Vec<&Checked> = done
        .iter()
        .filter(|d| d.request.eco.is_none())
        .filter_map(|d| checked.get(&d.request.key))
        .collect();
    let t = tail(&all);
    let client_rounds = (CLIENTS * rounds.len()) as f64;
    out.metrics.insert("setup_s", setup_s);
    out.metrics
        .insert("place_s", cold.iter().sum::<f64>() / 1e3 / client_rounds);
    out.metrics.insert(
        "hpwl_gm",
        geomean(&cold_results.iter().map(|c| c.hpwl).collect::<Vec<_>>()),
    );
    out.metrics.insert(
        "area_gm",
        geomean(&cold_results.iter().map(|c| c.area).collect::<Vec<_>>()),
    );
    out.metrics.insert("jobs_per_s", all.len() as f64 / wall);
    out.metrics.insert("ok_frac", 1.0 - out.tally.failed_frac());

    out.detail("p50_ms (all requests)", median(&all), "ms");
    out.detail("eco_p50_ms", median(&eco), "ms");
    out.detail("cold_p50_ms", median(&cold), "ms");
    out.detail(
        format!(
            "req_tail_ms (p{:.1} of {}, {} beyond)",
            t.percentile, t.samples, t.beyond
        ),
        t.value,
        "ms",
    );
    out.detail("jobs_per_s", all.len() as f64 / wall, "1/s");
    let fast = checked.values().filter(|c| c.fast == Some(true)).count();
    let fell_back = checked.values().filter(|c| c.fast == Some(false)).count();
    out.detail("eco.fast", fast as f64, "count");
    out.detail("eco.fallback", fell_back as f64, "count");
    out.detail("passes", rounds.len() as f64, "count");
    out.detail("requests", all.len() as f64, "count");
    // Each circuit's cold result per placer (first client, first round).
    for d in done
        .iter()
        .filter(|d| d.request.eco.is_none() && d.request.key.starts_with("c0r0-"))
    {
        if let Some(c) = checked.get(&d.request.key) {
            let name = circuits[d.request.circuit].name();
            out.detail(format!("{}.{name}.hpwl", d.request.placer), c.hpwl, "um");
            out.detail(format!("{}.{name}.area", d.request.placer), c.area, "um2");
            out.records.push(format!(
                r#"{{"placer": {}, "circuit": {}, "ms": {}, "hpwl": {}, "area": {}}}"#,
                json_str(d.request.placer),
                json_str(name),
                json_num(d.latency_ms),
                json_num(c.hpwl),
                json_num(c.area)
            ));
        }
    }
    out
}

fn noop_observer(_kind: &'static str, _t_us: u64, _fields: &[(&'static str, f64)]) {}

/// Checks one in-process `Placer::replace` of a deck.
fn check_replace(
    result: Result<eplace::EcoReplace, eplace::PlaceError>,
    eco: &Eco,
) -> Result<(), String> {
    let replaced = result.map_err(|e| e.to_string())?;
    if replaced.outcome.is_fast() == eco.fallback {
        return Err(format!(
            "deck took the `{}` path",
            replaced.outcome.status()
        ));
    }
    let sol = replaced
        .outcome
        .solution()
        .ok_or("an unbudgeted re-place returned no solution")?;
    verify(
        replaced.artifacts.circuit(),
        &sol.placement,
        sol.hpwl,
        sol.area,
        TOL_MEMORY,
    )
}

/// The traced run: the untraced passes again under spans through a fresh
/// daemon, then the same requests in-process through `JobEngine::run_job`,
/// then every deck through the ECO layer's public functions.
fn run_traced(
    run_dir: &Path,
    inputs: &Inputs,
    rounds: &[Vec<Vec<Request>>],
    untraced: &[Done],
    untraced_wall: f64,
    untraced_checked: &HashMap<String, Checked>,
    mut tally: Tally,
) -> Outcome {
    let circuits = &inputs.circuits;
    let mut tr = Tracer::new(Instant::now(), 0, true);
    // Activates the counters the telemetry build keeps; resets them first.
    placer_telemetry::install_observer(noop_observer);

    let mut daemon = start_daemon(&run_dir.join("spool-traced"), circuits, &mut tally);
    let mut traced = Vec::new();
    let mut traced_wall = 0.0;
    for reqs in rounds {
        let (d, w) = run_pass(&mut daemon, circuits, reqs, "t", &mut tr, &mut tally);
        traced.extend(d);
        traced_wall += w;
    }
    let stats = daemon.stats();
    check_all(&traced, circuits, &daemon.place_dir, &mut tally);
    drop(daemon);

    let job_dir = run_dir.join("jobs");
    std::fs::create_dir_all(&job_dir).expect("create the job replay directory");
    let engine = JobEngine {
        placement_dir: Some(job_dir.clone()),
        ..JobEngine::default()
    };
    // Each client's stream on its own thread, as the daemon's two workers
    // would run it.
    // Per client: (run_job ms, daemon latency minus it) per request.
    type Replay = (Vec<(f64, f64)>, Tally, Tracer);
    let replays: Vec<Replay> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut tr = tr.fork(client + 1);
                let (engine, job_dir) = (&engine, &job_dir);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut times = Vec::new();
                    for (k, d) in untraced
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.request.client == client)
                    {
                        let spec = d.request.spec(circuits, "j", job_dir);
                        let t = Instant::now();
                        let report = tr.span("jobs.run_job", k as u64, |_| engine.run_job(&spec));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        times.push((ms, d.latency_ms - ms));
                        let result = check_report(&report.to_line(), circuits, &d.request, job_dir);
                        tally.outcome(&spec.id, result.map(|_| ()));
                    }
                    (times, tally, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread"))
            .collect()
    });
    let mut job_ms = Vec::new();
    let mut overhead = Vec::new();
    for (times, t, thread_tr) in replays {
        job_ms.extend(times.iter().map(|t| t.0));
        overhead.extend(times.iter().map(|t| t.1));
        tally.absorb(t);
        tr.absorb(thread_tr);
    }

    let mut artifacts: HashMap<usize, Arc<CircuitArtifacts>> = HashMap::new();
    for (k, d) in untraced.iter().enumerate() {
        let Some(eco) = &d.request.eco else { continue };
        let req = k as u64;
        let ci = d.request.circuit;
        let base = &circuits[ci];
        let art = match artifacts.get(&ci) {
            Some(a) => a.clone(),
            None => {
                let a = tr.span("artifacts.build", req, |_| {
                    CircuitArtifacts::build(base.clone())
                });
                artifacts.insert(ci, a.clone());
                a
            }
        };
        let what = format!("replace {}", d.request.key);
        let deck = match std::fs::read_to_string(&eco.deck) {
            Ok(text) => text,
            Err(e) => {
                tally.outcome(&what, Err(e.to_string()));
                continue;
            }
        };
        let parsed = tr.span("netlist.delta", req, |_| {
            let delta = NetlistDelta::parse(&deck)?;
            let applied = delta.apply(base)?;
            Ok::<_, analog_netlist::ParseError>((delta, applied))
        });
        let (delta, applied) = match parsed {
            Ok(p) => p,
            Err(e) => {
                tally.outcome(&what, Err(e.to_string()));
                continue;
            }
        };
        tr.span("artifacts.patch", req, |_| art.patched(&applied));
        let warm_path = job_dir.join(format!("j-{}.place", eco.base));
        let warm = std::fs::read_to_string(&warm_path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_placement(base, &t).map_err(|e| e.to_string()));
        let placer = make_placer(d.request.placer, Profile::Small, None);
        let (warm, placer) = match (warm, placer) {
            (Ok(w), Ok((p, _))) => (w, p),
            (Err(e), _) | (_, Err(e)) => {
                tally.outcome(&what, Err(e));
                continue;
            }
        };
        let warm = eplace::eco::warm_checkpoint(base, &warm);
        let result = tr.span("eco.replace", req, |_| {
            placer.replace(
                &art,
                &delta,
                &warm,
                &RunBudget::unlimited(),
                &EcoConfig::default(),
            )
        });
        tally.outcome(&what, check_replace(result, eco));
    }

    let mut out = Outcome::new(tally);
    out.layer_common(&tr);
    placer_telemetry::uninstall_observer();
    let stat = |key: &str| num(&stats, key).unwrap_or(0.0);
    let fast = untraced_checked
        .values()
        .filter(|c| c.fast == Some(true))
        .count() as f64;
    let decks = untraced_checked
        .values()
        .filter(|c| c.fast.is_some())
        .count() as f64;
    let m = &mut out.metrics;
    m.insert(
        "netlist.delta_ms",
        median(&tr.durations_ms("netlist.delta")),
    );
    m.insert("artifacts.build_ms", tr.total_ms("artifacts.build"));
    m.insert(
        "artifacts.patch_ms",
        median(&tr.durations_ms("artifacts.patch")),
    );
    m.insert("artifacts.hit_rate", stat("cache_hit_rate"));
    m.insert("eco.replace_ms", median(&tr.durations_ms("eco.replace")));
    m.insert("eco.fast_frac", ratio(fast, decks));
    m.insert("jobs.run_job_ms", median(&job_ms));
    m.insert(
        "serve.accepted_ms",
        median(&traced.iter().map(|d| d.accepted_ms).collect::<Vec<_>>()),
    );
    m.insert(
        "serve.report_ms",
        median(&traced.iter().map(|d| d.report_ms).collect::<Vec<_>>()),
    );
    m.insert("serve.overhead_ms", median(&overhead));
    m.insert(
        "serve.pending_max",
        traced.iter().map(|d| d.queued).max().unwrap_or(0) as f64,
    );
    m.insert("serve.preempted", stat("preempted"));
    m.insert("trace.overhead_frac", traced_wall / untraced_wall - 1.0);

    out.detail("untraced_wall_s", untraced_wall, "s");
    out.detail("traced_wall_s", traced_wall, "s");
    out.detail(
        "latency_p50_ms (untraced)",
        median(&untraced.iter().map(|d| d.latency_ms).collect::<Vec<_>>()),
        "ms",
    );
    let _ = std::fs::remove_dir_all(run_dir);
    out.tracer = Some(tr);
    out
}
