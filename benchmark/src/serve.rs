//! `admit-tandem16`: the real `dnc serve --listen` on
//! `dnc tandem 16 3/10`, driven over TCP by one closed-loop client in this
//! process. The client churns admits and releases with the live set held
//! in a band, so the certification cost stays steady over a run.
//!
//! A run repeats the same seeded requests in rounds, each against a fresh
//! server, until the run time is up. `ops_per_s` is the median over rounds
//! of replies per second of round wall time; a request's latency is its
//! median over the rounds.
//!
//! A thread reads the server's stderr as it comes, counts its panic lines
//! and writes it to a log file at shutdown (an unread pipe stalls the
//! server once caught panics fill it). After `shutdown` the journal
//! is recovered with `ChurnEngine::open`: its op count must equal the
//! acknowledged writes, and its live set the server's final listing.

use crate::gen::{Churn, ChurnShape, Reply, Sent};
use crate::layers::{self, LayerReport};
use crate::scratch::ScratchDir;
use crate::stats::{median_of, spread, Samples, Tally};
use crate::trace::Tracer;
use crate::{metric, Ctx, Outcome};
use dnc_cli::parse::parse_spec;
use dnc_cli::serve::parse_request_line;
use dnc_core::admission::Deadline;
use dnc_core::resilient::Tier;
use dnc_net::{FlowId, Network, ServerId};
use dnc_service::journal::{AdmitOp, Journal, Op};
use dnc_service::snapshot::{publish_snapshot, Snapshot};
use dnc_service::{ChurnEngine, EngineConfig, RealFs, Request, Response};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra server spawns before each round. `setup_s` is the median
/// start-up of these and of the rounds' own servers, spread over the run
/// so that it does not hang on the machine's state at one moment.
const SETUP_REPS: usize = 10;
/// Requests per round: enough that the p99 of the requests' latencies has
/// at least 10 samples beyond it.
const ROUND_OPS: usize = 1_010;
/// Seconds one round takes on an idle machine; `--seconds` buys this
/// many rounds.
const ROUND_SECONDS: f64 = 6.0;

/// Rounds per run: `--seconds` worth of nominal rounds, at least five and
/// always odd, so a request's median over them is one round's latency
/// and a stall must hit most rounds to move it. The count does not depend
/// on how fast the rounds run, so a slow machine does not also get fewer
/// rounds to take medians over.
fn round_count(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS) as usize).max(5) | 1
}
/// Longest wait for a server to start, answer, or exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// Alike connections (4 contiguous hops, σ = 1, ρ ∈ {1, 2}/200), 28–32
/// of them live, so the cost of one certification varies little between
/// seeds.
const TANDEM: ChurnShape = ChurnShape {
    server_prefix: "L",
    servers: 16,
    min_hops: 4,
    max_hops: 4,
    low: 28,
    high: 32,
    rho_max: 2,
    rho_den: 200,
    sigma_max: 1,
    sigma_den: 1,
    deadline_lo: 300,
    deadline_hi: 600,
    deadline_den: 1,
    tight_every: 5,
};

fn churn(seed: u64) -> Churn {
    Churn::new(seed, 1, "a", TANDEM)
}

/// What the client saw in one round, op by op.
struct ClientLog {
    /// Latency of each operation in µs, in order.
    lat: Vec<f64>,
    /// The request line and the reply line of each operation.
    lines: Vec<String>,
    replies: Vec<String>,
    /// Traced runs: each op's latency with the span recording (traced
    /// ops) or without it (untraced ops) inside the timed window.
    traced: Samples,
    untraced: Samples,
    tally: Tally,
    admits: u64,
    admits_integrated: u64,
    rejects: u64,
    committed: u64,
    admit_lines: Vec<String>,
    first_failure: Option<String>,
    tracer: Tracer,
    /// Connections the client holds at the end of the round.
    live: Vec<String>,
}

/// Send `ROUND_OPS` requests of the seeded stream, one at a time, as
/// round `round` of the run.
fn client(addr: SocketAddr, round: u64, ctx: &Ctx) -> Result<ClientLog, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut source = churn(ctx.seed);
    let mut log = ClientLog {
        lat: Vec::with_capacity(ROUND_OPS),
        lines: Vec::with_capacity(ROUND_OPS),
        replies: Vec::with_capacity(ROUND_OPS),
        traced: Samples::default(),
        untraced: Samples::default(),
        tally: Tally::default(),
        admits: 0,
        admits_integrated: 0,
        rejects: 0,
        committed: 0,
        admit_lines: Vec::new(),
        first_failure: None,
        tracer: Tracer::new(ctx.epoch),
        live: Vec::new(),
    };
    let mut buf = String::new();
    for k in 0..ROUND_OPS as u64 {
        let (line, sent) = source.next();
        buf.clear();
        let t0 = Instant::now();
        let io = writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| reader.read_line(&mut buf));
        let t1 = Instant::now();
        if ctx.trace {
            // Every other op records its span inside the window the
            // overhead comparison times. Which ops alternates between
            // rounds, so each request lands in both groups.
            let on = (k + round).is_multiple_of(2);
            if on {
                log.tracer
                    .record("client.op", (round << 32) + k, None, t0, t1);
            }
            let us = Instant::now().duration_since(t0).as_secs_f64() * 1e6;
            let samples = if on {
                &mut log.traced
            } else {
                &mut log.untraced
            };
            samples.push(us);
        }
        // A lost connection ends the run; an `ERR` or `SHED` reply is
        // counted as failed and the stream goes on.
        let reply = match io {
            Ok(0) => return Err(format!("request {line:?}: end of stream")),
            Ok(_) => Reply::parse(&buf),
            Err(e) => return Err(format!("request {line:?}: no reply: {e}")),
        };
        log.lat.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        log.replies.push(buf.trim_end().to_string());
        log.tally.record(!reply.is_failure());
        match reply {
            Reply::Admitted { integrated } => {
                log.admits += 1;
                log.admits_integrated += u64::from(integrated);
            }
            Reply::Rejected => log.rejects += 1,
            _ => {}
        }
        log.committed += u64::from(reply.committed());
        if let Sent::Admit(_) = sent {
            log.admit_lines.push(line.clone());
        }
        if let Reply::Failed(why) = &reply {
            log.first_failure.get_or_insert_with(|| why.clone());
        }
        source.observe(&sent, &reply);
        log.lines.push(line);
    }
    log.live = source.live().to_vec();
    Ok(log)
}

/// A running `dnc serve --listen`, killed and reaped on drop.
struct Server {
    child: Option<Child>,
    lines: Receiver<String>,
    pump: Option<JoinHandle<()>>,
    /// Drains stderr; yields the `panicked at` line count and the text.
    drain: Option<JoinHandle<(usize, String)>>,
    addr: SocketAddr,
}

/// Bytes of server stderr kept for the log file.
const STDERR_KEEP: usize = 1 << 20;

impl Server {
    /// Spawn and wait for the `listening on` banner; returns the server
    /// and the seconds from spawn to banner.
    fn spawn(
        dnc: &Path,
        network: &Path,
        wal: &Path,
        stderr: &Path,
    ) -> Result<(Server, f64), String> {
        let mut cmd = Command::new(dnc);
        cmd.arg("serve")
            .arg(network)
            .args(["--listen", "127.0.0.1:0", "--journal"])
            .arg(wal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dnc.display()))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let err_pipe = child.stderr.take().ok_or("no stderr pipe")?;
        // Every overflow the server's guard catches prints a panic
        // message. Read them as they come, in memory, so the server never
        // waits on a full pipe or on this disk.
        let drain = std::thread::spawn(move || {
            let (mut panics, mut text) = (0, String::new());
            for line in BufReader::new(err_pipe).lines() {
                let Ok(line) = line else { break };
                panics += usize::from(line.contains("panicked at"));
                if text.len() < STDERR_KEEP {
                    text.push_str(&line);
                    text.push('\n');
                }
            }
            (panics, text)
        });
        let (tx, rx) = mpsc::channel();
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            child: Some(child),
            lines: rx,
            pump: Some(pump),
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            let left = PATIENCE.saturating_sub(t0.elapsed());
            match server.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        let secs = t0.elapsed().as_secs_f64();
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        server.addr = addr.parse().map_err(|_| format!("bad banner {line:?}"))?;
                        return Ok((server, secs));
                    }
                }
                Err(_) => {
                    let (_, why) = server.reap(stderr);
                    return Err(format!("dnc serve did not start: {}", why.trim()));
                }
            }
        }
    }

    /// Send `shutdown` (after an optional final `query`), wait for the
    /// process to exit, and return what it said.
    fn shutdown(mut self, list: bool, stderr: &Path) -> Result<Stopped, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> Result<String, String> {
            let mut buf = String::new();
            writer
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| reader.read_line(&mut buf))
                .map_err(|e| format!("{line}: {e}"))?;
            Ok(buf)
        };
        let listing = if list {
            match Reply::parse(&ask("query")?) {
                Reply::Queried(names) => Some(names),
                other => return Err(format!("final query answered {other:?}")),
            }
        } else {
            None
        };
        // The server can close the connection before its `BYE` reaches
        // the client; that loses a reply, not an operation, so it is
        // counted rather than fatal.
        let bye = ask("shutdown")?;
        let bye_lost = bye.is_empty();
        if !bye_lost && !bye.starts_with("BYE") {
            return Err(format!("shutdown answered {bye:?}"));
        }
        let mut child = self.child.take().ok_or("server already reaped")?;
        let t0 = Instant::now();
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if t0.elapsed() > PATIENCE => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let (panic_lines, _) = self.reap(stderr);
        let lines: Vec<String> = self.lines.try_iter().collect();
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(Stopped {
            listing,
            lines,
            bye_lost,
            panic_lines,
        })
    }

    /// Kill the server if it still runs, join the pipe readers, and
    /// write its stderr to `log`; returns the panic count and the text.
    fn reap(&mut self, log: &Path) -> (usize, String) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        let (panics, text) = self
            .drain
            .take()
            .and_then(|d| d.join().ok())
            .unwrap_or_default();
        let _ = std::fs::write(log, &text);
        (panics, text)
    }
}

/// What a server said on the way out.
struct Stopped {
    /// Names in the final `query` reply, when one was asked.
    listing: Option<Vec<String>>,
    /// Stdout lines printed after the banner (the `drained:`/`done:` report).
    lines: Vec<String>,
    /// The connection closed without the `BYE` reply.
    bye_lost: bool,
    /// `panicked at` lines the server printed.
    panic_lines: usize,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The base network and its deadlines, as `dnc serve` builds them.
fn base(text: &str) -> Result<(Network, Vec<Deadline>), String> {
    let built = parse_spec(text).map_err(|e| e.to_string())?.build()?;
    let deadlines = built
        .deadlines
        .iter()
        .enumerate()
        .filter_map(|(i, d)| {
            d.map(|deadline| Deadline {
                flow: FlowId(i),
                deadline,
            })
        })
        .collect();
    Ok((built.net, deadlines))
}

fn server_names(net: &Network) -> HashMap<String, ServerId> {
    net.servers()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), ServerId(i)))
        .collect()
}

/// `(commits, group commits)` from the server's closing `done:` line.
fn commit_counts(lines: &[String]) -> Option<(u64, u64)> {
    let done = lines.iter().find(|l| l.starts_with("done: "))?;
    let toks: Vec<&str> = done.split_whitespace().collect();
    Some((toks.get(1)?.parse().ok()?, toks.get(4)?.parse().ok()?))
}

/// The ops of each journal record (one group commit each) and the bytes
/// those records take, skipping the magic and epoch records.
fn journal_batches(path: &Path) -> Result<(Vec<Vec<Op>>, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut at = dnc_service::journal::HEADER_LEN;
    let mut batches = Vec::new();
    let mut op_bytes = 0u64;
    let u32_at = |i: usize| -> Option<usize> {
        let b: [u8; 4] = bytes.get(i..i + 4)?.try_into().ok()?;
        Some(u32::from_le_bytes(b) as usize)
    };
    while let Some(len) = u32_at(at) {
        let payload = bytes
            .get(at + 8..at + 8 + len)
            .ok_or("torn journal record")?;
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        if !text.starts_with("epoch ") {
            let ops = text
                .lines()
                .map(Op::decode)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            op_bytes += 8 + len as u64;
            batches.push(ops);
        }
        at += 8 + len;
    }
    Ok((batches, op_bytes))
}

fn admit_op(line: &str, names: &HashMap<String, ServerId>) -> Option<AdmitOp> {
    match parse_request_line(line, 0, names).ok()? {
        Request::Admit(a) => Some(a.into()),
        _ => None,
    }
}

fn reply_of(resp: &Response) -> Reply {
    match resp {
        Response::Admitted { tier, .. } => Reply::Admitted {
            integrated: *tier == Tier::Integrated,
        },
        Response::Rejected { .. } => Reply::Rejected,
        Response::Released { .. } => Reply::Released,
        Response::ReleaseFailed { .. } => Reply::ReleaseRefused,
        Response::Queried { entries } => {
            Reply::Queried(entries.iter().map(|e| e.name.clone()).collect())
        }
        Response::Shed { reason, .. } => Reply::Failed(reason.clone()),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scratch = ScratchDir::new(&ctx.out_dir.join("scratch"), &ctx.workload)
        .map_err(|e| format!("scratch directory: {e}"))?;
    let text = dnc_cli::commands::run(&["tandem".into(), "16".into(), "3/10".into()])
        .map_err(|e| e.message)?;
    let network = scratch.join("network.dnc");
    std::fs::write(&network, &text).map_err(|e| e.to_string())?;
    let (base_net, base_deadlines) = base(&text)?;
    let names = server_names(&base_net);

    // Set-up is a spawn until `listening on`, each on a fresh journal.
    let fresh = |label: &str| -> Result<(PathBuf, PathBuf), String> {
        let dir = scratch.subdir(label).map_err(|e| e.to_string())?;
        Ok((dir.join("serve.wal"), dir.join("stderr.log")))
    };
    let mut setup = Vec::new();
    let mut lost_byes = 0u64;

    // Measure: rounds of the same seeded request stream, each against a
    // fresh server. The stream and the server's answers depend only on the
    // seed, so op `i` of every round is the same request in the same state
    // (checked by `rounds-agree` below).
    let mut rounds: Vec<Round> = Vec::new();
    for r in 0..round_count(ctx.seconds) {
        for rep in 0..SETUP_REPS {
            let (wal, stderr) = fresh(&format!("setup{r}-{rep}"))?;
            let (s, secs) = Server::spawn(&ctx.dnc, &network, &wal, &stderr)?;
            setup.push(secs);
            lost_byes += u64::from(s.shutdown(false, &stderr)?.bye_lost);
        }
        let (wal, stderr) = fresh(&format!("round{r}"))?;
        let (server, secs) = Server::spawn(&ctx.dnc, &network, &wal, &stderr)?;
        setup.push(secs);
        let t0 = Instant::now();
        let log = client(server.addr, r as u64, ctx)?;
        let wall = t0.elapsed().as_secs_f64();
        let stopped = server.shutdown(true, &stderr)?;
        lost_byes += u64::from(stopped.bye_lost);
        rounds.push(Round {
            log,
            wall,
            listing: stopped.listing.unwrap_or_default(),
            lines: stopped.lines,
            wal,
            panic_lines: stopped.panic_lines,
        });
    }
    if lost_byes > 0 {
        out.notes.push(format!(
            "{lost_byes} shutdown(s) closed without the BYE reply"
        ));
    }

    // Correctness, every round: recover the journal the server left.
    let mut engine = None;
    let mut failures: Vec<Vec<String>> = vec![Vec::new(); 4];
    for (r, round) in rounds.iter().enumerate() {
        let (e, info) = ChurnEngine::open(
            base_net.clone(),
            base_deadlines.clone(),
            EngineConfig::default(),
            &round.wal,
        )
        .map_err(|e| format!("recovering {}: {e}", round.wal.display()))?;
        let committed = round.log.committed;
        let recovered: BTreeSet<String> = e.admitted().map(|q| q.name).collect();
        let listed: BTreeSet<String> = round.listing.iter().cloned().collect();
        let held: BTreeSet<String> = round.log.live.iter().cloned().collect();
        if info.committed_seq != committed {
            failures[0].push(format!(
                "round {r}: journal holds {} op(s), {committed} acknowledged",
                info.committed_seq
            ));
        }
        if recovered != listed {
            failures[1].push(format!(
                "round {r}: {} recovered, {} listed",
                recovered.len(),
                listed.len()
            ));
        }
        if listed != held {
            failures[2].push(format!(
                "round {r}: {} listed, {} acknowledged live",
                listed.len(),
                held.len()
            ));
        }
        if !round.lines.iter().any(|l| l.starts_with("drained: clean")) {
            failures[3].push(format!("round {r}: no clean drain"));
        }
        engine = Some(e);
    }
    let engine = engine.ok_or("no round ran")?;
    let names_of = [
        "journal-ops-equal-acked-writes",
        "recovered-set-equals-listing",
        "listing-equals-acknowledged",
        "drained-clean",
    ];
    for (name, failed) in names_of.iter().zip(&failures) {
        let detail = failed
            .first()
            .cloned()
            .unwrap_or_else(|| format!("held in all {} round(s)", rounds.len()));
        out.check(name, failed.is_empty(), detail);
    }
    let first = &rounds[0];
    let diverged = rounds
        .iter()
        .enumerate()
        .skip(1)
        .filter_map(|(r, round)| {
            let a = &round.log.replies;
            let b = &first.log.replies;
            let i = a.iter().zip(b).position(|(x, y)| x != y)?;
            Some(format!("round {r} op {i}: {:?} vs {:?}", a[i], b[i]))
        })
        .collect::<Vec<_>>();
    out.check(
        "rounds-agree",
        diverged.is_empty(),
        diverged
            .first()
            .cloned()
            .unwrap_or_else(|| "every round got the same replies".into()),
    );

    // Every round sends the same requests into the same states, so each
    // round's replies per second of wall time rate the same work, and
    // request `i` of every round is the same operation. Medians over the
    // rounds shrug off a stall of the shared machine that hit one round;
    // a slowdown that recurs in most rounds shows.
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.log.lat.len() as f64 / r.wall)
        .collect();
    let mut all = Samples::default();
    let (mut writes, mut rejects) = (Samples::default(), Samples::default());
    for (i, reply) in first.log.replies.iter().enumerate() {
        let per_round: Vec<f64> = rounds.iter().map(|r| r.log.lat[i]).collect();
        let us = median_of(&per_round).unwrap_or(0.0);
        all.push(us);
        if reply.starts_with("REJECT") {
            rejects.push(us);
        } else {
            writes.push(us);
        }
    }
    let mut tally = Tally::default();
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    for log in rounds.iter().map(|r| &r.log) {
        tally.add(log.tally);
        traced.extend(&log.traced);
        untraced.extend(&log.untraced);
        if let Some(why) = &log.first_failure {
            out.notes.push(format!("failed reply: {why}"));
        }
    }
    let (admits, rejected, integrated) = (
        first.log.admits,
        first.log.rejects,
        first.log.admits_integrated,
    );

    out.tally = tally;
    out.e2e = vec![
        metric("ops_per_s", median_of(&rates).unwrap_or(0.0), "1/s"),
        metric("op_p50_us", all.median().unwrap_or(0.0), "us"),
        metric("setup_s", median_of(&setup).unwrap_or(0.0), "s"),
    ];
    let p99 = all
        .tail(99.0)
        .ok_or_else(|| format!("{} samples are too few for op_p99_us", all.len()))?;
    let admit_share = if admits + rejected > 0 {
        admits as f64 / (admits + rejected) as f64
    } else {
        0.0
    };
    let tail = crate::stats::tail_percentile(all.len()).unwrap_or(50.0);
    let write_p50 = writes.median().unwrap_or(0.0);
    out.extra = vec![
        metric("op_p99_us", p99, "us"),
        metric("failed_share", tally.failed_share(), "ratio"),
        metric("admit_share", admit_share, "ratio"),
        metric("rounds", rounds.len() as f64, "count"),
        metric("round_spread", spread(&rates), "ratio"),
        metric("samples", all.len() as f64, "count"),
        metric("op_tail_percentile", tail, "%"),
        metric("op_tail_us", all.percentile(tail).unwrap_or(0.0), "us"),
        metric("write_p50_us", write_p50, "us"),
        metric("reject_p50_us", rejects.median().unwrap_or(0.0), "us"),
        metric("live_connections", first.listing.len() as f64, "count"),
        metric("server_panic_lines", first.panic_lines as f64, "count"),
    ];
    let panic_lines = first.panic_lines;

    if ctx.trace {
        let mut tr = Tracer::new(ctx.epoch);
        for round in &mut rounds {
            tr.absorb(std::mem::replace(
                &mut round.log.tracer,
                Tracer::new(ctx.epoch),
            ));
        }
        let last = rounds.last().ok_or("no round ran")?;
        let mut rep = layer_probes(
            ctx,
            &mut tr,
            &scratch,
            &text,
            &engine,
            &last.log,
            &last.wal,
            &names,
            (&base_net, &base_deadlines),
        )?;
        let (commits, groups) = commit_counts(&last.lines).unwrap_or((0, 0));
        rep.ops_per_fsync = if groups > 0 {
            commits as f64 / groups as f64
        } else {
            0.0
        };
        rep.integrated_share = if admits > 0 {
            integrated as f64 / admits as f64
        } else {
            0.0
        };
        rep.caught_panics = panic_lines as f64;
        rep.overhead_share = layers::overhead(&traced, &untraced);
        let journal_share = if rep.ops_per_fsync > 0.0 {
            rep.journal_append_us / rep.ops_per_fsync
        } else {
            0.0
        };
        rep.wait_us = write_p50 - rep.certify_us - journal_share;
        out.layers = rep.metrics();
        crate::write_trace(ctx, &tr)?;
    }
    Ok(out)
}

/// One round: a fresh server, the seeded stream, a clean shutdown.
struct Round {
    log: ClientLog,
    /// Seconds from the first request to the last reply.
    wall: f64,
    /// Names in the final `query` reply.
    listing: Vec<String>,
    /// The server's closing report lines.
    lines: Vec<String>,
    wal: PathBuf,
    /// `panicked at` lines in the server's stderr file.
    panic_lines: usize,
}

/// Time each layer's public calls on this run's inputs.
#[allow(clippy::too_many_arguments)]
fn layer_probes(
    ctx: &Ctx,
    tr: &mut Tracer,
    scratch: &ScratchDir,
    text: &str,
    engine: &ChurnEngine,
    log: &ClientLog,
    wal: &Path,
    names: &HashMap<String, ServerId>,
    (base_net, base_deadlines): (&Network, &Vec<Deadline>),
) -> Result<LayerReport, String> {
    // service: certify one round's seeded stream in memory (no journal).
    // A fixed number of requests, so what it interns depends on the seed
    // alone.
    let mut mem = ChurnEngine::new(
        base_net.clone(),
        base_deadlines.clone(),
        EngineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut src = churn(ctx.seed);
    let root = tr.open("layer.service", 0, None);
    for i in 0..ROUND_OPS as u64 {
        let (line, sent) = src.next();
        let req = parse_request_line(&line, 0, names).map_err(|e| e.to_string())?;
        let resp = tr
            .time("service.certify", i, root, || mem.process(req))
            .map_err(|e| e.to_string())?;
        src.observe(&sent, &reply_of(&resp));
    }
    tr.close(root);
    let intern_len = dnc_curves::intern::store_len();

    // service: append the run's batches to a fresh journal.
    let (batches, op_bytes) = journal_batches(wal)?;
    let n_ops: usize = batches.iter().map(Vec::len).sum();
    let dir = scratch.subdir("append").map_err(|e| e.to_string())?;
    let mut journal = Journal::create(&dir.join("append.wal")).map_err(|e| e.to_string())?;
    let root = tr.open("layer.journal", 0, None);
    for (k, batch) in batches.iter().enumerate() {
        tr.time("service.journal_append", k as u64, root, || {
            journal.append_batch(batch)
        })
        .map_err(|e| e.to_string())?;
    }
    tr.close(root);

    // service: publish the live state as a snapshot.
    let admits: HashMap<String, AdmitOp> = log
        .admit_lines
        .iter()
        .filter_map(|line| admit_op(line, names))
        .map(|op| (op.name.clone(), op))
        .collect();
    let live: Vec<AdmitOp> = engine
        .admitted()
        .filter_map(|e| admits.get(&e.name).cloned())
        .collect();
    let dir = scratch.subdir("snapshot").map_err(|e| e.to_string())?;
    let snap_wal = dir.join("snap.wal");
    let root = tr.open("layer.snapshot", 0, None);
    for gen in 1..=30u64 {
        let snap = Snapshot {
            gen,
            seq: engine.committed_seq(),
            base_flows: base_net.flows().len(),
            admits: live.clone(),
        };
        tr.time("service.snapshot_publish", gen, root, || {
            publish_snapshot(&RealFs, &snap_wal, &snap)
        })
        .map_err(|e| e.to_string())?;
    }
    tr.close(root);

    // service: recover the journal the run left.
    let root = tr.open("layer.recover", 0, None);
    for r in 0..5u64 {
        let dir = scratch
            .subdir(&format!("recover{r}"))
            .map_err(|e| e.to_string())?;
        let copy = dir.join("recover.wal");
        std::fs::copy(wal, &copy).map_err(|e| e.to_string())?;
        tr.time("service.recover", r, root, || {
            ChurnEngine::open(
                base_net.clone(),
                base_deadlines.clone(),
                EngineConfig::default(),
                &copy,
            )
            .map(|_| ())
        })
        .map_err(|e| e.to_string())?;
    }
    tr.close(root);

    // cli: decode the round's request lines; parse + build the network.
    let root = tr.open("layer.cli", 0, None);
    for (k, line) in log.lines.iter().enumerate() {
        tr.time("cli.decode", k as u64, root, || {
            std::hint::black_box(parse_request_line(line, 0, names).is_ok())
        });
    }
    for k in 0..200u64 {
        tr.time("cli.parse_spec", k, root, || base(text).is_ok());
    }
    tr.close(root);

    // curves, net, core: on the live network the run ended with.
    let live_net = engine.network();
    layers::curve_ops(tr, &layers::curve_pairs(live_net), 5);
    layers::partitions(tr, &[live_net], 50);
    let failed = layers::analyses(tr, &[live_net], 3);

    Ok(LayerReport {
        intern_len: intern_len as f64,
        overflow_cases: failed as f64,
        journal_bytes_per_op: if n_ops > 0 {
            op_bytes as f64 / n_ops as f64
        } else {
            0.0
        },
        ..LayerReport::from_spans(tr)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_count_is_odd_and_at_least_five() {
        assert_eq!(round_count(1.0), 5);
        assert_eq!(round_count(40.0), 7);
        assert_eq!(round_count(60.0), 11);
        assert!((1..=120).all(|s| round_count(f64::from(s)) % 2 == 1));
    }
}
