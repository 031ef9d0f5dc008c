//! `gridd-verbs`: an in-process `gridd` driven by one generator thread
//! over two persistent connections, closed loop, one request
//! outstanding per connection. Connection 0 carries the sense and file
//! verbs in a seeded order; connection 1 carries the submits. The
//! per-class counts come from the committed traces (see [`Mix`]). Every
//! response is checked against a model of the daemon's state, and the
//! daemon's final `stats` counters must equal the generator's own
//! counts.

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::sys;
use crate::Pass;
use gridd::poll::{Epoll, Event};
use gridd::proto::{frame_into, ErrCode, FrameBuf, Request, Response};
use gridd::{GriddConfig, GriddHandle};
use simgrid::faults::json;
use simgrid::SimRng;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Verb classes, in reporting order.
pub const CLASSES: [&str; 6] = ["df", "stat", "get_hit", "get_miss", "put", "submit"];
const DF: usize = 0;
const STAT: usize = 1;
const GET_HIT: usize = 2;
const GET_MISS: usize = 3;
const PUT: usize = 4;
const SUBMIT: usize = 5;
/// The closing `stats` request: checked, but not a workload verb.
const STATS: usize = CLASSES.len();

/// Submits per pass; the other classes scale with it (see [`Mix`]).
const PASS_SUBMITS: usize = 1000;
/// Files in the working set (preloaded at set-up, overwritten by puts).
const FILES: usize = 64;
/// Smallest and largest put, in bytes.
const MIN_PUT: usize = 64;
const MAX_PUT: usize = 64 << 10;
/// Spread of content offsets into the shared payload buffer.
const OFFSETS: usize = 4096;
/// Longest the generator waits for any response before failing.
const STALL: Duration = Duration::from_secs(5);

/// Verb counts in the committed traces the request mix is taken from.
#[derive(Debug, Default, PartialEq, Eq)]
struct TraceCounts {
    df: u64,
    submit: u64,
    stat: u64,
    stat_present: u64,
    get: u64,
    get_miss: u64,
    put: u64,
}

/// The counts of `results/live-ethernet.jsonl` (the swarm's Ethernet
/// clients against a live `gridd`: every `sense` command is a `df`,
/// every `submit` a submit, refused ones included) and of
/// `results/coord-fig8.jsonl` plus `results/coord-fig9.jsonl` (the
/// coordinated workloads, whose verbs the live mirror maps to `gridd`:
/// each carrier sense of a `probe` or `df` is a `stat`, present when it
/// did not defer; each `fetch` a `get`, a miss when it failed; each
/// `publish` a `put`). A test re-derives them from the files.
const TRACE_COUNTS: TraceCounts = TraceCounts {
    df: 6976,
    submit: 5141,
    stat: 85,
    stat_present: 19,
    get: 244,
    get_miss: 70,
    put: 65,
};

/// Requests of each class in one pass.
#[derive(Debug, PartialEq, Eq)]
struct Mix {
    df: usize,
    stat: usize,
    stat_present: usize,
    get_hit: usize,
    get_miss: usize,
    put: usize,
}

impl Mix {
    /// `TRACE_COUNTS` scaled to `PASS_SUBMITS` submits. The swarm's
    /// classes keep their ratio; the coordinated workloads' classes
    /// share as many requests as the swarm's, so one swarm client and
    /// one coordinated rank weigh the same.
    fn per_pass() -> Mix {
        let c = TRACE_COUNTS;
        let scale = |n: usize, part: u64, whole: u64| {
            (n as f64 * part as f64 / whole as f64).round() as usize
        };
        let df = scale(PASS_SUBMITS, c.df, c.submit);
        let swarm = df + PASS_SUBMITS;
        let coord = c.stat + c.get + c.put;
        let stat = scale(swarm, c.stat, coord);
        let put = scale(swarm, c.put, coord);
        let get = swarm - stat - put;
        let get_miss = scale(get, c.get_miss, c.get);
        Mix {
            df,
            stat,
            stat_present: scale(stat, c.stat_present, c.stat),
            get_hit: get - get_miss,
            get_miss,
            put,
        }
    }
}

/// The daemon as the workload runs it: the defaults, except that a
/// submit's configured service hold is zero, so submit latency measures
/// the daemon's hold path (a timer-wheel round trip) rather than a
/// fixed sleep.
fn config() -> GriddConfig {
    GriddConfig {
        service: Duration::ZERO,
        ..GriddConfig::default()
    }
}

/// One file/sense request in the seeded sequence.
#[derive(Clone, Copy, Debug)]
enum FileOp {
    Df,
    Stat { file: usize, present: bool },
    GetHit(usize),
    GetMiss(usize),
    Put { file: usize, off: usize, len: usize },
}

/// `n` put sizes spread log-uniformly over `[MIN_PUT, MAX_PUT]`. The
/// multiset is fixed; only the order depends on the seed, so every
/// seed moves the same bytes.
fn put_sizes(n: usize) -> Vec<usize> {
    let span = (MAX_PUT as f64 / MIN_PUT as f64).ln();
    (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1).max(1) as f64;
            (MIN_PUT as f64 * (span * f).exp()).round() as usize
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.range_u64(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// The pass's file/sense sequence: the [`Mix`] counts of each class,
/// order, targets and put sizes drawn from `rng`.
fn file_plan(rng: &mut SimRng) -> Vec<FileOp> {
    let m = Mix::per_pass();
    let file = |rng: &mut SimRng| rng.range_u64(0, FILES as u64) as usize;
    let mut sizes = put_sizes(m.put);
    shuffle(&mut sizes, rng);
    let mut ops = vec![FileOp::Df; m.df];
    for i in 0..m.stat {
        ops.push(FileOp::Stat {
            file: file(rng),
            present: i < m.stat_present,
        });
    }
    for _ in 0..m.get_hit {
        ops.push(FileOp::GetHit(file(rng)));
    }
    ops.extend((0..m.get_miss).map(FileOp::GetMiss));
    for len in sizes {
        ops.push(FileOp::Put {
            file: file(rng),
            off: rng.range_u64(0, OFFSETS as u64) as usize,
            len,
        });
    }
    shuffle(&mut ops, rng);
    ops
}

/// What a request must be answered with.
enum Expect {
    Df,
    Stat(bool),
    Data { off: usize, len: usize },
    Missing,
    Stored { file: usize, off: usize, len: usize },
    Job(u64),
    Stats,
}

/// One persistent non-blocking connection with at most one request in
/// flight.
struct Conn {
    stream: TcpStream,
    token: u64,
    out: Vec<u8>,
    sent: usize,
    inbuf: FrameBuf,
    in_flight: Option<(usize, Expect, Instant, Option<Request>)>,
}

impl Conn {
    fn open(addr: &str, token: u64, epoll: &Epoll) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        epoll.add(stream.as_raw_fd(), token, true, false)?;
        Ok(Conn {
            stream,
            token,
            out: Vec::new(),
            sent: 0,
            inbuf: FrameBuf::new(),
            in_flight: None,
        })
    }

    /// Write what the socket takes; keep write interest while bytes
    /// remain.
    fn flush(&mut self, epoll: &Epoll) -> std::io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let pending = self.sent < self.out.len();
        if !pending {
            self.out.clear();
            self.sent = 0;
        }
        epoll.modify(self.stream.as_raw_fd(), self.token, true, pending)
    }

    fn send(
        &mut self,
        epoll: &Epoll,
        class: usize,
        req: Request,
        expect: Expect,
        keep: bool,
    ) -> std::io::Result<()> {
        let start = Instant::now();
        frame_into(&mut self.out, &req.encode());
        self.in_flight = Some((class, expect, start, keep.then_some(req)));
        self.flush(epoll)
    }

    /// Read everything available; `Ok(false)` on end of stream.
    fn fill(&mut self, scratch: &mut [u8]) -> std::io::Result<bool> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.inbuf.extend(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The generator's own count of what the daemon should have recorded,
/// per connection (client id = connection token).
#[derive(Default, Debug, PartialEq, Eq, Clone, Copy)]
struct Counters {
    submit_ok: u64,
    put_ok: u64,
    get_ok: u64,
    get_err: u64,
    df_calls: u64,
}

/// A running daemon plus the generator's connections and model.
pub struct Verbs {
    daemon: Option<GriddHandle>,
    epoll: Epoll,
    conns: [Conn; 2],
    plan: Vec<FileOp>,
    payload: Vec<u8>,
    /// File index → (offset, length) of its current content.
    model: Vec<(usize, usize)>,
    counters: [Counters; 2],
    jobs: u64,
    /// Client-observed latency samples per class, µs.
    pub latency_us: [Vec<f64>; 6],
    /// Request/response pairs of traced passes, for the codec probe.
    pub recorded: Vec<(Request, Response)>,
    scratch: Vec<u8>,
}

fn file_name(i: usize) -> String {
    format!("f{i:03}")
}

impl Verbs {
    /// Start the daemon, connect both connections and preload the
    /// working set.
    pub fn setup(seed: u64, t: &mut Tracer, r: &mut Report) -> std::io::Result<Verbs> {
        let mut rng = SimRng::new(seed);
        let plan = file_plan(&mut rng);
        let payload: Vec<u8> = (0..MAX_PUT + OFFSETS)
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut preload = put_sizes(FILES);
        shuffle(&mut preload, &mut rng);

        let daemon = t.span("gridd.start", |_| gridd::start(config()))?;
        let addr = daemon.addr().to_string();
        let epoll = Epoll::new()?;
        let conns = t.span("gridd.connect", |_| -> std::io::Result<[Conn; 2]> {
            Ok([Conn::open(&addr, 0, &epoll)?, Conn::open(&addr, 1, &epoll)?])
        })?;
        let mut v = Verbs {
            daemon: Some(daemon),
            epoll,
            conns,
            plan,
            payload,
            model: vec![(0, 0); FILES],
            counters: [Counters::default(); 2],
            jobs: 0,
            latency_us: Default::default(),
            recorded: Vec::new(),
            scratch: vec![0; 256 << 10],
        };
        t.span("gridd.preload", |_| -> std::io::Result<()> {
            for (i, &len) in preload.iter().enumerate() {
                let off = (i * 61) % OFFSETS;
                let req = Request::Put {
                    client: 0,
                    name: file_name(i),
                    data: v.payload[off..off + len].to_vec(),
                };
                let expect = Expect::Stored { file: i, off, len };
                v.conns[0].send(&v.epoll, PUT, req, expect, false)?;
                v.await_one(0, r, &mut Tracer::new(false))?;
            }
            Ok(())
        })?;
        // Preload latencies are set-up, not workload.
        v.latency_us = Default::default();
        Ok(v)
    }

    fn file_request(&self, op: FileOp) -> (usize, Request, Expect) {
        match op {
            FileOp::Df => (DF, Request::Df { client: 0 }, Expect::Df),
            FileOp::Stat { file, present } => {
                let name = if present {
                    file_name(file)
                } else {
                    format!("absent-{file}")
                };
                (
                    STAT,
                    Request::Stat { client: 0, name },
                    Expect::Stat(present),
                )
            }
            FileOp::GetHit(file) => {
                let (off, len) = self.model[file];
                let req = Request::Get {
                    client: 0,
                    name: file_name(file),
                };
                (GET_HIT, req, Expect::Data { off, len })
            }
            FileOp::GetMiss(k) => {
                let req = Request::Get {
                    client: 0,
                    name: format!("missing-{k}"),
                };
                (GET_MISS, req, Expect::Missing)
            }
            FileOp::Put { file, off, len } => {
                let req = Request::Put {
                    client: 0,
                    name: file_name(file),
                    data: self.payload[off..off + len].to_vec(),
                };
                (PUT, req, Expect::Stored { file, off, len })
            }
        }
    }

    fn send_submit(&mut self, keep: bool) -> std::io::Result<()> {
        let req = Request::Submit {
            client: 1,
            job: "job".into(),
        };
        let want = self.jobs + 1;
        self.conns[1].send(&self.epoll, SUBMIT, req, Expect::Job(want), keep)
    }

    /// Check one response against its expectation and update the model
    /// and counters. Returns whether it was right.
    fn verify(&mut self, conn: usize, expect: &Expect, resp: &Response) -> bool {
        let c = &mut self.counters[conn];
        match (expect, resp) {
            (Expect::Df, Response::Free { slots }) => {
                c.df_calls += 1;
                // A submit in service may hold one slot.
                let all = config().slots;
                *slots == all || *slots + 1 == all
            }
            (Expect::Stat(present), Response::Free { slots }) => {
                c.df_calls += 1;
                *slots == u64::from(*present)
            }
            (Expect::Data { off, len }, Response::Data { data }) => {
                c.get_ok += 1;
                data[..] == self.payload[*off..*off + *len]
            }
            (
                Expect::Missing,
                Response::Err {
                    code: ErrCode::NotFound,
                    ..
                },
            ) => {
                c.get_err += 1;
                true
            }
            (Expect::Stored { file, off, len }, Response::Ok { info }) => {
                c.put_ok += 1;
                self.model[*file] = (*off, *len);
                *info == format!("{len} bytes")
            }
            (Expect::Job(n), Response::Ok { info }) => {
                c.submit_ok += 1;
                self.jobs += 1;
                *info == format!("job@{n}")
            }
            (Expect::Stats, Response::Stats { .. }) => true,
            _ => false,
        }
    }

    /// Handle readiness on one connection: flush, read, and complete the
    /// in-flight request if its response arrived. Returns that response.
    fn on_ready(
        &mut self,
        ev: Event,
        r: &mut Report,
        t: &mut Tracer,
    ) -> std::io::Result<Option<Response>> {
        let i = ev.token as usize;
        if ev.writable {
            self.conns[i].flush(&self.epoll)?;
        }
        if !(ev.readable || ev.hangup) {
            return Ok(None);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let open = self.conns[i].fill(&mut scratch);
        self.scratch = scratch;
        let frame = self.conns[i]
            .inbuf
            .next_frame()
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        let Some(frame) = frame else {
            return if open? {
                Ok(None)
            } else {
                Err(ErrorKind::UnexpectedEof.into())
            };
        };
        let resp = Response::decode(&frame).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        let end = Instant::now();
        let (class, expect, start, req) = self.conns[i]
            .in_flight
            .take()
            .ok_or_else(|| std::io::Error::other("response with no request in flight"))?;
        let ok = self.verify(i, &expect, &resp);
        r.op(ok, || format!("request class {class} answered {resp:?}"));
        if let Some(name) = CLASSES.get(class) {
            self.latency_us[class].push((end - start).as_secs_f64() * 1e6);
            t.record(&format!("gridd.{name}"), start, end);
        }
        if let Some(req) = req {
            self.recorded.push((req, resp.clone()));
        }
        Ok(Some(resp))
    }

    /// Wait until connection `conn`'s in-flight request completes.
    fn await_one(
        &mut self,
        conn: usize,
        r: &mut Report,
        t: &mut Tracer,
    ) -> std::io::Result<Response> {
        let mut events = Vec::new();
        loop {
            if self.epoll.wait(&mut events, Some(STALL))? == 0 {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "gridd stalled"));
            }
            for &ev in &events {
                if let Some(resp) = self.on_ready(ev, r, t)? {
                    if ev.token as usize == conn {
                        return Ok(resp);
                    }
                }
            }
        }
    }

    fn run_pass(&mut self, t: &mut Tracer, r: &mut Report) -> std::io::Result<u64> {
        let keep = t.on();
        let mut next = 0;
        let mut done = 0u64;
        let (class, req, expect) = self.file_request(self.plan[next]);
        next += 1;
        self.conns[0].send(&self.epoll, class, req, expect, keep)?;
        self.send_submit(keep)?;
        let mut submits = 1;
        let mut events = Vec::new();
        while self.conns.iter().any(|c| c.in_flight.is_some()) {
            if self.epoll.wait(&mut events, Some(STALL))? == 0 {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "gridd stalled"));
            }
            for &ev in &events {
                if self.on_ready(ev, r, t)?.is_none() {
                    continue;
                }
                done += 1;
                if ev.token == 0 && next < self.plan.len() {
                    let (class, req, expect) = self.file_request(self.plan[next]);
                    next += 1;
                    self.conns[0].send(&self.epoll, class, req, expect, keep)?;
                } else if ev.token == 1 && submits < PASS_SUBMITS {
                    self.send_submit(keep)?;
                    submits += 1;
                }
            }
        }
        Ok(done)
    }

    /// One pass of the workload's fixed work.
    pub fn pass(&mut self, t: &mut Tracer, r: &mut Report) -> Pass {
        let mut pass = Pass::default();
        let cpu0 = (sys::process_cpu_s(), sys::thread_cpu_s());
        match self.run_pass(t, r) {
            Ok(done) => pass.ops = done,
            Err(e) => r.fail(format!("gridd transport: {e}")),
        }
        pass.cpu = Some((sys::process_cpu_s() - cpu0.0, sys::thread_cpu_s() - cpu0.1));
        pass
    }

    /// Ask the daemon for its counters and compare them with the
    /// generator's; dropping `self` then stops the daemon.
    pub fn finish(mut self, r: &mut Report) {
        let sent = self.conns[0]
            .send(&self.epoll, STATS, Request::Stats, Expect::Stats, false)
            .and_then(|()| self.await_one(0, r, &mut Tracer::new(false)));
        match sent {
            Ok(Response::Stats { json }) => {
                let json = json::parse(&json).unwrap_or(json::Value::Null);
                for (client, want) in self.counters.iter().enumerate() {
                    let got = daemon_counters(&json, client);
                    r.check(got.as_ref() == Some(want), || {
                        format!(
                            "gridd stats for client {client}: daemon {got:?}, generator {want:?}"
                        )
                    });
                }
                for refused in [
                    "submit_busy",
                    "submit_down",
                    "submit_lost",
                    "put_err",
                    "resets",
                ] {
                    let n: f64 = (0..2).filter_map(|c| counter(&json, refused, c)).sum();
                    r.check(n == 0.0, || format!("gridd refused work: {refused} = {n}"));
                }
            }
            other => r.fail(format!("gridd stats request failed: {other:?}")),
        }
    }
}

/// One per-client counter from the daemon's `stats` JSON (a
/// `SeriesSet` with one `[client, count]` point per client that has
/// spoken to it). A client without a point has a zero count; `None`
/// means the counter itself is missing.
fn counter(stats: &json::Value, name: &str, client: usize) -> Option<f64> {
    let series = json::get(stats.as_object()?, "series")?.as_array()?;
    let points = series.iter().find_map(|s| {
        let s = s.as_object()?;
        (json::get(s, "name")?.as_str()? == name).then(|| json::get(s, "points")?.as_array())?
    })?;
    let count = points.iter().find_map(|p| match p.as_array()? {
        [x, y] if x.as_u64()? == client as u64 => y.as_f64(),
        _ => None,
    });
    Some(count.unwrap_or(0.0))
}

fn daemon_counters(stats: &json::Value, client: usize) -> Option<Counters> {
    let get = |name| counter(stats, name, client).map(|v| v as u64);
    Some(Counters {
        submit_ok: get("submit_ok")?,
        put_ok: get("put_ok")?,
        get_ok: get("get_ok")?,
        get_err: get("get_err")?,
        df_calls: get("df_calls")?,
    })
}

impl Drop for Verbs {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

/// Per-frame encode and decode cost, ns, of the recorded verb stream:
/// every request and response is framed into one byte stream, then the
/// stream is fed back through `FrameBuf` in socket-sized chunks and
/// decoded. Checks that every frame decodes to what was encoded.
pub fn codec_probe(recorded: &[(Request, Response)], r: &mut Report) {
    if recorded.is_empty() {
        r.fail("codec probe: no recorded verb stream".into());
        return;
    }
    let frames = 2 * recorded.len();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut wire = Vec::new();
        for (req, resp) in recorded {
            frame_into(&mut wire, &req.encode());
            frame_into(&mut wire, &resp.encode());
        }
        enc.push(start.elapsed().as_nanos() as f64 / frames as f64);

        let start = Instant::now();
        let mut buf = FrameBuf::new();
        let mut decoded = Vec::with_capacity(recorded.len());
        let mut pending_req = None;
        for chunk in wire.chunks(64 << 10) {
            buf.extend(chunk);
            while let Ok(Some(frame)) = buf.next_frame() {
                match pending_req.take() {
                    None => pending_req = Some(Request::decode(&frame)),
                    Some(req) => decoded.push((req, Response::decode(&frame))),
                }
            }
        }
        dec.push(start.elapsed().as_nanos() as f64 / frames as f64);
        let same = decoded.len() == recorded.len()
            && decoded
                .iter()
                .zip(recorded)
                .all(|((q, p), (rq, rp))| q.as_ref() == Ok(rq) && p.as_ref() == Ok(rp));
        r.check(same, || {
            "codec probe: decoded stream differs from the recorded one".into()
        });
    }
    r.metric("gridd.proto.encode_ns", "ns", median(&enc));
    r.metric("gridd.proto.decode_ns", "ns", median(&dec));
    r.info("gridd.proto.frames", "count", frames as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_sizes_span_the_range_and_are_seed_free() {
        let m = Mix::per_pass();
        let s = put_sizes(m.put);
        assert_eq!((s[0], s[m.put - 1]), (MIN_PUT, MAX_PUT));
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let a = file_plan(&mut SimRng::new(1));
        let b = file_plan(&mut SimRng::new(2));
        assert_eq!(a.len(), m.df + m.stat + m.get_hit + m.get_miss + m.put);
        let bytes = |p: &[FileOp]| {
            p.iter()
                .map(|op| match op {
                    FileOp::Put { len, .. } => *len,
                    _ => 0,
                })
                .sum::<usize>()
        };
        assert_eq!(bytes(&a), bytes(&b));
    }

    /// `TRACE_COUNTS` are the committed traces' counts.
    #[test]
    fn mix_comes_from_the_committed_traces() {
        use simgrid::TraceEv;
        let read = |name: &str| {
            let path = sys::repo_root().join("results").join(name);
            let text = std::fs::read_to_string(&path).expect("committed trace");
            simgrid::trace::from_jsonl(&text).expect("trace parses")
        };
        let mut c = TraceCounts::default();
        for rec in read("live-ethernet.jsonl") {
            match rec.ev {
                TraceEv::CmdEnd { program, .. } if program == "sense" => c.df += 1,
                TraceEv::CmdEnd { program, .. } if program == "submit" => c.submit += 1,
                _ => {}
            }
        }
        let mut deferrals = 0;
        for rec in read("coord-fig8.jsonl")
            .into_iter()
            .chain(read("coord-fig9.jsonl"))
        {
            match rec.ev {
                TraceEv::CarrierSense { .. } => c.stat += 1,
                TraceEv::Deferral => deferrals += 1,
                TraceEv::CmdEnd { program, ok } if program == "fetch" => {
                    c.get += 1;
                    c.get_miss += u64::from(!ok);
                }
                TraceEv::CmdEnd { program, .. } if program == "publish" => c.put += 1,
                _ => {}
            }
        }
        c.stat_present = c.stat - deferrals;
        assert_eq!(c, TRACE_COUNTS);
        let m = Mix::per_pass();
        assert!(m.get_miss > 0 && m.stat_present > 0 && m.put > 0);
    }
}
