//! The daemon workload, `serve_mix`: an open loop at fixed offered
//! rates against the shipped `webssari serve` binary over loopback.
//!
//! Why this workload: it is the only one that exercises `serve` and the
//! engine cache's read, insert and evict paths together. Warm `/verify`
//! requests take the event loop's inline cache-hit path; cold ones are
//! dispatched to the worker, verified and inserted; every `/batch`,
//! even an all-hit one, still pays the per-batch store summary.
//!
//! The generator is one thread of this process driving two keep-alive
//! connections (one sends the `/verify` requests, the other the
//! `/batch` requests). It sends each request at its due time whether or
//! not earlier answers have arrived (pipelining), and reads answers in
//! between. Latency runs from a request's due time, so a stalled server
//! or a late generator both show.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use corpus::{Corpus, GeneratedProject};
use jsonio::Value;
use php_front::SourceSet;

use crate::batch::{namespaced, slug};
use crate::oracle::{self, Answer};
use crate::poll::{self, PollFd};
use crate::stats::{self, Rng};
use crate::{Args, Outcome};

/// The nominal offered rate, requests per second. It sits far below
/// what one engine worker sustains on this mix.
const NOMINAL_RPS: f64 = 125.0;
/// The nominal phase and every ladder step send a whole number of these
/// units: one block of ten requests per Figure 10 project, so every
/// project is sent as an edited `/batch` exactly once per unit. The
/// slowest requests are those cold project batches, so the nominal p99
/// falls at the same place among the projects, whatever the seed, and a
/// step's work does not depend on which projects a partial round holds.
const NOMINAL_UNIT: usize = 380;
/// Each ladder step offers this many times the previous step's rate.
const LADDER_FACTOR: f64 = 1.5;
/// The first coarse step tried, 422 rps. The steps below it (188 and
/// 281 rps) load the worker to a third at most and pass on any healthy
/// server; the time they took goes to the nominal phase instead. If this
/// step misses the limit, the bisection starts from the nominal rate.
const LADDER_FIRST: usize = 3;
/// The last coarse step tried, 1,424 rps.
const LADDER_STEPS: usize = 6;
/// Halvings of the gap between the last coarse step that met the limit
/// and the first that missed it.
const BISECTIONS: u32 = 3;
/// The latency limit `max_rps` is judged by: p99 from the due time.
/// Generous next to the nominal p99 (about 20 ms), so that a stall of
/// the shared machine does not fail a step; a backlog that keeps
/// growing for a whole step still does.
const P99_LIMIT_MS: f64 = 500.0;
/// How long after its due time an unanswered request counts as timed
/// out.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(1);
/// Warm-cache cap: above the primed hot set (17 pages + 154 project
/// files), below the distinct inputs a run creates, so LRU eviction
/// happens while measuring.
const CACHE_MAX_ENTRIES: usize = 640;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Verify,
    Batch { edited: bool },
}

/// One scheduled request.
struct Request {
    due: Duration,
    kind: Kind,
    answer: Answer,
    bytes: Vec<u8>,
}

/// What came back for one request.
#[derive(Clone, Default)]
struct Reply {
    sent: Option<Duration>,
    done: Option<Duration>,
    status: u16,
    body: Vec<u8>,
}

/// The inputs: single-page `/verify` sources and whole projects for
/// `/batch`, each with its Figure 10 answer. The engine caches one
/// result per file name, so every distinct input gets its own name:
/// `<project>.php` for a page, `<project>/<file>` for a project, and a
/// request-unique variant of either for an edit.
struct Inputs {
    pages: Vec<(String, String, Answer)>,
    projects: Vec<(GeneratedProject, String, Answer)>,
}

impl Inputs {
    fn new() -> Result<Self, String> {
        let projects = Corpus::figure10().projects;
        let answers = oracle::figure10_answers(&projects)?;
        let pages = projects
            .iter()
            .zip(&answers)
            .filter(|(p, _)| p.sources.len() == 2)
            .map(|(p, a)| single_page(p).map(|src| (slug(&p.name), src, *a)))
            .collect::<Result<Vec<_>, _>>()?;
        let projects = projects
            .into_iter()
            .zip(answers)
            .map(|(p, a)| {
                let dir = slug(&p.name);
                (p, dir, a)
            })
            .collect();
        Ok(Inputs { pages, projects })
    }

    /// The hot set: every page and every unedited project once.
    fn hot(&self) -> Vec<(Kind, Answer, Vec<u8>)> {
        let pages = self.pages.iter().map(|(name, src, a)| {
            (
                Kind::Verify,
                *a,
                verify_request(&format!("{name}.php"), src),
            )
        });
        let projects = self.projects.iter().map(|(p, dir, a)| {
            (
                Kind::Batch { edited: false },
                *a,
                batch_request(&namespaced(p, dir)),
            )
        });
        pages.chain(projects).collect()
    }

    /// A seeded request stream of `n` requests at `rps`. The mix is
    /// exact in every block of ten requests (one cold `/verify`, one
    /// unchanged and one edited `/batch`, seven warm `/verify`); the
    /// seed picks the order in which pages and projects are visited and
    /// the page each edited project changes, so every run covers them
    /// evenly. `tag` makes every cold edit unique across the run.
    ///
    /// The order within a block is fixed, with the three requests that
    /// need the worker first. The slowest request, an edited project
    /// batch, then has the rest of the block (64 ms at the nominal
    /// rate) before the next one needs the worker. A shuffled block
    /// would put a cold `/verify` behind an edited batch wherever the
    /// shuffle placed it there, and the warm requests pipelined behind
    /// it would wait too: which requests make up the p99 would change
    /// with the seed, and the p99 with it, by up to a third.
    ///
    /// With seven warm requests in ten, the median request is a warm
    /// one well inside the fast body of their latencies.
    fn schedule(&self, rng: &mut Rng, rps: f64, n: usize, tag: &str) -> Vec<Request> {
        const BLOCK: [Slot; 10] = [
            Slot::ColdVerify,
            Slot::Batch,
            Slot::EditedBatch,
            Slot::WarmVerify,
            Slot::WarmVerify,
            Slot::WarmVerify,
            Slot::WarmVerify,
            Slot::WarmVerify,
            Slot::WarmVerify,
            Slot::WarmVerify,
        ];
        let slots: Vec<Slot> = BLOCK.iter().copied().cycle().take(n).collect();
        // Warm pages, cold pages, unchanged projects, edited projects.
        let (pages, projects) = (self.pages.len(), self.projects.len());
        let mut cycles = [pages, pages, projects, projects].map(|n| Cycle::new(rng, n));
        (0..n)
            .map(|k| {
                let due = Duration::from_secs_f64(k as f64 / rps);
                let edit = format!("\n// edit {tag}:{k}\n");
                let slot = slots[k];
                match slot {
                    Slot::WarmVerify | Slot::ColdVerify => {
                        let cold = slot == Slot::ColdVerify;
                        let (name, src, answer) = &self.pages[cycles[usize::from(cold)].next(rng)];
                        let bytes = if cold {
                            verify_request(
                                &format!("{name}-{tag}-{k}.php"),
                                &format!("{src}{edit}"),
                            )
                        } else {
                            verify_request(&format!("{name}.php"), src)
                        };
                        Request {
                            due,
                            kind: Kind::Verify,
                            answer: *answer,
                            bytes,
                        }
                    }
                    Slot::Batch | Slot::EditedBatch => {
                        let edited = slot == Slot::EditedBatch;
                        let (project, dir, answer) =
                            &self.projects[cycles[2 + usize::from(edited)].next(rng)];
                        let sources = if edited {
                            let mut sources = namespaced(project, &format!("{dir}-{tag}-{k}"));
                            let pages: Vec<(String, String)> = sources
                                .iter()
                                .filter(|(n, _)| n.contains("/page"))
                                .map(|(n, s)| (n.to_owned(), s.to_owned()))
                                .collect();
                            let (page, src) = &pages[rng.below(pages.len())];
                            sources.add_file(page.clone(), format!("{src}{edit}"));
                            sources
                        } else {
                            namespaced(project, dir)
                        };
                        Request {
                            due,
                            kind: Kind::Batch { edited },
                            answer: *answer,
                            bytes: batch_request(&sources),
                        }
                    }
                }
            })
            .collect()
    }
}

/// A request slot of the traffic mix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    WarmVerify,
    ColdVerify,
    Batch,
    EditedBatch,
}

/// Visits `0..n` in seeded random orders, reshuffled every round.
struct Cycle {
    order: Vec<usize>,
    at: usize,
}

impl Cycle {
    fn new(rng: &mut Rng, n: usize) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(rng, &mut order);
        Cycle { order, at: 0 }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.at == self.order.len() {
            shuffle(rng, &mut self.order);
            self.at = 0;
        }
        self.at += 1;
        self.order[self.at - 1]
    }
}

/// Fisher-Yates with the seeded generator.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A single-page Figure 10 project as one self-contained file: the
/// library's functions spliced in place of the page's include.
fn single_page(p: &GeneratedProject) -> Result<String, String> {
    let lib = p.sources.file("lib.php").ok_or("lib.php missing")?;
    let (name, page) = p
        .sources
        .iter()
        .find(|(n, _)| *n != "lib.php")
        .ok_or("page missing")?;
    let include = "include 'lib.php';\n";
    if !page.contains(include) {
        return Err(format!("{}: {name} has no include to splice", p.name));
    }
    let body = lib.strip_prefix("<?php\n").unwrap_or(lib);
    Ok(page.replacen(include, body, 1))
}

fn verify_request(name: &str, source: &str) -> Vec<u8> {
    post(&format!("/verify?file={name}"), source.as_bytes())
}

fn batch_request(sources: &SourceSet) -> Vec<u8> {
    let files = sources
        .iter()
        .map(|(n, s)| Value::obj(vec![("name", Value::str(n)), ("source", Value::str(s))]))
        .collect();
    post(
        "/batch",
        Value::obj(vec![("files", Value::Arr(files))])
            .to_json()
            .as_bytes(),
    )
}

fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Splits one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`.
fn split_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then(|| (status, buf[head_end..end].to_vec(), end))
}

/// One synchronous request on a fresh connection (set-up and scrapes).
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 65536];
    loop {
        if let Some((status, body, _)) = split_response(&buf) {
            return Ok((status, body));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_owned()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Every sample of a `/metrics` scrape, keyed by name and labels.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let Ok((200, body)) = exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n") else {
        return BTreeMap::new();
    };
    String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

fn sample(m: &BTreeMap<String, f64>, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

/// A running `webssari serve`, killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Kept open so the server's later banner lines never hit a closed
    /// pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(webssari: &Path) -> Result<Server, String> {
        let mut child = Command::new(webssari)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .args(["--cache-max-entries", &CACHE_MAX_ENTRIES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", webssari.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .rsplit_once("http://")
            .and_then(|(_, a)| a.parse().ok());
        // Owned before the banner is checked, so a failed start still
        // kills and reaps the child.
        let mut server = Server {
            child,
            addr: ([127, 0, 0, 1], 0).into(),
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("unexpected server banner {banner:?}")),
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for `/healthz`, then sends the hot set once so the measured
    /// phases start warm. Returns (attempted, failed).
    fn prime(&self, inputs: &Inputs) -> Result<(u64, u64), String> {
        let ready = Instant::now();
        while !matches!(
            exchange(self.addr, b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"),
            Ok((200, _))
        ) {
            if ready.elapsed() > Duration::from_secs(10) {
                return Err("server never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut failed = 0;
        let hot = inputs.hot();
        for (kind, answer, bytes) in &hot {
            let reply = exchange(self.addr, bytes)?;
            if check(*kind, *answer, reply.0, &reply.1).is_err() {
                failed += 1;
            }
        }
        Ok((hot.len() as u64, failed))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Samples the server's dispatch-queue depth during the traced run
/// without ever blocking the generator thread that polls it: a
/// `/metrics` request goes out on a connection of its own, and its
/// answer is picked up by a later poll.
struct Monitor {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    asked: bool,
    last: Instant,
    depth_max: f64,
}

impl Monitor {
    /// How often the depth is sampled.
    const EVERY: Duration = Duration::from_millis(50);

    fn new(addr: SocketAddr, enabled: bool) -> Self {
        Monitor {
            addr,
            stream: if enabled { connect(addr) } else { None },
            buf: Vec::new(),
            asked: false,
            last: Instant::now(),
            depth_max: 0.0,
        }
    }

    fn poll(&mut self) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 16384];
        if self.asked {
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some((_, body, used)) = split_response(&self.buf) {
                        self.buf.drain(..used);
                        let depth: f64 = String::from_utf8_lossy(&body)
                            .lines()
                            .filter(|l| l.starts_with("webssari_shard_queue_depth{"))
                            .filter_map(|l| l.rsplit_once(' ')?.1.parse::<f64>().ok())
                            .sum();
                        self.depth_max = self.depth_max.max(depth);
                        self.asked = false;
                        self.last = Instant::now();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                _ => self.reconnect(),
            }
        } else if self.last.elapsed() >= Self::EVERY {
            let request = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";
            match stream.write(request) {
                Ok(n) if n == request.len() => self.asked = true,
                _ => self.reconnect(),
            }
        }
    }

    fn reconnect(&mut self) {
        self.stream = connect(self.addr);
        self.buf.clear();
        self.asked = false;
    }
}

/// Checks one answer against its project's Figure 10 row.
fn check(kind: Kind, answer: Answer, status: u16, body: &[u8]) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    let v = std::str::from_utf8(body)
        .ok()
        .and_then(jsonio::parse)
        .ok_or("unparseable body")?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX) as usize;
    let (ts, bmc) = match kind {
        Kind::Verify => {
            if v.get("outcome").and_then(Value::as_str) != Some("vulnerable") {
                return Err("outcome is not vulnerable".to_owned());
            }
            (num(&v, "ts_errors"), num(&v, "bmc_groups"))
        }
        Kind::Batch { .. } => {
            if v.get("failed")
                .and_then(Value::as_arr)
                .is_none_or(|f| !f.is_empty())
            {
                return Err("batch has failed files".to_owned());
            }
            let files = v.get("files").and_then(Value::as_arr).unwrap_or(&[]);
            (
                files.iter().map(|f| num(f, "ts_errors")).sum(),
                files.iter().map(|f| num(f, "bmc_groups")).sum(),
            )
        }
    };
    if (ts, bmc) != (answer.ts, answer.bmc) {
        return Err(format!(
            "TS {ts} BMC {bmc}, expected TS {} BMC {}",
            answer.ts, answer.bmc
        ));
    }
    Ok(())
}

fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let s = TcpStream::connect(addr).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_nonblocking(true).ok()?;
    Some(s)
}

/// One keep-alive connection's share of a phase: its requests in due
/// order and what came back for each.
struct Lane<'a> {
    reqs: Vec<&'a Request>,
    replies: Vec<Reply>,
    stream: Option<TcpStream>,
    /// Bytes read past the last complete answer, carried over to the
    /// next read.
    residue: Vec<u8>,
    /// Due requests not yet fully written (the first may be partly
    /// written, `offset` bytes in), and written ones awaiting answers.
    unsent: VecDeque<usize>,
    offset: usize,
    waiting: VecDeque<usize>,
    /// The first request not yet due.
    next: usize,
}

impl<'a> Lane<'a> {
    fn new(reqs: Vec<&'a Request>) -> Self {
        Lane {
            replies: vec![Reply::default(); reqs.len()],
            reqs,
            stream: None,
            residue: Vec::new(),
            unsent: VecDeque::new(),
            offset: 0,
            waiting: VecDeque::new(),
            next: 0,
        }
    }

    /// Nothing in flight: every due request is answered or lost.
    fn idle(&self) -> bool {
        self.unsent.is_empty() && self.waiting.is_empty()
    }

    fn finished(&self) -> bool {
        self.next == self.reqs.len() && self.idle()
    }

    /// One round: queues the requests now due, writes as much as the
    /// socket takes and reads what has arrived. Returns whether
    /// anything moved.
    fn step(&mut self, addr: SocketAddr, start: Instant, chunk: &mut [u8]) -> bool {
        let now = Instant::now();
        while self.next < self.reqs.len() && start + self.reqs[self.next].due <= now {
            self.unsent.push_back(self.next);
            self.next += 1;
        }
        let mut progress = false;
        let mut dead = false;
        if let Some(&i) = self.unsent.front() {
            if self.stream.is_none() {
                self.residue.clear();
                self.stream = connect(addr);
            }
            let bytes = &self.reqs[i].bytes;
            match self.stream.as_mut().map(|s| s.write(&bytes[self.offset..])) {
                Some(Ok(n)) if n > 0 => {
                    progress = true;
                    self.offset += n;
                    if self.offset == bytes.len() {
                        self.replies[i].sent = Some(now - start);
                        self.unsent.pop_front();
                        self.waiting.push_back(i);
                        self.offset = 0;
                    }
                }
                Some(Err(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                // Refused, reset or closed: the request being written
                // and every unanswered one on the connection are lost.
                _ => {
                    dead = true;
                    self.unsent.pop_front();
                }
            }
        }
        if let Some(s) = self
            .stream
            .as_mut()
            .filter(|_| !dead && !self.waiting.is_empty())
        {
            match s.read(chunk) {
                Ok(0) => dead = true,
                Ok(n) => {
                    progress = true;
                    self.residue.extend_from_slice(&chunk[..n]);
                    let done = Instant::now() - start;
                    while let Some((status, body, used)) = split_response(&self.residue) {
                        self.residue.drain(..used);
                        let Some(i) = self.waiting.pop_front() else {
                            break;
                        };
                        let reply = &mut self.replies[i];
                        reply.done = Some(done);
                        reply.status = status;
                        reply.body = body;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => dead = true,
            }
        }
        if dead {
            self.stream = None;
            self.waiting.clear();
            self.offset = 0;
        }
        progress || dead
    }
}

/// Drives every lane of a phase from this one thread: writes each
/// request from its due time on, pipelined, and reads answers in
/// between. When a round makes no progress, `idle` runs (the traced run
/// samples queue depth there) and the thread waits in `ppoll` for an
/// answer or the next due time, so an answer's arrival time is not
/// rounded up to a polling interval.
fn drive(addr: SocketAddr, lanes: &mut [Lane], start: Instant, mut idle: impl FnMut()) {
    let last_due = lanes
        .iter()
        .filter_map(|l| l.reqs.last())
        .map(|r| r.due)
        .max()
        .unwrap_or(Duration::ZERO);
    let give_up = start + last_due + REQUEST_TIMEOUT;
    let mut chunk = vec![0u8; 1 << 16];
    while Instant::now() < give_up && !lanes.iter().all(Lane::finished) {
        let mut progress = false;
        for lane in lanes.iter_mut() {
            progress |= lane.step(addr, start, &mut chunk);
        }
        if progress {
            continue;
        }
        idle();
        let due = lanes
            .iter()
            .filter_map(|l| l.reqs.get(l.next))
            .map(|r| start + r.due)
            .min()
            .unwrap_or(give_up)
            .min(give_up);
        // Wake for an answer, for room to write, or at the next due time.
        let mut fds: Vec<PollFd> = lanes
            .iter()
            .filter_map(|l| {
                let stream = l.stream.as_ref()?;
                let mut events = 0;
                if !l.waiting.is_empty() {
                    events |= poll::POLLIN;
                }
                if !l.unsent.is_empty() {
                    events |= poll::POLLOUT;
                }
                (events != 0).then(|| PollFd::new(stream.as_raw_fd(), events))
            })
            .collect();
        poll::wait(&mut fds, due.saturating_duration_since(Instant::now()));
    }
}

/// What one phase at one offered rate measured.
struct Phase {
    rps: f64,
    replies: Vec<Reply>,
    /// Latency from due time per request; unanswered requests and
    /// non-200 answers count as infinitely late.
    latency_ms: Vec<f64>,
    wall: Duration,
}

impl Phase {
    fn p99(&self) -> f64 {
        stats::quantile(&self.latency_ms, 0.99)
    }

    /// Met the limit without a growing backlog: p99 within the limit,
    /// the median of the last quarter of requests within half of it (a
    /// backlog that keeps growing drags the whole tail up), and at least
    /// nine tenths of the offered rate answered.
    fn passes(&self) -> bool {
        self.p99() <= P99_LIMIT_MS
            && self.tail_median() <= P99_LIMIT_MS / 2.0
            && self.achieved_rps() >= 0.9 * self.rps
    }

    /// The median latency of the last quarter of requests.
    fn tail_median(&self) -> f64 {
        stats::median(&self.latency_ms[self.latency_ms.len() * 3 / 4..])
    }

    /// Answered requests per second over the phase.
    fn achieved_rps(&self) -> f64 {
        let ok = self.replies.iter().filter(|r| r.status == 200).count();
        ok as f64 / self.wall.as_secs_f64()
    }
}

/// Runs one phase over two keep-alive connections, both driven by this
/// thread: an editor-like client sends the `/verify` requests, a
/// CI-like client the `/batch` requests. A slow project batch then
/// holds up no `/verify` on its connection. One generator thread
/// leaves the server's event loop and worker the rest of a two-core
/// machine.
fn run_phase(addr: SocketAddr, reqs: &[Request], rps: f64, idle: impl FnMut()) -> Phase {
    let (verify, batch): (Vec<usize>, Vec<usize>) =
        (0..reqs.len()).partition(|&i| reqs[i].kind == Kind::Verify);
    let lane = |ids: &[usize]| Lane::new(ids.iter().map(|&i| &reqs[i]).collect());
    let mut lanes = [lane(&verify), lane(&batch)];
    let start = Instant::now() + Duration::from_millis(5);
    drive(addr, &mut lanes, start, idle);
    let [editor, ci] = lanes;
    let mut replies = vec![Reply::default(); reqs.len()];
    for (&i, r) in verify
        .iter()
        .chain(&batch)
        .zip(editor.replies.into_iter().chain(ci.replies))
    {
        replies[i] = r;
    }
    let latency_ms = reqs
        .iter()
        .zip(&replies)
        .map(|(q, r)| match (r.status, r.done) {
            (200, Some(done)) => stats::ms(done.saturating_sub(q.due)),
            _ => f64::INFINITY,
        })
        .collect();
    let wall = replies
        .iter()
        .filter_map(|r| r.done)
        .max()
        .unwrap_or(Duration::ZERO);
    Phase {
        rps,
        replies,
        latency_ms,
        wall: wall.max(Duration::from_millis(1)),
    }
}

/// Checks every answered request of a phase; returns the failures.
fn validate(reqs: &[Request], phase: &Phase, strict: bool, notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (q, r) in reqs.iter().zip(&phase.replies) {
        // Past the nominal rate an overloaded server may legitimately
        // shed or time out; those count against the latency limit, and
        // only a wrong answer counts as failed.
        let judged = strict || r.status == 200;
        if !judged {
            continue;
        }
        let result = if r.done.is_none() {
            Err("no answer".to_owned())
        } else {
            check(q.kind, q.answer, r.status, &r.body)
        };
        if let Err(e) = result {
            failed += 1;
            if notes.len() < 20 {
                notes.push(format!("{:?} at {:.1} rps: {e}", q.kind, phase.rps));
            }
        }
    }
    failed
}

pub fn serve_mix(args: &Args) -> Result<Outcome, String> {
    let webssari = args
        .webssari
        .as_deref()
        .ok_or("serve_mix needs --webssari PATH")?;
    let inputs = Inputs::new()?;
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let started = Instant::now();
        let s = Server::start(webssari)?;
        let (attempted, failed) = s.prime(&inputs)?;
        setups.push(started.elapsed().as_secs_f64());
        out.attempted += attempted;
        out.failed += failed;
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;

    // About three fifths of the run at the nominal rate, rounded to
    // whole units: six units, 2,280 requests, at 30 s, so that 23
    // latencies lie beyond the p99.
    let units = (NOMINAL_RPS * args.seconds * 0.6 / NOMINAL_UNIT as f64).round();
    let nominal_n = NOMINAL_UNIT * (units as usize).max(1);
    // Sized for six steps (three coarse, three bisections); a run that
    // needs more takes a little longer.
    let step_s = args.seconds * 0.4 / 6.0;
    let before = scrape(addr);
    let cpu_before = stats::cpu_seconds(Some(server.pid()));
    let reqs = inputs.schedule(&mut rng, NOMINAL_RPS, nominal_n, "n");
    let mut monitor = Monitor::new(addr, args.trace);
    let mut sampler = || monitor.poll();
    let nominal = run_phase(addr, &reqs, NOMINAL_RPS, &mut sampler);
    let cpu_s = stats::cpu_seconds(Some(server.pid())) - cpu_before;
    let peak_rss = stats::peak_rss_mb(Some(server.pid()));
    let after = scrape(addr);
    out.attempted += reqs.len() as u64;
    out.failed += validate(&reqs, &nominal, true, &mut out.notes);

    // The rate ladder: coarse steps of LADDER_FACTOR, from step
    // LADDER_FIRST on, until one misses the limit or grows a backlog, then
    // BISECTIONS halvings of the last gap. Every rate tried lies on the
    // fixed grid NOMINAL_RPS * LADDER_FACTOR^(k / 2^BISECTIONS).
    let fine = 1usize << BISECTIONS;
    let grid = |k: usize| NOMINAL_RPS * LADDER_FACTOR.powf(k as f64 / fine as f64);
    let mut best = nominal.passes().then(|| nominal.achieved_rps());
    let mut shed = 0usize;
    let mut step = |k: usize, out: &mut Outcome| -> Option<f64> {
        let rps = grid(k);
        let units = (rps * step_s / NOMINAL_UNIT as f64).round().max(1.0) as usize;
        let step_reqs = inputs.schedule(&mut rng, rps, units * NOMINAL_UNIT, &format!("l{k}"));
        let phase = run_phase(addr, &step_reqs, rps, &mut sampler);
        out.attempted += step_reqs.len() as u64;
        out.failed += validate(&step_reqs, &phase, false, &mut out.notes);
        shed += phase.replies.iter().filter(|r| r.status == 429).count();
        out.lines.push(format!(
            "ladder {rps:.1} rps: p99 {:.2} ms, tail median {:.2} ms, answered {:.1}/s, {}",
            phase.p99(),
            phase.tail_median(),
            phase.achieved_rps(),
            if phase.passes() {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        phase.passes().then(|| phase.achieved_rps())
    };
    // `max_rps` is the highest rate answered on a step that met the
    // limit. Near saturation the highest such step may be one that
    // answered a little less than a lower one, its backlog draining
    // after the step ended; it does not lower the result.
    let raise = |best: Option<f64>, achieved: f64| Some(best.map_or(achieved, |b| b.max(achieved)));
    let (mut lo, mut hi) = (0, None);
    if best.is_some() {
        for coarse in LADDER_FIRST..=LADDER_STEPS {
            match step(coarse * fine, &mut out) {
                Some(achieved) => (lo, best) = (coarse * fine, raise(best, achieved)),
                None => {
                    hi = Some(coarse * fine);
                    break;
                }
            }
        }
    }
    while let Some(h) = hi.filter(|h| h - lo > 1) {
        let mid = (lo + h) / 2;
        match step(mid, &mut out) {
            Some(achieved) => (lo, best) = (mid, raise(best, achieved)),
            None => hi = Some(mid),
        }
    }
    let end = scrape(addr);
    drop(server);

    let latency = &nominal.latency_ms;
    let by_kind = |pick: &dyn Fn(&Request, &Reply) -> bool| -> Vec<f64> {
        reqs.iter()
            .zip(&nominal.replies)
            .zip(latency)
            .filter(|((q, r), _)| pick(q, r))
            .map(|(_, l)| *l / 1e3)
            .collect()
    };
    let edited_batches = by_kind(&|q, _| q.kind == Kind::Batch { edited: true });
    out.lines.push(format!(
        "nominal {NOMINAL_RPS} rps: {} requests, p99 {:.2} ms (limit {P99_LIMIT_MS} ms)",
        reqs.len(),
        nominal.p99()
    ));
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("wall_s", nominal.wall.as_secs_f64(), "s");
    out.metric("rerun_wall_s", stats::median(&edited_batches), "s");
    out.metric("cpu_s", cpu_s, "s");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    out.metric("p50_ms", stats::quantile(latency, 0.5), "ms");
    out.metric("p99_ms", nominal.p99(), "ms");
    // If even the nominal rate misses the limit, report what it
    // achieved rather than nothing.
    out.metric(
        "max_rps",
        best.unwrap_or_else(|| nominal.achieved_rps()),
        "1/s",
    );

    if args.trace {
        let p50 = |v: Vec<f64>| stats::quantile(&v, 0.5) * 1e3;
        let from_cache = |r: &Reply, want: bool| {
            std::str::from_utf8(&r.body)
                .ok()
                .and_then(jsonio::parse)
                .and_then(|v| v.get("from_cache").cloned())
                == Some(Value::Bool(want))
        };
        let warm = by_kind(&|q, r| q.kind == Kind::Verify && from_cache(r, true));
        let cold = by_kind(&|q, r| q.kind == Kind::Verify && from_cache(r, false));
        let batches = by_kind(&|q, _| matches!(q.kind, Kind::Batch { .. }));
        out.lines.push(format!(
            "nominal /verify answers: {} from the cache, {} verified fresh",
            warm.len(),
            cold.len()
        ));
        let lag: Vec<f64> = reqs
            .iter()
            .zip(&nominal.replies)
            .filter_map(|(q, r)| r.sent.map(|s| stats::ms(s.saturating_sub(q.due))))
            .collect();
        let delta = |k: &str| sample(&after, k) - sample(&before, k);
        let hits = delta("webssari_engine_cache_hits_total");
        let lookups = hits + delta("webssari_engine_cache_misses_total");
        let busy = delta("webssari_engine_verify_seconds_total");
        let server_wall: f64 = nominal
            .replies
            .iter()
            .filter_map(|r| {
                let v = jsonio::parse(std::str::from_utf8(&r.body).ok()?)?;
                let ms = v
                    .get("wall_ms")
                    .or_else(|| v.get("summary")?.get("wall_ms"))?
                    .as_u64()?;
                Some(ms as f64 / 1e3)
            })
            .sum();
        let m = &mut out.layers;
        m.insert("serve.warm_verify_p50_ms", p50(warm));
        m.insert("serve.cold_verify_p50_ms", p50(cold));
        m.insert("serve.batch_p50_ms", p50(batches));
        m.insert("serve.generator_lag_p99_ms", stats::quantile(&lag, 0.99));
        m.insert(
            "serve.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        m.insert(
            "serve.evictions",
            delta("webssari_engine_cache_evictions_total"),
        );
        m.insert("serve.queue_depth_max", monitor.depth_max);
        m.insert(
            "serve.shed_429",
            (sample(&end, "webssari_queue_rejected_total")
                - sample(&before, "webssari_queue_rejected_total"))
            .max(shed as f64),
        );
        m.insert("engine.batch_s", server_wall);
        m.insert("engine.busy_s", busy);
        m.insert("engine.serial_s", (server_wall - busy).max(0.0));
        m.insert("engine.worker_util", busy / nominal.wall.as_secs_f64());
        m.insert(
            "engine.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
    }
    Ok(out)
}
