//! The daemon side: a `SessionPool` (2 shards, shipped `.cat` twins —
//! `txmm serve --listen 127.0.0.1:0 --shards 2 --with-cat`) on loopback,
//! closed-loop client connections, and the timed serving window.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::protocol::{parse_json, Json};

use crate::stream::{Kind, Stream};

/// Client connections in the timed window.
pub const CLIENTS: usize = 2;

pub fn pool_config() -> PoolConfig {
    PoolConfig {
        shards: 2,
        with_cat: true,
        cat_files: Vec::new(),
    }
}

/// A running daemon on an ephemeral loopback port.
pub struct Server {
    pub addr: String,
    thread: thread::JoinHandle<()>,
}

impl Server {
    pub fn start() -> Server {
        let pool = SessionPool::new(&pool_config()).expect("the shipped models register");
        let daemon =
            Daemon::bind(&ListenAddr::Tcp("127.0.0.1:0".into()), pool).expect("loopback bind");
        let addr = daemon.local_addr().to_string();
        let thread = thread::spawn(move || daemon.run().expect("daemon serves"));
        Server { addr, thread }
    }

    /// Ask for a graceful shutdown and wait for the daemon to drain.
    pub fn stop(self) {
        Client::connect(&self.addr).call("{\"cmd\":\"shutdown\"}\n");
        self.thread.join().expect("daemon thread exits cleanly");
    }
}

/// One closed-loop connection.
pub struct Client(BufReader<TcpStream>);

impl Client {
    pub fn connect(addr: &str) -> Client {
        let s = TcpStream::connect(addr).expect("connect to the daemon");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        Client(BufReader::new(s))
    }

    /// Send one newline-terminated request line and read its response
    /// frame; returns the frame's lines joined by newlines.
    pub fn call(&mut self, line: &str) -> String {
        self.0
            .get_mut()
            .write_all(line.as_bytes())
            .expect("send request");
        let mut frame = String::new();
        loop {
            let start = frame.len();
            let n = self.0.read_line(&mut frame).expect("read response");
            assert!(n > 0, "daemon closed the connection mid-frame");
            if &frame[start..] == "\n" {
                frame.truncate(start.saturating_sub(1));
                return frame;
            }
        }
    }
}

/// One set-up, timed: build the pool and bind, then answer `probe`.
/// The two parts are timed apart with an untimed pause between them, so
/// the first request meets the daemon's accept loop (which polls every
/// 5 ms) at a random phase, as a later client would, instead of racing
/// the daemon thread's first poll.
pub fn setup(probe: &str) -> (Server, f64) {
    let t = Instant::now();
    let server = Server::start();
    let build = t.elapsed();
    thread::sleep(Duration::from_millis(7));
    let t = Instant::now();
    let answer = Client::connect(&server.addr).call(probe);
    let secs = (build + t.elapsed()).as_secs_f64();
    assert!(
        !answer.contains("\"error\""),
        "set-up probe failed: {answer}"
    );
    (server, secs)
}

/// Serve every program once per kind, untimed, so the caches are warm.
pub fn prime(addr: &str, stream: &Stream) {
    let mut c = Client::connect(addr);
    for p in &stream.programs {
        for kind in [Kind::Check, Kind::Outcomes] {
            c.call(p.line(kind));
        }
    }
}

pub struct Record {
    /// Index into `Stream::requests`.
    pub request: usize,
    pub latency: Duration,
    /// Identical answers share one allocation, so the kept responses
    /// of a warm window do not grow with its request count.
    pub response: Arc<str>,
}

pub struct Window {
    pub records: Vec<Record>,
    pub elapsed: Duration,
}

/// The timed window: [`CLIENTS`] closed-loop connections take the next
/// request of `range` until it is exhausted or `deadline` passes.
/// Each latency runs from just before the request is written to just
/// after its response frame has been read.
pub fn window(addr: &str, stream: &Stream, range: Range<usize>, deadline: Duration) -> Window {
    let next = AtomicUsize::new(range.start);
    let barrier = Barrier::new(CLIENTS + 1);
    let (start, mut per_client) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr);
                    let mut out = Vec::new();
                    let mut distinct: HashSet<Arc<str>> = HashSet::new();
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end || start.elapsed() >= deadline {
                            return (out, Instant::now());
                        }
                        let line = stream.line(stream.requests[i]);
                        let t = Instant::now();
                        let response = c.call(line);
                        let latency = t.elapsed();
                        let response = match distinct.get(response.as_str()) {
                            Some(r) => Arc::clone(r),
                            None => {
                                let r: Arc<str> = response.into();
                                distinct.insert(Arc::clone(&r));
                                r
                            }
                        };
                        out.push(Record {
                            request: i,
                            latency,
                            response,
                        });
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (start, results)
    });
    let end = per_client
        .iter()
        .map(|(_, end)| *end)
        .max()
        .expect("clients ran");
    let mut records: Vec<Record> = per_client.drain(..).flat_map(|(r, _)| r).collect();
    records.sort_by_key(|r| r.request);
    Window {
        records,
        elapsed: end - start,
    }
}

/// Latencies (ms, ascending) and request rate of one slice of a window.
pub struct Slice {
    pub checks: Vec<f64>,
    pub outcomes: Vec<f64>,
    pub rate: f64,
}

/// A window's latencies by kind and its request rate.
pub fn slice(stream: &Stream, win: &Window) -> Slice {
    let mut s = Slice {
        checks: Vec::new(),
        outcomes: Vec::new(),
        rate: win.records.len() as f64 / win.elapsed.as_secs_f64(),
    };
    for r in &win.records {
        let ms = r.latency.as_secs_f64() * 1e3;
        match stream.requests[r.request].kind {
            Kind::Check => s.checks.push(ms),
            Kind::Outcomes => s.outcomes.push(ms),
        }
    }
    s.checks.sort_by(f64::total_cmp);
    s.outcomes.sort_by(f64::total_cmp);
    s
}

/// The daemon's `stats` answer, parsed.
pub fn stats(addr: &str) -> Json {
    parse_json(&Client::connect(addr).call("{\"cmd\":\"stats\"}\n")).expect("stats is JSON")
}

pub fn num(v: &Json, key: &str) -> f64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}
