//! A deterministic in-process chaos proxy for TCP testing.
//!
//! [`ChaosProxy`] sits between a client and an upstream TCP server and
//! forwards bytes in both directions while injecting faults drawn from a
//! seeded splitmix64 stream:
//!
//! * **Write splits** — forwarded chunks are re-sliced into 1–7 byte
//!   writes, exercising every partial-frame path in server and client.
//! * **Mid-frame disconnects** — with probability
//!   [`ChaosConfig::disconnect_per_chunk`], a chunk is truncated at a
//!   random byte, forwarded, and then both directions are torn down —
//!   the peer sees a broken frame followed by EOF.
//! * **Stalls** — with probability [`ChaosConfig::stall_per_chunk`], the
//!   pump delays [`ChaosConfig::stall`] before forwarding. Under the
//!   default [`ChaosClock::Real`] the delay is a wall-clock sleep, long
//!   enough (when configured past the client deadline) to force
//!   timeouts; under [`ChaosClock::Virtual`] the delay is *bookkept* on
//!   a shared virtual-nanosecond counter instead of slept, so
//!   stall-heavy tests and simulator runs finish at full speed while
//!   still exercising the seeded fault schedule.
//! * **Connection refusals** — with probability
//!   [`ChaosConfig::refuse_per_conn`], an accepted connection is dropped
//!   immediately without contacting upstream.
//! * **Blackout** — [`ChaosProxy::set_blackout`] refuses all new
//!   connections and severs existing ones until cleared; this is how the
//!   harness drives the client's circuit breaker open and then lets it
//!   recover.
//!
//! Determinism scope: each connection's fault stream comes from an RNG
//! seeded `seed ^ connection_index`, and each direction's byte stream is
//! partitioned into *scripted chunks* whose lengths (1–512 bytes) are
//! drawn from that RNG — so both the chunk boundaries (as byte offsets
//! into the stream) and the per-chunk fault decisions are a pure function
//! of the seed and connection order, independent of read timing. The only
//! residual timing dependence: a disconnect whose scripted cut lies past
//! the bytes that ever arrive severs at the next idle tick instead, and
//! the low-level write slicing (1–7 byte writes) uses a derived cosmetic
//! RNG that does not perturb the fault schedule. Harnesses may therefore
//! assert per-seed fault schedules, not just aggregate invariants.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use podium_core::engine::splitmix64;

use crate::poison;

/// How injected fault *timing* (stalls, idle ticks) is accounted.
///
/// The fault *schedule* — which chunks stall, where disconnects cut —
/// is always a pure function of the seed; the clock only decides
/// whether the scheduled delays consume wall time or a virtual
/// counter. Routing timing through the virtual clock removes the last
/// wall-time dependence from stall-heavy chaos tests and keeps
/// simulator runs with chaos deterministic and fast.
#[derive(Debug, Clone, Default)]
pub enum ChaosClock {
    /// Delays are real `thread::sleep`s (the historical behavior).
    #[default]
    Real,
    /// Delays advance a shared virtual-nanosecond counter instead of
    /// sleeping. Readable via [`ChaosClock::virtual_ns`].
    Virtual(Arc<AtomicU64>),
}

impl ChaosClock {
    /// A fresh virtual clock starting at zero.
    pub fn virtual_clock() -> Self {
        Self::Virtual(Arc::new(AtomicU64::new(0)))
    }

    /// Nanoseconds accumulated on the virtual counter; `None` for the
    /// real clock.
    pub fn virtual_ns(&self) -> Option<u64> {
        match self {
            Self::Real => None,
            Self::Virtual(t) => Some(t.load(Ordering::Relaxed)),
        }
    }

    /// Spends `d` on this clock: a sleep under [`ChaosClock::Real`], a
    /// counter bump under [`ChaosClock::Virtual`].
    fn spend(&self, d: Duration) {
        match self {
            Self::Real => std::thread::sleep(d),
            Self::Virtual(t) => {
                let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                t.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }

    /// Accounts one idle read tick (no bytes arrived within the read
    /// timeout). The wall wait already happened inside the blocking
    /// read; the virtual clock records it so idle-driven faults are
    /// visible in virtual time too.
    fn idle_tick(&self, d: Duration) {
        if let Self::Virtual(t) = self {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            t.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

impl PartialEq for ChaosClock {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Self::Real, Self::Real) => true,
            (Self::Virtual(a), Self::Virtual(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Fault probabilities and timings. All probabilities are per-chunk (or
/// per-connection for refusals) in `[0.0, 1.0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault stream; same seed ⇒ same per-connection fault
    /// decisions.
    pub seed: u64,
    /// Re-slice forwarded chunks into tiny writes.
    pub split_writes: bool,
    /// Probability a chunk is truncated and the connection killed.
    pub disconnect_per_chunk: f64,
    /// Probability a chunk is delayed by [`ChaosConfig::stall`].
    pub stall_per_chunk: f64,
    /// Injected delay for stalled chunks.
    pub stall: Duration,
    /// Probability an accepted connection is dropped before contacting
    /// upstream.
    pub refuse_per_conn: f64,
    /// Whether stall/idle timing sleeps ([`ChaosClock::Real`]) or is
    /// bookkept on a virtual counter ([`ChaosClock::Virtual`]).
    pub clock: ChaosClock,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0xC4A05,
            split_writes: true,
            disconnect_per_chunk: 0.0,
            stall_per_chunk: 0.0,
            stall: Duration::from_millis(0),
            refuse_per_conn: 0.0,
            clock: ChaosClock::Real,
        }
    }
}

/// Counts of injected faults, for asserting the chaos actually happened.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted (including refused ones).
    pub connections: AtomicU64,
    /// Connections dropped on accept (refusal fault or blackout).
    pub refused: AtomicU64,
    /// Mid-frame disconnects injected.
    pub disconnects: AtomicU64,
    /// Stalls injected.
    pub stalls: AtomicU64,
    /// Total injected stall time in nanoseconds (wall or virtual,
    /// depending on [`ChaosConfig::clock`]).
    pub stalled_ns: AtomicU64,
    /// Chunks forwarded as split writes.
    pub splits: AtomicU64,
}

struct ChaosShared {
    upstream: SocketAddr,
    config: ChaosConfig,
    shutdown: AtomicBool,
    blackout: AtomicBool,
    stats: ChaosStats,
    /// Streams of live connections (client and upstream sides), kept so a
    /// blackout can sever them.
    live: Mutex<Vec<TcpStream>>,
}

/// The proxy handle. Dropping it shuts the proxy down.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shared: Arc<ChaosShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("upstream", &self.shared.upstream)
            .finish()
    }
}

fn unit_float(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

const READ_TICK: Duration = Duration::from_millis(50);

/// Upper bound on a scripted chunk length, in bytes.
const MAX_SCRIPT_CHUNK: u64 = 512;

/// Draws the next scripted chunk length (1–[`MAX_SCRIPT_CHUNK`] bytes)
/// from the schedule RNG. The sequence of lengths — and therefore the
/// byte offsets of every chunk boundary — is a pure function of the seed.
fn scripted_chunk_len(rng: &mut u64) -> usize {
    1 + (splitmix64(rng) % MAX_SCRIPT_CHUNK) as usize
}

impl ChaosProxy {
    /// Binds an ephemeral local port and starts proxying to `upstream`.
    pub fn bind(upstream: SocketAddr, config: ChaosConfig) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ChaosShared {
            upstream,
            config,
            shutdown: AtomicBool::new(false),
            blackout: AtomicBool::new(false),
            stats: ChaosStats::default(),
            live: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("chaos-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Fault counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.shared.stats
    }

    /// Enables or disables blackout mode. Enabling severs every live
    /// connection and refuses all new ones until disabled.
    pub fn set_blackout(&self, on: bool) {
        self.shared.blackout.store(on, Ordering::SeqCst);
        if on {
            let mut live = poison::recover(self.shared.live.lock());
            for stream in live.drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Stops the proxy, severing all connections.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let mut live = poison::recover(self.shared.live.lock());
        for stream in live.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ChaosShared>) {
    let mut index: u64 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let client = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        let conn_seed = shared.config.seed ^ index;
        index += 1;
        let mut rng = conn_seed;
        // Warm the stream so the first decision isn't the raw seed.
        let _ = splitmix64(&mut rng);
        let refuse = shared.blackout.load(Ordering::SeqCst)
            || unit_float(&mut rng) < shared.config.refuse_per_conn;
        if refuse {
            shared.stats.refused.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let upstream = match TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(_) => {
                shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
        };
        // podium-lint: allow(discarded-result) — NODELAY is a latency optimization; the proxy works without it
        let _ = client.set_nodelay(true);
        // podium-lint: allow(discarded-result) — NODELAY is a latency optimization; the proxy works without it
        let _ = upstream.set_nodelay(true);
        {
            let mut live = poison::recover(shared.live.lock());
            if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                live.push(c);
                live.push(u);
            }
        }
        // Two pump threads per connection: client→upstream faults use the
        // connection RNG directly; upstream→client gets an independent
        // stream derived from it so the two directions don't interleave
        // nondeterministically over one generator.
        let mut down_rng = splitmix64(&mut rng);
        let _ = splitmix64(&mut down_rng);
        spawn_pump(shared, &client, &upstream, rng, "chaos-up");
        spawn_pump(shared, &upstream, &client, down_rng, "chaos-down");
    }
}

fn spawn_pump(shared: &Arc<ChaosShared>, from: &TcpStream, to: &TcpStream, rng: u64, name: &str) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
        return;
    };
    let shared = Arc::clone(shared);
    let _ = std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(move || pump(&shared, from, to, rng));
}

/// Copies bytes `from` → `to`, injecting faults per the config. Exits on
/// EOF, error, injected disconnect, or proxy shutdown; always severs both
/// streams on the way out so the opposite pump exits too.
///
/// The stream is partitioned into scripted chunks drawn from the schedule
/// RNG: fault decisions (stall, disconnect + cut offset) roll once when
/// each scripted chunk *starts*, and bytes are forwarded as they arrive,
/// so the fault schedule is deterministic without adding latency or
/// holding bytes back from request/response traffic. A disconnect sets
/// the chunk's effective length to the scripted cut and kills once that
/// many bytes have been forwarded — or at the next idle tick if the
/// sender stalls before reaching the cut.
fn pump(shared: &ChaosShared, mut from: TcpStream, mut to: TcpStream, mut rng: u64) {
    let config = &shared.config;
    if from.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    // Cosmetic RNG for 1–7 byte write re-slicing. Derived up front so the
    // schedule RNG's draw sequence is independent of how reads and writes
    // happen to interleave.
    let mut slice_rng = splitmix64(&mut rng);
    let _ = splitmix64(&mut slice_rng);
    let mut buf = [0u8; 2048];
    // Bytes left in the current scripted chunk; 0 means the next byte
    // starts a new chunk (and rolls its fault decisions).
    let mut remaining: usize = 0;
    // A disconnect was rolled for the current chunk: sever once
    // `remaining` reaches zero (or at the next idle tick).
    let mut kill_after = false;
    let mut dead = false;
    while !dead {
        if shared.shutdown.load(Ordering::SeqCst) || shared.blackout.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                config.clock.idle_tick(READ_TICK);
                if kill_after {
                    // The scripted cut lies past the bytes that ever
                    // arrived; sever at the idle tick instead.
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut payload = &buf[..n];
        while !payload.is_empty() {
            if remaining == 0 {
                if kill_after {
                    dead = true;
                    break;
                }
                remaining = scripted_chunk_len(&mut rng);
                if config.stall_per_chunk > 0.0 && unit_float(&mut rng) < config.stall_per_chunk {
                    shared.stats.stalls.fetch_add(1, Ordering::Relaxed);
                    shared.stats.stalled_ns.fetch_add(
                        u64::try_from(config.stall.as_nanos()).unwrap_or(u64::MAX),
                        Ordering::Relaxed,
                    );
                    config.clock.spend(config.stall);
                }
                if config.disconnect_per_chunk > 0.0
                    && unit_float(&mut rng) < config.disconnect_per_chunk
                {
                    // Truncate the chunk at a scripted byte (possibly
                    // zero) and kill once it is forwarded — the peer
                    // sees a broken frame then EOF.
                    remaining = (splitmix64(&mut rng) % (remaining as u64 + 1)) as usize;
                    kill_after = true;
                    shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                    if remaining == 0 {
                        dead = true;
                        break;
                    }
                }
                if config.split_writes {
                    shared.stats.splits.fetch_add(1, Ordering::Relaxed);
                }
            }
            let take = payload.len().min(remaining);
            let (now, rest) = payload.split_at(take);
            let write_ok = if config.split_writes {
                write_split(&mut to, now, &mut slice_rng)
            } else {
                to.write_all(now).is_ok()
            };
            if !write_ok {
                dead = true;
                break;
            }
            remaining -= take;
            payload = rest;
            if remaining == 0 && kill_after {
                dead = true;
                break;
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Writes `payload` in random 1–7 byte slices, flushing each.
fn write_split(to: &mut TcpStream, payload: &[u8], rng: &mut u64) -> bool {
    let mut offset = 0;
    while offset < payload.len() {
        let len = 1 + (splitmix64(rng) % 7) as usize;
        let end = (offset + len).min(payload.len());
        if to.write_all(&payload[offset..end]).is_err() || to.flush().is_err() {
            return false;
        }
        offset = end;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial upstream echo-line server for proxy tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections then exit.
            for stream in listener.incoming().take(8) {
                let Ok(stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn proxy_forwards_lines_with_split_writes() {
        let (upstream, _handle) = echo_server();
        let proxy = ChaosProxy::bind(upstream, ChaosConfig::default()).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..20 {
            let msg = format!("hello-{i}-{}\n", "x".repeat(i * 3));
            writer.write_all(msg.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, msg);
        }
        assert!(proxy.stats().splits.load(Ordering::Relaxed) > 0);
        assert_eq!(proxy.stats().disconnects.load(Ordering::Relaxed), 0);
        proxy.shutdown();
    }

    #[test]
    fn refusal_probability_one_drops_every_connection() {
        let (upstream, _handle) = echo_server();
        let config = ChaosConfig {
            refuse_per_conn: 1.0,
            ..ChaosConfig::default()
        };
        let proxy = ChaosProxy::bind(upstream, config).unwrap();
        for _ in 0..3 {
            let stream = TcpStream::connect(proxy.local_addr()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "refused connection still delivered: {line}");
        }
        assert_eq!(proxy.stats().refused.load(Ordering::Relaxed), 3);
        proxy.shutdown();
    }

    #[test]
    fn blackout_severs_and_refuses_then_recovers() {
        let (upstream, _handle) = echo_server();
        let proxy = ChaosProxy::bind(upstream, ChaosConfig::default()).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"ping\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "ping\n");
        proxy.set_blackout(true);
        // The live connection is severed...
        line.clear();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "blackout did not sever: {line}");
        // ...and new connections die immediately.
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader2 = BufReader::new(stream);
        let mut line2 = String::new();
        assert_eq!(reader2.read_line(&mut line2).unwrap_or(0), 0);
        // Clearing the blackout restores service for fresh connections.
        proxy.set_blackout(false);
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader3 = BufReader::new(stream.try_clone().unwrap());
        let mut writer3 = stream;
        writer3.write_all(b"pong\n").unwrap();
        let mut line3 = String::new();
        reader3.read_line(&mut line3).unwrap();
        assert_eq!(line3, "pong\n");
        proxy.shutdown();
    }

    #[test]
    fn disconnect_probability_one_kills_the_first_exchange() {
        let (upstream, _handle) = echo_server();
        let config = ChaosConfig {
            disconnect_per_chunk: 1.0,
            split_writes: false,
            ..ChaosConfig::default()
        };
        let proxy = ChaosProxy::bind(upstream, config).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // The write may survive (truncation point can be the full chunk),
        // but the connection must die afterwards.
        let _ = writer.write_all(b"doomed\n");
        let mut line = String::new();
        // Either we get EOF directly, or a possibly-truncated echo then
        // EOF; in all cases the connection ends.
        let _first = reader.read_line(&mut line);
        line.clear();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "connection survived an injected disconnect");
        assert!(proxy.stats().disconnects.load(Ordering::Relaxed) >= 1);
        proxy.shutdown();
    }

    #[test]
    fn scripted_chunk_schedule_is_deterministic_and_bounded() {
        let schedule = |seed: u64| -> Vec<usize> {
            let mut rng = seed;
            (0..64).map(|_| scripted_chunk_len(&mut rng)).collect()
        };
        let a = schedule(0xC4A0_0001);
        assert_eq!(a, schedule(0xC4A0_0001));
        assert_ne!(a, schedule(0xC4A0_0002));
        assert!(a
            .iter()
            .all(|&len| (1..=MAX_SCRIPT_CHUNK as usize).contains(&len)));
        // The schedule actually varies — it is not a constant chunk size.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn scripted_chunks_preserve_large_payloads() {
        // A payload spanning many scripted chunks must arrive intact.
        let (upstream, _handle) = echo_server();
        let proxy = ChaosProxy::bind(upstream, ChaosConfig::default()).unwrap();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let msg = format!("{}\n", "payload".repeat(1200));
        writer.write_all(msg.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, msg);
        assert!(proxy.stats().splits.load(Ordering::Relaxed) > 1);
        proxy.shutdown();
    }

    #[test]
    fn virtual_clock_stalls_do_not_sleep() {
        // Every chunk stalls for 10 virtual seconds — under the real
        // clock this exchange would take minutes; under the virtual
        // clock it must finish promptly while the stall schedule is
        // still drawn, counted, and bookkept in virtual nanoseconds.
        let (upstream, _handle) = echo_server();
        let clock = ChaosClock::virtual_clock();
        let config = ChaosConfig {
            stall_per_chunk: 1.0,
            stall: Duration::from_secs(10),
            clock: clock.clone(),
            ..ChaosConfig::default()
        };
        let proxy = ChaosProxy::bind(upstream, config).unwrap();
        let started = std::time::Instant::now();
        let stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..5 {
            let msg = format!("virtual-{i}\n");
            writer.write_all(msg.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line, msg);
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "virtual stalls must not consume wall time: {:?}",
            started.elapsed()
        );
        let stalls = proxy.stats().stalls.load(Ordering::Relaxed);
        assert!(stalls >= 1, "no stalls injected");
        let virtual_ns = clock.virtual_ns().unwrap();
        assert!(
            virtual_ns >= stalls * 10_000_000_000,
            "virtual clock under-counted: {virtual_ns} ns for {stalls} stalls"
        );
        assert_eq!(
            proxy.stats().stalled_ns.load(Ordering::Relaxed),
            stalls * 10_000_000_000
        );
        proxy.shutdown();
    }

    #[test]
    fn real_clock_reports_no_virtual_time() {
        assert_eq!(ChaosClock::Real.virtual_ns(), None);
        let v = ChaosClock::virtual_clock();
        assert_eq!(v.virtual_ns(), Some(0));
        assert_eq!(v, v.clone(), "a virtual clock equals its own handle");
        assert_ne!(v, ChaosClock::virtual_clock(), "distinct counters differ");
        assert_eq!(ChaosClock::Real, ChaosClock::Real);
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        // Two proxies with the same seed must refuse the same connection
        // indices when refuse_per_conn is between 0 and 1.
        let decisions = |seed: u64| -> Vec<bool> {
            (0..32u64)
                .map(|index| {
                    let mut rng = seed ^ index;
                    let _ = splitmix64(&mut rng);
                    unit_float(&mut rng) < 0.3
                })
                .collect()
        };
        assert_eq!(decisions(99), decisions(99));
        assert_ne!(decisions(99), decisions(100));
    }
}
