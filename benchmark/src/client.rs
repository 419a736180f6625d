//! The `prio serve` client: one TCP connection, a writer (the caller's
//! thread) and a reader thread.
//!
//! Requests are pre-encoded around their id placeholders, so sending one
//! is a few buffered writes and no allocation — the generator must stay
//! cheap next to a daemon sharing the same two cores. The reader decodes
//! only what the measurement needs from each response line (id, status,
//! and a hash of the escaped `output` literal) and stamps its completion
//! time into a per-request slot.

use prio_graph::NameHashBuild;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The placeholder a request template carries wherever the request id
/// goes (the `id` field, and inside the workflow text of requests that
/// must be unique).
pub const MARK: &str = "%%ID%%";

/// A request line split at its id placeholders.
#[derive(Debug, Clone)]
pub struct Prepared {
    parts: Vec<Vec<u8>>,
}

/// Formats `id` in decimal into `buf`, returning the digits.
pub fn format_id(id: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    let mut v = id;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[i..];
        }
    }
}

impl Prepared {
    /// Splits an encoded request line (no trailing newline) at every
    /// [`MARK`].
    pub fn new(line: &str) -> Prepared {
        Prepared {
            parts: line.split(MARK).map(|p| p.as_bytes().to_vec()).collect(),
        }
    }

    /// Writes the line with `id` in every placeholder, plus the newline.
    pub fn write(&self, out: &mut impl Write, id: u64) -> io::Result<()> {
        let mut buf = [0u8; 20];
        let digits = format_id(id, &mut buf);
        let (last, rest) = self.parts.split_last().expect("split yields a part");
        for part in rest {
            out.write_all(part)?;
            out.write_all(digits)?;
        }
        out.write_all(last)?;
        out.write_all(b"\n")
    }

    /// The exact line [`Prepared::write`] sends for `id`, without the
    /// newline.
    pub fn render(&self, id: u64) -> String {
        let mut out = Vec::new();
        self.write(&mut out, id)
            .expect("writing to a Vec cannot fail");
        out.pop();
        String::from_utf8(out).expect("templates are UTF-8")
    }
}

/// A response's status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Answered `ok`.
    Ok = 1,
    /// Shed with `overloaded`.
    Overloaded = 2,
    /// Answered with an error.
    Error = 3,
}

/// Hash of bytes, for comparing response outputs without keeping them.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = NameHashBuild.build_hasher();
    h.write(bytes);
    h.finish()
}

/// What a response line says about its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The request id.
    pub id: u64,
    /// The response status.
    pub status: Status,
    /// Whether the daemon answered from its result cache.
    pub cached: bool,
    /// Hash of the `output` string literal exactly as escaped on the wire
    /// (0 when there is none).
    pub output: u64,
}

/// Decodes a response line without a full JSON parse (responses carry
/// multi-KB exports, and the client must keep up with the daemon). Lines
/// without a numeric id (control-verb answers) give `None`.
pub fn decode_response(line: &str) -> Option<Decoded> {
    let id_at = line.find("\"id\":\"")? + 6;
    let id_end = id_at + line[id_at..].find('"')?;
    let id: u64 = line[id_at..id_end].parse().ok()?;
    let rest = &line[id_end..];
    let status = if rest.starts_with("\",\"status\":\"ok\"") {
        Status::Ok
    } else if rest.contains("\"status\":\"overloaded\"") {
        Status::Overloaded
    } else {
        Status::Error
    };
    // `output` is the response's last field: the literal runs from its
    // opening quote to the line's closing brace.
    let (head, output) = match rest.find("\"output\":") {
        Some(at) => {
            let literal = rest[at + 9..].trim_end();
            let literal = literal.strip_suffix('}').unwrap_or(literal);
            (&rest[..at], hash_bytes(literal.as_bytes()))
        }
        None => (rest, 0),
    };
    Some(Decoded {
        id,
        status,
        cached: head.contains("\"cached\":true"),
        output,
    })
}

const PENDING: u64 = u64::MAX;

/// Flag bit in a slot's status word: answered from the cache.
const CACHED: u64 = 1 << 8;

/// Per-request completion records, indexed by `id % capacity`: the reader
/// thread stamps each response's arrival time (ns since the connection's
/// epoch), status and output hash. A phase may reuse slots once every
/// request of the previous phase has completed.
struct Slots {
    done_ns: Vec<AtomicU64>,
    status: Vec<AtomicU64>,
    output: Vec<AtomicU64>,
    done: AtomicU64,
    others: Mutex<Vec<String>>,
}

/// What the reader recorded for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Arrival time, ns since the connection's epoch.
    pub at_ns: u64,
    /// The response status.
    pub status: Status,
    /// Whether the daemon answered from its result cache.
    pub cached: bool,
    /// Hash of the escaped `output` literal.
    pub output: u64,
}

/// One client connection to a daemon.
pub struct Client {
    writer: BufWriter<TcpStream>,
    stream: TcpStream,
    slots: Arc<Slots>,
    reader: Option<JoinHandle<()>>,
    epoch: Instant,
}

impl Client {
    /// Connects to `addr`, with room for `capacity` requests in flight
    /// per phase.
    pub fn connect(addr: SocketAddr, capacity: usize) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let slots = Arc::new(Slots {
            done_ns: (0..capacity).map(|_| AtomicU64::new(PENDING)).collect(),
            status: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            output: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicU64::new(0),
            others: Mutex::new(Vec::new()),
        });
        let epoch = Instant::now();
        let reader = {
            let slots = Arc::clone(&slots);
            let stream = stream.try_clone()?;
            std::thread::spawn(move || read_loop(stream, &slots, epoch))
        };
        Ok(Client {
            writer: BufWriter::with_capacity(1 << 16, stream.try_clone()?),
            stream,
            slots,
            reader: Some(reader),
            epoch,
        })
    }

    /// Nanoseconds since this connection's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The connection's epoch (the origin of every `*_ns` time).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Buffers one request; it goes out at the next flush (or when the
    /// buffer fills).
    pub fn send(&mut self, request: &Prepared, id: u64) -> io::Result<()> {
        let slot = self.slot(id);
        self.slots.done_ns[slot].store(PENDING, Ordering::Relaxed);
        request.write(&mut self.writer, id)
    }

    /// Sends everything buffered.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn slot(&self, id: u64) -> usize {
        (id % self.slots.done_ns.len() as u64) as usize
    }

    /// Responses received so far.
    pub fn done(&self) -> u64 {
        self.slots.done.load(Ordering::Acquire)
    }

    /// Waits until `target` responses have arrived in total; false on
    /// timeout.
    pub fn wait_done(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.done() < target {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        true
    }

    /// What arrived for request `id`, if anything has.
    pub fn completion(&self, id: u64) -> Option<Completion> {
        let slot = self.slot(id);
        let at_ns = self.slots.done_ns[slot].load(Ordering::Acquire);
        if at_ns == PENDING {
            return None;
        }
        let word = self.slots.status[slot].load(Ordering::Relaxed);
        let status = match word & !CACHED {
            1 => Status::Ok,
            2 => Status::Overloaded,
            _ => Status::Error,
        };
        Some(Completion {
            at_ns,
            status,
            cached: word & CACHED != 0,
            output: self.slots.output[slot].load(Ordering::Relaxed),
        })
    }

    /// Sends a control verb and waits for its answer (a line whose id is
    /// not numeric), returning it.
    pub fn control(&mut self, id: &str, verb: &str) -> io::Result<String> {
        self.writer
            .write_all(prio_serve::encode_control(id, verb).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let needle = format!("\"id\":\"{id}\"");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            {
                let mut others = self.slots.others.lock().expect("reader never panics");
                if let Some(i) = others.iter().position(|l| l.contains(&needle)) {
                    return Ok(others.remove(i));
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no answer to {verb}"),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the daemon to shut down and waits for the reader to see the
    /// connection close.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.control("bye", "shutdown")?;
        self.close()
    }

    fn close(&mut self) -> io::Result<()> {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            reader
                .join()
                .map_err(|_| io::Error::other("client reader panicked"))?;
        }
        Ok(())
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

fn read_loop(stream: TcpStream, slots: &Slots, epoch: Instant) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        match decode_response(&line) {
            Some(d) => {
                let slot = (d.id % slots.done_ns.len() as u64) as usize;
                let at = epoch.elapsed().as_nanos() as u64;
                let cached = if d.cached { CACHED } else { 0 };
                slots.status[slot].store(d.status as u64 | cached, Ordering::Relaxed);
                slots.output[slot].store(d.output, Ordering::Relaxed);
                // Release: a reader that sees the time also sees the
                // status and hash stored above.
                slots.done_ns[slot].store(at, Ordering::Release);
                slots.done.fetch_add(1, Ordering::Release);
            }
            None => slots
                .others
                .lock()
                .expect("only this thread pushes")
                .push(line.trim_end().to_string()),
        }
    }
}

/// When each request of an open-loop phase falls due: request `i` at
/// `start_ns + i / rate`, whatever happened to the requests before it.
pub fn due_ns(start_ns: u64, i: u64, rate: u64) -> u64 {
    start_ns + i * 1_000_000_000 / rate
}

/// Open-loop latency: from when the request was due, not from when the
/// generator got round to sending it, so a stall that delays later sends
/// counts against every request it delays.
pub fn open_loop_latency_ns(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_fills_every_placeholder_without_formatting() {
        let line =
            prio_serve::encode_request(MARK, &format!("fresh_{MARK}\na\tb\n"), Some("edges"), None);
        let p = Prepared::new(&line);
        let sent = p.render(4021);
        assert!(!sent.contains(MARK));
        assert_eq!(sent.matches("4021").count(), 2);
        let req = prio_serve::parse_request(&sent, &mut None).unwrap();
        assert_eq!(req.id, "4021");
        assert_eq!(req.workflow, "fresh_4021\na\tb\n");
        let mut buf = [0u8; 20];
        assert_eq!(format_id(0, &mut buf), b"0");
        assert_eq!(
            format_id(u64::MAX, &mut buf),
            u64::MAX.to_string().as_bytes()
        );
    }

    #[test]
    fn response_decoding_reads_id_status_and_output() {
        let ok = prio_serve::protocol::ok_response("17", "edges", true, "a\tb\n");
        let d = decode_response(&ok).unwrap();
        assert_eq!((d.id, d.status, d.cached), (17, Status::Ok, true));
        assert_eq!(
            d.output,
            hash_bytes(prio_obs::json::escape("a\tb\n").as_bytes())
        );
        let cold = prio_serve::protocol::ok_response("18", "edges", false, "\"cached\":true");
        assert!(!decode_response(&cold).unwrap().cached);
        let shed = prio_serve::protocol::overloaded_response("2");
        assert_eq!(
            decode_response(&shed).map(|d| d.status),
            Some(Status::Overloaded)
        );
        let err = prio_serve::protocol::error_response(Some("9"), "parse", "bad");
        assert_eq!(decode_response(&err).map(|d| d.status), Some(Status::Error));
        assert_eq!(
            decode_response(r#"{"id":"stats_before","status":"ok"}"#),
            None
        );
        assert_eq!(decode_response("garbage"), None);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // Rate 1000/s from t=0: request 3 falls due at 3 ms. Sent late (at
        // 3.5 ms, behind a stall) and answered at 3.7 ms, it waited 0.7 ms
        // — not the 0.2 ms since it was actually sent.
        let due = due_ns(0, 3, 1000);
        assert_eq!(due, 3_000_000);
        assert_eq!(open_loop_latency_ns(due, 3_700_000), 700_000);
        assert_eq!(due_ns(500, 10, 2000), 5_000_500);
    }
}
