//! Frame transports: in-process loopback, Unix socket, and TCP.
//!
//! All transports speak [`crate::wire`] frames and surface the same
//! typed [`DistError`]s, so the supervision layer above is
//! transport-agnostic. The loopback transport is *deterministic*: frames
//! arrive in send order with no reordering or loss, which is what lets a
//! dist run reproduce the single-process trainer bitwise. The stream
//! transports add deadline-based reads (`set_read_timeout`) on top of
//! OS byte streams, a true nonblocking zero-timeout poll, and
//! per-connection frame buffers that are reused across frames.
//!
//! With the `failpoints` feature, two sites are armed from tests:
//! `transport::send` (corrupt/truncate/delay an encoded frame before it
//! leaves) and `transport::recv` (corrupt a received frame before
//! decoding). Both reuse the workspace-wide registry in
//! `marl_algo::failpoint`.

use crate::error::DistError;
use crate::queue::{BoundedQueue, PushError};
use crate::wire::{self, Msg};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional frame transport.
pub trait Transport: Send {
    /// Sends one message, blocking up to the transport's send deadline.
    ///
    /// # Errors
    ///
    /// [`DistError::QueueFull`] under sustained backpressure,
    /// [`DistError::Disconnected`]/[`DistError::Io`] on transport
    /// failure.
    fn send(&mut self, msg: &Msg) -> Result<(), DistError>;

    /// Receives one message, blocking up to `timeout`.
    ///
    /// `Duration::ZERO` is a poll: it returns [`DistError::Timeout`] at
    /// once when no frame has started arriving, and never sleeps. A
    /// frame that has started is read to its end, as with any timeout.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when the deadline elapses; quarantineable
    /// decode errors ([`DistError::is_quarantine`]) when a frame arrives
    /// corrupt; [`DistError::Disconnected`] when the peer is gone.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError>;

    /// Frames known to be queued toward this end (the queue-depth
    /// metric); `0` for transports without visibility (OS sockets).
    fn pending(&self) -> usize {
        0
    }

    /// A second receive handle onto the same connection (an OS-level
    /// `dup`), for a dedicated reader thread. `None` when the transport
    /// cannot be split — callers must then poll inline.
    fn split_recv(&self) -> Option<Box<dyn Transport>> {
        None
    }
}

/// Applies the `transport::send` failpoint to an encoded frame.
#[cfg(feature = "failpoints")]
fn send_failpoint(bytes: &mut Vec<u8>) {
    if let Some(fault) = marl_algo::failpoint::take("transport::send") {
        if let Some(fault) = marl_algo::failpoint::sleep_delay(fault) {
            marl_algo::failpoint::corrupt(bytes, fault);
        }
    }
}

/// Applies the `transport::recv` failpoint to a received frame.
#[cfg(feature = "failpoints")]
fn recv_failpoint(bytes: &mut Vec<u8>) {
    if let Some(fault) = marl_algo::failpoint::take("transport::recv") {
        if let Some(fault) = marl_algo::failpoint::sleep_delay(fault) {
            marl_algo::failpoint::corrupt(bytes, fault);
        }
    }
}

#[cfg(not(feature = "failpoints"))]
fn send_failpoint(_bytes: &mut Vec<u8>) {}
#[cfg(not(feature = "failpoints"))]
fn recv_failpoint(_bytes: &mut Vec<u8>) {}

// ---------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------

/// One end of a deterministic in-process loopback: two bounded frame
/// queues, in-order, no loss. Frames still round-trip through the full
/// byte encoding (header, CRC), so corruption injected at the failpoint
/// sites is *detected* exactly as it would be on a socket.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: Arc<BoundedQueue<Vec<u8>>>,
    rx: Arc<BoundedQueue<Vec<u8>>>,
    send_timeout: Duration,
}

/// Creates a connected loopback pair `(a, b)`: frames sent on `a` arrive
/// on `b` and vice versa. Each direction buffers at most `capacity`
/// frames; a full direction blocks the sender up to `send_timeout`
/// before reporting [`DistError::QueueFull`] (bounded backpressure).
pub fn loopback_pair(
    capacity: usize,
    send_timeout: Duration,
) -> (LoopbackTransport, LoopbackTransport) {
    let ab = Arc::new(BoundedQueue::new(capacity));
    let ba = Arc::new(BoundedQueue::new(capacity));
    (
        LoopbackTransport { tx: Arc::clone(&ab), rx: Arc::clone(&ba), send_timeout },
        LoopbackTransport { tx: ba, rx: ab, send_timeout },
    )
}

impl LoopbackTransport {
    /// Frames currently queued toward this end (the queue-depth metric).
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Closes both directions; the peer observes
    /// [`DistError::Disconnected`] once drained.
    pub fn close(&self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        self.close();
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        let mut bytes = wire::encode_frame(msg);
        send_failpoint(&mut bytes);
        match self.tx.push_timeout(bytes, self.send_timeout) {
            Ok(()) => Ok(()),
            Err(PushError::Full) => Err(DistError::QueueFull { capacity: self.tx.capacity() }),
            Err(PushError::Closed) => Err(DistError::Disconnected),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        match self.rx.pop_timeout(timeout) {
            Ok(Some(mut bytes)) => {
                recv_failpoint(&mut bytes);
                wire::decode_frame(&bytes)
            }
            Ok(None) => {
                Err(DistError::Timeout { site: "recv", after_ms: timeout.as_millis() as u64 })
            }
            Err(()) => Err(DistError::Disconnected),
        }
    }

    fn pending(&self) -> usize {
        self.rx.len()
    }
}

// ---------------------------------------------------------------------
// Byte-stream transports (Unix socket / TCP)
// ---------------------------------------------------------------------

/// Largest frame buffer a [`StreamTransport`] keeps for reuse. Hot
/// frames (`Steps`, actor-only `Params`) fit well inside it; a one-off
/// multi-megabyte `Welcome` buffer is released instead of pinned for the
/// connection's lifetime.
const RETAIN_CAP: usize = 1 << 20;

/// Returns `buf` for reuse, or an empty buffer when it grew past
/// [`RETAIN_CAP`].
fn retain(buf: Vec<u8>) -> Vec<u8> {
    if buf.capacity() <= RETAIN_CAP {
        buf
    } else {
        Vec::new()
    }
}

/// The underlying OS byte stream of a [`StreamTransport`].
#[derive(Debug)]
enum StreamKind {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP socket.
    Tcp(TcpStream),
}

/// A frame transport over an OS byte stream with deadline-based reads.
///
/// Quarantineable decode errors are still *typed* here, but a byte
/// stream cannot trust a corrupt length field to find the next frame
/// boundary, so callers must treat them as connection-fatal and
/// reconnect (the worker side does, with backoff).
///
/// A zero-timeout [`Transport::recv_timeout`] polls by switching the
/// socket to nonblocking for one `read`. `O_NONBLOCK` belongs to the
/// open file, which [`StreamTransport::try_clone`] and
/// [`Transport::split_recv`] handles share, so zero polls are only for
/// unsplit connections: a reader thread on a split handle could see a
/// spurious early timeout while another handle polls.
#[derive(Debug)]
pub struct StreamTransport {
    stream: StreamKind,
    frame_deadline: Duration,
    /// Reused encode buffer of [`Transport::send`].
    tx: Vec<u8>,
    /// Reused receive buffer of [`Transport::recv_timeout`].
    rx: Vec<u8>,
}

impl StreamTransport {
    /// Once the first byte of a frame has arrived the rest must follow
    /// within this per-`read` deadline — generous by default, because a
    /// multi-megabyte parameter snapshot can legitimately trickle
    /// through small socket buffers while the peer interleaves its own
    /// work. Latency-sensitive paths (the serve request loop, where a
    /// frame is a few hundred bytes) should shorten it via
    /// [`StreamTransport::with_frame_deadline`] so one stalled client
    /// cannot pin a reader thread for ten seconds.
    pub const DEFAULT_FRAME_DEADLINE: Duration = Duration::from_secs(10);

    /// Wraps a connected Unix socket.
    pub fn unix(stream: UnixStream) -> Self {
        Self::new(StreamKind::Unix(stream), Self::DEFAULT_FRAME_DEADLINE)
    }

    fn new(stream: StreamKind, frame_deadline: Duration) -> Self {
        StreamTransport { stream, frame_deadline, tx: Vec::new(), rx: Vec::new() }
    }

    /// Wraps a connected TCP socket (Nagle disabled: frames are latency-
    /// sensitive parameter/step exchanges).
    pub fn tcp(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        Self::new(StreamKind::Tcp(stream), Self::DEFAULT_FRAME_DEADLINE)
    }

    /// Builder form of [`StreamTransport::set_frame_deadline`].
    #[must_use]
    pub fn with_frame_deadline(mut self, deadline: Duration) -> Self {
        self.set_frame_deadline(deadline);
        self
    }

    /// Sets the mid-frame read deadline for this connection: once a
    /// frame's first byte has arrived, each subsequent `read` must make
    /// progress within this budget or the frame is declared
    /// [`DistError::Truncated`] (connection-fatal).
    pub fn set_frame_deadline(&mut self, deadline: Duration) {
        // A zero Duration means "no timeout" to the OS; clamp up instead.
        self.frame_deadline = deadline.max(Duration::from_millis(1));
    }

    /// The mid-frame read deadline currently in force.
    pub fn frame_deadline(&self) -> Duration {
        self.frame_deadline
    }

    /// Clones the underlying socket handle (separate reader/writer);
    /// the clone inherits this connection's frame deadline.
    ///
    /// # Errors
    ///
    /// Propagates the OS `dup` failure.
    pub fn try_clone(&self) -> Result<Self, DistError> {
        let stream = match &self.stream {
            StreamKind::Unix(s) => StreamKind::Unix(s.try_clone()?),
            StreamKind::Tcp(s) => StreamKind::Tcp(s.try_clone()?),
        };
        Ok(Self::new(stream, self.frame_deadline))
    }

    fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        // A zero Duration means "no timeout" to the OS; clamp up instead.
        let t = timeout.max(Duration::from_millis(1));
        match &mut self.stream {
            StreamKind::Unix(s) => s.set_read_timeout(Some(t))?,
            StreamKind::Tcp(s) => s.set_read_timeout(Some(t))?,
        }
        Ok(())
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        match &mut self.stream {
            StreamKind::Unix(s) => s.set_nonblocking(nonblocking),
            StreamKind::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match &mut self.stream {
            StreamKind::Unix(s) => s.read(buf),
            StreamKind::Tcp(s) => s.read(buf),
        }
    }

    /// Reads the first bytes of a frame into `buf` (non-empty) and
    /// returns how many arrived. They are awaited up to `first_timeout`;
    /// timing out there is clean (nothing consumed, the stream stays
    /// framed) and surfaces as [`DistError::Timeout`]. A zero timeout
    /// is one nonblocking `read` that never arms `SO_RCVTIMEO` (whose
    /// shortest wait the kernel rounds up to a scheduler tick). On
    /// success the connection's frame deadline is armed for the rest.
    fn read_start(&mut self, buf: &mut [u8], first_timeout: Duration) -> Result<usize, DistError> {
        let poll = first_timeout.is_zero();
        if poll {
            self.set_nonblocking(true)?;
        } else {
            self.set_read_timeout(first_timeout)?;
        }
        let read = loop {
            match self.read(buf) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        if poll {
            self.set_nonblocking(false)?;
        }
        match read {
            Ok(0) => Err(DistError::Disconnected),
            Ok(n) => {
                // Committed: the rest of the frame gets patience.
                let deadline = self.frame_deadline;
                self.set_read_timeout(deadline)?;
                Ok(n)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(DistError::Timeout { site: "recv", after_ms: first_timeout.as_millis() as u64 })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Fills `buf[got..]` under the frame deadline that
    /// [`StreamTransport::read_start`] armed. A timeout or EOF here is
    /// [`DistError::Truncated`] — connection-fatal, because a byte
    /// stream cannot resync mid-frame.
    fn read_rest(&mut self, buf: &mut [u8], mut got: usize) -> Result<(), DistError> {
        while got < buf.len() {
            match self.read(&mut buf[got..]) {
                Ok(0) => return Err(DistError::Truncated { needed: buf.len(), got }),
                Ok(n) => got += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(DistError::Truncated { needed: buf.len(), got });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Receives one whole frame (header + payload) into `buf`, cleared
    /// and refilled in place so its capacity is reused. The header is
    /// validated — kind and length included — before the body buffer is
    /// sized.
    fn recv_frame_into(
        &mut self,
        buf: &mut Vec<u8>,
        first_timeout: Duration,
    ) -> Result<(), DistError> {
        let mut header = [0u8; wire::HEADER_LEN];
        let got = self.read_start(&mut header, first_timeout)?;
        self.read_rest(&mut header, got)?;
        let parsed = wire::decode_header(&header)?;
        buf.clear();
        buf.reserve(wire::HEADER_LEN + parsed.len);
        buf.extend_from_slice(&header);
        buf.resize(wire::HEADER_LEN + parsed.len, 0);
        self.read_rest(buf, wire::HEADER_LEN)?;
        recv_failpoint(buf);
        Ok(())
    }

    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        match &mut self.stream {
            StreamKind::Unix(s) => {
                s.write_all(buf)?;
                s.flush()
            }
            StreamKind::Tcp(s) => {
                s.write_all(buf)?;
                s.flush()
            }
        }
    }

    /// Sends one pre-encoded frame verbatim (the raw binary path: the
    /// caller built the frame into a reusable buffer with
    /// [`wire::begin_raw_frame`]/[`wire::finish_raw_frame`], so nothing
    /// allocates here).
    ///
    /// # Errors
    ///
    /// [`DistError::Disconnected`]/[`DistError::Io`] on stream failure.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), DistError> {
        self.write_all(frame)?;
        Ok(())
    }

    /// Receives one validated frame into `buf` (header + payload) and
    /// returns its kind; the payload is `buf[wire::HEADER_LEN..]`.
    ///
    /// `buf` is cleared and refilled in place — `clear` + `resize` keep
    /// its capacity, so a connection that reuses one buffer stops
    /// allocating once the buffer reaches its working size. The first
    /// header byte is awaited up to `first_timeout`; the body falls
    /// under the connection's frame deadline.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when no frame starts within
    /// `first_timeout`; truncation/corruption errors as in
    /// [`Transport::recv_timeout`] (connection-fatal on a byte stream).
    pub fn recv_raw_into(
        &mut self,
        buf: &mut Vec<u8>,
        first_timeout: Duration,
    ) -> Result<u16, DistError> {
        self.recv_frame_into(buf, first_timeout)?;
        let (kind, _) = wire::decode_raw_frame(buf)?;
        Ok(kind)
    }
}

impl Transport for StreamTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), DistError> {
        let mut frame = std::mem::take(&mut self.tx);
        wire::encode_frame_into(msg, &mut frame);
        send_failpoint(&mut frame);
        let sent = self.write_all(&frame);
        self.tx = retain(frame);
        sent?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Msg, DistError> {
        let mut frame = std::mem::take(&mut self.rx);
        let msg =
            self.recv_frame_into(&mut frame, timeout).and_then(|()| wire::decode_frame(&frame));
        self.rx = retain(frame);
        msg
    }

    fn split_recv(&self) -> Option<Box<dyn Transport>> {
        self.try_clone().ok().map(|t| Box::new(t) as Box<dyn Transport>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Heartbeat;

    fn hb(seq: u64) -> Msg {
        Msg::Heartbeat(Heartbeat { worker_id: 1, seq, env_steps: seq * 10, send_ns: 0 })
    }

    fn seq_of(msg: &Msg) -> u64 {
        match msg {
            Msg::Heartbeat(h) => h.seq,
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn loopback_is_in_order_and_bidirectional() {
        let (mut a, mut b) = loopback_pair(8, Duration::from_millis(100));
        for seq in 0..5 {
            a.send(&hb(seq)).unwrap();
        }
        for seq in 0..5 {
            assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(100)).unwrap()), seq);
        }
        b.send(&hb(99)).unwrap();
        assert_eq!(seq_of(&a.recv_timeout(Duration::from_millis(100)).unwrap()), 99);
    }

    #[test]
    fn loopback_backpressure_is_bounded() {
        let (mut a, _b) = loopback_pair(2, Duration::from_millis(5));
        a.send(&hb(0)).unwrap();
        a.send(&hb(1)).unwrap();
        let err = a.send(&hb(2)).unwrap_err();
        assert_eq!(err, DistError::QueueFull { capacity: 2 });
    }

    #[test]
    fn loopback_recv_times_out_then_disconnects_on_drop() {
        let (a, mut b) = loopback_pair(2, Duration::from_millis(5));
        let err = b.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { site: "recv", .. }));
        drop(a);
        let err = b.recv_timeout(Duration::from_millis(5)).unwrap_err();
        assert_eq!(err, DistError::Disconnected);
    }

    #[test]
    fn unix_stream_roundtrip_and_timeout() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        a.send(&hb(7)).unwrap();
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(200)).unwrap()), 7);
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { .. }), "{err}");
        drop(a);
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, DistError::Disconnected);
    }

    #[test]
    fn frame_deadline_is_configurable_and_survives_try_clone() {
        let (sa, _sb) = UnixStream::pair().expect("socketpair");
        let t = StreamTransport::unix(sa);
        assert_eq!(t.frame_deadline(), StreamTransport::DEFAULT_FRAME_DEADLINE);
        let t = t.with_frame_deadline(Duration::from_millis(50));
        assert_eq!(t.frame_deadline(), Duration::from_millis(50));
        let clone = t.try_clone().unwrap();
        assert_eq!(clone.frame_deadline(), Duration::from_millis(50));
        // Zero is clamped up (a zero OS timeout would mean "block forever").
        let mut t = t;
        t.set_frame_deadline(Duration::ZERO);
        assert!(t.frame_deadline() >= Duration::from_millis(1));
    }

    #[test]
    fn short_frame_deadline_truncates_a_stalled_mid_frame_peer() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb).with_frame_deadline(Duration::from_millis(30));
        // Send a header promising a body that never arrives: with the
        // 10s default this read would pin the thread; the short deadline
        // surfaces Truncated quickly.
        let mut frame = Vec::new();
        wire::begin_raw_frame(&mut frame);
        frame.extend_from_slice(&[1, 2, 3, 4]);
        wire::finish_raw_frame(wire::KIND_INFER_REQ, &mut frame);
        a.send_raw(&frame[..wire::HEADER_LEN + 1]).unwrap();
        let start = std::time::Instant::now();
        let mut buf = Vec::new();
        let err = b.recv_raw_into(&mut buf, Duration::from_millis(500)).unwrap_err();
        assert!(matches!(err, DistError::Truncated { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline not honored: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn raw_roundtrip_reuses_buffers_and_reports_kind() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let mut frame = Vec::new();
        let mut rx = Vec::new();
        for round in 0u8..4 {
            wire::begin_raw_frame(&mut frame);
            frame.extend_from_slice(&[round; 24]);
            wire::finish_raw_frame(wire::KIND_INFER_RESP, &mut frame);
            a.send_raw(&frame).unwrap();
            let kind = b.recv_raw_into(&mut rx, Duration::from_millis(500)).unwrap();
            assert_eq!(kind, wire::KIND_INFER_RESP);
            assert_eq!(&rx[wire::HEADER_LEN..], &[round; 24]);
        }
        // Raw and JSON frames interleave on one connection.
        a.send(&hb(11)).unwrap();
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_millis(500)).unwrap()), 11);
    }

    #[test]
    fn raw_recv_times_out_cleanly_between_frames() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let _a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let mut buf = Vec::new();
        let err = b.recv_raw_into(&mut buf, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, DistError::Timeout { site: "recv", .. }), "{err}");
    }

    #[test]
    fn zero_timeout_poll_on_an_empty_socket_returns_at_once() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let _a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        // An SO_RCVTIMEO read waits at least one scheduler tick (4-10 ms);
        // a real poll is a single nonblocking read. Retry the batch so a
        // descheduled test thread cannot fail it spuriously.
        let slowest = (0..3)
            .map(|_| {
                (0..50)
                    .map(|_| {
                        let t0 = std::time::Instant::now();
                        let err = b.recv_timeout(Duration::ZERO).unwrap_err();
                        assert!(matches!(err, DistError::Timeout { site: "recv", .. }), "{err}");
                        t0.elapsed()
                    })
                    .max()
                    .unwrap()
            })
            .min()
            .unwrap();
        assert!(slowest < Duration::from_millis(1), "slowest poll took {slowest:?}");
    }

    #[test]
    fn timed_recv_after_a_poll_still_blocks_then_gets_its_frame() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        assert!(matches!(b.recv_timeout(Duration::ZERO), Err(DistError::Timeout { .. })));
        // The socket is blocking again: an empty timed read waits.
        let t0 = std::time::Instant::now();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(40)),
            Err(DistError::Timeout { .. })
        ));
        assert!(t0.elapsed() >= Duration::from_millis(30), "waited {:?}", t0.elapsed());
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            a.send(&hb(21)).unwrap();
            a
        });
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_secs(5)).unwrap()), 21);
        drop(sender.join().unwrap());
    }

    #[test]
    fn poll_that_sees_a_partial_header_commits_to_the_frame() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let first = wire::encode_frame(&hb(1));
        a.send_raw(&first[..5]).unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            a.send_raw(&first[5..]).unwrap();
            a.send(&hb(2)).unwrap();
            a
        });
        // The poll finds five header bytes (the sender's sleep makes that
        // the likely interleaving; either way the frame must arrive whole):
        // the frame is committed, and the rest is awaited under the frame
        // deadline.
        assert_eq!(seq_of(&b.recv_timeout(Duration::ZERO).unwrap()), 1);
        assert_eq!(seq_of(&b.recv_timeout(Duration::from_secs(5)).unwrap()), 2);
        drop(sender.join().unwrap());
    }

    #[test]
    fn forged_unknown_kind_header_is_rejected_without_reading_a_body() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        let mut header = wire::encode_frame(&hb(1))[..wire::HEADER_LEN].to_vec();
        header[6..8].copy_from_slice(&99u16.to_le_bytes());
        header[8..12].copy_from_slice(&(wire::MAX_PAYLOAD as u32).to_le_bytes());
        a.send_raw(&header).unwrap();
        a.send_raw(&header).unwrap();
        // No body follows: reading one would wait out the 10 s frame
        // deadline and size a 256 MiB buffer.
        let t0 = std::time::Instant::now();
        let err = b.recv_timeout(Duration::from_secs(1)).unwrap_err();
        assert!(matches!(&err, DistError::Protocol(m) if m.contains("kind 99")), "{err}");
        let mut buf = Vec::new();
        let err = b.recv_raw_into(&mut buf, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(&err, DistError::Protocol(m) if m.contains("kind 99")), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        assert_eq!(buf.capacity(), 0, "no body buffer may be sized");
    }

    #[test]
    fn stream_send_and_recv_reuse_their_frame_buffers() {
        let (sa, sb) = UnixStream::pair().expect("socketpair");
        let mut a = StreamTransport::unix(sa);
        let mut b = StreamTransport::unix(sb);
        a.send(&hb(1)).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let (tx, rx) = (a.tx.as_ptr(), b.rx.as_ptr());
        for seq in 2..6 {
            a.send(&hb(seq)).unwrap();
            assert_eq!(seq_of(&b.recv_timeout(Duration::from_secs(1)).unwrap()), seq);
        }
        assert_eq!((a.tx.as_ptr(), b.rx.as_ptr()), (tx, rx));
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = StreamTransport::tcp(TcpStream::connect(addr).expect("connect"));
            t.send(&hb(3)).unwrap();
            seq_of(&t.recv_timeout(Duration::from_secs(2)).unwrap())
        });
        let (conn, _) = listener.accept().expect("accept");
        let mut server = StreamTransport::tcp(conn);
        assert_eq!(seq_of(&server.recv_timeout(Duration::from_secs(2)).unwrap()), 3);
        server.send(&hb(4)).unwrap();
        assert_eq!(client.join().unwrap(), 4);
    }
}
