//! The ingest server: a non-blocking TCP listener, a hand-rolled poll
//! loop, and the bridge that demultiplexes socket connections into the
//! [`Gateway`].
//!
//! # Poll loop
//!
//! No tokio, no mio: the listener and every accepted stream run in
//! non-blocking mode and [`IngestServer::poll`] makes one bounded pass —
//! accept until `WouldBlock`, read each connection (up to a per-round
//! byte budget), decode and act on complete messages, apply the flush
//! policy, then drain outboxes. The caller owns the loop cadence (spin
//! it from a thread, interleave it with client pumps in a test, or sleep
//! between rounds); all timeouts are counted in *rounds*, which keeps
//! them deterministic under test.
//!
//! # Backpressure
//!
//! Flow control is a cumulative credit window: `HelloAck` grants
//! `recv_window` frame sends, and each frame the gateway accepts moves
//! the grant forward (`Credit { granted = delivered + recv_window }`).
//! When the gateway's pending-window count crosses
//! [`IngestConfig::overload_pending`], the server *withholds* credit
//! updates — the device's window closes by itself within `recv_window`
//! frames, which is backpressure expressed entirely in the protocol; the
//! server additionally stops and the kernel's TCP window eventually
//! closes too. Stalled connections get an `Overload` notice, the
//! gateway's own admission quotas shed the queued excess to the
//! low-resolution rung, and the next flush re-opens every stalled
//! window. Retransmissions answering a `Nack` are window-exempt so
//! repair can always make progress.
//!
//! # Determinism bridge
//!
//! The gateway's §9 contract is *per-session outputs are bit-identical
//! regardless of interleaving* — but a socket tier is nondeterminism
//! distilled (accept order, chunk boundaries, scheduler timing). The
//! bridge therefore keeps the contract auditable instead of assuming it:
//! with [`IngestConfig::record_ops`] set, every state-changing gateway
//! call the poll loop makes is logged as the journal [`Record`] the
//! gateway would write for it, and [`Gateway::from_records`] re-executes
//! a log against a fresh in-process gateway. Replaying the recorded
//! global order must reproduce the live outputs bit-for-bit (the bridge
//! adds no hidden state), and replaying the [`session_major`] reordering
//! must too (socket interleaving does not leak into per-session results,
//! provided queue-depth shedding is disabled — see DESIGN §13). The
//! ingest soak asserts both.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use hybridcs_coding::LowResCodec;
use hybridcs_core::{SupervisedWindow, SystemConfig};
use hybridcs_gateway::{
    config_fingerprint, shape_fingerprint, Gateway, GatewayConfig, GatewayError, Record,
};
use hybridcs_obs::flight::emit_with;
use hybridcs_obs::{EventContext, EventKind};

use crate::proto::{encode, Message, RejectCode, StreamDecoder, PROTO_VERSION};
use crate::NetError;

/// Flight-recorder codes for [`EventKind::Conn`] (indexes into
/// `hybridcs_obs::flight::CONN_STEPS`).
mod conn_step {
    pub const ACCEPT: u8 = 0;
    pub const HELLO_OK: u8 = 1;
    pub const HELLO_REJECT: u8 = 2;
    pub const TIMESYNC: u8 = 3;
    pub const STALL: u8 = 4;
    pub const SHED: u8 = 5;
    pub const TIMEOUT: u8 = 6;
    pub const CLOSE: u8 = 7;
}

/// The operator shapes this server accepts, keyed by the same
/// `shape_fingerprint` the journal uses, so a device handshake names its
/// shape with one u64.
#[derive(Debug, Clone)]
pub struct ShapeTable {
    entries: Vec<(u64, SystemConfig, LowResCodec)>,
}

impl ShapeTable {
    /// Builds the table, fingerprinting each `(system, codec)` pair.
    #[must_use]
    pub fn new(shapes: Vec<(SystemConfig, LowResCodec)>) -> Self {
        let entries = shapes
            .into_iter()
            .map(|(system, codec)| (shape_fingerprint(&system, &codec), system, codec))
            .collect();
        ShapeTable { entries }
    }

    /// Looks a shape up by fingerprint.
    #[must_use]
    pub fn find(&self, fingerprint: u64) -> Option<(&SystemConfig, &LowResCodec)> {
        self.entries
            .iter()
            .find(|(fp, _, _)| *fp == fingerprint)
            .map(|(_, system, codec)| (system, codec))
    }

    /// The accepted fingerprints, in table order.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<u64> {
        self.entries.iter().map(|(fp, _, _)| *fp).collect()
    }
}

/// Ingest-tier policy knobs (the gateway's own knobs ride along in
/// [`gateway`](IngestConfig::gateway)).
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Configuration for the embedded [`Gateway`].
    pub gateway: GatewayConfig,
    /// Per-connection receive window: how many frame sends a device may
    /// have outstanding beyond what the server has accepted.
    pub recv_window: u64,
    /// Pending-window watermark at which the server enters overload:
    /// credits are withheld and `Overload` is signalled.
    pub overload_pending: usize,
    /// Explicitly flush the gateway once this many windows are pending
    /// (auto-flush at the gateway's own batch capacity still applies).
    pub flush_pending: usize,
    /// Close a connection that has been silent for this many poll
    /// rounds.
    pub idle_timeout_rounds: u64,
    /// Per-connection, per-round read budget in bytes (fairness bound).
    pub read_budget: usize,
    /// Connections beyond this are rejected with `server_full`.
    pub max_connections: usize,
    /// Log every state-changing gateway call as the [`Record`] the
    /// gateway's journal would hold for it, for determinism audits
    /// ([`Gateway::from_records`], [`session_major`]).
    pub record_ops: bool,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            gateway: GatewayConfig::default(),
            recv_window: 8,
            overload_pending: 256,
            flush_pending: 64,
            idle_timeout_rounds: 200_000,
            read_budget: 64 * 1024,
            max_connections: 16_384,
            record_ops: false,
        }
    }
}

impl IngestConfig {
    fn validate(&self) -> Result<(), NetError> {
        if self.recv_window == 0 {
            return Err(NetError::Config("recv_window must be at least 1"));
        }
        if self.overload_pending == 0 {
            return Err(NetError::Config("overload_pending must be at least 1"));
        }
        if self.flush_pending == 0 {
            return Err(NetError::Config("flush_pending must be at least 1"));
        }
        if self.read_budget == 0 {
            return Err(NetError::Config("read_budget must be at least 1"));
        }
        if self.max_connections == 0 {
            return Err(NetError::Config("max_connections must be at least 1"));
        }
        Ok(())
    }
}

/// Reorders an op log session-major: sessions in ascending id order,
/// each session's records in their original relative order, explicit
/// global flushes dropped (flush timing is output-neutral when
/// queue-depth shedding is disabled). This is the canonical "in-process
/// path" the determinism audit compares against: what a single-threaded
/// caller feeding one session at a time would have executed.
#[must_use]
pub fn session_major(ops: &[Record]) -> Vec<Record> {
    let mut by_session: BTreeMap<u64, Vec<Record>> = BTreeMap::new();
    for op in ops {
        let session = match op {
            Record::Handshake { id, .. }
            | Record::Push { id, .. }
            | Record::NotifyLost { id, .. }
            | Record::TakeNacks { id }
            | Record::TakeOutputs { id }
            | Record::Close { id } => *id,
            Record::Flush | Record::Genesis { .. } | Record::Checkpoint(_) => continue,
        };
        by_session.entry(session).or_default().push(op.clone());
    }
    by_session.into_values().flatten().collect()
}

/// What one [`IngestServer::poll`] round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollReport {
    /// Connections accepted this round.
    pub accepted: usize,
    /// Bytes read across all connections.
    pub bytes_read: usize,
    /// Bytes written across all connections.
    pub bytes_written: usize,
    /// Complete messages decoded and handled.
    pub messages: usize,
    /// Connections retired this round (any reason).
    pub closed: usize,
    /// Connections still live after the round.
    pub active: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepted; the first message must be `Hello`.
    AwaitHello,
    /// Handshaken; session is live in the gateway.
    Streaming,
    /// Goodbye queued (`CloseAck` or `HelloReject`); retire once the
    /// outbox drains.
    Draining,
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    outbox: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    session: Option<u64>,
    synced: bool,
    /// Cumulative send allowance last granted to the device.
    granted: u64,
    /// Frame messages accepted from this connection.
    delivered: u64,
    /// Credit updates are being withheld (overload).
    stalled: bool,
    /// Sequences seen, at or above `heartbeat_floor` (gap audit state).
    seen: BTreeSet<u32>,
    heartbeat_floor: u32,
    last_rx_round: u64,
    resyncs_reported: u64,
    /// Set while handling a read batch: poll nacks afterwards.
    nack_poll_due: bool,
}

impl Conn {
    fn new(stream: TcpStream, round: u64) -> Self {
        Conn {
            stream,
            decoder: StreamDecoder::new(),
            outbox: Vec::new(),
            out_pos: 0,
            phase: Phase::AwaitHello,
            session: None,
            synced: false,
            granted: 0,
            delivered: 0,
            stalled: false,
            seen: BTreeSet::new(),
            heartbeat_floor: 0,
            last_rx_round: round,
            resyncs_reported: 0,
            nack_poll_due: false,
        }
    }

    fn queue(&mut self, message: &Message) {
        self.outbox.extend_from_slice(&encode(message));
    }

    fn outbox_drained(&self) -> bool {
        self.out_pos == self.outbox.len()
    }

    /// Un-stalls the connection and moves its grant to `delivered +
    /// recv_window`, sending a `Credit` when that extends it.
    fn extend_grant(&mut self, recv_window: u64) {
        self.stalled = false;
        let target = self.delivered + recv_window;
        if target > self.granted {
            self.granted = target;
            self.queue(&Message::Credit {
                granted: self.granted,
            });
        }
    }
}

/// Why a connection was retired (metric label, flight-event arg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retire {
    /// Protocol-complete: device sent `Close`, goodbye drained.
    Graceful,
    /// Peer hung up.
    Eof,
    /// Socket error.
    Error,
    /// Idle past the round budget.
    Timeout,
    /// The device violated the protocol state machine.
    Protocol,
    /// Handshake was rejected.
    Rejected,
}

impl Retire {
    fn label(self) -> &'static str {
        match self {
            Retire::Graceful => "graceful",
            Retire::Eof => "eof",
            Retire::Error => "error",
            Retire::Timeout => "timeout",
            Retire::Protocol => "protocol",
            Retire::Rejected => "rejected",
        }
    }
}

/// The socket ingest tier. See the [module docs](self) for the poll
/// loop, backpressure, and determinism story.
pub struct IngestServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: IngestConfig,
    shapes: ShapeTable,
    config_fp: u64,
    gateway: Gateway,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    round: u64,
    overloaded: bool,
    outputs: BTreeMap<u64, Vec<SupervisedWindow>>,
    ops: Vec<Record>,
    sessions_closed: u64,
}

impl IngestServer {
    /// Binds a non-blocking listener on `addr` (use `"127.0.0.1:0"` for
    /// an ephemeral loopback port) and prepares the gateway bridge.
    pub fn bind(addr: &str, config: IngestConfig, shapes: ShapeTable) -> Result<Self, NetError> {
        config.validate()?;
        let gateway = Gateway::new(config.gateway).map_err(NetError::Gateway)?;
        let listener = TcpListener::bind(addr).map_err(|e| NetError::io("bind", &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::io("set_nonblocking", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::io("local_addr", &e))?;
        let config_fp = config_fingerprint(&config.gateway);
        Ok(IngestServer {
            listener,
            local_addr,
            config,
            shapes,
            config_fp,
            gateway,
            conns: BTreeMap::new(),
            next_token: 0,
            round: 0,
            overloaded: false,
            outputs: BTreeMap::new(),
            ops: Vec::new(),
            sessions_closed: 0,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway-config fingerprint devices must present.
    #[must_use]
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Live connections.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Sessions closed so far (any reason).
    #[must_use]
    pub fn sessions_closed(&self) -> u64 {
        self.sessions_closed
    }

    /// Drains the per-session outputs collected at session close.
    pub fn take_outputs(&mut self) -> BTreeMap<u64, Vec<SupervisedWindow>> {
        std::mem::take(&mut self.outputs)
    }

    /// Drains the recorded op log (empty unless
    /// [`IngestConfig::record_ops`]).
    pub fn take_ops(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.ops)
    }

    /// Read access to the embedded gateway (pending counts, phases).
    #[must_use]
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    fn record(&mut self, op: Record) {
        if self.config.record_ops {
            self.ops.push(op);
        }
    }

    fn event_ctx(&self, session: u64) -> EventContext {
        EventContext {
            logical: self.gateway.logical_clock(),
            session,
            shard: 0,
        }
    }

    /// One bounded pass over the listener and every connection.
    pub fn poll(&mut self) -> Result<PollReport, NetError> {
        self.round += 1;
        let mut report = PollReport::default();
        self.accept_new(&mut report);

        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.service_conn(token, &mut report)?;
        }

        self.apply_flush_policy(report.bytes_read == 0)?;
        self.write_pass(&mut report);
        self.sweep_timeouts(&mut report);

        report.active = self.conns.len();
        Ok(report)
    }

    fn accept_new(&mut self, report: &mut PollReport) {
        let registry = hybridcs_obs::global();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream, self.round);
                    registry.counter("net_accepted_total", &[]).inc();
                    emit_with(self.event_ctx(0), EventKind::Conn, conn_step::ACCEPT, token);
                    if self.conns.len() >= self.config.max_connections {
                        conn.queue(&Message::HelloReject {
                            code: RejectCode::ServerFull.as_u8(),
                        });
                        conn.phase = Phase::Draining;
                        registry
                            .counter("net_handshake_total", &[("result", "server_full")])
                            .inc();
                        emit_with(
                            self.event_ctx(0),
                            EventKind::Conn,
                            conn_step::HELLO_REJECT,
                            u64::from(RejectCode::ServerFull.as_u8()),
                        );
                    }
                    self.conns.insert(token, conn);
                    report.accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Reads one connection's socket and handles every complete message.
    fn service_conn(&mut self, token: u64, report: &mut PollReport) -> Result<(), NetError> {
        let Some(mut conn) = self.conns.remove(&token) else {
            return Ok(());
        };
        let mut budget = self.config.read_budget;
        let mut buf = [0u8; 4096];
        let mut hangup: Option<Retire> = None;
        while budget > 0 {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.decoder.finish();
                    hangup = Some(Retire::Eof);
                    break;
                }
                Ok(n) => {
                    conn.decoder.extend(&buf[..n]);
                    conn.last_rx_round = self.round;
                    budget = budget.saturating_sub(n);
                    report.bytes_read += n;
                    hybridcs_obs::global()
                        .counter("net_rx_bytes_total", &[])
                        .add(n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.decoder.finish();
                    hangup = Some(Retire::Error);
                    break;
                }
            }
        }

        // Everything already buffered still counts, even when the peer
        // hung up mid-read — a device may send its whole stream and
        // close without waiting for the goodbye.
        let mut retire: Option<Retire> = None;
        while retire.is_none() {
            let Some(message) = conn.decoder.next_message() else {
                break;
            };
            report.messages += 1;
            retire = self.handle_message(&mut conn, message)?;
        }
        if retire.is_none() {
            retire = hangup;
        }

        let resyncs = conn.decoder.resyncs();
        if resyncs > conn.resyncs_reported {
            hybridcs_obs::global()
                .counter("net_resyncs_total", &[])
                .add(resyncs - conn.resyncs_reported);
            conn.resyncs_reported = resyncs;
        }

        if conn.nack_poll_due {
            conn.nack_poll_due = false;
            if let Some(session) = conn.session {
                self.record(Record::TakeNacks { id: session });
                let nacks = self
                    .gateway
                    .take_nacks(session)
                    .map_err(NetError::Gateway)?;
                if !nacks.is_empty() {
                    conn.queue(&Message::Nack { sequences: nacks });
                }
            }
        }

        match retire {
            Some(reason) => {
                self.retire_conn(conn, reason, report)?;
            }
            None => {
                self.conns.insert(token, conn);
            }
        }
        Ok(())
    }

    /// Applies one decoded message to the connection state machine.
    /// Returns a retire reason when the message ends the connection.
    fn handle_message(
        &mut self,
        conn: &mut Conn,
        message: Message,
    ) -> Result<Option<Retire>, NetError> {
        let registry = hybridcs_obs::global();
        // Draining connections are already saying goodbye; anything still
        // in flight from the device is ignored.
        if conn.phase == Phase::Draining {
            return Ok(None);
        }
        match (conn.phase, message) {
            (
                Phase::AwaitHello,
                Message::Hello {
                    version,
                    device,
                    shape_fp,
                    config_fp,
                },
            ) => {
                let verdict = if version != PROTO_VERSION {
                    Err(RejectCode::BadVersion)
                } else if config_fp != self.config_fp {
                    Err(RejectCode::ConfigMismatch)
                } else if self.shapes.find(shape_fp).is_none() {
                    Err(RejectCode::UnknownShape)
                } else {
                    let (system, codec) = self.shapes.find(shape_fp).expect("checked above");
                    let (system, codec) = (system.clone(), codec.clone());
                    self.record(Record::Handshake {
                        id: device,
                        shape_fp,
                    });
                    match self.gateway.handshake(device, &system, codec) {
                        Ok(()) => Ok(()),
                        Err(GatewayError::DuplicateHandshake(_)) => Err(RejectCode::Duplicate),
                        Err(e) => return Err(NetError::Gateway(e)),
                    }
                };
                match verdict {
                    Ok(()) => {
                        conn.session = Some(device);
                        conn.phase = Phase::Streaming;
                        conn.granted = self.config.recv_window;
                        conn.queue(&Message::HelloAck {
                            session: device,
                            granted: conn.granted,
                        });
                        registry
                            .counter("net_handshake_total", &[("result", "ok")])
                            .inc();
                        emit_with(
                            self.event_ctx(device),
                            EventKind::Conn,
                            conn_step::HELLO_OK,
                            device,
                        );
                        Ok(None)
                    }
                    Err(code) => {
                        conn.queue(&Message::HelloReject { code: code.as_u8() });
                        conn.phase = Phase::Draining;
                        registry
                            .counter("net_handshake_total", &[("result", code.name())])
                            .inc();
                        emit_with(
                            self.event_ctx(device),
                            EventKind::Conn,
                            conn_step::HELLO_REJECT,
                            u64::from(code.as_u8()),
                        );
                        Ok(None)
                    }
                }
            }
            (Phase::Streaming, Message::TimeSync { device_tick }) => {
                conn.synced = true;
                conn.queue(&Message::TimeSyncAck {
                    device_tick,
                    server_logical: self.gateway.logical_clock(),
                });
                registry.counter("net_timesync_total", &[]).inc();
                emit_with(
                    self.event_ctx(conn.session.unwrap_or(0)),
                    EventKind::Conn,
                    conn_step::TIMESYNC,
                    device_tick,
                );
                Ok(None)
            }
            (
                Phase::Streaming,
                Message::Frame {
                    sequence, packet, ..
                },
            ) => {
                if !conn.synced {
                    registry
                        .counter(
                            "net_protocol_errors_total",
                            &[("kind", "frame_before_sync")],
                        )
                        .inc();
                    return Ok(Some(Retire::Protocol));
                }
                let session = conn.session.expect("streaming implies session");
                self.record(Record::Push {
                    id: session,
                    packet: packet.clone(),
                });
                self.gateway
                    .push(session, &packet)
                    .map_err(NetError::Gateway)?;
                conn.delivered += 1;
                conn.nack_poll_due = true;
                if sequence >= conn.heartbeat_floor {
                    conn.seen.insert(sequence);
                }
                registry.counter("net_frames_total", &[]).inc();
                self.update_overload_state();
                self.grant_credit(conn);
                Ok(None)
            }
            (Phase::Streaming, Message::FrameLost { sequence }) => {
                let session = conn.session.expect("streaming implies session");
                self.record(Record::NotifyLost {
                    id: session,
                    sequence,
                });
                self.gateway
                    .notify_lost(session, sequence)
                    .map_err(NetError::Gateway)?;
                conn.nack_poll_due = true;
                registry.counter("net_frames_lost_total", &[]).inc();
                Ok(None)
            }
            (Phase::Streaming, Message::Heartbeat { sent_through }) => {
                // A device sends first transmissions only within its
                // grant, so a claim beyond it names no radio hole; opening
                // one per claimed sequence would pin this thread and grow
                // the reorder buffer without bound.
                if u64::from(sent_through) > conn.granted {
                    registry
                        .counter(
                            "net_protocol_errors_total",
                            &[("kind", "heartbeat_beyond_grant")],
                        )
                        .inc();
                    return Ok(Some(Retire::Protocol));
                }
                let session = conn.session.expect("streaming implies session");
                // Any first-transmission the device claims to have sent
                // but we never saw is a hole the radio ate; open it so
                // the ARQ can nack or declare it.
                for sequence in conn.heartbeat_floor..sent_through {
                    if !conn.seen.contains(&sequence) {
                        self.record(Record::NotifyLost {
                            id: session,
                            sequence,
                        });
                        self.gateway
                            .notify_lost(session, sequence)
                            .map_err(NetError::Gateway)?;
                        conn.nack_poll_due = true;
                    }
                }
                if sent_through > conn.heartbeat_floor {
                    conn.heartbeat_floor = sent_through;
                    conn.seen.retain(|s| *s >= sent_through);
                }
                // Re-issue the current grant: a lost Credit must not
                // stall the device forever.
                self.grant_credit(conn);
                registry.counter("net_heartbeats_total", &[]).inc();
                Ok(None)
            }
            (Phase::Streaming, Message::Close) => {
                let session = conn.session.expect("streaming implies session");
                self.record(Record::Close { id: session });
                let windows = self.gateway.close(session).map_err(NetError::Gateway)?;
                let committed = windows.len() as u64;
                self.outputs.insert(session, windows);
                self.sessions_closed += 1;
                conn.queue(&Message::CloseAck { committed });
                conn.phase = Phase::Draining;
                conn.session = None;
                registry
                    .counter("net_closed_total", &[("reason", Retire::Graceful.label())])
                    .inc();
                emit_with(
                    self.event_ctx(session),
                    EventKind::Conn,
                    conn_step::CLOSE,
                    committed,
                );
                Ok(None)
            }
            (_, other) => {
                registry
                    .counter("net_protocol_errors_total", &[("kind", other.name())])
                    .inc();
                Ok(Some(Retire::Protocol))
            }
        }
    }

    /// Sends the device an updated cumulative grant, unless the server
    /// is overloaded — then the window is deliberately left to close.
    fn grant_credit(&mut self, conn: &mut Conn) {
        if self.overloaded {
            if !conn.stalled {
                conn.stalled = true;
                conn.queue(&Message::Overload { level: 1 });
                hybridcs_obs::global()
                    .counter("net_backpressure_stalls_total", &[])
                    .inc();
                emit_with(
                    self.event_ctx(conn.session.unwrap_or(0)),
                    EventKind::Conn,
                    conn_step::STALL,
                    conn.session.unwrap_or(0),
                );
            }
            return;
        }
        conn.extend_grant(self.config.recv_window);
    }

    fn update_overload_state(&mut self) {
        let pending = self.gateway.pending_windows();
        if !self.overloaded && pending >= self.config.overload_pending {
            self.overloaded = true;
            hybridcs_obs::global()
                .counter("net_shed_transitions_total", &[])
                .inc();
            emit_with(
                self.event_ctx(0),
                EventKind::Conn,
                conn_step::SHED,
                pending as u64,
            );
        } else if self.overloaded && 2 * pending < self.config.overload_pending {
            self.overloaded = false;
        }
    }

    /// Flushes the gateway when enough windows are pending, or when the
    /// round was idle and work is waiting (latency floor). Re-opens
    /// stalled windows afterwards.
    fn apply_flush_policy(&mut self, idle_round: bool) -> Result<(), NetError> {
        let pending = self.gateway.pending_windows();
        if pending == 0 || (pending < self.config.flush_pending && !idle_round) {
            return Ok(());
        }
        self.record(Record::Flush);
        self.gateway.flush().map_err(NetError::Gateway)?;
        self.update_overload_state();
        if !self.overloaded {
            let recv_window = self.config.recv_window;
            for conn in self.conns.values_mut().filter(|c| c.stalled) {
                conn.extend_grant(recv_window);
            }
        }
        Ok(())
    }

    /// Writes every connection's outbox as far as the kernel allows and
    /// retires drained goodbye connections.
    fn write_pass(&mut self, report: &mut PollReport) {
        let registry = hybridcs_obs::global();
        let mut done: Vec<(u64, Option<Retire>)> = Vec::new();
        for (token, conn) in &mut self.conns {
            let mut broken = false;
            while conn.out_pos < conn.outbox.len() {
                match conn.stream.write(&conn.outbox[conn.out_pos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_pos += n;
                        report.bytes_written += n;
                        registry.counter("net_tx_bytes_total", &[]).add(n as u64);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if conn.out_pos > 0 && conn.outbox_drained() {
                conn.outbox.clear();
                conn.out_pos = 0;
            }
            if broken {
                done.push((*token, Some(Retire::Error)));
            } else if conn.phase == Phase::Draining && conn.outbox_drained() {
                done.push((*token, None));
            }
        }
        for (token, retire) in done {
            if let Some(conn) = self.conns.remove(&token) {
                let reason = retire.unwrap_or(if conn.session.is_none() && conn.granted == 0 {
                    Retire::Rejected
                } else {
                    Retire::Graceful
                });
                // Graceful drains already closed their session and
                // counted themselves; only error paths still need the
                // full retirement bookkeeping.
                if reason == Retire::Error {
                    let mut r = PollReport::default();
                    let _ = self.retire_conn(conn, reason, &mut r);
                    report.closed += r.closed;
                } else {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    report.closed += 1;
                }
            }
        }
    }

    /// Retires connections that have been silent past the idle budget.
    fn sweep_timeouts(&mut self, report: &mut PollReport) {
        let cutoff = self.round.saturating_sub(self.config.idle_timeout_rounds);
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.last_rx_round < cutoff)
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                emit_with(
                    self.event_ctx(conn.session.unwrap_or(token)),
                    EventKind::Conn,
                    conn_step::TIMEOUT,
                    conn.session.unwrap_or(token),
                );
                hybridcs_obs::global()
                    .counter("net_timeouts_total", &[])
                    .inc();
                let _ = self.retire_conn(conn, Retire::Timeout, report);
            }
        }
    }

    /// Final bookkeeping for a connection leaving for any non-graceful
    /// reason: the gateway session (if live) is closed and its outputs
    /// are kept — decodes that happened are real regardless of how the
    /// socket died.
    fn retire_conn(
        &mut self,
        conn: Conn,
        reason: Retire,
        report: &mut PollReport,
    ) -> Result<(), NetError> {
        if let Some(session) = conn.session {
            self.record(Record::Close { id: session });
            let windows = self.gateway.close(session).map_err(NetError::Gateway)?;
            let committed = windows.len() as u64;
            self.outputs.insert(session, windows);
            self.sessions_closed += 1;
            emit_with(
                self.event_ctx(session),
                EventKind::Conn,
                conn_step::CLOSE,
                committed,
            );
        }
        hybridcs_obs::global()
            .counter("net_closed_total", &[("reason", reason.label())])
            .inc();
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        report.closed += 1;
        Ok(())
    }
}
