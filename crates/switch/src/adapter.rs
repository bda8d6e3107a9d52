//! The per-node communication adapter and its reliability protocol.
//!
//! An [`Adapter`] is a node's endpoint on the switch: it owns the node's
//! virtual clock, its injection link, and its receive queue, and it knows how
//! to push packets through the fabric to any other adapter. The protocol
//! layers above (LAPI, MPL) charge their own CPU costs to the clock and then
//! hand packets to [`Adapter::send_at`]; the adapter models only wire-level
//! behaviour: serialization, routing, loss, duplication and recovery.
//!
//! ## Reliability protocol
//!
//! Like the SP's TB3 adapter, this layer turns a lossy fabric into reliable,
//! possibly out-of-order delivery. Each directed `(src, dst)` pair is a
//! *flow* with consecutive sequence numbers. Per transmission attempt the
//! fabric may lose the packet (per-link probability or a scripted
//! [`spsim::FaultPlan`] black-hole window) or deliver a duplicate copy; the
//! receiving side acknowledges cumulatively (coalesced, one `ack_bytes` wire
//! charge per `ack_every` packets or after `ack_delay`, on the flow's
//! reverse lane) and suppresses duplicates by sequence number. The sender
//! retransmits on a virtual-time timeout — each retransmission re-serializes
//! on the injection link *at the timeout instant*, so later packets of the
//! flow queue behind it exactly like a stalled go-back-N window — and after
//! `max_retransmits` attempts gives up and surfaces a structured
//! [`DeliveryTimeout`] instead of panicking.
//!
//! ## Retransmission timing and peer health
//!
//! With [`MachineConfig::adaptive_rto`] (the default) the retransmission
//! timeout is estimated per flow, RFC-6298-style: acknowledged first
//! transmissions contribute RTT samples (Karn's rule — retransmitted
//! sequences are ambiguous and never sampled) into SRTT/RTTVAR, and each
//! retransmission waits `clamp(SRTT + 4·RTTVAR, rto_min, rto_max)` doubled
//! per retry (exponential backoff, capped at `rto_max`) plus seeded jitter
//! of up to RTO/8 drawn from the adapter's deterministic RNG stream. Jitter
//! draws happen only on retransmission paths, so lossless runs remain
//! byte-identical to a fixed-timeout adapter.
//!
//! When a flow exhausts its retransmission budget the adapter memoizes the
//! destination in a per-adapter [`PeerHealth`] table: every later send to
//! that peer fails immediately with `DeliveryTimeout { fast_failed: true }`
//! — zero wire activity, zero virtual-time cost — instead of re-paying
//! `max_retransmits × RTO` per flow. Terminally failed sends whose data
//! never reached the destination emit a `write-off` trace event so the
//! quiescence ledger still balances.
//!
//! Node-level faults from [`spsim::FaultPlan`] compose here: a crashed or
//! stalled endpoint black-holes every transmission touching it (detected by
//! the sender through retransmission exhaustion exactly like a dead link),
//! and a `slow(node, factor)` entry multiplies that node's injection and
//! ejection serialization times.
//!
//! Everything resolves synchronously inside [`Adapter::try_send_at`] in
//! virtual time (no timer threads); pending coalesced ACKs are pumped lazily
//! from send/recv paths ([`Adapter::pump`]) and flushed at shutdown. With a
//! fully clean configuration ([`MachineConfig::reliability_armed`] false)
//! the protocol is pay-for-what-you-use: no ACK traffic, no extra RNG draws,
//! and timings identical to a fabric that cannot fail.
//!
//! When the world is traced ([`spsim::trace`]), sends emit wire-level
//! events: `inject` (on the sender, `msg_id` = destination),
//! `drop`/`retransmit` per failed round (a drop may be the data packet or
//! its ACK — see the event detail), `eject` (on the destination at
//! delivery, `msg_id` = source), plus `ack`, `dup` and `flow-stall` for the
//! protocol itself. Every event goes through
//! the adapter's [`Tracer`], which its `Network` chose once for the whole
//! world. Protocol engines emit the matching `deliver` through the same
//! tracer when they consume the packet, which is what
//! [`spsim::trace::TraceSink::assert_quiescent`] balances against `inject`
//! (ACKs and suppressed duplicates are adapter-internal and excluded).

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use spsim::trace::{self, Tracer};
use spsim::{
    DeliveryQueue, MachineConfig, NodeId, OrDiag, SimRng, StatCounter, VClock, VDur, VTime,
};

use crate::link::Link;
use crate::packet::WirePacket;

/// Wire-level statistics kept by each adapter.
#[derive(Clone, Debug, Default)]
pub struct AdapterStats {
    /// Packets handed to the fabric (including retried ones once).
    pub packets_sent: StatCounter,
    /// Total wire bytes injected.
    pub bytes_sent: StatCounter,
    /// Retransmissions (lost data packets *and* lost acknowledgements both
    /// cost the sender one retransmission round).
    pub retransmits: StatCounter,
    /// Packets delivered into this adapter's receive queue.
    pub packets_received: StatCounter,
    /// Coalesced acknowledgement packets this node charged to the wire.
    pub acks_sent: StatCounter,
    /// Duplicate copies this node's dedup suppressed (fabric duplication or
    /// spurious retransmissions after a lost ACK).
    pub dups_suppressed: StatCounter,
    /// Flows this node gave up on after `max_retransmits` (each one
    /// surfaced a [`DeliveryTimeout`]).
    pub timeouts: StatCounter,
    /// Sends refused immediately because [`PeerHealth`] had already
    /// memoized the destination as dead (`fast_failed` timeouts).
    pub fast_fails: StatCounter,
}

/// What a send cost at the wire level.
#[derive(Debug, Clone, Copy)]
pub struct SendReceipt {
    /// When the packet's last byte left the sender's injection link — the
    /// point at which LAPI may consider origin buffers reusable.
    pub injected_at: VTime,
    /// When the packet lands in the destination receive queue. **Protocol
    /// code must not use this for completion semantics** (the origin cannot
    /// observe remote delivery without a protocol-level acknowledgement);
    /// it exists for tests and statistics.
    pub delivered_at: VTime,
}

/// The structured error for a flow whose bounded retransmissions ran out:
/// the adapter-level equivalent of declaring the link dead.
#[derive(Debug, Clone)]
pub struct DeliveryTimeout {
    /// Sending node of the dead flow.
    pub src: NodeId,
    /// Destination node of the dead flow.
    pub dst: NodeId,
    /// Sequence number of the packet that could not be acknowledged.
    pub seq: u64,
    /// How many sequences of this flow the destination had cumulatively
    /// acknowledged when the sender gave up.
    pub cum_acked: u64,
    /// Retransmissions spent before giving up (= `max_retransmits`).
    pub retries: u32,
    /// When the first attempt left the injection link.
    pub first_attempt: VTime,
    /// When the last retransmitted copy left the injection link.
    pub last_attempt: VTime,
    /// Whether the data actually reached the destination (every ACK died;
    /// the sender cannot know this — recorded for tests and diagnostics).
    pub delivered: bool,
    /// True when the send was refused *without any wire activity* because
    /// an earlier flow to this peer had already exhausted its budget and
    /// [`PeerHealth`] memoized the peer as dead. `retries` is 0 and
    /// `first_attempt == last_attempt` in that case.
    pub fast_failed: bool,
    /// Flow state plus the trace timeline tail at the moment of failure.
    pub report: String,
}

impl fmt::Display for DeliveryTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fast_failed {
            return write!(
                f,
                "delivery timeout on flow {}→{}: fast-failed, peer {} already \
                 declared dead (seq {} refused without wire activity at {}ns)\n{}",
                self.src,
                self.dst,
                self.dst,
                self.seq,
                self.first_attempt.as_ns(),
                self.report
            );
        }
        write!(
            f,
            "delivery timeout on flow {}→{}: seq {} unacknowledged after {} \
             retransmissions (flow cum-acked {}, first attempt {}ns, gave up {}ns)\n{}",
            self.src,
            self.dst,
            self.seq,
            self.retries,
            self.cum_acked,
            self.first_attempt.as_ns(),
            self.last_attempt.as_ns(),
            self.report
        )
    }
}

impl std::error::Error for DeliveryTimeout {}

/// Per-`(src, dst)` reliability state, held by the sending adapter. The
/// receiver's half (dedup cursor, pending coalesced ACKs, the reverse ACK
/// lane) also lives here because the sending thread resolves the whole
/// exchange synchronously in virtual time; keeping it flow-private makes
/// ACK wire charges deterministic (no cross-thread lane races).
struct FlowState {
    /// Next sequence number this sender will assign.
    tx_next_seq: u64,
    /// Sequences cumulatively acknowledged back to the sender.
    tx_acked: u64,
    /// Receiver dedup cursor: sequences accepted so far (a copy with
    /// `seq < rx_next` is a duplicate).
    rx_next: u64,
    /// Accepted packets awaiting an ACK wire charge (coalescing).
    pending_acks: u32,
    /// Delivery time of the oldest packet in the pending batch.
    pending_since: VTime,
    /// The flow's reverse-direction wire lane for ACK packets.
    ack_lane: Link,
    /// Smoothed round-trip estimate (RFC-6298-style); `None` until the
    /// flow's first unambiguous sample.
    srtt: Option<VDur>,
    /// Round-trip variance estimate, paired with `srtt`.
    rttvar: VDur,
}

impl FlowState {
    fn new() -> Self {
        FlowState {
            tx_next_seq: 0,
            tx_acked: 0,
            rx_next: 0,
            pending_acks: 0,
            pending_since: VTime::ZERO,
            ack_lane: Link::new(),
            srtt: None,
            rttvar: VDur::ZERO,
        }
    }

    /// Fold one unambiguous RTT sample into SRTT/RTTVAR (RFC 6298: first
    /// sample seeds `srtt = s, rttvar = s/2`; thereafter
    /// `rttvar = 3/4·rttvar + 1/4·|srtt − s|`, `srtt = 7/8·srtt + 1/8·s`).
    fn observe_rtt(&mut self, sample: VDur) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = VDur::from_ns(sample.as_ns() / 2);
            }
            Some(srtt) => {
                let err = srtt.as_ns().abs_diff(sample.as_ns());
                self.rttvar = VDur::from_ns((3 * self.rttvar.as_ns() + err) / 4);
                self.srtt = Some(VDur::from_ns((7 * srtt.as_ns() + sample.as_ns()) / 8));
            }
        }
    }
}

/// Per-adapter liveness memo: one flag per destination, set the moment any
/// flow to that peer exhausts its retransmission budget. Once set, every
/// later send to the peer fails fast (`DeliveryTimeout::fast_failed`)
/// without touching the wire — the whole point is that a dead node costs
/// each *adapter* one detection, not each *flow* one full
/// `max_retransmits × RTO` budget.
pub struct PeerHealth {
    dead: Vec<std::sync::atomic::AtomicBool>,
}

impl PeerHealth {
    fn new(nodes: usize) -> Self {
        PeerHealth {
            dead: (0..nodes)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
        }
    }

    /// Has `peer` been declared dead by this adapter?
    pub fn is_dead(&self, peer: NodeId) -> bool {
        // ordering: Relaxed — the flag is a monotonic latch; observing it
        // late merely costs one more full-budget detection, never safety.
        self.dead[peer].load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Latch `peer` as dead. Returns true when this call made the
    /// transition (the caller that should report it exactly once).
    pub fn mark_dead(&self, peer: NodeId) -> bool {
        // ordering: Relaxed — see `is_dead`; swap makes the latch
        // exactly-once for the returning caller.
        !self.dead[peer].swap(true, std::sync::atomic::Ordering::Relaxed)
    }

    /// All peers currently latched dead, in node-id order.
    pub fn dead_peers(&self) -> Vec<NodeId> {
        (0..self.dead.len()).filter(|&p| self.is_dead(p)).collect()
    }
}

/// Shared per-node receive-side resources, indexed by node id.
pub(crate) struct Port<M> {
    pub(crate) ejection: Link,
    pub(crate) rx: DeliveryQueue<WirePacket<M>>,
    pub(crate) stats: AdapterStats,
}

/// A node's endpoint on the simulated SP switch.
pub struct Adapter<M> {
    id: NodeId,
    clock: VClock,
    cfg: Arc<MachineConfig>,
    injection: Link,
    ports: Arc<Vec<Port<M>>>,
    rng: Mutex<SimRng>,
    /// One flow per destination (including loopback, which bypasses the
    /// protocol but still numbers its packets).
    flows: Vec<Mutex<FlowState>>,
    /// Cached [`MachineConfig::reliability_armed`]: when false, sends take
    /// the zero-overhead path.
    armed: bool,
    /// Peers this adapter has given up on (fast-fail memo).
    health: PeerHealth,
    /// Cached per-node `slow(node, factor)` serialization multipliers from
    /// the fault plan (all 1 without node faults).
    slow: Vec<u32>,
    /// This world's trace route, shared by every adapter of the switch.
    tracer: Tracer,
}

impl<M: Send + Clone + 'static> Adapter<M> {
    pub(crate) fn new(
        id: NodeId,
        cfg: Arc<MachineConfig>,
        ports: Arc<Vec<Port<M>>>,
        rng: SimRng,
        tracer: Tracer,
    ) -> Self {
        let flows = (0..ports.len())
            .map(|_| Mutex::new(FlowState::new()))
            .collect();
        let armed = cfg.reliability_armed();
        let health = PeerHealth::new(ports.len());
        let slow = (0..ports.len())
            .map(|n| cfg.faults.slow_factor(n))
            .collect();
        Adapter {
            id,
            clock: VClock::new(),
            cfg,
            injection: Link::new(),
            ports,
            rng: Mutex::new(rng),
            flows,
            armed,
            health,
            slow,
            tracer,
        }
    }

    /// This adapter's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes on the switch.
    pub fn nodes(&self) -> usize {
        self.ports.len()
    }

    /// The node's virtual clock (shared with the protocol layer and app).
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// The machine cost model.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// This node's receive queue of arrived packets (in arrival-time order).
    pub fn rx(&self) -> &DeliveryQueue<WirePacket<M>> {
        &self.ports[self.id].rx
    }

    /// This node's wire statistics.
    pub fn stats(&self) -> &AdapterStats {
        &self.ports[self.id].stats
    }

    /// This world's trace route: protocol layers above the adapter emit
    /// their events through it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// This adapter's per-peer liveness memo.
    pub fn peer_health(&self) -> &PeerHealth {
        &self.health
    }

    /// The retransmission delay before retry number `retry` (1-based) of a
    /// flow, per the adaptive-RTO estimator: base RTO from SRTT/RTTVAR
    /// (initial `retransmit_timeout` before the first sample), clamped to
    /// `[rto_min, rto_max]`, doubled per previous retry and re-capped at
    /// `rto_max`, plus seeded jitter of up to RTO/8.
    fn backoff_delay(&self, flow: &FlowState, retry: u32, rng: &mut SimRng) -> VDur {
        let base = match flow.srtt {
            Some(srtt) => (srtt + self.rttvar_term(flow))
                .as_ns()
                .clamp(self.cfg.rto_min.as_ns(), self.cfg.rto_max.as_ns()),
            None => self
                .cfg
                .retransmit_timeout
                .as_ns()
                .clamp(self.cfg.rto_min.as_ns(), self.cfg.rto_max.as_ns()),
        };
        let shift = (retry.saturating_sub(1)).min(16);
        let rto = base
            .saturating_mul(1u64 << shift)
            .min(self.cfg.rto_max.as_ns());
        let jitter = rng.next_below(rto / 8 + 1);
        VDur::from_ns(rto + jitter)
    }

    fn rttvar_term(&self, flow: &FlowState) -> VDur {
        flow.rttvar * 4
    }

    /// Build the fast-fail [`DeliveryTimeout`] for a send refused because
    /// `dst` is already latched dead. No wire activity, no trace events,
    /// no virtual-time cost.
    fn fast_fail(&self, at: VTime, dst: NodeId) -> DeliveryTimeout {
        self.ports[self.id].stats.fast_fails.incr();
        let flow = self.flows[dst].lock();
        DeliveryTimeout {
            src: self.id,
            dst,
            seq: flow.tx_next_seq,
            cum_acked: flow.tx_acked,
            retries: 0,
            first_attempt: at,
            last_attempt: at,
            delivered: false,
            fast_failed: true,
            report: format!(
                "flow {}→{}: fast-failed (peer {} latched dead) next-seq={} cum-acked={}",
                self.id, dst, dst, flow.tx_next_seq, flow.tx_acked
            ),
        }
    }

    /// Charge one coalesced cumulative ACK for `dst`'s flow to the wire at
    /// `at` (flow lock held by the caller).
    fn charge_ack(&self, dst: NodeId, flow: &mut FlowState, at: VTime) {
        let ser = self.cfg.wire_time(self.cfg.ack_bytes) * self.slow[dst] as u64;
        let done = flow.ack_lane.reserve(at, ser);
        self.ports[dst].stats.acks_sent.incr();
        self.tracer.emit(
            dst,
            done,
            trace::EventKind::Ack,
            "cum",
            flow.rx_next,
            self.cfg.ack_bytes,
        );
        flow.pending_acks = 0;
    }

    /// Send a packet whose serialized size is `wire_bytes` to `dst`,
    /// handing it to the NIC at virtual time `at` (usually `clock().now()`
    /// after the caller charged its CPU overhead).
    ///
    /// Models: injection-link serialization → route selection → fabric
    /// latency (+ per-route skew) → loss/duplication per the fault
    /// configuration → ejection-link serialization → receive-queue
    /// insertion → cumulative acknowledgement, with bounded virtual-time
    /// retransmission on loss (of the data *or* of its ACK).
    ///
    /// Returns [`DeliveryTimeout`] when `max_retransmits` rounds all fail —
    /// the structured "link dead" condition protocol layers surface to the
    /// application (LAPI: `LapiError::DeliveryTimeout`).
    pub fn try_send_at(
        &self,
        at: VTime,
        dst: NodeId,
        wire_bytes: usize,
        body: M,
    ) -> Result<SendReceipt, DeliveryTimeout> {
        assert!(dst < self.ports.len(), "destination {dst} out of range");
        assert!(
            wire_bytes <= self.cfg.packet_size,
            "packet of {wire_bytes}B exceeds the {}B switch MTU",
            self.cfg.packet_size
        );
        if dst != self.id && self.health.is_dead(dst) {
            // Fast fail *before* any link reservation or `inject` trace:
            // the refused send leaves no wire footprint, so the quiescence
            // ledger needs no write-off and virtual time does not move.
            return Err(self.fast_fail(at, dst));
        }
        let ser = self.cfg.wire_time(wire_bytes);
        let ser_tx = ser * self.slow[self.id] as u64;
        let ser_rx = ser * self.slow[dst] as u64;
        let injected_at = self.injection.reserve(at, ser_tx);
        self.tracer.emit(
            self.id,
            injected_at,
            trace::EventKind::Inject,
            "pkt",
            dst as u64,
            wire_bytes,
        );

        let my = &self.ports[self.id].stats;
        my.packets_sent.incr();
        my.bytes_sent.add(wire_bytes as u64);
        let port = &self.ports[dst];

        let mut flow = self.flows[dst].lock();
        let seq = flow.tx_next_seq;
        flow.tx_next_seq += 1;

        if dst == self.id {
            // Loopback: the adapter hairpins the packet without touching
            // the fabric, so no fault injection and no ACK protocol. The
            // route is still drawn so the RNG stream stays aligned with
            // fabric sends (same-seed runs stay byte-identical whether or
            // not a workload mixes in self-sends).
            let route = self.rng.lock().next_below(self.cfg.num_routes as u64) as usize;
            flow.tx_acked = flow.tx_acked.max(seq + 1);
            flow.rx_next = flow.rx_next.max(seq + 1);
            port.stats.packets_received.incr();
            self.tracer.emit(
                dst,
                injected_at,
                trace::EventKind::Eject,
                "pkt",
                self.id as u64,
                wire_bytes,
            );
            let accepted = port.rx.push_from(
                self.id,
                injected_at,
                WirePacket {
                    src: self.id,
                    dst,
                    wire_bytes,
                    route,
                    seq,
                    injected_at,
                    body,
                },
            );
            if !accepted {
                // The destination closed its queue (crashed / terminated)
                // between our health check and the push: the packet is gone
                // and no Deliver will balance the Inject — write it off.
                self.tracer.emit(
                    dst,
                    injected_at,
                    trace::EventKind::WriteOff,
                    "closed",
                    seq,
                    1,
                );
            }
            return Ok(SendReceipt {
                injected_at,
                delivered_at: injected_at,
            });
        }

        // A stale coalesced-ACK batch on this flow flushes (standalone ACK
        // packet) before the new exchange begins.
        if self.armed && flow.pending_acks > 0 {
            let deadline = flow.pending_since + self.cfg.ack_delay;
            if deadline <= injected_at {
                self.charge_ack(dst, &mut flow, deadline);
            }
        }

        let faults = self.cfg.link_faults(self.id, dst);
        let ack_loss = self.cfg.ack_loss(dst, self.id);
        let mut rng = self.rng.lock();
        let route = rng.next_below(self.cfg.num_routes as u64) as usize;
        let skew = self.cfg.route_skew * route as u64;

        // Harness mutant (disarmed in production — one relaxed load): the
        // dedup-cursor-off-by-one variant keeps a clone so the first
        // duplicate copy can be (incorrectly) delivered instead of
        // suppressed. See `spsim::mutation`.
        let mut mutant_dup_copy: Option<M> =
            spsim::mutation::armed(spsim::Mutant::DedupCursorOffByOne).then(|| body.clone());
        let mut body = Some(body);
        let mut attempt = injected_at; // last byte off our injection link
        let mut retries: u32 = 0;
        let mut accepted: Option<VTime> = None; // eject time of the first copy

        loop {
            let arrival = attempt + self.cfg.fabric_latency;
            // -- data transit --
            let lost =
                self.cfg.faults.black_holed(self.id, dst, arrival) || rng.chance(faults.drop_prob);
            let mut round_ok = false;
            if lost {
                self.tracer.emit(
                    self.id,
                    arrival,
                    trace::EventKind::Drop,
                    "pkt",
                    dst as u64,
                    wire_bytes,
                );
            } else {
                // The ejection link enforces receive-side bandwidth; the
                // per-route skew lands *after* it so that packets of one
                // message taking different routes really can arrive out of
                // order (the property LAPI's reassembly must handle).
                let eject = port.ejection.reserve(arrival, ser_rx) + skew;
                let ack_from = if accepted.is_none() {
                    // First copy of this sequence: deliver it.
                    accepted = Some(eject);
                    flow.rx_next = flow.rx_next.max(seq + 1);
                    port.stats.packets_received.incr();
                    self.tracer.emit(
                        dst,
                        eject,
                        trace::EventKind::Eject,
                        "pkt",
                        self.id as u64,
                        wire_bytes,
                    );
                    let pushed = port.rx.push_from(
                        self.id,
                        eject,
                        WirePacket {
                            src: self.id,
                            dst,
                            wire_bytes,
                            route,
                            seq,
                            injected_at,
                            body: body.take().or_diag("packet body delivered twice"),
                        },
                    );
                    if !pushed {
                        // Receiver queue already closed (peer crashed or
                        // terminated mid-exchange): the packet lands on a
                        // powered-off adapter, so no Deliver event will ever
                        // balance the Inject — write it off here.
                        self.tracer
                            .emit(dst, eject, trace::EventKind::WriteOff, "closed", seq, 1);
                    }
                    // Fabric duplication: the copy crosses the ejection
                    // link too, then the dedup discards it.
                    if rng.chance(faults.dup_prob) {
                        let dup_at = port.ejection.reserve(eject, ser_rx) + skew;
                        if let Some(extra) = mutant_dup_copy.take() {
                            // Mutant: cursor off by one — the duplicate is
                            // handed to the protocol as if it were new.
                            port.stats.packets_received.incr();
                            self.tracer.emit(
                                dst,
                                dup_at,
                                trace::EventKind::Eject,
                                "pkt",
                                self.id as u64,
                                wire_bytes,
                            );
                            port.rx.push_from(
                                self.id,
                                dup_at,
                                WirePacket {
                                    src: self.id,
                                    dst,
                                    wire_bytes,
                                    route,
                                    seq,
                                    injected_at,
                                    body: extra,
                                },
                            );
                        } else {
                            port.stats.dups_suppressed.incr();
                            self.tracer.emit(
                                dst,
                                dup_at,
                                trace::EventKind::Dup,
                                "pkt",
                                seq,
                                wire_bytes,
                            );
                        }
                    }
                    // ACK coalescing: this acceptance joins the batch.
                    if self.armed {
                        if flow.pending_acks == 0 {
                            flow.pending_since = eject;
                        }
                        flow.pending_acks += 1;
                        if flow.pending_acks >= self.cfg.ack_every {
                            self.charge_ack(dst, &mut flow, eject);
                        }
                    }
                    eject
                } else {
                    // A spurious retransmission of an already-accepted
                    // sequence (its ACK was lost): suppressed by dedup.
                    let dup_at = port.ejection.reserve(arrival, ser_rx) + skew;
                    if let Some(extra) = mutant_dup_copy.take() {
                        // Mutant: cursor off by one — see above.
                        port.stats.packets_received.incr();
                        self.tracer.emit(
                            dst,
                            dup_at,
                            trace::EventKind::Eject,
                            "pkt",
                            self.id as u64,
                            wire_bytes,
                        );
                        port.rx.push_from(
                            self.id,
                            dup_at,
                            WirePacket {
                                src: self.id,
                                dst,
                                wire_bytes,
                                route,
                                seq,
                                injected_at,
                                body: extra,
                            },
                        );
                    } else {
                        port.stats.dups_suppressed.incr();
                        self.tracer.emit(
                            dst,
                            dup_at,
                            trace::EventKind::Dup,
                            "pkt",
                            seq,
                            wire_bytes,
                        );
                    }
                    dup_at
                };
                // -- acknowledgement transit (reverse direction) --
                let ack_dead =
                    self.cfg.faults.black_holed(dst, self.id, ack_from) || rng.chance(ack_loss);
                if ack_dead {
                    self.tracer.emit(
                        dst,
                        ack_from,
                        trace::EventKind::Drop,
                        "ack",
                        self.id as u64,
                        self.cfg.ack_bytes,
                    );
                } else {
                    flow.tx_acked = flow.tx_acked.max(seq + 1);
                    round_ok = true;
                    // Karn's rule: only a first transmission's ACK is an
                    // unambiguous RTT sample (round-trip from last byte off
                    // the injection link to ACK arrival back at the sender).
                    if self.armed && self.cfg.adaptive_rto && retries == 0 {
                        flow.observe_rtt((ack_from + self.cfg.fabric_latency).since(attempt));
                    }
                }
            }
            if round_ok {
                break;
            }
            // Harness mutant: the retransmit timer for a lost packet is
            // dropped — the sender reports success without ever
            // re-offering the data. Only fires for genuine silent loss
            // (nothing delivered yet), the failure the timer exists for.
            if accepted.is_none() && spsim::mutation::armed(spsim::Mutant::DropRetransmitTimer) {
                return Ok(SendReceipt {
                    injected_at,
                    delivered_at: arrival,
                });
            }
            // -- bounded retransmission --
            if retries >= self.cfg.max_retransmits {
                my.timeouts.incr();
                self.health.mark_dead(dst);
                self.tracer.emit(
                    self.id,
                    attempt,
                    trace::EventKind::FlowStall,
                    "timeout",
                    seq,
                    wire_bytes,
                );
                if accepted.is_none() {
                    // The data never reached the destination: its `inject`
                    // will never be balanced by a `deliver`, so retire the
                    // packet from the quiescence ledger explicitly.
                    self.tracer
                        .emit(self.id, attempt, trace::EventKind::WriteOff, "send", seq, 1);
                }
                return Err(DeliveryTimeout {
                    src: self.id,
                    dst,
                    seq,
                    cum_acked: flow.tx_acked,
                    retries,
                    first_attempt: injected_at,
                    last_attempt: attempt,
                    delivered: accepted.is_some(),
                    fast_failed: false,
                    report: format!(
                        "flow {}→{}: next-seq={} cum-acked={} rx-next={} pending-acks={}\n{}",
                        self.id,
                        dst,
                        flow.tx_next_seq,
                        flow.tx_acked,
                        flow.rx_next,
                        flow.pending_acks,
                        self.tracer.tail_report(trace::REPORT_TAIL)
                    ),
                });
            }
            retries += 1;
            my.retransmits.incr();
            // The retransmitted copy re-serializes on the injection link at
            // the timeout instant; later packets of this node queue behind
            // it (go-back-N head-of-line blocking).
            let timeout = if self.cfg.adaptive_rto {
                self.backoff_delay(&flow, retries, &mut rng)
            } else {
                self.cfg.retransmit_timeout
            };
            attempt = self.injection.reserve(attempt + timeout, ser_tx);
            self.tracer.emit(
                self.id,
                attempt,
                trace::EventKind::Retransmit,
                "pkt",
                dst as u64,
                wire_bytes,
            );
        }

        Ok(SendReceipt {
            injected_at,
            delivered_at: accepted.or_diag("send loop exited without a delivered round"),
        })
    }

    /// Send a multi-packet burst to `dst` with one batched injection-link
    /// reservation: frame `i` is handed to the NIC at `first_at + i * step`
    /// (`step` models the per-packet issue cost the caller charges its
    /// clock). Returns one receipt per frame, in order.
    ///
    /// With the reliability protocol disarmed — and always for loopback,
    /// which bypasses the protocol — the burst reserves the injection link
    /// once via [`Link::reserve_batch`] and takes the flow and RNG locks
    /// once; timestamps, RNG draws, trace events and statistics are
    /// bit-identical to the equivalent sequence of [`Adapter::try_send_at`]
    /// calls (DESIGN §4.2). When the protocol is armed, retransmission
    /// re-reservations interleave with later initial reservations, so
    /// per-packet reservation is semantically load-bearing: the burst falls
    /// back to exactly that per-packet sequence.
    pub fn try_send_batch_at(
        &self,
        first_at: VTime,
        step: VDur,
        dst: NodeId,
        frags: Vec<(usize, M)>,
    ) -> Result<Vec<SendReceipt>, DeliveryTimeout> {
        assert!(dst < self.ports.len(), "destination {dst} out of range");
        if frags.is_empty() {
            return Ok(Vec::new());
        }
        if self.armed && dst != self.id {
            let mut out = Vec::with_capacity(frags.len());
            let mut at = first_at;
            for (i, (wire_bytes, body)) in frags.into_iter().enumerate() {
                if i > 0 {
                    at += step;
                }
                out.push(self.try_send_at(at, dst, wire_bytes, body)?);
            }
            return Ok(out);
        }

        // This path is reachable only disarmed (every slow factor is 1) or
        // for loopback, where the sender's own factor governs; folding
        // `slow[self.id]` in covers both.
        let sers: Vec<VDur> = frags
            .iter()
            .map(|&(wire_bytes, _)| {
                assert!(
                    wire_bytes <= self.cfg.packet_size,
                    "packet of {wire_bytes}B exceeds the {}B switch MTU",
                    self.cfg.packet_size
                );
                self.cfg.wire_time(wire_bytes) * self.slow[self.id] as u64
            })
            .collect();
        let injected = self.injection.reserve_batch(first_at, step, &sers);
        let my = &self.ports[self.id].stats;
        for (i, &(wire_bytes, _)) in frags.iter().enumerate() {
            self.tracer.emit(
                self.id,
                injected[i],
                trace::EventKind::Inject,
                "pkt",
                dst as u64,
                wire_bytes,
            );
            my.packets_sent.incr();
            my.bytes_sent.add(wire_bytes as u64);
        }

        let port = &self.ports[dst];
        let loopback = dst == self.id;
        let mut flow = self.flows[dst].lock();
        let mut rng = self.rng.lock();
        let mut out = Vec::with_capacity(frags.len());
        for (i, (wire_bytes, body)) in frags.into_iter().enumerate() {
            let seq = flow.tx_next_seq;
            flow.tx_next_seq += 1;
            let route = rng.next_below(self.cfg.num_routes as u64) as usize;
            let eject = if loopback {
                // Hairpinned, exactly like the per-packet path: no fabric,
                // no skew; the route draw keeps the RNG stream aligned.
                injected[i]
            } else {
                let arrival = injected[i] + self.cfg.fabric_latency;
                port.ejection.reserve(arrival, sers[i]) + self.cfg.route_skew * route as u64
            };
            // Disarmed fabric (or loopback): delivery and acknowledgement
            // are both certain, mirroring the single-round outcome of the
            // per-packet path.
            flow.tx_acked = flow.tx_acked.max(seq + 1);
            flow.rx_next = flow.rx_next.max(seq + 1);
            port.stats.packets_received.incr();
            self.tracer.emit(
                dst,
                eject,
                trace::EventKind::Eject,
                "pkt",
                self.id as u64,
                wire_bytes,
            );
            let accepted = port.rx.push_from(
                self.id,
                eject,
                WirePacket {
                    src: self.id,
                    dst,
                    wire_bytes,
                    route,
                    seq,
                    injected_at: injected[i],
                    body,
                },
            );
            if !accepted {
                // Receiver queue already closed: no Deliver will balance
                // the Inject — write the packet off.
                self.tracer
                    .emit(dst, eject, trace::EventKind::WriteOff, "closed", seq, 1);
            }
            out.push(SendReceipt {
                injected_at: injected[i],
                delivered_at: eject,
            });
        }
        Ok(out)
    }

    /// Send, panicking (with the structured diagnostic) on a delivery
    /// timeout. Protocol layers that can surface errors use
    /// [`Adapter::try_send_at`] instead.
    pub fn send_at(&self, at: VTime, dst: NodeId, wire_bytes: usize, body: M) -> SendReceipt {
        match self.try_send_at(at, dst, wire_bytes, body) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Convenience: send at the node's current virtual time.
    pub fn send_now(&self, dst: NodeId, wire_bytes: usize, body: M) -> SendReceipt {
        self.send_at(self.clock.now(), dst, wire_bytes, body)
    }

    /// Lazily pump the reliability protocol: flush any coalesced-ACK batch
    /// whose `ack_delay` deadline has passed by `now`. Protocol engines
    /// call this from their progress paths (poll/probe/dispatch) so no
    /// timer threads are needed. Free when the protocol is disarmed.
    pub fn pump(&self, now: VTime) {
        if !self.armed {
            return;
        }
        for (dst, slot) in self.flows.iter().enumerate() {
            let mut flow = slot.lock();
            if flow.pending_acks > 0 {
                let deadline = flow.pending_since + self.cfg.ack_delay;
                if deadline <= now {
                    self.charge_ack(dst, &mut flow, deadline);
                }
            }
        }
    }

    /// Flush every pending coalesced ACK regardless of deadline (end of
    /// job: nothing further will piggyback them).
    pub fn flush_acks(&self) {
        if !self.armed {
            return;
        }
        for (dst, slot) in self.flows.iter().enumerate() {
            let mut flow = slot.lock();
            if flow.pending_acks > 0 {
                let deadline = flow.pending_since + self.cfg.ack_delay;
                self.charge_ack(dst, &mut flow, deadline);
            }
        }
    }

    /// One line per active outgoing flow — sequence/ACK state for deadlock
    /// and delivery-timeout diagnostics.
    pub fn flows_report(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (dst, slot) in self.flows.iter().enumerate() {
            let flow = slot.lock();
            if flow.tx_next_seq == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  flow {}→{}: next-seq={} cum-acked={} rx-next={} pending-acks={}",
                self.id, dst, flow.tx_next_seq, flow.tx_acked, flow.rx_next, flow.pending_acks
            );
        }
        if out.is_empty() {
            out.push_str("  (no outgoing flows)\n");
        }
        out
    }

    /// Close this node's receive queue (end of job), flushing any pending
    /// coalesced ACKs first.
    pub fn shutdown(&self) {
        self.flush_acks();
        self.ports[self.id].rx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use spsim::{FaultPlan, VDur};

    fn clean() -> MachineConfig {
        // Calibration tests must not be perturbed by SPSIM_FAULT_PROFILE.
        MachineConfig::default().with_no_faults()
    }

    fn pair() -> Vec<Adapter<u64>> {
        Network::new(2, Arc::new(clean()), 1).into_adapters()
    }

    #[test]
    fn single_packet_latency_decomposes() {
        let mut ads = pair();
        let b = ads.pop().unwrap();
        let a = ads.pop().unwrap();
        let cfg = clean();
        let r = a.send_at(VTime::ZERO, 1, 100, 7);
        assert_eq!(r.injected_at, VTime::ZERO + cfg.wire_time(100));
        // delivered = injected + fabric + ejection serialization (+skew*route)
        let min = r.injected_at + cfg.fabric_latency + cfg.wire_time(100);
        let max = min + cfg.route_skew * (cfg.num_routes as u64 - 1);
        assert!(r.delivered_at >= min && r.delivered_at <= max, "{r:?}");
        let got = b.rx().recv_merge(b.clock()).unwrap();
        assert_eq!(got.item.body, 7);
        assert_eq!(got.item.seq, 0, "first packet of the flow");
        assert_eq!(got.at, r.delivered_at);
        assert_eq!(b.clock().now(), r.delivered_at);
    }

    #[test]
    fn oversized_packet_panics() {
        let ads = pair();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ads[0].send_at(VTime::ZERO, 1, 4096, 0)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn streams_are_wire_limited() {
        let ads = pair();
        let cfg = clean();
        let n = 500usize;
        let mut last = VTime::ZERO;
        for i in 0..n {
            last = ads[0]
                .send_at(VTime::ZERO, 1, cfg.packet_size, i as u64)
                .delivered_at;
        }
        let rate = (last - VTime::ZERO).rate_mb_s((n * cfg.packet_size) as u64);
        assert!((rate - cfg.wire_bw_mb_s).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn sequence_numbers_are_consecutive_per_flow() {
        let ads = Network::new(3, Arc::new(clean()), 9).into_adapters();
        for i in 0..5u64 {
            // spaced beyond the route skew so arrival order = send order
            ads[0].send_at(VTime::from_us(i * 50), 1, 64, i);
        }
        ads[0].send_at(VTime::ZERO, 2, 64, 99);
        for want in 0..5u64 {
            let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
            assert_eq!(got.item.seq, want);
        }
        let other = ads[2].rx().recv_merge(ads[2].clock()).unwrap();
        assert_eq!(other.item.seq, 0, "flows number independently");
    }

    #[test]
    fn routes_cause_reordering() {
        // With route skew, a later-injected packet on a fast route can
        // arrive before an earlier one on a slow route. Verify at least one
        // inversion across many sends.
        let ads = pair();
        let mut inversions = 0;
        let mut prev_arrival = VTime::ZERO;
        for i in 0..200u64 {
            // spread injections so the ejection link never queues
            let t = VTime::from_us(i * 50);
            let r = ads[0].send_at(t, 1, 64, i);
            if r.delivered_at < prev_arrival {
                inversions += 1;
            }
            prev_arrival = r.delivered_at;
        }
        // with 0.4us skew over 4 routes and 50us spacing there are no
        // inversions; tighten spacing to force them
        let mut tight_inversions = 0;
        let mut prev = VTime::ZERO;
        for i in 0..200u64 {
            let r = ads[1].send_at(VTime::from_us(i / 10), 0, 64, i);
            if r.delivered_at < prev {
                tight_inversions += 1;
            }
            prev = r.delivered_at;
        }
        assert_eq!(inversions, 0);
        assert!(tight_inversions > 0, "expected some out-of-order arrivals");
    }

    #[test]
    fn loopback_skips_fabric() {
        let ads = pair();
        let r = ads[0].send_at(VTime::ZERO, 0, 128, 9);
        assert_eq!(r.delivered_at, r.injected_at);
        let got = ads[0].rx().recv_merge(ads[0].clock()).unwrap();
        assert_eq!(got.item.body, 9);
    }

    #[test]
    fn loopback_skips_fault_injection() {
        // Hairpinned packets never cross the fabric: even an absurdly lossy
        // configuration must not drop, duplicate, retransmit or ack them.
        let session = spsim::trace::session();
        let cfg = Arc::new(
            clean()
                .with_drop_prob(0.9)
                .with_dup_prob(0.9)
                .with_max_retransmits(4),
        );
        let ads = Network::new(2, cfg, 3).into_adapters();
        for i in 0..50u64 {
            let r = ads[0].send_at(VTime::from_us(i), 0, 64, i);
            assert_eq!(r.delivered_at, r.injected_at);
        }
        for _ in 0..50 {
            ads[0].rx().recv_merge(ads[0].clock()).unwrap();
        }
        assert!(ads[0].rx().is_empty(), "exactly once");
        assert_eq!(ads[0].stats().retransmits.get(), 0);
        assert_eq!(ads[0].stats().dups_suppressed.get(), 0);
        assert_eq!(ads[0].stats().acks_sent.get(), 0);
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::Drop), 0);
        assert_eq!(t.count(spsim::EventKind::Dup), 0);
        assert_eq!(t.count(spsim::EventKind::Ack), 0);
    }

    #[test]
    fn drops_delay_but_deliver() {
        let cfg = Arc::new(clean().with_drop_prob(0.3));
        let ads = Network::new(2, cfg.clone(), 99).into_adapters();
        let n = 300;
        for i in 0..n {
            ads[0].send_at(VTime::ZERO, 1, 512, i);
        }
        // all packets arrive despite drops
        let mut got = 0;
        while got < n {
            ads[1].rx().recv_merge(ads[1].clock()).unwrap();
            got += 1;
        }
        assert!(ads[1].rx().is_empty(), "exactly-once delivery");
        let retr = ads[0].stats().retransmits.get();
        assert!(retr > 0, "expected retransmissions at 30% drop");
        // A round fails when the data drops (p) or its ack drops (also p by
        // default): r = 1 - (1-p)^2, expected retries ~ n * r / (1 - r).
        let r = 1.0 - (1.0 - 0.3f64) * (1.0 - 0.3);
        let expect = n as f64 * r / (1.0 - r);
        assert!(
            (retr as f64) > expect * 0.5 && (retr as f64) < expect * 2.0,
            "retr {retr} vs expected {expect:.0}"
        );
    }

    #[test]
    fn timestamp_algebra_exact_under_drops() {
        // DESIGN §4 audit: with widely spaced sends the ejection link is
        // always idle, so each packet must decompose exactly as
        //   delivered = injected + fabric + k*(retransmit_timeout + ser)
        //             + ser + route_skew * route
        // with k >= 0 an integer and sum(k) equal to the retransmit stat.
        // ACK loss is pinned to zero so every retry is a pre-delivery data
        // drop (an ack-loss retry happens *after* delivery and would not
        // delay it). The adaptive estimator is pinned off: exact timestamp
        // algebra needs the fixed, jitter-free timeout.
        let c = clean().with_drop_prob(0.25).with_ack_drop_prob(0.0);
        let fixed = c.retransmit_timeout;
        let cfg = Arc::new(c.with_fixed_rto(fixed));
        let ads = Network::new(2, cfg.clone(), 1234).into_adapters();
        let ser = cfg.wire_time(512);
        let penalty = (cfg.retransmit_timeout + ser).as_ns();
        let mut total_retries = 0u64;
        for i in 0..200u64 {
            // 10ms spacing dwarfs any retransmit penalty: no queueing.
            let at = VTime::from_us(i * 10_000);
            let r = ads[0].send_at(at, 1, 512, i);
            assert_eq!(r.injected_at, at + ser, "injection link must be idle");
            let pkt = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
            assert_eq!(pkt.at, r.delivered_at);
            let base =
                r.injected_at + cfg.fabric_latency + ser + cfg.route_skew * pkt.item.route as u64;
            let slack = (r.delivered_at - base).as_ns();
            assert_eq!(
                slack % penalty,
                0,
                "pkt {i}: residual {slack}ns is not a whole number of retransmit penalties"
            );
            total_retries += slack / penalty;
        }
        assert_eq!(total_retries, ads[0].stats().retransmits.get());
        assert!(total_retries > 0, "25% drop over 200 packets must retry");
    }

    #[test]
    fn routes_still_reorder_under_drops() {
        // The reordering property must survive loss: retransmit penalties
        // only widen arrival spread, they never serialize routes.
        let cfg = Arc::new(clean().with_drop_prob(0.2));
        let ads = Network::new(2, cfg, 77).into_adapters();
        let n = 300u64;
        let mut arrivals = Vec::new();
        for i in 0..n {
            let r = ads[0].send_at(VTime::from_us(i / 10), 1, 64, i);
            arrivals.push(r.delivered_at);
        }
        let inversions = arrivals.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(inversions > 0, "expected out-of-order arrivals under loss");
        // and every packet still arrives exactly once
        for _ in 0..n {
            ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        }
        assert!(ads[1].rx().is_empty());
    }

    #[test]
    fn really_dropped_packet_is_recovered_by_retransmission() {
        // The acceptance-criteria witness: a packet whose *first* copy never
        // reached the destination (trace shows its drop strictly before any
        // eject) still arrives, exactly once, via retransmission.
        let mut proved = false;
        for seed in 0..20 {
            let session = spsim::trace::session();
            let cfg = Arc::new(clean().with_drop_prob(0.5).with_ack_drop_prob(0.0));
            let ads = Network::new(2, cfg, seed).into_adapters();
            let r = ads[0].send_at(VTime::ZERO, 1, 256, 42u64);
            let t = session.finish();
            let first_drop = t
                .events
                .iter()
                .find(|e| e.kind == spsim::EventKind::Drop)
                .map(|e| e.vtime);
            let eject = t
                .events
                .iter()
                .find(|e| e.kind == spsim::EventKind::Eject)
                .map(|e| e.vtime)
                .expect("packet must eventually eject");
            if let Some(d) = first_drop {
                if d < eject {
                    // First transmission really was lost in the fabric…
                    assert!(ads[0].stats().retransmits.get() > 0);
                    // …and recovery delivered exactly one copy.
                    let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
                    assert_eq!(got.item.body, 42);
                    assert_eq!(got.at, r.delivered_at);
                    assert!(ads[1].rx().is_empty(), "exactly once");
                    proved = true;
                    break;
                }
            }
        }
        assert!(proved, "no seed in 0..20 dropped the first copy at p=0.5?");
    }

    #[test]
    fn fabric_duplicates_are_suppressed_exactly_once() {
        let session = spsim::trace::session();
        let cfg = Arc::new(clean().with_dup_prob(1.0));
        let ads = Network::new(2, cfg, 11).into_adapters();
        let n = 40u64;
        for i in 0..n {
            ads[0].send_at(VTime::from_us(i * 100), 1, 128, i);
        }
        for _ in 0..n {
            ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        }
        assert!(ads[1].rx().is_empty(), "every duplicate was suppressed");
        assert_eq!(ads[1].stats().dups_suppressed.get(), n);
        assert_eq!(ads[0].stats().retransmits.get(), 0, "dup is not loss");
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::Eject), n as usize);
        assert_eq!(t.count(spsim::EventKind::Dup), n as usize);
    }

    #[test]
    fn lost_acks_cause_suppressed_spurious_retransmissions() {
        // Data path clean, ACK path lossy: the sender must retransmit
        // (it cannot see the delivery) and the receiver must dedup every
        // spurious copy.
        let cfg = Arc::new(clean().with_ack_drop_prob(0.5));
        let ads = Network::new(2, cfg, 21).into_adapters();
        let n = 200u64;
        for i in 0..n {
            ads[0].send_at(VTime::from_us(i * 1000), 1, 128, i);
        }
        for _ in 0..n {
            ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        }
        assert!(ads[1].rx().is_empty(), "exactly once despite ack loss");
        let retr = ads[0].stats().retransmits.get();
        assert!(retr > 0, "50% ack loss must force retransmissions");
        assert_eq!(
            ads[1].stats().dups_suppressed.get(),
            retr,
            "every ack-loss retransmission delivers a duplicate to suppress"
        );
    }

    #[test]
    fn acks_are_coalesced_and_charged_to_the_wire() {
        let session = spsim::trace::session();
        let cfg = Arc::new(clean().with_drop_prob(0.05));
        let ack_every = cfg.ack_every as u64;
        let ads = Network::new(2, cfg, 31).into_adapters();
        let n = 160u64;
        for i in 0..n {
            ads[0].send_at(VTime::from_us(i * 10), 1, 128, i);
        }
        ads[1].shutdown();
        ads[0].shutdown(); // flushes the final partial batch
        let acks = ads[1].stats().acks_sent.get();
        assert!(acks > 0, "a lossy run must ack");
        // Each retransmission stall can flush one partial batch at the
        // deadline, so the coalescing bound is full batches + stalls.
        let stalls = ads[0].stats().retransmits.get();
        assert!(
            acks <= n / ack_every + stalls + 2,
            "coalescing: {acks} wire acks for {n} packets (every {ack_every}, {stalls} stalls)"
        );
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::Ack) as u64, acks);
        // Ack events live on the receiver's timeline.
        assert!(t
            .events
            .iter()
            .filter(|e| e.kind == spsim::EventKind::Ack)
            .all(|e| e.node == 1));
    }

    #[test]
    fn dead_link_surfaces_structured_delivery_timeout() {
        let cfg = Arc::new(
            clean()
                .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
                .with_max_retransmits(8),
        );
        let ads = Network::new(3, cfg.clone(), 7).into_adapters();
        // An unaffected flow still works…
        let ok = ads[2].try_send_at(VTime::ZERO, 1, 64, 1u64);
        assert!(ok.is_ok(), "only 0→1 is dead");
        // …the reverse flow 1→0 delivers its data but cannot hear its ACKs
        // (they ride the dead 0→1 link), so the sender still times out —
        // the classic false-negative a dead reverse path forces…
        let rev = ads[1]
            .try_send_at(VTime::ZERO, 0, 64, 3u64)
            .expect_err("acks for 1→0 ride the dead 0→1 link");
        assert!(rev.delivered, "data arrived; only the acks died");
        // …while the dead flow itself times out with full diagnostics.
        let err = ads[0]
            .try_send_at(VTime::ZERO, 1, 64, 2u64)
            .expect_err("link 0→1 is dead");
        assert_eq!((err.src, err.dst), (0, 1));
        assert_eq!(err.seq, 0);
        assert_eq!(err.retries, cfg.max_retransmits);
        assert!(!err.delivered, "black-holed: nothing ever arrived");
        assert!(err.report.contains("flow 0→1"), "report: {}", err.report);
        assert!(err.last_attempt > err.first_attempt);
        assert_eq!(ads[0].stats().timeouts.get(), 1);
        // Node 1's queue saw only the healthy 2→1 packet, never the
        // black-holed one.
        let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        assert_eq!(got.item.src, 2);
        assert!(ads[1].rx().is_empty());
    }

    #[test]
    fn black_hole_window_delays_then_recovers() {
        // Link 0→1 black-holes [5ms, 8ms): a packet sent mid-window must
        // survive via retransmissions that land after the window closes.
        let cfg = Arc::new(clean().with_faults(FaultPlan::new().with_black_hole(
            0,
            1,
            VTime::from_us(5_000),
            VTime::from_us(8_000),
        )));
        let ads = Network::new(2, cfg, 5).into_adapters();
        let before = ads[0].send_at(VTime::from_us(1_000), 1, 64, 1u64);
        assert!(
            before.delivered_at < VTime::from_us(5_000),
            "pre-window send unaffected: {before:?}"
        );
        let during = ads[0].send_at(VTime::from_us(5_500), 1, 64, 2u64);
        assert!(
            during.delivered_at >= VTime::from_us(8_000),
            "mid-window send must wait out the outage: {during:?}"
        );
        assert!(ads[0].stats().retransmits.get() > 0);
        for _ in 0..2 {
            ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        }
        assert!(ads[1].rx().is_empty(), "exactly once around the outage");
    }

    #[test]
    fn send_emits_wire_trace_events() {
        let session = spsim::trace::session();
        let cfg = Arc::new(clean().with_drop_prob(0.3));
        let ads = Network::new(2, cfg, 5).into_adapters();
        for i in 0..50u64 {
            ads[0].send_at(VTime::ZERO, 1, 256, i);
        }
        let sink = session.sink();
        assert_eq!(sink.injected(), 50);
        assert_eq!(sink.in_flight(), 50, "nothing consumed the packets yet");
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::Inject), 50);
        assert_eq!(t.count(spsim::EventKind::Eject), 50);
        assert_eq!(
            t.count(spsim::EventKind::Drop),
            t.count(spsim::EventKind::Retransmit),
            "every drop (data or ack) charges exactly one retransmit"
        );
        assert!(t.count(spsim::EventKind::Drop) > 0, "30% drop must show up");
    }

    #[test]
    fn lossless_pays_nothing_for_the_protocol() {
        // Pay-for-what-you-use: with a clean config no ack/dup/retransmit
        // machinery may appear — neither in the trace nor in the stats.
        let session = spsim::trace::session();
        let ads = pair();
        for i in 0..50u64 {
            ads[0].send_at(VTime::from_us(i), 1, 256, i);
        }
        ads[0].pump(VTime::from_us(10_000)); // must be free too
        ads[0].shutdown();
        assert_eq!(ads[1].stats().acks_sent.get(), 0);
        assert_eq!(ads[0].stats().retransmits.get(), 0);
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::Ack), 0);
        assert_eq!(t.count(spsim::EventKind::Dup), 0);
        assert_eq!(t.count(spsim::EventKind::Drop), 0);
    }

    #[test]
    fn stats_count_traffic() {
        let ads = pair();
        ads[0].send_at(VTime::ZERO, 1, 200, 1);
        ads[0].send_at(VTime::ZERO, 1, 300, 2);
        assert_eq!(ads[0].stats().packets_sent.get(), 2);
        assert_eq!(ads[0].stats().bytes_sent.get(), 500);
        assert_eq!(ads[1].stats().packets_received.get(), 2);
    }

    #[test]
    fn shutdown_closes_rx() {
        let ads = pair();
        ads[1].shutdown();
        assert!(ads[1].rx().try_recv().is_err());
    }

    #[test]
    fn send_now_uses_clock() {
        let ads = pair();
        ads[0].clock().advance(VDur::from_us(25));
        let r = ads[0].send_now(1, 64, 0);
        assert!(r.injected_at >= VTime::from_us(25));
    }

    #[test]
    fn batched_send_matches_sequential_sends_exactly() {
        // Two identical clean networks, same seed: one injects a mixed-size
        // fragment train through one `try_send_batch_at`, the other
        // fragment-at-a-time. Receipts and the receiver-side stamped stream
        // must be bit-identical — batching is a locking optimisation, not a
        // timing change.
        let cfg = Arc::new(clean());
        let step = VDur::from_ns(1500);
        let sizes = [1024usize, 1024, 1024, 512, 64, 16];
        let a = Network::new(2, Arc::clone(&cfg), 77).into_adapters();
        let b = Network::new(2, cfg, 77).into_adapters();
        let frags: Vec<(usize, u64)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u64))
            .collect();
        let batch = a[0].try_send_batch_at(VTime::ZERO, step, 1, frags).unwrap();
        let mut seq = Vec::new();
        let mut at = VTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            if i > 0 {
                at += step;
            }
            seq.push(b[0].try_send_at(at, 1, s, i as u64).unwrap());
        }
        assert_eq!(batch.len(), seq.len());
        for (x, y) in batch.iter().zip(&seq) {
            assert_eq!(x.injected_at, y.injected_at);
            assert_eq!(x.delivered_at, y.delivered_at);
        }
        for _ in 0..sizes.len() {
            let ga = a[1].rx().recv_merge(a[1].clock()).unwrap();
            let gb = b[1].rx().recv_merge(b[1].clock()).unwrap();
            assert_eq!(ga.at, gb.at);
            assert_eq!(ga.item.body, gb.item.body);
            assert_eq!(ga.item.seq, gb.item.seq);
            assert_eq!(ga.item.route, gb.item.route);
        }
    }

    #[test]
    fn batched_send_under_faults_still_delivers_exactly_once() {
        // With the reliability protocol armed the batch entry point falls
        // back to per-packet injection (retransmit re-reservations must
        // interleave with initial reservations); semantics are unchanged.
        let cfg = Arc::new(clean().with_drop_prob(0.3).with_dup_prob(0.3));
        let ads = Network::new(2, cfg, 5).into_adapters();
        let n = 30u64;
        let frags: Vec<(usize, u64)> = (0..n).map(|i| (256usize, i)).collect();
        ads[0]
            .try_send_batch_at(VTime::ZERO, VDur::from_us(200), 1, frags)
            .unwrap();
        for want in 0..n {
            let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
            assert_eq!(got.item.seq, want);
            assert_eq!(got.item.body, want);
        }
        assert!(ads[1].rx().is_empty(), "exactly once");
    }

    #[test]
    fn adaptive_rto_backs_off_exponentially_and_caps() {
        // Dead link, adaptive RTO (the default): retransmission gaps must
        // grow round over round (exponential backoff) until the rto_max
        // cap, and never exceed cap + cap/8 jitter + serialization.
        let session = spsim::trace::session();
        let cfg = Arc::new(
            clean()
                .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
                .with_max_retransmits(10),
        );
        let ads = Network::new(2, Arc::clone(&cfg), 42).into_adapters();
        let err = ads[0]
            .try_send_at(VTime::ZERO, 1, 64, 1u64)
            .expect_err("link is dead");
        assert!(!err.fast_failed, "first detection pays the full budget");
        let t = session.finish();
        let times: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.kind == spsim::EventKind::Retransmit)
            .map(|e| e.vtime.as_ns())
            .collect();
        assert_eq!(times.len(), 10);
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let ser = cfg.wire_time(64).as_ns();
        let cap = cfg.rto_max.as_ns();
        // Uncapped prefix grows strictly: doubling dominates the ≤RTO/8
        // jitter. Every gap respects the cap (+ jitter + serialization).
        for w in gaps.windows(2) {
            if w[1] < cap {
                assert!(w[1] > w[0], "backoff must grow: {gaps:?}");
            }
        }
        assert!(
            gaps.iter().all(|&g| g <= cap + cap / 8 + ser),
            "gap exceeds rto_max + jitter: {gaps:?}"
        );
        assert!(
            *gaps.last().unwrap() >= cap,
            "ten doublings from rto_min must reach the cap: {gaps:?}"
        );
    }

    #[test]
    fn rtt_samples_shrink_the_rto_below_the_initial_timeout() {
        // Warm a flow on a fast, lightly lossy fabric, then black-hole it:
        // the first retransmission gap must reflect the *measured* RTT
        // (≪ the initial retransmit_timeout), not the fixed constant.
        let session = spsim::trace::session();
        let cfg = Arc::new(clean().with_drop_prob(0.01).with_faults(
            FaultPlan::new().with_black_hole(0, 1, VTime::from_us(900_000), VTime::MAX),
        ));
        let ads = Network::new(2, Arc::clone(&cfg), 7).into_adapters();
        for i in 0..100u64 {
            // widely spaced: every send completes its exchange
            ads[0]
                .try_send_at(VTime::from_us(i * 1000), 1, 256, i)
                .unwrap();
        }
        let err = ads[0]
            .try_send_at(VTime::from_us(950_000), 1, 256, 999u64)
            .expect_err("link is black-holed forever");
        assert!(!err.fast_failed);
        let t = session.finish();
        let mut retrans: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.kind == spsim::EventKind::Retransmit)
            .map(|e| e.vtime.as_ns())
            .collect();
        retrans.retain(|&ns| ns >= VTime::from_us(950_000).as_ns());
        // First gap = injected→first retransmit ≈ clamp(srtt+4·rttvar,
        // rto_min, ..) + jitter. The measured RTT is a few µs, so the gap
        // must sit near rto_min — far below the initial timeout.
        let first_gap = retrans[0] - err.first_attempt.as_ns();
        assert!(
            first_gap < cfg.retransmit_timeout.as_ns(),
            "measured RTO {}ns should undercut the initial timeout {}ns",
            first_gap,
            cfg.retransmit_timeout.as_ns()
        );
        assert!(
            first_gap >= cfg.rto_min.as_ns(),
            "RTO must respect rto_min: {first_gap}ns"
        );
    }

    #[test]
    fn second_send_to_a_dead_peer_fast_fails_at_zero_cost() {
        // The fast-fail ledger: detection pays the full retransmission
        // budget once; every later send to the latched peer costs zero
        // virtual time and leaves zero wire footprint.
        let session = spsim::trace::session();
        let cfg = Arc::new(
            clean()
                .with_faults(FaultPlan::new().with_link_dead(0, 1, VTime::ZERO))
                .with_max_retransmits(6),
        );
        let ads = Network::new(2, Arc::clone(&cfg), 3).into_adapters();
        let e1 = ads[0]
            .try_send_at(VTime::ZERO, 1, 64, 1u64)
            .expect_err("detection send");
        assert!(!e1.fast_failed);
        assert_eq!(e1.retries, 6);
        assert!(ads[0].peer_health().is_dead(1));
        let vt1 = (e1.last_attempt - e1.first_attempt).as_ns();
        assert!(vt1 > 0);

        let e2 = ads[0]
            .try_send_at(e1.last_attempt, 1, 64, 2u64)
            .expect_err("latched peer");
        assert!(e2.fast_failed);
        assert_eq!(e2.retries, 0);
        let vt2 = (e2.last_attempt - e2.first_attempt).as_ns();
        assert!(
            vt2 * 10 <= vt1,
            "fast fail must be ≥10× cheaper: first {vt1}ns, second {vt2}ns"
        );
        assert_eq!(ads[0].stats().timeouts.get(), 1, "one real detection");
        assert_eq!(ads[0].stats().fast_fails.get(), 1);
        assert_eq!(ads[0].peer_health().dead_peers(), vec![1]);
        // No wire footprint for the refused send, and the write-off keeps
        // the quiescence ledger balanced for the detection send.
        let sink = session.sink();
        assert_eq!(sink.injected(), 1, "fast fail never injects");
        sink.assert_quiescent();
        let t = session.finish();
        assert_eq!(t.count(spsim::EventKind::WriteOff), 1);
    }

    #[test]
    fn crashed_destination_black_holes_and_writes_off() {
        // A node crash composes with the reliability protocol exactly like
        // a dead link: sends to the crashed node from *any* peer time out,
        // are written off, and latch the peer dead per-adapter.
        let cfg = Arc::new(
            clean()
                .with_faults(FaultPlan::new().with_crash(2, VTime::from_us(10)))
                .with_max_retransmits(4),
        );
        let ads = Network::new(3, Arc::clone(&cfg), 9).into_adapters();
        // Before the crash instant the node is reachable.
        let ok = ads[0].try_send_at(VTime::ZERO, 2, 64, 1u64);
        assert!(ok.is_ok(), "node 2 is alive until 10µs: {ok:?}");
        // After it, every flow touching node 2 is black-holed.
        let e = ads[1]
            .try_send_at(VTime::from_us(20), 2, 64, 2u64)
            .expect_err("node 2 crashed");
        assert!(!e.delivered);
        assert!(ads[1].peer_health().is_dead(2));
        // The crashed node's own sends die too (crash-stop: no injection).
        let own = ads[2]
            .try_send_at(VTime::from_us(20), 0, 64, 3u64)
            .expect_err("crashed node cannot inject");
        assert_eq!((own.src, own.dst), (2, 0));
    }

    #[test]
    fn slow_factor_multiplies_serialization_times() {
        // slow(1, 4): node 1's injection and ejection serialize 4× slower;
        // node 0's timings are untouched.
        let cfg = Arc::new(clean().with_faults(FaultPlan::new().with_slow(1, 4)));
        let ads = Network::new(2, Arc::clone(&cfg), 5).into_adapters();
        let ser = cfg.wire_time(512);
        // 0→1: sender fast, receiver slow — ejection serialization is 4×.
        let r = ads[0].try_send_at(VTime::ZERO, 1, 512, 1u64).unwrap();
        assert_eq!(r.injected_at, VTime::ZERO + ser, "node 0 injects at 1×");
        let min = r.injected_at + cfg.fabric_latency + ser * 4;
        assert!(
            r.delivered_at >= min,
            "node 1 must eject at 4×: {r:?} vs min {min:?}"
        );
        // 1→0: sender slow — injection serialization is 4×.
        let r2 = ads[1].try_send_at(VTime::ZERO, 0, 512, 2u64).unwrap();
        assert_eq!(
            r2.injected_at,
            VTime::ZERO + ser * 4,
            "node 1 injects at 4×"
        );
    }

    #[test]
    fn stalled_window_delays_then_recovers_like_a_black_hole() {
        // stall(1, 5ms, 8ms): node 1 makes no protocol progress in the
        // window; a mid-window send survives via retransmissions landing
        // after recovery, exactly once.
        let cfg = Arc::new(clean().with_faults(FaultPlan::new().with_stall(
            1,
            VTime::from_us(5_000),
            VTime::from_us(8_000),
        )));
        let ads = Network::new(2, cfg, 5).into_adapters();
        let during = ads[0].send_at(VTime::from_us(5_500), 1, 64, 2u64);
        assert!(
            during.delivered_at >= VTime::from_us(8_000),
            "mid-stall send must wait out the window: {during:?}"
        );
        let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
        assert_eq!(got.item.body, 2);
        assert!(ads[1].rx().is_empty(), "exactly once around the stall");
    }

    #[test]
    fn retransmit_and_dup_clones_share_the_body_allocation() {
        // The dup/retransmit paths clone the body; with a shared-ownership
        // body type every such clone must be a reference-count bump into
        // the sender's original allocation, not a fresh buffer. This is
        // the adapter-level contract behind the protocol layers' `Bytes`
        // payloads.
        let cfg = Arc::new(clean().with_ack_drop_prob(0.5).with_dup_prob(0.5));
        let ads = Network::new(2, cfg, 21).into_adapters();
        let body: Arc<[u8]> = vec![7u8; 64].into();
        let n = 50u64;
        for i in 0..n {
            ads[0].send_at(VTime::from_us(i * 1000), 1, 128, Arc::clone(&body));
        }
        let mut delivered = 0u64;
        for _ in 0..n {
            let got = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
            assert!(
                Arc::ptr_eq(&got.item.body, &body),
                "delivered body must share the sender's allocation"
            );
            delivered += 1;
        }
        assert_eq!(delivered, n);
        assert!(
            ads[0].stats().retransmits.get() > 0,
            "50% ack loss must force retransmissions for this ledger to mean anything"
        );
    }
}
