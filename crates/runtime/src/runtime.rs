//! The engine-facing runtime: timers + messages in one time-ordered stream.

use crate::clock::{Clock, WallClock};
use crate::transport::{Batch, Envelope, Judgement, SendOutcome, ThreadedTransport, Transport};
use crate::wake::Waker;
use o2pc_common::{SimTime, SiteId};
use o2pc_sim::{EventQueue, Network};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration as StdDuration;

/// One unit of work handed to the engine: a timer it scheduled earlier, or a
/// message the substrate delivered.
#[derive(Clone, Debug)]
pub enum Step<T, M> {
    /// A timer scheduled via [`Runtime::schedule`] has fired.
    Timer(T),
    /// A message has arrived at site `to`.
    Deliver {
        /// Destination site.
        to: SiteId,
        /// The message.
        msg: M,
    },
    /// Work the engine waits on finished off its thread: a holder of the
    /// runtime's [`Waker`] released it.
    Wake,
}

/// What the engine needs from a substrate: a clock, timers, a message
/// transport, and a single stream of [`Step`]s in time order.
///
/// `T` is the engine's timer payload, `M` its message type. The engine never
/// sees queues, channels, or threads — it schedules, sends, and pulls the
/// next step until `next` returns `None` (past `deadline`, or quiescent).
pub trait Runtime<T, M>: Clock {
    /// Called once per site while the engine is constructed; transports that
    /// need explicit endpoints register a mailbox here.
    fn register_endpoint(&mut self, _id: SiteId) {}

    /// Arrange for `timer` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, timer: T);

    /// Send `msg` from `from` to `to`; `now` is the sender's current time.
    /// The [`SendOutcome`] says how the substrate treated the message at
    /// send time: accepted, dropped by the link's loss policy, or refused
    /// because the destination is unreachable.
    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome;

    /// Pull the next step at or before `deadline`. `None` means the run is
    /// over: the next step (if any) lies beyond the deadline, or the
    /// substrate has quiesced with nothing in flight.
    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)>;

    /// Messages lost in transit so far.
    fn messages_dropped(&self) -> u64;

    /// A handle through which off-thread work wakes the engine (see
    /// [`Waker`]); `None` when the substrate has no wake path. Both shipped
    /// runtimes create theirs on first call, so a run that never asks pays
    /// nothing for it.
    fn waker(&mut self) -> Option<Waker> {
        None
    }
}

// ---------------------------------------------------------------------------
// Deterministic simulator backend
// ---------------------------------------------------------------------------

/// The deterministic discrete-event backend.
///
/// Timers and deliveries share **one** [`EventQueue`] — one sequence counter
/// totally orders simultaneous entries, so a seeded run replays bit-for-bit.
/// Splitting them into separate queues (one per trait) would look cleaner
/// and silently break that guarantee, which is why the sim implements
/// [`Runtime`] as a fused whole rather than composing a sim-`Clock` with a
/// sim-`Transport`.
#[derive(Debug)]
pub struct SimRuntime<T, M> {
    queue: EventQueue<Step<T, M>>,
    network: Network,
    /// Deliveries popped so far (network + same-site + duplicates).
    delivered: u64,
    /// Deliveries scheduled but not yet popped.
    in_flight_msgs: u64,
    /// Same-site sends (bypass the network, so its counters miss them).
    local_sends: u64,
    /// Created by the first [`Runtime::waker`] call.
    waker: Option<Waker>,
}

impl<T, M> SimRuntime<T, M> {
    /// Build on a configured [`Network`] (latency models, loss, failures).
    pub fn new(network: Network) -> Self {
        SimRuntime {
            queue: EventQueue::new(),
            network,
            delivered: 0,
            in_flight_msgs: 0,
            local_sends: 0,
            waker: None,
        }
    }

    /// The simulated network (link state, send/drop counts).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Pending steps (timers + in-flight messages).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Deliveries handed to the engine so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages scheduled for delivery but not yet delivered. Together with
    /// the network counters this closes the conservation equation:
    /// `sent + local_sends + duplicated = delivered + dropped + in_flight`.
    pub fn in_flight_messages(&self) -> u64 {
        self.in_flight_msgs
    }

    /// Same-site sends (never counted by the network).
    pub fn local_send_count(&self) -> u64 {
        self.local_sends
    }
}

impl<T, M> Clock for SimRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.queue.now()
    }
}

impl<T, M: Clone> Runtime<T, M> for SimRuntime<T, M> {
    fn schedule(&mut self, at: SimTime, timer: T) {
        self.queue.schedule(at, Step::Timer(timer));
    }

    fn send(&mut self, now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        if from == to {
            // Same-site messages skip the network (no latency, no loss).
            self.local_sends += 1;
            self.in_flight_msgs += 1;
            self.queue.schedule(now, Step::Deliver { to, msg });
            return SendOutcome::Sent;
        }
        match self.network.transmit(from, to, now) {
            Some(delay) => {
                // Chaos duplication: the same message may arrive twice, with
                // independently sampled latencies (so it can also reorder).
                if let Some(dup_delay) = self.network.maybe_duplicate(from, to, now) {
                    self.in_flight_msgs += 1;
                    self.queue.schedule(
                        now + dup_delay,
                        Step::Deliver {
                            to,
                            msg: msg.clone(),
                        },
                    );
                }
                self.in_flight_msgs += 1;
                self.queue.schedule(now + delay, Step::Deliver { to, msg });
                SendOutcome::Sent
            }
            // Link down or random drop — the simulated network has no
            // notion of an unknown destination, so every loss is policy
            // (and the network's own dropped counter records it).
            None => SendOutcome::DroppedByPolicy,
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        if let Some(w) = &self.waker {
            // Outstanding work finishes at the current instant: the clock
            // does not move past it, so off-thread latency never shows in
            // virtual time.
            let now = self.queue.now();
            if w.take() {
                return Some((now, Step::Wake));
            }
            if w.busy() && self.queue.peek_time().is_none_or(|t| t > now) {
                w.wait_idle();
                w.take();
                return Some((now, Step::Wake));
            }
        }
        let t = self.queue.peek_time()?;
        if t > deadline {
            return None; // left in the queue: a later run() call may resume
        }
        let popped = self.queue.pop();
        if let Some((_, Step::Deliver { .. })) = &popped {
            self.in_flight_msgs -= 1;
            self.delivered += 1;
        }
        popped
    }

    fn messages_dropped(&self) -> u64 {
        self.network.dropped_count()
    }

    fn waker(&mut self) -> Option<Waker> {
        Some(self.waker.get_or_insert_with(|| Waker::new(None)).clone())
    }
}

// ---------------------------------------------------------------------------
// Threaded wall-clock backend
// ---------------------------------------------------------------------------

/// Tuning knobs for [`ThreadedRuntime`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedRuntimeConfig {
    /// How long `next` waits with no due timer and nothing in flight before
    /// declaring the run quiescent. Pure slack for OS scheduling jitter —
    /// in-flight messages are tracked exactly, so this does not need to
    /// cover transport latency.
    pub idle_grace: StdDuration,
}

impl Default for ThreadedRuntimeConfig {
    fn default() -> Self {
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(50),
        }
    }
}

/// Timer heap entry: due time + insertion sequence (FIFO among equal times,
/// mirroring the simulator's queue discipline).
struct TimerEntry<T> {
    at: SimTime,
    seq: u64,
    timer: T,
}

impl<T> PartialEq for TimerEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for TimerEntry<T> {}
impl<T> PartialOrd for TimerEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TimerEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap on (at, seq).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Wall-clock execution over a [`ThreadedTransport`].
///
/// Timers fire on real elapsed time (via [`WallClock`]); messages travel
/// through the transport's per-site delivery workers with real latency. All
/// registered endpoints funnel into one batch inbox, so a single engine
/// loop drives every site while delivery timing stays genuinely concurrent.
/// Outcomes are schedule-dependent — the wall-clock twin of a simulated run
/// checks invariants, not byte equality.
///
/// Sends are **coalesced**: `send` judges the message immediately (route
/// lookup, loss/duplication sampling — so the caller gets an honest
/// [`SendOutcome`]) but buffers accepted envelopes in a per-destination
/// outbox; the next call into `next` flushes each destination's burst as a
/// single transport handoff. A coordinator answering a VOTE-REQ fan-in
/// therefore pays one channel operation per peer site, not one per message.
///
/// Quiescence: `next` returns `None` once the deadline passes, or when no
/// timer is pending, the transport reports nothing in flight, no [`Waker`]
/// unit is held, and no message arrives within `idle_grace`. A waker
/// release interrupts a blocked `next` by posting an empty batch to the
/// inbox.
pub struct ThreadedRuntime<T, M> {
    clock: WallClock,
    transport: ThreadedTransport<M>,
    inbox_tx: Sender<Batch<M>>,
    inbox: Receiver<Batch<M>>,
    /// Delivered batches not yet handed to the engine, in arrival order.
    staged: VecDeque<Envelope<M>>,
    /// Judged-but-unflushed sends, grouped by destination. The insertion
    /// order within one destination is send order (per-link FIFO); flush
    /// order across destinations is round-ordered by first use.
    outbox: HashMap<SiteId, Vec<(StdDuration, Envelope<M>)>>,
    /// Destinations in first-send order so flushing is deterministic per
    /// round and every occupied outbox slot is visited.
    outbox_order: Vec<SiteId>,
    timers: BinaryHeap<TimerEntry<T>>,
    seq: u64,
    cfg: ThreadedRuntimeConfig,
    /// Created by the first [`Runtime::waker`] call.
    waker: Option<Waker>,
}

impl<T, M: Clone + Send + 'static> Default for ThreadedRuntime<T, M> {
    fn default() -> Self {
        Self::new(
            ThreadedTransport::default(),
            ThreadedRuntimeConfig::default(),
        )
    }
}

impl<T, M: Clone + Send + 'static> ThreadedRuntime<T, M> {
    /// Build on a transport; the clock's epoch (time zero) is *now*.
    pub fn new(transport: ThreadedTransport<M>, cfg: ThreadedRuntimeConfig) -> Self {
        let (inbox_tx, inbox) = channel();
        ThreadedRuntime {
            clock: WallClock::new(),
            transport,
            inbox_tx,
            inbox,
            staged: VecDeque::new(),
            outbox: HashMap::new(),
            outbox_order: Vec::new(),
            timers: BinaryHeap::new(),
            seq: 0,
            cfg,
            waker: None,
        }
    }

    /// The underlying transport (link policies, traffic counters).
    pub fn transport(&self) -> &ThreadedTransport<M> {
        &self.transport
    }

    /// Due time of the earliest pending timer.
    fn next_timer_due(&self) -> Option<SimTime> {
        self.timers.peek().map(|e| e.at)
    }

    /// Hand every buffered burst to the transport — one `deliver_many` per
    /// destination with traffic.
    fn flush_outbox(&mut self) {
        if self.outbox_order.is_empty() {
            return;
        }
        for to in self.outbox_order.drain(..) {
            if let Some(envs) = self.outbox.remove(&to) {
                self.transport.deliver_many(to, envs);
            }
        }
    }

    /// Pop the next staged envelope, pulling any already-delivered batches
    /// off the channel first (without blocking).
    fn pop_staged(&mut self) -> Option<Envelope<M>> {
        if let Some(env) = self.staged.pop_front() {
            return Some(env);
        }
        while let Ok(batch) = self.inbox.try_recv() {
            self.staged.extend(batch);
            if let Some(env) = self.staged.pop_front() {
                return Some(env);
            }
        }
        None
    }
}

impl<T, M: Clone + Send + 'static> Clock for ThreadedRuntime<T, M> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

impl<T, M: Clone + Send + 'static> Runtime<T, M> for ThreadedRuntime<T, M> {
    fn register_endpoint(&mut self, id: SiteId) {
        self.transport.attach(id, self.inbox_tx.clone());
    }

    fn schedule(&mut self, at: SimTime, timer: T) {
        let seq = self.seq;
        self.seq += 1;
        self.timers.push(TimerEntry { at, seq, timer });
    }

    fn send(&mut self, _now: SimTime, from: SiteId, to: SiteId, msg: M) -> SendOutcome {
        // Unlike the simulator, same-site messages take the transport path
        // too: a zero-latency link gives the same effect. The message is
        // judged now (honest outcome, counters updated) but the accepted
        // envelope rides the outbox until the next `next()` call, so a
        // burst to one destination is one transport handoff.
        match self.transport.judge(from, to) {
            Judgement::NoRoute => SendOutcome::NoRoute,
            Judgement::DropPolicy => SendOutcome::DroppedByPolicy,
            Judgement::Deliver { latency, duplicate } => {
                let bucket = self.outbox.entry(to).or_insert_with(|| {
                    self.outbox_order.push(to);
                    Vec::new()
                });
                if duplicate {
                    bucket.push((
                        latency,
                        Envelope {
                            from,
                            to,
                            msg: msg.clone(),
                        },
                    ));
                }
                bucket.push((latency, Envelope { from, to, msg }));
                SendOutcome::Sent
            }
        }
    }

    fn next(&mut self, deadline: SimTime) -> Option<(SimTime, Step<T, M>)> {
        // Everything the engine sent while handling the previous step goes
        // out now, one batched handoff per destination.
        self.flush_outbox();
        loop {
            let now = self.clock.now();
            if now > deadline {
                return None;
            }
            if self.waker.as_ref().is_some_and(Waker::take) {
                return Some((now, Step::Wake));
            }
            // Fire a due timer before waiting on the inbox.
            if self.next_timer_due().is_some_and(|due| due <= now) {
                let e = self.timers.pop().expect("peeked");
                return Some((now, Step::Timer(e.timer)));
            }
            // Drain already-arrived traffic before parking: under load the
            // staging queue is usually non-empty, so the engine loop spins
            // without a single syscall.
            if let Some(env) = self.pop_staged() {
                return Some((
                    now,
                    Step::Deliver {
                        to: env.to,
                        msg: env.msg,
                    },
                ));
            }
            let until_deadline = self.clock.until(deadline);
            let wait = match self.next_timer_due() {
                Some(due) => self.clock.until(due).min(until_deadline),
                None => self.cfg.idle_grace.min(until_deadline),
            };
            match self.inbox.recv_timeout(wait) {
                Ok(batch) => {
                    self.staged.extend(batch);
                    if let Some(env) = self.staged.pop_front() {
                        return Some((
                            self.clock.now(),
                            Step::Deliver {
                                to: env.to,
                                msg: env.msg,
                            },
                        ));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    if self.timers.is_empty() {
                        // Quiescence check. The engine (our only sender) is
                        // blocked right here and the outbox was flushed on
                        // entry, so if the transport has nothing in flight
                        // and nothing is staged, no step can ever arrive
                        // again.
                        if self.transport.in_flight() > 0
                            || self.waker.as_ref().is_some_and(Waker::busy)
                        {
                            continue; // a delivery worker or a waker holder still owes us
                        }
                        match self.pop_staged() {
                            Some(env) => {
                                return Some((
                                    self.clock.now(),
                                    Step::Deliver {
                                        to: env.to,
                                        msg: env.msg,
                                    },
                                ))
                            }
                            None => return None,
                        }
                    }
                    // A timer is (about to be) due: loop and fire it.
                }
            }
        }
    }

    fn messages_dropped(&self) -> u64 {
        self.transport.dropped()
    }

    fn waker(&mut self) -> Option<Waker> {
        if self.waker.is_none() {
            let inbox = self.inbox_tx.clone();
            self.waker = Some(Waker::new(Some(Box::new(move || {
                let _ = inbox.send(Vec::new());
            }))));
        }
        self.waker.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{DetRng, Duration};
    use o2pc_sim::NetworkConfig;

    fn sim() -> SimRuntime<&'static str, u32> {
        SimRuntime::new(Network::new(
            NetworkConfig::fixed(Duration::millis(1)),
            DetRng::new(1),
        ))
    }

    #[test]
    fn sim_orders_timers_and_deliveries_together() {
        let mut rt = sim();
        rt.schedule(SimTime(5_000), "late");
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 7).is_sent()); // arrives at 1ms
        rt.schedule(SimTime(500), "early");
        let (t1, s1) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t1, SimTime(500));
        assert!(matches!(s1, Step::Timer("early")));
        let (t2, s2) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t2, SimTime(1_000));
        assert!(matches!(
            s2,
            Step::Deliver {
                to: SiteId(1),
                msg: 7
            }
        ));
        assert_eq!(rt.now(), SimTime(1_000));
        // Deadline fences the late timer without consuming it.
        assert!(rt.next(SimTime(2_000)).is_none());
        assert!(rt.next(SimTime(10_000)).is_some());
    }

    #[test]
    fn sim_same_site_send_bypasses_network() {
        let mut rt = sim();
        assert!(rt.send(SimTime(100), SiteId(2), SiteId(2), 9).is_sent());
        let (t, s) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t, SimTime(100), "no latency on self-sends");
        assert!(matches!(
            s,
            Step::Deliver {
                to: SiteId(2),
                msg: 9
            }
        ));
        assert_eq!(
            rt.network().sent_count(),
            0,
            "self-send never hit the network"
        );
    }

    /// Held work pins the simulated clock: its release is a wake at the
    /// current instant, ahead of the next timer.
    #[test]
    fn sim_waits_for_held_work_before_advancing() {
        let mut rt = sim();
        rt.schedule(SimTime(5_000), "later");
        let w = rt.waker().unwrap();
        w.hold();
        let releaser = std::thread::spawn(move || w.release(1));
        let (t, s) = rt.next(SimTime(10_000)).unwrap();
        assert_eq!(t, SimTime::ZERO);
        assert!(matches!(s, Step::Wake));
        releaser.join().unwrap();
        assert!(matches!(
            rt.next(SimTime(10_000)),
            Some((_, Step::Timer("later")))
        ));
    }

    fn threaded(grace_ms: u64) -> ThreadedRuntime<&'static str, u32> {
        let mut rt = ThreadedRuntime::new(
            ThreadedTransport::default(),
            ThreadedRuntimeConfig {
                idle_grace: StdDuration::from_millis(grace_ms),
            },
        );
        for id in 0..3 {
            rt.register_endpoint(SiteId(id));
        }
        rt
    }

    #[test]
    fn threaded_delivers_messages_and_fires_timers() {
        let mut rt = threaded(20);
        let far = SimTime(60_000_000);
        rt.schedule(SimTime(2_000), "timer");
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 42).is_sent());
        // The message is immediate, the timer is 2ms out: message first.
        let (_, s1) = rt.next(far).unwrap();
        assert!(matches!(
            s1,
            Step::Deliver {
                to: SiteId(1),
                msg: 42
            }
        ));
        let (t2, s2) = rt.next(far).unwrap();
        assert!(matches!(s2, Step::Timer("timer")));
        assert!(t2 >= SimTime(2_000), "timer fired early: {t2:?}");
        // Nothing left: quiesce within the grace period.
        assert!(rt.next(far).is_none());
    }

    #[test]
    fn threaded_respects_deadline() {
        let mut rt = threaded(20);
        rt.schedule(SimTime(50_000_000), "beyond"); // 50s out
        let start = std::time::Instant::now();
        assert!(
            rt.next(SimTime(10_000)).is_none(),
            "deadline precedes the timer"
        );
        assert!(start.elapsed() < StdDuration::from_secs(1));
    }

    /// A burst of sends between two `next` calls is coalesced into one
    /// transport handoff per destination — and still arrives in send order.
    #[test]
    fn threaded_send_coalesces_bursts_and_keeps_order() {
        let mut rt = threaded(20);
        let far = SimTime(60_000_000);
        for i in 0..32 {
            assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), i).is_sent());
            assert!(rt
                .send(SimTime::ZERO, SiteId(0), SiteId(2), 100 + i)
                .is_sent());
        }
        // Nothing has touched the transport yet: sends ride the outbox.
        assert_eq!(rt.transport().in_flight(), 64);
        let mut to1 = Vec::new();
        let mut to2 = Vec::new();
        while let Some((_, step)) = rt.next(far) {
            if let Step::Deliver { to, msg } = step {
                if to == SiteId(1) {
                    to1.push(msg);
                } else {
                    to2.push(msg);
                }
            }
        }
        assert_eq!(to1, (0..32).collect::<Vec<_>>());
        assert_eq!(to2, (100..132).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_does_not_quiesce_with_message_in_flight() {
        let transport = ThreadedTransport::new(StdDuration::from_millis(40));
        let mut rt: ThreadedRuntime<&'static str, u32> = ThreadedRuntime::new(
            transport,
            ThreadedRuntimeConfig {
                idle_grace: StdDuration::from_millis(5),
            },
        );
        rt.register_endpoint(SiteId(0));
        rt.register_endpoint(SiteId(1));
        // Latency (40ms) far exceeds idle_grace (5ms); in-flight tracking
        // must keep the runtime alive until the delivery lands.
        assert!(rt.send(SimTime::ZERO, SiteId(0), SiteId(1), 1).is_sent());
        let got = rt.next(SimTime(60_000_000));
        assert!(matches!(
            got,
            Some((
                _,
                Step::Deliver {
                    to: SiteId(1),
                    msg: 1
                }
            ))
        ));
    }

    /// External work held on the waker outlasts `idle_grace` without the
    /// runtime declaring quiescence; its release yields a wake.
    #[test]
    fn threaded_does_not_quiesce_while_work_is_held() {
        let mut rt = threaded(5);
        let w = rt.waker().unwrap();
        w.hold();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(StdDuration::from_millis(30));
            w.release(1);
        });
        let far = SimTime(60_000_000);
        assert!(matches!(rt.next(far), Some((_, Step::Wake))));
        releaser.join().unwrap();
        assert!(rt.next(far).is_none(), "quiescent once the work is done");
    }
}
