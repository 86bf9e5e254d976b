//! The separate submission queue (SSQ) mechanism — paper Sec. III-A,
//! Fig. 4-b.
//!
//! * Reads land in RSQ, writes in WSQ (unless the consistency checker
//!   reroutes a dependent request — see below).
//! * A weighted round-robin arbitrates fetches: RSQ holds `1` token and
//!   WSQ holds `w` tokens per round; fetching a command takes one token
//!   of the command's own I/O class; when no tokens remain the round
//!   resets. If the token-preferred queue is empty, the arbiter serves
//!   the other queue *without* charging tokens — which is exactly why the
//!   weight knob fades out under light load (paper Sec. III-B, Table IV).
//! * The device queue depth is partitioned between the classes in
//!   proportion to the weights; a class may borrow the whole budget when
//!   the other class is completely idle. The tokens and the two caps make
//!   up one arbiter; the caps are computed when the weight is set.
//! * Twins: the SSQ can carry arbiters for other weight ratios that
//!   choose on the same queue state at every fetch and keep their own
//!   tokens. A twin is dropped at the first fetch where its choice (which
//!   queue, or none) differs from the arbiter in force. Fetch choices are
//!   the only way the weight reaches a run, so a twin that survives a run
//!   would, as the arbiter in force, have made the same fetch at every
//!   call: the run stands for its weight too. Weight sweeps use this to
//!   simulate each distinct run once.
//! * Consistency checking: a request overlapping the LBA range of a
//!   *waiting* request is placed in that request's queue, so dependent
//!   I/O never reorders; its fetch still charges a token of its own I/O
//!   class, preserving the demanded weight ratio. The checker keeps each
//!   sector's latest waiting owner and probes that map once per sector
//!   per operation.

use crate::{FetchDecision, QueueDiscipline};
use sim_engine::FastMap;
use std::collections::VecDeque;
use workload::{IoType, Request};

#[cfg(test)]
mod reference;

/// Which physical queue a command waits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sq {
    Rsq,
    Wsq,
}

/// What every arbiter sees of the queues at one fetch.
struct FetchState {
    /// Class of RSQ's head command (`None`: RSQ is empty).
    rsq_head: Option<IoType>,
    /// Class of WSQ's head command (`None`: WSQ is empty).
    wsq_head: Option<IoType>,
    outstanding_r: usize,
    outstanding_w: usize,
    /// The read gate is open.
    read_allowed: bool,
    /// Every device queue-depth slot is taken.
    full: bool,
}

impl FetchState {
    fn head(&self, sq: Sq) -> Option<IoType> {
        match sq {
            Sq::Rsq => self.rsq_head,
            Sq::Wsq => self.wsq_head,
        }
    }
}

/// Weighted-round-robin state for one write:read weight ratio: the
/// round's tokens and the per-class queue-depth caps the weight implies.
#[derive(Clone, Copy, Debug)]
struct Arbiter {
    /// Write:read weight ratio (`w >= 1`; read weight is fixed at 1).
    weight: u32,
    tokens_r: u32,
    tokens_w: u32,
    r_cap: usize,
    w_cap: usize,
}

impl Arbiter {
    /// A fresh round at weight `w` for a device of queue depth `qd`:
    /// writes get `w/(w+1)` of QD, reads the rest, each at least 1.
    fn new(qd: usize, w: u32) -> Self {
        assert!(w >= 1, "weight ratio must be at least 1");
        let (r_cap, w_cap) = if qd == 1 {
            // A QD-1 device cannot be partitioned; both classes share
            // the single slot (the total-outstanding check still caps
            // concurrency at 1).
            (1, 1)
        } else {
            let wf = w as f64;
            let write_cap = ((qd as f64) * wf / (wf + 1.0)).round() as usize;
            let write_cap = write_cap.clamp(1, qd - 1);
            (qd - write_cap, write_cap)
        };
        Arbiter {
            weight: w,
            tokens_r: 1,
            tokens_w: w,
            r_cap,
            w_cap,
        }
    }

    fn new_round(&mut self) {
        self.tokens_r = 1;
        self.tokens_w = self.weight;
    }

    /// Would a fetch from `sq` respect this arbiter's per-class QD cap
    /// and the read gate?
    ///
    /// The gate only applies to RSQ: a consistency-rerouted read at the
    /// head of WSQ is fetched even when reads are gated — otherwise one
    /// dependent read would head-of-line-block the whole write queue,
    /// recreating under SSQ exactly the stall the mechanism exists to
    /// avoid. Rerouted reads are rare (same-LBA dependencies), so the
    /// backpressure goal is unaffected.
    fn eligible(&self, s: &FetchState, sq: Sq) -> bool {
        match s.head(sq) {
            None => false,
            Some(_) if s.full => false,
            Some(IoType::Read) => {
                (s.read_allowed || sq == Sq::Wsq)
                    && (s.outstanding_r < self.r_cap
                        // Borrow the idle write budget when writes are
                        // completely absent.
                        || (s.wsq_head.is_none() && s.outstanding_w == 0))
            }
            Some(IoType::Write) => {
                s.outstanding_w < self.w_cap || (s.rsq_head.is_none() && s.outstanding_r == 0)
            }
        }
    }

    /// Weighted round-robin with the empty-queue fade-out rule: the
    /// queue to fetch from and whether the fetch spends a token (which
    /// this call charges), or `None` when neither head is eligible.
    fn choose(&mut self, s: &FetchState) -> Option<(Sq, bool)> {
        let r_ok = self.eligible(s, Sq::Rsq);
        let w_ok = self.eligible(s, Sq::Wsq);
        if !r_ok && !w_ok {
            return None;
        }
        // Reset the round when all tokens are spent.
        if self.tokens_r == 0 && self.tokens_w == 0 {
            self.new_round();
        }
        // Prefer the write queue while it has tokens (it holds the larger
        // share), then the read queue; a queue that is empty forfeits its
        // turn without token manipulation.
        let (sq, charged) = if self.tokens_w > 0 && w_ok {
            (Sq::Wsq, true)
        } else if self.tokens_w > 0 && r_ok && s.wsq_head.is_none() {
            (Sq::Rsq, false)
        } else if self.tokens_r > 0 && r_ok {
            (Sq::Rsq, true)
        } else if self.tokens_r > 0 && w_ok && s.rsq_head.is_none() {
            (Sq::Wsq, false)
        } else {
            // Tokens for the eligible queue are spent; start a new round.
            self.new_round();
            (if w_ok { Sq::Wsq } else { Sq::Rsq }, true)
        };
        // Charge a token of the command's own class (paper: "removes one
        // token from the corresponding SQ that holds the same I/O type").
        if charged {
            match s.head(sq) {
                Some(IoType::Read) => self.tokens_r = self.tokens_r.saturating_sub(1),
                Some(IoType::Write) => self.tokens_w = self.tokens_w.saturating_sub(1),
                None => unreachable!("an eligible queue has a head"),
            }
        }
        Some((sq, charged))
    }
}

/// The SSQ discipline.
#[derive(Debug)]
pub struct SsqQueues {
    rsq: VecDeque<Request>,
    wsq: VecDeque<Request>,
    qd: usize,
    /// The arbiter in force.
    arbiter: Arbiter,
    /// Arbiters for other weights that have chosen as `arbiter` at every
    /// fetch since they were tracked.
    twins: Vec<Arbiter>,
    outstanding_r: usize,
    outstanding_w: usize,
    /// sector -> id of the most recent *waiting* command touching it.
    sector_owner: FastMap<u64, u64>,
    /// id -> queue, for commands still waiting.
    waiting: FastMap<u64, Sq>,
    /// Fetch counters per class (for tests/metrics).
    fetched_r: u64,
    fetched_w: u64,
    /// Fetches served without charging a token (fade-out path).
    free_fetches: u64,
    /// Consistency checking on/off (ablation knob; on by default).
    consistency: bool,
    /// Block-layer-style merging of contiguous same-class requests into
    /// the queue tail, capped at this many bytes (None = off).
    merge_cap: Option<u64>,
    /// Requests absorbed by merging.
    merges: u64,
    /// Telemetry: when on, every fetch appends a [`FetchDecision`].
    telemetry: bool,
    decisions: Vec<FetchDecision>,
}

impl SsqQueues {
    /// Create with the device queue depth and an initial weight ratio.
    ///
    /// # Panics
    /// Panics if `qd == 0` or `w == 0`.
    pub fn new(qd: usize, w: u32) -> Self {
        assert!(qd > 0, "queue depth must be positive");
        SsqQueues {
            rsq: VecDeque::new(),
            wsq: VecDeque::new(),
            qd,
            arbiter: Arbiter::new(qd, w),
            twins: Vec::new(),
            outstanding_r: 0,
            outstanding_w: 0,
            sector_owner: FastMap::default(),
            waiting: FastMap::default(),
            fetched_r: 0,
            fetched_w: 0,
            free_fetches: 0,
            consistency: true,
            merge_cap: None,
            merges: 0,
            telemetry: false,
            decisions: Vec::new(),
        }
    }

    /// Enable block-layer-style request merging (the paper's Sec. V
    /// future-work direction: "extend our design as an I/O scheduler in
    /// the block layer on Targets"): a request contiguous with the tail
    /// of its class queue coalesces into it, up to `cap` bytes.
    pub fn set_merge_cap(&mut self, cap: Option<u64>) {
        self.merge_cap = cap;
    }

    /// Requests absorbed into earlier commands by merging.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Enqueue with merging: returns `true` when the request was
    /// absorbed into the tail of its class queue (no separate command —
    /// and thus no separate completion — will exist for it).
    pub fn enqueue_or_merge(&mut self, cmd: Request) -> bool {
        if let Some(cap) = self.merge_cap {
            // Merging must not bypass the consistency checker: if any of
            // the request's sectors is owned by a waiting request other
            // than the merge target, fall through to the rerouting
            // enqueue path.
            let tail_id = match cmd.op {
                IoType::Read => self.rsq.back().map(|t| t.id),
                IoType::Write => self.wsq.back().map(|t| t.id),
            };
            let depends_elsewhere = (cmd.lba..cmd.lba_end()).any(|sector| {
                self.sector_owner.get(&sector).is_some_and(|owner| {
                    Some(*owner) != tail_id && self.waiting.contains_key(owner)
                })
            });
            let queue = match cmd.op {
                IoType::Read => &mut self.rsq,
                IoType::Write => &mut self.wsq,
            };
            if let (Some(tail), false) = (queue.back_mut(), depends_elsewhere) {
                if tail.op == cmd.op && tail.lba_end() == cmd.lba && tail.size + cmd.size <= cap {
                    tail.size += cmd.size;
                    let tail_id = tail.id;
                    let (lo, hi) = (cmd.lba, cmd.lba_end());
                    for sector in lo..hi {
                        self.sector_owner.insert(sector, tail_id);
                    }
                    self.merges += 1;
                    return true;
                }
            }
        }
        self.enqueue(cmd);
        false
    }

    /// Enable/disable the same-LBA consistency checker (ablation knob —
    /// disabling it breaks ordering of dependent I/O; see DESIGN.md).
    pub fn set_consistency_checking(&mut self, on: bool) {
        self.consistency = on;
    }

    /// Whether consistency checking is active.
    pub fn consistency_checking(&self) -> bool {
        self.consistency
    }

    /// Per-class queue-depth caps `(read_cap, write_cap)` derived from
    /// the weight ratio: writes get `w/(w+1)` of QD, reads the rest, each
    /// at least 1.
    pub fn qd_partition(&self) -> (usize, usize) {
        (self.arbiter.r_cap, self.arbiter.w_cap)
    }

    /// Fetches per class so far `(reads, writes)`.
    pub fn fetch_counts(&self) -> (u64, u64) {
        (self.fetched_r, self.fetched_w)
    }

    /// Number of fetches served without token accounting because the
    /// preferred queue was empty.
    pub fn free_fetches(&self) -> u64 {
        self.free_fetches
    }

    fn pop(&mut self, sq: Sq, charged: bool) -> Request {
        let cmd = match sq {
            Sq::Rsq => self.rsq.pop_front(),
            Sq::Wsq => self.wsq.pop_front(),
        }
        .expect("pop from checked nonempty queue");
        if !charged {
            self.free_fetches += 1;
        }
        if self.telemetry {
            self.decisions.push(FetchDecision {
                op: cmd.op,
                charged,
                weight: self.arbiter.weight,
            });
        }
        match cmd.op {
            IoType::Read => {
                self.outstanding_r += 1;
                self.fetched_r += 1;
            }
            IoType::Write => {
                self.outstanding_w += 1;
                self.fetched_w += 1;
            }
        }
        // Drop the consistency bookkeeping for this command. A sector a
        // later request overwrote stays that request's.
        self.waiting.remove(&cmd.id);
        for sector in cmd.lba..cmd.lba_end() {
            if let Some(owner) = self.sector_owner.remove(&sector) {
                if owner != cmd.id {
                    self.sector_owner.insert(sector, owner);
                }
            }
        }
        cmd
    }
}

impl QueueDiscipline for SsqQueues {
    fn enqueue(&mut self, cmd: Request) {
        // Consistency checking: if any sector of this request is touched
        // by a still-waiting request, follow it into its queue.
        let mut target = match cmd.op {
            IoType::Read => Sq::Rsq,
            IoType::Write => Sq::Wsq,
        };
        if self.consistency {
            // Follow the most recent waiting request any of our sectors
            // overlaps (highest id = latest submission). When a request
            // overlaps waiting requests in BOTH queues, a single queue
            // cannot serialize against both — a known limitation of the
            // paper's same-queue mechanism; following the latest
            // dependency matches its R_{t-tau} formulation. Each sector
            // is visited once, so taking its previous owner while
            // recording this request sees only owners from before it.
            let mut latest: Option<(u64, Sq)> = None;
            for sector in cmd.lba..cmd.lba_end() {
                let Some(owner) = self.sector_owner.insert(sector, cmd.id) else {
                    continue;
                };
                if let Some(&sq) = self.waiting.get(&owner) {
                    if latest.is_none_or(|(id, _)| owner > id) {
                        latest = Some((owner, sq));
                    }
                }
            }
            if let Some((_, sq)) = latest {
                target = sq;
            }
        }
        self.waiting.insert(cmd.id, target);
        match target {
            Sq::Rsq => self.rsq.push_back(cmd),
            Sq::Wsq => self.wsq.push_back(cmd),
        }
    }

    fn fetch_gated(&mut self, read_allowed: bool) -> Option<Request> {
        let state = FetchState {
            rsq_head: self.rsq.front().map(|r| r.op),
            wsq_head: self.wsq.front().map(|r| r.op),
            outstanding_r: self.outstanding_r,
            outstanding_w: self.outstanding_w,
            read_allowed,
            full: self.outstanding_r + self.outstanding_w >= self.qd,
        };
        let pick = self.arbiter.choose(&state);
        let chosen = pick.map(|(sq, _)| sq);
        self.twins
            .retain_mut(|twin| twin.choose(&state).map(|(sq, _)| sq) == chosen);
        let (sq, charged) = pick?;
        Some(self.pop(sq, charged))
    }

    fn on_complete(&mut self, op: IoType) {
        match op {
            IoType::Read => {
                debug_assert!(self.outstanding_r > 0);
                self.outstanding_r = self.outstanding_r.saturating_sub(1);
            }
            IoType::Write => {
                debug_assert!(self.outstanding_w > 0);
                self.outstanding_w = self.outstanding_w.saturating_sub(1);
            }
        }
    }

    fn queued(&self) -> usize {
        self.rsq.len() + self.wsq.len()
    }

    fn queued_of(&self, op: IoType) -> usize {
        // Queues can hold foreign-class commands via consistency
        // rerouting, so count by command class, not by queue.
        self.rsq
            .iter()
            .chain(self.wsq.iter())
            .filter(|r| r.op == op)
            .count()
    }

    fn outstanding(&self) -> usize {
        self.outstanding_r + self.outstanding_w
    }

    fn set_weight_ratio(&mut self, w: u32) {
        // Start a fresh round under the new weights. A twin stood for a
        // run at its own weight throughout, which this run no longer is.
        self.arbiter = Arbiter::new(self.qd, w);
        self.twins.clear();
    }

    fn weight_ratio(&self) -> u32 {
        self.arbiter.weight
    }

    fn track_twins(&mut self, weights: &[u32]) {
        self.twins = weights.iter().map(|&w| Arbiter::new(self.qd, w)).collect();
    }

    fn twins(&self) -> Vec<u32> {
        self.twins.iter().map(|t| t.weight).collect()
    }

    fn enqueue_or_merge(&mut self, cmd: Request) -> bool {
        SsqQueues::enqueue_or_merge(self, cmd)
    }

    fn set_merge_cap(&mut self, cap: Option<u64>) {
        SsqQueues::set_merge_cap(self, cap)
    }

    fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
        if !on {
            self.decisions.clear();
        }
    }

    fn drain_decisions(&mut self) -> Vec<FetchDecision> {
        std::mem::take(&mut self.decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::SimTime;

    fn req(id: u64, op: IoType, lba: u64) -> Request {
        Request {
            id,
            op,
            lba,
            size: 4096,
            arrival: SimTime::ZERO,
        }
    }

    /// Fill both queues, fetch `n` commands with immediate completion
    /// (so QD never binds), return the class sequence.
    fn fetch_sequence(q: &mut SsqQueues, n: usize) -> Vec<IoType> {
        let mut out = Vec::new();
        for _ in 0..n {
            let cmd = q.fetch().expect("queues are backlogged");
            out.push(cmd.op);
            q.on_complete(cmd.op);
        }
        out
    }

    #[test]
    fn wrr_ratio_under_backlog() {
        let mut q = SsqQueues::new(64, 3);
        for i in 0..400 {
            q.enqueue(req(i, IoType::Read, i * 10));
            q.enqueue(req(1000 + i, IoType::Write, 100_000 + i * 10));
        }
        let seq = fetch_sequence(&mut q, 200);
        let writes = seq.iter().filter(|o| !o.is_read()).count();
        let reads = seq.len() - writes;
        let ratio = writes as f64 / reads as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio={ratio}");
    }

    #[test]
    fn w1_is_fair() {
        let mut q = SsqQueues::new(64, 1);
        for i in 0..200 {
            q.enqueue(req(i, IoType::Read, i * 10));
            q.enqueue(req(1000 + i, IoType::Write, 100_000 + i * 10));
        }
        let seq = fetch_sequence(&mut q, 100);
        let writes = seq.iter().filter(|o| !o.is_read()).count();
        assert_eq!(writes, 50);
    }

    #[test]
    fn empty_wsq_fades_out() {
        // Only reads present: weight 5 must not slow them down, and no
        // tokens are charged for the free fetches.
        let mut q = SsqQueues::new(32, 5);
        for i in 0..50 {
            q.enqueue(req(i, IoType::Read, i * 10));
        }
        let seq = fetch_sequence(&mut q, 50);
        assert!(seq.iter().all(|o| o.is_read()));
        assert!(q.free_fetches() > 0, "fade-out path never used");
    }

    #[test]
    fn qd_partition_follows_weights() {
        let q = SsqQueues::new(128, 3);
        let (r, w) = q.qd_partition();
        assert_eq!(r + w, 128);
        assert_eq!(w, 96); // 128 * 3/4
        let q1 = SsqQueues::new(128, 1);
        assert_eq!(q1.qd_partition(), (64, 64));
        // Degenerate: QD 2 keeps both classes at >= 1.
        let q2 = SsqQueues::new(2, 100);
        assert_eq!(q2.qd_partition(), (1, 1));
    }

    #[test]
    fn per_class_qd_caps_parallelism() {
        // QD 4, w=3: read cap 1, write cap 3.
        let mut q = SsqQueues::new(4, 3);
        for i in 0..10 {
            q.enqueue(req(i, IoType::Read, i * 10));
            q.enqueue(req(100 + i, IoType::Write, 10_000 + i * 10));
        }
        let mut reads = 0;
        let mut writes = 0;
        while let Some(c) = q.fetch() {
            if c.op.is_read() {
                reads += 1;
            } else {
                writes += 1;
            }
        }
        assert_eq!(q.outstanding(), 4);
        assert_eq!(reads, 1, "read parallelism capped at its partition");
        assert_eq!(writes, 3);
    }

    #[test]
    fn idle_class_budget_is_borrowable() {
        let mut q = SsqQueues::new(8, 1);
        for i in 0..8 {
            q.enqueue(req(i, IoType::Read, i * 10));
        }
        let mut fetched = 0;
        while q.fetch().is_some() {
            fetched += 1;
        }
        assert_eq!(fetched, 8, "sole class should use the whole QD");
    }

    #[test]
    fn consistency_same_lba_same_queue_in_order() {
        let mut q = SsqQueues::new(16, 4);
        // Write to LBA 100, then read of LBA 100: the read must follow
        // the write into WSQ and be fetched after it.
        q.enqueue(req(1, IoType::Write, 100));
        q.enqueue(req(2, IoType::Read, 100));
        // An independent read goes to RSQ.
        q.enqueue(req(3, IoType::Read, 500));
        let mut order = Vec::new();
        while let Some(c) = q.fetch() {
            order.push(c.id);
            q.on_complete(c.op);
        }
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(
            pos(1) < pos(2),
            "write must precede dependent read: {order:?}"
        );
    }

    #[test]
    fn consistency_chain_follows_first_queue() {
        let mut q = SsqQueues::new(16, 2);
        // R(lba 7) waiting in RSQ, then W(lba 7) must go to RSQ too,
        // then another R(lba 7) follows them.
        q.enqueue(req(1, IoType::Read, 7));
        q.enqueue(req(2, IoType::Write, 7));
        q.enqueue(req(3, IoType::Read, 7));
        assert_eq!(q.rsq.len(), 3);
        assert_eq!(q.wsq.len(), 0);
        let mut order = Vec::new();
        while let Some(c) = q.fetch() {
            order.push(c.id);
            q.on_complete(c.op);
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn consistency_overlapping_ranges() {
        let mut q = SsqQueues::new(16, 2);
        // 8 KiB write spans sectors 10..12; read of sector 11 depends.
        let mut w = req(1, IoType::Write, 10);
        w.size = 8192;
        q.enqueue(w);
        q.enqueue(req(2, IoType::Read, 11));
        assert_eq!(q.wsq.len(), 2, "dependent read routed to WSQ");
    }

    #[test]
    fn no_dependency_after_fetch() {
        let mut q = SsqQueues::new(16, 2);
        q.enqueue(req(1, IoType::Write, 100));
        let c = q.fetch().unwrap();
        assert_eq!(c.id, 1);
        // Now the write is outstanding, not waiting: a new read on the
        // same LBA goes to its natural queue (the paper only reroutes
        // when the predecessor is "waiting in SQ").
        q.enqueue(req(2, IoType::Read, 100));
        assert_eq!(q.rsq.len(), 1);
        assert_eq!(q.wsq.len(), 0);
    }

    #[test]
    fn set_weight_ratio_takes_effect() {
        let mut q = SsqQueues::new(64, 1);
        for i in 0..400 {
            q.enqueue(req(i, IoType::Read, i * 10));
            q.enqueue(req(1000 + i, IoType::Write, 100_000 + i * 10));
        }
        let _ = fetch_sequence(&mut q, 50);
        q.set_weight_ratio(4);
        assert_eq!(q.weight_ratio(), 4);
        let seq = fetch_sequence(&mut q, 250);
        let writes = seq.iter().filter(|o| !o.is_read()).count();
        let ratio = writes as f64 / (seq.len() - writes) as f64;
        assert!((ratio - 4.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    #[should_panic(expected = "weight ratio must be at least 1")]
    fn zero_weight_rejected() {
        let _ = SsqQueues::new(8, 0);
    }

    #[test]
    fn telemetry_records_fetch_decisions() {
        let mut q = SsqQueues::new(64, 2);
        for i in 0..20 {
            q.enqueue(req(i, IoType::Read, i * 10));
            q.enqueue(req(1000 + i, IoType::Write, 100_000 + i * 10));
        }
        // Off by default: fetches leave no decisions behind.
        let _ = fetch_sequence(&mut q, 6);
        assert!(q.drain_decisions().is_empty());
        q.set_telemetry(true);
        let seq = fetch_sequence(&mut q, 9);
        let decisions = q.drain_decisions();
        assert_eq!(decisions.len(), 9);
        // Decision order matches fetch order, and all are token-charged
        // under full two-class backlog.
        assert_eq!(decisions.iter().map(|d| d.op).collect::<Vec<_>>(), seq);
        assert!(decisions.iter().all(|d| d.charged && d.weight == 2));
        assert!(q.drain_decisions().is_empty(), "drain empties the buffer");
    }

    proptest::proptest! {
        /// Same-LBA pairs are never reordered by SSQ, for arbitrary
        /// interleavings and weights.
        #[test]
        fn prop_same_lba_order(
            ops in proptest::collection::vec((0u8..2, 0u64..4), 2..60),
            w in 1u32..8,
        ) {
            let mut q = SsqQueues::new(16, w);
            for (i, &(op, lba)) in ops.iter().enumerate() {
                let op = if op == 0 { IoType::Read } else { IoType::Write };
                q.enqueue(req(i as u64, op, lba));
            }
            let mut fetched: Vec<Request> = Vec::new();
            while let Some(c) = q.fetch() {
                fetched.push(c);
                q.on_complete(c.op);
            }
            proptest::prop_assert_eq!(fetched.len(), ops.len());
            // For every pair touching the same lba, enqueue order is
            // preserved in fetch order.
            let pos: std::collections::HashMap<u64, usize> = fetched
                .iter()
                .enumerate()
                .map(|(p, r)| (r.id, p))
                .collect();
            for i in 0..ops.len() {
                for j in i + 1..ops.len() {
                    if ops[i].1 == ops[j].1 {
                        proptest::prop_assert!(
                            pos[&(i as u64)] < pos[&(j as u64)],
                            "reordered same-lba pair {i} {j}"
                        );
                    }
                }
            }
        }

        /// Under full backlog, the fetched write:read ratio converges to
        /// the configured weight ratio.
        #[test]
        fn prop_wrr_ratio(w in 1u32..8) {
            let mut q = SsqQueues::new(64, w);
            for i in 0..2000u64 {
                q.enqueue(req(i, IoType::Read, 10_000_000 + i * 10));
                q.enqueue(req(100_000 + i, IoType::Write, 20_000_000 + i * 10));
            }
            let mut reads = 0u32;
            let mut writes = 0u32;
            for _ in 0..1200 {
                let c = q.fetch().expect("backlogged");
                if c.op.is_read() { reads += 1 } else { writes += 1 }
                q.on_complete(c.op);
            }
            let ratio = writes as f64 / reads as f64;
            proptest::prop_assert!(
                (ratio - w as f64).abs() / (w as f64) < 0.15,
                "ratio {ratio} vs w {w}"
            );
        }
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use sim_engine::SimTime;

    fn req(id: u64, op: IoType, lba: u64) -> Request {
        Request {
            id,
            op,
            lba,
            size: 4096,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn disabling_consistency_allows_reordering() {
        let mut q = SsqQueues::new(16, 8);
        q.set_consistency_checking(false);
        assert!(!q.consistency_checking());
        // Same-LBA write then read: without the checker the read lands
        // in RSQ and, at write weight 8 with reads holding the single
        // read token... the point is simply that they sit in different
        // queues now.
        q.enqueue(req(1, IoType::Write, 100));
        q.enqueue(req(2, IoType::Read, 100));
        assert_eq!(q.queued_of(IoType::Read), 1);
        // The read is in RSQ (not rerouted).
        assert_eq!(q.rsq.len(), 1);
        assert_eq!(q.wsq.len(), 1);
    }

    #[test]
    fn consistency_on_by_default() {
        let q = SsqQueues::new(16, 2);
        assert!(q.consistency_checking());
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;
    use sim_engine::SimTime;

    fn req(id: u64, op: IoType, lba: u64, size: u64) -> Request {
        Request {
            id,
            op,
            lba,
            size,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn contiguous_same_class_merges() {
        let mut q = SsqQueues::new(16, 1);
        q.set_merge_cap(Some(128 * 1024));
        assert!(!q.enqueue_or_merge(req(1, IoType::Read, 0, 8192))); // sectors 0..2
        assert!(q.enqueue_or_merge(req(2, IoType::Read, 2, 8192))); // contiguous
        assert_eq!(q.merges(), 1);
        assert_eq!(q.queued(), 1, "one merged command");
        let c = q.fetch().expect("fetchable");
        assert_eq!(c.id, 1);
        assert_eq!(c.size, 16384);
    }

    #[test]
    fn gaps_classes_and_caps_block_merging() {
        let mut q = SsqQueues::new(16, 1);
        q.set_merge_cap(Some(12_000));
        assert!(!q.enqueue_or_merge(req(1, IoType::Read, 0, 8192)));
        // Non-contiguous.
        assert!(!q.enqueue_or_merge(req(2, IoType::Read, 10, 4096)));
        // Different class (contiguous with nothing in WSQ).
        assert!(!q.enqueue_or_merge(req(3, IoType::Write, 2, 4096)));
        // Would exceed the cap (tail is request 2: 4096 + 12288 > cap).
        assert!(!q.enqueue_or_merge(req(4, IoType::Read, 11, 12_288)));
        assert_eq!(q.merges(), 0);
        assert_eq!(q.queued(), 4);
    }

    #[test]
    fn merged_range_keeps_consistency() {
        let mut q = SsqQueues::new(16, 4);
        q.set_merge_cap(Some(128 * 1024));
        assert!(!q.enqueue_or_merge(req(1, IoType::Write, 0, 4096))); // sector 0
        assert!(q.enqueue_or_merge(req(2, IoType::Write, 1, 4096))); // merged, sectors 0..2
                                                                     // A read of sector 1 must follow the merged write (same queue).
        assert!(!q.enqueue_or_merge(req(3, IoType::Read, 1, 4096)));
        assert_eq!(q.wsq.len(), 2, "read rerouted behind the merged write");
        let first = q.fetch().unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(first.size, 8192);
        q.on_complete(first.op);
        let second = q.fetch().unwrap();
        assert_eq!(second.id, 3);
    }

    #[test]
    fn merging_off_by_default() {
        let mut q = SsqQueues::new(16, 1);
        assert!(!q.enqueue_or_merge(req(1, IoType::Read, 0, 4096)));
        assert!(!q.enqueue_or_merge(req(2, IoType::Read, 1, 4096)));
        assert_eq!(q.merges(), 0);
        assert_eq!(q.queued(), 2);
    }
}

#[cfg(test)]
mod review_regression_tests {
    use super::*;
    use sim_engine::SimTime;

    fn req(id: u64, op: IoType, lba: u64, size: u64) -> Request {
        Request {
            id,
            op,
            lba,
            size,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn qd_one_does_not_panic() {
        let mut q = SsqQueues::new(1, 4);
        q.enqueue(req(1, IoType::Read, 0, 4096));
        q.enqueue(req(2, IoType::Write, 100, 4096));
        let first = q.fetch().expect("one slot available");
        assert!(q.fetch().is_none(), "QD 1 caps outstanding at one");
        q.on_complete(first.op);
        assert!(q.fetch().is_some());
    }

    #[test]
    fn merge_does_not_bypass_consistency() {
        let mut q = SsqQueues::new(16, 2);
        q.set_merge_cap(Some(128 * 1024));
        // R1 waits on sector 2 in RSQ.
        assert!(!q.enqueue_or_merge(req(1, IoType::Read, 2, 4096)));
        // W1 covers sectors 0..2 in WSQ (no overlap).
        assert!(!q.enqueue_or_merge(req(2, IoType::Write, 0, 8192)));
        // W2 on sector 2 is contiguous with W1's tail but depends on R1:
        // it must NOT merge; the consistency checker must reroute it
        // behind R1 instead.
        assert!(!q.enqueue_or_merge(req(3, IoType::Write, 2, 4096)));
        assert_eq!(q.merges(), 0, "dependent write must not merge");
        let mut order = Vec::new();
        while let Some(c) = q.fetch() {
            order.push(c.id);
            q.on_complete(c.op);
        }
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(1) < pos(3), "read before dependent write: {order:?}");
    }

    #[test]
    fn multi_sector_overlap_follows_latest_dependency() {
        let mut q = SsqQueues::new(16, 2);
        // W1 owns sector 0 (WSQ); R2 owns sector 1 (RSQ).
        q.enqueue(req(1, IoType::Write, 0, 4096));
        q.enqueue(req(2, IoType::Read, 1, 4096));
        // W3 spans sectors 0..2, overlapping both: follows the LATEST
        // dependency (R2, in RSQ).
        q.enqueue(req(3, IoType::Write, 0, 8192));
        assert_eq!(q.rsq.len(), 2, "w3 follows the most recent overlap");
        let mut order = Vec::new();
        while let Some(c) = q.fetch() {
            order.push(c.id);
            q.on_complete(c.op);
        }
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(2) < pos(3), "latest dependency serialized: {order:?}");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::reference::ReferenceSsq;
    use super::*;
    use sim_engine::SimTime;

    /// The counters the oracle compares that are not on the trait.
    trait Counters: QueueDiscipline {
        fn consistency(&mut self, on: bool);
        fn counters(&self) -> [u64; 4];
    }

    impl Counters for SsqQueues {
        fn consistency(&mut self, on: bool) {
            self.set_consistency_checking(on);
        }
        fn counters(&self) -> [u64; 4] {
            let (r, w) = self.fetch_counts();
            [r, w, self.free_fetches(), self.merges()]
        }
    }

    impl Counters for ReferenceSsq {
        fn consistency(&mut self, on: bool) {
            self.set_consistency_checking(on);
        }
        fn counters(&self) -> [u64; 4] {
            let (r, w) = self.fetch_counts();
            [r, w, self.free_fetches(), self.merges()]
        }
    }

    /// What one step leaves observable: the fetch result (`None` for
    /// a step that does not fetch), queued reads and writes,
    /// outstanding commands, and the counters.
    type Observation = (Option<Option<u64>>, usize, usize, usize, [u64; 4]);

    /// Apply one random interleaving. A step is `(kind, a, b, flag)`:
    /// kinds 0–7 enqueue a request at sector `a` of `b` sectors (reads
    /// and writes by `flag`; kinds 4–7 through `enqueue_or_merge`),
    /// 8–15 fetch with the read gate open unless `flag` is 0 and `a` is
    /// odd, 16–21 complete the in-flight command at position `a`, 22
    /// sets weight `1 + a % 8`, 23 sets consistency checking to `flag`.
    fn drive<Q: Counters>(q: &mut Q, steps: &[(u8, u64, u64, u8)]) -> Vec<Observation> {
        let mut in_flight: Vec<IoType> = Vec::new();
        let mut obs = Vec::with_capacity(steps.len());
        for (id, &(kind, a, b, flag)) in steps.iter().enumerate() {
            let mut fetched = None;
            match kind {
                0..=7 => {
                    let cmd = Request {
                        id: id as u64,
                        op: if flag == 0 {
                            IoType::Read
                        } else {
                            IoType::Write
                        },
                        lba: a,
                        size: b * 4096,
                        arrival: SimTime::ZERO,
                    };
                    if kind < 4 {
                        q.enqueue(cmd);
                    } else {
                        q.enqueue_or_merge(cmd);
                    }
                }
                8..=15 => {
                    let cmd = q.fetch_gated(flag == 1 || a % 2 == 0);
                    in_flight.extend(cmd.map(|c| c.op));
                    fetched = Some(cmd.map(|c| c.id));
                }
                16..=21 if !in_flight.is_empty() => {
                    let op = in_flight.remove(a as usize % in_flight.len());
                    q.on_complete(op);
                }
                16..=21 => {}
                22 => q.set_weight_ratio(1 + (a % 8) as u32),
                _ => q.consistency(flag == 1),
            }
            obs.push((
                fetched,
                q.queued_of(IoType::Read),
                q.queued_of(IoType::Write),
                q.outstanding(),
                q.counters(),
            ));
        }
        obs
    }

    fn fetches(obs: &[Observation]) -> Vec<Option<u64>> {
        obs.iter().filter_map(|o| o.0).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The one-probe checker and the arbiter split fetch exactly
        /// what the two-map reference fetches, for random interleavings
        /// of every SSQ operation over a 64-sector LBA space (so
        /// dependencies land in both queues). Twins tracked from the
        /// start survive exactly when the reference run at their weight
        /// makes the same fetch choices.
        #[test]
        fn prop_matches_reference_and_twins_are_exact(
            qd in 1usize..17,
            w in 1u32..9,
            cap in 0u64..3,
            reweight in 0u8..2,
            steps in proptest::collection::vec((0u8..24, 0u64..64, 1u64..13, 0u8..2), 1..300),
        ) {
            let merge_cap = [None, Some(16 * 4096), Some(48 * 4096)][cap as usize];
            // Half the cases never change the weight, so twins can last.
            let steps: Vec<_> = steps.into_iter().filter(|s| reweight == 1 || s.0 != 22).collect();
            let mut fast = SsqQueues::new(qd, w);
            fast.set_merge_cap(merge_cap);
            let all: Vec<u32> = (1..=8).collect();
            fast.track_twins(&all);
            let mut oracle = ReferenceSsq::new(qd, w);
            oracle.set_merge_cap(merge_cap);
            let got = drive(&mut fast, &steps);
            let want = drive(&mut oracle, &steps);
            proptest::prop_assert_eq!(&got, &want);

            let reweighted = steps.iter().any(|s| s.0 == 22);
            let mut same_run = Vec::new();
            for &v in &all {
                let mut alone = ReferenceSsq::new(qd, v);
                alone.set_merge_cap(merge_cap);
                if !reweighted && fetches(&drive(&mut alone, &steps)) == fetches(&want) {
                    same_run.push(v);
                }
            }
            proptest::prop_assert_eq!(fast.twins(), same_run);
        }
    }
}
