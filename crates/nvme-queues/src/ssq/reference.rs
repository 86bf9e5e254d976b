//! A reference SSQ for the proptests: tokens and weight as plain
//! fields, the queue-depth partition recomputed from the weight at every
//! eligibility check, and a consistency checker that reads every
//! sector's owner before it writes any (two probes per sector at
//! enqueue and at fetch). [`SsqQueues`](super::SsqQueues) must fetch
//! exactly what it fetches. Telemetry and twins are left out: they do
//! not change what is fetched.

use super::Sq;
use crate::QueueDiscipline;
use std::collections::{HashMap, VecDeque};
use workload::{IoType, Request};

#[derive(Debug)]
pub struct ReferenceSsq {
    rsq: VecDeque<Request>,
    wsq: VecDeque<Request>,
    qd: usize,
    weight_w: u32,
    tokens_r: u32,
    tokens_w: u32,
    outstanding_r: usize,
    outstanding_w: usize,
    sector_owner: HashMap<u64, u64>,
    waiting: HashMap<u64, Sq>,
    fetched_r: u64,
    fetched_w: u64,
    free_fetches: u64,
    consistency: bool,
    merge_cap: Option<u64>,
    merges: u64,
}

impl ReferenceSsq {
    pub fn new(qd: usize, w: u32) -> Self {
        assert!(qd > 0 && w >= 1);
        ReferenceSsq {
            rsq: VecDeque::new(),
            wsq: VecDeque::new(),
            qd,
            weight_w: w,
            tokens_r: 1,
            tokens_w: w,
            outstanding_r: 0,
            outstanding_w: 0,
            sector_owner: HashMap::new(),
            waiting: HashMap::new(),
            fetched_r: 0,
            fetched_w: 0,
            free_fetches: 0,
            consistency: true,
            merge_cap: None,
            merges: 0,
        }
    }

    pub fn set_consistency_checking(&mut self, on: bool) {
        self.consistency = on;
    }

    pub fn merges(&self) -> u64 {
        self.merges
    }

    pub fn fetch_counts(&self) -> (u64, u64) {
        (self.fetched_r, self.fetched_w)
    }

    pub fn free_fetches(&self) -> u64 {
        self.free_fetches
    }

    fn qd_partition(&self) -> (usize, usize) {
        if self.qd == 1 {
            return (1, 1);
        }
        let w = self.weight_w as f64;
        let write_cap = ((self.qd as f64) * w / (w + 1.0)).round() as usize;
        let write_cap = write_cap.clamp(1, self.qd - 1);
        (self.qd - write_cap, write_cap)
    }

    fn head_eligible(&self, sq: Sq, read_allowed: bool) -> bool {
        let queue = match sq {
            Sq::Rsq => &self.rsq,
            Sq::Wsq => &self.wsq,
        };
        let Some(head) = queue.front() else {
            return false;
        };
        if head.op.is_read() && !read_allowed && sq == Sq::Rsq {
            return false;
        }
        let (r_cap, w_cap) = self.qd_partition();
        if self.outstanding_r + self.outstanding_w >= self.qd {
            return false;
        }
        match head.op {
            IoType::Read => {
                self.outstanding_r < r_cap || (self.wsq.is_empty() && self.outstanding_w == 0)
            }
            IoType::Write => {
                self.outstanding_w < w_cap || (self.rsq.is_empty() && self.outstanding_r == 0)
            }
        }
    }

    fn pop(&mut self, sq: Sq, charge_token: bool) -> Request {
        let cmd = match sq {
            Sq::Rsq => self.rsq.pop_front(),
            Sq::Wsq => self.wsq.pop_front(),
        }
        .expect("pop from checked nonempty queue");
        if charge_token {
            match cmd.op {
                IoType::Read => self.tokens_r = self.tokens_r.saturating_sub(1),
                IoType::Write => self.tokens_w = self.tokens_w.saturating_sub(1),
            }
        } else {
            self.free_fetches += 1;
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
        self.waiting.remove(&cmd.id);
        for sector in cmd.lba..cmd.lba_end() {
            if self.sector_owner.get(&sector) == Some(&cmd.id) {
                self.sector_owner.remove(&sector);
            }
        }
        cmd
    }
}

impl QueueDiscipline for ReferenceSsq {
    fn enqueue(&mut self, cmd: Request) {
        let mut target = match cmd.op {
            IoType::Read => Sq::Rsq,
            IoType::Write => Sq::Wsq,
        };
        if self.consistency {
            let mut latest: Option<(u64, Sq)> = None;
            for sector in cmd.lba..cmd.lba_end() {
                if let Some(owner) = self.sector_owner.get(&sector) {
                    if let Some(&sq) = self.waiting.get(owner) {
                        if latest.is_none_or(|(id, _)| *owner > id) {
                            latest = Some((*owner, sq));
                        }
                    }
                }
            }
            if let Some((_, sq)) = latest {
                target = sq;
            }
            for sector in cmd.lba..cmd.lba_end() {
                self.sector_owner.insert(sector, cmd.id);
            }
        }
        self.waiting.insert(cmd.id, target);
        match target {
            Sq::Rsq => self.rsq.push_back(cmd),
            Sq::Wsq => self.wsq.push_back(cmd),
        }
    }

    fn fetch_gated(&mut self, read_allowed: bool) -> Option<Request> {
        let r_ok = self.head_eligible(Sq::Rsq, read_allowed);
        let w_ok = self.head_eligible(Sq::Wsq, read_allowed);
        if !r_ok && !w_ok {
            return None;
        }
        if self.tokens_r == 0 && self.tokens_w == 0 {
            self.tokens_r = 1;
            self.tokens_w = self.weight_w;
        }
        if self.tokens_w > 0 {
            if w_ok {
                return Some(self.pop(Sq::Wsq, true));
            }
            if r_ok && self.wsq.is_empty() {
                return Some(self.pop(Sq::Rsq, false));
            }
        }
        if self.tokens_r > 0 {
            if r_ok {
                return Some(self.pop(Sq::Rsq, true));
            }
            if w_ok && self.rsq.is_empty() {
                return Some(self.pop(Sq::Wsq, false));
            }
        }
        self.tokens_r = 1;
        self.tokens_w = self.weight_w;
        if self.tokens_w > 0 && w_ok {
            return Some(self.pop(Sq::Wsq, true));
        }
        if r_ok {
            return Some(self.pop(Sq::Rsq, true));
        }
        None
    }

    fn on_complete(&mut self, op: IoType) {
        match op {
            IoType::Read => self.outstanding_r = self.outstanding_r.saturating_sub(1),
            IoType::Write => self.outstanding_w = self.outstanding_w.saturating_sub(1),
        }
    }

    fn queued(&self) -> usize {
        self.rsq.len() + self.wsq.len()
    }

    fn queued_of(&self, op: IoType) -> usize {
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
        assert!(w >= 1);
        self.weight_w = w;
        self.tokens_r = 1;
        self.tokens_w = w;
    }

    fn weight_ratio(&self) -> u32 {
        self.weight_w
    }

    fn enqueue_or_merge(&mut self, cmd: Request) -> bool {
        if let Some(cap) = self.merge_cap {
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
                    for sector in cmd.lba..cmd.lba_end() {
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

    fn set_merge_cap(&mut self, cap: Option<u64>) {
        self.merge_cap = cap;
    }
}
