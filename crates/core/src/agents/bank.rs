//! Bank agent: one per cache bank.
//!
//! Service times follow Table 1: probe-only operations take the bank's
//! tag-match latency; anything that moves a block takes the tag-match +
//! replacement latency. A bank serves one operation at a time
//! (`busy_until`); queued operations start when the previous finishes.
//!
//! Requests carry the controller interface to respond to (`reply`), so
//! banks are oblivious to how many cores share the cache — the same
//! engine serves the paper's single-core system and the §7 CMP
//! extension.

use std::collections::{HashMap, HashSet};

use nucanet_cache::{Bank, Block};
use nucanet_noc::{Dest, Endpoint};

use super::Outgoing;
use crate::config::BankPlace;
use crate::msg::CacheMsg;
use crate::scheme::Scheme;

/// Static wiring of a bank within its bank set.
#[derive(Debug, Clone)]
pub struct BankCtx {
    /// Scheme in force.
    pub scheme: Scheme,
    /// The memory controller's endpoint.
    pub memory: Endpoint,
    /// Next bank (away from the core), if any.
    pub next: Option<Endpoint>,
    /// Previous bank (toward the core), if any.
    pub prev: Option<Endpoint>,
    /// The MRU bank of this column.
    pub mru: Endpoint,
    /// Whether this is the LRU (last) bank.
    pub is_last: bool,
    /// Banks per column (static NUCA uses it to fold the global set
    /// index into the home bank's local set space).
    pub positions: u8,
}

/// One cache bank and its protocol engine.
#[derive(Debug, Clone)]
pub struct BankAgent {
    place: BankPlace,
    ctx: BankCtx,
    bank: Bank,
    busy_until: u64,
    /// Bank array accesses served (for energy accounting).
    ops: u64,
    /// Multicast only: requests already tag-matched, so that an
    /// [`CacheMsg::EvictedBlock`] that overtook its request (possible
    /// when replication blocks the multicast head) waits its turn.
    seen_requests: HashSet<u32>,
    early_evicted: HashMap<u32, (u32, Block, u32, Endpoint)>,
}

impl BankAgent {
    /// Creates the protocol engine around `bank`, the frame array it
    /// serves (`place.ways` ways, except under static NUCA, which folds
    /// a set's full associativity into its home bank).
    pub fn new(place: BankPlace, ctx: BankCtx, bank: Bank) -> Self {
        BankAgent {
            bank,
            place,
            ctx,
            busy_until: 0,
            ops: 0,
            seen_requests: HashSet::new(),
            early_evicted: HashMap::new(),
        }
    }

    /// The bank's placement record.
    pub fn place(&self) -> &BankPlace {
        &self.place
    }

    /// Mutable access to the underlying frames (warm-up preloading).
    pub fn bank_mut(&mut self) -> &mut Bank {
        &mut self.bank
    }

    /// Read access to the underlying frames (verification).
    pub fn bank(&self) -> &Bank {
        &self.bank
    }

    /// Bank array accesses served so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Empties the bank and clears all protocol state in place
    /// (warm-reset path): afterwards the agent behaves exactly like a
    /// freshly constructed one on the same wiring.
    pub fn reset(&mut self) {
        self.bank.clear();
        self.busy_until = 0;
        self.ops = 0;
        self.seen_requests.clear();
        self.early_evicted.clear();
    }

    fn service(&mut self, now: u64, cycles: u32) -> u64 {
        let start = now.max(self.busy_until);
        let fin = start + cycles as u64;
        self.busy_until = fin;
        self.ops += 1;
        fin
    }

    fn to(&self, dest: Endpoint, ready: u64, msg: CacheMsg) -> Outgoing {
        Outgoing {
            ready,
            dest: Dest::unicast(dest),
            msg,
        }
    }

    /// Handles one delivered message; returns the packets to inject.
    ///
    /// # Panics
    ///
    /// Panics on messages a bank can never receive, or on protocol
    /// invariant violations (e.g. a Fast-LRU MRU fill finding no hole).
    pub fn handle(&mut self, msg: &CacheMsg, now: u64) -> Vec<Outgoing> {
        match *msg {
            CacheMsg::Request {
                txn,
                index,
                tag,
                write,
                reply,
            } => {
                let mut out = self.on_request(txn, index as usize, tag, write, reply, now);
                self.seen_requests.insert(txn);
                if let Some((idx, block, acc, rep)) = self.early_evicted.remove(&txn) {
                    out.extend(self.on_evicted(txn, idx as usize, block, acc, rep, now));
                }
                out
            }
            CacheMsg::WalkRequest {
                txn,
                index,
                tag,
                write,
                carry,
                acc_bank,
                reply,
            } => self.on_walk(txn, index as usize, tag, write, carry, acc_bank, reply, now),
            CacheMsg::EvictedBlock {
                txn,
                index,
                block,
                acc_bank,
                reply,
            } => {
                if self.ctx.scheme.is_multicast() && !self.seen_requests.contains(&txn) {
                    // The block overtook the multicast request; defer.
                    self.early_evicted
                        .insert(txn, (index, block, acc_bank, reply));
                    Vec::new()
                } else {
                    self.on_evicted(txn, index as usize, block, acc_bank, reply, now)
                }
            }
            CacheMsg::MruFill {
                txn,
                index,
                block,
                acc_bank,
                reply,
            } => self.on_mru_fill(txn, index as usize, block, acc_bank, reply, now),
            CacheMsg::SwapUp {
                txn,
                index,
                block,
                acc_bank,
                reply,
            } => self.on_swap_up(txn, index as usize, block, acc_bank, reply, now),
            CacheMsg::SwapBack {
                txn,
                index,
                block,
                acc_bank,
                reply,
            } => self.on_swap_back(txn, index as usize, block, acc_bank, reply, now),
            CacheMsg::MemReply {
                txn,
                index,
                tag,
                write,
                acc_mem,
                reply,
            } => self.on_mem_reply(txn, index as usize, tag, write, acc_mem, reply, now),
            ref other => panic!(
                "bank {:?} (col {}, pos {}) received unexpected {other:?}",
                self.place.endpoint, self.place.column, self.place.position
            ),
        }
    }

    /// Multicast request (tag match happens at every bank concurrently).
    fn on_request(
        &mut self,
        txn: u32,
        index: usize,
        tag: u32,
        write: bool,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        let pos = self.place.position;
        let t = self.place.timing;
        if self.ctx.scheme == Scheme::StaticNuca {
            // Home-bank access: no migration, hit or miss right here.
            // The home bank holds the set's full associativity, so the
            // global index folds into the bank's local set space
            // (S-NUCA-2 geometry).
            let local = index / self.ctx.positions as usize;
            let fin = self.service(now, t.tag_match);
            return if self.bank.probe(local, tag) {
                self.bank.touch(local, tag);
                if write {
                    self.bank.mark_dirty(local, tag);
                }
                vec![self.to(
                    reply,
                    fin,
                    CacheMsg::HitData {
                        txn,
                        position: pos,
                        acc_bank: t.tag_match,
                    },
                )]
            } else {
                vec![self.to(
                    reply,
                    fin,
                    CacheMsg::MissNotify {
                        txn,
                        position: pos,
                        chain_started: false,
                        acc_bank: t.tag_match,
                    },
                )]
            };
        }
        if self.bank.probe(index, tag) {
            if pos == 0 {
                let fin = self.service(now, t.tag_match);
                self.bank.touch(index, tag);
                if write {
                    self.bank.mark_dirty(index, tag);
                }
                return vec![self.to(
                    reply,
                    fin,
                    CacheMsg::HitData {
                        txn,
                        position: 0,
                        acc_bank: t.tag_match,
                    },
                )];
            }
            let fin = self.service(now, t.tag_match_replace);
            let mut blk = self.bank.extract(index, tag).expect("probe reported a hit");
            if write {
                blk.dirty = true;
            }
            let hit = self.to(
                reply,
                fin,
                CacheMsg::HitData {
                    txn,
                    position: pos,
                    acc_bank: t.tag_match_replace,
                },
            );
            let mover = match self.ctx.scheme {
                Scheme::MulticastFastLru => self.to(
                    self.ctx.mru,
                    fin,
                    CacheMsg::MruFill {
                        txn,
                        index: index as u32,
                        block: blk,
                        acc_bank: 0,
                        reply,
                    },
                ),
                Scheme::MulticastPromotion => self.to(
                    self.ctx.prev.expect("position > 0 has a previous bank"),
                    fin,
                    CacheMsg::SwapUp {
                        txn,
                        index: index as u32,
                        block: blk,
                        acc_bank: 0,
                        reply,
                    },
                ),
                s => panic!("scheme {s} does not multicast requests"),
            };
            return vec![hit, mover];
        }
        // Miss.
        match self.ctx.scheme {
            Scheme::MulticastPromotion => {
                let fin = self.service(now, t.tag_match);
                vec![self.to(
                    reply,
                    fin,
                    CacheMsg::MissNotify {
                        txn,
                        position: pos,
                        chain_started: false,
                        acc_bank: t.tag_match,
                    },
                )]
            }
            Scheme::MulticastFastLru => {
                if pos == 0 {
                    // Eagerly evict to the next bank (Fig. 3a): the MRU
                    // frame empties while tag-match continues downstream.
                    let fin = self.service(now, t.tag_match_replace);
                    let ev = self.bank.evict_bottom(index);
                    let mut out = Vec::new();
                    let chain_started = match (ev, self.ctx.next) {
                        (Some(v), Some(next)) => {
                            out.push(self.to(
                                next,
                                fin,
                                CacheMsg::EvictedBlock {
                                    txn,
                                    index: index as u32,
                                    block: v,
                                    acc_bank: t.tag_match_replace,
                                    reply,
                                },
                            ));
                            true
                        }
                        (Some(v), None) => {
                            // Single-bank column: the victim leaves the cache.
                            if v.dirty {
                                out.push(self.to(
                                    self.ctx.memory,
                                    fin,
                                    CacheMsg::WriteBack { txn, block: v },
                                ));
                            }
                            false
                        }
                        (None, _) => false,
                    };
                    out.insert(
                        0,
                        self.to(
                            reply,
                            fin,
                            CacheMsg::MissNotify {
                                txn,
                                position: 0,
                                chain_started,
                                acc_bank: t.tag_match_replace,
                            },
                        ),
                    );
                    out
                } else {
                    let fin = self.service(now, t.tag_match);
                    vec![self.to(
                        reply,
                        fin,
                        CacheMsg::MissNotify {
                            txn,
                            position: pos,
                            chain_started: false,
                            acc_bank: t.tag_match,
                        },
                    )]
                }
            }
            s => panic!("scheme {s} does not multicast requests"),
        }
    }

    /// Unicast walk step.
    #[allow(clippy::too_many_arguments)] // mirrors the message fields
    fn on_walk(
        &mut self,
        txn: u32,
        index: usize,
        tag: u32,
        write: bool,
        carry: Option<Block>,
        acc: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        let pos = self.place.position;
        let t = self.place.timing;
        let scheme = self.ctx.scheme;
        if self.bank.probe(index, tag) {
            if pos == 0 {
                let fin = self.service(now, t.tag_match);
                self.bank.touch(index, tag);
                if write {
                    self.bank.mark_dirty(index, tag);
                }
                return vec![self.to(
                    reply,
                    fin,
                    CacheMsg::HitData {
                        txn,
                        position: 0,
                        acc_bank: acc + t.tag_match,
                    },
                )];
            }
            let fin = self.service(now, t.tag_match_replace);
            let mut blk = self.bank.extract(index, tag).expect("probe reported a hit");
            if write {
                blk.dirty = true;
            }
            let mut out = vec![self.to(
                reply,
                fin,
                CacheMsg::HitData {
                    txn,
                    position: pos,
                    acc_bank: acc + t.tag_match_replace,
                },
            )];
            match scheme {
                Scheme::UnicastPromotion => out.push(self.to(
                    self.ctx.prev.expect("position > 0 has a previous bank"),
                    fin,
                    CacheMsg::SwapUp {
                        txn,
                        index: index as u32,
                        block: blk,
                        acc_bank: 0,
                        reply,
                    },
                )),
                Scheme::UnicastLru => out.push(self.to(
                    self.ctx.mru,
                    fin,
                    CacheMsg::MruFill {
                        txn,
                        index: index as u32,
                        block: blk,
                        acc_bank: 0,
                        reply,
                    },
                )),
                Scheme::UnicastFastLru => {
                    // The hole left by the departing hit block absorbs
                    // the block pushed down from the previous bank.
                    if let Some(c) = carry {
                        let displaced = self.bank.push_top(index, c);
                        assert!(
                            displaced.is_none(),
                            "Fast-LRU hit bank must have a hole for the carried block"
                        );
                    }
                    out.push(self.to(
                        self.ctx.mru,
                        fin,
                        CacheMsg::MruFill {
                            txn,
                            index: index as u32,
                            block: blk,
                            acc_bank: 0,
                            reply,
                        },
                    ));
                }
                s => panic!("scheme {s} does not walk requests"),
            }
            return out;
        }
        // Miss at this bank.
        match scheme {
            Scheme::UnicastPromotion | Scheme::UnicastLru => {
                let fin = self.service(now, t.tag_match);
                let acc = acc + t.tag_match;
                if let (false, Some(next)) = (self.ctx.is_last, self.ctx.next) {
                    vec![self.to(
                        next,
                        fin,
                        CacheMsg::WalkRequest {
                            txn,
                            index: index as u32,
                            tag,
                            write,
                            carry: None,
                            acc_bank: acc,
                            reply,
                        },
                    )]
                } else {
                    vec![self.to(
                        reply,
                        fin,
                        CacheMsg::MissNotify {
                            txn,
                            position: pos,
                            chain_started: false,
                            acc_bank: acc,
                        },
                    )]
                }
            }
            Scheme::UnicastFastLru => {
                let fin = self.service(now, t.tag_match_replace);
                let acc = acc + t.tag_match_replace;
                // Replacement overlaps the walk: install the carried
                // block, push our own LRU block onward.
                let new_carry = if pos == 0 {
                    self.bank.evict_bottom(index)
                } else if let Some(c) = carry {
                    self.bank.push_top(index, c)
                } else {
                    None
                };
                if let (false, Some(next)) = (self.ctx.is_last, self.ctx.next) {
                    vec![self.to(
                        next,
                        fin,
                        CacheMsg::WalkRequest {
                            txn,
                            index: index as u32,
                            tag,
                            write,
                            carry: new_carry,
                            acc_bank: acc,
                            reply,
                        },
                    )]
                } else {
                    let mut out = vec![self.to(
                        reply,
                        fin,
                        CacheMsg::MissNotify {
                            txn,
                            position: pos,
                            chain_started: false,
                            acc_bank: acc,
                        },
                    )];
                    if let Some(v) = new_carry {
                        if v.dirty {
                            out.push(self.to(
                                self.ctx.memory,
                                fin,
                                CacheMsg::WriteBack { txn, block: v },
                            ));
                        }
                    }
                    out
                }
            }
            s => panic!("scheme {s} does not walk requests"),
        }
    }

    /// A block pushed down from the previous bank.
    fn on_evicted(
        &mut self,
        txn: u32,
        index: usize,
        block: Block,
        acc: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        let tmr = self.place.timing.tag_match_replace;
        let fin = self.service(now, tmr);
        let acc = acc + tmr;
        match self.bank.push_top(index, block) {
            None => vec![self.to(reply, fin, CacheMsg::Completion { txn, acc_bank: acc })],
            Some(v) => {
                if let (false, Some(next)) = (self.ctx.is_last, self.ctx.next) {
                    vec![self.to(
                        next,
                        fin,
                        CacheMsg::EvictedBlock {
                            txn,
                            index: index as u32,
                            block: v,
                            acc_bank: acc,
                            reply,
                        },
                    )]
                } else {
                    let mut out = Vec::new();
                    if v.dirty {
                        out.push(self.to(
                            self.ctx.memory,
                            fin,
                            CacheMsg::WriteBack { txn, block: v },
                        ));
                    }
                    out.push(self.to(reply, fin, CacheMsg::Completion { txn, acc_bank: acc }));
                    out
                }
            }
        }
    }

    /// The hit block arriving at the MRU bank.
    fn on_mru_fill(
        &mut self,
        txn: u32,
        index: usize,
        block: Block,
        acc: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        assert_eq!(self.place.position, 0, "MruFill must target the MRU bank");
        let tmr = self.place.timing.tag_match_replace;
        let fin = self.service(now, tmr);
        let acc = acc + tmr;
        let displaced = self.bank.push_top(index, block);
        match self.ctx.scheme {
            Scheme::UnicastFastLru | Scheme::MulticastFastLru => {
                assert!(
                    displaced.is_none(),
                    "Fast-LRU: the MRU frame must already be empty when the hit block arrives"
                );
                vec![self.to(reply, fin, CacheMsg::FillDone { txn, acc_bank: acc })]
            }
            Scheme::UnicastLru => match displaced {
                Some(v) => {
                    let next = self.ctx.next.expect("LRU move chain needs a next bank");
                    vec![self.to(
                        next,
                        fin,
                        CacheMsg::EvictedBlock {
                            txn,
                            index: index as u32,
                            block: v,
                            acc_bank: acc,
                            reply,
                        },
                    )]
                }
                None => vec![self.to(reply, fin, CacheMsg::Completion { txn, acc_bank: acc })],
            },
            s => panic!("scheme {s} does not use MruFill"),
        }
    }

    /// Promotion: the hit block ascending into this (closer) bank.
    fn on_swap_up(
        &mut self,
        txn: u32,
        index: usize,
        block: Block,
        acc: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        let tmr = self.place.timing.tag_match_replace;
        let fin = self.service(now, tmr);
        let acc = acc + tmr;
        let from = self
            .ctx
            .next
            .expect("SwapUp always comes from the next-farther bank");
        match self.bank.push_top(index, block) {
            Some(v) => vec![self.to(
                from,
                fin,
                CacheMsg::SwapBack {
                    txn,
                    index: index as u32,
                    block: v,
                    acc_bank: acc,
                    reply,
                },
            )],
            // Nothing displaced (a hole absorbed the promoted block):
            // the swap degenerates into a move; replacement is done.
            None => vec![self.to(reply, fin, CacheMsg::Completion { txn, acc_bank: acc })],
        }
    }

    /// Promotion: the displaced block descending back into the hit bank.
    fn on_swap_back(
        &mut self,
        txn: u32,
        index: usize,
        block: Block,
        acc: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        let tmr = self.place.timing.tag_match_replace;
        let fin = self.service(now, tmr);
        let displaced = self.bank.push_top(index, block);
        assert!(
            displaced.is_none(),
            "SwapBack must land in the extraction hole"
        );
        vec![self.to(
            reply,
            fin,
            CacheMsg::Completion {
                txn,
                acc_bank: acc + tmr,
            },
        )]
    }

    /// The fetched block arriving from memory at the MRU bank.
    #[allow(clippy::too_many_arguments)] // mirrors the message fields
    fn on_mem_reply(
        &mut self,
        txn: u32,
        index: usize,
        tag: u32,
        write: bool,
        acc_mem: u32,
        reply: Endpoint,
        now: u64,
    ) -> Vec<Outgoing> {
        assert!(
            self.place.position == 0 || self.ctx.scheme == Scheme::StaticNuca,
            "memory fills target the MRU bank (or the home bank under static NUCA)"
        );
        let t = self.place.timing;
        let fin = self.service(now, t.tag_match_replace);
        let index = if self.ctx.scheme == Scheme::StaticNuca {
            index / self.ctx.positions as usize
        } else {
            index
        };
        let ev = self.bank.push_top(index, Block { tag, dirty: write });
        if self.ctx.scheme.is_fast_lru() {
            assert!(
                ev.is_none(),
                "Fast-LRU: the MRU frame was emptied during the walk"
            );
        }
        let mut out = Vec::new();
        // Static NUCA never pushes a victim to another bank: it leaves
        // the cache straight away.
        let next_bank = if self.ctx.scheme.migrates() {
            self.ctx.next
        } else {
            None
        };
        let chain_started = match (ev, next_bank) {
            (Some(v), Some(next)) => {
                out.push(self.to(
                    next,
                    fin,
                    CacheMsg::EvictedBlock {
                        txn,
                        index: index as u32,
                        block: v,
                        acc_bank: t.tag_match_replace,
                        reply,
                    },
                ));
                true
            }
            (Some(v), None) => {
                if v.dirty {
                    out.push(self.to(self.ctx.memory, fin, CacheMsg::WriteBack { txn, block: v }));
                }
                false
            }
            (None, _) => false,
        };
        out.insert(
            0,
            self.to(
                reply,
                fin,
                CacheMsg::FillData {
                    txn,
                    chain_started,
                    acc_bank: t.tag_match_replace,
                    acc_mem,
                },
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucanet_noc::NodeId;
    use nucanet_timing::BankTiming;

    fn ep(n: u32) -> Endpoint {
        Endpoint::at(NodeId(n))
    }

    /// The controller interface all test requests reply to.
    fn core() -> Endpoint {
        ep(1)
    }

    fn agent(scheme: Scheme, position: u8, is_last: bool, ways: u32) -> BankAgent {
        let place = BankPlace {
            endpoint: ep(10 + position as u32),
            column: 0,
            position,
            ways,
            kb: 64 * ways,
            timing: BankTiming {
                tag_match: 2,
                tag_match_replace: 3,
            },
        };
        let ctx = BankCtx {
            scheme,
            memory: ep(2),
            next: if is_last {
                None
            } else {
                Some(ep(11 + position as u32))
            },
            prev: if position == 0 {
                None
            } else {
                Some(ep(9 + position as u32))
            },
            mru: ep(10),
            is_last,
            positions: 16,
        };
        BankAgent::new(place, ctx, Bank::new(place.ways as usize, 4))
    }

    fn walk(txn: u32, tag: u32, carry: Option<Block>) -> CacheMsg {
        CacheMsg::WalkRequest {
            txn,
            index: 0,
            tag,
            write: false,
            carry,
            acc_bank: 0,
            reply: core(),
        }
    }

    fn request(txn: u32, tag: u32) -> CacheMsg {
        CacheMsg::Request {
            txn,
            index: 0,
            tag,
            write: false,
            reply: core(),
        }
    }

    #[test]
    fn walk_miss_forwards_with_accumulated_latency() {
        let mut a = agent(Scheme::UnicastLru, 1, false, 1);
        let out = a.handle(&walk(7, 42, None), 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ready, 102, "tag match takes 2 cycles");
        match out[0].msg {
            CacheMsg::WalkRequest {
                txn: 7,
                tag: 42,
                carry: None,
                acc_bank: 2,
                ..
            } => {}
            ref m => panic!("expected forwarded walk, got {m:?}"),
        }
    }

    #[test]
    fn walk_miss_at_last_notifies_the_requesting_interface() {
        let mut a = agent(Scheme::UnicastLru, 15, true, 1);
        let out = a.handle(&walk(7, 42, None), 0);
        assert!(matches!(
            out[0].msg,
            CacheMsg::MissNotify {
                txn: 7,
                position: 15,
                chain_started: false,
                ..
            }
        ));
        assert_eq!(
            out[0].dest,
            Dest::unicast(core()),
            "reply routed to the carried endpoint"
        );
    }

    #[test]
    fn replies_follow_the_carried_endpoint_not_a_fixed_core() {
        // The CMP property: requests with different reply interfaces are
        // answered at those interfaces.
        let mut a = agent(Scheme::MulticastFastLru, 0, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 42,
                dirty: false,
            },
        );
        let other = ep(77);
        let out = a.handle(
            &CacheMsg::Request {
                txn: 1,
                index: 0,
                tag: 42,
                write: false,
                reply: other,
            },
            0,
        );
        assert_eq!(out[0].dest, Dest::unicast(other));
    }

    #[test]
    fn unicast_lru_hit_sends_data_and_mru_fill() {
        let mut a = agent(Scheme::UnicastLru, 3, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 42,
                dirty: false,
            },
        );
        let out = a.handle(&walk(9, 42, None), 0);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].msg,
            CacheMsg::HitData {
                txn: 9,
                position: 3,
                ..
            }
        ));
        assert!(matches!(
            out[1].msg,
            CacheMsg::MruFill {
                txn: 9,
                block: Block { tag: 42, .. },
                ..
            }
        ));
        assert_eq!(
            out[1].dest,
            Dest::unicast(ep(10)),
            "hit block goes to the MRU bank"
        );
        assert!(!a.bank().probe(0, 42), "hit block departed");
    }

    #[test]
    fn fast_lru_walk_carries_eviction_chain() {
        // MRU bank misses: evicts its block alongside the request.
        let mut a = agent(Scheme::UnicastFastLru, 0, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 5,
                dirty: false,
            },
        );
        let out = a.handle(&walk(1, 42, None), 0);
        assert_eq!(out.len(), 1);
        match &out[0].msg {
            CacheMsg::WalkRequest { carry: Some(b), .. } => assert_eq!(b.tag, 5),
            m => panic!("expected carrying walk, got {m:?}"),
        }
        assert_eq!(a.bank().occupancy(0), 0, "MRU frame now empty");
    }

    #[test]
    fn fast_lru_hit_absorbs_carry_and_moves_hit_block() {
        let mut a = agent(Scheme::UnicastFastLru, 2, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 42,
                dirty: false,
            },
        );
        let carry = Some(Block {
            tag: 7,
            dirty: true,
        });
        let out = a.handle(&walk(1, 42, carry), 0);
        assert_eq!(out.len(), 2);
        assert!(a.bank().probe(0, 7), "carried block installed");
        assert!(!a.bank().probe(0, 42), "hit block departed");
        assert!(matches!(out[1].msg, CacheMsg::MruFill { .. }));
    }

    #[test]
    fn fast_lru_last_bank_miss_writes_back_dirty_victim() {
        let mut a = agent(Scheme::UnicastFastLru, 15, true, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 9,
                dirty: true,
            },
        );
        let carry = Some(Block {
            tag: 7,
            dirty: false,
        });
        let out = a.handle(&walk(1, 42, carry), 0);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].msg, CacheMsg::MissNotify { .. }));
        assert!(matches!(
            out[1].msg,
            CacheMsg::WriteBack {
                block: Block {
                    tag: 9,
                    dirty: true
                },
                ..
            }
        ));
        assert!(a.bank().probe(0, 7));
    }

    #[test]
    fn multicast_fast_lru_mru_miss_starts_chain() {
        let mut a = agent(Scheme::MulticastFastLru, 0, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 5,
                dirty: false,
            },
        );
        let out = a.handle(&request(3, 42), 0);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].msg,
            CacheMsg::MissNotify {
                position: 0,
                chain_started: true,
                ..
            }
        ));
        assert!(matches!(
            out[1].msg,
            CacheMsg::EvictedBlock {
                block: Block { tag: 5, .. },
                ..
            }
        ));
    }

    #[test]
    fn multicast_fast_lru_cold_mru_miss_has_no_chain() {
        let mut a = agent(Scheme::MulticastFastLru, 0, false, 1);
        let out = a.handle(&request(3, 42), 0);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].msg,
            CacheMsg::MissNotify {
                position: 0,
                chain_started: false,
                ..
            }
        ));
    }

    #[test]
    fn evicted_block_chain_stops_at_hole() {
        let mut a = agent(Scheme::MulticastFastLru, 2, false, 2);
        a.seen_requests.insert(1);
        // One block + one hole: the push is absorbed.
        a.bank_mut().push_top(
            0,
            Block {
                tag: 9,
                dirty: false,
            },
        );
        let out = a.handle(
            &CacheMsg::EvictedBlock {
                txn: 1,
                index: 0,
                block: Block {
                    tag: 7,
                    dirty: false,
                },
                acc_bank: 0,
                reply: core(),
            },
            0,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].msg, CacheMsg::Completion { txn: 1, .. }));
    }

    #[test]
    fn evicted_block_at_last_writes_back() {
        let mut a = agent(Scheme::UnicastLru, 15, true, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 9,
                dirty: true,
            },
        );
        let out = a.handle(
            &CacheMsg::EvictedBlock {
                txn: 1,
                index: 0,
                block: Block {
                    tag: 7,
                    dirty: false,
                },
                acc_bank: 0,
                reply: core(),
            },
            0,
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].msg,
            CacheMsg::WriteBack {
                block: Block {
                    tag: 9,
                    dirty: true
                },
                ..
            }
        ));
        assert!(matches!(out[1].msg, CacheMsg::Completion { .. }));
    }

    #[test]
    fn early_evicted_block_waits_for_request() {
        let mut a = agent(Scheme::MulticastFastLru, 2, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 42,
                dirty: false,
            },
        );
        // EvictedBlock overtakes the request: must be deferred.
        let out = a.handle(
            &CacheMsg::EvictedBlock {
                txn: 5,
                index: 0,
                block: Block {
                    tag: 7,
                    dirty: false,
                },
                acc_bank: 0,
                reply: core(),
            },
            0,
        );
        assert!(out.is_empty());
        assert!(
            a.bank().probe(0, 42),
            "bank untouched until the request arrives"
        );
        // Now the request arrives: it is a hit; afterwards the deferred
        // block fills the hole.
        let out = a.handle(&request(5, 42), 0);
        assert!(out
            .iter()
            .any(|o| matches!(o.msg, CacheMsg::HitData { .. })));
        assert!(out
            .iter()
            .any(|o| matches!(o.msg, CacheMsg::Completion { .. })));
        assert!(a.bank().probe(0, 7));
        assert!(!a.bank().probe(0, 42));
    }

    #[test]
    fn promotion_swap_roundtrip() {
        // Bank 2 hits; block ascends to bank 1; displaced block returns.
        let mut hitter = agent(Scheme::UnicastPromotion, 2, false, 1);
        hitter.bank_mut().push_top(
            0,
            Block {
                tag: 42,
                dirty: false,
            },
        );
        let out = hitter.handle(&walk(1, 42, None), 0);
        let swap_up = out
            .iter()
            .find(|o| matches!(o.msg, CacheMsg::SwapUp { .. }))
            .unwrap();
        assert_eq!(
            swap_up.dest,
            Dest::unicast(ep(11)),
            "toward the closer bank"
        );

        let mut upper = agent(Scheme::UnicastPromotion, 1, false, 1);
        upper.bank_mut().push_top(
            0,
            Block {
                tag: 8,
                dirty: false,
            },
        );
        let out = upper.handle(&swap_up.msg.clone(), 0);
        assert!(matches!(
            out[0].msg,
            CacheMsg::SwapBack {
                block: Block { tag: 8, .. },
                ..
            }
        ));
        assert!(upper.bank().probe(0, 42));

        let out = hitter.handle(&out[0].msg.clone(), 10);
        assert!(matches!(out[0].msg, CacheMsg::Completion { .. }));
        assert!(hitter.bank().probe(0, 8));
    }

    #[test]
    fn mem_reply_installs_and_chains() {
        let mut a = agent(Scheme::UnicastLru, 0, false, 1);
        a.bank_mut().push_top(
            0,
            Block {
                tag: 3,
                dirty: false,
            },
        );
        let out = a.handle(
            &CacheMsg::MemReply {
                txn: 2,
                index: 0,
                tag: 42,
                write: true,
                acc_mem: 162,
                reply: core(),
            },
            0,
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].msg,
            CacheMsg::FillData {
                txn: 2,
                chain_started: true,
                acc_mem: 162,
                ..
            }
        ));
        assert!(matches!(
            out[1].msg,
            CacheMsg::EvictedBlock {
                block: Block { tag: 3, .. },
                ..
            }
        ));
        assert!(a.bank().probe(0, 42));
        // Write-allocate marks the block dirty.
        assert_eq!(
            a.bank().blocks(0)[0],
            Block {
                tag: 42,
                dirty: true
            }
        );
    }

    #[test]
    fn bank_busy_serialises_back_to_back_operations() {
        let mut a = agent(Scheme::UnicastLru, 1, false, 1);
        let o1 = a.handle(&walk(1, 5, None), 100);
        let o2 = a.handle(&walk(2, 6, None), 100);
        assert_eq!(o1[0].ready, 102);
        assert_eq!(o2[0].ready, 104, "second access waits for the first");
        assert_eq!(a.ops(), 2, "both array accesses counted");
    }

    #[test]
    #[should_panic(expected = "unexpected")]
    fn unexpected_message_panics() {
        let mut a = agent(Scheme::UnicastLru, 1, false, 1);
        let _ = a.handle(
            &CacheMsg::Completion {
                txn: 0,
                acc_bank: 0,
            },
            0,
        );
    }
}
