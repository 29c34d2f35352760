//! [`ClusterSim`](crate::ClusterSim)'s pending queue: the keys in sorted
//! order, cut into chunks that summarise their keys' demands.
//!
//! The scheduling pass walks the queue from the front. Each chunk keeps the
//! component-wise minimum demand of its keys and two bit masks, of the
//! keys enqueued with a checkpoint and of the keys holding a reservation,
//! so the pass can tell from the summary alone that no key in the rest of
//! a chunk can act, and pass the whole run with arithmetic (see
//! `ClusterSim::next_active_key`).

use std::cmp::Reverse;

use cbp_cluster::Resources;

/// Pending-queue key: highest priority first, then the discipline key
/// (0 under FIFO; the task's index within its job under Fair, which
/// interleaves jobs round-robin), then arrival order, then the task.
pub(crate) type PendingKey = (Reverse<u8>, u32, u32, u32);

/// Most keys one chunk holds (one bit each in its masks). A full
/// chunk splits before it grows, so each chunk's buffer is allocated once
/// at this capacity and never moves.
pub(crate) const CHUNK: usize = 64;

/// One queued task: its key plus what the chunk summaries need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Queued {
    pub key: PendingKey,
    /// The task's demand, constant while it is queued.
    pub demand: Resources,
    /// Whether the task had a checkpoint when it was enqueued. A queued
    /// task can lose its checkpoint but never gain one, so this is an upper
    /// bound of its checkpoint state.
    pub ckpt: bool,
}

/// What a chunk stores per key; the checkpoint and holder flags live in
/// the chunk's masks.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: PendingKey,
    demand: Resources,
}

/// A sorted run of at most [`CHUNK`] keys, never empty.
#[derive(Debug)]
pub(crate) struct Chunk {
    entries: Vec<Entry>,
    /// The component-wise minimum of the entries' demands.
    min: Resources,
    /// Bit `i` is set iff entry `i` was enqueued with a checkpoint.
    ckpt_mask: u64,
    /// Bit `i` is set iff entry `i`'s task holds a reservation.
    hold_mask: u64,
}

impl Chunk {
    fn new(entries: Vec<Entry>, ckpt_mask: u64, hold_mask: u64) -> Chunk {
        let mut chunk = Chunk {
            entries,
            min: Resources::ZERO,
            ckpt_mask,
            hold_mask,
        };
        chunk.summarise();
        chunk
    }

    /// Recomputes the minimum demand (over at most [`CHUNK`] entries).
    fn summarise(&mut self) {
        let mut entries = self.entries.iter();
        self.min = entries.next().map_or(Resources::ZERO, |e| e.demand);
        for e in entries {
            self.min = meet(&self.min, &e.demand);
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Key `at`.
    pub fn key(&self, at: usize) -> PendingKey {
        self.entries[at].key
    }

    /// Key `at` with its demand and checkpoint flag.
    pub fn get(&self, at: usize) -> Queued {
        let e = self.entries[at];
        Queued {
            key: e.key,
            demand: e.demand,
            ckpt: self.ckpt_mask >> at & 1 == 1,
        }
    }

    /// The component-wise minimum of the keys' demands.
    pub fn min(&self) -> Resources {
        self.min
    }

    /// True if a key at `at` or after it holds a reservation.
    pub fn holds_from(&self, at: usize) -> bool {
        self.hold_mask >> at != 0
    }

    /// The positions in `range` of the keys enqueued with a checkpoint,
    /// in order.
    pub fn ckpt_positions(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = usize> {
        let from_start = u64::MAX.checked_shl(range.start as u32).unwrap_or(0);
        let below_end = u64::MAX
            .checked_shl(range.end as u32)
            .map_or(u64::MAX, |m| !m);
        let mut mask = self.ckpt_mask & from_start & below_end;
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let at = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                at
            })
        })
    }

    fn last(&self) -> &PendingKey {
        &self.entries[self.entries.len() - 1].key
    }
}

/// The component-wise minimum of two vectors.
fn meet(a: &Resources, b: &Resources) -> Resources {
    Resources::new(a.cpu_milli().min(b.cpu_milli()), a.mem().min(b.mem()))
}

/// The bits of `mask` below bit `at` (`at` < 64).
fn below(mask: u64, at: usize) -> u64 {
    mask & ((1u64 << at) - 1)
}

/// `mask` with bit `flag` inserted at `at`, the bits from `at` up moved
/// one place higher.
fn insert_bit(mask: u64, at: usize, flag: bool) -> u64 {
    below(mask, at) | u64::from(flag) << at | (mask ^ below(mask, at)) << 1
}

/// `mask` with bit `at` removed, the bits above it moved one place lower.
fn remove_bit(mask: u64, at: usize) -> u64 {
    below(mask, at) | (mask >> 1 & !below(u64::MAX, at))
}

/// A place in the queue: key `at` of chunk `chunk`. The end of the queue
/// is `chunk == chunks().len()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pos {
    pub chunk: usize,
    pub at: usize,
}

/// The sorted, chunked pending queue.
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    chunks: Vec<Chunk>,
    len: usize,
    /// Emptied chunk buffers, reused before a new one is allocated. Chunks
    /// split and drain all run long; handing their 2 KiB buffers back to
    /// the allocator each time raised the process's peak RSS.
    spare: Vec<Vec<Entry>>,
}

impl PendingQueue {
    /// Number of queued keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Every queued key, in order.
    pub fn iter(&self) -> impl Iterator<Item = Queued> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| (0..c.len()).map(move |at| c.get(at)))
    }

    /// The keys marked as holding a reservation, in order.
    #[cfg(test)]
    pub fn holders(&self) -> impl Iterator<Item = PendingKey> + '_ {
        self.chunks.iter().flat_map(|c| {
            (0..c.len())
                .filter(move |&at| c.hold_mask >> at & 1 == 1)
                .map(move |at| c.key(at))
        })
    }

    /// The chunks, in order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// The position of the first key after `cursor`, or of the first key
    /// without one.
    pub fn seek(&self, cursor: Option<&PendingKey>) -> Pos {
        let Some(c) = cursor else {
            return Pos { chunk: 0, at: 0 };
        };
        let chunk = self.chunks.partition_point(|ch| ch.last() <= c);
        let at = self
            .chunks
            .get(chunk)
            .map_or(0, |ch| ch.entries.partition_point(|e| e.key <= *c));
        Pos { chunk, at }
    }

    /// The position after `pos`.
    pub fn next(&self, pos: Pos) -> Pos {
        if pos.at + 1 < self.chunks[pos.chunk].len() {
            Pos {
                chunk: pos.chunk,
                at: pos.at + 1,
            }
        } else {
            Pos {
                chunk: pos.chunk + 1,
                at: 0,
            }
        }
    }

    /// Queues `q`, whose key must not be queued already.
    pub fn insert(&mut self, q: Queued) {
        self.len += 1;
        let entry = Entry {
            key: q.key,
            demand: q.demand,
        };
        let flag = u64::from(q.ckpt);
        if self.chunks.is_empty() {
            let entries = self.buffer_with(entry);
            self.chunks.push(Chunk::new(entries, flag, 0));
            return;
        }
        // The first chunk whose last key is not smaller, else the last.
        let mut ci = self
            .chunks
            .partition_point(|ch| *ch.last() < q.key)
            .min(self.chunks.len() - 1);
        let mut at = self.chunks[ci].entries.partition_point(|e| e.key < q.key);
        debug_assert!(
            self.chunks[ci]
                .entries
                .get(at)
                .is_none_or(|e| e.key != q.key),
            "key {:?} queued twice",
            q.key
        );
        // A key between two chunks joins the earlier one if it has room.
        if at == 0 && ci > 0 && self.chunks[ci - 1].len() < CHUNK {
            ci -= 1;
            at = self.chunks[ci].len();
        }
        if self.chunks[ci].len() == CHUNK {
            if at == CHUNK {
                // Appending past a full last chunk: start a new one rather
                // than leave two half-full chunks behind.
                let entries = self.buffer_with(entry);
                self.chunks.push(Chunk::new(entries, flag, 0));
                return;
            }
            let half = CHUNK / 2;
            let mut tail = self.buffer();
            let chunk = &mut self.chunks[ci];
            tail.extend(chunk.entries.drain(half..));
            let (ckpt, hold) = (chunk.ckpt_mask >> half, chunk.hold_mask >> half);
            chunk.ckpt_mask = below(chunk.ckpt_mask, half);
            chunk.hold_mask = below(chunk.hold_mask, half);
            chunk.summarise();
            self.chunks.insert(ci + 1, Chunk::new(tail, ckpt, hold));
            if at > half {
                ci += 1;
                at -= half;
            }
        }
        let chunk = &mut self.chunks[ci];
        chunk.entries.insert(at, entry);
        chunk.min = meet(&chunk.min, &q.demand);
        chunk.ckpt_mask = insert_bit(chunk.ckpt_mask, at, q.ckpt);
        chunk.hold_mask = insert_bit(chunk.hold_mask, at, false);
    }

    /// Marks whether queued `key`'s task holds a reservation; returns
    /// whether `key` was queued (a key that is not is left alone).
    pub fn set_holder(&mut self, key: &PendingKey, holds: bool) -> bool {
        let Some(Pos { chunk: ci, at }) = self.find(key) else {
            return false;
        };
        let chunk = &mut self.chunks[ci];
        chunk.hold_mask = chunk.hold_mask & !(1 << at) | u64::from(holds) << at;
        true
    }

    /// Where `key` is queued, if it is.
    fn find(&self, key: &PendingKey) -> Option<Pos> {
        let chunk = self.chunks.partition_point(|ch| ch.last() < key);
        let at = self
            .chunks
            .get(chunk)?
            .entries
            .binary_search_by(|e| e.key.cmp(key))
            .ok()?;
        Some(Pos { chunk, at })
    }

    /// Removes `key`; returns whether it was queued.
    pub fn remove(&mut self, key: &PendingKey) -> bool {
        let Some(Pos { chunk: ci, at }) = self.find(key) else {
            return false;
        };
        let chunk = &mut self.chunks[ci];
        chunk.entries.remove(at);
        self.len -= 1;
        if chunk.entries.is_empty() {
            let emptied = self.chunks.remove(ci);
            self.spare.push(emptied.entries);
            return true;
        }
        chunk.ckpt_mask = remove_bit(chunk.ckpt_mask, at);
        chunk.hold_mask = remove_bit(chunk.hold_mask, at);
        chunk.summarise();
        // Fold a small chunk into a neighbour, so the chunk count stays
        // proportional to the key count as keys drain.
        let small = |c: &Chunk, d: &Chunk| c.len() + d.len() <= CHUNK / 2;
        if ci + 1 < self.chunks.len() && small(&self.chunks[ci], &self.chunks[ci + 1]) {
            self.merge_next(ci);
        } else if ci > 0 && small(&self.chunks[ci - 1], &self.chunks[ci]) {
            self.merge_next(ci - 1);
        }
        true
    }

    /// Moves chunk `ci + 1`'s keys to the end of chunk `ci`.
    fn merge_next(&mut self, ci: usize) {
        let mut next = self.chunks.remove(ci + 1);
        let chunk = &mut self.chunks[ci];
        chunk.ckpt_mask |= next.ckpt_mask << chunk.len();
        chunk.hold_mask |= next.hold_mask << chunk.len();
        chunk.entries.extend_from_slice(&next.entries);
        chunk.min = meet(&chunk.min, &next.min);
        next.entries.clear();
        self.spare.push(next.entries);
    }

    /// An empty chunk buffer at its final capacity.
    fn buffer(&mut self) -> Vec<Entry> {
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(CHUNK))
    }

    /// A chunk buffer holding `entry`.
    fn buffer_with(&mut self, entry: Entry) -> Vec<Entry> {
        let mut entries = self.buffer();
        entries.push(entry);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_simkit::units::ByteSize;
    use cbp_simkit::SimRng;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Checks every structural invariant and summary of `q` against the
    /// models (the queued keys and those marked as holders), re-deriving
    /// the summaries from scratch.
    fn check(
        q: &PendingQueue,
        model: &BTreeMap<PendingKey, Queued>,
        held: &BTreeSet<PendingKey>,
    ) -> Result<(), String> {
        let keys: Vec<Queued> = q.iter().collect();
        let want: Vec<Queued> = model.values().copied().collect();
        if keys != want {
            return Err(format!("order: {keys:?} vs model {want:?}"));
        }
        if q.len() != model.len() {
            return Err(format!("len {} vs model {}", q.len(), model.len()));
        }
        if q.spare
            .iter()
            .any(|b| !b.is_empty() || b.capacity() != CHUNK)
        {
            return Err("a spare buffer is in use or resized".into());
        }
        for (i, c) in q.chunks().iter().enumerate() {
            if c.len() == 0 || c.len() > CHUNK {
                return Err(format!("chunk {i} holds {} keys", c.len()));
            }
            if c.entries.capacity() != CHUNK {
                return Err(format!("chunk {i} has capacity {}", c.entries.capacity()));
            }
            for mask in [c.ckpt_mask, c.hold_mask] {
                if mask.checked_shr(c.len() as u32).unwrap_or(0) != 0 {
                    return Err(format!("chunk {i} mask {mask:#x} past its keys"));
                }
            }
            for at in [0, c.len() / 2, c.len() - 1] {
                let want = (at..c.len()).any(|j| held.contains(&c.key(j)));
                if c.holds_from(at) != want {
                    return Err(format!("chunk {i} holds from {at}: {want} expected"));
                }
            }
            let keys: Vec<Queued> = (0..c.len()).map(|at| c.get(at)).collect();
            let cpu = keys.iter().map(|k| k.demand.cpu_milli()).min().unwrap();
            let mem = keys.iter().map(|k| k.demand.mem()).min().unwrap();
            if c.min() != Resources::new(cpu, mem) {
                return Err(format!("chunk {i} min {} vs {cpu}/{mem}", c.min()));
            }
            let start = c.len() / 3;
            let flagged: Vec<usize> = (start..c.len()).filter(|&j| keys[j].ckpt).collect();
            let listed: Vec<usize> = c.ckpt_positions(start..c.len()).collect();
            if listed != flagged {
                return Err(format!(
                    "chunk {i} ckpt positions {listed:?} vs {flagged:?}"
                ));
            }
        }
        let flagged: Vec<PendingKey> = q.holders().collect();
        let want: Vec<PendingKey> = held.iter().copied().collect();
        if flagged != want {
            return Err(format!("holders {flagged:?} vs model {want:?}"));
        }
        Ok(())
    }

    /// The key at `pos`, if any.
    fn at(q: &PendingQueue, pos: Pos) -> Option<PendingKey> {
        q.chunks().get(pos.chunk).map(|c| c.key(pos.at))
    }

    fn random_key(rng: &mut SimRng) -> PendingKey {
        (
            Reverse(rng.index(4) as u8),
            rng.index(3) as u32,
            rng.index(400) as u32,
            rng.index(1000) as u32,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert/remove/seek/holder-marking sequences against a
        /// `BTreeSet` model. Few distinct priorities and discipline keys
        /// make keys cluster, so splits, appends, merges and chunk
        /// removals all happen. The stub runner does not shrink, so a
        /// failure names the seed that replays it.
        #[test]
        fn chunked_queue_matches_btreeset(seed in any::<u64>()) {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut q = PendingQueue::default();
            let mut model: BTreeMap<PendingKey, Queued> = BTreeMap::new();
            let mut held: BTreeSet<PendingKey> = BTreeSet::new();
            // Grow to a few hundred keys, then drain, twice.
            let phases = [(600, 80), (200, 10), (600, 70), (400, 5)];
            for (step, insert_pct) in phases
                .iter()
                .flat_map(|&(steps, pct)| std::iter::repeat_n(pct, steps))
                .enumerate()
            {
                if rng.index(100) < insert_pct || model.is_empty() {
                    let key = random_key(&mut rng);
                    if model.contains_key(&key) {
                        continue;
                    }
                    let demand = Resources::new(
                        rng.index(8) as u64 * 250,
                        ByteSize::from_mb(rng.index(8) as u64 * 128),
                    );
                    let item = Queued { key, demand, ckpt: rng.index(3) == 0 };
                    q.insert(item);
                    model.insert(key, item);
                } else {
                    let key = if rng.index(8) == 0 {
                        random_key(&mut rng)
                    } else {
                        *model.keys().nth(rng.index(model.len())).unwrap()
                    };
                    prop_assert_eq!(
                        q.remove(&key),
                        model.remove(&key).is_some(),
                        "seed {seed} step {step}: remove {key:?}"
                    );
                    held.remove(&key);
                }
                // Mark or unmark a key, queued or not.
                if !model.is_empty() && rng.index(3) == 0 {
                    let key = if rng.index(8) == 0 {
                        random_key(&mut rng)
                    } else {
                        *model.keys().nth(rng.index(model.len())).unwrap()
                    };
                    let holds = rng.index(2) == 0;
                    let queued = model.contains_key(&key);
                    prop_assert_eq!(
                        q.set_holder(&key, holds),
                        queued,
                        "seed {seed} step {step}: mark {key:?}"
                    );
                    if queued && holds {
                        held.insert(key);
                    } else {
                        held.remove(&key);
                    }
                }
                if let Err(e) = check(&q, &model, &held) {
                    prop_assert!(false, "seed {seed} step {step}: {e}");
                }
                let set: BTreeSet<PendingKey> = model.keys().copied().collect();
                let cursors = [
                    None,
                    Some(random_key(&mut rng)),
                    set.iter().nth(rng.index(set.len().max(1))).copied(),
                ];
                for cursor in cursors {
                    let want = match cursor {
                        None => set.iter().next(),
                        Some(c) => set
                            .range((std::ops::Bound::Excluded(c), std::ops::Bound::Unbounded))
                            .next(),
                    };
                    let pos = q.seek(cursor.as_ref());
                    prop_assert_eq!(
                        at(&q, pos),
                        want.copied(),
                        "seed {seed} step {step}: seek after {cursor:?}"
                    );
                    if let Some(&k) = want {
                        let after = set
                            .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
                            .next()
                            .copied();
                        prop_assert_eq!(
                            at(&q, q.next(pos)),
                            after,
                            "seed {seed} step {step}: next after {k:?}"
                        );
                    }
                }
            }
        }
    }
}
