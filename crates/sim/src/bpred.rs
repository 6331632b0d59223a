//! Branch prediction: hybrid bimodal/gshare direction predictor, a
//! set-associative branch target buffer, and a return address stack.

use crate::config::BPredConfig;
use serde::{Deserialize, Serialize};

/// Direction/target prediction statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BPredStats {
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Conditional direction mispredictions.
    pub dir_mispredicts: u64,
    /// Taken transfers whose target missed in the BTB.
    pub btb_misses: u64,
    /// Return-address-stack mispredictions.
    pub ras_mispredicts: u64,
}

fn ctr_update(ctr: &mut u8, taken: bool) {
    if taken {
        *ctr = (*ctr + 1).min(3);
    } else {
        *ctr = ctr.saturating_sub(1);
    }
}

/// Hybrid bimodal/gshare direction predictor with a meta chooser.
#[derive(Clone, Debug)]
pub struct DirectionPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    meta: Vec<u8>,
    ghist: u64,
    hist_mask: u64,
    stats: BPredStats,
}

impl DirectionPredictor {
    /// Creates a predictor per the configuration, counters initialized
    /// weakly-not-taken.
    pub fn new(cfg: &BPredConfig) -> DirectionPredictor {
        DirectionPredictor {
            bimodal: vec![1; 1 << cfg.bimodal_bits],
            gshare: vec![1; 1 << cfg.gshare_bits],
            meta: vec![2; 1 << cfg.meta_bits], // slight gshare preference
            ghist: 0,
            hist_mask: (1u64 << cfg.hist_len) - 1,
            stats: BPredStats::default(),
        }
    }

    fn bim_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bimodal.len() - 1)
    }

    fn gs_idx(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.ghist) as usize) & (self.gshare.len() - 1)
    }

    fn meta_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.meta.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`, then
    /// immediately trains with the actual outcome (trace-driven use:
    /// prediction and resolution happen on the committed path).
    ///
    /// Returns the *predicted* direction.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        self.stats.cond_branches += 1;
        let bi = self.bim_idx(pc);
        let gi = self.gs_idx(pc);
        let mi = self.meta_idx(pc);
        let bim_pred = self.bimodal[bi] >= 2;
        let gs_pred = self.gshare[gi] >= 2;
        let pred = if self.meta[mi] >= 2 {
            gs_pred
        } else {
            bim_pred
        };
        if pred != taken {
            self.stats.dir_mispredicts += 1;
        }
        // Train meta toward the component that was right.
        if bim_pred != gs_pred {
            ctr_update(&mut self.meta[mi], gs_pred == taken);
        }
        ctr_update(&mut self.bimodal[bi], taken);
        ctr_update(&mut self.gshare[gi], taken);
        self.ghist = ((self.ghist << 1) | taken as u64) & self.hist_mask;
        pred
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BPredStats {
        self.stats
    }

    /// Charges a RAS misprediction to the statistics.
    pub fn note_ras_mispredict(&mut self) {
        self.stats.ras_mispredicts += 1;
    }

    /// Charges a BTB target miss to the statistics.
    pub fn note_btb_miss(&mut self) {
        self.stats.btb_misses += 1;
    }
}

/// A set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    /// `(tag, target)` per way; tag `u64::MAX` = invalid.
    entries: Vec<(u64, u64)>,
    lru: Vec<u64>,
    stamp: u64,
    sets: usize,
    assoc: usize,
}

impl Btb {
    /// Creates an empty BTB.
    pub fn new(cfg: &BPredConfig) -> Btb {
        let sets = cfg.btb_sets as usize;
        let assoc = cfg.btb_assoc as usize;
        Btb {
            entries: vec![(u64::MAX, 0); sets * assoc],
            lru: vec![0; sets * assoc],
            stamp: 0,
            sets,
            assoc,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    /// Looks up the predicted target for the transfer at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.stamp += 1;
        let base = self.set_of(pc) * self.assoc;
        let tag = pc >> 2;
        for w in 0..self.assoc {
            if self.entries[base + w].0 == tag {
                self.lru[base + w] = self.stamp;
                return Some(self.entries[base + w].1);
            }
        }
        None
    }

    /// Installs/updates the target for the transfer at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let base = self.set_of(pc) * self.assoc;
        let tag = pc >> 2;
        // Update in place if present.
        for w in 0..self.assoc {
            if self.entries[base + w].0 == tag {
                self.entries[base + w].1 = target;
                self.lru[base + w] = self.stamp;
                return;
            }
        }
        let victim = (0..self.assoc)
            .min_by_key(|&w| self.lru[base + w])
            .expect("assoc >= 1");
        self.entries[base + victim] = (tag, target);
        self.lru[base + victim] = self.stamp;
    }
}

/// A return address stack.
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<u64>,
    cap: usize,
}

impl Ras {
    /// Creates an empty RAS with the given capacity.
    pub fn new(entries: u32) -> Ras {
        Ras {
            stack: Vec::new(),
            cap: entries.max(1) as usize,
        }
    }

    /// Pushes a return address (oldest entry drops when full).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.cap {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pred() -> DirectionPredictor {
        DirectionPredictor::new(&BPredConfig::paper())
    }

    #[test]
    fn learns_constant_direction() {
        let mut p = pred();
        for _ in 0..8 {
            p.predict_and_train(0x1000, true);
        }
        assert!(p.predict_and_train(0x1000, true));
        // After warmup, a monotone branch is always predicted correctly.
        let before = p.stats().dir_mispredicts;
        for _ in 0..100 {
            p.predict_and_train(0x1000, true);
        }
        assert_eq!(p.stats().dir_mispredicts, before);
    }

    #[test]
    fn learns_periodic_pattern_via_history() {
        let mut p = pred();
        // Pattern T T T N repeating: gshare should capture it.
        let pattern = [true, true, true, false];
        for i in 0..400 {
            p.predict_and_train(0x2000, pattern[i % 4]);
        }
        let before = p.stats().dir_mispredicts;
        for i in 0..200 {
            p.predict_and_train(0x2000, pattern[i % 4]);
        }
        let steady = p.stats().dir_mispredicts - before;
        assert!(steady <= 4, "steady-state mispredicts {steady} too high");
    }

    #[test]
    fn random_branch_mispredicts_often() {
        let mut p = pred();
        // A branch taken iff popcount parity of a pseudo-random word:
        // effectively unpredictable.
        let mut x = 0x12345678u64;
        let mut miss = 0;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (x >> 62) & 1 == 1;
            if p.predict_and_train(0x3000, t) != t {
                miss += 1;
            }
        }
        assert!(
            miss > 600,
            "unpredictable branch mispredicted only {miss}/2000"
        );
    }

    #[test]
    fn btb_fills_and_replaces() {
        let mut b = Btb::new(&BPredConfig::paper());
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x9000);
        assert_eq!(b.lookup(0x1000), Some(0x9000));
        b.update(0x1000, 0x9004);
        assert_eq!(b.lookup(0x1000), Some(0x9004));
    }

    #[test]
    fn ras_round_trip_and_overflow() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // drops 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
