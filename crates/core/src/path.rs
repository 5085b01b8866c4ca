//! Sender-side multipath state: permuted path lists and the path
//! scoreboard.
//!
//! §3.1.1: "Each NDP sender takes the list of paths to a destination,
//! randomly permutes it, then sends packets on paths in this order. After
//! it has sent one packet on each path, it randomly permutes the list
//! again" — equal spreading without inadvertent synchronization between
//! senders.
//!
//! §3.2.3: the sender keeps per-path ACK/NACK/loss counts; when it
//! re-permutes, paths whose NACK or loss ratios are outliers are
//! *temporarily* removed. Counters decay at each permutation so an
//! excluded path is retried once the failure heals.
//!
//! Layout: a [`PathSet`] is one `Vec` of per-path records, record `i`
//! holding path `i`'s counters and cooldown and slot `i` of the current
//! permutation. Every NDP flow builds one at attach, so its whole path
//! state costs one allocation, whatever the path count.

use rand::rngs::SmallRng;
use rand::Rng;

/// Per-destination path list with scoreboard.
#[derive(Clone, Debug)]
pub struct PathSet {
    /// Record `i` holds path `i`'s scoreboard and, in `order`, the path
    /// at position `i` of the current permutation.
    paths: Vec<PathRecord>,
    pos: usize,
    /// Enables §3.2.3 outlier exclusion (Fig 22 ablates this).
    penalize: bool,
}

/// One path's scoreboard, plus one slot of the permutation.
#[derive(Clone, Copy, Debug)]
struct PathRecord {
    /// The path tag at this record's position of the permutation.
    order: u32,
    /// Remaining permutation rounds for which this path stays excluded.
    cooldown: u32,
    acks: u64,
    nacks: u64,
    losses: u64,
}

/// Rounds an outlier path sits out before being re-probed. Sixteen rounds
/// balances avoiding a sick path against re-concentrating load on the
/// healthy ones (excessive exclusion makes *other* paths look congested
/// and triggers cascading penalties — measured in Figure 22's ablation).
const EXCLUSION_ROUNDS: u32 = 16;

impl PathSet {
    pub fn new(n_paths: u32, penalize: bool) -> PathSet {
        assert!(n_paths >= 1);
        let paths: Vec<PathRecord> = (0..n_paths)
            .map(|order| PathRecord {
                order,
                cooldown: 0,
                acks: 0,
                nacks: 0,
                losses: 0,
            })
            .collect();
        PathSet {
            pos: paths.len(), // force a shuffle on first use
            paths,
            penalize,
        }
    }

    pub fn n_paths(&self) -> u32 {
        self.paths.len() as u32
    }

    /// Next path tag to send on.
    pub fn next(&mut self, rng: &mut SmallRng) -> u32 {
        if self.paths.len() == 1 {
            return 0;
        }
        loop {
            if self.pos >= self.paths.len() {
                self.reshuffle(rng);
            }
            let p = self.paths[self.pos].order;
            self.pos += 1;
            if self.paths[p as usize].cooldown == 0 {
                return p;
            }
        }
    }

    fn reshuffle(&mut self, rng: &mut SmallRng) {
        // Fisher-Yates over the permutation slots only.
        for i in (1..self.paths.len()).rev() {
            let j = rng.gen_range(0..=i);
            let (a, b) = (self.paths[i].order, self.paths[j].order);
            self.paths[i].order = b;
            self.paths[j].order = a;
        }
        self.pos = 0;
        for p in &mut self.paths {
            p.cooldown = p.cooldown.saturating_sub(1);
        }
        if self.penalize {
            self.recompute_exclusions();
        }
        // Exponential decay makes exclusion temporary (§3.2.3:
        // "temporarily removes outliers").
        for p in &mut self.paths {
            p.acks -= p.acks / 8;
            p.nacks -= p.nacks / 8;
            p.losses -= p.losses / 8;
        }
    }

    /// Path `i`'s NACK ratio, once it has enough feedback to judge.
    fn nack_ratio(&self, i: usize) -> Option<f64> {
        let p = &self.paths[i];
        let total = p.acks + p.nacks;
        (total >= 8).then(|| p.nacks as f64 / total as f64)
    }

    /// Runs once per permutation round, so it allocates nothing: one pass
    /// sums the scoreboard, and whether a path is an outlier is a pure
    /// function of its own counters and those sums, asked again where it
    /// is needed rather than stored.
    fn recompute_exclusions(&mut self) {
        let n = self.paths.len();
        // NACK-ratio per path, compared against the *other* paths' mean:
        // during a legitimate incast every path NACKs heavily, so a path is
        // only an outlier if it NACKs markedly more than its peers.
        let (mut sampled, mut sum, mut total_loss) = (0usize, 0.0f64, 0u64);
        for i in 0..n {
            if let Some(r) = self.nack_ratio(i) {
                sampled += 1;
                sum += r;
            }
            total_loss += self.paths[i].losses;
        }
        let outlier = |ps: &PathSet, i: usize| {
            let nack_outlier = sampled >= 2
                && ps.nack_ratio(i).is_some_and(|r| {
                    let mean_other = (sum - r) / (sampled - 1) as f64;
                    r > 0.20 + 2.0 * mean_other
                });
            let loss = ps.paths[i].losses;
            let mean_other_loss = (total_loss - loss) as f64 / (n - 1).max(1) as f64;
            nack_outlier || (loss >= 3 && loss as f64 > 4.0 * mean_other_loss.max(0.25))
        };
        // Never exclude everything.
        let excluded_after = (0..n)
            .filter(|&i| self.paths[i].cooldown > 0 || outlier(self, i))
            .count();
        if excluded_after < n {
            for i in 0..n {
                // Zeroing path i's counters leaves every later path's
                // verdict alone: each reads only its own and the sums.
                if outlier(self, i) {
                    // Forget the bad history so re-probing starts clean.
                    let order = self.paths[i].order;
                    self.paths[i] = PathRecord {
                        order,
                        cooldown: EXCLUSION_ROUNDS,
                        acks: 0,
                        nacks: 0,
                        losses: 0,
                    };
                }
            }
        }
    }

    pub fn on_ack(&mut self, path: u32) {
        if let Some(p) = self.paths.get_mut(path as usize) {
            p.acks += 1;
        }
    }

    pub fn on_nack(&mut self, path: u32) {
        if let Some(p) = self.paths.get_mut(path as usize) {
            p.nacks += 1;
        }
    }

    pub fn on_loss(&mut self, path: u32) {
        if let Some(p) = self.paths.get_mut(path as usize) {
            p.losses += 1;
        }
    }

    pub fn is_excluded(&self, path: u32) -> bool {
        self.paths[path as usize].cooldown > 0
    }

    /// Pick a path different from `avoid` (retransmissions always use a new
    /// path, §3.2.3).
    pub fn next_avoiding(&mut self, rng: &mut SmallRng, avoid: u32) -> u32 {
        if self.paths.len() == 1 {
            return 0;
        }
        for _ in 0..2 * self.paths.len() + 2 {
            let p = self.next(rng);
            if p != avoid {
                return p;
            }
        }
        avoid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn covers_all_paths_each_round() {
        let mut ps = PathSet::new(16, true);
        let mut r = rng();
        for _round in 0..10 {
            let mut seen = [false; 16];
            for _ in 0..16 {
                seen[ps.next(&mut r) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "each round visits every path once");
        }
    }

    #[test]
    fn rounds_differ_between_permutations() {
        let mut ps = PathSet::new(16, true);
        let mut r = rng();
        let round1: Vec<u32> = (0..16).map(|_| ps.next(&mut r)).collect();
        let round2: Vec<u32> = (0..16).map(|_| ps.next(&mut r)).collect();
        assert_ne!(round1, round2, "permutation should change between rounds");
    }

    #[test]
    fn single_path_is_trivial() {
        let mut ps = PathSet::new(1, true);
        let mut r = rng();
        for _ in 0..5 {
            assert_eq!(ps.next(&mut r), 0);
        }
        assert_eq!(ps.next_avoiding(&mut r, 0), 0);
    }

    #[test]
    fn nack_outlier_gets_excluded_then_recovers() {
        let mut ps = PathSet::new(4, true);
        let mut r = rng();
        // Path 3 NACKs everything, others are clean.
        for _ in 0..50 {
            ps.on_nack(3);
            ps.on_ack(0);
            ps.on_ack(1);
            ps.on_ack(2);
        }
        // Trigger a reshuffle.
        for _ in 0..8 {
            ps.next(&mut r);
        }
        assert!(ps.is_excluded(3));
        let picks: Vec<u32> = (0..30).map(|_| ps.next(&mut r)).collect();
        assert!(
            picks.iter().all(|&p| p != 3),
            "excluded path must not be used"
        );
        // Stop the pain; decay should eventually re-admit path 3.
        for _ in 0..2000 {
            ps.next(&mut r);
            ps.on_ack(0);
            ps.on_ack(1);
            ps.on_ack(2);
        }
        assert!(!ps.is_excluded(3), "exclusion must be temporary");
    }

    #[test]
    fn uniform_incast_nacks_do_not_exclude() {
        // During incast every path NACKs heavily; none should be excluded.
        let mut ps = PathSet::new(8, true);
        let mut r = rng();
        for _ in 0..100 {
            for p in 0..8 {
                ps.on_nack(p);
                if p % 2 == 0 {
                    ps.on_ack(p);
                }
            }
        }
        for _ in 0..16 {
            ps.next(&mut r);
        }
        for p in 0..8 {
            assert!(!ps.is_excluded(p), "path {p} wrongly excluded");
        }
    }

    #[test]
    fn loss_outlier_excluded() {
        let mut ps = PathSet::new(4, true);
        let mut r = rng();
        for _ in 0..10 {
            ps.on_loss(2);
        }
        for p in 0..4 {
            for _ in 0..20 {
                ps.on_ack(p);
            }
        }
        for _ in 0..8 {
            ps.next(&mut r);
        }
        assert!(ps.is_excluded(2));
    }

    #[test]
    fn penalty_disabled_never_excludes() {
        let mut ps = PathSet::new(4, false);
        let mut r = rng();
        for _ in 0..100 {
            ps.on_nack(3);
            ps.on_ack(0);
        }
        for _ in 0..40 {
            ps.next(&mut r);
        }
        assert!(!ps.is_excluded(3));
    }

    #[test]
    fn next_avoiding_avoids() {
        let mut ps = PathSet::new(8, true);
        let mut r = rng();
        for _ in 0..100 {
            assert_ne!(ps.next_avoiding(&mut r, 5), 5);
        }
    }

    #[test]
    fn never_excludes_all_paths() {
        let mut ps = PathSet::new(2, true);
        let mut r = rng();
        for _ in 0..100 {
            ps.on_nack(0);
            ps.on_nack(1);
            ps.on_loss(0);
            ps.on_loss(1);
        }
        // Must still be able to pick something.
        let p = ps.next(&mut r);
        assert!(p < 2);
    }
}
