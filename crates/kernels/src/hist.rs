//! Lane-batched frequency counting for the entropy stage.
//!
//! A Huffman histogram over quantization codes is a serial chain in
//! disguise: runs of equal symbols (the common case after a good
//! predictor) make every increment load the counter the previous
//! iteration just stored, so the loop runs at store-forwarding latency,
//! not throughput. Splitting the count across [`HIST_LANES`] partial
//! tables — symbol `i` increments table `i % HIST_LANES` — breaks the
//! dependence: consecutive equal symbols hit different cache lines and
//! the four chains retire in parallel.
//!
//! The split is the interleaved Huffman coder's: its sub-stream `j` holds
//! the symbols at positions `i % 4 == j`, so each table is one
//! sub-stream's histogram, and the coder sizes every sub-stream exactly
//! from the per-lane counts [`LaneHistogram::count`] returns beside the
//! totals.
//!
//! The merge is exact, not approximate: per-symbol totals are the sum of
//! the lane counts clamped to `u32::MAX`, which equals the reference
//! path's per-increment `saturating_add` result for any input (if any
//! lane saturated, the total is ≥ `u32::MAX` on both paths). Touched-slot
//! bookkeeping mirrors the reference: only slots that were actually hit
//! are visited and re-zeroed, so the tables stay resident and all-zero
//! between calls no matter how the nominal alphabet varies.

/// Number of partial histogram tables (and the symbol-position stride):
/// the Huffman coder's sub-stream count.
pub const HIST_LANES: usize = 4;

/// Reusable lane-table storage for [`LaneHistogram::count`]. All slots are
/// zero between calls; the guarantee is maintained by clearing exactly the
/// touched slots under the same layout that set them.
#[derive(Debug, Default)]
pub struct LaneHistogram {
    /// `HIST_LANES` dense tables, laid out `[lane * alphabet + symbol]`.
    tables: Vec<u32>,
    /// Symbols whose slot in the corresponding lane went 0 → nonzero.
    touched: [Vec<u32>; HIST_LANES],
}

impl LaneHistogram {
    /// Creates an empty histogram; tables grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts `symbols` (each `< alphabet`) and returns sparse
    /// `(symbol, frequency)` pairs in ascending symbol order — the exact
    /// pairs a single dense saturating counter would produce — and,
    /// parallel to them, each symbol's count in every lane (saturating at
    /// `u32::MAX`).
    pub fn count(
        &mut self,
        symbols: &[u32],
        alphabet: usize,
    ) -> (Vec<(u32, u64)>, Vec<[u32; HIST_LANES]>) {
        if self.tables.len() < HIST_LANES * alphabet {
            self.tables.resize(HIST_LANES * alphabet, 0);
        }
        let tables = &mut self.tables;
        let mut quads = symbols.chunks_exact(HIST_LANES);
        for quad in &mut quads {
            for (lane, &s) in quad.iter().enumerate() {
                let slot = &mut tables[lane * alphabet + s as usize];
                if *slot == 0 {
                    self.touched[lane].push(s);
                }
                *slot = slot.saturating_add(1);
            }
        }
        for (lane, &s) in quads.remainder().iter().enumerate() {
            let slot = &mut tables[lane * alphabet + s as usize];
            if *slot == 0 {
                self.touched[lane].push(s);
            }
            *slot = slot.saturating_add(1);
        }

        // Merge: one ascending pass over the union of touched symbols.
        let mut union: Vec<u32> = Vec::with_capacity(self.touched.iter().map(Vec::len).sum());
        for lane in &mut self.touched {
            union.append(lane);
        }
        union.sort_unstable();
        union.dedup();
        let mut pairs = Vec::with_capacity(union.len());
        let mut lanes = Vec::with_capacity(union.len());
        for s in union {
            let per_lane: [u32; HIST_LANES] = std::array::from_fn(|lane| {
                std::mem::take(&mut tables[lane * alphabet + s as usize])
            });
            let total: u64 = per_lane.iter().map(|&c| c as u64).sum();
            pairs.push((s, total.min(u32::MAX as u64)));
            lanes.push(per_lane);
        }
        (pairs, lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference single-table saturating counter.
    fn dense(symbols: &[u32], alphabet: usize) -> Vec<(u32, u64)> {
        let mut freqs = vec![0u32; alphabet];
        for &s in symbols {
            freqs[s as usize] = freqs[s as usize].saturating_add(1);
        }
        freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, &f)| (s as u32, f as u64))
            .collect()
    }

    /// Each lane's own dense count of the symbols `dense` lists.
    fn dense_lanes(symbols: &[u32], alphabet: usize) -> Vec<[u32; HIST_LANES]> {
        let mut per = vec![[0u32; HIST_LANES]; alphabet];
        for (i, &s) in symbols.iter().enumerate() {
            per[s as usize][i % HIST_LANES] += 1;
        }
        let used = dense(symbols, alphabet);
        used.iter().map(|&(s, _)| per[s as usize]).collect()
    }

    /// `count` against both dense references.
    fn check(h: &mut LaneHistogram, symbols: &[u32], alphabet: usize) {
        let (pairs, lanes) = h.count(symbols, alphabet);
        assert_eq!(pairs, dense(symbols, alphabet));
        assert_eq!(lanes, dense_lanes(symbols, alphabet));
    }

    #[test]
    fn matches_dense_reference() {
        let syms: Vec<u32> = (0..10_000u32).map(|i| (i * i + 3 * i) % 257).collect();
        check(&mut LaneHistogram::new(), &syms, 300);
    }

    #[test]
    fn runs_of_equal_symbols() {
        let mut syms = vec![5u32; 1003];
        syms.extend(std::iter::repeat_n(2u32, 7));
        let mut h = LaneHistogram::new();
        let (pairs, lanes) = h.count(&syms, 8);
        assert_eq!(pairs, vec![(2, 7), (5, 1003)]);
        // 1003 fives fill lanes 0..=2 with 251 and lane 3 with 250; the
        // seven twos start at position 1003, in lane 3.
        assert_eq!(lanes, vec![[2, 2, 1, 2], [251, 251, 251, 250]]);
    }

    #[test]
    fn tables_reset_between_calls_and_across_alphabets() {
        let mut h = LaneHistogram::new();
        let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
        let b: Vec<u32> = (0..50).map(|i| i % 33).collect();
        check(&mut h, &a, 16);
        // Different alphabet re-layouts the tables; counts must not leak.
        check(&mut h, &b, 40);
        check(&mut h, &a, 16);
    }

    #[test]
    fn empty_and_short_inputs() {
        let mut h = LaneHistogram::new();
        assert_eq!(h.count(&[], 4), (Vec::new(), Vec::new()));
        assert_eq!(h.count(&[3], 4), (vec![(3, 1)], vec![[1, 0, 0, 0]]));
        assert_eq!(h.count(&[1, 1, 1], 4), (vec![(1, 3)], vec![[1, 1, 1, 0]]));
    }
}
