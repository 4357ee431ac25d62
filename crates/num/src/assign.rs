//! Exact minimum-cost assignment for small problems.
//!
//! The multi-target tracker must match per-window detections to live
//! tracks. Greedy nearest-neighbour association is the classic failure
//! mode of multi-target tracking — two crossing ridges swap identities
//! exactly when their gates overlap — so the data-association layer
//! solves the *globally optimal* assignment instead. Problem sizes are
//! tiny (a handful of tracks × a handful of detections per window), which
//! makes an exact dynamic program over column subsets both simpler and
//! faster than a general Hungarian implementation: `O(n_rows · 2^m · m)`
//! with `m = n_cols ≤ `[`MAX_COLS`].
//!
//! Gating composes naturally: a forbidden pairing carries cost
//! [`f64::INFINITY`], and every row may instead stay *unassigned* at a
//! caller-chosen miss cost — the knob that trades a marginal match
//! against starting a new track.

/// Largest supported column count (the DP table is `2^m` wide).
pub const MAX_COLS: usize = 16;

/// Result of [`solve_assignment`].
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// `pairing[i] = Some(j)` assigns row `i` to column `j`; `None`
    /// leaves the row unassigned (at its miss cost).
    pub pairing: Vec<Option<usize>>,
    /// Total cost of the optimal solution (pair costs + miss costs).
    pub total_cost: f64,
}

/// Solves the rectangular min-cost assignment exactly.
///
/// `costs` is the row-major `n_rows × n_cols` cost matrix, flattened
/// (`costs[i * n_cols + j]`), so a caller can refill one buffer every
/// call; `n_cols` is `costs.len() / n_rows`. A cost of `INFINITY`
/// forbids the pairing. Each row is assigned to at most one column and
/// vice versa; a row left unassigned contributes `miss_cost`. Columns
/// may also remain unused at no cost (unmatched detections are the
/// tracker's job to handle, not the solver's).
///
/// Ties are broken deterministically (lowest row index prefers the lowest
/// feasible column index), so the solver is reproducible bit-for-bit.
///
/// # Panics
/// Panics if `n_cols > `[`MAX_COLS`], or if `costs.len()` is not a
/// multiple of `n_rows` (or is non-empty with `n_rows == 0`).
pub fn solve_assignment(costs: &[f64], n_rows: usize, miss_cost: f64) -> Assignment {
    let n_cols = if n_rows == 0 {
        assert!(costs.is_empty(), "costs given for zero rows");
        0
    } else {
        assert_eq!(costs.len() % n_rows, 0, "ragged cost matrix");
        costs.len() / n_rows
    };
    assert!(
        n_cols <= MAX_COLS,
        "assignment supports at most {MAX_COLS} columns"
    );

    let n_masks = 1usize << n_cols;
    // dp[mask] after processing rows i..n_rows given `mask` columns already
    // used. Filled backwards from the last row.
    let mut dp = vec![0.0f64; n_masks];
    let mut next = vec![0.0f64; n_masks];
    // choice[i * n_masks + mask]: column picked by row i (u8::MAX = miss).
    let mut choice = vec![u8::MAX; n_rows * n_masks];

    for i in (0..n_rows).rev() {
        let row = &costs[i * n_cols..(i + 1) * n_cols];
        for mask in 0..n_masks {
            let mut best = miss_cost + next[mask];
            let mut pick = u8::MAX;
            for (j, &c) in row.iter().enumerate() {
                if mask & (1 << j) != 0 || !c.is_finite() {
                    continue;
                }
                let cand = c + next[mask | (1 << j)];
                if cand < best {
                    best = cand;
                    pick = j as u8;
                }
            }
            dp[mask] = best;
            choice[i * n_masks + mask] = pick;
        }
        std::mem::swap(&mut dp, &mut next);
    }

    // `next` now holds the row-0 table; replay the choices.
    let total_cost = if n_rows == 0 { 0.0 } else { next[0] };
    let mut pairing = Vec::with_capacity(n_rows);
    let mut mask = 0usize;
    for row_choice in choice.chunks_exact(n_masks) {
        match row_choice[mask] {
            u8::MAX => pairing.push(None),
            j => {
                pairing.push(Some(j as usize));
                mask |= 1 << j;
            }
        }
    }
    Assignment {
        pairing,
        total_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn empty_problem() {
        let a = solve_assignment(&[], 0, 0.0);
        assert!(a.pairing.is_empty());
        assert_eq!(a.total_cost, 0.0);
    }

    #[test]
    fn rows_without_columns_all_miss() {
        let a = solve_assignment(&[], 3, 2.0);
        assert_eq!(a.pairing, vec![None, None, None]);
        assert_eq!(a.total_cost, 6.0);
    }

    #[test]
    fn one_to_one_diagonal() {
        let a = solve_assignment(&[1.0, 9.0, 9.0, 1.0], 2, 100.0);
        assert_eq!(a.pairing, vec![Some(0), Some(1)]);
        assert_eq!(a.total_cost, 2.0);
    }

    #[test]
    fn global_optimum_beats_greedy() {
        // Greedy gives row 0 its best column (0 at cost 1), forcing row 1
        // to cost 10; the optimum swaps: 2 + 2 = 4.
        let a = solve_assignment(&[1.0, 2.0, 2.0, 10.0], 2, 100.0);
        assert_eq!(a.pairing, vec![Some(1), Some(0)]);
        assert_eq!(a.total_cost, 4.0);
    }

    #[test]
    fn miss_cost_drops_expensive_rows() {
        let a = solve_assignment(&[50.0, 1.0], 2, 5.0);
        assert_eq!(a.pairing, vec![None, Some(0)]);
        assert_eq!(a.total_cost, 6.0);
    }

    #[test]
    fn infinite_cost_forbids_pairing() {
        let a = solve_assignment(&[INF, 3.0], 1, 10.0);
        assert_eq!(a.pairing, vec![Some(1)]);
    }

    #[test]
    fn all_forbidden_means_all_missed() {
        let a = solve_assignment(&[INF; 4], 2, 1.5);
        assert_eq!(a.pairing, vec![None, None]);
        assert_eq!(a.total_cost, 3.0);
    }

    #[test]
    fn more_rows_than_columns() {
        let a = solve_assignment(&[1.0, 2.0, 3.0], 3, 10.0);
        assert_eq!(a.pairing, vec![Some(0), None, None]);
        assert_eq!(a.total_cost, 21.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_panics() {
        let _ = solve_assignment(&[1.0, 2.0, 1.0], 2, 0.0);
    }
}
