//! Structural (symbolic-pattern) analysis of square sparse systems.
//!
//! Everything in this module looks only at *which* matrix entries exist,
//! never at their values — the questions it answers are decided by the
//! nonzero pattern alone:
//!
//! * **Is the system structurally solvable?** A square system has a
//!   chance of being numerically nonsingular only if its bipartite
//!   row/column graph admits a *perfect matching* (every equation can
//!   claim its own unknown). [`StructureReport`] computes a maximum
//!   matching with Hopcroft–Karp and, when the matching is deficient,
//!   classifies every row and column with the coarse
//!   Dulmage–Mendelsohn decomposition ([`DmClass`]) so callers can name
//!   the over-determined equations and under-determined unknowns.
//!
//! The lint gate (E0301/E0302) is its one client: it reports the
//! equations and unknowns a singular pattern leaves unmatched before any
//! factorization runs. The analysis is deterministic: identical patterns
//! produce identical matchings and classes on every run.

use std::collections::VecDeque;

/// Sentinel for "not matched / not reached".
const NONE: usize = usize::MAX;

/// Coarse Dulmage–Mendelsohn class of one row or column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmClass {
    /// Part of the over-determined (vertical) block: more equations than
    /// unknowns — for rows, at least one equation here is redundant.
    Over,
    /// Part of the square, perfectly-matched block.
    Square,
    /// Part of the under-determined (horizontal) block: more unknowns
    /// than equations — for columns, at least one unknown here is free.
    Under,
}

/// Result of the structural solvability analysis of an `n × n` pattern:
/// maximum bipartite matching plus the coarse Dulmage–Mendelsohn
/// classification of every row (equation) and column (unknown).
#[derive(Debug, Clone)]
pub struct StructureReport {
    n: usize,
    /// `col_of_row[r]` = column matched to row `r` (`usize::MAX` if none).
    col_of_row: Vec<usize>,
    /// `row_of_col[c]` = row matched to column `c` (`usize::MAX` if none).
    row_of_col: Vec<usize>,
    /// DM class per row.
    row_class: Vec<DmClass>,
    /// DM class per column.
    col_class: Vec<DmClass>,
    /// Size of the maximum matching.
    structural_rank: usize,
}

impl StructureReport {
    /// Analyzes an explicit entry list (duplicates allowed, order
    /// irrelevant). Entries referencing rows/columns `>= n` are ignored.
    pub fn from_entries(n: usize, entries: &[(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(r, c) in entries {
            if r < n && c < n {
                adj[r].push(c);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let (col_of_row, row_of_col) = hopcroft_karp(n, &adj);
        let structural_rank = col_of_row.iter().filter(|&&c| c != NONE).count();
        let (row_class, col_class) = dm_coarse(n, &adj, &col_of_row, &row_of_col);
        StructureReport {
            n,
            col_of_row,
            row_of_col,
            row_class,
            col_class,
            structural_rank,
        }
    }

    /// Order of the analyzed pattern.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Size of the maximum matching (`== order` iff structurally
    /// nonsingular).
    pub fn structural_rank(&self) -> usize {
        self.structural_rank
    }

    /// `order - structural_rank`: how many equations/unknowns are left
    /// unmatched.
    pub fn deficiency(&self) -> usize {
        self.n - self.structural_rank
    }

    /// True when a perfect matching exists — a necessary (not
    /// sufficient) condition for numeric nonsingularity.
    pub fn is_structurally_nonsingular(&self) -> bool {
        self.deficiency() == 0
    }

    /// Column matched to row `r`, if any.
    pub fn matched_col(&self, r: usize) -> Option<usize> {
        match self.col_of_row[r] {
            NONE => None,
            c => Some(c),
        }
    }

    /// Row matched to column `c`, if any.
    pub fn matched_row(&self, c: usize) -> Option<usize> {
        match self.row_of_col[c] {
            NONE => None,
            r => Some(r),
        }
    }

    /// Rows (equations) left unmatched, ascending.
    pub fn unmatched_rows(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&r| self.col_of_row[r] == NONE)
            .collect()
    }

    /// Columns (unknowns) left unmatched, ascending.
    pub fn unmatched_cols(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&c| self.row_of_col[c] == NONE)
            .collect()
    }

    /// Coarse DM class of row (equation) `r`.
    pub fn row_class(&self, r: usize) -> DmClass {
        self.row_class[r]
    }

    /// Coarse DM class of column (unknown) `c`.
    pub fn col_class(&self, c: usize) -> DmClass {
        self.col_class[c]
    }

    /// Rows in the over-determined (vertical) DM part, ascending.
    pub fn over_determined_rows(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&r| self.row_class[r] == DmClass::Over)
            .collect()
    }

    /// Columns in the under-determined (horizontal) DM part, ascending.
    pub fn under_determined_cols(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&c| self.col_class[c] == DmClass::Under)
            .collect()
    }
}

/// Maximum bipartite matching (Hopcroft–Karp) between `n` rows and `n`
/// columns; `adj[r]` lists the columns with an entry in row `r`.
/// Returns (`col_of_row`, `row_of_col`) with [`NONE`] for unmatched.
fn hopcroft_karp(n: usize, adj: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let mut col_of_row = vec![NONE; n];
    let mut row_of_col = vec![NONE; n];
    let mut dist = vec![NONE; n];
    let mut queue = VecDeque::new();
    loop {
        // BFS: layer rows by shortest alternating distance from any free
        // row; stop layering past the first free column found.
        queue.clear();
        for r in 0..n {
            if col_of_row[r] == NONE {
                dist[r] = 0;
                queue.push_back(r);
            } else {
                dist[r] = NONE;
            }
        }
        let mut reachable_free_col = false;
        while let Some(r) = queue.pop_front() {
            for &c in &adj[r] {
                match row_of_col[c] {
                    NONE => reachable_free_col = true,
                    r2 => {
                        if dist[r2] == NONE {
                            dist[r2] = dist[r] + 1;
                            queue.push_back(r2);
                        }
                    }
                }
            }
        }
        if !reachable_free_col {
            break;
        }
        // DFS phase: a maximal set of vertex-disjoint shortest augmenting
        // paths, each flipped in place.
        for r in 0..n {
            if col_of_row[r] == NONE {
                augment(r, adj, &mut dist, &mut col_of_row, &mut row_of_col);
            }
        }
    }
    (col_of_row, row_of_col)
}

/// One layered-DFS augmentation attempt from free row `r`.
fn augment(
    r: usize,
    adj: &[Vec<usize>],
    dist: &mut [usize],
    col_of_row: &mut [usize],
    row_of_col: &mut [usize],
) -> bool {
    for idx in 0..adj[r].len() {
        let c = adj[r][idx];
        let extends = match row_of_col[c] {
            NONE => true,
            r2 => dist[r2] == dist[r] + 1 && augment(r2, adj, dist, col_of_row, row_of_col),
        };
        if extends {
            col_of_row[r] = c;
            row_of_col[c] = r;
            return true;
        }
    }
    dist[r] = NONE; // dead end: prune this row for the rest of the phase
    false
}

/// Coarse Dulmage–Mendelsohn classification from a maximum matching:
/// alternating-path reachability from the unmatched rows marks the
/// over-determined part, from the unmatched columns the under-determined
/// part; everything else is the square part.
fn dm_coarse(
    n: usize,
    adj: &[Vec<usize>],
    col_of_row: &[usize],
    row_of_col: &[usize],
) -> (Vec<DmClass>, Vec<DmClass>) {
    let mut row_class = vec![DmClass::Square; n];
    let mut col_class = vec![DmClass::Square; n];

    // Vertical (over-determined) part: rows reachable from free rows via
    // (row -> any incident column -> its matched row).
    let mut queue: VecDeque<usize> = (0..n).filter(|&r| col_of_row[r] == NONE).collect();
    let mut row_seen = vec![false; n];
    for &r in &queue {
        row_seen[r] = true;
    }
    while let Some(r) = queue.pop_front() {
        row_class[r] = DmClass::Over;
        for &c in &adj[r] {
            if col_class[c] == DmClass::Square {
                col_class[c] = DmClass::Over;
                let r2 = row_of_col[c];
                if r2 != NONE && !row_seen[r2] {
                    row_seen[r2] = true;
                    queue.push_back(r2);
                }
            }
        }
    }

    // Horizontal (under-determined) part: columns reachable from free
    // columns via (column -> any incident row -> its matched column).
    // Needs the transposed adjacency.
    let mut col_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, cols) in adj.iter().enumerate() {
        for &c in cols {
            col_adj[c].push(r);
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&c| row_of_col[c] == NONE).collect();
    let mut col_seen = vec![false; n];
    for &c in &queue {
        col_seen[c] = true;
    }
    while let Some(c) = queue.pop_front() {
        col_class[c] = DmClass::Under;
        for &r in &col_adj[c] {
            if row_class[r] == DmClass::Square {
                row_class[r] = DmClass::Under;
                let c2 = col_of_row[r];
                if c2 != NONE && !col_seen[c2] {
                    col_seen[c2] = true;
                    queue.push_back(c2);
                }
            }
        }
    }
    (row_class, col_class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_structurally_nonsingular_one_block_each() {
        let entries: Vec<(usize, usize)> = (0..5).map(|i| (i, i)).collect();
        let rep = StructureReport::from_entries(5, &entries);
        assert!(rep.is_structurally_nonsingular());
        assert_eq!(rep.structural_rank(), 5);
        // Each row claims its own column: a 1×1 block apiece.
        for i in 0..5 {
            assert_eq!(rep.matched_col(i), Some(i));
            assert_eq!(rep.row_class(i), DmClass::Square);
        }
    }

    #[test]
    fn empty_row_and_column_are_reported() {
        // Row 2 and column 1 have no entries: deficiency 1 each side.
        let entries = [(0, 0), (1, 0), (1, 2), (0, 2)];
        let rep = StructureReport::from_entries(3, &entries);
        assert!(!rep.is_structurally_nonsingular());
        assert_eq!(rep.structural_rank(), 2);
        assert_eq!(rep.unmatched_rows(), vec![2]);
        assert_eq!(rep.unmatched_cols(), vec![1]);
        assert_eq!(rep.row_class(2), DmClass::Over);
        assert_eq!(rep.col_class(1), DmClass::Under);
    }

    #[test]
    fn duplicated_equation_is_structurally_deficient() {
        // The MNA shape of two ideal voltage sources in parallel between
        // node `a` and ground: unknowns (a, ib1, ib2), KCL row 0 sees both
        // branch currents, branch rows 1 and 2 both only see column a —
        // max matching 2 over a 3x3 system.
        let entries = [(0, 1), (0, 2), (1, 0), (2, 0)];
        let rep = StructureReport::from_entries(3, &entries);
        assert_eq!(rep.structural_rank(), 2);
        assert_eq!(rep.deficiency(), 1);
        // The two branch equations over-determine node a's voltage; one
        // branch current is left structurally free.
        let over = rep.over_determined_rows();
        assert!(over.contains(&1) && over.contains(&2), "{over:?}");
        assert_eq!(rep.over_determined_rows().len(), 2);
        let under = rep.under_determined_cols();
        assert_eq!(under.len(), 2, "{under:?}");
        assert!(rep.col_class(0) == DmClass::Over);
    }

    #[test]
    fn dm_classes_are_consistent_with_matching() {
        // Deterministic pseudo-random sparse pattern.
        let n = 24;
        let mut state = 0x9E37_79B9u64;
        let mut entries = Vec::new();
        for r in 0..n {
            for _ in 0..3 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                entries.push((r, (state >> 33) as usize % n));
            }
        }
        let rep = StructureReport::from_entries(n, &entries);
        // Matching is a bijection on the matched subsets.
        for r in 0..n {
            if let Some(c) = rep.matched_col(r) {
                assert_eq!(rep.matched_row(c), Some(r));
            }
        }
        // Square rows are matched to square columns.
        for r in 0..n {
            if rep.row_class(r) == DmClass::Square {
                let c = rep.matched_col(r).expect("square row must be matched");
                assert_eq!(rep.col_class(c), DmClass::Square);
            }
        }
        assert_eq!(
            rep.structural_rank(),
            n - rep.unmatched_rows().len(),
            "rank accounting"
        );
    }
}
