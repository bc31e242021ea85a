//! Memory templating: the flip profile of a buffer.
//!
//! Templating (paper §IV-A2) hammers a large attacker-owned buffer with
//! all-ones/all-zeros data patterns and records every cell that flips, its
//! direction, and — implicitly, by varying the hammer pattern — how much
//! aggression it needs. The outcome is a *flip profile*: a sparse list of
//! `(page, bit-offset, direction, threshold)` tuples. The paper measures
//! 94 minutes to template 128 MB and finds only ~0.036 % of cells
//! vulnerable on its reference DDR3 chip.

use crate::chips::ChipModel;
use crate::error::{DramError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Duration;

/// Bits in a 4 KB page.
pub const PAGE_BITS: usize = 4096 * 8;

/// The direction a faulty cell flips. A physical cell flips in exactly one
/// direction (determined by its true-cell/anti-cell wiring), which is why
/// matching a target page must respect direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlipDirection {
    /// Charged cell discharges: stored 0 becomes 1 in anti-cell encoding.
    ZeroToOne,
    /// Stored 1 becomes 0.
    OneToZero,
}

impl FlipDirection {
    /// Direction needed to take a bit with current value `bit` to its
    /// complement.
    pub fn for_flip_of(bit_is_zero: bool) -> Self {
        if bit_is_zero {
            FlipDirection::ZeroToOne
        } else {
            FlipDirection::OneToZero
        }
    }
}

/// One vulnerable DRAM cell found by templating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlipCell {
    /// Page index within the templated buffer.
    pub page: usize,
    /// Bit offset within the page (0..32768).
    pub bit_offset: usize,
    /// The only direction this cell can flip.
    pub direction: FlipDirection,
    /// Hammer-aggression threshold in (0, 1]: the cell flips when a hammer
    /// pattern's intensity reaches this value. Full templating (intensity
    /// 1.0) reveals every cell; gentler online patterns reach only cells
    /// with low thresholds (this models Fig. 6's 15- vs 7-sided contrast).
    pub threshold: f64,
}

/// The flip profile of a templated buffer.
#[derive(Debug, Clone, Serialize)]
pub struct FlipProfile {
    chip: ChipModel,
    num_pages: usize,
    cells: Vec<FlipCell>,
    /// Cells indexed by page for fast lookup.
    #[serde(skip)]
    by_page: HashMap<usize, Vec<usize>>,
}

impl FlipProfile {
    /// Templates `num_pages` pages of a buffer on the given chip.
    ///
    /// Each page draws a Poisson-distributed number of vulnerable cells
    /// with mean [`ChipModel::avg_flips_per_page`] (see [`draw_cell`]); a
    /// draw at a bit that already holds a cell is dropped, since a real
    /// bit is one cell flipping one way.
    pub fn template(chip: ChipModel, num_pages: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = draw_pages(chip, 0..num_pages, &mut rng);
        rhb_telemetry::counter!("dram/pages_templated", num_pages);
        rhb_telemetry::counter!("dram/cells_templated", cells.len());
        let mut profile = FlipProfile {
            chip,
            num_pages,
            cells,
            by_page: HashMap::new(),
        };
        profile.rebuild_index();
        profile
    }

    /// Reconstructs a profile from previously templated cells — the
    /// deserialization path for the on-disk template cache, so resumed
    /// campaigns re-hammer instead of re-template. No templating
    /// telemetry is emitted: these pages were already paid for. The
    /// cells are grouped by page, each page's in the given order, and of
    /// several cells at one (page, bit) only the first is kept, as
    /// templating keeps it.
    pub fn from_cells(chip: ChipModel, num_pages: usize, mut cells: Vec<FlipCell>) -> Self {
        cells.sort_by_key(|c| c.page);
        cells.retain(first_cell_per_bit());
        let mut profile = FlipProfile {
            chip,
            num_pages,
            cells,
            by_page: HashMap::new(),
        };
        profile.rebuild_index();
        profile
    }

    fn rebuild_index(&mut self) {
        self.by_page.clear();
        for (i, c) in self.cells.iter().enumerate() {
            self.by_page.entry(c.page).or_default().push(i);
        }
    }

    /// The chip this profile was measured on.
    pub fn chip(&self) -> ChipModel {
        self.chip
    }

    /// Number of templated pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// All vulnerable cells.
    pub fn cells(&self) -> &[FlipCell] {
        &self.cells
    }

    /// Total vulnerable cells found.
    pub fn total_flips(&self) -> usize {
        self.cells.len()
    }

    /// Fraction of all templated cells that are vulnerable (Fig. 2's
    /// sparsity number).
    pub fn sparsity(&self) -> f64 {
        self.total_flips() as f64 / (self.num_pages as f64 * PAGE_BITS as f64)
    }

    /// Vulnerable cells in one page.
    pub fn flips_in_page(&self, page: usize) -> Vec<&FlipCell> {
        self.by_page
            .get(&page)
            .map(|idx| idx.iter().map(|&i| &self.cells[i]).collect())
            .unwrap_or_default()
    }

    /// Average flips per page actually realized in this profile.
    pub fn measured_avg_flips_per_page(&self) -> f64 {
        self.total_flips() as f64 / self.num_pages as f64
    }

    /// Finds a page containing a cell at exactly `bit_offset` flipping in
    /// `direction`, whose threshold is reachable by a hammer pattern of the
    /// given `intensity`, and which is not in `exclude`.
    ///
    /// This is the matching step of the online phase: the attacker needs a
    /// flippy page whose vulnerable cell lines up with the weight bit the
    /// optimizer chose.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoMatchingPage`] when the profile has no such
    /// page — the situation the paper shows is almost certain for two or
    /// more required offsets in a single page.
    pub fn find_matching_page(
        &self,
        bit_offset: usize,
        direction: FlipDirection,
        intensity: f64,
        exclude: &[usize],
    ) -> Result<usize> {
        let matches = |c: &FlipCell| {
            c.bit_offset == bit_offset
                && c.direction == direction
                && c.threshold <= intensity
                && !exclude.contains(&c.page)
        };
        const SCAN_GRAIN: usize = 64 * 1024;
        let pool = rhb_par::pool();
        // Small profiles or a lone thread: plain first-match with early
        // exit. Extended-templating profiles hold millions of cells, so
        // chunk the scan; taking the first hit in chunk order equals the
        // serial first match, and a shared low-water mark lets later
        // chunks bail out once an earlier cell already matched.
        if pool.threads() == 1 || self.cells.len() <= SCAN_GRAIN {
            return self
                .cells
                .iter()
                .find(|c| matches(c))
                .map(|c| c.page)
                .ok_or(DramError::NoMatchingPage {
                    page_bit_offset: bit_offset,
                });
        }
        let earliest = std::sync::atomic::AtomicUsize::new(usize::MAX);
        pool.parallel_map(self.cells.len(), SCAN_GRAIN, |range| {
            if range.start > earliest.load(std::sync::atomic::Ordering::Relaxed) {
                return None;
            }
            let hit = self.cells[range.clone()]
                .iter()
                .position(&matches)
                .map(|off| range.start + off);
            if let Some(i) = hit {
                earliest.fetch_min(i, std::sync::atomic::Ordering::Relaxed);
            }
            hit
        })
        .into_iter()
        .flatten()
        .next()
        .map(|i| self.cells[i].page)
        .ok_or(DramError::NoMatchingPage {
            page_bit_offset: bit_offset,
        })
    }

    /// Finds a page whose vulnerable cells cover *all* the given
    /// (offset, direction) pairs — needed by the baselines, which demand
    /// several specific flips inside one page. Almost always fails, per the
    /// paper's probability analysis.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::NoMatchingPage`] when no single page covers
    /// every requirement.
    pub fn find_page_covering(
        &self,
        requirements: &[(usize, FlipDirection)],
        intensity: f64,
        exclude: &[usize],
    ) -> Result<usize> {
        if requirements.is_empty() {
            return Err(DramError::NoMatchingPage { page_bit_offset: 0 });
        }
        'pages: for (&page, idx) in &self.by_page {
            if exclude.contains(&page) {
                continue;
            }
            for &(offset, dir) in requirements {
                let covered = idx.iter().any(|&i| {
                    let c = &self.cells[i];
                    c.bit_offset == offset && c.direction == dir && c.threshold <= intensity
                });
                if !covered {
                    continue 'pages;
                }
            }
            return Ok(page);
        }
        Err(DramError::NoMatchingPage {
            page_bit_offset: requirements[0].0,
        })
    }

    /// Re-templates `additional_pages` *fresh* pages (appended after the
    /// existing ones) and returns their index range.
    ///
    /// The adaptive recovery driver calls this when matching starves: the
    /// attacker grabs another buffer, templates it, and retries the failed
    /// matches against the enlarged profile. Sampling is identical to
    /// [`FlipProfile::template`] and deterministic per `seed`, so extending
    /// never perturbs the already-templated pages. The wall-clock cost is
    /// accounted separately via [`FlipProfile::templating_time`].
    pub fn extend_template(
        &mut self,
        additional_pages: usize,
        seed: u64,
    ) -> std::ops::Range<usize> {
        let start = self.num_pages;
        let mut rng = StdRng::seed_from_u64(seed);
        for cell in draw_pages(self.chip, start..start + additional_pages, &mut rng) {
            self.by_page
                .entry(cell.page)
                .or_default()
                .push(self.cells.len());
            self.cells.push(cell);
        }
        self.num_pages += additional_pages;
        rhb_telemetry::counter!("dram/pages_retemplated", additional_pages);
        start..self.num_pages
    }

    /// Templating wall-clock time model: the paper measures 94 minutes for
    /// 128 MB (32,768 pages).
    pub fn templating_time(num_pages: usize) -> Duration {
        let minutes = 94.0 * num_pages as f64 / 32_768.0;
        Duration::from_secs_f64(minutes * 60.0)
    }
}

/// Draws one vulnerable cell of `page`: a uniform bit offset, a uniform
/// direction — the paper observes 0→1 and 1→0 counts to be nearly
/// equal — and a uniform aggression threshold up to `max_threshold`.
pub(crate) fn draw_cell(page: usize, max_threshold: f64, rng: &mut StdRng) -> FlipCell {
    FlipCell {
        page,
        bit_offset: rng.gen_range(0..PAGE_BITS),
        direction: if rng.gen_bool(0.5) {
            FlipDirection::ZeroToOne
        } else {
            FlipDirection::OneToZero
        },
        threshold: rng.gen_range(f64::EPSILON..=max_threshold),
    }
}

/// Draws the cells of `pages` in order: a Poisson count per page, each
/// cell drawn by [`draw_cell`] and kept by [`first_cell_per_bit`].
fn draw_pages(chip: ChipModel, pages: std::ops::Range<usize>, rng: &mut StdRng) -> Vec<FlipCell> {
    let mut keep = first_cell_per_bit();
    let mut cells = Vec::new();
    for page in pages {
        for _ in 0..sample_poisson(chip.avg_flips_per_page, rng) {
            let cell = draw_cell(page, 1.0, rng);
            if keep(&cell) {
                cells.push(cell);
            }
        }
    }
    cells
}

/// A filter over a stream of cells in which each page's cells arrive
/// together: it keeps the first cell at each (page, bit) and rejects
/// the rest, since a real bit is one cell flipping one way. Callers
/// drop a draw only after its random numbers are consumed, so every
/// page without such a collision stays exactly as drawn. The filter
/// remembers, for each bit offset, the page that last took it.
pub(crate) fn first_cell_per_bit() -> impl FnMut(&FlipCell) -> bool {
    let mut taken_by = vec![usize::MAX; PAGE_BITS];
    move |cell| std::mem::replace(&mut taken_by[cell.bit_offset], cell.page) != cell.page
}

/// Knuth's Poisson sampler, adequate for the per-page means in Table I.
/// Falls back to a normal approximation for large means to avoid the
/// exponential underflow regime.
pub(crate) fn sample_poisson(mean: f64, rng: &mut StdRng) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 60.0 {
        let sample = mean + mean.sqrt() * normal(rng);
        return sample.max(0.0).round() as usize;
    }
    let limit = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_profile_matches_paper_sparsity() {
        // 128 MB = 32,768 pages on the reference DDR3 chip should find
        // roughly 382k flips = 0.036% of cells (Fig. 2).
        let profile = FlipProfile::template(ChipModel::reference_ddr3(), 32_768, 1);
        let sparsity = profile.sparsity();
        assert!(
            (sparsity - 0.000_356).abs() < 0.000_05,
            "sparsity {sparsity} deviates from the paper's 0.036%"
        );
        let flips = profile.total_flips();
        assert!(
            (300_000..460_000).contains(&flips),
            "total flips {flips} far from the paper's 381,962"
        );
    }

    #[test]
    fn profile_is_deterministic_per_seed() {
        let chip = ChipModel::by_tag("L1").unwrap();
        let a = FlipProfile::template(chip, 512, 9);
        let b = FlipProfile::template(chip, 512, 9);
        assert_eq!(a.cells(), b.cells());
    }

    #[test]
    fn direction_split_is_roughly_even() {
        let profile = FlipProfile::template(ChipModel::reference_ddr3(), 4096, 3);
        let zto = profile
            .cells()
            .iter()
            .filter(|c| c.direction == FlipDirection::ZeroToOne)
            .count();
        let total = profile.total_flips();
        let frac = zto as f64 / total as f64;
        assert!((0.45..0.55).contains(&frac), "0→1 fraction {frac}");
    }

    #[test]
    fn flippy_chip_has_denser_profile() {
        let sparse = FlipProfile::template(ChipModel::by_tag("M1").unwrap(), 1024, 5);
        let dense = FlipProfile::template(ChipModel::by_tag("K2").unwrap(), 1024, 5);
        assert!(dense.total_flips() > 10 * sparse.total_flips());
    }

    #[test]
    fn single_offset_match_succeeds_on_large_buffer() {
        // The paper: p(target page | one offset) ≈ 1 for a 128MB buffer.
        let profile = FlipProfile::template(ChipModel::reference_ddr3(), 32_768, 7);
        let hits = (0..20)
            .filter(|i| {
                profile
                    .find_matching_page(i * 1000 + 13, FlipDirection::ZeroToOne, 1.0, &[])
                    .is_ok()
            })
            .count();
        assert!(hits >= 19, "only {hits}/20 single-offset matches found");
    }

    #[test]
    fn multi_offset_match_fails_in_practice() {
        // The paper: p vanishes for 3 offsets in the same page.
        let profile = FlipProfile::template(ChipModel::reference_ddr3(), 8192, 11);
        let reqs = [
            (100, FlipDirection::ZeroToOne),
            (8_000, FlipDirection::OneToZero),
            (20_000, FlipDirection::ZeroToOne),
        ];
        assert!(profile.find_page_covering(&reqs, 1.0, &[]).is_err());
    }

    #[test]
    fn exclusion_list_is_respected() {
        let profile = FlipProfile::template(ChipModel::by_tag("K1").unwrap(), 256, 2);
        let cell = profile.cells()[0];
        let page = profile
            .find_matching_page(cell.bit_offset, cell.direction, 1.0, &[])
            .unwrap();
        // Excluding every page must fail.
        let all: Vec<usize> = (0..256).collect();
        assert!(profile
            .find_matching_page(cell.bit_offset, cell.direction, 1.0, &all)
            .is_err());
        assert!(!all.is_empty() && page < 256);
    }

    #[test]
    fn templating_time_scales_linearly() {
        let t128 = FlipProfile::templating_time(32_768);
        assert_eq!(t128.as_secs(), 94 * 60);
        let t64 = FlipProfile::templating_time(16_384);
        assert_eq!(t64.as_secs(), 47 * 60);
    }

    #[test]
    fn extend_template_appends_fresh_pages_without_touching_old_ones() {
        let chip = ChipModel::reference_ddr3();
        let mut profile = FlipProfile::template(chip, 1024, 21);
        let before = profile.cells().to_vec();
        let range = profile.extend_template(512, 22);
        assert_eq!(range, 1024..1536);
        assert_eq!(profile.num_pages(), 1536);
        assert_eq!(&profile.cells()[..before.len()], &before[..]);
        // The fresh pages carry cells and the index reaches them.
        let fresh: Vec<_> = profile
            .cells()
            .iter()
            .filter(|c| range.contains(&c.page))
            .collect();
        assert!(!fresh.is_empty(), "no cells templated in extension");
        let sample = fresh[0];
        assert!(profile
            .flips_in_page(sample.page)
            .iter()
            .any(|c| c.bit_offset == sample.bit_offset));
        // Matching can now land in the extension.
        assert_eq!(
            profile.find_matching_page(
                sample.bit_offset,
                sample.direction,
                1.0,
                &(0..1024).collect::<Vec<_>>()
            ),
            Ok(sample.page)
        );
    }

    #[test]
    fn extend_template_is_deterministic_per_seed() {
        let chip = ChipModel::reference_ddr3();
        let mut a = FlipProfile::template(chip, 256, 5);
        let mut b = FlipProfile::template(chip, 256, 5);
        a.extend_template(128, 77);
        b.extend_template(128, 77);
        assert_eq!(a.cells(), b.cells());
    }

    /// A real bit is one cell: on the densest (K1-like) chip, where about
    /// one page in seven draws two cells at one bit, no templated or
    /// re-templated page holds two cells at one bit offset.
    #[test]
    fn every_page_holds_at_most_one_cell_per_bit() {
        for seed in 0..40 {
            let mut profile = FlipProfile::template(ChipModel::online_ddr4(), 128, seed);
            profile.extend_template(128, seed + 1_000);
            for page in 0..profile.num_pages() {
                let mut bits: Vec<usize> = profile
                    .flips_in_page(page)
                    .iter()
                    .map(|c| c.bit_offset)
                    .collect();
                let drawn = bits.len();
                bits.sort_unstable();
                bits.dedup();
                assert_eq!(bits.len(), drawn, "seed {seed}, page {page}");
            }
        }
    }

    /// A colliding draw is dropped only after its random numbers are
    /// consumed: the profile is the full stream of draws minus each
    /// page's repeated bits, so pages without a collision are unchanged.
    #[test]
    fn dropped_draws_leave_the_rest_of_the_stream_unchanged() {
        let chip = ChipModel::online_ddr4();
        let mut rng = StdRng::seed_from_u64(5);
        let mut expected = Vec::new();
        let mut dropped = 0;
        for page in 0..64 {
            let n = sample_poisson(chip.avg_flips_per_page, &mut rng);
            let drawn: Vec<FlipCell> = (0..n).map(|_| draw_cell(page, 1.0, &mut rng)).collect();
            for (i, cell) in drawn.iter().enumerate() {
                if drawn[..i].iter().all(|d| d.bit_offset != cell.bit_offset) {
                    expected.push(*cell);
                } else {
                    dropped += 1;
                }
            }
        }
        assert!(dropped > 0, "no collision to drop: pick another seed");
        assert_eq!(FlipProfile::template(chip, 64, 5).cells(), &expected[..]);
    }

    #[test]
    fn from_cells_keeps_the_first_cell_at_each_bit() {
        let cell = |page, bit_offset, direction| FlipCell {
            page,
            bit_offset,
            direction,
            threshold: 0.5,
        };
        let cells = vec![
            cell(0, 7, FlipDirection::ZeroToOne),
            cell(1, 7, FlipDirection::OneToZero),
            cell(0, 7, FlipDirection::OneToZero),
            cell(0, 9, FlipDirection::OneToZero),
            cell(1, 7, FlipDirection::OneToZero),
        ];
        let profile = FlipProfile::from_cells(ChipModel::online_ddr4(), 2, cells.clone());
        assert_eq!(profile.cells(), &[cells[0], cells[3], cells[1]]);
        assert_eq!(profile.flips_in_page(0).len(), 2);
        assert_eq!(profile.flips_in_page(1).len(), 1);
    }

    #[test]
    fn poisson_mean_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mean = 3.7;
        let sum: usize = (0..n).map(|_| sample_poisson(mean, &mut rng)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - mean).abs() < 0.1, "observed {observed}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_tail() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5_000;
        let mean = 100.68; // chip K1
        let sum: usize = (0..n).map(|_| sample_poisson(mean, &mut rng)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - mean).abs() < 1.0, "observed {observed}");
    }
}
