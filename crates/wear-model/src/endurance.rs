//! ReRAM cell endurance specifications.

/// Write-endurance budget of one ReRAM cell (equivalently, of one cache-line
/// slot, since a line's cells are written together).
///
/// The paper's §V.A: *"We consider ReRAM cache line to wear out beyond 10¹¹
/// writes."* Prototype ranges cited in §II.A span 10⁹ (TaOx, Wei+ IEDM'08)
/// to 10¹¹ (Ta₂O₅₋ₓ/TaO₂₋ₓ bilayer, Lee+ Nature Materials'11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnduranceSpec {
    /// Maximum writes before a line slot is considered worn out.
    pub writes_per_cell: f64,
}

impl EnduranceSpec {
    /// The paper's evaluation setting: 10¹¹ writes per line.
    pub const PAPER: EnduranceSpec = EnduranceSpec {
        writes_per_cell: 1e11,
    };

    /// Create a custom endurance spec.
    ///
    /// # Panics
    /// Panics if `writes_per_cell` is not strictly positive and finite: a
    /// zero or negative budget makes every lifetime query meaningless.
    pub fn new(writes_per_cell: f64) -> Self {
        assert!(
            writes_per_cell.is_finite() && writes_per_cell > 0.0,
            "endurance must be positive and finite, got {writes_per_cell}"
        );
        EnduranceSpec { writes_per_cell }
    }
}

impl Default for EnduranceSpec {
    fn default() -> Self {
        EnduranceSpec::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_1e11() {
        assert_eq!(EnduranceSpec::default().writes_per_cell, 1e11);
        assert_eq!(EnduranceSpec::PAPER.writes_per_cell, 1e11);
    }

    #[test]
    fn custom_spec() {
        let e = EnduranceSpec::new(5e10);
        assert_eq!(e.writes_per_cell, 5e10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_endurance_rejected() {
        EnduranceSpec::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_endurance_rejected() {
        EnduranceSpec::new(f64::NAN);
    }
}
