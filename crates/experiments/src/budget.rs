//! Instruction budgets for experiment runs.

/// Per-core instruction budgets for one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up instructions per core (statistics discarded).
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
}

impl Budget {
    /// Default budgets, overridable via `RENUCA_WARMUP` / `RENUCA_MEASURE`.
    ///
    /// The paper simulates 100 M instructions per core after warming; the
    /// synthetic workload models are stationary, so bank write *rates* and
    /// criticality mixes converge within a few hundred thousand
    /// instructions — which is what one CPU can sweep over 9 schemes × 10
    /// workloads × 4 configurations in minutes rather than days.
    ///
    /// An unset variable means the default. A set one must be a decimal
    /// instruction count (positive for `RENUCA_MEASURE`); anything else is
    /// an error naming the variable and its value, never a silent default.
    pub fn from_env() -> Result<Self, String> {
        let var = |name: &str| match std::env::var(name) {
            Ok(v) => Ok(Some(v)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not UTF-8")),
        };
        Self::from_vars(
            ("RENUCA_WARMUP", var("RENUCA_WARMUP")?.as_deref()),
            ("RENUCA_MEASURE", var("RENUCA_MEASURE")?.as_deref()),
        )
    }

    /// [`Budget::from_env`]'s rules over explicit warm-up and measure
    /// values (`None` = the default), each paired with the name of the
    /// variable or flag it came from, which an error names.
    pub fn from_vars(
        (warmup_name, warmup): (&str, Option<&str>),
        (measure_name, measure): (&str, Option<&str>),
    ) -> Result<Self, String> {
        let parse = |name: &str, value: Option<&str>, default: u64| match value {
            None => Ok(default),
            Some(v) => v.parse::<u64>().map_err(|_| {
                format!("{name}={v:?} is not an instruction count (a decimal integer)")
            }),
        };
        let budget = Budget {
            warmup: parse(warmup_name, warmup, 500_000)?,
            measure: parse(measure_name, measure, 300_000)?,
        };
        if budget.measure == 0 {
            return Err(format!(
                "{measure_name}=\"0\": the measured window must be positive"
            ));
        }
        Ok(budget)
    }

    /// A reduced budget for the multi-configuration sweeps (sensitivity
    /// studies run 270 extra simulations: 9 schemes × 10 workloads × 3).
    pub fn sweep(self) -> Self {
        Budget {
            warmup: (self.warmup.saturating_mul(3) / 5).max(10_000),
            measure: (self.measure / 2).max(20_000),
        }
    }

    /// Tiny budget for unit/integration tests.
    pub fn test() -> Self {
        Budget {
            warmup: 2_000,
            measure: 10_000,
        }
    }

    /// Budget for cheap single-core characterization runs (22 apps).
    /// Longer than the 16-core budget: WPKI needs several full L2 churns
    /// to reach steady state, and single-core runs are ~50x cheaper.
    pub fn single_core(self) -> Self {
        Budget {
            warmup: self.warmup.min(200_000),
            measure: self.measure.saturating_mul(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let vars = |warmup, measure| {
            Budget::from_vars(("RENUCA_WARMUP", warmup), ("RENUCA_MEASURE", measure))
        };
        let b = vars(None, None).unwrap();
        assert!(b.measure >= 20_000);
        assert!(b.warmup >= 1_000);
        assert_eq!(
            vars(Some("7"), Some("9")),
            Ok(Budget {
                warmup: 7,
                measure: 9
            })
        );
        // Malformed or zero values are errors naming the variable and the
        // value, never a silent fall-back to the default.
        for (warmup, measure, named) in [
            (None, Some("abc"), "RENUCA_MEASURE=\"abc\""),
            (None, Some("3e5"), "RENUCA_MEASURE=\"3e5\""),
            (None, Some("0"), "RENUCA_MEASURE=\"0\""),
            (None, Some(""), "RENUCA_MEASURE=\"\""),
            (Some("-1"), None, "RENUCA_WARMUP=\"-1\""),
            (Some("18446744073709551616"), None, "RENUCA_WARMUP="),
        ] {
            let err = vars(warmup, measure).unwrap_err();
            assert!(err.contains(named), "{err}");
        }
    }

    #[test]
    fn sweep_is_cheaper() {
        let b = Budget {
            warmup: 20_000,
            measure: 120_000,
        };
        let s = b.sweep();
        assert!(s.measure < b.measure);
        assert!(s.warmup <= b.warmup);
    }

    #[test]
    fn derived_budgets_saturate_instead_of_wrapping() {
        let max = Budget {
            warmup: u64::MAX,
            measure: u64::MAX,
        };
        assert_eq!(max.sweep().warmup, u64::MAX / 5);
        assert_eq!(max.sweep().measure, u64::MAX / 2);
        assert_eq!(max.single_core().measure, u64::MAX);
        // A measure that wrapped to 0 would be a window `from_vars` refuses.
        let b = Budget::from_vars(
            ("RENUCA_WARMUP", None),
            ("RENUCA_MEASURE", Some("4611686018427387904")),
        )
        .unwrap();
        assert_eq!(b.single_core().measure, u64::MAX);
        // Every realistic budget is unchanged.
        let b = Budget {
            warmup: 500_000,
            measure: 300_000,
        };
        assert_eq!(
            b.sweep(),
            Budget {
                warmup: 300_000,
                measure: 150_000
            }
        );
        assert_eq!(b.single_core().measure, 1_200_000);
    }

    #[test]
    fn test_budget_is_tiny() {
        assert!(Budget::test().measure <= 10_000);
    }
}
